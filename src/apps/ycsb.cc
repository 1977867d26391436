#include "ycsb.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace xpc::apps {

namespace {

/** Bytes per record value: 10 fields x 100 B. */
constexpr uint64_t valueBytes = 1000;
/** Longest YCSB-E scan, in records. */
constexpr uint32_t maxScanLen = 100;

} // namespace

const char *
ycsbName(YcsbWorkload w)
{
    switch (w) {
      case YcsbWorkload::A:
        return "YCSB-A";
      case YcsbWorkload::B:
        return "YCSB-B";
      case YcsbWorkload::C:
        return "YCSB-C";
      case YcsbWorkload::D:
        return "YCSB-D";
      case YcsbWorkload::E:
        return "YCSB-E";
      case YcsbWorkload::F:
        return "YCSB-F";
    }
    return "?";
}

Ycsb::Ycsb(const YcsbConfig &config)
    : cfg(config), rng(config.seed), zipf(config.records, 0.99,
                                          config.seed + 1),
      insertedKeys(config.records)
{
}

std::string
Ycsb::keyFor(uint64_t n) const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%016llu",
                  (unsigned long long)n);
    return buf;
}

std::string
Ycsb::nextRequestKey()
{
    return keyFor(zipf.next());
}

void
Ycsb::fillValue(std::vector<uint8_t> &value, uint64_t n)
{
    value.resize(valueBytes);
    for (size_t i = 0; i < value.size(); i++)
        value[i] = uint8_t((n * 131 + i * 7) & 0xff);
}

void
Ycsb::load(MiniDb &db, hw::Core &core)
{
    (void)core;
    std::vector<uint8_t> value;
    for (uint64_t i = 0; i < cfg.records; i++) {
        fillValue(value, i);
        db.put(keyFor(i), value.data(), uint32_t(value.size()));
    }
    insertedKeys = cfg.records;
}

YcsbResult
Ycsb::run(MiniDb &db, hw::Core &core, YcsbWorkload workload)
{
    YcsbResult res;
    std::vector<uint8_t> value;
    Cycles start = core.now();

    for (uint64_t op = 0; op < cfg.operations; op++) {
        double p = rng.nextDouble();
        switch (workload) {
          case YcsbWorkload::A:
            if (p < 0.5) {
                db.get(nextRequestKey());
                res.reads++;
            } else {
                fillValue(value, op);
                db.put(nextRequestKey(), value.data(),
                       uint32_t(value.size()));
                res.updates++;
            }
            break;
          case YcsbWorkload::B:
            if (p < 0.95) {
                db.get(nextRequestKey());
                res.reads++;
            } else {
                fillValue(value, op);
                db.put(nextRequestKey(), value.data(),
                       uint32_t(value.size()));
                res.updates++;
            }
            break;
          case YcsbWorkload::C:
            db.get(nextRequestKey());
            res.reads++;
            break;
          case YcsbWorkload::D:
            if (p < 0.95) {
                // Read latest: bias to recently inserted keys.
                uint64_t back = rng.nextBounded(
                    std::min<uint64_t>(insertedKeys, 64));
                db.get(keyFor(insertedKeys - 1 - back));
                res.reads++;
            } else {
                fillValue(value, insertedKeys);
                db.put(keyFor(insertedKeys++), value.data(),
                       uint32_t(value.size()));
                res.inserts++;
            }
            break;
          case YcsbWorkload::E:
            if (p < 0.95) {
                uint32_t len =
                    1 + uint32_t(rng.nextBounded(maxScanLen));
                db.scan(nextRequestKey(), len);
                res.scans++;
            } else {
                fillValue(value, insertedKeys);
                db.put(keyFor(insertedKeys++), value.data(),
                       uint32_t(value.size()));
                res.inserts++;
            }
            break;
          case YcsbWorkload::F:
            if (p < 0.5) {
                db.get(nextRequestKey());
                res.reads++;
            } else {
                db.readModifyWrite(nextRequestKey(), 1);
                res.updates++;
            }
            break;
        }
        res.operations++;
    }

    res.totalCycles = core.now() - start;
    return res;
}

} // namespace xpc::apps
