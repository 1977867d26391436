/**
 * @file
 * The YCSB core workloads (A-F) driving MiniDb, as in the paper's
 * Figure 1 and Figure 8 experiments: 1,000 records, Zipfian request
 * keys, the standard operation mixes.
 */

#ifndef XPC_APPS_YCSB_HH
#define XPC_APPS_YCSB_HH

#include <string>

#include "apps/minidb/minidb.hh"
#include "sim/random.hh"

namespace xpc::apps {

/** The six core workloads. */
enum class YcsbWorkload { A, B, C, D, E, F };

const char *ycsbName(YcsbWorkload w);

/** Configuration of one run. */
struct YcsbConfig
{
    uint64_t records = 1000;     ///< table size (paper 5.4)
    uint64_t operations = 500;   ///< ops per measured run
    uint64_t seed = 42;
};

/** Result of one run. */
struct YcsbResult
{
    uint64_t operations = 0;
    uint64_t reads = 0;
    uint64_t updates = 0;
    uint64_t inserts = 0;
    uint64_t scans = 0;
    Cycles totalCycles;

    double
    throughputOpsPerSec(double freq_hz) const
    {
        return double(operations) * freq_hz /
               double(totalCycles.value());
    }
};

/** The workload driver. */
class Ycsb
{
  public:
    explicit Ycsb(const YcsbConfig &config);

    /** Load phase: insert the records. */
    void load(MiniDb &db, hw::Core &core);

    /** Run phase for @p workload. */
    YcsbResult run(MiniDb &db, hw::Core &core, YcsbWorkload workload);

  private:
    YcsbConfig cfg;
    Rng rng;
    Zipfian zipf;
    uint64_t insertedKeys;

    std::string keyFor(uint64_t n) const;
    std::string nextRequestKey();
    void fillValue(std::vector<uint8_t> &value, uint64_t n);
};

} // namespace xpc::apps

#endif // XPC_APPS_YCSB_HH
