#include "fault_injector.hh"

#include <algorithm>
#include <set>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/trace.hh"

namespace xpc {

const char *
faultOpName(FaultOp op)
{
    switch (op) {
      case FaultOp::KillServer:
        return "kill-server";
      case FaultOp::HangServer:
        return "hang-server";
      case FaultOp::RevokeSeg:
        return "revoke-seg";
      case FaultOp::CorruptLinkage:
        return "corrupt-linkage";
      case FaultOp::EngineException:
        return "engine-exception";
      case FaultOp::CopyFault:
        return "copy-fault";
      case FaultOp::StallServer:
        return "stall-server";
      case FaultOp::SlowServer:
        return "slow-server";
      case FaultOp::CorruptPayload:
        return "corrupt-payload";
      case FaultOp::MutateAfterHandoff:
        return "mutate-after-handoff";
      case FaultOp::GarbageReply:
        return "garbage-reply";
    }
    return "unknown";
}

FaultPlan
FaultPlan::generate(uint64_t seed, uint64_t count, uint64_t call_span,
                    uint32_t op_mask)
{
    panic_if(call_span < count,
             "fault plan wants %lu faults in only %lu calls",
             (unsigned long)count, (unsigned long)call_span);
    if (op_mask == 0)
        op_mask = legacyFaultOpMask;

    std::vector<FaultOp> ops;
    for (uint32_t i = 0; i < faultOpCount; i++) {
        if (op_mask & (1u << i))
            ops.push_back(FaultOp(i));
    }
    panic_if(ops.empty(), "fault plan with an empty op mask");

    Rng rng(seed);

    // Distinct call sequence numbers (at most one fault per call).
    std::set<uint64_t> seqs;
    while (seqs.size() < count)
        seqs.insert(1 + rng.nextBounded(call_span));

    FaultPlan plan;
    plan.seed = seed;
    for (uint64_t s : seqs) {
        FaultEvent ev;
        ev.callSeq = s;
        ev.op = ops[rng.nextBounded(ops.size())];
        switch (ev.op) {
          case FaultOp::KillServer:
            ev.phase = FaultPhase(rng.nextBounded(3));
            break;
          case FaultOp::HangServer:
          case FaultOp::RevokeSeg:
            ev.phase = FaultPhase::InHandler;
            break;
          case FaultOp::CorruptLinkage:
            ev.phase = rng.nextBounded(2) == 0 ? FaultPhase::InHandler
                                               : FaultPhase::PreXret;
            break;
          case FaultOp::EngineException:
            ev.phase = FaultPhase::PreXcall;
            // 1 = InvalidXEntry, 2 = InvalidXcallCap (engine codes).
            ev.arg = 1 + uint32_t(rng.nextBounded(2));
            break;
          case FaultOp::CopyFault:
            ev.phase = FaultPhase::PreXcall;
            break;
          case FaultOp::StallServer:
            ev.phase = FaultPhase::InHandler;
            break;
          case FaultOp::SlowServer:
            ev.phase = FaultPhase::InHandler;
            // Run the handler at 2..8 x its normal cost.
            ev.arg = 2 + uint32_t(rng.nextBounded(7));
            break;
          case FaultOp::CorruptPayload:
            ev.phase = FaultPhase::PreXcall;
            // Even args flip a bit at (arg >> 1) % len; odd args
            // truncate the request by 1 + (arg >> 1) % 7 bytes.
            ev.arg = uint32_t(rng.nextBounded(64));
            break;
          case FaultOp::MutateAfterHandoff:
            ev.phase = FaultPhase::InHandler;
            // Mutate after the handler's 1st..4th request read.
            ev.arg = 1 + uint32_t(rng.nextBounded(4));
            break;
          case FaultOp::GarbageReply:
            ev.phase = FaultPhase::PreXret;
            ev.arg = uint32_t(rng.nextBounded(64));
            break;
        }
        plan.events.push_back(ev);
    }
    // std::set iteration is ordered, but be explicit about the
    // contract: events sorted by firing sequence.
    std::sort(plan.events.begin(), plan.events.end(),
              [](const FaultEvent &a, const FaultEvent &b) {
                  return a.callSeq < b.callSeq;
              });
    return plan;
}

const FaultEvent *
FaultInjector::eventAt(uint64_t seq) const
{
    auto it = std::lower_bound(
        plan_.events.begin(), plan_.events.end(), seq,
        [](const FaultEvent &ev, uint64_t s) { return ev.callSeq < s; });
    if (it == plan_.events.end() || it->callSeq != seq)
        return nullptr;
    return &*it;
}

void
FaultInjector::recordFired(const FaultEvent &ev)
{
    log_.push_back(ev);
    firedPerOp_[uint32_t(ev.op)]++;
    if (tracer)
        tracer->instantNow("fault", faultOpName(ev.op), 0);
}

uint64_t
FaultInjector::atCrashSite(const char *kind)
{
    if (!enabled || crashed_)
        return siteSeq_;
    uint64_t site = siteSeq_++;
    siteTotal_++;
    siteCensus_[kind]++;
    if (crashNext_ < crashPlan_.size() &&
        site == crashPlan_[crashNext_]) {
        crashNext_++;
        crashed_ = true;
        // Later plan entries count from here: a {12, 3} plan crashes
        // again 3 sites into whatever recovery follows this firing.
        siteSeq_ = 0;
        crashLog_.push_back(site);
        if (tracer)
            tracer->instantNow("fault", "crash-site", 0, kind);
    }
    return site;
}

uint64_t
FaultInjector::firedCount(FaultOp op) const
{
    return firedPerOp_[uint32_t(op)];
}

uint32_t
FaultInjector::firedKinds() const
{
    uint32_t kinds = 0;
    for (uint32_t i = 0; i < faultOpCount; i++) {
        if (firedPerOp_[i] > 0)
            kinds++;
    }
    return kinds;
}

std::string
FaultInjector::reportJson() const
{
    std::string s = "{\"seed\":" + std::to_string(plan_.seed) +
                    ",\"calls\":" + std::to_string(seq_) +
                    ",\"planned\":" + std::to_string(plan_.events.size()) +
                    ",\"injected\":" + std::to_string(log_.size()) +
                    ",\"by_kind\":{";
    for (uint32_t i = 0; i < faultOpCount; i++) {
        if (i > 0)
            s += ",";
        s += json::str(faultOpName(FaultOp(i))) + ":" +
             std::to_string(firedPerOp_[i]);
    }
    s += "}}";
    return s;
}

} // namespace xpc
