#include "checks.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "wormsim/common/json.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace wormsim;

namespace
{

class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void
    d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u(bits);
    }
    void
    s(const std::string &text)
    {
        u(text.size());
        bytes(text.data(), text.size());
    }
    void
    ds(const std::vector<double> &v)
    {
        u(v.size());
        for (double x : v)
            d(x);
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

} // namespace

std::uint64_t
resultDigest(const SimulationResult &r)
{
    Fnv f;
    f.s(r.algorithm);
    f.s(r.traffic);
    f.s(r.topology);
    f.d(r.offeredLoad);
    f.d(r.injectionRate);
    f.d(r.meanMinDistance);
    f.d(r.avgLatency);
    f.d(r.latencyErrorBound);
    f.d(r.achievedUtilization);
    f.d(r.rawChannelUtilization);
    f.d(r.avgThroughput);
    f.d(r.avgHops);
    f.d(r.dropFraction);
    f.d(r.latencyP50);
    f.d(r.latencyP95);
    f.d(r.latencyP99);
    f.d(r.channelLoadCv);
    f.u(static_cast<std::uint64_t>(r.stopReason));
    f.u(static_cast<std::uint64_t>(r.numSamples));
    f.u(r.cyclesSimulated);
    f.u(r.idleCycles);
    f.u(r.messagesDelivered);
    f.u(r.messagesDropped);
    f.u(r.deadlockDetected ? 1 : 0);
    f.u(r.messagesKilled);
    f.ds(r.vcClassLoadShare);
    f.ds(r.hopClassLatency);
    f.u(r.samples.size());
    for (const SampleResult &s : r.samples) {
        f.d(s.meanLatency);
        f.d(s.stratifiedLatency);
        f.d(s.stratifiedError);
        f.d(s.utilization);
        f.d(s.rawUtilization);
        f.d(s.throughput);
        f.u(s.delivered);
        f.u(s.dropped);
        f.d(s.meanHops);
    }
    const StallSummary &st = r.stalls;
    f.u(st.collected ? 1 : 0);
    f.u(st.vcBusy);
    f.u(st.physBusy);
    f.u(st.bufferFull);
    f.u(st.injectionLimit);
    f.u(st.totalBlockCycles);
    f.u(st.flitsForwarded);
    f.u(st.watchdogSuspectScans);
    f.d(st.meanVcOccupancy);
    const ResilienceStats &rs = r.resilience;
    f.u(rs.collected ? 1 : 0);
    f.u(rs.linkFailures);
    f.u(rs.linkRepairs);
    f.u(rs.generated);
    f.u(rs.dropped);
    f.u(rs.delivered);
    f.u(rs.aborted);
    f.u(rs.retriesScheduled);
    f.u(rs.retriesInjected);
    f.u(rs.retriesRefused);
    f.u(rs.abandoned);
    f.d(rs.deliveredFraction);
    f.u(rs.degradedCycles);
    f.u(rs.degradedDeliveries);
    f.d(rs.degradedP50);
    f.d(rs.degradedP95);
    f.d(rs.degradedP99);
    f.u(rs.unattributedAborts);
    f.u(rs.faults.size());
    for (const FaultAttribution &fa : rs.faults) {
        f.u(static_cast<std::uint64_t>(fa.channel));
        f.u(fa.downCycle);
        f.u(fa.repaired ? 1 : 0);
        f.u(fa.upCycle);
        f.u(fa.aborts);
    }
    const DeadlockStats &dl = r.deadlock;
    f.u(dl.collected ? 1 : 0);
    f.u(dl.scans);
    f.u(dl.detections);
    f.u(dl.largestKnot);
    f.u(dl.timeoutSuspects);
    f.u(dl.timeoutFalsePositives);
    f.u(dl.victims);
    f.u(dl.victimDelivered);
    f.u(dl.victimAbandoned);
    f.u(dl.victimPending);
    f.u(dl.recoveryLatencySum);
    f.u(dl.generated);
    f.u(dl.dropped);
    f.u(dl.delivered);
    f.u(dl.inFlightAtEnd);
    f.d(dl.deliveredFraction);
    return f.value();
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

namespace
{

void
expectEq(std::vector<std::string> &out, const char *what, std::uint64_t a,
         std::uint64_t b)
{
    if (a != b)
        out.push_back(std::string(what) + ": " + std::to_string(a) +
                      " != " + std::to_string(b));
}

} // namespace

std::vector<std::string>
checkInvariants(const SimulationConfig &cfg, const SimulationResult &r,
                const ReplicaCounts &c)
{
    std::vector<std::string> bad;
    std::uint64_t abandoned = r.resilience.abandoned +
                              r.deadlock.victimAbandoned;
    expectEq(bad, "payload conservation (generated vs dropped + delivered "
                  "+ in flight + retry backoff + abandoned + killed)",
             c.generated,
             c.generatedDropped + c.delivered + c.inFlightAtEnd +
                 c.retriesPendingAtEnd + abandoned + c.killed);
    if (r.resilience.collected) {
        const ResilienceStats &rs = r.resilience;
        expectEq(bad, "fault: generated", rs.generated, c.generated);
        expectEq(bad, "fault: dropped", rs.dropped, c.generatedDropped);
        expectEq(bad, "fault: delivered", rs.delivered, c.delivered);
        expectEq(bad, "fault: aborted", rs.aborted, c.faultAborts);
        expectEq(bad, "fault: retries injected", rs.retriesInjected,
                 c.faultReoffersAdmitted);
        expectEq(bad, "fault: retries refused", rs.retriesRefused,
                 c.faultReoffers - c.faultReoffersAdmitted);
    }
    if (r.deadlock.collected) {
        const DeadlockStats &dl = r.deadlock;
        expectEq(bad, "deadlock: generated", dl.generated, c.generated);
        expectEq(bad, "deadlock: dropped", dl.dropped, c.generatedDropped);
        expectEq(bad, "deadlock: victims", dl.victims, c.deadlockAborts);
        expectEq(bad, "deadlock: victim fates", dl.sum(), dl.victims);
    }
    if (isPaperAlgorithm(cfg.algorithm)) {
        if (!cfg.faultsEnabled()) {
            expectEq(bad, "deadlock-free algorithm: detections",
                     c.detector.detections, 0);
            expectEq(bad, "deadlock-free algorithm: deadlock flag",
                     r.deadlockDetected ? 1 : 0, 0);
        }
        expectEq(bad, "deadlock-free algorithm: recovery victims",
                 c.deadlockAborts, 0);
    }
    if (cfg.metricsInterval > 0 || r.stalls.collected) {
        expectEq(bad, "metrics on: stalls collected",
                 r.stalls.collected ? 1 : 0, 1);
        expectEq(bad, "stall causes sum vs total block cycles",
                 r.stalls.sum(), r.stalls.totalBlockCycles);
    }
    return bad;
}

std::map<std::string, ExpectedDigests>
loadExpectedDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open '" + path + "'");
    std::stringstream text;
    text << in.rdbuf();
    std::string doc = text.str();
    JsonValue root;
    if (!JsonParser(doc).parse(root) || root.kind != JsonValue::Object)
        throw std::runtime_error("'" + path + "' is not a JSON object");
    auto strings = [&path](const JsonValue *list) {
        std::vector<std::string> out;
        if (list == nullptr || list->kind != JsonValue::Array)
            throw std::runtime_error("'" + path + "': missing digest list");
        for (const JsonValue &v : list->items) {
            if (v.kind != JsonValue::String)
                throw std::runtime_error("'" + path +
                                         "': digest is not a string");
            out.push_back(v.text);
        }
        return out;
    };
    std::map<std::string, ExpectedDigests> out;
    for (const auto &[name, entry] : root.fields)
        out[name] = {strings(entry.field("full")),
                     strings(entry.field("canary"))};
    return out;
}

} // namespace perfbench
