/**
 * @file
 * In-memory span tracer for the benchmark's traced run.
 *
 * The replica driver (replica.hh) opens a span around every call it makes
 * into a library layer. A span records its name, start, end, its own id,
 * the id of the span that caused it (its parent) and the id of the
 * simulation point it belongs to; every span of one point shares that
 * point id. Spans stay in memory while the run is timed and are written
 * out as a Chrome trace-event file only when the run ends.
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover (selfTimes()). The tracer folds each
 * completed subtree under the point's root span into per-name totals as
 * soon as it closes, so memory stays bounded by one sampling period of
 * spans; only the first keepPerPoint spans of each point, plus every
 * span directly under its root, are retained for the written file.
 */

#ifndef PERFBENCH_SPAN_TRACE_HH
#define PERFBENCH_SPAN_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench
{

/** Span names: one per layer boundary the replica driver crosses. */
enum class SpanName : std::uint16_t
{
    Point,           ///< driver: one whole replica run() (root)
    NetworkBuild,    ///< network: Network construction inside run()
    SimRun,          ///< sim: Simulator::run() (event dispatch loop)
    SimSchedule,     ///< sim: EventQueue insertion from the driver
    Arrival,         ///< driver: one arrival event callback
    ArrivalGap,      ///< rng: stream lookup + geometric gap draw
    PickDest,        ///< traffic: TrafficPattern::pickDest
    Offer,           ///< network: Network::offerMessage
    Tick,            ///< driver: one fabric tick event callback
    Step,            ///< network: Network::step
    NextWorkCycle,   ///< network: Network::nextWorkCycle (skip engine)
    ResetCounters,   ///< network: Network::resetCounters
    Collect,         ///< stats: per-delivery collectors (delivery hook)
    CloseSample,     ///< stats: closing one sampling period
    CatchUp,         ///< obs: Network::catchUpMetrics
    ObsExport,       ///< obs: metrics summary + time-series CSV
    FaultAbort,      ///< fault: abort hook (link fault / starvation)
    FaultReoffer,    ///< fault: re-offer callback (Network::offerRetry)
    DeadlockAbort,   ///< deadlock: abort hook (recovery victim)
    DeadlockReoffer, ///< deadlock: re-offer callback
    Count,
};

constexpr std::size_t kNumSpanNames =
    static_cast<std::size_t>(SpanName::Count);

/** Dotted layer.name string of @p n (e.g. "network.step"). */
const char *spanNameText(SpanName n);

/** One closed span; times are ns since the tracer's epoch. */
struct Span
{
    std::uint32_t id = 0;     ///< unique within the run, from 1
    std::uint32_t parent = 0; ///< id of the causing span; 0 = none
    std::uint32_t point = 0;  ///< simulation point every span shares
    SpanName name = SpanName::Point;
    std::int64_t start = 0;
    std::int64_t end = 0;

    std::int64_t duration() const { return end - start; }
};

/**
 * Self time of every span in @p spans (same order): its duration minus
 * the length of the union of its direct children's intervals, each
 * clipped to the parent's interval. Children are the spans whose parent
 * id names it; overlapping children are counted once, grandchildren
 * not at all (they lie inside their own parent).
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Per-name totals accumulated over a traced run. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

/** Records nested spans; not thread-safe (one tracer per thread). */
class Tracer
{
  public:
    /** @param keep_per_point spans of each point kept for the file */
    explicit Tracer(std::size_t keep_per_point = 20000);

    /** Open the root span of simulation point @p point (labelled). */
    void beginPoint(std::uint32_t point, std::string label);

    /** Close the root span opened by beginPoint(). */
    void endPoint();

    /** Open a span under the innermost open one. */
    void open(SpanName name);

    /** Close the innermost open span. */
    void close();

    /** Totals for @p name over every folded span. */
    const SpanTotals &totals(SpanName name) const
    {
        return sums[static_cast<std::size_t>(name)];
    }

    /** Durations of every network.step span, in microseconds. */
    const std::vector<double> &stepDurationsUs() const { return stepUs; }

    /** The spans retained for the written trace, in closing order. */
    const std::vector<Span> &kept() const { return keptSpans; }

    /**
     * Write the retained spans as a Chrome trace-event JSON object; one
     * process per point (named by its label), span and parent ids in
     * each event's args, and @p other_data (a JSON object literal) under
     * "otherData".
     */
    void writeChromeTrace(std::ostream &os,
                          const std::string &other_data) const;

  private:
    struct OpenSpan
    {
        std::uint32_t id;
        std::uint32_t parent;
        SpanName name;
        std::int64_t start;
    };

    std::int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }

    /** Fold the closed subtrees in pending into the totals. */
    void foldPending();
    void accumulate(const Span &s, std::int64_t self);
    void retain(const Span &s, std::size_t depth);

    std::chrono::steady_clock::time_point epoch;
    std::size_t keepPerPoint;
    std::uint32_t nextId = 1;
    std::uint32_t currentPoint = 0;
    std::uint32_t pointFirstId = 0;
    std::vector<OpenSpan> stack;
    std::vector<Span> pending;      ///< closed, not yet folded
    std::vector<Span> rootChildren; ///< closed spans directly under root
    std::vector<Span> keptSpans;
    std::vector<std::pair<std::uint32_t, std::string>> labels;
    std::array<SpanTotals, kNumSpanNames> sums{};
    std::vector<double> stepUs;
};

/** RAII span: opens on construction, closes on destruction; no-op when
 *  the tracer is null (the untraced replica). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, SpanName name) : t(tracer)
    {
        if (t)
            t->open(name);
    }
    ~ScopedSpan()
    {
        if (t)
            t->close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HH
