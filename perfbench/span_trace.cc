#include "span_trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

namespace perfbench
{

const char *
spanNameText(SpanName n)
{
    switch (n) {
    case SpanName::Point: return "driver.point";
    case SpanName::NetworkBuild: return "network.build";
    case SpanName::SimRun: return "sim.run";
    case SpanName::SimSchedule: return "sim.schedule";
    case SpanName::Arrival: return "driver.arrival";
    case SpanName::ArrivalGap: return "rng.arrival_gap";
    case SpanName::PickDest: return "traffic.pick_dest";
    case SpanName::Offer: return "network.offer";
    case SpanName::Tick: return "driver.tick";
    case SpanName::Step: return "network.step";
    case SpanName::NextWorkCycle: return "network.next_work_cycle";
    case SpanName::ResetCounters: return "network.reset_counters";
    case SpanName::Collect: return "stats.collect";
    case SpanName::CloseSample: return "stats.close_sample";
    case SpanName::CatchUp: return "obs.catch_up";
    case SpanName::ObsExport: return "obs.export";
    case SpanName::FaultAbort: return "fault.abort";
    case SpanName::FaultReoffer: return "fault.reoffer";
    case SpanName::DeadlockAbort: return "deadlock.abort";
    case SpanName::DeadlockReoffer: return "deadlock.reoffer";
    case SpanName::Count: break;
    }
    return "?";
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    // (parent index, clipped child start, clipped child end)
    std::vector<std::tuple<std::size_t, std::int64_t, std::int64_t>> kids;
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span &p = spans[it->second];
        std::int64_t lo = std::max(s.start, p.start);
        std::int64_t hi = std::min(s.end, p.end);
        if (hi > lo)
            kids.emplace_back(it->second, lo, hi);
    }
    std::sort(kids.begin(), kids.end());

    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].duration();
    // Sweep each parent's children in start order, merging overlaps.
    for (std::size_t k = 0; k < kids.size();) {
        std::size_t parent = std::get<0>(kids[k]);
        std::int64_t covered = 0;
        std::int64_t runLo = std::get<1>(kids[k]);
        std::int64_t runHi = std::get<2>(kids[k]);
        for (++k; k < kids.size() && std::get<0>(kids[k]) == parent; ++k) {
            std::int64_t lo = std::get<1>(kids[k]);
            std::int64_t hi = std::get<2>(kids[k]);
            if (lo > runHi) {
                covered += runHi - runLo;
                runLo = lo;
                runHi = hi;
            } else {
                runHi = std::max(runHi, hi);
            }
        }
        covered += runHi - runLo;
        self[parent] -= covered;
    }
    return self;
}

Tracer::Tracer(std::size_t keep_per_point)
    : epoch(std::chrono::steady_clock::now()), keepPerPoint(keep_per_point)
{
}

void
Tracer::beginPoint(std::uint32_t point, std::string label)
{
    if (!stack.empty())
        throw std::logic_error("Tracer::beginPoint inside an open point");
    currentPoint = point;
    pointFirstId = nextId;
    labels.emplace_back(point, std::move(label));
    open(SpanName::Point);
}

void
Tracer::endPoint()
{
    if (stack.size() != 1)
        throw std::logic_error("Tracer::endPoint with spans still open");
    OpenSpan o = stack.back();
    stack.pop_back();
    Span root{o.id, o.parent, currentPoint, o.name, o.start, nowNs()};
    // The root's self time: its duration minus what its direct children
    // (folded earlier, kept in rootChildren) cover.
    rootChildren.push_back(root);
    std::vector<std::int64_t> self = selfTimes(rootChildren);
    accumulate(root, self.back());
    retain(root, 0);
    rootChildren.clear();
}

void
Tracer::open(SpanName name)
{
    std::uint32_t parent = stack.empty() ? 0 : stack.back().id;
    stack.push_back({nextId++, parent, name, nowNs()});
}

void
Tracer::close()
{
    if (stack.size() < 2)
        throw std::logic_error("Tracer::close without an open child span");
    std::int64_t end = nowNs();
    OpenSpan o = stack.back();
    stack.pop_back();
    Span s{o.id, o.parent, currentPoint, o.name, o.start, end};
    pending.push_back(s);
    retain(s, stack.size());
    if (stack.size() == 1) {
        rootChildren.push_back(s);
        foldPending();
    }
}

void
Tracer::foldPending()
{
    std::vector<std::int64_t> self = selfTimes(pending);
    for (std::size_t i = 0; i < pending.size(); ++i)
        accumulate(pending[i], self[i]);
    pending.clear();
}

void
Tracer::accumulate(const Span &s, std::int64_t self)
{
    SpanTotals &t = sums[static_cast<std::size_t>(s.name)];
    ++t.calls;
    t.totalNs += s.duration();
    t.selfNs += self;
    if (s.name == SpanName::Step)
        stepUs.push_back(static_cast<double>(s.duration()) / 1000.0);
}

void
Tracer::retain(const Span &s, std::size_t depth)
{
    // A kept child's parent opened earlier (smaller id), so it is kept too.
    if (depth <= 1 || s.id < pointFirstId + keepPerPoint)
        keptSpans.push_back(s);
}

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream &os,
                         const std::string &other_data) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << other_data
       << ",\"traceEvents\":[";
    bool first = true;
    for (const auto &[point, label] : labels) {
        os << (first ? "" : ",") << "\n{\"name\":\"process_name\","
           << "\"ph\":\"M\",\"pid\":" << point << ",\"tid\":0,"
           << "\"args\":{\"name\":\"" << jsonEscape(label) << "\"}}";
        first = false;
    }
    char buf[64];
    for (const Span &s : keptSpans) {
        const char *name = spanNameText(s.name);
        std::string layer(name, std::strchr(name, '.'));
        os << (first ? "" : ",") << "\n{\"name\":\"" << name
           << "\",\"cat\":\"" << layer << "\",\"ph\":\"X\",\"pid\":"
           << s.point << ",\"tid\":0";
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.start) / 1000.0,
                      static_cast<double>(s.duration()) / 1000.0);
        os << buf << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << "}}";
        first = false;
    }
    os << "\n]}\n";
}

} // namespace perfbench
