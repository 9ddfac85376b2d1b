#include "host_probe.hh"

#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

// Kernel sizes and their reference times (seconds), measured on the
// 4-vCPU Xeon host the benchmark was built on. The constants only fix
// the unit of the rescaled seconds; they must never change, or rescaled
// figures from before and after stop being comparable.
constexpr std::size_t kSortSize = 100000;
constexpr std::size_t kTableSize = 1 << 14;
constexpr std::size_t kRingSize = 1 << 15;
constexpr std::size_t kIlpSteps = 500000;
constexpr std::size_t kChaseSteps = 1000000;
constexpr double kSortRef = 0.0096;
constexpr double kIlpRef = 0.0020;
constexpr double kChaseRef = 0.0055;
// In-call probe period: one ~17 ms pass every 0.4 s takes about 4% of a
// timed call's wall time. The pass's own time is taken out of the call's;
// the cache refill it leaves the call (its buffers total about 1 MB) is
// not, and stays in both raw and rescaled seconds. Calls shorter than the
// period get no in-call pass, only the probes before and after.
constexpr double kProbeInterval = 0.4;

std::uint64_t
lcg(std::uint64_t &s)
{
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
}

double
seconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile std::uint64_t sink;

/** The probe whose timer is armed (signal handlers take no context). */
HostProbe *armedProbe = nullptr;

void
setTimer(double interval_s)
{
    itimerval it{};
    auto usec = static_cast<long>(interval_s * 1e6);
    it.it_interval.tv_sec = usec / 1000000;
    it.it_interval.tv_usec = usec % 1000000;
    it.it_value = it.it_interval;
    if (setitimer(ITIMER_REAL, &it, nullptr) != 0)
        throw std::runtime_error(std::string("setitimer: ") +
                                 std::strerror(errno));
}

} // namespace

HostProbe::HostProbe()
    : sortInput(kSortSize), scratch(kSortSize), table(kTableSize),
      ring(kRingSize)
{
    std::uint64_t s = 12345;
    for (int &x : sortInput)
        x = static_cast<int>(lcg(s));
    for (std::size_t i = 0; i < kTableSize; ++i)
        table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    // One random cycle through every ring slot.
    std::vector<std::uint32_t> order(kRingSize);
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = kRingSize - 1; i > 0; --i)
        std::swap(order[i], order[lcg(s) % (i + 1)]);
    for (std::size_t i = 0; i < kRingSize; ++i)
        ring[order[i]] = order[(i + 1) % kRingSize];
}

double
HostProbe::slowness()
{
    // Median of three passes: one pass the scheduler preempts is dropped.
    double pass[3] = {onePass(), onePass(), onePass()};
    std::sort(pass, pass + 3);
    return pass[1];
}

void
HostProbe::onAlarm(int)
{
    HostProbe *p = armedProbe;
    if (p == nullptr)
        return;
    auto t0 = Clock::now();
    double slow = p->onePass();
    p->inCallSeconds = p->inCallSeconds + seconds(t0);
    p->inCallSlowness = p->inCallSlowness + slow;
    p->inCallPasses = p->inCallPasses + 1;
}

Timed
HostProbe::timeRescaled(const std::function<void()> &call)
{
    if (armedProbe != nullptr)
        throw std::logic_error("HostProbe::timeRescaled is not reentrant");
    double before = slowness();
    inCallSlowness = 0.0;
    inCallSeconds = 0.0;
    inCallPasses = 0;

    // SA_RESTART: the timed library code's file writes resume after the
    // handler instead of failing with EINTR.
    struct sigaction sa{};
    sa.sa_handler = &HostProbe::onAlarm;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    struct sigaction old{};
    if (sigaction(SIGALRM, &sa, &old) != 0)
        throw std::runtime_error(std::string("sigaction: ") +
                                 std::strerror(errno));
    armedProbe = this;
    auto t0 = Clock::now();
    try {
        setTimer(kProbeInterval);
        call();
    } catch (...) {
        setTimer(0.0);
        armedProbe = nullptr;
        sigaction(SIGALRM, &old, nullptr);
        throw;
    }
    setTimer(0.0);
    double wall = seconds(t0);
    armedProbe = nullptr;
    sigaction(SIGALRM, &old, nullptr);

    double after = slowness();
    Timed t;
    t.raw = wall - inCallSeconds;
    t.scaled = t.raw * (2.0 + inCallPasses) /
               (before + after + inCallSlowness);
    return t;
}

double
HostProbe::onePass()
{
    auto t0 = Clock::now();
    std::copy(sortInput.begin(), sortInput.end(), scratch.begin());
    std::sort(scratch.begin(), scratch.end());
    double sortT = seconds(t0);

    t0 = Clock::now();
    std::uint64_t a = 1, b = 2, c = 3, d = 4, h = 0;
    for (std::size_t k = 0; k < kIlpSteps; ++k) {
        a = a * 6364136223846793005ULL + 1;
        b = b * 2862933555777941757ULL + 3;
        c ^= c << 7;
        c ^= c >> 9;
        d += a ^ b;
        h += table[(a >> 40) & (kTableSize - 1)];
        h ^= table[(b >> 40) & (kTableSize - 1)];
        if ((c & 7) == 3)
            h += d;
        else
            h -= c;
    }
    double ilpT = seconds(t0);

    t0 = Clock::now();
    std::uint32_t at = 0;
    for (std::size_t k = 0; k < kChaseSteps; ++k) {
        at = ring[at];
        h += at;
    }
    double chaseT = seconds(t0);

    sink = h + scratch[kSortSize / 2];
    return (sortT / kSortRef + ilpT / kIlpRef + chaseT / kChaseRef) / 3.0;
}

} // namespace perfbench
