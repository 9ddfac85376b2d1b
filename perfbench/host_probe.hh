/**
 * @file
 * HostProbe: a fixed CPU workload that measures how fast the host is
 * running right now.
 *
 * On a shared host the simulator's speed drifts by 30% and more over
 * seconds to minutes as other tenants' load comes and goes. The drift
 * is per core, and it tracks branchy, ILP-bound code. The probe's three
 * kernels (a branchy sort, an ILP-heavy hash/LCG loop with table lookups,
 * and an L2-resident pointer chase) slow down with the simulator under
 * that contention, and they never change with the library.
 * timeRescaled() runs the probe before and after a timed call and, from a
 * SIGALRM handler on the same thread, every few hundred milliseconds
 * during it. It divides the call's own seconds (in-call probe time taken
 * out) by the mean slowness the probe saw, which rescales them to a fixed
 * reference host speed. The probes before and after alone do not follow
 * the drift through calls of several seconds; the in-call passes do.
 */

#ifndef PERFBENCH_HOST_PROBE_HH
#define PERFBENCH_HOST_PROBE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench
{

/** Host seconds of one call: as measured, and rescaled. */
struct Timed
{
    double raw = 0.0;    ///< wall seconds minus in-call probe time
    double scaled = 0.0; ///< raw / mean slowness
};

/** Measures the host's current speed against fixed reference times. */
class HostProbe
{
  public:
    HostProbe();

    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /**
     * Run the kernels (three passes, about 50 ms) and return the host's
     * current slowness: the median pass's mean over kernels of measured
     * / reference time, so 1 is the reference speed and 1.3 a host
     * running 30% slower.
     */
    double slowness();

    /**
     * Time @p call with the probe run before it, after it, and every
     * 0.4 s during it (one pass per SIGALRM). Not reentrant; one
     * HostProbe may be timing at a time.
     */
    Timed timeRescaled(const std::function<void()> &call);

  private:
    static void onAlarm(int);
    double onePass();

    std::vector<int> sortInput;
    std::vector<int> scratch;
    std::vector<std::uint32_t> table;
    std::vector<std::uint32_t> ring;

    // Written only by onAlarm() while the timer is armed.
    volatile double inCallSlowness = 0.0;
    volatile double inCallSeconds = 0.0;
    volatile int inCallPasses = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_HH
