/**
 * @file
 * Host and build fingerprint printed with every benchmark result, and the
 * rule that refuses to time a build whose numbers would mislead.
 */

#ifndef PERFBENCH_FINGERPRINT_HH
#define PERFBENCH_FINGERPRINT_HH

#include <string>

namespace perfbench
{

/** Where and how this binary was built and runs. */
struct Fingerprint
{
    unsigned nproc = 0;     ///< hardware threads the host reports
    std::string compiler;   ///< compiler id and version
    std::string buildType;  ///< CMAKE_BUILD_TYPE of this build
    bool assertionsOff = false; ///< NDEBUG defined
    std::string sanitizers; ///< "none", or the sanitizers compiled in
};

/** This binary's fingerprint. */
Fingerprint hostFingerprint();

/** @p f as a one-line JSON object. */
std::string fingerprintJson(const Fingerprint &f);

/**
 * Why @p f must not be timed (a Debug build, assertions on, or an
 * AddressSanitizer / ThreadSanitizer build); empty when it may.
 */
std::string timingRefusal(const Fingerprint &f);

} // namespace perfbench

#endif // PERFBENCH_FINGERPRINT_HH
