#include "fingerprint.hh"

#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PERFBENCH_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PERFBENCH_TSAN 1
#endif
#endif

namespace perfbench
{

Fingerprint
hostFingerprint()
{
    Fingerprint f;
    f.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
    f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    f.compiler = std::string("gcc ") + __VERSION__;
#else
    f.compiler = "unknown";
#endif
    f.buildType = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    f.assertionsOff = true;
#endif
    std::string san;
#ifdef PERFBENCH_ASAN
    san += "address";
#endif
#ifdef PERFBENCH_TSAN
    san += san.empty() ? "thread" : ",thread";
#endif
    f.sanitizers = san.empty() ? "none" : san;
    return f;
}

std::string
fingerprintJson(const Fingerprint &f)
{
    return "{\"nproc\": " + std::to_string(f.nproc) + ", \"compiler\": \"" +
           f.compiler + "\", \"build_type\": \"" + f.buildType +
           "\", \"ndebug\": " + (f.assertionsOff ? "true" : "false") +
           ", \"sanitizers\": \"" + f.sanitizers + "\"}";
}

std::string
timingRefusal(const Fingerprint &f)
{
    if (f.buildType == "Debug" || !f.assertionsOff)
        return "refusing to time a " + f.buildType +
               " build (NDEBUG unset); build with "
               "-DCMAKE_BUILD_TYPE=Release";
    if (f.sanitizers != "none")
        return "refusing to time a sanitizer build (" + f.sanitizers + ")";
    return "";
}

} // namespace perfbench
