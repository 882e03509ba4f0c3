#include "obs/manifest.hh"

#include <atomic>
#include <ostream>

#include "base/compiler.hh"
#include "obs/json.hh"

// Configure-time provenance (src/obs/CMakeLists.txt). The fallbacks
// keep non-CMake builds (and the analyzer's in-memory fixtures)
// compiling.
#ifndef MINDFUL_GIT_SHA
#define MINDFUL_GIT_SHA "unknown"
#endif
#ifndef MINDFUL_BUILD_TYPE
#define MINDFUL_BUILD_TYPE "unknown"
#endif

namespace mindful::obs {

namespace {

MINDFUL_ATOMIC_ROLE(once_flag)
std::atomic<std::uint64_t> g_configHash{0};
MINDFUL_ATOMIC_ROLE(once_flag)
std::atomic<unsigned> g_threadCount{0};

std::string
compilerString()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

RunManifest
RunManifest::current()
{
    RunManifest manifest;
    manifest.gitSha = MINDFUL_GIT_SHA;
    manifest.buildType = MINDFUL_BUILD_TYPE;
    manifest.compiler = compilerString();
    manifest.threads = g_threadCount.load(std::memory_order_relaxed);
    manifest.configHash = g_configHash.load(std::memory_order_relaxed);
    return manifest;
}

void
RunManifest::writeJsonObject(std::ostream &os) const
{
    os << "{\"git_sha\": ";
    writeJsonEscaped(os, gitSha);
    os << ", \"build_type\": ";
    writeJsonEscaped(os, buildType);
    os << ", \"compiler\": ";
    writeJsonEscaped(os, compiler);
    os << ", \"threads\": " << threads;
    // Hex, so the hash survives JSON readers that coerce numbers to
    // 53-bit doubles.
    constexpr const char *hex = "0123456789abcdef";
    os << ", \"config_hash\": \"0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        os << hex[(configHash >> shift) & 0xf];
    os << "\"}";
}

std::uint64_t
hashCommandLine(int argc, char **argv)
{
    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    constexpr std::uint64_t kPrime = 1099511628211ull;
    for (int i = 0; i < argc; ++i) {
        for (const char *c = argv[i]; *c != '\0'; ++c) {
            hash ^= static_cast<unsigned char>(*c);
            hash *= kPrime;
        }
        hash ^= 0u; // NUL separator
        hash *= kPrime;
    }
    return hash;
}

void
setManifestConfigHash(std::uint64_t hash)
{
    g_configHash.store(hash, std::memory_order_relaxed);
}

void
setManifestThreadCount(unsigned threads)
{
    g_threadCount.store(threads, std::memory_order_relaxed);
}

} // namespace mindful::obs
