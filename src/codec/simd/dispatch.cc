#include "codec/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/error.h"

namespace blot::simd {
namespace {

bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::strcmp(value, "0") != 0 &&
         std::strcmp(value, "") != 0;
}

// CPUID support probe; compile-time-gated so non-x86 builds fall back to
// scalar cleanly.
bool CpuSupports(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kScalar:
      return true;
    case ScanEngine::kSse42:
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("sse4.2");
#else
      return false;
#endif
    case ScanEngine::kAvx2:
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

ScanEngine ClampToSupported(ScanEngine engine) {
  // Degrade avx2 -> sse4.2 -> scalar until both the binary and the CPU
  // agree.
  if (engine == ScanEngine::kAvx2 &&
      (!ScanEngineCompiledIn(ScanEngine::kAvx2) ||
       !CpuSupports(ScanEngine::kAvx2)))
    engine = ScanEngine::kSse42;
  if (engine == ScanEngine::kSse42 &&
      (!ScanEngineCompiledIn(ScanEngine::kSse42) ||
       !CpuSupports(ScanEngine::kSse42)))
    engine = ScanEngine::kScalar;
  return engine;
}

std::atomic<std::uint8_t>& ActiveEngineSlot() {
  static std::atomic<std::uint8_t> slot{
      static_cast<std::uint8_t>(DetectScanEngine())};
  return slot;
}

std::atomic<bool>& ZoneMapSlot() {
  static std::atomic<bool> slot{true};
  return slot;
}

}  // namespace

std::string_view ScanEngineName(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kScalar:
      return "scalar";
    case ScanEngine::kSse42:
      return "sse4.2";
    case ScanEngine::kAvx2:
      return "avx2";
  }
  throw InvalidArgument("ScanEngineName: unknown engine");
}

bool ScanEngineCompiledIn(ScanEngine engine) {
  switch (engine) {
    case ScanEngine::kScalar:
      return true;
    case ScanEngine::kSse42:
#if BLOT_HAVE_SSE42
      return true;
#else
      return false;
#endif
    case ScanEngine::kAvx2:
#if BLOT_HAVE_AVX2
      return true;
#else
      return false;
#endif
  }
  return false;
}

ScanEngine DetectScanEngine() {
  if (EnvFlagSet("BLOT_FORCE_SCALAR")) return ScanEngine::kScalar;
  return ClampToSupported(ScanEngine::kAvx2);
}

ScanEngine ActiveScanEngine() {
  return static_cast<ScanEngine>(
      ActiveEngineSlot().load(std::memory_order_relaxed));
}

ScanEngine SetScanEngine(ScanEngine engine) {
  const ScanEngine installed = ClampToSupported(engine);
  ActiveEngineSlot().store(static_cast<std::uint8_t>(installed),
                           std::memory_order_relaxed);
  return installed;
}

bool ZoneMapPruningEnabled() {
  return ZoneMapSlot().load(std::memory_order_relaxed);
}

void SetZoneMapPruning(bool enabled) {
  ZoneMapSlot().store(enabled, std::memory_order_relaxed);
}

}  // namespace blot::simd
