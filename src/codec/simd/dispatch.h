// Runtime dispatch for the vectorized scan engine.
//
// The scan kernels (codec/simd/kernels.h) come in up to three engine
// flavors — scalar, SSE4.2 and AVX2 — that produce bit-identical output.
// Which flavors exist in a given binary depends on compiler support
// (CMake probes -msse4.2/-mavx2 and compiles the matching translation
// units); which one runs is picked once at startup from CPUID, so a
// binary built on a new machine still runs (scalar) on an old one.
//
// Overrides, in precedence order:
//   BLOT_FORCE_SCALAR=1   — environment: pin the scalar fallback (CI runs
//                           one leg this way so both paths stay tested).
//   SetScanEngine(e)      — process-wide programmatic override for tests
//                           and benchmarks; clamped to what the binary
//                           and the CPU actually support.
//
// Zone-map block pruning has its own process-wide switch here (it is a
// scan-engine concern: the blocked layout consults it before decode).
// It is the only switch: every scan path, the store's routed queries
// included, reads it at scan start.
#ifndef BLOT_CODEC_SIMD_DISPATCH_H_
#define BLOT_CODEC_SIMD_DISPATCH_H_

#include <cstdint>
#include <string_view>

namespace blot::simd {

enum class ScanEngine : std::uint8_t { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

// "scalar", "sse4.2", "avx2" — the label value of scan.engine metrics.
std::string_view ScanEngineName(ScanEngine engine);

// True when the engine's translation unit was compiled into this binary
// (always true for kScalar).
bool ScanEngineCompiledIn(ScanEngine engine);

// The best engine this binary + CPU + environment supports: CPUID probe
// clamped to compiled-in flavors, or kScalar under BLOT_FORCE_SCALAR=1.
ScanEngine DetectScanEngine();

// The process-wide engine the scan path uses; initialized lazily to
// DetectScanEngine().
ScanEngine ActiveScanEngine();

// Overrides the active engine (clamped to supported flavors; returns the
// engine actually installed). Tests use this to force the scalar path.
ScanEngine SetScanEngine(ScanEngine engine);

// Process-wide zone-map pruning (partition zone skips and block
// pruning). Defaults to on; tests and the differential harness turn it
// off to check that pruning never changes an answer.
bool ZoneMapPruningEnabled();
void SetZoneMapPruning(bool enabled);

}  // namespace blot::simd

#endif  // BLOT_CODEC_SIMD_DISPATCH_H_
