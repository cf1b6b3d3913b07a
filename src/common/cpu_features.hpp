// Runtime CPU feature detection for the SIMD kernel backends (DESIGN.md §7).
//
// Detection runs once (cpuid on x86; every other target reports no
// features and runs the scalar backend) and is cached; the kernel
// dispatcher in nn/kernel_backend.hpp consults it so a baseline-compiled
// binary never executes an instruction the host lacks.
#pragma once

#include <string>

namespace mlad {

struct CpuFeatures {
  bool popcnt = false;    ///< hardware POPCNT (SSE4.2-era; not baseline x86-64)
  bool avx = false;       ///< AVX usable (cpuid bit + OS XSAVE of YMM state)
  bool avx2 = false;      ///< AVX2 usable (implies avx)
  bool fma = false;       ///< FMA3 usable
  bool avx512f = false;   ///< AVX-512 Foundation (cpuid + OS ZMM/opmask state)
  bool avx512bw = false;  ///< AVX-512 Byte/Word (implies avx512f here)
  bool avx512vl = false;  ///< AVX-512 Vector Length (implies avx512f here)
};

/// Detected once on first call, then cached for the process lifetime.
const CpuFeatures& cpu_features();

/// Human-readable summary, e.g. "avx2 fma" or "baseline".
std::string cpu_feature_summary();

}  // namespace mlad
