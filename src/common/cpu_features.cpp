#include "common/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace mlad {
namespace {

#if defined(__x86_64__) || defined(__i386__)

/// XCR0 via xgetbv; only executed after the OSXSAVE cpuid bit confirmed the
/// instruction exists.
std::uint64_t read_xcr0() {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuFeatures detect() {
  CpuFeatures f;
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  f.popcnt = (ecx & (1u << 23)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx_bit = (ecx & (1u << 28)) != 0;
  const bool fma_bit = (ecx & (1u << 12)) != 0;
  // The OS must have enabled XMM+YMM state saving (XCR0 bits 1 and 2),
  // otherwise AVX registers fault even though cpuid advertises them.
  const bool ymm_enabled = osxsave && (read_xcr0() & 0x6) == 0x6;
  f.avx = avx_bit && ymm_enabled;
  f.fma = fma_bit && ymm_enabled;
  // AVX-512 additionally needs the OS to save opmask, ZMM_Hi256 and
  // Hi16_ZMM state (XCR0 bits 5..7) on top of XMM+YMM.
  const bool zmm_enabled = osxsave && (read_xcr0() & 0xE6) == 0xE6;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = f.avx && (ebx & (1u << 5)) != 0;
    f.avx512f = zmm_enabled && (ebx & (1u << 16)) != 0;
    f.avx512bw = f.avx512f && (ebx & (1u << 30)) != 0;
    f.avx512vl = f.avx512f && (ebx & (1u << 31)) != 0;
  }
  return f;
}

#else

CpuFeatures detect() { return {}; }

#endif

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

std::string cpu_feature_summary() {
  const CpuFeatures& f = cpu_features();
  std::string s;
  const auto add = [&s](const char* name) {
    if (!s.empty()) s += ' ';
    s += name;
  };
  if (f.popcnt) add("popcnt");
  if (f.avx) add("avx");
  if (f.avx2) add("avx2");
  if (f.fma) add("fma");
  if (f.avx512f) add("avx512f");
  if (f.avx512bw) add("avx512bw");
  if (f.avx512vl) add("avx512vl");
  if (s.empty()) s = "baseline";
  return s;
}

}  // namespace mlad
