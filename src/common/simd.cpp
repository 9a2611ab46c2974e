// Runtime backend selection for the SIMD wrapper (see common/simd.hpp).
//
// The decision is process-global so every dispatch site (front-end
// filters, ADC, correlator, optical render) flips together: either all
// kernels run the compiled vector backend or all run the scalar one. That keeps the
// differential story simple — one switch, two bit-identical universes.
#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

namespace densevlc::simd {
namespace {

// -1 = no override (follow the environment), 0 = vector allowed,
// 1 = forced scalar.
std::atomic<int> g_force_override{-1};

bool env_force_scalar() {
  static const bool forced = [] {
    const char* e = std::getenv("DVLC_FORCE_SCALAR");
    return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
  }();
  return forced;
}

}  // namespace

bool force_scalar() noexcept {
  const int o = g_force_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return env_force_scalar();
}

void set_force_scalar(bool on) noexcept {
  g_force_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool cpu_has_vector_support() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // The *_simd.cpp TUs are compiled with -mavx2 on x86; executing them on
  // a pre-AVX2 core would fault, so gate on the CPUID feature bit.
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#elif defined(__aarch64__)
  return true;  // NEON is baseline on aarch64
#else
  return false;
#endif
}

bool use_vector_kernels() noexcept {
  return cpu_has_vector_support() && !force_scalar();
}

}  // namespace densevlc::simd
