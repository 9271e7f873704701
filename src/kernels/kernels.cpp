// rt-lint: no-preconditions (the backend probe takes no input)
// The kernel backend choice: made once per process, from the host CPU.
// This file is built with the library's default flags (no -mavx2), so the
// probe itself runs on any x86-64 host.
#include "kernels/kernels.h"

namespace rt::kernels::detail {

namespace {

#define RT_KERNELS_BACKEND_TABLE(ns)                                                         \
  Backend {                                                                                  \
    #ns, &ns::lc_step_run, &ns::wl_transform, &ns::cscale, &ns::accum_real,                  \
        &ns::axpy_sub_real, &ns::axpy_sub_cplx, &ns::caxpy_real, &ns::dfe_residual,          \
        &ns::dot_real, &ns::cdotc, &ns::sum_sq_real, &ns::sum_norm_cplx,                     \
        &ns::corr_stats_split, &ns::dfe_score, &ns::fir_dot                                  \
  }

constexpr Backend kBackendScalar = RT_KERNELS_BACKEND_TABLE(scalar);
#if defined(__x86_64__)
constexpr Backend kBackendAvx2 = RT_KERNELS_BACKEND_TABLE(avx2);
#endif

#undef RT_KERNELS_BACKEND_TABLE

}  // namespace

const Backend& select_backend() {
#if defined(__x86_64__)
  // The first kernel call may come from a static constructor that runs
  // before libgcc's own CPU probe, so initialise it here.
  __builtin_cpu_init();  // rt-check: determinism-ok (scalar == AVX2 bitwise; test_kernels.cpp)
  if (__builtin_cpu_supports("avx2")) return kBackendAvx2;
#endif
  return kBackendScalar;
}

}  // namespace rt::kernels::detail
