// CLEAN exemplar for rt_check C1 (determinism): the probe only chooses
// between two backends that tests prove bit-identical, and says so in a
// justified suppression annotation.
#pragma once

namespace rt::kernels {

double sum_wide(const double* x, unsigned long n);
double sum_narrow(const double* x, unsigned long n);

inline double sum(const double* x, unsigned long n) {
  __builtin_cpu_init();  // rt-check: determinism-ok (wide == narrow bitwise; see the sum tests)
  return __builtin_cpu_supports("avx2") ? sum_wide(x, n) : sum_narrow(x, n);
}

}  // namespace rt::kernels
