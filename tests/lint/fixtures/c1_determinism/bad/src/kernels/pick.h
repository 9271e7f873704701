// BAD exemplar for rt_check C1 (determinism): a host CPU probe choosing
// between code paths, with no evidence that the paths agree, makes the
// result depend on the machine it runs on.
#pragma once

namespace rt::kernels {

inline double blend(double a, double b) {
  if (__builtin_cpu_supports("fma")) return a * b + 1.0;
  return a + b;
}

}  // namespace rt::kernels
