#include "lcm/lc_cell.h"

#include "kernels/kernels.h"

namespace rt::lcm {

double LcCell::step(bool driven, double dt) {
  RT_ENSURE(dt >= 0.0, "dt must be non-negative");
  if (dt == 0.0) return c_;

  // Single-cell slice of the batched director ODE kernel (coupled (c, s)
  // RK4 with 10 us substeps). kernels::lc_step has only a scalar body:
  // the original in-class loop, verbatim.
  const double drive = driven ? 1.0 : 0.0;
  const kernels::LcBankParams p{&t_.tau_charge_s, &t_.tau_relax_s, t_.tau_slow_s,
                                t_.tau_memory_s, t_.memory_coupling};
  kernels::lc_step(1, dt, &drive, &c_, &s_, p);
  return c_;
}

}  // namespace rt::lcm
