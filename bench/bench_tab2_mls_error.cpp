// Tab. 2: relative emulation error of the order-V finite-memory LCM table
// versus MLS order V.
//
// Paper values (reference V=17): max 59/31/21/13/7.3/3.2/0.7 %, average
// 15/4.1/1.2/0.4/0.2/0.2/0.1 % for V = 4/6/8/10/12/14/16. Expected shape:
// both error rows fall monotonically toward zero as V grows.
#include <cstdio>
#include <future>
#include <vector>

#include "analysis/emulation_error.h"
#include "bench/bench_util.h"
#include "runtime/thread_pool.h"

int main() {
  rt::bench::print_header(
      "Tab. 2 -- LCM emulation relative error vs MLS order V",
      "section 5.2, Table 2",
      "errors fall monotonically with V; V=16 is near-exact");
  rt::bench::BenchReport report("tab2_mls_error");

  constexpr double kFs = 40e3;
  constexpr double kSlot = 0.5e-3;
  const int v_ref = rt::bench::env_int("RT_BENCH_VREF", 17);
  std::printf("building reference table (V=%d)...\n", v_ref);
  const auto reference =
      rt::analysis::characterize_lcm(rt::lcm::LcTimings{}, kSlot, kFs, v_ref);

  rt::analysis::EmulationErrorOptions opt;
  opt.sequences = 48;
  opt.sequence_slots = 96;

  // The per-V characterizations and error studies are independent pure
  // functions -- fan them out on the pool.
  const std::vector<int> vs = {4, 6, 8, 10, 12, 14, 16};
  rt::obs::Recorder obs_rec;
  std::vector<double> maxes;
  std::vector<double> avgs;
  {
    const rt::obs::ScopedBind obs_bind(obs_rec);
    RT_TRACE_SPAN("analysis_fanout");
    rt::runtime::ThreadPool pool(rt::bench::bench_threads());
    std::vector<std::future<rt::analysis::EmulationErrorResult>> futures;
    for (const int v : vs) {
      futures.push_back(pool.submit([v, kSlot, kFs, &reference, &opt] {
        const auto table = rt::analysis::characterize_lcm(rt::lcm::LcTimings{}, kSlot, kFs, v);
        return rt::analysis::emulation_error(table, reference, kFs, opt);
      }));
    }
    for (auto& f : futures) {
      const auto e = f.get();
      maxes.push_back(e.max_rel_error);
      avgs.push_back(e.avg_rel_error);
    }
  }
  report.add_obs(obs_rec.snapshot());

  std::printf("\n%-14s", "MLS Order (V)");
  for (const int v : vs) std::printf("%8d", v);
  std::printf("\n%-14s", "Maximum");
  for (std::size_t i = 0; i < vs.size(); ++i) {
    report.add_value("max_rel_error", vs[i], maxes[i]);
    std::printf("%7.1f%%", 100.0 * maxes[i]);
  }
  std::printf("\n%-14s", "Average");
  for (std::size_t i = 0; i < vs.size(); ++i) {
    report.add_value("avg_rel_error", vs[i], avgs[i]);
    std::printf("%7.2f%%", 100.0 * avgs[i]);
  }
  std::printf("\n\npaper:    max 59/31/21/13/7.3/3.2/0.7 %%   avg 15/4.1/1.2/0.4/0.2/0.2/0.1 %%\n");

  bool monotone = true;
  for (std::size_t i = 1; i < avgs.size(); ++i) monotone = monotone && avgs[i] <= avgs[i - 1] + 1e-9;
  report.write();
  std::printf("shape check: average error monotonically decreasing: %s\n",
              monotone ? "yes" : "NO");
  return monotone ? 0 : 1;
}
