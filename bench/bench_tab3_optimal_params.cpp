// Tab. 3: minimum distance D and demodulation threshold of the optimal
// (L, P) parameters per target data rate.
//
// Paper values: rate 1/4/8/12/16 Kbps -> D = 8.7 / 9.0e-2 / 1.5e-2 /
// 7.8e-3 / 4.0e-3 and thresholds 0 / 20 / 28 / 31 / 33 dB (relative to
// the 1 Kbps optimum). Expected shape: D falls steeply and the threshold
// climbs as the target rate grows -- the SNR-for-rate tradeoff DSM-PQAM
// unlocks.
#include <cstdio>
#include <future>
#include <vector>

#include "analysis/optimizer.h"
#include "bench/bench_util.h"
#include "runtime/thread_pool.h"

int main() {
  rt::bench::print_header("Tab. 3 -- D and threshold of optimal parameters per rate",
                          "section 5.3, Table 3",
                          "D decreases / threshold increases monotonically with rate");
  rt::bench::BenchReport report("tab3_optimal_params");

  constexpr double kFs = 40e3;
  constexpr double kSlot = 0.5e-3;
  const auto table = rt::analysis::characterize_lcm(
      rt::lcm::LcTimings{}, kSlot, kFs, rt::bench::env_int("RT_BENCH_V", 8));

  rt::analysis::OptimizerOptions opt;
  opt.dsm_orders = {2, 4, 8, 16};
  opt.bits_per_axis = {1, 2, 3, 4};
  opt.payload_slots = 4;
  opt.distance.exhaustive_bit_limit = 0;
  opt.distance.random_words = 4;

  // Each rate's grid optimization is an independent pure function -- fan
  // them out on the pool.
  const std::vector<double> rates = {1000.0, 4000.0, 8000.0, 12000.0, 16000.0};
  rt::obs::Recorder obs_rec;
  std::vector<rt::analysis::OptimizerResult> results;
  {
    const rt::obs::ScopedBind obs_bind(obs_rec);
    RT_TRACE_SPAN("analysis_fanout");
    rt::runtime::ThreadPool pool(rt::bench::bench_threads());
    std::vector<std::future<rt::analysis::OptimizerResult>> futures;
    for (const double r : rates)
      futures.push_back(pool.submit([r, &table, &opt] {
        return rt::analysis::optimize_parameters(table, r, opt);
      }));
    for (auto& f : futures) results.push_back(f.get());
  }
  report.add_obs(obs_rec.snapshot());

  std::vector<double> ds;
  std::printf("\n%-18s", "Data rate (Kbps)");
  for (const double r : rates) std::printf("%10.0f", r / 1000.0);
  std::printf("\n%-18s", "D");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& res = results[i];
    ds.push_back(res.best ? res.best->d : 0.0);
    if (res.best) {
      report.add_value("min_distance", rates[i], res.best->d);
      std::printf("%10.2e", res.best->d);
    } else {
      std::printf("%10s", "-");
    }
  }
  std::printf("\n%-18s", "Threshold");
  const double d_ref = ds.front();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds[i] > 0.0) {
      const double th = rt::analysis::relative_threshold_db(ds[i], d_ref);
      report.add_value("threshold_db", rates[i], th);
      std::printf("%7.0f dB", th);
    } else {
      std::printf("%10s", "-");
    }
  }
  std::printf("\n\npaper: D = 8.7 / 9.0e-2 / 1.5e-2 / 7.8e-3 / 4.0e-3;"
              " thresholds 0 / 20 / 28 / 31 / 33 dB\n");

  bool monotone = true;
  for (std::size_t i = 1; i < ds.size(); ++i)
    monotone = monotone && (ds[i] > 0.0) && ds[i] < ds[i - 1];
  report.write();
  std::printf("shape check: D strictly decreasing with rate: %s\n", monotone ? "yes" : "NO");
  return monotone ? 0 : 1;
}
