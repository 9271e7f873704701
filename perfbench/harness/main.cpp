// perfbench: the repository benchmark driver.
//
//   perfbench --workload <link_8k|stream_8k|coded_16k_sweep|fleet_inventory>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>] [--build-type <type>]
//
// Prints a metric table, a provenance line and a detail line, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when a correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/workloads.h"

namespace perfbench {

void add_self_metrics(WorkloadResult& r, const Tracer& tracer, std::size_t units) {
  const auto self = tracer.self_ms();
  const double n = static_cast<double>(std::max<std::size_t>(units, 1));
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string name = std::string("self.") + layer_name(static_cast<Layer>(l)) + "_ms";
    r.layer(name, self[l] / n, units, "self time per unit of work");
  }
}

std::string tail_note(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g, %zu beyond", t.percentile, t.beyond);
  return buf;
}

void add_single_caller_metrics(WorkloadResult& r, double pkt_per_s, std::size_t samples) {
  r.e2e("sweep_scaling_eff", 1.0, 1, "one caller on one thread: 1 by definition");
  r.e2e("fleet_slots_per_s", pkt_per_s, samples, "one frame = one uplink slot");
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--commit <id>] [--build-type <type>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        cfg.workload = val;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (key == "--trace") {
        cfg.trace = std::stoi(val) != 0;
      } else if (key == "--trace-out") {
        cfg.trace_out = val;
      } else if (key == "--commit") {
        cfg.commit = val;
      } else if (key == "--build-type") {
        cfg.build_type = val;
      } else {
        usage("unknown argument");
      }
    } catch (const std::exception&) {
      usage("bad number");
    }
  }
  if (!have_seed || !(cfg.seconds > 0.0)) usage("need --seed and a positive --seconds");

  Tracer tracer;
  Tracer* t = cfg.trace ? &tracer : nullptr;
  WorkloadResult result;
  try {
    if (cfg.workload == "link_8k") {
      result = run_link_8k(cfg, t);
    } else if (cfg.workload == "stream_8k") {
      result = run_stream_8k(cfg, t);
    } else if (cfg.workload == "coded_16k_sweep") {
      result = run_coded_16k_sweep(cfg, t);
    } else if (cfg.workload == "fleet_inventory") {
      result = run_fleet_inventory(cfg, t);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  if (cfg.trace && !cfg.trace_out.empty()) {
    if (tracer.write_chrome_trace(cfg.trace_out))
      std::printf("wrote %zu spans to %s\n", tracer.size(), cfg.trace_out.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_out.c_str());
  }
  return print_result(cfg, result);
}
