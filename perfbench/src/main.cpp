// perfbench — one command for the repository's benchmark.
//
//   perfbench --workload graph-warm|serve-repeat --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a host fingerprint and roofline probe, the workload's notes and
// metrics by name and unit, and as its LAST line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// untraced phase, then a traced one, and reports the per-layer metrics
// (spans are written to DIR/trace-<workload>.json).  Everything the run
// writes stays under DIR (default .bench_run), including the private jit
// kernel cache.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "graph-warm|serve-repeat --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

void print_metrics(const std::vector<perfbench::Metric>& ms) {
  for (const perfbench::Metric& m : ms) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string root = ".bench_run";
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && cfg.seconds > 0.0 &&
                     cfg.seconds <= 600.0;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      cfg.trace = val == "1";
    } else if (flag == "--work-dir") {
      root = val;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!have_workload || !have_seed || !have_seconds) {
    return usage("--workload, --seed and --seconds (0 < S <= 600) are required");
  }
  if (cfg.workload != "graph-warm" && cfg.workload != "serve-repeat") {
    return usage("unknown workload");
  }

  // Before any thread exists: the roofline probe forks.
  const perfbench::HostInfo host =
      perfbench::probe_host(static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  cfg.kernel_threads = static_cast<int>(host.cores);
  std::printf("host: %u cores, %s, isa [%s], L1d %ld KiB, L2 %ld KiB, L3 %ld KiB\n",
              host.cores, host.cpu.c_str(), host.isa.c_str(), host.l1d_kib,
              host.l2_kib, host.l3_kib);
  std::printf("compilers: built with gcc %s; jit cxx %s\n", host.compiler.c_str(),
              host.jit_cxx.empty() ? "(none)" : host.jit_cxx.c_str());
  std::printf("roofline: FMA peak %.1f GFLOP/s, stream triad %.1f GB/s (%u threads)\n",
              host.fma_gflops, host.stream_gbps, host.cores);
  std::printf("workload %s, seed %llu, %.1f s measured, trace %d, kernel threads %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.kernel_threads);
  std::fflush(stdout);

  cfg.work_dir = root + "/" + cfg.workload + "-" + std::to_string(::getpid());
  cfg.kernel_dir = cfg.work_dir + "/kernels";
  perfbench::use_private_kernel_cache(cfg.kernel_dir);
  perfbench::Outcome out = cfg.workload == "serve-repeat"
                               ? perfbench::run_serve_workload(cfg)
                               : perfbench::run_graph_workload(cfg);
  std::error_code ec;
  std::filesystem::remove_all(cfg.work_dir, ec);

  if (cfg.trace) {
    const std::string path = root + "/trace-" + cfg.workload + ".json";
    const perfbench::Tracer& t = perfbench::Tracer::instance();
    if (!t.write_chrome_json(path)) out.fail_check("cannot write " + path);
    out.note(std::to_string(t.size()) + " spans written to " + path);
  }

  const std::vector<perfbench::Metric>& reported = cfg.trace ? out.layer : out.e2e;
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  std::printf("%s metrics:\n", cfg.trace ? "per-layer" : "end-to-end");
  print_metrics(reported);

  std::string metrics;
  for (const perfbench::Metric& m : reported) {
    if (!std::isfinite(m.value)) out.fail_check("metric " + m.name + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
