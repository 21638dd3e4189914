// The workloads and the pieces they share: the space/model probe and
// the per-layer reporters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "exec/jit.hpp"
#include "harness.hpp"

namespace perfbench {

/// search.space_build_ms, search.space_candidates, model.estimates_per_s.
void model_probes(const std::vector<mcf::ChainSpec>& chains,
                  const mcf::GpuSpec& gpu, Outcome& out);

/// TuningStats summed over the tuning runs of a phase; reported per run.
struct TunerTotals {
  std::uint64_t tunes = 0;
  double measurements = 0, generations = 0;
  double measure_s = 0, estimate_s = 0, seed_s = 0, mutate_s = 0;
  std::vector<double> rho;  ///< est-vs-measured Spearman per tuning run

  void add(const mcf::TunedResult& t);
  void report(Outcome& out) const;
};

void report_measure_layer(const MeasureCounters& m, Outcome& out);
/// exec.jit.*: compile figures per cold fill (`cold` summed over
/// `cold_fills` fills from an empty cache), cache hits and re-compiles
/// over the warm traced phase.
void report_jit_layer(const mcf::jit::CompileStats& cold, int cold_fills,
                      const mcf::jit::CompileStats& warm, Outcome& out);

Outcome run_graph_workload(const RunConfig& cfg);
Outcome run_serve_workload(const RunConfig& cfg);

}  // namespace perfbench
