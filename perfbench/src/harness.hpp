// Shared pieces of the perfbench binary: statistics, the span tracer,
// the timing MeasureBackend decorator, the per-run outcome and the host
// probes.  Everything here sits OUTSIDE the library: spans are recorded
// around the calls the benchmark makes into each layer, never inside it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure/backend.hpp"
#include "support/mutex.hpp"

namespace perfbench {

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

// ---- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double sum(const std::vector<double>& v);
/// Spearman rank correlation (average ranks for ties); 0 for < 3 points.
[[nodiscard]] double spearman(const std::vector<std::pair<double, double>>& xy);

// ---- tracing -----------------------------------------------------------------

struct SpanRecord {
  const char* name = "";  ///< string literal
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t tid = 0;
};

/// Process-wide span store.  Off by default; while off a Span costs one
/// relaxed load.  Spans stay in memory and are written out once, as
/// Chrome trace-event JSON, when the traced pass ends.
class Tracer {
 public:
  static Tracer& instance();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Parent for spans opened on threads with no open span of their own
  /// (engine workers, thread-pool slots): the main thread's innermost
  /// span.
  std::atomic<std::uint64_t> ambient{0};
  void record(const SpanRecord& r);
  [[nodiscard]] std::size_t size() const;
  /// Writes every recorded span; false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable mcf::Mutex mu_{"perfbench.tracer"};
  std::vector<SpanRecord> spans_ MCF_GUARDED_BY(mu_);
};

/// RAII span: one call into a layer.
class Span {
 public:
  explicit Span(const char* name, bool main_thread = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool on_ = false;
  bool main_ = false;
  std::uint64_t prev_ambient_ = 0;
};

// ---- measurement-layer decorator ----------------------------------------------

/// Counters the decorator accumulates; shared by every engine a workload
/// builds, so per-repetition engines add into one total.
struct MeasureCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> prepare_ns{0};
};

/// Times every measure()/prepare_batch() of the wrapped backend.  Passed
/// to the engine through FusionEngineOptions::tuner.backend; forwards
/// everything else unchanged, so the tuned results are the inner
/// backend's.
class TimedBackend final : public mcf::MeasureBackend {
 public:
  TimedBackend(std::shared_ptr<mcf::MeasureBackend> inner,
               std::shared_ptr<MeasureCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] const mcf::GpuSpec& spec() const noexcept override {
    return inner_->spec();
  }
  [[nodiscard]] bool deterministic() const noexcept override {
    return inner_->deterministic();
  }
  [[nodiscard]] mcf::KernelMeasurement measure(
      const mcf::Schedule& s, const mcf::MeasureOptions& options) const override;
  void prepare_batch(std::span<const mcf::Schedule* const> schedules,
                     const mcf::MeasureOptions& options) const override;
  [[nodiscard]] mcf::KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const mcf::MeasureOptions& options) const override {
    return inner_->measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                               comp_eff, stmt_trips, options);
  }
  [[nodiscard]] std::uint64_t options_digest(
      const mcf::MeasureOptions& options) const noexcept override {
    return inner_->options_digest(options);
  }

 private:
  std::shared_ptr<mcf::MeasureBackend> inner_;
  std::shared_ptr<MeasureCounters> counters_;
};

// ---- run outcome -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces.  An untraced run reports `e2e`, a
/// traced one `layer`.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines (stdout)
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void fail_check(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Options every workload receives from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< private scratch inside the checkout
  std::string kernel_dir;  ///< private jit kernel cache (under work_dir)
  int kernel_threads = 1;  ///< fixed fan-out for native kernel timing
};

// ---- host --------------------------------------------------------------------

struct HostInfo {
  unsigned cores = 1;
  std::string cpu;
  std::string isa;
  long l1d_kib = 0, l2_kib = 0, l3_kib = 0;
  std::string compiler;  ///< the compiler that built this binary
  std::string jit_cxx;   ///< the compiler the jit shells out to
  double fma_gflops = 0.0;  ///< measured single-precision FMA peak
  double stream_gbps = 0.0; ///< measured triad bandwidth (GB/s)
};

/// Fingerprint + ~0.5 s roofline probe (FMA peak, stream triad), on
/// `threads` threads.
[[nodiscard]] HostInfo probe_host(int threads);

[[nodiscard]] double peak_rss_mib();

// ---- jit kernel cache --------------------------------------------------------

/// Points the jit kernel cache at `dir` (inside the checkout) — the user's
/// ~/.cache/mcfuser is never read or written.
void use_private_kernel_cache(const std::string& dir);
/// Empties the kernel cache on disk and in memory: the next resolve of
/// every kernel compiles from scratch.
void flush_kernel_cache(const std::string& dir);

}  // namespace perfbench
