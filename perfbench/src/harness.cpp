#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <thread>

#include "exec/jit.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : v) acc += std::log(x);
  return std::exp(acc / static_cast<double>(v.size()));
}

double sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

namespace {

std::vector<double> ranks(const std::vector<double>& x) {
  std::vector<std::size_t> idx(x.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  std::vector<double> r(x.size());
  for (std::size_t i = 0; i < idx.size();) {
    std::size_t j = i;
    while (j + 1 < idx.size() && x[idx[j + 1]] == x[idx[i]]) ++j;
    const double avg = 0.5 * static_cast<double>(i + j);
    for (std::size_t k = i; k <= j; ++k) r[idx[k]] = avg;
    i = j + 1;
  }
  return r;
}

}  // namespace

double spearman(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 3) return 0.0;
  std::vector<double> x, y;
  for (const auto& [a, b] : xy) {
    x.push_back(a);
    y.push_back(b);
  }
  const std::vector<double> rx = ranks(x), ry = ranks(y);
  const double mx = mean(rx), my = mean(ry);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

// ---- tracing -----------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> t_open_spans;
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::record(const SpanRecord& r) {
  mcf::LockGuard lock(mu_);
  spans_.push_back(r);
}

std::size_t Tracer::size() const {
  mcf::LockGuard lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  mcf::LockGuard lock(mu_);
  double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start_s);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i ? "," : "", s.name,
                 static_cast<unsigned long long>(s.tid),
                 (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, bool main_thread) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  on_ = true;
  main_ = main_thread;
  rec_.name = name;
  rec_.id = t.next_id();
  rec_.parent = t_open_spans.empty()
                    ? t.ambient.load(std::memory_order_relaxed)
                    : t_open_spans.back();
  rec_.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  t_open_spans.push_back(rec_.id);
  if (main_) prev_ambient_ = t.ambient.exchange(rec_.id);
  rec_.start_s = now_s();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_s = now_s();
  t_open_spans.pop_back();
  Tracer& t = Tracer::instance();
  if (main_) t.ambient.store(prev_ambient_);
  t.record(rec_);
}

// ---- measurement-layer decorator ----------------------------------------------

namespace {
std::uint64_t ns_between(double a, double b) {
  return static_cast<std::uint64_t>(std::max(0.0, b - a) * 1e9);
}
}  // namespace

mcf::KernelMeasurement TimedBackend::measure(
    const mcf::Schedule& s, const mcf::MeasureOptions& options) const {
  Span span("measure.measure");
  const double t0 = now_s();
  mcf::KernelMeasurement m = inner_->measure(s, options);
  counters_->busy_ns.fetch_add(ns_between(t0, now_s()), std::memory_order_relaxed);
  counters_->calls.fetch_add(1, std::memory_order_relaxed);
  return m;
}

void TimedBackend::prepare_batch(std::span<const mcf::Schedule* const> schedules,
                                 const mcf::MeasureOptions& options) const {
  Span span("measure.prepare_batch");
  const double t0 = now_s();
  inner_->prepare_batch(schedules, options);
  counters_->prepare_ns.fetch_add(ns_between(t0, now_s()),
                                  std::memory_order_relaxed);
}

// ---- outcome -----------------------------------------------------------------

void Outcome::fail_check(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- jit kernel cache --------------------------------------------------------

namespace {
// exec/jit's default in-memory kernel cap (MCFUSER_JIT_KERNEL_CAP unset).
constexpr std::size_t kDefaultKernelCap = 4096;
}  // namespace

void use_private_kernel_cache(const std::string& dir) {
  std::filesystem::create_directories(dir);
  ::setenv("MCFUSER_JIT_CACHE_DIR", std::filesystem::absolute(dir).c_str(), 1);
}

void flush_kernel_cache(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  mcf::jit::set_kernel_cap_for_testing(kDefaultKernelCap);
}

}  // namespace perfbench
