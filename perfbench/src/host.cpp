// Host fingerprint and roofline probe.  Compiled with -O3 -march=native
// (see CMakeLists.txt) so the FMA loop uses the same vector ISA as the
// jit'd kernels.  The probe runs in a forked child: its stream arrays
// would otherwise set the parent's peak RSS.
#include <cpuid.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "exec/jit.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using Vec = float __attribute__((vector_size(64)));
constexpr int kAccumulators = 12;  // enough independent chains to hide FMA latency
volatile float g_sink = 0.0f;      // keeps the FMA loop's result live

/// FLOPs retired by `iters` rounds of kAccumulators vector FMAs.
double fma_loop(long iters, float seed) {
  Vec acc[kAccumulators];
  for (int i = 0; i < kAccumulators; ++i) acc[i] = Vec{} + seed * static_cast<float>(i + 1);
  const Vec mul = Vec{} + 0.999999f;
  const Vec add = Vec{} + 1e-7f;
  for (long it = 0; it < iters; ++it) {
    for (int i = 0; i < kAccumulators; ++i) acc[i] = acc[i] * mul + add;
  }
  float sink = 0.0f;
  for (int i = 0; i < kAccumulators; ++i) sink += acc[i][0];
  g_sink = sink;
  return 2.0 * static_cast<double>(sizeof(Vec) / sizeof(float)) * kAccumulators *
         static_cast<double>(iters);
}

/// Best-of-`rounds` aggregate rate of `body(thread_index)` over `threads`
/// threads; body returns the work units it did.
template <typename Body>
double best_rate(int threads, int rounds, Body body) {
  double best = 0.0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> work(static_cast<std::size_t>(threads), 0.0);
    std::vector<std::thread> pool;
    const double t0 = now_s();
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { work[static_cast<std::size_t>(t)] = body(t); });
    }
    for (auto& th : pool) th.join();
    const double dt = now_s() - t0;
    double total = 0.0;
    for (const double w : work) total += w;
    best = std::max(best, total / dt);
  }
  return best;
}

struct Roofline {
  double fma_gflops = 0.0;
  double stream_gbps = 0.0;
};

Roofline measure_roofline(int threads) {
  Roofline r;
  r.fma_gflops = best_rate(threads, 5, [](int t) {
                   return fma_loop(4'000'000, 1.0f + 0.1f * static_cast<float>(t));
                 }) / 1e9;
  // 3 x 32 MiB: larger than the last-level cache of common server parts.
  const std::size_t n = std::size_t{8} << 20;
  std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
  const std::size_t chunk = (n + static_cast<std::size_t>(threads) - 1) /
                            static_cast<std::size_t>(threads);
  r.stream_gbps = best_rate(threads, 5, [&](int t) {
                    const std::size_t lo = chunk * static_cast<std::size_t>(t);
                    const std::size_t hi = std::min(n, lo + chunk);
                    for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0f * c[i];
                    return 3.0 * sizeof(float) * static_cast<double>(hi - lo);
                  }) / 1e9;
  return r;
}

std::string cpu_brand() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char buf[49] = {};
  std::memcpy(buf, regs, 48);
  std::string s(buf);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string isa_string() {
  __builtin_cpu_init();
  std::string s;
  if (__builtin_cpu_supports("avx512f")) s += "avx512f ";
  if (__builtin_cpu_supports("avx2")) s += "avx2 ";
  if (__builtin_cpu_supports("fma")) s += "fma ";
  if (__builtin_cpu_supports("avx")) s += "avx ";
  if (__builtin_cpu_supports("sse4.2")) s += "sse4.2 ";
  if (!s.empty()) s.pop_back();
  return s.empty() ? "baseline" : s;
}

}  // namespace

HostInfo probe_host(int threads) {
  HostInfo h;
  h.cores = std::max(1u, std::thread::hardware_concurrency());
  h.cpu = cpu_brand();
  h.isa = isa_string();
  h.l1d_kib = sysconf(_SC_LEVEL1_DCACHE_SIZE) / 1024;
  h.l2_kib = sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024;
  h.l3_kib = sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024;
  h.compiler = __VERSION__;
  h.jit_cxx = mcf::jit::detect_toolchain().cxx;

  int fds[2];
  if (::pipe(fds) != 0) return h;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const Roofline r = measure_roofline(threads);
    const ssize_t w = ::write(fds[1], &r, sizeof r);
    ::_exit(w == static_cast<ssize_t>(sizeof r) ? 0 : 1);
  }
  ::close(fds[1]);
  Roofline r;
  if (pid > 0) {
    if (::read(fds[0], &r, sizeof r) != static_cast<ssize_t>(sizeof r)) r = {};
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  ::close(fds[0]);
  h.fma_gflops = r.fma_gflops;
  h.stream_gbps = r.stream_gbps;
  return h;
}

}  // namespace perfbench
