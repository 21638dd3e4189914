// serve-repeat: closed-loop clients send FuseChain requests through a
// net::FusionServer on a Unix socket; the server's engine tunes on the
// deterministic `sim` backend.  Requests are a seeded, skewed draw over
// the paper's Table II (G1-G12) and Table III (S1-S9) chains, so most
// requests repeat a shape the server has already tuned.
#include <cmath>
#include <set>
#include <thread>

#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "support/rng.hpp"
#include "workloads/suites.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mcf::ChainSpec;

/// The request mix is Zipf with exponent 1 over the chains in the
/// paper's table order (G1 most requested, S9 least).  This is an
/// assumption, not measured traffic: there is no trace of tuning requests
/// to fit.  The skew decides which shapes weigh most in the latency and
/// rate figures; the repeat share barely depends on it (21 shapes against
/// thousands of requests).
constexpr double kZipfExponent = 1.0;

std::vector<ChainSpec> table_chains() {
  std::vector<ChainSpec> c = mcf::gemm_chain_suite();
  for (ChainSpec& s : mcf::attention_suite()) c.push_back(std::move(s));
  return c;
}

class RequestMix {
 public:
  RequestMix(std::size_t n, std::uint64_t seed) : rng_(mcf::make_rng(seed)) {
    std::vector<double> w;
    for (std::size_t i = 0; i < n; ++i) {
      w.push_back(1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent));
    }
    dist_ = std::discrete_distribution<std::size_t>(w.begin(), w.end());
  }
  std::size_t next() { return dist_(rng_); }

 private:
  mcf::Rng rng_;
  std::discrete_distribution<std::size_t> dist_;
};

/// What an in-process sim tune of a chain returns; every response for
/// the chain must equal it (engine.hpp: results are deterministic per
/// chain for any jobs/thread count).
struct Reference {
  double time_s = 0.0;
  /// Fields of the chain report, each with the character that follows
  /// it there, so a count can not match as a prefix of a longer one.
  std::string space_size;    ///< `"space_size": N,`
  std::string measurements;  ///< `"measurements": N}`
};

bool response_matches(const mcf::net::RpcResult& r, const Reference& ref) {
  return r.status == mcf::net::RpcStatus::Ok &&
         static_cast<mcf::FusionStatus>(r.response.status) == mcf::FusionStatus::Ok &&
         r.response.time_s == ref.time_s &&
         r.response.json.find(ref.space_size) != std::string::npos &&
         r.response.json.find(ref.measurements) != std::string::npos;
}

/// Engine + listening server.  Member order: the server stops (and
/// joins its connections) before the engine it drives is destroyed.
struct ServeStack {
  std::unique_ptr<mcf::FusionEngine> engine;
  std::unique_ptr<mcf::net::FusionServer> server;
  std::string endpoint;
  std::vector<Reference> refs;
};

std::unique_ptr<ServeStack> set_up(const mcf::GpuSpec& gpu,
                                   const std::vector<ChainSpec>& chains,
                                   const std::string& work_dir,
                                   const std::shared_ptr<MeasureCounters>& counters,
                                   Outcome& out) {
  auto st = std::make_unique<ServeStack>();
  mcf::FusionEngineOptions opts;
  opts.tuner.backend = std::make_shared<TimedBackend>(
      std::make_shared<mcf::SimulatorBackend>(gpu), counters);
  st->engine = std::make_unique<mcf::FusionEngine>(gpu, opts);
  mcf::net::ServerOptions so;
  so.unix_path = work_dir + "/serve.sock";
  st->endpoint = "unix:" + so.unix_path;
  st->server = std::make_unique<mcf::net::FusionServer>(*st->engine, so);
  std::string err;
  if (!st->server->start(&err)) out.fail_check("server start: " + err);
  const mcf::FusionEngine reference(gpu);
  for (const ChainSpec& c : chains) {
    const mcf::FusionResult r = reference.fuse(c);
    if (!r.ok()) out.fail_check("reference tune of " + c.name() + " failed: " + r.reason);
    st->refs.push_back({r.time_s(), "\"space_size\": " + std::to_string(r.space_size) + ",",
                        "\"measurements\": " + std::to_string(r.tuned.stats.measurements) +
                            "}"});
  }
  return st;
}

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<bool> traced;  ///< spans were on when the request started
  std::vector<std::size_t> chain_idx;
  std::vector<double> log_gflops;  ///< served kernel, per Ok request
  std::uint64_t sent = 0, failed = 0, wrong = 0;
  std::string first_error;
};

struct Window {
  std::vector<ClientLog> logs;
  double wall_s = 0.0;
  /// Latencies of the traced and/or the untraced requests.
  [[nodiscard]] std::vector<double> latencies(bool traced, bool untraced) const {
    std::vector<double> v;
    for (const ClientLog& l : logs) {
      for (std::size_t i = 0; i < l.latency_ms.size(); ++i) {
        if (l.traced[i] ? traced : untraced) v.push_back(l.latency_ms[i]);
      }
    }
    return v;
  }
  [[nodiscard]] std::uint64_t count(std::uint64_t ClientLog::*f) const {
    std::uint64_t n = 0;
    for (const ClientLog& l : logs) n += l.*f;
    return n;
  }
};

/// `clients` closed-loop clients, each sending its next request when the
/// previous one returned, until `seconds` have passed.  With `trace`,
/// spans are switched on and off every 250 ms, so traced and untraced
/// requests share the same server state and their difference is the
/// tracing overhead.
Window run_window(const ServeStack& st, const std::vector<ChainSpec>& chains,
                  const std::vector<double>& flops, int clients,
                  std::uint64_t seed, double seconds, bool trace) {
  Window w;
  w.logs.resize(static_cast<std::size_t>(clients));
  const double start = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = w.logs[static_cast<std::size_t>(c)];
      RequestMix mix(chains.size(), mcf::hash_combine(seed, static_cast<std::uint64_t>(c)));
      mcf::net::FusionClient client(st.endpoint);
      while (now_s() - start < seconds) {
        const std::size_t i = mix.next();
        log.traced.push_back(Tracer::instance().enabled());
        Span span("net.fuse_rpc");
        const double t0 = now_s();
        const mcf::net::RpcResult r = client.fuse(chains[i]);
        log.latency_ms.push_back((now_s() - t0) * 1e3);
        log.chain_idx.push_back(i);
        ++log.sent;
        if (response_matches(r, st.refs[i])) {
          log.log_gflops.push_back(std::log(flops[i] / r.response.time_s / 1e9));
          continue;
        }
        ++log.failed;
        const bool answered = r.status == mcf::net::RpcStatus::Ok &&
                              static_cast<mcf::FusionStatus>(r.response.status) ==
                                  mcf::FusionStatus::Ok;
        if (answered) ++log.wrong;
        if (log.first_error.empty()) {
          log.first_error = chains[i].name() + ": " +
                            (answered ? "response differs from the in-process tune"
                                      : std::string(mcf::net::rpc_status_name(r.status)) +
                                            " " + r.detail + " " + r.response.reason);
        }
      }
    });
  }
  if (trace) {
    for (bool on = true; now_s() - start < seconds; on = !on) {
      Tracer::instance().set_enabled(on);
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    Tracer::instance().set_enabled(false);
  }
  for (std::thread& t : threads) t.join();
  w.wall_s = now_s() - start;
  return w;
}

/// Median StatsQuery round trip against the live server.
double stats_rpc_p50_ms(const std::string& endpoint) {
  mcf::net::FusionClient client(endpoint);
  std::vector<double> ms;
  for (int i = 0; i < 50; ++i) {
    Span span("net.stats_rpc", true);
    std::string json;
    const double t0 = now_s();
    if (client.query_stats(&json).status != mcf::net::RpcStatus::Ok) return 0.0;
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

/// The chain report the server sends for a chain whose reference is `ref`.
std::string report_json(const Reference& ref) {
  return "{\"chain\": \"x\", \"status\": \"ok\", \"reason\": \"\", " + ref.space_size + " " +
         ref.measurements;
}

/// The reply check accepts a reply equal to the reference and rejects one
/// whose time is one ulp off, and one whose measurement count is a longer
/// number with the reference count as its prefix.
bool check_detects_perturbation(const Reference& ref) {
  mcf::net::RpcResult r;
  r.response.status = static_cast<std::uint8_t>(mcf::FusionStatus::Ok);
  r.response.time_s = ref.time_s;
  r.response.json = report_json(ref);
  const bool good = response_matches(r, ref);
  mcf::net::RpcResult slow = r;
  slow.response.time_s = std::nextafter(ref.time_s, 1.0);
  mcf::net::RpcResult more = r;
  more.response.json.pop_back();
  more.response.json += "3}";
  return good && !response_matches(slow, ref) && !response_matches(more, ref);
}

}  // namespace

Outcome run_serve_workload(const RunConfig& cfg) {
  Outcome out;
  const mcf::GpuSpec gpu = mcf::a100();
  const std::vector<ChainSpec> chains = table_chains();
  std::vector<double> flops;
  for (const ChainSpec& c : chains) flops.push_back(c.total_flops());
  const int clients = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  auto counters = std::make_shared<MeasureCounters>();

  if (cfg.trace) model_probes(chains, gpu, out);

  // Set-up: engine, listening server and the in-process reference tune
  // of every chain in the mix.  One set-up takes about 0.2 s, so it is
  // repeated 20 times and the median reported: a few seconds of samples
  // ride out the host's short swings in speed.
  constexpr int kSetups = 20;
  std::vector<double> setup_times;
  std::unique_ptr<ServeStack> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();
    const double t0 = now_s();
    st = set_up(gpu, chains, cfg.work_dir, counters, out);
    setup_times.push_back(now_s() - t0);
  }

  const mcf::EngineStats before = st->engine->stats();
  const mcf::jit::CompileStats j0 = mcf::jit::stats_snapshot();
  const Window base = run_window(*st, chains, flops, clients, cfg.seed, cfg.seconds, cfg.trace);
  const mcf::jit::CompileStats jit_delta = mcf::jit::stats_snapshot().since(j0);
  const mcf::EngineStats after_window = st->engine->stats();
  TunerTotals tuner;
  std::vector<double> fuse_ms;
  std::vector<std::set<std::uint64_t>> winners(chains.size());
  double rpc_p50 = 0.0;
  if (cfg.trace) {
    Tracer::instance().set_enabled(true);
    rpc_p50 = stats_rpc_p50_ms(st->endpoint);
    // The same mix through an in-process fuse (no net, no queue).
    const mcf::FusionEngine local(gpu);
    RequestMix mix(chains.size(), cfg.seed);
    const double start = now_s();
    while (fuse_ms.size() < 50 || (now_s() - start < 2.0 && fuse_ms.size() < 2000)) {
      Span span("engine.fuse", true);
      const double t0 = now_s();
      const std::size_t i = mix.next();
      const mcf::FusionResult r = local.fuse(chains[i]);
      fuse_ms.push_back((now_s() - t0) * 1e3);
      tuner.add(r.tuned);
      winners[i].insert(mcf::candidate_key(r.tuned.best));
    }
    Tracer::instance().set_enabled(false);
  }
  st->server->stop();
  const mcf::net::ServerStats ss = st->server->stats();
  const mcf::EngineStats es = st->engine->stats();

  // Checks: every response Ok and equal to the in-process tune; the
  // accounting identity holds at drain; every request reached the engine.
  const std::uint64_t sent = base.count(&ClientLog::sent);
  const std::uint64_t failed = base.count(&ClientLog::failed);
  const std::uint64_t wrong = base.count(&ClientLog::wrong);
  for (const ClientLog& l : base.logs) {
    if (!l.first_error.empty()) std::fprintf(stderr, "perfbench: %s\n", l.first_error.c_str());
  }
  if (wrong > 0) out.fail_check(std::to_string(wrong) + " responses differ from the in-process tune");
  if (es.submitted != es.completed + es.rejected + es.cancelled + es.deadline_exceeded) {
    out.fail_check("engine accounting identity broken at drain");
  }
  if (ss.requests != sent || es.submitted != sent) {
    out.fail_check("server saw " + std::to_string(ss.requests) + " requests, engine " +
                   std::to_string(es.submitted) + ", clients sent " + std::to_string(sent));
  }
  if (!check_detects_perturbation(st->refs[0])) {
    out.fail_check("self-check: a perturbed response passed the check");
  }
  out.attempted = sent;
  out.failed = failed;

  std::set<std::size_t> distinct;
  std::uint64_t total = 0;
  for (const ClientLog& l : base.logs) {
    distinct.insert(l.chain_idx.begin(), l.chain_idx.end());
    total += l.chain_idx.size();
  }
  const double repeat_share =
      total ? 1.0 - static_cast<double>(distinct.size()) / static_cast<double>(total) : 0.0;
  out.note("operations: " + std::to_string(sent) + " requests (" + std::to_string(failed) +
           " failed, " + std::to_string(wrong) + " wrong); " + std::to_string(clients) +
           " closed-loop clients; " + std::to_string(distinct.size()) +
           " distinct shapes, repeat share " + std::to_string(repeat_share));

  std::vector<double> log_gflops;
  for (const ClientLog& l : base.logs) {
    log_gflops.insert(log_gflops.end(), l.log_gflops.begin(), l.log_gflops.end());
  }
  const std::vector<double> all_ms = base.latencies(true, true);
  out.e2e = {
      {"setup_s", median(setup_times), "s"},
      {"latency_p50_ms", median(all_ms), "ms"},
      {"kernel_gflops", std::exp(mean(log_gflops)), "GFLOP/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };

  if (cfg.trace) {
    report_jit_layer(jit_delta, 1, jit_delta, out);
    report_measure_layer(*counters, out);
    std::size_t distinct_winners = 0;
    for (const auto& w : winners) distinct_winners = std::max(distinct_winners, w.size());
    out.layer.push_back({"search.tuner.distinct_winners",
                         static_cast<double>(distinct_winners), "count"});
    tuner.report(out);
    out.layer.push_back({"engine.fuse_ms_p50", median(fuse_ms), "ms"});
    out.layer.push_back({"net.stats_rpc_ms_p50", rpc_p50, "ms"});
    // Measured on graph-warm only: serve-repeat neither compiles nor
    // runs kernels natively.
    out.layer.push_back({"exec.kernel_gflops_fixed", 0.0, "GFLOP/s"});
    out.layer.push_back({"engine.submitted",
                         static_cast<double>(after_window.submitted - before.submitted),
                         "count"});
    out.layer.push_back({"engine.rejected",
                         static_cast<double>(after_window.rejected - before.rejected),
                         "count"});
    out.layer.push_back({"engine.op_p99_ms", quantile(all_ms, 0.99), "ms"});
    out.layer.push_back(
        {"engine.ops_per_s",
         static_cast<double>(base.count(&ClientLog::sent) - base.count(&ClientLog::failed)) /
             base.wall_s,
         "1/s"});
    const double untraced = median(base.latencies(false, true));
    out.layer.push_back({"trace.overhead_pct",
                         100.0 * (median(base.latencies(true, false)) - untraced) / untraced,
                         "%"});
  }
  return out;
}

}  // namespace perfbench
