// serve_hit and serve_miss: POST /v1/plan against an in-process
// serve::Server with netrecd's defaults, driven by kClients closed-loop
// client threads.
//
// The hit/miss mix is fixed by construction.  serve_hit primes the cache
// with a fixed set of damage states in set-up and then only ever sends
// states from that set.  serve_miss gives client c the states c, c + 4,
// c + 8, ... of a list with pairwise distinct cache keys, so no two requests
// share a key whatever the thread timing.  Each run checks
// Server::cache_stats() over the timed phase: zero misses on serve_hit, zero
// hits on serve_miss.
//
// Correctness: every response's "result" bytes must equal a direct
// PlanningEngine::solve of the same request (serve_hit: compared as they
// arrive; serve_miss: after the timed phase, so the check does not compete
// with the server for the cores).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/isp.hpp"
#include "heuristics/schedule.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ns = netrec;

namespace {

/// Damage states in serve_hit's primed set.
constexpr std::size_t kHitStates = 32;
/// serve_miss draws this many states per client per timed second: enough
/// for a miss path as fast as 20 ms (a miss takes ~280 ms today).
constexpr std::size_t kMissStatesPerClientSecond = 50;
/// serve_miss's quality metrics are the mean over the plans of states
/// 0..N-1, whether the timed phase served them or not (those it did not
/// are solved directly after it).  serve_hit's are the mean over its whole
/// primed set.
constexpr std::size_t kMissQualityStates = 128;
/// Traced serve_hit requests replayed for the request-path breakdown.
constexpr std::size_t kMaxHitReplays = 4096;
/// Damage states probed layer by layer in a traced run.
constexpr std::size_t kProbeStates = 8;

/// Collects the checks of any thread: check() counts an operation outside
/// the timed phase (a priming request, a reference solve, the hit/miss
/// gate); note() logs the failure of a timed request, which the timed
/// phase counts itself.  flush() adds the counts and the first failure to
/// the report.
class FailureLog {
 public:
  void check(bool ok, const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (first_.empty()) first_ = why;
  }
  void note(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_.empty()) first_ = why;
  }
  void flush(RunReport& report) const {
    report.attempted += attempted_;
    report.failed += failed_;
    if (!first_.empty()) report.fail(first_);
  }

 private:
  std::mutex mutex_;
  std::string first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The verbatim "result" bytes of a /v1/plan response: the server splices
/// the payload between a fixed prefix and the meta object, so string
/// surgery recovers them exactly (parsing would re-serialise and hide
/// byte-level differences).  Same rule as bench/load_serve.
bool extract_result_bytes(const std::string& response, std::string& out) {
  static const std::string kPrefix = "{\"result\":";
  static const std::string kMeta = ",\"meta\":{\"fingerprint\":";
  if (response.rfind(kPrefix, 0) != 0) return false;
  const std::size_t meta = response.rfind(kMeta);
  if (meta == std::string::npos || meta < kPrefix.size()) return false;
  out = response.substr(kPrefix.size(), meta - kPrefix.size());
  return true;
}

/// meta.latency_ms of a /v1/plan response (server-side handling time);
/// negative when absent.
double meta_latency_ms(const std::string& response) {
  static const std::string kKey = "\"latency_ms\":";
  const std::size_t at = response.rfind(kKey);
  if (at == std::string::npos) return -1.0;
  return std::strtod(response.c_str() + at + kKey.size(), nullptr);
}

Quality payload_quality(const std::string& payload) {
  const ns::util::Json json = ns::util::Json::parse(payload);
  return {json.at("repair_cost").as_number(),
          json.at("satisfied_fraction").as_number(),
          json.at("restoration").at("auc").as_number()};
}

ns::serve::ServerOptions netrecd_defaults() {
  ns::serve::ServerOptions options;
  options.workers = 4;
  options.cache_capacity = 4096;
  options.engine.solve_threads = 1;
  options.enable_shutdown_endpoint = false;
  return options;
}

/// One set-up's state: the preloaded problem, the damage states with their
/// wire bytes, and the running server.
struct Serving {
  ns::core::RecoveryProblem problem;
  std::vector<DamageState> states;
  std::vector<std::string> bodies;
  std::unique_ptr<ns::serve::Server> server;
  /// serve_hit: the result bytes the priming requests got back.
  std::vector<std::string> primed;
};

/// Sends bodies[0..n) once each from kClients threads (client c sends c,
/// c + kClients, ...); returns the result bytes by index.
std::vector<std::string> send_each_once(int port,
                                        const std::vector<std::string>& bodies,
                                        FailureLog& failures) {
  std::vector<std::string> results(bodies.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ns::serve::Client client("127.0.0.1", port);
      for (std::size_t i = c; i < bodies.size(); i += kClients) {
        const ns::serve::ClientResult r =
            client.request("POST", "/v1/plan", bodies[i]);
        failures.check(r.response.status == 200 &&
                           extract_result_bytes(r.response.body, results[i]),
                       "priming request " + std::to_string(i) +
                           " got status " + std::to_string(r.response.status));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

Serving set_up(bool hit, const RunConfig& config, Tracer* tracer,
               FailureLog& failures) {
  Serving s;
  s.problem = bell_canada_problem(8, 12.0, 7, tracer);
  const std::size_t count =
      hit ? kHitStates
          : static_cast<std::size_t>(std::ceil(config.seconds)) * kClients *
                kMissStatesPerClientSecond;
  s.states = distinct_gaussian_states(
      s.problem, count, hit ? kHitStates : kMissQualityStates,
      derive_seed(config.seed, hit ? 1 : 2), tracer);
  failures.check(s.states.size() == count,
                 "too few distinct damage states drawn");
  s.bodies.reserve(s.states.size());
  for (const DamageState& state : s.states) {
    s.bodies.push_back(request_body(state));
  }
  {
    const ScopedSpan span(tracer, "serve.server.start", 0);
    s.server = std::make_unique<ns::serve::Server>(s.problem,
                                                   netrecd_defaults());
    s.server->start();
  }
  if (hit) {
    const ScopedSpan span(tracer, "serve.prime", 0);
    s.primed = send_each_once(s.server->port(), s.bodies, failures);
  }
  return s;
}

/// Direct PlanningEngine::solve of states[which[i]] on kClients threads,
/// each with its own engine (the server's per-worker setting).  Returns the
/// payload dumps by i.  With tracers (one per thread), each item also
/// replays the request path on its wire bytes (against an empty cache, as a
/// miss) and solves the damaged problem with IspSolver + schedule_repairs
/// to split the engine's time.
std::vector<std::string> solve_direct(const Serving& s,
                                      const std::vector<std::size_t>& which,
                                      std::vector<Tracer>* tracers,
                                      FailureLog& failures) {
  std::vector<std::string> out(which.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        Tracer* tracer = tracers ? &(*tracers)[t] : nullptr;
        ns::serve::PlanningEngine engine(s.problem);
        ns::core::RecoveryProblem local = s.problem;
        ns::serve::PlanCache cache(netrecd_defaults().cache_capacity);
        for (std::size_t i = t; i < which.size(); i += kClients) {
          const std::size_t idx = which[i];
          if (tracer) {
            replay_request(s.bodies[idx], s.problem, cache, *tracer, i);
          }
          ns::serve::PlanOutcome outcome;
          {
            const ScopedSpan span(tracer, "serve.engine.solve", i);
            outcome = engine.solve(plan_request(s.states[idx]));
          }
          {
            const ScopedSpan span(tracer, "serve.payload_dump", i);
            out[i] = outcome.payload.dump();
          }
          failures.check(!outcome.degraded, "direct solve degraded");
          if (tracer) {
            apply_damage(local.graph, s.states[idx]);
            ns::core::RecoverySolution solution;
            {
              const ScopedSpan span(tracer, "core.isp.solve", i);
              solution = ns::core::IspSolver(local).solve();
            }
            {
              const ScopedSpan span(tracer, "heuristics.schedule", i);
              ns::heuristics::schedule_repairs(local, solution);
            }
            apply_damage(local.graph, s.states[idx], false);
          }
        }
      } catch (const std::exception& e) {
        failures.check(false, std::string("direct solve: ") + e.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return out;
}

/// What the clients of one timed phase saw.
struct LoopOutput {
  PlanSamples samples;
  /// serve_miss: (state index, result bytes) of every served request.
  std::vector<std::pair<std::size_t, std::string>> served;
  double retries = 0.0;
  bool ran_out = false;
};

/// Runs kClients closed-loop clients for `seconds`.  serve_hit clients pick
/// states from the primed set with their own seeded stream and check bytes
/// against `expected` as responses arrive; serve_miss clients walk their
/// own stride of the state list from `cursor`.  `tracers` (one per client)
/// turns on span recording.
LoopOutput closed_loop(const Serving& s, bool hit,
                       const std::vector<std::string>& expected,
                       std::vector<ns::util::Rng>& pickers,
                       std::vector<std::size_t>& cursor, double seconds,
                       std::vector<Tracer>* tracers, std::uint64_t phase,
                       FailureLog& failures) {
  std::vector<LoopOutput> per_client(kClients);
  const int port = s.server->port();
  const double start = now_seconds();
  const double stop = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopOutput& mine = per_client[c];
      Tracer* tracer = tracers ? &(*tracers)[c] : nullptr;
      ns::serve::ClientOptions options;
      options.jitter_seed = 0x10adu + c;
      ns::serve::Client client("127.0.0.1", port, options);
      std::string result;
      for (std::uint64_t k = 0; now_seconds() < stop; ++k) {
        std::size_t idx = 0;
        if (hit) {
          idx = static_cast<std::size_t>(pickers[c].uniform_int(
              0, static_cast<std::int64_t>(s.states.size()) - 1));
        } else {
          idx = c + kClients * cursor[c];
          if (idx >= s.states.size()) {
            mine.ran_out = true;
            break;
          }
          ++cursor[c];
        }
        ++mine.samples.attempted;
        const double t0 = now_seconds();
        const ns::serve::ClientResult r =
            client.request("POST", "/v1/plan", s.bodies[idx]);
        const double t1 = now_seconds();
        mine.retries += r.transient_errors;
        if (r.response.status != 200) {
          ++mine.samples.failed;
          failures.note(r.response.status == 0
                            ? "transport error: " + r.error
                            : "status " + std::to_string(r.response.status));
          continue;
        }
        if (!extract_result_bytes(r.response.body, result)) {
          ++mine.samples.failed;
          failures.note("response without a result object");
          continue;
        }
        if (hit) {
          if (result != expected[idx]) {
            ++mine.samples.failed;
            failures.note("served bytes differ from the direct solve");
            continue;
          }
        } else {
          mine.served.emplace_back(idx, result);
        }
        mine.samples.add_latency((t1 - t0) * 1e3);
        if (tracer) {
          const double handle_ms = meta_latency_ms(r.response.body);
          const std::uint64_t id = (phase << 48) | (c << 40) | k;
          const int root = tracer->record("plan", t0, t1, -1, id);
          tracer->record("serve.handle", t1 - handle_ms / 1e3, t1, root, id);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoopOutput out;
  out.samples.wall_seconds = now_seconds() - start;
  for (LoopOutput& mine : per_client) {
    out.samples.merge(mine.samples);
    out.served.insert(out.served.end(),
                      std::make_move_iterator(mine.served.begin()),
                      std::make_move_iterator(mine.served.end()));
    out.retries += mine.retries;
    out.ran_out = out.ran_out || mine.ran_out;
  }
  return out;
}

double span_mean_ms(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.calls == 0) return 0.0;
  return it->second.total / static_cast<double>(it->second.calls) * 1e3;
}

RunReport run_serve(const RunConfig& config, bool hit) {
  RunReport report;
  FailureLog failures;
  Tracer tracer;  // set-up, probe and replay spans (traced runs only)
  Tracer* setup_tracer = config.trace ? &tracer : nullptr;

  Serving s;
  std::vector<double> setup_seconds;
  while (set_up_again(setup_seconds, 0, false, config.trace)) {
    if (s.server) s.server->stop();
    s = Serving{};
    const double t0 = now_seconds();
    s = set_up(hit, config, setup_tracer, failures);
    setup_seconds.push_back(now_seconds() - t0);
  }
  report.note(format("set-up: %zu damage states, server on port %d",
                     s.states.size(), s.server->port()));

  // serve_hit's reference bytes: one direct solve per primed state.
  std::vector<std::string> expected;
  std::vector<Quality> quality;
  if (hit) {
    std::vector<std::size_t> all(s.states.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    expected = solve_direct(s, all, nullptr, failures);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      failures.check(s.primed[i] == expected[i],
                     "primed bytes differ from the direct solve");
      quality.push_back(payload_quality(expected[i]));
    }
  }

  std::vector<ns::util::Rng> pickers;
  for (std::size_t c = 0; c < kClients; ++c) {
    pickers.emplace_back(derive_seed(config.seed, 100 + c));
  }
  std::vector<std::size_t> cursor(kClients, 0);
  const ns::serve::PlanCache::Stats before = s.server->cache_stats();
  const std::uint64_t shed0 = s.server->shed_total();
  const std::uint64_t degraded0 = s.server->degraded_total();
  const std::uint64_t restarts0 = s.server->worker_restarts();

  // Untraced run: one phase.  Traced run: an untraced half, then a traced
  // half on the same server.
  std::vector<Tracer> client_tracers(kClients);
  LoopOutput untraced = closed_loop(
      s, hit, expected, pickers, cursor,
      config.trace ? config.seconds / 2 : config.seconds, nullptr, 0,
      failures);
  std::optional<LoopOutput> traced;
  if (config.trace) {
    traced = closed_loop(s, hit, expected, pickers, cursor,
                         config.seconds / 2, &client_tracers, 1, failures);
  }
  const double peak_rss = peak_rss_mb();
  const ns::serve::PlanCache::Stats after = s.server->cache_stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  failures.check(hit ? misses == 0 : hits == 0,
                 format("hit/miss mix broken: %.0f hits, %.0f misses in the "
                        "timed phase",
                        hits, misses));
  if (untraced.ran_out || (traced && traced->ran_out)) {
    report.note("warning: a client used up its damage states early");
  }
  TraceSummary summary;
  summary.cache_hit_frac = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  summary.cache_evictions =
      static_cast<double>(after.evictions - before.evictions);
  summary.shed = static_cast<double>(s.server->shed_total() - shed0);
  summary.degraded = static_cast<double>(s.server->degraded_total() -
                                         degraded0);
  summary.worker_restarts =
      static_cast<double>(s.server->worker_restarts() - restarts0);
  summary.client_retries = untraced.retries + (traced ? traced->retries : 0);
  s.server->stop();
  for (const std::size_t start = setup_seconds.size();
       set_up_again(setup_seconds, start, true, config.trace);) {
    const double t0 = now_seconds();
    Serving spare = set_up(hit, config, nullptr, failures);
    setup_seconds.push_back(now_seconds() - t0);
    spare.server->stop();
  }

  // serve_miss: check every served response against a direct solve.  In a
  // traced run these solves double as the replay of the traced requests.
  // The untraced phase also solves the quality states it did not serve.
  Tracer replay;
  const auto verify = [&](LoopOutput& phase, bool traced_phase) {
    if (hit) return;
    std::vector<std::size_t> which;
    for (const auto& [idx, bytes] : phase.served) which.push_back(idx);
    if (!config.trace) {
      quality.resize(std::min(kMissQualityStates, s.states.size()));
      std::vector<bool> served(quality.size(), false);
      for (std::size_t idx : which) {
        if (idx < served.size()) served[idx] = true;
      }
      for (std::size_t idx = 0; idx < served.size(); ++idx) {
        if (!served[idx]) which.push_back(idx);
      }
    }
    std::vector<Tracer> tracers(kClients);
    const std::vector<std::string> direct =
        solve_direct(s, which, traced_phase ? &tracers : nullptr, failures);
    for (Tracer& t : tracers) replay.merge(t);
    for (std::size_t i = 0; i < which.size(); ++i) {
      if (i < phase.served.size() && phase.served[i].second != direct[i]) {
        ++phase.samples.failed;
        failures.note("served bytes differ from the direct solve");
      }
      if (which[i] < quality.size()) {
        quality[which[i]] = payload_quality(direct[i]);
      }
    }
  };
  verify(untraced, false);
  if (traced) verify(*traced, true);

  report.attempted += untraced.samples.attempted;
  report.failed += untraced.samples.failed;
  if (traced) {
    report.attempted += traced->samples.attempted;
    report.failed += traced->samples.failed;
  }
  report.note(format("timed: %llu requests, %llu failed, %.0f cache hits, "
                     "%.0f misses",
                     static_cast<unsigned long long>(report.attempted),
                     static_cast<unsigned long long>(report.failed), hits,
                     misses));

  if (!config.trace) {
    add_end_to_end(report, untraced.samples, median(setup_seconds),
                   mean_quality(quality), peak_rss);
    failures.flush(report);
    return report;
  }

  // serve_hit: replay a sample of the traced requests' server-side path.
  if (hit) {
    ns::serve::PlanCache cache(netrecd_defaults().cache_capacity);
    for (const DamageState& state : s.states) {
      cache.insert(ns::serve::canonical_key(plan_request(state)), "");
    }
    const std::uint64_t n = traced->samples.completed;
    const std::size_t step = std::max<std::size_t>(1, n / kMaxHitReplays);
    ns::util::Rng picker(derive_seed(config.seed, 200));
    for (std::size_t i = 0; i < n; i += step) {
      const auto idx = static_cast<std::size_t>(picker.uniform_int(
          0, static_cast<std::int64_t>(s.states.size()) - 1));
      replay_request(s.bodies[idx], s.problem, cache, replay, i);
    }
  }

  // Blocking path of one request: transport (round trip minus the server's
  // meta.latency_ms) + the handle time, which the replays split into the
  // request path, the engine and, inside it, ISP and the schedule.
  std::vector<double> rtt;
  std::vector<double> handle;
  std::vector<double> transport;
  for (const Tracer& t : client_tracers) {
    for (const Span& span : t.spans()) {
      if (span.name != "serve.handle") continue;
      const Span& plan = t.spans()[static_cast<std::size_t>(span.parent)];
      rtt.push_back(plan.duration() * 1e3);
      handle.push_back(span.duration() * 1e3);
      transport.push_back(rtt.back() - handle.back());
    }
  }
  summary.plan_ms = mean(rtt);
  const auto replayed = totals_by_name(replay.spans());
  double request_ms = 0.0;
  for (const char* name : {"util.json.parse", "serve.protocol.parse",
                           "serve.protocol.key", "serve.plan_cache.find"}) {
    request_ms += span_mean_ms(replayed, name);
  }
  summary.path_ms.emplace_back("serve.transport", mean(rtt) - mean(handle));
  if (hit) {
    summary.path_ms.emplace_back("serve.request", request_ms);
  } else {
    const double isp = span_mean_ms(replayed, "core.isp.solve");
    const double schedule = span_mean_ms(replayed, "heuristics.schedule");
    summary.path_ms.emplace_back(
        "serve.request",
        request_ms + span_mean_ms(replayed, "serve.payload_dump"));
    summary.path_ms.emplace_back(
        "serve.engine",
        span_mean_ms(replayed, "serve.engine.solve") - isp - schedule);
    summary.path_ms.emplace_back("core.isp.solve", isp);
    summary.path_ms.emplace_back("heuristics.schedule", schedule);
  }
  summary.traced_p50_ms = percentile(traced->samples.latency_ms, 0.5);
  summary.untraced_p50_ms = percentile(untraced.samples.latency_ms, 0.5);
  report.note(format("serve.transport_ms p50 %.4f p99 %.4f; serve.handle_ms "
                     "p50 %.4f p99 %.4f (%zu traced requests)",
                     percentile(transport, 0.5), percentile(transport, 0.99),
                     percentile(handle, 0.5), percentile(handle, 0.99),
                     rtt.size()));
  if (!hit) {
    report.note(format("serve.engine.solve_ms: %.4f ms per call over %zu "
                       "replayed requests",
                       span_mean_ms(replayed, "serve.engine.solve"),
                       replayed.count("serve.engine.solve")
                           ? replayed.at("serve.engine.solve").calls
                           : std::size_t{0}));
  }

  // Layer probes on the workload's own damage states.
  std::optional<ns::util::ThreadPool> pool_storage;
  ns::util::ThreadPool* pool4 =
      ns::util::ThreadPool::acquire(pool_storage, 4, nullptr);
  ns::core::RecoveryProblem probe = s.problem;
  const std::size_t probes =
      std::min(kProbeStates, hit ? s.states.size() : traced->served.size());
  for (std::size_t i = 0; i < probes; ++i) {
    const std::size_t idx = hit ? i : traced->served.at(i).first;
    apply_damage(probe.graph, s.states[idx]);
    ProbeOptions options;
    options.speedup = i == 0;
    options.speedup_pool = pool4;
    probe_layers(probe, options, tracer, i, report);
    apply_damage(probe.graph, s.states[idx], false);
  }

  tracer.merge(replay);
  for (Tracer& t : client_tracers) tracer.merge(t);
  tracer.write_json(config.workdir + "/trace-" +
                    (hit ? "serve_hit" : "serve_miss") + ".json");
  add_trace_metrics(report, tracer, summary);
  failures.flush(report);
  return report;
}

}  // namespace

RunReport run_serve_hit(const RunConfig& config) {
  return run_serve(config, true);
}

RunReport run_serve_miss(const RunConfig& config) {
  return run_serve(config, false);
}

}  // namespace perfbench
