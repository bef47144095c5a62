// Tests for the measurement-calibrated cost oracle (src/core/cost_oracle):
// saturation of the analytic estimate (the llround overflow regression),
// cold-start == analytic, EWMA convergence and confidence monotonicity,
// the blend-disabled control arm, oracle state determinism across both
// serving loops and sim_threads values (including under a fault plan), SJF
// ordering by blended cost, affinity placement on measured cycles, the
// caller-driven WFQ charge, and the autotune tail-calibration fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/compiler/autotune.hpp"
#include "core/cost_oracle.hpp"
#include "core/engine.hpp"
#include "graph/datasets.hpp"
#include "serve/fleet.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/trace.hpp"
#include "util/fnv.hpp"

namespace gnnerator::serve {
namespace {

core::SimulationRequest timing_sim(const std::string& dataset, gnn::LayerKind kind) {
  core::SimulationRequest sim;
  sim.dataset = dataset;
  sim.model = core::table3_model(kind, *graph::find_dataset(dataset));
  sim.mode = core::SimMode::kTiming;
  return sim;
}

class FixedWorkload final : public WorkloadSource {
 public:
  explicit FixedWorkload(std::vector<Request> arrivals) : arrivals_(std::move(arrivals)) {}
  std::vector<Request> initial_arrivals() override { return arrivals_; }

 private:
  std::vector<Request> arrivals_;
};

Request at_cycle(Cycle arrival, core::SimulationRequest sim, double slo_ms = 0.0) {
  Request r;
  r.arrival = arrival;
  r.sim = std::move(sim);
  r.slo_ms = slo_ms;
  return r;
}

/// FNV-1a over the completion records — the cross-loop identity the oracle
/// must preserve.
std::uint64_t records_fingerprint(const ServeReport& report) {
  util::Fnv1a fnv(util::kFnvShortBasis);
  const auto mix = [&fnv](std::uint64_t v) { fnv.mix(v); };
  // Each character as a full 64-bit word, the encoding the goldens pin.
  const auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      mix(static_cast<std::uint8_t>(c));
    }
  };
  mix(report.outcomes.size());
  for (const Outcome& o : report.outcomes) {
    mix(o.id);
    mix(o.arrival);
    mix(o.dispatch);
    mix(o.completion);
    mix(o.device);
    mix(o.batch_size);
    mix(o.shed ? 1 : 0);
    mix(o.failed ? 1 : 0);
    mix(o.retries);
    mix(o.service_cycles);
    mix_str(o.klass);
    mix_str(o.class_key);
  }
  mix(report.end_cycle);
  return fnv.value();
}

// ------------------------------------------------------------- saturation --

TEST(CostOracle, SaturateCyclesClampsInsteadOfWrapping) {
  using core::CostOracle;
  // The floor: NaN and sub-cycle estimates clamp to 1 (0 doubles as "not
  // priced" in the serving registry).
  EXPECT_EQ(CostOracle::saturate_cycles(std::nan("")), 1u);
  EXPECT_EQ(CostOracle::saturate_cycles(0.0), 1u);
  EXPECT_EQ(CostOracle::saturate_cycles(0.3), 1u);
  EXPECT_EQ(CostOracle::saturate_cycles(-5.0e18), 1u);
  // Ordinary values round.
  EXPECT_EQ(CostOracle::saturate_cycles(12345.4), 12345u);
  EXPECT_EQ(CostOracle::saturate_cycles(12345.6), 12346u);
  // Past 2^53 a double no longer holds every integer, but the cast must
  // stay monotone and in range — the old llround path was UB from 2^63 up.
  const double past_53 = 9.0e15;  // > 2^53
  EXPECT_EQ(CostOracle::saturate_cycles(past_53), static_cast<std::uint64_t>(past_53));
  const double in_63_64 = 1.2e19;  // in [2^63, 2^64): llround UB territory
  EXPECT_EQ(CostOracle::saturate_cycles(in_63_64), static_cast<std::uint64_t>(in_63_64));
  // At and above 2^64: saturate to max, never wrap to a small cost.
  EXPECT_EQ(CostOracle::saturate_cycles(18446744073709551616.0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(CostOracle::saturate_cycles(2.0e20),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(CostOracle::saturate_cycles(std::numeric_limits<double>::infinity()),
            std::numeric_limits<std::uint64_t>::max());
}

// -------------------------------------------------------------- cold start --

TEST(CostOracle, ColdStartIsTheAnalyticPrior) {
  const graph::Dataset dataset = graph::make_dataset_by_name("cora", 1,
                                                             /*with_features=*/false);
  core::SimulationRequest sim;
  sim.dataset = "cora";
  sim.model = core::table3_model(gnn::LayerKind::kGcn, dataset.spec);
  sim.mode = core::SimMode::kTiming;

  core::CostOracle oracle;
  EXPECT_FALSE(oracle.lookup("k").has_value());
  const std::uint64_t analytic = oracle.analytic(dataset, sim, "k");
  EXPECT_EQ(analytic, oracle.compute(dataset, sim));
  EXPECT_EQ(oracle.pipeline_runs(), 1u);
  // Memoized: the second call does not re-run the compiler pipeline.
  EXPECT_EQ(oracle.analytic(dataset, sim, "k"), analytic);
  EXPECT_EQ(oracle.pipeline_runs(), 1u);
  ASSERT_TRUE(oracle.lookup("k").has_value());
  EXPECT_EQ(*oracle.lookup("k"), analytic);
  // Unobserved pairs blend to the prior and report no measurement.
  EXPECT_EQ(oracle.blend(analytic, "k", "k"), analytic);
  EXPECT_FALSE(oracle.measured("k", "k").has_value());
  // prime() publishes without recomputing, and only counts new keys.
  oracle.prime("k", 42);
  EXPECT_EQ(*oracle.lookup("k"), analytic) << "prime must not overwrite";
  EXPECT_EQ(oracle.pipeline_runs(), 1u);
  oracle.prime("k2", 42);
  EXPECT_EQ(oracle.pipeline_runs(), 2u);
}

// ------------------------------------------------------ blend convergence --

TEST(CostOracle, BlendConvergesToMeasurementWithObservations) {
  core::CostOracleOptions options;
  options.confidence = 2.0;
  core::CostOracle oracle(options);
  const std::uint64_t analytic = 1'000'000;
  const std::uint64_t measured = 4'000'000;

  std::uint64_t previous = analytic;
  for (std::uint64_t n = 1; n <= 16; ++n) {
    oracle.observe("p", "d", measured);
    const std::uint64_t blended = oracle.blend(analytic, "p", "d");
    // Every observation equals `measured`, so the EWMA is exact and the
    // blend is analytic + (measured - analytic) * n / (n + confidence).
    const double weight = static_cast<double>(n) / (static_cast<double>(n) + 2.0);
    const double expected = (1.0 - weight) * static_cast<double>(analytic) +
                            weight * static_cast<double>(measured);
    EXPECT_NEAR(static_cast<double>(blended), expected, 1.0) << "n=" << n;
    EXPECT_GE(blended, previous) << "blend must move monotonically toward the measurement";
    previous = blended;
  }
  EXPECT_GT(previous, (analytic + measured) / 2) << "16 observations should dominate";
  ASSERT_TRUE(oracle.measured("p", "d").has_value());
  EXPECT_EQ(*oracle.measured("p", "d"), measured);
  // Other pairs are untouched.
  EXPECT_EQ(oracle.blend(analytic, "p", "other"), analytic);
}

TEST(CostOracle, LowerConfidenceTrustsMeasurementsSooner) {
  const std::uint64_t analytic = 1'000'000;
  const std::uint64_t measured = 9'000'000;
  core::CostOracleOptions eager;
  eager.confidence = 1.0;
  core::CostOracleOptions wary;
  wary.confidence = 8.0;
  core::CostOracle a(eager);
  core::CostOracle b(wary);
  for (int n = 0; n < 4; ++n) {
    a.observe("p", "d", measured);
    b.observe("p", "d", measured);
    const std::uint64_t blend_a = a.blend(analytic, "p", "d");
    const std::uint64_t blend_b = b.blend(analytic, "p", "d");
    // Identical histories: the lower-confidence oracle is always at least
    // as close to the measurement.
    EXPECT_LE(measured - blend_a, measured - blend_b);
  }
}

TEST(CostOracle, BlendDisabledStaysAnalyticButStillRecords) {
  core::CostOracleOptions options;
  options.blend_measurements = false;
  core::CostOracle oracle(options);
  for (int n = 0; n < 8; ++n) {
    oracle.observe("p", "d", 5'000'000);
  }
  EXPECT_EQ(oracle.blend(1'000'000, "p", "d"), 1'000'000u);
  EXPECT_FALSE(oracle.measured("p", "d").has_value());
  // The history is still recorded — the control arm's state fingerprint
  // stays comparable with the calibrated arm's.
  EXPECT_EQ(oracle.windows().total_observations(), 8u);
}

TEST(CostOracle, StateFingerprintCoversMemoAndWindows) {
  core::CostOracle a;
  core::CostOracle b;
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  a.prime("k", 100);
  EXPECT_NE(a.state_fingerprint(), b.state_fingerprint());
  b.prime("k", 100);
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  a.observe("p", "d", 777);
  EXPECT_NE(a.state_fingerprint(), b.state_fingerprint());
  b.observe("p", "d", 777);
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
}

// ------------------------------------------------ determinism goldens --

/// The oracle is mutated only at sequential event points, so its end-of-run
/// state — and every record decided from it — must match the pinned
/// goldens at any sim_threads, with tiers, a heterogeneous fleet, and a
/// fault plan in play. The goldens (record digest, oracle state_fingerprint)
/// were recorded from the retired single-threaded reference event loop.
TEST(CostOracleServe, OracleStateMatchesGoldenAcrossThreads) {
  struct Golden {
    const char* records;
    const char* oracle;
  };
  const Golden healthy{"225ca3eae948a91e", "db11596e085f1e6c"};
  const Golden faulted{"cbcbe67cf50638eb", "7a62c874365cb904"};
  for (const bool with_faults : {false, true}) {
    SCOPED_TRACE(with_faults ? "faulted" : "healthy");
    const auto make_options = [&] {
      ServerOptions options;
      options.policy = SchedulingPolicy::kSjf;
      options.fleet = parse_fleet_spec("2xbaseline,1xnextgen");
      options.classes = parse_class_spec("interactive:5:4:1,bulk");
      options.default_slo_ms = 8.0;
      if (with_faults) {
        options.faults =
            parse_fault_plan("crash@0.2ms:dev2,recover@1ms:dev2", options.clock_ghz);
      }
      return options;
    };
    const auto run = [&](std::size_t threads) {
      ServerOptions options = make_options();
      options.sim_threads = threads;
      Server server(options);
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
      server.add_dataset(
          graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));
      std::vector<RequestTemplate> mix;
      std::size_t i = 0;
      for (const gnn::LayerKind kind :
           {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
        RequestTemplate t;
        t.sim = timing_sim(i % 2 == 0 ? "cora" : "citeseer", kind);
        t.klass = i % 2 == 0 ? "interactive" : "bulk";
        mix.push_back(std::move(t));
        ++i;
      }
      PoissonWorkload workload(mix, /*rate_rps=*/12000.0, /*num_requests=*/120,
                               options.clock_ghz, /*seed=*/99);
      const ServeReport report = server.serve(workload);
      return std::pair{util::hex64(records_fingerprint(report)),
                       util::hex64(server.cost_oracle().state_fingerprint())};
    };

    const Golden& expected = with_faults ? faulted : healthy;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("sim_threads=" + std::to_string(threads));
      const auto [records, oracle] = run(threads);
      EXPECT_EQ(records, expected.records);
      EXPECT_EQ(oracle, expected.oracle);
    }
  }
}

// ------------------------------------------------------------ SJF blending --

/// SJF queues on the blended estimate: once measurements contradict the
/// analytic prior hard enough, the dispatch order flips to follow them.
TEST(CostOracleServe, SjfOrdersByBlendedCost) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kSjf;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  server.add_dataset(graph::make_dataset_by_name("pubmed", 1, /*with_features=*/false));
  const core::SimulationRequest light = timing_sim("cora", gnn::LayerKind::kGcn);
  const core::SimulationRequest heavy = timing_sim("pubmed", gnn::LayerKind::kSagePool);
  const std::uint64_t analytic_light = server.cost_estimate(light);
  const std::uint64_t analytic_heavy = server.cost_estimate(heavy);
  ASSERT_LT(analytic_light, analytic_heavy);

  // Wave 1 (organic): one of each — creates the measured windows.
  {
    FixedWorkload wave({at_cycle(0, light), at_cycle(0, heavy)});
    ASSERT_EQ(server.serve(wave).metrics.completed, 2u);
  }
  ASSERT_EQ(server.cost_oracle().windows().size(), 2u);

  // Poison the light class's history: pretend it measured enormous. The
  // legacy single-device fleet keys windows by (class key, class key).
  const std::string light_key = server.class_key(light);
  const std::uint64_t huge = 50'000'000'000ULL;
  for (int n = 0; n < 32; ++n) {
    server.mutable_cost_oracle().observe(light_key, light_key, huge);
  }
  // The public analytic estimate never consults measurements...
  EXPECT_EQ(server.cost_estimate(light), analytic_light);
  // ...but the calibrated estimate (what SJF queues on) follows them.
  EXPECT_GT(server.calibrated_cost_estimate(light), analytic_heavy);

  // Wave 2: with the blend inverted, every heavy dispatches before any
  // light — the analytic memo alone would order them the other way.
  FixedWorkload wave({at_cycle(0, light), at_cycle(0, heavy), at_cycle(0, light),
                      at_cycle(0, heavy)});
  const ServeReport report = server.serve(wave);
  ASSERT_EQ(report.metrics.completed, 4u);
  std::vector<std::pair<Cycle, std::string>> order;
  for (const Outcome& o : report.outcomes) {
    order.emplace_back(o.dispatch, o.class_key);
  }
  std::sort(order.begin(), order.end());
  const std::string heavy_key = server.class_key(heavy);
  EXPECT_EQ(order[0].second, heavy_key);
  EXPECT_EQ(order[1].second, heavy_key);
  EXPECT_EQ(order[2].second, light_key);
  EXPECT_EQ(order[3].second, light_key);
}

// ------------------------------------------------------- affinity blending --

/// Affinity EFT feeds on the oracle: a second wave of identical requests
/// places using the measured cycles, not the stale analytic estimate.
TEST(CostOracleServe, AffinityPlacesSecondWaveOnMeasuredCycles) {
  ServerOptions options;
  options.policy = SchedulingPolicy::kAffinity;
  options.fleet = parse_fleet_spec("1xbaseline,1xnextgen");
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);

  // Wave 1: enough identical requests that both device classes execute the
  // plan and the oracle observes each execution identity.
  {
    std::vector<Request> wave;
    for (int i = 0; i < 4; ++i) {
      wave.push_back(at_cycle(0, sim));
    }
    FixedWorkload workload(wave);
    const ServeReport report = server.serve(workload);
    ASSERT_EQ(report.metrics.completed, 4u);
  }
  // Placement now runs on measured-exact cycles (EFT == measurement, so the
  // calibrated estimate matches the analytic only if the model was perfect).
  const std::string plan_key = server.class_key(sim);
  const auto windows = server.cost_oracle().windows().snapshot();
  ASSERT_GE(windows.size(), 2u) << "both device classes should have executed";

  // Find the nextgen execution identity: the baseline (canonical) identity
  // is the class key itself.
  std::string nextgen_identity;
  for (const auto& w : windows) {
    EXPECT_EQ(w.plan_class, plan_key);
    if (w.device_class != plan_key) {
      nextgen_identity = w.device_class;
    }
  }
  ASSERT_FALSE(nextgen_identity.empty());

  // Poison nextgen's history: the oracle now "knows" this plan is terrible
  // there. Analytically nextgen remains the faster class.
  const std::uint64_t analytic_nextgen = server.device_cost_estimate(sim, 1);
  ASSERT_LT(analytic_nextgen, server.device_cost_estimate(sim, 0));
  const std::uint64_t huge = 50'000'000'000ULL;
  for (int n = 0; n < 64; ++n) {
    server.mutable_cost_oracle().observe(plan_key, nextgen_identity, huge);
  }
  EXPECT_GT(server.calibrated_device_cost_estimate(sim, 1), analytic_nextgen)
      << "the calibrated estimate must reflect the measurement";
  EXPECT_EQ(server.device_cost_estimate(sim, 1), analytic_nextgen)
      << "the analytic estimate must not";

  // Wave 2: every placement avoids the measured-slow nextgen device — the
  // stale analytic estimate would have sent them all there.
  std::vector<Request> wave;
  wave.push_back(at_cycle(0, sim));
  wave.push_back(at_cycle(0, sim));
  FixedWorkload workload(wave);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 2u);
  for (const Outcome& o : report.outcomes) {
    EXPECT_EQ(o.device, 0u) << "request " << o.id << " placed on the poisoned device";
  }
}

// --------------------------------------------------------------- WFQ charge --

/// The tiered front end no longer self-charges at pop: the caller (the
/// server, at dispatch commit) charges the cost of the executing device
/// class, and the pop order follows those charges.
TEST(CostOracleServe, WfqPopOrderFollowsCallerCharges) {
  const std::unique_ptr<Scheduler> scheduler =
      make_scheduler(SchedulingPolicy::kFifo, Scheduler::Limits{},
                     parse_class_spec("a,b"));
  std::uint64_t id = 0;
  const auto enqueue = [&](std::size_t tier) {
    QueuedRequest q;
    q.request.id = id++;
    q.tier = tier;
    q.class_key = tier == 0 ? "ka" : "kb";
    q.cost_estimate = 100;  // queue-time estimate: identical across tiers
    scheduler->enqueue(std::move(q), 0);
  };
  for (int i = 0; i < 3; ++i) {
    enqueue(0);
  }
  for (int i = 0; i < 4; ++i) {
    enqueue(1);
  }
  EXPECT_EQ(scheduler->queued_cost(), 700u);

  const auto pop_tier = [&] {
    std::optional<DispatchBatch> batch = scheduler->pop(0);
    EXPECT_TRUE(batch.has_value());
    return batch->requests.front().tier;
  };
  // Equal virtual times tie-break to the lower tier index.
  EXPECT_EQ(pop_tier(), 0u);
  scheduler->charge(0, 1000);  // tier a executed on an expensive class
  EXPECT_EQ(pop_tier(), 1u);
  scheduler->charge(1, 10);  // tier b landed on a cheap class...
  EXPECT_EQ(pop_tier(), 1u);  // ...so it keeps winning
  scheduler->charge(1, 10);
  EXPECT_EQ(pop_tier(), 1u);
  scheduler->charge(1, 2000);  // until a big actual-cost charge flips it
  EXPECT_EQ(pop_tier(), 0u);
  EXPECT_EQ(scheduler->queued_cost(), 200u);
}

/// Old-vs-new behaviour pin: a batch shed in its entirety at dispatch never
/// occupied a device, so it must not advance its tier's virtual time. The
/// old pop-time charge taxed the tier for work that never ran, handing the
/// next dispatch to the other tier.
TEST(CostOracleServe, FullyShedBatchDoesNotChargeItsTier) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  options.classes = parse_class_spec("a,b");
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);

  std::vector<Request> burst;
  // One doomed tier-a request (impossible SLO: shed at dispatch commit)...
  Request doomed = at_cycle(0, sim, /*slo_ms=*/1e-6);
  doomed.klass = "a";
  burst.push_back(std::move(doomed));
  // ...then four normal requests per tier, all equal-cost.
  for (int i = 0; i < 4; ++i) {
    Request ra = at_cycle(0, sim);
    ra.klass = "a";
    burst.push_back(std::move(ra));
    Request rb = at_cycle(0, sim);
    rb.klass = "b";
    burst.push_back(std::move(rb));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 8u);
  ASSERT_EQ(report.metrics.shed, 1u);

  std::vector<std::pair<Cycle, std::string>> order;
  for (const Outcome& o : report.outcomes) {
    if (!o.shed) {
      order.emplace_back(o.dispatch, o.klass);
    }
  }
  std::sort(order.begin(), order.end());
  // Uncharged shed: the tiers alternate from the start, a first (lower
  // index at equal virtual time). A pop-time charge for the doomed batch
  // would have started b, a, b, a, ...
  const std::vector<std::string> expected = {"a", "b", "a", "b", "a", "b", "a", "b"};
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(order[i].second, expected[i]) << "dispatch " << i;
  }
}

// --------------------------------------------------------- tail calibration --

TEST(CostOracle, TailCalibrationFitsTracedBusyWindows) {
  const graph::Dataset dataset = graph::make_dataset_by_name("cora", 1,
                                                             /*with_features=*/false);
  core::SimulationRequest sim;
  sim.dataset = "cora";
  sim.model = core::table3_model(gnn::LayerKind::kGcn, dataset.spec);
  sim.mode = core::SimMode::kTiming;

  sim::Tracer tracer;
  tracer.enable();
  core::Engine engine(core::EngineOptions{.num_threads = 1});
  (void)engine.run(dataset, sim.model, sim, &tracer);
  ASSERT_FALSE(tracer.events().empty());

  // Recover the busy sums the fit sees (same grammar as the fit itself —
  // this pins the event vocabulary, not the arithmetic).
  double graph_busy = 0.0;
  double dense_busy = 0.0;
  std::vector<std::pair<std::string, Cycle>> open_gemm;
  std::vector<std::pair<std::string, Cycle>> open_shard;
  for (const sim::TraceEvent& e : tracer.events()) {
    const bool gemm = e.what.rfind("gemm", 0) == 0;
    const bool shard = e.what.rfind("shard", 0) == 0;
    if (!gemm && !shard) {
      continue;
    }
    auto& open = gemm ? open_gemm : open_shard;
    if (e.what.rfind(gemm ? "gemm start" : "shard start", 0) == 0) {
      open.emplace_back(e.component, e.cycle);
    } else if (e.what.rfind(gemm ? "gemm done" : "shard done", 0) == 0) {
      const auto it = std::find_if(open.begin(), open.end(), [&](const auto& o) {
        return o.first == e.component;
      });
      if (it != open.end()) {
        (gemm ? dense_busy : graph_busy) += static_cast<double>(e.cycle - it->second);
        open.erase(it);
      }
    }
  }
  ASSERT_GT(graph_busy, 0.0);
  ASSERT_GT(dense_busy, 0.0);

  // Perfect predictions fit to the identity...
  const core::compiler::TailCalibration exact =
      core::compiler::fit_tail_calibration(tracer, graph_busy, dense_busy);
  EXPECT_TRUE(exact.calibrated());
  EXPECT_GT(exact.windows, 0u);
  EXPECT_DOUBLE_EQ(exact.graph_scale, 1.0);
  EXPECT_DOUBLE_EQ(exact.dense_scale, 1.0);
  // ...half-size predictions fit to 2x...
  const core::compiler::TailCalibration low =
      core::compiler::fit_tail_calibration(tracer, graph_busy / 2.0, dense_busy / 2.0);
  EXPECT_DOUBLE_EQ(low.graph_scale, 2.0);
  EXPECT_DOUBLE_EQ(low.dense_scale, 2.0);
  // ...and absurd predictions clamp instead of poisoning the cost model.
  const core::compiler::TailCalibration wild = core::compiler::fit_tail_calibration(
      tracer, graph_busy * 1000.0, dense_busy / 1000.0);
  EXPECT_DOUBLE_EQ(wild.graph_scale, 0.25);
  EXPECT_DOUBLE_EQ(wild.dense_scale, 4.0);
  // An empty trace stays uncalibrated.
  sim::Tracer empty;
  const core::compiler::TailCalibration none =
      core::compiler::fit_tail_calibration(empty, graph_busy, dense_busy);
  EXPECT_FALSE(none.calibrated());
  EXPECT_DOUBLE_EQ(none.graph_scale, 1.0);
  EXPECT_DOUBLE_EQ(none.dense_scale, 1.0);

  // The calibration flows through the oracle's analytic prior: scaling the
  // serialisation tails up can only increase the estimate, and a 4x tail
  // changes it when the plan has any serialised slice at all.
  core::CostOracle plain;
  core::CostOracleOptions scaled_options;
  scaled_options.tail_calibration.graph_scale = 4.0;
  scaled_options.tail_calibration.dense_scale = 4.0;
  scaled_options.tail_calibration.windows = exact.windows;
  core::CostOracle scaled(scaled_options);
  EXPECT_GE(scaled.compute(dataset, sim), plain.compute(dataset, sim));
}

}  // namespace
}  // namespace gnnerator::serve
