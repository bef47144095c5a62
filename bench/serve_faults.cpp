// Fault-injection and elasticity benchmark for the serving simulation: a
// sinusoidal "diurnal day" trace drives (1) an autoscaled fleet against
// every static fleet it could have bought for the same device-hours, and
// (2) a fixed fleet through a mid-day device crash, on Server::serve at
// 1/2/4 worker threads.
//
// Four hard invariants, enforced with a non-zero exit:
//   * elasticity pays — the autoscaler's SLO attainment must beat every
//     static fleet whose device-hours bill is no larger than the
//     autoscaler's (equal spend, worse tail: that is the whole point of
//     scaling with the diurnal wave);
//   * graceful degradation — under a 1-device crash, every submitted
//     request is accounted for exactly once (completed + shed + failed ==
//     submitted; no lost or duplicated completions);
//   * bitwise determinism — the crash scenario produces the identical
//     report (fingerprint over every record field) at 1, 2 and 4
//     simulation threads;
//   * golden report — at the configuration CI runs (--requests 8000,
//     defaults otherwise) that fingerprint equals the one recorded from the
//     retired single-threaded reference event loop.
//
//   ./serve_faults [--json BENCH_serve_faults.json] [--requests N]
//                  [--peak-rate RPS] [--period-ms MS] [--slo-ms MS]
//                  [--max-fleet N] [--keep-trace]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/fnv.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

/// FNV-1a over every externally visible field of a serve report, including
/// the fault-path fields (failed/retries/requeues). Two runs with the same
/// fingerprint produced the same simulation, byte for byte.
std::uint64_t report_fingerprint(const serve::ServeReport& report) {
  util::Fnv1a fnv(util::kFnvShortBasis);
  for (const serve::Outcome& o : report.outcomes) {
    fnv.mix(o.id);
    fnv.mix(o.arrival);
    fnv.mix(o.dispatch);
    fnv.mix(o.completion);
    fnv.mix(o.device);
    fnv.mix(o.batch_size);
    fnv.mix(o.shed ? 1 : 0);
    fnv.mix(o.failed ? 1 : 0);
    fnv.mix(o.retries);
    fnv.mix(o.requeues);
    fnv.mix(o.service_cycles);
    fnv.mix_string(o.class_key);
    fnv.mix_string(o.klass);
  }
  fnv.mix(report.end_cycle);
  fnv.mix(report.events);
  fnv.mix(report.max_queue_depth);
  fnv.mix(report.scale_ups);
  fnv.mix(report.scale_downs);
  fnv.mix_string(report.format());
  return fnv.value();
}

serve::Server make_server(const serve::ServerOptions& options) {
  serve::Server server(options);
  for (const char* ds_name : {"cora", "citeseer"}) {
    server.add_dataset(
        graph::make_dataset_by_name(ds_name, /*seed=*/1, /*with_features=*/false));
  }
  return server;
}

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  std::size_t outcomes = 0;
  std::uint64_t retries = 0;
  std::uint64_t requeues = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  double slo_attainment = 0.0;
  double p95_ms = 0.0;
  double device_hours_ms = 0.0;
  double duration_ms = 0.0;
};

RunResult run_once(const serve::ServerOptions& options, const std::string& trace_path) {
  serve::Server server = make_server(options);
  const core::SimulationRequest base;
  serve::StreamingTraceWorkload workload(trace_path, base, options.clock_ghz);
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeReport report = server.serve(workload);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.fingerprint = report_fingerprint(report);
  r.completed = report.metrics.completed;
  r.shed = report.metrics.shed;
  r.failed = report.metrics.failed;
  r.outcomes = report.outcomes.size();
  r.retries = report.metrics.retries;
  r.requeues = report.metrics.requeues;
  r.scale_ups = report.scale_ups;
  r.scale_downs = report.scale_downs;
  r.slo_attainment = report.metrics.slo_attainment;
  r.p95_ms = report.metrics.p95_ms;
  r.device_hours_ms = report.device_hours_ms();
  r.duration_ms = report.duration_ms();
  return r;
}

serve::ServerOptions base_options(std::size_t devices, std::size_t sim_threads) {
  serve::ServerOptions options;
  options.num_devices = devices;
  options.policy = serve::SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = serve::ms_to_cycles(0.5, options.clock_ghz);
  options.limits.max_batch = 32;
  options.sim_threads = sim_threads;
  return options;
}

/// The crash scenario's report fingerprint at the configuration CI runs,
/// recorded from the retired single-threaded reference event loop.
constexpr std::size_t kGoldenRequests = 8'000;
constexpr std::uint64_t kGoldenFingerprint = 0x4c0b7096f028150eULL;

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(500, args.get_int("requests", 20'000)));
  const double peak_rate = args.get_double("peak-rate", 100'000.0);
  const double period_ms = args.get_double("period-ms", 100.0);
  const double slo_ms = args.get_double("slo-ms", 3.0);
  const auto max_fleet =
      static_cast<std::size_t>(std::max<std::int64_t>(2, args.get_int("max-fleet", 4)));

  // One compressed "day": the arrival rate rides a sinusoid between
  // ~5% and 100% of peak_rate (amplitude 0.9), so a fleet sized for the
  // mean drowns at noon and a fleet sized for noon idles at night.
  serve::TraceSpec spec;
  spec.num_requests = requests;
  spec.rate_rps = peak_rate;
  spec.diurnal_period_ms = period_ms;
  spec.diurnal_amplitude = 0.9;
  spec.slo_ms = slo_ms;
  spec.seed = 11;
  const std::string trace_path = "serve_faults_trace.csv";
  const std::size_t rows = serve::write_synthetic_trace(trace_path, spec);
  // Expected day length at the mean rate peak/(1+a); fault times scale with it.
  const double day_ms =
      static_cast<double>(rows) / (peak_rate / (1.0 + spec.diurnal_amplitude)) * 1e3;

  util::Table table({"run", "SLO att.", "p95 ms", "dev-hours ms", "completed", "shed",
                     "failed", "wall s"});
  bench::JsonReport json;
  json.set("trace.rows", static_cast<std::uint64_t>(rows));
  json.set("config.peak_rate_rps", peak_rate);
  json.set("config.period_ms", period_ms);
  json.set("config.slo_ms", slo_ms);
  json.set("config.max_fleet", static_cast<std::uint64_t>(max_fleet));

  const auto row_for = [&](const std::string& name, const RunResult& r) {
    table.add_row({name, util::Table::fixed(r.slo_attainment, 4),
                   util::Table::fixed(r.p95_ms, 3), util::Table::fixed(r.device_hours_ms, 1),
                   std::to_string(r.completed), std::to_string(r.shed),
                   std::to_string(r.failed), util::Table::fixed(r.wall_s, 3)});
  };

  // ---- Gate 1: the autoscaler beats every static fleet of equal spend. ----
  serve::ServerOptions auto_options = base_options(/*devices=*/1, /*sim_threads=*/1);
  serve::AutoscalerOptions scaler;
  scaler.min_devices = 1;
  scaler.max_devices = max_fleet;
  scaler.target_p95_ms = 0.8 * slo_ms;
  // A dynamic-batch fleet legitimately queues a whole batch window of
  // arrivals (~rate * window), so the depth thresholds must sit above that
  // baseline or the scaler pins itself at max and never earns its keep.
  scaler.up_queue_per_device = 40.0;
  scaler.down_queue_per_device = 12.0;
  auto_options.autoscale = scaler;
  const RunResult elastic = run_once(auto_options, trace_path);
  row_for("autoscale 1:" + std::to_string(max_fleet), elastic);
  json.set("autoscale.slo_attainment", elastic.slo_attainment);
  json.set("autoscale.p95_ms", elastic.p95_ms);
  json.set("autoscale.device_hours_ms", elastic.device_hours_ms);
  json.set("autoscale.scale_ups", elastic.scale_ups);
  json.set("autoscale.scale_downs", elastic.scale_downs);

  bool elasticity_pays = true;
  std::size_t compared = 0;
  for (std::size_t n = 1; n <= max_fleet; ++n) {
    const RunResult fixed = run_once(base_options(n, /*sim_threads=*/1), trace_path);
    row_for("static x" + std::to_string(n), fixed);
    const std::string key = "static_" + std::to_string(n);
    json.set(key + ".slo_attainment", fixed.slo_attainment);
    json.set(key + ".p95_ms", fixed.p95_ms);
    json.set(key + ".device_hours_ms", fixed.device_hours_ms);
    // Equal-spend comparison: only static fleets whose device-hours bill is
    // no larger than the autoscaler's (2% tolerance for end-of-run jitter).
    if (fixed.device_hours_ms <= elastic.device_hours_ms * 1.02) {
      ++compared;
      json.set(key + ".equal_spend", std::uint64_t{1});
      if (elastic.slo_attainment <= fixed.slo_attainment) {
        elasticity_pays = false;
        std::cerr << "REGRESSION: autoscaler attainment " << elastic.slo_attainment
                  << " does not beat static x" << n << " attainment " << fixed.slo_attainment
                  << " at device-hours " << fixed.device_hours_ms << " <= "
                  << elastic.device_hours_ms << " ms\n";
      }
    } else {
      json.set(key + ".equal_spend", std::uint64_t{0});
    }
  }
  if (compared == 0) {
    elasticity_pays = false;
    std::cerr << "REGRESSION: no static fleet qualified for the equal-spend comparison\n";
  }
  json.set("gates.equal_spend_fleets_compared", static_cast<std::uint64_t>(compared));
  json.set("gates.autoscaler_beats_equal_spend",
           static_cast<std::uint64_t>(elasticity_pays ? 1 : 0));
  json.set("autoscale.scaled", static_cast<std::uint64_t>(elastic.scale_ups > 0 ? 1 : 0));

  // ---- Gates 2-4: crash a device mid-day; conserve, stay bitwise ----
  // ---- identical across thread counts, and match the golden.        ----
  std::ostringstream faults;
  faults << "crash@" << 0.3 * day_ms << "ms:dev1,recover@" << 0.6 * day_ms << "ms:dev1";
  json.set("crash.fault_plan_hash",
           static_cast<std::uint64_t>(std::hash<std::string>{}(faults.str())));

  bool conserved = true;
  bool identical = true;
  RunResult crash_t1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    serve::ServerOptions crash_opts = base_options(/*devices=*/3, threads);
    crash_opts.faults = serve::parse_fault_plan(faults.str(), crash_opts.clock_ghz);
    const RunResult r = run_once(crash_opts, trace_path);
    row_for("crash t=" + std::to_string(threads), r);
    if (threads == 1) {
      crash_t1 = r;
    } else {
      const bool match = r.fingerprint == crash_t1.fingerprint;
      json.set("crash_t" + std::to_string(threads) + ".matches_t1",
               static_cast<std::uint64_t>(match ? 1 : 0));
      if (!match) {
        identical = false;
        std::cerr << "DIVERGENCE: serve(sim_threads=" << threads
                  << ") under the crash plan differs from sim_threads=1\n";
      }
    }
    if (r.completed + r.shed + r.failed != rows || r.outcomes != rows) {
      conserved = false;
      std::cerr << "REGRESSION: crash run at sim_threads=" << threads << " accounts for "
                << (r.completed + r.shed + r.failed) << "/" << rows << " requests ("
                << r.outcomes << " records)\n";
    }
  }
  json.set("crash.completed", static_cast<std::uint64_t>(crash_t1.completed));
  json.set("crash.shed", static_cast<std::uint64_t>(crash_t1.shed));
  json.set("crash.failed", static_cast<std::uint64_t>(crash_t1.failed));
  json.set("crash.retries", crash_t1.retries);
  json.set("crash.requeues", crash_t1.requeues);
  json.set("gates.crash_conserves_requests", static_cast<std::uint64_t>(conserved ? 1 : 0));
  json.set("gates.crash_reports_identical", static_cast<std::uint64_t>(identical ? 1 : 0));
  const bool golden = bench::golden_gate(
      json, "crash_report",
      requests == kGoldenRequests && peak_rate == 100'000.0 && period_ms == 100.0 &&
          slo_ms == 3.0,
      kGoldenFingerprint, crash_t1.fingerprint);

  std::cout << table.to_string();
  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!args.get_bool("keep-trace", false)) {
    std::remove(trace_path.c_str());
  }
  return (elasticity_pays && conserved && identical && golden) ? 0 : 1;
}
