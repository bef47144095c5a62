// Scaling benchmark for the parallel discrete-event serving simulation: a
// synthetic large trace (>=100k requests by default) streams through
// Server::serve at 1/2/4/8 worker threads, five trials each, on fresh
// servers with identical warm-up so every run starts from the same memo
// state. Reports, per thread count, the median and quartiles of wall time,
// simulated requests per second, event-loop iterations, cycles skipped by
// event jumping, the streaming reader's buffer high-water mark, and the
// median speedup over 1 thread (evidence for the fan-out; not gated).
//
// Two hard invariants, enforced with a non-zero exit:
//   * bitwise identity — every run (all trials, all thread counts) must
//     produce the identical report, completion record for completion
//     record; threads are an optimization, never a semantic change;
//   * golden report — at the configuration CI runs (--requests 20000,
//     defaults otherwise) the report fingerprint must equal the one
//     recorded from the retired single-threaded reference event loop.
//
//   ./serve_scale [--json BENCH_serve_scale.json] [--requests N]
//                 [--devices N] [--rate RPS] [--policy fifo|sjf|batch]
//                 [--keep-trace]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/fnv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

/// FNV-1a over every externally visible field of a serve report. Two runs
/// with the same fingerprint produced the same simulation, byte for byte.
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
    fnv.mix(o.service_cycles);
    fnv.mix_string(o.class_key);
    fnv.mix_string(o.klass);
  }
  fnv.mix(report.end_cycle);
  fnv.mix(report.events);
  fnv.mix(report.max_queue_depth);
  // format() folds in the metrics summary, per-device stats, queue depth
  // and plan-cache counters at reporting precision.
  fnv.mix_string(report.format());
  return fnv.value();
}

serve::ServerOptions make_options(serve::SchedulingPolicy policy, std::size_t devices,
                                  std::size_t sim_threads) {
  serve::ServerOptions options;
  options.num_devices = devices;
  options.policy = policy;
  options.limits.batch_window = serve::ms_to_cycles(1.0, options.clock_ghz);
  options.limits.max_batch = 32;
  options.sim_threads = sim_threads;
  return options;
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
  std::uint64_t events = 0;
  std::uint64_t cycles_skipped = 0;
  std::size_t completed = 0;
  std::size_t peak_buffer_bytes = 0;
};

/// One measured run: fresh server, identical warm-up (all plan classes
/// compiled/priced before the clock starts), then the big trace streamed
/// through serve().
RunResult run_once(const serve::ServerOptions& options, const std::string& warm_path,
                   const std::string& trace_path) {
  serve::Server server = make_server(options);
  const core::SimulationRequest base;

  serve::StreamingTraceWorkload warm(warm_path, base, options.clock_ghz);
  (void)server.serve(warm);

  serve::StreamingTraceWorkload workload(trace_path, base, options.clock_ghz);
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeReport report = server.serve(workload);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.fingerprint = report_fingerprint(report);
  r.events = report.events;
  r.cycles_skipped = report.cycles_skipped();
  r.completed = report.metrics.completed + report.metrics.shed;
  r.peak_buffer_bytes = workload.peak_buffer_bytes();
  return r;
}

/// The report fingerprint at the configuration CI runs, recorded from the
/// retired single-threaded reference event loop.
constexpr std::size_t kGoldenRequests = 20'000;
constexpr std::uint64_t kGoldenFingerprint = 0xa1fa26b431d881b1ULL;

/// Runs per thread count: enough for a median and quartiles of wall time.
constexpr std::size_t kTrials = 5;

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(1000, args.get_int("requests", 150'000)));
  const auto devices =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("devices", 4)));
  const double rate = args.get_double("rate", 20'000.0);
  const std::string policy_name = args.get("policy", "fifo");
  const auto policy = serve::parse_policy(policy_name);
  if (!policy) {
    std::cerr << "unknown --policy '" << policy_name << "'\n";
    return 1;
  }

  // The trace under test plus a small same-mix warm-up trace (every plan
  // class appears, so warm-up absorbs all engine simulation / compilation
  // and the measured section is pure event-loop work).
  serve::TraceSpec spec;
  spec.num_requests = requests;
  spec.rate_rps = rate;
  spec.seed = 7;
  const std::string trace_path = "serve_scale_trace.csv";
  const std::string warm_path = "serve_scale_warm.csv";
  const std::size_t rows = serve::write_synthetic_trace(trace_path, spec);
  serve::TraceSpec warm_spec = spec;
  warm_spec.num_requests = 256;
  (void)serve::write_synthetic_trace(warm_path, warm_spec);
  const auto trace_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(trace_path));

  util::Table table({"threads", "wall s p25", "wall s p50", "wall s p75", "sim req/s p50",
                     "events", "speedup vs t=1"});
  bench::JsonReport json;
  json.set("trace.rows", static_cast<std::uint64_t>(rows));
  json.set("trace.bytes", trace_bytes);
  json.set("config.devices", static_cast<std::uint64_t>(devices));
  json.set("config.rate_rps", rate);
  json.set("config.trials", static_cast<std::uint64_t>(kTrials));

  // Trials interleave the thread counts (round r runs t=1,2,4,8 in turn),
  // so drift on a shared host spreads over every arm instead of biasing
  // whichever ran first.
  const std::size_t thread_counts[] = {1, 2, 4, 8};
  std::vector<util::StreamingQuantiles> walls(std::size(thread_counts));
  std::vector<RunResult> last(std::size(thread_counts));
  bool identical = true;
  std::uint64_t fingerprint = 0;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    for (std::size_t t = 0; t < std::size(thread_counts); ++t) {
      const RunResult r =
          run_once(make_options(*policy, devices, thread_counts[t]), warm_path, trace_path);
      walls[t].add(r.wall_s);
      if (trial == 0 && t == 0) {
        fingerprint = r.fingerprint;
        json.set("trace.peak_buffer_bytes", static_cast<std::uint64_t>(r.peak_buffer_bytes));
      } else if (r.fingerprint != fingerprint) {
        identical = false;
        std::cerr << "DIVERGENCE: serve(sim_threads=" << thread_counts[t] << ") trial "
                  << trial << " produced a different report than the first run\n";
      }
      last[t] = r;
    }
  }
  const double t1_median_s = walls[0].quantile(0.5);
  for (std::size_t t = 0; t < std::size(thread_counts); ++t) {
    const util::StreamingQuantiles& wall = walls[t];
    const RunResult& r = last[t];
    const double median_s = wall.quantile(0.5);
    const double sim_rps = static_cast<double>(r.completed) / median_s;
    const double speedup = t1_median_s / median_s;
    const std::string key = "threads_" + std::to_string(thread_counts[t]);
    json.set(key + ".wall_s.p25", wall.quantile(0.25));
    json.set(key + ".wall_s.p50", median_s);
    json.set(key + ".wall_s.p75", wall.quantile(0.75));
    json.set(key + ".sim_rps.p50", sim_rps);
    json.set(key + ".events", r.events);
    json.set(key + ".cycles_skipped", r.cycles_skipped);
    json.set(key + ".speedup_vs_t1", speedup);
    table.add_row({std::to_string(thread_counts[t]), util::Table::fixed(wall.quantile(0.25), 3),
                   util::Table::fixed(median_s, 3), util::Table::fixed(wall.quantile(0.75), 3),
                   util::Table::fixed(sim_rps, 0), std::to_string(r.events),
                   util::Table::fixed(speedup, 2)});
  }

  json.set("gates.reports_identical", static_cast<std::uint64_t>(identical ? 1 : 0));
  const bool golden = bench::golden_gate(
      json, "report",
      requests == kGoldenRequests && devices == 4 && rate == 20'000.0 && policy_name == "fifo",
      kGoldenFingerprint, fingerprint);

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
    std::remove(warm_path.c_str());
  }
  return (identical && golden) ? 0 : 1;
}
