// gnnbench: the repository benchmark.
//
//   gnnbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//
// Runs one workload from a single process: setup (repeated, median reported
// as setup_s), measured passes for --seconds of host time, then output
// checks outside every timed section. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 half the
// time runs untraced and half traced (spans around every call into a
// layer), and the metrics are the per-layer set, including the tracing
// overhead measured against the untraced half.
//
// Two clocks appear in the output. Host time is what the simulator takes
// (medians over passes). Sim time is virtual cycles or ms of the modelled
// hardware and fleet; it is deterministic and enters the fingerprint.

#include <stdexcept>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kMinPasses = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end set, reported by every workload on untraced runs.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"sim_rps", "1/s"},
    {"mean_ms", "ms"}, {"p99_ms", "ms"},
};

/// The per-layer set, reported by every workload on traced runs; a layer
/// that does no work in a workload reads 0 there. Names ending in `_s` are
/// span self times per pass unless a workload reports them itself.
constexpr MetricSpec kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.sample_s", "s"},
    {"graph.sample_calls", "count"},
    {"shard.grid_s", "s"},
    {"compiler.resolve_s", "s"},
    {"compiler.compile_s", "s"},
    {"compiler.estimate_s", "s"},
    {"compiler.plans", "count"},
    {"plan_cache.misses", "count"},
    {"plan_cache.hit_rate", "ratio"},
    {"kernel.run_s", "s"},
    {"kernel.cycles_ticked", "count"},
    {"kernel.cycles_skipped", "count"},
    {"kernel.sim_cycles_per_s", "1/s"},
    {"baseline.hygcn_s", "s"},
    {"executor.run_s", "s"},
    {"executor.macs", "count"},
    {"executor.bytes", "bytes"},
    {"executor.gmacs_per_s", "GMAC/s"},
    {"cost_oracle.pipeline_runs", "count"},
    {"cost_oracle.query_ns", "ns"},
    {"serve.loop_s", "s"},
    {"serve.events", "count"},
    {"serve.host_ns_per_event", "ns"},
    {"serve.allocs_per_request", "count"},
    {"sweep.allocs_per_point", "count"},
    {"workload.stream_s", "s"},
    {"metrics.reduce_s", "s"},
    {"serve.max_queue_depth", "count"},
    {"serve.mean_queue_depth", "count"},
    {"serve.mean_batch", "count"},
    {"serve.retries", "count"},
    {"feature_cache.hit_rate", "ratio"},
    {"feature_cache.bytes_saved", "bytes"},
    {"obs.export_s", "s"},
    {"obs.trace_bytes", "bytes"},
    {"obs.dropped", "count"},
    {"trace.overhead_s", "s"},
    {"pass.unattributed_s", "s"},
};

struct PassLog {
  std::vector<double> host_s;
  std::vector<PassResult> results;
};

/// Runs passes until `budget_s` of pass time has elapsed and at least
/// kMinPasses (or `min_passes`) have run. With `traced` each pass is one
/// "pass" root span with its own pass id.
void run_passes(Workload& workload, double budget_s, std::size_t min_passes, bool traced,
                std::uint32_t& next_pass_id, PassLog& log, RunResult& checks) {
  double elapsed = 0.0;
  while (elapsed < budget_s || log.host_s.size() < min_passes) {
    span_log().set_pass(next_pass_id++);
    span_log().set_enabled(traced);
    const Clock::time_point begin = Clock::now();
    PassResult result;
    {
      const Scope scope("pass");
      result = workload.pass();
    }
    const double seconds = seconds_between(begin, Clock::now());
    span_log().set_enabled(false);
    checks.attempt(static_cast<std::uint64_t>(result.units));
    workload.after_pass(checks);
    elapsed += seconds;
    log.host_s.push_back(seconds);
    if (result.item_s.empty()) {
      result.item_s.push_back(seconds);
    }
    log.results.push_back(std::move(result));
  }
}

/// Every pass must reproduce the first pass's simulated results exactly.
void check_fingerprints(const PassLog& log, RunResult& result) {
  const std::uint64_t first = log.results.front().fingerprint;
  for (std::size_t i = 0; i < log.results.size(); ++i) {
    const PassResult& r = log.results[i];
    result.verify(r.fingerprint == first, static_cast<std::uint64_t>(r.units),
                 "pass " + std::to_string(i) + " fingerprint differs from pass 0");
  }
}

PassSummary summarize(const PassLog& log) {
  PassSummary s;
  s.passes = log.host_s.size();
  s.median_pass_s = median(log.host_s);
  double total = 0.0;
  for (std::size_t i = 0; i < log.results.front().item_s.size(); ++i) {
    std::vector<double> per_pass;
    for (const PassResult& r : log.results) {
      per_pass.push_back(r.item_s.at(i));
    }
    total += median(per_pass);
  }
  s.median_rate = log.results.front().units / total;
  return s;
}

/// Per-layer values of a traced run: span self times, per-pass counts of the
/// untraced passes (spans allocate, so counts come from the untraced half),
/// the workload's replay results, and rates derived from them.
std::map<std::string, double> layer_values(const PassLog& untraced, const PassLog& traced,
                                           const RunResult& replayed) {
  std::map<std::string, double> values;
  for (const auto& [name, per_pass] : span_log().self_seconds_by_pass()) {
    values[name == "pass" ? "pass.unattributed_s" : name + "_s"] = median(per_pass);
  }
  std::map<std::string, std::vector<double>> counts;
  for (const PassResult& r : untraced.results) {
    for (const auto& [name, value] : r.counts) {
      counts[name].push_back(value);
    }
  }
  for (const auto& [name, per_pass] : counts) {
    values[name] = median(per_pass);
  }
  for (const Metric& m : replayed.layer_metrics()) {
    values[m.name] = m.value;
  }
  values["trace.overhead_s"] = median(traced.host_s) - median(untraced.host_s);

  const auto ratio = [&values](const char* num, const char* den, double scale) {
    const double d = values.count(den) != 0 ? values.at(den) : 0.0;
    return d > 0.0 && values.count(num) != 0 ? values.at(num) * scale / d : 0.0;
  };
  values["kernel.sim_cycles"] = values["kernel.cycles_ticked"] + values["kernel.cycles_skipped"];
  values["kernel.sim_cycles_per_s"] = ratio("kernel.sim_cycles", "kernel.run_s", 1.0);
  values["executor.gmacs_per_s"] = ratio("executor.macs", "executor.run_s", 1e-9);
  values["serve.host_ns_per_event"] = ratio("serve.loop_s", "serve.events", 1e9);
  return values;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "paper_sweep") return make_paper_sweep(options);
  if (options.workload == "functional_infer") return make_functional_infer(options);
  if (options.workload == "serve_hetero") return make_serve_hetero(options);
  if (options.workload == "serve_sampled") return make_serve_sampled(options);
  return nullptr;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

Options parse_options(int argc, char** argv) {
  Options options;
  std::set<std::string> seen;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    seen.insert(key);
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 != 1 || seen.count("--workload") == 0 || seen.count("--seed") == 0 ||
      !(options.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: gnnbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "[--out-dir DIR]");
  }
  return options;
}

int run(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(options);
  if (!workload) {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }

  // Setup, repeated; in traced runs each repeat is a pass of its own so the
  // layers it calls (dataset build, compiles) get their own self times.
  std::uint32_t next_pass_id = 1;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    span_log().set_pass(next_pass_id++);
    span_log().set_enabled(options.trace);
    const Clock::time_point begin = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_between(begin, Clock::now()));
    span_log().set_enabled(false);
  }

  RunResult result;
  PassLog untraced;
  PassLog traced;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  run_passes(*workload, budget, options.trace ? 2 : kMinPasses, false, next_pass_id, untraced,
             result);
  if (options.trace) {
    run_passes(*workload, budget, 2, true, next_pass_id, traced, result);
  }

  // Peak memory of setup and passes, before the checks allocate theirs.
  const double peak_rss = peak_rss_mb();
  PassLog all = untraced;
  all.results.insert(all.results.end(), traced.results.begin(), traced.results.end());
  check_fingerprints(all, result);
  const PassSummary summary = summarize(untraced);
  const Clock::time_point finish_begin = Clock::now();
  workload->finish(summary, result);
  const double finish_s = seconds_between(finish_begin, Clock::now());

  std::cout << "workload " << options.workload << " seed " << options.seed << ": "
            << summary.passes << " untraced passes, median "
            << format_number(summary.median_pass_s) << " s/pass; setup "
            << format_number(median(setup_s)) << " s; checks " << format_number(finish_s)
            << " s\n";
  std::cout << "pass host s:";
  for (const double s : untraced.host_s) {
    std::cout << ' ' << format_number(s);
  }
  std::cout << '\n';
  std::cout << "fingerprint " << fingerprint_hex(all.results.front().fingerprint) << '\n';
  for (const std::string& line : result.lines()) {
    std::cout << "  " << line << '\n';
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    std::map<std::string, double> e2e;
    e2e["setup_s"] = median(setup_s);
    e2e["peak_rss_mb"] = peak_rss;
    e2e["sim_rps"] = summary.median_rate;
    for (const Metric& m : result.e2e_metrics()) {
      e2e[m.name] = m.value;
    }
    for (const MetricSpec& spec : kEndToEnd) {
      if (e2e.count(spec.name) == 0) {
        std::cerr << "workload did not report " << spec.name << '\n';
        return 3;
      }
      metrics.push_back(Metric{spec.name, e2e.at(spec.name), spec.unit});
      std::cout << "  " << spec.name << " = " << format_number(e2e.at(spec.name)) << ' '
                << spec.unit << '\n';
    }
  } else {
    // Replays run after the passes, traced, under one pass id of their own.
    RunResult replayed;
    span_log().set_pass(next_pass_id++);
    span_log().set_enabled(true);
    workload->replay(replayed);
    span_log().set_enabled(false);
    const std::map<std::string, double> values = layer_values(untraced, traced, replayed);
    for (const MetricSpec& spec : kPerLayer) {
      const double value = values.count(spec.name) != 0 ? values.at(spec.name) : 0.0;
      metrics.push_back(Metric{spec.name, value, spec.unit});
      std::cout << "  " << spec.name << " = " << format_number(value) << ' ' << spec.unit
                << '\n';
    }
    const std::string span_path = options.out_dir + "/spans-" + options.workload + "-seed" +
                                  std::to_string(options.seed) + ".json";
    if (span_log().write_chrome_trace(span_path)) {
      std::cout << "spans written to " << span_path << '\n';
    }
  }

  std::cout << "{\"correct\": " << (result.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted() << ", \"failed\": " << result.failed()
            << ", \"metrics\": " << json_metrics(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
