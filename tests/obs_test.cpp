// Observability-layer tests: the util::json emitter (escaping, deterministic
// numbers, writer nesting), the metrics Registry (counter/gauge/histogram
// semantics and the deterministic text exposition), the ExecWindowLog EWMA,
// request-span lifecycle invariants over real serve runs, Chrome-trace
// well-formedness, and the central determinism claim — the exported trace
// matches pinned golden bytes at every sim_threads, including under a fault
// plan — plus a golden structure test for crash/abort/requeue/resume spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/exec_window.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "serve/faults.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/fnv.hpp"
#include "util/json.hpp"

namespace gnnerator::obs {
namespace {

using serve::PoissonWorkload;
using serve::RequestTemplate;
using serve::ServeReport;
using serve::Server;
using serve::ServerOptions;

// ---- A minimal JSON validator (recursive descent, no values kept). --------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  /// True when the whole input is exactly one well-formed JSON value.
  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character: must have been escaped
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || std::isxdigit(static_cast<unsigned char>(
                                            text_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string_view(R"("\/bfnrt)").find(e) == std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---- Serving fixtures. ------------------------------------------------------

core::SimulationRequest timing_sim(const std::string& dataset, gnn::LayerKind kind) {
  core::SimulationRequest sim;
  sim.dataset = dataset;
  sim.model = core::table3_model(kind, *graph::find_dataset(dataset));
  sim.mode = core::SimMode::kTiming;
  return sim;
}

std::vector<RequestTemplate> cora_mix() {
  std::vector<RequestTemplate> mix;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    RequestTemplate t;
    t.sim = timing_sim("cora", kind);
    mix.push_back(std::move(t));
  }
  return mix;
}

Server make_server(const ServerOptions& options) {
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  return server;
}

/// One serve run with a fresh server and a fresh recorder (cold memos on
/// both sides — engine-window templates are captured on first execution, so
/// runs compared against each other or a golden must not share state).
struct RecordedRun {
  std::shared_ptr<Recorder> recorder;
  ServeReport report;
};

RecordedRun recorded_run(ServerOptions options, std::size_t requests, double rate,
                         std::uint64_t seed, RecorderOptions rec_options = {}) {
  RecordedRun run;
  run.recorder = std::make_shared<Recorder>(rec_options);
  options.recorder = run.recorder;
  Server server = make_server(options);
  PoissonWorkload workload(cora_mix(), rate, requests, options.clock_ghz, seed);
  run.report = server.serve(workload);
  return run;
}

// ---- util::json -------------------------------------------------------------

TEST(Json, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(util::json_escape("plain text"), "plain text");
  EXPECT_EQ(util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(util::json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(util::json_escape(std::string_view("\x1f", 1)), "\\u001f");
}

TEST(Json, NumbersAreDeterministicAndFiniteOnly) {
  EXPECT_EQ(util::json_number(5.0), "5");
  EXPECT_EQ(util::json_number(0.5), "0.5");
  EXPECT_EQ(util::json_number(std::uint64_t{18446744073709551615ull}),
            "18446744073709551615");
  EXPECT_EQ(util::json_number(std::int64_t{-42}), "-42");
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, WriterNestsAndEscapes) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object()
      .key("name")
      .value("say \"hi\"")
      .key("list")
      .begin_array()
      .value(std::uint64_t{1})
      .value(2.5)
      .value(true)
      .null_value()
      .end_array()
      .key("nested")
      .begin_object()
      .field("x", std::int64_t{-1})
      .end_object()
      .end_object();
  const std::string text = os.str();
  EXPECT_EQ(text,
            R"({"name":"say \"hi\"","list":[1,2.5,true,null],"nested":{"x":-1}})");
  EXPECT_TRUE(JsonChecker(text).valid());
}

// ---- Registry ----------------------------------------------------------------

TEST(Registry, CounterAccumulatesAndGaugeReplaces) {
  Registry reg;
  reg.counter("requests_total").add(std::uint64_t{3});
  reg.counter("requests_total").add(2.0);
  EXPECT_DOUBLE_EQ(reg.counter("requests_total").value, 5.0);

  reg.gauge("depth").set(7.0);
  reg.gauge("depth").set(2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value, 2.0);

  // Labelled samples are distinct from the unlabelled one and each other.
  reg.counter("requests_total", {{"outcome", "shed"}}).add(std::uint64_t{1});
  EXPECT_DOUBLE_EQ(reg.counter("requests_total").value, 5.0);
  EXPECT_DOUBLE_EQ(reg.counter("requests_total", {{"outcome", "shed"}}).value, 1.0);
}

TEST(Registry, HistogramBucketsAreCumulative) {
  Registry reg;
  Histogram& h = reg.histogram("latency_ms", {1.0, 5.0, 10.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(7.0);
  h.observe(100.0);
  const std::vector<std::uint64_t> cum = h.cumulative_counts();
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_EQ(cum[0], 1u);  // <= 1
  EXPECT_EQ(cum[1], 2u);  // <= 5
  EXPECT_EQ(cum[2], 3u);  // <= 10
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 110.5);
}

TEST(Registry, TextSnapshotIsDeterministicAndWellFormed) {
  const auto fill = [](Registry& reg) {
    // Deliberately inserted out of lexicographic order.
    reg.gauge("zeta").set(1.0);
    reg.counter("alpha_total", "requests observed").add(std::uint64_t{2});
    reg.counter("alpha_total", {{"outcome", "shed"}, {"tier", "0"}}).add(
        std::uint64_t{1});
    reg.histogram("latency_ms", {1.0, 10.0}, "request latency").observe(3.0);
  };
  Registry a;
  Registry b;
  fill(a);
  fill(b);
  const std::string text = a.text_snapshot();
  EXPECT_EQ(text, b.text_snapshot()) << "identical registries rendered differently";

  // Families are sorted, HELP/TYPE lines present, histogram has le buckets
  // plus _sum and _count, and +Inf closes the bucket list.
  EXPECT_LT(text.find("alpha_total"), text.find("latency_ms"));
  EXPECT_LT(text.find("latency_ms"), text.find("zeta"));
  EXPECT_NE(text.find("# HELP alpha_total requests observed"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE alpha_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("alpha_total{outcome=\"shed\",tier=\"0\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE latency_ms histogram"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_ms_sum 3"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_ms_count 1"), std::string::npos) << text;
}

// ---- ExecWindowLog ------------------------------------------------------------

TEST(ExecWindowLog, EwmaTracksObservationsAndSnapshotIsSorted) {
  ExecWindowLog log(/*alpha=*/0.5);
  log.record("planB", "baseline", 100);
  log.record("planB", "baseline", 200);  // ewma = 0.5*200 + 0.5*100 = 150
  log.record("planA", "nextgen", 40);
  log.record("planA", "baseline", 10);

  const std::vector<ExecWindow> snap = log.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Sorted by (plan_class, device_class).
  EXPECT_EQ(snap[0].plan_class, "planA");
  EXPECT_EQ(snap[0].device_class, "baseline");
  EXPECT_EQ(snap[1].plan_class, "planA");
  EXPECT_EQ(snap[1].device_class, "nextgen");
  EXPECT_EQ(snap[2].plan_class, "planB");

  EXPECT_EQ(snap[2].observations, 2u);
  EXPECT_DOUBLE_EQ(snap[2].ewma_cycles, 150.0);
  EXPECT_EQ(snap[2].min_cycles, 100u);
  EXPECT_EQ(snap[2].max_cycles, 200u);
  EXPECT_EQ(snap[2].last_cycles, 200u);
  // First observation seeds the EWMA rather than averaging against zero.
  EXPECT_DOUBLE_EQ(snap[1].ewma_cycles, 40.0);
}

// ---- Span lifecycle over a live serve run -------------------------------------

TEST(ObsServe, SpanLifecycleInvariantsHold) {
  ServerOptions options;
  options.num_devices = 2;
  options.queue_capacity = 8;  // force some admission sheds
  const RecordedRun run = recorded_run(options, /*requests=*/300,
                                       /*rate=*/40'000.0, /*seed=*/11);
  const std::vector<SpanEvent>& events = run.recorder->span_events();
  ASSERT_FALSE(events.empty());

  struct PerRequest {
    std::size_t admits = 0;
    std::size_t terminals = 0;
    bool first_is_admit = false;
    bool terminal_last = true;
    Cycle last_at = 0;
    bool monotone = true;
    bool seen = false;
  };
  std::map<std::uint64_t, PerRequest> per;
  for (const SpanEvent& e : events) {
    PerRequest& p = per[e.request];
    if (!p.seen) {
      p.seen = true;
      p.first_is_admit = e.phase == SpanPhase::kAdmit;
      p.last_at = e.at;
    }
    p.monotone &= e.at >= p.last_at;
    p.last_at = e.at;
    if (p.terminals > 0) {
      p.terminal_last = false;  // an event arrived after the terminal
    }
    switch (e.phase) {
      case SpanPhase::kAdmit:
        ++p.admits;
        break;
      case SpanPhase::kShed:
      case SpanPhase::kFail:
      case SpanPhase::kComplete:
        ++p.terminals;
        break;
      default:
        break;
    }
  }

  EXPECT_EQ(per.size(), run.report.outcomes.size())
      << "every admitted request must have a span";
  std::size_t sheds = 0;
  for (const auto& [id, p] : per) {
    EXPECT_EQ(p.admits, 1u) << "request " << id;
    EXPECT_TRUE(p.first_is_admit) << "request " << id;
    EXPECT_EQ(p.terminals, 1u) << "request " << id;
    EXPECT_TRUE(p.terminal_last) << "request " << id;
    EXPECT_TRUE(p.monotone) << "request " << id;
  }
  for (const SpanEvent& e : events) {
    sheds += e.phase == SpanPhase::kShed ? 1 : 0;
  }
  EXPECT_EQ(sheds, run.report.metrics.shed);
  EXPECT_GT(run.report.metrics.shed, 0u)
      << "queue_capacity=8 at 40k rps was expected to shed";

  // Admit events carry the arrival cycle.
  for (const SpanEvent& e : events) {
    if (e.phase == SpanPhase::kAdmit) {
      EXPECT_EQ(e.at, run.report.outcomes[e.request].arrival);
    }
  }
}

TEST(ObsServe, DeviceTimelineCoversBusyTimeExactly) {
  ServerOptions options;
  options.num_devices = 2;
  const RecordedRun run = recorded_run(options, /*requests=*/120,
                                       /*rate=*/20'000.0, /*seed=*/23);
  std::vector<std::uint64_t> busy(run.report.devices.size(), 0);
  for (const DeviceSpan& s : run.recorder->device_spans()) {
    ASSERT_LT(s.device, busy.size());
    ASSERT_LE(s.begin, s.end);
    if (s.kind == DeviceSpanKind::kBusy) {
      busy[s.device] += s.end - s.begin;
      EXPECT_GT(s.requests, 0u);
    }
  }
  for (std::size_t d = 0; d < busy.size(); ++d) {
    EXPECT_EQ(busy[d], run.report.devices[d].busy_cycles)
        << "device " << d << " timeline disagrees with the report";
  }
}

TEST(ObsServe, NullSinkRecorderRecordsNothingAndChangesNothing) {
  ServerOptions options;
  options.num_devices = 2;
  RecorderOptions off;
  off.request_spans = false;
  off.device_timeline = false;
  off.engine_spans = false;
  off.exec_windows = false;
  ASSERT_FALSE(off.any());

  const RecordedRun muted = recorded_run(options, /*requests=*/80,
                                         /*rate=*/20'000.0, /*seed=*/29, off);
  EXPECT_TRUE(muted.recorder->span_events().empty());
  EXPECT_TRUE(muted.recorder->device_spans().empty());
  EXPECT_TRUE(muted.recorder->marks().empty());
  EXPECT_TRUE(muted.report.exec_windows.empty());

  // The simulation result is identical with no recorder at all.
  Server bare = make_server(options);
  PoissonWorkload workload(cora_mix(), 20'000.0, 80, options.clock_ghz, 29);
  const ServeReport plain = bare.serve(workload);
  ASSERT_EQ(plain.outcomes.size(), muted.report.outcomes.size());
  EXPECT_EQ(plain.end_cycle, muted.report.end_cycle);
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(plain.outcomes[i].dispatch, muted.report.outcomes[i].dispatch);
    EXPECT_EQ(plain.outcomes[i].completion, muted.report.outcomes[i].completion);
    EXPECT_EQ(plain.outcomes[i].device, muted.report.outcomes[i].device);
  }
}

TEST(ObsServe, MaxEventsCapsTheStreamAndCountsDrops) {
  ServerOptions options;
  options.num_devices = 1;
  RecorderOptions rec;
  rec.max_events = 10;
  const RecordedRun run = recorded_run(options, /*requests=*/100,
                                       /*rate=*/20'000.0, /*seed=*/31, rec);
  EXPECT_LE(run.recorder->span_events().size(), 10u);
  EXPECT_GT(run.recorder->dropped(), 0u);
}

TEST(ObsServe, ExecWindowLogFeedsTheReportAndAccumulates) {
  ServerOptions options;
  options.num_devices = 2;
  auto recorder = std::make_shared<Recorder>();
  options.recorder = recorder;
  Server server = make_server(options);

  PoissonWorkload first(cora_mix(), 20'000.0, 60, options.clock_ghz, 37);
  const ServeReport r1 = server.serve(first);
  ASSERT_FALSE(r1.exec_windows.empty());
  std::uint64_t obs1 = 0;
  for (const ExecWindow& w : r1.exec_windows) {
    EXPECT_FALSE(w.plan_class.empty());
    EXPECT_EQ(w.device_class, "legacy");  // classless fleet
    EXPECT_GT(w.ewma_cycles, 0.0);
    EXPECT_GE(w.max_cycles, w.min_cycles);
    obs1 += w.observations;
  }
  EXPECT_GT(obs1, 0u);

  // The log persists across runs (calibration history, like the plan cache).
  PoissonWorkload second(cora_mix(), 20'000.0, 60, options.clock_ghz, 38);
  const ServeReport r2 = server.serve(second);
  std::uint64_t obs2 = 0;
  for (const ExecWindow& w : r2.exec_windows) {
    obs2 += w.observations;
  }
  EXPECT_GT(obs2, obs1);
}

// ---- Chrome trace export -------------------------------------------------------

TEST(ChromeTrace, OutputIsWellFormedJson) {
  ServerOptions options;
  options.num_devices = 2;
  RecorderOptions rec;
  rec.engine_spans = true;
  const RecordedRun run = recorded_run(options, /*requests=*/150,
                                       /*rate=*/20'000.0, /*seed=*/41, rec);
  const std::string trace = chrome_trace_string(*run.recorder);
  EXPECT_TRUE(JsonChecker(trace).valid()) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"devices\""), std::string::npos);
  EXPECT_NE(trace.find("requests:"), std::string::npos);
  // Engine sub-lanes were requested and must appear.
  EXPECT_NE(trace.find("gemm"), std::string::npos);
}

TEST(ChromeTrace, EscapesHostileLabels) {
  Recorder recorder;
  RunInfo info;
  info.clock_ghz = 1.0;
  info.devices = {"dev\"0\" \\ lane\n"};
  info.request_classes = {"tier\t\"zero\""};
  recorder.begin_run(std::move(info));
  recorder.request_event(SpanEvent{.request = 0,
                                   .at = 1,
                                   .phase = SpanPhase::kAdmit,
                                   .tier = 0,
                                   .detail = "class\"with\\quotes\nand\x01控制"});
  recorder.request_event(
      SpanEvent{.request = 0, .at = 5, .phase = SpanPhase::kComplete, .value = 4});
  recorder.open_busy(0, 1, 1, "plan\"q\"");
  recorder.close_busy(0, 5, false);
  recorder.end_run(10);

  const std::string trace = chrome_trace_string(recorder);
  EXPECT_TRUE(JsonChecker(trace).valid()) << trace;
  // The only newline is the document-final one; none leaked from a label.
  EXPECT_EQ(trace.find('\n'), trace.size() - 1)
      << "raw newline leaked into the rendered trace";
  EXPECT_NE(trace.find("\\\"zero\\\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\\u0001"), std::string::npos) << trace;
}

// ---- Determinism: the tentpole claim -------------------------------------------

/// The goldens (trace bytes, registry snapshot) were recorded from the
/// retired single-threaded reference event loop.
TEST(ChromeTrace, BytesMatchGoldenAcrossThreadsUnderFaults) {
  ServerOptions options;
  options.num_devices = 2;
  options.default_slo_ms = 25.0;
  options.faults =
      serve::parse_fault_plan("crash@0.05ms:dev1,recover@1ms:dev1", options.clock_ghz);
  options.autoscale = serve::parse_autoscale_spec("2:3:0.5");
  RecorderOptions rec;
  rec.engine_spans = true;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    ServerOptions o = options;
    o.sim_threads = threads;
    const RecordedRun run =
        recorded_run(o, /*requests=*/250, /*rate=*/30'000.0, /*seed=*/47, rec);
    const std::string trace = chrome_trace_string(*run.recorder);
    EXPECT_TRUE(JsonChecker(trace).valid());
    EXPECT_EQ(trace.size(), 1485578u);
    EXPECT_EQ(util::hex64(util::fnv1a64(trace)), "f995392307d4a21d") << "trace bytes diverged";
    EXPECT_EQ(util::hex64(util::fnv1a64(run.recorder->registry().text_snapshot())), "465243d34ba2f218")
        << "registry snapshot diverged";
  }
}

// ---- Golden fault structure -----------------------------------------------------

TEST(ObsFaults, CrashProducesAbortRequeueResumeStructure) {
  // Probe (no faults) for a cycle where device 0 is mid-batch, then crash
  // into it — the same construction serve_fault_test uses, so the abort
  // path is guaranteed to fire.
  ServerOptions options;
  options.num_devices = 1;
  options.policy = serve::SchedulingPolicy::kFifo;
  constexpr std::size_t kRequests = 12;
  const auto workload_for = [&](const ServerOptions& o) {
    return PoissonWorkload(cora_mix(), /*rate_rps=*/50'000.0, kRequests, o.clock_ghz,
                           /*seed=*/5);
  };
  Server probe = make_server(options);
  PoissonWorkload probe_workload = workload_for(options);
  const ServeReport probe_report = probe.serve(probe_workload);
  const serve::Outcome* victim = nullptr;
  for (const serve::Outcome& o : probe_report.outcomes) {
    if (o.completion > o.dispatch + 2) {
      victim = &o;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const serve::Cycle crash_at =
      victim->dispatch + (victim->completion - victim->dispatch) / 2;
  const double crash_ms = serve::cycles_to_ms(crash_at, options.clock_ghz);
  const double recover_ms =
      serve::cycles_to_ms(probe_report.end_cycle, options.clock_ghz) + 1.0;

  ServerOptions faulty = options;
  {
    std::ostringstream spec;
    spec << "crash@" << crash_ms << "ms:dev0,recover@" << recover_ms << "ms:dev0";
    faulty.faults = serve::parse_fault_plan(spec.str(), options.clock_ghz);
  }
  auto recorder = std::make_shared<Recorder>();
  faulty.recorder = recorder;
  Server server = make_server(faulty);
  PoissonWorkload workload = workload_for(faulty);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, kRequests);
  ASSERT_GT(report.metrics.retries, 0u);

  // Mark structure: exactly one crash and one recover instant on device 0.
  std::size_t crash_marks = 0;
  std::size_t recover_marks = 0;
  Cycle crash_mark_at = 0;
  for (const Mark& m : recorder->marks()) {
    if (m.kind == MarkKind::kCrash) {
      ++crash_marks;
      crash_mark_at = m.at;
      EXPECT_EQ(m.device, 0u);
    }
    recover_marks += m.kind == MarkKind::kRecover ? 1 : 0;
  }
  EXPECT_EQ(crash_marks, 1u);
  EXPECT_EQ(recover_marks, 1u);

  // Device timeline: one aborted busy span cut at the crash instant, and a
  // crashed health interval [crash, recover).
  std::size_t aborted_spans = 0;
  std::size_t crashed_spans = 0;
  for (const DeviceSpan& s : recorder->device_spans()) {
    if (s.kind == DeviceSpanKind::kBusy && s.aborted) {
      ++aborted_spans;
      EXPECT_EQ(s.end, crash_mark_at);
    }
    if (s.kind == DeviceSpanKind::kCrashed) {
      ++crashed_spans;
      EXPECT_EQ(s.begin, crash_mark_at);
      EXPECT_GT(s.end, s.begin);
    }
  }
  EXPECT_EQ(aborted_spans, 1u);
  EXPECT_EQ(crashed_spans, 1u);

  // Span structure per retried request: admit < dispatch < abort < requeue
  // < resume < dispatch(2nd) < complete — in stream order, and the retry's
  // dispatch lands after the crash.
  const std::vector<SpanEvent>& events = recorder->span_events();
  std::size_t retried = 0;
  for (const serve::Outcome& o : report.outcomes) {
    if (o.retries == 0) {
      continue;
    }
    ++retried;
    std::vector<SpanPhase> phases;
    std::vector<Cycle> ats;
    for (const SpanEvent& e : events) {
      if (e.request == o.id) {
        phases.push_back(e.phase);
        ats.push_back(e.at);
      }
    }
    const std::vector<SpanPhase> expected{
        SpanPhase::kAdmit,   SpanPhase::kDispatch, SpanPhase::kAbort,
        SpanPhase::kRequeue, SpanPhase::kResume,   SpanPhase::kDispatch,
        SpanPhase::kComplete};
    EXPECT_EQ(phases, expected) << "request " << o.id;
    ASSERT_EQ(ats.size(), expected.size());
    EXPECT_EQ(ats[2], crash_mark_at) << "abort must land at the crash instant";
    EXPECT_GT(ats[5], crash_mark_at) << "retry dispatched before the crash?";
    for (std::size_t i = 1; i < ats.size(); ++i) {
      EXPECT_GE(ats[i], ats[i - 1]);
    }
  }
  EXPECT_EQ(retried, report.metrics.retries);

  // And the whole faulted trace still exports as valid JSON.
  EXPECT_TRUE(JsonChecker(chrome_trace_string(*recorder)).valid());
}

}  // namespace
}  // namespace gnnerator::obs
