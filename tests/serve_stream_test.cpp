// Regression tests for the streaming trace layer: the synthetic generator
// (write_synthetic_trace) and the incremental replay
// (StreamingTraceWorkload). The headline guarantees:
//
//   * determinism    — a (TraceSpec, seed) pair generates byte-identical
//                      files, so committed benchmark numbers are
//                      reproducible;
//   * equivalence    — replaying a trace through the streaming source
//                      produces the identical report to materializing it
//                      with TraceWorkload::from_file, at every sim_threads,
//                      and both match a pinned golden fingerprint;
//   * bounded memory — a >100k-row trace streams with the reader's buffer
//                      high-water mark bounded by one chunk plus one row,
//                      never by the trace size;
//   * strictness     — out-of-order arrivals throw CheckError naming the
//                      offending row instead of silently corrupting the
//                      event-loop's time order.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace gnnerator::serve {
namespace {

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("gnnerator_stream_" + tag + ".csv"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Removes the file when the test scope ends, pass or fail.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

/// Every externally visible field of a report, folded to a string. Two
/// equal fingerprints mean the runs were indistinguishable to a caller.
std::string report_fingerprint(const ServeReport& report) {
  std::ostringstream out;
  out << report.format() << '\n' << report.end_cycle << ' ' << report.events << '\n';
  for (const Outcome& o : report.outcomes) {
    out << o.id << ' ' << o.arrival << ' ' << o.dispatch << ' ' << o.completion << ' '
        << o.device << ' ' << o.batch_size << ' ' << o.shed << ' ' << o.service_cycles
        << ' ' << o.class_key << ' ' << o.klass << '\n';
  }
  return out.str();
}

Server make_server(std::size_t sim_threads) {
  ServerOptions options;
  options.num_devices = 2;
  options.sim_threads = sim_threads;
  Server server(options);
  for (const char* name : {"cora", "citeseer"}) {
    server.add_dataset(graph::make_dataset_by_name(name, /*seed=*/1, /*with_features=*/false));
  }
  return server;
}

TEST(SyntheticTrace, GenerationIsDeterministicInSpecAndSeed) {
  TraceSpec spec;
  spec.num_requests = 500;
  spec.rate_rps = 10'000.0;
  spec.seed = 21;
  spec.classes = {"interactive", "bulk"};
  spec.slo_ms = 2.5;

  FileGuard a{temp_path("gen_a")};
  FileGuard b{temp_path("gen_b")};
  EXPECT_EQ(write_synthetic_trace(a.path, spec), spec.num_requests);
  EXPECT_EQ(write_synthetic_trace(b.path, spec), spec.num_requests);
  const std::string bytes = slurp(a.path);
  EXPECT_EQ(bytes, slurp(b.path));
  EXPECT_FALSE(bytes.empty());

  // A different seed must actually change the trace.
  TraceSpec other = spec;
  other.seed = 22;
  FileGuard c{temp_path("gen_c")};
  EXPECT_EQ(write_synthetic_trace(c.path, other), spec.num_requests);
  EXPECT_NE(bytes, slurp(c.path));
}

/// A generated sampled trace (seed,fanout column pair) round-trips through
/// both trace readers: every row parses back as a sampled request of the
/// spec'd fanout with an in-range seed, and the materialized and streaming
/// replays both reproduce the pinned golden report byte for byte.
TEST(SyntheticTrace, SampledTraceRoundTripsThroughBothReaders) {
  TraceSpec spec;
  spec.num_requests = 400;
  spec.rate_rps = 10'000.0;
  spec.seed = 55;
  spec.sample_fanout = "6/4";
  FileGuard trace{temp_path("sampled")};
  ASSERT_EQ(write_synthetic_trace(trace.path, spec), spec.num_requests);

  const core::SimulationRequest base;
  TraceWorkload materialized = TraceWorkload::from_file(trace.path, base, 1.0);
  const std::vector<Request> arrivals = materialized.initial_arrivals();
  ASSERT_EQ(arrivals.size(), spec.num_requests);
  for (const Request& r : arrivals) {
    ASSERT_TRUE(r.is_sampled());
    EXPECT_EQ(r.fanout, spec.sample_fanout);
    const std::optional<graph::DatasetSpec> ds = graph::find_dataset(r.sim.dataset);
    ASSERT_TRUE(ds.has_value());
    EXPECT_LT(static_cast<std::uint64_t>(r.seed), ds->num_nodes);
  }

  // Recorded from the retired single-threaded reference event loop.
  const std::string expected = "070955458de9777c";
  {
    Server server = make_server(/*sim_threads=*/1);
    EXPECT_EQ(util::hex64(util::fnv1a64(report_fingerprint(server.serve(materialized)))), expected);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    Server server = make_server(threads);
    StreamingTraceWorkload workload(trace.path, base, 1.0, /*chunk_bytes=*/512);
    EXPECT_EQ(util::hex64(util::fnv1a64(report_fingerprint(server.serve(workload)))), expected);
    EXPECT_EQ(workload.rows_streamed(), spec.num_requests);
  }
}

/// The bounded-memory path and the materialize-everything path are the
/// same simulation: streaming a generated trace through serve() reproduces
/// TraceWorkload::from_file byte for byte, on fresh servers, and both match
/// the pinned golden.
TEST(StreamingTrace, ReplayMatchesMaterializedRunAndGolden) {
  TraceSpec spec;
  spec.num_requests = 1500;
  spec.rate_rps = 15'000.0;
  spec.seed = 33;
  spec.classes = {};  // default class; the class column is covered above
  FileGuard trace{temp_path("equiv")};
  ASSERT_EQ(write_synthetic_trace(trace.path, spec), spec.num_requests);

  const core::SimulationRequest base;
  // Recorded from the retired single-threaded reference event loop.
  const std::string expected = "73134154cd6008a7";
  {
    Server server = make_server(/*sim_threads=*/1);
    TraceWorkload workload = TraceWorkload::from_file(trace.path, base, 1.0);
    ASSERT_EQ(workload.size(), spec.num_requests);
    EXPECT_EQ(util::hex64(util::fnv1a64(report_fingerprint(server.serve(workload)))), expected);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(threads));
    Server server = make_server(threads);
    // A deliberately small chunk so the run crosses many refill boundaries.
    StreamingTraceWorkload workload(trace.path, base, 1.0, /*chunk_bytes=*/512);
    EXPECT_EQ(util::hex64(util::fnv1a64(report_fingerprint(server.serve(workload)))), expected);
    EXPECT_EQ(workload.rows_streamed(), spec.num_requests);
  }
}

/// Satellite regression: replaying a >100k-row trace keeps the reader's
/// buffer bounded by one chunk plus one row — allocation never scales with
/// the trace. (Pull-only: the engine-cost side of serving is exercised by
/// the equivalence test above; this one pins the memory contract at scale.)
TEST(StreamingTrace, BufferStaysBoundedOnHundredThousandRowTrace) {
  TraceSpec spec;
  spec.num_requests = 120'000;
  spec.rate_rps = 20'000.0;
  spec.seed = 7;
  spec.classes = {"interactive", "bulk"};
  spec.slo_ms = 1.0;
  FileGuard trace{temp_path("large")};
  ASSERT_EQ(write_synthetic_trace(trace.path, spec), spec.num_requests);
  const auto file_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(trace.path));
  ASSERT_GT(file_bytes, 4u * 1024 * 1024 / 2);  // sanity: this is a big file

  constexpr std::size_t kChunk = 64 * 1024;
  const core::SimulationRequest base;
  StreamingTraceWorkload workload(trace.path, base, 1.0, kChunk);
  std::vector<Request> batch;
  std::size_t pulled = 0;
  Cycle last_arrival = 0;
  while (true) {
    batch.clear();
    const std::size_t n = workload.pull(4096, batch);
    if (n == 0) {
      break;
    }
    pulled += n;
    for (const Request& r : batch) {
      EXPECT_GE(r.arrival, last_arrival);  // pull order == arrival order
      last_arrival = r.arrival;
    }
  }
  EXPECT_EQ(pulled, spec.num_requests);
  EXPECT_EQ(workload.rows_streamed(), spec.num_requests);
  // One chunk plus one row of slack — and nowhere near the file size.
  EXPECT_LE(workload.peak_buffer_bytes(), kChunk + 256);
  EXPECT_LT(workload.peak_buffer_bytes(), file_bytes / 10);
  // Drained is drained.
  batch.clear();
  EXPECT_EQ(workload.pull(16, batch), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(StreamingTrace, OutOfOrderArrivalsThrowNamingTheRow) {
  FileGuard trace{temp_path("unsorted")};
  {
    std::ofstream out(trace.path, std::ios::binary);
    out << "arrival_ms,dataset,model,slo_ms\n"
        << "0.10,cora,gcn,0\n"
        << "0.30,cora,gcn,0\n"
        << "0.20,cora,gcn,0\n";  // data row 3: goes backwards in time
  }
  const core::SimulationRequest base;
  StreamingTraceWorkload workload(trace.path, base, 1.0);
  std::vector<Request> batch;
  try {
    while (workload.pull(1, batch) > 0) {
    }
    FAIL() << "unsorted trace was accepted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace gnnerator::serve
