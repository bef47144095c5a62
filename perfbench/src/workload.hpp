#pragma once

// The benchmark's workloads. Each builds its inputs from the run seed in
// setup(), does one unit of measured work per pass(), and checks its outputs
// in finish(), outside every timed section.

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for generated inputs (trace CSVs) and the span file.
  std::string out_dir = ".";
};

/// Host-time summary of the measured passes, handed to finish().
struct PassSummary {
  std::size_t passes = 0;
  double median_pass_s = 0.0;
  /// Work units per host second: units over the sum of per-item medians.
  double median_rate = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input and every piece of warm state the passes need. The
  /// benchmark calls it several times and reports the median as setup_s; each
  /// call replaces the state of the previous one.
  virtual void setup() = 0;

  /// One measured pass. Must produce the same fingerprint every time.
  virtual PassResult pass() = 0;

  /// Called after every pass, outside its timed section: per-pass output
  /// checks (RunResult::verify on the pass's operations).
  virtual void after_pass(RunResult& result) { (void)result; }

  /// Output checks and the simulated-clock end-to-end metrics (mean_ms,
  /// p99_ms), plus the workload's own named metrics as notes.
  virtual void finish(const PassSummary& summary, RunResult& result) = 0;

  /// Traced runs only: replays of layers the program calls internally, timed
  /// on this workload's own inputs, and per-layer values that are not span
  /// times or pass counts.
  virtual void replay(RunResult& result) { (void)result; }
};

std::unique_ptr<Workload> make_paper_sweep(const Options& options);
std::unique_ptr<Workload> make_functional_infer(const Options& options);
std::unique_ptr<Workload> make_serve_hetero(const Options& options);
std::unique_ptr<Workload> make_serve_sampled(const Options& options);

}  // namespace perfbench
