#pragma once

// Measurement plumbing shared by every workload of the benchmark binary:
// host clocks, the heap-allocation counter, in-memory spans for traced runs,
// FNV-1a fingerprints of simulated results, and the run result that becomes
// the final JSON line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Heap allocations (`operator new` calls) made by the whole process so far.
/// Counted by the replacement operators in alloc_counter.cpp.
[[nodiscard]] std::uint64_t heap_allocations();

/// CPUs this process may run on (its affinity mask, as `nproc` reports).
[[nodiscard]] std::size_t host_threads();

/// Peak resident set size of the process, in MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One recorded span: a timed call from the benchmark's own code into one
/// layer of the simulator. `pass` groups the spans of one measured pass
/// (replays get pass ids of their own).
struct Span {
  const char* name = "";
  std::uint32_t parent = 0;
  std::uint32_t pass = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory while the traced run executes and written out once
/// at exit. Single-threaded: spans open and close on the main thread only.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = ~static_cast<std::uint32_t>(0);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_pass(std::uint32_t pass) { pass_ = pass; }

  std::uint32_t begin(const char* name);
  void end(std::uint32_t index);

  /// Self time (span duration minus the part covered by its children), in
  /// seconds, summed per (span name, pass): name -> one value per pass that
  /// recorded the name, in pass order.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_seconds_by_pass() const;

  /// Writes every span as a Chrome trace ("X" events, args carry pass and
  /// parent). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t pass_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

SpanLog& span_log();

/// RAII span around one call into a layer; free when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name)
      : index_(span_log().enabled() ? span_log().begin(name) : SpanLog::kNoParent) {}
  ~Scope() {
    if (index_ != SpanLog::kNoParent) {
      span_log().end(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t index_;
};

/// FNV-1a over simulated results. Host-clock values never enter it.
class Fingerprint {
 public:
  void mix(std::uint64_t value);
  void mix(double value);
  void mix(std::string_view text);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// What one measured pass produced: work units for the throughput metric,
/// the fingerprint of its simulated results, and its deterministic counts.
/// A pass made of several independent items (design points, inferences) may
/// time each one in `item_s`, in the same order every pass; throughput
/// divides by the sum of per-item medians over passes, which damps host noise
/// better than the median of a few long passes. A pass that leaves `item_s`
/// empty is one item timed by main().
struct PassResult {
  double units = 0.0;
  std::vector<double> item_s;
  std::uint64_t fingerprint = 0;
  std::map<std::string, double> counts;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports. `attempt` counts operations attempted, `verify`
/// counts `operations` of them failed unless `ok`, and `check` does both for
/// operations a check runs itself. `e2e` and `layer` fill the two metric sets
/// of the final JSON line; `note` adds a human-readable line only.
class RunResult {
 public:
  void attempt(std::uint64_t operations) { attempted_ += operations; }
  void verify(bool ok, std::uint64_t operations, const std::string& what);
  void check(bool ok, std::uint64_t operations, const std::string& what) {
    attempt(operations);
    verify(ok, operations, what);
  }
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  /// An operation that fails two checks still counts once.
  [[nodiscard]] std::uint64_t failed() const { return std::min(failed_, attempted_); }
  [[nodiscard]] const std::vector<Metric>& e2e_metrics() const { return e2e_; }
  [[nodiscard]] const std::vector<Metric>& layer_metrics() const { return layer_; }
  [[nodiscard]] const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> lines_;
};

[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Formats a number with all its significant digits (shortest round trip).
[[nodiscard]] std::string format_number(double value);

}  // namespace perfbench
