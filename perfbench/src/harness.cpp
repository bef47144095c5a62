#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---- Spans ------------------------------------------------------------------

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

std::uint32_t SpanLog::begin(const char* name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.pass = pass_;
  span.begin_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void SpanLog::end(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) {
    stack_.pop_back();
  }
}

std::map<std::string, std::vector<double>> SpanLog::self_seconds_by_pass() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].begin_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      self[span.parent] -= span.end_ns - span.begin_ns;
    }
  }
  // name -> pass -> summed self time; std::map keeps passes in order.
  std::map<std::string, std::map<std::uint32_t, std::int64_t>> grouped;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    grouped[spans_[i].name][spans_[i].pass] += self[i];
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, by_pass] : grouped) {
    for (const auto& [pass, ns] : by_pass) {
      out[name].push_back(static_cast<double>(ns) * 1e-9);
    }
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << format_number(static_cast<double>(s.begin_ns - origin) / 1e3)
        << ",\"dur\":" << format_number(static_cast<double>(s.end_ns - s.begin_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"pass\":" << s.pass << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("null") : std::to_string(s.parent)) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- Fingerprint ------------------------------------------------------------

void Fingerprint::mix(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Fingerprint::mix(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  mix(bits);
}

void Fingerprint::mix(std::string_view text) {
  mix(static_cast<std::uint64_t>(text.size()));
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fingerprint));
  return buf;
}

// ---- Results ----------------------------------------------------------------

void RunResult::verify(bool ok, std::uint64_t operations, const std::string& what) {
  if (!ok) {
    failed_ += operations;
    std::cerr << "CHECK FAILED: " << what << '\n';
  }
}

void RunResult::e2e(const std::string& name, double value, const std::string& unit) {
  e2e_.push_back(Metric{name, value, unit});
}

void RunResult::layer(const std::string& name, double value, const std::string& unit) {
  layer_.push_back(Metric{name, value, unit});
}

void RunResult::note(const std::string& name, double value, const std::string& unit) {
  lines_.push_back(name + " = " + format_number(value) + " " + unit);
}

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace perfbench
