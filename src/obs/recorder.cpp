#include "obs/recorder.hpp"

#include <algorithm>
#include <utility>

#include "sim/trace.hpp"
#include "util/check.hpp"

namespace gnnerator::obs {

std::string_view span_phase_name(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kAdmit:
      return "admit";
    case SpanPhase::kSample:
      return "sample";
    case SpanPhase::kShed:
      return "shed";
    case SpanPhase::kDispatch:
      return "dispatch";
    case SpanPhase::kAbort:
      return "abort";
    case SpanPhase::kRequeue:
      return "requeue";
    case SpanPhase::kResume:
      return "resume";
    case SpanPhase::kFail:
      return "fail";
    case SpanPhase::kComplete:
      return "complete";
  }
  return "?";
}

std::string_view device_span_kind_name(DeviceSpanKind kind) {
  switch (kind) {
    case DeviceSpanKind::kBusy:
      return "busy";
    case DeviceSpanKind::kCrashed:
      return "crashed";
    case DeviceSpanKind::kParked:
      return "parked";
  }
  return "?";
}

std::string_view mark_kind_name(MarkKind kind) {
  switch (kind) {
    case MarkKind::kShed:
      return "shed";
    case MarkKind::kFail:
      return "fail";
    case MarkKind::kCrash:
      return "crash";
    case MarkKind::kRecover:
      return "recover";
    case MarkKind::kSlow:
      return "slow";
    case MarkKind::kReclass:
      return "reclass";
    case MarkKind::kScaleUp:
      return "scale-up";
    case MarkKind::kScaleDown:
      return "scale-down";
  }
  return "?";
}

Recorder::Recorder(RecorderOptions options)
    : options_(options), exec_log_(options.ewma_alpha) {}

void Recorder::begin_run(RunInfo info) {
  info_ = std::move(info);
  running_ = true;
  end_cycle_ = 0;
  dropped_ = 0;
  span_events_.clear();
  device_spans_.clear();
  marks_.clear();
  open_busy_.assign(info_.devices.size(), std::nullopt);
  // Registry, ExecWindowLog and the engine-window templates persist: they
  // are cumulative state, like the server's plan cache and result memos.
}

void Recorder::end_run(Cycle end_cycle) {
  // Defensive: the serving loop drains every device before assembling the
  // report, so no busy span should still be open here.
  for (std::size_t di = 0; di < open_busy_.size(); ++di) {
    if (open_busy_[di].has_value()) {
      close_busy(static_cast<std::uint32_t>(di), end_cycle, /*aborted=*/false);
    }
  }
  end_cycle_ = end_cycle;
  running_ = false;
}

void Recorder::request_event(SpanEvent event) {
  if (!options_.request_spans) {
    return;
  }
  if (span_events_.size() >= options_.max_events) {
    ++dropped_;
    return;
  }
  span_events_.push_back(std::move(event));
}

void Recorder::device_added(std::string label) {
  if (!running_) {
    return;
  }
  info_.devices.push_back(std::move(label));
  open_busy_.emplace_back(std::nullopt);
}

void Recorder::open_busy(std::uint32_t device, Cycle begin, std::uint32_t requests,
                         std::string label) {
  if (!options_.device_timeline || device >= open_busy_.size()) {
    return;
  }
  GNNERATOR_CHECK_MSG(!open_busy_[device].has_value(),
                      "device " << device << " opened a busy span while one is open");
  DeviceSpan span;
  span.device = device;
  span.kind = DeviceSpanKind::kBusy;
  span.begin = begin;
  span.requests = requests;
  span.label = std::move(label);
  open_busy_[device] = std::move(span);
}

void Recorder::attach_windows(std::uint32_t device, std::vector<EngineWindow> windows) {
  if (!options_.device_timeline || device >= open_busy_.size() ||
      !open_busy_[device].has_value()) {
    return;
  }
  std::vector<EngineWindow>& dst = open_busy_[device]->windows;
  dst.insert(dst.end(), std::make_move_iterator(windows.begin()),
             std::make_move_iterator(windows.end()));
}

void Recorder::close_busy(std::uint32_t device, Cycle end, bool aborted) {
  if (!options_.device_timeline || device >= open_busy_.size() ||
      !open_busy_[device].has_value()) {
    return;
  }
  DeviceSpan span = std::move(*open_busy_[device]);
  open_busy_[device].reset();
  span.end = end;
  span.aborted = aborted;
  if (aborted) {
    // Engine windows past the crash never happened; clip to the abort point.
    std::erase_if(span.windows, [&](const EngineWindow& w) { return w.begin >= end; });
    for (EngineWindow& w : span.windows) {
      w.end = std::min(w.end, end);
    }
  }
  device_spans_.push_back(std::move(span));
}

bool Recorder::busy_open(std::uint32_t device) const {
  return device < open_busy_.size() && open_busy_[device].has_value();
}

void Recorder::health_span(std::uint32_t device, DeviceSpanKind kind, Cycle begin,
                           Cycle end) {
  if (!options_.device_timeline || begin == end) {
    return;
  }
  DeviceSpan span;
  span.device = device;
  span.kind = kind;
  span.begin = begin;
  span.end = end;
  device_spans_.push_back(std::move(span));
}

void Recorder::mark(Mark m) {
  if (!options_.device_timeline && !options_.request_spans) {
    return;
  }
  marks_.push_back(std::move(m));
}

std::vector<EngineWindow> Recorder::windows_from_tracer(const sim::Tracer& tracer) {
  std::vector<EngineWindow> windows;
  // Open compute window per component (the engines are single-lane: one
  // gemm/shard in flight each, so a name keyed open slot suffices).
  std::vector<std::pair<std::string, std::size_t>> open;
  for (const sim::TraceEvent& e : tracer.events()) {
    const bool start = e.what.rfind("gemm start", 0) == 0 || e.what.rfind("shard start", 0) == 0;
    const bool done = e.what.rfind("gemm done", 0) == 0 || e.what.rfind("shard done", 0) == 0;
    if (!start && !done) {
      continue;  // fetch windows overlap compute on the same lane; skip
    }
    if (start) {
      EngineWindow w;
      w.engine = e.component;
      w.begin = e.cycle;
      w.end = e.cycle;
      open.emplace_back(e.component, windows.size());
      windows.push_back(std::move(w));
      continue;
    }
    // Close the earliest open window of this component.
    const auto it = std::find_if(open.begin(), open.end(), [&](const auto& entry) {
      return entry.first == e.component;
    });
    if (it != open.end()) {
      windows[it->second].end = e.cycle;
      open.erase(it);
    }
  }
  // Truncated tracer captures may leave zero-length windows; keep them —
  // they still mark where compute started.
  return windows;
}

void Recorder::store_engine_windows(const std::string& exec_key,
                                    std::vector<EngineWindow> windows) {
  engine_windows_.try_emplace(exec_key, std::move(windows));
}

const std::vector<EngineWindow>* Recorder::engine_windows(const std::string& exec_key) const {
  const auto it = engine_windows_.find(exec_key);
  return it == engine_windows_.end() ? nullptr : &it->second;
}

void Recorder::record_exec_window(const std::string& plan_class,
                                  const std::string& device_class, std::uint64_t cycles) {
  if (!options_.exec_windows) {
    return;
  }
  exec_log_.record(plan_class, device_class, cycles);
}

}  // namespace gnnerator::obs
