#pragma once

#include <ostream>
#include <string>

#include "obs/recorder.hpp"

namespace gnnerator::obs {

/// Exports a Recorder's streams as Chrome trace-event JSON (the format
/// https://ui.perfetto.dev loads directly). Layout:
///
///   * pid 0 "devices" — one lane per device (busy/crashed/parked complete
///     events; crash instants), plus per-engine sub-lanes (gemm/shard
///     compute windows) when engine spans were captured;
///   * pid 100+tier "requests:<class>" — one process per request class;
///     each request is a nested async span (req > attempt per dispatch)
///     with instants for sample/shed/abort/requeue/resume/fail;
///   * pid 2 "control" — autoscaler track (scale-up/down instants), faults
///     track (crash/recover/slow/reclass), admission track (shed/fail).
///
/// Deterministic: the output is a pure function of the recorder streams, and
/// those are identical across runs and sim_threads values — so the exported
/// bytes are too (pinned to golden fingerprints in bench/serve_obs.cpp and
/// tests/obs_test.cpp).
///
/// Timestamps are microseconds on the server clock (ts = cycles /
/// (clock_ghz * 1e3)), rendered shortest-round-trip via util::json_number.
void write_chrome_trace(const Recorder& recorder, std::ostream& out);

/// write_chrome_trace rendered to a string (tests, byte comparisons).
[[nodiscard]] std::string chrome_trace_string(const Recorder& recorder);

/// Writes the trace to `path`; false when the file cannot be written.
bool write_chrome_trace_file(const Recorder& recorder, const std::string& path);

}  // namespace gnnerator::obs
