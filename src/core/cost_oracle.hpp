#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/compiler/ir.hpp"
#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "obs/exec_window.hpp"

namespace gnnerator::core {

/// Knobs for the measurement blend. Defaults match the analytic-only
/// behaviour on a cold oracle; `blend_measurements = false` pins the oracle
/// to the analytic prior outright (the control arm in bench/serve_oracle).
struct CostOracleOptions {
  /// EWMA smoothing for the measured execution history.
  double ewma_alpha = 0.25;
  /// Pseudo-observation count of the analytic prior: with n measurements the
  /// measured EWMA carries weight n / (n + confidence). Smaller values trust
  /// measurements sooner.
  double confidence = 2.0;
  /// When false, blend() and measured() ignore history entirely — the oracle
  /// still records observations (state stays comparable across arms), but
  /// every estimate is the analytic prior.
  bool blend_measurements = true;
  /// Measured corrections to the compiler cost model's serialisation-tail
  /// terms (identity by default; see compiler::fit_tail_calibration).
  compiler::TailCalibration tail_calibration;
};

/// The one cost estimator every serving consumer asks (ROADMAP: "one
/// measurement-driven cost oracle"). It layers three sources:
///
///   1. the analytic prior — `Compiler::estimate_cycles` at the request's
///      resolved plan, optionally tail-calibrated, memoized per execution
///      identity (persistent across runs, like the plan cache);
///   2. the measured EWMA — an obs::ExecWindowLog fed by the server at
///      dispatch commit, per (plan class, execution identity). The execution
///      identity is the plan-class key under the executing device's config,
///      not the device class *name*: two identically-configured classes share
///      measurements, which keeps the identical-class-fleet differential a
///      bitwise no-op. A plan class's canonical execution identity is its
///      own key;
///   3. the last exact measurement — engine executions are deterministic
///      per (plan class, execution identity), so `last_cycles` is not a
///      sample but the true value; affinity placement uses it directly.
///
/// Keys are interned once into dense ids (intern()); plan classes and
/// execution identities share one id space, since the canonical identity
/// *is* the class key. The serving hot path asks query() by id, which is
/// array indexing. Strings remain at the boundaries: the string-view
/// observe/blend/measured, windows().snapshot() and state_fingerprint(),
/// which folds everything in sorted key order, independent of id order.
///
/// Determinism contract: Server::serve mutates the oracle only at
/// sequential event points (admission pricing, dispatch commit, affinity
/// placement), in one fixed order — `state_fingerprint()` is identical
/// across runs and sim_threads values, and the serving tests pin it to
/// golden values. The pure helpers (`compute`, `query`, `blend`,
/// `measured`) never mutate state, so the serving loop's fanned-out phases
/// may call them concurrently with no event being processed.
class CostOracle {
 public:
  /// Dense id of an interned key.
  using Id = std::uint32_t;
  static constexpr Id kNoId = ~Id{0};

  /// What query() answers with.
  enum class Mode {
    kPrior,    ///< the analytic prior alone
    kBlended,  ///< the prior blended with the measured EWMA (SJF, WFQ)
    kExact,    ///< the last exact measurement when one exists, else the prior
  };

  explicit CostOracle(CostOracleOptions options = {});

  /// The id of `key` (a plan-class key or an execution identity), assigned
  /// on first sight; stable for the oracle's lifetime.
  Id intern(std::string_view key);
  [[nodiscard]] const std::string& key(Id id) const { return keys_[id]; }

  /// Memoized analytic prior of execution identity `identity`: runs the
  /// compiler's analysis pipeline on a miss (counted by pipeline_runs()),
  /// returns the cached value afterwards. Never consults measurements.
  std::uint64_t analytic(const graph::Dataset& dataset, const SimulationRequest& sim, Id identity);

  /// The memoized analytic value, without computing on a miss.
  [[nodiscard]] std::optional<std::uint64_t> lookup(Id identity) const;

  /// Publishes an externally computed analytic value (the pipeline's phase D
  /// prices classes in a fan-out, then primes them sequentially). Counts a
  /// pipeline run only when the identity is new — matching what analytic()
  /// would have computed lazily. `estimate` must be positive.
  void prime(Id identity, std::uint64_t estimate);

  /// The unmemoized analytic estimate: compiler analysis passes at the
  /// oracle's tail calibration, saturated to integer cycles. Pure — safe to
  /// fan out.
  [[nodiscard]] std::uint64_t compute(const graph::Dataset& dataset,
                                      const SimulationRequest& sim) const;

  /// Clamps a double cycle estimate into [1, uint64 max]. llround alone is
  /// UB at and above 2^63 and silently loses integer precision past 2^53 —
  /// a graph large enough to cost > 2^53 cycles must saturate, not wrap.
  [[nodiscard]] static std::uint64_t saturate_cycles(double cycles);

  /// Analytic compiler runs performed (or primed) so far — the serving
  /// tests' "pipeline runs once per class" counter.
  [[nodiscard]] std::size_t pipeline_runs() const { return pipeline_runs_; }

  /// The one cost query: device cycles of plan class `plan_class` executed
  /// as `identity`, in `mode`. The identity's prior must be priced
  /// (analytic() or prime()). With blending disabled every mode answers
  /// the prior.
  [[nodiscard]] std::uint64_t query(Id plan_class, Id identity, Mode mode) const;

  /// Folds one measured execution into the (plan class, execution identity)
  /// EWMA. Call only at sequential event points (see class comment).
  void observe(Id plan_class, Id identity, std::uint64_t cycles);
  /// observe() by key, interning both.
  void observe(std::string_view plan_class, std::string_view exec_identity,
               std::uint64_t cycles);

  /// Confidence-weighted blend of `analytic_cycles` with the pair's measured
  /// EWMA: with n observations the measurement carries weight
  /// n / (n + confidence). Returns `analytic_cycles` unchanged while the
  /// pair is unobserved or blending is disabled.
  [[nodiscard]] std::uint64_t blend(std::uint64_t analytic_cycles, std::string_view plan_class,
                                    std::string_view exec_identity) const;

  /// The last exact measurement for the pair, when one exists and blending
  /// is enabled. Engine executions are deterministic per pair, so this is
  /// the true device-cycle cost, not an estimate.
  [[nodiscard]] std::optional<std::uint64_t> measured(std::string_view plan_class,
                                                      std::string_view exec_identity) const;

  [[nodiscard]] const obs::ExecWindowLog& windows() const { return windows_; }
  [[nodiscard]] const CostOracleOptions& options() const { return options_; }

  /// FNV-1a over the full oracle state (analytic memo + every exec window),
  /// in deterministic (sorted key) order. Equal fingerprints mean the two
  /// oracles saw the same pricing and observation history.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  /// The observed window of a pair; null when unobserved or blending is
  /// disabled.
  [[nodiscard]] const obs::ExecWindow* window(Id plan_class, Id identity) const;
  [[nodiscard]] std::uint64_t blend(std::uint64_t analytic_cycles,
                                    const obs::ExecWindow* window) const;

  /// Transparent string hash: intern() probes with a string_view.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const { return std::hash<std::string_view>{}(key); }
  };

  CostOracleOptions options_;
  /// key -> id, and id -> key.
  std::unordered_map<std::string, Id, KeyHash, std::equal_to<>> ids_;
  std::vector<std::string> keys_;
  /// Analytic prior per id; 0 = not priced (compute() never returns 0).
  std::vector<std::uint64_t> prior_;
  std::size_t pipeline_runs_ = 0;
  obs::ExecWindowLog windows_;
  /// Per execution identity: (plan class, window index) of every observed
  /// pair. An identity is observed under one plan class on the serving
  /// path, so the scan is one entry long.
  std::vector<std::vector<std::pair<Id, std::uint32_t>>> windows_by_identity_;
};

}  // namespace gnnerator::core
