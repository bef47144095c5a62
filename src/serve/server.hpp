#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/cost_oracle.hpp"
#include "core/engine.hpp"
#include "obs/recorder.hpp"
#include "serve/autoscale.hpp"
#include "serve/faults.hpp"
#include "serve/feature_cache.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "util/thread_pool.hpp"

namespace gnnerator::serve {

/// Runtime availability of one fleet device.
enum class DeviceHealth {
  kActive,   ///< in service: dispatchable, accrues device-hours
  kRemoved,  ///< scaled out of the fleet (autoscaler / remove_device)
  kCrashed,  ///< dead from a fault; back with a recover event
};

struct ServerOptions {
  /// Size of the simulated device fleet when `fleet` is empty (legacy
  /// homogeneous mode: every worker executes requests under the request's
  /// own config).
  std::size_t num_devices = 2;
  /// Heterogeneous fleet spec: each entry contributes `count` workers of
  /// its device class (serve/fleet.hpp; parse_fleet_spec for the
  /// "2xbaseline,1xnextgen" grammar). When non-empty it replaces
  /// num_devices, every worker compiles/executes under its class config
  /// (the request's config field is ignored), and per-class clocks convert
  /// device cycles onto the server timeline. The first entry is the
  /// *canonical* class: plan-compatibility keys and the SJF/WFQ cost
  /// oracle are evaluated under it.
  std::vector<DeviceClass> fleet;
  /// Request classes (SLO tiers). Empty = one "default" class. Requests
  /// name their class via Request::klass (empty = the first class);
  /// dispatch across classes is strict-priority then weighted-fair
  /// (serve/fleet.hpp).
  std::vector<RequestClass> classes;
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  /// Dynamic-batching window and size cap (kDynamicBatch only).
  Scheduler::Limits limits;
  /// Admission bound on queued (not yet dispatched) requests; an arrival
  /// finding the queue full is shed on the spot. 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// SLO applied to requests that carry none (directly or via their
  /// request class); <= 0 = none. A request whose earliest possible
  /// completion already misses its SLO is shed at dispatch instead of
  /// wasting device time.
  double default_slo_ms = 0.0;
  /// Server clock: the virtual timeline's cycle rate. Maps simulated
  /// cycles to reported milliseconds and SLO deadlines to cycles; device
  /// cycles of a class with a different clock are rescaled onto this
  /// timeline at dispatch.
  double clock_ghz = 1.0;
  /// Per-request dispatch/response overhead a device pays for every
  /// request in a batch (RPC + host round trip), in server cycles.
  Cycle per_request_overhead = 10'000;
  /// Capacity of the fleet-wide shared plan cache.
  std::size_t plan_cache_capacity = 64;
  /// Worker threads of the serving event loop (Server::serve): pure
  /// per-request work — plan-class keys, cost-oracle pricing, metrics
  /// reduction — fans out across a util::ThreadPool between scheduling
  /// points, with a conservative barrier before any queue/RNG/engine state
  /// is touched, so reports are bitwise identical for every value (golden
  /// fingerprints in the serving tests pin 1, 2 and 4). 1 = fully serial,
  /// 0 = hardware concurrency.
  std::size_t sim_threads = 1;
  /// Retain each request's ExecutionResult in its Outcome (tests /
  /// functional clients). Off by default: a long load run would hold every
  /// output tensor alive.
  bool collect_results = false;
  /// Deterministic schedule of device crash/recover/slow/reclass events
  /// applied on the server clock during every serve run (serve/faults.hpp).
  /// Fault events are ordinary DES events processed at one fixed point of
  /// the event loop, so any plan replays bitwise across runs and
  /// sim_threads values.
  FaultPlan faults;
  /// Elastic fleet sizing (serve/autoscale.hpp); disabled when unset.
  std::optional<AutoscalerOptions> autoscale;
  /// How many fault-induced aborts a request survives before it is failed.
  std::uint32_t retry_budget = 3;
  /// Base requeue delay after an abort, in server cycles; doubles per
  /// retry (exponential backoff). A backoff past the request's SLO
  /// deadline fails it immediately.
  Cycle retry_backoff = 100'000;
  /// Pre-sampling feature cache for sampled requests (Request::seed >= 0):
  /// one host-side cache per base dataset, built lazily at the first
  /// sampled dispatch against that dataset (a deterministic sequential
  /// point) under the triggering request's fanout. When unset, sampled
  /// dispatches pay no modeled feature-gather cost; when set, every
  /// feature-row gather of a sampled batch is priced hit-or-miss against
  /// the cache. Cache state persists across serve runs (like the plan
  /// cache); comparisons between runs need fresh servers.
  std::optional<FeatureCacheOptions> feature_cache;
  /// Observability sink (src/obs/): when set, the serving loop records
  /// request spans, device timelines and control marks into it at its
  /// sequential event points, publishes end-of-run metrics into its Registry,
  /// and feeds measured (plan class, device class) execution windows into its
  /// ExecWindowLog. Null = zero cost (every hook is behind one pointer
  /// check). The recorder's per-run streams reset at each serve call; its
  /// registry and exec-window history persist like the plan cache does.
  /// One recorder should serve one Server.
  std::shared_ptr<obs::Recorder> recorder;
  /// The cost oracle's blend knobs (core/cost_oracle.hpp): EWMA alpha,
  /// prior confidence, the blend on/off switch, and the optional autotune
  /// tail calibration. Oracle state (analytic memo + measured windows)
  /// persists across serve runs like the plan cache.
  core::CostOracleOptions cost_oracle;
};

/// A simulated multi-device GNNerator serving deployment.
///
/// The Server owns a fleet of device workers — each a core::Engine sharing
/// one fleet-wide PlanCache, so a model deployed across N devices compiles
/// once — an admission-controlled request queue, and a pluggable scheduling
/// policy (FIFO / SJF / dynamic batching / affinity, serve/scheduler.hpp).
/// The fleet may be heterogeneous (ServerOptions::fleet): workers of
/// different device classes execute the same request under different
/// accelerator configs, and the affinity policy places each request on the
/// device with the earliest estimated finish time.
///
/// serve() runs a deterministic discrete-event simulation in virtual device
/// time: the workload source emits timed arrivals, the policy picks what an
/// idle device runs next, and a dispatched batch occupies its device for
/// the accelerator's own simulated cycle count of one execution, plus a
/// per-request dispatch overhead. Event order is total: ties break by
/// (completions before arrivals before dispatch), device index, then
/// admission id, so two runs over the same (workload, seed, options) are
/// bit-identical — policies can be compared on p99s without noise.
///
/// Every batch runs through one execution path. A batch's *composition* is
/// its distinct class ids in first-appearance order. A one-entry
/// composition (every full-graph batch: schedulers group by class key; a
/// sampled batch of one frontier) executes that class's own dataset; a
/// multi-frontier sampled batch executes the block-diagonal fusion of its
/// frontiers. Either way the execution is memoized by its exec id (the
/// composition under the device's config, interned in the cost oracle):
/// identical compositions provably compute identical results under one
/// config, so identically configured device classes share the entry, and
/// driving tens of thousands of requests through the fleet costs one
/// accelerator simulation per distinct (composition, device config).
class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Registers a dataset with every device engine (shared, not copied) and
  /// with the server's admission controller. Same contract as
  /// Engine::add_dataset.
  const graph::Dataset& add_dataset(graph::Dataset dataset);

  /// Runs the serving simulation until the workload is drained and every
  /// device is idle. May be called repeatedly; the plan cache and result
  /// memo stay warm across calls (ids and virtual time restart at 0).
  ///
  /// The one serving event loop (src/serve/server_pipeline.cpp): arrivals
  /// stream in sorted chunks (bounded memory for a StreamingWorkloadSource),
  /// per-request annotation and metrics reduction fan out across
  /// ServerOptions::sim_threads workers between scheduling points, and
  /// completion records are stamped in place. The report is bitwise
  /// identical for every sim_threads value; golden fingerprints in
  /// tests/serve_property_test.cpp pin it across policies, fleets, fault
  /// plans and sampled workloads. Note: comparing two runs needs fresh
  /// Server instances (or identical prior history), since the plan cache
  /// and memos staying warm across calls is part of the report.
  ServeReport serve(WorkloadSource& workload);

  [[nodiscard]] core::PlanCacheStats cache_stats() const { return plan_cache_->stats(); }
  /// The plan-compatibility class a request would be admitted under
  /// (clients/tests correlate outcomes back to their mix entries). On a
  /// heterogeneous fleet the canonical (first) device class's config is
  /// substituted. The request's dataset must be registered.
  [[nodiscard]] std::string class_key(const core::SimulationRequest& sim) const;
  /// Raw device cycles of a request under the canonical device class, in
  /// `mode`: kPrior is the analytic cold-start value (never consults
  /// measurements); kBlended mixes in the measured history of (plan class,
  /// canonical class) — what SJF queues on. Prices the prior on first use.
  [[nodiscard]] std::uint64_t cost_estimate(
      const core::SimulationRequest& sim,
      core::CostOracle::Mode mode = core::CostOracle::Mode::kPrior);
  /// Service cycles of a request on one device, on the server timeline,
  /// including per-request overhead, in `mode`: kPrior is the analytic
  /// affinity oracle; kExact substitutes the last measured execution when
  /// the oracle has observed this (plan class, device config) — what
  /// affinity placement uses. Prices the prior on first use.
  [[nodiscard]] std::uint64_t device_cost_estimate(
      const core::SimulationRequest& sim, std::size_t device,
      core::CostOracle::Mode mode = core::CostOracle::Mode::kPrior);
  /// The measurement-calibrated cost oracle (analytic memo + measured
  /// (plan class, device class) windows; state persists across runs).
  [[nodiscard]] const core::CostOracle& cost_oracle() const { return cost_oracle_; }
  /// Mutable oracle access (tests inject observations; callers may seed a
  /// tail calibration fit between runs).
  [[nodiscard]] core::CostOracle& mutable_cost_oracle() { return cost_oracle_; }
  [[nodiscard]] std::size_t num_devices() const { return devices_.size(); }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] bool has_dataset(std::string_view name) const;
  /// How many times the cost oracle actually ran the analytic compiler
  /// pipeline (one per distinct (plan class, device class) pair; the
  /// memoization regression asserts this stays flat in trace length).
  [[nodiscard]] std::size_t cost_oracle_runs() const { return cost_oracle_.pipeline_runs(); }

  // ---- Runtime fleet mutation (FGNN-style role/capacity changes). ----------
  // Callable between serve runs; the next run's schedulers and affinity
  // placement observe the mutated fleet immediately. In-run mutation goes
  // through ServerOptions::faults and ::autoscale, which drive the same
  // machinery at deterministic event points.

  /// Appends a worker (sharing the fleet plan cache, with every registered
  /// dataset) and returns its index. On a classed fleet `klass` names the
  /// device class (registry or fleet-spec name); on a legacy fleet it must
  /// be empty.
  std::size_t add_device(std::string_view klass = {});
  /// Takes a device out of service (it keeps its index and engine; a later
  /// fault plan recover does NOT resurrect it). At least one active device
  /// must remain.
  void remove_device(std::size_t device);
  /// Switches a device to another device class (classed fleets only);
  /// subsequent batches compile/execute under the new class's config+clock.
  void reclass_device(std::size_t device, std::string_view klass);
  /// The current health of one worker.
  [[nodiscard]] DeviceHealth device_health(std::size_t device) const;

 private:
  struct RegisteredDataset {
    std::shared_ptr<const graph::Dataset> dataset;
    std::string fingerprint;
  };

  struct Device {
    std::unique_ptr<core::Engine> engine;
    /// Index into classes (expanded fleet); kNoClass on a legacy fleet.
    std::size_t klass = 0;
    Cycle busy_until = 0;
    /// The batch in flight (empty when idle), moved from the dispatch batch
    /// (no copies on the happy path). Dispatch fields are stamped into the
    /// run's record vector in place and completion stamps the record of
    /// each request id, so no Outcome is ever copied around; a crash
    /// requeues exactly this work with its annotations.
    std::vector<QueuedRequest> inflight_reqs;
    DeviceStats stats;
    // ---- Elastic state. ----------------------------------------------------
    DeviceHealth health = DeviceHealth::kActive;
    /// Health restored at end of run (public remove_device persists;
    /// in-run fault/autoscaler transitions do not).
    DeviceHealth baseline_health = DeviceHealth::kActive;
    /// Class restored at end of run (reclass faults are per-run).
    std::size_t baseline_klass = 0;
    /// Gray-failure service-speed multiplier (slow faults): batch service
    /// cycles divide by it. Reset to 1.0 by recover events and at end of
    /// run. Deliberately invisible to affinity EFT estimates — the placer
    /// works from nominal speeds, as a real one would under gray failure.
    double slow_factor = 1.0;
    /// Appended by the autoscaler mid-run; erased at end of run.
    bool ephemeral = false;
    /// Start of the current health span (device-hours accounting).
    Cycle health_since = 0;
  };

  static constexpr std::size_t kNoClass = ~static_cast<std::size_t>(0);
  using OracleId = core::CostOracle::Id;

  [[nodiscard]] const RegisteredDataset& registered(const std::string& name) const;

  // ---- Sampled queries (k-hop frontiers), resolved during annotation.

  /// sample_memo_ key of a sampled request: plan-compatibility class | seed
  /// | fanout. The class component matters: the memoized SampledQuery
  /// embeds model-dependent fuse/exact keys, so two requests may only share
  /// an entry when their (model, config, dataflow) class matches —
  /// otherwise whichever model sampled a seed vertex first would leak its
  /// keys into the other's requests.
  [[nodiscard]] std::string sampled_memo_key(const Request& request) const;
  /// Resolves a sampled request's frontier, subgraph dataset and
  /// compatibility keys. Pure: the sampling PRNG is seeded from
  /// (dataset fingerprint, seed vertex, canonical fanout), so identical
  /// requests always produce identical subgraphs — safe to call from
  /// concurrent annotation slices, and the basis for coalescing.
  [[nodiscard]] std::shared_ptr<const SampledQuery> make_sampled_query(
      const Request& request) const;
  /// Phase-A read-only memo probe (null on miss) and phase-B publication
  /// for the annotation phases; publish returns the canonical entry (first
  /// publication wins, duplicates constructed by racing slices are
  /// dropped — contents are identical by construction).
  [[nodiscard]] std::shared_ptr<const SampledQuery> sampled_lookup(
      const std::string& memo_key) const;
  std::shared_ptr<const SampledQuery> publish_sampled(
      std::string memo_key, std::shared_ptr<const SampledQuery> query);

  // ---- Execution identities and the cost query. All oracle mutation
  // happens at sequential event points (admission pricing, dispatch commit,
  // affinity placement) in one fixed order, so oracle state — and every
  // decision derived from it — is bitwise identical across sim_threads
  // values.

  /// The execution identity of one queued request on one device, interned
  /// in the cost oracle: the request's class (its exact frontier class when
  /// sampled) with the device class's config substituted — the class id
  /// itself on a legacy fleet. Memoized per [exec slot][class id], so only
  /// the first touch builds a key string.
  [[nodiscard]] OracleId exec_id(const QueuedRequest& queued, const Device& device);
  /// Exec-memo slot of a device: its class index (one shared slot on a
  /// legacy fleet).
  [[nodiscard]] static std::size_t exec_slot(const Device& device) {
    return device.klass == kNoClass ? 0 : device.klass;
  }
  /// The serving path's cost query: device cycles of `queued` on `device`'s
  /// class (raw, no clock conversion or overhead), answered by the oracle
  /// by (class id, exec id) in `mode`. Prices the analytic prior on first
  /// touch, even when a measurement answers: the memo entry is oracle state
  /// (state_fingerprint), so it must appear at the same event point
  /// whichever mode asked. Sampled requests always get the prior: fused
  /// compositions have no per-frontier measurement.
  [[nodiscard]] std::uint64_t device_cycles(const QueuedRequest& queued, const Device& device,
                                            core::CostOracle::Mode mode);

  // ---- The one batch-execution path. The event loop calls these at
  // sequential points (dispatch, commit, completion stamping), which keeps
  // runs bitwise identical across sim_threads values.

  /// A batch's composition: the first request of each distinct class id,
  /// in first-appearance order (requests sharing a frontier share one block
  /// of a fused execution). Fills and returns a scratch buffer, valid until
  /// the next call.
  const std::vector<const QueuedRequest*>& composition(const DispatchBatch& batch);
  /// Returns the exec id of the batch's composition on `device` — a
  /// one-entry composition's exec_id, or the fused composition's identity —
  /// and ensures results_ memoizes its execution: that class's own dataset,
  /// or the block-diagonal fusion of the distinct frontiers (one compiled
  /// plan for the whole mixed batch), run once through `device`'s engine,
  /// traced when engine spans are captured.
  OracleId ensure_result(Device& device, const DispatchBatch& batch);
  /// Device occupancy of a batch on the server timeline: the memoized
  /// execution's cycles, plus a sampled batch's feature gather (a cache
  /// probe — pure, so the shed fixpoint may price repeatedly), plus
  /// per-request overhead.
  [[nodiscard]] Cycle batch_service(Device& device, const DispatchBatch& batch, OracleId exec);
  /// Commits a sampled batch's feature gather into the cache (stats + LRU
  /// mutations); call exactly once per dispatched batch, after the final
  /// service pricing, when the device is actually occupied.
  void commit_gather(const DispatchBatch& batch);
  /// The feature cache a sampled batch gathers through (lazily built; null
  /// for full-graph batches and when ServerOptions::feature_cache is
  /// unset), with gather_rows_ filled: every distinct frontier's base-graph
  /// vertex ids, in composition order.
  [[nodiscard]] FeatureCache* gather_for(const DispatchBatch& batch);
  /// A request's result (collect_results): the memo entry, or for a
  /// sampled request the rows of its seed vertices, sliced out of the
  /// (fused) output at its block's offset.
  [[nodiscard]] std::shared_ptr<const core::ExecutionResult> result_for(
      const QueuedRequest& queued, const DispatchBatch& batch, OracleId exec);
  /// Converts device cycles of `device`'s class onto the server timeline
  /// (identity on a legacy fleet and whenever the clocks match).
  [[nodiscard]] Cycle to_server_cycles(const Device& device, std::uint64_t device_cycles) const;
  [[nodiscard]] core::SimulationRequest sim_for_device(const core::SimulationRequest& sim,
                                                       const Device& device) const;
  /// `sim` under the canonical (first) device class's config on a classed
  /// fleet — what plan-class keys and canonical cost estimates are computed
  /// under; `sim` unchanged on a legacy fleet.
  [[nodiscard]] core::SimulationRequest canonical_sim(const core::SimulationRequest& sim) const;

  ServerOptions options_;
  /// Raw view of options_.recorder (hot-path null check); set once in the
  /// constructor.
  obs::Recorder* obs_ = nullptr;
  /// Expanded fleet: one entry per DeviceClass (count folded out by
  /// devices_ referencing it). Empty on a legacy fleet.
  std::vector<DeviceClass> device_classes_;
  /// Request classes (at least one; synthesized "default" when unset).
  std::vector<RequestClass> request_classes_;
  std::shared_ptr<core::PlanCache> plan_cache_;
  std::vector<Device> devices_;
  std::map<std::string, RegisteredDataset, std::less<>> datasets_;
  /// The one estimator every consumer asks: analytic prior memo + measured
  /// (plan class, execution identity) windows (core/cost_oracle.hpp). Its
  /// ids are the serving loop's dense ids: a queued request's class_id is
  /// the oracle id of its class key (exact frontier key when sampled).
  core::CostOracle cost_oracle_;
  /// [exec slot][class id] -> exec id (see exec_id); kNoId until first
  /// touched. Rows grow on demand.
  std::vector<std::vector<OracleId>> exec_ids_;
  /// [exec id] -> execution result (cycles + output) of a batch
  /// composition, computed once per (composition, device config) for the
  /// whole fleet: identically configured device classes share the exec id,
  /// hence the entry.
  std::vector<std::shared_ptr<const core::ExecutionResult>> results_;
  /// Scratch buffers of composition() and gather_for().
  std::vector<const QueuedRequest*> composition_;
  std::vector<graph::NodeId> gather_rows_;
  /// (class | seed | fanout) -> resolved sampled query, so repeated seeds
  /// sample once and coalesce. String-keyed: phase A of the annotation
  /// reads it concurrently, before ids can be interned.
  std::unordered_map<std::string, std::shared_ptr<const SampledQuery>> sample_memo_;
  /// Per-base-dataset pre-sampling feature caches (std::map: deterministic
  /// iteration when the report aggregates their stats).
  std::map<std::string, FeatureCache> feature_caches_;

  // ---- Fleet mutation driven by the event loop (faults, autoscaling). -------
  // The loop owns the per-run elastic state (fault cursor, requeue heap,
  // autoscaler); these mutate the fleet itself.

  /// Scale up: reactivate the lowest-index removed device, else append an
  /// ephemeral one of the scale class (canonical class 0 / legacy).
  bool scale_up(Cycle now);
  /// Scale down: deactivate the highest-index active idle device; false
  /// (no-op, cooldown still consumed) when every active device is busy.
  bool scale_down(Cycle now);
  void set_device_health(Device& device, DeviceHealth health, Cycle now);
  /// Closes the device's current health span into active/downtime cycles.
  void flush_device_accounting(Device& device, Cycle now);
  std::size_t append_device(std::size_t klass, bool ephemeral, Cycle now);
  /// Device-class index for a name, appending a count-0 registry entry (and
  /// the matching exec-memo slots) when the fleet has not used it yet.
  std::size_t intern_device_class(std::string_view name);
  /// Applies the device's gray-failure slow factor to a service time.
  [[nodiscard]] Cycle scaled_service(const Device& device, Cycle cycles) const;

  // ---- Observability hooks (src/obs/). --------------------------------------
  // Every hook fires at a sequential event point with the DES cycle, never
  // from a fanned-out phase — that is the whole determinism argument for
  // trace exports byte-identical across sim_threads values. Each is a no-op
  // behind one pointer check when no recorder is attached.

  /// Starts the recorder's per-run streams with the fleet snapshot.
  void obs_begin_run();
  /// "dev<i> [<class>]" — the device's trace-lane label.
  [[nodiscard]] std::string obs_device_label(std::size_t device) const;
  /// The device class name exec windows are keyed by ("legacy" when the
  /// fleet is classless).
  [[nodiscard]] const std::string& obs_device_class_name(const Device& device) const;
  /// kAdmit (+ kSample for sampled requests), at record creation.
  void obs_admit(const Outcome& record, std::size_t tier, const SampledQuery* sampled);
  /// Terminal shed/fail: closes the request span and drops a control mark.
  void obs_terminal(const Outcome& record, Cycle now);
  /// A batch committed to a device: per-request kDispatch events, the busy
  /// span, the measured exec window of its execution `exec`, and
  /// (engine_spans) engine sub-spans anchored at `now`.
  void obs_dispatch(Device& device, const DispatchBatch& batch, OracleId exec, Cycle now);
  /// The device's batch finished: closes the busy span (before the
  /// per-record kComplete events).
  void obs_device_complete(const Device& device, Cycle now);
  void obs_complete(const Outcome& record, Cycle now);
  /// End-of-run publication: closes trailing health spans, stops the run,
  /// publishes the report's metrics into the Registry and snapshots the
  /// ExecWindowLog onto the report. Called when the loop assembles the report.
  void obs_finish_run(ServeReport& report, Cycle now);
  [[nodiscard]] std::uint32_t device_index(const Device& device) const {
    return static_cast<std::uint32_t>(&device - devices_.data());
  }

  // ---- Serving-loop state (server_pipeline.cpp). ----------------------------
  /// The event loop behind serve(), with its per-run state; nested so it
  /// can reach the memo tables without widening the public surface.
  struct Pipeline;

  /// Lazily built worker pool (sim_threads != 1), reused across serve runs.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace gnnerator::serve
