/// The serving event loop behind Server::serve.
///
/// Structure: arrivals come in sorted chunks (a StreamingWorkloadSource is
/// pulled incrementally, so trace memory stays bounded; a plain source is
/// materialized once and walked through a stable-sorted index). Each chunk
/// passes through four annotation phases before any of it is admitted:
///
///   A. pure per-request work — validation, tier resolution, plan-class key
///      construction — fanned out across the worker pool (nothing shared is
///      written);
///   B. sequential merge — class keys interned into the dense registry,
///      classes missing a canonical cost collected;
///   C. pure pricing — core::CostOracle::compute per missing class, fanned
///      out (const: no oracle state is touched until the sequential prime);
///   D. sequential publish — costs primed into the cost oracle and registry.
///
/// The annotated cost is the *analytic* prior; the measurement blend
/// happens at admit(), a sequential event point, so a chunk annotated far
/// ahead of the loop never bakes in an oracle state from the future.
///
/// The event loop itself is sequential: scheduler mutations, engine
/// simulations, fault handling and closed-loop RNG draws happen in one
/// fixed order, between the conservative barriers the phases above respect.
/// That is what makes the report bitwise identical for every sim_threads
/// value — golden fingerprints in tests/serve_property_test.cpp pin it
/// across policies, fleets, fault plans and thread counts.
#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace gnnerator::serve {

namespace {

/// Below this many per-request items a fan-out costs more than it saves.
constexpr std::size_t kParallelGrain = 256;
/// Arrivals annotated per intake refill.
constexpr std::size_t kIntakeChunk = 4096;

/// An item released at a future cycle; `seq` (push order) totally orders
/// items released at the same cycle.
template <class T>
struct Timed {
  Cycle at = 0;
  std::uint64_t seq = 0;
  T item;
};

struct TimedLater {
  template <class T>
  bool operator()(const Timed<T>& a, const Timed<T>& b) const {
    return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
  }
};

template <class T>
using TimedHeap = std::priority_queue<Timed<T>, std::vector<Timed<T>>, TimedLater>;

/// Moves the top item out of a heap (priority_queue::top is const; the
/// element is discarded by the pop).
template <class T>
T pop_item(TimedHeap<T>& heap) {
  T item = std::move(const_cast<Timed<T>&>(heap.top()).item);
  heap.pop();
  return item;
}

}  // namespace

struct Server::Pipeline {
  Server& server;
  WorkloadSource& workload;
  /// Non-null when the workload supports incremental sorted pulls.
  StreamingWorkloadSource* stream = nullptr;
  util::ThreadPool* pool = nullptr;
  std::unique_ptr<Scheduler> scheduler;

  /// One arrival with the expensive admit-time work precomputed.
  struct Annotated {
    Request request;
    std::string key;            ///< canonical plan-class key (phase A)
    std::uint32_t class_id = 0; ///< dense id (phase B)
    std::size_t tier = 0;       ///< request class index (phase A)
    std::uint64_t cost = 0;     ///< canonical analytic cost (phase D; blended at admit)
    /// Sampled requests: the drawn frontier (phase A — sampling is a pure
    /// function of the request, so it fans out; phase B dedups into the
    /// shared memo) and its memo key.
    std::shared_ptr<const SampledQuery> sampled;
    std::string sample_memo_key;
  };

  // ---- Intake: the workload's arrivals in sorted order, one annotated
  // chunk at a time. ---------------------------------------------------
  std::vector<Request> materialized;  ///< plain sources: every arrival
  std::vector<std::uint32_t> order;   ///< .. stable-sorted by arrival cycle
  std::size_t order_pos = 0;
  std::vector<Request> pulled;        ///< streaming refill scratch
  std::vector<Annotated> buffer;      ///< current annotated chunk
  std::size_t buffer_pos = 0;
  bool drained = false;

  /// Feedback arrivals (closed-loop reissues). Only these need a heap: the
  /// main stream is already sorted, and at equal cycles the stream head
  /// wins (see the arrivals step of run()).
  TimedHeap<Request> feedback;
  std::uint64_t feedback_seq = 0;

  // ---- Event-loop state. ------------------------------------------------
  std::vector<Outcome> records;
  util::RunningStats depth_stats;
  std::size_t max_depth = 0;
  Cycle now = 0;
  std::uint64_t events = 0;

  // ---- Elastic state: the fault-plan cursor, the aborted-work requeue
  // heap, the autoscaler and the scale counters. With faults and autoscale
  // unset every elastic step is a no-op. -----------------------------------
  bool elastic = false;
  std::size_t fault_cursor = 0;
  std::optional<Autoscaler> autoscaler;
  /// Aborted requests waiting out their retry backoff, in abort order at
  /// equal release cycles.
  TimedHeap<QueuedRequest> requeues;
  std::uint64_t requeue_seq = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;

  Pipeline(Server& s, WorkloadSource& w, util::ThreadPool* p)
      : server(s), workload(w), stream(dynamic_cast<StreamingWorkloadSource*>(&w)), pool(p) {
    const ServerOptions& options = server.options_;
    scheduler = make_scheduler(options.policy, options.limits, server.request_classes_);
    elastic = !options.faults.empty() || options.autoscale.has_value();
    if (options.autoscale.has_value()) {
      autoscaler.emplace(*options.autoscale, options.clock_ghz);
    }
    if (stream == nullptr) {
      materialized = workload.initial_arrivals();
      order.resize(materialized.size());
      std::iota(order.begin(), order.end(), 0u);
      // Stable by arrival: equal cycles keep emission order.
      std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return materialized[a].arrival < materialized[b].arrival;
      });
    }
  }

  /// Phase-A body: everything derivable from the request alone. Reads only
  /// immutable server state — safe from concurrent worker slices.
  void annotate_fields(Annotated& a) const {
    const Request& r = a.request;
    GNNERATOR_CHECK_MSG(!r.sim.dataset.empty(), "serve request needs a dataset id");
    GNNERATOR_CHECK_MSG(!r.sim.model.layers.empty(), "serve request needs a model");
    a.tier = 0;
    if (!r.klass.empty()) {
      a.tier = server.request_classes_.size();
      for (std::size_t t = 0; t < server.request_classes_.size(); ++t) {
        if (server.request_classes_[t].name == r.klass) {
          a.tier = t;
          break;
        }
      }
      GNNERATOR_CHECK_MSG(a.tier < server.request_classes_.size(),
                          "request names unknown class '" << r.klass << "'");
    }
    if (r.is_sampled()) {
      // Sampling stage ahead of compile: draw the frontier here (a pure
      // function of the request, so the fan-out stays race-free). The memo
      // is read-only during phase A — misses rebuild the identical subgraph
      // and phase B's publish first-wins them into one canonical entry.
      a.sample_memo_key = server.sampled_memo_key(r);
      a.sampled = server.sampled_lookup(a.sample_memo_key);
      if (a.sampled == nullptr) {
        a.sampled = server.make_sampled_query(r);
      }
      a.key = a.sampled->fuse_key;
      return;
    }
    a.key = server.class_key(r.sim);
  }

  /// Phase-B body: dense-id interning (sequential; grows the registry and
  /// every id-indexed memo view in lockstep).
  void intern(Annotated& a) {
    if (a.sampled != nullptr) {
      // First-wins publish into the shared memo: every duplicate drawn in
      // phase A collapses to one canonical SampledQuery.
      a.sampled = server.publish_sampled(std::move(a.sample_memo_key), std::move(a.sampled));
    }
    // Sampled requests intern per exact (frontier) key — cost and result
    // memos distinguish subgraph shapes even inside one fuse class.
    const std::string& intern_key = a.sampled != nullptr ? a.sampled->exact_key : a.key;
    const auto [it, inserted] = server.class_ids_.try_emplace(
        intern_key, static_cast<std::uint32_t>(server.plan_classes_.size()));
    if (inserted) {
      server.plan_classes_.push_back(PlanClass{intern_key, 0});
      for (auto& slot : server.results_by_id_) {
        slot.emplace_back();
      }
      for (auto& slot : server.estimates_by_id_) {
        slot.push_back(kNoEstimate);
      }
    }
    a.class_id = it->second;
  }

  /// The canonical analytic cost. CostOracle::compute is clamped to >= 1,
  /// so 0 doubles as "not yet priced" in the registry.
  [[nodiscard]] std::uint64_t compute_cost(const Annotated& a) const {
    const graph::Dataset& dataset = a.sampled != nullptr
                                        ? *a.sampled->dataset
                                        : *server.registered(a.request.sim.dataset).dataset;
    return server.cost_oracle_.compute(dataset, server.canonical_sim(a.request.sim));
  }

  /// Annotates one chunk through phases A-D (see the file comment).
  void annotate_chunk() {
    // Phase A: pure per-request work, fanned out across the pool.
    if (pool != nullptr && buffer.size() >= 2 * kParallelGrain) {
      const std::size_t tasks_wanted =
          std::min(pool->parallelism(), (buffer.size() + kParallelGrain - 1) / kParallelGrain);
      std::vector<std::function<void()>> tasks;
      tasks.reserve(tasks_wanted);
      const std::size_t per = (buffer.size() + tasks_wanted - 1) / tasks_wanted;
      for (std::size_t begin = 0; begin < buffer.size(); begin += per) {
        const std::size_t end = std::min(begin + per, buffer.size());
        tasks.emplace_back([this, begin, end] {
          for (std::size_t i = begin; i < end; ++i) {
            annotate_fields(buffer[i]);
          }
        });
      }
      pool->run_all(tasks);
    } else {
      for (Annotated& a : buffer) {
        annotate_fields(a);
      }
    }

    // Phase B: intern sequentially; collect the distinct classes that still
    // need a canonical cost (probing the oracle memo first — a public
    // cost_estimate call may have priced them already).
    std::vector<std::uint32_t> missing_cids;
    std::vector<std::size_t> missing_reps;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      Annotated& a = buffer[i];
      intern(a);
      PlanClass& pc = server.plan_classes_[a.class_id];
      if (pc.cost_estimate == 0 &&
          std::find(missing_cids.begin(), missing_cids.end(), a.class_id) ==
              missing_cids.end()) {
        if (const auto known = server.cost_oracle_.lookup(pc.key)) {
          pc.cost_estimate = *known;
        } else {
          missing_cids.push_back(a.class_id);
          missing_reps.push_back(i);
        }
      }
    }

    // Phase C: price the missing classes — pure analytic computation, one
    // task per class.
    std::vector<std::uint64_t> costs(missing_cids.size(), 0);
    if (pool != nullptr && missing_cids.size() > 1) {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(missing_cids.size());
      for (std::size_t i = 0; i < missing_cids.size(); ++i) {
        tasks.emplace_back(
            [this, &costs, i, rep = missing_reps[i]] { costs[i] = compute_cost(buffer[rep]); });
      }
      pool->run_all(tasks);
    } else {
      for (std::size_t i = 0; i < missing_cids.size(); ++i) {
        costs[i] = compute_cost(buffer[missing_reps[i]]);
      }
    }

    // Phase D: publish — one prime per class, so cost_oracle_runs() counts
    // each distinct class exactly once.
    for (std::size_t i = 0; i < missing_cids.size(); ++i) {
      PlanClass& pc = server.plan_classes_[missing_cids[i]];
      server.cost_oracle_.prime(pc.key, costs[i]);
      pc.cost_estimate = costs[i];
    }
    for (Annotated& a : buffer) {
      a.cost = server.plan_classes_[a.class_id].cost_estimate;
    }
  }

  /// Refills the annotated buffer with the next sorted chunk; false once
  /// the workload's up-front arrivals are exhausted.
  bool refill() {
    buffer.clear();
    buffer_pos = 0;
    if (stream != nullptr) {
      pulled.clear();
      if (stream->pull(kIntakeChunk, pulled) == 0) {
        return false;
      }
      buffer.reserve(pulled.size());
      for (Request& r : pulled) {
        buffer.push_back(Annotated{std::move(r)});
      }
    } else {
      if (order_pos == order.size()) {
        return false;
      }
      const std::size_t n = std::min(kIntakeChunk, order.size() - order_pos);
      buffer.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        buffer.push_back(Annotated{std::move(materialized[order[order_pos + i]])});
      }
      order_pos += n;
    }
    annotate_chunk();
    return true;
  }

  /// Arrival cycle of the next up-front arrival (kNoDeadline once drained).
  Cycle head() {
    while (buffer_pos == buffer.size()) {
      if (drained || !refill()) {
        drained = true;
        return kNoDeadline;
      }
    }
    return buffer[buffer_pos].request.arrival;
  }

  void feed_back(const Outcome& outcome) {
    for (Request& request : workload.on_outcome(outcome)) {
      const Cycle at = std::max(request.arrival, now);
      feedback.push(Timed<Request>{at, feedback_seq++, std::move(request)});
    }
  }

  /// Closes a shed or failed record at `now` (the caller sets which) and
  /// feeds it back to the workload.
  void close_unserved(Outcome& record) {
    record.dispatch = now;
    record.completion = now;
    server.obs_terminal(record, now);
    feed_back(record);
  }

  /// The serial annotation path for feedback arrivals (one at a time, so
  /// the chunk machinery would be overhead). Leaves the cost oracle in the
  /// same state a chunked annotation would.
  void annotate_serial(Annotated& a) {
    annotate_fields(a);
    intern(a);
    PlanClass& pc = server.plan_classes_[a.class_id];
    if (pc.cost_estimate == 0) {
      if (const auto known = server.cost_oracle_.lookup(pc.key)) {
        pc.cost_estimate = *known;
      } else {
        const std::uint64_t cost = compute_cost(a);
        server.cost_oracle_.prime(pc.key, cost);
        pc.cost_estimate = cost;
      }
    }
    a.cost = pc.cost_estimate;
  }

  void admit(Annotated&& a) {
    const RequestClass& klass = server.request_classes_[a.tier];
    a.request.id = static_cast<std::uint64_t>(records.size());
    Outcome record;
    record.id = a.request.id;
    record.arrival = a.request.arrival;
    record.class_key = a.key;  // the fuse class for sampled requests
    record.klass = klass.name;
    record.applied_slo_ms = a.request.slo_ms > 0.0   ? a.request.slo_ms
                            : klass.slo_ms > 0.0     ? klass.slo_ms
                                                     : server.options_.default_slo_ms;
    records.push_back(std::move(record));
    server.obs_admit(records.back(), a.tier, a.sampled.get());

    if (server.options_.queue_capacity > 0 &&
        scheduler->depth() >= server.options_.queue_capacity) {
      records.back().shed = true;
      close_unserved(records.back());
      return;
    }
    // Blend the annotated analytic cost with the measured history *here* —
    // admission is a sequential event point, so the oracle windows consulted
    // never depend on how far ahead the chunk was annotated. (Sampled
    // requests stay analytic: fused-composition windows are not
    // per-frontier measurements.)
    const std::uint64_t cost =
        a.sampled != nullptr ? a.cost : server.blended_cost(a.cost, a.key);
    scheduler->enqueue(QueuedRequest{std::move(a.request), std::move(a.key),
                                     std::move(a.sampled), cost, a.tier, a.class_id},
                       now);
  }

  /// SLO admission control + device occupation for one popped batch on one
  /// device. A request whose batch would complete past its deadline is shed
  /// *before* occupying the device; shedding shrinks the batch (and
  /// possibly its class set), which can rescue the rest — iterate to the
  /// fixpoint. Records are stamped in place: dispatch fields here,
  /// completion when the batch finishes. Returns true when the device was
  /// occupied (the batch was not fully shed).
  bool dispatch_batch_to(Device& device, std::uint32_t di, DispatchBatch batch) {
    const bool sampled =
        !batch.requests.empty() && batch.requests.front().sampled != nullptr;
    const auto service_of = [&] {
      return sampled ? server.sampled_batch_service(device, batch)
                     : server.batch_service_cycles(device, batch);
    };
    while (!batch.requests.empty()) {
      if (sampled) {
        server.ensure_sampled_results(device, batch);
      } else {
        server.ensure_class_results(device, batch);
      }
      const Cycle service = service_of();
      const std::size_t before = batch.requests.size();
      std::erase_if(batch.requests, [&](const QueuedRequest& queued) {
        Outcome& record = records[queued.request.id];
        if (record.applied_slo_ms <= 0.0) {
          return false;
        }
        const Cycle deadline = queued.request.arrival +
                               ms_to_cycles(record.applied_slo_ms, server.options_.clock_ghz);
        if (now + service <= deadline) {
          return false;
        }
        // A fault-retried request that runs out of SLO is a failure, not a
        // shed: the system took it on and lost it.
        if (record.retries > 0) {
          record.failed = true;
        } else {
          record.shed = true;
        }
        close_unserved(record);
        return true;
      });
      if (batch.requests.size() == before) {
        break;
      }
    }
    if (batch.requests.empty()) {
      return false;
    }

    const Cycle service = service_of();
    if (sampled) {
      // The batch is committed to the device: apply the feature-cache LRU
      // effects once, at this sequential point.
      server.commit_sampled_gather(batch);
    }
    server.obs_dispatch(device, batch, now);
    server.oracle_observe_dispatch(device, batch);
    if (server.request_classes_.size() > 1) {
      // WFQ accounting at dispatch commit: charge the tier with the cost of
      // the device class that actually executes the batch, not the
      // canonical-class estimate it was queued with.
      scheduler->charge(batch.requests.front().tier, server.wfq_charge_cost(batch, device));
    }
    const auto& slot = server.results_by_id_[server.exec_slot(device)];
    for (const QueuedRequest& queued : batch.requests) {
      Outcome& record = records[queued.request.id];
      record.dispatch = now;
      record.device = di;
      record.batch_size = static_cast<std::uint32_t>(batch.requests.size());
      record.service_cycles = service;
      if (server.options_.collect_results) {
        record.result = sampled ? server.sampled_result_for(queued, device, batch)
                                : slot[queued.class_id];
      }
      device.inflight_ids.push_back(queued.request.id);
    }
    device.inflight_reqs = std::move(batch.requests);
    device.busy_until = now + service;
    device.stats.busy_cycles += service;
    device.stats.batches += 1;
    device.stats.requests += static_cast<std::uint64_t>(device.inflight_reqs.size());
    return true;
  }

  /// Affinity-aware (HEFT) dispatch: scan dispatchable requests in policy
  /// order and place each on the device with the earliest estimated finish
  /// time (cost model under each device class's config). A request whose
  /// best device is busy is *held* — its preferred device finishing is a
  /// completion event, so the hold always resolves without extra wake-ups.
  /// Each placement changes busy states, so rescan until a full pass
  /// places nothing.
  void dispatch_affinity() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (const QueuedRequest* q : scheduler->ready(now)) {
        std::size_t best = server.devices_.size();
        Cycle best_eft = kNoDeadline;
        bool best_busy = true;
        for (std::size_t di = 0; di < server.devices_.size(); ++di) {
          const Device& device = server.devices_[di];
          if (device.health != DeviceHealth::kActive) {
            continue;  // crashed / scaled-out devices take no placements
          }
          const bool busy = !device.inflight_ids.empty();
          const Cycle start = busy ? device.busy_until : now;
          const Cycle eft = start + server.placement_estimate(*q, device);
          // Total order: earliest finish, then idle before busy, then the
          // lower device index (the scan order).
          if (best == server.devices_.size() || eft < best_eft ||
              (eft == best_eft && !busy && best_busy)) {
            best = di;
            best_eft = eft;
            best_busy = busy;
          }
        }
        if (best_busy) {
          continue;  // held for a busy device
        }
        std::optional<QueuedRequest> taken = scheduler->try_take(q->request.id);
        GNNERATOR_CHECK_MSG(taken.has_value(), "affinity scheduler lost a ready request");
        DispatchBatch batch;
        batch.requests.push_back(std::move(*taken));
        (void)dispatch_batch_to(server.devices_[best], static_cast<std::uint32_t>(best),
                                std::move(batch));
        progress = true;
        break;  // the ready view is invalidated; rescan
      }
    }
  }

  // ---- Elastic steps (faults, requeues, autoscaling). ----------------------

  /// Earliest pending elastic event: next fault, next requeue release, or
  /// the autoscaler's next tick. The loop only consults it while work is
  /// pending (a leftover fault schedule must not keep an otherwise-finished
  /// run alive).
  [[nodiscard]] Cycle next_elastic_event() const {
    if (!elastic) {
      return kNoDeadline;
    }
    const std::vector<FaultEvent>& faults = server.options_.faults.events;
    Cycle next = kNoDeadline;
    if (fault_cursor < faults.size()) {
      next = std::min(next, faults[fault_cursor].at);
    }
    if (!requeues.empty()) {
      next = std::min(next, requeues.top().at);
    }
    if (autoscaler.has_value()) {
      next = std::min(next, autoscaler->next_tick());
    }
    return next;
  }

  /// Fires everything due at `now`: fault events (plan order), requeue
  /// releases (backoff-expiry order), then one autoscaler evaluation.
  void process_elastic() {
    if (!elastic) {
      return;
    }
    const std::vector<FaultEvent>& faults = server.options_.faults.events;
    while (fault_cursor < faults.size() && faults[fault_cursor].at <= now) {
      apply_fault(faults[fault_cursor]);
      ++fault_cursor;
    }
    while (!requeues.empty() && requeues.top().at <= now) {
      QueuedRequest q = pop_item(requeues);
      if (server.obs_ != nullptr) {
        obs::SpanEvent ev;
        ev.request = q.request.id;
        ev.at = now;
        ev.phase = obs::SpanPhase::kResume;
        server.obs_->request_event(std::move(ev));
      }
      // Requeues bypass the admission queue bound: the request was already
      // admitted once and owns a record.
      scheduler->enqueue(std::move(q), now);
    }
    if (autoscaler.has_value() && autoscaler->next_tick() <= now) {
      std::size_t active = 0;
      for (const Device& device : server.devices_) {
        active += device.health == DeviceHealth::kActive ? 1 : 0;
      }
      const Autoscaler::Action action =
          autoscaler->evaluate(now, scheduler->depth(), active, scheduler->queued_cost());
      if (action == Autoscaler::Action::kUp && server.scale_up(now)) {
        ++scale_ups;
      } else if (action == Autoscaler::Action::kDown && server.scale_down(now)) {
        ++scale_downs;
      }
    }
  }

  void apply_fault(const FaultEvent& event) {
    GNNERATOR_CHECK_MSG(event.device < server.devices_.size(),
                        "fault plan targets dev" << event.device << " but the fleet has "
                                                 << server.devices_.size() << " devices");
    Device& device = server.devices_[event.device];
    if (server.obs_ != nullptr) {
      obs::Mark m;
      m.at = now;
      m.device = static_cast<std::uint32_t>(event.device);
      switch (event.kind) {
        case FaultKind::kCrash:
          m.kind = obs::MarkKind::kCrash;
          break;
        case FaultKind::kRecover:
          m.kind = obs::MarkKind::kRecover;
          break;
        case FaultKind::kSlow:
          m.kind = obs::MarkKind::kSlow;
          m.value = static_cast<std::uint64_t>(std::llround(event.factor * 1000.0));
          break;
        case FaultKind::kReclass:
          m.kind = obs::MarkKind::kReclass;
          m.detail = event.klass;
          break;
      }
      server.obs_->mark(std::move(m));
    }
    switch (event.kind) {
      case FaultKind::kCrash:
        device.stats.crashes += 1;
        abort_inflight(device);
        server.set_device_health(device, DeviceHealth::kCrashed, now);
        break;
      case FaultKind::kRecover:
        device.slow_factor = 1.0;
        // Only crashes heal; a removed (scaled-down) device stays with the
        // autoscaler.
        if (device.health == DeviceHealth::kCrashed) {
          server.set_device_health(device, DeviceHealth::kActive, now);
        }
        break;
      case FaultKind::kSlow:
        device.slow_factor = event.factor;
        break;
      case FaultKind::kReclass:
        GNNERATOR_CHECK_MSG(!server.device_classes_.empty(),
                            "reclass faults need a classed fleet (ServerOptions::fleet)");
        // The in-flight batch (if any) completes under its dispatch-time
        // timing; only subsequent dispatches see the new class.
        device.klass = server.intern_device_class(event.klass);
        break;
    }
  }

  /// Crash path: refunds the unserved device time, strips the dispatch
  /// stamps from every in-flight record, and requeues each (backoff, retry
  /// budget) or fails it (budget/SLO exhausted -> Outcome::failed).
  void abort_inflight(Device& device) {
    const ServerOptions& options = server.options_;
    obs::Recorder* obs = server.obs_;
    if (!device.inflight_reqs.empty()) {
      GNNERATOR_CHECK_MSG(device.busy_until >= now, "aborting an already-completed batch");
      // Refund the unserved remainder: the device was only busy until the
      // crash, not until the batch's scheduled completion.
      device.stats.busy_cycles -= device.busy_until - now;
      device.stats.aborted += static_cast<std::uint64_t>(device.inflight_reqs.size());
      const std::uint32_t di = server.device_index(device);
      if (obs != nullptr) {
        obs->close_busy(di, now, /*aborted=*/true);
      }
      for (QueuedRequest& q : device.inflight_reqs) {
        Outcome& record = records[q.request.id];
        // Strip the dispatch stamps: the record reverts to "admitted, not yet
        // served".
        record.dispatch = 0;
        record.device = 0;
        record.batch_size = 1;
        record.service_cycles = 0;
        record.result.reset();
        ++record.retries;
        const Cycle backoff = options.retry_backoff
                              << std::min<std::uint32_t>(record.retries - 1, 20);
        const Cycle ready = now + backoff;
        bool fail = record.retries > options.retry_budget;
        if (!fail && record.applied_slo_ms > 0.0) {
          const Cycle deadline =
              record.arrival + ms_to_cycles(record.applied_slo_ms, options.clock_ghz);
          fail = ready > deadline;  // the backoff alone already misses the SLO
        }
        if (obs != nullptr) {
          obs::SpanEvent ev;
          ev.request = record.id;
          ev.at = now;
          ev.phase = obs::SpanPhase::kAbort;
          ev.device = di;
          ev.value = record.retries;
          obs->request_event(std::move(ev));
        }
        if (fail) {
          record.failed = true;
          close_unserved(record);
        } else {
          ++record.requeues;
          if (obs != nullptr) {
            obs::SpanEvent ev;
            ev.request = record.id;
            ev.at = now;
            ev.phase = obs::SpanPhase::kRequeue;
            ev.device = di;
            ev.value = ready;
            obs->request_event(std::move(ev));
          }
          requeues.push(Timed<QueuedRequest>{ready, requeue_seq++, std::move(q)});
        }
      }
    }
    device.inflight_ids.clear();
    device.inflight_reqs.clear();
    device.busy_until = 0;
  }

  ServeReport run() {
    while (true) {
      // ---- Next event: earliest of (batch completion, stream or feedback
      // arrival, scheduler window expiry while a device idles, elastic
      // event while work is pending). This is the conservative barrier:
      // nothing past `next` has been simulated, so everything annotated
      // ahead of it stayed pure. ---------------------------------------------
      Cycle next = kNoDeadline;
      bool any_idle = false;
      for (const Device& device : server.devices_) {
        if (!device.inflight_ids.empty()) {
          next = std::min(next, device.busy_until);
        } else if (device.health == DeviceHealth::kActive) {
          any_idle = true;
        }
      }
      next = std::min(next, head());
      if (!feedback.empty()) {
        next = std::min(next, feedback.top().at);
      }
      if (any_idle) {
        next = std::min(next, scheduler->next_ready(now));
      }
      // Elastic events (faults, requeue releases, autoscaler ticks) only
      // matter while there is work for them to act on: gating them on
      // work_pending is what terminates a run with a longer fault schedule
      // than workload, while a pending recover/scale-up still wakes the loop
      // for queued work no current device can take.
      const bool work_pending =
          next != kNoDeadline || scheduler->depth() > 0 || !requeues.empty();
      if (work_pending) {
        next = std::min(next, next_elastic_event());
      }
      if (next == kNoDeadline) {
        if (scheduler->depth() == 0) {
          break;
        }
        // Terminal starvation: queued work, but no active device and nothing
        // left (no recover event, no autoscaler) to ever revive capacity.
        // Fail the stranded queue at the scheduler's own release point and
        // keep looping — failure feedback may reissue closed-loop arrivals.
        const Cycle ready_at = scheduler->next_ready(now);
        if (ready_at != kNoDeadline && ready_at > now) {
          now = ready_at;
        }
        ++events;
        const std::size_t before = scheduler->depth();
        while (std::optional<DispatchBatch> popped = scheduler->pop(now)) {
          for (QueuedRequest& q : popped->requests) {
            records[q.request.id].failed = true;
            close_unserved(records[q.request.id]);
          }
        }
        GNNERATOR_CHECK_MSG(scheduler->depth() < before,
                            "serve loop stalled with queued work");
        continue;
      }
      GNNERATOR_CHECK_MSG(next >= now, "serve event loop time went backwards");
      now = next;
      ++events;

      // ---- Completions (device-index order). ------------------------------
      for (Device& device : server.devices_) {
        if (device.inflight_ids.empty() || device.busy_until != now) {
          continue;
        }
        server.obs_device_complete(device, now);
        for (const std::uint64_t id : device.inflight_ids) {
          records[id].completion = now;
          server.obs_complete(records[id], now);
          if (autoscaler.has_value()) {
            autoscaler->observe(records[id].latency_ms(server.options_.clock_ghz));
          }
          feed_back(records[id]);
        }
        device.inflight_ids.clear();
        device.inflight_reqs.clear();
      }

      // ---- Elastic events due at `now` (before arrivals: a crashed or
      // scaled fleet is what admission and dispatch must see). --------------
      process_elastic();

      // ---- Arrivals at `now`: the sorted stream head beats feedback at
      // equal cycles (every up-front arrival was emitted before any
      // feedback reissue); feedback ties break by push order. ---------------
      while (true) {
        if (head() == now) {
          admit(std::move(buffer[buffer_pos++]));
          continue;
        }
        if (!feedback.empty() && feedback.top().at == now) {
          Annotated a{pop_item(feedback)};
          a.request.arrival = now;
          annotate_serial(a);
          admit(std::move(a));
          continue;
        }
        break;
      }

      // ---- Dispatch (device-index order; affinity places jointly). --------
      if (server.options_.policy == SchedulingPolicy::kAffinity) {
        dispatch_affinity();
      } else {
        for (std::uint32_t di = 0; di < server.devices_.size(); ++di) {
          Device& device = server.devices_[di];
          if (device.health != DeviceHealth::kActive) {
            continue;
          }
          while (device.inflight_ids.empty()) {
            std::optional<DispatchBatch> popped = scheduler->pop(now);
            if (!popped) {
              break;
            }
            if (dispatch_batch_to(device, di, std::move(*popped))) {
              break;  // device occupied; move to the next device
            }
            // fully shed: try the next batch for this device
          }
        }
      }

      depth_stats.add(static_cast<double>(scheduler->depth()));
      max_depth = std::max(max_depth, scheduler->depth());
    }
    GNNERATOR_CHECK_MSG(scheduler->depth() == 0, "serve loop ended with queued work");
    return finish();
  }

  /// Report assembly, plus the end-of-run fleet reset: health/class/slow
  /// factor restored to baselines, ephemeral autoscaler devices erased, so
  /// repeated serve calls see the configured fleet.
  ServeReport finish() {
    ServeReport report;
    report.end_cycle = now;
    report.clock_ghz = server.options_.clock_ghz;
    report.events = events;
    report.scale_ups = scale_ups;
    report.scale_downs = scale_downs;
    Metrics metrics(server.options_.clock_ghz);
    metrics.add_all(records, pool);
    report.metrics = metrics.summary(now);
    report.outcomes = std::move(records);
    report.devices.reserve(server.devices_.size());
    for (Device& device : server.devices_) {
      if (server.obs_ != nullptr && device.health != DeviceHealth::kActive) {
        // Devices ending the run crashed / scaled out close their trailing
        // health interval here (active time needs no span — busy spans and
        // the run bounds cover it).
        server.obs_->health_span(server.device_index(device),
                                 device.health == DeviceHealth::kCrashed
                                     ? obs::DeviceSpanKind::kCrashed
                                     : obs::DeviceSpanKind::kParked,
                                 device.health_since, now);
      }
      server.flush_device_accounting(device, now);
      device.stats.klass =
          device.klass == kNoClass ? "" : server.device_classes_[device.klass].name;
      report.devices.push_back(device.stats);
      // Reset for the next serve() run: stats restart, and the fleet reverts
      // to its configured baseline (in-run fault/autoscaler mutations are
      // per-run; public add/remove/reclass_device set the baselines).
      device.stats = DeviceStats{};
      device.busy_until = 0;
      device.health = device.baseline_health;
      device.klass = device.baseline_klass;
      device.slow_factor = 1.0;
      device.health_since = 0;
      device.inflight_ids.clear();
      device.inflight_reqs.clear();
    }
    std::erase_if(server.devices_, [](const Device& device) { return device.ephemeral; });
    report.plan_cache = server.plan_cache_->stats();
    report.feature_cache_enabled = server.options_.feature_cache.has_value();
    for (const auto& [name, cache] : server.feature_caches_) {
      report.feature_cache.merge(cache.stats());
    }
    report.mean_queue_depth = depth_stats.count() > 0 ? depth_stats.mean() : 0.0;
    report.max_queue_depth = max_depth;
    if (server.obs_ != nullptr) {
      server.obs_finish_run(report, now);
    }
    return report;
  }
};

ServeReport Server::serve(WorkloadSource& workload) {
  util::ThreadPool* pool = nullptr;
  if (options_.sim_threads != 1) {
    if (!pool_) {
      pool_ = std::make_unique<util::ThreadPool>(options_.sim_threads);
    }
    if (pool_->parallelism() > 1) {
      pool = pool_.get();
    }
  }
  obs_begin_run();
  Pipeline pipeline(*this, workload, pool);
  return pipeline.run();
}

}  // namespace gnnerator::serve
