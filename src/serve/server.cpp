#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/prng.hpp"

namespace gnnerator::serve {

namespace {

/// Event cap of the sim::Tracer used for engine-span capture (one traced
/// execution per distinct class; a truncated capture just loses tail
/// windows, never correctness).
constexpr std::size_t kEngineTraceCap = 1u << 20;

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      obs_(options_.recorder.get()),
      plan_cache_(std::make_shared<core::PlanCache>(options_.plan_cache_capacity)),
      cost_oracle_(options_.cost_oracle) {
  GNNERATOR_CHECK_MSG(options_.clock_ghz > 0.0, "server needs a positive device clock");

  request_classes_ = options_.classes;
  if (request_classes_.empty()) {
    request_classes_.push_back(RequestClass{});
  }
  for (std::size_t i = 0; i < request_classes_.size(); ++i) {
    const RequestClass& klass = request_classes_[i];
    GNNERATOR_CHECK_MSG(!klass.name.empty(), "request class " << i << " needs a name");
    GNNERATOR_CHECK_MSG(klass.weight > 0.0,
                        "request class '" << klass.name << "' needs a positive weight");
    for (std::size_t j = 0; j < i; ++j) {
      GNNERATOR_CHECK_MSG(request_classes_[j].name != klass.name,
                          "duplicate request class '" << klass.name << "'");
    }
  }

  device_classes_ = options_.fleet;
  std::size_t total_devices = options_.num_devices;
  if (!device_classes_.empty()) {
    total_devices = 0;
    for (const DeviceClass& klass : device_classes_) {
      GNNERATOR_CHECK_MSG(!klass.name.empty(), "device class needs a name");
      GNNERATOR_CHECK_MSG(klass.count > 0,
                          "device class '" << klass.name << "' has count 0");
      GNNERATOR_CHECK_MSG(klass.effective_clock_ghz() > 0.0,
                          "device class '" << klass.name << "' needs a positive clock");
      klass.config.validate();
      total_devices += klass.count;
    }
  }
  GNNERATOR_CHECK_MSG(total_devices > 0, "server needs at least one device");
  // One exec-memo slot per device class (a single shared slot on a legacy
  // fleet); intern_device_class appends slots for classes added later.
  const std::size_t slots = device_classes_.empty() ? 1 : device_classes_.size();
  results_by_id_.resize(slots);
  estimates_by_id_.resize(slots);

  devices_.reserve(total_devices);
  if (device_classes_.empty()) {
    for (std::size_t d = 0; d < total_devices; ++d) {
      append_device(kNoClass, /*ephemeral=*/false, /*now=*/0);
    }
  } else {
    for (std::size_t ci = 0; ci < device_classes_.size(); ++ci) {
      for (std::size_t d = 0; d < device_classes_[ci].count; ++d) {
        append_device(ci, /*ephemeral=*/false, /*now=*/0);
      }
    }
  }

  if (options_.autoscale.has_value()) {
    // Construct once to validate the options up front (each run builds its
    // own instance).
    (void)Autoscaler(*options_.autoscale, options_.clock_ghz);
  }
}

std::size_t Server::append_device(std::size_t klass, bool ephemeral, Cycle now) {
  core::EngineOptions engine_options;
  // Device workers are simulated serially inside the deterministic event
  // loop; threads would only perturb nothing and cost context switches.
  engine_options.num_threads = 1;
  engine_options.shared_plan_cache = plan_cache_;
  Device device;
  device.engine = std::make_unique<core::Engine>(engine_options);
  device.klass = klass;
  device.baseline_klass = klass;
  device.ephemeral = ephemeral;
  device.health_since = now;
  for (const auto& [name, entry] : datasets_) {
    device.engine->add_dataset(entry.dataset, entry.fingerprint);
  }
  devices_.push_back(std::move(device));
  if (obs_ != nullptr) {
    // Mid-run scale-ups extend the recorder's lane list; device_added
    // ignores the constructor-time appends (no run in progress).
    obs_->device_added(obs_device_label(devices_.size() - 1));
  }
  return devices_.size() - 1;
}

std::size_t Server::intern_device_class(std::string_view name) {
  GNNERATOR_CHECK_MSG(!device_classes_.empty(),
                      "device classes need a classed fleet (ServerOptions::fleet)");
  for (std::size_t ci = 0; ci < device_classes_.size(); ++ci) {
    if (device_classes_[ci].name == name) {
      return ci;
    }
  }
  std::optional<DeviceClass> klass = find_device_class(name);
  GNNERATOR_CHECK_MSG(klass.has_value(), "unknown device class '" << name << "'");
  klass->count = 0;  // registry entry only; no configured workers
  klass->config.validate();
  device_classes_.push_back(std::move(*klass));
  // Keep the id-indexed exec-memo views in lockstep with the registry (a
  // reclass mid-run must not index past the slot vectors).
  while (results_by_id_.size() < device_classes_.size()) {
    results_by_id_.emplace_back(plan_classes_.size());
    estimates_by_id_.emplace_back(plan_classes_.size(), kNoEstimate);
  }
  return device_classes_.size() - 1;
}

std::size_t Server::add_device(std::string_view klass) {
  if (device_classes_.empty()) {
    GNNERATOR_CHECK_MSG(klass.empty(),
                        "legacy fleets have no device classes; add_device() takes no name");
    return append_device(kNoClass, /*ephemeral=*/false, /*now=*/0);
  }
  GNNERATOR_CHECK_MSG(!klass.empty(), "classed fleets add devices by class name");
  return append_device(intern_device_class(klass), /*ephemeral=*/false, /*now=*/0);
}

void Server::remove_device(std::size_t device) {
  GNNERATOR_CHECK_MSG(device < devices_.size(),
                      "remove_device(" << device << ") on a fleet of " << devices_.size());
  std::size_t active = 0;
  for (const Device& d : devices_) {
    active += d.health == DeviceHealth::kActive ? 1 : 0;
  }
  GNNERATOR_CHECK_MSG(devices_[device].health != DeviceHealth::kActive || active > 1,
                      "cannot remove the last active device");
  devices_[device].health = DeviceHealth::kRemoved;
  devices_[device].baseline_health = DeviceHealth::kRemoved;
}

void Server::reclass_device(std::size_t device, std::string_view klass) {
  GNNERATOR_CHECK_MSG(device < devices_.size(),
                      "reclass_device(" << device << ") on a fleet of " << devices_.size());
  const std::size_t ci = intern_device_class(klass);
  devices_[device].klass = ci;
  devices_[device].baseline_klass = ci;
}

DeviceHealth Server::device_health(std::size_t device) const {
  GNNERATOR_CHECK(device < devices_.size());
  return devices_[device].health;
}

const graph::Dataset& Server::add_dataset(graph::Dataset dataset) {
  RegisteredDataset entry;
  entry.dataset = std::make_shared<const graph::Dataset>(std::move(dataset));
  entry.fingerprint = core::graph_fingerprint(entry.dataset->graph);
  for (Device& device : devices_) {
    device.engine->add_dataset(entry.dataset, entry.fingerprint);
  }
  const std::string name = entry.dataset->spec.name;
  auto [it, inserted] = datasets_.insert_or_assign(name, std::move(entry));
  return *it->second.dataset;
}

bool Server::has_dataset(std::string_view name) const {
  return datasets_.find(name) != datasets_.end();
}

const Server::RegisteredDataset& Server::registered(const std::string& name) const {
  const auto it = datasets_.find(name);
  GNNERATOR_CHECK_MSG(it != datasets_.end(), "no dataset registered as '" << name << "'");
  return it->second;
}

core::SimulationRequest Server::sim_for_device(const core::SimulationRequest& sim,
                                               const Device& device) const {
  core::SimulationRequest swapped = sim;
  if (device.klass != kNoClass) {
    swapped.config = device_classes_[device.klass].config;
  }
  return swapped;
}

core::SimulationRequest Server::canonical_sim(const core::SimulationRequest& sim) const {
  // Heterogeneous fleet: the canonical (first) class's config stands in for
  // the request's, so two requests are plan-compatible iff they match in
  // every config-independent dimension — the partition is the same whatever
  // fixed config is substituted.
  core::SimulationRequest canonical = sim;
  if (!device_classes_.empty()) {
    canonical.config = device_classes_.front().config;
  }
  return canonical;
}

std::string Server::class_key(const core::SimulationRequest& sim) const {
  const std::string& fingerprint = registered(sim.dataset).fingerprint;
  // Per-arrival hot path: a legacy fleet keys the request as-is, no copy.
  return device_classes_.empty() ? request_class_key(fingerprint, sim)
                                 : request_class_key(fingerprint, canonical_sim(sim));
}

std::uint64_t Server::cost_estimate(const core::SimulationRequest& sim) {
  const RegisteredDataset& dataset = registered(sim.dataset);
  const core::SimulationRequest canonical = canonical_sim(sim);
  return cost_oracle_.analytic(*dataset.dataset, canonical,
                               request_class_key(dataset.fingerprint, canonical));
}

std::uint64_t Server::calibrated_cost_estimate(const core::SimulationRequest& sim) {
  return blended_cost(cost_estimate(sim), class_key(sim));
}

std::uint64_t Server::blended_cost(std::uint64_t analytic, const std::string& class_key) const {
  // Oracle windows are keyed (plan class, execution identity), where the
  // execution identity is the plan-class key under the executing device's
  // config (exec_key). The canonical estimate is priced under the canonical
  // class's config — exactly what `class_key` itself encodes — so the
  // canonical execution identity *is* the class key. Keying by config
  // identity rather than class name is what lets two identically-configured
  // device classes share measurements (the identical-class differential in
  // tests/serve_property_test.cpp holds bitwise).
  return cost_oracle_.blend(analytic, class_key, class_key);
}

Cycle Server::to_server_cycles(const Device& device, std::uint64_t device_cycles) const {
  if (device.klass == kNoClass) {
    return device_cycles;
  }
  const double ratio = options_.clock_ghz / device_classes_[device.klass].effective_clock_ghz();
  if (ratio == 1.0) {
    return device_cycles;
  }
  return static_cast<Cycle>(std::llround(static_cast<double>(device_cycles) * ratio));
}

std::uint64_t Server::device_cost_estimate(const core::SimulationRequest& sim,
                                           std::size_t device_index) {
  GNNERATOR_CHECK(device_index < devices_.size());
  Device& device = devices_[device_index];
  const RegisteredDataset& dataset = registered(sim.dataset);
  const core::SimulationRequest swapped = sim_for_device(sim, device);
  const std::string key = request_class_key(dataset.fingerprint, swapped);
  const std::uint64_t device_cycles = cost_oracle_.analytic(*dataset.dataset, swapped, key);
  return to_server_cycles(device, device_cycles) + options_.per_request_overhead;
}

std::uint64_t Server::calibrated_device_cost_estimate(const core::SimulationRequest& sim,
                                                      std::size_t device_index) {
  GNNERATOR_CHECK(device_index < devices_.size());
  const Device& device = devices_[device_index];
  const RegisteredDataset& dataset = registered(sim.dataset);
  // The execution identity under this device — what exec_key computes for a
  // queued request.
  const std::string identity =
      request_class_key(dataset.fingerprint, sim_for_device(sim, device));
  const auto exact = cost_oracle_.measured(class_key(sim), identity);
  if (exact.has_value()) {
    return to_server_cycles(device, *exact) + options_.per_request_overhead;
  }
  return device_cost_estimate(sim, device_index);
}

std::uint64_t Server::device_class_cycles(const QueuedRequest& queued, const Device& device) {
  // Indexed by the request's interned id: sampled requests intern per exact
  // (per-frontier) key, since requests in one fuse class still differ in
  // subgraph shape, hence in cost.
  std::uint64_t& device_cycles = estimates_by_id_[exec_slot(device)][queued.class_id];
  if (device_cycles != kNoEstimate) {
    return device_cycles;
  }
  const core::SimulationRequest swapped = sim_for_device(queued.request.sim, device);
  const RegisteredDataset& base = registered(queued.request.sim.dataset);
  if (queued.sampled != nullptr) {
    const std::string key = request_class_key(
        base.fingerprint + "~s" + queued.sampled->frontier->fingerprint, swapped);
    device_cycles = cost_oracle_.analytic(*queued.sampled->dataset, swapped, key);
  } else {
    device_cycles = cost_oracle_.analytic(*base.dataset, swapped, exec_key(queued, device));
  }
  return device_cycles;
}

Cycle Server::placement_estimate(const QueuedRequest& queued, const Device& device) {
  // Priced even when a measurement wins below: the analytic memo entry is
  // part of the oracle state (CostOracle::state_fingerprint).
  const Cycle analytic_estimate =
      to_server_cycles(device, device_class_cycles(queued, device)) +
      options_.per_request_overhead;
  if (queued.sampled != nullptr) {
    // Sampled requests execute as fused compositions; the per-composition
    // windows say nothing exact about one frontier, so placement stays on
    // the analytic per-frontier estimate.
    return analytic_estimate;
  }
  const auto exact = cost_oracle_.measured(queued.class_key, exec_key(queued, device));
  if (!exact.has_value()) {
    return analytic_estimate;
  }
  return to_server_cycles(device, *exact) + options_.per_request_overhead;
}

void Server::oracle_observe_dispatch(const Device& device, const DispatchBatch& batch) {
  if (batch.requests.empty() || batch.requests.front().sampled != nullptr) {
    return;  // fused sampled executions are not per-class measurements
  }
  std::vector<const std::string*> seen;
  seen.reserve(batch.requests.size());
  for (const QueuedRequest& q : batch.requests) {
    const bool dup = std::any_of(seen.begin(), seen.end(),
                                 [&](const std::string* k) { return *k == q.class_key; });
    if (dup) {
      continue;
    }
    seen.push_back(&q.class_key);
    const std::string& identity = exec_key(q, device);
    const auto it = class_results_.find(identity);
    GNNERATOR_CHECK_MSG(it != class_results_.end(), "dispatch committed without class result");
    cost_oracle_.observe(q.class_key, identity, it->second->cycles);
  }
}

std::uint64_t Server::wfq_charge_cost(const DispatchBatch& batch, const Device& device) {
  std::uint64_t cost = 0;
  for (const QueuedRequest& q : batch.requests) {
    std::uint64_t per_request = 0;
    if (q.sampled != nullptr) {
      // Fused sampled work: charge the queue-time estimate — the fused
      // composition has no per-request measured counterpart.
      per_request = q.cost_estimate;
    } else {
      const std::uint64_t raw = device_class_cycles(q, device);
      per_request = cost_oracle_.blend(raw, q.class_key, exec_key(q, device));
    }
    cost += std::max<std::uint64_t>(per_request, 1);
  }
  return cost;
}

const std::string& Server::exec_key(const QueuedRequest& queued, const Device& device) {
  if (device.klass == kNoClass) {
    return queued.class_key;
  }
  std::string memo_key = std::to_string(device.klass);
  memo_key += '|';
  memo_key += queued.class_key;
  auto it = exec_keys_.find(memo_key);
  if (it == exec_keys_.end()) {
    const core::SimulationRequest swapped = sim_for_device(queued.request.sim, device);
    const RegisteredDataset& dataset = registered(swapped.dataset);
    it = exec_keys_
             .emplace(std::move(memo_key), request_class_key(dataset.fingerprint, swapped))
             .first;
  }
  return it->second;
}

// ---- Sampled mini-batch serving (see server.hpp). --------------------------

std::string Server::sampled_memo_key(const Request& request) const {
  std::string key = class_key(request.sim);
  key += '|';
  key += std::to_string(request.seed);
  key += '|';
  key += request.fanout;
  return key;
}

std::shared_ptr<const SampledQuery> Server::make_sampled_query(const Request& request) const {
  const RegisteredDataset& base = registered(request.sim.dataset);
  const graph::Graph& g = base.dataset->graph;
  GNNERATOR_CHECK_MSG(request.seed >= 0 &&
                          static_cast<std::uint64_t>(request.seed) < g.num_nodes(),
                      "sampled request seed " << request.seed << " out of range for V="
                                              << g.num_nodes());
  const graph::FanoutSpec fanout = graph::parse_fanout(request.fanout);

  // The sampling PRNG is a pure function of (dataset, seed vertex, canonical
  // fanout): two requests for the same seed draw the identical subgraph, so
  // they share one memo entry, one cost estimate, and one frontier block
  // inside a fused batch — the determinism contract sampled replays rest
  // on.
  util::Fnv1a fnv;
  // Each character mixed as a 64-bit word: the seed derivation every pinned
  // sampled fingerprint was recorded with.
  for (const char c : base.fingerprint) {
    fnv.mix(static_cast<unsigned char>(c));
  }
  fnv.mix(static_cast<std::uint64_t>(request.seed));
  for (const std::uint32_t f : fanout.per_hop) {
    fnv.mix(f);
  }
  util::Prng prng(fnv.value());

  auto query = std::make_shared<SampledQuery>();
  query->frontier = std::make_shared<const graph::SampledSubgraph>(graph::sample_frontier(
      g, {static_cast<graph::NodeId>(request.seed)}, fanout, prng));
  query->dataset = std::make_shared<const graph::Dataset>(
      graph::subgraph_dataset(*base.dataset, *query->frontier));

  const core::SimulationRequest canonical = canonical_sim(request.sim);
  // The fuse key replaces the dataset fingerprint with (base ~f fanout):
  // seed-independent, so distinct frontiers of one (dataset, fanout, model,
  // config, dataflow) class batch together. The exact key embeds the
  // frontier fingerprint: the identity cost/result memos key on.
  query->fuse_key =
      request_class_key(base.fingerprint + "~f" + fanout.canonical(), canonical);
  query->exact_key =
      request_class_key(base.fingerprint + "~s" + query->frontier->fingerprint, canonical);
  return query;
}

std::shared_ptr<const SampledQuery> Server::sampled_lookup(const std::string& memo_key) const {
  const auto it = sample_memo_.find(memo_key);
  return it == sample_memo_.end() ? nullptr : it->second;
}

std::shared_ptr<const SampledQuery> Server::publish_sampled(
    std::string memo_key, std::shared_ptr<const SampledQuery> query) {
  const auto [it, inserted] = sample_memo_.try_emplace(std::move(memo_key), std::move(query));
  return it->second;
}

std::vector<const SampledQuery*> Server::sampled_composition(const DispatchBatch& batch) {
  std::vector<const SampledQuery*> parts;
  parts.reserve(batch.requests.size());
  for (const QueuedRequest& q : batch.requests) {
    GNNERATOR_CHECK_MSG(q.sampled != nullptr, "sampled batch mixes full-graph requests");
    const bool seen = std::any_of(parts.begin(), parts.end(), [&](const SampledQuery* p) {
      return p->frontier->fingerprint_value == q.sampled->frontier->fingerprint_value;
    });
    if (!seen) {
      parts.push_back(q.sampled.get());
    }
  }
  return parts;
}

std::string Server::sampled_exec_key(const Device& device, const DispatchBatch& batch) const {
  util::Fnv1a fnv;
  const std::vector<const SampledQuery*> parts = sampled_composition(batch);
  fnv.mix(parts.size());
  for (const SampledQuery* p : parts) {
    fnv.mix(p->frontier->fingerprint_value);
  }
  std::string key =
      device.klass == kNoClass ? std::string("L") : std::to_string(device.klass);
  key += '|';
  key += batch.requests.front().class_key;  // the fuse class
  key += '|';
  key += util::hex64(fnv.value());
  return key;
}

void Server::ensure_sampled_results(Device& device, const DispatchBatch& batch) {
  const std::string key = sampled_exec_key(device, batch);
  if (sampled_results_.contains(key)) {
    return;
  }
  const std::vector<const SampledQuery*> parts = sampled_composition(batch);
  const QueuedRequest& front = batch.requests.front();
  const core::SimulationRequest sim = sim_for_device(front.request.sim, device);
  sim::Tracer tracer;
  sim::Tracer* tp = nullptr;
  if (obs_wants_engine_spans()) {
    tracer.enable(kEngineTraceCap);
    tp = &tracer;
  }
  core::ExecutionResult result;
  if (parts.size() == 1) {
    result = device.engine->run(*parts.front()->dataset, sim.model, sim, tp);
  } else {
    // Mixed-batch fusion: one block-diagonal subgraph, one compiled plan,
    // one device pass for every distinct frontier in the batch.
    std::vector<const graph::SampledSubgraph*> frontiers;
    frontiers.reserve(parts.size());
    for (const SampledQuery* p : parts) {
      frontiers.push_back(p->frontier.get());
    }
    const graph::SampledSubgraph fused = graph::fuse_subgraphs(frontiers);
    const RegisteredDataset& base = registered(front.request.sim.dataset);
    const graph::Dataset fused_dataset = graph::subgraph_dataset(*base.dataset, fused);
    result = device.engine->run(fused_dataset, sim.model, sim, tp);
  }
  if (tp != nullptr) {
    obs_->store_engine_windows(key, obs::Recorder::windows_from_tracer(tracer));
  }
  if (!options_.collect_results) {
    result.output.reset();
  }
  sampled_results_.emplace(key,
                           std::make_shared<const core::ExecutionResult>(std::move(result)));
}

FeatureCache* Server::feature_cache_for(const QueuedRequest& queued) {
  if (!options_.feature_cache.has_value()) {
    return nullptr;
  }
  const std::string& name = queued.request.sim.dataset;
  auto it = feature_caches_.find(name);
  if (it == feature_caches_.end()) {
    // Lazy build at the first sampled dispatch against this dataset — a
    // deterministic sequential point — under the triggering
    // request's fanout and the fleet's canonical DRAM model (the request's
    // own on a legacy fleet).
    const RegisteredDataset& base = registered(name);
    const mem::DramModel::Config& dram = device_classes_.empty()
                                             ? queued.request.sim.config.dram
                                             : device_classes_.front().config.dram;
    it = feature_caches_
             .try_emplace(name, *base.dataset, graph::parse_fanout(queued.request.fanout),
                          *options_.feature_cache, dram)
             .first;
  }
  return &it->second;
}

void Server::sampled_gather_rows(const DispatchBatch& batch,
                                 std::vector<graph::NodeId>& rows) {
  rows.clear();
  for (const SampledQuery* p : sampled_composition(batch)) {
    rows.insert(rows.end(), p->frontier->vertices.begin(), p->frontier->vertices.end());
  }
}

Cycle Server::sampled_batch_service(Device& device, const DispatchBatch& batch) {
  const auto it = sampled_results_.find(sampled_exec_key(device, batch));
  GNNERATOR_CHECK_MSG(it != sampled_results_.end(), "sampled result missing at dispatch");
  std::uint64_t device_cycles = it->second->cycles;
  if (FeatureCache* cache = feature_cache_for(batch.requests.front())) {
    std::vector<graph::NodeId> rows;
    sampled_gather_rows(batch, rows);
    device_cycles += cache->probe(rows).cycles;
  }
  return scaled_service(device,
                        to_server_cycles(device, device_cycles) +
                            options_.per_request_overhead *
                                static_cast<Cycle>(batch.requests.size()));
}

void Server::commit_sampled_gather(const DispatchBatch& batch) {
  if (FeatureCache* cache = feature_cache_for(batch.requests.front())) {
    std::vector<graph::NodeId> rows;
    sampled_gather_rows(batch, rows);
    cache->commit(rows);
  }
}

std::shared_ptr<const core::ExecutionResult> Server::sampled_result_for(
    const QueuedRequest& queued, Device& device, const DispatchBatch& batch) {
  const auto it = sampled_results_.find(sampled_exec_key(device, batch));
  GNNERATOR_CHECK_MSG(it != sampled_results_.end(), "sampled result missing at completion");
  const std::shared_ptr<const core::ExecutionResult>& fused = it->second;
  if (!fused->output.has_value()) {
    return fused;  // timing mode: nothing to scatter
  }
  // Scatter: the request's rows are its seed vertices inside its own block
  // of the fused output (block offset = sum of preceding block sizes).
  const std::vector<const SampledQuery*> parts = sampled_composition(batch);
  std::size_t offset = 0;
  const graph::SampledSubgraph* frontier = nullptr;
  for (const SampledQuery* p : parts) {
    if (p->frontier->fingerprint_value == queued.sampled->frontier->fingerprint_value) {
      frontier = p->frontier.get();
      break;
    }
    offset += p->frontier->vertices.size();
  }
  GNNERATOR_CHECK_MSG(frontier != nullptr, "request's frontier missing from its batch");
  const gnn::Tensor& full = *fused->output;
  gnn::Tensor scattered(frontier->seeds.size(), full.cols());
  for (std::size_t s = 0; s < frontier->seeds.size(); ++s) {
    const std::span<const float> src = full.row(offset + frontier->seeds[s]);
    std::copy(src.begin(), src.end(), scattered.row(s).begin());
  }
  core::ExecutionResult result;
  result.cycles = fused->cycles;
  result.stats = fused->stats;
  result.kernel_cycles_ticked = fused->kernel_cycles_ticked;
  result.kernel_cycles_skipped = fused->kernel_cycles_skipped;
  result.output = std::move(scattered);
  return std::make_shared<const core::ExecutionResult>(std::move(result));
}

void Server::ensure_class_results(Device& device, const DispatchBatch& batch) {
  auto& slot = results_by_id_[exec_slot(device)];
  std::vector<std::uint32_t> missing_cids;
  std::vector<const QueuedRequest*> missing_reps;
  for (const QueuedRequest& q : batch.requests) {
    if (slot[q.class_id] != nullptr) {
      continue;
    }
    // Identically configured device classes share an execution identity:
    // adopt a result another slot already paid for.
    const std::string& key = exec_key(q, device);
    if (const auto it = class_results_.find(key); it != class_results_.end()) {
      slot[q.class_id] = it->second;
      continue;
    }
    if (std::find(missing_cids.begin(), missing_cids.end(), q.class_id) ==
        missing_cids.end()) {
      missing_cids.push_back(q.class_id);
      missing_reps.push_back(&q);
    }
  }
  if (missing_cids.empty()) {
    return;
  }
  // One run_batch per dispatch covers every distinct class the batch needs;
  // the shared plan cache means at most one compile across the whole fleet.
  std::vector<core::SimulationRequest> sims;
  sims.reserve(missing_reps.size());
  for (const QueuedRequest* q : missing_reps) {
    sims.push_back(sim_for_device(q->request.sim, device));
  }
  std::vector<core::ExecutionResult> results;
  if (obs_wants_engine_spans()) {
    // Engine-span capture: serial traced executions (results are identical
    // to run_batch — each batch slot runs its functional arithmetic
    // serially anyway), memoizing each class's window template.
    results.reserve(sims.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
      results.push_back(obs_traced_run(device, sims[i], exec_key(*missing_reps[i], device)));
    }
  } else {
    results = device.engine->run_batch(sims);
  }
  for (std::size_t i = 0; i < missing_cids.size(); ++i) {
    if (!options_.collect_results) {
      // The memo only has to answer "how many cycles does this class
      // occupy a device for"; without collect_results, dropping the
      // functional output keeps a long mixed-seed run from pinning one
      // [V x out_dim] tensor per class forever.
      results[i].output.reset();
    }
    auto shared = std::make_shared<const core::ExecutionResult>(std::move(results[i]));
    class_results_.emplace(exec_key(*missing_reps[i], device), shared);
    slot[missing_cids[i]] = std::move(shared);
  }
}

Cycle Server::batch_service_cycles(const Device& device, const DispatchBatch& batch) const {
  // One accelerator execution per distinct class (coalesced requests share
  // it), plus the per-request dispatch/response overhead. Device cycles are
  // converted onto the server timeline through the class clock.
  const auto& slot = results_by_id_[exec_slot(device)];
  std::uint64_t device_cycles = 0;
  std::vector<std::uint32_t> seen;
  seen.reserve(batch.requests.size());
  for (const QueuedRequest& q : batch.requests) {
    if (std::find(seen.begin(), seen.end(), q.class_id) != seen.end()) {
      continue;
    }
    seen.push_back(q.class_id);
    GNNERATOR_CHECK_MSG(slot[q.class_id] != nullptr, "class result missing at dispatch");
    device_cycles += slot[q.class_id]->cycles;
  }
  return scaled_service(device,
                        to_server_cycles(device, device_cycles) +
                            options_.per_request_overhead *
                                static_cast<Cycle>(batch.requests.size()));
}

Cycle Server::scaled_service(const Device& device, Cycle cycles) const {
  if (device.slow_factor == 1.0) {
    return cycles;
  }
  return static_cast<Cycle>(
      std::llround(static_cast<double>(cycles) / device.slow_factor));
}

// ---- Observability hooks (see server.hpp). ---------------------------------

void Server::obs_begin_run() {
  if (obs_ == nullptr) {
    return;
  }
  obs::RunInfo info;
  info.clock_ghz = options_.clock_ghz;
  info.devices.reserve(devices_.size());
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    info.devices.push_back(obs_device_label(di));
  }
  info.request_classes.reserve(request_classes_.size());
  for (const RequestClass& klass : request_classes_) {
    info.request_classes.push_back(klass.name);
  }
  obs_->begin_run(std::move(info));
}

std::string Server::obs_device_label(std::size_t device) const {
  std::string label = "dev" + std::to_string(device);
  const std::size_t klass = devices_[device].klass;
  if (klass != kNoClass) {
    label += " [" + device_classes_[klass].name + "]";
  }
  return label;
}

const std::string& Server::obs_device_class_name(const Device& device) const {
  static const std::string kLegacy = "legacy";
  return device.klass == kNoClass ? kLegacy : device_classes_[device.klass].name;
}

void Server::obs_admit(const Outcome& record, std::size_t tier, const SampledQuery* sampled) {
  if (obs_ == nullptr || !obs_->options().request_spans) {
    return;
  }
  obs::SpanEvent ev;
  ev.request = record.id;
  ev.at = record.arrival;
  ev.phase = obs::SpanPhase::kAdmit;
  ev.tier = static_cast<std::uint32_t>(tier);
  ev.detail = record.class_key;
  obs_->request_event(std::move(ev));
  if (sampled != nullptr) {
    obs::SpanEvent sev;
    sev.request = record.id;
    sev.at = record.arrival;
    sev.phase = obs::SpanPhase::kSample;
    sev.value = static_cast<std::uint64_t>(sampled->frontier->vertices.size());
    sev.detail = sampled->frontier->fingerprint;
    obs_->request_event(std::move(sev));
  }
}

void Server::obs_terminal(const Outcome& record, Cycle now) {
  if (obs_ == nullptr) {
    return;
  }
  const obs::RecorderOptions& opts = obs_->options();
  if (opts.request_spans) {
    obs::SpanEvent ev;
    ev.request = record.id;
    ev.at = now;
    ev.phase = record.shed ? obs::SpanPhase::kShed : obs::SpanPhase::kFail;
    obs_->request_event(std::move(ev));
  }
  if (opts.device_timeline || opts.request_spans) {
    obs::Mark m;
    m.at = now;
    m.kind = record.shed ? obs::MarkKind::kShed : obs::MarkKind::kFail;
    m.value = record.id;
    obs_->mark(std::move(m));
  }
}

void Server::obs_dispatch(Device& device, const DispatchBatch& batch, Cycle now) {
  if (obs_ == nullptr) {
    return;
  }
  const std::uint32_t di = device_index(device);
  const obs::RecorderOptions& opts = obs_->options();
  if (opts.request_spans) {
    for (const QueuedRequest& q : batch.requests) {
      obs::SpanEvent ev;
      ev.request = q.request.id;
      ev.at = now;
      ev.phase = obs::SpanPhase::kDispatch;
      ev.device = di;
      ev.value = static_cast<std::uint64_t>(batch.requests.size());
      obs_->request_event(std::move(ev));
    }
  }
  // Measured execution windows (cost-oracle feed) and, when captured, the
  // engine compute sub-spans — one entry per distinct class in the batch,
  // anchored back-to-back at `now` exactly as the service-time sum prices
  // them. All lookups hit memos warmed by the dispatch that called this.
  std::vector<obs::EngineWindow> windows;
  if (opts.exec_windows || (opts.engine_spans && opts.device_timeline)) {
    const std::string& dclass = obs_device_class_name(device);
    const bool sampled = batch.requests.front().sampled != nullptr;
    const auto anchor = [&](const std::string& key, Cycle offset) {
      const std::vector<obs::EngineWindow>* tmpl = obs_->engine_windows(key);
      if (tmpl == nullptr) {
        return;
      }
      for (const obs::EngineWindow& w : *tmpl) {
        obs::EngineWindow abs = w;
        abs.begin = now + offset + scaled_service(device, to_server_cycles(device, w.begin));
        abs.end = now + offset + scaled_service(device, to_server_cycles(device, w.end));
        windows.push_back(std::move(abs));
      }
    };
    if (sampled) {
      const std::string key = sampled_exec_key(device, batch);
      const auto it = sampled_results_.find(key);
      GNNERATOR_CHECK_MSG(it != sampled_results_.end(),
                          "sampled result missing at obs dispatch");
      obs_->record_exec_window(batch.requests.front().class_key, dclass, it->second->cycles);
      if (opts.engine_spans && opts.device_timeline) {
        anchor(key, 0);
      }
    } else {
      Cycle offset = 0;
      std::vector<const std::string*> seen;
      for (const QueuedRequest& q : batch.requests) {
        const std::string& key = exec_key(q, device);
        const bool counted = std::any_of(seen.begin(), seen.end(),
                                         [&](const std::string* k) { return *k == key; });
        if (counted) {
          continue;
        }
        seen.push_back(&key);
        const auto it = class_results_.find(key);
        GNNERATOR_CHECK_MSG(it != class_results_.end(),
                            "class result missing at obs dispatch");
        obs_->record_exec_window(q.class_key, dclass, it->second->cycles);
        if (opts.engine_spans && opts.device_timeline) {
          anchor(key, offset);
        }
        offset += scaled_service(device, to_server_cycles(device, it->second->cycles));
      }
    }
  }
  if (opts.device_timeline) {
    obs_->open_busy(di, now, static_cast<std::uint32_t>(batch.requests.size()),
                    batch.requests.front().class_key);
    if (!windows.empty()) {
      obs_->attach_windows(di, std::move(windows));
    }
  }
}

void Server::obs_device_complete(const Device& device, Cycle now) {
  if (obs_ == nullptr) {
    return;
  }
  obs_->close_busy(device_index(device), now, /*aborted=*/false);
}

void Server::obs_complete(const Outcome& record, Cycle now) {
  if (obs_ == nullptr || !obs_->options().request_spans) {
    return;
  }
  obs::SpanEvent ev;
  ev.request = record.id;
  ev.at = now;
  ev.phase = obs::SpanPhase::kComplete;
  ev.device = record.device;
  ev.value = record.service_cycles;
  obs_->request_event(std::move(ev));
}

core::ExecutionResult Server::obs_traced_run(Device& device,
                                             const core::SimulationRequest& sim,
                                             const std::string& exec_key) {
  sim::Tracer tracer;
  tracer.enable(kEngineTraceCap);
  core::ExecutionResult result = device.engine->run(sim, &tracer);
  obs_->store_engine_windows(exec_key, obs::Recorder::windows_from_tracer(tracer));
  return result;
}

void Server::obs_finish_run(ServeReport& report, Cycle now) {
  obs_->end_run(now);
  if (!obs_->options().any()) {
    return;  // null sink: no streams, no registry publication
  }
  if (obs_->options().exec_windows) {
    report.exec_windows = obs_->exec_window_log().snapshot();
  }

  // ---- Registry publication: the report's numbers, renamed into
  // Prometheus conventions. Counters accumulate across runs; gauges hold the
  // latest run. Deterministic: everything below derives from the report.
  obs::Registry& reg = obs_->registry();
  const MetricsSummary& m = report.metrics;
  reg.counter("serve_runs_total", "Serve runs recorded into this registry").add(1.0);
  reg.counter("serve_requests_total", {{"outcome", "completed"}},
              "Admitted requests by terminal outcome")
      .add(static_cast<std::uint64_t>(m.completed));
  reg.counter("serve_requests_total", {{"outcome", "shed"}}).add(static_cast<std::uint64_t>(m.shed));
  reg.counter("serve_requests_total", {{"outcome", "failed"}})
      .add(static_cast<std::uint64_t>(m.failed));
  reg.counter("serve_retries_total", "Fault-induced aborts").add(m.retries);
  reg.counter("serve_requeues_total", "Aborted requests requeued after backoff")
      .add(m.requeues);
  reg.counter("serve_events_total", "Discrete-event scheduling points").add(report.events);
  reg.counter("serve_scale_ops_total", {{"direction", "up"}}, "Autoscaler fleet mutations")
      .add(report.scale_ups);
  reg.counter("serve_scale_ops_total", {{"direction", "down"}}).add(report.scale_downs);

  reg.gauge("serve_latency_ms", {{"quantile", "0.5"}},
            "Completed-request latency quantiles of the last run")
      .set(m.p50_ms);
  reg.gauge("serve_latency_ms", {{"quantile", "0.95"}}).set(m.p95_ms);
  reg.gauge("serve_latency_ms", {{"quantile", "0.99"}}).set(m.p99_ms);
  reg.gauge("serve_latency_mean_ms").set(m.mean_ms);
  reg.gauge("serve_throughput_rps", "Completed requests per simulated second (last run)")
      .set(m.throughput_rps);
  reg.gauge("serve_slo_attainment").set(m.slo_attainment);
  reg.gauge("serve_queue_depth_mean").set(report.mean_queue_depth);
  reg.gauge("serve_queue_depth_max").set(static_cast<double>(report.max_queue_depth));
  reg.gauge("serve_end_cycle", "Virtual end time of the last run, in server cycles")
      .set(static_cast<double>(report.end_cycle));
  reg.gauge("serve_fleet_utilization").set(report.fleet_utilization());

  for (std::size_t di = 0; di < report.devices.size(); ++di) {
    const DeviceStats& d = report.devices[di];
    obs::Labels labels{{"device", std::to_string(di)}};
    if (!d.klass.empty()) {
      labels.emplace_back("class", d.klass);
    }
    reg.counter("serve_device_busy_cycles_total", labels,
                "Busy server cycles per device")
        .add(d.busy_cycles);
    reg.counter("serve_device_requests_total", labels).add(d.requests);
    if (d.crashes > 0) {
      reg.counter("serve_device_crashes_total", labels).add(d.crashes);
    }
  }

  reg.gauge("plan_cache_hits", "Fleet plan cache (lifetime)").set(static_cast<double>(report.plan_cache.hits));
  reg.gauge("plan_cache_misses").set(static_cast<double>(report.plan_cache.misses));
  reg.gauge("plan_cache_evictions").set(static_cast<double>(report.plan_cache.evictions));
  if (report.feature_cache_enabled) {
    reg.gauge("feature_cache_hits", "Pre-sampling feature cache (lifetime)")
        .set(static_cast<double>(report.feature_cache.hits));
    reg.gauge("feature_cache_misses").set(static_cast<double>(report.feature_cache.misses));
    reg.gauge("feature_cache_bytes_saved")
        .set(static_cast<double>(report.feature_cache.bytes_saved));
  }

  obs::Histogram& latency = reg.histogram(
      "serve_request_latency_ms",
      {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0},
      "Completed-request latency");
  for (const Outcome& outcome : report.outcomes) {
    if (!outcome.shed && !outcome.failed) {
      latency.observe(outcome.latency_ms(report.clock_ghz));
    }
  }

  // The calibration feed, also visible as metrics: EWMA device cycles per
  // (plan class, device class). Cardinality is bounded by the distinct
  // class pairs (sampled batches record under their fuse key).
  for (const obs::ExecWindow& w : report.exec_windows) {
    reg.gauge("exec_window_ewma_cycles",
              {{"plan_class", w.plan_class}, {"device_class", w.device_class}},
              "Measured execution windows (EWMA of device cycles)")
        .set(w.ewma_cycles);
  }
}

// ---- Elastic serving machinery (see server.hpp). ---------------------------

void Server::flush_device_accounting(Device& device, Cycle now) {
  const Cycle span = now - device.health_since;
  if (device.health == DeviceHealth::kActive) {
    device.stats.active_cycles += span;
  } else {
    device.stats.downtime_cycles += span;
  }
  device.health_since = now;
}

void Server::set_device_health(Device& device, DeviceHealth health, Cycle now) {
  if (device.health == health) {
    return;
  }
  if (obs_ != nullptr && device.health != DeviceHealth::kActive) {
    // Leaving a non-active state closes its trace interval (the span of the
    // state being entered closes at the next transition or end of run).
    obs_->health_span(device_index(device),
                      device.health == DeviceHealth::kCrashed ? obs::DeviceSpanKind::kCrashed
                                                              : obs::DeviceSpanKind::kParked,
                      device.health_since, now);
  }
  flush_device_accounting(device, now);
  device.health = health;
}

bool Server::scale_up(Cycle now) {
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    Device& device = devices_[di];
    if (device.health == DeviceHealth::kRemoved) {
      set_device_health(device, DeviceHealth::kActive, now);
      if (obs_ != nullptr) {
        obs_->mark(obs::Mark{now, obs::MarkKind::kScaleUp, static_cast<std::uint32_t>(di), 0,
                             "reactivated"});
      }
      return true;
    }
  }
  const std::size_t klass = device_classes_.empty() ? kNoClass : 0;
  const std::size_t di = append_device(klass, /*ephemeral=*/true, now);
  if (obs_ != nullptr) {
    obs_->mark(obs::Mark{now, obs::MarkKind::kScaleUp, static_cast<std::uint32_t>(di), 0,
                         "appended"});
  }
  return true;
}

bool Server::scale_down(Cycle now) {
  for (std::size_t di = devices_.size(); di-- > 0;) {
    Device& device = devices_[di];
    if (device.health == DeviceHealth::kActive && device.inflight_reqs.empty()) {
      set_device_health(device, DeviceHealth::kRemoved, now);
      if (obs_ != nullptr) {
        obs_->mark(
            obs::Mark{now, obs::MarkKind::kScaleDown, static_cast<std::uint32_t>(di), 0, ""});
      }
      return true;
    }
  }
  return false;  // every active device is mid-batch; decision lapses
}

}  // namespace gnnerator::serve
