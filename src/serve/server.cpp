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
/// execution per distinct composition; a truncated capture just loses tail
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
  // One exec-id row per device class (a single shared row on a legacy
  // fleet); intern_device_class appends rows for classes added later.
  exec_ids_.resize(device_classes_.empty() ? 1 : device_classes_.size());

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
  // Keep the exec-id rows in lockstep with the registry (a reclass mid-run
  // must not index past them).
  exec_ids_.resize(device_classes_.size());
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

std::uint64_t Server::cost_estimate(const core::SimulationRequest& sim,
                                    core::CostOracle::Mode mode) {
  const RegisteredDataset& dataset = registered(sim.dataset);
  const core::SimulationRequest canonical = canonical_sim(sim);
  // The canonical estimate is priced under the canonical class's config —
  // exactly what the class key encodes — so the canonical execution
  // identity *is* the class key. Keying by config identity rather than
  // class name is what lets two identically-configured device classes
  // share measurements (the identical-class differential in
  // tests/serve_property_test.cpp holds bitwise).
  const OracleId id = cost_oracle_.intern(request_class_key(dataset.fingerprint, canonical));
  (void)cost_oracle_.analytic(*dataset.dataset, canonical, id);
  return cost_oracle_.query(id, id, mode);
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
                                           std::size_t device_index,
                                           core::CostOracle::Mode mode) {
  GNNERATOR_CHECK(device_index < devices_.size());
  const Device& device = devices_[device_index];
  const RegisteredDataset& dataset = registered(sim.dataset);
  const core::SimulationRequest swapped = sim_for_device(sim, device);
  // The execution identity under this device — what exec_id interns for a
  // queued request.
  const OracleId identity =
      cost_oracle_.intern(request_class_key(dataset.fingerprint, swapped));
  (void)cost_oracle_.analytic(*dataset.dataset, swapped, identity);
  const OracleId plan = cost_oracle_.intern(class_key(sim));
  return to_server_cycles(device, cost_oracle_.query(plan, identity, mode)) +
         options_.per_request_overhead;
}

Server::OracleId Server::exec_id(const QueuedRequest& queued, const Device& device) {
  std::vector<OracleId>& row = exec_ids_[exec_slot(device)];
  if (queued.class_id >= row.size()) {
    row.resize(static_cast<std::size_t>(queued.class_id) + 1, core::CostOracle::kNoId);
  }
  OracleId& identity = row[queued.class_id];
  if (identity == core::CostOracle::kNoId) {
    const RegisteredDataset& base = registered(queued.request.sim.dataset);
    const core::SimulationRequest swapped = sim_for_device(queued.request.sim, device);
    // A sampled request executes its own frontier: its identity keys the
    // frontier like its exact key does, under the device's config.
    identity = cost_oracle_.intern(
        queued.sampled == nullptr
            ? request_class_key(base.fingerprint, swapped)
            : request_class_key(base.fingerprint + "~s" + queued.sampled->frontier->fingerprint,
                                swapped));
  }
  return identity;
}

std::uint64_t Server::device_cycles(const QueuedRequest& queued, const Device& device,
                                    core::CostOracle::Mode mode) {
  const OracleId identity = exec_id(queued, device);
  if (!cost_oracle_.lookup(identity).has_value()) {
    const graph::Dataset& dataset = queued.sampled != nullptr
                                        ? *queued.sampled->dataset
                                        : *registered(queued.request.sim.dataset).dataset;
    (void)cost_oracle_.analytic(dataset, sim_for_device(queued.request.sim, device), identity);
  }
  return cost_oracle_.query(queued.class_id, identity,
                            queued.sampled != nullptr ? core::CostOracle::Mode::kPrior : mode);
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

// ---- The one batch-execution path (see server.hpp). ------------------------

const std::vector<const QueuedRequest*>& Server::composition(const DispatchBatch& batch) {
  composition_.clear();
  for (const QueuedRequest& q : batch.requests) {
    if (std::none_of(composition_.begin(), composition_.end(),
                     [&](const QueuedRequest* part) { return part->class_id == q.class_id; })) {
      composition_.push_back(&q);
    }
  }
  return composition_;
}

Server::OracleId Server::ensure_result(Device& device, const DispatchBatch& batch) {
  const std::vector<const QueuedRequest*>& parts = composition(batch);
  const QueuedRequest& front = *parts.front();
  GNNERATOR_CHECK_MSG(front.sampled != nullptr || parts.size() == 1,
                      "full-graph batch holds " << parts.size() << " plan classes");
  OracleId exec = exec_id(front, device);
  if (parts.size() > 1) {
    // A fused composition's identity: the first block's (its frontier under
    // the device's config), then every further block's frontier. No plain
    // identity ends in "+<frontier>".
    std::string key = cost_oracle_.key(exec);
    for (std::size_t i = 1; i < parts.size(); ++i) {
      key += '+';
      key += parts[i]->sampled->frontier->fingerprint;
    }
    exec = cost_oracle_.intern(key);
  }
  if (exec >= results_.size()) {
    results_.resize(static_cast<std::size_t>(exec) + 1);
  }
  // Identically configured device classes share the exec id, so a result
  // another class already paid for is found here (and the shared plan cache
  // means at most one compile across the whole fleet).
  if (results_[exec] != nullptr) {
    return exec;
  }

  const core::SimulationRequest sim = sim_for_device(front.request.sim, device);
  sim::Tracer tracer;
  sim::Tracer* traced = nullptr;
  if (obs_ != nullptr && obs_->options().engine_spans) {
    // Engine-span capture: the execution is traced once, when it is first
    // memoized, and its window template is anchored at every dispatch.
    tracer.enable(kEngineTraceCap);
    traced = &tracer;
  }
  core::ExecutionResult result;
  if (front.sampled == nullptr) {
    result = device.engine->run(sim, traced);
  } else if (parts.size() == 1) {
    result = device.engine->run(*front.sampled->dataset, sim.model, sim, traced);
  } else {
    // Mixed-batch fusion: one block-diagonal subgraph, one compiled plan,
    // one device pass for every distinct frontier in the batch.
    std::vector<const graph::SampledSubgraph*> frontiers;
    frontiers.reserve(parts.size());
    for (const QueuedRequest* part : parts) {
      frontiers.push_back(part->sampled->frontier.get());
    }
    const graph::Dataset fused = graph::subgraph_dataset(
        *registered(front.request.sim.dataset).dataset, graph::fuse_subgraphs(frontiers));
    result = device.engine->run(fused, sim.model, sim, traced);
  }
  if (traced != nullptr) {
    obs_->store_engine_windows(cost_oracle_.key(exec), obs::Recorder::windows_from_tracer(tracer));
  }
  if (!options_.collect_results) {
    // The memo only has to answer "how many cycles does this composition
    // occupy a device for"; without collect_results, dropping the
    // functional output keeps a long mixed-seed run from pinning one
    // [V x out_dim] tensor per composition forever.
    result.output.reset();
  }
  results_[exec] = std::make_shared<const core::ExecutionResult>(std::move(result));
  return exec;
}

FeatureCache* Server::gather_for(const DispatchBatch& batch) {
  const QueuedRequest& front = batch.requests.front();
  if (front.sampled == nullptr || !options_.feature_cache.has_value()) {
    return nullptr;
  }
  const std::string& name = front.request.sim.dataset;
  auto it = feature_caches_.find(name);
  if (it == feature_caches_.end()) {
    // Lazy build at the first sampled dispatch against this dataset — a
    // deterministic sequential point — under the triggering
    // request's fanout and the fleet's canonical DRAM model (the request's
    // own on a legacy fleet).
    const RegisteredDataset& base = registered(name);
    const mem::DramModel::Config& dram = device_classes_.empty()
                                             ? front.request.sim.config.dram
                                             : device_classes_.front().config.dram;
    it = feature_caches_
             .try_emplace(name, *base.dataset, graph::parse_fanout(front.request.fanout),
                          *options_.feature_cache, dram)
             .first;
  }
  gather_rows_.clear();
  for (const QueuedRequest* part : composition(batch)) {
    const std::vector<graph::NodeId>& vertices = part->sampled->frontier->vertices;
    gather_rows_.insert(gather_rows_.end(), vertices.begin(), vertices.end());
  }
  return &it->second;
}

Cycle Server::batch_service(Device& device, const DispatchBatch& batch, OracleId exec) {
  // One accelerator execution for the whole composition (coalesced
  // requests share it), the feature gather of a sampled batch, and the
  // per-request dispatch/response overhead. Device cycles are converted
  // onto the server timeline through the class clock.
  std::uint64_t device_cycles = results_[exec]->cycles;
  if (const FeatureCache* cache = gather_for(batch)) {
    device_cycles += cache->probe(gather_rows_).cycles;
  }
  return scaled_service(device,
                        to_server_cycles(device, device_cycles) +
                            options_.per_request_overhead *
                                static_cast<Cycle>(batch.requests.size()));
}

void Server::commit_gather(const DispatchBatch& batch) {
  if (FeatureCache* cache = gather_for(batch)) {
    cache->commit(gather_rows_);
  }
}

std::shared_ptr<const core::ExecutionResult> Server::result_for(const QueuedRequest& queued,
                                                                const DispatchBatch& batch,
                                                                OracleId exec) {
  const std::shared_ptr<const core::ExecutionResult>& memo = results_[exec];
  if (queued.sampled == nullptr || !memo->output.has_value()) {
    return memo;  // full-graph, or timing mode: nothing to scatter
  }
  // Scatter: the request's rows are its seed vertices inside its own block
  // of the fused output (block offset = sum of preceding block sizes).
  std::size_t offset = 0;
  for (const QueuedRequest* part : composition(batch)) {
    if (part->class_id == queued.class_id) {
      break;
    }
    offset += part->sampled->frontier->vertices.size();
  }
  const graph::SampledSubgraph& frontier = *queued.sampled->frontier;
  const gnn::Tensor& full = *memo->output;
  gnn::Tensor scattered(frontier.seeds.size(), full.cols());
  for (std::size_t s = 0; s < frontier.seeds.size(); ++s) {
    const std::span<const float> src = full.row(offset + frontier.seeds[s]);
    std::copy(src.begin(), src.end(), scattered.row(s).begin());
  }
  core::ExecutionResult result;
  result.cycles = memo->cycles;
  result.stats = memo->stats;
  result.kernel_cycles_ticked = memo->kernel_cycles_ticked;
  result.kernel_cycles_skipped = memo->kernel_cycles_skipped;
  result.output = std::move(scattered);
  return std::make_shared<const core::ExecutionResult>(std::move(result));
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

void Server::obs_dispatch(Device& device, const DispatchBatch& batch, OracleId exec,
                          Cycle now) {
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
  // The measured execution window under the batch's plan class (the fuse
  // class of a sampled batch) and, when captured, the engine compute
  // sub-spans of its one execution, anchored at `now`. All lookups hit memos
  // warmed by the dispatch that called this.
  std::vector<obs::EngineWindow> windows;
  if (opts.exec_windows || (opts.engine_spans && opts.device_timeline)) {
    obs_->record_exec_window(batch.requests.front().class_key, obs_device_class_name(device),
                             results_[exec]->cycles);
    const std::vector<obs::EngineWindow>* tmpl =
        opts.engine_spans && opts.device_timeline ? obs_->engine_windows(cost_oracle_.key(exec))
                                                  : nullptr;
    if (tmpl != nullptr) {
      for (const obs::EngineWindow& w : *tmpl) {
        obs::EngineWindow abs = w;
        abs.begin = now + scaled_service(device, to_server_cycles(device, w.begin));
        abs.end = now + scaled_service(device, to_server_cycles(device, w.end));
        windows.push_back(std::move(abs));
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
