// The warm heterogeneous affinity scenario shared by the serving golden test
// (serve_property_test) and the allocation gate (serve_alloc_test).
//
// Affinity (HEFT) placement on a 2xbaseline,2xnextgen fleet with two SLO
// tiers, serving cora and citeseer under GCN, GraphSAGE-mean and
// GraphSAGE-pool. A warm-up serve first runs every plan class on every
// device class, so the measured serve on the same server places on
// measured-exact cycles from the cost oracle. The reclass variant switches
// dev3 to 2x-dense, a class outside the configured fleet, mid-run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace gnnerator::serve::scenarios {

inline ServerOptions warm_affinity_options(bool reclass, std::size_t sim_threads) {
  ServerOptions options;
  options.policy = SchedulingPolicy::kAffinity;
  options.fleet = parse_fleet_spec("2xbaseline,2xnextgen");
  options.classes = {RequestClass{"interactive", 2.0, 1, 1.0},
                     RequestClass{"bulk", 20.0, 0, 1.0}};
  options.sim_threads = sim_threads;
  if (reclass) {
    options.faults = parse_fault_plan("reclass@0.4ms:dev3=2x-dense", options.clock_ghz);
  }
  return options;
}

/// cora and citeseer x {GCN, GraphSAGE-mean, GraphSAGE-pool}; tiers
/// alternate across the mix.
inline std::vector<RequestTemplate> warm_affinity_mix() {
  std::vector<RequestTemplate> mix;
  for (const char* dataset : {"cora", "citeseer"}) {
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      RequestTemplate t;
      t.sim.dataset = dataset;
      t.sim.model = core::table3_model(kind, *graph::find_dataset(dataset));
      t.sim.mode = core::SimMode::kTiming;
      t.klass = mix.size() % 2 == 0 ? "interactive" : "bulk";
      mix.push_back(std::move(t));
    }
  }
  return mix;
}

/// Arrival rate of both serves: above the fleet's capacity, so a backlog
/// builds and placement holds requests for busy preferred devices.
inline constexpr double kWarmAffinityRateRps = 30'000.0;

/// A server with both datasets registered and a 120-request warm-up served.
inline Server warm_affinity_server(bool reclass, std::size_t sim_threads) {
  Server server(warm_affinity_options(reclass, sim_threads));
  for (const char* dataset : {"cora", "citeseer"}) {
    server.add_dataset(graph::make_dataset_by_name(dataset, 1, /*with_features=*/false));
  }
  PoissonWorkload warmup(warm_affinity_mix(), kWarmAffinityRateRps, /*num_requests=*/120,
                         server.options().clock_ghz, /*seed=*/31);
  (void)server.serve(warmup);
  return server;
}

/// The measured serve: `num_requests` arrivals on the warm server.
inline ServeReport serve_warm_affinity(Server& server, std::size_t num_requests) {
  PoissonWorkload workload(warm_affinity_mix(), kWarmAffinityRateRps, num_requests,
                           server.options().clock_ghz, /*seed=*/32);
  return server.serve(workload);
}

}  // namespace gnnerator::serve::scenarios
