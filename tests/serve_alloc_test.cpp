// Heap allocations per request on two warm serving paths: heterogeneous
// affinity placement, and sampled serving with fused batches.
//
// This suite replaces the global allocation functions with counting ones;
// it is its own test binary, so no other suite sees the counter. At
// sim_threads 1 the serving loop is single-threaded and deterministic, so
// the count is exact and reproducible: each gate measures the serving path's
// per-request allocation cost, not allocator noise.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "warm_affinity_scenario.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc_nothrow(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc_nothrow(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every allocating form is replaced — the nothrow ones too (the standard
// library's temporary buffers use them) — so each allocation is counted
// once and every block is released by the free() it was made for.

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_nothrow(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_nothrow(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gnnerator::serve {
namespace {

/// A measured serve of 2,000 requests on the warm affinity scenario: the
/// backlog grows to hundreds of queued requests, so every allocation the
/// placer makes per scan or per queued request shows up multiplied. The
/// budget covers the per-request work that remains (arrival generation,
/// plan-class keys, the completion record and report).
TEST(ServeAlloc, WarmAffinityServeStaysWithinAllocationBudget) {
  constexpr std::size_t kRequests = 2000;
  constexpr double kBudgetPerRequest = 40.0;
  Server server = scenarios::warm_affinity_server(/*reclass=*/false, /*sim_threads=*/1);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const ServeReport report = scenarios::serve_warm_affinity(server, kRequests);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(report.outcomes.size(), kRequests);
  EXPECT_GT(report.max_queue_depth, 100u) << "the scenario should build a backlog";
  const double per_request = static_cast<double>(allocations) / static_cast<double>(kRequests);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kBudgetPerRequest)
      << allocations << " heap allocations over " << kRequests << " requests";
}

/// A measured serve of 2,000 sampled cora queries on a warm server: dynamic
/// batching fuses distinct frontiers block-diagonally, and the feature cache
/// prices every gather. The warm-up serves the same workload, so every seed
/// is already sampled and the measured serve allocates on the dispatch path
/// (compositions, fused executions, gathers), not in the sampler. Measured:
/// 17,491 allocations (8.7455 per request); the budget of 10 leaves ≈14%
/// headroom. A list + hash-map feature-cache LRU made ≈33 per request (about
/// 24 of them its nodes), so any per-row allocation on the gather path
/// returning fails here.
TEST(ServeAlloc, WarmSampledFusedServeStaysWithinAllocationBudget) {
  constexpr std::size_t kRequests = 2000;
  constexpr double kBudgetPerRequest = 10.0;
  ServerOptions options;
  options.num_devices = 3;
  options.policy = SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = ms_to_cycles(0.1, options.clock_ghz);
  options.limits.max_batch = 8;
  FeatureCacheOptions cache;
  cache.budget_bytes = 512 << 10;
  options.feature_cache = cache;
  Server server(options);
  const graph::Dataset& cora =
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const auto serve_sampled = [&] {
    std::vector<SampledQueryWorkload::Entry> entries;
    for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
      RequestTemplate t;
      t.sim.dataset = "cora";
      t.sim.model = core::table3_model(kind, *graph::find_dataset("cora"));
      t.sim.mode = core::SimMode::kTiming;
      entries.push_back(SampledQueryWorkload::Entry{t, &cora, "6,4"});
    }
    SampledQueryWorkload workload(std::move(entries), /*rate_rps=*/15'000.0, kRequests,
                                  options.clock_ghz, /*seed=*/901);
    return server.serve(workload);
  };
  (void)serve_sampled();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const ServeReport report = serve_sampled();
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(report.outcomes.size(), kRequests);
  std::size_t fused = 0;
  for (const Outcome& outcome : report.outcomes) {
    fused += outcome.batch_size > 1 ? 1 : 0;
  }
  EXPECT_GT(fused, kRequests / 4) << "the window should fuse frontiers";
  const double per_request = static_cast<double>(allocations) / static_cast<double>(kRequests);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kBudgetPerRequest)
      << allocations << " heap allocations over " << kRequests << " requests";
}

}  // namespace
}  // namespace gnnerator::serve
