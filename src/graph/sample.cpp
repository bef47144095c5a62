#include "graph/sample.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/parse.hpp"

namespace gnnerator::graph {

namespace {

std::string hex_fingerprint(std::uint64_t value) {
  std::ostringstream os;
  os << "s" << std::hex << value;
  return os.str();
}

}  // namespace

std::string FanoutSpec::canonical() const {
  std::ostringstream os;
  for (std::size_t h = 0; h < per_hop.size(); ++h) {
    os << (h > 0 ? "," : "") << per_hop[h];
  }
  return os.str();
}

FanoutSpec parse_fanout(std::string_view spec) {
  // The slash spelling ("10/5") exists so a fanout survives inside a
  // comma-delimited CSV cell; normalize it to the count-list grammar.
  std::string normalized(spec);
  std::replace(normalized.begin(), normalized.end(), '/', ',');
  FanoutSpec fanout;
  for (const util::CountedName& element : util::parse_count_list(normalized)) {
    const std::optional<std::uint64_t> value = util::parse_uint(element.name);
    GNNERATOR_CHECK_MSG(value.has_value() && *value <= 0xffffffffULL,
                        "fanout spec element '" << element.name
                                                << "' is not a per-hop neighbor count");
    for (std::size_t h = 0; h < element.count; ++h) {
      fanout.per_hop.push_back(static_cast<std::uint32_t>(*value));
    }
  }
  GNNERATOR_CHECK_MSG(!fanout.per_hop.empty(), "fanout spec needs at least one hop");
  return fanout;
}

bool SampledSubgraph::is_seed(NodeId v) const {
  return std::binary_search(seeds.begin(), seeds.end(), v);
}

SampledSubgraph sample_frontier(const Graph& graph, const std::vector<NodeId>& seeds,
                                const FanoutSpec& fanout, util::Prng& prng) {
  GNNERATOR_CHECK_MSG(!seeds.empty(), "frontier sampling needs at least one seed");
  GNNERATOR_CHECK_MSG(!fanout.per_hop.empty(), "frontier sampling needs at least one hop");

  std::vector<char> discovered(graph.num_nodes(), 0);
  std::vector<NodeId> frontier;  // vertices discovered at the previous hop
  frontier.reserve(seeds.size());
  for (const NodeId seed : seeds) {
    GNNERATOR_CHECK_MSG(seed < graph.num_nodes(),
                        "seed " << seed << " out of range for V=" << graph.num_nodes());
    if (!discovered[seed]) {
      discovered[seed] = 1;
      frontier.push_back(seed);
    }
  }
  std::vector<NodeId> kept = frontier;  // every discovered vertex, discovery order
  std::vector<Edge> parent_edges;       // selected (in-neighbor, vertex) pairs

  std::vector<NodeId> scratch;
  for (const std::uint32_t hop_fanout : fanout.per_hop) {
    std::vector<NodeId> next_frontier;
    for (const NodeId v : frontier) {
      const std::span<const NodeId> nbrs = graph.in_neighbors(v);
      const std::size_t deg = nbrs.size();
      if (deg == 0) {
        continue;
      }
      const bool take_all = hop_fanout == 0 || hop_fanout >= deg;
      scratch.assign(nbrs.begin(), nbrs.end());
      std::size_t take = deg;
      if (!take_all) {
        // Partial Fisher-Yates: k draws without replacement, then the
        // selection is re-sorted ascending so the remapped in-neighbor
        // order (and thus float summation order) matches the parent's.
        take = hop_fanout;
        for (std::size_t i = 0; i < take; ++i) {
          const std::size_t j = i + static_cast<std::size_t>(prng.uniform_u64(deg - i));
          std::swap(scratch[i], scratch[j]);
        }
        scratch.resize(take);
        std::sort(scratch.begin(), scratch.end());
      }
      for (std::size_t i = 0; i < take; ++i) {
        const NodeId u = scratch[i];
        parent_edges.push_back(Edge{u, v});
        if (!discovered[u]) {
          discovered[u] = 1;
          kept.push_back(u);
          next_frontier.push_back(u);
        }
      }
    }
    frontier = std::move(next_frontier);
    if (frontier.empty()) {
      break;  // nothing new to expand; further hops are no-ops
    }
  }

  SampledSubgraph sub{Graph(0, {}), {}, {}, {}, 0, {}};
  sub.vertices = std::move(kept);
  std::sort(sub.vertices.begin(), sub.vertices.end());

  const auto remap = [&](NodeId parent) {
    const auto it = std::lower_bound(sub.vertices.begin(), sub.vertices.end(), parent);
    return static_cast<NodeId>(it - sub.vertices.begin());
  };
  std::vector<Edge> edges;
  edges.reserve(parent_edges.size());
  for (const Edge& e : parent_edges) {
    edges.push_back(Edge{remap(e.src), remap(e.dst)});
  }
  // Each vertex is expanded at most once, so no (src, dst) pair repeats;
  // sorting alone yields the canonical strict order Graph requires.
  std::sort(edges.begin(), edges.end());

  sub.base_in_degree.reserve(sub.vertices.size());
  for (const NodeId parent : sub.vertices) {
    // coeff_in_degree so re-sampling an already-sampled graph still chains
    // back to the original coefficients.
    sub.base_in_degree.push_back(static_cast<std::uint32_t>(graph.coeff_in_degree(parent)));
  }
  sub.seeds.reserve(seeds.size());
  for (const NodeId seed : seeds) {
    sub.seeds.push_back(remap(seed));
  }
  std::sort(sub.seeds.begin(), sub.seeds.end());
  sub.seeds.erase(std::unique(sub.seeds.begin(), sub.seeds.end()), sub.seeds.end());

  sub.graph = Graph(static_cast<NodeId>(sub.vertices.size()), std::move(edges));
  sub.graph.set_coeff_in_degrees(sub.base_in_degree);

  util::Fnv1a fnv;
  fnv.mix(sub.vertices.size());
  fnv.mix(sub.graph.num_edges());
  for (const NodeId parent : sub.vertices) {
    fnv.mix(parent);
  }
  for (const Edge& e : sub.graph.edges()) {
    fnv.mix((static_cast<std::uint64_t>(e.src) << 32) | e.dst);
  }
  for (const std::uint32_t d : sub.base_in_degree) {
    fnv.mix(d);
  }
  for (const NodeId seed : sub.seeds) {
    fnv.mix(seed);
  }
  for (const std::uint32_t f : fanout.per_hop) {
    fnv.mix(f);
  }
  sub.fingerprint_value = fnv.value();
  sub.fingerprint = hex_fingerprint(sub.fingerprint_value);
  return sub;
}

SampledSubgraph fuse_subgraphs(const std::vector<const SampledSubgraph*>& parts) {
  GNNERATOR_CHECK_MSG(!parts.empty(), "mixed-batch fusion needs at least one subgraph");
  std::size_t total_nodes = 0;
  std::size_t total_edges = 0;
  for (const SampledSubgraph* part : parts) {
    GNNERATOR_CHECK(part != nullptr);
    total_nodes += part->vertices.size();
    total_edges += part->graph.num_edges();
  }

  SampledSubgraph fused{Graph(0, {}), {}, {}, {}, 0, {}};
  fused.vertices.reserve(total_nodes);
  fused.base_in_degree.reserve(total_nodes);
  std::vector<Edge> edges;
  edges.reserve(total_edges);
  NodeId offset = 0;
  util::Fnv1a fnv;
  fnv.mix(parts.size());
  for (const SampledSubgraph* part : parts) {
    // Block-diagonal concatenation: per-block vertex order is untouched and
    // block id ranges ascend, so the concatenated edge list stays globally
    // (src, dst)-sorted and each block's aggregation order — and output —
    // is bitwise what running it alone produces.
    fused.vertices.insert(fused.vertices.end(), part->vertices.begin(),
                          part->vertices.end());
    fused.base_in_degree.insert(fused.base_in_degree.end(), part->base_in_degree.begin(),
                                part->base_in_degree.end());
    for (const Edge& e : part->graph.edges()) {
      edges.push_back(Edge{e.src + offset, e.dst + offset});
    }
    for (const NodeId seed : part->seeds) {
      fused.seeds.push_back(seed + offset);
    }
    fnv.mix(part->fingerprint_value);
    offset += static_cast<NodeId>(part->vertices.size());
  }
  fused.graph = Graph(offset, std::move(edges));
  fused.graph.set_coeff_in_degrees(fused.base_in_degree);
  fused.fingerprint_value = fnv.value();
  fused.fingerprint = hex_fingerprint(fused.fingerprint_value);
  return fused;
}

Dataset subgraph_dataset(const Dataset& base, const SampledSubgraph& sub) {
  Dataset dataset{base.spec, sub.graph, {}, {}};
  dataset.spec.name = base.spec.name + "#" + sub.fingerprint;
  dataset.spec.num_nodes = sub.graph.num_nodes();
  dataset.spec.num_edges = sub.graph.num_edges();
  if (!base.features.empty()) {
    const std::size_t dim = base.spec.feature_dim;
    dataset.features.reserve(sub.vertices.size() * dim);
    for (const NodeId parent : sub.vertices) {
      const auto row = base.features.begin() + static_cast<std::ptrdiff_t>(parent * dim);
      dataset.features.insert(dataset.features.end(), row,
                              row + static_cast<std::ptrdiff_t>(dim));
    }
  }
  if (!base.labels.empty()) {
    dataset.labels.reserve(sub.vertices.size());
    for (const NodeId parent : sub.vertices) {
      dataset.labels.push_back(base.labels[parent]);
    }
  }
  return dataset;
}

}  // namespace gnnerator::graph
