#include "shard/shard_grid.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::shard {

ShardGrid::ShardGrid(const graph::Graph& graph, NodeId nodes_per_shard)
    : num_nodes_(graph.num_nodes()), nodes_per_shard_(nodes_per_shard) {
  GNNERATOR_CHECK(nodes_per_shard_ > 0);
  dim_ = static_cast<std::uint32_t>(util::ceil_div(num_nodes_, nodes_per_shard_));
  GNNERATOR_CHECK(dim_ > 0);

  const std::size_t num_shards = static_cast<std::size_t>(dim_) * dim_;
  const auto shard_of = [&](NodeId src, NodeId dst) -> std::size_t {
    return static_cast<std::size_t>(src / nodes_per_shard_) * dim_ + dst / nodes_per_shard_;
  };

  // Pass 1, CSR order (src ascending): edge count and distinct-source count
  // per shard. Sources arrive ascending, so a source is new to a shard iff it
  // differs from the last one that shard saw.
  const NodeId no_source = num_nodes_;
  std::vector<NodeId> last_source(num_shards, no_source);
  offsets_.assign(num_shards + 1, 0);
  source_offsets_.assign(num_shards + 1, 0);
  for (const Edge& e : graph.edges()) {
    const std::size_t s = shard_of(e.src, e.dst);
    ++offsets_[s + 1];
    if (last_source[s] != e.src) {
      last_source[s] = e.src;
      ++source_offsets_[s + 1];
    }
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    offsets_[s + 1] += offsets_[s];
    source_offsets_[s + 1] += source_offsets_[s];
  }

  // Pass 2, CSR order: scatter the distinct sources; each shard's list comes
  // out ascending.
  sources_.resize(source_offsets_[num_shards]);
  {
    std::vector<std::size_t> cursor(source_offsets_.begin(), source_offsets_.end() - 1);
    std::fill(last_source.begin(), last_source.end(), no_source);
    for (const Edge& e : graph.edges()) {
      const std::size_t s = shard_of(e.src, e.dst);
      if (last_source[s] != e.src) {
        last_source[s] = e.src;
        sources_[cursor[s]++] = e.src;
      }
    }
  }

  // Pass 3, CSC order (dst ascending, then src ascending): scatter edges, so
  // every shard bucket comes out destination-major with no sort.
  edges_.resize(graph.num_edges());
  {
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (NodeId dst = 0; dst < num_nodes_; ++dst) {
      for (const NodeId src : graph.in_neighbors(dst)) {
        edges_[cursor[shard_of(src, dst)]++] = Edge{src, dst};
      }
    }
  }

  // Distinct destinations: runs of equal dst in each dst-major bucket.
  dest_offsets_.assign(num_shards + 1, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (std::size_t i = offsets_[s]; i < offsets_[s + 1]; ++i) {
      if (i == offsets_[s] || edges_[i].dst != edges_[i - 1].dst) {
        dests_.push_back(edges_[i].dst);
      }
    }
    dest_offsets_[s + 1] = dests_.size();
  }
}

NodeId ShardGrid::interval_begin(std::uint32_t idx) const {
  GNNERATOR_CHECK(idx < dim_);
  return idx * nodes_per_shard_;
}

NodeId ShardGrid::interval_end(std::uint32_t idx) const {
  GNNERATOR_CHECK(idx < dim_);
  return std::min<NodeId>(num_nodes_, (idx + 1) * nodes_per_shard_);
}

NodeId ShardGrid::interval_size(std::uint32_t idx) const {
  return interval_end(idx) - interval_begin(idx);
}

std::size_t ShardGrid::shard_index(ShardCoord c) const {
  GNNERATOR_CHECK_MSG(c.row < dim_ && c.col < dim_,
                      "shard (" << c.row << "," << c.col << ") out of grid dim " << dim_);
  return static_cast<std::size_t>(c.row) * dim_ + c.col;
}

std::span<const Edge> ShardGrid::shard_edges(ShardCoord c) const {
  const std::size_t s = shard_index(c);
  return {edges_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
}

std::span<const NodeId> ShardGrid::shard_sources(ShardCoord c) const {
  const std::size_t s = shard_index(c);
  return {sources_.data() + source_offsets_[s], source_offsets_[s + 1] - source_offsets_[s]};
}

std::span<const NodeId> ShardGrid::shard_dests(ShardCoord c) const {
  const std::size_t s = shard_index(c);
  return {dests_.data() + dest_offsets_[s], dest_offsets_[s + 1] - dest_offsets_[s]};
}

std::size_t ShardGrid::num_nonempty_shards() const {
  std::size_t count = 0;
  for (std::size_t s = 0; s + 1 < offsets_.size(); ++s) {
    if (offsets_[s + 1] > offsets_[s]) {
      ++count;
    }
  }
  return count;
}

}  // namespace gnnerator::shard
