// IndexedMinHeap: a binary min-heap over vertices keyed by
// (peeling weight, vertex id) with O(log n) push/pop/update and O(1)
// membership queries.
//
// The secondary vertex-id key pins one canonical greedy peeling order, which
// is what lets Spade's incremental engines reproduce the static engine's
// sequence *exactly* (see DESIGN.md §2.2). Both the static peeler and the
// pending queue T of the incremental algorithms use this structure.
//
// Layout (DESIGN.md §8): the heap array is struct-of-arrays — parallel
// weight_ / vertex_ vectors instead of an array of {weight, vertex} records.
// The sift comparisons read weights almost exclusively (vertex ids only
// break exact ties), so splitting the streams packs twice as many keys per
// cache line on the comparison path, and AssignAll's O(n) rebuild becomes a
// bulk weight copy plus an ascending fill of vertex_ (std::iota) ahead of
// the Floyd sift-downs.

#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"
#include "graph/types.h"

namespace spade {

/// Canonical heap key ordering: weight first, vertex id as tie-break.
inline bool HeapKeyLess(double wa, VertexId va, double wb, VertexId vb) {
  if (wa != wb) return wa < wb;
  return va < vb;
}

/// Min-heap over a dense vertex-id universe [0, capacity).
class IndexedMinHeap {
 public:
  IndexedMinHeap() = default;

  /// Creates a heap able to hold vertices with ids in [0, capacity).
  explicit IndexedMinHeap(std::size_t capacity) { Reset(capacity); }

  /// Clears the heap and resizes the id universe.
  void Reset(std::size_t capacity) {
    weight_.clear();
    vertex_.clear();
    slot_.assign(capacity, kNoSlot);
  }

  /// Grows the id universe, preserving contents.
  void EnsureCapacity(std::size_t capacity) {
    if (capacity > slot_.size()) slot_.resize(capacity, kNoSlot);
  }

  std::size_t size() const { return vertex_.size(); }
  bool empty() const { return vertex_.empty(); }

  bool Contains(VertexId v) const {
    return v < slot_.size() && slot_[v] != kNoSlot;
  }

  /// Pulls the membership slot of v into cache ahead of a Contains /
  /// Decrease probe — the engine's adjacency walks hit slot_ at effectively
  /// random ids, one demand miss each without this.
  void PrefetchSlot(VertexId v) const {
    if (v < slot_.size()) SPADE_PREFETCH(slot_.data() + v);
  }

  /// Current key of a contained vertex.
  double WeightOf(VertexId v) const {
    SPADE_DCHECK(Contains(v));
    return weight_[slot_[v]];
  }

  /// Inserts vertex v with the given weight; v must not be contained.
  void Push(VertexId v, double weight) {
    SPADE_DCHECK(v < slot_.size());
    SPADE_DCHECK(!Contains(v));
    weight_.push_back(weight);
    vertex_.push_back(v);
    slot_[v] = vertex_.size() - 1;
    SiftUp(vertex_.size() - 1);
  }

  /// Changes the weight of a contained vertex (either direction).
  void Update(VertexId v, double weight) {
    SPADE_DCHECK(Contains(v));
    const std::size_t i = slot_[v];
    const double old = weight_[i];
    weight_[i] = weight;
    if (HeapKeyLess(weight, v, old, v)) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  /// Adds `delta` to the weight of a contained vertex.
  void Adjust(VertexId v, double delta) {
    Update(v, weight_[slot_[v]] + delta);
  }

  /// Adds `delta` (<= 0) to the weight of a contained vertex. Peeling only
  /// ever relaxes pending weights downward, so the fixup is a pure sift-up —
  /// half the comparisons of the direction-agnostic Adjust.
  void Decrease(VertexId v, double delta) {
    SPADE_DCHECK(Contains(v));
    SPADE_DCHECK(delta <= 0.0);
    const std::size_t i = slot_[v];
    weight_[i] += delta;
    SiftUp(i);
  }

  /// Rebuilds the heap to hold exactly vertices [0, weights.size()) keyed by
  /// `weights`, via bottom-up heapify: O(n) instead of the O(n log n) of n
  /// pushes. The pop order is unchanged — the comparator's total order pins
  /// the canonical sequence regardless of internal array layout. The leaf
  /// pass is pure bulk initialization: one weight memcpy and one iota, no
  /// per-element work.
  void AssignAll(std::span<const double> weights) {
    const std::size_t n = weights.size();
    slot_.assign(std::max(slot_.size(), n), kNoSlot);
    weight_.assign(weights.begin(), weights.end());
    vertex_.resize(n);
    std::iota(vertex_.begin(), vertex_.end(), VertexId{0});
    for (std::size_t i = n / 2; i-- > 0;) SiftDown(i);
    for (std::size_t i = 0; i < n; ++i) slot_[vertex_[i]] = i;
  }

  VertexId TopVertex() const {
    SPADE_DCHECK(!empty());
    return vertex_[0];
  }
  double TopWeight() const {
    SPADE_DCHECK(!empty());
    return weight_[0];
  }

  /// Removes and returns the minimum-key vertex.
  VertexId Pop() {
    SPADE_DCHECK(!empty());
    const VertexId top = vertex_[0];
    slot_[top] = kNoSlot;
    const std::size_t last = vertex_.size() - 1;
    if (last > 0) {
      weight_[0] = weight_[last];
      vertex_[0] = vertex_[last];
      slot_[vertex_[0]] = 0;
      weight_.pop_back();
      vertex_.pop_back();
      SiftDown(0);
    } else {
      weight_.pop_back();
      vertex_.pop_back();
    }
    return top;
  }

  /// Removes an arbitrary contained vertex.
  void Erase(VertexId v) {
    SPADE_DCHECK(Contains(v));
    const std::size_t i = slot_[v];
    slot_[v] = kNoSlot;
    const std::size_t last = vertex_.size() - 1;
    if (i != last) {
      const VertexId moved = vertex_[last];
      weight_[i] = weight_[last];
      vertex_[i] = moved;
      slot_[moved] = i;
      weight_.pop_back();
      vertex_.pop_back();
      SiftDown(i);
      SiftUp(slot_[moved]);
    } else {
      weight_.pop_back();
      vertex_.pop_back();
    }
  }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  bool Less(std::size_t a, std::size_t b) const {
    return HeapKeyLess(weight_[a], vertex_[a], weight_[b], vertex_[b]);
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!Less(i, parent)) break;
      Swap(i, parent);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    const std::size_t n = vertex_.size();
    while (true) {
      const std::size_t left = 2 * i + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = i;
      if (left < n && Less(left, smallest)) smallest = left;
      if (right < n && Less(right, smallest)) smallest = right;
      if (smallest == i) break;
      Swap(i, smallest);
      i = smallest;
    }
  }

  void Swap(std::size_t a, std::size_t b) {
    std::swap(weight_[a], weight_[b]);
    std::swap(vertex_[a], vertex_[b]);
    slot_[vertex_[a]] = a;
    slot_[vertex_[b]] = b;
  }

  // SoA heap storage: weight_[i] / vertex_[i] form the logical entry at
  // heap position i; slot_ is the inverse map (vertex id -> position).
  std::vector<double> weight_;
  std::vector<VertexId> vertex_;
  std::vector<std::size_t> slot_;
};

}  // namespace spade
