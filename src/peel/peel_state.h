// PeelState: the persistent artifact of a peeling run — the paper's peeling
// sequence O (`seq`), the peeling weights Δ (`delta`), and the inverse
// position index. The incremental engines rewrite slices of this state
// in-place instead of recomputing it.
//
// Key identity (DESIGN.md §2.1): f(S_k) telescopes to the suffix sum of
// `delta`, so the detected community S_P is the suffix of `seq` whose mean
// `delta` is maximal.
//
// Two representation choices keep the update hot path proportional to the
// affected area (DESIGN.md §3):
//
//  * Head offset (§3.3). The sequence lives in arrays with spare slots at
//    the front; logical position i maps to physical slot `base_ + i` and
//    `pos_` stores physical slots. Registering a brand-new vertex writes one
//    entry at `--base_` — every existing logical position shifts by one
//    without touching a single stored value. Only when the slack runs out is
//    the storage reallocated (amortized O(1) per insertion).
//
//  * Blocked detection index (§3.2). `delta_` is carved into fixed blocks;
//    each block caches its sum, its largest within-block suffix sum (the
//    bound) and the upper convex hull of the points (x, y) = (end - slot,
//    within-block suffix sum). Because x is measured from the physical end,
//    head insertions invalidate only the head block. Detect() walks blocks
//    tail-to-head, accumulating the suffix sum T; a block whose bound
//    cannot reach the incumbent density is skipped, and only the others
//    have their hull rebuilt and binary-searched for the best (y + T) / x.
//    A detection after an update costs O(n/B) block checks, plus an O(B)
//    scan per dirty block, plus an O(B) hull only for a block whose bound
//    reaches the incumbent. Assign/BumpDelta dirty only the block they
//    touch, AssignRange only the blocks its run covers.
//
// Layout (DESIGN.md §8): the per-slot storage is fully SoA — seq_/delta_/
// pos_ are parallel arrays, and the hull arena is split into hull_y_/
// hull_x_/hull_slot_ so the hull binary search streams only the 12 bytes
// per point it compares (y, x) and touches the slot array once, at the
// winner. A block refresh is one scalar suffix scan over its 4 KB of
// deltas, without touching seq_ or pos_: the scan's head is the block sum,
// its max the bound, and its values the hull's y. Admission puts every
// delta on the weight grid (DESIGN.md §2.2), so every sum is exact and the
// scan's association order cannot change a Detect answer.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"
#include "graph/types.h"

namespace spade {

/// Result of detecting the fraudulent community on the current state.
struct Community {
  std::vector<VertexId> members;
  double density = 0.0;
};

/// The maintained peeling sequence and derived community cache.
class PeelState {
 public:
  PeelState() = default;

  /// Initializes empty state over `n` vertices.
  explicit PeelState(std::size_t n) {
    seq_.reserve(n);
    delta_.reserve(n);
    pos_.assign(n, kNoPos);
  }

  std::size_t size() const { return seq_.size() - base_; }

  /// Contiguous views of the logical sequence and peeling weights.
  std::span<const VertexId> seq() const {
    return {seq_.data() + base_, size()};
  }
  std::span<const double> delta() const {
    return {delta_.data() + base_, size()};
  }

  VertexId VertexAt(std::size_t i) const { return seq_[base_ + i]; }
  double DeltaAt(std::size_t i) const { return delta_[base_ + i]; }

  /// Position of vertex v in the peeling sequence.
  std::size_t PositionOf(VertexId v) const {
    SPADE_DCHECK(v < pos_.size());
    return pos_[v] - base_;
  }

  bool ContainsVertex(VertexId v) const {
    return v < pos_.size() && pos_[v] != kNoPos;
  }

  /// Appends a peeled vertex with its peeling weight (build path).
  void Append(VertexId v, double delta) {
    if (v >= pos_.size()) pos_.resize(v + 1, kNoPos);
    pos_[v] = seq_.size();
    seq_.push_back(v);
    delta_.push_back(delta);
    // Growing the physical end shifts every point's x = end - slot, so
    // every hull is stale (rebuilt once, on the first Detect()); block
    // sums are unaffected except in the block gaining the new slot.
    MarkDirtySlot(seq_.size() - 1);
    ++hull_version_;
    InvalidateBest();
  }

  /// Overwrites position i (incremental rewrite path).
  void Assign(std::size_t i, VertexId v, double delta) {
    SPADE_DCHECK(i < size());
    const std::size_t p = base_ + i;
    seq_[p] = v;
    delta_[p] = delta;
    pos_[v] = p;
    MarkDirtySlot(p);
    InvalidateBest();
  }

  /// Overwrites positions [i, i + v.size()) in one block move (the merge's
  /// displacement runs, DESIGN.md §3.4): a memmove per array, one position
  /// pass over the destination, one dirty mark per touched block. The
  /// source may alias this state's own seq()/delta() storage, which is how
  /// a run shifts in place.
  void AssignRange(std::size_t i, std::span<const VertexId> v,
                   std::span<const double> d) {
    SPADE_DCHECK(v.size() == d.size());
    SPADE_DCHECK(i + v.size() <= size());
    if (v.empty()) return;
    const std::size_t lo = base_ + i;
    const std::size_t hi = lo + v.size();
    std::memmove(seq_.data() + lo, v.data(), v.size() * sizeof(VertexId));
    std::memmove(delta_.data() + lo, d.data(), d.size() * sizeof(double));
    // The position pass writes pos_ at effectively random vertex ids, one
    // miss per slot: write-prefetch the entry kPosPrefetch slots ahead
    // (DESIGN.md §8.3).
    const std::size_t ahead = hi - std::min(hi - lo, kPosPrefetch);
    std::size_t p = lo;
    for (; p < ahead; ++p) {
      SPADE_PREFETCH_WRITE(pos_.data() + seq_[p + kPosPrefetch]);
      pos_[seq_[p]] = p;
    }
    for (; p < hi; ++p) pos_[seq_[p]] = p;
    EnsureBlock((hi - 1) / kBlock);
    for (std::size_t b = lo / kBlock; b <= (hi - 1) / kBlock; ++b) {
      blocks_[b].dirty = true;
    }
    InvalidateBest();
  }

  /// Adds to the stored peeling weight at position i without reordering.
  void BumpDelta(std::size_t i, double amount) {
    SPADE_DCHECK(i < size());
    delta_[base_ + i] += amount;
    MarkDirtySlot(base_ + i);
    InvalidateBest();
  }

  /// Registers a brand-new vertex at the head of the sequence with peeling
  /// weight `delta0` (paper §4.1 "Vertex insertion": Δ_0 = 0 normally, but a
  /// pre-weighted vertex carries its prior). All logical positions shift by
  /// one — which the head offset makes free: amortized O(1), no stored
  /// entry or index slot is touched.
  void InsertVertexAtHead(VertexId v, double delta0) {
    if (v >= pos_.size()) pos_.resize(v + 1, kNoPos);
    SPADE_DCHECK(pos_[v] == kNoPos);
    if (base_ == 0) GrowFront();
    --base_;
    seq_[base_] = v;
    delta_[base_] = delta0;
    pos_[v] = base_;
    MarkDirtySlot(base_);
    InvalidateBest();
  }

  /// Marks the cached community stale; Detect() recomputes on demand.
  void InvalidateBest() { best_valid_ = false; }

  /// Index k such that the detected community is seq[k..n). Ties on density
  /// resolve to the smallest k (largest community), matching Algorithm 1's
  /// "arg max over S_i" with first-max scan order.
  std::size_t BestStart() const {
    EnsureBest();
    return best_start_;
  }

  /// g(S_P): density of the detected community.
  double BestDensity() const {
    EnsureBest();
    return best_density_;
  }

  /// Materializes the detected community S_P.
  Community DetectCommunity() const {
    EnsureBest();
    Community c;
    c.density = best_density_;
    const auto s = seq();
    c.members.assign(s.begin() + static_cast<std::ptrdiff_t>(best_start_),
                     s.end());
    return c;
  }

  /// Hull rebuilds Detect has made on this state so far: what the bound
  /// prunes shows up here (bench_peel_simd reports it per Detect).
  std::uint64_t HullRebuilds() const { return hull_rebuilds_; }

  /// Prefetches the position-index line of v (engine probe loops issue this
  /// a few neighbors ahead of the PositionOf read).
  void PrefetchPosition(VertexId v) const {
    if (v < pos_.size()) SPADE_PREFETCH(pos_.data() + v);
  }

  /// Clears all state.
  void Clear() {
    seq_.clear();
    delta_.clear();
    base_ = 0;
    pos_.assign(pos_.size(), kNoPos);
    blocks_.clear();
    hull_y_.clear();
    hull_x_.clear();
    hull_slot_.clear();
    ++sum_version_;
    ++hull_version_;
    InvalidateBest();
  }

  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

 private:
  // Block width of the detection index: ~sqrt(n) at the scales the engine
  // targets, balancing the O(B) dirty-block rebuild against the O(n/B)
  // tail-to-head walk.
  static constexpr std::size_t kBlock = 512;
  // Write-prefetch distance of AssignRange's position pass, in slots.
  static constexpr std::size_t kPosPrefetch = 16;

  // A hull point is (x, y, slot) with x = physical end - slot (invariant
  // under head insertion) and y = sum of delta over [slot, block end). The
  // three fields live in the parallel SoA arenas hull_y_/hull_x_/hull_slot_
  // at stride kBlock: the binary search compares only (y, x), so a query
  // streams two short arrays instead of 16-byte records, and the slot array
  // is read exactly once per block — at the returned optimum.

  struct Block {
    // The head of the block's suffix scan.
    double sum = 0.0;
    // Largest within-block suffix sum, read from the same scan the hull's
    // y values come from, so no hull point exceeds it.
    double max_suffix = 0.0;
    std::uint32_t hull_size = 0;
    // Freshness is tiered: `dirty` marks content changes inside the
    // block; the built counters are compared against the global versions,
    // which bump when a structural change invalidates every block's sum
    // and bound (physical shift) or hulls (x = end - slot shift). The sum
    // and bound depend on content only, so they are fresh while !dirty and
    // bound_built == sum_version_. A hull is fresh while its bound is and
    // hull_built == hull_version_. Zero never matches a version, so fresh
    // blocks start fully stale.
    std::uint64_t bound_built = 0;
    std::uint64_t hull_built = 0;
    bool dirty = true;
  };

  void EnsureBlock(std::size_t b) const {
    if (b >= blocks_.size()) {
      // Grow the block table and hull arenas geometrically: resizing to
      // exactly (b+1)*kBlock per new block would copy every existing hull
      // point each time a block is added — O(n²/B) hull-point copies over
      // an n-vertex append stream. Doubling amortizes the copies to O(1)
      // per appended slot; indexing stays by b*kBlock, the slack is simply
      // unused until the next block arrives.
      const std::size_t need_blocks = b + 1;
      const std::size_t grown =
          std::max(need_blocks, blocks_.size() + blocks_.size() / 2 + 1);
      blocks_.reserve(grown);
      blocks_.resize(need_blocks);
      const std::size_t need = need_blocks * kBlock;
      const std::size_t arena = std::max(need, hull_y_.size() * 2);
      if (hull_y_.size() < need) {
        hull_y_.reserve(arena);
        hull_x_.reserve(arena);
        hull_slot_.reserve(arena);
        hull_y_.resize(need);
        hull_x_.resize(need);
        hull_slot_.resize(need);
      }
    }
  }

  void MarkDirtySlot(std::size_t p) {
    const std::size_t b = p / kBlock;
    EnsureBlock(b);
    blocks_[b].dirty = true;
  }

  /// Moves the logical content to the middle of freshly grown storage so
  /// the next Θ(size) head insertions are O(1) writes.
  void GrowFront() {
    const std::size_t slack = std::max<std::size_t>(kBlock, size());
    seq_.insert(seq_.begin(), slack, kInvalidVertex);
    delta_.insert(delta_.begin(), slack, 0.0);
    base_ = slack;
    for (std::size_t p = base_; p < seq_.size(); ++p) pos_[seq_[p]] = p;
    // Every physical slot moved: block membership, sums and hulls are all
    // stale.
    ++sum_version_;
    ++hull_version_;
  }

  /// Readies block b for the Detect walk, given the suffix sum `tail`
  /// beyond it and the incumbent best_num / best_den, and returns whether
  /// its hull must be queried. A stale bound costs one suffix scan, whose
  /// head is blk.sum; the hull is rebuilt from that same scan only when
  /// the bound says some suffix starting in b can reach the incumbent
  /// (DESIGN.md §3.2). The monotone stack runs over the precomputed (x, y)
  /// pairs — its pops are branchy, but it carries no accumulation chain —
  /// and lands hull points in the SoA arenas at stride kBlock: no
  /// per-block allocations on the walk.
  bool RefreshBlock(std::size_t b, double tail, double best_num,
                    double best_den) const {
    EnsureBlock(b);
    Block& blk = blocks_[b];
    const std::size_t end = seq_.size();
    const std::size_t lo = std::max(b * kBlock, base_);
    const std::size_t hi = std::min((b + 1) * kBlock, end);
    SPADE_DCHECK(lo < hi);
    scan_scratch_.resize(kBlock);
    // suf[j] = within-block suffix sum from slot lo + j.
    double* suf = scan_scratch_.data();
    const bool scanned = blk.dirty || blk.bound_built != sum_version_;
    if (scanned) {
      blk.sum = SuffixScan(delta_.data() + lo, hi - lo, suf);
      blk.max_suffix = MaxOf(suf, hi - lo);
      blk.dirty = false;
      blk.bound_built = sum_version_;
      blk.hull_built = 0;
    }
    // Every hull point has y <= max_suffix and x >= the last slot's x, and
    // rounding is monotone, so when even (max_suffix + T) / x_min falls
    // strictly below the incumbent, no point passes the walk's ">=" test.
    const auto x_min = static_cast<double>(end - (hi - 1));
    if ((blk.max_suffix + tail) * best_den < best_num * x_min) return false;
    if (blk.hull_built == hull_version_) return true;
    if (!scanned) SuffixScan(delta_.data() + lo, hi - lo, suf);
    double* hy = hull_y_.data() + b * kBlock;
    std::uint32_t* hx = hull_x_.data() + b * kBlock;
    std::uint32_t* hs = hull_slot_.data() + b * kBlock;
    std::uint32_t hn = 0;
    // Scan slots tail-to-head: x = end - p ascends, y reads the precomputed
    // suffix. Keep the upper hull (slopes strictly decreasing); collinear
    // middle points are dropped — the larger-x endpoint of their edge
    // always ties or beats them, and wins the smallest-start tie rule
    // anyway.
    for (std::size_t p = hi; p-- > lo;) {
      const double py = suf[p - lo];
      const auto px = static_cast<std::uint32_t>(end - p);
      while (hn >= 2) {
        const double ay = hy[hn - 2], my = hy[hn - 1];
        const std::uint32_t ax = hx[hn - 2], mx = hx[hn - 1];
        // Pop m when slope(a, m) <= slope(m, pt): m is under the chord.
        if ((my - ay) * static_cast<double>(px - mx) <=
            (py - my) * static_cast<double>(mx - ax)) {
          --hn;
        } else {
          break;
        }
      }
      hy[hn] = py;
      hx[hn] = px;
      hs[hn] = static_cast<std::uint32_t>(p);
      ++hn;
    }
    blk.hull_size = hn;
    blk.hull_built = hull_version_;
    ++hull_rebuilds_;
    return true;
  }

  /// Tail-to-head inclusive suffix scan of p[0, n), n > 0, into out
  /// (out[i] = p[i] + out[i + 1]); returns out[0], the span's sum. Groups of
  /// four are anchored at the tail: two Hillis-Steele steps sum a group
  /// within itself, so the carry beyond it costs one add per group on the
  /// dependency chain. The head remainder (n % 4 slots) runs sequentially.
  static double SuffixScan(const double* p, std::size_t n, double* out) {
    const std::size_t head = n % 4;
    double carry = 0.0;
    std::size_t i = n;
    while (i > head) {
      i -= 4;
      const double d0 = p[i + 0], d1 = p[i + 1], d2 = p[i + 2], d3 = p[i + 3];
      const double a0 = d0 + d1, a1 = d1 + d2, a2 = d2 + d3;
      out[i + 0] = (a0 + a2) + carry;
      out[i + 1] = (a1 + d3) + carry;
      out[i + 2] = a2 + carry;
      out[i + 3] = d3 + carry;
      carry = out[i + 0];
    }
    while (i-- > 0) {
      carry = p[i] + carry;
      out[i] = carry;
    }
    return out[0];
  }

  /// Largest of v[0, n), n > 0, as independent compare-select chains, one
  /// per lane. Max never rounds, so the lane order cannot change the value
  /// (up to the sign of a zero, which the skip test reads the same way).
  /// On bench_peel_simd's detect_after_heavy_edge, a std::max_element here
  /// made Detect cost 34-36 us against 18-19 us with this loop.
  static double MaxOf(const double* v, std::size_t n) {
    constexpr std::size_t kLanes = 8;
    double m[kLanes];
    std::fill(m, m + kLanes, v[0]);
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      for (std::size_t k = 0; k < kLanes; ++k) {
        m[k] = v[j + k] > m[k] ? v[j + k] : m[k];
      }
    }
    for (; j < n; ++j) m[0] = v[j] > m[0] ? v[j] : m[0];
    return *std::max_element(m, m + kLanes);
  }

  /// Best density within a block given tail sum T beyond the block, and the
  /// slot attaining it (largest x on ties => smallest start). The density
  /// (y + T) / x is unimodal along the hull, so a binary search that moves
  /// right on ties lands on the rightmost peak. Comparisons are
  /// cross-multiplied ((y1+T)·x2 vs (y2+T)·x1, x > 0) so the walk performs
  /// no divisions; the caller divides once at the very end. The search
  /// reads only the y/x arenas; the slot arena is touched once, at the
  /// winner.
  static void QueryHull(const double* hy, const std::uint32_t* hx,
                        const std::uint32_t* hs, std::uint32_t size, double T,
                        double* num, double* den, std::size_t* slot) {
    SPADE_DCHECK(size > 0);
    std::size_t lo = 0, hi = size - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if ((hy[mid + 1] + T) * static_cast<double>(hx[mid]) >=
          (hy[mid] + T) * static_cast<double>(hx[mid + 1])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    *num = hy[lo] + T;
    *den = static_cast<double>(hx[lo]);
    *slot = hs[lo];
  }

  void EnsureBest() const {
    if (best_valid_) return;
    const std::size_t n = size();
    const std::size_t end = seq_.size();
    double tail = 0.0;
    // Best density tracked as a (numerator, denominator) pair: density
    // comparisons cross-multiply, and the single division happens once the
    // walk is done. best_num >= 0 and best_den > 0 throughout, which the
    // skip test in RefreshBlock relies on.
    double best_num = 0.0;
    double best_den = 1.0;
    std::size_t best_start = n;
    if (n > 0) {
      // Walk blocks from the tail (shortest suffixes, smallest x) to the
      // head; ">=" prefers the later candidate (larger x, longer suffix) on
      // density ties, matching the linear reference scan.
      const std::size_t first_block = base_ / kBlock;
      for (std::size_t b = (end - 1) / kBlock + 1; b-- > first_block;) {
        const bool query = RefreshBlock(b, tail, best_num, best_den);
        if (b > first_block) {
          // Pull the next (head-ward) block's metadata and deltas in while
          // this block is checked; a clean walk is otherwise one demand
          // miss per block on large states.
          SPADE_PREFETCH(blocks_.data() + (b - 1));
          SPADE_PREFETCH(delta_.data() + (b - 1) * kBlock);
        }
        if (query) {
          double num = 0.0, den = 1.0;
          std::size_t slot = 0;
          QueryHull(hull_y_.data() + b * kBlock, hull_x_.data() + b * kBlock,
                    hull_slot_.data() + b * kBlock, blocks_[b].hull_size,
                    tail, &num, &den, &slot);
          if (num * best_den >= best_num * den) {
            best_num = num;
            best_den = den;
            best_start = slot - base_;
          }
        }
        tail += blocks_[b].sum;
      }
    }
    best_density_ = best_num / best_den;
    best_start_ = best_start;
    best_valid_ = true;
  }

  // Physical storage: logical position i lives at slot base_ + i; slots
  // below base_ are reserved head slack. pos_ holds physical slots.
  std::vector<VertexId> seq_;
  std::vector<double> delta_;
  std::size_t base_ = 0;
  std::vector<std::size_t> pos_;

  mutable std::vector<Block> blocks_;
  // SoA hull arenas, kBlock-stride per block: the QueryHull binary search
  // touches only y/x, so splitting the old {y, x, slot} record keeps its
  // probe footprint to two tightly-packed streams (slot is read once, at
  // the winner). scan_scratch_ is the suffix-scan staging buffer reused
  // across hull rebuilds.
  mutable std::vector<double> hull_y_;
  mutable std::vector<std::uint32_t> hull_x_;
  mutable std::vector<std::uint32_t> hull_slot_;
  mutable std::vector<double> scan_scratch_;
  mutable std::uint64_t hull_rebuilds_ = 0;
  std::uint64_t sum_version_ = 1;
  std::uint64_t hull_version_ = 1;

  mutable bool best_valid_ = false;
  mutable std::size_t best_start_ = 0;
  mutable double best_density_ = 0.0;
};

}  // namespace spade
