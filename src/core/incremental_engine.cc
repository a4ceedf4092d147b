#include "core/incremental_engine.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>

#include "common/logging.h"

namespace spade {
namespace {

std::string DescribeEdge(const Edge& e) {
  std::ostringstream os;
  os << e.src << "->" << e.dst << " (weight " << e.weight << ")";
  return os.str();
}

}  // namespace

Status IncrementalEngine::InsertEdge(DynamicGraph* g, PeelState* state,
                                     const Edge& edge, ReorderStats* stats) {
  return InsertBatch(g, state, std::span<const Edge>(&edge, 1), stats);
}

Status IncrementalEngine::InsertBatch(DynamicGraph* g, PeelState* state,
                                      std::span<const Edge> edges,
                                      ReorderStats* stats) {
  if (edges.empty() && state->size() == g->NumVertices()) {
    return Status::OK();
  }
  for (const Edge& e : edges) {
    if (!(e.weight > 0.0)) {
      return Status::InvalidArgument("InsertBatch: edge weight must be > 0");
    }
    if (e.src == e.dst) {
      return Status::InvalidArgument("InsertBatch: self-loops not supported");
    }
  }

  // Vertex insertion (§4.1): every id the graph covers once it spans the
  // batch's endpoints, but the state does not — unseen endpoints, gap ids
  // implied by a sparse id space, ids the caller already grew the graph to
  // — joins the head of the peeling sequence carrying its stored vertex
  // weight (the prior the caller set; 0 for an id it never weighed) as its
  // initial peeling weight, so the state always covers the graph. All
  // created vertices are marked black below: the merge then places them
  // canonically relative to existing equal-weight vertices, whatever order
  // they joined the head in.
  new_vertices_.clear();
  for (const Edge& e : edges) {
    g->EnsureVertices(static_cast<std::size_t>(std::max(e.src, e.dst)) + 1);
  }
  const auto covered = static_cast<VertexId>(state->size());
  for (VertexId v = covered; v < g->NumVertices(); ++v) {
    if (state->ContainsVertex(v)) continue;
    state->InsertVertexAtHead(v, g->VertexWeight(v));
    new_vertices_.push_back(v);
  }

  // Apply the edges, then mark every created vertex and every endpoint
  // black: their stored peeling weights understate the new edges (or their
  // head placement is order-unverified), so they must be re-examined when
  // the merge scan reaches them. Stored deltas are never modified here —
  // understated values keep every pruning comparison conservative
  // (DESIGN.md §2.4). Instead, each inserted edge credits the recovery
  // accumulator of its earlier-positioned endpoint, which is exactly the
  // term the stored weight would have carried had the edge existed at peel
  // time (the later-positioned endpoint's corrections accrue as the earlier
  // one transitions through T; DESIGN.md §3.1).
  BumpEpoch(state->size());
  pending_.EnsureCapacity(g->NumVertices());
  if (g->NumVertices() > 0) {
    EnsureScratch(static_cast<VertexId>(g->NumVertices() - 1));
  }
  black_positions_.clear();
  const auto mark_black = [&](VertexId v) {
    if (ColorOf(v) == Color::kBlack) return;
    const std::size_t pos = state->PositionOf(v);
    Scratch(v, pos).color = static_cast<std::uint8_t>(Color::kBlack);
    black_positions_.push_back(pos);
  };
  for (VertexId v : new_vertices_) mark_black(v);
  for (const Edge& e : edges) {
    SPADE_RETURN_NOT_OK(g->AddEdge(e.src, e.dst, e.weight));
    mark_black(e.src);
    mark_black(e.dst);
    const bool src_earlier =
        state->PositionOf(e.src) < state->PositionOf(e.dst);
    Stamped(src_earlier ? e.src : e.dst).recov += e.weight;
  }
  std::sort(black_positions_.begin(), black_positions_.end());

  ReorderStats local;
  local.merges = 1;
  // Pre-seed every created vertex into the queue at its exact initial
  // weight (prior plus all incident edges — which are all new, hence all
  // pending). Head placement is by fiat, not by peel order, so a stored
  // head delta is NOT a lower bound on later unscanned weights the way an
  // old canonical slot is — a case-1 emit against it could overtake a
  // cheaper head vertex further on. With the whole head block in T from
  // the start, the merge skips those slots and orders the newcomers
  // canonically.
  for (VertexId v : new_vertices_) {
    PushPending(*g, v, state->PositionOf(v), g->WeightedDegree(v), &local);
  }
  MergeLoop(*g, state, black_positions_,
            black_positions_.empty() ? 0 : black_positions_.front(), &local);
  state->InvalidateBest();
  if (stats != nullptr) stats->Accumulate(local);
  return Status::OK();
}

Status IncrementalEngine::DeleteEdge(DynamicGraph* g, PeelState* state,
                                     VertexId src, VertexId dst,
                                     ReorderStats* stats,
                                     const double* weight_filter) {
  Edge edge{src, dst, 0.0, 0};
  if (weight_filter != nullptr) {
    edge.weight = *weight_filter;
  } else if (src < g->NumVertices() && dst < g->NumVertices()) {
    // The most recent copy: the last (src, dst) entry of src's out-list.
    const auto& out = g->OutNeighbors(src);
    const auto it =
        std::find_if(out.rbegin(), out.rend(),
                     [&](const NeighborEntry& n) { return n.vertex == dst; });
    if (it == out.rend()) {
      return Status::NotFound("DeleteEdge: no edge " + std::to_string(src) +
                              "->" + std::to_string(dst));
    }
    edge.weight = it->weight;
  }
  return DeleteBatch(g, state, std::span<const Edge>(&edge, 1), stats);
}

Status IncrementalEngine::CheckDeleteBatch(const DynamicGraph& g,
                                           std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    if (e.src >= g.NumVertices() || e.dst >= g.NumVertices()) {
      return Status::InvalidArgument("DeleteBatch: edge " + DescribeEdge(e) +
                                     " has an endpoint out of range");
    }
    // No stored copy weighs <= 0 or NaN (AddEdge refuses them), and NaN
    // would break the sort below.
    if (!(e.weight > 0.0)) {
      return Status::NotFound("DeleteBatch: edge " + DescribeEdge(e) +
                              " not present");
    }
  }
  // Presence by multiplicity: each run of equal (src, dst, weight) requests
  // needs as many stored copies.
  delete_keys_.assign(edges.begin(), edges.end());
  const auto key = [](const Edge& e) {
    return std::tuple(e.src, e.dst, e.weight);
  };
  std::sort(delete_keys_.begin(), delete_keys_.end(),
            [&](const Edge& a, const Edge& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < delete_keys_.size();) {
    const Edge& e = delete_keys_[i];
    std::size_t requested = 0;
    for (; i < delete_keys_.size() && key(delete_keys_[i]) == key(e); ++i) {
      ++requested;
    }
    std::size_t stored = 0;
    for (const NeighborEntry& n : g.OutNeighbors(e.src)) {
      stored += n.vertex == e.dst && n.weight == e.weight ? 1 : 0;
    }
    if (stored < requested) {
      return Status::NotFound(
          "DeleteBatch: edge " + DescribeEdge(e) + " requested " +
          std::to_string(requested) + "x, " + std::to_string(stored) +
          " stored");
    }
  }
  return Status::OK();
}

Status IncrementalEngine::DeleteBatch(DynamicGraph* g, PeelState* state,
                                      std::span<const Edge> edges,
                                      ReorderStats* stats) {
  if (edges.empty()) return Status::OK();
  SPADE_RETURN_NOT_OK(CheckDeleteBatch(*g, edges));
  batch_endpoints_.clear();
  for (const Edge& e : edges) {
    const auto removed = g->RemoveEdge(e.src, e.dst, &e.weight);
    SPADE_CHECK(removed.ok());
    batch_endpoints_.push_back(e.src);
    batch_endpoints_.push_back(e.dst);
  }
  std::sort(batch_endpoints_.begin(), batch_endpoints_.end());
  batch_endpoints_.erase(
      std::unique(batch_endpoints_.begin(), batch_endpoints_.end()),
      batch_endpoints_.end());

  BumpEpoch(state->size());
  pending_.EnsureCapacity(g->NumVertices());
  EnsureScratch(static_cast<VertexId>(g->NumVertices() - 1));
  ReorderStats local;
  local.merges = 1;

  // Every endpoint may deserve an earlier slot (DESIGN.md §2.6): seed them
  // all into T at their exact weights from the earliest splice point and
  // let one merge order them. The weight is taken at the splice cursor
  // rather than at the endpoint's own slot, so the O(1) recovery identity
  // does not apply — recompute from the graph, O(deg) per endpoint like the
  // walk itself. Their dips can cascade through neighbors; the merge's
  // early-pop sweep handles that transitively.
  const std::size_t splice = FindSplice(*g, *state, &local);
  for (VertexId u : batch_endpoints_) {
    PushPending(*g, u, state->PositionOf(u),
                ExactPendingWeight(*g, u, splice, *state, &local), &local);
  }
  black_positions_.clear();
  MergeLoop(*g, state, black_positions_, splice, &local);
  state->InvalidateBest();
  if (stats != nullptr) stats->Accumulate(local);
  return Status::OK();
}

std::size_t IncrementalEngine::FindSplice(const DynamicGraph& g,
                                          const PeelState& state,
                                          ReorderStats* stats) {
  // The splice walk (Appendix C.1), all endpoints at once. Each endpoint's
  // weight w_u(S_k) starts at its post-deletion whole-graph weight and loses
  // each incident edge whose other end peels before step k; a min-heap
  // keeps the lightest. Slots before the earliest endpoint hold
  // non-endpoints, whose weights the batch did not change, so the prefix
  // stays canonical up to the first slot where an endpoint undercuts the
  // incumbent. An endpoint's stored delta can only overstate its new
  // weight, so the walk stops at the earliest endpoint slot regardless.
  SPADE_DCHECK(pending_.empty());
  std::size_t first = state.size();
  for (VertexId u : batch_endpoints_) {
    first = std::min(first, state.PositionOf(u));
  }
  splice_events_.clear();
  for (VertexId u : batch_endpoints_) {
    pending_.Push(u, g.WeightedDegree(u));
    g.ForEachIncident(u, [&](VertexId v, double c) {
      const std::size_t pv = state.PositionOf(v);
      if (pv < first) splice_events_.push_back({pv, u, c});
    });
    stats->touched_edges += g.Degree(u);
  }
  std::sort(splice_events_.begin(), splice_events_.end(),
            [](const SpliceEvent& a, const SpliceEvent& b) {
              return std::tie(a.pos, a.endpoint, a.weight) <
                     std::tie(b.pos, b.endpoint, b.weight);
            });

  // Slot k is checked before its events apply. Between two event slots the
  // lightest key is fixed, so one vector key compare scans the incumbents
  // in between.
  const VertexId* seq = state.seq().data();
  const double* delta = state.delta().data();
  const SpliceEvent* ev = splice_events_.data();
  const SpliceEvent* const end = ev + splice_events_.size();
  std::size_t k = 0;
  while (true) {
    const std::size_t last = ev == end ? first : ev->pos + 1;
    k += simd::FirstKeyAbove(delta + k, seq + k, last - k,
                             pending_.TopWeight(), pending_.TopVertex());
    if (k < last || k == first) break;
    for (const std::size_t pos = ev->pos; ev != end && ev->pos == pos; ++ev) {
      pending_.Decrease(ev->endpoint, -ev->weight);
    }
  }
  while (!pending_.empty()) pending_.Pop();
  return k;
}

double IncrementalEngine::ExactPendingWeight(const DynamicGraph& g,
                                             VertexId u, std::size_t k,
                                             const PeelState& state,
                                             ReorderStats* stats) const {
  // w_u over the true pending set: the queue T plus every unscanned vertex.
  // Unscanned vertices still carry their pre-merge position (>= k); vertices
  // emitted by this merge are stamped; everything else (stable prefix,
  // skipped gaps) lies before k.
  double w = g.VertexWeight(u);
  ForEachIncidentPrefetched(
      g, u,
      [&](VertexId pv) {
        pending_.PrefetchSlot(pv);
        SPADE_PREFETCH(scratch_vertex_.data() + pv);
        state.PrefetchPosition(pv);
      },
      [&](VertexId v, double c) {
        if (pending_.Contains(v) ||
            (!IsEmitted(v) && state.PositionOf(v) >= k && v != u)) {
          w += c;
        }
      });
  stats->touched_edges += g.Degree(u);
  return w;
}

double IncrementalEngine::RecoveredWeight(VertexId u, double stored_delta,
                                          ReorderStats* stats) const {
  // Algorithm 2's gray recovery (DESIGN.md §3.1): u is being read at its own
  // pre-merge slot k, so the stored peeling weight counts exactly u's vertex
  // weight plus its edges into the pre-merge suffix [k, n); the accumulator
  // carries the net correction from every neighbor that entered or left T
  // and every inserted edge. O(1) instead of an incident-list rescan.
  ++stats->recovery_lookups;
  return stored_delta + RecovOf(u);
}

void IncrementalEngine::PushPending(const DynamicGraph& g, VertexId u,
                                    std::size_t old_pos, double weight,
                                    ReorderStats* stats) {
  pending_.Push(u, weight);
  ++stats->affected_vertices;
  // Defer the gray+credit pass: if u pops before the merge reads another
  // affected slot, neither the credits nor their matching debits are ever
  // observable, and u's only incident pass is the relax pass at emit. The
  // degree budget funds white-slot adjacency probes in the meantime.
  // Stamping u at its slot keeps the touched-slot bitmap sound: every
  // pending vertex carries the current stamp.
  Scratch(u, old_pos).deferred = true;
  uncredited_.emplace_back(u, old_pos);
  ++deferred_count_;
  credit_budget_ += static_cast<std::ptrdiff_t>(g.Degree(u));
}

void IncrementalEngine::FlushCredits(const DynamicGraph& g,
                                     const PeelState& state,
                                     ReorderStats* stats) {
  for (const auto& [u, old_pos] : uncredited_) {
    // Entries of members that already popped are stale — their pass was
    // cancelled, not deferred.
    VertexScratch& su = Stamped(u);
    if (!su.deferred) continue;
    su.deferred = false;
    // u moved from "unscanned" to "pending": a later-positioned unscanned
    // neighbor's stored weight missed this edge (u peeled first in the old
    // order), but the edge now counts while u sits in T — credit it. The
    // earlier-positioned ones already count it in their stored weight.
    // Crediting a neighbor that is itself pending or already emitted is
    // harmless (its accumulator is never read again this epoch), so the
    // position test is the only guard — one packed-scratch line and one
    // position read per edge, with a branchless accumulate. The same
    // position stamps a first-touched neighbor into the bitmap. Both lines
    // are prefetched a few neighbors ahead of the visit.
    ForEachIncidentPrefetched(
        g, u,
        [&](VertexId pv) {
          SPADE_PREFETCH(scratch_vertex_.data() + pv);
          state.PrefetchPosition(pv);
        },
        [&](VertexId v, double c) {
          const std::size_t pos = state.PositionOf(v);
          VertexScratch& s = Scratch(v, pos);
          if (s.color == static_cast<std::uint8_t>(Color::kWhite)) {
            s.color = static_cast<std::uint8_t>(Color::kGray);
          }
          s.recov += pos > old_pos ? c : 0.0;
        });
    stats->touched_edges += g.Degree(u);
  }
  uncredited_.clear();
  deferred_count_ = 0;
  credit_budget_ = 0;
}

void IncrementalEngine::EmitFromQueue(const DynamicGraph& g, PeelState* state,
                                      std::size_t w, std::size_t k,
                                      ReorderStats* stats) {
  const double dmin = pending_.TopWeight();
  const VertexId umin = pending_.Pop();
  const std::size_t old_pos = state->PositionOf(umin);
  // A write at or ahead of the scan cursor lands on an unscanned slot:
  // preserve its pre-update entry first.
  if (w >= k) Preserve(*state, k, w + 1);
  state->Assign(w, umin, dmin);
  VertexScratch& su = Stamped(umin);
  su.emitted = true;

  // Was umin's gray+credit pass ever flushed? If not, cancel it O(1) via
  // the scratch flag (its list entry goes stale; the flush skips those):
  // no credits were written, so no cancelling debits are owed.
  const bool credited = !su.deferred;
  if (!credited) {
    su.deferred = false;
    --deferred_count_;
    credit_budget_ -= static_cast<std::ptrdiff_t>(g.Degree(umin));
  }

  // Phase 1: peeling umin releases its edges from every neighbor that was
  // already in the queue, and — when umin's credit pass ran and it emits at
  // or behind the scan cursor — debits the recovery accumulator of every
  // unscanned neighbor: whether the stored weight counted the edge
  // (old_pos after the neighbor) or the credit pass added it, an emitted
  // umin must no longer contribute. Debiting an already-emitted neighbor is
  // harmless — its accumulator is never read again this epoch — and the
  // credit pass stamped every neighbor already. No debits are owed
  // otherwise: an uncredited umin wrote no credits, and an early emit
  // (old_pos > k, deletion path) sweeps every readable unscanned neighbor
  // into the queue at an exact from-graph weight below, making their
  // accumulators unread.
  if (credited && old_pos <= k) {
    ForEachIncidentPrefetched(
        g, umin,
        [&](VertexId pv) {
          pending_.PrefetchSlot(pv);
          SPADE_PREFETCH(scratch_vertex_.data() + pv);
        },
        [&](VertexId v, double c) {
          if (pending_.Contains(v)) {
            pending_.Decrease(v, -c);
          } else {
            Stamped(v).recov -= c;
          }
        });
  } else {
    ForEachIncidentPrefetched(
        g, umin, [&](VertexId pv) { pending_.PrefetchSlot(pv); },
        [&](VertexId v, double c) {
          if (pending_.Contains(v)) pending_.Decrease(v, -c);
        });
  }
  // Phase 2: if umin peels ahead of its old schedule (old position not yet
  // reached by the scan), its unscanned neighbors' dips accelerate — their
  // stored weights stop being trustworthy ordering bounds, so they are
  // swept into the queue at their exact current weights (DESIGN.md §2.6).
  // The Contains() guard keeps phase 1's relaxations and parallel edges
  // from double-counting: an exact weight already reflects umin's removal.
  // The sweep takes each weight at the scan cursor, ahead of the swept
  // vertex's own slot, so the O(1) stored-delta identity does not apply
  // (it misses edges to unscanned vertices between the cursor and the
  // slot); recompute from the graph. Early emission only ever happens on
  // the deletion path — insertion merges push every vertex at its own slot
  // — so the insert hot path never pays this scan (DESIGN.md §3.1).
  if (old_pos > k) {
    g.ForEachIncident(umin, [&](VertexId v, double c) {
      (void)c;
      if (!pending_.Contains(v) && !IsEmitted(v) &&
          state->PositionOf(v) >= k) {
        PushPending(g, v, state->PositionOf(v),
                    ExactPendingWeight(g, v, k, *state, stats), stats);
      }
    });
  }
  stats->touched_edges += g.Degree(umin);
}

void IncrementalEngine::MergeLoop(const DynamicGraph& g, PeelState* state,
                                  const std::vector<std::size_t>& blacks,
                                  std::size_t start, ReorderStats* stats) {
  if (blacks.empty() && pending_.empty()) return;
  const std::size_t n = state->size();
  RebaseScratch(start);
  InvalidateLookahead();

  std::size_t k = start;  // scan cursor over old entries
  std::size_t w = start;  // write cursor over the rewritten sequence
  std::size_t bi = 0;     // next unconsumed black position

  // The open displacement run: case-2(b) slots [run_src, run_src + run_len)
  // bound for [run_dst, run_dst + run_len). Every other event ends it, and
  // it is written before that event touches the state (DESIGN.md §3.4).
  // Until then its slots keep their pre-update entries and positions, which
  // are exactly what the classification reads (below the scan cursor, or
  // pre-update at or beyond it).
  std::size_t run_src = 0;
  std::size_t run_dst = 0;
  std::size_t run_len = 0;
  const auto end_run = [&] {
    if (run_len == 0) return;
    MoveRun(state, run_src, run_dst, run_len);
    run_len = 0;
  };

  while (true) {
    if (pending_.empty() && w == k) {
      end_run();
      while (bi < blacks.size() && blacks[bi] < k) ++bi;
      if (bi == blacks.size()) break;
      // Positions in [k, blacks[bi]) are untouched: jump over the gap. The
      // preservation window ends at or before the old cursor, so every
      // entry it holds is dead and the next Preserve restarts it.
      k = w = blacks[bi];
      InvalidateLookahead();
    }
    if (k >= n) {
      // No more old entries: drain the pending queue.
      end_run();
      while (!pending_.empty()) {
        EmitFromQueue(g, state, w++, k, stats);
        ++stats->rewritten_span;
      }
      break;
    }

    // Read the incumbent through the batched read-ahead window; the scan
    // cursor only moves forward within a rebase, so a miss means the window
    // is exhausted and the next batch starts exactly at k.
    if (k - lookahead_base_ >= lookahead_count_) FillLookahead(*state, k, n);
    const VertexId u_k = lookahead_vertex_[k - lookahead_base_];
    const double d_k = lookahead_delta_[k - lookahead_base_];
    ++stats->probed_slots;

    if (pending_.Contains(u_k) || IsEmitted(u_k)) {
      // The old slot of a vertex pulled into the queue out of schedule.
      end_run();
      ++k;
      continue;
    }

    if (!pending_.empty() &&
        HeapKeyLess(pending_.TopWeight(), pending_.TopVertex(), d_k, u_k)) {
      // Case 1: the queue head peels before the incumbent. The stored d_k
      // never overstates u_k's true weight, so this is conservative.
      end_run();
      EmitFromQueue(g, state, w++, k, stats);
      ++stats->rewritten_span;
      continue;
    }
    // Classify slot k. Colors and accumulators may be behind by the
    // deferred gray+credit passes of current queue members; a white-looking
    // incumbent is genuinely untouched iff it is also not adjacent to any
    // queue member (white implies zero accumulator and no new edges, and
    // relaxation is only owed to queue neighbors). Probing the incumbent's
    // own incident list costs O(deg(u_k) + 1), the slot included, against
    // the O(deg(T)) of a flush; the degree budget accumulated at push time
    // keeps the probes bounded by one deferred pass overall, so the worst
    // case stays one incident pass per affected vertex while a queue that
    // drains before the next affected read never pays its credit pass at
    // all. An edgeless probe still spends its slot: otherwise a stretch of
    // isolated incumbents would be probed one at a time for free, and the
    // flush that lets the bulk scan take over would never come.
    bool affected = ColorOf(u_k) != Color::kWhite;
    bool have_probe_weight = false;
    double probe_weight = 0.0;
    if (deferred_count_ > 0) {
      if (affected) {
        // Gray or black with deferred credits outstanding: the accumulator
        // is behind by exactly those credits — settle them.
        FlushCredits(g, *state, stats);
      } else {
        const auto cost = static_cast<std::ptrdiff_t>(g.Degree(u_k)) + 1;
        if (credit_budget_ < cost) {
          FlushCredits(g, *state, stats);
          affected = ColorOf(u_k) != Color::kWhite;
        } else {
          // White slot: zero accumulator and no new edges, so it is
          // untouched unless adjacent to a queue member — and since a
          // credited pass would have grayed it, every queue neighbor is
          // uncredited, which makes its exact pending weight computable in
          // the same probe: the stored delta plus its edges to earlier-
          // positioned queue members (later-positioned ones the stored
          // delta already counts). The deferred passes never run for this.
          credit_budget_ -= cost;
          stats->touched_edges += g.Degree(u_k);
          double add = 0.0;
          bool adjacent = false;
          ForEachIncidentPrefetched(
              g, u_k,
              [&](VertexId pv) {
                pending_.PrefetchSlot(pv);
                state->PrefetchPosition(pv);
              },
              [&](VertexId v, double c) {
                if (pending_.Contains(v)) {
                  adjacent = true;
                  if (state->PositionOf(v) < k) add += c;
                }
              });
          if (adjacent) {
            affected = true;
            have_probe_weight = true;
            probe_weight = d_k + add;
          }
        }
      }
    }
    if (affected) {
      // Case 2(a): affected vertex — its stored weight may miss new edges
      // or edges into the queue; recover the exact value (O(1) from the
      // stored delta plus the accumulator, or straight from the adjacency
      // probe) and let the queue order it.
      end_run();
      PushPending(g, u_k, k,
                  have_probe_weight
                      ? probe_weight
                      : RecoveredWeight(u_k, d_k, stats),
                  stats);
      ++k;
      continue;
    }
    // Case 2(b): untouched vertex with the smallest weight — it keeps its
    // relative order, so it joins the open displacement run. No recovery
    // bookkeeping is owed: a white vertex has no queue neighbors (pushes
    // gray their whole neighborhood) and lands exactly where the run's
    // shift puts it, so no unscanned neighbor's stored weight counted it
    // wrongly.
    if (run_len == 0) {
      run_src = k;
      run_dst = w;
    }
    ++run_len;
    ++w;
    ++k;
    ++stats->rewritten_span;
    // Bulk extension: with every deferred credit settled, the slots up to
    // the next touched one are case 2(b) until the queue head sorts before
    // an incumbent, whichever way the run goes. The slot that ends the
    // stretch goes back through the general path above, which classifies
    // it exactly as before.
    if (deferred_count_ == 0 && k < n) {
      const std::size_t stop = ScanUntouched(*state, k, n);
      run_len += stop - k;
      w += stop - k;
      stats->rewritten_span += stop - k;
      k = stop;
    }
  }
}

std::size_t IncrementalEngine::ScanUntouched(const PeelState& state,
                                             std::size_t k,
                                             std::size_t n) const {
  // The pre-merge incumbent of a slot s >= k carries a stamp this epoch
  // only if bit s is set: a vertex is first stamped at the slot it holds
  // then, nothing moves an unscanned incumbent before its first stamp, and
  // a leading run stamps its vertices at their old slots, below k
  // (DESIGN.md §3.4). So up to the next set bit every incumbent is white,
  // not emitted and not pending, and only the case-1 comparison can stop
  // the run: at the first incumbent whose (delta, id) sorts after the
  // queue head's key, which one vector key compare finds. The pre-merge
  // entries sit in the preservation window below ScratchEnd() and live
  // beyond it, as FillLookahead reads them.
  const std::size_t touched = NextTouched(k, n);
  if (pending_.empty()) return touched;
  const double top_weight = pending_.TopWeight();
  const VertexId top_vertex = pending_.TopVertex();
  const std::size_t split = std::clamp(ScratchEnd(), k, touched);
  if (k < split) {
    const std::size_t off = k - scratch_base_;
    const std::size_t hit = simd::FirstKeyAbove(
        scratch_delta_.data() + off, scratch_seq_.data() + off, split - k,
        top_weight, top_vertex);
    if (hit < split - k) return k + hit;
  }
  return split + simd::FirstKeyAbove(state.delta().data() + split,
                                     state.seq().data() + split,
                                     touched - split, top_weight, top_vertex);
}

void IncrementalEngine::FillLookahead(const PeelState& state, std::size_t k,
                                      std::size_t n) {
  // Every position in [k, n) still holds its pre-update entry in exactly
  // one of two places, split at a single boundary: the preservation window
  // covers [scratch_base_, scratch_end) — every slot the write cursor has
  // overwritten at or ahead of the scan cursor — and the live state holds
  // everything beyond. Copy each side with its own tight loop; no per-slot
  // branch.
  const std::size_t count = std::min(kLookahead, n - k);
  const std::size_t scratch_end = ScratchEnd();
  std::size_t i = 0;
  for (; i < count && k + i < scratch_end; ++i) {
    lookahead_vertex_[i] = scratch_seq_[k + i - scratch_base_];
    lookahead_delta_[i] = scratch_delta_[k + i - scratch_base_];
  }
  for (; i < count; ++i) {
    lookahead_vertex_[i] = state.VertexAt(k + i);
    lookahead_delta_[i] = state.DeltaAt(k + i);
  }
  lookahead_base_ = k;
  lookahead_count_ = count;
  // Classification of each upcoming slot opens with a stamp check on the
  // incumbent's packed-scratch line and often a heap-membership probe; pull
  // both lines for the whole window now, while the batch is hot.
  for (std::size_t j = 0; j < count; ++j) {
    SPADE_PREFETCH(scratch_vertex_.data() + lookahead_vertex_[j]);
    pending_.PrefetchSlot(lookahead_vertex_[j]);
  }
}

void IncrementalEngine::MoveRun(PeelState* state, std::size_t src,
                                std::size_t dst, std::size_t len) {
  if (dst < src) {
    // Trailing: the window never reaches past the write cursor, so the
    // whole source is live, and it shifts down in place.
    SPADE_DCHECK(src >= ScratchEnd());
    state->AssignRange(dst, state->seq().subspan(src, len),
                       state->delta().subspan(src, len));
  } else if (dst > src) {
    // Leading: the destination covers unscanned slots whose pre-update
    // entries later reads still need. The window already holds [src, dst),
    // written while the cursor led; extending it over the destination
    // makes it hold the whole source, which is copied from there.
    SPADE_DCHECK(ScratchEnd() == dst);
    Preserve(*state, src, dst + len);
    const std::size_t off = src - scratch_base_;
    state->AssignRange(
        dst, std::span<const VertexId>(scratch_seq_.data() + off, len),
        std::span<const double>(scratch_delta_.data() + off, len));
    // Their new positions may lie at or beyond the scan cursor, where only
    // the emitted mark tells them apart from unscanned vertices. A vertex
    // first stamped here marks its old slot, which the scan has passed, so
    // the bitmap ahead of the scan still names only pre-merge incumbents
    // (DESIGN.md §3.4).
    for (std::size_t i = 0; i < len; ++i) {
      Scratch(scratch_seq_[off + i], src + i).emitted = true;
    }
  }
  // dst == src: every entry already sits where it goes.
}

void IncrementalEngine::Preserve(const PeelState& state, std::size_t lo,
                                 std::size_t hi) {
  if (ScratchEnd() <= lo) RebaseScratch(lo);
  const std::size_t end = ScratchEnd();
  if (end >= hi) return;
  const auto seq = state.seq().subspan(end, hi - end);
  const auto delta = state.delta().subspan(end, hi - end);
  scratch_seq_.insert(scratch_seq_.end(), seq.begin(), seq.end());
  scratch_delta_.insert(scratch_delta_.end(), delta.begin(), delta.end());
}

}  // namespace spade
