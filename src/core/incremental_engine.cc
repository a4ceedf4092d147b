#include "core/incremental_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace spade {

Status IncrementalEngine::InsertEdge(DynamicGraph* g, PeelState* state,
                                     const Edge& edge,
                                     const VertexSuspFn& vsusp,
                                     ReorderStats* stats) {
  return InsertBatch(g, state, std::span<const Edge>(&edge, 1), vsusp, stats);
}

Status IncrementalEngine::InsertBatch(DynamicGraph* g, PeelState* state,
                                      std::span<const Edge> edges,
                                      const VertexSuspFn& vsusp,
                                      ReorderStats* stats) {
  if (edges.empty()) return Status::OK();
  for (const Edge& e : edges) {
    if (!(e.weight > 0.0)) {
      return Status::InvalidArgument("InsertBatch: edge weight must be > 0");
    }
    if (e.src == e.dst) {
      return Status::InvalidArgument("InsertBatch: self-loops not supported");
    }
  }

  // Vertex insertion (§4.1): unseen endpoints join the head of the peeling
  // sequence carrying their prior suspiciousness as the initial peeling
  // weight (Δ0 = 0 when the semantics assigns no prior). Gap ids implied by
  // a sparse id space are registered as isolated prior-0 vertices so the
  // state always covers the graph. All created vertices are marked black
  // below: the merge then places them canonically relative to existing
  // equal-weight vertices.
  new_vertices_.clear();
  batch_endpoints_.clear();
  for (const Edge& e : edges) {
    batch_endpoints_.push_back(e.src);
    batch_endpoints_.push_back(e.dst);
  }
  std::sort(batch_endpoints_.begin(), batch_endpoints_.end());
  const auto is_batch_endpoint = [&](VertexId nv) {
    return std::binary_search(batch_endpoints_.begin(),
                              batch_endpoints_.end(), nv);
  };
  // Register every id the graph ends up covering but the state does not —
  // gap ids implied by a sparse id space, or endpoints a caller already
  // created in the graph (Spade grows the graph before weighting) — as
  // isolated prior-0 vertices, so the state always covers the graph. Batch
  // endpoints are excluded from gap filling: each takes the prior-carrying
  // branch of its own iteration, regardless of the order endpoints are
  // reached. The gap cursor only moves forward, so across the whole batch
  // every id is inspected once (state coverage is dense below it apart
  // from skipped endpoints, which their own iterations fill before the
  // merge).
  auto gap_cursor = static_cast<VertexId>(state->size());
  for (const Edge& e : edges) {
    for (VertexId v : {e.src, e.dst}) {
      if (v >= g->NumVertices() || !state->ContainsVertex(v)) {
        g->EnsureVertices(v + 1);
        for (; gap_cursor < g->NumVertices(); ++gap_cursor) {
          if (!is_batch_endpoint(gap_cursor) &&
              !state->ContainsVertex(gap_cursor)) {
            state->InsertVertexAtHead(gap_cursor, 0.0);
            new_vertices_.push_back(gap_cursor);
          }
        }
        const double prior = vsusp ? vsusp(v, *g) : 0.0;
        g->SetVertexWeight(v, prior);
        state->InsertVertexAtHead(v, prior);
        new_vertices_.push_back(v);
      }
    }
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
  BumpEpoch();
  pending_.EnsureCapacity(g->NumVertices());
  if (g->NumVertices() > 0) {
    EnsureScratch(static_cast<VertexId>(g->NumVertices() - 1));
  }
  black_positions_.clear();
  for (VertexId v : new_vertices_) {
    if (ColorOf(v) != Color::kBlack) {
      SetColor(v, Color::kBlack);
      black_positions_.push_back(state->PositionOf(v));
    }
  }
  for (const Edge& e : edges) {
    SPADE_RETURN_NOT_OK(g->AddEdge(e.src, e.dst, e.weight));
    for (VertexId v : {e.src, e.dst}) {
      if (ColorOf(v) != Color::kBlack) {
        SetColor(v, Color::kBlack);
        black_positions_.push_back(state->PositionOf(v));
      }
    }
    if (options_.stored_delta_recovery) {
      const bool src_earlier =
          state->PositionOf(e.src) < state->PositionOf(e.dst);
      AddRecov(src_earlier ? e.src : e.dst, e.weight);
    }
  }
  std::sort(black_positions_.begin(), black_positions_.end());

  ReorderStats local;
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
  if (src >= g->NumVertices() || dst >= g->NumVertices()) {
    return Status::InvalidArgument("DeleteEdge: endpoint out of range");
  }
  auto removed = g->RemoveEdge(src, dst, weight_filter);
  if (!removed.ok()) return removed.status();

  // Both endpoints lose weight at some steps of the sequence: the earlier-
  // peeled endpoint x counted the edge in its stored delta; the later one y
  // did not, but its weight at every step *before* x's position shrank, so
  // either endpoint may deserve an earlier slot (DESIGN.md §2.6).
  const std::size_t ps = state->PositionOf(src);
  const std::size_t pd = state->PositionOf(dst);
  const VertexId x = ps <= pd ? src : dst;
  const VertexId y = ps <= pd ? dst : src;
  const std::size_t px = std::min(ps, pd);
  const std::size_t py = std::max(ps, pd);

  BumpEpoch();
  pending_.EnsureCapacity(g->NumVertices());
  EnsureScratch(static_cast<VertexId>(g->NumVertices() - 1));
  ReorderStats local;

  // Backward walk (Appendix C.1): the earliest step where the endpoint's
  // current peeling weight undercuts the incumbent. w_u(S_k) starts at the
  // post-deletion whole-graph weight and loses each incident edge whose
  // other end peels before step k. Returns the endpoint's old position when
  // it keeps its slot.
  const auto walk_splice = [&](VertexId u, std::size_t pu,
                               double* weight_at_splice) {
    double cur = g->WeightedDegree(u);
    local.touched_edges += g->Degree(u);
    neighbor_weight_by_pos_.clear();
    g->ForEachIncident(u, [&](VertexId v, double w) {
      if (v != u) {
        neighbor_weight_by_pos_.emplace_back(state->PositionOf(v), w);
      }
    });
    std::sort(neighbor_weight_by_pos_.begin(), neighbor_weight_by_pos_.end());
    std::size_t ni = 0;
    for (std::size_t k = 0; k < pu; ++k) {
      if (HeapKeyLess(cur, u, state->DeltaAt(k), state->VertexAt(k))) {
        *weight_at_splice = cur;
        return k;
      }
      while (ni < neighbor_weight_by_pos_.size() &&
             neighbor_weight_by_pos_[ni].first == k) {
        cur -= neighbor_weight_by_pos_[ni].second;
        ++ni;
      }
    }
    *weight_at_splice = cur;
    return pu;
  };

  double wx = 0.0, wy = 0.0;
  const std::size_t splice_x = walk_splice(x, px, &wx);
  const std::size_t splice_y = walk_splice(y, py, &wy);

  // x's stored delta counted the deleted edge, so it shrinks by the edge
  // weight even when x keeps its slot; wx at k == px is exactly that value.
  if (splice_x == px && splice_y == py) {
    state->Assign(px, x, wx);
    state->InvalidateBest();
    if (stats != nullptr) stats->Accumulate(local);
    return Status::OK();
  }

  // Either endpoint moves: seed the queue with both at their exact weights
  // from the merged splice point. The weight is taken at the splice cursor
  // rather than at the endpoint's own slot, so the O(1) recovery identity
  // does not apply — recompute from the graph (two scans per deletion, the
  // same order as walk_splice itself). Their dips can cascade through
  // neighbors; the merge's early-pop sweep handles that transitively.
  const std::size_t splice = std::min(splice_x, splice_y);
  for (VertexId u : {x, y}) {
    PushPending(*g, u, state->PositionOf(u),
                ExactPendingWeight(*g, u, splice, *state, &local), &local);
  }

  black_positions_.clear();
  MergeLoop(*g, state, black_positions_, splice, &local);
  state->InvalidateBest();
  if (stats != nullptr) stats->Accumulate(local);
  return Status::OK();
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

double IncrementalEngine::RecoveredWeight(const DynamicGraph& g,
                                          const PeelState& state, VertexId u,
                                          double stored_delta, std::size_t k,
                                          ReorderStats* stats) const {
  if (!options_.stored_delta_recovery) {
    return ExactPendingWeight(g, u, k, state, stats);
  }
  // Algorithm 2's gray recovery (DESIGN.md §3.1): u is being read at its own
  // pre-merge slot k, so the stored peeling weight counts exactly u's vertex
  // weight plus its edges into the pre-merge suffix [k, n); the accumulator
  // carries the net correction from every neighbor that entered or left T
  // and every inserted edge. O(1) instead of an incident-list rescan.
  (void)g;
  ++stats->recovery_lookups;
  return stored_delta + RecovOf(u);
}

void IncrementalEngine::PushPending(const DynamicGraph& g, VertexId u,
                                    std::size_t old_pos, double weight,
                                    ReorderStats* stats) {
  pending_.Push(u, weight);
  ++stats->affected_vertices;
  // Stamping u in both modes keeps IsUntouched's one-load answer sound:
  // every pending vertex carries the current stamp.
  VertexScratch& su = Scratch(u);
  if (options_.stored_delta_recovery) {
    // Defer the gray+credit pass: if u pops before the merge reads another
    // affected slot, neither the credits nor their matching debits are ever
    // observable, and u's only incident pass is the relax pass at emit. The
    // degree budget funds white-slot adjacency probes in the meantime.
    su.deferred = true;
    uncredited_.emplace_back(u, old_pos);
    ++deferred_count_;
    credit_budget_ += static_cast<std::ptrdiff_t>(g.Degree(u));
  } else {
    g.ForEachIncident(u, [&](VertexId v, double) {
      if (ColorOf(v) == Color::kWhite) SetColor(v, Color::kGray);
    });
    stats->touched_edges += g.Degree(u);
  }
}

void IncrementalEngine::FlushCredits(const DynamicGraph& g,
                                     const PeelState& state,
                                     ReorderStats* stats) {
  for (const auto& [u, old_pos] : uncredited_) {
    // Entries of members that already popped are stale — their pass was
    // cancelled, not deferred.
    VertexScratch& su = Scratch(u);
    if (!su.deferred) continue;
    su.deferred = false;
    // u moved from "unscanned" to "pending": a later-positioned unscanned
    // neighbor's stored weight missed this edge (u peeled first in the old
    // order), but the edge now counts while u sits in T — credit it. The
    // earlier-positioned ones already count it in their stored weight.
    // Crediting a neighbor that is itself pending or already emitted is
    // harmless (its accumulator is never read again this epoch), so the
    // position test is the only guard — one packed-scratch line and one
    // position read per edge, with a branchless accumulate. Both lines are
    // prefetched a few neighbors ahead of the visit.
    ForEachIncidentPrefetched(
        g, u,
        [&](VertexId pv) {
          SPADE_PREFETCH(scratch_vertex_.data() + pv);
          state.PrefetchPosition(pv);
        },
        [&](VertexId v, double c) {
          VertexScratch& s = Scratch(v);
          if (s.color == static_cast<std::uint8_t>(Color::kWhite)) {
            s.color = static_cast<std::uint8_t>(Color::kGray);
          }
          s.recov += state.PositionOf(v) > old_pos ? c : 0.0;
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
  MarkEmitted(umin);

  // Was umin's gray+credit pass ever flushed? If not, cancel it O(1) via
  // the scratch flag (its list entry goes stale; the flush skips those):
  // no credits were written, so no cancelling debits are owed.
  bool credited = true;
  if (options_.stored_delta_recovery) {
    VertexScratch& su = Scratch(umin);
    if (su.deferred) {
      su.deferred = false;
      --deferred_count_;
      credit_budget_ -= static_cast<std::ptrdiff_t>(g.Degree(umin));
      credited = false;
    }
  }

  // Phase 1: peeling umin releases its edges from every neighbor that was
  // already in the queue, and — when umin's credit pass ran and it emits at
  // or behind the scan cursor — debits the recovery accumulator of every
  // unscanned neighbor: whether the stored weight counted the edge
  // (old_pos after the neighbor) or the credit pass added it, an emitted
  // umin must no longer contribute. Debiting an already-emitted neighbor is
  // harmless — its accumulator is never read again this epoch. No debits
  // are owed otherwise: an uncredited umin wrote no credits, and an early
  // emit (old_pos > k, deletion path) sweeps every readable unscanned
  // neighbor into the queue at an exact from-graph weight below, making
  // their accumulators unread.
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
          } else if (options_.stored_delta_recovery) {
            AddRecov(v, -c);
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
    // own incident list costs O(deg(u_k)) against the O(deg(T)) of a flush;
    // the degree budget accumulated at push time keeps the probes bounded
    // by one deferred pass overall, so the worst case stays one incident
    // pass per affected vertex while a queue that drains before the next
    // affected read never pays its credit pass at all.
    bool affected = ColorOf(u_k) != Color::kWhite;
    bool have_probe_weight = false;
    double probe_weight = 0.0;
    if (options_.stored_delta_recovery && deferred_count_ > 0) {
      if (affected) {
        // Gray or black with deferred credits outstanding: the accumulator
        // is behind by exactly those credits — settle them.
        FlushCredits(g, *state, stats);
      } else {
        const auto deg = static_cast<std::ptrdiff_t>(g.Degree(u_k));
        if (credit_budget_ < deg) {
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
          credit_budget_ -= deg;
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
                      : RecoveredWeight(g, *state, u_k, d_k, k, stats),
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
    // Tight extension: with every deferred credit settled the next slot is
    // classified by the case-1 comparison and IsUntouched alone, and while
    // the write cursor trails the scan no slot at or beyond k has been
    // overwritten, so the incumbents come straight from the live arrays.
    // The first slot that fails either test goes back through the general
    // path above, which classifies it exactly as before.
    if (deferred_count_ == 0 && w < k) {
      const bool has_top = !pending_.empty();
      const double top_weight = has_top ? pending_.TopWeight() : 0.0;
      const VertexId top_vertex = has_top ? pending_.TopVertex() : 0;
      const auto seq = state->seq();
      const auto delta = state->delta();
      for (; k < n; ++k, ++w, ++run_len, ++stats->rewritten_span) {
        if (k + kLookahead < n) {
          SPADE_PREFETCH(scratch_vertex_.data() + seq[k + kLookahead]);
        }
        const VertexId u = seq[k];
        if (has_top && HeapKeyLess(top_weight, top_vertex, delta[k], u)) {
          break;
        }
        if (!IsUntouched(u)) break;
      }
    }
  }
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
    // the emitted mark tells them apart from unscanned vertices.
    for (std::size_t i = 0; i < len; ++i) MarkEmitted(scratch_seq_[off + i]);
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
