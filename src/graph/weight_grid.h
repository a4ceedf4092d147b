// The weight grid: every weight that enters a detector is a multiple of
// kWeightQuantum, and a detector's total mass stays at or below
// kMaxPartitionMass (DESIGN.md §2.2).
//
// Together the two make every sum, difference and suffix sum the peeling
// code takes exact in a double: a mass of 2^32 at a 2^-20 grid is at most
// 2^52 grid steps, a factor of 2 under the 53-bit significand. The peel
// state is then a function of the weighted graph alone, whatever order its
// sums were taken in — which is what lets chain replay apply a range as one
// merge instead of re-running every recorded flush (DESIGN.md §5.3), and
// what makes incremental ≡ static tie-exact for continuous semantics.

#pragma once

#include <cmath>

namespace spade {

/// The grid step: 2^-20.
inline constexpr double kWeightQuantum = 0x1p-20;

/// Bound on a detector's total mass: vertex priors plus edge weights, in
/// the graph and in the benign buffer. 2^32.
inline constexpr double kMaxPartitionMass = 0x1p32;

/// Rounds `w` to the nearest grid point (halves away from zero). Exact
/// scaling by powers of two, so a value already on the grid is returned
/// unchanged; a non-finite value stays non-finite.
inline double QuantizeWeight(double w) {
  return std::round(w * 0x1p20) * kWeightQuantum;
}

/// True for a finite value that is a multiple of the grid step.
inline bool IsOnWeightGrid(double w) {
  return std::isfinite(w) && QuantizeWeight(w) == w;
}

}  // namespace spade
