// SIMD-friendly tile primitives for the k-NN scan.
//
// These are the inner loops of BlockedKnnIndex::top_k_scan, hoisted into
// their own translation unit so they can be compiled with the vectorizer
// fully enabled (and AVX2 function clones resolved at load time) without
// touching the code generation of the rest of the kernel.
//
// Numerical contract: every helper performs exactly the element-wise
// IEEE operations of the scalar loop in linalg::squared_distance —
// subtract, multiply, add, in ascending point order per feature — and
// the clones are generated without FMA, so results are bit-identical to
// engine::reference_top_k, the kernel's ground truth, on every CPU the
// resolver can pick.
#pragma once

#include <cstddef>

namespace appclass::engine::blocktiles {

/// acc[i] = (col[i] - q)^2 for i in [0, width) — first-feature store.
void sq_first(const double* col, double q, double* acc, std::size_t width);
/// acc[i] = (c0[i] - q0)^2 + (c1[i] - q1)^2 — the two-feature query in
/// one pass over the tile (half the acc traffic of store + accumulate).
/// Same mul, mul, add rounding sequence as the two-sweep form, so the
/// fusion is bit-transparent. Two features is the common case: the
/// paper keeps two principal components.
void sq_pair(const double* c0, const double* c1, double q0, double q1,
             double* acc, std::size_t width);
/// acc[i] += (col[i] - q)^2 for i in [0, width).
void sq_accumulate(const double* col, double q, double* acc,
                   std::size_t width);

/// acc[t] += g^2 with g = max(0, lo[t] - q, q - hi[t]) for t in
/// [0, count): one feature's term of each tile's box lower bound. For
/// lo <= x <= hi, g rounds to at most |x - q|'s rounding and g^2 to at
/// most (x - q)^2's, so the ascending-feature sum never exceeds a
/// distance in the box.
void box_gaps(const double* lo, const double* hi, double q, double* acc,
              std::size_t count);

/// Candidates per chunk_mins() block — the granularity at which the
/// scan's selection loop can skip distances wholesale.
inline constexpr std::size_t kMinChunk = 8;

/// mins[j] = min(acc[8j .. 8j+8)) for every complete 8-wide chunk
/// (floor(width / 8) of them); a trailing partial chunk is the caller's
/// to scan. Pure min-reduction — no arithmetic, so no rounding concerns.
void chunk_mins(const double* acc, std::size_t width, double* mins);

}  // namespace appclass::engine::blocktiles
