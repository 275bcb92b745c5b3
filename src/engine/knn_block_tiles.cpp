// Block-kernel tile primitives. Compiled with -ftree-vectorize and a
// permissive vectorizer cost model (see src/engine/CMakeLists.txt), plus
// AVX2 function clones picked by the loader on capable hosts. FMA
// contraction is disabled for this TU: each lane must round after the
// multiply exactly like the scalar reference, or distances would drift
// by an ulp and break the kernel's bit-identity contract.
#include "engine/knn_block_tiles.hpp"

namespace appclass::engine::blocktiles {

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define APPCLASS_TILE_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define APPCLASS_TILE_CLONES
#endif

APPCLASS_TILE_CLONES
void sq_first(const double* col, double q, double* acc, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    const double d = col[i] - q;
    acc[i] = d * d;
  }
}

APPCLASS_TILE_CLONES
void sq_accumulate(const double* col, double q, double* acc,
                   std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    const double d = col[i] - q;
    acc[i] += d * d;
  }
}

APPCLASS_TILE_CLONES
void sq_pair(const double* c0, const double* c1, double q0, double q1,
             double* acc, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    const double d0 = c0[i] - q0;
    const double d1 = c1[i] - q1;
    acc[i] = d0 * d0 + d1 * d1;
  }
}

APPCLASS_TILE_CLONES
void box_gaps(const double* lo, const double* hi, double q, double* acc,
              std::size_t count) {
  for (std::size_t t = 0; t < count; ++t) {
    // lo <= hi, so at most one side is positive and the sum is exact;
    // written as two clamps because that form vectorizes.
    double below = lo[t] - q;
    double above = q - hi[t];
    below = below > 0.0 ? below : 0.0;
    above = above > 0.0 ? above : 0.0;
    const double g = below + above;
    acc[t] += g * g;
  }
}

APPCLASS_TILE_CLONES
void chunk_mins(const double* acc, std::size_t width, double* mins) {
  const std::size_t blocks = width / kMinChunk;
  for (std::size_t j = 0; j < blocks; ++j) {
    const double* const a = acc + j * kMinChunk;
    // Pairwise tree, not a serial scan: a left-to-right min is a chain
    // of 7 dependent ops, while this shape is 3 levels deep and its
    // first level is a single 4-lane vector min.
    const double t0 = a[0] < a[4] ? a[0] : a[4];
    const double t1 = a[1] < a[5] ? a[1] : a[5];
    const double t2 = a[2] < a[6] ? a[2] : a[6];
    const double t3 = a[3] < a[7] ? a[3] : a[7];
    const double u0 = t0 < t2 ? t0 : t2;
    const double u1 = t1 < t3 ? t1 : t3;
    mins[j] = u0 < u1 ? u0 : u1;
  }
}

#undef APPCLASS_TILE_CLONES

}  // namespace appclass::engine::blocktiles
