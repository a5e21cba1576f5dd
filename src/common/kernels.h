#ifndef HTAPEX_COMMON_KERNELS_H_
#define HTAPEX_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace htapex {
namespace kernels {

/// Float32 compute kernels for the serving hot path (router inference,
/// knowledge-base vector search). Every kernel has three implementations —
/// AVX2+FMA, NEON, and a portable scalar fallback — selected once at
/// startup by runtime CPU detection and overridable through the
/// HTAPEX_KERNELS environment variable (`scalar`, `avx2`, `neon`, or
/// `native`, the default). An unsupported request falls back to scalar, so
/// a pinned `HTAPEX_KERNELS=scalar` run is valid on every machine — that is
/// the determinism/A-B baseline CI exercises.
///
/// Numeric contract: all three backends compute the same mathematical
/// expression over float32 inputs. SIMD backends may fuse multiply-adds
/// (FMA), so results can differ from scalar by rounding in the last ulps;
/// they may NOT differ in NaN/inf behaviour — a NaN or inf in the input
/// propagates to the output on every backend (ReduceMax/MaxAccum enforce
/// this explicitly, since hardware max instructions quietly drop NaNs).
enum class Backend {
  kScalar = 0,
  kAvx2,
  kNeon,
};

const char* BackendName(Backend backend);

/// True when this build/CPU can run the given backend.
bool BackendSupported(Backend backend);

/// The backend every kernel below dispatches to. Resolved once, on first
/// use, from CPU detection + HTAPEX_KERNELS.
Backend ActiveBackend();

/// Test/bench hook: re-points the dispatch table (and ActiveBackend()) at
/// the given backend if supported (returns false otherwise). NOT
/// thread-safe — call only while no kernels are in flight. Production code
/// must rely on the startup selection instead.
bool ForceBackendForTest(Backend backend);

/// Squared L2 distance between two float32 vectors of length n.
float SquaredL2(const float* a, const float* b, int n);

/// out[r] = SquaredL2(q, rows + r * dim, dim) for r in [0, count): one
/// dispatch for a whole row-major slab. Each distance is bit-identical to
/// the single-pair kernel on the same backend.
void SquaredL2Batch(const float* q, const float* rows, int count, int dim,
                    float* out);

/// C[m x n] += A[m x k] * B[k x n], all row-major. The workhorse behind the
/// frozen tree-CNN conv layers: all nodes of a layer go through one blocked
/// GEMM instead of per-node branchy matvecs.
void GemmAccum(const float* a, const float* b, float* c, int m, int k, int n);

/// y[0..cols) += x[0..rows) * W[rows x cols] (row-major W) — the m == 1
/// GEMM, kept as its own entry point (and counter) because single-vector
/// dense layers call it directly.
void MatVecAccum(const float* w, const float* x, int rows, int cols, float* y);

/// y[i] += alpha * x[i].
void Axpy(float alpha, const float* x, float* y, int n);

/// x[i] = max(x[i], 0); NaN stays NaN.
void Relu(float* x, int n);

/// Maximum element of x[0..n); returns NaN if any element is NaN, -inf for
/// n == 0.
float ReduceMax(const float* x, int n);

/// acc[i] = max(acc[i], x[i]); a NaN in either operand yields NaN. Used for
/// the tree-CNN dynamic max pool (column-wise max over node rows).
void MaxAccum(float* acc, const float* x, int n);

// ---------------------------------------------------------------------------
// Batch primitives for the vectorized query executor (vec_executor.*). All
// masks are byte vectors whose elements are strictly 0 or 1 — one byte per
// row of a column segment.
// ---------------------------------------------------------------------------

/// Comparison selector for the batch mask kernels. Matches the subset of
/// SQL comparison operators with type-exact semantics on every backend.
enum class MaskCmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// out[i] = (a[i] <op> lit) ? 1 : 0. Integer comparison is exact on every
/// backend (no float round-trip), so scalar and SIMD agree bit-for-bit.
void MaskCmpI64(const int64_t* a, int64_t lit, MaskCmpOp op, uint8_t* out,
                int n);

/// out[i] = (a[i] <op> lit) ? 1 : 0 over doubles, with IEEE comparison
/// semantics (identical across backends; no reassociation is involved).
void MaskCmpF64(const double* a, double lit, MaskCmpOp op, uint8_t* out,
                int n);

/// mask[i] &= other[i] (predicate conjunction).
void MaskAnd(uint8_t* mask, const uint8_t* other, int n);

/// mask[i] &= !other[i] — strips rows whose byte is set, e.g. clearing
/// null rows out of a selection mask. Requires 0/1 bytes.
void MaskAndNot(uint8_t* mask, const uint8_t* other, int n);

/// Number of set bytes in mask[0..n).
int64_t CountMask(const uint8_t* mask, int n);

/// Sum of a[0..n). The SIMD backends reassociate the additions, so the
/// result can differ from scalar in the last ulps (same contract as the
/// float32 kernels above); result comparison happens through the
/// fingerprint's %.6g normalization.
double SumF64(const double* a, int n);

/// Sum of a[0..n); exact (two's-complement) on every backend.
int64_t SumI64(const int64_t* a, int n);

/// out[i] = the hash Value::Hash() produces for the int64 a[i]: widen to
/// double, take the bit pattern, splitmix-style finalizer. Bit-identical on
/// every backend — gathered-key join tables and Bloom sifts must agree with
/// the per-row Value::Hash() path exactly.
void HashI64(const int64_t* a, uint64_t* out, int n);

/// Same contract over doubles (the shared representation int hashing
/// widens into, so Int(1) and Double(1.0) collide like Value::Hash()).
void HashF64(const double* a, uint64_t* out, int n);

/// FNV-1a 64 over a byte range — Value::Hash() on strings. Serial per
/// string on every backend; in the kernel set for uniform counting.
uint64_t HashBytes(const void* data, size_t len);

/// Per-kernel invocation counters (relaxed atomics, process-wide), exported
/// into the Prometheus exposition next to the dispatch gauge so an operator
/// can see both which backend is live and how hot each kernel runs.
/// `squared_l2` counts distances, not calls: SquaredL2 adds one and
/// SquaredL2Batch adds its row count.
struct KernelStats {
  Backend backend = Backend::kScalar;
  uint64_t squared_l2 = 0;
  uint64_t gemm = 0;
  uint64_t matvec = 0;
  uint64_t axpy = 0;
  uint64_t relu = 0;
  uint64_t reduce_max = 0;
  uint64_t max_accum = 0;
  uint64_t mask_cmp = 0;
  uint64_t mask_and = 0;
  uint64_t mask_andnot = 0;
  uint64_t count_mask = 0;
  uint64_t sum_f64 = 0;
  uint64_t sum_i64 = 0;
  uint64_t hash_i64 = 0;
  uint64_t hash_f64 = 0;
  uint64_t hash_bytes = 0;
};
KernelStats Stats();

/// Bump allocator for inference scratch space. One Arena per thread
/// (ThreadArena()); a forward pass Reset()s it and carves all of its
/// activation/gather buffers out of it, so steady-state inference performs
/// zero heap allocations — `grows` stops moving once the high-water mark is
/// reached, which is exactly what bench_kernels asserts.
///
/// Pointers returned by Alloc stay valid until the next Reset() even if a
/// later Alloc has to grow (growth appends a new chunk; it never moves
/// existing ones). Reset() coalesces multiple chunks into one, so the
/// steady state is a single buffer reused forever.
class Arena {
 public:
  struct Stats {
    uint64_t grows = 0;       // heap allocations performed (ever)
    uint64_t resets = 0;      // Reset() calls
    size_t capacity_bytes = 0;
    size_t used_bytes = 0;
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// n floats of scratch, zero-initialization NOT guaranteed.
  float* AllocFloats(size_t n);
  /// Same buffer pool, int-typed view (gather index lists).
  int* AllocInts(size_t n);
  /// Typed views used by the vectorized executor's per-morsel scratch.
  double* AllocDoubles(size_t n);
  int64_t* AllocInt64s(size_t n);
  uint64_t* AllocU64s(size_t n);
  uint8_t* AllocU8(size_t n);

  /// Makes all previously allocated memory reusable (no free).
  void Reset();

  Stats stats() const { return stats_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t capacity = 0;  // bytes
    size_t used = 0;      // bytes
  };

  void* AllocBytes(size_t bytes);

  std::vector<Chunk> chunks_;
  Stats stats_;
};

/// The calling thread's inference arena.
Arena& ThreadArena();

}  // namespace kernels
}  // namespace htapex

#endif  // HTAPEX_COMMON_KERNELS_H_
