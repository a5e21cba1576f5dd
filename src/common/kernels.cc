#include "common/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"

#if defined(__x86_64__) || defined(_M_X64)
#define HTAPEX_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define HTAPEX_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace htapex {
namespace kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference backend. Every SIMD path must match these expressions
// (modulo FMA rounding); the unit tests hold that contract.
// ---------------------------------------------------------------------------

inline float SquaredL2Scalar(const float* a, const float* b, int n) {
  float acc = 0.0f;
  for (int i = 0; i < n; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

// Each backend's batch loop inlines that backend's own per-row routine, so
// every distance is bit-identical to the single-pair kernel.
void SquaredL2BatchScalar(const float* q, const float* rows, int count,
                          int dim, float* out) {
  for (int r = 0; r < count; ++r) {
    out[r] = SquaredL2Scalar(q, rows + static_cast<size_t>(r) * dim, dim);
  }
}

void GemmAccumScalar(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      const float* brow = b + static_cast<size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void AxpyScalar(float alpha, const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ReluScalar(float* x, int n) {
  // x < 0 is false for NaN, so NaN passes through (the documented
  // propagation contract).
  for (int i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

float ReduceMaxScalar(const float* x, int n) {
  float best = -std::numeric_limits<float>::infinity();
  bool has_nan = false;
  for (int i = 0; i < n; ++i) {
    has_nan |= std::isnan(x[i]);
    if (x[i] > best) best = x[i];
  }
  return has_nan ? std::numeric_limits<float>::quiet_NaN() : best;
}

void MaxAccumScalar(float* acc, const float* x, int n) {
  for (int i = 0; i < n; ++i) {
    if (std::isnan(acc[i]) || std::isnan(x[i])) {
      acc[i] = std::numeric_limits<float>::quiet_NaN();
    } else if (x[i] > acc[i]) {
      acc[i] = x[i];
    }
  }
}

template <typename T>
void MaskCmpScalarT(const T* a, T lit, MaskCmpOp op, uint8_t* out, int n) {
  switch (op) {
    case MaskCmpOp::kEq:
      for (int i = 0; i < n; ++i) out[i] = a[i] == lit ? 1 : 0;
      break;
    case MaskCmpOp::kNe:
      for (int i = 0; i < n; ++i) out[i] = a[i] != lit ? 1 : 0;
      break;
    case MaskCmpOp::kLt:
      for (int i = 0; i < n; ++i) out[i] = a[i] < lit ? 1 : 0;
      break;
    case MaskCmpOp::kLe:
      for (int i = 0; i < n; ++i) out[i] = a[i] <= lit ? 1 : 0;
      break;
    case MaskCmpOp::kGt:
      for (int i = 0; i < n; ++i) out[i] = a[i] > lit ? 1 : 0;
      break;
    case MaskCmpOp::kGe:
      for (int i = 0; i < n; ++i) out[i] = a[i] >= lit ? 1 : 0;
      break;
  }
}

void MaskCmpI64Scalar(const int64_t* a, int64_t lit, MaskCmpOp op,
                      uint8_t* out, int n) {
  MaskCmpScalarT(a, lit, op, out, n);
}

void MaskCmpF64Scalar(const double* a, double lit, MaskCmpOp op, uint8_t* out,
                      int n) {
  MaskCmpScalarT(a, lit, op, out, n);
}

void MaskAndScalar(uint8_t* mask, const uint8_t* other, int n) {
  for (int i = 0; i < n; ++i) mask[i] &= other[i];
}

void MaskAndNotScalar(uint8_t* mask, const uint8_t* other, int n) {
  for (int i = 0; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(mask[i] & (other[i] ^ 1));
  }
}

int64_t CountMaskScalar(const uint8_t* mask, int n) {
  int64_t count = 0;
  for (int i = 0; i < n; ++i) count += mask[i];
  return count;
}

double SumF64Scalar(const double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i];
  return acc;
}

int64_t SumI64Scalar(const int64_t* a, int n) {
  int64_t acc = 0;
  for (int i = 0; i < n; ++i) acc += a[i];
  return acc;
}

// Bit-exact Value::Hash() for numerics: widen to the double representation,
// take its bit pattern, and run the same splitmix-style finalizer. Every
// backend must agree with the per-row path exactly — join tables and Bloom
// sifts built from gathered key columns would otherwise diverge from the
// row-executor oracle.
inline uint64_t SplitmixDoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  bits ^= bits >> 30;
  bits *= 0xbf58476d1ce4e5b9ull;
  bits ^= bits >> 27;
  bits *= 0x94d049bb133111ebull;
  bits ^= bits >> 31;
  return bits;
}

void HashI64Scalar(const int64_t* a, uint64_t* out, int n) {
  for (int i = 0; i < n; ++i) {
    out[i] = SplitmixDoubleBits(static_cast<double>(a[i]));
  }
}

void HashF64Scalar(const double* a, uint64_t* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = SplitmixDoubleBits(a[i]);
}

// FNV-1a 64 — Value::Hash() on strings. Inherently serial per string, so
// every backend shares this implementation; it lives in the dispatch table
// only so invocation counting stays uniform.
uint64_t HashBytesScalar(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// AVX2 + FMA backend. Compiled with per-function target attributes so no
// special flags are needed for the rest of the library; only ever called
// after __builtin_cpu_supports confirmed both features.
// ---------------------------------------------------------------------------

#if HTAPEX_KERNELS_X86

__attribute__((target("avx2,fma"))) inline float SquaredL2Avx2(
    const float* a, const float* b, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 lo = _mm256_castps256_ps128(acc0);
  __m128 hi = _mm256_extractf128_ps(acc0, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);
  __m128 sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
  __m128 sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 1));
  float acc = _mm_cvtss_f32(sum1);
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

__attribute__((target("avx2,fma"))) void SquaredL2BatchAvx2(
    const float* q, const float* rows, int count, int dim, float* out) {
  for (int r = 0; r < count; ++r) {
    out[r] = SquaredL2Avx2(q, rows + static_cast<size_t>(r) * dim, dim);
  }
}

__attribute__((target("avx2,fma"))) void GemmAccumAvx2(const float* a,
                                                       const float* b,
                                                       float* c, int m, int k,
                                                       int n) {
  int i = 0;
  // 4x16 register tile: 8 YMM accumulators live across the whole k loop.
  // One C row alone chains every FMA through the same accumulator pair
  // (latency-bound, ~1/4 of FMA throughput); four rows give eight
  // independent chains, enough to keep both FMA ports busy, and amortize
  // each B-row load over four rows.
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + static_cast<size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0r = c + static_cast<size_t>(i) * n;
    float* c1r = c0r + n;
    float* c2r = c1r + n;
    float* c3r = c2r + n;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc00 = _mm256_loadu_ps(c0r + j);
      __m256 acc01 = _mm256_loadu_ps(c0r + j + 8);
      __m256 acc10 = _mm256_loadu_ps(c1r + j);
      __m256 acc11 = _mm256_loadu_ps(c1r + j + 8);
      __m256 acc20 = _mm256_loadu_ps(c2r + j);
      __m256 acc21 = _mm256_loadu_ps(c2r + j + 8);
      __m256 acc30 = _mm256_loadu_ps(c3r + j);
      __m256 acc31 = _mm256_loadu_ps(c3r + j + 8);
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<size_t>(kk) * n + j;
        __m256 b0 = _mm256_loadu_ps(brow);
        __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[kk]);
        acc00 = _mm256_fmadd_ps(av, b0, acc00);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_set1_ps(a1[kk]);
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_set1_ps(a2[kk]);
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_set1_ps(a3[kk]);
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
      }
      _mm256_storeu_ps(c0r + j, acc00);
      _mm256_storeu_ps(c0r + j + 8, acc01);
      _mm256_storeu_ps(c1r + j, acc10);
      _mm256_storeu_ps(c1r + j + 8, acc11);
      _mm256_storeu_ps(c2r + j, acc20);
      _mm256_storeu_ps(c2r + j + 8, acc21);
      _mm256_storeu_ps(c3r + j, acc30);
      _mm256_storeu_ps(c3r + j + 8, acc31);
    }
    // Column tail: fall through to the single-row kernel for j..n on each
    // of the four rows.
    if (j < n) {
      for (int r = 0; r < 4; ++r) {
        const float* arow = a + static_cast<size_t>(i + r) * k;
        float* crow = c + static_cast<size_t>(i + r) * n;
        int jj = j;
        for (; jj + 8 <= n; jj += 8) {
          __m256 acc = _mm256_loadu_ps(crow + jj);
          for (int kk = 0; kk < k; ++kk) {
            acc = _mm256_fmadd_ps(
                _mm256_set1_ps(arow[kk]),
                _mm256_loadu_ps(b + static_cast<size_t>(kk) * n + jj), acc);
          }
          _mm256_storeu_ps(crow + jj, acc);
        }
        for (; jj < n; ++jj) {
          float acc = crow[jj];
          for (int kk = 0; kk < k; ++kk) {
            acc += arow[kk] * b[static_cast<size_t>(kk) * n + jj];
          }
          crow[jj] = acc;
        }
      }
    }
  }
  // Row tail (< 4 rows): single-row kernel.
  for (; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    int j = 0;
    // 16-wide column blocks: two YMM accumulators live across the whole k
    // loop, so each C element is loaded/stored once per block.
    for (; j + 16 <= n; j += 16) {
      __m256 c0 = _mm256_loadu_ps(crow + j);
      __m256 c1 = _mm256_loadu_ps(crow + j + 8);
      for (int kk = 0; kk < k; ++kk) {
        __m256 av = _mm256_set1_ps(arow[kk]);
        const float* brow = b + static_cast<size_t>(kk) * n + j;
        c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), c0);
        c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), c1);
      }
      _mm256_storeu_ps(crow + j, c0);
      _mm256_storeu_ps(crow + j + 8, c1);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 c0 = _mm256_loadu_ps(crow + j);
      for (int kk = 0; kk < k; ++kk) {
        __m256 av = _mm256_set1_ps(arow[kk]);
        c0 = _mm256_fmadd_ps(
            av, _mm256_loadu_ps(b + static_cast<size_t>(kk) * n + j), c0);
      }
      _mm256_storeu_ps(crow + j, c0);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      for (int kk = 0; kk < k; ++kk) {
        acc += arow[kk] * b[static_cast<size_t>(kk) * n + j];
      }
      crow[j] = acc;
    }
  }
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float alpha, const float* x,
                                                  float* y, int n) {
  __m256 av = _mm256_set1_ps(alpha);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) void ReluAvx2(float* x, int n) {
  __m256 zero = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    // max(0, v): VMAXPS returns the second operand when either is NaN, so a
    // NaN input survives — same contract as the scalar path.
    _mm256_storeu_ps(x + i, _mm256_max_ps(zero, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

__attribute__((target("avx2,fma"))) float ReduceMaxAvx2(const float* x,
                                                        int n) {
  float best = -std::numeric_limits<float>::infinity();
  __m256 bestv = _mm256_set1_ps(best);
  __m256 nanv = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    bestv = _mm256_max_ps(bestv, v);
    // VMAXPS silently drops a NaN that sits in the accumulator, so NaN-ness
    // is tracked separately: unordered-compare marks lanes where v is NaN.
    nanv = _mm256_or_ps(nanv, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
  }
  bool has_nan = _mm256_movemask_ps(nanv) != 0;
  float lanes[8];
  _mm256_storeu_ps(lanes, bestv);
  for (float v : lanes) {
    if (v > best) best = v;
  }
  for (; i < n; ++i) {
    has_nan |= std::isnan(x[i]);
    if (x[i] > best) best = x[i];
  }
  return has_nan ? std::numeric_limits<float>::quiet_NaN() : best;
}

__attribute__((target("avx2,fma"))) void MaxAccumAvx2(float* acc,
                                                      const float* x, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 a = _mm256_loadu_ps(acc + i);
    __m256 v = _mm256_loadu_ps(x + i);
    __m256 mx = _mm256_max_ps(a, v);
    // Re-inject NaN where either operand was NaN (unordered lanes).
    __m256 unord = _mm256_cmp_ps(a, v, _CMP_UNORD_Q);
    __m256 qnan = _mm256_set1_ps(std::numeric_limits<float>::quiet_NaN());
    _mm256_storeu_ps(acc + i, _mm256_blendv_ps(mx, qnan, unord));
  }
  for (; i < n; ++i) {
    if (std::isnan(acc[i]) || std::isnan(x[i])) {
      acc[i] = std::numeric_limits<float>::quiet_NaN();
    } else if (x[i] > acc[i]) {
      acc[i] = x[i];
    }
  }
}

__attribute__((target("avx2"))) void MaskCmpI64Avx2(const int64_t* a,
                                                    int64_t lit, MaskCmpOp op,
                                                    uint8_t* out, int n) {
  const __m256i litv = _mm256_set1_epi64x(lit);
  const __m256i ones = _mm256_set1_epi64x(-1);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i m;
    switch (op) {
      case MaskCmpOp::kEq:
        m = _mm256_cmpeq_epi64(v, litv);
        break;
      case MaskCmpOp::kNe:
        m = _mm256_xor_si256(_mm256_cmpeq_epi64(v, litv), ones);
        break;
      case MaskCmpOp::kLt:
        m = _mm256_cmpgt_epi64(litv, v);
        break;
      case MaskCmpOp::kLe:
        m = _mm256_xor_si256(_mm256_cmpgt_epi64(v, litv), ones);
        break;
      case MaskCmpOp::kGt:
        m = _mm256_cmpgt_epi64(v, litv);
        break;
      case MaskCmpOp::kGe:
        m = _mm256_xor_si256(_mm256_cmpgt_epi64(litv, v), ones);
        break;
    }
    int bits = _mm256_movemask_pd(_mm256_castsi256_pd(m));
    out[i] = static_cast<uint8_t>(bits & 1);
    out[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    out[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);
    out[i + 3] = static_cast<uint8_t>((bits >> 3) & 1);
  }
  MaskCmpI64Scalar(a + i, lit, op, out + i, n - i);
}

__attribute__((target("avx2"))) void MaskCmpF64Avx2(const double* a,
                                                    double lit, MaskCmpOp op,
                                                    uint8_t* out, int n) {
  const __m256d litv = _mm256_set1_pd(lit);
  int i = 0;
// One loop per predicate immediate (the imm8 must be a compile-time
// constant). _OQ / NEQ_UQ match C++ scalar comparison semantics.
#define HTAPEX_MASKCMP_LOOP(IMM)                                       \
  for (; i + 4 <= n; i += 4) {                                         \
    int bits = _mm256_movemask_pd(                                     \
        _mm256_cmp_pd(_mm256_loadu_pd(a + i), litv, IMM));             \
    out[i] = static_cast<uint8_t>(bits & 1);                           \
    out[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);                \
    out[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);                \
    out[i + 3] = static_cast<uint8_t>((bits >> 3) & 1);                \
  }
  switch (op) {
    case MaskCmpOp::kEq:
      HTAPEX_MASKCMP_LOOP(_CMP_EQ_OQ);
      break;
    case MaskCmpOp::kNe:
      HTAPEX_MASKCMP_LOOP(_CMP_NEQ_UQ);
      break;
    case MaskCmpOp::kLt:
      HTAPEX_MASKCMP_LOOP(_CMP_LT_OQ);
      break;
    case MaskCmpOp::kLe:
      HTAPEX_MASKCMP_LOOP(_CMP_LE_OQ);
      break;
    case MaskCmpOp::kGt:
      HTAPEX_MASKCMP_LOOP(_CMP_GT_OQ);
      break;
    case MaskCmpOp::kGe:
      HTAPEX_MASKCMP_LOOP(_CMP_GE_OQ);
      break;
  }
#undef HTAPEX_MASKCMP_LOOP
  MaskCmpF64Scalar(a + i, lit, op, out + i, n - i);
}

__attribute__((target("avx2"))) void MaskAndAvx2(uint8_t* mask,
                                                 const uint8_t* other,
                                                 int n) {
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    __m256i o =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(other + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i),
                        _mm256_and_si256(m, o));
  }
  for (; i < n; ++i) mask[i] &= other[i];
}

__attribute__((target("avx2"))) void MaskAndNotAvx2(uint8_t* mask,
                                                    const uint8_t* other,
                                                    int n) {
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    __m256i o =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(other + i));
    // ~other & mask; correct because mask bytes are 0/1.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i),
                        _mm256_andnot_si256(o, m));
  }
  MaskAndNotScalar(mask + i, other + i, n - i);
}

__attribute__((target("avx2"))) int64_t CountMaskAvx2(const uint8_t* mask,
                                                      int n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    // Sum-of-absolute-differences against zero: four u64 byte sums.
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
  }
  alignas(32) int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) count += mask[i];
  return count;
}

__attribute__((target("avx2"))) double SumF64Avx2(const double* a, int n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
  }
  acc0 = _mm256_add_pd(acc0, acc1);
  __m128d lo = _mm256_castpd256_pd128(acc0);
  __m128d hi = _mm256_extractf128_pd(acc0, 1);
  __m128d sum2 = _mm_add_pd(lo, hi);
  double acc = _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
  for (; i < n; ++i) acc += a[i];
  return acc;
}

__attribute__((target("avx2"))) int64_t SumI64Avx2(const int64_t* a, int n) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_epi64(
        acc0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4)));
  }
  acc0 = _mm256_add_epi64(acc0, acc1);
  alignas(32) int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc0);
  int64_t acc = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) acc += a[i];
  return acc;
}

/// 4-lane 64-bit multiply by a constant, mod 2^64. AVX2 has no 64-bit
/// low-multiply (that's AVX-512), so compose it from 32-bit partial
/// products: lo*lo + ((hi*lo + lo*hi) << 32).
__attribute__((target("avx2"))) inline __m256i Mul64Avx2(__m256i a,
                                                         __m256i b) {
  __m256i lo = _mm256_mul_epu32(a, b);
  __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                                   _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// The splitmix finalizer over 4 lanes of double bit patterns. Integer
/// xor/shift/multiply — bit-identical to the scalar backend by
/// construction.
__attribute__((target("avx2"))) inline __m256i SplitmixAvx2(__m256i bits) {
  const __m256i c1 = _mm256_set1_epi64x(
      static_cast<long long>(0xbf58476d1ce4e5b9ull));
  const __m256i c2 = _mm256_set1_epi64x(
      static_cast<long long>(0x94d049bb133111ebull));
  bits = _mm256_xor_si256(bits, _mm256_srli_epi64(bits, 30));
  bits = Mul64Avx2(bits, c1);
  bits = _mm256_xor_si256(bits, _mm256_srli_epi64(bits, 27));
  bits = Mul64Avx2(bits, c2);
  return _mm256_xor_si256(bits, _mm256_srli_epi64(bits, 31));
}

__attribute__((target("avx2"))) void HashF64Avx2(const double* a,
                                                 uint64_t* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i bits = _mm256_castpd_si256(_mm256_loadu_pd(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        SplitmixAvx2(bits));
  }
  HashF64Scalar(a + i, out + i, n - i);
}

__attribute__((target("avx2"))) void HashI64Avx2(const int64_t* a,
                                                 uint64_t* out, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    // int64 -> double has no AVX2 form either; the scalar converts feed a
    // vectorized finalizer (the multiplies are the expensive part).
    __m256d d = _mm256_set_pd(
        static_cast<double>(a[i + 3]), static_cast<double>(a[i + 2]),
        static_cast<double>(a[i + 1]), static_cast<double>(a[i]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        SplitmixAvx2(_mm256_castpd_si256(d)));
  }
  HashI64Scalar(a + i, out + i, n - i);
}

#endif  // HTAPEX_KERNELS_X86

// ---------------------------------------------------------------------------
// NEON backend (aarch64; NEON is baseline there, no runtime check needed).
// The batch-executor primitives are integer-exact (or plain IEEE compares),
// so the NEON table entries reuse the scalar implementations until a NEON
// port is worth its maintenance cost.
// ---------------------------------------------------------------------------

#if HTAPEX_KERNELS_NEON

inline float SquaredL2Neon(const float* a, const float* b, int n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    float32x4_t d1 = vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  for (; i + 4 <= n; i += 4) {
    float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
  }
  float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void SquaredL2BatchNeon(const float* q, const float* rows, int count, int dim,
                        float* out) {
  for (int r = 0; r < count; ++r) {
    out[r] = SquaredL2Neon(q, rows + static_cast<size_t>(r) * dim, dim);
  }
}

void GemmAccumNeon(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      float32x4_t c0 = vld1q_f32(crow + j);
      float32x4_t c1 = vld1q_f32(crow + j + 4);
      float32x4_t c2 = vld1q_f32(crow + j + 8);
      float32x4_t c3 = vld1q_f32(crow + j + 12);
      for (int kk = 0; kk < k; ++kk) {
        float32x4_t av = vdupq_n_f32(arow[kk]);
        const float* brow = b + static_cast<size_t>(kk) * n + j;
        c0 = vfmaq_f32(c0, av, vld1q_f32(brow));
        c1 = vfmaq_f32(c1, av, vld1q_f32(brow + 4));
        c2 = vfmaq_f32(c2, av, vld1q_f32(brow + 8));
        c3 = vfmaq_f32(c3, av, vld1q_f32(brow + 12));
      }
      vst1q_f32(crow + j, c0);
      vst1q_f32(crow + j + 4, c1);
      vst1q_f32(crow + j + 8, c2);
      vst1q_f32(crow + j + 12, c3);
    }
    for (; j + 4 <= n; j += 4) {
      float32x4_t c0 = vld1q_f32(crow + j);
      for (int kk = 0; kk < k; ++kk) {
        float32x4_t av = vdupq_n_f32(arow[kk]);
        c0 = vfmaq_f32(c0, av,
                       vld1q_f32(b + static_cast<size_t>(kk) * n + j));
      }
      vst1q_f32(crow + j, c0);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      for (int kk = 0; kk < k; ++kk) {
        acc += arow[kk] * b[static_cast<size_t>(kk) * n + j];
      }
      crow[j] = acc;
    }
  }
}

void AxpyNeon(float alpha, const float* x, float* y, int n) {
  float32x4_t av = vdupq_n_f32(alpha);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), av, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ReluNeon(float* x, int n) {
  float32x4_t zero = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(x + i);
    // vbslq on the v >= 0 mask keeps NaN lanes (comparison false -> keep v?
    // no: false selects zero). Keep NaN explicitly: lanes where v is
    // ordered-less-than-zero become 0, everything else (including NaN)
    // passes through.
    uint32x4_t lt = vcltq_f32(v, zero);
    vst1q_f32(x + i, vbslq_f32(lt, zero, v));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

float ReduceMaxNeon(const float* x, int n) {
  float best = -std::numeric_limits<float>::infinity();
  bool has_nan = false;
  float32x4_t bestv = vdupq_n_f32(best);
  uint32x4_t nanv = vdupq_n_u32(0);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(x + i);
    bestv = vmaxq_f32(bestv, v);
    // v != v marks NaN lanes (vceqq false on unordered).
    nanv = vorrq_u32(nanv, vmvnq_u32(vceqq_f32(v, v)));
  }
  has_nan |= vmaxvq_u32(nanv) != 0;
  best = vmaxvq_f32(bestv);
  for (; i < n; ++i) {
    has_nan |= std::isnan(x[i]);
    if (x[i] > best) best = x[i];
  }
  return has_nan ? std::numeric_limits<float>::quiet_NaN() : best;
}

void MaxAccumNeon(float* acc, const float* x, int n) {
  float32x4_t qnan = vdupq_n_f32(std::numeric_limits<float>::quiet_NaN());
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t a = vld1q_f32(acc + i);
    float32x4_t v = vld1q_f32(x + i);
    float32x4_t mx = vmaxq_f32(a, v);
    uint32x4_t a_ord = vceqq_f32(a, a);
    uint32x4_t v_ord = vceqq_f32(v, v);
    uint32x4_t unord = vmvnq_u32(vandq_u32(a_ord, v_ord));
    vst1q_f32(acc + i, vbslq_f32(unord, qnan, mx));
  }
  for (; i < n; ++i) {
    if (std::isnan(acc[i]) || std::isnan(x[i])) {
      acc[i] = std::numeric_limits<float>::quiet_NaN();
    } else if (x[i] > acc[i]) {
      acc[i] = x[i];
    }
  }
}

#endif  // HTAPEX_KERNELS_NEON

// ---------------------------------------------------------------------------
// Dispatch: a table of function pointers filled in once at startup (or by
// ForceBackendForTest). Invocation counters live next to it.
// ---------------------------------------------------------------------------

struct DispatchTable {
  Backend backend = Backend::kScalar;
  float (*squared_l2)(const float*, const float*, int) = SquaredL2Scalar;
  void (*squared_l2_batch)(const float*, const float*, int, int, float*) =
      SquaredL2BatchScalar;
  void (*gemm)(const float*, const float*, float*, int, int, int) =
      GemmAccumScalar;
  void (*axpy)(float, const float*, float*, int) = AxpyScalar;
  void (*relu)(float*, int) = ReluScalar;
  float (*reduce_max)(const float*, int) = ReduceMaxScalar;
  void (*max_accum)(float*, const float*, int) = MaxAccumScalar;
  void (*mask_cmp_i64)(const int64_t*, int64_t, MaskCmpOp, uint8_t*, int) =
      MaskCmpI64Scalar;
  void (*mask_cmp_f64)(const double*, double, MaskCmpOp, uint8_t*, int) =
      MaskCmpF64Scalar;
  void (*mask_and)(uint8_t*, const uint8_t*, int) = MaskAndScalar;
  void (*mask_andnot)(uint8_t*, const uint8_t*, int) = MaskAndNotScalar;
  int64_t (*count_mask)(const uint8_t*, int) = CountMaskScalar;
  double (*sum_f64)(const double*, int) = SumF64Scalar;
  int64_t (*sum_i64)(const int64_t*, int) = SumI64Scalar;
  void (*hash_i64)(const int64_t*, uint64_t*, int) = HashI64Scalar;
  void (*hash_f64)(const double*, uint64_t*, int) = HashF64Scalar;
  uint64_t (*hash_bytes)(const void*, size_t) = HashBytesScalar;
};

struct KernelCounters {
  std::atomic<uint64_t> squared_l2{0};
  std::atomic<uint64_t> gemm{0};
  std::atomic<uint64_t> matvec{0};
  std::atomic<uint64_t> axpy{0};
  std::atomic<uint64_t> relu{0};
  std::atomic<uint64_t> reduce_max{0};
  std::atomic<uint64_t> max_accum{0};
  std::atomic<uint64_t> mask_cmp{0};
  std::atomic<uint64_t> mask_and{0};
  std::atomic<uint64_t> mask_andnot{0};
  std::atomic<uint64_t> count_mask{0};
  std::atomic<uint64_t> sum_f64{0};
  std::atomic<uint64_t> sum_i64{0};
  std::atomic<uint64_t> hash_i64{0};
  std::atomic<uint64_t> hash_f64{0};
  std::atomic<uint64_t> hash_bytes{0};
};

KernelCounters& Counters() {
  static KernelCounters counters;
  return counters;
}

DispatchTable MakeTable(Backend backend) {
  DispatchTable t;
  t.backend = Backend::kScalar;
  switch (backend) {
    case Backend::kScalar:
      break;
#if HTAPEX_KERNELS_X86
    case Backend::kAvx2:
      t.backend = Backend::kAvx2;
      t.squared_l2 = SquaredL2Avx2;
      t.squared_l2_batch = SquaredL2BatchAvx2;
      t.gemm = GemmAccumAvx2;
      t.axpy = AxpyAvx2;
      t.relu = ReluAvx2;
      t.reduce_max = ReduceMaxAvx2;
      t.max_accum = MaxAccumAvx2;
      t.mask_cmp_i64 = MaskCmpI64Avx2;
      t.mask_cmp_f64 = MaskCmpF64Avx2;
      t.mask_and = MaskAndAvx2;
      t.mask_andnot = MaskAndNotAvx2;
      t.count_mask = CountMaskAvx2;
      t.sum_f64 = SumF64Avx2;
      t.sum_i64 = SumI64Avx2;
      t.hash_i64 = HashI64Avx2;
      t.hash_f64 = HashF64Avx2;
      break;
#endif
#if HTAPEX_KERNELS_NEON
    case Backend::kNeon:
      t.backend = Backend::kNeon;
      t.squared_l2 = SquaredL2Neon;
      t.squared_l2_batch = SquaredL2BatchNeon;
      t.gemm = GemmAccumNeon;
      t.axpy = AxpyNeon;
      t.relu = ReluNeon;
      t.reduce_max = ReduceMaxNeon;
      t.max_accum = MaxAccumNeon;
      break;
#endif
    default:
      break;  // unsupported request: scalar fallback
  }
  return t;
}

Backend BestNativeBackend() {
#if HTAPEX_KERNELS_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend::kAvx2;
  }
#endif
#if HTAPEX_KERNELS_NEON
  return Backend::kNeon;
#endif
  return Backend::kScalar;
}

Backend StartupBackend() {
  const char* env = std::getenv("HTAPEX_KERNELS");
  if (env == nullptr || std::strcmp(env, "") == 0 ||
      std::strcmp(env, "native") == 0) {
    return BestNativeBackend();
  }
  Backend requested = Backend::kScalar;
  if (std::strcmp(env, "avx2") == 0) {
    requested = Backend::kAvx2;
  } else if (std::strcmp(env, "neon") == 0) {
    requested = Backend::kNeon;
  } else if (std::strcmp(env, "scalar") != 0) {
    HTAPEX_LOG(Warning) << "unknown HTAPEX_KERNELS value '" << env
                        << "' (want scalar|avx2|neon|native); using native";
    return BestNativeBackend();
  }
  if (requested != Backend::kScalar && !BackendSupported(requested)) {
    HTAPEX_LOG(Warning) << "HTAPEX_KERNELS=" << env
                        << " not supported on this CPU/build; using scalar";
    return Backend::kScalar;
  }
  return requested;
}

DispatchTable& Table() {
  static DispatchTable table = MakeTable(StartupBackend());
  return table;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

bool BackendSupported(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if HTAPEX_KERNELS_X86
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Backend::kNeon:
#if HTAPEX_KERNELS_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

Backend ActiveBackend() { return Table().backend; }

bool ForceBackendForTest(Backend backend) {
  if (!BackendSupported(backend)) return false;
  Table() = MakeTable(backend);
  return true;
}

float SquaredL2(const float* a, const float* b, int n) {
  Counters().squared_l2.fetch_add(1, std::memory_order_relaxed);
  return Table().squared_l2(a, b, n);
}

void SquaredL2Batch(const float* q, const float* rows, int count, int dim,
                    float* out) {
  Counters().squared_l2.fetch_add(static_cast<uint64_t>(count),
                                  std::memory_order_relaxed);
  Table().squared_l2_batch(q, rows, count, dim, out);
}

void GemmAccum(const float* a, const float* b, float* c, int m, int k,
               int n) {
  Counters().gemm.fetch_add(1, std::memory_order_relaxed);
  Table().gemm(a, b, c, m, k, n);
}

void MatVecAccum(const float* w, const float* x, int rows, int cols,
                 float* y) {
  Counters().matvec.fetch_add(1, std::memory_order_relaxed);
  Table().gemm(x, w, y, 1, rows, cols);
}

void Axpy(float alpha, const float* x, float* y, int n) {
  Counters().axpy.fetch_add(1, std::memory_order_relaxed);
  Table().axpy(alpha, x, y, n);
}

void Relu(float* x, int n) {
  Counters().relu.fetch_add(1, std::memory_order_relaxed);
  Table().relu(x, n);
}

float ReduceMax(const float* x, int n) {
  Counters().reduce_max.fetch_add(1, std::memory_order_relaxed);
  return Table().reduce_max(x, n);
}

void MaxAccum(float* acc, const float* x, int n) {
  Counters().max_accum.fetch_add(1, std::memory_order_relaxed);
  Table().max_accum(acc, x, n);
}

void MaskCmpI64(const int64_t* a, int64_t lit, MaskCmpOp op, uint8_t* out,
                int n) {
  Counters().mask_cmp.fetch_add(1, std::memory_order_relaxed);
  Table().mask_cmp_i64(a, lit, op, out, n);
}

void MaskCmpF64(const double* a, double lit, MaskCmpOp op, uint8_t* out,
                int n) {
  Counters().mask_cmp.fetch_add(1, std::memory_order_relaxed);
  Table().mask_cmp_f64(a, lit, op, out, n);
}

void MaskAnd(uint8_t* mask, const uint8_t* other, int n) {
  Counters().mask_and.fetch_add(1, std::memory_order_relaxed);
  Table().mask_and(mask, other, n);
}

void MaskAndNot(uint8_t* mask, const uint8_t* other, int n) {
  Counters().mask_andnot.fetch_add(1, std::memory_order_relaxed);
  Table().mask_andnot(mask, other, n);
}

int64_t CountMask(const uint8_t* mask, int n) {
  Counters().count_mask.fetch_add(1, std::memory_order_relaxed);
  return Table().count_mask(mask, n);
}

double SumF64(const double* a, int n) {
  Counters().sum_f64.fetch_add(1, std::memory_order_relaxed);
  return Table().sum_f64(a, n);
}

int64_t SumI64(const int64_t* a, int n) {
  Counters().sum_i64.fetch_add(1, std::memory_order_relaxed);
  return Table().sum_i64(a, n);
}

void HashI64(const int64_t* a, uint64_t* out, int n) {
  Counters().hash_i64.fetch_add(1, std::memory_order_relaxed);
  Table().hash_i64(a, out, n);
}

void HashF64(const double* a, uint64_t* out, int n) {
  Counters().hash_f64.fetch_add(1, std::memory_order_relaxed);
  Table().hash_f64(a, out, n);
}

uint64_t HashBytes(const void* data, size_t len) {
  Counters().hash_bytes.fetch_add(1, std::memory_order_relaxed);
  return Table().hash_bytes(data, len);
}

KernelStats Stats() {
  const KernelCounters& c = Counters();
  KernelStats s;
  s.backend = ActiveBackend();
  s.squared_l2 = c.squared_l2.load(std::memory_order_relaxed);
  s.gemm = c.gemm.load(std::memory_order_relaxed);
  s.matvec = c.matvec.load(std::memory_order_relaxed);
  s.axpy = c.axpy.load(std::memory_order_relaxed);
  s.relu = c.relu.load(std::memory_order_relaxed);
  s.reduce_max = c.reduce_max.load(std::memory_order_relaxed);
  s.max_accum = c.max_accum.load(std::memory_order_relaxed);
  s.mask_cmp = c.mask_cmp.load(std::memory_order_relaxed);
  s.mask_and = c.mask_and.load(std::memory_order_relaxed);
  s.mask_andnot = c.mask_andnot.load(std::memory_order_relaxed);
  s.count_mask = c.count_mask.load(std::memory_order_relaxed);
  s.sum_f64 = c.sum_f64.load(std::memory_order_relaxed);
  s.sum_i64 = c.sum_i64.load(std::memory_order_relaxed);
  s.hash_i64 = c.hash_i64.load(std::memory_order_relaxed);
  s.hash_f64 = c.hash_f64.load(std::memory_order_relaxed);
  s.hash_bytes = c.hash_bytes.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

namespace {
constexpr size_t kArenaAlign = 64;  // cache line; covers any vector width
constexpr size_t kArenaMinChunk = 16 * 1024;

size_t AlignUp(size_t v) {
  return (v + (kArenaAlign - 1)) & ~(kArenaAlign - 1);
}
}  // namespace

void* Arena::AllocBytes(size_t bytes) {
  bytes = AlignUp(bytes);
  if (!chunks_.empty()) {
    Chunk& cur = chunks_.back();
    if (cur.used + bytes <= cur.capacity) {
      void* p = cur.data.get() + cur.used;
      cur.used += bytes;
      stats_.used_bytes += bytes;
      return p;
    }
  }
  // Grow: a fresh chunk at least double the current total, so the number of
  // growths is logarithmic in the high-water mark. Existing chunks are left
  // in place (outstanding pointers stay valid until Reset).
  size_t want = bytes;
  if (want < kArenaMinChunk) want = kArenaMinChunk;
  if (want < 2 * stats_.capacity_bytes) want = 2 * stats_.capacity_bytes;
  Chunk next;
  // new[] guarantees alignment only to max_align_t; the bump offsets are
  // 64-aligned relative to the base, which is all the unaligned-load SIMD
  // paths need. (No aligned loads are used anywhere in this library.)
  next.data = std::make_unique<unsigned char[]>(want);
  next.capacity = want;
  next.used = bytes;
  stats_.capacity_bytes += want;
  stats_.used_bytes += bytes;
  ++stats_.grows;
  chunks_.push_back(std::move(next));
  return chunks_.back().data.get();
}

float* Arena::AllocFloats(size_t n) {
  return static_cast<float*>(AllocBytes(n * sizeof(float)));
}

int* Arena::AllocInts(size_t n) {
  return static_cast<int*>(AllocBytes(n * sizeof(int)));
}

double* Arena::AllocDoubles(size_t n) {
  return static_cast<double*>(AllocBytes(n * sizeof(double)));
}

int64_t* Arena::AllocInt64s(size_t n) {
  return static_cast<int64_t*>(AllocBytes(n * sizeof(int64_t)));
}

uint64_t* Arena::AllocU64s(size_t n) {
  return static_cast<uint64_t*>(AllocBytes(n * sizeof(uint64_t)));
}

uint8_t* Arena::AllocU8(size_t n) { return static_cast<uint8_t*>(AllocBytes(n)); }

void Arena::Reset() {
  ++stats_.resets;
  stats_.used_bytes = 0;
  if (chunks_.size() > 1) {
    // Coalesce so the steady state is exactly one buffer: one more
    // allocation now, zero forever after.
    size_t total = stats_.capacity_bytes;
    chunks_.clear();
    Chunk merged;
    merged.data = std::make_unique<unsigned char[]>(total);
    merged.capacity = total;
    stats_.capacity_bytes = total;
    ++stats_.grows;
    chunks_.push_back(std::move(merged));
    return;
  }
  if (!chunks_.empty()) chunks_.back().used = 0;
}

Arena& ThreadArena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace kernels
}  // namespace htapex
