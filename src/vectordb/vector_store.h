#ifndef HTAPEX_VECTORDB_VECTOR_STORE_H_
#define HTAPEX_VECTORDB_VECTOR_STORE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace htapex {

/// One nearest-neighbour search hit.
struct SearchHit {
  int id = -1;
  double distance = 0.0;  // squared L2
};

/// Squared L2 distance between equal-length vectors. Double-precision
/// scalar — this is the reference the float32 kernel paths are
/// parity-checked against, so it stays exactly as-is.
double SquaredL2(const std::vector<double>& a, const std::vector<double>& b);

/// Exact brute-force kNN store, the knowledge base's default index. The
/// knowledge base starts at the paper's ~20 entries and grows with every
/// expert correction; the HNSW index (hnsw.h) is the approximate option for
/// the growth scenario discussed in Section VI-B.
///
/// Vectors live in one contiguous float32 slab (id-ordered rows). A search
/// makes one `kernels::SquaredL2Batch` call over the whole slab and keeps
/// the k best hits in a bounded heap, so it costs one dispatch and, for
/// the small k retrieval uses, about one comparison per row rather than a
/// sort of every row.
/// Inputs stay double at the API (the rest of the system computes
/// embeddings in double); they are narrowed once on Add.
class VectorStore {
 public:
  explicit VectorStore(int dim) : dim_(dim) {}

  int dim() const { return dim_; }
  size_t size() const { return size_; }

  /// Adds a vector, returning its id. Fails on dimension mismatch.
  Result<int> Add(std::vector<double> vec);

  /// Tombstones an id (removed from future searches).
  Status Remove(int id);

  /// k nearest neighbours by squared L2, ascending by (distance, id), so
  /// ties break on the lower id. Returns empty for a wrong-dimension query
  /// or non-positive k.
  std::vector<SearchHit> Search(const std::vector<double>& query, int k) const;

  /// The stored float32 row for a live id, nullptr otherwise.
  const float* Get(int id) const;

 private:
  int dim_;
  size_t size_ = 0;  // live (non-removed) count
  std::vector<float> slab_;  // count * dim_, row-major by id
  std::vector<uint8_t> removed_;
};

}  // namespace htapex

#endif  // HTAPEX_VECTORDB_VECTOR_STORE_H_
