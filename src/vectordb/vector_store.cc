#include "vectordb/vector_store.h"

#include <algorithm>
#include <cstring>

#include "common/kernels.h"

namespace htapex {

double SquaredL2(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

Result<int> VectorStore::Add(std::vector<double> vec) {
  if (static_cast<int>(vec.size()) != dim_) {
    return Status::InvalidArgument("vector dimension mismatch");
  }
  int id = static_cast<int>(removed_.size());
  slab_.reserve(slab_.size() + vec.size());
  for (double v : vec) slab_.push_back(static_cast<float>(v));
  removed_.push_back(0);
  ++size_;
  return id;
}

Status VectorStore::Remove(int id) {
  if (id < 0 || id >= static_cast<int>(removed_.size())) {
    return Status::NotFound("no such vector id");
  }
  if (removed_[static_cast<size_t>(id)]) {
    return Status::NotFound("vector already removed");
  }
  removed_[static_cast<size_t>(id)] = 1;
  --size_;
  return Status::OK();
}

std::vector<SearchHit> VectorStore::Search(const std::vector<double>& query,
                                           int k) const {
  // The distance kernel walks the query's length, so a wrong-dimension
  // query would read out of bounds on every stored vector.
  if (static_cast<int>(query.size()) != dim_ || k <= 0 || size_ == 0) {
    return {};
  }
  // Scratch comes from the thread arena, so the steady-state scan
  // allocates nothing beyond the result vector.
  kernels::Arena& arena = kernels::ThreadArena();
  arena.Reset();
  float* q = arena.AllocFloats(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    q[i] = static_cast<float>(query[i]);
  }
  // One kernel call for every stored row (tombstones included; they are
  // skipped below).
  const int count = static_cast<int>(removed_.size());
  float* dist = arena.AllocFloats(static_cast<size_t>(count));
  kernels::SquaredL2Batch(q, slab_.data(), count, dim_, dist);

  // Bounded top-k over (distance, id) packed into one key: a squared
  // distance is >= +0, and non-negative floats order like their bit
  // patterns, so the key orders like the pair (a NaN distance packs above
  // every number and ranks last). `best` is a max-heap of the k smallest
  // keys so far; a row costs one comparison unless it beats the worst of
  // them, and log k moves when it does, so k near n stays O(n log n).
  const size_t cap = std::min(static_cast<size_t>(k), size_);
  uint64_t* best = arena.AllocU64s(cap);
  size_t filled = 0;
  for (int i = 0; i < count; ++i) {
    if (removed_[static_cast<size_t>(i)]) continue;
    uint32_t bits;
    std::memcpy(&bits, &dist[i], sizeof(bits));
    const uint64_t key =
        (static_cast<uint64_t>(bits) << 32) | static_cast<uint32_t>(i);
    if (filled < cap) {
      best[filled++] = key;
      std::push_heap(best, best + filled);
    } else if (key < best[0]) {
      std::pop_heap(best, best + cap);
      best[cap - 1] = key;
      std::push_heap(best, best + cap);
    }
  }
  // Heap-sort the k survivors into ascending key order.
  for (size_t n = filled; n > 1; --n) std::pop_heap(best, best + n);
  std::vector<SearchHit> hits(filled);
  for (size_t j = 0; j < filled; ++j) {
    const int id = static_cast<int>(best[j] & 0xffffffffu);
    hits[j] = SearchHit{id, static_cast<double>(dist[id])};
  }
  return hits;
}

const float* VectorStore::Get(int id) const {
  if (id < 0 || id >= static_cast<int>(removed_.size()) ||
      removed_[static_cast<size_t>(id)]) {
    return nullptr;
  }
  return slab_.data() + static_cast<size_t>(id) * dim_;
}

}  // namespace htapex
