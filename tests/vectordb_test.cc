#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/kernels.h"
#include "common/rng.h"
#include "vectordb/hnsw.h"
#include "vectordb/knowledge_base.h"
#include "vectordb/vector_store.h"

namespace htapex {
namespace {

std::vector<double> Vec(std::initializer_list<double> v) { return v; }

TEST(VectorStoreTest, AddSearchRemove) {
  VectorStore store(2);
  ASSERT_TRUE(store.Add(Vec({0, 0})).ok());
  ASSERT_TRUE(store.Add(Vec({1, 0})).ok());
  ASSERT_TRUE(store.Add(Vec({5, 5})).ok());
  EXPECT_EQ(store.size(), 3u);
  auto hits = store.Search(Vec({0.9, 0.1}), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1);
  EXPECT_EQ(hits[1].id, 0);
  ASSERT_TRUE(store.Remove(1).ok());
  EXPECT_EQ(store.size(), 2u);
  hits = store.Search(Vec({0.9, 0.1}), 2);
  EXPECT_EQ(hits[0].id, 0);
  EXPECT_EQ(store.Remove(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Get(1), nullptr);
  ASSERT_NE(store.Get(0), nullptr);
}

TEST(VectorStoreTest, DimensionMismatchRejected) {
  VectorStore store(3);
  EXPECT_FALSE(store.Add(Vec({1, 2})).ok());
}

TEST(VectorStoreTest, KLargerThanStore) {
  VectorStore store(1);
  store.Add(Vec({1})).status();
  auto hits = store.Search(Vec({0}), 10);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(HnswTest, ExactOnSmallSets) {
  // With few points HNSW degenerates to exact search.
  HnswIndex index(2);
  for (double x : {0.0, 1.0, 2.0, 3.0, 10.0}) {
    ASSERT_TRUE(index.Add(Vec({x, 0})).ok());
  }
  auto hits = index.Search(Vec({2.2, 0}), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 2);
  EXPECT_EQ(hits[1].id, 3);
}

TEST(HnswTest, HighRecallVsExact) {
  constexpr int kDim = 16;
  Rng rng(5);
  VectorStore exact(kDim);
  HnswIndex hnsw(kDim);
  auto random_vec = [&]() {
    std::vector<double> v(kDim);
    for (double& x : v) x = rng.UniformReal(0, 10);
    return v;
  };
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> v = random_vec();
    exact.Add(v).status();
    hnsw.Add(std::move(v)).status();
  }
  int hits = 0, total = 0;
  for (int q = 0; q < 50; ++q) {
    std::vector<double> query = random_vec();
    auto truth = exact.Search(query, 5);
    auto approx = hnsw.Search(query, 5);
    std::set<int> truth_ids;
    for (const auto& h : truth) truth_ids.insert(h.id);
    for (const auto& h : approx) {
      if (truth_ids.count(h.id) > 0) ++hits;
    }
    total += 5;
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.9);
}

TEST(HnswTest, WrongDimensionQueryReturnsEmpty) {
  // Regression: Search used to skip the dimension check that Add enforces,
  // so SquaredL2 read past the end of every stored vector.
  HnswIndex index(3);
  ASSERT_TRUE(index.Add(Vec({1, 2, 3})).ok());
  ASSERT_TRUE(index.Add(Vec({4, 5, 6})).ok());
  EXPECT_TRUE(index.Search(Vec({1, 2}), 2).empty());        // too short
  EXPECT_TRUE(index.Search(Vec({1, 2, 3, 4}), 2).empty());  // too long
  EXPECT_EQ(index.Search(Vec({1, 2, 3}), 2).size(), 2u);    // exact dim ok
}

TEST(HnswTest, NonPositiveKAndTinyEfSearchClamped) {
  // Regression: hits.resize(k) with negative k wrapped to a huge size_t,
  // and ef_search < k silently truncated results below k.
  HnswIndex::Options opts;
  opts.ef_search = 1;  // smaller than the k we ask for
  HnswIndex index(2, opts);
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(index.Add(Vec({x, 0})).ok());
  }
  EXPECT_TRUE(index.Search(Vec({0, 0}), 0).empty());
  EXPECT_TRUE(index.Search(Vec({0, 0}), -3).empty());
  EXPECT_EQ(index.Search(Vec({0, 0}), 3).size(), 3u);  // ef clamped up to k
}

TEST(HnswTest, AdversarialOptionsStillSearchCorrectly) {
  // Regression: max_neighbors = 1 made RandomLevel compute 1/ln(1) — a
  // division by zero whose huge/NaN level then sized unbounded neighbor
  // vectors. Options are now clamped at construction (M >= 2,
  // ef_construction >= 1), so the most hostile configuration must behave
  // like a small-but-valid index: every insert succeeds, duplicates are
  // fine, k > n returns n, and recall against an exact scan stays usable.
  constexpr int kDim = 8;
  HnswIndex::Options opts;
  opts.max_neighbors = 1;   // would divide by zero before the clamp
  opts.ef_construction = 0; // would select zero candidates per insert
  opts.ef_search = 0;       // clamped up to k per Search call
  HnswIndex hnsw(kDim, opts);
  VectorStore exact(kDim);
  Rng rng(11);
  auto random_vec = [&]() {
    std::vector<double> v(kDim);
    for (double& x : v) x = rng.UniformReal(0, 10);
    return v;
  };
  for (int i = 0; i < 200; ++i) {
    std::vector<double> v = random_vec();
    ASSERT_TRUE(exact.Add(v).ok());
    ASSERT_TRUE(hnsw.Add(std::move(v)).ok());
  }
  // Duplicate vectors must insert cleanly too.
  std::vector<double> dup(kDim, 1.0);
  ASSERT_TRUE(hnsw.Add(dup).ok());
  ASSERT_TRUE(hnsw.Add(dup).ok());
  ASSERT_TRUE(exact.Add(dup).ok());
  ASSERT_TRUE(exact.Add(dup).ok());
  EXPECT_EQ(hnsw.size(), 202u);

  // k far beyond the index size returns (nearly) everything, sorted. HNSW
  // never guarantees full reachability — back-link pruning can strand a
  // few nodes — but at M = 2 with the diversity-heuristic neighbour
  // selection the base layer stays essentially connected (the fixed seeds
  // make this deterministic: 195 of 202 reachable).
  auto all = hnsw.Search(dup, 1000);
  ASSERT_GE(all.size(), 190u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i].distance, all[i - 1].distance);
  }
  EXPECT_DOUBLE_EQ(all[0].distance, 0.0);  // the duplicates themselves

  // Recall vs the exact scan. M clamps to 2 — a deliberately thin graph —
  // so the bar is "clearly better than chance", not the >= 90% the default
  // options hit (HighRecallVsExact covers that).
  int hits = 0, total = 0;
  for (int q = 0; q < 50; ++q) {
    std::vector<double> query = random_vec();
    auto truth = exact.Search(query, 5);
    auto approx = hnsw.Search(query, 5);
    ASSERT_EQ(approx.size(), 5u);
    std::set<int> truth_ids;
    for (const auto& h : truth) truth_ids.insert(h.id);
    for (const auto& h : approx) {
      if (truth_ids.count(h.id) > 0) ++hits;
    }
    total += 5;
  }
  EXPECT_GT(static_cast<double>(hits) / total, 0.5);
}

TEST(VectorStoreTest, WrongDimensionOrBadKReturnsEmpty) {
  VectorStore store(3);
  ASSERT_TRUE(store.Add(Vec({1, 2, 3})).ok());
  EXPECT_TRUE(store.Search(Vec({1, 2, 3, 4}), 1).empty());
  EXPECT_TRUE(store.Search(Vec({1, 2}), 1).empty());
  EXPECT_TRUE(store.Search(Vec({1, 2, 3}), 0).empty());
  EXPECT_TRUE(store.Search(Vec({1, 2, 3}), -1).empty());
}

TEST(HnswTest, ResultsSortedByDistance) {
  HnswIndex index(2);
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    index.Add(Vec({rng.UniformReal(0, 1), rng.UniformReal(0, 1)})).status();
  }
  auto hits = index.Search(Vec({0.5, 0.5}), 10);
  ASSERT_EQ(hits.size(), 10u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i].distance, hits[i - 1].distance);
  }
}

KbEntry MakeEntry(std::vector<double> embedding, std::string sql,
                  EngineKind faster) {
  KbEntry e;
  e.sql = std::move(sql);
  e.embedding = std::move(embedding);
  e.tp_plan_json = "{'Node Type': 'Table Scan'}";
  e.ap_plan_json = "{'Node Type': 'Columnar scan'}";
  e.faster = faster;
  e.tp_latency_ms = 100;
  e.ap_latency_ms = 10;
  e.expert_explanation = "AP is faster.";
  return e;
}

TEST(KnowledgeBaseTest, InsertRetrieve) {
  KnowledgeBase kb(2);
  ASSERT_TRUE(kb.Insert(MakeEntry(Vec({0, 0}), "q0", EngineKind::kAp)).ok());
  ASSERT_TRUE(kb.Insert(MakeEntry(Vec({1, 1}), "q1", EngineKind::kTp)).ok());
  ASSERT_TRUE(kb.Insert(MakeEntry(Vec({5, 5}), "q2", EngineKind::kAp)).ok());
  EXPECT_EQ(kb.size(), 3u);
  auto hits = kb.Retrieve(Vec({0.8, 0.8}), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->sql, "q1");
  EXPECT_EQ(hits[1]->sql, "q0");
}

TEST(KnowledgeBaseTest, DimensionMismatchRejected) {
  KnowledgeBase kb(4);
  EXPECT_FALSE(kb.Insert(MakeEntry(Vec({1, 2}), "q", EngineKind::kAp)).ok());
}

TEST(KnowledgeBaseTest, CorrectionAndExpiry) {
  KnowledgeBase kb(2);
  auto id0 = kb.Insert(MakeEntry(Vec({0, 0}), "q0", EngineKind::kAp));
  auto id1 = kb.Insert(MakeEntry(Vec({1, 1}), "q1", EngineKind::kAp));
  ASSERT_TRUE(id0.ok() && id1.ok());
  ASSERT_TRUE(kb.CorrectExplanation(*id0, "corrected text").ok());
  EXPECT_EQ(kb.Get(*id0)->expert_explanation, "corrected text");
  ASSERT_TRUE(kb.Expire(*id1).ok());
  EXPECT_EQ(kb.size(), 1u);
  EXPECT_EQ(kb.Get(*id1), nullptr);
  EXPECT_FALSE(kb.Expire(*id1).ok());
  EXPECT_FALSE(kb.CorrectExplanation(*id1, "x").ok());
  auto hits = kb.Retrieve(Vec({1, 1}), 2);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->sql, "q0");
}

TEST(KnowledgeBaseTest, SaveLoadRoundTrip) {
  KnowledgeBase kb(2);
  kb.Insert(MakeEntry(Vec({0.5, 1.5}), "query one", EngineKind::kAp)).status();
  kb.Insert(MakeEntry(Vec({2.5, 3.5}), "query 'two'", EngineKind::kTp)).status();
  std::string path = ::testing::TempDir() + "/kb.json";
  ASSERT_TRUE(kb.SaveJson(path).ok());
  KnowledgeBase loaded(2);
  ASSERT_TRUE(loaded.LoadJson(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  auto hits = loaded.Retrieve(Vec({0.5, 1.5}), 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->sql, "query one");
  EXPECT_EQ(hits[0]->faster, EngineKind::kAp);
  EXPECT_DOUBLE_EQ(hits[0]->tp_latency_ms, 100);
  // Dimension mismatch on load.
  KnowledgeBase wrong(3);
  EXPECT_FALSE(wrong.LoadJson(path).ok());
}

TEST(KnowledgeBaseTest, WrongDimensionOrBadKRetrieveReturnsEmpty) {
  for (auto mode :
       {KnowledgeBase::IndexMode::kExact, KnowledgeBase::IndexMode::kHnsw}) {
    KnowledgeBase kb(2, mode);
    ASSERT_TRUE(kb.Insert(MakeEntry(Vec({0, 0}), "q0", EngineKind::kAp)).ok());
    EXPECT_TRUE(kb.Retrieve(Vec({0, 0, 0}), 1).empty());
    EXPECT_TRUE(kb.Retrieve(Vec({0}), 1).empty());
    EXPECT_TRUE(kb.Retrieve(Vec({0, 0}), 0).empty());
    EXPECT_TRUE(kb.Retrieve(Vec({0, 0}), -2).empty());
    EXPECT_EQ(kb.Retrieve(Vec({0, 0}), 1).size(), 1u);
  }
}

TEST(KnowledgeBaseTest, HnswModeAgreesWithExact) {
  KnowledgeBase exact(4, KnowledgeBase::IndexMode::kExact);
  KnowledgeBase hnsw(4, KnowledgeBase::IndexMode::kHnsw);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> v(4);
    for (double& x : v) x = rng.UniformReal(0, 10);
    exact.Insert(MakeEntry(v, "q" + std::to_string(i), EngineKind::kAp)).status();
    hnsw.Insert(MakeEntry(v, "q" + std::to_string(i), EngineKind::kAp)).status();
  }
  int agree = 0;
  for (int q = 0; q < 20; ++q) {
    std::vector<double> v(4);
    for (double& x : v) x = rng.UniformReal(0, 10);
    auto a = exact.Retrieve(v, 1);
    auto b = hnsw.Retrieve(v, 1);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    if (a[0]->sql == b[0]->sql) ++agree;
  }
  EXPECT_GE(agree, 18);  // HNSW is approximate but should rarely differ
}

/// Full-sort oracle for exact search: every live row's distance from the
/// same float32 kernel the store uses, sorted by (distance, id), cut to k.
std::vector<SearchHit> OracleSearch(const VectorStore& store, int rows,
                                    const std::vector<double>& query, int k) {
  std::vector<float> q(query.begin(), query.end());
  std::vector<SearchHit> all;
  for (int id = 0; id < rows; ++id) {
    const float* row = store.Get(id);
    if (row == nullptr) continue;
    all.push_back(SearchHit{
        id, static_cast<double>(kernels::SquaredL2(q.data(), row, store.dim()))});
  }
  std::sort(all.begin(), all.end(), [](const SearchHit& a, const SearchHit& b) {
    return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
  });
  if (static_cast<int>(all.size()) > k) all.resize(static_cast<size_t>(k));
  return all;
}

/// Exact search against the full-sort oracle on a KB-sized store full of
/// ties: coordinates sit on a coarse grid and one row in nine duplicates an
/// earlier one (as corrections re-insert a known plan pair), so equal
/// distances are common and must break on id. Tombstones land between
/// rounds; k runs past the live count. Checked on the startup backend and
/// on scalar.
TEST(VectorStoreTest, ExactSearchMatchesFullSortOracle) {
  const int dim = 16, rows = 4500;
  Rng rng(29);
  std::vector<std::vector<double>> vecs;
  VectorStore store(dim);
  KnowledgeBase kb(dim, KnowledgeBase::IndexMode::kExact);
  for (int i = 0; i < rows; ++i) {
    std::vector<double> v(dim);
    if (i > 0 && i % 9 == 0) {
      v = vecs[static_cast<size_t>(rng.Uniform(0, i - 1))];
    } else {
      for (double& x : v) x = static_cast<double>(rng.Uniform(-3, 3)) * 0.25;
    }
    ASSERT_TRUE(store.Add(v).ok());
    ASSERT_TRUE(kb.Insert(MakeEntry(v, "q" + std::to_string(i),
                                    EngineKind::kAp)).ok());
    vecs.push_back(std::move(v));
  }
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 30; ++i) {  // stored rows (distance-0 ties) ...
    queries.push_back(vecs[static_cast<size_t>(rng.Uniform(0, rows - 1))]);
  }
  for (int i = 0; i < 30; ++i) {  // ... and off-grid points
    std::vector<double> v(dim);
    for (double& x : v) x = rng.UniformReal(-1, 1);
    queries.push_back(std::move(v));
  }

  const kernels::Backend startup = kernels::ActiveBackend();
  for (int round = 0; round < 3; ++round) {
    if (round > 0) {  // tombstone a fresh slice of ids
      for (int id = round; id < rows; id += 5 + round) {
        if (store.Get(id) == nullptr) continue;
        ASSERT_TRUE(store.Remove(id).ok());
        ASSERT_TRUE(kb.Expire(id).ok());
      }
    }
    const int live = static_cast<int>(store.size());
    for (kernels::Backend backend : {startup, kernels::Backend::kScalar}) {
      ASSERT_TRUE(kernels::ForceBackendForTest(backend));
      for (const auto& q : queries) {
        for (int k : {1, 2, 5, live + 3}) {
          std::vector<SearchHit> want = OracleSearch(store, rows, q, k);
          std::vector<SearchHit> got = store.Search(q, k);
          std::vector<int> want_ids, got_ids, kb_ids;
          std::vector<double> want_dist, got_dist;
          for (const SearchHit& h : want) {
            want_ids.push_back(h.id);
            want_dist.push_back(h.distance);
          }
          for (const SearchHit& h : got) {
            got_ids.push_back(h.id);
            got_dist.push_back(h.distance);
          }
          for (const KbEntry* e : kb.Retrieve(q, k)) kb_ids.push_back(e->id);
          ASSERT_EQ(got_ids, want_ids) << "k=" << k;
          ASSERT_EQ(got_dist, want_dist) << "k=" << k;
          ASSERT_EQ(kb_ids, want_ids) << "k=" << k;
          ASSERT_TRUE(std::is_sorted(
              got.begin(), got.end(),
              [](const SearchHit& a, const SearchHit& b) {
                return a.distance < b.distance ||
                       (a.distance == b.distance && a.id < b.id);
              }))
              << "k=" << k;
        }
      }
    }
    ASSERT_TRUE(kernels::ForceBackendForTest(startup));
  }
}

}  // namespace
}  // namespace htapex
