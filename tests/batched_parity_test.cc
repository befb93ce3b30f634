// Parity of the batched embedding paths (LookupBatch / ApplyGradientBatch)
// against the per-id reference path, for every store the factory can build.
//
// Two exactness regimes are covered, matching the API contract in
// embed/embedding_store.h:
//  - LookupBatch is read-only and must be byte-identical to scalar Lookup
//    for ANY stream, duplicates included (probe dedup cannot change bytes).
//  - ApplyGradientBatch must be bit-identical to the scalar stream whenever
//    every id in the batch is distinct (adaptive stores deduplicate, so a
//    distinct-id batch makes the two formulations coincide); non-adaptive
//    stores (full/hash/qr) preserve stream order and must stay bit-identical
//    even with duplicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "core/cafe_embedding.h"
#include "embed/batch_dedup.h"
#include "io/serialize.h"
#include "train/store_factory.h"

namespace cafe {
namespace {

constexpr uint64_t kFeatures = 5000;
constexpr uint32_t kDim = 8;
constexpr size_t kBatch = 64;
constexpr size_t kNumBatches = 60;

struct StoreCase {
  const char* name;
  double cr;
};

const StoreCase kAllStores[] = {
    {"full", 1.0},  {"hash", 20.0},   {"qr", 10.0},      {"robe", 10.0},      {"ada", 2.0},
    {"mde", 2.0},   {"offline", 20.0}, {"cafe", 20.0},   {"cafe-ml", 20.0},
};

StoreFactoryContext MakeContext(double cr) {
  StoreFactoryContext context;
  context.embedding.total_features = kFeatures;
  context.embedding.dim = kDim;
  context.embedding.compression_ratio = cr;
  context.embedding.seed = 42;
  context.layout = FieldLayout({2000, 1500, 1000, 500});
  // Short maintenance cadence so parity covers decay, demotion and
  // threshold refresh, not just the steady path.
  context.cafe.decay_interval = 10;
  for (uint64_t id = 0; id < 400; ++id) {
    context.offline_hot_ids.push_back(id * 7 % kFeatures);
  }
  return context;
}

std::unique_ptr<EmbeddingStore> MakeParityStore(const std::string& name,
                                                double cr) {
  auto store = MakeStore(name, MakeContext(cr));
  EXPECT_TRUE(store.ok()) << name << ": " << store.status().ToString();
  return std::move(store).value();
}

/// Zipf-skewed batches with DISTINCT ids within each batch (sampling without
/// replacement), the regime where dedup semantics equal scalar semantics.
std::vector<std::vector<uint64_t>> MakeDistinctBatches(uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf(kFeatures, 1.2);
  std::vector<std::vector<uint64_t>> batches(kNumBatches);
  for (auto& batch : batches) {
    std::unordered_set<uint64_t> used;
    while (batch.size() < kBatch) {
      uint64_t id = zipf.SampleIndex(rng);
      for (int attempt = 0; attempt < 64 && used.count(id) > 0; ++attempt) {
        id = zipf.SampleIndex(rng);
      }
      while (used.count(id) > 0) id = (id + 1) % kFeatures;  // last resort
      used.insert(id);
      batch.push_back(id);
    }
  }
  return batches;
}

/// Zipf-skewed batches WITH duplicates (the realistic training stream).
std::vector<std::vector<uint64_t>> MakeDuplicateBatches(uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution zipf(kFeatures, 1.2);
  std::vector<std::vector<uint64_t>> batches(kNumBatches);
  for (auto& batch : batches) {
    for (size_t i = 0; i < kBatch; ++i) batch.push_back(zipf.SampleIndex(rng));
  }
  return batches;
}

std::vector<std::vector<float>> MakeGradients(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> grads(kNumBatches);
  for (auto& g : grads) {
    g.resize(kBatch * kDim);
    for (float& v : g) v = rng.UniformFloat(-0.5f, 0.5f);
  }
  return grads;
}

void ExpectBitIdentical(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what,
                        const std::string& store_name, size_t batch_index) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << store_name << ": " << what << " diverged at batch " << batch_index;
}

/// Sweeps every feature id through scalar Lookup on both stores and demands
/// byte-equality (the embedding tables are in identical states).
void ExpectAllEmbeddingsIdentical(EmbeddingStore* scalar,
                                  EmbeddingStore* batched,
                                  const std::string& store_name) {
  std::vector<float> a(kDim), b(kDim);
  for (uint64_t id = 0; id < kFeatures; ++id) {
    scalar->Lookup(id, a.data());
    batched->Lookup(id, b.data());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), kDim * sizeof(float)), 0)
        << store_name << ": embedding of id " << id << " diverged";
  }
}

class BatchedParityTest : public ::testing::TestWithParam<StoreCase> {};

// Fixed seed + identical id/gradient stream (distinct ids per batch) must
// produce bit-identical embeddings and identical MemoryBytes() / migration
// counters through the scalar and batched paths.
TEST_P(BatchedParityTest, TrainStreamParity) {
  const std::string name = GetParam().name;
  auto scalar_store = MakeParityStore(name, GetParam().cr);
  auto batched_store = MakeParityStore(name, GetParam().cr);
  ASSERT_NE(scalar_store, nullptr);
  ASSERT_NE(batched_store, nullptr);

  const auto batches = MakeDistinctBatches(/*seed=*/1234);
  const auto grads = MakeGradients(/*seed=*/5678);
  const float lr = 0.05f;

  std::vector<float> scalar_out(kBatch * kDim);
  std::vector<float> batched_out(kBatch * kDim);
  for (size_t k = 0; k < kNumBatches; ++k) {
    const std::vector<uint64_t>& ids = batches[k];
    // Forward.
    for (size_t i = 0; i < kBatch; ++i) {
      scalar_store->Lookup(ids[i], scalar_out.data() + i * kDim);
    }
    batched_store->LookupBatch(ids.data(), kBatch, batched_out.data());
    ExpectBitIdentical(scalar_out, batched_out, "forward lookups", name, k);
    // Backward + per-iteration maintenance.
    for (size_t i = 0; i < kBatch; ++i) {
      scalar_store->ApplyGradient(ids[i], grads[k].data() + i * kDim, lr);
    }
    batched_store->ApplyGradientBatch(ids.data(), kBatch, grads[k].data(),
                                      lr);
    scalar_store->Tick();
    batched_store->Tick();
  }

  ExpectAllEmbeddingsIdentical(scalar_store.get(), batched_store.get(), name);
  EXPECT_EQ(scalar_store->MemoryBytes(), batched_store->MemoryBytes());

  // CAFE also exposes its migration machinery; the two paths must have made
  // exactly the same promotion/demotion decisions.
  auto* scalar_cafe = dynamic_cast<CafeEmbedding*>(scalar_store.get());
  auto* batched_cafe = dynamic_cast<CafeEmbedding*>(batched_store.get());
  ASSERT_EQ(scalar_cafe == nullptr, batched_cafe == nullptr);
  if (scalar_cafe != nullptr) {
    EXPECT_EQ(scalar_cafe->migrations(), batched_cafe->migrations());
    EXPECT_EQ(scalar_cafe->demotions(), batched_cafe->demotions());
    EXPECT_EQ(scalar_cafe->hot_count(), batched_cafe->hot_count());
    EXPECT_EQ(scalar_cafe->hot_threshold(), batched_cafe->hot_threshold());
    EXPECT_EQ(scalar_cafe->lookup_stats().hot,
              batched_cafe->lookup_stats().hot);
    EXPECT_EQ(scalar_cafe->lookup_stats().medium,
              batched_cafe->lookup_stats().medium);
    EXPECT_EQ(scalar_cafe->lookup_stats().cold,
              batched_cafe->lookup_stats().cold);
  }
}

// LookupBatch is read-only: even on duplicate-heavy streams it must return
// exactly what scalar Lookup returns, for every store.
TEST_P(BatchedParityTest, LookupBatchMatchesScalarWithDuplicates) {
  const std::string name = GetParam().name;
  auto store = MakeParityStore(name, GetParam().cr);
  ASSERT_NE(store, nullptr);

  // Populate adaptive state first so hot/medium/cold paths all exercise.
  const auto train_batches = MakeDuplicateBatches(/*seed=*/777);
  const auto grads = MakeGradients(/*seed=*/888);
  for (size_t k = 0; k < kNumBatches; ++k) {
    store->ApplyGradientBatch(train_batches[k].data(), kBatch,
                              grads[k].data(), 0.05f);
    store->Tick();
  }

  const auto probe_batches = MakeDuplicateBatches(/*seed=*/999);
  constexpr size_t kStride = kDim + 3;  // strided output (model-input gather)
  std::vector<float> scalar_out(kBatch * kDim);
  std::vector<float> batched_out(kBatch * kDim);
  std::vector<float> strided_out(kBatch * kStride);
  for (size_t k = 0; k < kNumBatches; ++k) {
    const std::vector<uint64_t>& ids = probe_batches[k];
    for (size_t i = 0; i < kBatch; ++i) {
      store->Lookup(ids[i], scalar_out.data() + i * kDim);
    }
    store->LookupBatch(ids.data(), kBatch, batched_out.data());
    ExpectBitIdentical(scalar_out, batched_out, "read-only lookups", name, k);
    store->LookupBatch(ids.data(), kBatch, strided_out.data(), kStride);
    for (size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(std::memcmp(scalar_out.data() + i * kDim,
                            strided_out.data() + i * kStride,
                            kDim * sizeof(float)),
                0)
          << name << ": strided lookup diverged at batch " << k << " row "
          << i;
    }
  }
}

// The staged path this refactor deleted: clamp each gradient row out of the
// strided tensor into a contiguous staging buffer, then feed the packed
// batch call — exactly what EmbeddingLayerGroup::Backward used to do per
// field. The strided call with fused clipping must reproduce it bit for
// bit, INCLUDING on duplicate-heavy streams (same dedup decisions, same
// accumulation order, same importance scores) — this is the contract that
// let the staging copy be deleted.
TEST_P(BatchedParityTest, StridedBackwardMatchesStagedPath) {
  const std::string name = GetParam().name;
  auto staged_store = MakeParityStore(name, GetParam().cr);
  auto strided_store = MakeParityStore(name, GetParam().cr);
  ASSERT_NE(staged_store, nullptr);
  ASSERT_NE(strided_store, nullptr);

  constexpr size_t kStride = kDim + 5;  // model-gradient-tensor layout
  constexpr float kClip = 1.0f;
  const auto batches = MakeDuplicateBatches(/*seed=*/4242);

  // Gradients wide enough that the clamp actually engages (the staged path
  // clipped, so parity would be vacuous on never-clipped values).
  Rng rng(2121);
  std::vector<std::vector<float>> grads(kNumBatches);
  for (auto& g : grads) {
    g.resize(kBatch * kStride);
    for (float& v : g) v = rng.UniformFloat(-2.0f, 2.0f);
  }

  std::vector<float> staging(kBatch * kDim);
  std::vector<float> out(kBatch * kDim);
  for (size_t k = 0; k < kNumBatches; ++k) {
    const std::vector<uint64_t>& ids = batches[k];
    // Forward on both (advances cafe/ada lookup statistics identically).
    staged_store->LookupBatch(ids.data(), kBatch, out.data());
    strided_store->LookupBatch(ids.data(), kBatch, out.data());
    // Staged reference: clip into the contiguous buffer, packed call.
    for (size_t i = 0; i < kBatch; ++i) {
      const float* src = grads[k].data() + i * kStride;
      float* dst = staging.data() + i * kDim;
      for (uint32_t t = 0; t < kDim; ++t) {
        dst[t] = std::clamp(src[t], -kClip, kClip);
      }
    }
    staged_store->ApplyGradientBatch(ids.data(), kBatch, staging.data(),
                                     0.05f);
    // Strided path: clamp fused into the scatter, no staging.
    strided_store->ApplyGradientBatch(ids.data(), kBatch, grads[k].data(),
                                      kStride, 0.05f, kClip);
    staged_store->Tick();
    strided_store->Tick();
  }

  ExpectAllEmbeddingsIdentical(staged_store.get(), strided_store.get(), name);
  EXPECT_EQ(staged_store->MemoryBytes(), strided_store->MemoryBytes());

  // Migration decisions (promotion/demotion under dedup'd importance
  // accumulation) must also be identical, not just the tables.
  auto* staged_cafe = dynamic_cast<CafeEmbedding*>(staged_store.get());
  auto* strided_cafe = dynamic_cast<CafeEmbedding*>(strided_store.get());
  ASSERT_EQ(staged_cafe == nullptr, strided_cafe == nullptr);
  if (staged_cafe != nullptr) {
    EXPECT_EQ(staged_cafe->migrations(), strided_cafe->migrations());
    EXPECT_EQ(staged_cafe->demotions(), strided_cafe->demotions());
    EXPECT_EQ(staged_cafe->hot_count(), strided_cafe->hot_count());
    EXPECT_EQ(staged_cafe->hot_threshold(), strided_cafe->hot_threshold());
    EXPECT_EQ(staged_cafe->lookup_stats().hot,
              strided_cafe->lookup_stats().hot);
    EXPECT_EQ(staged_cafe->lookup_stats().medium,
              strided_cafe->lookup_stats().medium);
    EXPECT_EQ(staged_cafe->lookup_stats().cold,
              strided_cafe->lookup_stats().cold);
  }
}

std::string SaveStateBytes(EmbeddingStore* store) {
  io::Writer writer;
  EXPECT_TRUE(store->SaveState(&writer).ok());
  return writer.buffer();
}

// Base + deltas = SaveState under the strided, clipped, duplicate-heavy
// backward: two epochs with dirty tracking switched on mid-run and an
// incremental cut replayed into a replica every 7 steps. For cafe the
// compared bytes include the sketch slots, migration counters, thresholds,
// free list and victim queue, so a row or bucket the backward updated
// without marking shows up as a stale replica.
TEST_P(BatchedParityTest, StridedBackwardIncrementalReplicaMatchesSaveState) {
  const std::string name = GetParam().name;
  constexpr size_t kStride = kDim + 5;
  constexpr float kLr = 0.05f;
  constexpr float kClip = 1.0f;
  const auto batches = MakeDuplicateBatches(/*seed=*/8642);
  Rng rng(97531);
  std::vector<std::vector<float>> grads(kNumBatches);
  for (auto& g : grads) {
    g.resize(kBatch * kStride);
    for (float& v : g) v = rng.UniformFloat(-2.0f, 2.0f);
  }

  auto store = MakeParityStore(name, GetParam().cr);
  auto replica = MakeParityStore(name, GetParam().cr);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(replica, nullptr);
  auto cut_delta = [&]() {
    io::Writer delta;
    ASSERT_TRUE(store->SaveDelta(&delta).ok());
    io::Reader reader(delta.buffer());
    ASSERT_TRUE(replica->LoadDelta(&reader).ok());
  };
  const size_t track_after = kNumBatches / 2;
  size_t step = 0;
  bool tracking = false;
  for (size_t epoch = 0; epoch < 2; ++epoch) {
    for (size_t k = 0; k < kNumBatches; ++k) {
      if (step == track_after) {
        io::Writer base;
        ASSERT_TRUE(store->SaveState(&base).ok());
        io::Reader reader(base.buffer());
        ASSERT_TRUE(replica->LoadState(&reader).ok());
        ASSERT_TRUE(store->EnableDirtyTracking().ok());
        tracking = true;
      }
      store->ApplyGradientBatch(batches[k].data(), kBatch, grads[k].data(),
                                kStride, kLr, kClip);
      store->Tick();
      ++step;
      if (tracking && step % 7 == 0) cut_delta();
    }
  }
  cut_delta();
  EXPECT_EQ(SaveStateBytes(replica.get()), SaveStateBytes(store.get()))
      << name << ": incremental-cut replica diverged";
}

INSTANTIATE_TEST_SUITE_P(AllStores, BatchedParityTest,
                         ::testing::ValuesIn(kAllStores),
                         [](const ::testing::TestParamInfo<StoreCase>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Non-adaptive stores preserve stream order, so the batched update must be
// bit-identical to the scalar loop even when batches repeat ids.
TEST(BatchedParityDuplicatesTest, StreamOrderStoresAreExactWithDuplicates) {
  for (const char* name : {"full", "hash", "qr", "robe"}) {
    const double cr = std::string(name) == "full" ? 1.0 : 10.0;
    auto scalar_store = MakeParityStore(name, cr);
    auto batched_store = MakeParityStore(name, cr);
    ASSERT_NE(scalar_store, nullptr);
    ASSERT_NE(batched_store, nullptr);

    const auto batches = MakeDuplicateBatches(/*seed=*/31337);
    const auto grads = MakeGradients(/*seed=*/1213);
    for (size_t k = 0; k < kNumBatches; ++k) {
      const std::vector<uint64_t>& ids = batches[k];
      for (size_t i = 0; i < kBatch; ++i) {
        scalar_store->ApplyGradient(ids[i], grads[k].data() + i * kDim,
                                    0.05f);
      }
      batched_store->ApplyGradientBatch(ids.data(), kBatch, grads[k].data(),
                                        0.05f);
    }
    ExpectAllEmbeddingsIdentical(scalar_store.get(), batched_store.get(),
                                 name);
  }
}

TEST(BatchDeduperTest, FirstAppearanceOrderCountsAndAccumulation) {
  BatchDeduper dedup;
  const uint64_t ids[] = {7, 3, 7, 9, 3, 7};
  dedup.Build(ids, 6);
  ASSERT_EQ(dedup.num_unique(), 3u);
  EXPECT_EQ(dedup.unique_id(0), 7u);
  EXPECT_EQ(dedup.unique_id(1), 3u);
  EXPECT_EQ(dedup.unique_id(2), 9u);
  EXPECT_EQ(dedup.count(0), 3u);
  EXPECT_EQ(dedup.count(1), 2u);
  EXPECT_EQ(dedup.count(2), 1u);
  EXPECT_EQ(dedup.first_occurrence(0), 0u);
  EXPECT_EQ(dedup.first_occurrence(1), 1u);
  EXPECT_EQ(dedup.first_occurrence(2), 3u);
  const uint32_t expected_unique_of[] = {0, 1, 0, 2, 1, 0};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(dedup.unique_of(i), expected_unique_of[i]) << "occurrence " << i;
  }

  const float grads[] = {1.0f, 2.0f, 4.0f, 8.0f, 16.0f, 32.0f};  // dim = 1
  std::vector<float> accum;
  dedup.AccumulateRows(grads, 6, 1, &accum);
  ASSERT_EQ(accum.size(), 3u);
  EXPECT_FLOAT_EQ(accum[0], 1.0f + 4.0f + 32.0f);
  EXPECT_FLOAT_EQ(accum[1], 2.0f + 16.0f);
  EXPECT_FLOAT_EQ(accum[2], 8.0f);
}

TEST(BatchDeduperTest, ReuseAcrossCallsResetsCleanly) {
  BatchDeduper dedup;
  const uint64_t first[] = {1, 2, 3, 1};
  dedup.Build(first, 4);
  ASSERT_EQ(dedup.num_unique(), 3u);
  const uint64_t second[] = {4, 4, 5};
  dedup.Build(second, 3);
  ASSERT_EQ(dedup.num_unique(), 2u);
  EXPECT_EQ(dedup.unique_id(0), 4u);
  EXPECT_EQ(dedup.unique_id(1), 5u);
  EXPECT_EQ(dedup.count(0), 2u);
  EXPECT_EQ(dedup.count(1), 1u);
}

}  // namespace
}  // namespace cafe
