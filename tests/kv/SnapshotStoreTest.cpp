//===- tests/kv/SnapshotStoreTest.cpp - KV snapshot read plane -----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Store::snapshotGet / snapshotMultiGet: single-thread semantics against
// insert/erase/rmw, and the conservation stress — concurrent transactional
// transfers against wait-free snapshot multi-gets, where every snapshot
// must sum to the invariant and the read side must prove it never aborted
// or re-executed (the plane's zero-abort contract, DESIGN.md §10) — and
// the same ledger read through the multi-key operations' locate rounds
// while erase/reinsert churn recycles value records onto other keys.
//
//===----------------------------------------------------------------------===//

#include "kv/Affine.h"
#include "kv/Store.h"
#include "rt/Heap.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "stm/Txn.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

StoreConfig tiny() {
  StoreConfig C;
  C.Shards = 4;
  C.CapacityPerShard = 16;
  return C;
}

class SnapshotStoreTest : public ::testing::Test {
protected:
  SnapshotStoreTest() {
    Config C;
    C.SnapshotEnabled = true;
    SC = std::make_unique<ScopedConfig>(C);
    statsReset();
  }
  ~SnapshotStoreTest() override {
    // The version table keys raw Object* into this fixture's heap: clear
    // it before the heap dies so the next test cannot alias stale keys.
    snap::resetTable();
  }
  std::unique_ptr<ScopedConfig> SC;
  rt::Heap H;
};

TEST_F(SnapshotStoreTest, GetSemantics) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(1, 100));
  ASSERT_TRUE(S.insert(2, 200));

  Word V = 0;
  EXPECT_TRUE(S.snapshotGet(1, V));
  EXPECT_EQ(V, 100u);
  EXPECT_TRUE(S.snapshotGet(2, V));
  EXPECT_EQ(V, 200u);
  EXPECT_FALSE(S.snapshotGet(3, V)); // never inserted

  ASSERT_TRUE(S.erase(2));
  EXPECT_FALSE(S.snapshotGet(2, V)); // erased reads as absent
  EXPECT_EQ(V, 200u);                // ...and Out is left untouched
}

TEST_F(SnapshotStoreTest, MultiGetMixedHitMiss) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(10, 7));
  ASSERT_TRUE(S.insert(30, 9));

  const Word Keys[4] = {10, 20, 30, 40};
  Word Out[4] = {1, 1, 1, 1};
  EXPECT_EQ(S.snapshotMultiGet(Keys, 4, Out), 2u);
  EXPECT_EQ(Out[0], 7u);
  EXPECT_EQ(Out[1], Store::Tombstone);
  EXPECT_EQ(Out[2], 9u);
  EXPECT_EQ(Out[3], Store::Tombstone);
}

TEST_F(SnapshotStoreTest, SeesCommittedRmwUpdates) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(5, 50));
  const Word K = 5;
  ASSERT_TRUE(S.rmwAdd(&K, 1, 25));

  Word V = 0;
  EXPECT_TRUE(S.snapshotGet(5, V));
  EXPECT_EQ(V, 75u);
}

TEST_F(SnapshotStoreTest, ReadOnlyPhaseIsExactlyZeroAbort) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(1, 11));
  ASSERT_TRUE(S.insert(2, 22));
  const Word Keys[2] = {1, 2};

  statsReset();
  constexpr int Threads = 4, PerThread = 200;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      Word Out[2];
      for (int I = 0; I < PerThread; ++I)
        S.snapshotMultiGet(Keys, 2, Out);
    });
  for (auto &T : Ts)
    T.join();

  // A read-only snapshot completes without a commit, an abort, or a
  // single record CAS — the counters are exact, not bounds.
  StatsCounters C = statsSnapshot();
  EXPECT_EQ(C.SnapshotTxns, uint64_t(Threads) * PerThread);
  EXPECT_EQ(C.TxnCommits, 0u);
  EXPECT_EQ(C.TxnAborts, 0u);
  EXPECT_GE(C.SnapshotReads, uint64_t(Threads) * PerThread * 2);
}

TEST_F(SnapshotStoreTest, PutFastOwnedRefusesChainedObjects) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(5, 1000)); // Fresh record: no version chain yet.

  // Chain-less object: the raw owned store is legal and snapshot reads
  // see it in place (the documented nt caveat, stm/Snapshot.h).
  EXPECT_TRUE(S.putFastOwned(5, 1500));
  Word V = 0;
  ASSERT_TRUE(S.snapshotGet(5, V));
  EXPECT_EQ(V, 1500u);

  // A transactional overwrite publishes a version node: the object is now
  // chained and snapshot readers resolve it through the chain.
  ASSERT_TRUE(S.insert(5, 2000));
  ASSERT_TRUE(S.snapshotGet(5, V));
  EXPECT_EQ(V, 2000u);

  // The regression: a raw store into a chained object is invisible to
  // snapshot readers forever (snapshotGet would stay frozen at the last
  // chained value). putFastOwned must refuse so the affine put falls back
  // to the transactional insert, which publishes.
  EXPECT_FALSE(S.putFastOwned(5, 3000));
  ASSERT_TRUE(S.snapshotGet(5, V));
  EXPECT_EQ(V, 2000u) << "the refused store must have no effect";
  ASSERT_TRUE(S.insert(5, 3000)); // The fallback path the caller takes.
  ASSERT_TRUE(S.snapshotGet(5, V));
  EXPECT_EQ(V, 3000u);
  Word Nt = 0;
  ASSERT_TRUE(S.get(5, Nt));
  EXPECT_EQ(Nt, 3000u);
}

TEST_F(SnapshotStoreTest, AffineOwnedWritesStaySnapshotVisible) {
  Config C;
  C.SnapshotEnabled = true;
  C.DeaEnabled = true;
  ScopedConfig Nested(C);

  StoreConfig KC;
  KC.Shards = 4;
  KC.CapacityPerShard = 64;
  Store S(H, KC);

  constexpr int NumKeys = 16;
  constexpr Word Rounds = 200;
  Word Keys[NumKeys];
  for (int I = 0; I < NumKeys; ++I) {
    Keys[I] = Word(I + 1);
    ASSERT_TRUE(S.insert(Keys[I], 999));
    ASSERT_TRUE(S.insert(Keys[I], 1000)); // Overwrite: chains the record.
  }

  // Solo affine executor: every put below runs the owned single-key path
  // (putFastOwned, falling back to the transactional insert when refused).
  AffineExec AX(S, 1);
  std::atomic<bool> WriterDone{false};
  std::atomic<uint64_t> Regressions{0};

  std::thread Reader([&] {
    Word Last[NumKeys] = {};
    Word Out[NumKeys];
    do {
      if (S.snapshotMultiGet(Keys, NumKeys, Out) != NumKeys) {
        Regressions.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      for (int I = 0; I < NumKeys; ++I) {
        // Writers only move values up; a snapshot that reads below a
        // previously observed value — or outside the written range — saw
        // a frozen chain or a torn write.
        if (Out[I] < 1000 || Out[I] > 1000 + Rounds || Out[I] < Last[I])
          Regressions.fetch_add(1, std::memory_order_relaxed);
        Last[I] = Out[I];
      }
    } while (!WriterDone.load(std::memory_order_acquire));
  });

  for (Word R = 1; R <= Rounds; ++R)
    for (int I = 0; I < NumKeys; ++I)
      ASSERT_TRUE(AX.put(0, Keys[I], 1000 + R));
  WriterDone.store(true, std::memory_order_release);
  Reader.join();
  EXPECT_EQ(Regressions.load(), 0u);

  // The bug's signature was chained keys frozen at their last chained
  // value: the final snapshot would sum short of the final round. Every
  // key must have landed exactly on the last write.
  Word Out[NumKeys];
  ASSERT_EQ(S.snapshotMultiGet(Keys, NumKeys, Out), size_t(NumKeys));
  Word Sum = 0;
  for (int I = 0; I < NumKeys; ++I)
    Sum += Out[I];
  EXPECT_EQ(Sum, Word(NumKeys) * (1000 + Rounds));
}

TEST_F(SnapshotStoreTest, ConservationUnderConcurrentTransfers) {
  StoreConfig SC2;
  SC2.Shards = 4;
  SC2.CapacityPerShard = 64;
  Store S(H, SC2);

  constexpr int NumKeys = 16;
  constexpr Word PerKey = 1000;
  constexpr Word Invariant = NumKeys * PerKey;
  Word AllKeys[NumKeys];
  for (int I = 0; I < NumKeys; ++I) {
    AllKeys[I] = Word(I + 1);
    ASSERT_TRUE(S.insert(AllKeys[I], PerKey));
  }

  statsReset();
  constexpr int Writers = 2, Readers = 2, TransfersPerWriter = 2000;
  std::atomic<int> WritersDone{0};
  std::atomic<uint64_t> BadSnapshots{0};
  std::atomic<uint64_t> SnapshotsTaken{0};
  std::atomic<uint64_t> BodyRuns{0};

  std::vector<std::thread> Ts;
  for (int W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      uint64_t R = 0x9e3779b97f4a7c15ull * uint64_t(W + 1);
      for (int I = 0; I < TransfersPerWriter; ++I) {
        R = R * 6364136223846793005ull + 1442695040888963407ull;
        int A = int((R >> 33) % NumKeys);
        int B = int((R >> 13) % NumKeys);
        if (A == B)
          B = (B + 1) % NumKeys;
        Word D = (R >> 21) % 7 + 1;
        const Word Pair[2] = {AllKeys[A], AllKeys[B]};
        // Transfer D from the richer to the poorer: one transaction,
        // sum-preserving, and no value ever wraps below zero (a wrapped
        // value could collide with the Tombstone sentinel).
        bool Ok = S.readModifyWrite(Pair, 2, [D](Word *Vals, size_t) {
          if (Vals[0] >= Vals[1]) {
            Vals[0] -= D;
            Vals[1] += D;
          } else {
            Vals[1] -= D;
            Vals[0] += D;
          }
        });
        ASSERT_TRUE(Ok);
      }
      WritersDone.fetch_add(1, std::memory_order_release);
    });

  for (int R = 0; R < Readers; ++R)
    Ts.emplace_back([&] {
      Word Out[NumKeys];
      do {
        size_t Hits = S.snapshotMultiGet(AllKeys, NumKeys, Out);
        SnapshotsTaken.fetch_add(1, std::memory_order_relaxed);
        Word Sum = 0;
        for (int I = 0; I < NumKeys; ++I)
          Sum += Out[I];
        if (Hits != NumKeys || Sum != Invariant)
          BadSnapshots.fetch_add(1, std::memory_order_relaxed);
      } while (WritersDone.load(std::memory_order_acquire) < Writers);
      // One run each with an execution probe after the churn too: the
      // body must run exactly once per snapshot even under load.
      Txn::runSnapshot([&] {
        BodyRuns.fetch_add(1, std::memory_order_relaxed);
        Txn &Tx = Txn::forThisThread();
        Word Sum = 0;
        for (int I = 0; I < NumKeys; ++I) {
          rt::Object *V = S.valueObjectFor(AllKeys[I]);
          ASSERT_NE(V, nullptr);
          Sum += Tx.read(V, 0);
        }
        EXPECT_EQ(Sum, Invariant);
      });
    });

  for (auto &T : Ts)
    T.join();

  // Every observed snapshot conserved the sum — no torn multi-gets.
  EXPECT_EQ(BadSnapshots.load(), 0u);
  EXPECT_GE(SnapshotsTaken.load(), uint64_t(Readers));
  EXPECT_EQ(BodyRuns.load(), uint64_t(Readers));

  // The writers churned (TransfersPerWriter commits each, plus retries),
  // yet the snapshot plane took zero aborts: every snapshot transaction
  // that began also completed, first try.
  StatsCounters C = statsSnapshot();
  EXPECT_EQ(C.SnapshotTxns, SnapshotsTaken.load() + BodyRuns.load());
  EXPECT_GE(C.TxnCommits, uint64_t(Writers) * TransfersPerWriter);
  EXPECT_GE(C.SnapshotPublishes, uint64_t(Writers) * TransfersPerWriter);

  // Ground truth after the dust settles.
  Word Out[NumKeys];
  ASSERT_EQ(S.multiGet(AllKeys, NumKeys, Out), size_t(NumKeys));
  Word Sum = 0;
  for (int I = 0; I < NumKeys; ++I)
    Sum += Out[I];
  EXPECT_EQ(Sum, Invariant);
}

TEST_F(SnapshotStoreTest, LocateRoundsHoldLedgerUnderRecordRecycling) {
  // The multi-key operations prefetch through a relaxed load of each
  // key's probe-start Vals slot before their transaction starts. Churn
  // keys share the ledger's probe chains and are erased and reinserted
  // continually, so that slot is often null, another key's, or a record
  // recycled from one key onto another. Nothing read there may leak into
  // a result: the ledger must conserve its sum in every multiGet and
  // snapshotMultiGet, and a churn key must read as absent or as its own
  // value, never another key's.
  StoreConfig SC2;
  SC2.Shards = 2;
  SC2.CapacityPerShard = 32;
  Store S(H, SC2);

  constexpr int LedgerKeys = 8, ChurnKeys = 16, Churners = 2;
  constexpr Word PerKey = 1000, Invariant = LedgerKeys * PerKey;
  auto ChurnVal = [](Word K) { return K * 1000 + 7; };
  Word AllKeys[LedgerKeys + ChurnKeys];
  for (int I = 0; I < LedgerKeys; ++I) {
    AllKeys[I] = Word(I + 1);
    ASSERT_TRUE(S.insert(AllKeys[I], PerKey));
  }
  for (int I = 0; I < ChurnKeys; ++I) {
    AllKeys[LedgerKeys + I] = Word(100 + I);
    if (I % 4 < 2) // Half of each churner's keys start present.
      ASSERT_TRUE(S.insert(AllKeys[LedgerKeys + I], ChurnVal(100 + I)));
  }

  const char *Fast = std::getenv("SATM_FAST_TESTS");
  // Each writer (the transfer thread and every churner) runs a fixed
  // number of operations; the readers run until all of them are done.
  const int Ops = Fast && Fast[0] == '1' ? 5000 : 20000;
  std::atomic<int> Writing{1 + Churners};
  std::atomic<uint64_t> Bad{0}, Reads{0};
  std::vector<std::thread> Ts;
  Ts.emplace_back([&] {
    uint64_t R = 0x2545f4914f6cdd1dull;
    for (int I = 0; I < Ops; ++I) {
      R = R * 6364136223846793005ull + 1442695040888963407ull;
      int A = int((R >> 33) % LedgerKeys), B = int((R >> 13) % LedgerKeys);
      if (A == B)
        B = (B + 1) % LedgerKeys;
      Word D = (R >> 21) % 5 + 1;
      const Word Pair[2] = {AllKeys[A], AllKeys[B]};
      bool Ok = S.readModifyWrite(Pair, 2, [D](Word *V, size_t) {
        if (V[0] >= D) {
          V[0] -= D;
          V[1] += D;
        }
      });
      if (!Ok)
        Bad.fetch_add(1, std::memory_order_relaxed);
    }
    Writing.fetch_sub(1, std::memory_order_release);
  });
  for (int C = 0; C < Churners; ++C)
    Ts.emplace_back([&, C] {
      // Churner C owns churn keys 100 + C, 100 + C + 2, ...: it erases a
      // present one and inserts an absent one, which recycles retired
      // records (possibly another key's) out of the shard's pool.
      std::vector<Word> In, Out;
      for (int I = C; I < ChurnKeys; I += Churners)
        (I % 4 < 2 ? In : Out).push_back(Word(100 + I));
      uint64_t R = 0x9e3779b97f4a7c15ull * uint64_t(C + 1);
      for (int Op = 0; Op < Ops; ++Op) {
        R = R * 6364136223846793005ull + 1442695040888963407ull;
        size_t E = (R >> 33) % In.size(), I = (R >> 13) % Out.size();
        if (!S.erase(In[E]) || !S.insert(Out[I], ChurnVal(Out[I])))
          Bad.fetch_add(1, std::memory_order_relaxed);
        std::swap(In[E], Out[I]);
      }
      Writing.fetch_sub(1, std::memory_order_release);
    });
  for (bool Snapshot : {false, true})
    Ts.emplace_back([&, Snapshot] {
      constexpr int N = LedgerKeys + ChurnKeys;
      Word Vals[N];
      do {
        if (Snapshot)
          S.snapshotMultiGet(AllKeys, N, Vals);
        else
          S.multiGet(AllKeys, N, Vals);
        Reads.fetch_add(1, std::memory_order_relaxed);
        Word Sum = 0;
        for (int I = 0; I < LedgerKeys; ++I)
          Sum += Vals[I];
        bool Ok = Sum == Invariant;
        for (int I = LedgerKeys; I < N; ++I)
          Ok &= Vals[I] == Store::Tombstone || Vals[I] == ChurnVal(AllKeys[I]);
        if (!Ok)
          Bad.fetch_add(1, std::memory_order_relaxed);
      } while (Writing.load(std::memory_order_acquire) != 0);
    });
  for (auto &T : Ts)
    T.join();

  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_GE(Reads.load(), 2u);
  EXPECT_GT(S.reclaimStats().Recycled, 0u) << "churn recycled no record";
  Word Out[LedgerKeys];
  ASSERT_EQ(S.multiGet(AllKeys, LedgerKeys, Out), size_t(LedgerKeys));
  Word Sum = 0;
  for (Word V : Out)
    Sum += V;
  EXPECT_EQ(Sum, Invariant);
}

} // namespace
