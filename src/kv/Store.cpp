//===- kv/Store.cpp - SATM-KV store implementation -----------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"

#include "kv/Wal.h"
#include "stm/Barriers.h"
#include "stm/Quiesce.h"
#include "stm/Snapshot.h"
#include "stm/Txn.h"

#include <cassert>

using namespace satm;
using namespace satm::kv;
using namespace satm::rt;

namespace {

const TypeDescriptor IntArrayType("kv.int[]", TypeKind::IntArray);
const TypeDescriptor RefArrayType("kv.ref[]", TypeKind::RefArray);
// Value record: slot 0 holds the value word (or Store::Tombstone).
const TypeDescriptor ValueType("kv.Value", 1, {});
// Shard metadata: slot 0 counts resident index entries.
const TypeDescriptor MetaType("kv.ShardMeta", 1, {});

uint32_t roundUpPow2(uint32_t V) {
  uint32_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

/// Per-call scratch array of N elements: inline up to a wire frame's key
/// count (net::MaxKeysPerFrame), on the heap above it, so the multi-key
/// operations allocate nothing for the batches they are used with.
template <typename T> class Scratch {
public:
  explicit Scratch(size_t N) : P(N <= Inline ? Small : new T[N]) {}
  ~Scratch() {
    if (P != Small)
      delete[] P;
  }
  Scratch(const Scratch &) = delete;
  Scratch &operator=(const Scratch &) = delete;
  T *data() { return P; }
  T &operator[](size_t I) { return P[I]; }

private:
  static constexpr size_t Inline = 64;
  T Small[Inline];
  T *P;
};

/// Shared driver for the budgeted transactional operations: runs \p Body
/// (which sets \p St to the committed outcome) as an eager transaction,
/// cutting it short via userAbort when \p B runs out. The budget check sits
/// at the top of each attempt, before any transactional access, so a shed
/// operation has touched nothing. A serial-irrevocable attempt (the
/// contention manager's escalation) skips the check entirely: it cannot
/// roll back, so it must not userAbort — and it is guaranteed to finish.
template <typename BodyF>
OpStatus runBudgeted(const OpBudget &B, OpStatus &St, BodyF &&Body) {
  uint32_t Attempts = 0;
  OpStatus Cut = OpStatus::Ok;
  bool Committed = stm::atomically([&] {
    stm::Txn &Tx = stm::Txn::forThisThread();
    if (!Tx.inSerialMode()) {
      if (B.Deadline != std::chrono::steady_clock::time_point{} &&
          std::chrono::steady_clock::now() >= B.Deadline) {
        Cut = OpStatus::DeadlineExceeded;
        Tx.userAbort();
      }
      if (B.MaxAttempts != 0 && ++Attempts > B.MaxAttempts) {
        Cut = OpStatus::Overloaded;
        Tx.userAbort();
      }
    }
    Body(Tx);
  });
  return Committed ? St : Cut;
}

} // namespace

const char *satm::kv::opStatusName(OpStatus S) {
  switch (S) {
  case OpStatus::Ok:
    return "Ok";
  case OpStatus::NotFound:
    return "NotFound";
  case OpStatus::Mismatch:
    return "Mismatch";
  case OpStatus::Full:
    return "Full";
  case OpStatus::Overloaded:
    return "Overloaded";
  case OpStatus::DeadlineExceeded:
    return "DeadlineExceeded";
  case OpStatus::DurabilityLost:
    return "DurabilityLost";
  }
  return "?";
}

Store::Store(rt::Heap &Heap, const StoreConfig &C) : H(Heap) {
  Capacity = roundUpPow2(C.CapacityPerShard < 2 ? 2 : C.CapacityPerShard);
  uint32_t NumShards = roundUpPow2(C.Shards < 1 ? 1 : C.Shards);
  Reps.reserve(NumShards);
  Pools.reserve(NumShards);
  for (uint32_t S = 0; S < NumShards; ++S) {
    ShardRep R;
    R.Keys = H.allocateArray(&IntArrayType, Capacity, BirthState::Shared);
    R.Vals = H.allocateArray(&RefArrayType, Capacity, BirthState::Shared);
    R.Meta = H.allocate(&MetaType, BirthState::Shared);
    Reps.push_back(R);
    Pools.push_back(std::make_unique<ShardPool>());
  }
}

//===----------------------------------------------------------------------===
// Value-record retire pools (quiescence-deferred reclamation).
//===----------------------------------------------------------------------===

void Store::pushRetired(uint32_t Shard, rt::Object *V, uint32_t Slot) {
  using stm::Quiescence;
  ShardPool &P = *Pools[Shard];
  std::lock_guard<std::mutex> Lock(P.Mutex);
  P.Queue.push_back(
      {V, Slot, Quiescence::currentEpoch(), Quiescence::snapshotStable()});
}

bool Store::popRecycled(uint32_t Shard, RetiredRecord &Out) {
  using stm::Quiescence;
  ShardPool &P = *Pools[Shard];
  std::lock_guard<std::mutex> Lock(P.Mutex);
  if (P.Queue.empty())
    return false;
  const RetiredRecord &F = P.Queue.front();
  if (Quiescence::currentEpoch() <= F.RetireEpoch) {
    // Never block an insert on the horizon: advance the epoch once (it
    // stalls when QuiesceOnCommit is off) and let a later harvest reap.
    Quiescence::advanceEpoch();
    return false;
  }
  if (Quiescence::minPinnedEpoch() < F.RetireStable)
    return false; // A pinned snapshot predates the unlink: keep parking.
  Out = F;
  P.Queue.pop_front();
  return true;
}

Store::ReclaimStats Store::reclaimStats() const {
  uint64_t Pool = 0;
  for (const auto &P : Pools) {
    std::lock_guard<std::mutex> Lock(P->Mutex);
    Pool += P->Queue.size();
  }
  return {ValueAllocated.load(std::memory_order_relaxed),
          ValueRetired.load(std::memory_order_relaxed),
          ValueRecycled.load(std::memory_order_relaxed), Pool};
}

//===----------------------------------------------------------------------===
// Non-transactional plane.
//===----------------------------------------------------------------------===

bool Store::get(Word Key, Word &Out) const {
  const ShardRep &S = Reps[shardOf(Key)];
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = stm::ntRead(S.Keys, I);
    if (K == 0)
      return false; // Probe chains never shrink: empty slot ends the search.
    if (K != Key + 1)
      continue;
    for (;;) {
      Word VW = stm::ntRead(S.Vals, I);
      const Object *V = Object::fromWord(VW);
      if (!V)
        return false; // Erased: the record was unlinked.
      Out = stm::ntRead(V, 0);
      // Re-confirm the link after the value read: a concurrent erase may
      // have unlinked V and a recycling insert rewritten it for another
      // key. An unchanged link means the value belonged to Key at the
      // second read (unlink commits publish before any reuse).
      if (stm::ntRead(S.Vals, I) == VW)
        return Out != Tombstone;
    }
  }
  return false;
}

void Store::logRedo(stm::Txn &Tx, uint32_t Shard, WalOp Op, Word Key,
                    Word Val) {
  if (!DurableLog)
    return; // --durability=off: the log path is fully elided.
  stm::Txn::PublishEntry E;
  E.Fn = &Wal::publishHook;
  E.Ctx = DurableLog;
  E.A = (Word(uint8_t(Op)) << 32) | Shard;
  E.B = Key;
  E.C = Val;
  Tx.onPublish(E);
}

bool Store::putFast(Word Key, Word Val) {
  assert(Val != Tombstone && "Tombstone is reserved");
  if (DurableLog)
    return false; // Raw stores bypass the redo log: take the txn path.
  const ShardRep &S = Reps[shardOf(Key)];
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = stm::ntRead(S.Keys, I);
    if (K == 0)
      return false;
    if (K != Key + 1)
      continue;
    Word VW = stm::ntRead(S.Vals, I);
    Object *V = Object::fromWord(VW);
    if (!V)
      return false; // Erased: the transactional insert path resurrects.
    // Store under an aggregated anon hold and re-confirm the link while
    // holding it: a concurrent erase may unlink V (parking it for reuse
    // under another key) between the probe and the store. The re-read is
    // a raw load on purpose — a full barrier read here could wait on the
    // serial gate while holding V's record, and a speculative value only
    // causes a harmless fallback to the transactional path.
    stm::AggregatedWriter W(V);
    if (S.Vals->rawLoad(I, std::memory_order_acquire) != VW)
      return false; // Unlinked underneath us.
    W.store(0, Val);
    return true;
  }
  return false;
}

bool Store::put(Word Key, Word Val) {
  if (putFast(Key, Val))
    return true;
  return insert(Key, Val);
}

bool Store::putFastOwned(Word Key, Word Val) {
  assert(Val != Tombstone && "Tombstone is reserved");
  if (DurableLog)
    return false; // Raw stores bypass the redo log: take the txn path.
  const ShardRep &S = Reps[shardOf(Key)];
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    // Plain acquire loads: index mutations of this shard either happened
    // on this thread (the owner executes all single-key writes) or
    // synchronized through the AffineGate handshake before the window
    // opened, so no record check is needed.
    Word K = S.Keys->rawLoad(I, std::memory_order_acquire);
    if (K == 0)
      return false;
    if (K != Key + 1)
      continue;
    Object *V =
        Object::fromWord(S.Vals->rawLoad(I, std::memory_order_acquire));
    if (!V)
      return false; // Erased: the transactional insert path resurrects.
    // Snapshot-visibility guard: once V has a version chain (a past
    // transactional write — e.g. a CAS — published nodes for it),
    // snapshot readers resolve V through the chain and a raw overwrite
    // here would be permanently invisible to them, freezing snapshotGet
    // at the last chained value. Fall back to the transactional insert
    // (the caller's fallback path), which publishes a version node.
    // Chain-less objects keep the raw store: snap::readAtEpoch reads
    // them in place (the documented nt caveat, stm/Snapshot.h).
    if (stm::config().SnapshotEnabled && stm::snap::tableEntries() != 0 &&
        stm::snap::newestEpoch(V) != 0)
      return false;
    // No unlink race: erases of this shard run only under this window or
    // behind the gate, never concurrently with it.
    V->rawStore(0, Val, std::memory_order_release);
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===
// Transactional plane.
//===----------------------------------------------------------------------===

void Store::locate(const Word *Keys, size_t N, uint64_t *Hashes) const {
  const uint32_t Mask = Capacity - 1;
  // Round 1: every key's index lines, all misses in flight at once.
  for (size_t I = 0; I < N; ++I) {
    uint64_t Hash = hashKey(Keys[I]);
    Hashes[I] = Hash;
    const ShardRep &S = Reps[shardOfHash(Hash)];
    __builtin_prefetch(&S.Keys->slot(uint32_t(Hash & Mask)));
    __builtin_prefetch(&S.Vals->slot(uint32_t(Hash & Mask)));
  }
  // Round 2: the records those Vals slots point to. The relaxed load is a
  // hint, never trusted: the slot may belong to another key further up the
  // probe chain, or be relinked before the transaction reads it. Records
  // are recycled, never freed, so a stale pointer is still mapped memory.
  for (size_t I = 0; I < N; ++I) {
    const ShardRep &S = Reps[shardOfHash(Hashes[I])];
    if (const Object *V = S.Vals->rawLoadRef(uint32_t(Hashes[I] & Mask))) {
      __builtin_prefetch(V);            // Record header (the tx record).
      __builtin_prefetch(&V->slot(0));  // Value slot; may cross a line.
    }
  }
}

int Store::findSlotTxn(stm::Txn &Tx, const ShardRep &S, Word Key,
                       uint64_t Hash, int *FirstFree) const {
  const uint32_t Mask = Capacity - 1;
  uint32_t I = uint32_t(Hash & Mask);
  if (FirstFree)
    *FirstFree = -1;
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = Tx.read(S.Keys, I);
    if (K == Key + 1)
      return int(I);
    if (K == 0) {
      if (FirstFree)
        *FirstFree = int(I);
      return -1;
    }
  }
  return -1; // Full shard, no free slot either.
}

OpStatus Store::insert(Word Key, Word Val, const OpBudget &B) {
  assert(Val != Tombstone && "Tombstone is reserved");
  const uint64_t Hash = hashKey(Key);
  uint32_t Shard = shardOfHash(Hash);
  ShardRep &S = Reps[Shard];
  // Harvest at most one ripe retired record *before* the attempt loop —
  // popping inside the body would double-pop across re-executions.
  RetiredRecord Recycled{nullptr, 0, 0, 0};
  bool Harvested = popRecycled(Shard, Recycled);
  bool UsedRecycled = false;
  OpStatus St = OpStatus::Ok;
  OpStatus R = runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::Ok;
    UsedRecycled = false;
    int FirstFree = -1;
    int Slot = findSlotTxn(Tx, S, Key, Hash, &FirstFree);
    int Target = Slot;
    bool RecycledSlot = false;
    if (Slot >= 0) {
      Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
      if (V) {
        // Present: overwrite in place.
        Tx.write(V, 0, Val);
        logRedo(Tx, Shard, WalOp::Put, Key, Val);
        return;
      }
      // Erased key: resurrect by relinking a value record below. Meta is
      // untouched — size() counts index entries, which never shrink.
    } else if (FirstFree >= 0) {
      Target = FirstFree;
    } else if (Harvested &&
               Tx.readRef(S.Vals, Recycled.Slot) == nullptr) {
      // Tombstone-saturated shard: the probe wrapped the whole table
      // without an empty slot, so every slot is on every key's probe
      // sequence and any still-tombstoned slot is a legal home for Key.
      // Reuse the harvested record's own slot — ripened past both
      // reclamation horizons, and (checked transactionally above) not
      // resurrected since. The Keys rewrite is transactional, so
      // concurrent probes validate against it, and the slot stays
      // non-zero throughout: nt probe chains never see it go empty.
      Target = int(Recycled.Slot);
      RecycledSlot = true;
    } else {
      St = OpStatus::Full;
      return;
    }
    Object *V;
    if (Harvested) {
      // A recycled record is Shared and may have straggling optimistic
      // readers from its previous key: write transactionally so the
      // acquire arbitrates against them and the commit-time version bump
      // (plus the published version node under SnapshotEnabled) kills
      // their validation.
      V = Recycled.V;
      Tx.write(V, 0, Val);
      UsedRecycled = true;
    } else {
      // Fresh record, born per config().birthState(): under DEA it stays
      // private — invisible to every other thread — until the
      // transactional ref store below publishes it (§4), so its
      // initializing rawStore needs no barrier.
      V = H.allocate(&ValueType, stm::config().birthState());
      V->rawStore(0, Val);
      ValueAllocated.fetch_add(1, std::memory_order_relaxed);
    }
    if (Slot < 0) {
      Tx.write(S.Keys, uint32_t(Target), Key + 1);
      // A recycled slot replaces a tombstoned entry with a live one:
      // the resident-entry count is unchanged, so no Meta bump.
      if (!RecycledSlot)
        Tx.write(S.Meta, 0, Tx.read(S.Meta, 0) + 1);
    }
    Tx.writeRef(S.Vals, uint32_t(Target), V);
    logRedo(Tx, Shard, WalOp::Put, Key, Val);
  });
  if (Harvested) {
    if (R == OpStatus::Ok && UsedRecycled)
      ValueRecycled.fetch_add(1, std::memory_order_relaxed);
    else // Unused (overwrite path or shed): park it again, slot intact.
      pushRetired(Shard, Recycled.V, Recycled.Slot);
  }
  return R;
}

bool Store::insert(Word Key, Word Val) {
  return insert(Key, Val, OpBudget{}) == OpStatus::Ok;
}

OpStatus Store::multiPut(const Word *Keys, const Word *Vals, size_t N,
                         OpStatus *PerKey, const OpBudget &B) {
  Scratch<uint64_t> Hashes(N);
  locate(Keys, N, Hashes.data());
  OpStatus St = OpStatus::Ok;
  return runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::Ok;
    for (size_t I = 0; I < N; ++I) {
      assert(Vals[I] != Tombstone && "Tombstone is reserved");
      uint32_t Shard = shardOfHash(Hashes[I]);
      ShardRep &S = Reps[Shard];
      int FirstFree = -1;
      int Slot = findSlotTxn(Tx, S, Keys[I], Hashes[I], &FirstFree);
      if (Slot >= 0) {
        Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
        if (V) {
          // Present (or written earlier in this very batch — eager
          // writes land in place, so the probe read our own insert):
          // overwrite.
          Tx.write(V, 0, Vals[I]);
          logRedo(Tx, Shard, WalOp::Put, Keys[I], Vals[I]);
          PerKey[I] = OpStatus::Ok;
          continue;
        }
        // Erased key: resurrect by relinking a fresh record below.
      } else if (FirstFree < 0) {
        // No retire-pool harvest on the batch path (see Store.h): the
        // caller retries this key through the single insert.
        PerKey[I] = OpStatus::Full;
        continue;
      }
      uint32_t Target = uint32_t(Slot >= 0 ? Slot : FirstFree);
      Object *V = H.allocate(&ValueType, stm::config().birthState());
      V->rawStore(0, Vals[I]);
      ValueAllocated.fetch_add(1, std::memory_order_relaxed);
      if (Slot < 0) {
        Tx.write(S.Keys, Target, Keys[I] + 1);
        Tx.write(S.Meta, 0, Tx.read(S.Meta, 0) + 1);
      }
      Tx.writeRef(S.Vals, Target, V);
      logRedo(Tx, Shard, WalOp::Put, Keys[I], Vals[I]);
      PerKey[I] = OpStatus::Ok;
    }
  });
}

OpStatus Store::erase(Word Key, const OpBudget &B) {
  const uint64_t Hash = hashKey(Key);
  uint32_t Shard = shardOfHash(Hash);
  ShardRep &S = Reps[Shard];
  OpStatus St = OpStatus::Ok;
  return runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::NotFound;
    int Slot = findSlotTxn(Tx, S, Key, Hash, nullptr);
    if (Slot < 0)
      return;
    Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
    if (!V)
      return; // Already erased.
    // Unlink the record instead of tombstoning its value in place: it
    // becomes unreachable from the index at commit and parks in the
    // shard's retire pool for epoch-gated recycling. The park runs
    // post-commit (discarded on abort), when the retirement horizon —
    // current epoch and stable snapshot ticket — is final.
    Tx.writeRef(S.Vals, uint32_t(Slot), nullptr);
    Tx.onCommit([this, Shard, V, Slot = uint32_t(Slot)] {
      ValueRetired.fetch_add(1, std::memory_order_relaxed);
      pushRetired(Shard, V, Slot);
    });
    logRedo(Tx, Shard, WalOp::Erase, Key, 0);
    St = OpStatus::Ok;
  });
}

bool Store::erase(Word Key) {
  return erase(Key, OpBudget{}) == OpStatus::Ok;
}

OpStatus Store::cas(Word Key, Word Expected, Word Desired,
                    const OpBudget &B) {
  assert(Desired != Tombstone && "Tombstone is reserved");
  const uint64_t Hash = hashKey(Key);
  const uint32_t Shard = shardOfHash(Hash);
  ShardRep &S = Reps[Shard];
  OpStatus St = OpStatus::Ok;
  return runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::NotFound;
    int Slot = findSlotTxn(Tx, S, Key, Hash, nullptr);
    if (Slot < 0)
      return;
    Object *V = Tx.readRef(S.Vals, uint32_t(Slot));
    if (!V)
      return; // Erased.
    Word Cur = Tx.read(V, 0);
    if (Cur == Tombstone)
      return;
    if (Cur != Expected) {
      St = OpStatus::Mismatch;
      return;
    }
    Tx.write(V, 0, Desired);
    logRedo(Tx, Shard, WalOp::Put, Key, Desired);
    St = OpStatus::Ok;
  });
}

bool Store::cas(Word Key, Word Expected, Word Desired) {
  return cas(Key, Expected, Desired, OpBudget{}) == OpStatus::Ok;
}

size_t Store::readLocated(stm::Txn &Tx, const Word *Keys,
                          const uint64_t *Hashes, size_t N, Word *Out) const {
  size_t Hits = 0;
  for (size_t I = 0; I < N; ++I) {
    const ShardRep &S = Reps[shardOfHash(Hashes[I])];
    int Slot = findSlotTxn(Tx, S, Keys[I], Hashes[I], nullptr);
    Object *V = Slot < 0 ? nullptr : Tx.readRef(S.Vals, uint32_t(Slot));
    // Missing or erased keys read as Tombstone.
    Out[I] = V ? Tx.read(V, 0) : Tombstone;
    Hits += Out[I] != Tombstone;
  }
  return Hits;
}

OpStatus Store::multiGet(const Word *Keys, size_t N, Word *Out,
                         const OpBudget &B, size_t *Found) const {
  Scratch<uint64_t> Hashes(N);
  locate(Keys, N, Hashes.data());
  size_t Hits = 0;
  OpStatus St = OpStatus::Ok;
  OpStatus R = runBudgeted(B, St, [&](stm::Txn &Tx) {
    Hits = readLocated(Tx, Keys, Hashes.data(), N, Out);
  });
  if (Found)
    *Found = R == OpStatus::Ok ? Hits : 0;
  return R;
}

size_t Store::multiGet(const Word *Keys, size_t N, Word *Out) const {
  size_t Found = 0;
  multiGet(Keys, N, Out, OpBudget{}, &Found);
  return Found;
}

//===----------------------------------------------------------------------===
// Snapshot plane.
//===----------------------------------------------------------------------===

size_t Store::snapshotMultiGet(const Word *Keys, size_t N, Word *Out) const {
  Scratch<uint64_t> Hashes(N);
  locate(Keys, N, Hashes.data());
  size_t Hits = 0;
  // Read-only snapshot region: the probe and the value loads all resolve
  // against the pinned epoch's version records. The body cannot conflict
  // (no writes, no validation), so it executes exactly once.
  stm::Txn::runSnapshot([&] {
    Hits = readLocated(stm::Txn::forThisThread(), Keys, Hashes.data(), N, Out);
  });
  return Hits;
}

uint64_t Store::snapshotScan(
    const std::function<void(Word, Word)> &Visit) const {
  uint64_t Epoch = 0;
  // One snapshot region over the whole store: every slot of every shard
  // is read against the same pinned epoch, so the visited set is exactly
  // the commit-order prefix with ticket <= Epoch — the property the
  // checkpoint barrier LSN depends on. Read-only, so the body runs once.
  stm::Txn::runSnapshot([&] {
    stm::Txn &Tx = stm::Txn::forThisThread();
    Epoch = Tx.snapshotEpoch();
    for (const ShardRep &S : Reps) {
      for (uint32_t I = 0; I < Capacity; ++I) {
        Word K = Tx.read(S.Keys, I);
        if (K == 0)
          continue; // Never-used slot.
        Object *V = Tx.readRef(S.Vals, I);
        Word Val = V ? Tx.read(V, 0) : Tombstone;
        // Erased keys (unlinked record, or an in-place Tombstone) are
        // reported as Tombstone: the checkpoint must overwrite whatever
        // baseline a recovering store was seeded with.
        Visit(K - 1, Val);
      }
    }
  });
  return Epoch;
}

bool Store::snapshotGet(Word Key, Word &Out) const {
  Word V = Tombstone;
  snapshotMultiGet(&Key, 1, &V);
  if (V == Tombstone)
    return false;
  Out = V;
  return true;
}

OpStatus Store::readModifyWrite(
    const Word *Keys, size_t N,
    const std::function<void(Word *Vals, size_t N)> &Mutate,
    const OpBudget &B) {
  Scratch<uint64_t> Hashes(N);
  Scratch<Word> Buf(N);
  Scratch<rt::Object *> Objs(N);
  locate(Keys, N, Hashes.data());
  OpStatus St = OpStatus::Ok;
  return runBudgeted(B, St, [&](stm::Txn &Tx) {
    St = OpStatus::NotFound;
    for (size_t I = 0; I < N; ++I) {
      const ShardRep &S = Reps[shardOfHash(Hashes[I])];
      int Slot = findSlotTxn(Tx, S, Keys[I], Hashes[I], nullptr);
      if (Slot < 0)
        return;
      Objs[I] = Tx.readRef(S.Vals, uint32_t(Slot));
      if (!Objs[I])
        return; // Erased.
      Buf[I] = Tx.read(Objs[I], 0);
      if (Buf[I] == Tombstone)
        return;
    }
    Mutate(Buf.data(), N);
    for (size_t I = 0; I < N; ++I) {
      assert(Buf[I] != Tombstone && "Tombstone is reserved");
      Tx.write(Objs[I], 0, Buf[I]);
      logRedo(Tx, shardOfHash(Hashes[I]), WalOp::Put, Keys[I], Buf[I]);
    }
    St = OpStatus::Ok;
  });
}

bool Store::readModifyWrite(
    const Word *Keys, size_t N,
    const std::function<void(Word *Vals, size_t N)> &Mutate) {
  return readModifyWrite(Keys, N, Mutate, OpBudget{}) == OpStatus::Ok;
}

OpStatus Store::rmwAdd(const Word *Keys, size_t N, Word Delta,
                       const OpBudget &B) {
  return readModifyWrite(
      Keys, N,
      [Delta](Word *Vals, size_t Count) {
        for (size_t I = 0; I < Count; ++I)
          Vals[I] += Delta;
      },
      B);
}

bool Store::rmwAdd(const Word *Keys, size_t N, Word Delta) {
  return rmwAdd(Keys, N, Delta, OpBudget{}) == OpStatus::Ok;
}

//===----------------------------------------------------------------------===
// Introspection.
//===----------------------------------------------------------------------===

uint64_t Store::size() const {
  uint64_t Sum = 0;
  for (const ShardRep &S : Reps)
    Sum += stm::ntRead(S.Meta, 0);
  return Sum;
}

rt::Object *Store::valueObjectFor(Word Key) const {
  const ShardRep &S = Reps[shardOf(Key)];
  const uint32_t Mask = Capacity - 1;
  uint32_t I = probeStart(Key, Capacity);
  for (uint32_t N = 0; N < Capacity; ++N, I = (I + 1) & Mask) {
    Word K = stm::ntRead(S.Keys, I);
    if (K == 0)
      return nullptr;
    if (K == Key + 1)
      return Object::fromWord(stm::ntRead(S.Vals, I));
  }
  return nullptr;
}
