//===- stm/LazyTxn.cpp - Lazy-versioning transaction ---------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "stm/LazyTxn.h"
#include "stm/Dea.h"
#include "stm/Snapshot.h"
#include "support/Backoff.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <utility>

using namespace satm;
using namespace satm::stm;
using rt::Object;

LazyTxn &LazyTxn::forThisThread() {
  thread_local LazyTxn T;
  return T;
}

void LazyTxn::begin() {
  assert(!Active && "begin() inside an active lazy transaction");
  Active = true;
  if (!QSlot)
    QSlot = &Quiescence::slotForThisThread();
  uint64_t Now = Quiescence::currentEpoch();
  QSlot->ValidatedAt.store(Now, std::memory_order_relaxed);
  if (config().IrrevocableAfterAborts == 0) {
    QSlot->ActiveSince.store(Now, std::memory_order_release);
  } else {
    // Same Dekker handshake with the serial gate as the eager Txn::begin:
    // lazy transactions share the quiescence registry, so the eager serial
    // mode drains them too. A lazy transaction never owns the gate itself
    // (Self = 0).
    for (;;) {
      QSlot->ActiveSince.store(Now, std::memory_order_seq_cst);
      if (!Quiescence::serialGateBlocks(0))
        break;
      QSlot->ActiveSince.store(0, std::memory_order_release);
      Quiescence::serialGateWait(0);
      Now = Quiescence::currentEpoch();
      QSlot->ValidatedAt.store(Now, std::memory_order_relaxed);
    }
  }
  traceEvent(TraceKind::TxnBegin);
}

void LazyTxn::injectOpenFault() {
  if (faultPoint(FaultSite::LazyOpen)) {
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::LazyOpen));
    conflictAbort(AbortReason::FaultInjected);
  }
}

void LazyTxn::logRead(std::atomic<Word> &Rec, Word Observed) {
  if (ReadSet.empty() || ReadSet.back().Rec != &Rec ||
      ReadSet.back().Observed != Observed)
    ReadSet.push_back({&Rec, Observed});
}

LazyTxn::BufferEntry &LazyTxn::findOrCreateEntry(Object *O, uint32_t Slot) {
  uint32_t G = config().LogGranularitySlots;
  assert(G >= 1 && G <= MaxGranule && "unsupported buffer granularity");
  uint32_t Base = (Slot / G) * G;
  auto Key = std::make_pair(O, Base);
  auto It = BufferIndex.find(Key);
  if (It != BufferIndex.end())
    return Buffer[It->second];

  BufferEntry Entry;
  Entry.Obj = O;
  Entry.Base = Base;
  Entry.Count = std::min(G, O->slotCount() - Base);
  // Coarse granule: snapshot every covered slot so the write-back can
  // rewrite the whole granule (§2.4). The snapshot is a transactional read
  // of the object, so it participates in validation like any read.
  if (Entry.Count > 1) {
    std::atomic<Word> &Rec = O->txRecord();
    Backoff B;
    for (;;) {
      Word W = Rec.load(std::memory_order_acquire);
      if (TxRecord::isPrivate(W)) {
        for (uint32_t I = 0; I < Entry.Count; ++I)
          Entry.Values[I] = O->rawLoad(Entry.Base + I);
        break;
      }
      if (TxRecord::isShared(W)) {
        for (uint32_t I = 0; I < Entry.Count; ++I)
          Entry.Values[I] = O->rawLoad(Entry.Base + I,
                                       std::memory_order_acquire);
        if (Rec.load(std::memory_order_acquire) == W) {
          logRead(Rec, W);
          break;
        }
        continue;
      }
      schedYield(YieldPoint::TxnContention, &Rec, W);
      B.pause();
    }
  } else {
    Entry.Values[0] = 0; // Single-slot granule: fully overwritten below.
  }
  BufferIndex.emplace(Key, Buffer.size());
  Buffer.push_back(Entry);
  return Buffer.back();
}

Word LazyTxn::read(Object *O, uint32_t Slot) {
  assert(Active && "transactional read outside a transaction");
  if (config().CollectStats)
    ++PendingReads; // Folded into the stats block at transaction end.
  uint32_t G = config().LogGranularitySlots;
  uint32_t Base = (Slot / G) * G;
  auto It = BufferIndex.find(std::make_pair(O, Base));
  if (It != BufferIndex.end()) {
    const BufferEntry &E = Buffer[It->second];
    if (Slot - E.Base < E.Count)
      return E.Values[Slot - E.Base];
  }
  std::atomic<Word> &Rec = O->txRecord();
  Backoff B;
  uint32_t Pauses = 0;
  for (;;) {
    Word W = Rec.load(std::memory_order_acquire);
    if (TxRecord::isPrivate(W))
      return O->rawLoad(Slot);
    if (TxRecord::isShared(W)) {
      Word V = O->rawLoad(Slot, std::memory_order_acquire);
      if (Rec.load(std::memory_order_acquire) == W) {
        logRead(Rec, W);
        return V;
      }
      continue;
    }
    // Exclusive (a committer writing back) or Exclusive-anonymous (a
    // non-transactional writer): wait, then abort self past the limit.
    schedYield(YieldPoint::TxnContention, &Rec, W);
    if (++Pauses > config().ConflictPauseLimit)
      conflictAbort(giveUpReason(/*IsRead=*/true, W,
                                 /*BudgetExhausted=*/true));
    B.pause();
  }
}

void LazyTxn::write(Object *O, uint32_t Slot, Word V) {
  assert(Active && "transactional write outside a transaction");
  if (config().CollectStats)
    ++PendingWrites; // Folded into the stats block at transaction end.
  BufferEntry &E = findOrCreateEntry(O, Slot);
  assert(Slot >= E.Base && Slot - E.Base < E.Count && "granule mismatch");
  E.Values[Slot - E.Base] = V;
}

bool LazyTxn::tryCommit() {
  assert(Active && "commit outside a transaction");
  if (faultPoint(FaultSite::LazyCommit)) {
    // Injected commit failure, before any lock is taken: plain rollback.
    traceEvent(TraceKind::FaultFired, uint8_t(FaultSite::LazyCommit));
    rollback();
    noteTxnAbort(AbortReason::FaultInjected);
    return false;
  }
  // Phase 1: acquire every buffered object's record (commit-time locking).
  std::unordered_map<std::atomic<Word> *, Word> Held; // Rec -> prior version
  auto ReleaseAll = [&Held] {
    for (auto &[Rec, Prior] : Held)
      TxRecord::releaseExclusive(*Rec, Prior);
    Held.clear();
  };
  for (const BufferEntry &E : Buffer) {
    std::atomic<Word> &Rec = E.Obj->txRecord();
    Word W = Rec.load(std::memory_order_acquire);
    if (TxRecord::isPrivate(W))
      continue; // Private objects need no lock; written back directly.
    if (Held.count(&Rec))
      continue;
    Backoff B;
    uint32_t Pauses = 0;
    for (;;) {
      if (TxRecord::isShared(W)) {
        Word Observed;
        if (TxRecord::acquireExclusive(Rec, reinterpret_cast<Txn *>(this), W,
                                       Observed)) {
          Held.emplace(&Rec, TxRecord::version(W));
          // Snapshot plane: first-ever acquire installs the epoch-0 base
          // version. Memory is still clean here (writes are buffered), so
          // the captured values are the committed pre-transaction state.
          if (config().SnapshotEnabled && !snap::ensureBaseNode(E.Obj)) {
            ReleaseAll();
            rollback();
            noteTxnAbort(AbortReason::FaultInjected);
            return false;
          }
          break;
        }
        W = Observed;
        continue;
      }
      schedYield(YieldPoint::LazyCommitAcquire, &Rec, W);
      if (++Pauses > config().ConflictPauseLimit) {
        ReleaseAll(); // Deadlock avoidance among committers.
        rollback();
        noteTxnAbort(giveUpReason(/*IsRead=*/false, W,
                                  /*BudgetExhausted=*/true));
        return false;
      }
      B.pause();
      W = Rec.load(std::memory_order_acquire);
    }
  }

  // Phase 2: validate the read set.
  uint64_t Now = Quiescence::currentEpoch();
  if (!validateReadSet(Held)) {
    ReleaseAll();
    rollback();
    noteTxnAbort(AbortReason::ReadValidation);
    return false;
  }
  QSlot->ValidatedAt.store(Now, std::memory_order_release);
  if (TxnHooks *H = config().Hooks)
    if (H->AfterValidate)
      H->AfterValidate(this);

  // Snapshot-plane publication, part 1: allocate the version nodes while
  // the transaction can still abort (an injected allocation failure past
  // the commit point could not roll back).
  PubNodes.clear();
  if (config().SnapshotEnabled && !Held.empty()) {
    bool AllocFailed = false;
    for (auto &[Rec, Prior] : Held) {
      (void)Prior;
      Object *O = reinterpret_cast<Object *>(Rec); // Record = object header.
      snap::VersionNode *N = snap::allocateNode(O);
      if (!N) {
        AllocFailed = true;
        break;
      }
      PubNodes.push_back({O, N});
    }
    if (AllocFailed) {
      for (auto &P : PubNodes)
        snap::freeNode(P.second);
      ReleaseAll();
      rollback();
      noteTxnAbort(AbortReason::FaultInjected);
      return false;
    }
  }

  // Commit point reached. Everything after this line is the §2.3 window:
  // the transaction is logically done but memory does not yet reflect it.
  uint64_t CommitSeq = Quiescence::nextCommitSeq();
  QSlot->WritebackSeq.store(CommitSeq, std::memory_order_release);
  if (TxnHooks *H = config().Hooks)
    if (H->BeforeWriteback)
      H->BeforeWriteback(*this);
  schedYield(YieldPoint::LazyCommitPoint);

  // Phase 3: write back "one at a time in no particular order" (§2.3) —
  // buffer insertion order, or reverse when configured (Figure 4(a)).
  bool Dea = config().DeaEnabled;
  std::vector<const BufferEntry *> Order;
  Order.reserve(Buffer.size());
  for (const BufferEntry &E : Buffer)
    Order.push_back(&E);
  if (config().ReverseWriteback)
    std::reverse(Order.begin(), Order.end());
  for (const BufferEntry *EP : Order) {
    const BufferEntry &E = *EP;
    schedYield(YieldPoint::LazyWritebackEntry);
    if (TxnHooks *H = config().Hooks)
      if (H->BeforeWritebackEntry)
        H->BeforeWritebackEntry(*this, E.Obj, E.Base);
    for (uint32_t I = 0; I < E.Count; ++I) {
      Word V = E.Values[I];
      if (Dea && V != 0 && E.Obj->isRefSlot(E.Base + I) &&
          !TxRecord::isPrivate(
              E.Obj->txRecord().load(std::memory_order_acquire)))
        publishObject(Object::fromWord(V));
      E.Obj->rawStore(E.Base + I, V, std::memory_order_release);
    }
  }

  // Snapshot-plane publication, part 2: with every buffered value written
  // back and the records still held, the in-memory state *is* the
  // committed state — capture it, then link under a fresh publish ticket.
  // Everything from beginPublish to finishPublish is plain stores and
  // frees (the deadlock-freedom invariant of the in-order stable advance).
  uint64_t PubTicket = 0;
  if (!PubNodes.empty()) {
    for (auto &P : PubNodes)
      snap::fillNode(P.first, P.second);
    PubTicket = Quiescence::beginPublish();
    for (auto &P : PubNodes)
      snap::publishNode(P.first, P.second, PubTicket);
    statsForThisThread().SnapshotPublishes++;
    traceEvent(TraceKind::SnapshotPublish,
               uint8_t(PubNodes.size() < 255 ? PubNodes.size() : 255));
  }

  // Phase 4: release the records (version bump) and finish.
  ReleaseAll();
  QSlot->WritebackSeq.store(0, std::memory_order_release);
  if (PubTicket)
    Quiescence::finishPublish(PubTicket);
  QSlot->ActiveSince.store(0, std::memory_order_release);
  statsForThisThread().TxnCommits++;
  traceEvent(TraceKind::TxnCommit);
  if (config().QuiesceOnCommit)
    Quiescence::waitForPriorWritebacks(CommitSeq, QSlot);
  reset();
  return true;
}

bool LazyTxn::validateReadSet(
    const std::unordered_map<std::atomic<Word> *, Word> &Held) const {
  for (const ReadEntry &E : ReadSet) {
    Word W = E.Rec->load(std::memory_order_acquire);
    if (W == E.Observed)
      continue;
    if (TxRecord::isExclusive(W) &&
        TxRecord::owner(W) == reinterpret_cast<const Txn *>(this)) {
      auto It = Held.find(E.Rec);
      if (It != Held.end() && TxRecord::makeShared(It->second) == E.Observed)
        continue;
    }
    return false;
  }
  return true;
}

void LazyTxn::rollback() {
  QSlot->ActiveSince.store(0, std::memory_order_release);
  reset();
}

void LazyTxn::reset() {
  if (PendingReads | PendingWrites) {
    detail::TlsCounters &S = statsForThisThread();
    S.TxnReads += PendingReads;
    S.TxnWrites += PendingWrites;
    PendingReads = PendingWrites = 0;
  }
  ReadSet.clear();
  Buffer.clear();
  BufferIndex.clear();
  Active = false;
}

void LazyTxn::userRetry() {
  assert(Active && "retry outside a transaction");
  throw RollbackSignal{RollbackSignal::UserRetry, 0, AbortReason::UserRetry};
}

void LazyTxn::userAbort() {
  assert(Active && "abort outside a transaction");
  throw RollbackSignal{RollbackSignal::UserAbort, 0, AbortReason::UserAbort};
}

void LazyTxn::abortRestart() {
  assert(Active && "abortRestart outside a transaction");
  throw RollbackSignal{RollbackSignal::Conflict, 0,
                       AbortReason::ContentionGiveUp};
}

void LazyTxn::conflictAbort(AbortReason Reason) {
  throw RollbackSignal{RollbackSignal::Conflict, 0, Reason};
}
