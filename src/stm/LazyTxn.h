//===- stm/LazyTxn.h - Lazy-versioning transaction -------------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lazy-versioning STM in the style of the systems the paper contrasts
/// with its eager substrate (§2.3: Harris/Fraser, DSTM, ASTM, Fraser's
/// OSTM). "Lazy-versioning STM buffers transactional updates privately and
/// then writes the buffered updates back to shared memory lazily when the
/// transaction commits." The window between the commit point and the last
/// buffered write-back is exactly the §2.3 memory-inconsistency window; the
/// BeforeWriteback hooks let the Figure 6 litmus tests stand inside it.
///
/// The write buffer granularity follows Config::LogGranularitySlots: with a
/// granule of 2 slots, a first write to either slot of an aligned pair
/// snapshots both, reproducing the §2.4 granular anomalies (GLU and GIR).
///
/// Nesting is flattened (the paper's nesting features live in the eager
/// system, which is the contribution; this class is a baseline).
///
//===----------------------------------------------------------------------===//

#ifndef SATM_STM_LAZYTXN_H
#define SATM_STM_LAZYTXN_H

#include "rt/Object.h"
#include "stm/Config.h"
#include "stm/Quiesce.h"
#include "stm/Stats.h"
#include "stm/Txn.h"

#include <unordered_map>
#include <vector>

namespace satm {
namespace stm {

/// Per-thread lazy transaction descriptor.
class alignas(8) LazyTxn {
public:
  /// Largest supported buffer granule, in slots.
  static constexpr uint32_t MaxGranule = 4;

  static LazyTxn &forThisThread();

  bool isActive() const { return Active; }

  /// Executes \p Body atomically under lazy versioning. Nested calls are
  /// flattened into the enclosing transaction.
  /// \returns false iff the region was explicitly aborted via userAbort().
  template <typename F> static bool run(F &&Body) {
    LazyTxn &T = forThisThread();
    if (T.Active) {
      Body();
      return true;
    }
    Backoff RetryBackoff;
    for (;;) {
      T.begin();
      try {
        T.injectOpenFault();
        Body();
        if (T.tryCommit())
          return true;
        // tryCommit accounted the abort itself — it knows which phase
        // (commit-time acquire vs read validation) failed.
      } catch (RollbackSignal &S) {
        T.rollback();
        if (S.Kind == RollbackSignal::UserAbort) {
          // Histogram only: the lazy driver has never counted an explicit
          // user abort in TxnAborts.
          noteAbortReason(AbortReason::UserAbort);
          return false;
        }
        if (S.Kind == RollbackSignal::UserRetry)
          noteUserRetry();
        else
          noteTxnAbort(S.Reason);
      } catch (...) {
        T.rollback(); // Foreign exception: abort cleanly, then propagate.
        noteTxnAbort(AbortReason::UserAbort);
        throw;
      }
      RetryBackoff.pause();
    }
  }

  /// Transactional load: buffered value if this transaction already wrote
  /// the enclosing granule (possibly stale for its neighbors — the §2.4
  /// granular inconsistent read), otherwise an optimistic versioned read.
  Word read(rt::Object *O, uint32_t Slot);

  /// Transactional store: buffers the value; memory is untouched until the
  /// post-commit write-back.
  void write(rt::Object *O, uint32_t Slot, Word V);

  rt::Object *readRef(rt::Object *O, uint32_t Slot) {
    return rt::Object::fromWord(read(O, Slot));
  }
  void writeRef(rt::Object *O, uint32_t Slot, rt::Object *Referee) {
    write(O, Slot, rt::Object::toWord(Referee));
  }

  [[noreturn]] void userRetry();
  [[noreturn]] void userAbort();
  [[noreturn]] void abortRestart();

  size_t readSetSize() const { return ReadSet.size(); }
  size_t writeBufferSize() const { return Buffer.size(); }

private:
  LazyTxn() = default;

  struct ReadEntry {
    std::atomic<Word> *Rec;
    Word Observed;
  };
  struct BufferEntry {
    rt::Object *Obj;
    uint32_t Base;  ///< First slot of the granule.
    uint32_t Count; ///< Slots covered (1..MaxGranule).
    Word Values[MaxGranule];
  };
  struct KeyHash {
    size_t operator()(const std::pair<rt::Object *, uint32_t> &K) const {
      return std::hash<void *>()(K.first) * 31 + K.second;
    }
  };

  void begin();
  bool tryCommit();
  void rollback();
  void reset();
  /// FaultSite::LazyOpen injection; throws a FaultInjected conflict when
  /// it fires (out of line so this header needs no FaultInjector include).
  void injectOpenFault();
  [[noreturn]] void conflictAbort(AbortReason Reason);
  BufferEntry &findOrCreateEntry(rt::Object *O, uint32_t Slot);
  bool validateReadSet(
      const std::unordered_map<std::atomic<Word> *, Word> &Held) const;
  void logRead(std::atomic<Word> &Rec, Word Observed);

  std::vector<ReadEntry> ReadSet;
  std::vector<BufferEntry> Buffer; ///< Insertion order = write-back order.
  std::unordered_map<std::pair<rt::Object *, uint32_t>, size_t, KeyHash>
      BufferIndex;
  /// Commit-time (object, version node) scratch, kept across commits so
  /// its capacity is reused (see Txn::PubNodes).
  std::vector<std::pair<rt::Object *, snap::VersionNode *>> PubNodes;
  bool Active = false;
  /// In-flight op counts, folded into the stats block once per
  /// transaction end (reset) — see the eager Txn's fields of the same
  /// name for why these are plain, not RelaxedCounter cells.
  uint64_t PendingReads = 0;
  uint64_t PendingWrites = 0;
  Quiescence::Slot *QSlot = nullptr;
};

/// Convenience free function for lazy atomic regions.
template <typename F> bool atomicallyLazy(F &&Body) {
  return LazyTxn::run(std::forward<F>(Body));
}

} // namespace stm
} // namespace satm

#endif // SATM_STM_LAZYTXN_H
