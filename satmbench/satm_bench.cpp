//===- satmbench/satm_bench.cpp - End-to-end and per-layer SATM benchmark -===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Runs one named workload against the public APIs of kv::Store, kv::Wal /
// kv::Checkpointer and net::Server / net::Client, checks its outputs, and
// prints one JSON record as the last line of standard output. README.md in
// this directory describes the workloads, the metrics and how to read the
// traced run; run.py builds this binary and turns the record into the
// benchmark's result line.
//
//   satm_bench --workload kv-mixed|kv-commit|wire-open --seed N
//              --seconds S [--trace 0|1]
//              [--corrupt ledger|recovery|wire] [--dump-ops PATH]
//
// A run is R repetitions of: set up a fresh store (timed as setup), measure
// for S/R seconds, shut down through a checkpoint, recover into a fresh
// store (timed as recovery), and check. R is the workload's count, at most
// one per second of S. Metrics are medians over the repetitions; set-up and
// recovery pool the run's timed rounds. Every layer is measured from
// outside: the benchmark times the calls it makes and reads the counters
// the layers export. With --trace 1 the benchmark first makes the untraced
// pass (for the tracing overhead), then the traced pass that yields the
// per-layer metrics and writes its spans to
// .bench_out/trace-<workload>-seed<N>.json. kv-mixed's traced run ends with
// a short wire-open slice for the net layer's figures.
//
// A failed output check prints the reason to stderr and exits with status
// 3 before any metric is printed.
//
//===----------------------------------------------------------------------===//

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"
#include "net/Client.h"
#include "net/Codec.h"
#include "net/Server.h"
#include "rt/Heap.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "support/LatencyHistogram.h"
#include "support/Rng.h"
#include "support/Zipf.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <unistd.h>

using namespace satm;
using stm::Word;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

[[noreturn]] void checkFailed(const char *Fmt, ...) {
  std::fprintf(stderr, "satm_bench: CHECK FAILED: ");
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
  std::fprintf(stderr, "\n");
  std::exit(3);
}

[[noreturn]] void fatal(const char *Fmt, ...) {
  std::fprintf(stderr, "satm_bench: ");
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Workloads and their generated op streams.
//===----------------------------------------------------------------------===//

enum class Workload { KvMixed, KvCommit, WireOpen };

constexpr Word InitVal = 1000;
constexpr uint32_t BatchKeys = 8;
constexpr uint32_t StoreShards = 64;
/// Open-loop arrival rate of wire-open: fixed, about a third of the knee
/// that loopback probes of net::Server found, so queueing stays out of the
/// median.
constexpr double WireQps = 10000;
/// Length of the wire-open slice that ends kv-mixed's traced run (shorter
/// when the whole run is).
constexpr double WireSliceSeconds = 4;

struct MixPct {
  unsigned Get, Put, Mget, Rmw, Cas, Snap;
};

struct WorkloadSpec {
  Workload W;
  const char *Name;
  uint64_t Keys;
  bool Zipf;
  MixPct Mix;
  unsigned Clients; ///< Closed-loop client threads (in-process workloads).
  uint64_t StreamOps; ///< Generated ops per client stream (power of two).
  /// Repetitions per run. Many short windows let the median ride out the
  /// shared host's slow spells; kv-commit's shutdown checkpoint of 1 Mi
  /// keys takes seconds, so it gets fewer, longer ones.
  unsigned Reps;
  /// Set-ups and recoveries timed per repetition. Recovery times swing
  /// between a fast and a slow speed in sub-second streaks (15 or 25 ms for
  /// 64 Ki keys, 250 or 400 ms for 1 Mi), so each is timed several times.
  unsigned SetupRounds, RecoveryRounds;
};

const WorkloadSpec Specs[] = {
    {Workload::KvMixed, "kv-mixed", 1u << 16, true, {55, 20, 5, 8, 2, 10}, 2,
     1u << 19, 10, 5, 9},
    {Workload::KvCommit, "kv-commit", 1u << 20, false, {0, 0, 50, 40, 10, 0},
     2, 1u << 18, 3, 1, 7},
    {Workload::WireOpen, "wire-open", 1u << 16, true, {80, 10, 5, 3, 2, 0}, 0,
     0, 10, 5, 9},
};

enum class OpKind : uint8_t { Get, Put, Mget, RmwAdd, Transfer, Cas, Snap };

/// One generated request. Keys live in the stream's key array at KeyOff.
/// Val is the PUT value, the RMW/transfer delta, or the CAS desired value.
struct Op {
  OpKind Kind;
  uint8_t N;
  uint32_t KeyOff;
  Word Val;
};

struct OpStream {
  std::vector<Op> Ops;
  std::vector<Word> Keys;
  std::vector<uint64_t> ArrivalNs; ///< Open loop only: offsets from start.
  const Word *keys(const Op &O) const { return &Keys[O.KeyOff]; }
};

/// kv-mixed's conservation ledger: every key with low bits 1111 (4 Ki of
/// the 64 Ki keys). Only transfer readModifyWrites write these keys, so
/// their sum never changes; reads may touch them like any other key.
bool isLedger(Word K) { return (K & 15) == 15; }
Word toLedger(Word K) { return K | 15; }
Word offLedger(Word K) { return isLedger(K) ? K ^ 1 : K; }

/// Generates \p Count ops for stream \p StreamId. Everything comes from the
/// seed: the same (workload, seed, stream) gives the same bytes.
OpStream generate(const WorkloadSpec &S, uint64_t Seed, unsigned StreamId,
                  size_t Count, double Qps) {
  uint64_t Base = Seed * 0x9e3779b97f4a7c15ull + (StreamId + 1) * 0x632be5ab;
  Rng R(Base);
  std::optional<ZipfKeys> Z;
  std::optional<UniformKeys> U;
  if (S.Zipf)
    Z.emplace(S.Keys, Base ^ 0x5bd1e995u, 0.99);
  else
    U.emplace(S.Keys, Base ^ 0x5bd1e995u);
  auto Key = [&]() -> Word { return Z ? Z->next() : U->next(); };
  auto Distinct = [&](Word A, Word B) {
    // A transfer or RMW names two different keys; a repeated key would
    // make the batch store one slot twice.
    return A != B ? B : (B + 16) % S.Keys;
  };

  OpStream St;
  St.Ops.reserve(Count);
  St.Keys.reserve(Count * 3);
  double ArrivalNs = 0;
  const MixPct &M = S.Mix;
  const bool Mixed = S.W == Workload::KvMixed;
  for (size_t I = 0; I < Count; ++I) {
    Op O{};
    O.KeyOff = uint32_t(St.Keys.size());
    unsigned Roll = unsigned(R.nextBelow(100));
    if (Roll < M.Get) {
      O.Kind = OpKind::Get;
      St.Keys.push_back(Key());
    } else if ((Roll -= M.Get) < M.Put) {
      O.Kind = OpKind::Put;
      St.Keys.push_back(Mixed ? offLedger(Key()) : Key());
      O.Val = R.next() >> 1; // Never Tombstone.
    } else if ((Roll -= M.Put) < M.Mget) {
      O.Kind = OpKind::Mget;
      for (uint32_t Q = 0; Q < BatchKeys; ++Q)
        St.Keys.push_back(Key());
    } else if ((Roll -= M.Mget) < M.Rmw) {
      Word A = Key(), B = Key();
      if (Mixed) {
        O.Kind = OpKind::Transfer;
        A = toLedger(A);
        B = Distinct(A, toLedger(B));
        O.Val = 1 + R.nextBelow(100);
      } else {
        O.Kind = OpKind::RmwAdd;
        B = Distinct(A, B);
        O.Val = 1;
      }
      St.Keys.push_back(A);
      St.Keys.push_back(B);
    } else if ((Roll -= M.Rmw) < M.Cas) {
      O.Kind = OpKind::Cas;
      St.Keys.push_back(Mixed ? offLedger(Key()) : Key());
      O.Val = R.next() >> 1;
    } else {
      O.Kind = OpKind::Snap;
      for (uint32_t Q = 0; Q < BatchKeys; ++Q)
        St.Keys.push_back(Key());
    }
    O.N = uint8_t(St.Keys.size() - O.KeyOff);
    St.Ops.push_back(O);
    if (Qps > 0) {
      // Poisson arrivals: exponential inter-arrival gaps.
      ArrivalNs += -std::log(1.0 - R.nextDouble()) / (Qps * 1e-9);
      St.ArrivalNs.push_back(uint64_t(ArrivalNs));
    }
  }
  return St;
}

/// Serializes a stream field by field (no padding bytes), for the
/// determinism test.
void dumpStream(std::FILE *F, const OpStream &St) {
  auto W64 = [F](uint64_t V) { std::fwrite(&V, 8, 1, F); };
  W64(St.Ops.size());
  for (const Op &O : St.Ops) {
    uint8_t H[2] = {uint8_t(O.Kind), O.N};
    std::fwrite(H, 1, 2, F);
    for (unsigned I = 0; I < O.N; ++I)
      W64(St.keys(O)[I]);
    W64(O.Val);
  }
  for (uint64_t A : St.ArrivalNs)
    W64(A);
}

/// The wire frame for \p O (kv-mixed transfers travel as RMW, snapshot
/// reads as MGET, when the codec is timed over an in-process stream).
net::Frame toFrame(const OpStream &St, const Op &O) {
  net::Frame F;
  const Word *K = St.keys(O);
  F.Count = O.N;
  switch (O.Kind) {
  case OpKind::Get:
    F.Op = net::MsgOp::Get;
    F.Words = 1;
    F.Body[0] = K[0];
    break;
  case OpKind::Put:
    F.Op = net::MsgOp::Put;
    F.Words = 2;
    F.Body[0] = K[0];
    F.Body[1] = O.Val;
    break;
  case OpKind::Mget:
  case OpKind::Snap:
    F.Op = net::MsgOp::MultiGet;
    F.Words = O.N;
    std::copy(K, K + O.N, F.Body);
    break;
  case OpKind::RmwAdd:
  case OpKind::Transfer:
    F.Op = net::MsgOp::Rmw;
    F.Words = O.N + 1u;
    std::copy(K, K + O.N, F.Body);
    F.Body[O.N] = O.Val;
    break;
  case OpKind::Cas:
    F.Op = net::MsgOp::Cas;
    F.Words = 3;
    F.Body[0] = K[0];
    F.Body[1] = InitVal;
    F.Body[2] = O.Val;
    break;
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Tracing: spans around every call the benchmark makes into a layer.
//===----------------------------------------------------------------------===//

enum SpanName : uint8_t {
  SpRequest,
  SpGet,
  SpPut,
  SpMget,
  SpRmw,
  SpCas,
  SpSnap,
  SpWire,
  SpSetup,
  SpPrepopulate,
  SpWalStart,
  SpCkptStart,
  SpServerStart,
  SpServerStop,
  SpCkptStop,
  SpCkptRunOnce,
  SpCkptShutdown,
  SpWalStop,
  SpWalRecover,
  NumSpanNames
};

struct SpanInfo {
  const char *Name;
  const char *Layer;
};

const SpanInfo SpanInfos[NumSpanNames] = {
    {"bench.request", "bench"},
    {"kv.store.get", "kv.store"},
    {"kv.store.put", "kv.store"},
    {"kv.store.multiGet", "kv.store"},
    {"kv.store.readModifyWrite", "kv.store"},
    {"kv.store.cas", "kv.store"},
    {"kv.store.snapshotMultiGet", "kv.store"},
    {"net.request", "net"},
    {"bench.setup", "bench"},
    {"kv.store.prepopulate", "kv.store"},
    {"kv.wal.start", "kv.wal"},
    {"kv.ckpt.start", "kv.ckpt"},
    {"net.server.start", "net"},
    {"net.server.stop", "net"},
    {"kv.ckpt.stop", "kv.ckpt"},
    {"kv.ckpt.runOnce", "kv.ckpt"},
    {"kv.ckpt.writeCheckpoint", "kv.ckpt"},
    {"kv.wal.stop", "kv.wal"},
    {"kv.wal.recover", "kv.wal"},
};

struct Span {
  uint64_t Start, End, Req;
  uint32_t Parent; ///< Index in the same tracer's span list, or NoSpan.
  uint8_t Name;
};
constexpr uint32_t NoSpan = ~0u;

/// One thread's spans. Spans nest on the owning thread; self time is a
/// span's duration minus the time its children cover, accumulated for
/// every span. The first KeepSpans spans are kept for the trace file; the
/// rest only feed the aggregates, so memory stays bounded on long runs.
class Tracer {
public:
  static constexpr size_t KeepSpans = 1u << 16;

  void begin(uint8_t Name, uint64_t Req = 0) {
    Frame &F = Stack[Depth++];
    F.Name = Name;
    F.Start = nowNs();
    F.ChildNs = 0;
    F.Slot = NoSpan;
    if (Kept.size() < KeepSpans) {
      F.Slot = uint32_t(Kept.size());
      Kept.push_back({F.Start, 0, Req,
                      Depth > 1 ? Stack[Depth - 2].Slot : NoSpan, Name});
    } else {
      ++Dropped;
    }
  }

  void end() {
    Frame &F = Stack[--Depth];
    uint64_t End = nowNs();
    uint64_t Dur = End - F.Start;
    account(F.Name, Dur, Dur - std::min(Dur, F.ChildNs));
    if (F.Slot != NoSpan)
      Kept[F.Slot].End = End;
    if (Depth)
      Stack[Depth - 1].ChildNs += Dur;
  }

  /// A span timed elsewhere (a wire request: sent on one thread, matched
  /// on another). It has no children.
  void record(uint8_t Name, uint64_t Req, uint64_t Start, uint64_t End) {
    account(Name, End - Start, End - Start);
    if (Kept.size() < KeepSpans)
      Kept.push_back({Start, End, Req, NoSpan, Name});
    else
      ++Dropped;
  }

  struct Agg {
    uint64_t Count = 0, TotalNs = 0, SelfNs = 0;
    LatencyHistogram Hist;
  };
  Agg Aggs[NumSpanNames];
  std::vector<Span> Kept;
  uint64_t Dropped = 0;

private:
  void account(uint8_t Name, uint64_t Dur, uint64_t Self) {
    Agg &A = Aggs[Name];
    ++A.Count;
    A.TotalNs += Dur;
    A.SelfNs += Self;
    A.Hist.record(Dur);
  }

  struct Frame {
    uint64_t Start, ChildNs;
    uint32_t Slot;
    uint8_t Name;
  };
  Frame Stack[8];
  unsigned Depth = 0;
};

/// RAII span on a nullable tracer (untraced passes pass null).
class SpanScope {
public:
  SpanScope(Tracer *T, uint8_t Name, uint64_t Req = 0) : T(T) {
    if (T)
      T->begin(Name, Req);
  }
  ~SpanScope() {
    if (T)
      T->end();
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
};

//===----------------------------------------------------------------------===//
// Host record and small measurement helpers.
//===----------------------------------------------------------------------===//

/// Runs \p Iters dependent multiply-adds; the result defeats dead-code
/// elimination.
uint64_t spinWork(uint64_t Iters, uint64_t X) {
  for (uint64_t I = 0; I < Iters; ++I)
    X = X * 6364136223846793005ull + 1442695040888963407ull;
  return X;
}

/// N-thread spin parallelism: N times the one-thread time of a fixed spin,
/// divided by the wall time of N threads each doing it at once. N on an
/// idle host; lower when the host cannot give the run its threads.
double spinParallelism(unsigned N) {
  constexpr uint64_t Iters = 20'000'000;
  std::atomic<uint64_t> Sink{0};
  auto Time = [&](unsigned Threads) {
    std::atomic<bool> Go{false};
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < Threads; ++T)
      Ts.emplace_back([&, T] {
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        Sink.fetch_add(spinWork(Iters, T), std::memory_order_relaxed);
      });
    uint64_t T0 = nowNs();
    Go.store(true, std::memory_order_release);
    for (std::thread &T : Ts)
      T.join();
    return double(nowNs() - T0);
  };
  double One = std::min(Time(1), Time(1));
  double Many = std::min(Time(N), Time(N));
  return double(N) * One / Many;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void resetPeakRss() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return double(std::strtoull(Line.c_str() + 6, nullptr, 10)) / 1024.0;
  return 0;
}

/// Nanoseconds per stm::traceTimestamp() tick.
double traceTickNs() {
  uint64_t T0 = stm::traceTimestamp(), N0 = nowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  uint64_t T1 = stm::traceTimestamp(), N1 = nowNs();
  return T1 > T0 ? double(N1 - N0) / double(T1 - T0) : 1.0;
}

/// Sleep until \p At, then yield-spin the last stretch: sleep_for can
/// overshoot by a scheduler tick, which would be charged to the request.
void waitUntilNs(uint64_t At) {
  for (;;) {
    uint64_t Now = nowNs();
    if (Now >= At)
      return;
    uint64_t Slack = At - Now;
    if (Slack > 3'000'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(Slack - 2'000'000));
    else if (Slack > 20'000)
      std::this_thread::yield();
  }
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

//===----------------------------------------------------------------------===//
// One repetition's results.
//===----------------------------------------------------------------------===//

struct RepResult {
  std::vector<double> SetupS, RecoveryS; ///< Every timed round.
  double WindowS = 0, PeakRssMb = 0;
  uint64_t Attempted = 0, Completed = 0, Failed = 0;
  uint64_t Mutations = 0; ///< Acknowledged key-value mutations (whole rep).
  uint64_t DiskBytes = 0; ///< WAL + checkpoint bytes written (whole rep).
  LatencyHistogram Lat;
  stm::StatsCounters Stm;
  kv::WalStats Wal;       ///< Whole rep, shutdown tail included.
  kv::WalStats WalWindow; ///< At the end of the measured window.
  kv::CheckpointStats Ckpt;
  kv::RecoveryStats Rec;
  net::ServerStats Srv;
  uint64_t ValueRecords = 0;
  LatencyHistogram SendLag;
  uint64_t Unmatched = 0;
  std::vector<double> AttemptNs; ///< stm begin -> commit/abort (traced).
  uint64_t TraceDropped = 0;
};

struct Options {
  const WorkloadSpec *Spec = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Reps = 1; ///< The workload's count, at most one per second.
  std::string Corrupt;
  std::string DumpOps;
  std::string OutDir = ".bench_out";
};

net::ServerConfig serverConfig() {
  net::ServerConfig NC;
  NC.IoThreads = 1;
  NC.Workers = 1;
  return NC;
}

kv::StoreConfig storeConfig(const WorkloadSpec &S) {
  kv::StoreConfig KC;
  KC.Shards = StoreShards;
  KC.CapacityPerShard = uint32_t(2 * S.Keys / StoreShards);
  return KC;
}

void prepopulate(kv::Store &S, uint64_t Keys) {
  for (Word K = 0; K < Keys; ++K)
    if (!S.insert(K, InitVal))
      fatal("prepopulate overflow at key %" PRIu64, K);
}

/// Executes one in-process op, spanning each store call. Returns false when
/// the store reports an outcome the workload never expects (a missing key,
/// a full shard); a CAS that loses a race is a valid outcome.
bool execOp(kv::Store &S, const OpStream &St, const Op &O, Tracer *T,
            uint64_t Req, uint64_t &Mutations) {
  const Word *K = St.keys(O);
  switch (O.Kind) {
  case OpKind::Get: {
    Word V = 0;
    SpanScope Sp(T, SpGet, Req);
    return S.get(K[0], V);
  }
  case OpKind::Put: {
    SpanScope Sp(T, SpPut, Req);
    bool Ok = S.put(K[0], O.Val);
    Mutations += Ok;
    return Ok;
  }
  case OpKind::Mget: {
    Word Out[BatchKeys] = {};
    SpanScope Sp(T, SpMget, Req);
    return S.multiGet(K, O.N, Out) == O.N;
  }
  case OpKind::Snap: {
    Word Out[BatchKeys] = {};
    SpanScope Sp(T, SpSnap, Req);
    return S.snapshotMultiGet(K, O.N, Out) == O.N;
  }
  case OpKind::RmwAdd: {
    SpanScope Sp(T, SpRmw, Req);
    bool Ok = S.rmwAdd(K, O.N, O.Val);
    Mutations += Ok ? O.N : 0;
    return Ok;
  }
  case OpKind::Transfer: {
    Word D = O.Val;
    SpanScope Sp(T, SpRmw, Req);
    // No overdraft: balances stay in [0, total], so none ever reads as
    // Tombstone.
    bool Ok = S.readModifyWrite(K, O.N, [D](Word *V, size_t) {
      if (V[0] >= D) {
        V[0] -= D;
        V[1] += D;
      }
    });
    Mutations += Ok ? O.N : 0;
    return Ok;
  }
  case OpKind::Cas: {
    Word Cur = 0;
    bool Found = false;
    {
      SpanScope Sp(T, SpGet, Req);
      Found = S.get(K[0], Cur);
    }
    if (!Found)
      return false;
    SpanScope Sp(T, SpCas, Req);
    Mutations += S.cas(K[0], Cur, O.Val);
    return true;
  }
  }
  return false;
}

/// Compares the recovered store with the live one key for key.
void checkRecovered(const kv::Store &Live, const kv::Store &Rec, uint64_t Keys,
                    const kv::RecoveryStats &RS) {
  if (RS.ApplyFailures || !RS.ReclaimIdentityOk)
    checkFailed("recovery: %" PRIu64 " apply failures, reclaim identity %s",
                RS.ApplyFailures, RS.ReclaimIdentityOk ? "ok" : "violated");
  for (Word K = 0; K < Keys; ++K) {
    Word A = 0, B = 0;
    bool HA = Live.get(K, A), HB = Rec.get(K, B);
    if (HA != HB || A != B)
      checkFailed("recovery: key %" PRIu64 " is %s%" PRIu64
                  " live but %s%" PRIu64 " recovered",
                  K, HA ? "" : "absent/", A, HB ? "" : "absent/", B);
  }
  if (Live.size() != Rec.size())
    checkFailed("recovery: %" PRIu64 " index entries live, %" PRIu64
                " recovered",
                Live.size(), Rec.size());
}

/// The checkpoint images that appeared in a WAL directory, each counted
/// once at its size on disk. The checkpointer keeps two generations, so a
/// scan every few seconds sees every image it publishes.
struct CkptImages {
  std::vector<uint64_t> Seen;
  uint64_t Bytes = 0;

  void scan(const std::string &Dir) {
    for (uint64_t Lsn : kv::ckpt::listCheckpoints(Dir)) {
      if (std::find(Seen.begin(), Seen.end(), Lsn) != Seen.end())
        continue;
      std::error_code EC;
      uint64_t Size = std::filesystem::file_size(
          kv::ckpt::checkpointFile(Dir, Lsn), EC);
      if (EC)
        continue; // Rotated out between the listing and the stat.
      Seen.push_back(Lsn);
      Bytes += Size;
    }
  }
};

/// Nanoseconds per stm trace tick, calibrated once per traced pass.
double TickNs = 1.0;

/// Begin -> commit/abort durations of top-level transaction attempts, from
/// the stm event rings (traced passes only).
void collectAttempts(RepResult &R) {
  std::vector<stm::TraceEntry> Ev = stm::traceDrain();
  R.TraceDropped = stm::traceDropped();
  std::vector<uint64_t> Open;
  for (const stm::TraceEntry &E : Ev) {
    if (E.ThreadId >= Open.size())
      Open.resize(E.ThreadId + 1, 0);
    if (E.Kind == stm::TraceKind::TxnBegin) {
      Open[E.ThreadId] = E.Time;
    } else if ((E.Kind == stm::TraceKind::TxnCommit ||
                E.Kind == stm::TraceKind::TxnAbort) &&
               Open[E.ThreadId]) {
      R.AttemptNs.push_back(double(E.Time - Open[E.ThreadId]) * TickNs);
      Open[E.ThreadId] = 0;
    }
  }
  stm::traceReset();
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

//===----------------------------------------------------------------------===//
// The run.
//===----------------------------------------------------------------------===//

class Bench {
public:
  explicit Bench(const Options &O) : Opt(O), S(*O.Spec) {}

  int main();

private:
  struct Pass {
    std::vector<RepResult> Reps;
    std::vector<Tracer> Tracers; ///< Empty for an untraced pass.
    double Throughput = 0;
  };

  void generateStreams();
  Pass runPass(bool Traced);
  RepResult inProcessRep(unsigned Rep, Tracer *Main,
                         Tracer *Workers);
  RepResult wireRep(unsigned Rep, Tracer *Main, Tracer *Wire);
  void shutdownCheckpointAndRecover(kv::Store &Live, const std::string &Dir,
                                    Tracer *Main, RepResult &R);
  std::string walDir(unsigned Rep) const;
  void codecTiming(double &DecodeNs, double &EncodeNs) const;
  double loopbackRttP50Us() const;
  void netMetrics(const Pass *Wire, std::vector<Metric> &Ms) const;
  std::vector<double> extraSetups() const;
  void writeTrace(const Pass &P, uint64_t PassStartNs) const;

  const Options &Opt;
  const WorkloadSpec &S;
  std::vector<OpStream> Streams; ///< Client streams (wire: one schedule).
  std::vector<size_t> Cursors;
  OpStream Tail; ///< kv-commit: fixed post-window commits (see inProcessRep).
};

std::string Bench::walDir(unsigned Rep) const {
  return Opt.OutDir + "/wal-" + std::to_string(long(::getpid())) + "-" +
         std::to_string(Rep);
}

void Bench::generateStreams() {
  if (S.W == Workload::WireOpen) {
    size_t N = size_t(WireQps * Opt.Seconds * 1.05) + 64;
    Streams.push_back(generate(S, Opt.Seed, 0, N, WireQps));
  } else {
    for (unsigned T = 0; T < S.Clients; ++T)
      Streams.push_back(generate(S, Opt.Seed, T, S.StreamOps, 0));
    if (S.W == Workload::KvCommit)
      Tail = generate(S, Opt.Seed, 100, 12'000, 0);
  }
  Cursors.assign(Streams.size(), 0);
}

/// Times SetupRounds - 1 throwaway set-ups identical to a repetition's
/// (store and prepopulate; for wire-open also server start and connect).
/// A traced run reports no set-up figure and times none.
std::vector<double> Bench::extraSetups() const {
  std::vector<double> Times;
  for (unsigned I = 1; I < (Opt.Trace ? 1 : S.SetupRounds); ++I) {
    stm::Config Cfg;
    Cfg.DeaEnabled = true;
    stm::ScopedConfig SC(Cfg);
    uint64_t T0 = nowNs();
    rt::Heap H;
    kv::Store St(H, storeConfig(S));
    prepopulate(St, S.Keys);
    if (S.W == Workload::WireOpen) {
      net::Server Sv(St, serverConfig());
      net::Client Cl;
      std::string Err;
      if (!Sv.start(&Err) || !Cl.connectTo("127.0.0.1", Sv.port(), &Err))
        fatal("server start: %s", Err.c_str());
      Times.push_back(double(nowNs() - T0) / 1e9);
      Cl.close();
      Sv.stop();
    } else {
      Times.push_back(double(nowNs() - T0) / 1e9);
    }
  }
  return Times;
}

/// Writes the end-of-run checkpoint of \p Live into \p Dir (kv-mixed and
/// wire-open run without a WAL, so this image is all a restart has), then
/// times Wal::recover into a fresh store and checks it equals \p Live.
void Bench::shutdownCheckpointAndRecover(kv::Store &Live,
                                         const std::string &Dir, Tracer *Main,
                                         RepResult &R) {
  if (S.W != Workload::KvCommit) {
    SpanScope Sp(Main, SpCkptShutdown);
    uint64_t T0 = nowNs();
    // The store is quiescent here, so plain reads give a consistent
    // image. (A live scan would need the snapshot plane, which does not
    // order nt-plane PUTs against its epoch; stm/Snapshot.h.)
    kv::ckpt::CheckpointImage Img;
    Img.Lsn = 1;
    Img.Entries.reserve(S.Keys);
    for (Word K = 0; K < S.Keys; ++K) {
      Word V = kv::Store::Tombstone;
      Live.get(K, V);
      Img.Entries.push_back({K, V});
    }
    std::string Err;
    if (!kv::ckpt::writeCheckpoint(Dir, Img, &Err))
      fatal("shutdown checkpoint: %s", Err.c_str());
    R.Ckpt.Written = 1;
    R.Ckpt.LastEntries = Img.Entries.size();
    R.Ckpt.LastLsn = Img.Lsn;
    R.Ckpt.TotalMillis = double(nowNs() - T0) / 1e6;
    CkptImages Images;
    Images.scan(Dir);
    R.DiskBytes += Images.Bytes;
  }

  // Every round recovers the same files; the last store is checked.
  std::optional<rt::Heap> RH;
  std::optional<kv::Store> RS;
  // A traced run reports no recovery figure: one round feeds kv.wal.*.
  for (unsigned Round = 0; Round < (Opt.Trace ? 1 : S.RecoveryRounds);
       ++Round) {
    RS.reset();
    RH.emplace();
    RS.emplace(*RH, storeConfig(S));
    kv::Wal::Config WC;
    WC.Dir = Dir;
    WC.Shards = RS->shards();
    kv::Wal RW(WC);
    uint64_t T0 = nowNs();
    {
      SpanScope Sp(Main, SpWalRecover);
      R.Rec = RW.recover(*RS);
    }
    R.RecoveryS.push_back(double(nowNs() - T0) / 1e9);
    if (R.Rec.ApplyFailures || !R.Rec.ReclaimIdentityOk)
      break; // checkRecovered reports it.
  }
  if (Opt.Corrupt == "recovery") {
    Word V = 0;
    RS->get(1, V);
    RS->put(1, V + 1);
  }
  checkRecovered(Live, *RS, S.Keys, R.Rec);
  // The version table keys raw Object* into both heaps.
  stm::snap::resetTable();
}

RepResult Bench::inProcessRep(unsigned Rep, Tracer *Main,
                              Tracer *Workers) {
  RepResult R;
  const bool Commit = S.W == Workload::KvCommit;
  const std::string Dir = walDir(Rep);
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  R.SetupS = extraSetups();
  // The paper's +DEA strong mode: barriers on, objects born Private.
  stm::Config Cfg;
  Cfg.DeaEnabled = true;
  stm::ScopedConfig SC(Cfg);
  resetPeakRss();

  uint64_t T0 = nowNs();
  if (Main)
    Main->begin(SpSetup);
  rt::Heap H;
  kv::Store St(H, storeConfig(S));
  {
    SpanScope Sp(Main, SpPrepopulate);
    prepopulate(St, S.Keys);
  }
  // Snapshot reads (kv-mixed) and the checkpointer's consistent scan
  // (kv-commit) need the version plane; it goes live after the bulk load.
  stm::Config SnapCfg = Cfg;
  SnapCfg.SnapshotEnabled = true;
  std::optional<stm::ScopedConfig> SnapSC(std::in_place, SnapCfg);
  kv::Wal::Config WC;
  WC.Dir = Dir;
  WC.Shards = St.shards();
  WC.DrainThreads = 1;
  std::optional<kv::Wal> W;
  std::optional<kv::Checkpointer> CP;
  if (Commit) {
    SpanScope Sp(Main, SpWalStart);
    W.emplace(WC);
    W->start();
    St.attachWal(&*W);
  }
  if (Commit) {
    SpanScope Sp(Main, SpCkptStart);
    kv::Checkpointer::Config CC;
    CC.IntervalOps = 250'000;
    CP.emplace(St, *W, CC);
    CP->start();
  }
  if (Main)
    Main->end();
  R.SetupS.push_back(double(nowNs() - T0) / 1e9);

  struct ClientOut {
    uint64_t Ops = 0, Failed = 0, Mutations = 0, EndNs = 0;
    LatencyHistogram Lat;
  };
  std::vector<ClientOut> Out(S.Clients);
  std::atomic<bool> Go{false}, Stop{false};
  stm::statsReset();
  if (Main) {
    stm::traceReset();
    stm::setTraceEnabled(true);
  }
  std::vector<std::thread> Ts;
  for (unsigned C = 0; C < S.Clients; ++C)
    Ts.emplace_back([&, C] {
      Tracer *T = Workers ? &Workers[C] : nullptr;
      const OpStream &Ops = Streams[C];
      const size_t Mask = Ops.Ops.size() - 1;
      size_t I = Cursors[C];
      ClientOut &O = Out[C];
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      const uint64_t ReqBase = uint64_t(C + 1) << 48;
      while (!Stop.load(std::memory_order_relaxed)) {
        const Op &Next = Ops.Ops[I & Mask];
        uint64_t Req = ReqBase | I++;
        uint64_t A = nowNs();
        if (T)
          T->begin(SpRequest, Req);
        bool Ok = execOp(St, Ops, Next, T, Req, O.Mutations);
        if (T)
          T->end();
        O.Lat.record(nowNs() - A);
        ++O.Ops;
        O.Failed += !Ok;
      }
      O.EndNs = nowNs();
      Cursors[C] = I;
    });
  CkptImages Images;
  uint64_t Start = nowNs();
  Go.store(true, std::memory_order_release);
  const uint64_t WinEnd = Start + uint64_t(Opt.Seconds / Opt.Reps * 1e9);
  for (uint64_t Now = Start; Now < WinEnd; Now = nowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<uint64_t>(WinEnd - Now, 100'000'000)));
    if (Commit)
      Images.scan(Dir);
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Ts)
    T.join();
  R.Stm = stm::statsSnapshot();
  uint64_t End = Start;
  for (ClientOut &O : Out) {
    R.Attempted += O.Ops;
    R.Failed += O.Failed;
    R.Mutations += O.Mutations;
    R.Lat += O.Lat;
    End = std::max(End, O.EndNs);
  }
  R.Completed = R.Attempted - R.Failed;
  R.WindowS = double(End - Start) / 1e9;
  R.PeakRssMb = peakRssMb();
  if (Main) {
    stm::setTraceEnabled(false);
    collectAttempts(R);
  }

  if (Commit) {
    // Shutdown: stop the background checkpointer, then two explicit
    // checkpoints around a fixed, seed-generated tail of commits. The
    // second rotates the log down to the records after the first, so the
    // recovery below always scans both tail segments and replays the
    // second on top of a full image, whatever the window's throughput
    // was: recovery_s measures recovery, not the run's luck.
    R.WalWindow = W->stats();
    {
      SpanScope Sp(Main, SpCkptStop);
      CP->stop();
    }
    Images.scan(Dir);
    const size_t Cut = 2'000;
    for (size_t Seg = 0; Seg < 2; ++Seg) {
      std::string Err;
      {
        SpanScope Sp(Main, SpCkptRunOnce);
        if (!CP->runOnce(&Err))
          fatal("checkpoint: %s", Err.c_str());
      }
      Images.scan(Dir);
      for (size_t I = Seg ? Cut : 0; I < (Seg ? Tail.Ops.size() : Cut); ++I)
        if (!execOp(St, Tail, Tail.Ops[I], nullptr, 0, R.Mutations))
          fatal("tail commit %zu failed", I);
    }
    R.Ckpt = CP->stats();
    CP.reset();
    St.attachWal(nullptr);
    {
      SpanScope Sp(Main, SpWalStop);
      W->stop();
    }
    R.Wal = W->stats();
    R.DiskBytes = R.Wal.BytesWritten + Images.Bytes;
    if (Images.Seen.size() != R.Ckpt.Written)
      fatal("saw %zu of %" PRIu64 " checkpoint images", Images.Seen.size(),
            R.Ckpt.Written);
  } else {
    Word Sum = 0;
    for (Word K = 15; K < S.Keys; K += 16) {
      Word V = 0;
      if (!St.get(K, V))
        checkFailed("ledger key %" PRIu64 " missing", K);
      Sum += V;
    }
    if (Opt.Corrupt == "ledger")
      Sum += 1;
    Word Want = InitVal * (S.Keys / 16);
    if (Sum != Want)
      checkFailed("ledger sum %" PRIu64 " != %" PRIu64
                  " (transfers did not conserve)",
                  Sum, Want);
  }
  R.ValueRecords = St.reclaimStats().Allocated;
  // Recovery is a bulk load, like prepopulate: it runs before the version
  // plane goes live, as a restarting service would. (With the plane on,
  // every insert would copy the shard's whole index arrays.)
  SnapSC.reset();
  shutdownCheckpointAndRecover(St, Dir, Main, R);
  std::filesystem::remove_all(Dir);
  return R;
}

/// Whether \p F is a response the server may give to request \p O. Every
/// key exists (prepopulated, never erased), so a GET or MGET must find all
/// of its keys; a CAS may lose to a concurrent writer.
bool validResponse(const Op &O, const net::Frame &F) {
  net::Status St = F.status();
  switch (O.Kind) {
  case OpKind::Get:
    return St == net::Status::Ok && F.Words == 1;
  case OpKind::Mget:
    return St == net::Status::Ok && F.Count == O.N && F.Words == O.N;
  case OpKind::Put:
  case OpKind::RmwAdd:
    return St == net::Status::Ok && F.Words == 0;
  case OpKind::Cas:
    return (St == net::Status::Ok || St == net::Status::Mismatch) &&
           F.Words == 0;
  default:
    return false;
  }
}

bool isShed(const net::Frame &F) {
  return F.status() == net::Status::Overloaded ||
         F.status() == net::Status::DeadlineExceeded;
}

RepResult Bench::wireRep(unsigned Rep, Tracer *Main, Tracer *Wire) {
  RepResult R;
  const std::string Dir = walDir(Rep);
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  R.SetupS = extraSetups();
  stm::Config Cfg;
  Cfg.DeaEnabled = true;
  stm::ScopedConfig SC(Cfg);
  resetPeakRss();

  // This repetition's slice of the run's arrival schedule.
  const OpStream &Sch = Streams[0];
  const uint64_t WinNs = uint64_t(Opt.Seconds / Opt.Reps * 1e9);
  const uint64_t From = Rep * WinNs;
  const size_t B = size_t(
      std::lower_bound(Sch.ArrivalNs.begin(), Sch.ArrivalNs.end(), From) -
      Sch.ArrivalNs.begin());
  const size_t E = size_t(std::lower_bound(Sch.ArrivalNs.begin(),
                                           Sch.ArrivalNs.end(), From + WinNs) -
                          Sch.ArrivalNs.begin());
  const size_t N = E - B;

  uint64_t T0 = nowNs();
  if (Main)
    Main->begin(SpSetup);
  rt::Heap H;
  kv::Store St(H, storeConfig(S));
  {
    SpanScope Sp(Main, SpPrepopulate);
    prepopulate(St, S.Keys);
  }
  std::optional<net::Server> Sv;
  net::Client Cl;
  {
    SpanScope Sp(Main, SpServerStart);
    Sv.emplace(St, serverConfig());
    std::string Err;
    if (!Sv->start(&Err))
      fatal("server start: %s", Err.c_str());
    if (!Cl.connectTo("127.0.0.1", Sv->port(), &Err))
      fatal("connect: %s", Err.c_str());
  }
  if (Main)
    Main->end();
  R.SetupS.push_back(double(nowNs() - T0) / 1e9);

  stm::statsReset();
  if (Main) {
    stm::traceReset();
    stm::setTraceEnabled(true);
  }
  std::vector<uint64_t> SentNs(N, 0), RecvNs(N, 0);
  std::vector<uint8_t> Valid(N, 0);
  std::atomic<uint64_t> Answered{0};
  uint64_t Unmatched = 0, Bad = 0, Shed = 0, Mutations = 0;
  size_t SendFailedAt = N;
  const uint64_t Start = nowNs() + 1'000'000;
  auto Scheduled = [&](size_t I) {
    return Start + Sch.ArrivalNs[B + I] - From;
  };

  std::thread Receiver([&] {
    net::Frame F;
    while (Cl.recv(F)) {
      uint64_t Now = nowNs();
      if (F.Cid == 0 || F.Cid > N || RecvNs[F.Cid - 1]) {
        ++Unmatched; // Unknown or repeated correlation id.
        continue;
      }
      size_t I = size_t(F.Cid - 1);
      RecvNs[I] = Now;
      const Op &O = Sch.Ops[B + I];
      if (isShed(F)) {
        ++Shed;
      } else if (!validResponse(O, F)) {
        ++Bad;
      } else {
        Valid[I] = 1;
        if (O.Kind == OpKind::Put || O.Kind == OpKind::RmwAdd ||
            (O.Kind == OpKind::Cas && F.status() == net::Status::Ok))
          Mutations += O.Kind == OpKind::RmwAdd ? O.N : 1;
      }
      Answered.fetch_add(1, std::memory_order_release);
    }
  });
  std::thread Sender([&] {
    for (size_t I = 0; I < N; ++I) {
      waitUntilNs(Scheduled(I));
      net::Frame F = toFrame(Sch, Sch.Ops[B + I]);
      F.Cid = I + 1;
      SentNs[I] = nowNs();
      if (!Cl.send(F)) {
        SendFailedAt = I;
        return;
      }
    }
  });
  Sender.join();
  const uint64_t Grace = nowNs() + 2'000'000'000;
  while (Answered.load(std::memory_order_acquire) < SendFailedAt &&
         nowNs() < Grace)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  Cl.shutdownConn(); // EOF unblocks the receiver; the fd stays ours.
  Receiver.join();
  Cl.close();
  {
    SpanScope Sp(Main, SpServerStop);
    Sv->stop();
  }
  R.Srv = Sv->stats();
  R.Stm = stm::statsSnapshot();
  R.PeakRssMb = peakRssMb();
  if (Main) {
    stm::setTraceEnabled(false);
    collectAttempts(R);
  }

  if (Opt.Corrupt == "wire")
    ++Unmatched; // As if one request had been answered twice.
  size_t Unanswered = 0;
  for (size_t I = 0; I < N; ++I)
    Unanswered += RecvNs[I] == 0;
  if (SendFailedAt != N || Unanswered || Unmatched || Bad)
    checkFailed("wire: %zu of %zu sent, %zu unanswered, %" PRIu64
                " unmatched or repeated cids, %" PRIu64 " invalid statuses",
                SendFailedAt, N, Unanswered, Unmatched, Bad);

  uint64_t Last = Start + WinNs;
  for (size_t I = 0; I < N; ++I) {
    if (Valid[I])
      R.Lat.record(RecvNs[I] - Scheduled(I));
    R.SendLag.record(SentNs[I] > Scheduled(I) ? SentNs[I] - Scheduled(I) : 0);
    Last = std::max(Last, RecvNs[I]);
    if (Wire)
      Wire->record(SpWire, I + 1, SentNs[I], RecvNs[I]);
  }
  R.Attempted = N;
  R.Failed = Shed;
  R.Completed = N - Shed;
  R.Mutations = Mutations;
  R.Unmatched = Unmatched;
  R.WindowS = double(Last - Start) / 1e9;

  // The same ops in-process, one call at a time, for the store's share of
  // the wire latency (traced passes only).
  if (Main) {
    uint64_t Ignored = 0;
    for (size_t I = B; I < E; ++I)
      execOp(St, Sch, Sch.Ops[I], Main, I + 1, Ignored);
  }
  R.ValueRecords = St.reclaimStats().Allocated;
  shutdownCheckpointAndRecover(St, Dir, Main, R);
  std::filesystem::remove_all(Dir);
  return R;
}

/// Encode and strict decode of the run's own request frames, ns per frame
/// (median of five passes over up to 16 Ki frames).
void Bench::codecTiming(double &DecodeNs, double &EncodeNs) const {
  const OpStream &St = Streams[0];
  const size_t N = std::min<size_t>(St.Ops.size(), 1u << 14);
  std::vector<net::Frame> Frames;
  Frames.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Frames.push_back(toFrame(St, St.Ops[I]));
    Frames.back().Cid = I + 1;
  }
  std::vector<uint8_t> Buf(N * net::MaxFrameBytes);
  std::vector<double> Enc, Dec;
  for (int Pass = 0; Pass < 5; ++Pass) {
    uint64_t T0 = nowNs();
    size_t Len = 0;
    for (const net::Frame &F : Frames)
      Len += net::encodeFrame(Buf.data() + Len, F);
    uint64_t T1 = nowNs();
    net::FrameDecoder D(/*Strict=*/true);
    net::Frame F;
    size_t Got = 0;
    for (size_t Off = 0; Off < Len; Off += 4096) {
      D.feed(Buf.data() + Off, std::min<size_t>(4096, Len - Off));
      while (D.next(F))
        ++Got;
    }
    uint64_t T2 = nowNs();
    if (Got != N || D.failed())
      checkFailed("codec: decoded %zu of %zu encoded frames", Got, N);
    Enc.push_back(double(T1 - T0) / double(N));
    Dec.push_back(double(T2 - T1) / double(N));
  }
  EncodeNs = median(Enc);
  DecodeNs = median(Dec);
}

/// The kernel floor under the wire path: an echo of request-sized frames
/// over a loopback TCP connection at wire-open's arrival rate, median
/// round trip in µs. A control: no SATM code runs on this path.
double Bench::loopbackRttP50Us() const {
  int L = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t AL = sizeof(A);
  if (L < 0 || ::bind(L, reinterpret_cast<sockaddr *>(&A), sizeof(A)) ||
      ::listen(L, 1) ||
      ::getsockname(L, reinterpret_cast<sockaddr *>(&A), &AL))
    fatal("loopback echo: listen failed");
  int C = ::socket(AF_INET, SOCK_STREAM, 0);
  if (C < 0 || ::connect(C, reinterpret_cast<sockaddr *>(&A), sizeof(A)))
    fatal("loopback echo: connect failed");
  int Srv = ::accept(L, nullptr, nullptr);
  if (Srv < 0)
    fatal("loopback echo: accept failed");
  int One = 1;
  ::setsockopt(C, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  ::setsockopt(Srv, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  std::thread Echo([Srv] {
    uint8_t Buf[4096];
    for (;;) {
      ssize_t Got = ::read(Srv, Buf, sizeof(Buf));
      if (Got <= 0)
        return;
      for (ssize_t Off = 0; Off < Got;) {
        ssize_t W = ::write(Srv, Buf + Off, size_t(Got - Off));
        if (W <= 0)
          return;
        Off += W;
      }
    }
  });

  const OpStream &St = Streams[0];
  const size_t N = std::min<size_t>(St.Ops.size(), 3000);
  Rng R(Opt.Seed ^ 0x10a5);
  LatencyHistogram Rtt;
  uint8_t Out[net::MaxFrameBytes], In[net::MaxFrameBytes];
  double AtNs = 0;
  const uint64_t Start = nowNs();
  for (size_t I = 0; I < N; ++I) {
    AtNs += -std::log(1.0 - R.nextDouble()) / (WireQps * 1e-9);
    waitUntilNs(Start + uint64_t(AtNs));
    size_t Len = net::encodeFrame(Out, toFrame(St, St.Ops[I]));
    uint64_t T0 = nowNs();
    if (::write(C, Out, Len) != ssize_t(Len))
      fatal("loopback echo: short write");
    for (size_t Got = 0; Got < Len;) {
      ssize_t Rd = ::read(C, In + Got, Len - Got);
      if (Rd <= 0)
        fatal("loopback echo: read failed");
      Got += size_t(Rd);
    }
    Rtt.record(nowNs() - T0);
  }
  ::shutdown(C, SHUT_WR);
  Echo.join();
  ::close(C);
  ::close(Srv);
  ::close(L);
  return double(Rtt.valueAtPercentile(50)) / 1000.0;
}

/// The net layer's figures. \p Wire is a traced pass of wire repetitions
/// (null on a workload without wire traffic, where the server and client
/// figures read 0); codec and loopback are timed over this run's stream.
void Bench::netMetrics(const Pass *Wire, std::vector<Metric> &Ms) const {
  double Dec = 0, Enc = 0;
  codecTiming(Dec, Enc);
  const double Rtt = loopbackRttP50Us();
  uint64_t Batches = 0, BatchedOps = 0, MaxQ = 0, Unmatched = 0;
  LatencyHistogram SendLag, StoreCalls;
  std::vector<double> WireP50Us;
  if (Wire) {
    for (const RepResult &R : Wire->Reps) {
      Batches += R.Srv.Batches;
      BatchedOps += R.Srv.BatchedOps;
      MaxQ = std::max(MaxQ, R.Srv.MaxQueueDepth);
      Unmatched += R.Unmatched;
      SendLag += R.SendLag;
      WireP50Us.push_back(double(R.Lat.valueAtPercentile(50)) / 1000.0);
    }
    // The same ops replayed in process after each window.
    for (const Tracer &T : Wire->Tracers)
      for (unsigned N = SpGet; N <= SpSnap; ++N)
        StoreCalls += T.Aggs[N].Hist;
  }
  Ms.push_back({"net.codec.decode_ns", "ns", Dec});
  Ms.push_back({"net.codec.encode_ns", "ns", Enc});
  Ms.push_back({"net.server.batch_avg", "ratio",
                ratio(double(BatchedOps), double(Batches))});
  Ms.push_back({"net.server.max_queue_depth", "count", double(MaxQ)});
  Ms.push_back({"net.loopback.rtt_p50_us", "us", Rtt});
  // Wire median not explained by the kernel floor, the codec or the store
  // call itself: the server's handoffs and wakeups.
  const double StoreUs = double(StoreCalls.valueAtPercentile(50)) / 1000.0;
  Ms.push_back({"net.server.unaccounted_p50_us", "us",
                Wire ? median(WireP50Us) - Rtt - (Dec + Enc) / 1000.0 - StoreUs
                     : 0});
  Ms.push_back({"net.client.send_lag_p99_us", "us",
                double(SendLag.valueAtPercentile(99)) / 1000.0});
  Ms.push_back({"net.client.unmatched", "count", double(Unmatched)});
}

Bench::Pass Bench::runPass(bool Traced) {
  Pass P;
  const uint64_t PassStart = nowNs();
  const bool Wire = S.W == Workload::WireOpen;
  if (Traced)
    P.Tracers.resize(Wire ? 2 : 1 + S.Clients);
  Cursors.assign(Streams.size(), 0); // Both passes run the same ops.
  Tracer *Main = Traced ? &P.Tracers[0] : nullptr;
  Tracer *Rest = Traced ? &P.Tracers[1] : nullptr;
  std::vector<double> Thr;
  for (unsigned Rep = 0; Rep < Opt.Reps; ++Rep) {
    P.Reps.push_back(Wire ? wireRep(Rep, Main, Rest)
                          : inProcessRep(Rep, Main, Rest));
    const RepResult &R = P.Reps.back();
    Thr.push_back(ratio(double(R.Completed), R.WindowS));
  }
  P.Throughput = median(Thr);
  if (Traced)
    writeTrace(P, PassStart);
  return P;
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (uint8_t(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// Writes the traced pass's spans and per-span self times, and prints the
/// self-time table to stderr.
void Bench::writeTrace(const Pass &P, uint64_t PassStartNs) const {
  Tracer::Agg Sum[NumSpanNames];
  uint64_t Kept = 0, Dropped = 0;
  for (const Tracer &T : P.Tracers) {
    for (unsigned N = 0; N < NumSpanNames; ++N) {
      Sum[N].Count += T.Aggs[N].Count;
      Sum[N].TotalNs += T.Aggs[N].TotalNs;
      Sum[N].SelfNs += T.Aggs[N].SelfNs;
      Sum[N].Hist += T.Aggs[N].Hist;
    }
    Kept += T.Kept.size();
    Dropped += T.Dropped;
  }
  std::filesystem::create_directories(Opt.OutDir);
  std::string Path = Opt.OutDir + "/trace-" + S.Name + "-seed" +
                     std::to_string(Opt.Seed) + ".json";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    fatal("cannot write %s", Path.c_str());
  std::fprintf(F, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                  ",\n \"self_time\": [",
               S.Name, Opt.Seed);
  std::fprintf(stderr, "%-28s %-9s %10s %12s %12s %10s\n", "span", "layer",
               "count", "total_ms", "self_ms", "p50_ns");
  std::vector<std::pair<std::string, double>> Layers;
  bool First = true;
  for (unsigned N = 0; N < NumSpanNames; ++N) {
    const Tracer::Agg &A = Sum[N];
    if (!A.Count)
      continue;
    double TotalMs = double(A.TotalNs) / 1e6, SelfMs = double(A.SelfNs) / 1e6;
    uint64_t P50 = A.Hist.valueAtPercentile(50);
    std::fprintf(F,
                 "%s\n  {\"span\": \"%s\", \"layer\": \"%s\", \"count\": "
                 "%" PRIu64 ", \"total_ms\": %s, \"self_ms\": %s, "
                 "\"p50_ns\": %" PRIu64 "}",
                 First ? "" : ",", SpanInfos[N].Name, SpanInfos[N].Layer,
                 A.Count, jsonNum(TotalMs).c_str(), jsonNum(SelfMs).c_str(),
                 P50);
    std::fprintf(stderr, "%-28s %-9s %10" PRIu64 " %12.2f %12.2f %10" PRIu64
                         "\n",
                 SpanInfos[N].Name, SpanInfos[N].Layer, A.Count, TotalMs,
                 SelfMs, P50);
    First = false;
    auto It = std::find_if(Layers.begin(), Layers.end(), [&](auto &L) {
      return L.first == SpanInfos[N].Layer;
    });
    if (It == Layers.end())
      Layers.push_back({SpanInfos[N].Layer, SelfMs});
    else
      It->second += SelfMs;
  }
  std::fprintf(F, "],\n \"layer_self_ms\": {");
  for (size_t I = 0; I < Layers.size(); ++I)
    std::fprintf(F, "%s\"%s\": %s", I ? ", " : "", Layers[I].first.c_str(),
                 jsonNum(Layers[I].second).c_str());
  std::fprintf(F,
               "},\n \"spans_kept\": %" PRIu64 ", \"spans_dropped\": %" PRIu64
               ",\n \"span_fields\": [\"tracer\", \"name\", \"start_ns\", "
               "\"end_ns\", \"parent\", \"request\"],\n \"spans\": [",
               Kept, Dropped);
  First = true;
  for (size_t T = 0; T < P.Tracers.size(); ++T)
    for (const Span &Sp : P.Tracers[T].Kept) {
      std::fprintf(F,
                   "%s\n  [%zu, \"%s\", %" PRIu64 ", %" PRIu64
                   ", %lld, %" PRIu64 "]",
                   First ? "" : ",", T, SpanInfos[Sp.Name].Name,
                   Sp.Start - PassStartNs,
                   Sp.End > PassStartNs ? Sp.End - PassStartNs : 0,
                   Sp.Parent == NoSpan ? -1LL : (long long)Sp.Parent, Sp.Req);
      First = false;
    }
  std::fprintf(F, "]}\n");
  std::fclose(F);
  std::fprintf(stderr, "satm_bench: trace written to %s (%" PRIu64
                       " spans kept, %" PRIu64 " aggregated only)\n",
               Path.c_str(), Kept, Dropped);
}

int Bench::main() {
  if (!Opt.DumpOps.empty()) {
    generateStreams();
    std::FILE *F = std::fopen(Opt.DumpOps.c_str(), "wb");
    if (!F)
      fatal("cannot write %s", Opt.DumpOps.c_str());
    for (const OpStream &St : Streams)
      dumpStream(F, St);
    dumpStream(F, Tail);
    std::fclose(F);
    return 0;
  }

  // Host record and calibration probe, taken just before the run.
  unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  double Spin = spinParallelism(NProc);
  const bool Starved = Spin < 0.75 * NProc;
  utsname U{};
  ::uname(&U);
  if (Starved)
    std::fprintf(stderr,
                 "satm_bench: WARNING: host starved — %u-thread spin "
                 "parallelism %.2f (< 0.75 x nproc); figures from this run "
                 "are suspect\n",
                 NProc, Spin);
  if (Opt.Trace)
    TickNs = traceTickNs();

  generateStreams();
  Pass Un = runPass(false);
  std::optional<Pass> Tr;
  if (Opt.Trace)
    Tr.emplace(runPass(true));
  // kv-mixed's traced run ends with a short wire-open slice through
  // net::Server and net::Client, checked like wire-open, which yields the
  // net layer's server and client figures for this workload.
  Options SliceOpt = Opt;
  SliceOpt.Spec = &Specs[unsigned(Workload::WireOpen)];
  SliceOpt.Seconds = std::min(Opt.Seconds, WireSliceSeconds);
  SliceOpt.Reps = 1;
  std::optional<Bench> Slice;
  std::optional<Pass> SlicePass;
  if (Opt.Trace && S.W == Workload::KvMixed) {
    Slice.emplace(SliceOpt);
    Slice->generateStreams();
    SlicePass.emplace(Slice->runPass(true));
  }

  std::vector<Metric> Ms;
  const Pass &P = Tr ? *Tr : Un;
  uint64_t Attempted = 0, Failed = 0, Samples = 0;
  for (const RepResult &R : P.Reps) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    Samples += R.Lat.count();
  }
  if (SlicePass)
    for (const RepResult &R : SlicePass->Reps) {
      Attempted += R.Attempted;
      Failed += R.Failed;
    }
  auto PerRep = [&](const Pass &Q, auto Get) {
    std::vector<double> V;
    for (const RepResult &R : Q.Reps)
      V.push_back(Get(R));
    return median(V);
  };
  auto LatUs = [](const RepResult &R, double Pct) {
    return double(R.Lat.valueAtPercentile(Pct)) / 1000.0;
  };

  if (!Opt.Trace) {
    Ms.push_back({"throughput_ops_s", "1/s", Un.Throughput});
    Ms.push_back({"latency_p50_us", "us",
                  PerRep(Un, [&](const RepResult &R) {
                    return LatUs(R, 50);
                  })});
    Ms.push_back({"latency_p90_us", "us",
                  PerRep(Un, [&](const RepResult &R) {
                    return LatUs(R, 90);
                  })});
    Ms.push_back({"latency_p99_us", "us",
                  PerRep(Un, [&](const RepResult &R) {
                    return LatUs(R, 99);
                  })});
    Ms.push_back({"success_rate", "ratio",
                  1.0 - ratio(double(Failed), double(Attempted))});
    // Set-up and recovery pool every timed round of the run. The host
    // switches between a fast and a slow speed in streaks, which moves
    // these ~20 ms timings by up to 2x. The median of such a two-speed
    // sample jumps from one speed to the other; the mean moves smoothly
    // with their mix, so recovery reports the mean. Set-up reports the
    // median, which one stalled round cannot move.
    std::vector<double> Setups, Recoveries;
    for (const RepResult &R : Un.Reps) {
      Setups.insert(Setups.end(), R.SetupS.begin(), R.SetupS.end());
      Recoveries.insert(Recoveries.end(), R.RecoveryS.begin(),
                        R.RecoveryS.end());
    }
    Ms.push_back({"setup_s", "s", median(Setups)});
    Ms.push_back({"peak_rss_mb", "MB",
                  PerRep(Un, [](const RepResult &R) { return R.PeakRssMb; })});
    Ms.push_back({"recovery_s", "s", mean(Recoveries)});
    // Summed over the reps, not a median: checkpoints are few per rep,
    // and the sum halves the quantization of their count.
    double Disk = 0, UserBytes = 0;
    for (const RepResult &R : Un.Reps) {
      Disk += double(R.DiskBytes);
      UserBytes += 16.0 * double(R.Mutations);
    }
    Ms.push_back({"disk_bytes_per_user_byte", "B/B", ratio(Disk, UserBytes)});
  } else {
    // Per-layer figures: counters summed over the traced pass's reps,
    // call timings pooled over its spans.
    stm::StatsCounters C;
    kv::WalStats W;
    uint64_t CkptWritten = 0, CkptEntries = 0, CkptTrunc = 0, Replayed = 0,
             TraceDropped = 0, Ops = 0;
    double CkptMs = 0, ReplayMs = 0, WindowS = 0;
    std::vector<double> Attempts, ValueRecords;
    for (const RepResult &R : Tr->Reps) {
      C += R.Stm;
      W.RecordsAppended += R.WalWindow.RecordsAppended;
      W.RingStalls += R.WalWindow.RingStalls;
      W.FsyncBatches += R.WalWindow.FsyncBatches;
      W.RecordsWritten += R.WalWindow.RecordsWritten;
      W.BytesWritten += R.WalWindow.BytesWritten;
      CkptWritten += R.Ckpt.Written;
      CkptEntries = R.Ckpt.LastEntries;
      CkptTrunc += R.Ckpt.WalTruncatedBytes;
      CkptMs += R.Ckpt.TotalMillis;
      Replayed += R.Rec.RecordsReplayed;
      ReplayMs += R.Rec.Millis;
      TraceDropped += R.TraceDropped;
      Attempts.insert(Attempts.end(), R.AttemptNs.begin(), R.AttemptNs.end());
      ValueRecords.push_back(double(R.ValueRecords));
      Ops += R.Attempted;
      WindowS += R.WindowS;
    }
    LatencyHistogram Calls[NumSpanNames];
    LatencyHistogram AllCalls;
    for (const Tracer &T : Tr->Tracers)
      for (unsigned N = 0; N < NumSpanNames; ++N) {
        Calls[N] += T.Aggs[N].Hist;
        if (N >= SpGet && N <= SpSnap)
          AllCalls += T.Aggs[N].Hist;
      }
    auto P50 = [&](SpanName N) {
      return double(Calls[N].valueAtPercentile(50));
    };
    const double Commits = double(C.TxnCommits);
    const double KCommits = Commits / 1000.0;
    const double DOps = double(Ops);

    if (Slice)
      Slice->netMetrics(&*SlicePass, Ms);
    else
      netMetrics(S.W == Workload::WireOpen ? &*Tr : nullptr, Ms);

    Ms.push_back({"kv.store.get_p50_ns", "ns", P50(SpGet)});
    Ms.push_back({"kv.store.put_p50_ns", "ns", P50(SpPut)});
    Ms.push_back({"kv.store.mget_p50_ns", "ns", P50(SpMget)});
    Ms.push_back({"kv.store.rmw_p50_ns", "ns", P50(SpRmw)});
    Ms.push_back({"kv.store.cas_p50_ns", "ns", P50(SpCas)});
    Ms.push_back({"kv.store.snap_mget_p50_ns", "ns", P50(SpSnap)});
    Ms.push_back({"kv.store.call_p99_ns", "ns",
                  double(AllCalls.valueAtPercentile(99))});
    Ms.push_back({"kv.store.value_records_allocated", "count",
                  median(ValueRecords)});

    auto Abort = [&](stm::AbortReason A) {
      return double(C.AbortReasons[unsigned(A)]);
    };
    Ms.push_back({"stm.txn.commits_per_op", "ratio", ratio(Commits, DOps)});
    Ms.push_back({"stm.txn.commit_ratio", "ratio",
                  ratio(Commits, Commits + double(C.TxnAborts))});
    Ms.push_back({"stm.abort.read_validation_per_kcommit", "1/kcommit",
                  ratio(Abort(stm::AbortReason::ReadValidation), KCommits)});
    Ms.push_back({"stm.abort.write_lock_conflict_per_kcommit", "1/kcommit",
                  ratio(Abort(stm::AbortReason::WriteLockConflict), KCommits)});
    Ms.push_back({"stm.abort.nt_kill_per_kcommit", "1/kcommit",
                  ratio(Abort(stm::AbortReason::NtReadKill) +
                            Abort(stm::AbortReason::NtWriteKill),
                        KCommits)});
    Ms.push_back({"stm.abort.contention_give_up_per_kcommit", "1/kcommit",
                  ratio(Abort(stm::AbortReason::ContentionGiveUp), KCommits)});
    Ms.push_back({"stm.serial_mode_entries", "count",
                  double(C.SerialModeEntries)});
    Ms.push_back({"stm.quiesce.waits_per_kcommit", "1/kcommit",
                  ratio(double(C.QuiesceWaits), KCommits)});
    Ms.push_back({"stm.txn.attempt_p50_ns", "ns", median(Attempts)});
    Ms.push_back({"stm.trace.dropped", "count", double(TraceDropped)});
    double NtBarriers = double(C.NtReadBarriers + C.NtWriteBarriers);
    Ms.push_back({"stm.barrier.nt_reads_per_op", "ratio",
                  ratio(double(C.NtReadBarriers), DOps)});
    Ms.push_back({"stm.barrier.nt_writes_per_op", "ratio",
                  ratio(double(C.NtWriteBarriers), DOps)});
    Ms.push_back({"stm.barrier.conflicts_per_kop", "1/kop",
                  ratio(double(C.NtReadConflicts + C.NtWriteConflicts),
                        DOps / 1000.0)});
    Ms.push_back({"stm.dea.private_share", "ratio",
                  ratio(double(C.PrivateFastPaths), NtBarriers)});
    Ms.push_back({"stm.snapshot.reads_per_op", "ratio",
                  ratio(double(C.SnapshotReads), DOps)});
    Ms.push_back({"stm.snapshot.publishes_per_commit", "ratio",
                  ratio(double(C.SnapshotPublishes), Commits)});
    Ms.push_back({"stm.snapshot.nodes_freed_per_publish", "ratio",
                  ratio(double(C.SnapshotNodesFreed),
                        double(C.SnapshotPublishes))});

    Ms.push_back({"kv.wal.records_per_commit", "ratio",
                  ratio(double(W.RecordsAppended), Commits)});
    Ms.push_back({"kv.wal.records_per_fsync", "ratio",
                  ratio(double(W.RecordsWritten), double(W.FsyncBatches))});
    Ms.push_back({"kv.wal.fsyncs_per_s", "1/s",
                  ratio(double(W.FsyncBatches), WindowS)});
    Ms.push_back({"kv.wal.bytes_per_op", "B",
                  ratio(double(W.BytesWritten), DOps)});
    Ms.push_back({"kv.wal.ring_stalls", "count", double(W.RingStalls)});
    Ms.push_back({"kv.wal.replay_records_per_s", "1/s",
                  ratio(double(Replayed), ReplayMs / 1000.0)});
    Ms.push_back({"kv.wal.replayed_records", "count", double(Replayed)});

    Ms.push_back({"kv.ckpt.written", "count", double(CkptWritten)});
    Ms.push_back({"kv.ckpt.busy_ms", "ms", CkptMs});
    Ms.push_back({"kv.ckpt.truncated_bytes", "B", double(CkptTrunc)});
    Ms.push_back({"kv.ckpt.image_entries", "count", double(CkptEntries)});

    Ms.push_back({"bench.trace.overhead_pct", "%",
                  100.0 * (1.0 - ratio(Tr->Throughput, Un.Throughput))});
    Ms.push_back({"bench.host.spin_parallelism", "ratio", Spin});
  }

  std::string Out = "{\"workload\": " + jsonStr(S.Name) +
                    ", \"seed\": " + std::to_string(Opt.Seed) +
                    ", \"trace\": " + (Opt.Trace ? "1" : "0") +
                    ", \"correct\": true, \"attempted\": " +
                    std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"samples\": {\"reps\": " + std::to_string(Opt.Reps) +
                    ", \"latency\": " + std::to_string(Samples) +
                    "}, \"host\": {\"nproc\": " + std::to_string(NProc) +
                    ", \"cpu\": " + jsonStr(cpuModel()) +
                    ", \"kernel\": " + jsonStr(U.release) +
                    ", \"build_type\": " + jsonStr(SATMBENCH_BUILD_TYPE) +
                    ", \"spin_parallelism\": " + jsonNum(Spin) +
                    ", \"starved\": " + (Starved ? "true" : "false") +
                    "}, \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonStr(Ms[I].Name) + ": {\"value\": " +
           jsonNum(Ms[I].Value) + ", \"unit\": " + jsonStr(Ms[I].Unit) + "}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: satm_bench --workload kv-mixed|kv-commit|wire-open "
               "--seed N --seconds S [--trace 0|1]\n"
               "                  [--corrupt ledger|recovery|wire] "
               "[--dump-ops PATH]\n");
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage();
    const char *V = argv[++I];
    if (A == "--workload") {
      for (const WorkloadSpec &S : Specs)
        if (S.Name == std::string(V))
          O.Spec = &S;
      if (!O.Spec)
        usage();
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::atoi(V) != 0;
    } else if (A == "--corrupt") {
      O.Corrupt = V;
      if (O.Corrupt != "ledger" && O.Corrupt != "recovery" &&
          O.Corrupt != "wire")
        usage();
    } else if (A == "--dump-ops") {
      O.DumpOps = V;
    } else {
      usage();
    }
  }
  if (!O.Spec || O.Seconds <= 0)
    usage();
  O.Reps = std::clamp(unsigned(O.Seconds), 1u, O.Spec->Reps);
  Bench B(O);
  return B.main();
}
