#include "core/bipartite_matching.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "analysis/schedule_invariants.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "parallel/engine_base.h"
#include "parallel/worker_pool.h"
#include "support/timing.h"

namespace repflow::core {

namespace detail {

// One speculative DFS result, recorded by a worker during the parallel
// augmentation pass.  All ranges index into the owning lane's flat arrays;
// the ordered commit pass replays the record only after validating that no
// earlier commit dirtied anything in its read set.
struct SpecRec {
  std::int32_t terminal = -1;       // terminal disk, or -1 when exhausted
  std::int32_t path_begin = 0;      // stack frames in the lane path arrays
  std::int32_t path_len = 0;        // 0 when terminal < 0
  std::int32_t touched_begin = 0;   // buckets whose state the DFS read
  std::int32_t touched_len = 0;
  std::int32_t disks_begin = 0;     // disks whose state the DFS read
  std::int32_t disks_len = 0;
  std::int32_t marks_begin = 0;     // buckets the DFS memoized as dead
  std::int32_t marks_len = 0;
  std::int64_t visits = 0;          // arc probes of the serial replay
};

// Per-worker lane: frontier buffer for the level-synchronous BFS plus the
// speculation record arrays.  Cache-line aligned so lanes never false-share;
// every vector is grow-only, so steady-state phases allocate nothing.
struct alignas(64) MatchLane {
  // --- BFS ---
  std::vector<std::int32_t> frontier;  // next-layer buckets found here
  bool found_spare = false;            // layer reached a spare-capacity disk

  // --- speculative augmentation ---
  std::vector<SpecRec> recs;
  std::vector<std::int32_t> path_bucket;  // recorded stack frames
  std::vector<std::int32_t> path_arc;
  std::vector<std::int32_t> path_slot;
  std::vector<std::int32_t> touched;       // read-set: buckets
  std::vector<std::int32_t> touched_disk;  // read-set: disks
  std::vector<std::int32_t> marks;         // write-set: dead marks
  std::vector<std::uint32_t> local_dead;   // private per-root dead overlay
  std::uint32_t local_stamp = 0;
  std::vector<std::int32_t> stack_bucket;  // speculation DFS frames
  std::vector<std::int32_t> stack_arc;
  std::vector<std::int32_t> stack_slot;
  std::int64_t taints = 0;  // speculations aborted on a claim/reserve race

  void clear_phase() {
    recs.clear();
    path_bucket.clear();
    path_arc.clear();
    path_slot.clear();
    touched.clear();
    touched_disk.clear();
    marks.clear();
    taints = 0;
  }

  std::size_t retained_bytes() const {
    return recs.capacity() * sizeof(SpecRec) +
           (frontier.capacity() + path_bucket.capacity() +
            path_arc.capacity() + path_slot.capacity() + touched.capacity() +
            touched_disk.capacity() + marks.capacity() +
            stack_bucket.capacity() + stack_arc.capacity() +
            stack_slot.capacity()) *
               sizeof(std::int32_t) +
           local_dead.capacity() * sizeof(std::uint32_t);
  }
};

// Shared state of the parallel phase engine.  The atomic stamp arrays live
// here rather than in MatchingWorkspace for the same reason the round
// engine keeps its atomics out of RoundRelabelWorkspace: std::atomic is not
// copyable, and the workspace must stay a plain value type.  The plain
// payload arrays the stamps guard (dist / bucket_epoch / disk_epoch in the
// workspace) are written only by the stamp winner and published by the
// worker pool's barrier (see worker_pool.h for the handoff contract), so no
// cross-thread plain access ever races.
struct ParallelMatchState {
  explicit ParallelMatchState(int threads)
      : pool(threads), lanes(static_cast<std::size_t>(threads)) {}

  parallel::WorkerPool pool;
  std::vector<MatchLane> lanes;

  // Level-synchronous BFS frontiers (coordinator-owned).
  std::vector<std::int32_t> frontier;
  std::vector<std::int32_t> next_frontier;

  // Winner-takes-ownership dedup stamps, phase-keyed by the workspace
  // epoch.  bucket_visit/disk_visit dedup the BFS layering; bucket_claim
  // and disk_reserve are the augmentation pass's advisory claims.
  std::vector<std::atomic<std::uint32_t>> bucket_visit;
  std::vector<std::atomic<std::uint32_t>> disk_visit;
  std::vector<std::atomic<std::uint32_t>> bucket_claim;
  std::vector<std::atomic<std::uint64_t>> disk_reserve;  // (epoch<<32)|taken
  std::atomic<std::size_t> cursor{0};  // chunked work handout

  // Ordered-commit bookkeeping.  Coordinator-only plain arrays: dirty
  // stamps record the write set of every commit this pass, and a
  // speculation is replayed only if its read set carries no dirty stamp.
  std::vector<std::int64_t> spec_of;  // root position -> (lane<<32)|rec
  std::vector<std::uint32_t> bucket_dirty;
  std::vector<std::uint32_t> disk_dirty;
  std::uint32_t pass_stamp = 0;

  // Phase parameters the coordinator publishes to the workers through the
  // pool handoff.  Kept here instead of in the job lambda's captures so
  // the lambda holds only `this` and fits std::function's small buffer —
  // a fatter capture would heap-allocate on every phase and break the
  // pool's zero-allocation steady state.
  std::uint32_t job_epoch = 0;
  std::int32_t job_du = 0;
  std::int32_t job_limit = 0;
  std::size_t job_roots = 0;

  std::size_t retained_bytes() const {
    std::size_t total =
        (frontier.capacity() + next_frontier.capacity()) *
            sizeof(std::int32_t) +
        (bucket_visit.capacity() + disk_visit.capacity() +
         bucket_claim.capacity()) *
            sizeof(std::atomic<std::uint32_t>) +
        disk_reserve.capacity() * sizeof(std::atomic<std::uint64_t>) +
        spec_of.capacity() * sizeof(std::int64_t) +
        (bucket_dirty.capacity() + disk_dirty.capacity()) *
            sizeof(std::uint32_t);
    for (const MatchLane& lane : lanes) total += lane.retained_bytes();
    return total;
  }
};

}  // namespace detail

namespace {

using detail::MatchLane;
using detail::ParallelMatchState;
using detail::SpecRec;

constexpr std::int32_t kUnreachable = std::numeric_limits<std::int32_t>::max();

// Work-handout granularity of the parallel phases (same as the round
// engine's discharge chunking: big enough to amortize the fetch_add, small
// enough to balance skewed layers).
constexpr std::size_t kChunk = 32;

// Arc-probe budget of one speculative DFS.  A speculation that exceeds it
// aborts and falls back to the ordered serial rerun, bounding the wasted
// work (and the lane record memory) a pathological root can pin during the
// parallel pass.  Purely a performance valve: aborted speculations never
// commit, so the budget cannot affect results.
constexpr std::int64_t kSpecVisitBudget = 1 << 14;

constexpr std::int64_t kNoSpec = -1;

// Kernel observability handles, resolved once per process.  The per-engine
// phase-latency histograms double as the MatchingEngine::kAuto decision
// input (resolve_matching_engine), so running either engine trains the
// selector.
struct MatchingMetrics {
  obs::Counter& phase_count;
  obs::Counter& retained_hits;
  obs::Histogram& path_len;
  obs::Counter& visits;
  obs::Histogram& serial_phase_ms;
  obs::Histogram& parallel_phase_ms;
  obs::Counter& parallel_phases;
  obs::Counter& spec_commits;
  obs::Counter& spec_conflicts;
};

MatchingMetrics& matching_metrics() {
  static MatchingMetrics metrics{
      obs::Registry::global().counter("matching.phase_count"),
      obs::Registry::global().counter("matching.retained_matching_hits"),
      obs::Registry::global().histogram("matching.augmenting_path_len"),
      obs::Registry::global().counter("matching.visits"),
      obs::Registry::global().histogram("matching.serial.phase_ms"),
      obs::Registry::global().histogram("matching.parallel.phase_ms"),
      obs::Registry::global().counter("matching.parallel.phases"),
      obs::Registry::global().counter("matching.parallel.spec_commits"),
      obs::Registry::global().counter("matching.parallel.spec_conflicts")};
  return metrics;
}

// Branch-free blocked scan over a full disk's slot segment [s, s_end):
// returns the first slot holding an admissible next-layer child
// (phase-stamped, dist == next_dist, not privately dead under `pol`), or
// s_end.  Sixteen-slot blocks fold the eligibility predicate into a bitmask
// with no per-element branch, then countr_zero picks the hit — the c > 2
// adversarial shapes spend most of their DFS time here scanning
// mostly-ineligible slots, where a branchy scan mispredicts per slot.
template <class Policy>
inline std::int32_t scan_slots(const graph::MatchingWorkspace& ws,
                               std::int32_t s, const std::int32_t s_end,
                               const std::uint32_t epoch,
                               const std::int32_t next_dist,
                               const Policy& pol) {
  while (s < s_end) {
    const std::int32_t block_end = std::min<std::int32_t>(s + 16, s_end);
    unsigned mask = 0;
    for (std::int32_t k = s; k < block_end; ++k) {
      const auto w =
          static_cast<std::size_t>(ws.slots[static_cast<std::size_t>(k)]);
      const unsigned ok = static_cast<unsigned>(ws.bucket_epoch[w] == epoch) &
                          static_cast<unsigned>(ws.dist[w] == next_dist) &
                          static_cast<unsigned>(!pol.is_dead(w));
      mask |= ok << static_cast<unsigned>(k - s);
    }
    if (mask != 0) return s + static_cast<std::int32_t>(std::countr_zero(mask));
    s = block_end;
  }
  return s_end;
}

// Apply an augmenting path recorded in stack frames [0..top]: the terminal
// disk appends the deepest bucket, and every intermediate slot is handed
// from child to parent.  Shared verbatim by the serial DFS and the ordered
// commit pass, so a committed speculation mutates the matching exactly as
// the serial kernel would.
inline void apply_path(graph::MatchingWorkspace& ws, const std::int32_t* sb,
                       const std::int32_t* sa, const std::int32_t* ss,
                       const std::int32_t top, const std::int32_t d) {
  const std::int32_t deepest = sb[top];
  ws.slots[static_cast<std::size_t>(
      ws.disk_first[static_cast<std::size_t>(d)] +
      ws.load[static_cast<std::size_t>(d)])] = deepest;
  ++ws.load[static_cast<std::size_t>(d)];
  ws.match[static_cast<std::size_t>(deepest)] = d;
  for (std::int32_t i = top; i >= 1; --i) {
    const std::int32_t parent = sb[i - 1];
    const std::int32_t slot = ss[i - 1];
    ws.slots[static_cast<std::size_t>(slot)] = parent;
    ws.match[static_cast<std::size_t>(parent)] =
        ws.adj[static_cast<std::size_t>(sa[i - 1])];
  }
}

enum class DfsOutcome { kAugmented, kExhausted, kAborted };

// The layered DFS shared by every execution mode, iterative so deep paths
// cannot blow the call stack.  Descends only along the phase's BFS layering
// (dist[child] == dist[parent] + 1) and memoizes failures through the
// policy, which keeps each phase linear in the layer graph.  The policy
// supplies the mode:
//
//   SerialPolicy — the PR-4 kernel: probes count visits_ directly, claims
//     always succeed, mark_dead writes dist = -1, complete() applies the
//     path in place (and stamps the commit pass's dirty arrays when running
//     as a cleanup rerun).
//   SpecPolicy — the parallel pass: reads only committed state, records
//     its read set (touched buckets/disks) and write set (path frames, dead
//     marks) into the worker's lane, keeps failures in a private overlay,
//     and aborts on a foreign CAS claim or an exhausted slot reservation.
//
// Sharing one traversal guarantees a validated speculation replays the
// serial kernel's exact branch sequence — the bit-identical-results
// argument in docs/ALGORITHMS.md leans on this.
template <class Policy>
DfsOutcome dfs_path(graph::MatchingWorkspace& ws, const std::int32_t root,
                    const std::int32_t limit, Policy& pol) {
  const std::uint32_t epoch = ws.epoch;
  if (ws.bucket_epoch[static_cast<std::size_t>(root)] != epoch ||
      ws.dist[static_cast<std::size_t>(root)] != 0) {
    return DfsOutcome::kExhausted;
  }
  if (!pol.try_claim(root)) return DfsOutcome::kAborted;
  std::int32_t* sb = pol.stack_bucket();
  std::int32_t* sa = pol.stack_arc();
  std::int32_t* ss = pol.stack_slot();
  std::int32_t top = 0;
  sb[0] = root;
  sa[0] = ws.first[static_cast<std::size_t>(root)];
  ss[0] = -1;
  while (top >= 0) {
    const std::int32_t u = sb[top];
    const std::int32_t du = ws.dist[static_cast<std::size_t>(u)];
    std::int32_t e = sa[top];
    std::int32_t s = ss[top];
    const std::int32_t e_end = ws.first[static_cast<std::size_t>(u) + 1];
    bool descended = false;
    for (; e < e_end; ++e, s = -1) {
      const std::int32_t d = ws.adj[static_cast<std::size_t>(e)];
      if (d == ws.match[static_cast<std::size_t>(u)] ||
          ws.disk_epoch[static_cast<std::size_t>(d)] != epoch) {
        continue;
      }
      if (!pol.probe(d)) return DfsOutcome::kAborted;
      if (ws.load[static_cast<std::size_t>(d)] <
          ws.cap[static_cast<std::size_t>(d)]) {
        if (du + 1 != limit) continue;  // only shortest paths this phase
        if (!pol.try_reserve(d)) return DfsOutcome::kAborted;
        sa[top] = e;
        pol.complete(top, d);
        return DfsOutcome::kAugmented;
      }
      // Full disk: scan its matched buckets for a next-layer child.
      const std::int32_t base = ws.disk_first[static_cast<std::size_t>(d)];
      const std::int32_t s_end = base + ws.load[static_cast<std::size_t>(d)];
      if (s < 0) s = base;
      s = scan_slots(ws, s, s_end, epoch, du + 1, pol);
      if (s < s_end) {
        const std::int32_t w = ws.slots[static_cast<std::size_t>(s)];
        if (!pol.try_claim(w)) return DfsOutcome::kAborted;
        sa[top] = e;
        ss[top] = s;
        ++top;
        sb[top] = w;
        sa[top] = ws.first[static_cast<std::size_t>(w)];
        ss[top] = -1;
        descended = true;
        break;
      }
    }
    if (descended) continue;
    // No admissible continuation from u this phase: memoize the failure so
    // no later DFS re-explores this subtree.
    pol.mark_dead(u);
    --top;
    if (top >= 0) ++ss[top];
  }
  return DfsOutcome::kExhausted;
}

// The serial kernel's policy; `dirty` is non-null only during the commit
// pass's cleanup reruns, where the rerun's writes must invalidate any later
// speculation that read them.
struct SerialPolicy {
  graph::MatchingWorkspace& ws;
  std::int64_t& visits;
  ParallelMatchState* dirty;
  std::int32_t top = -1;
  std::int32_t terminal = -1;

  std::int32_t* stack_bucket() { return ws.stack_bucket.data(); }
  std::int32_t* stack_arc() { return ws.stack_arc.data(); }
  std::int32_t* stack_slot() { return ws.stack_slot.data(); }

  bool probe(std::int32_t) {
    ++visits;
    return true;
  }
  static bool try_claim(std::int32_t) { return true; }
  static bool try_reserve(std::int32_t) { return true; }
  static constexpr bool is_dead(std::size_t) { return false; }

  void mark_dead(const std::int32_t u) {
    ws.dist[static_cast<std::size_t>(u)] = -1;
    if (dirty != nullptr) {
      dirty->bucket_dirty[static_cast<std::size_t>(u)] = dirty->pass_stamp;
    }
  }

  void complete(const std::int32_t t, const std::int32_t d) {
    top = t;
    terminal = d;
    apply_path(ws, ws.stack_bucket.data(), ws.stack_arc.data(),
               ws.stack_slot.data(), t, d);
    if (dirty != nullptr) {
      for (std::int32_t i = 0; i <= t; ++i) {
        dirty->bucket_dirty[static_cast<std::size_t>(ws.stack_bucket[
            static_cast<std::size_t>(i)])] = dirty->pass_stamp;
      }
      dirty->disk_dirty[static_cast<std::size_t>(d)] = dirty->pass_stamp;
      for (std::int32_t i = 0; i < t; ++i) {
        dirty->disk_dirty[static_cast<std::size_t>(
            ws.adj[static_cast<std::size_t>(
                ws.stack_arc[static_cast<std::size_t>(i)])])] =
            dirty->pass_stamp;
      }
    }
  }
};

// The speculative policy: a read-only replay of the serial DFS against the
// phase's committed state, recording the read and write sets for the
// ordered commit pass.  Claims and reservations are advisory — losing one
// only costs the speculation, never correctness.
struct SpecPolicy {
  graph::MatchingWorkspace& ws;
  ParallelMatchState& st;
  MatchLane& lane;
  std::uint32_t epoch;
  std::int64_t visits = 0;
  std::int32_t top = -1;
  std::int32_t terminal = -1;

  std::int32_t* stack_bucket() { return lane.stack_bucket.data(); }
  std::int32_t* stack_arc() { return lane.stack_arc.data(); }
  std::int32_t* stack_slot() { return lane.stack_slot.data(); }

  bool probe(const std::int32_t d) {
    ++visits;
    // Capacity guard: a full log aborts the speculation (the commit pass
    // reruns it serially) rather than reallocating — the lane buffers are
    // reserved to schedule-independent bounds in prepare_parallel_state(),
    // which keeps the pooled path on the zero-allocation contract.
    if (lane.touched_disk.size() == lane.touched_disk.capacity()) {
      return false;
    }
    lane.touched_disk.push_back(d);
    return visits <= kSpecVisitBudget;
  }

  bool try_claim(const std::int32_t w) {
    // Capacity guard: see probe().  marks needs no guard of its own — a
    // mark's bucket was always claimed by this spec first, so marks can
    // never outgrow touched, and its capacity is reserved to match.
    if (lane.touched.size() == lane.touched.capacity()) return false;
    lane.touched.push_back(w);
    // mo: relaxed exchange — the claim is an advisory early-abort hint (a
    // root never revisits its own buckets, so any prior stamp is foreign);
    // correctness comes from the ordered commit pass's read-set validation,
    // and the pool barrier publishes everything that matters.
    return st.bucket_claim[static_cast<std::size_t>(w)].exchange(
               epoch, std::memory_order_relaxed) != epoch;
  }

  bool try_reserve(const std::int32_t d) {
    const auto spare = static_cast<std::uint64_t>(std::min<std::int64_t>(
        ws.cap[static_cast<std::size_t>(d)] -
            ws.load[static_cast<std::size_t>(d)],
        std::numeric_limits<std::uint32_t>::max()));
    std::atomic<std::uint64_t>& word =
        st.disk_reserve[static_cast<std::size_t>(d)];
    // mo: relaxed CAS loop — the packed (epoch<<32)|taken reservation only
    // bounds how many speculations may target one disk's spare slots this
    // phase; an over-claim merely aborts a speculation that the commit
    // pass's validation would have rejected anyway.
    std::uint64_t cur = word.load(std::memory_order_relaxed);
    for (;;) {
      const auto stamp = static_cast<std::uint32_t>(cur >> 32);
      const std::uint64_t taken = stamp == epoch ? (cur & 0xffffffffULL) : 0;
      if (taken >= spare) return false;
      const std::uint64_t next =
          (static_cast<std::uint64_t>(epoch) << 32) | (taken + 1);
      // mo: relaxed CAS — same reservation word as the load above; no data
      // is published through it, validation happens at commit time.
      if (word.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  bool is_dead(const std::size_t w) const {
    return lane.local_dead[w] == lane.local_stamp;
  }

  void mark_dead(const std::int32_t u) {
    lane.local_dead[static_cast<std::size_t>(u)] = lane.local_stamp;
    lane.marks.push_back(u);
  }

  void complete(const std::int32_t t, const std::int32_t d) {
    top = t;
    terminal = d;
  }
};

}  // namespace

BipartiteMatcher::BipartiteMatcher() = default;
BipartiteMatcher::~BipartiteMatcher() = default;

void BipartiteMatcher::set_engine(const MatchingEngine engine,
                                  const int threads) {
  if (engine == MatchingEngine::kAuto) {
    throw std::invalid_argument(
        "BipartiteMatcher::set_engine: kAuto must be resolved by the caller "
        "(see resolve_matching_engine)");
  }
  if (threads < 1) {
    throw std::invalid_argument("BipartiteMatcher::set_engine: threads < 1");
  }
  engine_ = engine;
  threads_ = threads;
}

void BipartiteMatcher::prepare_parallel_state() {
  if (!par_ || par_->pool.threads() != threads_) {
    par_ = std::make_unique<ParallelMatchState>(threads_);
  }
  ParallelMatchState& st = *par_;
  const auto qs = static_cast<std::size_t>(q_);
  const auto ns = static_cast<std::size_t>(n_);
  parallel::ensure_atomic_size(st.bucket_visit, qs);
  parallel::ensure_atomic_size(st.bucket_claim, qs);
  parallel::ensure_atomic_size(st.disk_visit, ns);
  parallel::ensure_atomic_size(st.disk_reserve, ns);
  // Stale stamps from a previous bind would alias this bind's restarted
  // epoch sequence; wipe them (the serial kernel's plain epoch arrays are
  // reset by rebind() for the same reason).
  // mo: relaxed stores — rebind is single-threaded; the first pool.run()
  // barrier publishes them to the workers.
  for (std::size_t i = 0; i < qs; ++i) {
    st.bucket_visit[i].store(0, std::memory_order_relaxed);
    st.bucket_claim[i].store(0, std::memory_order_relaxed);
  }
  // mo: relaxed stores — same single-threaded wipe as the bucket arrays.
  for (std::size_t i = 0; i < ns; ++i) {
    st.disk_visit[i].store(0, std::memory_order_relaxed);
    st.disk_reserve[i].store(0, std::memory_order_relaxed);
  }
  st.bucket_dirty.assign(qs, 0);
  st.disk_dirty.assign(ns, 0);
  st.pass_stamp = 0;
  if (st.spec_of.size() < qs) st.spec_of.resize(qs);
  // Schedule-independent lane capacities, reserved up front so steady-state
  // phases never allocate no matter how the workers split the roots (which
  // varies run to run).  The SpecPolicy capacity guards abort a speculation
  // instead of growing a log, so these reserves set the performance floor
  // while the guards make zero-alloc unconditional.  Bounds: BFS discovery
  // and DFS claims are globally stamp-deduped per phase/pass, so frontier
  // entries ≤ Q, retained claims ≤ ~2Q (every bucket claimed once plus one
  // failed-claim probe per root), path frames are claimed buckets, marks
  // never outnumber touched (a mark's bucket was claimed by the same spec
  // first — reserved to touched's actual capacity so it can never fill
  // first), and retained probes never exceed the arc count (claimed
  // buckets are distinct, each arc list scanned once per pass).
  const std::size_t arcs = ws_->adj.size();
  st.frontier.reserve(qs);
  st.next_frontier.reserve(qs);
  for (MatchLane& lane : st.lanes) {
    lane.local_dead.assign(qs, 0);
    lane.local_stamp = 0;
    lane.stack_bucket.resize(qs + 1);
    lane.stack_arc.resize(qs + 1);
    lane.stack_slot.resize(qs + 1);
    lane.frontier.reserve(qs);
    lane.recs.reserve(qs);
    lane.touched.reserve(3 * qs + 64);
    lane.marks.reserve(lane.touched.capacity());
    lane.touched_disk.reserve(arcs + 64);
    lane.path_bucket.reserve(2 * qs + 64);
    lane.path_arc.reserve(lane.path_bucket.capacity());
    lane.path_slot.reserve(lane.path_bucket.capacity());
  }
}

void BipartiteMatcher::rebind(const RetrievalProblem& problem,
                              graph::MatchingWorkspace& workspace) {
  problem_ = &problem;
  ws_ = &workspace;
  q_ = static_cast<std::int32_t>(problem.query_size());
  n_ = problem.total_disks();
  auto& ws = workspace;
  const auto qs = static_cast<std::size_t>(q_);
  const auto ns = static_cast<std::size_t>(n_);

  std::int64_t total_arcs = 0;
  for (const auto& options : problem.replicas) {
    total_arcs += static_cast<std::int64_t>(options.size());
  }
  if (total_arcs > std::numeric_limits<std::int32_t>::max()) {
    throw std::length_error("BipartiteMatcher: arc count exceeds int32");
  }

  // Bucket-major adjacency CSR + per-disk in-degrees in one pass.
  ws.first.assign(qs + 1, 0);
  ws.in_degree.assign(ns, 0);
  ws.adj.resize(static_cast<std::size_t>(total_arcs));
  std::int32_t e = 0;
  for (std::int32_t u = 0; u < q_; ++u) {
    ws.first[static_cast<std::size_t>(u)] = e;
    for (const DiskId d : problem.replicas[static_cast<std::size_t>(u)]) {
      ws.adj[static_cast<std::size_t>(e++)] = d;
      ++ws.in_degree[static_cast<std::size_t>(d)];
    }
  }
  ws.first[qs] = e;

  // Degree-bucketed adjacency: group each bucket's replica arcs by coarse
  // in-degree class (power-of-two buckets, least-contended classes first)
  // so DFS probes disks with spare capacity before the hot disks that
  // saturate first on the c > 2 adversarial shapes.  Insertion order is
  // preserved WITHIN a class: a full degree sort would give every bucket
  // the same global disk order and make all probes hammer one saturated
  // prefix, while the original per-bucket order decorrelates scans for
  // free.  The reorder only engages where it can pay for itself: a skewed
  // degree profile (>= ~4x spread between the coldest and hottest disk)
  // AND real per-bucket choice (average replica degree <= N/4) — uniform
  // or near-complete profiles keep the untouched insertion order and cost
  // nothing.  Deterministic: a pure function of the problem, so the
  // serial and parallel engines see identical adjacency.
  if (degree_bucketed_ && q_ > 0) {
    ws.degree_class.assign(ns, 0);
    std::uint8_t min_class = 0xFF;
    std::uint8_t max_class = 0;
    for (std::size_t d = 0; d < ns; ++d) {
      const auto deg = static_cast<std::uint32_t>(ws.in_degree[d]);
      const auto cls = static_cast<std::uint8_t>(std::bit_width(deg));
      ws.degree_class[d] = cls;
      if (deg > 0) {
        min_class = std::min(min_class, cls);
        max_class = std::max(max_class, cls);
      }
    }
    const bool skewed = max_class >= min_class + 2;
    const bool has_choice =
        total_arcs * 4 <= static_cast<std::int64_t>(ns) * q_;
    if (skewed && has_choice) {
      ws.order_scratch.resize(ns);
      std::int32_t counts[34];
      for (std::int32_t u = 0; u < q_; ++u) {
        const std::int32_t lo = ws.first[static_cast<std::size_t>(u)];
        const std::int32_t hi = ws.first[static_cast<std::size_t>(u) + 1];
        if (hi - lo <= 1) continue;
        std::fill(counts + min_class, counts + max_class + 2, 0);
        for (std::int32_t i = lo; i < hi; ++i) {
          const auto d = static_cast<std::size_t>(
              ws.adj[static_cast<std::size_t>(i)]);
          ++counts[ws.degree_class[d] + 1];
        }
        for (int c = min_class; c <= max_class; ++c) {
          counts[c + 1] += counts[c];
        }
        for (std::int32_t i = lo; i < hi; ++i) {
          const std::int32_t d = ws.adj[static_cast<std::size_t>(i)];
          const auto cls = ws.degree_class[static_cast<std::size_t>(d)];
          ws.order_scratch[static_cast<std::size_t>(counts[cls]++)] = d;
        }
        std::copy(ws.order_scratch.begin(),
                  ws.order_scratch.begin() + (hi - lo),
                  ws.adj.begin() + lo);
      }
    }
  }

  // Slot segments: disk d's matched buckets live in
  // slots[disk_first[d] .. disk_first[d] + load[d]); load[d] can never
  // exceed in_degree[d], so the segments tile the arc array exactly.
  ws.disk_first.assign(ns + 1, 0);
  for (std::size_t d = 0; d < ns; ++d) {
    ws.disk_first[d + 1] = ws.disk_first[d] + ws.in_degree[d];
  }
  ws.slots.resize(static_cast<std::size_t>(total_arcs));

  ws.match.assign(qs, -1);
  ws.cap.assign(ns, 0);
  ws.load.assign(ns, 0);
  ws.free_buckets.resize(qs);
  std::iota(ws.free_buckets.begin(), ws.free_buckets.end(), 0);

  ws.dist.assign(qs, 0);
  ws.bucket_epoch.assign(qs, 0);
  ws.disk_epoch.assign(ns, 0);
  ws.epoch = 0;
  ws.queue.resize(qs);
  // DFS stack depth is bounded by the path's distinct buckets (<= |Q|).
  ws.stack_bucket.resize(qs + 1);
  ws.stack_arc.resize(qs + 1);
  ws.stack_slot.resize(qs + 1);

  if (engine_ == MatchingEngine::kParallel) prepare_parallel_state();
  if (path_tally_.size() < ns) path_tally_.resize(ns);

  matched_ = 0;
  phases_ = 0;
  augmentations_ = 0;
  visits_ = 0;
}

void BipartiteMatcher::set_capacities_for_time(double t) {
  const auto& sys = problem_->system;
  for (std::int32_t d = 0; d < n_; ++d) {
    const double budget = t - sys.delay_ms[d] - sys.init_load_ms[d];
    // Same formula (and epsilon) as RetrievalNetwork::capacity_for_time so
    // every driver probes identical capacity vectors.
    ws_->cap[static_cast<std::size_t>(d)] =
        budget < 0.0 ? 0
                     : static_cast<std::int64_t>(
                           std::floor(budget / sys.cost_ms[d] + 1e-9));
  }
}

// One global BFS layering pass: `limit` becomes the bucket-depth of the
// nearest disk with spare capacity (the shortest augmenting path ends
// there), or kUnreachable when no augmenting path exists.  Disks with spare
// capacity are terminals, never expanded; full disks expand their matched
// buckets as the next layer.  Loads only grow within a phase, so the
// layering stays valid for every DFS of the phase.
bool BipartiteMatcher::bfs_phase(std::int32_t& limit) {
  auto& ws = *ws_;
  const std::uint32_t epoch = ++ws.epoch;
  limit = kUnreachable;
  std::int32_t qt = 0;
  for (const std::int32_t u : ws.free_buckets) {
    ws.dist[static_cast<std::size_t>(u)] = 0;
    ws.bucket_epoch[static_cast<std::size_t>(u)] = epoch;
    ws.queue[static_cast<std::size_t>(qt++)] = u;
  }
  std::int32_t qh = 0;
  while (qh < qt) {
    const std::int32_t u = ws.queue[static_cast<std::size_t>(qh++)];
    const std::int32_t du = ws.dist[static_cast<std::size_t>(u)];
    if (du >= limit) break;  // deeper layers cannot shorten the paths
    const std::int32_t e_end = ws.first[static_cast<std::size_t>(u) + 1];
    for (std::int32_t e = ws.first[static_cast<std::size_t>(u)]; e < e_end;
         ++e) {
      const std::int32_t d = ws.adj[static_cast<std::size_t>(e)];
      if (d == ws.match[static_cast<std::size_t>(u)]) continue;
      if (ws.disk_epoch[static_cast<std::size_t>(d)] == epoch) continue;
      ws.disk_epoch[static_cast<std::size_t>(d)] = epoch;
      if (ws.load[static_cast<std::size_t>(d)] <
          ws.cap[static_cast<std::size_t>(d)]) {
        limit = std::min(limit, du + 1);
      } else {
        const std::int32_t base = ws.disk_first[static_cast<std::size_t>(d)];
        const std::int32_t s_end =
            base + ws.load[static_cast<std::size_t>(d)];
        for (std::int32_t s = base; s < s_end; ++s) {
          const std::int32_t w = ws.slots[static_cast<std::size_t>(s)];
          if (ws.bucket_epoch[static_cast<std::size_t>(w)] == epoch) continue;
          ws.bucket_epoch[static_cast<std::size_t>(w)] = epoch;
          ws.dist[static_cast<std::size_t>(w)] = du + 1;
          ws.queue[static_cast<std::size_t>(qt++)] = w;
        }
      }
    }
  }
  return limit != kUnreachable;
}

namespace {

// Expand one frontier bucket of the level-synchronous BFS.  Dedup goes
// through the atomic stamp arrays (winner-takes-ownership exchange, exactly
// the round engine's activate()); the winner alone writes the plain
// workspace mirrors (disk_epoch / bucket_epoch / dist) that the DFS stage
// reads, and the pool barrier between layers publishes them.  Returns true
// when the bucket reached a disk with spare capacity (the layer below is
// the phase limit).
inline bool expand_bucket(graph::MatchingWorkspace& ws, ParallelMatchState& st,
                          const std::int32_t u, const std::uint32_t epoch,
                          const std::int32_t du,
                          std::vector<std::int32_t>& out) {
  bool found_spare = false;
  const std::int32_t e_end = ws.first[static_cast<std::size_t>(u) + 1];
  for (std::int32_t e = ws.first[static_cast<std::size_t>(u)]; e < e_end;
       ++e) {
    const std::int32_t d = ws.adj[static_cast<std::size_t>(e)];
    if (d == ws.match[static_cast<std::size_t>(u)]) continue;
    // mo: relaxed exchange — dedup stamp only; the plain payload writes
    // below are made by the winner alone and published by the pool barrier.
    if (st.disk_visit[static_cast<std::size_t>(d)].exchange(
            epoch, std::memory_order_relaxed) == epoch) {
      continue;
    }
    ws.disk_epoch[static_cast<std::size_t>(d)] = epoch;
    if (ws.load[static_cast<std::size_t>(d)] <
        ws.cap[static_cast<std::size_t>(d)]) {
      found_spare = true;
    } else {
      const std::int32_t base = ws.disk_first[static_cast<std::size_t>(d)];
      const std::int32_t s_end = base + ws.load[static_cast<std::size_t>(d)];
      for (std::int32_t s = base; s < s_end; ++s) {
        const std::int32_t w = ws.slots[static_cast<std::size_t>(s)];
        // mo: relaxed exchange — same winner-takes-ownership dedup as above.
        if (st.bucket_visit[static_cast<std::size_t>(w)].exchange(
                epoch, std::memory_order_relaxed) == epoch) {
          continue;
        }
        ws.bucket_epoch[static_cast<std::size_t>(w)] = epoch;
        ws.dist[static_cast<std::size_t>(w)] = du + 1;
        out.push_back(w);
      }
    }
  }
  return found_spare;
}

}  // namespace

// The bulk-synchronous BFS layering: expand one layer at a time, workers
// pulling kChunk-sized frontier slices through the shared cursor into
// per-lane buffers, with a barrier commit per layer.  Layers below the
// parallel cutoff run inline on the coordinator (no barrier) — the
// small-phase fallback from round_push_relabel.cpp.  Stops after the first
// layer that reached a spare-capacity disk; because the serial BFS also
// finishes exactly that layer before its `du >= limit` break, the resulting
// dist / epoch sets and limit are identical to bfs_phase().
bool BipartiteMatcher::parallel_bfs_phase(std::int32_t& limit) {
  auto& ws = *ws_;
  ParallelMatchState& st = *par_;
  const std::uint32_t epoch = ++ws.epoch;
  limit = kUnreachable;
  st.frontier.assign(ws.free_buckets.begin(), ws.free_buckets.end());
  for (const std::int32_t u : st.frontier) {
    ws.dist[static_cast<std::size_t>(u)] = 0;
    ws.bucket_epoch[static_cast<std::size_t>(u)] = epoch;
    // mo: relaxed — seeding runs single-threaded before the first layer's
    // pool barrier publishes it.
    st.bucket_visit[static_cast<std::size_t>(u)].store(
        epoch, std::memory_order_relaxed);
  }
  std::int32_t du = 0;
  while (!st.frontier.empty()) {
    bool found_spare = false;
    st.next_frontier.clear();
    if (st.frontier.size() < parallel_cutoff_ || st.pool.threads() == 1) {
      // Small layer: expand inline on the coordinator, skipping the
      // barrier.  The atomic stamps stay in use so inline and pooled
      // layers of one phase share a single dedup domain.
      for (const std::int32_t u : st.frontier) {
        found_spare |= expand_bucket(ws, st, u, epoch, du, st.next_frontier);
      }
    } else {
      // mo: relaxed — cursor reset happens before pool.run's handoff,
      // which also publishes the job_* phase parameters to the workers.
      st.cursor.store(0, std::memory_order_relaxed);
      st.job_epoch = epoch;
      st.job_du = du;
      for (MatchLane& lane : st.lanes) {
        lane.frontier.clear();
        lane.found_spare = false;
      }
      st.pool.run([this](const int worker) { bfs_worker(worker); });
      for (MatchLane& lane : st.lanes) {
        st.next_frontier.insert(st.next_frontier.end(), lane.frontier.begin(),
                                lane.frontier.end());
        found_spare |= lane.found_spare;
      }
    }
    if (found_spare) {
      limit = du + 1;
      break;
    }
    std::swap(st.frontier, st.next_frontier);
    ++du;
  }
  return limit != kUnreachable;
}

// Pooled body of one BFS layer: pull kChunk-sized frontier slices through
// the shared cursor, expanding each bucket into this worker's lane buffer.
void BipartiteMatcher::bfs_worker(const int worker) {
  auto& ws = *ws_;
  ParallelMatchState& st = *par_;
  MatchLane& lane = st.lanes[static_cast<std::size_t>(worker)];
  const std::uint32_t epoch = st.job_epoch;
  const std::int32_t du = st.job_du;
  for (;;) {
    // mo: relaxed fetch_add — chunk handout only; all payload visibility
    // rides the pool barrier.
    const std::size_t begin =
        st.cursor.fetch_add(kChunk, std::memory_order_relaxed);
    if (begin >= st.frontier.size()) break;
    const std::size_t end = std::min(begin + kChunk, st.frontier.size());
    for (std::size_t i = begin; i < end; ++i) {
      lane.found_spare |=
          expand_bucket(ws, st, st.frontier[i], epoch, du, lane.frontier);
    }
  }
}

// Pooled body of the speculation pass: claim kChunk-sized slices of the
// free roots and run the read-only SpecPolicy DFS for each, recording the
// outcome into this worker's lane.
void BipartiteMatcher::spec_worker(const int worker) {
  auto& ws = *ws_;
  ParallelMatchState& st = *par_;
  MatchLane& lane = st.lanes[static_cast<std::size_t>(worker)];
  const std::uint32_t epoch = st.job_epoch;
  const std::int32_t limit = st.job_limit;
  const std::size_t roots = st.job_roots;
  for (;;) {
    // mo: relaxed fetch_add — chunk handout only; all payload visibility
    // rides the pool barrier.
    const std::size_t begin =
        st.cursor.fetch_add(kChunk, std::memory_order_relaxed);
    if (begin >= roots) break;
    const std::size_t end = std::min(begin + kChunk, roots);
    for (std::size_t i = begin; i < end; ++i) {
      const std::int32_t root = ws.free_buckets[i];
      if (++lane.local_stamp == 0) {
        // Stamp wrap: wipe the overlay so stale entries cannot alias.
        std::fill(lane.local_dead.begin(), lane.local_dead.end(), 0U);
        lane.local_stamp = 1;
      }
      const auto path_begin =
          static_cast<std::int32_t>(lane.path_bucket.size());
      const auto touched_begin = static_cast<std::int32_t>(lane.touched.size());
      const auto disks_begin =
          static_cast<std::int32_t>(lane.touched_disk.size());
      const auto marks_begin = static_cast<std::int32_t>(lane.marks.size());
      SpecPolicy pol{ws, st, lane, epoch};
      DfsOutcome out = dfs_path(ws, root, limit, pol);
      if (out == DfsOutcome::kAugmented &&
          lane.path_bucket.size() + static_cast<std::size_t>(pol.top) + 1 >
              lane.path_bucket.capacity()) {
        // Path log full: drop the speculation instead of growing the
        // buffer (capacity-guard contract, see SpecPolicy::probe); the
        // ordered commit pass reruns this root serially.
        out = DfsOutcome::kAborted;
      }
      if (out == DfsOutcome::kAborted) {
        lane.touched.resize(static_cast<std::size_t>(touched_begin));
        lane.touched_disk.resize(static_cast<std::size_t>(disks_begin));
        lane.marks.resize(static_cast<std::size_t>(marks_begin));
        ++lane.taints;
        st.spec_of[i] = kNoSpec;
        continue;
      }
      SpecRec rec;
      rec.visits = pol.visits;
      rec.touched_begin = touched_begin;
      rec.touched_len =
          static_cast<std::int32_t>(lane.touched.size()) - touched_begin;
      rec.disks_begin = disks_begin;
      rec.disks_len =
          static_cast<std::int32_t>(lane.touched_disk.size()) - disks_begin;
      rec.marks_begin = marks_begin;
      rec.marks_len =
          static_cast<std::int32_t>(lane.marks.size()) - marks_begin;
      rec.path_begin = path_begin;
      if (out == DfsOutcome::kAugmented) {
        rec.terminal = pol.terminal;
        rec.path_len = pol.top + 1;
        for (std::int32_t f = 0; f <= pol.top; ++f) {
          lane.path_bucket.push_back(
              lane.stack_bucket[static_cast<std::size_t>(f)]);
          lane.path_arc.push_back(
              lane.stack_arc[static_cast<std::size_t>(f)]);
          lane.path_slot.push_back(
              lane.stack_slot[static_cast<std::size_t>(f)]);
        }
      }
      lane.recs.push_back(rec);
      st.spec_of[i] = (static_cast<std::int64_t>(worker) << 32) |
                      static_cast<std::int64_t>(lane.recs.size() - 1);
    }
  }
}

void BipartiteMatcher::record_path(const std::int32_t top) {
  ++path_tally_[static_cast<std::size_t>(top)];
  path_tally_max_ = std::max(path_tally_max_, top);
}

// The matcher's fold point: one registry write per metric per
// augment_to_maximum() call (i.e. per probe or capacity step), never per
// path.  The path-length scan stops at the deepest length seen, so the
// flush costs O(lengths seen), not O(disks).
void BipartiteMatcher::publish_tally(const std::int64_t phases,
                                     const std::int64_t parallel_phases) {
  MatchingMetrics& m = matching_metrics();
  for (std::int32_t top = 0; top <= path_tally_max_; ++top) {
    std::uint64_t& paths = path_tally_[static_cast<std::size_t>(top)];
    m.path_len.observe_n(2.0 * top + 1.0, paths);  // obs: per-probe
    paths = 0;
  }
  path_tally_max_ = -1;
  m.phase_count.add(static_cast<std::uint64_t>(phases));  // obs: per-probe
  if (parallel_phases > 0) {
    // obs: per-probe — the parallel engine's pass outcomes.
    m.parallel_phases.add(static_cast<std::uint64_t>(parallel_phases));
    m.spec_commits.add(static_cast<std::uint64_t>(spec_commits_));
    m.spec_conflicts.add(static_cast<std::uint64_t>(spec_conflicts_));
    spec_commits_ = 0;
    spec_conflicts_ = 0;
  }
}

bool BipartiteMatcher::try_augment(const std::int32_t root,
                                   const std::int32_t limit,
                                   detail::ParallelMatchState* dirty) {
  SerialPolicy pol{*ws_, visits_, dirty};
  if (dfs_path(*ws_, root, limit, pol) != DfsOutcome::kAugmented) {
    return false;
  }
  ++matched_;
  ++augmentations_;
  record_path(pol.top);
  return true;
}

void BipartiteMatcher::serial_augment_pass(const std::int32_t limit) {
  auto& ws = *ws_;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ws.free_buckets.size(); ++i) {
    const std::int32_t u = ws.free_buckets[i];
    if (!try_augment(u, limit)) ws.free_buckets[kept++] = u;
  }
  ws.free_buckets.resize(kept);
}

// The parallel batched augmentation: one speculation pass + one ordered
// commit pass.
//
// Speculation (parallel): workers claim kChunk-sized slices of the free
// roots and run the read-only SpecPolicy DFS for each, recording path,
// read set, dead marks, and probe count into their lane; CAS claims on
// buckets and packed slot reservations on disks abort speculations that
// are likely to conflict.
//
// Ordered commit (coordinator): roots are walked in free-list order — the
// serial kernel's exact order.  A speculation is replayed iff no earlier
// commit this pass dirtied anything it read; replaying then writes exactly
// what the serial DFS at this position would have written (same traversal,
// unchanged reads), including the dist = -1 dead marks and the probe count
// added to visits_.  Conflicting or aborted roots rerun the serial DFS in
// place, with its writes dirty-stamped for later validations.  Every root
// therefore produces the serial-at-position result, so the phase — and the
// whole solve — is bit-identical to the serial engine.
void BipartiteMatcher::parallel_augment_pass(const std::int32_t limit) {
  auto& ws = *ws_;
  ParallelMatchState& st = *par_;
  const std::size_t roots = ws.free_buckets.size();
  for (MatchLane& lane : st.lanes) lane.clear_phase();
  // mo: relaxed — cursor reset happens before pool.run's handoff, which
  // also publishes the job_* phase parameters to the workers.
  st.cursor.store(0, std::memory_order_relaxed);
  st.job_epoch = ws.epoch;
  st.job_limit = limit;
  st.job_roots = roots;

  st.pool.run([this](const int worker) { spec_worker(worker); });

  // Ordered commit pass (single-threaded; the pool barrier above published
  // every lane record).
  if (++st.pass_stamp == 0) {
    std::fill(st.bucket_dirty.begin(), st.bucket_dirty.end(), 0U);
    std::fill(st.disk_dirty.begin(), st.disk_dirty.end(), 0U);
    st.pass_stamp = 1;
  }
  const std::uint32_t pass = st.pass_stamp;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < roots; ++i) {
    const std::int32_t u = ws.free_buckets[i];
    bool augmented = false;
    bool committed = false;
    const std::int64_t handle = st.spec_of[i];
    if (handle != kNoSpec) {
      MatchLane& lane = st.lanes[static_cast<std::size_t>(handle >> 32)];
      const SpecRec& rec =
          lane.recs[static_cast<std::size_t>(handle & 0xffffffff)];
      bool valid = true;
      for (std::int32_t k = 0; k < rec.touched_len && valid; ++k) {
        valid = st.bucket_dirty[static_cast<std::size_t>(
                    lane.touched[static_cast<std::size_t>(
                        rec.touched_begin + k)])] != pass;
      }
      for (std::int32_t k = 0; k < rec.disks_len && valid; ++k) {
        valid = st.disk_dirty[static_cast<std::size_t>(
                    lane.touched_disk[static_cast<std::size_t>(
                        rec.disks_begin + k)])] != pass;
      }
      if (valid) {
        // Replay the speculation: identical reads guarantee the serial DFS
        // at this position would retrace it exactly, so its recorded write
        // set — dead marks plus the path — is the serial result.
        for (std::int32_t k = 0; k < rec.marks_len; ++k) {
          const std::int32_t m =
              lane.marks[static_cast<std::size_t>(rec.marks_begin + k)];
          ws.dist[static_cast<std::size_t>(m)] = -1;
          st.bucket_dirty[static_cast<std::size_t>(m)] = pass;
        }
        if (rec.terminal >= 0) {
          const std::int32_t* sb =
              lane.path_bucket.data() + rec.path_begin;
          const std::int32_t* sa = lane.path_arc.data() + rec.path_begin;
          const std::int32_t* ss = lane.path_slot.data() + rec.path_begin;
          const std::int32_t top = rec.path_len - 1;
          apply_path(ws, sb, sa, ss, top, rec.terminal);
          for (std::int32_t f = 0; f <= top; ++f) {
            st.bucket_dirty[static_cast<std::size_t>(sb[f])] = pass;
          }
          st.disk_dirty[static_cast<std::size_t>(rec.terminal)] = pass;
          for (std::int32_t f = 0; f < top; ++f) {
            st.disk_dirty[static_cast<std::size_t>(
                ws.adj[static_cast<std::size_t>(sa[f])])] = pass;
          }
          ++matched_;
          ++augmentations_;
          record_path(top);
          augmented = true;
        }
        visits_ += rec.visits;
        committed = true;
        ++spec_commits_;
      }
    }
    if (!committed) {
      // Conflict (or aborted speculation): rerun the serial kernel at this
      // position, dirty-stamping its writes for later validations.
      augmented = try_augment(u, limit, &st);
      ++spec_conflicts_;
    }
    if (!augmented) ws.free_buckets[kept++] = u;
  }
  ws.free_buckets.resize(kept);
}

std::int64_t BipartiteMatcher::augment_to_maximum() {
  auto& ws = *ws_;
  if (matched_ > 0) matching_metrics().retained_hits.add(1);  // obs: per-probe
  const bool parallel_engine =
      engine_ == MatchingEngine::kParallel && par_ != nullptr;
  obs::Histogram& phase_ms = parallel_engine
                                 ? matching_metrics().parallel_phase_ms
                                 : matching_metrics().serial_phase_ms;
  const std::int64_t phases_before = phases_;
  std::int64_t parallel_phases = 0;
  while (matched_ < q_) {
    StopWatch watch;
    watch.start();
    // Small phases skip the pooled path entirely (the inline-fallback trick
    // from round_push_relabel.cpp): Hopcroft-Karp's free set shrinks fast,
    // so the tail of every solve runs serial regardless of engine.
    const bool par =
        parallel_engine && ws.free_buckets.size() >= parallel_cutoff_;
    std::int32_t limit = 0;
    const bool reachable = par ? parallel_bfs_phase(limit) : bfs_phase(limit);
    if (!reachable) {
      watch.stop();
      phase_ms.observe(watch.elapsed_ms());  // obs: per-phase
      break;
    }
    ++phases_;
    const std::int64_t before = matched_;
    if (par) {
      parallel_augment_pass(limit);
      ++parallel_phases;
    } else {
      serial_augment_pass(limit);
    }
    watch.stop();
    phase_ms.observe(watch.elapsed_ms());  // obs: per-phase
    // A phase whose BFS found a terminal always augments at least once
    // (failures don't mutate the matching); this is a loop guard only.
    if (matched_ == before) break;
  }
  publish_tally(phases_ - phases_before, parallel_phases);
  return matched_;
}

void BipartiteMatcher::save_matching_into(
    std::vector<std::int32_t>& out) const {
  out.assign(ws_->match.begin(), ws_->match.end());
}

void BipartiteMatcher::restore_matching(
    const std::vector<std::int32_t>& saved) {
  auto& ws = *ws_;
  std::fill(ws.load.begin(), ws.load.end(), 0);
  ws.free_buckets.clear();
  matched_ = 0;
  for (std::int32_t u = 0; u < q_; ++u) {
    const std::int32_t d = saved[static_cast<std::size_t>(u)];
    ws.match[static_cast<std::size_t>(u)] = d;
    if (d >= 0) {
      ws.slots[static_cast<std::size_t>(
          ws.disk_first[static_cast<std::size_t>(d)] +
          ws.load[static_cast<std::size_t>(d)])] = u;
      ++ws.load[static_cast<std::size_t>(d)];
      ++matched_;
    } else {
      ws.free_buckets.push_back(u);
    }
  }
}

void BipartiteMatcher::extract_schedule_into(Schedule& schedule) const {
  if (matched_ != q_) {
    throw std::logic_error("BipartiteMatcher: matching is not complete");
  }
  const auto& ws = *ws_;
  schedule.assigned_disk.assign(static_cast<std::size_t>(q_), -1);
  schedule.per_disk_count.assign(static_cast<std::size_t>(n_), 0);
  for (std::int32_t u = 0; u < q_; ++u) {
    const std::int32_t d = ws.match[static_cast<std::size_t>(u)];
    schedule.assigned_disk[static_cast<std::size_t>(u)] = d;
    ++schedule.per_disk_count[static_cast<std::size_t>(d)];
  }
}

std::size_t BipartiteMatcher::retained_bytes() const {
  return par_ ? par_->retained_bytes() : 0;
}

SolveResult IntegratedMatchingSolver::solve() {
  if (bound_problem_ == nullptr) {
    throw std::logic_error(
        "IntegratedMatchingSolver::solve: no bound problem; use solve_into");
  }
  SolveResult result;
  solve_into(*bound_problem_, result);
  return result;
}

void IntegratedMatchingSolver::solve_into(const RetrievalProblem& problem,
                                          SolveResult& result) {
  result.clear();
  matcher_.rebind(problem, workspace_.matching);
  const std::int64_t q = problem.query_size();

  // Phase 1: the search range (Algorithm 6 lines 1-11).
  TimeBounds bounds = compute_time_bounds(problem);
  double tmin = bounds.tmin;
  double tmax = bounds.tmax;

  // Snapshot of the best (largest-tmin) *infeasible* matching; valid for
  // every probe above its tmin because capacities are monotone in t.
  matcher_.save_matching_into(saved_match_);  // all unmatched
  std::int64_t saved_matched = 0;

  // Phase 2: binary capacity scaling (lines 12-37), conserving the
  // retained matching across probes exactly as the push-relabel driver
  // conserves flows.
  while (tmax - tmin >= bounds.min_speed) {
    obs::ScopedSpan probe("matching.probe");
    const double tmid = tmin + (tmax - tmin) * 0.5;
    matcher_.set_capacities_for_time(tmid);
    const std::int64_t reached = matcher_.augment_to_maximum();
    ++result.binary_probes;
    if (reached != q) {
      // Infeasible: conserve this matching as the new baseline.
      matcher_.save_matching_into(saved_match_);
      saved_matched = reached;
      tmin = tmid;
    } else {
      // Feasible: the matching may overload the smaller capacities probed
      // next, so fall back to the last infeasible snapshot.
      matcher_.restore_matching(saved_match_);
      tmax = tmid;
    }
  }

  // Phase 3: restore, retune to caps(tmin), and finish with
  // IncrementMinCost augmentations (lines 38-42 = Algorithm 5's loop).
  matcher_.restore_matching(saved_match_);
  matcher_.set_capacities_for_time(tmin);
  incrementer_.rebind(problem, matcher_.in_degrees(), matcher_.capacities());
  std::int64_t reached = saved_matched;
  while (reached != q) {
    obs::ScopedSpan step("matching.capacity_step");
    // Same batched stepping as the alg6 driver: skip Hopcroft-Karp phases
    // that cannot complete the matching while the usable capacity is still
    // below |Q| (identical T and capacity-step sequence).
    incrementer_.increment_until(q);
    reached = matcher_.augment_to_maximum();
  }

  result.capacity_steps = incrementer_.steps();
  result.flow_stats.augmentations =
      static_cast<std::uint64_t>(matcher_.augmentations());
  result.flow_stats.dfs_visits =
      static_cast<std::uint64_t>(matcher_.visits());
  result.flow_stats.global_relabels =
      static_cast<std::uint64_t>(matcher_.phases());  // BFS layering passes
  matching_metrics().visits.add(matcher_.visits());  // obs: per-solve
  matcher_.extract_schedule_into(result.schedule);
  result.response_time_ms = result.schedule.response_time(problem.system);
  REPFLOW_CHECK_MATCHING(problem, matcher_.capacities(), result,
                         "matching.post_solve");
}

std::size_t IntegratedMatchingSolver::retained_bytes() const {
  return workspace_.retained_bytes() + matcher_.retained_bytes() +
         saved_match_.capacity() * sizeof(std::int32_t);
}

}  // namespace repflow::core
