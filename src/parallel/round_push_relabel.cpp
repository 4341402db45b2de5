#include "parallel/round_push_relabel.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "analysis/check.h"
#if REPFLOW_INVARIANTS_ENABLED
#include "analysis/flow_invariants.h"
#endif

namespace repflow::parallel {

using graph::ArcId;
using graph::Cap;
using graph::Vertex;

namespace {
// Index ranges handed out by the relaxed chunk cursor during parallel
// phases.  Small enough to balance skewed discharge costs, large enough
// that the cursor is not contended.
constexpr std::size_t kChunk = 32;
// Flat work charged per discharge on top of the arc scans (mirrors the
// constant in work-bounded global-relabel triggers a la Goldberg).
constexpr std::uint64_t kDischargeWorkConstant = 4;
}  // namespace

// A pool barrier is two mutex + condition-variable handoffs — far more
// expensive than discharging a few hundred low-degree vertices.  Phases
// below the cutoff therefore run inline on the coordinating thread as
// worker 0 (one-thread engines never get here: resume() hands them to the
// sequential delegate); the memory-order argument is unaffected (a
// sequential phase trivially happens-before the next), but every thread
// buffer must be cleared first so the commit does not re-read a previous
// parallel round's activations.
template <typename Job>
void RoundPushRelabel::run_phase(std::size_t total, Job&& job) {
  // mo: relaxed — phase prologue on the coordinator; the pool handoff (or
  // the inline call) publishes the reset cursor to the workers.  This BSP
  // barrier argument covers every relaxed site in the phase bodies below:
  // within a round each cell has a single logical owner, and all
  // cross-round visibility rides the run()/barrier edges.
  cursor_.store(0, std::memory_order_relaxed);
  if (total < parallel_cutoff_) {
    for (auto& buf : thread_bufs_) buf.clear();
    job(0);
  } else {
    pool_.run(job);
  }
}

RoundPushRelabel::RegistryHandles RoundPushRelabel::RegistryHandles::make() {
  auto& reg = obs::Registry::global();
  return RegistryHandles{reg.counter("parallel.pushes"),
                         reg.counter("parallel.relabels"),
                         reg.counter("parallel.discharges"),
                         reg.counter("parallel.resumes"),
                         reg.counter("parallel.rounds"),
                         reg.counter("parallel.sequential_passes"),
                         reg.counter("parallel.global_relabels"),
                         reg.counter("parallel.discharge_work"),
                         reg.gauge("parallel.active_peak")};
}

RoundPushRelabel::RoundPushRelabel(graph::FlowNetwork& net, Vertex source,
                                   Vertex sink, int threads,
                                   graph::RoundRelabelWorkspace* workspace)
    : ParallelEngineBase(net, source, sink, threads),
      ws_(workspace ? *workspace : owned_workspace_),
      sequential_(net, source, sink),
      registry_(RegistryHandles::make()) {
  counters_.resize(static_cast<std::size_t>(threads));
  thread_bufs_.resize(static_cast<std::size_t>(threads));
  ensure_round_state();
}

void RoundPushRelabel::rebind(Vertex source, Vertex sink) {
  bind(source, sink);
  sequential_.rebind(source, sink);
  ensure_round_state();
}

void RoundPushRelabel::ensure_round_state() {
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  ws_.level.resize(n);
  ws_.next_level.resize(n);
  // Activation is stamp-dedup'd, so no round can produce more than one
  // entry per vertex: n + 2 covers every interior vertex plus source and
  // sink as commit candidates, and the buffers never reallocate mid-run.
  ws_.active.reserve(n + 2);
  ws_.frontier.reserve(n);
  ws_.next_frontier.reserve(n);
  for (auto& buf : thread_bufs_) buf.reserve(n + 2);
  ensure_atomic_size(excess_diff_, n);
  ensure_atomic_size(last_activated_, n);
  ensure_atomic_size(bfs_stamp_, n);
}

void RoundPushRelabel::activate(Vertex v, int worker) {
  // mo: relaxed — the stamp is a claim ticket (RMW atomicity dedupes
  // concurrent activators); the claimed vertex id travels in the claiming
  // worker's own buffer, which the barrier publishes.
  if (last_activated_[v].exchange(round_stamp_, std::memory_order_relaxed) !=
      round_stamp_) {
    thread_bufs_[static_cast<std::size_t>(worker)].push_back(v);
  }
}

void RoundPushRelabel::discharge(Vertex u, int worker) {
  ThreadCounters& counters = counters_[static_cast<std::size_t>(worker)];
  ++counters.discharges;
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  const std::int32_t lu = ws_.level[u];
  const std::int32_t begin = adj_offset_[u];
  const std::int32_t end = adj_offset_[u + 1];
  // Committed excess is owner-read during the round; same-round incoming
  // credits accumulate in excess_diff_ and only join at the barrier.
  // mo: relaxed — see the BSP note in run_phase (single owner per round).
  Cap e = excess_[u].load(std::memory_order_relaxed);
  Cap pushed = 0;
  for (std::int32_t i = begin; i < end && e > 0; ++i) {
    const ArcId a = adj_arcs_[i];
    const Vertex w = arc_head_[a];
    if (ws_.level[w] != lu - 1) continue;  // admissible wrt frozen labels
    // mo: relaxed — admissible arcs point strictly down-level, and only
    // the down-level endpoint's owner pushes on an arc this round, so each
    // flow cell has one writer per round (BSP note in run_phase); the
    // diff cells are pure commutative tallies joined at the barrier.
    const Cap r = cap_[a] - flow_[a].load(std::memory_order_relaxed);
    if (r <= 0) continue;
    const Cap delta = std::min(e, r);
    // mo: relaxed — see the single-writer-per-round note above.
    flow_[a].fetch_add(delta, std::memory_order_relaxed);
    flow_[a ^ 1].fetch_sub(delta, std::memory_order_relaxed);
    excess_diff_[w].fetch_add(delta, std::memory_order_relaxed);
    activate(w, worker);
    e -= delta;
    pushed += delta;
    ++counters.pushes;
  }
  if (pushed > 0) {
    // mo: relaxed — commutative tally joined at the barrier (BSP note).
    excess_diff_[u].fetch_sub(pushed, std::memory_order_relaxed);
  }
  counters.work +=
      static_cast<std::uint64_t>(end - begin) + kDischargeWorkConstant;
  if (e > 0) {
    // Out of admissible arcs: relabel into the buffer (committed at the
    // barrier).  Levels cap at n — stranded excess is returned by
    // drain_stranded_excess() instead of climbing back over the source.
    std::int32_t min_level = std::numeric_limits<std::int32_t>::max();
    for (std::int32_t i = begin; i < end; ++i) {
      const ArcId a = adj_arcs_[i];
      // mo: relaxed — same-round flow reads; a concurrently updated cell
      // only makes the frozen-label relabel conservative (BSP note).
      if (cap_[a] - flow_[a].load(std::memory_order_relaxed) <= 0) continue;
      min_level = std::min(min_level, ws_.level[arc_head_[a]]);
    }
    ws_.next_level[u] =
        min_level >= n ? n : std::min(min_level + 1, n);
    ++counters.relabels;
    counters.work += static_cast<std::uint64_t>(end - begin);
  }
  // Always self-activate: the vertex either relabeled, kept leftover
  // excess, or owes a negative excess_diff_ commit from its pushes.
  activate(u, worker);
}

void RoundPushRelabel::discharge_active() {
  if (++round_stamp_ == 0) {  // epoch wrap: wipe stale stamps once
    // mo: relaxed — coordinator-only, between phases (BSP note).
    for (auto& stamp : last_activated_) {
      stamp.store(0, std::memory_order_relaxed);
    }
    round_stamp_ = 1;
  }
  run_phase(ws_.active.size(), [this](int worker) {
    auto& buf = thread_bufs_[static_cast<std::size_t>(worker)];
    buf.clear();
    const std::size_t total = ws_.active.size();
    for (;;) {
      // mo: relaxed — bare chunk ticket; the claimed range's data was
      // published by the phase handoff (BSP note in run_phase).
      const std::size_t begin =
          cursor_.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= total) break;
      const std::size_t end = std::min(begin + kChunk, total);
      for (std::size_t i = begin; i < end; ++i) {
        discharge(ws_.active[i], worker);
      }
    }
  });
}

void RoundPushRelabel::apply_updates() {
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  ws_.active.clear();
  for (auto& buf : thread_bufs_) {
    for (const Vertex v : buf) {
      // mo: relaxed — barrier commit on the coordinator; every worker
      // tally was published by the phase barrier (BSP note in run_phase).
      excess_[v].fetch_add(excess_diff_[v].exchange(
                               0, std::memory_order_relaxed),
                           std::memory_order_relaxed);
      ws_.level[v] = ws_.next_level[v];
      if (v == source_ || v == sink_) continue;
      // mo: relaxed — see the barrier-commit note above.
      if (excess_[v].load(std::memory_order_relaxed) > 0 &&
          ws_.level[v] < n) {
        ws_.active.push_back(v);
      }
    }
  }
  for (auto& counters : counters_) {
    run_pushes_ += counters.pushes;
    run_relabels_ += counters.relabels;
    run_discharges_ += counters.discharges;
    run_round_stats_.discharge_work += counters.work;
    work_since_gr_ += counters.work;
    counters = ThreadCounters{};
  }
}

void RoundPushRelabel::global_relabel() {
  ++run_round_stats_.global_relabels;
  ++stats_.global_relabels;
  if (++gr_stamp_ == 0) {
    // mo: relaxed — coordinator-only, between phases (BSP note).
    for (auto& stamp : bfs_stamp_) stamp.store(0, std::memory_order_relaxed);
    gr_stamp_ = 1;
  }
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  const auto nn = static_cast<std::int32_t>(n);
  std::fill(ws_.level.begin(),
            ws_.level.begin() + static_cast<std::ptrdiff_t>(n), nn);
  ws_.frontier.clear();
  ws_.level[sink_] = 0;
  // mo: relaxed — coordinator-only seed, published by the phase handoff.
  bfs_stamp_[sink_].store(gr_stamp_, std::memory_order_relaxed);
  ws_.frontier.push_back(sink_);
  std::int32_t depth = 0;
  // Level-synchronous parallel backward BFS from the sink over residual
  // arcs; each depth is one pool barrier, frontier chunks handed out by
  // the relaxed cursor, discovery claimed by the stamp exchange.
  while (!ws_.frontier.empty()) {
    ++depth;
    run_phase(ws_.frontier.size(), [this, depth](int worker) {
      auto& out = thread_bufs_[static_cast<std::size_t>(worker)];
      out.clear();
      const std::size_t total = ws_.frontier.size();
      for (;;) {
        // mo: relaxed — bare chunk ticket (BSP note in run_phase).
        const std::size_t begin =
            cursor_.fetch_add(kChunk, std::memory_order_relaxed);
        if (begin >= total) break;
        const std::size_t end = std::min(begin + kChunk, total);
        for (std::size_t i = begin; i < end; ++i) {
          const Vertex v = ws_.frontier[i];
          for (std::int32_t s = adj_offset_[v]; s < adj_offset_[v + 1];
               ++s) {
            const ArcId a = adj_arcs_[s];
            const Vertex w = arc_head_[a];
            if (w == source_) continue;
            // Residual of the reverse arc (w -> v) admits w one level up.
            // mo: relaxed — flows are frozen during the BFS (no discharge
            // phase runs concurrently; BSP note in run_phase).
            if (cap_[a ^ 1] - flow_[a ^ 1].load(std::memory_order_relaxed) <=
                0) {
              continue;
            }
            // mo: relaxed — discovery ticket: RMW atomicity elects one
            // claimant; the level write is claimant-only and the next
            // depth's barrier publishes it.
            if (bfs_stamp_[w].exchange(gr_stamp_,
                                       std::memory_order_relaxed) ==
                gr_stamp_) {
              continue;
            }
            ws_.level[w] = depth;
            out.push_back(w);
          }
        }
      }
    });
    ws_.next_frontier.clear();
    for (const auto& buf : thread_bufs_) {
      ws_.next_frontier.insert(ws_.next_frontier.end(), buf.begin(),
                               buf.end());
    }
    std::swap(ws_.frontier, ws_.next_frontier);
  }
  ws_.level[source_] = nn;
  std::copy(ws_.level.begin(),
            ws_.level.begin() + static_cast<std::ptrdiff_t>(n),
            ws_.next_level.begin());
  work_since_gr_ = 0;
  check_exact_labels("round_pr.post_global_relabel");
}

void RoundPushRelabel::seed_active() {
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  ws_.active.clear();
  for (Vertex v = 0; v < net_.num_vertices(); ++v) {
    if (v == source_ || v == sink_) continue;
    // mo: relaxed — coordinator-only scan between phases (BSP note).
    if (excess_[v].load(std::memory_order_relaxed) > 0 && ws_.level[v] < n) {
      ws_.active.push_back(v);
    }
  }
}

void RoundPushRelabel::filter_active() {
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  std::size_t kept = 0;
  for (const Vertex v : ws_.active) {
    if (ws_.level[v] < n) ws_.active[kept++] = v;
  }
  ws_.active.resize(kept);
}

Cap RoundPushRelabel::resume() {
  run_round_stats_ = RoundStats{};
  run_pushes_ = run_relabels_ = run_discharges_ = 0;
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  const Cap value = threads_ == 1 || n < parallel_cutoff_
                        ? resume_sequential()
                        : resume_rounds();
  fold_run_stats();
  return value;
}

Cap RoundPushRelabel::resume_sequential() {
  const Cap value = sequential_.resume();
  // Move the run's counts over, leaving the delegate's own total at zero.
  const graph::FlowStats run = sequential_.stats();
  sequential_.reset_stats();
  run_pushes_ = run.pushes;
  run_relabels_ = run.relabels;
  stats_.global_relabels += run.global_relabels;
  stats_.gap_jumps += run.gap_jumps;
  run_round_stats_.rounds = 1;
  run_round_stats_.sequential_passes = 1;
  run_round_stats_.global_relabels = run.global_relabels;
  return value;
}

Cap RoundPushRelabel::resume_rounds() {
  const auto n = static_cast<std::size_t>(net_.num_vertices());
  const auto m = static_cast<std::size_t>(net_.num_arcs());
  copy_in();
  // Defensive re-zero of the delta array: every committed round leaves it
  // all-zero, but a rebind may have exposed stale slots.
  // mo: relaxed — single-threaded prologue (copy_in note, engine_base.cpp).
  for (std::size_t v = 0; v < n; ++v) {
    excess_diff_[v].store(0, std::memory_order_relaxed);
  }
  saturate_source_arcs();
  gr_threshold_ = static_cast<std::uint64_t>(n) + m;
  global_relabel();
  seed_active();
  for (;;) {
    while (!ws_.active.empty()) {
      run_round_stats_.active_peak = std::max(
          run_round_stats_.active_peak,
          static_cast<std::uint64_t>(ws_.active.size()));
      if (work_since_gr_ > 2 * gr_threshold_) {
        global_relabel();
        filter_active();
        if (ws_.active.empty()) break;
      }
      discharge_active();
      apply_updates();
      ++run_round_stats_.rounds;
      check_round_invariants("round_pr.post_commit");
    }
    // No active vertex below level n is left — but labels may be broken
    // from parallelism, so only an exact relabel plus a rescan can prove
    // termination (WHFC's termination check).
    global_relabel();
    seed_active();
    if (ws_.active.empty()) break;
  }
  drain_stranded_excess();
  copy_out();
  // mo: relaxed — single-threaded epilogue (see the seam note below).
  const Cap value = excess_[sink_].load(std::memory_order_relaxed);
  // Post-solve seam (single-threaded epilogue; every parallel phase ended
  // at a pool barrier, so the relaxed loads in copy_out observed final
  // values): flows copied back to the shared network must be a conserved
  // flow whose sink inflow matches the engine's own excess accounting.
  REPFLOW_CHECK_FLOW(net_, source_, sink_, "round_pr.post_resume");
#if REPFLOW_INVARIANTS_ENABLED
  if (net_.flow_into(sink_) != value) {
    analysis::InvariantReport report;
    report.fail("engine sink excess " + std::to_string(value) +
                " != network sink inflow " +
                std::to_string(net_.flow_into(sink_)));
    analysis::enforce(report, "round_pr.post_resume");
  }
#endif
  // Keep the delegate's excess bookkeeping in line with the network, in
  // case a later resume() (after a cutoff change) is handed to it.
  sequential_.reset_excess_after_restore(value);
  return value;
}

void RoundPushRelabel::fold_run_stats() {
  stats_.pushes += run_pushes_;
  stats_.relabels += run_relabels_;
  // obs: per-resume — run totals folded once, after the last round.
  registry_.pushes.add(run_pushes_);
  registry_.relabels.add(run_relabels_);
  registry_.discharges.add(run_discharges_);
  registry_.resumes.add(1);
  registry_.rounds.add(run_round_stats_.rounds);
  // obs: per-resume — see above.
  registry_.sequential_passes.add(run_round_stats_.sequential_passes);
  registry_.global_relabels.add(run_round_stats_.global_relabels);
  registry_.discharge_work.add(run_round_stats_.discharge_work);
  registry_.active_peak.set(
      static_cast<double>(run_round_stats_.active_peak));
  cumulative_round_stats_.rounds += run_round_stats_.rounds;
  cumulative_round_stats_.sequential_passes +=
      run_round_stats_.sequential_passes;
  cumulative_round_stats_.global_relabels +=
      run_round_stats_.global_relabels;
  cumulative_round_stats_.discharge_work +=
      run_round_stats_.discharge_work;
  cumulative_round_stats_.active_peak = std::max(
      cumulative_round_stats_.active_peak, run_round_stats_.active_peak);
}

void RoundPushRelabel::reset_excess_after_restore(Cap sink_excess) {
  // The rounds recompute excess from the conserved flows at every resume();
  // only the sequential delegate carries excess across runs.
  sequential_.reset_excess_after_restore(sink_excess);
}

std::size_t RoundPushRelabel::retained_bytes() const {
  std::size_t total =
      retained_bytes_base() +
      excess_diff_.size() * sizeof(std::atomic<Cap>) +
      (last_activated_.size() + bfs_stamp_.size()) *
          sizeof(std::atomic<std::uint32_t>);
  for (const auto& buf : thread_bufs_) {
    total += buf.capacity() * sizeof(Vertex);
  }
  // External workspaces are counted by their owner (MaxflowWorkspace).
  if (&ws_ == &owned_workspace_) total += ws_.retained_bytes();
  total += sequential_.workspace().retained_bytes();
  return total;
}

#if REPFLOW_INVARIANTS_ENABLED

// Round-boundary preflow validity on the engine's internal arrays (the
// network itself is only updated at copy_out): arc bounds + antisymmetry,
// non-negative committed excess away from the source, and committed excess
// consistent with the flows (all excess_diff_ deltas were committed).
void RoundPushRelabel::check_round_invariants(const char* where) const {
  analysis::InvariantReport report;
  const auto m = static_cast<ArcId>(net_.num_arcs());
  // mo: relaxed — invariant checks run on the coordinator between phases,
  // after the barrier published every worker write (BSP note).
  for (ArcId a = 0; a < m; a += 2) {
    const Cap f = flow_[a].load(std::memory_order_relaxed);
    const Cap fr = flow_[a ^ 1].load(std::memory_order_relaxed);
    if (fr != -f) {
      report.fail("arc " + std::to_string(a) + ": antisymmetry broken (" +
                  std::to_string(f) + " vs " + std::to_string(fr) + ")");
    }
    if (f > cap_[a] || fr > cap_[a ^ 1]) {
      report.fail("arc " + std::to_string(a) + ": capacity exceeded");
    }
  }
  for (Vertex v = 0; v < net_.num_vertices(); ++v) {
    if (v == source_) continue;
    Cap net_out = 0;
    // mo: relaxed — between-phase invariant check (note above).
    for (std::int32_t i = adj_offset_[v]; i < adj_offset_[v + 1]; ++i) {
      net_out += flow_[adj_arcs_[i]].load(std::memory_order_relaxed);
    }
    const Cap excess = excess_[v].load(std::memory_order_relaxed);
    if (excess < 0) {
      report.fail("vertex " + std::to_string(v) + ": negative excess " +
                  std::to_string(excess));
    }
    if (excess != -net_out) {
      report.fail("vertex " + std::to_string(v) + ": committed excess " +
                  std::to_string(excess) + " != inflow-outflow " +
                  std::to_string(-net_out));
    }
  }
  analysis::enforce(report, where);
}

// Labels straight out of global_relabel() are exact distances, so full
// height-function validity must hold: level(s)=n, level(t)=0, and
// level(u) <= level(w)+1 on every residual arc.
void RoundPushRelabel::check_exact_labels(const char* where) const {
  analysis::InvariantReport report;
  const auto n = static_cast<std::int32_t>(net_.num_vertices());
  if (ws_.level[source_] != n) report.fail("source level != n");
  if (ws_.level[sink_] != 0) report.fail("sink level != 0");
  for (Vertex u = 0; u < net_.num_vertices(); ++u) {
    for (std::int32_t i = adj_offset_[u]; i < adj_offset_[u + 1]; ++i) {
      const ArcId a = adj_arcs_[i];
      // mo: relaxed — between-phase invariant check (note above).
      if (cap_[a] - flow_[a].load(std::memory_order_relaxed) <= 0) continue;
      const Vertex w = arc_head_[a];
      if (ws_.level[u] < n && ws_.level[u] > ws_.level[w] + 1) {
        report.fail("residual arc " + std::to_string(u) + "->" +
                    std::to_string(w) + ": level " +
                    std::to_string(ws_.level[u]) + " > " +
                    std::to_string(ws_.level[w]) + " + 1");
      }
    }
  }
  analysis::enforce(report, where);
}

#else  // !REPFLOW_INVARIANTS_ENABLED

void RoundPushRelabel::check_round_invariants(const char* /*where*/) const {}
void RoundPushRelabel::check_exact_labels(const char* /*where*/) const {}

#endif  // REPFLOW_INVARIANTS_ENABLED

}  // namespace repflow::parallel
