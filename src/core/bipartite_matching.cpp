#include "core/bipartite_matching.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "analysis/schedule_invariants.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace repflow::core {

namespace {

constexpr std::int32_t kUnreachable = std::numeric_limits<std::int32_t>::max();

// Kernel observability handles, resolved once per process.
struct MatchingMetrics {
  obs::Counter& phase_count;
  obs::Counter& retained_hits;
  obs::Histogram& path_len;
  obs::Counter& visits;
};

MatchingMetrics& matching_metrics() {
  static MatchingMetrics metrics{
      obs::Registry::global().counter("matching.phase_count"),
      obs::Registry::global().counter("matching.retained_matching_hits"),
      obs::Registry::global().histogram("matching.augmenting_path_len"),
      obs::Registry::global().counter("matching.visits")};
  return metrics;
}

// Branch-free blocked scan over a full disk's slot segment [s, s_end):
// returns the first slot holding an admissible next-layer child
// (phase-stamped, dist == next_dist), or s_end.  Sixteen-slot blocks fold
// the eligibility predicate into a bitmask with no per-element branch,
// then countr_zero picks the hit — the c > 2 adversarial shapes spend most
// of their DFS time here scanning mostly-ineligible slots, where a branchy
// scan mispredicts per slot.
inline std::int32_t scan_slots(const graph::MatchingWorkspace& ws,
                               std::int32_t s, const std::int32_t s_end,
                               const std::uint32_t epoch,
                               const std::int32_t next_dist) {
  while (s < s_end) {
    const std::int32_t block_end = std::min<std::int32_t>(s + 16, s_end);
    unsigned mask = 0;
    for (std::int32_t k = s; k < block_end; ++k) {
      const auto w =
          static_cast<std::size_t>(ws.slots[static_cast<std::size_t>(k)]);
      const unsigned ok = static_cast<unsigned>(ws.bucket_epoch[w] == epoch) &
                          static_cast<unsigned>(ws.dist[w] == next_dist);
      mask |= ok << static_cast<unsigned>(k - s);
    }
    if (mask != 0) return s + static_cast<std::int32_t>(std::countr_zero(mask));
    s = block_end;
  }
  return s_end;
}

// Apply the augmenting path held in the DFS stack frames [0..top]: the
// terminal disk `d` appends the deepest bucket, and every intermediate slot
// is handed from child to parent.
inline void apply_path(graph::MatchingWorkspace& ws, const std::int32_t top,
                       const std::int32_t d) {
  const std::int32_t deepest = ws.stack_bucket[static_cast<std::size_t>(top)];
  ws.slots[static_cast<std::size_t>(
      ws.disk_first[static_cast<std::size_t>(d)] +
      ws.load[static_cast<std::size_t>(d)])] = deepest;
  ++ws.load[static_cast<std::size_t>(d)];
  ws.match[static_cast<std::size_t>(deepest)] = d;
  for (std::int32_t i = top; i >= 1; --i) {
    const std::int32_t parent = ws.stack_bucket[static_cast<std::size_t>(i - 1)];
    const std::int32_t slot = ws.stack_slot[static_cast<std::size_t>(i - 1)];
    ws.slots[static_cast<std::size_t>(slot)] = parent;
    ws.match[static_cast<std::size_t>(parent)] = ws.adj[static_cast<std::size_t>(
        ws.stack_arc[static_cast<std::size_t>(i - 1)])];
  }
}

// The layered DFS from `root`, iterative so deep paths cannot blow the call
// stack.  Descends only along the phase's BFS layering (dist[child] ==
// dist[parent] + 1) and memoizes failures as dist = -1, which keeps each
// phase linear in the layer graph.  Every disk probe counts into `visits`.
// Returns the top stack frame of the augmenting path it found (the path is
// left in the workspace stacks, ending at disk `terminal`), or -1 when the
// root is exhausted.
std::int32_t dfs_path(graph::MatchingWorkspace& ws, const std::int32_t root,
                      const std::int32_t limit, std::int64_t& visits,
                      std::int32_t& terminal) {
  const std::uint32_t epoch = ws.epoch;
  if (ws.bucket_epoch[static_cast<std::size_t>(root)] != epoch ||
      ws.dist[static_cast<std::size_t>(root)] != 0) {
    return -1;
  }
  std::int32_t* sb = ws.stack_bucket.data();
  std::int32_t* sa = ws.stack_arc.data();
  std::int32_t* ss = ws.stack_slot.data();
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
      ++visits;
      if (ws.load[static_cast<std::size_t>(d)] <
          ws.cap[static_cast<std::size_t>(d)]) {
        if (du + 1 != limit) continue;  // only shortest paths this phase
        sa[top] = e;
        terminal = d;
        return top;
      }
      // Full disk: scan its matched buckets for a next-layer child.
      const std::int32_t base = ws.disk_first[static_cast<std::size_t>(d)];
      const std::int32_t s_end = base + ws.load[static_cast<std::size_t>(d)];
      if (s < 0) s = base;
      s = scan_slots(ws, s, s_end, epoch, du + 1);
      if (s < s_end) {
        const std::int32_t w = ws.slots[static_cast<std::size_t>(s)];
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
    ws.dist[static_cast<std::size_t>(u)] = -1;
    --top;
    if (top >= 0) ++ss[top];
  }
  return -1;
}

}  // namespace

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
  // nothing.  Deterministic: a pure function of the problem.
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

// The matcher's fold point: one registry write per metric per
// augment_to_maximum() call (i.e. per probe or capacity step), never per
// path.  The path-length scan stops at the deepest length seen, so the
// flush costs O(lengths seen), not O(disks).
void BipartiteMatcher::publish_tally(const std::int64_t phases) {
  MatchingMetrics& m = matching_metrics();
  for (std::int32_t top = 0; top <= path_tally_max_; ++top) {
    std::uint64_t& paths = path_tally_[static_cast<std::size_t>(top)];
    m.path_len.observe_n(2.0 * top + 1.0, paths);  // obs: per-probe
    paths = 0;
  }
  path_tally_max_ = -1;
  m.phase_count.add(static_cast<std::uint64_t>(phases));  // obs: per-probe
}

bool BipartiteMatcher::try_augment(const std::int32_t root,
                                   const std::int32_t limit) {
  std::int32_t terminal = -1;
  const std::int32_t top = dfs_path(*ws_, root, limit, visits_, terminal);
  if (top < 0) return false;
  apply_path(*ws_, top, terminal);
  ++matched_;
  ++augmentations_;
  ++path_tally_[static_cast<std::size_t>(top)];
  path_tally_max_ = std::max(path_tally_max_, top);
  return true;
}

void BipartiteMatcher::augment_pass(const std::int32_t limit) {
  auto& ws = *ws_;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ws.free_buckets.size(); ++i) {
    const std::int32_t u = ws.free_buckets[i];
    if (!try_augment(u, limit)) ws.free_buckets[kept++] = u;
  }
  ws.free_buckets.resize(kept);
}

std::int64_t BipartiteMatcher::augment_to_maximum() {
  if (matched_ > 0) matching_metrics().retained_hits.add(1);  // obs: per-probe
  const std::int64_t phases_before = phases_;
  while (matched_ < q_) {
    std::int32_t limit = 0;
    if (!bfs_phase(limit)) break;
    ++phases_;
    const std::int64_t before = matched_;
    augment_pass(limit);
    // A phase whose BFS found a terminal always augments at least once
    // (failures don't mutate the matching); this is a loop guard only.
    if (matched_ == before) break;
  }
  publish_tally(phases_ - phases_before);
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
  return workspace_.retained_bytes() +
         saved_match_.capacity() * sizeof(std::int32_t);
}

}  // namespace repflow::core
