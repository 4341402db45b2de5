// The four workloads.  Each drives one front door of the serving spine
// through public functions only, makes its inputs from the seed, and hands
// every output to the independent oracle.
#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.h"
#include "core/batch.h"
#include "core/bipartite_matching.h"
#include "core/execution.h"
#include "core/problem.h"
#include "core/push_relabel_binary.h"
#include "core/router.h"
#include "core/stream.h"
#include "decluster/schemes.h"
#include "oracle.h"
#include "parallel/parallel_engine.h"
#include "support/rng.h"
#include "workload/disks.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace perfbench {

using repflow::Rng;
namespace core = repflow::core;
namespace decl = repflow::decluster;
namespace wl = repflow::workload;

namespace {

// Disk arrays are fixed per workload (drawn from these constants), so every
// seed runs on the same hardware model; the seed draws allocations,
// queries and arrivals.
constexpr std::uint64_t kArraySeed = 0x5eed0a77a7ULL;

oracle::Instance to_instance(const core::RetrievalProblem& p) {
  oracle::Instance inst;
  inst.replicas.reserve(p.replicas.size());
  for (const auto& r : p.replicas) {
    inst.replicas.emplace_back(r.begin(), r.end());
  }
  inst.cost = p.system.cost_ms;
  inst.delay = p.system.delay_ms;
  inst.load = p.system.init_load_ms;
  return inst;
}

std::vector<int> to_assignment(const core::Schedule& s) {
  return std::vector<int>(s.assigned_disk.begin(), s.assigned_disk.end());
}

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

/// Per-call counters summed from SolveResult fields.
struct SolveCounts {
  double solves = 0;
  double probes = 0, steps = 0;
  double flow_solves = 0, pushes = 0, relabels = 0, global_relabels = 0,
         gap_jumps = 0;
  double matching_solves = 0, hk_phases = 0, augmentations = 0,
         dfs_visits = 0;
};

void count_solve(const core::SolveResult& r, core::SolverKind kind,
                 SolveCounts& c) {
  c.solves += 1;
  c.probes += static_cast<double>(r.binary_probes);
  c.steps += static_cast<double>(r.capacity_steps);
  if (kind == core::SolverKind::kIntegratedMatching) {
    c.matching_solves += 1;
    c.hk_phases += static_cast<double>(r.flow_stats.global_relabels);
    c.augmentations += static_cast<double>(r.flow_stats.augmentations);
    c.dfs_visits += static_cast<double>(r.flow_stats.dfs_visits);
  } else {
    c.flow_solves += 1;
    c.pushes += static_cast<double>(r.flow_stats.pushes);
    c.relabels += static_cast<double>(r.flow_stats.relabels);
    c.global_relabels += static_cast<double>(r.flow_stats.global_relabels);
    c.gap_jumps += static_cast<double>(r.flow_stats.gap_jumps);
  }
}

/// Solve `problems` through a fresh context on `policy` and through the
/// bare driver shell of each selected kind, alternating per problem, and
/// report selection, overhead and the SolveResult counters.
void spine_layers(const std::vector<core::RetrievalProblem>& problems,
                  const core::ExecutionPolicy& policy, LayerMap& out) {
  core::ExecutionContext ctx(policy);
  core::PushRelabelBinarySolver bare_alg6;
  core::IntegratedMatchingSolver bare_matching(core::MatchingEngine::kSerial);
  std::unique_ptr<core::PushRelabelBinarySolver> bare_parallel;
  core::SolveResult r1, r2;
  SolveCounts counts;
  double picked_matching = 0, picked_alg6 = 0;
  std::vector<double> select_us, ctx_us, bare_us;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms both sides
    for (const auto& p : problems) {
      const std::int64_t t0 = wall_ns();
      const core::SolverKind kind = ctx.select(p);
      const std::int64_t t1 = wall_ns();
      ctx.solve_into(p, r1);
      const std::int64_t t2 = wall_ns();
      switch (kind) {
        case core::SolverKind::kIntegratedMatching:
          bare_matching.solve_into(p, r2);
          break;
        case core::SolverKind::kParallelPushRelabelBinary:
          if (!bare_parallel) {
            bare_parallel = std::make_unique<core::PushRelabelBinarySolver>(
                repflow::parallel::parallel_engine_factory(
                    policy.threads, policy.engine == core::EngineKind::kAuto
                                        ? core::EngineKind::kRound
                                        : policy.engine));
          }
          bare_parallel->solve_into(p, r2);
          break;
        default:
          bare_alg6.solve_into(p, r2);
          break;
      }
      const std::int64_t t3 = wall_ns();
      if (pass == 0) continue;
      select_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      ctx_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      bare_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
      count_solve(r1, kind, counts);
      if (kind == core::SolverKind::kIntegratedMatching) ++picked_matching;
      if (kind == core::SolverKind::kPushRelabelBinary) ++picked_alg6;
    }
  }
  out["exec.select_us"] = median(select_us);
  out["exec.overhead_us"] = median(ctx_us) - median(bare_us);
  out["exec.picked_matching"] = picked_matching;
  out["exec.picked_alg6"] = picked_alg6;
  out["driver.probes_per_solve"] = per(counts.probes, counts.solves);
  out["driver.steps_per_solve"] = per(counts.steps, counts.solves);
  out["kernel.pushes_per_solve"] = per(counts.pushes, counts.flow_solves);
  out["kernel.relabels_per_solve"] = per(counts.relabels, counts.flow_solves);
  out["kernel.global_relabels_per_solve"] =
      per(counts.global_relabels, counts.flow_solves);
  out["kernel.gap_jumps_per_solve"] =
      per(counts.gap_jumps, counts.flow_solves);
  out["kernel.hk_phases_per_solve"] =
      per(counts.hk_phases, counts.matching_solves);
  out["kernel.augmentations_per_solve"] =
      per(counts.augmentations, counts.matching_solves);
  out["kernel.dfs_visits_per_solve"] =
      per(counts.dfs_visits, counts.matching_solves);
}

/// Checks a list of independent solves: oracle on the reference round,
/// equality (or the oracle again) on every later round.
class SolveChecker {
 public:
  std::string check(std::size_t i, const core::RetrievalProblem& p,
                    const core::SolveResult& r) {
    if (ref_t_.size() <= i) {
      ref_t_.resize(i + 1, std::nan(""));
      ref_assigned_.resize(i + 1);
    }
    if (!std::isnan(ref_t_[i]) && ref_t_[i] == r.response_time_ms &&
        std::equal(ref_assigned_[i].begin(), ref_assigned_[i].end(),
                   r.schedule.assigned_disk.begin(),
                   r.schedule.assigned_disk.end())) {
      return {};
    }
    const std::vector<int> assigned = to_assignment(r.schedule);
    std::string err = oracle::check(to_instance(p), assigned,
                                    r.response_time_ms);
    if (!err.empty()) return "problem " + std::to_string(i) + ": " + err;
    if (std::isnan(ref_t_[i])) {
      ref_t_[i] = r.response_time_ms;
      ref_assigned_[i] = assigned;
    }
    return {};
  }

 private:
  std::vector<double> ref_t_;
  std::vector<std::vector<int>> ref_assigned_;
};

// ---------------------------------------------------------------------------
// stream_coalesce: QueryRouter (coalesce) -> QueryStreamScheduler.

class StreamCoalesce final : public Workload {
 public:
  static constexpr std::int32_t kN = 16;  // disks per site, grid N x N
  static constexpr int kArrivals = 6000;

  void setup(std::uint64_t seed) override {
    Rng array_rng(kArraySeed ^ 5);
    system_ = wl::make_experiment_system(5, kN, array_rng);
    allocation_ = std::make_unique<decl::ReplicatedAllocation>(
        decl::make_orthogonal(kN, decl::SiteMapping::kCopyPerSite));
    options_.mode = core::AdmissionMode::kCoalesce;
    options_.max_backlog_ms = 40.0;
    options_.max_coalesce = 8;
    options_.max_coalesce_age_ms = 60.0;

    // Offered load: each query's gap to the next is its greedy isolated
    // response time on the idle array divided by the spell's load factor
    // (calm 0.5, bursts 2-4x), jittered by +-50%.
    oracle::Instance idle;
    idle.cost = system_.cost_ms;
    idle.delay = system_.delay_ms;
    idle.load.assign(system_.cost_ms.size(), 0.0);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const wl::QueryGenerator gens[4] = {
        {kN, wl::QueryType::kRange, wl::LoadKind::kLoad2},
        {kN, wl::QueryType::kRange, wl::LoadKind::kLoad3},
        {kN, wl::QueryType::kArbitrary, wl::LoadKind::kLoad2},
        {kN, wl::QueryType::kArbitrary, wl::LoadKind::kLoad3}};
    queries_.clear();
    arrivals_.clear();
    double t = 0.0;
    bool burst = false;
    int left = 0;
    double factor = 0.5;
    while (static_cast<int>(queries_.size()) < kArrivals) {
      if (left == 0) {
        burst = !burst;
        left = burst ? static_cast<int>(rng.range(15, 30))
                     : static_cast<int>(rng.range(40, 80));
        factor = burst ? rng.uniform(2.0, 4.0) : 0.5;
      }
      --left;
      // The four (type, load) mixes take turns, so every seed has the same
      // share of each.
      queries_.push_back(gens[queries_.size() % 4].next(rng));
      arrivals_.push_back(t);
      idle.replicas.clear();
      for (auto b : queries_.back()) idle.replicas.push_back(replicas_of(b));
      t += oracle::greedy_time(idle) / factor * rng.uniform(0.5, 1.5);
    }
    outcomes_.assign(queries_.size(), core::RouterOutcome{});
    Recorder warm(false);
    run_round(warm);
  }

  void run_round(Recorder& rec) override {
    scheduler_ = std::make_unique<core::QueryStreamScheduler>(
        *allocation_, system_, core::ExecutionPolicy{});
    router_ = std::make_unique<core::QueryRouter>(*scheduler_, options_);
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      rec.time(
          [&] { outcomes_[i] = router_->submit(queries_[i], arrivals_[i]); });
    }
    rec.time([&] { final_flush_ = router_->flush(arrivals_.back()); });
    stats_ = router_->stats();
  }

  std::string verify_round() override {
    if (!reference_.empty()) {
      bool same = true;
      for (std::size_t i = 0; i < outcomes_.size() && same; ++i) {
        same = outcomes_[i].decision == reference_[i].decision &&
               outcomes_[i].event.has_value() ==
                   reference_[i].event.has_value() &&
               (!outcomes_[i].event ||
                (outcomes_[i].event->response_ms ==
                     reference_[i].event->response_ms &&
                 outcomes_[i].event->schedule.assigned_disk ==
                     reference_[i].event->schedule.assigned_disk));
      }
      same = same && final_flush_.has_value() == ref_flush_.has_value() &&
             (!final_flush_ || final_flush_->schedule.assigned_disk ==
                                   ref_flush_->schedule.assigned_disk);
      if (same) return {};
    }
    std::string err = replay();
    if (err.empty() && reference_.empty()) {
      reference_ = outcomes_;
      ref_flush_ = final_flush_;
    }
    return err;
  }

  std::int64_t queries_per_round() const override {
    return static_cast<std::int64_t>(queries_.size());
  }
  const std::vector<double>& model_responses() const override {
    return responses_;
  }

  void layer_metrics(LayerMap& out, double, double) override {
    out["router.flushes"] = static_cast<double>(stats_.flushes);
    out["router.merged_per_flush"] =
        per(static_cast<double>(stats_.coalesced),
            static_cast<double>(stats_.flushes));
    out["router.dedup_hits"] = static_cast<double>(stats_.dedup_hits);
    double backlog = 0;
    for (double b : backlogs_) backlog += b;
    out["stream.backlog_model_ms"] =
        per(backlog, static_cast<double>(backlogs_.size()));
    std::vector<double> build_us;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& q : queries_) {
        const std::int64_t t0 = wall_ns();
        const core::RetrievalProblem p =
            core::build_problem(*allocation_, q, system_);
        const std::int64_t t1 = wall_ns();
        if (pass == 1) {
          build_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        }
      }
    }
    out["stream.build_us"] = median(build_us);
    spine_layers(submitted_, core::ExecutionPolicy{}, out);
  }

 private:
  /// The oracle's own orthogonal layout: copy 1 on site 0 at (i + j) mod N,
  /// copy 2 on site 1 at N + (i + 2j) mod N.
  static std::vector<int> replicas_of(int bucket) {
    const int row = bucket / kN, col = bucket % kN;
    return {(row + col) % kN, kN + (row + 2 * col) % kN};
  }

  /// Replay the round in the oracle: rebuild every submission from the
  /// router's decisions, recompute X_j from the schedules before it, check
  /// each schedule, and account each arrival's model response.
  std::string replay() {
    oracle::Horizon horizon(system_.cost_ms, system_.delay_ms);
    responses_.assign(queries_.size(), 0.0);
    backlogs_.clear();
    submitted_.clear();
    std::vector<std::size_t> pending;
    std::vector<int> where(kN * kN, -1);
    auto submit = [&](const core::StreamEvent& ev,
                      const std::vector<std::size_t>& members) -> std::string {
      std::vector<std::vector<int>> replicas;
      std::vector<int> order;
      for (std::size_t q : members) {
        for (auto b : queries_[q]) {
          if (where[b] >= 0) continue;
          where[b] = static_cast<int>(replicas.size());
          order.push_back(b);
          replicas.push_back(replicas_of(b));
        }
      }
      const double t = ev.arrival_ms;
      const oracle::Instance inst = horizon.at(t, std::move(replicas));
      const std::vector<int> assigned = to_assignment(ev.schedule);
      std::string err;
      if (ev.buckets != static_cast<std::int64_t>(inst.replicas.size())) {
        err = "submission carries " + std::to_string(ev.buckets) +
              " buckets, oracle expects " +
              std::to_string(inst.replicas.size());
      }
      const double backlog = std::max(0.0, horizon.max_backlog(t));
      if (err.empty() &&
          std::fabs(backlog - ev.max_initial_load_ms) > 1e-9 * (1 + backlog)) {
        err = "backlog " + std::to_string(ev.max_initial_load_ms) +
              ", oracle " + std::to_string(backlog);
      }
      if (err.empty()) err = oracle::check(inst, assigned, ev.response_ms);
      if (!err.empty()) {
        for (int b : order) where[b] = -1;
        return err;
      }
      std::vector<std::int64_t> count(inst.disks(), 0);
      for (int d : assigned) ++count[d];
      for (std::size_t q : members) {
        double done = t;
        for (auto b : queries_[q]) {
          const int d = assigned[where[b]];
          done = std::max(done, t + inst.completion(d, count[d]));
        }
        responses_[q] = done - arrivals_[q];
      }
      horizon.commit(t, inst, assigned);
      backlogs_.push_back(backlog);
      core::RetrievalProblem p;
      p.system = system_;
      p.system.init_load_ms = inst.load;
      for (const auto& r : inst.replicas) {
        p.replicas.emplace_back(r.begin(), r.end());
      }
      submitted_.push_back(std::move(p));
      for (int b : order) where[b] = -1;
      return {};
    };
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      const core::RouterOutcome& o = outcomes_[i];
      std::string err;
      switch (o.decision) {
        case core::RouterDecision::kCoalesced:
          pending.push_back(i);
          break;
        case core::RouterDecision::kFlushed:
          pending.push_back(i);
          if (!o.event) return "flush without an event";
          err = submit(*o.event, pending);
          pending.clear();
          break;
        case core::RouterDecision::kAdmitted:
          if (!pending.empty()) return "admit with queries still buffered";
          if (!o.event) return "admit without an event";
          err = submit(*o.event, {i});
          break;
        case core::RouterDecision::kShed:
          return "query shed in coalesce mode";
      }
      if (!err.empty()) return "arrival " + std::to_string(i) + ": " + err;
    }
    if (pending.empty() != !final_flush_.has_value()) {
      return "final flush disagrees with the buffered queries";
    }
    if (final_flush_) {
      std::string err = submit(*final_flush_, pending);
      if (!err.empty()) return "final flush: " + err;
    }
    return {};
  }

  wl::SystemConfig system_;
  std::unique_ptr<decl::ReplicatedAllocation> allocation_;
  core::RouterOptions options_;
  std::vector<wl::Query> queries_;
  std::vector<double> arrivals_;
  std::unique_ptr<core::QueryStreamScheduler> scheduler_;
  std::unique_ptr<core::QueryRouter> router_;
  std::vector<core::RouterOutcome> outcomes_;
  std::optional<core::StreamEvent> final_flush_;
  core::RouterStats stats_;
  std::vector<core::RouterOutcome> reference_;
  std::optional<core::StreamEvent> ref_flush_;
  std::vector<double> responses_;
  std::vector<double> backlogs_;
  std::vector<core::RetrievalProblem> submitted_;
};

// ---------------------------------------------------------------------------
// Workloads of independent problems through one front door.

class ProblemSet : public Workload {
 public:
  std::string verify_round() override {
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      std::string err = checker_.check(i, problems_[i], result(i));
      if (!err.empty()) return err;
    }
    if (responses_.empty()) {
      for (std::size_t i = 0; i < problems_.size(); ++i) {
        responses_.push_back(result(i).response_time_ms);
      }
    }
    return {};
  }
  std::int64_t queries_per_round() const override {
    return static_cast<std::int64_t>(problems_.size());
  }
  const std::vector<double>& model_responses() const override {
    return responses_;
  }

 protected:
  virtual const core::SolveResult& result(std::size_t i) const = 0;

  std::vector<core::RetrievalProblem> problems_;
  SolveChecker checker_;
  std::vector<double> responses_;
};

/// One ExecutionContext on a pinned policy, one solve_into per problem.
class ContextWorkload : public ProblemSet {
 public:
  void run_round(Recorder& rec) override {
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      rec.time([&] { ctx_->solve_into(problems_[i], results_[i]); });
    }
  }

 protected:
  void start(const core::ExecutionPolicy& policy) {
    policy_ = policy;
    ctx_ = std::make_unique<core::ExecutionContext>(policy);
    results_.assign(problems_.size(), core::SolveResult{});
    Recorder warm(false);
    run_round(warm);
  }
  const core::SolveResult& result(std::size_t i) const override {
    return results_[i];
  }

  core::ExecutionPolicy policy_;
  std::unique_ptr<core::ExecutionContext> ctx_;
  std::vector<core::SolveResult> results_;
};

// paper_alg6: the Figure 7-9 cells, every problem solved by alg6.
class PaperAlg6 final : public ContextWorkload {
 public:
  static constexpr std::int32_t kN = 16;
  static constexpr int kPerCell = 32;

  void setup(std::uint64_t seed) override {
    problems_.clear();
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 6);
    for (std::int32_t exp : {1, 3, 5}) {
      Rng array_rng(kArraySeed ^ static_cast<std::uint64_t>(exp));
      const wl::SystemConfig sys =
          wl::make_experiment_system(exp, kN, array_rng);
      for (auto scheme : {decl::Scheme::kRda, decl::Scheme::kOrthogonal,
                          decl::Scheme::kDependent}) {
        const auto alloc = decl::make_scheme(
            scheme, kN, decl::SiteMapping::kCopyPerSite, rng);
        for (auto type : {wl::QueryType::kRange, wl::QueryType::kArbitrary}) {
          for (auto load : {wl::LoadKind::kLoad1, wl::LoadKind::kLoad2,
                            wl::LoadKind::kLoad3}) {
            const wl::QueryGenerator gen(kN, type, load);
            for (int k = 0; k < kPerCell; ++k) {
              problems_.push_back(
                  core::build_problem(alloc, gen.next(rng), sys));
            }
          }
        }
      }
    }
    start(core::ExecutionPolicy::pinned(core::SolverKind::kPushRelabelBinary));
  }

  void layer_metrics(LayerMap& out, double, double) override {
    spine_layers(problems_, policy_, out);
  }
};

// fig10_round: Figure 10 problems on the parallel kind, round engine.
class Fig10Round final : public ContextWorkload {
 public:
  static constexpr std::int32_t kN = 40;
  static constexpr int kProblems = 96;
  static constexpr int kThreads = 2;

  void setup(std::uint64_t seed) override {
    problems_.clear();
    Rng array_rng(kArraySeed ^ 10);
    const wl::SystemConfig sys = wl::make_experiment_system(5, kN, array_rng);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 10);
    const auto alloc = decl::make_scheme(decl::Scheme::kRda, kN,
                                         decl::SiteMapping::kCopyPerSite, rng);
    const wl::QueryGenerator gen(kN, wl::QueryType::kArbitrary,
                                 wl::LoadKind::kLoad1);
    for (int i = 0; i < kProblems; ++i) {
      problems_.push_back(core::build_problem(alloc, gen.next(rng), sys));
    }
    core::ExecutionPolicy policy = core::ExecutionPolicy::pinned(
        core::SolverKind::kParallelPushRelabelBinary, kThreads);
    policy.engine = core::EngineKind::kRound;
    start(policy);
  }

  void layer_metrics(LayerMap& out, double round_busy_us,
                     double cpu_per_wall) override {
    spine_layers(problems_, policy_, out);
    out["parallel.cpu_per_wall"] = cpu_per_wall;
    // Sequential alg6 on the same problems, for the speedup of the round
    // engine.
    core::ExecutionContext seq(
        core::ExecutionPolicy::pinned(core::SolverKind::kPushRelabelBinary));
    core::SolveResult r;
    std::int64_t seq_ns = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& p : problems_) {
        const std::int64_t t0 = wall_ns();
        seq.solve_into(p, r);
        if (pass == 1) seq_ns += wall_ns() - t0;
      }
    }
    out["parallel.vs_seq"] =
        per(static_cast<double>(seq_ns) * 1e-3, round_busy_us);
  }
};

// batch_large: coalesced-size problems through BatchSolver, two workers.
class BatchLarge final : public ProblemSet {
 public:
  static constexpr int kDisks = 32;
  static constexpr int kCopies = 3;
  static constexpr int kHot = 4;
  static constexpr int kBatches = 16;
  static constexpr int kPerBatch = 8;
  static constexpr int kWorkers = 2;

  void setup(std::uint64_t seed) override {
    // Hot/slow skew: the first kHot disks are the slowest model and draw
    // a third of all replicas.
    wl::SystemConfig sys;
    sys.num_sites = 2;
    sys.disks_per_site = kDisks / 2;
    Rng array_rng(kArraySeed ^ 32);
    const auto& catalog = wl::disk_catalog();
    for (int d = 0; d < kDisks; ++d) {
      const wl::DiskSpec& spec =
          d < kHot ? wl::disk_by_model("Barracuda")
                   : catalog[array_rng.below(catalog.size())];
      sys.cost_ms.push_back(spec.access_time_ms);
      sys.model.push_back(spec.model);
      sys.delay_ms.push_back(d < kDisks / 2 ? 2.0 : 6.0);
      sys.init_load_ms.push_back(wl::sample_stepped(0, 10, 2, array_rng));
    }
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 32);
    problems_.clear();
    batches_.assign(kBatches, {});
    for (int b = 0; b < kBatches; ++b) {
      for (int k = 0; k < kPerBatch; ++k) {
        core::RetrievalProblem p;
        p.system = sys;
        // Sizes stratified over [1000, 3000) so every seed gets the same
        // size profile; the seed still draws each size and all replicas.
        const int slot = b * kPerBatch + k;
        const auto q = static_cast<std::int64_t>(
            1000 + 2000 * (slot + rng.uniform01()) / (kBatches * kPerBatch));
        p.replicas.resize(static_cast<std::size_t>(q));
        for (auto& r : p.replicas) {
          while (static_cast<int>(r.size()) < kCopies) {
            const auto d = static_cast<core::DiskId>(
                rng.chance(1.0 / 3.0) ? rng.below(kHot)
                                      : kHot + rng.below(kDisks - kHot));
            if (std::find(r.begin(), r.end(), d) == r.end()) r.push_back(d);
          }
        }
        batches_[b].push_back(p);
        problems_.push_back(std::move(p));
      }
    }
    results_.assign(kBatches, {});
    core::BatchOptions options;
    options.threads = kWorkers;
    options.policy = core::ExecutionPolicy{};
    solver_ = std::make_unique<core::BatchSolver>(options);
    Recorder warm(false);
    run_round(warm);
  }

  void run_round(Recorder& rec) override {
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      rec.time([&] { solver_->solve_into(batches_[b], results_[b]); });
    }
  }

  void layer_metrics(LayerMap& out, double round_busy_us,
                     double cpu_per_wall) override {
    spine_layers(problems_, core::ExecutionPolicy{}, out);
    out["batch.cpu_per_wall"] = cpu_per_wall;
    core::ExecutionContext one(core::ExecutionPolicy{});
    core::SolveResult r;
    std::int64_t one_ns = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& p : problems_) {
        const std::int64_t t0 = wall_ns();
        one.solve_into(p, r);
        if (pass == 1) one_ns += wall_ns() - t0;
      }
    }
    out["batch.efficiency"] =
        per(static_cast<double>(one_ns) * 1e-3, kWorkers * round_busy_us);
  }

 protected:
  const core::SolveResult& result(std::size_t i) const override {
    return results_[i / kPerBatch][i % kPerBatch];
  }

 private:
  std::vector<std::vector<core::RetrievalProblem>> batches_;
  std::vector<std::vector<core::SolveResult>> results_;
  std::unique_ptr<core::BatchSolver> solver_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "stream_coalesce") return std::make_unique<StreamCoalesce>();
  if (name == "paper_alg6") return std::make_unique<PaperAlg6>();
  if (name == "batch_large") return std::make_unique<BatchLarge>();
  if (name == "fig10_round") return std::make_unique<Fig10Round>();
  return nullptr;
}

}  // namespace perfbench
