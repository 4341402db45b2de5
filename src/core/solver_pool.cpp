#include "core/solver_pool.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "parallel/parallel_engine.h"

namespace repflow::core {

namespace {

// Reuse telemetry, resolved once per process (registry lookup takes a
// mutex; these adds must stay on the lock-free path).
struct PoolMetrics {
  obs::Counter& reuse_hits;
  obs::Counter& rebuilds;
  obs::Gauge& retained_bytes;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics{
      obs::Registry::global().counter("workspace.reuse_hits"),
      obs::Registry::global().counter("workspace.rebuilds"),
      obs::Registry::global().gauge("workspace.retained_bytes")};
  return metrics;
}

// Slot accessor: construct on first use (a rebuild), reuse afterwards.
template <typename T, typename... Args>
T& slot(std::unique_ptr<T>& shell, Args&&... args) {
  if (shell) {
    pool_metrics().reuse_hits.add(1);
  } else {
    pool_metrics().rebuilds.add(1);
    shell = std::make_unique<T>(std::forward<Args>(args)...);
  }
  return *shell;
}

}  // namespace

SolverPool::SolverPool(int threads) : threads_(threads) {
  if (threads < 1) {
    throw std::invalid_argument("SolverPool: threads < 1");
  }
}

SolverPool::~SolverPool() = default;

void SolverPool::set_threads(int threads) {
  if (threads < 1) {
    throw std::invalid_argument("SolverPool::set_threads: threads < 1");
  }
  if (threads == threads_) return;
  threads_ = threads;
  // Rebuilt with the new worker count on next use.
  parallel_hong_he_.reset();
  parallel_round_.reset();
}

void SolverPool::solve_into(const RetrievalProblem& problem, SolverKind kind,
                            SolveResult& result) {
  switch (kind) {
    case SolverKind::kFordFulkersonBasic:
      slot(ff_basic_).solve_into(problem, result);
      break;
    case SolverKind::kFordFulkersonIncremental:
      slot(ff_incremental_).solve_into(problem, result);
      break;
    case SolverKind::kPushRelabelIncremental:
      slot(pr_incremental_).solve_into(problem, result);
      break;
    case SolverKind::kPushRelabelBinary:
      slot(pr_binary_).solve_into(problem, result);
      break;
    case SolverKind::kBlackBoxBinary:
      slot(black_box_).solve_into(problem, result);
      break;
    case SolverKind::kParallelPushRelabelBinary: {
      std::unique_ptr<PushRelabelBinarySolver>& shell =
          engine_kind_ == EngineKind::kRound ? parallel_round_
                                             : parallel_hong_he_;
      // Not slot(): the factory argument must only be built when the slot
      // is actually constructed, or every reuse hit would re-create a
      // std::function.
      if (shell) {
        pool_metrics().reuse_hits.add(1);
      } else {
        pool_metrics().rebuilds.add(1);
        shell = std::make_unique<PushRelabelBinarySolver>(
            parallel::parallel_engine_factory(threads_, engine_kind_));
      }
      shell->solve_into(problem, result);
      break;
    }
    case SolverKind::kIntegratedMatching:
      slot(matching_).solve_into(problem, result);
      break;
  }
  pool_metrics().retained_bytes.set(static_cast<double>(retained_bytes()));
}

SolveResult SolverPool::solve(const RetrievalProblem& problem,
                              SolverKind kind) {
  SolveResult result;
  solve_into(problem, kind, result);
  return result;
}

std::size_t SolverPool::retained_bytes() const {
  std::size_t total = 0;
  if (ff_basic_) total += ff_basic_->retained_bytes();
  if (ff_incremental_) total += ff_incremental_->retained_bytes();
  if (pr_incremental_) total += pr_incremental_->retained_bytes();
  if (pr_binary_) total += pr_binary_->retained_bytes();
  if (black_box_) total += black_box_->retained_bytes();
  if (parallel_hong_he_) total += parallel_hong_he_->retained_bytes();
  if (parallel_round_) total += parallel_round_->retained_bytes();
  if (matching_) total += matching_->retained_bytes();
  return total;
}

}  // namespace repflow::core
