#include "core/batch.h"

#include <stdexcept>

namespace repflow::core {

BatchSolver::BatchSolver(BatchOptions options) : options_(options) {
  if (options_.threads < 1 || options_.policy.threads < 1) {
    throw std::invalid_argument("BatchSolver: bad thread counts");
  }
  contexts_.reserve(static_cast<std::size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    contexts_.push_back(std::make_unique<ExecutionContext>(options_.policy));
  }
  if (options_.threads > 1) {
    workers_.reserve(static_cast<std::size_t>(options_.threads));
    for (int t = 0; t < options_.threads; ++t) {
      workers_.emplace_back([this, t] { worker_entry(t); });
    }
  }
}

BatchSolver::~BatchSolver() {
  {
    support::MutexLock lock(pool_mutex_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (auto& th : workers_) th.join();
}

void BatchSolver::worker_entry(int index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      support::MutexLock lock(pool_mutex_);
      while (!shutdown_ && generation_ == seen_generation) {
        pool_cv_.wait(pool_mutex_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
    }
    drain(index);
    {
      support::MutexLock lock(pool_mutex_);
      if (--workers_running_ == 0) pool_cv_.notify_all();
    }
  }
}

void BatchSolver::drain(int index) {
  ExecutionContext& context = *contexts_[static_cast<std::size_t>(index)];
  for (;;) {
    // Fast abort: once any worker recorded an error, stop claiming work so
    // the batch call returns instead of grinding through the tail.
    // mo: acquire — pairs with the release store below so the aborting
    // worker's first_error_ write (under error_mutex_) is visible.
    if (abort_.load(std::memory_order_acquire)) return;
    // mo: relaxed — the cursor is a bare ticket; the claimed problem slot
    // was published by the pool_mutex_ generation handoff, not by this RMW.
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= problems_->size()) return;
    try {
      context.solve_into((*problems_)[i], (*results_)[i]);
    } catch (...) {
      {
        support::MutexLock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      // mo: release — publishes the error slot to peers' acquire loads.
      abort_.store(true, std::memory_order_release);
      return;
    }
  }
}

void BatchSolver::solve_into(const std::vector<RetrievalProblem>& problems,
                             std::vector<SolveResult>& results) {
  results.resize(problems.size());
  problems_ = &problems;
  results_ = &results;
  // mo: relaxed — re-arming between batches; the pool_mutex_ generation
  // handoff below publishes these stores to the workers.
  cursor_.store(0, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  {
    // Thread-safety analysis found this re-arm running without
    // error_mutex_; the previous batch's workers have quiesced (the
    // generation handoff), but the guarded discipline is now explicit
    // instead of relying on that reasoning at a distance.
    support::MutexLock lock(error_mutex_);
    first_error_ = nullptr;
  }

  if (options_.threads == 1 || problems.size() <= 1) {
    drain(0);
  } else {
    {
      support::MutexLock lock(pool_mutex_);
      workers_running_ = options_.threads;
      ++generation_;
    }
    pool_cv_.notify_all();
    {
      support::MutexLock lock(pool_mutex_);
      while (workers_running_ != 0) pool_cv_.wait(pool_mutex_);
    }
  }

  problems_ = nullptr;
  results_ = nullptr;
  std::exception_ptr error;
  {
    support::MutexLock lock(error_mutex_);
    error = first_error_;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<SolveResult> BatchSolver::solve(
    const std::vector<RetrievalProblem>& problems) {
  std::vector<SolveResult> results;
  solve_into(problems, results);
  return results;
}

std::vector<SolveResult> solve_batch(
    const std::vector<RetrievalProblem>& problems,
    const BatchOptions& options) {
  BatchSolver batch(options);
  return batch.solve(problems);
}

}  // namespace repflow::core
