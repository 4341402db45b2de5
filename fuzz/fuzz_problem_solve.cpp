// Fuzz target for the solver catalog: decode the input bytes into a small
// but adversarial RetrievalProblem (skewed costs/delays/loads, arbitrary
// replica placement, possibly empty queries) and cross-check three
// independent solve paths against each other and against the full invariant
// suite:
//
//   * Algorithm 2 (integrated Ford-Fulkerson incrementation),
//   * Algorithm 6 (push-relabel with binary capacity scaling),
//   * the black-box binary-search baseline,
//   * the Hopcroft-Karp b-matching kernel (kIntegratedMatching), and
//   * the ReferenceSolver oracle (candidate enumeration + Edmonds-Karp).
//
// Any disagreement in optimal response time, any invariant violation
// (flow conservation, schedule feasibility, recomputed response time), or
// any unexpected exception aborts — that is the fuzzer's crash signal.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/schedule_invariants.h"
#include "core/problem.h"
#include "core/reference.h"
#include "core/solve.h"
#include "core/solver.h"
#include "driver.h"

namespace {

using repflow::core::RetrievalProblem;
using repflow::core::SolveResult;
using repflow::core::SolverKind;

/// Sequential byte reader; reads past the end yield zero so every prefix of
/// an interesting input is itself a (smaller) interesting input.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

RetrievalProblem decode_problem(ByteReader& in) {
  const std::int32_t disks = 1 + in.u8() % 6;
  const std::int64_t buckets = in.u8() % 13;  // 0 = degenerate empty query
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  const auto n = static_cast<std::size_t>(disks);
  p.system.model.assign(n, "F");
  p.system.cost_ms.resize(n);
  p.system.delay_ms.resize(n);
  p.system.init_load_ms.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    // Strictly positive quarter-ms costs; delays/loads may be zero.  Small
    // ranges keep solves fast while still forcing ties, skew, and disks
    // whose delay alone exceeds other disks' full schedules.
    p.system.cost_ms[d] = 0.25 * (1 + in.u8() % 32);
    p.system.delay_ms[d] = 0.25 * (in.u8() % 32);
    p.system.init_load_ms[d] = 0.25 * (in.u8() % 32);
  }
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    const std::uint8_t mask = in.u8();
    for (std::int32_t d = 0; d < disks; ++d) {
      if ((mask >> d) & 1U) replica_set.push_back(d);
    }
    if (replica_set.empty()) replica_set.push_back(in.u8() % disks);
  }
  return p;
}

[[noreturn]] void die(const RetrievalProblem& problem, const char* what,
                      const std::string& detail) {
  std::fprintf(stderr, "fuzz_problem_solve: %s\n%s\n", what, detail.c_str());
  std::fprintf(stderr, "disks=%d buckets=%zu\n", problem.system.total_disks(),
               problem.replicas.size());
  std::abort();
}

void check_result(const RetrievalProblem& problem, const SolveResult& result,
                  const char* solver) {
  const auto report = repflow::analysis::check_solve_result(problem, result);
  if (!report.ok()) die(problem, solver, report.to_string());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteReader in(data, size);
  const RetrievalProblem problem = decode_problem(in);
  problem.validate();  // decode_problem only builds valid instances

  const SolveResult alg2 =
      repflow::core::solve(problem, SolverKind::kFordFulkersonIncremental);
  const SolveResult alg6 =
      repflow::core::solve(problem, SolverKind::kPushRelabelBinary);
  const SolveResult blackbox =
      repflow::core::solve(problem, SolverKind::kBlackBoxBinary);
  const SolveResult matching =
      repflow::core::solve(problem, SolverKind::kIntegratedMatching);
  const SolveResult oracle = repflow::core::ReferenceSolver(problem).solve();

  check_result(problem, alg2, "alg2_ff_incremental");
  check_result(problem, alg6, "alg6_pr_binary");
  check_result(problem, blackbox, "blackbox_binary");
  check_result(problem, matching, "matching_hk");

  const double expected = oracle.response_time_ms;
  const double tolerance = 1e-9 * (1.0 + std::fabs(expected));
  for (const SolveResult* r : {&alg2, &alg6, &blackbox, &matching}) {
    if (std::fabs(r->response_time_ms - expected) > tolerance) {
      die(problem, "optimal response times disagree",
          "oracle=" + std::to_string(expected) +
              " got=" + std::to_string(r->response_time_ms));
    }
  }
  return 0;
}

namespace repflow::fuzz {

std::vector<std::string> seed_corpus() {
  // Raw decoder bytes (not text).  First seed: 4 disks, 5 buckets, mixed
  // parameters, replica masks touching every disk; second: single disk,
  // empty query; third: all-zero bytes = 1 fast disk, degenerate query.
  return {
      std::string("\x03\x05"
                  "\x08\x00\x00"
                  "\x01\x04\x10"
                  "\x1f\x00\x02"
                  "\x02\x08\x00"
                  "\x0f\x03\x05\x09\x06",
                  19),
      std::string("\x00\x00", 2),
      std::string(8, '\0'),
  };
}

}  // namespace repflow::fuzz
