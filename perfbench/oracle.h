// Independent correctness oracle for the retrieval problem.
//
// Uses nothing from the program under test: its own instance type, its own
// b-matching feasibility test, and its own search over the candidate
// completion times D_j + X_j + k*C_j.  The benchmark converts every
// program input into an oracle::Instance and every program output into a
// bucket -> disk vector, then asks check() whether the output is a valid
// schedule whose response time is the reported T and whether T is optimal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace oracle {

/// One retrieval problem: per-bucket replica disks and per-disk cost C_j,
/// delay D_j and initial load X_j (ms).
struct Instance {
  std::vector<std::vector<int>> replicas;
  std::vector<double> cost;
  std::vector<double> delay;
  std::vector<double> load;

  int disks() const { return static_cast<int>(cost.size()); }
  double completion(int disk, std::int64_t k) const {
    return delay[disk] + load[disk] + static_cast<double>(k) * cost[disk];
  }
};

/// True when the buckets can be assigned to replica disks so that every
/// disk finishes by `t` (a b-matching with cap_j = #{k : D+X+kC <= t}).
bool feasible(const Instance& inst, double t);

/// Response time of the greedy schedule that sends each bucket in turn to
/// the replica finishing earliest (an upper bound on the optimum).
double greedy_time(const Instance& inst);

/// The optimal response time, found by binary search over the sorted
/// candidate completion times below a greedy schedule's response time.
double optimal_time(const Instance& inst);

/// Response time of an assignment (max over used disks of D + X + k*C).
double schedule_time(const Instance& inst, const std::vector<int>& assigned);

/// Empty when `assigned` is a valid schedule for `inst` whose response time
/// equals `reported_t` and no assignment meets the next smaller candidate
/// time; otherwise a description of the first violation.
std::string check(const Instance& inst, const std::vector<int>& assigned,
                  double reported_t);

/// Busy horizon of a disk array under the stream model: a submission at
/// time t sees X_j = max(0, busy_until_j - t); after it, every used disk is
/// busy until t + D_j + X_j + k_j*C_j.
class Horizon {
 public:
  Horizon(std::vector<double> cost, std::vector<double> delay);
  /// The instance a submission of `replicas` at time `t` solves.
  Instance at(double t, std::vector<std::vector<int>> replicas) const;
  /// Fold a checked submission's schedule into the horizon.
  void commit(double t, const Instance& inst,
              const std::vector<int>& assigned);
  double max_backlog(double t) const;

 private:
  std::vector<double> cost_;
  std::vector<double> delay_;
  std::vector<double> busy_until_;
};

/// Self-tests: the paper's Table II worked example, brute-forced tiny
/// instances, and planted wrong schedules / non-optimal T that must be
/// rejected.  Returns the number of failed checks (0 = pass) and prints
/// one line per failure to stderr.
int self_test();

}  // namespace oracle
