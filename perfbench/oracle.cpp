#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <random>
#include <sstream>

namespace oracle {

namespace {

double tolerance(double t) { return 1e-9 * std::max(1.0, std::fabs(t)); }

/// Buckets disk `d` may serve when every disk must finish by `t`.
std::int64_t capacity_at(const Instance& inst, int d, double t) {
  const double tol = tolerance(t);
  const double room = t - inst.delay[d] - inst.load[d];
  if (room + tol < inst.cost[d]) return 0;
  auto k = static_cast<std::int64_t>(std::floor(room / inst.cost[d]));
  while (inst.completion(d, k + 1) <= t + tol) ++k;
  while (k > 0 && inst.completion(d, k) > t + tol) --k;
  return k;
}

/// b-matching by greedy start plus one breadth-first augmenting search per
/// unplaced bucket.  The search runs over disks: from disk d any bucket
/// held by d may move to another of its replicas.  If a bucket has no
/// augmenting path now it never will (Berge), so the test stops there.
bool assign_all(const Instance& inst, const std::vector<std::int64_t>& cap,
                std::vector<int>* out) {
  const int n = inst.disks();
  const std::size_t q = inst.replicas.size();
  std::vector<int> owner(q, -1);
  std::vector<std::size_t> slot(q, 0);
  std::vector<std::vector<int>> held(n);
  auto place = [&](int b, int d) {
    owner[b] = d;
    slot[b] = held[d].size();
    held[d].push_back(b);
  };
  auto unplace = [&](int b) {
    std::vector<int>& h = held[owner[b]];
    const int last = h.back();
    h[slot[b]] = last;
    slot[last] = slot[b];
    h.pop_back();
    owner[b] = -1;
  };
  auto room = [&](int d) {
    return cap[d] - static_cast<std::int64_t>(held[d].size());
  };

  for (std::size_t b = 0; b < q; ++b) {
    int best = -1;
    for (int d : inst.replicas[b]) {
      if (room(d) > 0 && (best < 0 || room(d) > room(best))) best = d;
    }
    if (best >= 0) place(static_cast<int>(b), best);
  }

  std::vector<int> parent(n), via(n), seen(n, -1);
  std::deque<int> frontier;
  for (std::size_t b = 0; b < q; ++b) {
    if (owner[b] >= 0) continue;
    frontier.clear();
    for (int d : inst.replicas[b]) {
      if (seen[d] == static_cast<int>(b)) continue;
      seen[d] = static_cast<int>(b);
      parent[d] = -1;
      frontier.push_back(d);
    }
    int free_disk = -1;
    while (!frontier.empty() && free_disk < 0) {
      const int d = frontier.front();
      frontier.pop_front();
      if (room(d) > 0) {
        free_disk = d;
        break;
      }
      for (int x : held[d]) {
        for (int d2 : inst.replicas[x]) {
          if (seen[d2] == static_cast<int>(b)) continue;
          seen[d2] = static_cast<int>(b);
          parent[d2] = d;
          via[d2] = x;
          frontier.push_back(d2);
        }
      }
    }
    if (free_disk < 0) return false;
    int cur = free_disk;
    for (; parent[cur] >= 0; cur = parent[cur]) {
      const int x = via[cur];
      unplace(x);
      place(x, cur);
    }
    place(static_cast<int>(b), cur);
  }
  if (out != nullptr) *out = owner;
  return true;
}

std::vector<std::int64_t> capacities(const Instance& inst, double t) {
  std::vector<std::int64_t> cap(inst.disks());
  for (int d = 0; d < inst.disks(); ++d) cap[d] = capacity_at(inst, d, t);
  return cap;
}

/// Sorted distinct candidate completion times up to `upper`.
std::vector<double> candidates(const Instance& inst, double upper) {
  std::vector<double> out;
  const double tol = tolerance(upper);
  for (int d = 0; d < inst.disks(); ++d) {
    for (std::int64_t k = 1;
         k <= static_cast<std::int64_t>(inst.replicas.size()); ++k) {
      const double t = inst.completion(d, k);
      if (t > upper + tol) break;
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string validate(const Instance& inst, const std::vector<int>& assigned) {
  std::ostringstream err;
  if (assigned.size() != inst.replicas.size()) {
    err << "schedule covers " << assigned.size() << " of "
        << inst.replicas.size() << " buckets";
    return err.str();
  }
  for (std::size_t b = 0; b < assigned.size(); ++b) {
    const auto& r = inst.replicas[b];
    if (std::find(r.begin(), r.end(), assigned[b]) == r.end()) {
      err << "bucket " << b << " assigned to disk " << assigned[b]
          << ", which holds no replica of it";
      return err.str();
    }
  }
  return {};
}

}  // namespace

bool feasible(const Instance& inst, double t) {
  return assign_all(inst, capacities(inst, t), nullptr);
}

double schedule_time(const Instance& inst, const std::vector<int>& assigned) {
  std::vector<std::int64_t> count(inst.disks(), 0);
  for (int d : assigned) ++count[d];
  double t = 0.0;
  for (int d = 0; d < inst.disks(); ++d) {
    if (count[d] > 0) t = std::max(t, inst.completion(d, count[d]));
  }
  return t;
}

double greedy_time(const Instance& inst) {
  std::vector<std::int64_t> count(inst.disks(), 0);
  double upper = 0.0;
  for (const auto& r : inst.replicas) {
    int best = r.front();
    for (int d : r) {
      if (inst.completion(d, count[d] + 1) <
          inst.completion(best, count[best] + 1)) {
        best = d;
      }
    }
    ++count[best];
    upper = std::max(upper, inst.completion(best, count[best]));
  }
  return upper;
}

double optimal_time(const Instance& inst) {
  if (inst.replicas.empty()) return 0.0;
  const std::vector<double> cand = candidates(inst, greedy_time(inst));
  std::size_t lo = 0, hi = cand.size() - 1;  // cand[hi] is feasible
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feasible(inst, cand[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return cand[hi];
}

std::string check(const Instance& inst, const std::vector<int>& assigned,
                  double reported_t) {
  std::string err = validate(inst, assigned);
  if (!err.empty()) return err;
  std::ostringstream out;
  out.precision(17);
  const double realized = schedule_time(inst, assigned);
  if (std::fabs(realized - reported_t) > tolerance(reported_t)) {
    out << "reported T " << reported_t << " but the schedule finishes at "
        << realized;
    return out.str();
  }
  const double best = optimal_time(inst);
  if (std::fabs(best - reported_t) > tolerance(reported_t)) {
    out << "reported T " << reported_t << " is not optimal (oracle "
        << best << ")";
    return out.str();
  }
  // The next smaller candidate time must admit no assignment.
  const std::vector<double> cand = candidates(inst, reported_t);
  for (auto it = cand.rbegin(); it != cand.rend(); ++it) {
    if (*it < reported_t - tolerance(reported_t)) {
      if (feasible(inst, *it)) {
        out << "an assignment meets " << *it << " < reported T "
            << reported_t;
        return out.str();
      }
      break;
    }
  }
  return {};
}

Horizon::Horizon(std::vector<double> cost, std::vector<double> delay)
    : cost_(std::move(cost)),
      delay_(std::move(delay)),
      busy_until_(cost_.size(), 0.0) {}

Instance Horizon::at(double t, std::vector<std::vector<int>> replicas) const {
  Instance inst;
  inst.replicas = std::move(replicas);
  inst.cost = cost_;
  inst.delay = delay_;
  inst.load.resize(cost_.size());
  for (std::size_t d = 0; d < cost_.size(); ++d) {
    inst.load[d] = std::max(0.0, busy_until_[d] - t);
  }
  return inst;
}

void Horizon::commit(double t, const Instance& inst,
                     const std::vector<int>& assigned) {
  std::vector<std::int64_t> count(cost_.size(), 0);
  for (int d : assigned) ++count[d];
  for (std::size_t d = 0; d < cost_.size(); ++d) {
    if (count[d] > 0) {
      busy_until_[d] = t + inst.completion(static_cast<int>(d), count[d]);
    }
  }
}

double Horizon::max_backlog(double t) const {
  double m = 0.0;
  for (double b : busy_until_) m = std::max(m, b - t);
  return m;
}

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "oracle self-test FAILED: %s\n", what.c_str());
    }
  };

  // Table II: 7x7 grid, two sites of seven disks.  Copy 1 on site 0 at
  // (i + j) mod 7, copy 2 on site 1 at 7 + (i + 2j) mod 7; query q1 is the
  // 3x2 range at the origin.  Optimum 11.3 ms (a Raptor disk serving one
  // block: D 2 + X 1 + C 8.3).
  Instance t2;
  t2.cost.assign(14, 0.0);
  t2.delay.assign(14, 0.0);
  t2.load.assign(14, 0.0);
  for (int d = 0; d <= 6; ++d) {
    t2.cost[d] = 8.3;
    t2.delay[d] = 2.0;
    t2.load[d] = 1.0;
  }
  for (int d : {7, 8, 10, 13}) {
    t2.cost[d] = 6.1;
    t2.delay[d] = 1.0;
  }
  for (int d : {9, 11, 12}) {
    t2.cost[d] = 13.2;
    t2.delay[d] = 1.0;
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      t2.replicas.push_back({(i + j) % 7, 7 + (i + 2 * j) % 7});
    }
  }
  expect(std::fabs(optimal_time(t2) - 11.3) < 1e-9,
         "Table II optimum is 11.3 ms");
  const std::vector<int> good = {7, 1, 8, 10, 2, 3};
  expect(check(t2, good, 11.3).empty(), "Table II optimal schedule accepted");
  std::vector<int> off_replica = good;
  off_replica[1] = 5;
  expect(!check(t2, off_replica, 11.3).empty(),
         "schedule using a non-replica disk rejected");
  expect(!check(t2, good, 11.2).empty(), "misreported T rejected");
  std::vector<int> site0(6);
  for (int b = 0; b < 6; ++b) site0[b] = t2.replicas[b][0];
  expect(!check(t2, site0, schedule_time(t2, site0)).empty(),
         "valid but non-optimal schedule rejected");
  expect(!check(t2, {7, 1, 8}, 11.3).empty(), "short schedule rejected");

  // Brute force: every assignment of tiny random instances.
  std::mt19937_64 gen(12345);
  auto uni = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen);
  };
  for (int trial = 0; trial < 400; ++trial) {
    Instance inst;
    const int disks = uni(1, 4);
    const int q = uni(1, 6);
    for (int d = 0; d < disks; ++d) {
      inst.cost.push_back(uni(1, 9) * 0.5);
      inst.delay.push_back(uni(0, 3) * 1.0);
      inst.load.push_back(uni(0, 4) * 0.7);
    }
    for (int b = 0; b < q; ++b) {
      std::vector<int> r;
      const int c = uni(1, std::min(3, disks));
      while (static_cast<int>(r.size()) < c) {
        const int d = uni(0, disks - 1);
        if (std::find(r.begin(), r.end(), d) == r.end()) r.push_back(d);
      }
      inst.replicas.push_back(r);
    }
    double best = std::numeric_limits<double>::infinity();
    std::vector<int> pick(q), best_pick;
    std::function<void(int)> rec = [&](int b) {
      if (b == q) {
        const double t = schedule_time(inst, pick);
        if (t < best) {
          best = t;
          best_pick = pick;
        }
        return;
      }
      for (int d : inst.replicas[b]) {
        pick[b] = d;
        rec(b + 1);
      }
    };
    rec(0);
    expect(std::fabs(optimal_time(inst) - best) < 1e-9,
           "brute-force optimum matches (trial " + std::to_string(trial) +
               ")");
    expect(check(inst, best_pick, best).empty(),
           "brute-force optimal schedule accepted");
    // Plant the worst assignment: rejected unless it happens to be optimal.
    std::vector<int> worst(q);
    for (int b = 0; b < q; ++b) worst[b] = inst.replicas[b].back();
    const double wt = schedule_time(inst, worst);
    if (wt > best + 1e-9) {
      expect(!check(inst, worst, wt).empty(),
             "planted non-optimal schedule rejected");
    }
  }
  return failures;
}

}  // namespace oracle
