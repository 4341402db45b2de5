// Calibration kernel: a b-matching written outside the program, timed
// between front-door calls to measure how fast the host is running.
//
// It is allocation-free and touches about 100 KB (adjacency, owners and
// per-disk slots), so heap state left by the workload does not change its
// cost, and it feels the shared-cache and core contention the solvers feel.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

class Kernel {
 public:
  static constexpr int kBuckets = 4096;
  static constexpr int kDisks = 256;
  static constexpr int kCopies = 3;
  static constexpr int kCap = kBuckets / kDisks + 1;  // 6% slack

  Kernel()
      : adj_(kBuckets * kCopies),
        owner_(kBuckets),
        slot_(kBuckets),
        held_(kDisks * kCap),
        count_(kDisks),
        parent_(kDisks),
        via_(kDisks),
        seen_(kDisks),
        queue_(kDisks) {
    // Uniform copies on a capacity with 6% slack: the greedy pass leaves a
    // few dozen buckets to the augmenting search.
    std::mt19937_64 gen(20121018);
    for (int b = 0; b < kBuckets; ++b) {
      for (int c = 0; c < kCopies; ++c) {
        int d;
        do {
          d = static_cast<int>(gen() % kDisks);
        } while (std::find(&adj_[b * kCopies], &adj_[b * kCopies + c], d) !=
                 &adj_[b * kCopies + c]);
        adj_[b * kCopies + c] = d;
      }
    }
  }

  /// Match every bucket; returns the number of buckets placed.
  int run() {
    std::fill(count_.begin(), count_.end(), 0);
    std::fill(seen_.begin(), seen_.end(), -1);
    int placed = 0;
    for (int b = 0; b < kBuckets; ++b) {
      owner_[b] = -1;
      for (int c = 0; c < kCopies; ++c) {
        const int d = adj_[b * kCopies + c];
        if (count_[d] < kCap) {
          place(b, d);
          ++placed;
          break;
        }
      }
    }
    for (int b = 0; b < kBuckets; ++b) {
      if (owner_[b] >= 0) continue;
      int head = 0, tail = 0, free_disk = -1;
      for (int c = 0; c < kCopies; ++c) {
        const int d = adj_[b * kCopies + c];
        seen_[d] = b;
        parent_[d] = -1;
        queue_[tail++] = d;
      }
      while (head < tail && free_disk < 0) {
        const int d = queue_[head++];
        if (count_[d] < kCap) {
          free_disk = d;
          break;
        }
        for (int i = 0; i < count_[d]; ++i) {
          const int x = held_[d * kCap + i];
          for (int c = 0; c < kCopies; ++c) {
            const int d2 = adj_[x * kCopies + c];
            if (seen_[d2] == b) continue;
            seen_[d2] = b;
            parent_[d2] = d;
            via_[d2] = x;
            queue_[tail++] = d2;
          }
        }
      }
      if (free_disk < 0) continue;
      int cur = free_disk;
      for (; parent_[cur] >= 0; cur = parent_[cur]) {
        unplace(via_[cur]);
        place(via_[cur], cur);
      }
      place(b, cur);
      ++placed;
    }
    return placed;
  }

 private:
  void place(int b, int d) {
    owner_[b] = d;
    slot_[b] = count_[d];
    held_[d * kCap + count_[d]++] = b;
  }
  void unplace(int b) {
    const int d = owner_[b];
    const int last = held_[d * kCap + --count_[d]];
    held_[d * kCap + slot_[b]] = last;
    slot_[last] = slot_[b];
    owner_[b] = -1;
  }

  std::vector<int> adj_, owner_, slot_, held_, count_, parent_, via_, seen_,
      queue_;
};

double calibration_pass_us() {
  static Kernel kernel;
  static int expected = kernel.run();
  const std::int64_t t0 = wall_ns();
  const int placed = kernel.run();
  const std::int64_t t1 = wall_ns();
  if (placed != expected) std::abort();
  return static_cast<double>(t1 - t0) * 1e-3;
}

}  // namespace

double calibration_point_us() {
  double p[3];
  for (double& x : p) x = calibration_pass_us();
  std::sort(p, p + 3);
  return p[1];
}

}  // namespace perfbench
