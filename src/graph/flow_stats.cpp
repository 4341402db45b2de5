// Registry publication of engine operation counters.
//
// The engines count operations in a plain FlowStats member (one non-atomic
// increment on the hot path — the *view* the solvers return per run) and
// fold the totals into the process-global obs registry exactly once, at
// engine destruction.  That keeps the push/relabel/augment inner loops free
// of atomics while the registry still sees every operation.
#include "graph/maxflow.h"

#include "obs/metrics.h"

namespace repflow::graph {

void publish_flow_stats(const FlowStats& stats) {
  // Handles resolved once per process; thereafter publication is six
  // relaxed fetch_adds and never touches the registry lock.
  struct Handles {
    obs::Counter& augmentations =
        obs::Registry::global().counter("graph.augmentations");
    obs::Counter& pushes = obs::Registry::global().counter("graph.pushes");
    obs::Counter& relabels = obs::Registry::global().counter("graph.relabels");
    obs::Counter& global_relabels =
        obs::Registry::global().counter("graph.global_relabels");
    obs::Counter& gap_jumps =
        obs::Registry::global().counter("graph.gap_jumps");
    obs::Counter& dfs_visits =
        obs::Registry::global().counter("graph.dfs_visits");
    obs::Counter& engine_lifetimes =
        obs::Registry::global().counter("graph.engine_lifetimes");
  };
  static Handles handles;
  // obs: per-engine — totals folded once, at engine destruction.
  handles.augmentations.add(stats.augmentations);
  handles.pushes.add(stats.pushes);
  handles.relabels.add(stats.relabels);
  handles.global_relabels.add(stats.global_relabels);
  handles.gap_jumps.add(stats.gap_jumps);
  // obs: per-engine — see above.
  handles.dfs_visits.add(stats.dfs_visits);
  handles.engine_lifetimes.add(1);
}

}  // namespace repflow::graph
