// The integrated max-flow engine interface consumed by the binary-scaling
// driver (Algorithm 6).  The sequential implementation wraps the FIFO
// push-relabel of src/graph; the parallel implementations (src/parallel)
// substitute the multithreaded engines of Section V.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "graph/maxflow.h"
#include "graph/push_relabel.h"

namespace repflow::core {

/// Which multithreaded engine backs kParallelPushRelabelBinary.  The seam
/// mirrors SolverKind one level down: callers pin an engine the same way
/// they pin a solver (ExecutionPolicy::engine).
enum class EngineKind {
  kHongHe,  ///< asynchronous lock-free push-relabel (Hong & He 2011)
  kRound,   ///< bulk-synchronous round-based push-relabel (WHFC-style)
  /// Alias of kRound, kept only because perfbench/ still names it.
  kAuto = kRound,
};

/// Every engine, in declaration order.
inline constexpr EngineKind kAllEngineKinds[] = {EngineKind::kHongHe,
                                                 EngineKind::kRound};

/// Short stable identifier (metric names, CLI flags, bench labels).
constexpr const char* engine_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kHongHe:
      return "hong_he";
    case EngineKind::kRound:
      return "round";
  }
  return "?";
}

/// Inverse of engine_id() for CLI parsing; nullopt for unknown ids.
constexpr std::optional<EngineKind> engine_kind_from_id(std::string_view id) {
  if (id == "hong_he") return EngineKind::kHongHe;
  if (id == "round") return EngineKind::kRound;
  return std::nullopt;
}

/// Kept for source compatibility only: perfbench/ passes MatchingEngine::kSerial.
enum class MatchingEngine { kSerial };

class IntegratedEngine {
 public:
  virtual ~IntegratedEngine() = default;

  /// Saturate residual source arcs, reinitialize heights, and run
  /// push/relabel to completion from the network's current flows.
  /// Returns the flow value (excess of the sink).
  virtual graph::Cap resume() = 0;

  /// Realign excess bookkeeping after the driver restored a flow snapshot.
  virtual void reset_excess_after_restore(graph::Cap sink_excess) = 0;

  /// Re-target the engine after its network was rebuilt in place (the
  /// FlowNetwork object is the same; topology and endpoints may differ).
  /// Clears per-run state while retaining working-buffer capacity, so a
  /// persistent engine serves successive problems without reallocating.
  virtual void rebind(graph::Vertex source, graph::Vertex sink) = 0;

  virtual const graph::FlowStats& stats() const = 0;

  /// Capacity-based estimate of the engine's retained working memory.
  virtual std::size_t retained_bytes() const { return 0; }
};

/// Sequential engine: the paper's Algorithm 4/5 machinery.
class SequentialPushRelabelEngine final : public IntegratedEngine {
 public:
  SequentialPushRelabelEngine(graph::FlowNetwork& net, graph::Vertex source,
                              graph::Vertex sink,
                              graph::PushRelabelOptions options = {},
                              graph::MaxflowWorkspace* workspace = nullptr)
      : solver_(net, source, sink, options, workspace) {}

  graph::Cap resume() override { return solver_.resume(); }
  void reset_excess_after_restore(graph::Cap sink_excess) override {
    solver_.reset_excess_after_restore(sink_excess);
  }
  void rebind(graph::Vertex source, graph::Vertex sink) override {
    solver_.rebind(source, sink);
  }
  const graph::FlowStats& stats() const override { return solver_.stats(); }
  std::size_t retained_bytes() const override {
    return solver_.workspace().retained_bytes();
  }

 private:
  graph::PushRelabel solver_;
};

}  // namespace repflow::core
