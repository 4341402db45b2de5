#include "parallel/parallel_engine.h"

#include <stdexcept>

namespace repflow::parallel {

core::EngineFactory parallel_engine_factory(int threads) {
  return parallel_engine_factory(threads, core::EngineKind::kHongHe);
}

core::EngineFactory parallel_engine_factory(int threads,
                                            core::EngineKind kind) {
  if (threads < 1) {
    throw std::invalid_argument("parallel_engine_factory: threads < 1");
  }
  switch (kind) {
    case core::EngineKind::kHongHe:
      return [threads](graph::FlowNetwork& net, graph::Vertex source,
                       graph::Vertex sink)
                 -> std::unique_ptr<core::IntegratedEngine> {
        return std::make_unique<ParallelEngine>(net, source, sink, threads);
      };
    case core::EngineKind::kRound:
      return [threads](graph::FlowNetwork& net, graph::Vertex source,
                       graph::Vertex sink)
                 -> std::unique_ptr<core::IntegratedEngine> {
        return std::make_unique<RoundEngine>(net, source, sink, threads);
      };
  }
  throw std::invalid_argument("parallel_engine_factory: unknown engine kind");
}

}  // namespace repflow::parallel
