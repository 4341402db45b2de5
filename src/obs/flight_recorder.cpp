#include "obs/flight_recorder.h"

#include <algorithm>
#include <sstream>

namespace repflow::obs {

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kCoalesce: return "coalesce";
    case FlightEventKind::kFlush: return "flush";
    case FlightEventKind::kPolicy: return "policy";
    case FlightEventKind::kSolve: return "solve";
    case FlightEventKind::kSchedule: return "schedule";
    case FlightEventKind::kBreach: return "breach";
  }
  return "?";
}

#if !defined(REPFLOW_OBS_DISABLED)

namespace {

thread_local ActiveQuery t_active_query;

}  // namespace

QueryScope::QueryScope(std::uint64_t id, double budget_ms)
    : saved_(t_active_query) {
  t_active_query = ActiveQuery{id, budget_ms};
}

QueryScope::~QueryScope() { t_active_query = saved_; }

ActiveQuery QueryScope::current() { return t_active_query; }

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(std::max<std::size_t>(1, capacity)),
      epoch_ns_(Clock::now().time_since_epoch().count()) {}

void FlightRecorder::record(std::uint64_t query_id, FlightEventKind kind,
                            double value, std::int32_t detail) {
  // mo: relaxed — the ticket is a bare slot claim; publication of the
  // event payload happens through the slot's seqlock stamp, not head_.
  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(ticket % slots_.size())];
  // Seqlock: stamp odd while writing, even (and larger than any previous
  // ticket's stamps for this slot) once published.  Two writers only meet
  // on one slot after a full ring wrap during a single write — the reader
  // drops such torn slots via the stamp re-check.
  // mo: release — the odd stamp must be visible before any payload bytes
  // so a reader that misses it cannot treat a mid-write slot as stable.
  slot.stamp.store(2 * ticket + 1, std::memory_order_release);
  // mo: relaxed — the epoch is a coarse timestamp base; a reader racing
  // clear() may see old-epoch t_ms values, which the torn-slot contract
  // already tolerates.
  const auto epoch = Clock::time_point(
      Clock::duration(epoch_ns_.load(std::memory_order_relaxed)));
  const double t_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - epoch).count();
  // mo: release — each payload store carries the odd stamp above with it:
  // a reader that acquires any of these values also sees the odd (or a
  // later) stamp on its re-check, so a torn copy is always detected.
  slot.query_id.store(query_id, std::memory_order_release);
  slot.t_ms.store(t_ms, std::memory_order_release);
  slot.value.store(value, std::memory_order_release);
  // mo: release — same payload contract as the three stores above.
  slot.detail.store(detail, std::memory_order_release);
  slot.kind.store(kind, std::memory_order_release);
  // mo: release — publishes the completed payload; pairs with the acquire
  // stamp loads in events().
  slot.stamp.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    // mo: acquire — pairs with the writer's release stamps; an even stamp
    // makes the published payload visible, and the second load re-checks
    // that no writer re-entered the slot while we copied.
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before == 0 || before % 2 != 0) continue;  // empty or mid-write
    FlightEvent copy;
    copy.seq = before / 2 - 1;
    // mo: acquire — pairs with the writer's release payload stores, and
    // keeps the re-check load below from moving above these loads.
    copy.query_id = slot.query_id.load(std::memory_order_acquire);
    copy.t_ms = slot.t_ms.load(std::memory_order_acquire);
    copy.value = slot.value.load(std::memory_order_acquire);
    // mo: acquire — same payload contract as the three loads above.
    copy.detail = slot.detail.load(std::memory_order_acquire);
    copy.kind = slot.kind.load(std::memory_order_acquire);
    // mo: acquire — see the stamp note above (torn-read re-check).
    const std::uint64_t after = slot.stamp.load(std::memory_order_acquire);
    if (after != before) continue;  // overwritten while copying
    out.push_back(copy);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::query_events(
    std::uint64_t query_id) const {
  std::vector<FlightEvent> all = events();
  std::vector<FlightEvent> out;
  for (const FlightEvent& e : all) {
    if (e.query_id == query_id) out.push_back(e);
  }
  return out;
}

void FlightRecorder::note_breach(std::uint64_t query_id, double response_ms,
                                 double budget_ms) {
  record(query_id, FlightEventKind::kBreach, response_ms);
  BreachDump dump;
  dump.query_id = query_id;
  dump.response_ms = response_ms;
  dump.budget_ms = budget_ms;
  dump.chain = query_events(query_id);
  support::MutexLock lock(breach_mutex_);
  breaches_.push_back(std::move(dump));
  while (breaches_.size() > kMaxBreachDumps) breaches_.pop_front();
}

std::vector<BreachDump> FlightRecorder::breaches() const {
  support::MutexLock lock(breach_mutex_);
  return {breaches_.begin(), breaches_.end()};
}

void FlightRecorder::clear() {
  // mo: relaxed — clear is only exact when recorders are quiescent (the
  // Counter::reset contract); racing writers re-stamp via their own release
  // stores, so no edges are needed here.
  for (Slot& slot : slots_) slot.stamp.store(0, std::memory_order_relaxed);
  head_.store(0, std::memory_order_relaxed);
  {
    support::MutexLock lock(breach_mutex_);
    breaches_.clear();
  }
  // mo: relaxed — see the epoch note in record().
  epoch_ns_.store(Clock::now().time_since_epoch().count(),
                  std::memory_order_relaxed);
}

#endif  // REPFLOW_OBS_DISABLED

namespace {

void append_event_json(std::ostringstream& os, const FlightEvent& e) {
  os << "{\"query_id\":" << e.query_id << ",\"seq\":" << e.seq
     << ",\"t_ms\":" << e.t_ms << ",\"kind\":\""
     << flight_event_kind_name(e.kind) << "\",\"value\":" << e.value
     << ",\"detail\":" << e.detail << "}";
}

}  // namespace

std::string flight_recorder_json(const FlightRecorder& recorder) {
  std::ostringstream os;
  const std::vector<FlightEvent> events = recorder.events();
  const std::vector<BreachDump> breaches = recorder.breaches();
  os << "{\"capacity\":" << recorder.capacity()
     << ",\"recorded\":" << recorder.recorded() << ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ",";
    append_event_json(os, events[i]);
  }
  os << "],\"breaches\":[";
  for (std::size_t i = 0; i < breaches.size(); ++i) {
    const BreachDump& b = breaches[i];
    if (i > 0) os << ",";
    os << "{\"query_id\":" << b.query_id
       << ",\"response_ms\":" << b.response_ms
       << ",\"budget_ms\":" << b.budget_ms << ",\"chain\":[";
    for (std::size_t j = 0; j < b.chain.size(); ++j) {
      if (j > 0) os << ",";
      append_event_json(os, b.chain[j]);
    }
    os << "]}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace repflow::obs
