#include "runtime/counters.hpp"

#include <sstream>
#include <string>

namespace wsf::runtime {

namespace {

// Field list shared by the arithmetic operators so a new counter cannot be
// added to one and forgotten in the other.
template <typename F>
void for_each_field(WorkerCounters& a, const WorkerCounters& b, F&& f) {
  f(a.spawns, b.spawns);
  f(a.tasks_run, b.tasks_run);
  f(a.steals, b.steals);
  f(a.steal_attempts, b.steal_attempts);
  f(a.touches, b.touches);
  f(a.parked_touches, b.parked_touches);
  f(a.direct_handoffs, b.direct_handoffs);
  f(a.migrations, b.migrations);
  f(a.fibers_created, b.fibers_created);
  f(a.stacks_reused, b.stacks_reused);
  f(a.local_pops, b.local_pops);
  f(a.inbox_takes, b.inbox_takes);
  f(a.resumes, b.resumes);
  f(a.inline_children, b.inline_children);
  f(a.handoff_runs, b.handoff_runs);
  f(a.continuations_pushed, b.continuations_pushed);
  f(a.wakes_pushed, b.wakes_pushed);
  f(a.fiber_resumes, b.fiber_resumes);
  f(a.shed, b.shed);
  f(a.batch_steals, b.batch_steals);
  f(a.batch_stolen_items, b.batch_stolen_items);
  f(a.steal_backoffs, b.steal_backoffs);
}

// Saturating subtraction: a counters() snapshot racing a concurrent
// reset_counters() can observe a baseline ahead of the live value it read a
// moment earlier; clamping keeps such a torn report at 0 instead of ~2^64.
std::uint64_t monus(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

}  // namespace

WorkerCounters& WorkerCounters::operator+=(const WorkerCounters& o) {
  for_each_field(*this, o,
                 [](RelaxedCounter& a, const RelaxedCounter& b) { a += b; });
  return *this;
}

WorkerCounters& WorkerCounters::operator-=(const WorkerCounters& o) {
  for_each_field(*this, o, [](RelaxedCounter& a, const RelaxedCounter& b) {
    a = monus(a, b);
  });
  return *this;
}

WorkerCounters counters_since(const WorkerCounters& live,
                              const WorkerCounters& baseline) {
  WorkerCounters delta = live;
  delta -= baseline;
  return delta;
}

WorkerCounters CountersReport::total() const {
  WorkerCounters t;
  for (const auto& w : per_worker) t += w;
  return t;
}

std::string CountersReport::to_string() const {
  const WorkerCounters t = total();
  std::ostringstream os;
  os << "spawns=" << t.spawns << " tasks=" << t.tasks_run
     << " steals=" << t.steals << "/" << t.steal_attempts
     << " touches=" << t.touches << " parked=" << t.parked_touches
     << " handoffs=" << t.direct_handoffs << " migrations=" << t.migrations
     << " fibers=" << t.fibers_created << " reused=" << t.stacks_reused
     << " pops=" << t.local_pops << " inbox=" << t.inbox_takes
     << " resumes=" << t.resumes << " inline=" << t.inline_children
     << " handoff_runs=" << t.handoff_runs
     << " cont_pushed=" << t.continuations_pushed
     << " wakes=" << t.wakes_pushed << " switches=" << t.fiber_resumes
     << " shed=" << t.shed << " batch_steals=" << t.batch_steals << "/"
     << t.batch_stolen_items << " parks=" << t.steal_backoffs;
  return os.str();
}

}  // namespace wsf::runtime
