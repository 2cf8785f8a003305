#include "runtime/pool.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "support/thread_safety.hpp"

namespace wsf::runtime {
namespace detail {

namespace {
thread_local Worker* tl_worker = nullptr;
thread_local Fiber* tl_fiber = nullptr;

/// The spin-wait hint: x86 PAUSE, arm64 YIELD.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}
}  // namespace

// noinline: fiber code must re-read these after suspension points, because a
// fiber can resume on a different worker thread (ucontext does not switch
// TLS).
__attribute__((noinline)) Worker* current_worker() noexcept {
  return tl_worker;
}
__attribute__((noinline)) Fiber* current_fiber() noexcept {
  return tl_fiber;
}

void wait_until_ready(FutureStateBase& state) {
  Worker* w = current_worker();
  WSF_REQUIRE(w != nullptr, "touch() outside the scheduler");
  w->counters().touches++;
  if (state.ready()) return;
  Fiber* f = current_fiber();
  WSF_CHECK(f != nullptr, "touch outside a task fiber");
  w->counters().parked_touches++;
  w->park_on(state, *f);
  // Resumed: the producer published the value before waking us.
  WSF_CHECK(state.ready(), "parked touch resumed before the value arrived");
}

Worker::Worker(Scheduler& sched, std::uint32_t id,
               const RuntimeOptions& opts)
    : sched_(sched),
      id_(id),
      stack_bytes_(opts.stack_bytes),
      steal_policy_(opts.steal),
      victim_policy_(opts.victim),
      rng_(support::derive_seed(opts.seed, id)) {}

Worker::~Worker() = default;

void Worker::main_loop() {
  tl_worker = this;
  // The idle path: a few µs of find_work rounds separated by pause bursts,
  // then park. A longer spin bought no latency on the wsfbench stream
  // workloads and cost CPU after every job.
  constexpr std::uint32_t kSpinRounds = 8;
  constexpr std::uint32_t kPausesPerRound = 16;
  std::uint32_t misses = 0;
  while (true) {
    if (Job* job = find_work()) {
      misses = 0;
      execute(job);
      continue;
    }
    // acquire pairs with the destructor's release-store: after stop reads
    // true the drained state (no jobs in flight) is visible too.
    if (sched_.stop_.load(std::memory_order_acquire)) break;
    if (++misses < kSpinRounds) {
      for (std::uint32_t i = 0; i < kPausesPerRound; ++i) cpu_relax();
      continue;
    }
    misses = 0;
    park();
  }
  tl_worker = nullptr;
}

void Worker::park() {
  // Eventcount, waiter side. acquire pairs with wake_one's release bump: a
  // worker that reads a moved epoch also sees the work that moved it.
  const std::uint32_t epoch =
      sched_.work_epoch_.load(std::memory_order_acquire);
  // seq_cst RMW + fence against wake_one's fence-then-load (store-load
  // Dekker): either the publisher sees this sleeper and bumps the epoch,
  // or the re-check below sees the published work.
  sched_.sleepers_.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);  // see above
  // acquire: as in main_loop (the destructor's final bump may be the epoch
  // read above). relaxed probes: advisory, made exact by the fences.
  bool idle = !sched_.stop_.load(std::memory_order_acquire) &&
              sched_.inbox_size_.load(std::memory_order_relaxed) == 0;
  for (const auto& w : sched_.workers_)
    idle = idle && w->deque_.empty_estimate();
  if (idle) {
    if (sched_.num_workers() > 1) counters_.steal_backoffs++;
    sched_.work_epoch_.wait(epoch, std::memory_order_acquire);  // see above
  }
  // relaxed: a stale nonzero costs a publisher one spurious notify.
  sched_.sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void Worker::push(Job* j) {
  deque_.push_bottom(j);
  sched_.wake_one();
}

Job* Worker::find_work() {
  if (Job* j = deque_.pop_bottom()) {
    counters_.local_pops++;
    return j;
  }
  if (Job* j = sched_.take_injected(*this)) {
    counters_.inbox_takes++;
    return j;
  }
  // One steal operation per round, like the model's parsimonious thief
  // (StealPolicy::Half claims a batch, but still one operation per round).
  // A single worker has no victims: skip selection entirely so 1-worker
  // replays burn no steal_attempts and no RNG draws.
  const std::uint32_t n = sched_.num_workers();
  if (n <= 1) return nullptr;
  counters_.steal_attempts++;
  const std::uint32_t victim = pick_victim(n);
  Job* j = steal_from(victim);
  if (j != nullptr) {
    counters_.steals++;
    last_victim_ = victim;
    return j;
  }
  last_victim_ = kNoVictim;
  return nullptr;
}

std::uint32_t Worker::pick_victim(std::uint32_t n) {
  switch (victim_policy_) {
    case core::VictimPolicy::LastVictim:
      // Affinity: retry the worker the last steal succeeded from — it
      // likely still has work, and re-stealing from one victim keeps the
      // thief's working set on fewer remote lines. Falls back to uniform
      // when there is no remembered victim.
      if (last_victim_ != kNoVictim && last_victim_ < n &&
          last_victim_ != id_)
        return last_victim_;
      break;
    case core::VictimPolicy::Nearest: {
      // Deterministic neighbor scan by index distance: a stand-in for
      // topology awareness (adjacent workers as cache/NUMA neighbors).
      for (std::uint32_t d = 1; d < n; ++d) {
        const std::uint32_t v = (id_ + d) % n;
        if (!sched_.workers_[v]->deque_.empty_estimate()) return v;
      }
      return (id_ + 1) % n;  // all look empty: probe the next ring slot
    }
    case core::VictimPolicy::Uniform:
      break;
  }
  auto victim = static_cast<std::uint32_t>(rng_.below(n - 1));
  if (victim >= id_) ++victim;
  return victim;
}

Job* Worker::steal_from(std::uint32_t victim) {
  ChaseLevDeque<Job*>& vd = sched_.workers_[victim]->deque_;
  if (steal_policy_ == core::StealPolicy::One) return vd.steal_top();
  // Steal-half: claim up to half the victim's items (bounded so one batch
  // cannot monopolize a huge deque), run the oldest, and keep the rest.
  constexpr std::size_t kMaxStealBatch = 16;
  steal_buf_.clear();
  const std::size_t got = vd.steal_batch(steal_buf_, kMaxStealBatch);
  if (got == 0) return nullptr;
  // steal_buf_ is oldest-first; index 0 is what steal-one would have
  // taken. The extras become ordinary deque work on *this* worker —
  // uncounted here, acquired later as local_pops (the take_injected
  // precedent), so the acquisition identities close unchanged. Push newest
  // first: LIFO pops then run them oldest-first after the returned job.
  for (std::size_t i = got; i > 1; --i) push(steal_buf_[i - 1]);
  if (got > 1) {
    counters_.batch_steals++;
    counters_.batch_stolen_items += got - 1;
  }
  return steal_buf_[0];
}

Fiber* Worker::acquire_fiber(support::MoveOnlyFunction<void()> body) {
  auto wrapped = [body = std::move(body)](Fiber&) mutable { body(); };
  std::unique_ptr<Fiber> f;
  if (!fiber_pool_.empty()) {
    f = std::move(fiber_pool_.back());
    fiber_pool_.pop_back();
  } else {
    f = sched_.take_free_fiber();
  }
  if (f) {
    f->rebind(std::move(wrapped));
    counters_.stacks_reused++;
    return f.release();
  }
  counters_.fibers_created++;
  return new Fiber(std::move(wrapped), stack_bytes_);
}

void Worker::recycle(Fiber* f) {
  // Ownership follows the finisher: whichever worker ran the fiber to
  // completion pools its stack. (The previous design kept ownership with
  // the *creating* worker, so a fiber that finished elsewhere after a
  // migration was never recycled and its stack lived until scheduler
  // shutdown — unbounded growth under a sustained job stream.) A small
  // local cache keeps the common case lock-free; everything beyond it
  // goes to the scheduler-wide free list so one worker cannot strand
  // stacks the others need.
  constexpr std::size_t kLocalFiberCache = 2;
  std::unique_ptr<Fiber> owned(f);
  if (fiber_pool_.size() < kLocalFiberCache) {
    fiber_pool_.push_back(std::move(owned));
    return;
  }
  sched_.push_free_fiber(std::move(owned));
}

void Worker::execute(Job* job) {
  // Everything the work item does — spawns, parks, wakes, handoffs — is
  // charged to its job: those edges never cross job boundaries (futures
  // are touched within the job that spawned them).
  current_job_ = std::move(job->job);
  Fiber* f = nullptr;
  if (job->kind == Job::Kind::Fresh) {
    // First Fresh task of the job == the root starting: stamp queue time
    // (admission → first run). Children are created only after the root
    // ran, and they reach other workers through deque push/steal edges
    // that order this store before their load — so the stamp has a single
    // writer and every later reader sees it set.
    // relaxed: single-writer store (see above); the done flag's
    // release/acquire pair publishes the final value to JobHandle readers.
    if (current_job_->queue_us.load(std::memory_order_relaxed) ==
        JobState::kQueueUnset) {
      current_job_->queue_us.store(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - current_job_->submitted)
                  .count()),
          std::memory_order_relaxed);  // see above
    }
    counters_.tasks_run++;
    f = acquire_fiber(std::move(job->run));
  } else {
    f = job->fiber;
    counters_.resumes++;
    if (f->user_data != this) counters_.migrations++;
  }
  delete job;
  run_fiber(f);
}

Fiber* Worker::take_handoff() {
  Fiber* next = std::exchange(handoff_, nullptr);
  if (next) counters_.handoff_runs++;
  return next;
}

void Worker::run_fiber(Fiber* f) {
  while (f) {
    f->user_data = this;
    tl_fiber = f;
    counters_.fiber_resumes++;
    f->resume(&sched_ctx_);
    tl_fiber = nullptr;
    // Back on the scheduler context. NOTE: `this` is still valid — the
    // scheduler context never migrates.
    Fiber* next = nullptr;
    if (f->finished()) {
      sched_.task_finished(*current_job_);
      next = take_handoff();
      recycle(f);
    } else {
      // The fiber suspended: a future-first spawn, a touch-first yield
      // (switch_to without a park state), or a park (possibly a yield-park
      // combined with a handoff — see switch_to).
      if (pending_continuation_) {
        // Now that the fiber is truly suspended, make its continuation
        // stealable, then run the fresh child (future-first spawn) or the
        // handed-off waiter (touch-first yield).
        auto* resume =
            new Job{Job::Kind::Resume, {},
                    std::exchange(pending_continuation_, nullptr),
                    current_job_};
        push(resume);
        counters_.continuations_pushed++;
        if (pending_child_) {
          counters_.tasks_run++;
          counters_.inline_children++;
          next = acquire_fiber(std::move(pending_child_->run));
          pending_child_.reset();
        } else {
          next = take_handoff();
        }
      } else {
        publish_pending_park();
        next = take_handoff();
      }
    }
    f = next;
  }
}

void Worker::publish_pending_park() {
  FutureStateBase* st = std::exchange(pending_park_state_, nullptr);
  Fiber* f = std::exchange(pending_park_fiber_, nullptr);
  WSF_CHECK(st != nullptr && f != nullptr, "suspend without a protocol");
  if (!st->try_park(f)) {
    // The producer beat us to it; resume the consumer immediately — unless
    // this was a yield-park already carrying a handed-off waiter, in which
    // case the consumer is woken through the deque instead.
    if (handoff_ == nullptr) {
      handoff_ = f;
    } else {
      push_resume(f);
    }
  }
}

void Worker::spawn_future_first(Fiber& parent, std::unique_ptr<Job> child) {
  child->job = current_job_;
  sched_.task_started(*current_job_);
  pending_child_ = std::move(child);
  pending_continuation_ = &parent;
  parent.suspend();
  // Resumed (possibly on another worker after a steal) — nothing to do;
  // the caller must re-read current_worker().
}

void Worker::spawn_parent_first(std::unique_ptr<Job> child) {
  child->job = current_job_;
  sched_.task_started(*current_job_);
  push(child.release());
}

void Worker::park_on(FutureStateBase& state, Fiber& f) {
  pending_park_state_ = &state;
  pending_park_fiber_ = &f;
  f.suspend();
}

void Worker::set_handoff(Fiber* f) {
  WSF_CHECK(handoff_ == nullptr, "double handoff");
  handoff_ = f;
}

void Worker::push_resume(Fiber* f) {
  push(new Job{Job::Kind::Resume, {}, f, current_job_});
  counters_.wakes_pushed++;
}

void Worker::switch_to(Fiber& current, Fiber* next,
                       FutureStateBase* park_state) {
  if (park_state) {
    pending_park_state_ = park_state;
    pending_park_fiber_ = &current;
  } else {
    pending_continuation_ = &current;
  }
  set_handoff(next);
  current.suspend();
  // Resumed (possibly on another worker) — the caller must re-read
  // current_worker().
}

}  // namespace detail

Scheduler::Scheduler(const RuntimeOptions& opts) : opts_(opts) {
  std::uint32_t n = opts_.workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  for (std::uint32_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<detail::Worker>(*this, i, opts_));
  baseline_.resize(n);
  threads_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { workers_[i]->main_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  // Both release: a parked worker wakes on the bump, and one that reads the
  // bumped epoch before parking (acquire) also sees stop in its re-check.
  stop_.store(true, std::memory_order_release);
  work_epoch_.fetch_add(1, std::memory_order_release);  // see above
  work_epoch_.notify_all();
  for (auto& t : threads_) t.join();
  // drain() emptied the inbox; defensive cleanup if a job was admitted
  // concurrently with destruction (a contract violation). Locked even
  // though the workers are gone — inbox_ is guarded by inbox_mutex_, and
  // the uncontended acquire is cheaper than carving out an exemption.
  support::LockGuard lock(inbox_mutex_);
  for (auto& bucket : inbox_)
    for (detail::Job* j : bucket) delete j;
}

std::shared_ptr<detail::JobState> Scheduler::make_job_state(
    const JobOptions& opts) {
  auto js = std::make_shared<detail::JobState>();
  js->submitted = std::chrono::steady_clock::now();
  js->priority = opts.priority;
  if (opts.deadline.count() > 0) js->deadline = js->submitted + opts.deadline;
  if (opts.counters) {
    js->want_counters = true;
    js->baseline.reserve(workers_.size());
    for (const auto& w : workers_) js->baseline.push_back(w->counters());
  }
  return js;
}

void Scheduler::inject(std::unique_ptr<detail::Job> job) {
  detail::Job* raw = job.get();
  const SubmitStatus st = admit(&raw, 1, AdmitOptions{});
  WSF_CHECK(st == SubmitStatus::Admitted, "Block admission cannot fail");
  job.release();  // the inbox owns it now
}

void Scheduler::submit(Batch&& batch) {
  const SubmitStatus st = try_submit(batch, AdmitOptions{});
  WSF_CHECK(st == SubmitStatus::Admitted, "Block admission cannot fail");
}

SubmitStatus Scheduler::try_submit(Batch& batch,
                                   const AdmitOptions& admit_opts) {
  WSF_REQUIRE(batch.sched_ == this,
              "batch was staged for a different scheduler");
  if (batch.staged_.empty()) return SubmitStatus::Admitted;
  std::vector<detail::Job*> raw;
  raw.reserve(batch.staged_.size());
  for (const auto& job : batch.staged_) raw.push_back(job.get());
  const SubmitStatus st = admit(raw.data(), raw.size(), admit_opts);
  if (st != SubmitStatus::Admitted) return st;  // batch left intact
  for (auto& job : batch.staged_) job.release();  // the inbox owns them now
  batch.staged_.clear();
  return st;
}

SubmitStatus Scheduler::admit(detail::Job** jobs, std::size_t n,
                              const AdmitOptions& admit_opts) {
  using clock = std::chrono::steady_clock;
  // relaxed (here and for every adm_* cell): pure statistics — no payload
  // is published through them and AdmissionStats is exact at quiescence.
  adm_submitted_.fetch_add(n, std::memory_order_relaxed);
  const std::size_t cap = opts_.inbox_capacity;
  // An oversized batch can never fit under Block/Timeout — refuse up
  // front instead of deadlocking the submitter.
  WSF_REQUIRE(cap == 0 || admit_opts.policy == SubmitPolicy::Reject ||
                  n <= cap,
              "batch exceeds the inbox capacity and would block forever");
  {
    support::UniqueLock lock(inbox_mutex_);
    if (cap != 0 && inbox_size_ + n > cap) {
      if (admit_opts.policy == SubmitPolicy::Reject) {
        adm_rejected_.fetch_add(n, std::memory_order_relaxed);  // see above
        return SubmitStatus::Rejected;
      }
      const clock::time_point t0 = clock::now();
      bool fits = true;
      ++space_waiters_;
      if (admit_opts.policy == SubmitPolicy::Block) {
        inbox_space_cv_.wait(lock, [&] { return inbox_size_ + n <= cap; });
      } else {
        fits = inbox_space_cv_.wait_for(
            lock, admit_opts.timeout,
            [&] { return inbox_size_ + n <= cap; });
      }
      --space_waiters_;
      adm_blocked_us_.fetch_add(  // see above
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  clock::now() - t0)
                  .count()),
          std::memory_order_relaxed);  // see above
      if (!fits) {
        adm_timed_out_.fetch_add(n, std::memory_order_relaxed);  // see above
        return SubmitStatus::TimedOut;
      }
    }
    // Admitted: count the jobs in flight *before* they become visible to
    // workers (both under inbox_mutex_, so a taker that sees a job also
    // sees the incremented count — its completion can never drive
    // jobs_in_flight_ below zero).
    // relaxed: moving away from quiescence wakes nobody; only the
    // decrement back toward zero (complete_job) joins the cv protocol.
    jobs_in_flight_.fetch_add(n, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      detail::Job* j = jobs[i];
      inbox_[static_cast<std::size_t>(j->job->priority)].push_back(j);
      if (j->job->deadline != clock::time_point::max()) ++inbox_deadlines_;
    }
    inbox_size_ += n;
  }
  // One wake admits all n jobs: the woken worker pushes the admission
  // batch's extras through Worker::push, which wakes the next sleeper.
  wake_one();
  adm_admitted_.fetch_add(n, std::memory_order_relaxed);  // see above
  return SubmitStatus::Admitted;
}

void Scheduler::abandon(std::unique_ptr<detail::Job> job) {
  // Staged but never admitted (its Batch was destroyed): jobs_in_flight_
  // was never incremented. Mark the job done so its handle's wait()
  // returns — and throws, because the future state is unfulfilled.
  std::shared_ptr<detail::JobState> js = std::move(job->job);
  job.reset();
  finish_without_run(*js, JobOutcome::Abandoned, /*was_admitted=*/false);
}

void Scheduler::finish_without_run(detail::JobState& js, JobOutcome outcome,
                                   bool was_admitted) {
  const std::uint64_t waited = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - js.submitted)
          .count());
  // All three relaxed: the done flag's release-store below publishes them
  // to acquire-side readers (same contract as complete_job). The whole
  // wait was queueing — the job never ran, so service time is zero.
  js.queue_us.store(waited, std::memory_order_relaxed);
  js.latency_us.store(waited, std::memory_order_relaxed);  // ditto
  js.outcome.store(outcome, std::memory_order_relaxed);    // ditto
  {
    support::LockGuard lock(quiescent_mutex_);
    // release (under quiescent_mutex_ for the cv protocol): pairs with
    // wait_job's acquire so the waiter sees the outcome and timings.
    js.done.store(true, std::memory_order_release);
    if (was_admitted) {
      // acq_rel: the step toward zero must be ordered with drain()'s
      // acquire read, exactly as in complete_job.
      jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  quiescent_cv_.notify_all();
}

detail::Job* Scheduler::take_injected(detail::Worker& taker) {
  constexpr std::size_t kAdmitBatch = 4;
  /// Bounded shed work per call: a take under a deadline-heavy backlog
  /// sheds at most this many expired jobs, then returns and lets the next
  /// find_work round continue — keeping the inbox critical section short.
  constexpr std::size_t kShedBatch = 8;
  detail::Job* first = nullptr;
  detail::Job* extras[kAdmitBatch - 1];
  std::size_t n_extras = 0;
  detail::Job* shed[kShedBatch];
  std::size_t n_shed = 0;
  bool notify_space = false;
  // relaxed probe before the lock: a stale zero only defers this worker to
  // its next round, and park() re-checks before sleeping.
  if (inbox_size_.load(std::memory_order_relaxed) == 0) return nullptr;
  {
    support::LockGuard lock(inbox_mutex_);
    // One clock read per take, and only on streams that carry deadlines.
    const auto now = inbox_deadlines_ > 0
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point::min();
    const std::size_t before = inbox_size_;
    for (auto& bucket : inbox_) {  // highest priority class first
      while (!bucket.empty() && n_extras + 1 < kAdmitBatch &&
             n_shed < kShedBatch) {
        detail::Job* j = bucket.front();
        const bool has_deadline =
            j->job->deadline != std::chrono::steady_clock::time_point::max();
        const bool expired = has_deadline && now >= j->job->deadline;
        bucket.pop_front();
        --inbox_size_;
        if (has_deadline) --inbox_deadlines_;
        if (expired) {
          shed[n_shed++] = j;
        } else if (first == nullptr) {
          first = j;
        } else {
          extras[n_extras++] = j;
        }
      }
      if ((first != nullptr && n_extras + 1 >= kAdmitBatch) ||
          n_shed >= kShedBatch)
        break;
    }
    notify_space = opts_.inbox_capacity != 0 && space_waiters_ > 0 &&
                   inbox_size_ < before;
  }
  // Wake blocked submitters outside the lock — they reacquire it in their
  // wait predicate anyway.
  if (notify_space) inbox_space_cv_.notify_all();
  // Expired jobs never run: resolve their handles as Shed and charge the
  // shedding worker's counter. They were admitted, so each retires one
  // jobs_in_flight_ slot. Not counted as inbox_takes — the acquisition
  // identities only track jobs that execute. The counter is bumped before
  // the handles resolve: finish_without_run wakes waiters, and a woken
  // client reading WorkerCounters must already see its job's shed.
  if (n_shed > 0) taker.counters().shed += n_shed;
  for (std::size_t i = 0; i < n_shed; ++i) {
    std::shared_ptr<detail::JobState> js = std::move(shed[i]->job);
    delete shed[i];
    finish_without_run(*js, JobOutcome::Shed, /*was_admitted=*/true);
  }
  // The extras become ordinary deque work (stealable); their acquisition
  // is counted when they are popped or stolen, so the work-accounting
  // identities still see exactly one source per job. Push newest first:
  // LIFO pops then run them oldest-first after `first`.
  for (std::size_t i = n_extras; i > 0; --i) taker.push(extras[i - 1]);
  return first;
}

void Scheduler::wake_one() {
  // Eventcount, publisher side: the fence orders the caller's publication
  // before the sleepers_ read (pairs with park()'s increment-then-fence);
  // acquire makes a counted sleeper's epoch read precede the bump.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_acquire) == 0) return;  // see above
  // release pairs with park()'s acquire epoch reads.
  work_epoch_.fetch_add(1, std::memory_order_release);
  work_epoch_.notify_one();
}

void Scheduler::task_finished(detail::JobState& js) {
  // acq_rel: the release half publishes this task's effects to whichever
  // thread performs the final decrement; the acquire half makes the final
  // decrementer see every other task's effects before completing the job.
  if (js.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1)
    complete_job(js);
}

void Scheduler::complete_job(detail::JobState& js) {
  // relaxed: the done flag's release-store below publishes the latency
  // (and the counter delta) to acquire-side readers.
  js.latency_us.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - js.submitted)
              .count()),
      std::memory_order_relaxed);  // see above
  if (js.want_counters) {
    // The acq_rel fetch_sub chain on js.outstanding ordered every event of
    // the job before this read, so the delta is complete.
    js.delta.per_worker.clear();
    for (std::size_t i = 0; i < workers_.size(); ++i)
      js.delta.per_worker.push_back(
          counters_since(workers_[i]->counters(), js.baseline[i]));
  }
  // relaxed: published by done's release-store below, like the latency.
  js.outcome.store(JobOutcome::Completed, std::memory_order_relaxed);
  {
    support::LockGuard lock(quiescent_mutex_);
    // release: publishes the job's results (latency, delta) to wait_job's
    // acquire read. Under quiescent_mutex_ so the store→notify pair cannot
    // slip between a waiter's predicate check and its sleep.
    js.done.store(true, std::memory_order_release);
    // acq_rel: the step toward zero must be ordered with drain()'s
    // acquire read (and with other completions' decrements).
    jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  quiescent_cv_.notify_all();
}

void Scheduler::wait_job(detail::JobState& js) {
  // acquire pairs with complete_job/abandon's release-store: done == true
  // makes the job's results visible to this thread.
  if (js.done.load(std::memory_order_acquire)) return;
  support::UniqueLock lock(quiescent_mutex_);
  quiescent_cv_.wait(lock, [&js] {
    // acquire: same pairing as the fast path above.
    return js.done.load(std::memory_order_acquire);
  });
}

void Scheduler::drain() {
  support::UniqueLock lock(quiescent_mutex_);
  quiescent_cv_.wait(lock, [this] {
    // acquire pairs with complete_job's acq_rel decrement: at zero, every
    // completed job's effects are visible to the drainer.
    return jobs_in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void Scheduler::prewarm(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    push_free_fiber(
        std::make_unique<Fiber>([](Fiber&) {}, opts_.stack_bytes));
}

void Scheduler::push_free_fiber(std::unique_ptr<Fiber> f) {
  support::LockGuard lock(fiber_free_mutex_);
  fiber_free_.push_back(std::move(f));
}

std::unique_ptr<Fiber> Scheduler::take_free_fiber() {
  support::LockGuard lock(fiber_free_mutex_);
  if (fiber_free_.empty()) return nullptr;
  std::unique_ptr<Fiber> f = std::move(fiber_free_.back());
  fiber_free_.pop_back();
  return f;
}

CountersReport Scheduler::counters() const {
  CountersReport report;
  for (std::size_t i = 0; i < workers_.size(); ++i)
    report.per_worker.push_back(
        counters_since(workers_[i]->counters(), baseline_[i]));
  return report;
}

void Scheduler::reset_counters() {
  for (std::size_t i = 0; i < workers_.size(); ++i)
    baseline_[i] = workers_[i]->counters();
}

namespace {

/// The process-wide lease registry behind SharedScheduler::acquire. A
/// named struct (not function-statics) so the map can carry its
/// WSF_GUARDED_BY contract — capability attributes attach to members.
struct LeaseRegistry {
  struct Key {
    std::uint32_t workers;
    SpawnPolicy policy;
    std::size_t stack_bytes;
    core::StealPolicy steal;
    core::VictimPolicy victim;
    bool operator<(const Key& o) const {
      return std::tie(workers, policy, stack_bytes, steal, victim) <
             std::tie(o.workers, o.policy, o.stack_bytes, o.steal, o.victim);
    }
  };
  support::Mutex mutex;
  std::map<Key, std::weak_ptr<SharedScheduler>> entries
      WSF_GUARDED_BY(mutex);
};

LeaseRegistry& lease_registry() {
  static LeaseRegistry registry;
  return registry;
}

}  // namespace

std::shared_ptr<SharedScheduler> SharedScheduler::acquire(
    const RuntimeOptions& opts) {
  RuntimeOptions resolved = opts;
  if (resolved.workers == 0)
    resolved.workers = std::max(1u, std::thread::hardware_concurrency());
  const LeaseRegistry::Key key{resolved.workers, resolved.policy,
                               resolved.stack_bytes, resolved.steal,
                               resolved.victim};

  LeaseRegistry& registry = lease_registry();
  support::LockGuard lock(registry.mutex);
  auto it = registry.entries.find(key);
  if (it != registry.entries.end())
    if (std::shared_ptr<SharedScheduler> live = it->second.lock())
      return live;
  std::shared_ptr<SharedScheduler> fresh(new SharedScheduler(resolved));
  registry.entries[key] = fresh;
  for (auto i = registry.entries.begin(); i != registry.entries.end();)
    i = i->second.expired() ? registry.entries.erase(i) : std::next(i);
  return fresh;
}

}  // namespace wsf::runtime
