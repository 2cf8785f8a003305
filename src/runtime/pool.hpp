// The work-stealing scheduler: worker threads, fibers, spawn policies.
//
// This is the runtime counterpart of the paper's model:
//   * one Chase–Lev deque per worker (parsimonious work stealing, §3);
//   * SpawnPolicy::FutureFirst — spawn suspends the parent, pushes its
//     continuation onto the deque bottom, and runs the future inline
//     (work-first; the policy Theorem 8 recommends);
//   * SpawnPolicy::ParentFirst — spawn pushes the future task and the parent
//     continues (help-first; the policy Theorem 10 warns about);
//   * an unresolved touch parks the consumer fiber; the producer resumes it
//     directly when the value is ready (eager resume).
//
// Every task runs on its own fiber (pooled stacks), so continuations are
// first-class and can be stolen like any other work item.
//
// The scheduler is a long-lived service: worker threads start once and then
// serve a *stream* of jobs. A job is one root closure plus everything it
// spawns; each job's completion is tracked independently (per-job
// outstanding-task count), so concurrent submitters never wait on each
// other's work. Admission goes through a FIFO inbox; idle workers spin
// briefly, then park on an eventcount that admission and deque pushes
// notify, so a pool of idle schedulers costs ~no CPU.
//
// One-shot usage (unchanged):
//   Scheduler sched({.workers = 4, .policy = SpawnPolicy::FutureFirst});
//   int r = sched.run([] {
//     auto f = spawn([] { return heavy(); });   // Future<int>
//     int local = other_work();
//     return f.touch() + local;
//   });
//
// Service usage:
//   auto h1 = sched.submit([] { return job_a(); });
//   auto h2 = sched.submit([] { return job_b(); });   // runs concurrently
//   use(h1.wait(), h2.wait());
//
// Reuse contract: submit()/run() may be called from any thread that is not
// a worker (use spawn() from inside a task); futures spawned by a job must
// be touched within that job; the destructor drains in-flight jobs before
// stopping the workers.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "runtime/chase_lev.hpp"
#include "support/move_only_function.hpp"
#include "runtime/counters.hpp"
#include "runtime/fiber.hpp"
#include "runtime/future.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_safety.hpp"

namespace wsf::runtime {

enum class SpawnPolicy {
  /// Run the spawned future first; push the parent continuation
  /// (work-first — recommended by the paper for structured computations).
  FutureFirst,
  /// Continue the parent; push the spawned future (help-first).
  ParentFirst,
};

inline const char* to_string(SpawnPolicy p) {
  return p == SpawnPolicy::FutureFirst ? "future-first" : "parent-first";
}

struct RuntimeOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::uint32_t workers = 0;
  SpawnPolicy policy = SpawnPolicy::FutureFirst;
  /// Stack bytes per fiber.
  std::size_t stack_bytes = 256 * 1024;
  /// Seed for victim selection.
  std::uint64_t seed = 0x5eed;
  /// How much a thief claims per successful steal (one task, or up to half
  /// the victim's deque via ChaseLevDeque::steal_batch).
  core::StealPolicy steal = core::StealPolicy::One;
  /// How a thief picks its victim (uniform random, last-victim affinity,
  /// or nearest-neighbor scan).
  core::VictimPolicy victim = core::VictimPolicy::Uniform;
  /// Admission-inbox capacity in jobs; 0 = unbounded (the pre-backpressure
  /// behavior). With a bound, submission under a full inbox follows the
  /// caller's SubmitPolicy (Block / Reject / Timeout) — the service's
  /// memory and tail latency stay bounded under sustained overload.
  std::size_t inbox_capacity = 0;
};

class Scheduler;
class Batch;

/// Admission-inbox priority class. The inbox is a small priority-bucketed
/// FIFO: higher classes are taken first; admission order is preserved
/// within a class.
enum class JobPriority : std::uint8_t { High = 0, Normal = 1, Low = 2 };
inline constexpr std::size_t kNumJobPriorities = 3;

inline const char* to_string(JobPriority p) {
  switch (p) {
    case JobPriority::High: return "high";
    case JobPriority::Low: return "low";
    default: return "normal";
  }
}

/// What happened to a submitted job, observable via JobHandle::outcome()
/// once done().
enum class JobOutcome : std::uint8_t {
  Pending = 0,    ///< not yet done
  Completed = 1,  ///< ran to completion (result or exception available)
  Shed = 2,       ///< deadline expired before it started; never ran
  Abandoned = 3,  ///< its Batch was destroyed before submission; never ran
};

inline const char* to_string(JobOutcome o) {
  switch (o) {
    case JobOutcome::Completed: return "completed";
    case JobOutcome::Shed: return "shed";
    case JobOutcome::Abandoned: return "abandoned";
    default: return "pending";
  }
}

/// Per-job knobs passed at submission.
struct JobOptions {
  /// Snapshot every worker's counters at admission and report the job's
  /// delta through JobHandle::counters(). The delta is exact (and satisfies
  /// the WorkerCounters reconciliation identities) when the job had the
  /// scheduler to itself; with concurrent tenants it includes their events
  /// too. Costs one per-worker snapshot per job — leave off on hot
  /// admission paths.
  bool counters = false;
  /// Inbox priority class (irrelevant once the job reaches a deque: only
  /// admission order is prioritized, stealing stays uniform).
  JobPriority priority = JobPriority::Normal;
  /// Relative deadline from admission; 0 = none. A job still in the inbox
  /// past its deadline is shed at take-time: it never runs, its handle
  /// resolves with JobOutcome::Shed, and the shedding worker counts it in
  /// WorkerCounters::shed.
  std::chrono::microseconds deadline{0};
};

/// What a submitter does when the bounded inbox is full.
enum class SubmitPolicy : std::uint8_t {
  /// Wait (condition variable) until space frees; the wait is charged to
  /// AdmissionStats::blocked_us.
  Block,
  /// Fail fast: try_submit returns Rejected and the job never existed as
  /// far as the scheduler is concerned (the caller retries or backs off).
  Reject,
  /// Wait at most AdmitOptions::timeout, then fail with TimedOut.
  Timeout,
};

inline const char* to_string(SubmitPolicy p) {
  switch (p) {
    case SubmitPolicy::Reject: return "reject";
    case SubmitPolicy::Timeout: return "timeout";
    default: return "block";
  }
}

/// Admission knobs for try_submit. Plain submit() always uses Block.
struct AdmitOptions {
  SubmitPolicy policy = SubmitPolicy::Block;
  /// Bound for SubmitPolicy::Timeout.
  std::chrono::microseconds timeout{1000};
};

enum class SubmitStatus : std::uint8_t { Admitted, Rejected, TimedOut };

inline const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::Rejected: return "rejected";
    case SubmitStatus::TimedOut: return "timed-out";
    default: return "admitted";
  }
}

/// Typed result of try_submit: the handle is valid only when admitted, so
/// a rejected submission is a value the caller can branch/retry on, not an
/// exception.
template <typename R>
class JobHandle;
template <typename R>
struct SubmitResult {
  SubmitStatus status = SubmitStatus::Admitted;
  JobHandle<R> handle;
  bool admitted() const { return status == SubmitStatus::Admitted; }
};

/// Submit-side admission statistics (process of record for everything the
/// per-worker counters cannot carry — these events happen on submitter
/// threads, so the cells are true multi-writer atomics, unlike the
/// single-writer WorkerCounters). Identities at quiescence:
///   submitted == admitted + rejected + timed_out
///   admitted  == completed + shed      (shed from WorkerCounters::shed)
struct AdmissionStats {
  std::uint64_t submitted = 0;  ///< jobs offered (attempts, retries counted)
  std::uint64_t admitted = 0;   ///< jobs that entered the inbox
  std::uint64_t rejected = 0;   ///< failed fast under SubmitPolicy::Reject
  std::uint64_t timed_out = 0;  ///< gave up under SubmitPolicy::Timeout
  std::uint64_t blocked_us = 0; ///< submitter wall time spent waiting for space
};

namespace detail {

/// Completion state of one submitted job (a root closure plus everything
/// it spawned). Shared between the submitting thread's JobHandle and every
/// work item belonging to the job.
/// Synchronization: `done` is the job's publication flag — the completing
/// worker writes every result field (latency_us, delta) *before* its
/// release-store of done, and readers (JobHandle) check done with an
/// acquire-load first, so those fields need no lock of their own.
/// want_counters/submitted/baseline are written once at admission, before
/// the job is visible to any worker, and read-only afterwards.
struct JobState {
  /// Tasks of this job not yet finished (the root counts as one).
  /// fetch_add is relaxed (only the count matters while running);
  /// fetch_sub is acq_rel so the final decrement orders every task's
  /// effects before completion (see Scheduler::task_finished).
  std::atomic<std::uint64_t> outstanding{1};
  /// Set (release, under quiescent_mutex_ for the cv protocol) exactly
  /// once, by the completing worker or by Scheduler::abandon.
  std::atomic<bool> done{false};
  bool want_counters = false;
  /// Inbox priority class, fixed at admission.
  JobPriority priority = JobPriority::Normal;
  std::chrono::steady_clock::time_point submitted{};
  /// Absolute deadline (max() = none), computed from JobOptions::deadline
  /// at staging. Written once before the job is visible; read at take-time.
  std::chrono::steady_clock::time_point deadline{
      std::chrono::steady_clock::time_point::max()};
  /// Admission-to-completion latency, stamped at completion. Atomic so
  /// done()-polling readers racing completion stay well-defined; relaxed
  /// because the done flag's release/acquire pair publishes it.
  std::atomic<std::uint64_t> latency_us{0};
  /// Admission-to-first-run wait (queue time); kQueueUnset until the root
  /// task starts. Written exactly once, by the worker that starts the root
  /// (children only exist after the root ran, so there is a single writer);
  /// relaxed because done's release/acquire pair publishes the final value
  /// and in-flight polls only need a non-torn read.
  std::atomic<std::uint64_t> queue_us{kQueueUnset};
  static constexpr std::uint64_t kQueueUnset = ~std::uint64_t{0};
  /// How the job ended; written before done's release-store, so any reader
  /// that observed done sees the final outcome.
  std::atomic<JobOutcome> outcome{JobOutcome::Pending};
  /// Per-worker counter values at admission (want_counters only).
  std::vector<WorkerCounters> baseline;
  /// live − baseline at completion (want_counters only).
  CountersReport delta;
};

/// A unit of deque work: either a fresh task (closure not yet started) or a
/// suspended fiber to resume. Every work item belongs to a job, whose
/// completion it keeps alive.
struct Job {
  enum class Kind : std::uint8_t { Fresh, Resume };
  Kind kind;
  support::MoveOnlyFunction<void()> run;  // Fresh
  Fiber* fiber = nullptr;     // Resume
  std::shared_ptr<JobState> job;
};

class Worker {
 public:
  Worker(Scheduler& sched, std::uint32_t id, const RuntimeOptions& opts);
  ~Worker();

  void main_loop();

  /// Called by spawn (future-first): defer-push the parent continuation and
  /// hand the fresh child job to the scheduler, then suspend the parent.
  void spawn_future_first(Fiber& parent, std::unique_ptr<Job> child);
  /// Called by spawn (parent-first): push the fresh child job.
  void spawn_parent_first(std::unique_ptr<Job> child);
  /// Called by touch on an unresolved future: park the calling fiber.
  void park_on(FutureStateBase& state, Fiber& f);
  /// Called by a producer that found a parked consumer.
  void set_handoff(Fiber* f);
  /// Wakes a parked fiber by pushing it onto the deque bottom as a Resume
  /// job, without suspending the caller (a continuation-first wake).
  void push_resume(Fiber* f);
  /// Suspends `current` to run `next` immediately (a touch-first wake).
  /// The suspended fiber becomes available again either as a deque Resume
  /// job (park_state == nullptr) or parked on `park_state` — the graph
  /// replay parks instead of pushing when the fiber's next step is itself
  /// an unready touch, mirroring the simulator's enabling semantics (a
  /// never-enabled node is never pushed). Must be called from inside
  /// `current`.
  void switch_to(Fiber& current, Fiber* next, FutureStateBase* park_state);

  WorkerCounters& counters() { return counters_; }
  std::uint32_t id() const { return id_; }
  Scheduler& scheduler() { return sched_; }

 private:
  friend class wsf::runtime::Scheduler;
  friend struct WorkerAudit;  // tests/test_false_sharing.cpp

  Job* find_work();
  /// The one way work enters a deque: push, then Scheduler::wake_one.
  void push(Job* j);
  /// Waits for the work epoch to move unless a re-check sees work or stop.
  void park();
  /// Chooses a steal victim under victim_policy_ (never this worker).
  std::uint32_t pick_victim(std::uint32_t n);
  /// One steal operation against `victim` under steal_policy_: steal-one
  /// takes the victim's top; steal-half claims up to half the victim's
  /// items, runs the oldest, and pushes the rest onto this worker's deque
  /// (their acquisition is counted when they are popped, like
  /// take_injected's admission batching).
  Job* steal_from(std::uint32_t victim);
  void execute(Job* job);
  void run_fiber(Fiber* f);
  /// Consumes the pending handoff (counting it), nullptr when none is set.
  Fiber* take_handoff();
  Fiber* acquire_fiber(support::MoveOnlyFunction<void()> body);
  void recycle(Fiber* f);
  void publish_pending_park();

  // ---- false-sharing layout (audited by tests/test_false_sharing.cpp) ----
  // The deque indices and the counters are the only Worker state other
  // threads touch (thieves CAS deque_.top_; snapshot readers scan
  // counters_). Both are line-aligned — their types already force this, but
  // the explicit alignas pins the intent against type changes — so the cold
  // header fields above deque_ and the owner-only scratch below counters_
  // never share a line with cross-thread traffic.
  Scheduler& sched_;
  std::uint32_t id_;
  std::size_t stack_bytes_;
  core::StealPolicy steal_policy_;
  core::VictimPolicy victim_policy_;
  alignas(64) ChaseLevDeque<Job*> deque_;
  support::Xoshiro256 rng_;
  alignas(64) WorkerCounters counters_;

  // ---- owner-only steal-loop state ----
  static constexpr std::uint32_t kNoVictim = ~std::uint32_t{0};
  /// Last worker a steal succeeded from (VictimPolicy::LastVictim).
  std::uint32_t last_victim_ = kNoVictim;
  /// Scratch buffer for ChaseLevDeque::steal_batch claims.
  std::vector<Job*> steal_buf_;

  // Scheduler-context scratch used by the suspend protocols.
  ucontext_t sched_ctx_{};
  Fiber* handoff_ = nullptr;
  std::unique_ptr<Job> pending_child_;
  Fiber* pending_continuation_ = nullptr;
  FutureStateBase* pending_park_state_ = nullptr;
  Fiber* pending_park_fiber_ = nullptr;
  /// The job whose work item execute() is currently running. Every edge a
  /// running fiber creates (spawned children, pushed continuations, parked
  /// wakes, handoffs) stays within its own job — futures never cross job
  /// boundaries — so the whole run_fiber chain charges this job.
  std::shared_ptr<JobState> current_job_;
  /// Small same-thread stack cache; overflow goes to the scheduler-wide
  /// free list so one worker cannot strand stacks other workers need.
  std::vector<std::unique_ptr<Fiber>> fiber_pool_;
};

/// The worker the calling thread belongs to, nullptr outside the pool.
/// noinline so fiber code re-reads it after suspension points (fibers can
/// migrate across worker threads).
Worker* current_worker() noexcept;
/// The fiber currently executing on this thread (nullptr on a scheduler
/// context).
Fiber* current_fiber() noexcept;

}  // namespace detail

/// Completion handle of one submitted job. Move-only; wait() may be called
/// once (for non-void R it consumes the value). done()/latency_us() are
/// valid anytime; counters() after completion, when the job was submitted
/// with JobOptions{.counters = true}.
template <typename R>
class JobHandle {
 public:
  JobHandle() = default;
  JobHandle(JobHandle&&) noexcept = default;
  JobHandle& operator=(JobHandle&&) noexcept = default;

  bool valid() const { return job_ != nullptr; }
  bool done() const {
    // acquire pairs with the completing worker's release-store: once done
    // reads true, every result field of the JobState is visible.
    return job_ && job_->done.load(std::memory_order_acquire);
  }
  /// Blocks until the job (root + everything it spawned) completes, then
  /// returns the root's result or rethrows its exception. Throws if the
  /// job never ran — shed past its deadline, or abandoned (its Batch was
  /// destroyed before submission); use wait_outcome() to branch without
  /// exceptions.
  R wait();
  /// Blocks until the job resolves and reports how, without consuming the
  /// result or throwing — the overload-tolerant wait: callers that expect
  /// shedding check the outcome, then call wait() only on Completed.
  JobOutcome wait_outcome();
  /// How the job ended; JobOutcome::Pending until done().
  JobOutcome outcome() const {
    WSF_REQUIRE(job_ != nullptr, "outcome() on an empty JobHandle");
    // acquire mirrors done(): observing a final outcome implies the
    // completing worker's other stores are visible too.
    return job_->outcome.load(std::memory_order_acquire);
  }
  /// Admission-to-completion wall time; valid once done(). For Shed jobs
  /// this is the time spent queued before the shed.
  std::uint64_t latency_us() const {
    WSF_REQUIRE(job_ != nullptr, "latency_us() on an empty JobHandle");
    // acquire mirrors done(): a reader that polls latency_us directly
    // still sees the completing worker's stores once a nonzero arrives.
    return job_->latency_us.load(std::memory_order_acquire);
  }
  /// Admission-to-first-run wait (queue time); valid once done(). Equals
  /// latency_us() for jobs that never ran (shed/abandoned).
  std::uint64_t queue_us() const {
    WSF_REQUIRE(job_ != nullptr, "queue_us() on an empty JobHandle");
    // acquire: same publication contract as latency_us above.
    const std::uint64_t q = job_->queue_us.load(std::memory_order_acquire);
    return q == detail::JobState::kQueueUnset ? 0 : q;
  }
  /// First-run-to-completion wall time (service time); valid once done().
  /// Zero for jobs that never ran. latency_us() == queue_us() +
  /// service_us(), so overload shows up in queue time instead of being
  /// smeared into one number.
  std::uint64_t service_us() const {
    const std::uint64_t l = latency_us();
    const std::uint64_t q = queue_us();
    return l > q ? l - q : 0;
  }
  /// The job's counter delta; valid once done(), requires
  /// JobOptions{.counters = true} at submission.
  const CountersReport& counters() const {
    WSF_REQUIRE(job_ && job_->want_counters,
                "counters() needs JobOptions{.counters = true}");
    WSF_REQUIRE(done(), "counters() before the job completed");
    return job_->delta;
  }

 private:
  friend class Scheduler;
  friend class Batch;
  JobHandle(Scheduler* sched, std::shared_ptr<detail::FutureState<R>> state,
            std::shared_ptr<detail::JobState> job)
      : sched_(sched), state_(std::move(state)), job_(std::move(job)) {}

  Scheduler* sched_ = nullptr;
  std::shared_ptr<detail::FutureState<R>> state_;
  std::shared_ptr<detail::JobState> job_;
};

class Scheduler {
 public:
  explicit Scheduler(const RuntimeOptions& opts = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits `root` as a new job and returns immediately. The job completes
  /// when the root and every task it spawned have finished (futures never
  /// touched included — the runtime analogue of the paper's super final
  /// node, §6.2). Safe to call from several threads concurrently; must not
  /// be called from a worker (use spawn() inside tasks).
  template <typename F>
  auto submit(F&& root, const JobOptions& opts = {})
      -> JobHandle<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto state = std::make_shared<detail::FutureState<R>>();
    auto job = make_job(state, std::forward<F>(root));
    std::shared_ptr<detail::JobState> js = make_job_state(opts);
    job->job = js;
    inject(std::move(job));
    return JobHandle<R>(this, std::move(state), std::move(js));
  }

  /// Runs `root` to completion inside the pool and returns its result —
  /// submit() + wait(). May be called repeatedly and, because completion is
  /// tracked per job, concurrently from several submitter threads.
  template <typename F>
  auto run(F&& root) -> std::invoke_result_t<F> {
    return submit(std::forward<F>(root)).wait();
  }

  /// submit() with an explicit admission policy. Returns a typed result:
  /// the handle is valid only when status == Admitted. Under an unbounded
  /// inbox (inbox_capacity == 0) admission always succeeds immediately.
  template <typename F>
  auto try_submit(F&& root, const JobOptions& opts = {},
                  const AdmitOptions& admit_opts = {})
      -> SubmitResult<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto state = std::make_shared<detail::FutureState<R>>();
    auto job = make_job(state, std::forward<F>(root));
    std::shared_ptr<detail::JobState> js = make_job_state(opts);
    job->job = js;
    detail::Job* raw = job.get();
    const SubmitStatus st = admit(&raw, 1, admit_opts);
    if (st != SubmitStatus::Admitted) return {st, JobHandle<R>{}};
    job.release();  // ownership passed to the inbox by admit()
    return {st, JobHandle<R>(this, std::move(state), std::move(js))};
  }

  /// Admits every job staged in `batch` with one queue operation and one
  /// worker wake — the cheap way to push thousands of small jobs.
  void submit(Batch&& batch) WSF_EXCLUDES(inbox_mutex_);

  /// submit(Batch&&) with an explicit admission policy; all-or-nothing.
  /// On Rejected/TimedOut the batch is left intact — the caller can retry
  /// later or drop it (dropping abandons the jobs, resolving their handles
  /// with JobOutcome::Abandoned). A Block/Timeout batch larger than the
  /// inbox capacity can never fit and is refused up front.
  SubmitStatus try_submit(Batch& batch, const AdmitOptions& admit_opts = {})
      WSF_EXCLUDES(inbox_mutex_);

  /// Blocks until no job is in flight. (New submissions admitted while
  /// draining extend the wait.)
  void drain() WSF_EXCLUDES(quiescent_mutex_);

  /// Pre-provisions `count` fiber stacks into the scheduler-wide free
  /// list — capacity planning for a known admission burst, so a load run
  /// reaches zero steady-state stack allocation deterministically instead
  /// of relying on warmup having touched the peak. Acquiring a prewarmed
  /// stack counts as stacks_reused; prewarming itself counts nothing.
  void prewarm(std::size_t count) WSF_EXCLUDES(fiber_free_mutex_);

  SpawnPolicy policy() const { return opts_.policy; }
  std::uint32_t num_workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }
  /// Admission-inbox capacity in jobs; 0 = unbounded.
  std::size_t inbox_capacity() const { return opts_.inbox_capacity; }

  /// Snapshot of the submit-side admission statistics (racy while
  /// submitters run; exact at quiescence — see AdmissionStats for the
  /// identities that close against the worker counters).
  AdmissionStats admission() const {
    AdmissionStats s;
    // relaxed: statistics snapshot — cells may be mutually skewed while
    // submitters race; each read is atomic and exactness holds at
    // quiescence, same contract as RelaxedCounter.
    s.submitted = adm_submitted_.load(std::memory_order_relaxed);
    s.admitted = adm_admitted_.load(std::memory_order_relaxed);    // ditto
    s.rejected = adm_rejected_.load(std::memory_order_relaxed);    // ditto
    s.timed_out = adm_timed_out_.load(std::memory_order_relaxed);  // ditto
    s.blocked_us = adm_blocked_us_.load(std::memory_order_relaxed);  // ditto
    return s;
  }

  /// Snapshot of all worker counters since the last reset (racy while tasks
  /// run; exact when quiescent).
  CountersReport counters() const;
  /// Rebaselines the counters so subsequent counters() calls report only
  /// events from here on. Implemented as a baseline snapshot, not a write
  /// to the live cells: workers stay the sole writers of their counters.
  /// Scheduler-wide — for per-job deltas use JobOptions{.counters = true}.
  void reset_counters();

  /// Wraps a closure and its future state into a fresh deque job. Exposed
  /// for spawn(); not part of the stable user API.
  template <typename R, typename F>
  static std::unique_ptr<detail::Job> make_job(
      std::shared_ptr<detail::FutureState<R>> state, F&& fn) {
    auto job = std::make_unique<detail::Job>();
    job->kind = detail::Job::Kind::Fresh;
    job->run = [state = std::move(state),
                fn = std::forward<F>(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
        } else {
          state->emplace(fn());
        }
      } catch (...) {
        state->error = std::current_exception();
      }
      if (Fiber* waiter = state->publish_ready()) {
        detail::current_worker()->set_handoff(waiter);
        detail::current_worker()->counters().direct_handoffs++;
      }
    };
    return job;
  }

 private:
  friend class detail::Worker;
  friend class Batch;
  template <typename R>
  friend class JobHandle;

  /// Allocates the completion state for a new job (stamps the admission
  /// time and absolute deadline; snapshots counter baselines when
  /// opts.counters).
  std::shared_ptr<detail::JobState> make_job_state(const JobOptions& opts);
  void inject(std::unique_ptr<detail::Job> job)
      WSF_EXCLUDES(inbox_mutex_);
  /// The one admission gate: applies the capacity bound under
  /// `admit_opts.policy`, then moves all `n` jobs into the priority
  /// buckets and wakes workers. All-or-nothing; on success ownership of
  /// the raw pointers passes to the inbox (callers release their
  /// unique_ptrs), on failure the caller keeps them. Updates the
  /// admission statistics either way.
  SubmitStatus admit(detail::Job** jobs, std::size_t n,
                     const AdmitOptions& admit_opts)
      WSF_EXCLUDES(inbox_mutex_);
  /// Pops the oldest injected job of the highest nonempty priority class;
  /// pulls a few more into the calling worker's deque (admission batching)
  /// so a burst of tiny jobs does not serialize on the inbox lock.
  /// Deadline-expired jobs encountered on the way are shed: never run,
  /// charged to `taker.counters().shed`, their handles resolved with
  /// JobOutcome::Shed.
  detail::Job* take_injected(detail::Worker& taker)
      WSF_EXCLUDES(inbox_mutex_);
  /// After publishing work: bumps work_epoch_ and wakes one parked worker,
  /// only when sleepers_ counts one.
  void wake_one();
  /// Marks a staged-but-never-admitted job completed-without-running so
  /// its handle's wait() throws instead of hanging.
  void abandon(std::unique_ptr<detail::Job> job)
      WSF_EXCLUDES(quiescent_mutex_);
  /// Resolves a job that will never run (Shed or Abandoned): stamps its
  /// latency/queue time, publishes the outcome + done flag, and — when the
  /// job had been admitted — retires it from jobs_in_flight_.
  void finish_without_run(detail::JobState& js, JobOutcome outcome,
                          bool was_admitted)
      WSF_EXCLUDES(quiescent_mutex_);

  void task_started(detail::JobState& js) {
    // relaxed: only the count matters while the job runs; the completing
    // decrement (acq_rel in task_finished) provides the ordering.
    js.outstanding.fetch_add(1, std::memory_order_relaxed);
  }
  void task_finished(detail::JobState& js) WSF_EXCLUDES(quiescent_mutex_);
  void complete_job(detail::JobState& js) WSF_EXCLUDES(quiescent_mutex_);
  void wait_job(detail::JobState& js) WSF_EXCLUDES(quiescent_mutex_);

  /// Fiber-stack free list shared by all workers: recycled stacks beyond a
  /// worker's small local cache land here, so steady-state load re-uses
  /// stacks instead of growing per-worker pools.
  void push_free_fiber(std::unique_ptr<Fiber> f)
      WSF_EXCLUDES(fiber_free_mutex_);
  std::unique_ptr<Fiber> take_free_fiber() WSF_EXCLUDES(fiber_free_mutex_);

  RuntimeOptions opts_;
  /// Immutable after the constructor returns (and the constructor starts
  /// the worker threads only after the vector is fully built), so workers
  /// may index into it lock-free.
  std::vector<std::unique_ptr<detail::Worker>> workers_;
  /// Per-worker counter values captured at the last reset_counters().
  std::vector<WorkerCounters> baseline_;
  std::vector<std::thread> threads_;
  /// Shutdown flag: release-store in the destructor before its final epoch
  /// bump, acquire-load in worker idle loops and in the park re-check.
  std::atomic<bool> stop_{false};
  /// Jobs admitted and not yet completed (drain()'s condition). Incremented
  /// relaxed at admission — going *away* from quiescence never needs to
  /// wake anyone; decremented acq_rel under quiescent_mutex_ so drain()'s
  /// cv wait cannot miss the step to zero.
  std::atomic<std::uint64_t> jobs_in_flight_{0};

  support::Mutex inbox_mutex_;
  /// Priority-bucketed FIFO: one deque per JobPriority class, taken
  /// highest class first, admission order within a class. With
  /// inbox_capacity == 0 (default) and Normal-only traffic this degrades
  /// to exactly the old single FIFO.
  std::array<std::deque<detail::Job*>, kNumJobPriorities> inbox_
      WSF_GUARDED_BY(inbox_mutex_);
  /// Total jobs across all buckets — the capacity bound's subject. Written
  /// under inbox_mutex_; atomic so idle workers can probe it lock-free.
  std::atomic<std::size_t> inbox_size_{0};
  /// Queued jobs carrying a deadline; lets take_injected skip the clock
  /// read entirely on deadline-free streams (the common case).
  std::size_t inbox_deadlines_ WSF_GUARDED_BY(inbox_mutex_) = 0;
  /// Submitters currently blocked waiting for space; takers only notify
  /// the space cv when this is nonzero, keeping the unbounded/uncontended
  /// take path free of cv traffic.
  std::size_t space_waiters_ WSF_GUARDED_BY(inbox_mutex_) = 0;
  /// Blocked/timed-out submitters park here; take_injected notifies as it
  /// frees space under a bounded capacity.
  support::CondVar inbox_space_cv_;

  // Submit-side admission statistics (see AdmissionStats). True RMW
  // atomics — many submitter threads bump them concurrently — unlike the
  // single-writer RelaxedCounter cells in WorkerCounters.
  std::atomic<std::uint64_t> adm_submitted_{0};
  std::atomic<std::uint64_t> adm_admitted_{0};
  std::atomic<std::uint64_t> adm_rejected_{0};
  std::atomic<std::uint64_t> adm_timed_out_{0};
  std::atomic<std::uint64_t> adm_blocked_us_{0};

  /// The idle eventcount (Worker::park, wake_one): a push into a pool with
  /// no sleeper costs one fence and one load. Own line: every push reads it.
  alignas(64) std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<std::uint32_t> work_epoch_{0};

  support::Mutex fiber_free_mutex_;
  std::vector<std::unique_ptr<Fiber>> fiber_free_
      WSF_GUARDED_BY(fiber_free_mutex_);

  /// Serves JobHandle::wait() and drain(). Completion events are rare
  /// (once per job), so one scheduler-wide cv is enough. Guards no members
  /// directly: the waited-on state (JobState::done, jobs_in_flight_) is
  /// atomic, and the mutex exists so completion's store→notify cannot
  /// interleave into a waiter between its predicate check and its sleep.
  support::Mutex quiescent_mutex_;
  support::CondVar quiescent_cv_;
};

/// Stages jobs for a single admission: handles are live immediately, the
/// jobs start running when the batch is passed to Scheduler::submit. A
/// batch destroyed without being submitted abandons its jobs — their
/// handles' wait() throws.
class Batch {
 public:
  explicit Batch(Scheduler& sched) : sched_(&sched) {}
  ~Batch() {
    for (auto& job : staged_) sched_->abandon(std::move(job));
  }
  Batch(Batch&&) noexcept = default;
  Batch& operator=(Batch&&) = delete;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  template <typename F>
  auto add(F&& root, const JobOptions& opts = {})
      -> JobHandle<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto state = std::make_shared<detail::FutureState<R>>();
    auto job = Scheduler::make_job(state, std::forward<F>(root));
    std::shared_ptr<detail::JobState> js = sched_->make_job_state(opts);
    job->job = js;
    staged_.push_back(std::move(job));
    return JobHandle<R>(sched_, std::move(state), std::move(js));
  }

  std::size_t size() const { return staged_.size(); }
  Scheduler& scheduler() { return *sched_; }

 private:
  friend class Scheduler;
  Scheduler* sched_;
  std::vector<std::unique_ptr<detail::Job>> staged_;
};

template <typename R>
R JobHandle<R>::wait() {
  const JobOutcome o = wait_outcome();
  WSF_CHECK(o != JobOutcome::Shed, "job was shed: its deadline expired "
            "before it started (use wait_outcome() to handle shedding)");
  WSF_CHECK(state_->ready(),
            "job did not complete (batch abandoned before submit?)");
  if (state_->error) std::rethrow_exception(state_->error);
  if constexpr (!std::is_void_v<R>) {
    state_->taken = true;
    return state_->take();
  }
}

template <typename R>
JobOutcome JobHandle<R>::wait_outcome() {
  WSF_REQUIRE(job_ != nullptr, "wait_outcome() on an empty JobHandle");
  sched_->wait_job(*job_);
  // acquire pairs with the completing worker's outcome store before its
  // done release (wait_job already synchronized, but keep the read
  // self-sufficient).
  return job_->outcome.load(std::memory_order_acquire);
}

/// A process-wide, reference-counted lease on a long-lived Scheduler.
/// acquire() returns the live scheduler for (resolved worker count, policy,
/// stack size, steal policy, victim policy) or starts one; the scheduler
/// dies when the last lease drops.
/// This is how independent components (e.g. the sweep backend's worker
/// threads) share one warm pool instead of churning a scheduler each.
/// RuntimeOptions::seed is deliberately not part of the key: it only
/// perturbs victim selection, and the runtime is not deterministic per seed
/// anyway (unlike the simulator).
class SharedScheduler {
 public:
  static std::shared_ptr<SharedScheduler> acquire(const RuntimeOptions& opts);

  Scheduler& scheduler() { return sched_; }
  /// Hold while per-job counter deltas must be free of other tenants'
  /// events (JobOptions::counters is exact only in isolation). An
  /// annotated capability, so lessee code can carry WSF_REQUIRES /
  /// WSF_GUARDED_BY contracts on it (exp::RuntimeBackend does).
  support::Mutex& exclusive() WSF_RETURN_CAPABILITY(exclusive_) {
    return exclusive_;
  }

 private:
  explicit SharedScheduler(const RuntimeOptions& opts) : sched_(opts) {}
  Scheduler sched_;
  support::Mutex exclusive_;
};

/// Spawns `fn` as a future task under the scheduler's policy. Must be
/// called from inside a task (i.e. on a worker fiber).
template <typename F>
auto spawn(F&& fn) -> Future<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  detail::Worker* w = detail::current_worker();
  WSF_REQUIRE(w != nullptr, "spawn() outside the scheduler");
  auto state = std::make_shared<detail::FutureState<R>>();
  auto job = Scheduler::make_job(state, std::forward<F>(fn));
  w->counters().spawns++;
  if (w->scheduler().policy() == SpawnPolicy::FutureFirst) {
    Fiber* parent = detail::current_fiber();
    WSF_CHECK(parent != nullptr, "spawn outside a task fiber");
    w->spawn_future_first(*parent, std::move(job));
  } else {
    w->spawn_parent_first(std::move(job));
  }
  return Future<R>(std::move(state));
}

}  // namespace wsf::runtime
