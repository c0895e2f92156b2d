// The event-driven I/O core: a reactor that carries every transport link
// in the process, built on a pluggable I/O backend (net/io_backend.h).
//
// One `EventLoop` owns one IoBackend instance and one thread; every
// descriptor registered with it is serviced by that thread alone, so
// per-connection state machines (net/link.h, net/framing.h) never need
// their own synchronization.  The backend is epoll by default; with
// RSF_IO_BACKEND=uring (or auto, on capable hosts) it is an io_uring
// ring, where one io_uring_enter per loop turn submits every link's
// staged send/recv SQEs and reaps every completion — the syscall-
// batching optimization this layer exists to enable (DESIGN.md §10).
// A small fixed pool of loops (`Reactor`, sized from the host's core
// count) carries every TCP publication and subscription link in the
// process — total transport threads stay constant no matter how many
// links exist, which is what lets node/topic counts scale past the point
// where one thread per link exhausts the scheduler (HPRM/DORA make the
// same argument; see DESIGN.md §8).
//
// Cross-thread arming goes through an eventfd wakeup: `Post` enqueues a
// task and kicks the eventfd, `RunInLoop` runs inline when already on the
// loop thread, and `RunSync` blocks until the loop has executed the task —
// the teardown primitive that lets Publication/Subscription destructors
// guarantee no callback touches freed state.  `RunAfter` schedules delayed
// tasks on a per-loop timerfd — the facility that lets SimLink-shaped
// deliveries pace themselves on the loop instead of sleeping a dedicated
// reader thread.  Both descriptors are registered with the backend like
// any other fd, so timers and wakeups need no backend-specific plumbing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/io_backend.h"

namespace rsf::net {

/// One I/O backend instance + one servicing thread.  Registration (`Add`,
/// `SetInterest`, `Remove`) is loop-thread-only: call through RunInLoop /
/// Post from other threads.  Callbacks run on the loop thread.
class EventLoop {
 public:
  using EventCallback = std::function<void(uint32_t events)>;
  using Task = std::function<void()>;

  /// Builds on the process-selected backend (RSF_IO_BACKEND).
  EventLoop();
  /// Builds on a specific backend kind (tests, the bench).  A uring
  /// request still falls back to epoll when the host can't run it.
  explicit EventLoop(IoBackendKind kind);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the servicing thread.  Idempotent.
  void Start();
  /// Stops the loop and joins the thread.  Idempotent; safe to call with
  /// handlers still registered (they are dropped, closing nothing — fd
  /// ownership stays with the handler's captures).  Pending timers are
  /// DISCARDED (unlike accepted Post tasks, which are guaranteed to run):
  /// a delayed task firing after its loop died has no state left to pace.
  void Stop();

  [[nodiscard]] bool InLoopThread() const noexcept;
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Queues `task` for the loop thread and wakes it.  Returns false (task
  /// not queued) once Stop has begun; every accepted task is guaranteed to
  /// run — by the loop, or by Stop's post-join drain.
  bool Post(Task task);
  /// Runs `task` inline when on the loop thread, else Post.
  void RunInLoop(Task task);
  /// Runs `task` on the loop thread and waits for completion.  Inline when
  /// already on the loop thread; also inline when the loop is not running
  /// (teardown after Stop — there is no concurrent access left to race).
  void RunSync(Task task);

  /// Schedules `task` to run on the loop thread once `delay_nanos` have
  /// elapsed (timerfd precision; delay 0 fires on the next loop turn).
  /// Callable from any thread.  Tasks with equal deadlines run in
  /// scheduling order.  Returns false once Stop has begun; pending timers
  /// are discarded at Stop.  There is no cancellation — capture weak
  /// pointers and let a stale firing no-op.
  bool RunAfter(uint64_t delay_nanos, Task task);

  /// Registers `fd` with the given interest bits.  The callback receives
  /// the ready bits; error/hangup conditions are folded into readability
  /// (and writability, when armed) so the next syscall surfaces the errno.
  /// Loop-thread-only.
  void Add(int fd, uint32_t interest, EventCallback callback);
  /// Replaces the interest bits of a registered fd.  Interest 0 parks the
  /// fd (no events delivered until re-armed) — the shaped-delivery pause.
  /// Loop-thread-only.
  void SetInterest(int fd, uint32_t interest);
  /// Unregisters `fd`; no-op if unknown (removal paths may race benignly).
  /// Cancels any submissions targeting the fd — call BEFORE closing it.
  /// Safe to call from inside the fd's own callback.  Loop-thread-only.
  void Remove(int fd);

  /// The backend carrying this loop's I/O.  Links use it directly for the
  /// submission tier (SubmitRecv/SubmitSendMsg); completion callbacks run
  /// on the loop thread, inside the Wait that reaped them.
  [[nodiscard]] IoBackend* io_backend() noexcept { return backend_.get(); }
  [[nodiscard]] const char* backend_name() const noexcept {
    return backend_->name();
  }

  /// Live-link accounting for least-loaded loop assignment
  /// (Reactor::NextLoop).  Incremented when a Link binds to this loop,
  /// decremented exactly once when it closes.  Any thread.
  void NoteLinkBound() noexcept {
    live_links_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteLinkClosed() noexcept {
    live_links_.fetch_sub(1, std::memory_order_relaxed);
  }
  [[nodiscard]] size_t LiveLinks() const noexcept {
    return live_links_.load(std::memory_order_relaxed);
  }

  /// Registered descriptor count (tests; loop-confined — read via RunSync).
  [[nodiscard]] size_t NumHandlers() const;
  /// Armed (not yet fired) timer count (tests; loop-confined — read via
  /// RunSync).
  [[nodiscard]] size_t NumTimers() const;

 private:
  struct Handler {
    uint32_t interest = 0;
    EventCallback callback;
  };

  void Run();
  void Wakeup();
  void AddTimerOnLoop(uint64_t deadline_nanos, Task task);
  void ArmTimerFd(uint64_t now_nanos);
  void FireDueTimers();

  std::unique_ptr<IoBackend> backend_;
  int wake_fd_ = -1;
  int timer_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;

  // Loop-thread-only.  Values are shared_ptr so Remove() can erase the map
  // entry while the handler's own callback is still executing (the dispatch
  // loop keeps the Handler alive through its local reference).
  std::unordered_map<int, std::shared_ptr<Handler>> handlers_;

  // Loop-thread-only: deadline → task, FIFO-stable for equal deadlines
  // (multimap inserts equivalent keys at the upper bound).
  std::multimap<uint64_t, Task> timers_;

  std::mutex tasks_mutex_;
  std::vector<Task> tasks_;
  bool accepting_ = false;  // guarded by tasks_mutex_

  std::atomic<size_t> live_links_{0};
};

/// The process-wide loop pool.  Lazily started on first use; each link
/// binds to the least-loaded loop at assignment time.
class Reactor {
 public:
  /// Pool size: RSF_REACTOR_THREADS env override (1-64), else sized from
  /// the host — clamp(hardware_concurrency() / 4, 2, 8).  The chosen size
  /// is logged once at startup.
  static Reactor& Get();

  /// The loop carrying the fewest live links right now (ties broken
  /// round-robin, so idle pools still rotate).  Blind round-robin strands
  /// hot topics on one loop at small pool sizes — a subscription fan-in
  /// that lands N links on loop 0 while loop 1 idles; counting live links
  /// (incremented at Link construction, decremented on close) spreads by
  /// actual occupancy instead.
  EventLoop* NextLoop();
  [[nodiscard]] size_t NumLoops() const noexcept { return loops_.size(); }
  /// The loop at `index` (< NumLoops()): tests that hold every loop busy.
  [[nodiscard]] EventLoop* Loop(size_t index) const noexcept {
    return loops_[index].get();
  }

 private:
  Reactor();
  ~Reactor();

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_{0};
};

}  // namespace rsf::net
