#include "net/poller.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/log.h"
#include "net/io_backend.h"

namespace rsf::net {
namespace {

constexpr int kMaxEvents = 64;

size_t ReactorPoolSize() {
  if (const char* env = std::getenv("RSF_REACTOR_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1 && parsed <= 64) {
      RSF_INFO("reactor: pool size %ld (RSF_REACTOR_THREADS)", parsed);
      return static_cast<size_t>(parsed);
    }
    RSF_WARN("reactor: ignoring invalid RSF_REACTOR_THREADS=%s", env);
  }
  // A loop thread is mostly waiting + memcpy; a quarter of the cores
  // saturates typical pub/sub fanouts without starving application
  // callbacks, floored at 2 so one stalled callback can't idle the whole
  // transport and capped at 8 — past that, links per loop is already low
  // enough that more loops just cost idle wakeups.
  const size_t cores = std::thread::hardware_concurrency();
  const size_t pool = std::clamp<size_t>(cores / 4, 2, 8);
  RSF_INFO("reactor: pool size %zu (from %zu hardware threads)", pool, cores);
  return pool;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  SFM_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  SFM_CHECK_MSG(wake_fd_ >= 0, "eventfd failed");
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  SFM_CHECK_MSG(timer_fd_ >= 0, "timerfd_create failed");
  // Registered directly with epoll, not through Add: the wake and timer
  // fds are loop plumbing, dispatched by fd compare in Run, and must not
  // count toward NumHandlers.
  SFM_CHECK(Ctl(EPOLL_CTL_ADD, wake_fd_, kEventReadable));
  SFM_CHECK(Ctl(EPOLL_CTL_ADD, timer_fd_, kEventReadable));
}

EventLoop::~EventLoop() {
  Stop();
  ::close(timer_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

bool EventLoop::Ctl(int op, int fd, uint32_t interest) {
  epoll_event event{};
  if (interest & kEventReadable) event.events |= EPOLLIN | EPOLLRDHUP;
  if (interest & kEventWritable) event.events |= EPOLLOUT;
  event.data.fd = fd;
  backend_counters::AddEpollCtls(1);
  if (::epoll_ctl(epoll_fd_, op, fd, &event) == 0) return true;
  // A DEL may find the fd already closed (peer teardown): EBADF/ENOENT
  // are fine there.
  if (op != EPOLL_CTL_DEL) {
    RSF_WARN("epoll_ctl(%s, %d) failed: %s",
             op == EPOLL_CTL_ADD ? "ADD" : "MOD", fd, std::strerror(errno));
  }
  return false;
}

void EventLoop::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    accepting_ = true;
  }
  thread_ = std::thread([this] { Run(); });
}

void EventLoop::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    // Refuse new tasks first: everything accepted before this point is
    // guaranteed to run (below, or in the loop's own final drain), which is
    // what lets RunSync wait without a timeout.
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    accepting_ = false;
  }
  stop_.store(true, std::memory_order_release);
  Wakeup();
  if (thread_.joinable()) thread_.join();
  // Thread joined: no concurrency remains.  Run tasks the loop missed.
  std::vector<Task> leftovers;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    leftovers.swap(tasks_);
  }
  for (auto& task : leftovers) task();
  running_.store(false, std::memory_order_release);
  handlers_.clear();
  timers_.clear();
}

bool EventLoop::InLoopThread() const noexcept {
  return thread_.get_id() == std::this_thread::get_id();
}

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  // A full eventfd counter (impossible here) or EINTR just means the loop
  // is already due to wake; ignore short writes.
  backend_counters::AddWakeupWrites(1);
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

bool EventLoop::Post(Task task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    if (!accepting_) return false;
    tasks_.push_back(std::move(task));
  }
  Wakeup();
  return true;
}

void EventLoop::RunInLoop(Task task) {
  if (InLoopThread() || !Post(task)) task();
}

void EventLoop::RunSync(Task task) {
  if (InLoopThread()) {
    // Already serialized with every handler — run inline (also the path a
    // teardown takes when the last reference dies inside a callback).
    task();
    return;
  }
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  const bool posted = Post([&] {
    task();
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    done_cv.notify_one();
  });
  if (!posted) {
    // Loop stopped (or never started): no concurrent handler execution is
    // left to wait out — run inline on this thread.
    task();
    return;
  }
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return done; });
}

bool EventLoop::RunAfter(uint64_t delay_nanos, Task task) {
  const uint64_t deadline = MonotonicNanos() + delay_nanos;
  if (InLoopThread()) {
    AddTimerOnLoop(deadline, std::move(task));
    return true;
  }
  return Post([this, deadline, task = std::move(task)]() mutable {
    AddTimerOnLoop(deadline, std::move(task));
  });
}

void EventLoop::AddTimerOnLoop(uint64_t deadline_nanos, Task task) {
  const bool is_earliest =
      timers_.empty() || deadline_nanos < timers_.begin()->first;
  timers_.emplace(deadline_nanos, std::move(task));
  if (is_earliest) ArmTimerFd(MonotonicNanos());
}

void EventLoop::ArmTimerFd(uint64_t now_nanos) {
  itimerspec spec{};
  if (!timers_.empty()) {
    const uint64_t deadline = timers_.begin()->first;
    // Relative arming against the same MonotonicNanos clock the deadlines
    // were computed from; a due-or-past deadline still needs a nonzero
    // value (it_value == 0 would disarm), so round up to 1ns.
    const uint64_t delta = deadline > now_nanos ? deadline - now_nanos : 1;
    spec.it_value.tv_sec = static_cast<time_t>(delta / 1'000'000'000ull);
    spec.it_value.tv_nsec = static_cast<long>(delta % 1'000'000'000ull);
  }
  if (::timerfd_settime(timer_fd_, 0, &spec, nullptr) != 0) {
    RSF_WARN("timerfd_settime failed: %s", std::strerror(errno));
  }
}

void EventLoop::FireDueTimers() {
  uint64_t expirations;
  while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
  }
  // Collect due tasks before running any: a task that re-schedules itself
  // (pacing loops) must not be fired again in the same drain.
  const uint64_t now = MonotonicNanos();
  std::vector<Task> due;
  auto it = timers_.begin();
  while (it != timers_.end() && it->first <= now) {
    due.push_back(std::move(it->second));
    it = timers_.erase(it);
  }
  ArmTimerFd(now);
  for (auto& task : due) task();
}

void EventLoop::Add(int fd, uint32_t interest, EventCallback callback) {
  auto handler = std::make_shared<Handler>();
  handler->interest = interest;
  handler->callback = std::move(callback);
  if (!Ctl(EPOLL_CTL_ADD, fd, interest)) return;
  handlers_[fd] = std::move(handler);
}

void EventLoop::SetInterest(int fd, uint32_t interest) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  if (it->second->interest == interest) return;
  Ctl(EPOLL_CTL_MOD, fd, interest);
  it->second->interest = interest;
}

void EventLoop::Remove(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  Ctl(EPOLL_CTL_DEL, fd, 0);
  handlers_.erase(it);
}

size_t EventLoop::NumHandlers() const {
  // Tests call this through RunSync, so no lock is needed.
  return handlers_.size();
}

size_t EventLoop::NumTimers() const {
  // Tests call this through RunSync, so no lock is needed.
  return timers_.size();
}

void EventLoop::Run() {
  epoll_event events[kMaxEvents];
  std::vector<Task> ready;
  while (!stop_.load(std::memory_order_acquire)) {
    int n;
    do {
      backend_counters::AddEpollWaits(1);
      n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      RSF_ERROR("epoll_wait failed: %s", std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        // One read resets the whole eventfd counter, however many kicks
        // it summed; a kick landing after it re-arms readiness.
        uint64_t drained;
        backend_counters::AddWakeupReads(1);
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == timer_fd_) {
        FireDueTimers();
        continue;
      }
      // Look up per event, not per batch: an earlier callback in this batch
      // may have removed this fd.  (A removed-and-immediately-reused fd
      // number can still receive one stale readiness bit; handlers drain
      // nonblocking sockets until EAGAIN, so a spurious event is a no-op.)
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      auto handler = it->second;  // keeps the callback alive across Remove
      const uint32_t raw = events[i].events;
      uint32_t ready_bits = 0;
      if (raw & (EPOLLIN | EPOLLRDHUP | EPOLLPRI)) ready_bits |= kEventReadable;
      if (raw & EPOLLOUT) ready_bits |= kEventWritable;
      if (raw & (EPOLLERR | EPOLLHUP)) {
        // Deliver the error through whatever direction is armed (readable
        // when none is) so the next read/write syscall surfaces the errno.
        ready_bits |= handler->interest & (kEventReadable | kEventWritable);
        if (ready_bits == 0) ready_bits |= kEventReadable;
      }
      if (ready_bits != 0) handler->callback(ready_bits);
    }
    ready.clear();
    {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      ready.swap(tasks_);
    }
    for (auto& task : ready) task();
  }
  // Drain tasks one last time so RunSync callers posted before Stop never
  // hang waiting for a loop that already decided to exit.
  ready.clear();
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    ready.swap(tasks_);
  }
  for (auto& task : ready) task();
}

Reactor::Reactor() {
  const size_t pool = ReactorPoolSize();
  loops_.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    loops_.back()->Start();
  }
}

Reactor::~Reactor() {
  for (auto& loop : loops_) loop->Stop();
}

Reactor& Reactor::Get() {
  static Reactor reactor;
  return reactor;
}

EventLoop* Reactor::NextLoop() {
  // Least-loaded by live-link count; the rotating start index breaks ties
  // so an idle pool still spreads assignments.
  const size_t start = next_.fetch_add(1, std::memory_order_relaxed);
  EventLoop* best = nullptr;
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < loops_.size(); ++i) {
    EventLoop* loop = loops_[(start + i) % loops_.size()].get();
    const size_t load = loop->LiveLinks();
    if (load < best_load) {
      best = loop;
      best_load = load;
    }
  }
  return best;
}

}  // namespace rsf::net
