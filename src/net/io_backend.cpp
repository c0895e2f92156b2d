#include "net/io_backend.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/log.h"
#include "net/epoll_backend.h"
#include "net/socket.h"
#include "net/uring_backend.h"

namespace rsf::net {
namespace {

std::atomic<uint64_t> g_enter_calls{0};
std::atomic<uint64_t> g_sqes_submitted{0};
std::atomic<uint64_t> g_cqes_reaped{0};
std::atomic<uint64_t> g_epoll_waits{0};
std::atomic<uint64_t> g_epoll_ctls{0};
std::atomic<uint64_t> g_wakeup_writes{0};
std::atomic<uint64_t> g_wakeup_reads{0};
std::atomic<uint64_t> g_doorbell_writes{0};
std::atomic<uint64_t> g_doorbell_reads{0};

/// The test hook: RSF_URING_FORCE_UNAVAILABLE=1 makes the probe report
/// failure even where io_uring works, exercising the auto-fallback path.
/// Read live (not cached) so a test can flip it per EventLoop.
bool UringForcedUnavailable() {
  const char* env = std::getenv("RSF_URING_FORCE_UNAVAILABLE");
  return env != nullptr && env[0] == '1';
}

void LogBackendChoiceOnce(IoBackendKind kind, const char* origin) {
  static std::once_flag once;
  std::call_once(once, [kind, origin] {
    RSF_INFO("io backend: %s (%s)", IoBackendKindName(kind), origin);
  });
}

}  // namespace

namespace backend_counters {
void AddEnter(uint64_t n) noexcept {
  g_enter_calls.fetch_add(n, std::memory_order_relaxed);
}
void AddSqes(uint64_t n) noexcept {
  g_sqes_submitted.fetch_add(n, std::memory_order_relaxed);
}
void AddCqes(uint64_t n) noexcept {
  g_cqes_reaped.fetch_add(n, std::memory_order_relaxed);
}
void AddEpollWaits(uint64_t n) noexcept {
  g_epoll_waits.fetch_add(n, std::memory_order_relaxed);
}
void AddEpollCtls(uint64_t n) noexcept {
  g_epoll_ctls.fetch_add(n, std::memory_order_relaxed);
}
void AddWakeupWrites(uint64_t n) noexcept {
  g_wakeup_writes.fetch_add(n, std::memory_order_relaxed);
}
void AddWakeupReads(uint64_t n) noexcept {
  g_wakeup_reads.fetch_add(n, std::memory_order_relaxed);
}
void AddDoorbellWrites(uint64_t n) noexcept {
  g_doorbell_writes.fetch_add(n, std::memory_order_relaxed);
}
void AddDoorbellReads(uint64_t n) noexcept {
  g_doorbell_reads.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace backend_counters

const char* IoBackendKindName(IoBackendKind kind) noexcept {
  return kind == IoBackendKind::kUring ? "uring" : "epoll";
}

bool UringAvailable() {
  if (UringForcedUnavailable()) return false;
  // The real probe result can't change over a process lifetime; cache it.
  static const bool available = UringBackend::ProbeSetup();
  return available;
}

IoBackendKind ResolveIoBackendKind() {
  const char* env = std::getenv("RSF_IO_BACKEND");
  if (env == nullptr || std::strcmp(env, "epoll") == 0) {
    LogBackendChoiceOnce(IoBackendKind::kEpoll,
                         env != nullptr ? "RSF_IO_BACKEND" : "default");
    return IoBackendKind::kEpoll;
  }
  if (std::strcmp(env, "uring") == 0 || std::strcmp(env, "auto") == 0) {
    if (UringAvailable()) {
      LogBackendChoiceOnce(IoBackendKind::kUring, "RSF_IO_BACKEND");
      return IoBackendKind::kUring;
    }
    // EPERM/ENOSYS from io_uring_setup — seccomp sandbox or an old
    // kernel.  `auto` promises a clean fallback; an explicit `uring`
    // request degrades too (crashing a sandboxed host helps nobody).
    LogBackendChoiceOnce(IoBackendKind::kEpoll,
                         "RSF_IO_BACKEND requested uring, probe failed");
    return IoBackendKind::kEpoll;
  }
  RSF_WARN("ignoring invalid RSF_IO_BACKEND=%s (epoll|uring|auto)", env);
  LogBackendChoiceOnce(IoBackendKind::kEpoll, "default");
  return IoBackendKind::kEpoll;
}

std::unique_ptr<IoBackend> MakeIoBackend(IoBackendKind kind) {
  if (kind == IoBackendKind::kUring && UringAvailable()) {
    if (auto backend = UringBackend::Create()) return backend;
    RSF_WARN("uring backend setup failed; falling back to epoll");
  }
  auto epoll = EpollBackend::Create();
  SFM_CHECK_MSG(epoll != nullptr, "epoll backend setup failed");
  return epoll;
}

IoSyscallCounters GlobalIoCounters() noexcept {
  IoSyscallCounters out;
  out.enter_calls = g_enter_calls.load(std::memory_order_relaxed);
  out.sqes_submitted = g_sqes_submitted.load(std::memory_order_relaxed);
  out.cqes_reaped = g_cqes_reaped.load(std::memory_order_relaxed);
  out.epoll_waits = g_epoll_waits.load(std::memory_order_relaxed);
  out.epoll_ctls = g_epoll_ctls.load(std::memory_order_relaxed);
  out.sendmsg_calls = WriteSyscallCount();
  out.recv_calls = RecvSyscallCount();
  out.wakeup_writes = g_wakeup_writes.load(std::memory_order_relaxed);
  out.wakeup_reads = g_wakeup_reads.load(std::memory_order_relaxed);
  out.doorbell_writes = g_doorbell_writes.load(std::memory_order_relaxed);
  out.doorbell_reads = g_doorbell_reads.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rsf::net
