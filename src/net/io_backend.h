// The I/O backend seam: the narrow interface EventLoop (net/poller.h)
// drives its platform I/O through.  Two implementations exist:
//
//   EpollBackend (net/epoll_backend.h) — the portable default.  Readiness
//   only: epoll_ctl registration, one epoll_wait per loop turn, and the
//   callers issue their own recv/sendmsg syscalls per link.
//
//   UringBackend (net/uring_backend.h) — io_uring over raw syscalls (no
//   liburing).  Implements the same readiness surface (level-style
//   POLL_ADD, re-armed per turn) PLUS a submission tier: links stage recv
//   and gathered-send operations as SQEs, and ONE io_uring_enter per loop
//   turn submits every staged operation across every link and reaps every
//   completion — the syscall count per delivered message collapses from
//   ~4-5 (sendmsg + recv×2-3 + an epoll_wait share) to a fraction of one
//   enter (see DESIGN.md §10 for the full inventory).
//
// Timer arming and cross-thread wakeup ride the readiness surface on both
// backends: EventLoop owns a timerfd and an eventfd and registers them
// like any other descriptor, so the backend never needs to know about
// timers — an io_uring_enter parked in GETEVENTS wakes on the eventfd's
// poll completion exactly as epoll_wait wakes on EPOLLIN.
//
// Selection: RSF_IO_BACKEND=epoll|uring|auto.  `epoll` is the default
// (portable everywhere); `uring` and `auto` probe io_uring_setup once at
// startup and fall back to epoll when the kernel or a seccomp policy
// refuses (EPERM/ENOSYS) — sandboxed hosts keep working, and the choice
// is logged once.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace rsf::net {

/// Readiness bits passed to an fd's event callback (shared by EventLoop
/// and the backends; re-exported by net/poller.h).
inline constexpr uint32_t kEventReadable = 1u << 0;
inline constexpr uint32_t kEventWritable = 1u << 1;
/// Error/hangup fired (backends report it; EventLoop folds it into the
/// armed read/write bits before dispatch, so the handler's next
/// recv/sendmsg syscall surfaces the errno or EOF).
inline constexpr uint32_t kEventError = 1u << 2;

/// One readiness event out of IoBackend::Wait.  `events` carries raw
/// kEvent* bits; EventLoop folds error into the armed directions exactly
/// as the pre-seam epoll loop did.
struct ReadyEvent {
  int fd = -1;
  uint32_t events = 0;
};

/// Per-backend-instance (i.e. per-loop) syscall/submission counters, plus
/// the process-wide aggregate below.  Tests and the connection-scaling
/// bench divide deltas of these by delivered-message counts to PROVE the
/// uring backend batches syscalls instead of inferring it from latency.
struct IoBackendCounters {
  uint64_t enter_calls = 0;     // io_uring_enter syscalls
  uint64_t sqes_submitted = 0;  // SQEs handed to the kernel
  uint64_t cqes_reaped = 0;     // CQEs consumed from the ring
  uint64_t epoll_waits = 0;     // epoll_wait syscalls
  uint64_t epoll_ctls = 0;      // epoll_ctl syscalls
};

/// The backend interface.  All methods except the thread-safety-noted ones
/// are loop-thread-only (EventLoop construction, before Start, counts as
/// loop-thread: no concurrency exists yet).
class IoBackend {
 public:
  using CompletionFn = std::function<void(int32_t res)>;

  virtual ~IoBackend() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Registers `fd` for the given kEvent* interest bits.  False on
  /// registration failure (the caller then drops the handler).
  virtual bool Add(int fd, uint32_t interest) = 0;
  /// Replaces the interest bits.  Interest 0 parks the fd.
  virtual void Mod(int fd, uint32_t interest) = 0;
  /// Unregisters `fd` and cancels every submission targeting it; any
  /// not-yet-invoked completion callback for the fd is dropped.  Must be
  /// called BEFORE the fd is closed (in-flight uring operations hold a
  /// file reference that would otherwise keep the socket alive past
  /// close(2)).
  virtual void Del(int fd) = 0;

  /// One loop turn: submits everything staged since the last call, waits
  /// for activity, invokes completion callbacks for finished submissions,
  /// and appends readiness events to `*ready`.  The uring backend does the
  /// submit AND the wait in a single io_uring_enter.  Returns false on a
  /// fatal backend error (the loop exits).
  virtual bool Wait(std::vector<ReadyEvent>* ready) = 0;

  /// Per-instance counter snapshot (thread-safe).
  [[nodiscard]] virtual IoBackendCounters counters() const noexcept = 0;

  // ---- submission tier ----
  // Epoll keeps the defaults: no submission support, callers fall back to
  // readiness + per-link syscalls.

  [[nodiscard]] virtual bool SupportsSubmission() const noexcept {
    return false;
  }

  /// Stages a recv of up to `len` bytes into `buf` (which must stay valid
  /// until the completion fires or Del(fd) runs).  `flags` are recv(2)
  /// flags (MSG_WAITALL makes the kernel retry short reads internally).
  /// The callback gets the byte count, 0 on EOF, or -errno.
  virtual bool SubmitRecv(int fd, void* buf, size_t len, int flags,
                          CompletionFn cb) {
    (void)fd; (void)buf; (void)len; (void)flags; (void)cb;
    return false;
  }

  /// Stages one gathered send.  `hdr` (and the iovec array and buffers it
  /// points at) must stay valid until the completion fires or Del(fd)
  /// runs.  MSG_NOSIGNAL is always added.  Short sends complete with the
  /// partial count; the caller restages the remainder.
  virtual bool SubmitSendMsg(int fd, msghdr* hdr, CompletionFn cb) {
    (void)fd; (void)hdr; (void)cb;
    return false;
  }
};

/// Which backend to build a loop on.
enum class IoBackendKind : uint8_t { kEpoll, kUring };

[[nodiscard]] const char* IoBackendKindName(IoBackendKind kind) noexcept;

/// Resolves RSF_IO_BACKEND (epoll|uring|auto; default epoll).  `uring`
/// and `auto` return kUring only when the setup probe succeeds; the
/// resolved choice is logged once per process.
IoBackendKind ResolveIoBackendKind();

/// Whether io_uring_setup succeeds on this host (cached probe).
/// RSF_URING_FORCE_UNAVAILABLE=1 forces false — the test hook for the
/// auto-fallback path on hosts where the real probe would succeed.
bool UringAvailable();

/// Builds a backend of `kind`; a uring request falls back to epoll (with
/// a logged reason) when the probe or ring setup fails, so construction
/// never fails.
std::unique_ptr<IoBackend> MakeIoBackend(IoBackendKind kind);

/// Process-wide syscall counters for the transport data path: the
/// backend aggregates (every loop) plus the socket-layer sendmsg/recv
/// shims.  The connection bench and the batching tests difference this
/// around a run and divide by deliveries.
struct IoSyscallCounters {
  uint64_t enter_calls = 0;
  uint64_t sqes_submitted = 0;
  uint64_t cqes_reaped = 0;
  uint64_t epoll_waits = 0;
  uint64_t epoll_ctls = 0;
  uint64_t sendmsg_calls = 0;  // socket.cpp WriteSyscallCount
  uint64_t recv_calls = 0;     // socket.cpp RecvSyscallCount
  uint64_t wakeup_writes = 0;  // EventLoop eventfd kicks (Post, Stop)
  uint64_t wakeup_reads = 0;   // EventLoop eventfd drains
  uint64_t doorbell_writes = 0;  // stream-ring doorbell rings (stream_ring.h)
  uint64_t doorbell_reads = 0;   // stream-ring doorbell drains

  /// Transport syscalls: what a delivery actually pays the kernel,
  /// including the cross-thread loop wake-up a producer's kick costs and
  /// the doorbells of same-host ring links.
  [[nodiscard]] uint64_t TotalSyscalls() const noexcept {
    return enter_calls + epoll_waits + epoll_ctls + sendmsg_calls +
           recv_calls + wakeup_writes + wakeup_reads + doorbell_writes +
           doorbell_reads;
  }
};
IoSyscallCounters GlobalIoCounters() noexcept;

// Process-wide counter hooks for the backends (relaxed telemetry).
namespace backend_counters {
void AddEnter(uint64_t n) noexcept;
void AddSqes(uint64_t n) noexcept;
void AddCqes(uint64_t n) noexcept;
void AddEpollWaits(uint64_t n) noexcept;
void AddEpollCtls(uint64_t n) noexcept;
void AddWakeupWrites(uint64_t n) noexcept;
void AddWakeupReads(uint64_t n) noexcept;
void AddDoorbellWrites(uint64_t n) noexcept;
void AddDoorbellReads(uint64_t n) noexcept;
}  // namespace backend_counters

}  // namespace rsf::net
