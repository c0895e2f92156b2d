// Process-wide syscall counters for the transport data path, and the name
// of the I/O backend the reactor runs on.
//
// The reactor (net/poller.h) runs on epoll: one epoll_wait per loop turn,
// level-triggered registrations (the wake eventfd and the stream-ring
// doorbells are edge-triggered), and each link issuing its own
// recv/sendmsg when readiness fires.  The counters below are what the
// syscall-count tests and `perfbench --trace` difference around a run
// and divide by deliveries.
//
// perfbench/ reads `IoBackendKindName(ResolveIoBackendKind())` into its
// `host:` line and `IoSyscallCounters::enter_calls` into
// `net.uring_enters_per_delivery`; those names stay for it, and report
// "epoll" and 0 since the io_uring backend was deleted (DESIGN.md §10).
#pragma once

#include <cstdint>

namespace rsf::net {

/// The reactor's backend.  epoll is the only one.
enum class IoBackendKind : uint8_t { kEpoll };

[[nodiscard]] const char* IoBackendKindName(IoBackendKind kind) noexcept;

/// Always kEpoll (perfbench names the backend in its host line).
IoBackendKind ResolveIoBackendKind() noexcept;

/// Process-wide syscall counters: every loop's epoll calls and wake-ups,
/// the socket-layer sendmsg/recv shims, and the stream-ring doorbells.
/// The connection bench and the syscall-count tests difference this
/// around a run and divide by deliveries.
struct IoSyscallCounters {
  uint64_t enter_calls = 0;  // always 0: no io_uring (perfbench reads it)
  uint64_t epoll_waits = 0;
  uint64_t epoll_ctls = 0;
  uint64_t sendmsg_calls = 0;  // socket.cpp WriteSyscallCount
  uint64_t recv_calls = 0;     // socket.cpp RecvSyscallCount
  uint64_t wakeup_writes = 0;  // EventLoop eventfd kicks (Post, Stop)
  uint64_t wakeup_reads = 0;   // always 0: the edge-triggered kick fd is
                               // never read (net/poller.h)
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

// Process-wide counter hooks for the reactor and the rings (relaxed
// telemetry).
namespace backend_counters {
void AddEpollWaits(uint64_t n) noexcept;
void AddEpollCtls(uint64_t n) noexcept;
void AddWakeupWrites(uint64_t n) noexcept;
void AddDoorbellWrites(uint64_t n) noexcept;
void AddDoorbellReads(uint64_t n) noexcept;
}  // namespace backend_counters

}  // namespace rsf::net
