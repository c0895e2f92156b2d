#include "net/io_backend.h"

#include <atomic>

#include "net/socket.h"

namespace rsf::net {
namespace {

std::atomic<uint64_t> g_epoll_waits{0};
std::atomic<uint64_t> g_epoll_ctls{0};
std::atomic<uint64_t> g_wakeup_writes{0};
std::atomic<uint64_t> g_doorbell_writes{0};
std::atomic<uint64_t> g_doorbell_reads{0};

}  // namespace

namespace backend_counters {
void AddEpollWaits(uint64_t n) noexcept {
  g_epoll_waits.fetch_add(n, std::memory_order_relaxed);
}
void AddEpollCtls(uint64_t n) noexcept {
  g_epoll_ctls.fetch_add(n, std::memory_order_relaxed);
}
void AddWakeupWrites(uint64_t n) noexcept {
  g_wakeup_writes.fetch_add(n, std::memory_order_relaxed);
}
void AddDoorbellWrites(uint64_t n) noexcept {
  g_doorbell_writes.fetch_add(n, std::memory_order_relaxed);
}
void AddDoorbellReads(uint64_t n) noexcept {
  g_doorbell_reads.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace backend_counters

const char* IoBackendKindName(IoBackendKind) noexcept { return "epoll"; }

IoBackendKind ResolveIoBackendKind() noexcept { return IoBackendKind::kEpoll; }

IoSyscallCounters GlobalIoCounters() noexcept {
  IoSyscallCounters out;
  out.epoll_waits = g_epoll_waits.load(std::memory_order_relaxed);
  out.epoll_ctls = g_epoll_ctls.load(std::memory_order_relaxed);
  out.sendmsg_calls = WriteSyscallCount();
  out.recv_calls = RecvSyscallCount();
  out.wakeup_writes = g_wakeup_writes.load(std::memory_order_relaxed);
  out.doorbell_writes = g_doorbell_writes.load(std::memory_order_relaxed);
  out.doorbell_reads = g_doorbell_reads.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rsf::net
