#include "net/uring_backend.h"

#include <linux/io_uring.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace rsf::net {
namespace {

// Raw syscall shims — the whole point of this backend is that there is no
// liburing in the container, and the syscall surface is tiny anyway.
int SysUringSetup(unsigned entries, io_uring_params* params) {
#ifdef __NR_io_uring_setup
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
#else
  errno = ENOSYS;
  return -1;
#endif
}

int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags) {
#ifdef __NR_io_uring_enter
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
#else
  errno = ENOSYS;
  return -1;
#endif
}

int SysUringRegister(int fd, unsigned opcode, void* arg, unsigned nr_args) {
#ifdef __NR_io_uring_register
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg,
                                    nr_args));
#else
  errno = ENOSYS;
  return -1;
#endif
}

// Ring-shared memory accessors.  The kernel is the other party, so plain
// loads/stores are not enough: tail publication needs release, peer-index
// reads need acquire.  __atomic builtins let us do this on the mmap'd
// unsigned words without UB gymnastics.
unsigned LoadAcquire(const unsigned* p) noexcept {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}
void StoreRelease(unsigned* p, unsigned v) noexcept {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

constexpr unsigned kSqEntries = 1024;
constexpr unsigned kCqEntries = 4096;

// Setup flags newer than some container headers; values are kernel ABI.
#ifndef IORING_SETUP_COOP_TASKRUN
#define IORING_SETUP_COOP_TASKRUN (1U << 8)
#endif
#ifndef IORING_SETUP_SINGLE_ISSUER
#define IORING_SETUP_SINGLE_ISSUER (1U << 12)
#endif
#ifndef IORING_SETUP_DEFER_TASKRUN
#define IORING_SETUP_DEFER_TASKRUN (1U << 13)
#endif
#ifndef IORING_SETUP_R_DISABLED
#define IORING_SETUP_R_DISABLED (1U << 6)
#endif
#ifndef IORING_REGISTER_ENABLE_RINGS
#define IORING_REGISTER_ENABLE_RINGS 12
#endif

uint32_t PollMaskFor(uint32_t interest) noexcept {
  uint32_t mask = 0;
  if (interest & kEventReadable) mask |= POLLIN | POLLRDHUP | POLLPRI;
  if (interest & kEventWritable) mask |= POLLOUT;
  return mask;
}

}  // namespace

bool UringBackend::ProbeSetup() {
  io_uring_params params{};
  const int fd = SysUringSetup(8, &params);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

std::unique_ptr<UringBackend> UringBackend::Create() {
  std::unique_ptr<UringBackend> backend(new UringBackend());
  if (!backend->SetupRing()) return nullptr;
  backend->ProbeOps();
  return backend;
}

bool UringBackend::SetupRing() {
  // The per-op cost of io_uring on a busy loop is dominated by task_work
  // scheduling: by default completions interrupt the submitter (IPI-style
  // TWA_SIGNAL), which on a loop that is ABOUT to call enter anyway is
  // pure overhead.  COOP_TASKRUN (5.19) defers the interrupt to the next
  // kernel/user transition; DEFER_TASKRUN (6.1, requires SINGLE_ISSUER)
  // runs completion work only inside our own GETEVENTS enter — the
  // cheapest possible arrangement for a single-threaded loop.
  // SINGLE_ISSUER binds the ring to the enabling task, so the ring starts
  // R_DISABLED and the loop thread enables it on first use.  Older
  // kernels reject unknown flags with EINVAL; degrade tier by tier.
  constexpr unsigned kBase = IORING_SETUP_CQSIZE | IORING_SETUP_CLAMP;
  const unsigned flag_tiers[] = {
      kBase | IORING_SETUP_COOP_TASKRUN | IORING_SETUP_SINGLE_ISSUER |
          IORING_SETUP_DEFER_TASKRUN | IORING_SETUP_R_DISABLED,
      kBase | IORING_SETUP_COOP_TASKRUN,
      kBase,
  };
  io_uring_params params{};
  for (const unsigned flags : flag_tiers) {
    params = io_uring_params{};
    params.flags = flags;
    params.cq_entries = kCqEntries;
    ring_fd_ = SysUringSetup(kSqEntries, &params);
    if (ring_fd_ >= 0) {
      needs_enable_ = (flags & IORING_SETUP_R_DISABLED) != 0;
      break;
    }
    if (errno != EINVAL) break;  // EINVAL = unknown flag, try the next tier
  }
  if (ring_fd_ < 0) {
    RSF_WARN("io_uring_setup failed: %s", std::strerror(errno));
    return false;
  }

  sq_entries_ = params.sq_entries;
  sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_ring_bytes_ =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_, cq_ring_bytes_);
  }

  sq_ring_ptr_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ptr_ == MAP_FAILED) {
    RSF_WARN("io_uring sq mmap failed: %s", std::strerror(errno));
    sq_ring_ptr_ = nullptr;
    return false;
  }
  if (single_mmap) {
    cq_ring_ptr_ = sq_ring_ptr_;
  } else {
    cq_ring_ptr_ =
        ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    if (cq_ring_ptr_ == MAP_FAILED) {
      RSF_WARN("io_uring cq mmap failed: %s", std::strerror(errno));
      cq_ring_ptr_ = nullptr;
      return false;
    }
  }
  sqes_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
  void* sqes = ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    RSF_WARN("io_uring sqe mmap failed: %s", std::strerror(errno));
    return false;
  }
  sqes_ = static_cast<io_uring_sqe*>(sqes);

  auto* sq_base = static_cast<uint8_t*>(sq_ring_ptr_);
  sq_head_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  sq_mask_ = *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);

  auto* cq_base = static_cast<uint8_t*>(cq_ring_ptr_);
  cq_head_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  cqes_ = reinterpret_cast<io_uring_cqe*>(cq_base + params.cq_off.cqes);
  return true;
}

void UringBackend::ProbeOps() {
  // IORING_REGISTER_PROBE tells us which opcodes this kernel implements.
  // POLL_ADD (5.1) is the floor; the submission tier additionally needs
  // RECV/SENDMSG/ASYNC_CANCEL (5.6).  A failed probe (pre-5.6 kernel)
  // leaves the backend readiness-only.
  //
  // The probe runs against a tiny throwaway ring: the real ring may be
  // R_DISABLED (registration is refused until enable), and enabling it
  // here would bind SINGLE_ISSUER to the constructing thread instead of
  // the loop thread.  Opcode support is a kernel property, not a ring
  // property.
  io_uring_params probe_params{};
  const int probe_fd = SysUringSetup(8, &probe_params);
  if (probe_fd < 0) {
    RSF_WARN("io_uring probe-ring setup failed (%s): submission tier "
             "disabled", std::strerror(errno));
    return;
  }
  constexpr unsigned kProbeOps = 256;
  std::vector<uint8_t> buf(
      sizeof(io_uring_probe) + kProbeOps * sizeof(io_uring_probe_op), 0);
  auto* probe = reinterpret_cast<io_uring_probe*>(buf.data());
  const int probe_ret =
      SysUringRegister(probe_fd, IORING_REGISTER_PROBE, probe, kProbeOps);
  ::close(probe_fd);
  if (probe_ret != 0) {
    RSF_WARN("io_uring op probe failed (%s): submission tier disabled",
             std::strerror(errno));
    return;
  }
  auto supported = [probe](unsigned op) {
    return op <= probe->last_op &&
           (probe->ops[op].flags & IO_URING_OP_SUPPORTED) != 0;
  };
  supports_submission_ = supported(IORING_OP_RECV) &&
                         supported(IORING_OP_SENDMSG) &&
                         supported(IORING_OP_ASYNC_CANCEL);
}

UringBackend::~UringBackend() {
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_bytes_);
  if (cq_ring_ptr_ != nullptr && cq_ring_ptr_ != sq_ring_ptr_) {
    ::munmap(cq_ring_ptr_, cq_ring_bytes_);
  }
  if (sq_ring_ptr_ != nullptr) ::munmap(sq_ring_ptr_, sq_ring_bytes_);
  if (ring_fd_ >= 0) ::close(ring_fd_);
}

io_uring_sqe* UringBackend::GetSqe() {
  unsigned tail = *sq_tail_;  // we are the only producer
  if (tail - LoadAcquire(sq_head_) >= sq_entries_) {
    SubmitNow();
    if (tail - LoadAcquire(sq_head_) >= sq_entries_) {
      // Kernel refused to drain the SQ (fatal-ish); callers treat a null
      // SQE as a failed submission.
      return nullptr;
    }
  }
  const unsigned idx = tail & sq_mask_;
  io_uring_sqe* sqe = &sqes_[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  sq_array_[idx] = idx;
  StoreRelease(sq_tail_, tail + 1);
  ++to_submit_;
  return sqe;
}

void UringBackend::EnsureEnabled() {
  if (!needs_enable_) return;
  needs_enable_ = false;
  // First submission, necessarily from the loop thread — enabling here is
  // what binds SINGLE_ISSUER to it.
  if (SysUringRegister(ring_fd_, IORING_REGISTER_ENABLE_RINGS, nullptr, 0) !=
      0) {
    RSF_WARN("io_uring enable_rings failed: %s", std::strerror(errno));
  }
}

void UringBackend::SubmitNow() {
  EnsureEnabled();
  while (to_submit_ > 0) {
    enter_calls_.fetch_add(1, std::memory_order_relaxed);
    backend_counters::AddEnter(1);
    const int ret = SysUringEnter(ring_fd_, to_submit_, 0, 0);
    if (ret < 0) {
      if (errno == EINTR) continue;
      RSF_WARN("io_uring_enter(submit) failed: %s", std::strerror(errno));
      break;
    }
    sqes_submitted_.fetch_add(static_cast<uint64_t>(ret),
                              std::memory_order_relaxed);
    backend_counters::AddSqes(static_cast<uint64_t>(ret));
    to_submit_ -= static_cast<unsigned>(ret);
    if (ret == 0) break;
  }
}

uint64_t UringBackend::StagePoll(int fd, uint32_t interest) {
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) return 0;
  const uint64_t id = next_id_++;
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  sqe->poll32_events = PollMaskFor(interest);
  sqe->user_data = id;
  pending_[id] = Pending{fd, /*is_poll=*/true, nullptr};
  return id;
}

bool UringBackend::Add(int fd, uint32_t interest) {
  FdState& state = fds_[fd];
  state.interest = interest;
  if (interest != 0) rearm_.push_back(fd);
  return true;
}

void UringBackend::Mod(int fd, uint32_t interest) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  if (it->second.interest == interest) return;
  it->second.interest = interest;
  if (it->second.armed_poll_id != 0) {
    // Retire the stale poll: cancel by user_data and forget it, so its
    // -ECANCELED (or an already-queued completion for the old mask) is
    // dropped on arrival.  The cancel rides the next batched enter.
    io_uring_sqe* sqe = GetSqe();
    if (sqe != nullptr) {
      sqe->opcode = IORING_OP_ASYNC_CANCEL;
      sqe->fd = -1;
      sqe->addr = it->second.armed_poll_id;
      sqe->user_data = next_id_++;  // no pending entry: CQE dropped
    }
    pending_.erase(it->second.armed_poll_id);
    it->second.armed_poll_id = 0;
  }
  if (interest != 0) rearm_.push_back(fd);
}

void UringBackend::Del(int fd) {
  bool had_ops = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.fd == fd) {
      had_ops = true;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  fds_.erase(fd);
  if (!had_ops) return;
  // In-flight SQEs hold a file reference: the caller is about to close the
  // fd and needs the kernel side gone FIRST (a parked send would otherwise
  // keep the socket open past close, and no FIN would go out).  This is
  // the one removal-path enter the batching design pays for.
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) return;
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = fd;
  sqe->cancel_flags = IORING_ASYNC_CANCEL_FD | IORING_ASYNC_CANCEL_ALL;
  sqe->user_data = next_id_++;  // no pending entry: CQE dropped
  SubmitNow();
}

void UringBackend::ArmPendingPolls() {
  for (const int fd : rearm_) {
    auto it = fds_.find(fd);
    if (it == fds_.end()) continue;           // removed since queued
    if (it->second.interest == 0) continue;   // parked since queued
    if (it->second.armed_poll_id != 0) continue;  // already armed
    it->second.armed_poll_id = StagePoll(fd, it->second.interest);
  }
  rearm_.clear();
}

unsigned UringBackend::CqReadyCount() const noexcept {
  return LoadAcquire(cq_tail_) - *cq_head_;
}

bool UringBackend::Wait(std::vector<ReadyEvent>* ready) {
  EnsureEnabled();
  ArmPendingPolls();
  if (CqReadyCount() == 0) {
    // The batched turn: one enter submits everything staged since the
    // last turn and parks until at least one completion lands.
    int ret;
    do {
      enter_calls_.fetch_add(1, std::memory_order_relaxed);
      backend_counters::AddEnter(1);
      ret = SysUringEnter(ring_fd_, to_submit_, 1, IORING_ENTER_GETEVENTS);
    } while (ret < 0 && (errno == EINTR || errno == EBUSY));
    if (ret < 0) {
      RSF_ERROR("io_uring_enter failed: %s", std::strerror(errno));
      return false;
    }
    sqes_submitted_.fetch_add(static_cast<uint64_t>(ret),
                              std::memory_order_relaxed);
    backend_counters::AddSqes(static_cast<uint64_t>(ret));
    to_submit_ -= static_cast<unsigned>(ret);
  } else if (to_submit_ > 0) {
    SubmitNow();
  }
  // else: completions already queued and nothing staged — a free turn.
  ReapCqes(ready);
  return true;
}

void UringBackend::ReapCqes(std::vector<ReadyEvent>* ready) {
  unsigned head = *cq_head_;
  while (head != LoadAcquire(cq_tail_)) {
    const io_uring_cqe& slot = cqes_[head & cq_mask_];
    // Copy out, then publish the head BEFORE dispatch: a callback may call
    // Del → SubmitNow, and the kernel must see the slot as consumed.
    const uint64_t user_data = slot.user_data;
    const int32_t res = slot.res;
    ++head;
    StoreRelease(cq_head_, head);
    cqes_reaped_.fetch_add(1, std::memory_order_relaxed);
    backend_counters::AddCqes(1);
    HandleCqe(user_data, res, ready);
  }
}

void UringBackend::HandleCqe(uint64_t user_data, int32_t res,
                             std::vector<ReadyEvent>* ready) {
  auto it = pending_.find(user_data);
  if (it == pending_.end()) return;  // cancelled or unknown: drop
  if (it->second.is_poll) {
    const int fd = it->second.fd;
    pending_.erase(it);
    auto fit = fds_.find(fd);
    if (fit == fds_.end()) return;
    fit->second.armed_poll_id = 0;
    uint32_t bits = 0;
    if (res < 0) {
      // A poll that itself failed: surface as an error so the handler's
      // next syscall reports the errno.
      bits = kEventReadable | kEventError;
    } else {
      const auto revents = static_cast<uint32_t>(res);
      if (revents & (POLLIN | POLLRDHUP | POLLPRI)) bits |= kEventReadable;
      if (revents & POLLOUT) bits |= kEventWritable;
      if (revents & (POLLERR | POLLHUP)) bits |= kEventError;
    }
    if (bits != 0) ready->push_back({fd, bits});
    // Single-shot poll consumed; queue the re-arm for the next turn.  The
    // re-armed POLL_ADD level-checks on submit, so un-drained readiness
    // fires again immediately — epoll level-triggered semantics.
    if (fit->second.interest != 0) rearm_.push_back(fd);
    return;
  }
  // Submission completion: every submission produces exactly one CQE.
  // Move the callback out before erasing — it may re-submit (and rehash
  // pending_) from inside.
  CompletionFn cb = std::move(it->second.cb);
  pending_.erase(it);
  cb(res);
}

bool UringBackend::SubmitRecv(int fd, void* buf, size_t len, int flags,
                              CompletionFn cb) {
  if (!supports_submission_) return false;
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) return false;
  const uint64_t id = next_id_++;
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = static_cast<uint32_t>(len);
  sqe->msg_flags = static_cast<uint32_t>(flags);
  sqe->user_data = id;
  pending_[id] = Pending{fd, /*is_poll=*/false, std::move(cb)};
  return true;
}

bool UringBackend::SubmitSendMsg(int fd, msghdr* hdr, CompletionFn cb) {
  if (!supports_submission_) return false;
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) return false;
  const uint64_t id = next_id_++;
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(hdr);
  sqe->len = 1;
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = id;
  pending_[id] = Pending{fd, /*is_poll=*/false, std::move(cb)};
  return true;
}

IoBackendCounters UringBackend::counters() const noexcept {
  IoBackendCounters out;
  out.enter_calls = enter_calls_.load(std::memory_order_relaxed);
  out.sqes_submitted = sqes_submitted_.load(std::memory_order_relaxed);
  out.cqes_reaped = cqes_reaped_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rsf::net
