// The io_uring backend, written against the raw io_uring_setup /
// io_uring_enter / io_uring_register syscalls (no liburing).
//
// Shape of a loop turn (Wait):
//   1. Re-arm single-shot POLL_ADD SQEs for every registered fd whose
//      poll fired last turn (POLL_ADD does an initial level check, so an
//      fd that is *already* ready completes immediately — this gives the
//      level-triggered semantics EventLoop's handlers were written
//      against, with the re-arms batched into the same enter as
//      everything else).
//   2. ONE io_uring_enter submits every SQE staged since the last turn —
//      all links' sends, recvs, poll re-arms — and, when the completion
//      queue is empty, parks in GETEVENTS until something lands.  When
//      CQEs are already queued and nothing is staged, the turn costs
//      zero syscalls.
//   3. Reap CQEs: completion callbacks (link send/recv) run inline;
//      poll completions are translated to ReadyEvents for EventLoop's
//      dispatch.
//
// Removal protocol: in-flight SQEs hold a reference to the file, so
// close(2) alone would neither cancel them nor send FIN.  Del(fd)
// therefore stages IORING_OP_ASYNC_CANCEL with
// IORING_ASYNC_CANCEL_FD|ALL and submits it synchronously before
// returning — the one place the backend spends an extra enter — and
// drops the fd's completion callbacks so late CQEs (-ECANCELED included)
// are ignored.
//
// Deliberate deviations from the "obvious" io_uring idioms, and why
// (DESIGN.md §10 discusses both):
//   - No multishot RECV with provided buffer rings: provided buffers are
//     kernel-picked, so frames would land in ring buffers and need a
//     copy into the SFM arena — silently breaking PR 3's one-copy
//     kernel→arena property.  Instead each link keeps one outstanding
//     RECV SQE aimed directly at its FrameReader window (header bytes,
//     then the ArenaPool block itself), MSG_WAITALL so the kernel
//     retries short reads without extra round-trips.
//   - No IORING_REGISTER_BUFFERS over the arena pool: arenas are pooled
//     per size class and churn with traffic; re-registering per block
//     costs more syscalls than it saves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/io_backend.h"

struct io_uring_sqe;
struct io_uring_cqe;

namespace rsf::net {

class UringBackend final : public IoBackend {
 public:
  /// Whether io_uring_setup succeeds on this host (uncached raw probe —
  /// callers cache via net::UringAvailable).
  static bool ProbeSetup();

  /// Builds a ring; nullptr when setup, mmap, or the op probe shows the
  /// kernel can't run the readiness surface (the factory then falls back
  /// to epoll).
  static std::unique_ptr<UringBackend> Create();
  ~UringBackend() override;

  [[nodiscard]] const char* name() const noexcept override { return "uring"; }

  bool Add(int fd, uint32_t interest) override;
  void Mod(int fd, uint32_t interest) override;
  void Del(int fd) override;
  bool Wait(std::vector<ReadyEvent>* ready) override;
  [[nodiscard]] IoBackendCounters counters() const noexcept override;

  [[nodiscard]] bool SupportsSubmission() const noexcept override {
    return supports_submission_;
  }
  bool SubmitRecv(int fd, void* buf, size_t len, int flags,
                  CompletionFn cb) override;
  bool SubmitSendMsg(int fd, msghdr* hdr, CompletionFn cb) override;

 private:
  struct FdState {
    uint32_t interest = 0;
    uint64_t armed_poll_id = 0;  // 0 = no poll SQE outstanding
  };
  struct Pending {
    int fd = -1;
    bool is_poll = false;
    CompletionFn cb;  // completion submissions only
  };

  UringBackend() = default;
  bool SetupRing();
  void ProbeOps();
  /// R_DISABLED rings are enabled lazily from the first submitting thread
  /// (the loop thread), which is what binds SINGLE_ISSUER to it.
  void EnsureEnabled();

  io_uring_sqe* GetSqe();
  /// Flushes staged SQEs without waiting (SQ pressure, Del).
  void SubmitNow();
  void ArmPendingPolls();
  void ReapCqes(std::vector<ReadyEvent>* ready);
  void HandleCqe(uint64_t user_data, int32_t res,
                 std::vector<ReadyEvent>* ready);
  [[nodiscard]] unsigned CqReadyCount() const noexcept;
  uint64_t StagePoll(int fd, uint32_t interest);

  int ring_fd_ = -1;
  // SQ ring mapping.
  void* sq_ring_ptr_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned* sq_array_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  // CQ ring mapping (same mapping as SQ under FEAT_SINGLE_MMAP).
  void* cq_ring_ptr_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;

  unsigned to_submit_ = 0;  // staged but not yet handed to the kernel
  bool needs_enable_ = false;  // ring created R_DISABLED, not yet enabled

  bool supports_submission_ = false;

  uint64_t next_id_ = 1;
  std::unordered_map<int, FdState> fds_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::vector<int> rearm_;  // fds whose poll needs (re-)arming next turn

  std::atomic<uint64_t> enter_calls_{0};
  std::atomic<uint64_t> sqes_submitted_{0};
  std::atomic<uint64_t> cqes_reaped_{0};
};

}  // namespace rsf::net
