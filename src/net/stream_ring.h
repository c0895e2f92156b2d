// A same-host link's publisher→subscriber byte stream in shared memory
// (DESIGN.md §8).
//
// After the TCPROS handshake of an AF_UNIX link, the frames the publisher
// sends — data, shm descriptors, mcast repairs — stop crossing the kernel:
// the FrameWriter copies them into a ring in a memfd both processes map,
// and the subscriber's FrameReader copies them out into the arena block its
// allocator returns.  The bytes and the one copy per side are what they
// were on the socket; the copy now runs in user space.  The socket stays
// for the handshake, the subscriber's control frames, and EOF.
//
// The subscriber (the reader) creates the ring — a sealed memfd plus a
// doorbell socket pair — and passes the memfd and the pair's far end with
// its handshake request (SCM_RIGHTS).  The publisher (the writer) maps the
// memfd only after checking its seals and size, so the reader can never
// shrink it under the writer (no SIGBUS).
//
// The doorbell is a connected AF_UNIX stream pair: each side rings by
// sending one byte on its end and waits for the other's byte on the same
// end.  Every send and recv on it passes MSG_DONTWAIT, so no call blocks
// whatever the peer does to the descriptor they share (an eventfd or a
// pipe would be nonblocking only by O_NONBLOCK, a flag of the open file
// that the peer can clear, and a publisher blocked in a doorbell call
// would stall its whole loop).
//
// Each side's loop waits on its end edge-triggered (kEventEdge), and a
// wake-up alone is the message: the rings are not read per wake, only one
// bounded recv every kDoorbellDrainPeriod wakes, which empties the end.
// A unix-stream send raises a new edge for every byte it queues, read or
// not, so no ring is missed for want of a drain.  The unread rings stay
// few: a side rings only when it finds the other asleep (or waiting for
// room), a flag the other sets at most once per read, and a side's reads
// between two of its doorbell wakes are the few of one loop turn — so the
// rings of a drain period of 32 wakes stay far below the 278 one-byte
// sends a default socket pair takes before EAGAIN.  A peer that rings more
// fills only its own link's doorbell: its rings fail nonblocking, and the
// link stalls until EOF or the write deadline closes it.
//
// Shared state is two indices that only grow: `head` (bytes the writer has
// produced) and `tail` (bytes the reader has consumed).  Byte i lives at
// data[i % kStreamRingCapacity].  Neither side trusts the other's index:
// a `tail` past `head`, or more than a ring of bytes between them, is a
// corrupted stream — the call returns an error and the link closes, as
// on a bad frame tag.  All offsets are reduced modulo the capacity, so a
// hostile index never reads or writes outside the mapping.
//
// Rewind: a writer that finds the ring empty jumps to the start of the
// next lap (it records the index it jumped from in `rewind_from`, and the
// reader, arriving there, jumps with it).  A sparse stream therefore keeps
// reusing the first pages, and the ring adds pages to the resident set
// only while a backlog actually fills it.
//
// Sleep and doorbells: a reader that finds the ring empty sets
// `reader_sleeping`, re-checks `head`, and only then returns "nothing
// now" (its loop sleeps in epoll on its doorbell end).  A writer that
// publishes bytes and sees the flag clears it, stamps its clock, and
// rings — one nonblocking send.  The two sides' store-then-load pairs are
// sequentially consistent, so at least one of them sees the other: no
// wake-up is lost and no doorbell is rung while the reader is awake.  A
// full ring is the mirror image: the writer sets `writer_waiting`, the
// reader that has freed half the ring rings the writer, and the frames
// wait in the writer's queue (FrameWriter) until then.  Neither side ever
// waits for the other by spinning, with one bounded exception: a reader
// its owner lets poll (AllowPolling: in Link, only while the ring is the
// one link on its loop, so no other link's events wait behind the poll)
// polls an empty ring for a while before it sleeps, as long as the
// writer keeps ringing within kStreamRingPollNanos of the sleep — the
// writer is streaming — because a sleep and wake-up costs more than the
// gap between a burst's frames (NextPollNanos).
//
// Threading: one reader thread and one writer thread (in Link: the
// subscriber's loop; the publisher's writers under Link::write_mutex_).
#pragma once

#include <sys/uio.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "net/byte_stream.h"
#include "net/socket.h"

namespace rsf::net {

/// Data bytes of every link's ring: a 1 MB image crosses in one lap, and
/// at 256 KiB (the socket buffer it replaces) 1–4 MB frames crossed
/// slower than over the socket (EXPERIMENTS.md, "Same-host stream
/// rings").  Pages become resident only where a backlog reaches: a sparse
/// stream rewinds and keeps to the first page.
inline constexpr size_t kStreamRingCapacity = 1024 * 1024;
static_assert((kStreamRingCapacity & (kStreamRingCapacity - 1)) == 0);

/// A writer publishes `head` after every this many bytes it copies, so
/// the reader can start on a large frame before the copy in ends.
inline constexpr size_t kStreamRingPublishBytes = 64 * 1024;

/// The ceiling on how long a reader polls an empty ring before it sleeps.
/// A reader allowed to poll (StreamRing::AllowPolling) polls only while
/// the writer keeps ringing it sooner than this after it went to sleep
/// (the writer is streaming); one longer gap stops the polling, so a
/// 1 kHz stream never polls.  See EXPERIMENTS.md, "Same-host stream
/// rings".
inline constexpr uint64_t kStreamRingPollNanos = 50'000;

/// A side that waits on its doorbell edge-triggered drains it on every
/// this many wakes (StreamRing::ClearDoorbell): often enough that the
/// rings left unread never fill the pair's socket buffer (about 278
/// one-byte rings), rarely enough that the drain's recv vanishes from the
/// per-delivery cost.  See the header comment.
inline constexpr uint32_t kDoorbellDrainPeriod = 32;

/// The poll window after a sleep: the halt-polling rule (KVM's).  A sleep
/// that began at `slept_at` and that the writer's ring stamped `rang_at`
/// (both MonotonicNanos) ended within kStreamRingPollNanos means a poll
/// that long would have caught the frame: poll longer (kStreamRingPollNanos
/// / 8 first, then doubling up to the ceiling).  A longer gap stops the
/// polling.  A stamp older than the sleep is no ring of this sleep (the
/// reader woke for another reason), so the window stays.  The stamp comes
/// from the untrusted writer; whatever it says, the window stays within
/// [0, kStreamRingPollNanos].
uint64_t NextPollNanos(uint64_t poll_nanos, uint64_t slept_at,
                       uint64_t rang_at) noexcept;

/// The shared control block at the start of the memfd.  The data follows
/// at kStreamRingHeaderBytes (page-aligned).  Each cache line holds what
/// one side publishes; the other side only reads it, or clears the flag
/// it finds set there.  Per frame, only the writer's line crosses between
/// the two: the reader's `tail` line stays in its cache until the writer
/// runs short of room or checks for a rewind, and the sleep flag's line
/// changes only when the reader sleeps.
struct StreamRingHeader {
  static constexpr uint64_t kMagic = 0x3147'4e49'5246'5352ull;  // "RSFRING1"
  uint64_t magic = 0;
  uint64_t capacity = 0;
  // Writer's line: what the reader polls.
  alignas(64) std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> rewind_from{0};
  std::atomic<uint64_t> rang_at{0};  // the writer's clock at its last ring
  std::atomic<uint32_t> writer_waiting{0};
  // Reader's line.
  alignas(64) std::atomic<uint64_t> tail{0};
  // The sleep flag: set by the reader, cleared by the writer that rings.
  alignas(64) std::atomic<uint32_t> reader_sleeping{0};
};
inline constexpr size_t kStreamRingHeaderBytes = 4096;
static_assert(sizeof(StreamRingHeader) <= kStreamRingHeaderBytes);
static_assert(std::atomic<uint64_t>::is_always_lock_free &&
              std::atomic<uint32_t>::is_always_lock_free);

class StreamRing final : public ByteStream {
 public:
  /// Reader side (the subscriber): a fresh ring of kStreamRingCapacity
  /// data bytes in a memfd sealed against resizing, plus its doorbell pair.
  static Result<std::unique_ptr<StreamRing>> Create();

  /// Writer side (the publisher): takes the descriptors a reader passed
  /// (PassedFds() order) and maps the memfd only after checking it: a
  /// memfd sealed against shrinking and growing, a size of header plus
  /// kStreamRingCapacity, the header's magic and capacity, and a doorbell
  /// that is an AF_UNIX stream socket.  Any failed check closes the
  /// descriptors and returns an error.
  static Result<std::unique_ptr<StreamRing>> Attach(std::vector<FdGuard> fds);

  ~StreamRing() override;
  StreamRing(const StreamRing&) = delete;
  StreamRing& operator=(const StreamRing&) = delete;

  /// Reader only: the descriptors to pass to the writer — the memfd and
  /// the writer's end of the doorbell pair.
  [[nodiscard]] std::array<int, 2> PassedFds() const noexcept {
    return {memfd_.fd(), peer_bell_.fd()};
  }

  /// Reader only.  Copies out up to data.size() bytes; 0 means the ring
  /// is empty and the sleep flag is set (the doorbell will ring).
  /// An invalid `head` is kOutOfRange.  Never reports EOF (the socket does).
  /// Publishes `tail` when the read empties the ring (so once per frame
  /// while the reader keeps up) or every kStreamRingPublishBytes.
  Result<size_t> ReadSome(std::span<uint8_t> data) override;

  /// Writer only.  Copies in as many of the iovecs' bytes as fit; 0
  /// means the ring is full and the waiting flag is set (the doorbell
  /// will ring).  An invalid `tail` is kOutOfRange.  Reads `tail` only
  /// when the room it last saw is short, or when the write would start a
  /// page it has not written this lap (the rewind check: an empty ring
  /// starts the next lap instead).
  Result<size_t> WriteSome(std::span<const iovec> iov) override;

  /// This side's end of the doorbell pair.  Each ring of the other side
  /// (and its close) raises an edge on it; register it with the loop
  /// edge-triggered (EventLoop::Add with kEventEdge).
  [[nodiscard]] int wait_fd() const noexcept { return bell_.fd(); }
  /// Consumes the rings waiting on wait_fd() (one nonblocking recv of up
  /// to 512 bytes, more than an end holds): call it every
  /// kDoorbellDrainPeriod wakes.  False once the other side
  /// has closed its end or broken it: no ring will come again, so stop
  /// waiting on it.
  [[nodiscard]] bool ClearDoorbell() noexcept;

  /// Reader only: bytes are waiting.  No flag change, no syscall.
  [[nodiscard]] bool HasUnread() const noexcept;

  /// Reader only: whether ReadSome may poll an empty ring before it sleeps
  /// (off until allowed).
  void AllowPolling(bool allowed) noexcept { poll_allowed_ = allowed; }

  /// The mapped data bytes (tests check which pages are resident).
  [[nodiscard]] const uint8_t* data() const noexcept { return data_; }

 private:
  StreamRing(void* base, FdGuard memfd, FdGuard bell, FdGuard peer_bell);

  /// Reader: unread bytes below `head`, after following a rewind;
  /// kOutOfRange when `head` is not a position the writer could reach.
  Result<uint64_t> Readable(uint64_t head) noexcept;
  /// Writer: the reader's tail as a position in the writer's stream (a
  /// tail parked at a pending rewind counts as the lap start it jumps to);
  /// kOutOfRange when it is out of range.
  Result<uint64_t> EffectiveTail(uint64_t tail) noexcept;
  /// Writer: loads `tail` into tail_.
  Status ReloadTail(std::memory_order order) noexcept;
  /// Writer: makes everything up to position_ readable and rings the data
  /// doorbell if the reader has gone to sleep.
  void PublishHead() noexcept;
  /// Reader: publishes position_ as `tail`, and rings a writer waiting for
  /// room once half the ring is free (`unread` bytes are left).
  void PublishTail(uint64_t unread) noexcept;
  [[nodiscard]] static uint64_t LapStart(uint64_t index) noexcept {
    return (index + kStreamRingCapacity - 1) &
           ~static_cast<uint64_t>(kStreamRingCapacity - 1);
  }

  void* const base_;
  StreamRingHeader* const header_;
  uint8_t* const data_;
  // Reader only: passed to the writer, unneeded here once passed.
  FdGuard memfd_;
  FdGuard peer_bell_;
  FdGuard bell_;  // this side's end of the doorbell pair
  // The side's own index: authoritative here, published to the header.
  uint64_t position_ = 0;
  // Writer: the index of a rewind the reader has not followed yet, and
  // the reader's tail as last read (a position in the writer's stream).
  // Reader: the tail it last published.
  static constexpr uint64_t kNoRewind = ~uint64_t{0};
  uint64_t rewind_pending_ = kNoRewind;
  uint64_t tail_ = 0;
  // Reader: whether it may poll, when it last went to sleep (0: awake
  // since), and how long it polls an empty ring before the next sleep.
  bool poll_allowed_ = false;
  uint64_t slept_at_ = 0;
  uint64_t poll_nanos_ = 0;
};

}  // namespace rsf::net
