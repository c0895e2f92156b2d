// Length-prefixed message framing over a TcpConnection, mirroring TCPROS:
// every unit on the wire is [uint32 little-endian length][payload].
//
// The frame reader takes an allocator callback so the receiving middleware
// can decide where payload bytes land.  This is the hook that makes the
// serialization-free receive path possible: for SFM topics the allocator
// returns a pointer into a freshly registered message arena, so the bytes
// coming off the socket *are* the message (paper §4.2, subscriber side).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "net/byte_stream.h"
#include "net/socket.h"

namespace rsf::net {

/// The wire length prefix carries a frame *tag* in its top 4 bits (shm
/// descriptor/control frames share the data links, see kFrameTag*), so the
/// payload length proper lives in the low 28 bits.  Tag 0 is ordinary data
/// — the only tag that existed before the shm tier — so a plain peer's
/// frames parse exactly as before.
inline constexpr uint32_t kFrameLengthMask = (1u << 28) - 1u;

/// Maximum accepted frame payload (guards against corrupted lengths).
inline constexpr uint32_t kMaxFramePayload = kFrameLengthMask;

inline constexpr unsigned kFrameTagShift = 28;
inline constexpr uint32_t kFrameTagData = 0;            // message payload
inline constexpr uint32_t kFrameTagShmDescriptor = 1;   // pub→sub block ref
inline constexpr uint32_t kFrameTagShmControl = 2;      // sub→pub ack/nack
inline constexpr uint32_t kFrameTagMcastControl = 3;    // sub→pub nack/ack/leave
inline constexpr uint32_t kFrameTagMcastRepair = 4;     // pub→sub unicast repair
inline constexpr uint32_t kFrameTagMax = kFrameTagMcastRepair;

/// Splits/builds a raw length-prefix value.  The frame reader hands the RAW
/// value to the allocator and on_frame callbacks (so receivers can route on
/// the tag); tag-0 frames have raw == length, which keeps every pre-shm
/// caller byte-for-byte unaffected.
constexpr uint32_t FrameTag(uint32_t raw) noexcept {
  return raw >> kFrameTagShift;
}
constexpr uint32_t FrameLength(uint32_t raw) noexcept {
  return raw & kFrameLengthMask;
}
constexpr uint32_t TaggedLength(uint32_t tag, uint32_t length) noexcept {
  return (tag << kFrameTagShift) | length;
}

/// Writes one frame: 4-byte LE length then the payload, gathered into a
/// single writev-style syscall (TcpConnection::WritevAll).
Status WriteFrame(TcpConnection& conn, std::span<const uint8_t> payload);

/// Allocator: given the raw length-prefix value (FrameLength() of it is the
/// payload byte count; FrameTag() the frame tag), returns the destination
/// buffer.  Returning nullptr aborts the read with kResourceExhausted.
using FrameAllocator = std::function<uint8_t*(uint32_t length)>;

/// Reads one frame into memory provided by `alloc`; on success stores the
/// payload length in `*length`.  The blocking path predates frame tags and
/// carries only data frames (bag files, tests): a tagged frame is rejected.
Status ReadFrame(TcpConnection& conn, const FrameAllocator& alloc,
                 uint32_t* length);

/// Incremental frame parser for nonblocking streams (the reactor's
/// receive path).  Poll() consumes whatever bytes the stream has — a
/// socket, or a same-host link's ring (net/byte_stream.h) — resuming
/// mid-header or mid-payload across readiness events; the allocator is
/// invoked exactly once per frame — as soon as the 4-byte length prefix
/// completes — so payload bytes are copied once, straight into their
/// final destination (for SFM topics, a message arena: the one-copy
/// receive).  The buffer the allocator returns must stay valid until the
/// frame completes, across however many Poll() calls that takes.
///
/// On a socket the payload read also asks for the next frame's header
/// (ByteStream::ReadAhead), so a burst costs about one recv per frame,
/// and a read that comes back short tells the reader the socket is
/// drained (Drained()): no probe read for EAGAIN follows it.
class FrameReader {
 public:
  enum class Step {
    kFrame,     // a full frame completed; *length holds the payload size
    kNeedMore,  // socket drained mid-frame; call again on next readiness
  };

  /// Advances the state machine.  After kFrame the reader has reset itself;
  /// callers loop Poll() until kNeedMore to drain multi-frame bursts.
  /// A peer close at a frame boundary is kUnavailable ("connection
  /// closed"); mid-frame it is kUnavailable with a truncation message.
  /// `*length` receives the RAW prefix value — mask with FrameLength()
  /// where a byte count is needed; a raw tag above kFrameTagMax is
  /// rejected as kOutOfRange (corrupted stream).
  Result<Step> Poll(ByteStream& in, const FrameAllocator& alloc,
                    uint32_t* length);

  /// True when the last Poll's final read came back short from a stream
  /// whose short reads mean "drained" (ByteStream::ShortReadDrains): the
  /// caller stops polling until the next readiness event.
  [[nodiscard]] bool Drained() const noexcept { return drained_; }

  /// Abandons any partial frame (link teardown reuse).
  void Reset() noexcept;

  /// True when the bytes already read hold a whole frame: a header read
  /// ahead whose payload is empty.  No readiness event will come for it.
  [[nodiscard]] bool FrameBuffered() const noexcept;

  /// True while a frame is partially read, including a next frame's
  /// header bytes read ahead with the last payload.
  [[nodiscard]] bool MidFrame() const noexcept {
    return header_got_ > 0 || state_ == State::kPayload;
  }

 private:
  enum class State { kHeader, kPayload };
  State state_ = State::kHeader;
  uint8_t header_[4] = {};
  size_t header_got_ = 0;
  uint8_t* payload_ = nullptr;
  uint32_t raw_len_ = 0;      // tag | length as it appeared on the wire
  uint32_t payload_len_ = 0;  // FrameLength(raw_len_)
  size_t payload_got_ = 0;
  bool drained_ = false;
};

/// The floor and ceiling of the adaptive per-sendmsg gather budget.  The
/// writer starts gathering kGatherFramesMin frames per syscall and doubles
/// toward kGatherFramesMax while the queue stays deeper than the budget,
/// halving back once it drains — small-message floods amortize the
/// syscall without penalizing shallow queues with oversized iovec walks.
inline constexpr size_t kGatherFramesMin = 8;
inline constexpr size_t kGatherFramesMax = 64;

/// Outgoing frame queue + resumable gathered writer for nonblocking
/// connections (the reactor's send path).  Keeps the one-sendmsg-per-burst
/// economics of WritevAll: each Flush() gathers the length prefixes and
/// payloads of every queued frame into as few writev-style syscalls as the
/// socket buffer allows, resuming mid-frame after partial writes.  Not
/// thread-safe — Link locks around every call, since a producer thread
/// may enqueue, or flush an idle link itself (Link::WriteThrough).
///
/// Every payload is copied once on its way out: by the kernel in an
/// ordinary sendmsg, or in user space into a
/// same-host link's ring (net/stream_ring.h) — see DESIGN.md §9.  The
/// queue itself is copy-free: it holds the shared payload holder, never
/// a copy of its bytes.
class FrameWriter {
 public:
  /// Queues one frame (shared payload: fan-out costs no copy).  `size` is
  /// the raw prefix value — TaggedLength(tag, bytes), or just the byte
  /// count for ordinary data frames; the payload byte count on the wire is
  /// FrameLength(size).  When `max_pending` > 0 and the queue is at
  /// capacity, the oldest frame whose bytes have not begun to leave is
  /// evicted first (drop-oldest, matching the publisher queue policy);
  /// returns true when that happened.  The frame whose write is in progress
  /// is never evicted — a partial frame on the wire must complete or the
  /// stream desynchronizes.
  bool Enqueue(std::shared_ptr<const uint8_t[]> payload, uint32_t size,
               size_t max_pending = 0);

  /// Writes as much as the stream accepts.  On success, check
  /// HasPending(): true means the socket buffer (or the ring) filled and
  /// the caller should wait for room.  An error means the link is dead;
  /// PendingFrames() tells the caller how many queued frames will never
  /// reach the wire.
  Status Flush(ByteStream& out);

  [[nodiscard]] bool HasPending() const noexcept { return !pending_.empty(); }
  [[nodiscard]] size_t PendingFrames() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] uint64_t FramesWritten() const noexcept {
    return frames_written_;
  }
  /// Total bytes the kernel has accepted.  The link's write-progress
  /// deadline snapshots this to tell a slow-but-moving peer from a
  /// stalled one.
  [[nodiscard]] uint64_t BytesWritten() const noexcept {
    return bytes_written_;
  }
  /// Current adaptive gather budget (tests observe growth/decay).
  [[nodiscard]] size_t GatherBudget() const noexcept { return gather_budget_; }

 private:
  struct PendingFrame {
    uint8_t header[4];
    std::shared_ptr<const uint8_t[]> payload;
    uint32_t size = 0;
    size_t offset = 0;  // bytes of (header + payload) already written
  };

  /// The frame queue: a circular buffer whose slots are reused, growing
  /// by doubling when full, so a steady stream allocates nothing per
  /// frame.
  class Queue {
   public:
    [[nodiscard]] size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    PendingFrame& operator[](size_t i) noexcept {
      return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    PendingFrame& front() noexcept { return (*this)[0]; }
    void push_back(PendingFrame frame);
    /// Releases the front frame's payload and frees its slot.
    void pop_front() noexcept;
    /// Removes the frame at `i`, keeping the others' order.
    void erase(size_t i) noexcept;

   private:
    std::vector<PendingFrame> slots_;  // a power of two in size, or empty
    size_t head_ = 0;
    size_t size_ = 0;
  };

  /// Builds the header + payload iovec list of the first `count` queued
  /// frames into iov_, resuming the front frame at its offset.
  std::span<const iovec> Gather(size_t count);
  /// Credits `bytes` the stream accepted to the front of the queue,
  /// popping every frame that completed.
  void Advance(size_t bytes) noexcept;
  void AdaptGatherBudget() noexcept;

  Queue pending_;
  std::vector<iovec> iov_;  // reused gather scratch (grows with the budget)
  uint64_t frames_written_ = 0;
  uint64_t bytes_written_ = 0;
  size_t gather_budget_ = kGatherFramesMin;
};

}  // namespace rsf::net
