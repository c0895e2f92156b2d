// Wire protocol and engines of the UDP-multicast transport tier
// (DESIGN.md §14).
//
// Above the fan-out threshold (RSF_MCAST_MIN_SUBS) a publisher moves
// eligible subscribers onto a per-topic multicast group: `Publish` sends
// the already-built wire frame EXACTLY ONCE as a sequenced datagram burst
// — wire sends per publish drop from O(subscribers) to O(chunks) — and
// every McastLane in the fan-out shares one McastGroupSender.  The
// subscriber's TCP link survives as the tier's control channel: gaps come
// back as NACK frames, answered with unicast repairs from a bounded ring
// of recent frames, so a lossy receiver degrades itself, never the group.
//
// Datagram layout (every chunk, little-endian):
//   u64 seq | u16 chunk_index | u16 chunk_count | u32 frame_len
//   followed by up to kMcastChunkPayload bytes at offset
//   chunk_index * kMcastChunkPayload of the frame.
//
// Control frame (subscriber → publisher, frame tag 3, 24 bytes):
//   u32 magic 'RSFN' | u8 kind (0 nack, 1 ack, 2 leave) | u8[3] pad |
//   u64 lo | u64 hi
//   kNack: resend seqs in [lo, hi].  kAck: every seq <= lo is delivered
//   (cumulative; feeds the publisher's dead-subscriber eviction).  kLeave:
//   this subscriber abandons the tier (join failure or loss storm); lo is
//   its highest contiguous seq — the publisher replays everything newer
//   inline and the lane becomes per-subscriber TCP again.
//
// Repair frame (publisher → subscriber, frame tag 4, unicast TCP):
//   u64 seq | frame bytes.  A payload of exactly 8 bytes means "gone" —
//   the seq fell off the repair ring; the subscriber stops waiting and the
//   publisher counts the per-subscriber loss in its dropped stat.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/udp.h"

namespace ros {

/// Datagram payload bytes per chunk: comfortably under the 64 KiB UDP
/// ceiling with the 16-byte header, so a chunk is always one datagram.
inline constexpr uint32_t kMcastChunkPayload = 60 * 1024;
inline constexpr uint32_t kMcastChunkHeaderSize = 16;
inline constexpr uint32_t kMcastControlMagic = 0x4E465352u;  // "RSFN" LE
inline constexpr uint32_t kMcastControlSize = 24;
/// A repair payload of exactly this size carries no frame bytes: "gone".
inline constexpr uint32_t kMcastRepairHeaderSize = 8;
/// Cumulative-ack cadence: the subscriber acks once its contiguous
/// delivery point advanced this many messages.
inline constexpr uint64_t kMcastAckInterval = 16;
/// NACK retries per seq before the subscriber gives the message up.
inline constexpr int kMcastNackRetryLimit = 10;
/// Widest seq range one NACK covers; older holes resolve as gone locally
/// (they are beyond any plausible repair ring anyway).
inline constexpr uint64_t kMcastMaxNackSpan = 1024;
/// Total given-up messages after which a subscriber concludes the group is
/// a loss storm for it and leaves the tier (per-subscriber TCP fallback).
inline constexpr uint64_t kMcastLeaveThreshold = 256;

// ---- env knobs (re-read per call, like the shm knobs) ----

/// RSF_TRANSPORT_MCAST=1 opts a process into the tier (both sides).
bool McastEnabled() noexcept;
/// Fan-out threshold: mcast-requesting subscribers at or past this count
/// get the grant (RSF_MCAST_MIN_SUBS, default 8, floor 1).  Earlier
/// requesters stay on TCP — the tier engages as the topic grows.
size_t McastMinSubs() noexcept;
/// Publisher repair-ring depth (RSF_MCAST_REPAIR_DEPTH, default 64,
/// floor 4).
size_t McastRepairDepth() noexcept;
/// Subscriber gap-detection timer (RSF_MCAST_NACK_MS, default 5ms).
uint64_t McastNackDelayNanos() noexcept;
/// Publishes without ack progress before a subscriber is evicted from the
/// group: scaled off the repair depth, floored above the ack cadence so a
/// healthy subscriber can never be evicted between its own acks.
size_t McastEvictionLag() noexcept;

// ---- codecs ----

struct McastChunkHeader {
  uint64_t seq = 0;
  uint16_t index = 0;
  uint16_t count = 0;
  uint32_t frame_len = 0;
};

void EncodeMcastChunkHeader(uint8_t out[kMcastChunkHeaderSize],
                            const McastChunkHeader& header);
/// Structural validation: size, non-zero count, index < count, and the
/// count consistent with frame_len's chunking.
bool DecodeMcastChunkHeader(const uint8_t* data, size_t size,
                            McastChunkHeader* out);

enum class McastControlKind : uint8_t { kNack = 0, kAck = 1, kLeave = 2 };

std::shared_ptr<const uint8_t[]> EncodeMcastControlFrame(McastControlKind kind,
                                                         uint64_t lo,
                                                         uint64_t hi);
bool DecodeMcastControl(const uint8_t* data, size_t size,
                        McastControlKind* kind, uint64_t* lo, uint64_t* hi);

/// Builds a repair frame: [u64 seq | frame bytes] (one copy — the rare,
/// per-lossy-subscriber path; the common path never copies).  Null payload
/// builds the 8-byte "gone" form.
std::shared_ptr<const uint8_t[]> EncodeMcastRepairFrame(uint64_t seq,
                                                        const uint8_t* frame,
                                                        uint32_t frame_len);

// ---- publisher side ----

/// The per-topic group sender every McastLane of a publication shares.
/// Thread-safe: Publish threads Stage (O(1) — assign the seq, pin the ring,
/// queue the burst; no syscalls, so the publish call stays flat at any
/// fan-out), the loop thread drains staged bursts in FlushStaged and
/// services NACKs out of the repair ring.  On loopback the kernel
/// replicates a multicast datagram to every member socket inside sendmsg,
/// which is why the burst must not run on the publish thread.
class McastGroupSender {
 public:
  /// Allocates the group address, binds the sender socket (its ephemeral
  /// local port becomes the group port), sizes the repair ring, and seeds
  /// the loss-injection shim from RSF_MCAST_DROP_PCT if set.
  static rsf::Result<std::shared_ptr<McastGroupSender>> Create(
      const std::string& topic);

  [[nodiscard]] const std::string& group() const noexcept { return group_; }
  [[nodiscard]] uint16_t port() const noexcept { return socket_.port(); }

  /// The seq the NEXT publish will carry — stamped into a grant so the
  /// joining subscriber knows where its stream starts.
  [[nodiscard]] uint64_t NextSeq() const noexcept {
    return last_seq_.load(std::memory_order_acquire) + 1;
  }
  /// Highest seq sent so far (lanes difference this against acks for
  /// dead-subscriber eviction).
  [[nodiscard]] uint64_t LastSeq() const noexcept {
    return last_seq_.load(std::memory_order_acquire);
  }

  /// Stages one publish for the group: assigns the next seq, pins the
  /// frame in the repair ring, and queues the chunk burst for the loop
  /// thread.  Publication calls it once per publish for the whole cohort.
  /// Publish-thread cost: one short critical section, zero syscalls.
  void Stage(const std::shared_ptr<const uint8_t[]>& payload, uint32_t size);

  /// Drains every staged burst to the wire.  Loop-thread-only (the
  /// publication's coalesced flush kick); back-to-back publishes batch
  /// into one drain.  The sendmsg loop runs outside the mutex so a
  /// concurrent Stage never blocks behind the kernel's member fan-out.
  void FlushStaged();

  /// Repair-ring lookup (any thread): true fills `*frame` with the pinned
  /// payload and its size; false means the seq fell off the ring.
  bool LookupFrame(uint64_t seq, std::shared_ptr<const uint8_t[]>* payload,
                   uint32_t* size);

  /// Leave-tier replay: every ring entry with seq > from_seq, oldest
  /// first, as plain inline data frames; `*missing` counts the seqs in
  /// (from_seq, LastSeq()] that already fell off the ring (real losses).
  std::vector<rsf::net::OutFrame> CollectInlineSince(uint64_t from_seq,
                                                     uint64_t* missing);

 private:
  McastGroupSender(std::string group, rsf::net::UdpSocket socket,
                   size_t depth);

  struct Pinned {
    uint64_t seq = 0;
    std::shared_ptr<const uint8_t[]> payload;
    uint32_t size = 0;
  };

  const std::string group_;
  rsf::net::UdpSocket socket_;
  const size_t depth_;
  std::atomic<uint64_t> last_seq_{0};

  std::mutex mutex_;
  std::deque<Pinned> ring_;
  std::deque<Pinned> staged_;  // bursts awaiting the loop-thread drain
  uint64_t next_seq_ = 0;
  uint64_t drop_counter_ = 0;  // loss-injection phase (loop-confined)
};

// ---- subscriber side ----

/// Loop-confined reassembly + gap-recovery engine, socket-free so unit
/// tests drive it with synthetic chunk headers and repairs.  The owner
/// wires the hooks: `alloc` reserves the frame's destination buffer (the
/// arena — chunks land straight in it), `complete` finalizes a fully
/// reassembled frame, `abandon` releases the buffer of a given-up seq,
/// `send_control` rides the TCP control channel, `schedule` arms the
/// gap-detection timer on the loop.
class McastRxEngine {
 public:
  struct Hooks {
    std::function<uint8_t*(uint64_t seq, uint32_t frame_len)> alloc;
    std::function<void(uint64_t seq, uint32_t frame_len)> complete;
    std::function<void(uint64_t seq)> abandon;
    std::function<void(McastControlKind kind, uint64_t lo, uint64_t hi)>
        send_control;
    std::function<void(uint64_t delay_nanos, std::function<void()> fire)>
        schedule;
  };

  /// `first_seq` is the grant's base: the first seq this subscriber will
  /// be sent (everything older is resolved by definition).
  McastRxEngine(uint64_t first_seq, uint64_t nack_delay_nanos, Hooks hooks);

  /// Phase 1 of a datagram: where should its payload land?  Returns the
  /// in-buffer destination (data + index * kMcastChunkPayload), or nullptr
  /// to discard (stale seq, duplicate chunk, malformed header vs the
  /// frame's known geometry).  The caller scatters the recv into it and
  /// calls CommitChunk on success; an aborted recv simply leaves the chunk
  /// outstanding for the timer.
  uint8_t* ChunkDestination(const McastChunkHeader& header);

  /// Phase 2: the chunk's bytes are in place.  Completes the frame when it
  /// was the last chunk, fires immediate NACKs for wholly-missed seqs the
  /// jump exposed, and arms the tail-loss timer while gaps remain.
  void CommitChunk(const McastChunkHeader& header);

  /// A unicast repair arrived: frame_len == 0 is "gone" (give the seq up),
  /// otherwise `frame` holds the full frame to copy in and complete.
  void OnRepair(uint64_t seq, const uint8_t* frame, uint32_t frame_len);

  /// The gap-detection timer body (public so unit tests fire it directly):
  /// NACKs every open hole, gives up seqs past the retry limit, re-arms
  /// while gaps remain.
  void OnNackTimer();

  /// Every seq at or below this is resolved (delivered or given up).
  [[nodiscard]] uint64_t contig() const noexcept { return contig_; }
  /// Messages given up (gone repairs + retry exhaustion) — the owner's
  /// leave-the-tier trigger.
  [[nodiscard]] uint64_t abandoned() const noexcept {
    return abandoned_total_;
  }
  [[nodiscard]] bool has_gaps() const noexcept { return contig_ < max_seen_; }

 private:
  struct Partial {
    uint32_t frame_len = 0;
    uint16_t count = 0;
    uint16_t received = 0;
    std::vector<bool> have;
    uint8_t* data = nullptr;
  };

  void Resolve(uint64_t seq);
  void ResolveGone(uint64_t seq);
  void NackRange(uint64_t lo, uint64_t hi);
  void ArmTimer();

  uint64_t contig_;
  uint64_t max_seen_;
  uint64_t last_acked_;
  const uint64_t nack_delay_;
  std::unordered_map<uint64_t, Partial> partials_;
  std::map<uint64_t, bool> resolved_ahead_;  // resolved beyond contig_
  std::unordered_map<uint64_t, int> nack_attempts_;
  bool timer_armed_ = false;
  uint64_t abandoned_total_ = 0;
  Hooks hooks_;
};

/// Subscriber-side per-link mcast state (owned by the WireLink, loop-thread
/// confined after the handshake) — the untyped half; the typed Subscription
/// keeps the per-seq arena map the engine's alloc hook draws from.
struct McastSubState {
  bool negotiated = false;
  /// Join failure or loss storm broke the tier for this link; datagrams
  /// are ignored and data arrives inline after our leave control frame.
  bool broken = false;
  std::string group;
  uint16_t port = 0;
  uint64_t base_seq = 0;
  rsf::net::UdpSocket socket;
  rsf::net::EventLoop* loop = nullptr;  // where the socket fd is registered
  bool fd_registered = false;
  std::vector<uint8_t> repair_buf;   // staging for inbound tag-4 frames
  std::vector<uint8_t> discard_buf;  // sink for datagrams the engine rejects
  std::unique_ptr<McastRxEngine> engine;
};

}  // namespace ros
