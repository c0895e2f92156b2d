// The pluggable per-subscriber delivery seam (DESIGN.md §13).
//
// After PR 7 a topic can reach a subscriber over three tiers — in-process
// pointer hand-off, inline TCP frames, shm descriptor + pin ledger — and
// `Publication::Publish` had grown into a branch ladder over per-link maps
// and side channels.  This header carves the seam that collapses it:
//
//   PublishContext   everything a publish produces, built EXACTLY ONCE per
//                    publish regardless of fan-out: the wire frame (shared
//                    payload + raw tagged prefix), the pre-encoded 48-byte
//                    shm descriptor frame, the pin-ledger sequence number,
//                    and the borrowed typed in-process handle.  Lanes only
//                    read it, and count outcomes into a per-publish
//                    LaneTally that Publication folds in once.
//
//   TransportLane    one subscriber's delivery path.  Publish is a loop of
//                    `lane->Offer(ctx, &tally)` over an immutable lane
//                    array (DESIGN.md §13.2) — no tier branches,
//                    no per-publish map lookups, no per-link negotiation
//                    reads.  Concrete lanes: IntraLane (typed pointer
//                    hand-off), TcpLane (inline frames), ShmLane
//                    (descriptor + pin ledger, inline fallback), and
//                    McastLane (NACK repair and leave-tier fallback for a
//                    member of the topic's multicast cohort, whose group
//                    burst Publication stages once per publish,
//                    DESIGN.md §14) — exactly the "one more subclass plus
//                    a LanePolicy row" the seam was cut for.
//
//   LanePolicy       the negotiation table.  Which tier a subscriber asks
//                    for at connect time, what the publisher grants in the
//                    handshake, and which lane an established link becomes
//                    — the rules that used to be spread across the
//                    handshake lambdas of publication.cpp and
//                    subscription.h, now one pure, exhaustively testable
//                    unit mirroring the DESIGN.md §12.4 matrix.
//
// Threading: Offer() is called from publisher threads (any number,
// concurrently) — and a single-wire-lane fan-out's Offer sends on the
// socket itself (Link::WriteThrough); OnControlFrame/Close/Flush are
// loop-thread-only, like the Link callbacks that drive them.  Describe()
// is thread-safe.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "ros/intra_process.h"
#include "ros/serialized_message.h"

namespace ros {

class McastGroupSender;

/// One publish, prepared once and shared by every lane the fan-out visits.
/// The wire frame and descriptor frame alias shared buffers: offering the
/// context to N lanes costs no encode and no refcount per lane — lanes
/// that queue the frame take their own shared_ptr copy.
struct PublishContext {
  /// Wire payload holder — the serialized (or arena-aliased) bytes, also
  /// the unit the shm pin ledger parks until the subscriber acks.
  SerializedMessage payload;
  /// Finalized data frame: payload aliased under its raw (tag 0) prefix.
  /// Built by Publication from `payload`, exactly once per publish
  /// (shim::frame_builds proves it).
  rsf::net::OutFrame wire;
  /// Pre-encoded shm descriptor frame, when the payload resolved to a
  /// shared block (shim::descriptor_builds counts the one encode).
  /// Invalid when the tier is off, the payload is heap-backed, or no shm
  /// lane is live — shm lanes then deliver inline.
  rsf::net::OutFrame descriptor;
  /// Pin-ledger sequence number stamped into `descriptor`.
  uint64_t seq = 0;

  /// Typed in-process handle, borrowed: points at the publisher's
  /// shared_ptr<const M> for the synchronous Publish call only.  Null for
  /// untyped publishes (bag replay) — intra lanes then skip this context.
  const void* intra = nullptr;
  IntraTier intra_tier = IntraTier::kWholeCopy;

  /// Set by Publication when the fan-out holds exactly one wire lane and
  /// no mcast cohort: that lane sends from the publishing thread
  /// (Link::WriteThrough) instead of waiting for the loop kick.
  bool write_through = false;

  [[nodiscard]] bool has_wire() const noexcept { return payload.valid(); }
  [[nodiscard]] bool has_intra() const noexcept { return intra != nullptr; }
  [[nodiscard]] bool empty() const noexcept {
    return !has_wire() && !has_intra();
  }
};

/// One publish's delivery outcomes, counted by the lanes with plain adds
/// and folded into LaneCounters once after the fan-out loop.
struct LaneTally {
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t intra_delivered = 0;  // tier split per publish, in Add
  uint64_t shm_descriptors = 0;
  uint64_t shm_inline = 0;
  bool queued = false;  // a wire lane left frames for the loop kick
};

/// The publication's delivery counters: per-publish tallies fold in via
/// Add; loop-thread events (close, repair misses, evictions) bump them
/// directly.  Relaxed telemetry.
struct LaneCounters {
  std::atomic<uint64_t> enqueued{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> intra_delivered{0};
  std::atomic<uint64_t> intra_zero_copy{0};
  std::atomic<uint64_t> intra_whole_copy{0};
  std::atomic<uint64_t> shm_descriptors{0};
  std::atomic<uint64_t> shm_inline{0};

  /// Folds one publish's tally in; `tier` classifies its intra deliveries.
  void Add(const LaneTally& tally, IntraTier tier) noexcept {
    const auto add = [](std::atomic<uint64_t>& counter, uint64_t n) {
      if (n > 0) counter.fetch_add(n, std::memory_order_relaxed);
    };
    add(enqueued, tally.enqueued);
    add(dropped, tally.dropped);
    add(intra_delivered, tally.intra_delivered);
    add(tier == IntraTier::kZeroCopy ? intra_zero_copy : intra_whole_copy,
        tally.intra_delivered);
    add(shm_descriptors, tally.shm_descriptors);
    add(shm_inline, tally.shm_inline);
  }
};

enum class LaneKind : uint8_t { kIntra, kTcp, kShm, kMcast };

/// Thread-safe snapshot of one lane for Stats()/NumSubscribers().
struct LaneDescription {
  LaneKind kind = LaneKind::kTcp;
  bool alive = true;   // intra lanes: subscriber still reachable
  bool local = false;  // wire lanes: the link rides a same-host AF_UNIX socket
};

/// One subscriber's delivery path.  See the threading contract above.
class TransportLane {
 public:
  virtual ~TransportLane() = default;

  /// Offers one prepared publish to this lane, counting the outcome into
  /// `tally`; a wire lane that leaves frames queued sets `tally->queued`
  /// so the publication kicks the loop.  Returns false when the lane is
  /// dead and should be culled from the fan-out (in-process subscriber
  /// gone); wire lanes always return true — their lifecycle is driven by
  /// Link callbacks, not by publish outcomes.
  virtual bool Offer(const PublishContext& ctx, LaneTally* tally) = 0;

  /// A control frame arrived on this lane's link (`data` is the staged
  /// payload, FrameLength(raw) its size).  Loop-thread-only.
  virtual void OnControlFrame(uint32_t raw, const uint8_t* data) = 0;

  /// Releases everything the lane owns (peer slot, pin ledger, link) and
  /// accounts frames stranded behind it.  Loop-thread-only, idempotent.
  virtual void Close() = 0;

  /// Kicks queued wire frames toward the socket.  Loop-thread-only.
  virtual void Flush() {}

  /// Loop-thread liveness sweep, run after each flush kick over the mcast
  /// cohort: false means the subscriber provably stopped acking and the
  /// lane must be culled from the group (the sweep has already counted the
  /// unacked window as drops).  Lanes outside the cohort never sweep dead.
  virtual bool SweepAlive() { return true; }

  [[nodiscard]] virtual LaneDescription Describe() const = 0;

  /// Identity hook for in-process lane removal (Publication::
  /// RemoveIntraLink keys on the subscriber's IntraLinkBase pointer).
  [[nodiscard]] virtual const IntraLinkBase* intra_link() const noexcept {
    return nullptr;
  }
};

/// Per-accepted-link context shared between the Link's callbacks and the
/// lane that the link becomes once established.  Written on the loop
/// thread (handshake, establishment); the handshake's negotiation outcome
/// decides the lane kind, and slot ownership transfers to the lane at
/// construction — until then OnLinkClosed releases it from here.
struct WireLaneContext {
  std::vector<uint8_t> control_buf;  // staging for inbound control frames
  // The subscriber's pid as the kernel reports it (SO_PEERCRED) on an
  // AF_UNIX link; 0 on TCP, where the peer cannot be identified.
  pid_t peer_pid = 0;
  // Shm negotiation outcome (EvaluateHandshake, loop thread).
  bool shm_negotiated = false;
  int shm_slot = -1;
  pid_t shm_pid = 0;
  // Mcast negotiation outcome: the shared per-topic group sender this
  // link's lane fans through, and the first seq granted to the subscriber.
  // `mcast_requested` tracks the subscriber's ask (granted or not) so the
  // publisher's eligibility census stays balanced across link closes.
  bool mcast_requested = false;
  bool mcast_negotiated = false;
  uint64_t mcast_join_seq = 0;
  std::shared_ptr<McastGroupSender> mcast_sender;
  // Set at establishment; control frames route through it.  Loop-confined.
  std::shared_ptr<TransportLane> lane;
};

/// The negotiation table: every tier decision in one testable unit.  The
/// rows mirror DESIGN.md §12.4 plus the §7 intra preference; tests cover
/// each cell (tests/ros/transport_lane_test.cpp).
class LanePolicy {
 public:
  // ---- subscriber side: which lane to ask for at connect time ----
  struct SubscriberSide {
    bool co_located = false;   // publisher's Publication lives here
    bool allow_intra = true;   // SubscribeOptions::allow_intra_process
    bool shaped = false;       // SimLink config models a remote machine
    bool serialization_free = false;  // SFM wire format (position-free)
    bool allow_shm = true;     // SubscribeOptions::allow_shm
    bool shm_enabled = false;  // RSF_TRANSPORT_SHM on this side
    bool loopback = false;     // endpoint host is this machine
    bool allow_mcast = true;     // SubscribeOptions::allow_mcast
    bool mcast_enabled = false;  // RSF_TRANSPORT_MCAST on this side
    bool local_name = true;  // endpoint does not rule out an AF_UNIX name
                             // (TopicEndpoint::local_owner)
  };
  /// Socket family for a wire dial: a same-host, unshaped link tries the
  /// publication's AF_UNIX name first (Link::Options::local_first) and
  /// falls back to TCP.  A shaped link models a remote machine, so it
  /// stays on TCP like a non-loopback endpoint, and a publication that
  /// could not bind its name is dialed over TCP at once.  The bytes and
  /// the handshake are identical on both; only the kernel path differs.
  [[nodiscard]] static bool DialLocalFirst(const SubscriberSide& in) noexcept {
    return in.loopback && !in.shaped && in.local_name;
  }
  enum class Plan : uint8_t {
    kIntra,            // register an in-process link, never dial
    kTcpRequestShm,    // dial TCP, ask for the shm tier in the handshake
    kTcpRequestMcast,  // dial TCP, ask to join the topic's multicast group
    kTcp,              // dial TCP, plain inline frames
  };
  [[nodiscard]] static Plan PlanSubscriber(const SubscriberSide& in) noexcept;

  // ---- publisher side: what the handshake grants ----
  struct PublisherSide {
    bool shm_requested = false;   // header carried shm=1
    bool peer_pid_known = false;  // header carried shm_pid
    bool shm_enabled = false;     // RSF_TRANSPORT_SHM on this side
    bool pid_mismatch = false;    // AF_UNIX peer credentials contradict shm_pid
    bool slot_acquired = false;   // a peer refcount column was free
  };
  enum class Grant : uint8_t {
    kShm,              // reply carries shm_ns/shm_slot; link becomes ShmLane
    kTcpNotRequested,  // subscriber never asked; plain TCP, silent
    kTcpTierDisabled,  // asked, but the tier is off here; log + TCP
    kTcpPidMismatch,   // shm_pid is not the socket's owner; warn + TCP
    kTcpNoSlot,        // asked, all peer slots busy; warn + TCP
  };
  [[nodiscard]] static Grant GrantWireTier(const PublisherSide& in) noexcept;

  /// Whether the handshake should even try to acquire a peer slot (the
  /// only side-effecting step; everything else above is pure).
  [[nodiscard]] static bool ShouldAttemptShm(const PublisherSide& in) noexcept {
    return in.shm_requested && in.peer_pid_known && in.shm_enabled &&
           !in.pid_mismatch;
  }

  // ---- publisher side: whether the handshake grants the mcast tier ----
  //
  // Evaluated after the shm decision: a subscriber that won a shm grant
  // never needs the group (its payloads cross as descriptors already), so
  // shm wins.  `above_threshold` is the fan-out gate — the tier only pays
  // off when one burst replaces many unicast writes — and `group_ready`
  // reports the lazily created (probe-verified) group sender.
  struct McastPublisherSide {
    bool mcast_requested = false;  // header carried mcast=1
    bool mcast_enabled = false;    // RSF_TRANSPORT_MCAST on this side
    bool shm_negotiated = false;   // this link already won the shm tier
    bool above_threshold = false;  // mcast-eligible subs >= RSF_MCAST_MIN_SUBS
    bool group_ready = false;      // probe passed + sender socket bound
  };
  enum class McastGrant : uint8_t {
    kMcast,             // reply carries group/port/seq; link becomes McastLane
    kTcpNotRequested,   // subscriber never asked; plain TCP, silent
    kTcpTierDisabled,   // asked, but the tier is off here; TCP
    kTcpShmWins,        // asked, but the shm grant already covers it
    kTcpBelowThreshold,  // asked, fan-out below the threshold; TCP for now
    kTcpNoGroup,        // asked, but the probe/socket failed here; warn + TCP
  };
  [[nodiscard]] static McastGrant GrantMcastTier(
      const McastPublisherSide& in) noexcept;

  /// Whether the handshake should even try to materialize the group sender
  /// (the only side-effecting step of the mcast decision).
  [[nodiscard]] static bool ShouldAttemptMcast(
      const McastPublisherSide& in) noexcept {
    return in.mcast_requested && in.mcast_enabled && !in.shm_negotiated &&
           in.above_threshold;
  }

  // ---- established side: which lane a wire link becomes ----
  [[nodiscard]] static LaneKind WireLaneKind(bool shm_negotiated,
                                             bool mcast_negotiated) noexcept {
    if (shm_negotiated) return LaneKind::kShm;
    return mcast_negotiated ? LaneKind::kMcast : LaneKind::kTcp;
  }
};

/// Builds the lane for one activated in-process link.
std::shared_ptr<TransportLane> MakeIntraLane(
    std::shared_ptr<IntraLinkBase> link);

/// A McastLane that leaves the tier (subscriber LEAVE frame) calls this
/// with itself so its publication can move it from the group cohort into
/// the per-publish fan-out, where it delivers plain TCP frames from then
/// on.  Invoked on the lane's loop thread, before the ring replay, so no
/// publish can fall between the group and the fan-out.
using McastFallbackFn = std::function<void(TransportLane*)>;

/// Builds the lane for one established wire link: a ShmLane when the
/// handshake negotiated that tier (taking over the peer slot recorded in
/// `ctx`), a McastLane when it granted the multicast group (sharing the
/// sender recorded in `ctx`; `on_mcast_fallback` reclassifies it on a
/// leave), a TcpLane otherwise.  `max_pins` bounds the shm pin ledger
/// (drop-oldest; evictions count as publisher drops).
std::shared_ptr<TransportLane> MakeWireLane(
    const std::shared_ptr<WireLaneContext>& ctx,
    std::shared_ptr<rsf::net::Link> link, LaneCounters* counters,
    const std::string& topic, size_t max_pins,
    McastFallbackFn on_mcast_fallback);

}  // namespace ros
