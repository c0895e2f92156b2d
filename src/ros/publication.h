// Publisher-side transport for one advertised topic: its listening
// sockets (loopback TCP, plus the same-host AF_UNIX name that shadows the
// TCP port — DESIGN.md §8), the TCPROS handshake policy, and the fan-out across subscriber lanes —
// plus, for typed publishers, the in-process fanout registered by
// co-located subscriptions (intra_process.h).
//
// Publication is pure policy over the TransportLane seam (DESIGN.md §13):
// the listener and every wire link live on ONE EventLoop of the shared
// reactor pool; each established subscriber — in-process, plain TCP, or
// shm-negotiated — is one TransportLane in a single array, and Publish is
// exactly: finalize one PublishContext (wire frame + shm descriptor, each
// encoded once for the whole fan-out), then `lane->Offer(ctx, &tally)`
// over an immutable lane array.  No tier branches, no per-link maps, no
// per-publish negotiation reads — adding a transport tier means adding a
// lane class, not editing this file.  Total transport threads stay
// O(cores) regardless of subscriber count (DESIGN.md §8).
//
// Publication is untyped: wire lanes move SerializedMessage units, and the
// in-process fanout moves a borrowed pointer to the publisher's typed
// shared_ptr<const M>.  The typed Publisher handle (node_handle.h)
// serializes / clones / borrows messages into the PublishContext before
// handing it here.  Every lane feeds the same enqueued/dropped counters,
// so SentCount() means "deliveries that reached a live subscriber"
// regardless of tier.
//
// Threading (DESIGN.md §13.2): Publish may run on many threads at once.
// Each takes links_mutex_ only to grab a reference on the immutable lane
// array, then offers outside the lock, so an inline callback may publish,
// subscribe or unsubscribe; a membership change shows from the next
// publish on.  Outcomes fold into the counters after the loop: Stats()
// read inside an inline callback misses the publish in progress.
//
// Who sends (DESIGN.md §8): when the array holds exactly one wire lane
// and no mcast cohort, the publishing thread writes that lane's frame to
// the socket itself if the link is idle.  Every other case — more wire
// lanes, a cohort, a backlog or short write, the uring backend — queues
// the frames and kicks the loop once; the loop thread sends them.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/socket.h"
#include "ros/intra_process.h"
#include "ros/master.h"
#include "ros/serialized_message.h"
#include "ros/transport_lane.h"

namespace ros {

/// Publisher-side delivery counters.  "Sent" only counts frames that were
/// actually handed to (or still queued for) a live link: a frame evicted by
/// the drop-oldest policy, stranded behind a broken connection, or whose
/// shm pin was evicted from a stalled subscriber's ledger counts as
/// dropped, never as sent.  Every lane kind flows through the same
/// enqueued/dropped pair, so the counters describe the topic, not one
/// transport.
struct PublicationStats {
  uint64_t enqueued = 0;          // delivery attempts, wire frames + intra
  uint64_t dropped = 0;           // evicted, stranded, or dead-link attempts
  uint64_t intra_delivered = 0;   // in-process deliveries (all tiers)
  uint64_t intra_zero_copy = 0;   // ... of which aliased the publisher's message
  uint64_t intra_whole_copy = 0;  // ... of which handed out a clone
  uint64_t shm_descriptors = 0;   // wire deliveries sent as shm descriptors
  uint64_t shm_inline = 0;        // wire deliveries on negotiated links that
                                  // went inline (fallback / below threshold)
  size_t tcp_links = 0;           // live (established) TCPROS subscriber
                                  // links, either socket family
  size_t unix_links = 0;          // ... of which ride a same-host AF_UNIX
                                  // socket (the rest: TCP)
  size_t ring_links = 0;          // ... of which stream their frames through
                                  // a shared-memory ring (net/stream_ring.h)
  size_t shm_links = 0;           // ... of which negotiated the shm tier
  size_t mcast_links = 0;         // ... of which joined the multicast group
  size_t intra_links = 0;         // live in-process subscriber links
};

class Publication : public std::enable_shared_from_this<Publication> {
 public:
  using LaneArray = std::vector<std::shared_ptr<TransportLane>>;

  /// Binds a listener on an ephemeral loopback port, then the AF_UNIX
  /// name `@rsf.tcpros.<port>` beside it, and starts accepting on both.  A
  /// name that cannot be bound (already taken) leaves the publication on
  /// TCP alone, logged once, and Endpoint() says so.  `intra_capable`
  /// publishers (typed ones, i.e. NodeHandle::advertise) also register
  /// with the in-process registry so co-located subscribers can link
  /// directly instead of dialing the port.
  static rsf::Result<std::shared_ptr<Publication>> Create(
      const std::string& topic, const std::string& datatype,
      const std::string& md5sum, const std::string& callerid,
      size_t queue_size, bool intra_capable = false);

  ~Publication();
  Publication(const Publication&) = delete;
  Publication& operator=(const Publication&) = delete;

  /// Fans one publish across every established lane.  Finalizes the
  /// context's wire frame and (when a shm lane is live) its descriptor
  /// frame EXACTLY ONCE, then offers the shared context to each lane —
  /// never a per-lane encode (shim::frame_builds /
  /// shim::descriptor_builds carry the proof).
  void Publish(PublishContext ctx);

  /// Untyped wire publish (bag replay, wire-level tests): fans the frame
  /// out to every wire lane; in-process lanes skip it.
  void Publish(SerializedMessage message);

  /// In-process handshake: validates the subscriber's negotiated checksum
  /// against this topic's and, on success, registers the lane as PENDING —
  /// the same contract as the TCPROS header exchange, without the sockets.
  /// The link receives nothing until ActivateIntraLink, mirroring the TCP
  /// pending→established split: the subscriber finishes its own
  /// bookkeeping first, so a publish racing the connect can't deliver
  /// into a half-registered link.
  rsf::Status AddIntraLink(std::shared_ptr<IntraLinkBase> link);

  /// Moves a pending in-process lane into the live fanout (called by the
  /// subscriber once the link is filed on its side).  A lane no longer
  /// pending — culled by Shutdown or RemoveIntraLink in between — stays
  /// out: late activation never resurrects it.
  void ActivateIntraLink(const IntraLinkBase* link);

  /// Unhooks one in-process lane (subscriber shutdown).  Lanes whose
  /// subscriber merely vanished are also culled lazily on publish.
  void RemoveIntraLink(const IntraLinkBase* link);

  /// True if any in-process lanes are live (publish should clone or
  /// borrow the message for them).  Lock-free.
  [[nodiscard]] bool HasIntraLinks() const noexcept {
    return intra_lane_count_.load(std::memory_order_acquire) > 0;
  }

  /// True if any wire lanes are established (publish should serialize).
  /// Lock-free.
  [[nodiscard]] bool HasTcpLinks() const noexcept {
    return wire_lane_count_.load(std::memory_order_acquire) > 0;
  }

  /// Number of live subscriber lanes, every kind.
  [[nodiscard]] size_t NumSubscribers() const;

  /// Delivery attempts that reached (or are still queued for) a live
  /// subscriber, across every lane kind.
  [[nodiscard]] uint64_t SentCount() const noexcept {
    const uint64_t enqueued =
        counters_.enqueued.load(std::memory_order_relaxed);
    const uint64_t dropped = counters_.dropped.load(std::memory_order_relaxed);
    return enqueued >= dropped ? enqueued - dropped : 0;
  }

  /// Delivery counters snapshot.
  [[nodiscard]] PublicationStats Stats() const;

  [[nodiscard]] uint16_t port() const noexcept { return port_; }
  /// What to register with the master: the loopback port, the callerid,
  /// and this process as the AF_UNIX name's owner — or kNoLocalName when
  /// the name is not held, so subscribers go straight to TCP.
  [[nodiscard]] TopicEndpoint Endpoint() const;
  [[nodiscard]] const std::string& topic() const noexcept { return topic_; }
  [[nodiscard]] const std::string& datatype() const noexcept {
    return datatype_;
  }
  [[nodiscard]] const std::string& md5sum() const noexcept { return md5sum_; }

  /// Stops accepting and closes all lanes (RunSync: once this returns no
  /// loop callback touches this object), then releases the AF_UNIX name
  /// before the TCP port — a later owner of the port never finds a stale
  /// name.  Idempotent.
  void Shutdown();

 private:
  Publication(const std::string& topic, const std::string& datatype,
              const std::string& md5sum, const std::string& callerid,
              size_t queue_size, rsf::net::TcpListener listener);

  /// A mid-handshake wire link and the context its lane will be built
  /// from.  Moves into lanes_ at establishment.
  struct PendingWire {
    std::shared_ptr<rsf::net::Link> link;
    std::shared_ptr<WireLaneContext> ctx;
  };

  /// Registers both listeners with the event loop (called once by Create).
  void Start();

  /// Validates a request header, builds the reply frame, returns whether
  /// the subscriber is accepted.  The Link handshake callback.  Tier
  /// negotiation is LanePolicy::GrantWireTier over the parsed header; a
  /// grant records the acquired peer slot in `ctx` (loop thread) for the
  /// lane built at establishment.
  bool EvaluateHandshake(const uint8_t* request, uint32_t length,
                         std::vector<uint8_t>* reply_frame,
                         rsf::net::Link::RingHandshake* ring,
                         WireLaneContext* ctx);

  /// Lazily creates (and caches) the topic's multicast group sender.
  /// Returns nullptr when the loopback probe or socket setup failed — the
  /// failure is remembered, so the tier degrades to TCP exactly once per
  /// publication instead of re-probing every handshake.  Loop-thread-only.
  std::shared_ptr<McastGroupSender> EnsureMcastSender();

  /// The immutable publish view of lanes_ (copy-on-write).
  struct LaneView {
    LaneArray lanes;
    /// Exactly one wire lane and no mcast cohort: the publish thread may
    /// send that lane's frame itself (PublishContext::write_through).
    bool write_through = false;
  };

  /// Offers a finalized context to the current lane view, culling dead
  /// in-process lanes, stages ONE group burst for the whole mcast cohort
  /// (O(1) on the publish thread regardless of cohort size), folds the
  /// publish's tally into counters_, then kicks the loop once if a wire
  /// lane left frames queued or a burst was staged.
  void OfferToLanes(PublishContext& ctx);

  /// Rebuilds lane_view_ from lanes_ and the cohort.  Under links_mutex_.
  void RebuildLaneView();

  /// Loop-thread liveness sweep over the mcast cohort after a flush kick:
  /// culls (and closes) lanes whose subscriber provably stopped acking.
  void SweepMcastLanes();

  /// A McastLane left the tier (subscriber LEAVE): move it from the
  /// cohort into the per-publish fan-out so it gets plain TCP frames.
  /// Runs on the lane's loop thread.
  void OnMcastFallback(TransportLane* lane);

  // Loop-thread-only.  One accept handler for both listeners; an AF_UNIX
  // accept also records the peer's kernel-reported pid for the handshake.
  void OnAcceptReady(rsf::net::TcpListener& listener);
  void OnLinkEstablished(const std::shared_ptr<rsf::net::Link>& link,
                         const std::shared_ptr<WireLaneContext>& ctx);
  void OnLinkClosed(const std::shared_ptr<rsf::net::Link>& link,
                    const std::shared_ptr<WireLaneContext>& ctx);

  const std::string topic_;
  const std::string datatype_;
  const std::string md5sum_;
  const std::string callerid_;
  const size_t queue_size_;
  /// Shm pin-ledger bound per lane: generous enough that a subscriber
  /// acking every message never hits it; a stalled one loses its oldest
  /// pins (counted as drops).
  const size_t max_pins_;

  rsf::net::TcpListener listener_;
  uint16_t port_ = 0;
  bool intra_registered_ = false;  // written once in Create, before Start
  std::atomic<bool> shutdown_{false};
  LaneCounters counters_;  // per-publish tallies fold in here
  std::atomic<uint64_t> shm_seq_{0};  // publish sequence for the pin ledger

  // Lock-free lane census for the publish fast path (HasIntraLinks /
  // HasTcpLinks decide what the typed Publisher builds) and for skipping
  // the descriptor encode when no shm lane is live.
  std::atomic<size_t> intra_lane_count_{0};
  std::atomic<size_t> wire_lane_count_{0};
  std::atomic<size_t> shm_lane_count_{0};
  std::atomic<size_t> mcast_lane_count_{0};

  // Mcast-tier state, loop-thread confined (EvaluateHandshake and
  // OnLinkClosed both run there).  The group sender is created lazily on
  // the first grant-eligible handshake — after a one-time loopback
  // multicast probe — and shared by every McastLane of this topic.
  // `mcast_eligible_` counts live mcast-requesting subscribers; the tier
  // engages once it reaches RSF_MCAST_MIN_SUBS.  (An evicted dead
  // subscriber keeps its eligibility until its socket actually closes —
  // a conservative drift that can only keep the tier engaged, never
  // mis-engage it.)
  size_t mcast_eligible_ = 0;
  bool mcast_sender_failed_ = false;
  /// Created/reset on the loop thread; publish threads read it under
  /// links_mutex_ (they stage the cohort's burst through it).
  std::shared_ptr<McastGroupSender> mcast_sender_;

  // The loop carrying this publication's listener and every wire link.
  rsf::net::EventLoop* loop_ = nullptr;
  std::atomic<bool> kick_pending_{false};  // coalesces Publish() wake-ups

  mutable std::mutex links_mutex_;
  // Mid-handshake wire links, not-yet-activated in-process lanes, and the
  // live fanout (every lane kind).  Wire links move from pending_wire_ to
  // lanes_ in OnLinkEstablished; intra lanes move from pending_intra_ in
  // ActivateIntraLink.
  std::vector<PendingWire> pending_wire_;
  std::vector<std::shared_ptr<TransportLane>> pending_intra_;
  LaneArray lanes_;
  // Immutable publish view of lanes_ (copy-on-write): every lanes_ or
  // cohort change resets it and the next publish rebuilds it — lazily, so
  // N joins cost one O(N) copy, not O(N²).
  std::shared_ptr<const LaneView> lane_view_;
  // The mcast cohort, OUTSIDE the per-publish fan-out: Publish stages one
  // burst for all of them (and bulk-counts enqueued), so publish-call cost
  // is independent of how many subscribers share the group.  A lane moves
  // back into lanes_ when its subscriber leaves the tier (OnMcastFallback)
  // and is culled by SweepMcastLanes when it stops acking.
  std::vector<std::shared_ptr<TransportLane>> mcast_lanes_;

  // Flush-kick scratch, reused across kicks.  Loop-confined.
  LaneArray kick_scratch_;

  // The same-host AF_UNIX listener (invalid when its name was taken).
  // Last on purpose: touched only at accept and shutdown, it stays off the
  // cache lines the publish path reads.
  rsf::net::TcpListener local_listener_;
};

}  // namespace ros
