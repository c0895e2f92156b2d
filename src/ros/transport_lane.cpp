#include "ros/transport_lane.h"

#include <deque>
#include <mutex>
#include <utility>

#include "common/log.h"
#include "net/framing.h"
#include "ros/mcast_transport.h"
#include "ros/message_traits.h"
#include "ros/shm_transport.h"
#include "sfm/shm_pool.h"

namespace ros {

namespace {

/// In-process delivery: a typed pointer hand-off into the subscriber's
/// queue.  No wire, no frames — Offer ignores untyped contexts (bag
/// replay publishes have no intra handle) and reports a dead subscriber
/// by returning false, which culls the lane.
class IntraLane final : public TransportLane {
 public:
  explicit IntraLane(std::shared_ptr<IntraLinkBase> link)
      : link_(std::move(link)) {}

  bool Offer(const PublishContext& ctx, LaneTally* tally) override {
    if (!ctx.has_intra()) return true;
    // Same accounting as a wire frame: the attempt is enqueued; reaching a
    // dead link is a drop.  SentCount() then spans every tier.
    ++tally->enqueued;
    if (!link_->Deliver(ctx.intra, ctx.intra_tier)) {
      ++tally->dropped;
      return false;
    }
    ++tally->intra_delivered;
    return true;
  }

  void OnControlFrame(uint32_t, const uint8_t*) override {}
  void Close() override {}

  [[nodiscard]] LaneDescription Describe() const override {
    return {LaneKind::kIntra, link_->alive()};
  }
  [[nodiscard]] const IntraLinkBase* intra_link() const noexcept override {
    return link_.get();
  }

 private:
  const std::shared_ptr<IntraLinkBase> link_;
};

/// Hands one publish's frame to a wire lane's link: written through from
/// the publishing thread when the fan-out allows it (DESIGN.md §8), else
/// queued for the loop kick.  Returns true when a frame was dropped.
bool SendOrQueue(rsf::net::Link& link, const rsf::net::OutFrame& frame,
                 const PublishContext& ctx, LaneTally* tally) {
  if (!ctx.write_through) {
    tally->queued = true;
    return link.EnqueueFrame(frame);
  }
  const rsf::net::Link::WriteResult result = link.WriteThrough(frame);
  tally->queued |= result.queued;
  return result.dropped;
}

/// Plain TCP delivery: the pre-built wire frame goes onto the link's
/// drop-oldest queue (one shared_ptr copy, never a payload copy).
class TcpLane final : public TransportLane {
 public:
  TcpLane(std::shared_ptr<rsf::net::Link> link, LaneCounters* counters)
      : link_(std::move(link)), counters_(counters) {}

  bool Offer(const PublishContext& ctx, LaneTally* tally) override {
    if (!ctx.has_wire()) return true;
    ++tally->enqueued;
    if (SendOrQueue(*link_, ctx.wire, ctx, tally)) ++tally->dropped;
    return true;
  }

  void OnControlFrame(uint32_t, const uint8_t*) override {
    RSF_WARN("unexpected control frame on a plain TCP lane; ignoring");
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    link_->CloseNow();
    // Frames still queued behind the closed connection are lost.
    counters_->dropped.fetch_add(link_->stats().frames_stranded,
                                 std::memory_order_relaxed);
  }

  void Flush() override { link_->FlushOnLoop(); }

  [[nodiscard]] LaneDescription Describe() const override {
    return {LaneKind::kTcp, true, link_->local()};
  }

 private:
  const std::shared_ptr<rsf::net::Link> link_;
  LaneCounters* const counters_;
  bool closed_ = false;  // loop-confined
};

/// Shm-tier delivery: the pre-encoded 48-byte descriptor goes out instead
/// of the payload, whose holder is PINNED in this lane's ledger until the
/// subscriber's cumulative ack covers its seq (shm_transport.h lifetime
/// rules).  Ledger overflow drops the oldest pin — a real publisher-side
/// loss (the stale descriptor fails the generation fence downstream), so
/// it counts in `dropped`.  A "disable" control frame retransmits every
/// unacked pin inline and pins the lane to inline frames for good.
class ShmLane final : public TransportLane {
 public:
  ShmLane(std::shared_ptr<rsf::net::Link> link, LaneCounters* counters,
          std::string topic, size_t max_pins, int slot, pid_t peer_pid)
      : link_(std::move(link)),
        counters_(counters),
        topic_(std::move(topic)),
        max_pins_(max_pins),
        slot_(slot),
        peer_pid_(peer_pid) {}

  bool Offer(const PublishContext& ctx, LaneTally* tally) override {
    if (!ctx.has_wire()) return true;
    ++tally->enqueued;

    bool via_descriptor = false;
    if (ctx.descriptor.valid()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!inline_only_ && !closed_) {
        ledger_.push_back({ctx.seq, ctx.payload});
        // Pin bound: generous enough that a subscriber acking every
        // message never hits it; a stalled one loses its oldest pins
        // (drop-oldest — the generation fence turns their stale
        // descriptors into clean drops, counted here as real losses).
        while (ledger_.size() > max_pins_) {
          ledger_.pop_front();
          ++tally->dropped;
          shim::shm_pin_evictions.fetch_add(1, std::memory_order_relaxed);
        }
        via_descriptor = true;
      }
    }

    if (via_descriptor) {
      if (SendOrQueue(*link_, ctx.descriptor, ctx, tally)) {
        ++tally->dropped;
      } else {
        ++tally->shm_descriptors;
        shim::shm_zero_copy_deliveries.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      return true;
    }
    // Inline fallback on a negotiated lane: heap-backed payload, tier
    // below threshold, or the subscriber left the tier.
    if (SendOrQueue(*link_, ctx.wire, ctx, tally)) {
      ++tally->dropped;
    } else {
      ++tally->shm_inline;
      shim::shm_fallback_deliveries.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void OnControlFrame(uint32_t raw, const uint8_t* data) override {
    ShmControlKind kind;
    uint64_t seq = 0;
    if (!DecodeShmControl(data, rsf::net::FrameLength(raw), &kind, &seq)) {
      RSF_WARN("malformed shm control frame on %s; ignoring", topic_.c_str());
      return;
    }
    std::vector<SerializedMessage> retransmit;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (kind == ShmControlKind::kAck) {
        // Cumulative: every pin at or below the acked seq is consumed.
        while (!ledger_.empty() && ledger_.front().seq <= seq) {
          ledger_.pop_front();
        }
        return;
      }
      // Disable: the subscriber's side of the tier broke (attach failure,
      // out-of-range descriptor).  Everything unacked goes out inline, in
      // order, and the lane stays inline for good.
      inline_only_ = true;
      retransmit.reserve(ledger_.size());
      for (auto& pinned : ledger_) {
        retransmit.push_back(std::move(pinned.message));
      }
      ledger_.clear();
    }
    RSF_WARN("subscriber on %s left the shm tier; retransmitting %zu pinned "
             "messages inline",
             topic_.c_str(), retransmit.size());
    for (const auto& message : retransmit) {
      // Not re-counted as enqueued (the descriptor delivery already was);
      // an eviction here is a real loss, though.
      if (link_->EnqueueFrame(message.data,
                              static_cast<uint32_t>(message.size))) {
        counters_->dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
    link_->FlushOnLoop();  // control frames arrive on the loop thread
  }

  void Close() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
      // Dropping the ledger releases the pinned payload holders; blocks
      // the (possibly dead) peer never acked retire, and either its
      // in-mapping RefTokens drain them or the pid liveness sweep reclaims
      // them.
      ledger_.clear();
    }
    sfm::shm::ReleasePeerSlot(slot_, peer_pid_);
    link_->CloseNow();
    counters_->dropped.fetch_add(link_->stats().frames_stranded,
                                 std::memory_order_relaxed);
  }

  void Flush() override { link_->FlushOnLoop(); }

  [[nodiscard]] LaneDescription Describe() const override {
    return {LaneKind::kShm, true, link_->local()};
  }

 private:
  struct Pinned {
    uint64_t seq = 0;
    SerializedMessage message;  // the holder that keeps the block live
  };

  const std::shared_ptr<rsf::net::Link> link_;
  LaneCounters* const counters_;
  const std::string topic_;
  const size_t max_pins_;
  const int slot_;       // peer refcount column in every segment
  const pid_t peer_pid_;  // liveness-sweep identity for the slot

  std::mutex mutex_;
  bool inline_only_ = false;
  bool closed_ = false;
  std::deque<Pinned> ledger_;
};

/// Mcast-tier delivery: every McastLane of a publication shares one
/// McastGroupSender, and the cohort lives OUTSIDE the per-publish fan-out
/// — Publication stages the burst once per publish (O(1) on the publish
/// thread) and bulk-counts the cohort, so publish cost is independent of
/// how many subscribers share the group.  The lane's TCP link carries only
/// control traffic: inbound NACK/ack/leave frames, outbound unicast
/// repairs.  A subscriber that stops acking is evicted by the loop-thread
/// sweep after each flush kick (a dead receiver must not pin the group's
/// pace), and one that leaves the tier is handed back to the per-publish
/// fan-out (on_fallback) with the unacked ring replayed inline and plain
/// TCP frames from then on.
class McastLane final : public TransportLane {
 public:
  McastLane(std::shared_ptr<rsf::net::Link> link, LaneCounters* counters,
            std::string topic, std::shared_ptr<McastGroupSender> sender,
            uint64_t join_seq, McastFallbackFn on_fallback)
      : link_(std::move(link)),
        counters_(counters),
        topic_(std::move(topic)),
        sender_(std::move(sender)),
        join_seq_(join_seq),
        eviction_lag_(McastEvictionLag()),
        on_fallback_(std::move(on_fallback)),
        last_acked_(join_seq) {}

  bool Offer(const PublishContext& ctx, LaneTally* tally) override {
    if (!ctx.has_wire()) return true;
    // Only reachable once the lane left the group (on_fallback moved it
    // into the per-publish fan-out); while grouped, the cohort's staged
    // burst covers this publish and its accounting.
    if (!tcp_fallback_.load(std::memory_order_acquire)) return true;
    ++tally->enqueued;
    if (SendOrQueue(*link_, ctx.wire, ctx, tally)) ++tally->dropped;
    return true;
  }

  bool SweepAlive() override {
    if (tcp_fallback_.load(std::memory_order_acquire)) return true;
    // Dead-subscriber eviction: a receiver whose cumulative ack stopped
    // moving for a whole lag window (far past its own ack cadence) is
    // gone — cull the lane so its gap never grows unbounded and the NACK
    // service stays bounded by the ring.  The unacked window is what it
    // provably never confirmed: count it as this publisher's drops.
    const uint64_t floor =
        std::max(last_acked_.load(std::memory_order_acquire), join_seq_);
    const uint64_t last = sender_->LastSeq();
    if (last > floor + eviction_lag_) {
      counters_->dropped.fetch_add(last - floor, std::memory_order_relaxed);
      RSF_WARN("evicting unresponsive mcast subscriber on %s (%llu unacked)",
               topic_.c_str(),
               static_cast<unsigned long long>(last - floor));
      return false;
    }
    return true;
  }

  void OnControlFrame(uint32_t raw, const uint8_t* data) override {
    McastControlKind kind;
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (rsf::net::FrameTag(raw) != rsf::net::kFrameTagMcastControl ||
        !DecodeMcastControl(data, rsf::net::FrameLength(raw), &kind, &lo,
                            &hi)) {
      RSF_WARN("malformed mcast control frame on %s; ignoring",
               topic_.c_str());
      return;
    }
    switch (kind) {
      case McastControlKind::kAck: {
        // Cumulative; acks can reorder behind repairs, so only advance.
        uint64_t prev = last_acked_.load(std::memory_order_relaxed);
        while (prev < lo && !last_acked_.compare_exchange_weak(
                                prev, lo, std::memory_order_release,
                                std::memory_order_relaxed)) {
        }
        return;
      }
      case McastControlKind::kNack:
        ServeNack(lo, hi);
        return;
      case McastControlKind::kLeave:
        LeaveTier(lo);
        return;
    }
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    link_->CloseNow();
    counters_->dropped.fetch_add(link_->stats().frames_stranded,
                                 std::memory_order_relaxed);
  }

  void Flush() override { link_->FlushOnLoop(); }

  [[nodiscard]] LaneDescription Describe() const override {
    // A fallen-back lane is an ordinary TCP lane to stats and culls: its
    // cohort membership (and mcast census entry) ended at the leave.
    return {tcp_fallback_.load(std::memory_order_acquire) ? LaneKind::kTcp
                                                          : LaneKind::kMcast,
            true, link_->local()};
  }

 private:
  void ServeNack(uint64_t lo, uint64_t hi) {
    shim::mcast_nacks.fetch_add(1, std::memory_order_relaxed);
    if (hi < lo) return;
    // Defend the loop against a hostile/corrupt span: nothing older than
    // the ring can be repaired anyway, so clamp to the widest honest ask.
    if (hi - lo + 1 > kMcastMaxNackSpan) lo = hi - kMcastMaxNackSpan + 1;
    for (uint64_t seq = lo; seq <= hi; ++seq) {
      std::shared_ptr<const uint8_t[]> payload;
      uint32_t size = 0;
      if (sender_->LookupFrame(seq, &payload, &size)) {
        link_->EnqueueFrame(
            EncodeMcastRepairFrame(seq, payload.get(), size),
            rsf::net::TaggedLength(rsf::net::kFrameTagMcastRepair,
                                   kMcastRepairHeaderSize + size));
        shim::mcast_repairs.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Fell off the ring: tell the subscriber to stop waiting.  That
        // message is a real per-subscriber loss — the publisher's drop.
        link_->EnqueueFrame(EncodeMcastRepairFrame(seq, nullptr, 0),
                            rsf::net::TaggedLength(
                                rsf::net::kFrameTagMcastRepair,
                                kMcastRepairHeaderSize));
        counters_->dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
    link_->FlushOnLoop();
  }

  void LeaveTier(uint64_t contig) {
    if (tcp_fallback_.exchange(true, std::memory_order_acq_rel)) return;
    // Rejoin the per-publish fan-out BEFORE replaying the ring: a publish
    // after this point offers to us directly, one before it is still in
    // the ring snapshot below — no message can fall between the two.
    if (on_fallback_ != nullptr) on_fallback_(this);
    uint64_t missing = 0;
    const auto frames = sender_->CollectInlineSince(contig, &missing);
    RSF_WARN("subscriber on %s left the mcast tier; replaying %zu ring "
             "frames inline (%llu beyond the ring)",
             topic_.c_str(), frames.size(),
             static_cast<unsigned long long>(missing));
    // Beyond-ring messages are unrecoverable for this subscriber.
    counters_->dropped.fetch_add(missing, std::memory_order_relaxed);
    for (const auto& frame : frames) {
      // Not re-counted as enqueued (the burst delivery already was); an
      // eviction here is a real loss, though — shm-disable parity.
      if (link_->EnqueueFrame(frame)) {
        counters_->dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Eviction no longer applies: the lane is an ordinary TCP lane now.
    last_acked_.store(sender_->LastSeq(), std::memory_order_release);
    link_->FlushOnLoop();
  }

  const std::shared_ptr<rsf::net::Link> link_;
  LaneCounters* const counters_;
  const std::string topic_;
  const std::shared_ptr<McastGroupSender> sender_;
  const uint64_t join_seq_;
  const uint64_t eviction_lag_;
  const McastFallbackFn on_fallback_;
  std::atomic<uint64_t> last_acked_;
  std::atomic<bool> tcp_fallback_{false};
  bool closed_ = false;  // loop-confined
};

}  // namespace

LanePolicy::Plan LanePolicy::PlanSubscriber(const SubscriberSide& in) noexcept {
  // In-process beats every wire: co-located endpoints hand pointers over
  // unless the subscription opted out or a shaped link pins it to TCP.
  // (An intra rejection — checksum mismatch — never falls back to TCP:
  // the TCPROS handshake would reject it for the same reason.)
  if (in.co_located && in.allow_intra && !in.shaped) return Plan::kIntra;
  // The shm tier is only worth asking for when it could actually work:
  // SFM wire format (position-independent arenas), a same-host publisher,
  // no link shaping, and the tier switched on here.
  if (in.serialization_free && in.allow_shm && !in.shaped && in.shm_enabled &&
      in.loopback) {
    return Plan::kTcpRequestShm;
  }
  // The mcast tier needs a same-host (loopback-multicast) publisher and an
  // unshaped link, but NOT the SFM wire format — a chunked burst carries
  // any serialized payload.  Asking costs one header field; the publisher
  // only grants once the topic's fan-out crosses the threshold.
  if (in.allow_mcast && in.mcast_enabled && !in.shaped && in.loopback) {
    return Plan::kTcpRequestMcast;
  }
  return Plan::kTcp;
}

LanePolicy::Grant LanePolicy::GrantWireTier(const PublisherSide& in) noexcept {
  if (!in.shm_requested || !in.peer_pid_known) return Grant::kTcpNotRequested;
  if (!in.shm_enabled) return Grant::kTcpTierDisabled;
  if (in.pid_mismatch) return Grant::kTcpPidMismatch;
  if (!in.slot_acquired) return Grant::kTcpNoSlot;
  return Grant::kShm;
}

LanePolicy::McastGrant LanePolicy::GrantMcastTier(
    const McastPublisherSide& in) noexcept {
  if (!in.mcast_requested) return McastGrant::kTcpNotRequested;
  if (!in.mcast_enabled) return McastGrant::kTcpTierDisabled;
  if (in.shm_negotiated) return McastGrant::kTcpShmWins;
  if (!in.above_threshold) return McastGrant::kTcpBelowThreshold;
  if (!in.group_ready) return McastGrant::kTcpNoGroup;
  return McastGrant::kMcast;
}

std::shared_ptr<TransportLane> MakeIntraLane(
    std::shared_ptr<IntraLinkBase> link) {
  return std::make_shared<IntraLane>(std::move(link));
}

std::shared_ptr<TransportLane> MakeWireLane(
    const std::shared_ptr<WireLaneContext>& ctx,
    std::shared_ptr<rsf::net::Link> link, LaneCounters* counters,
    const std::string& topic, size_t max_pins,
    McastFallbackFn on_mcast_fallback) {
  switch (LanePolicy::WireLaneKind(ctx->shm_negotiated,
                                   ctx->mcast_negotiated)) {
    case LaneKind::kShm:
      return std::make_shared<ShmLane>(std::move(link), counters, topic,
                                       max_pins, ctx->shm_slot, ctx->shm_pid);
    case LaneKind::kMcast:
      return std::make_shared<McastLane>(std::move(link), counters, topic,
                                         ctx->mcast_sender,
                                         ctx->mcast_join_seq,
                                         std::move(on_mcast_fallback));
    default:
      return std::make_shared<TcpLane>(std::move(link), counters);
  }
}

}  // namespace ros
