// Subscriber-side transport for one topic: for every publisher endpoint the
// master reports, the subscription negotiates a transport at connect time —
// a direct in-process link when the publisher's Publication lives in this
// process (intra_process.h), loopback TCPROS otherwise.
//
// The TCP path is policy over `rsf::net::Link`: OnPublisher starts a
// NONBLOCKING dial (the master-notify thread never waits on connect(2) or
// the handshake — both complete on the reactor loop), and the established
// link's frame allocator is where the serialization-free receive happens:
// Serializer<M> decides whether payload bytes land in a per-link scratch
// buffer (regular messages, de-serialized afterwards) or directly in a
// registered message arena (SFM messages, re-interpreted in place).  The
// in-process path skips the wire entirely: the publisher hands over a
// shared_ptr<const M> — a clone on the whole-copy tier, an alias of its
// own message on the zero-copy tier — and delivery is a queue push.
//
// A SubscribeOptions::link configuration routes delivery through a
// SimLink shaper — the stand-in for the paper's two-machine 10 GbE testbed
// (§5.2; see DESIGN.md substitutions) — and therefore forces TCP.  Shaping
// is paced on the loop: the link's reads pause and an EventLoop::RunAfter
// timer delivers the frame when its wire time has elapsed, so a shaped
// subscription costs no dedicated thread and unread bytes exert real TCP
// backpressure on the publisher, exactly like the blocking reader it
// replaced.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/concurrent_queue.h"
#include "common/endian.h"
#include "common/log.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/sim_link.h"
#include "net/socket.h"
#include "net/udp.h"
#include "ros/callback_queue.h"
#include "ros/connection_header.h"
#include "ros/intra_process.h"
#include "ros/master.h"
#include "ros/mcast_transport.h"
#include "ros/message_traits.h"
#include "ros/publication.h"
#include "ros/shm_transport.h"
#include "ros/transport_lane.h"

namespace ros {

struct SubscribeOptions {
  /// Incoming message queue depth; overflow drops the oldest (roscpp).
  size_t queue_size = 10;
  /// Simulated link applied to this subscription's deliveries.  A shaped
  /// link models a remote machine, so it forces the TCP transport.
  rsf::net::LinkConfig link{};
  /// Run the callback on the receive thread instead of the callback queue.
  bool inline_dispatch = false;
  /// Allow the in-process transport when the publisher is co-located.
  /// Disable to force TCPROS (benchmark baselines, wire-level tests).
  bool allow_intra_process = true;
  /// Allow the shared-memory tier for same-host SFM publishers (negotiated
  /// in the handshake; requires RSF_TRANSPORT_SHM=1 on both sides).
  /// Disable to pin this subscription to inline TCP frames.
  bool allow_shm = true;
  /// Allow the UDP-multicast tier for same-host publishers (negotiated in
  /// the handshake; requires RSF_TRANSPORT_MCAST=1 on both sides, and the
  /// publisher only grants it above its fan-out threshold).  Disable to
  /// pin this subscription to inline TCP frames.
  bool allow_mcast = true;
};

/// Type-erased base so NodeHandle / Subscriber handles can own any
/// Subscription<M>.
///
/// Delivery counters: a delivery is counted once, as a wire delivery (tcp,
/// shm or mcast) or in its in-process tier, so
///   ReceivedCount() == wire + IntraZeroCopyCount() + IntraWholeCopyCount()
/// and ShmZeroCopyCount() is the part of the wire count the shm tier
/// carried.
class SubscriptionBase {
 public:
  virtual ~SubscriptionBase() = default;
  virtual void Shutdown() = 0;
  [[nodiscard]] virtual const std::string& topic() const = 0;
  /// Every delivery on every transport: wire + both in-process tiers.
  [[nodiscard]] virtual uint64_t ReceivedCount() const = 0;
  [[nodiscard]] virtual uint64_t DroppedCount() const = 0;
  [[nodiscard]] virtual size_t NumPublishers() const = 0;
  /// In-process deliveries received on the zero-copy tier (aliased message).
  [[nodiscard]] virtual uint64_t IntraZeroCopyCount() const = 0;
  /// In-process deliveries received on the whole-copy tier (cloned message).
  [[nodiscard]] virtual uint64_t IntraWholeCopyCount() const = 0;
  /// Cross-process deliveries received through the shm tier (descriptor
  /// mapped and read in place — zero payload copies).
  [[nodiscard]] virtual uint64_t ShmZeroCopyCount() const = 0;
};

template <Message M>
class Subscription final
    : public SubscriptionBase,
      public std::enable_shared_from_this<Subscription<M>> {
 public:
  using MessagePtr = std::shared_ptr<const M>;
  using Callback = std::function<void(const MessagePtr&)>;

  /// Registers with the master and starts connecting to publishers.
  /// `transport_md5` is the negotiated checksum (the SFM variant is marked,
  /// so a serialization-free publisher can never feed a regular subscriber).
  static rsf::Result<std::shared_ptr<Subscription>> Create(
      const std::string& topic, const std::string& transport_md5,
      const std::string& callerid, const SubscribeOptions& options,
      Callback callback, std::shared_ptr<CallbackQueue> queue) {
    auto subscription = std::shared_ptr<Subscription>(new Subscription(
        topic, transport_md5, callerid, options, std::move(callback),
        std::move(queue)));
    std::weak_ptr<Subscription> weak = subscription;
    auto id = master().RegisterSubscriber(
        topic, M::DataType(), transport_md5,
        [weak](const TopicEndpoint& endpoint) {
          if (auto self = weak.lock()) self->OnPublisher(endpoint);
        });
    if (!id.ok()) {
      // Nothing owns this subscription through a handle yet: break any
      // in-process link cycle here, as the handle would.
      subscription->Shutdown();
      return id.status();
    }
    subscription->master_id_ = *id;
    return subscription;
  }

  ~Subscription() override { Shutdown(); }

  void Shutdown() override {
    bool expected = false;
    if (!shutdown_.compare_exchange_strong(expected, true)) return;
    master().UnregisterSubscriber(topic_, master_id_);
    pending_.Shutdown();
    std::vector<IntraEntry> intra;
    std::vector<std::shared_ptr<WireLink>> wire;
    {
      std::lock_guard<std::mutex> lock(links_mutex_);
      intra.swap(intra_links_);
      wire.swap(wire_links_);
    }
    // Links tear down ON their loop thread and synchronously: after
    // CloseSync returns, no callback for that link is running or will ever
    // run, which is what makes the destructor safe.  Done outside
    // links_mutex_ — a concurrent RemoveWireLink on the loop thread takes
    // that mutex, and holding it here would deadlock the RunSync
    // handshake.  (When Shutdown itself runs on a loop thread — the last
    // reference died inside a callback — RunSync executes inline.)
    for (const auto& wl : wire) {
      wl->link->CloseSync();
      // CloseSync is an owner-initiated close, so on_closed (and with it
      // RemoveWireLink's teardown) never fires — the mcast fd has its own
      // loop registration and must be torn down explicitly.  RunSync
      // executes inline when already on the loop thread.
      if (wl->mcast.loop != nullptr) {
        wl->mcast.loop->RunSync([this, &wl] { McastTeardown(wl); });
      }
    }
    // Unhook from publications outside links_mutex_: RemoveIntraLink takes
    // the publication's lane lock (a publish holds it only to take its
    // lane array, never while delivering) — still, never nest ours in it.
    // Dropping `intra` then breaks the intra_links_ <-> IntraLink cycle; a
    // publish already in flight keeps its lane, and with it this object,
    // until its fan-out returns.
    for (const auto& [link, publication] : intra) {
      if (auto pub = publication.lock()) pub->RemoveIntraLink(link.get());
    }
  }

  [[nodiscard]] const std::string& topic() const override { return topic_; }
  [[nodiscard]] uint64_t ReceivedCount() const override {
    return received_.load(std::memory_order_relaxed) + IntraZeroCopyCount() +
           IntraWholeCopyCount();
  }
  [[nodiscard]] uint64_t DroppedCount() const override {
    return pending_.DroppedCount();
  }
  [[nodiscard]] uint64_t IntraZeroCopyCount() const override {
    return intra_zero_copy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t IntraWholeCopyCount() const override {
    return intra_whole_copy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t ShmZeroCopyCount() const override {
    return shm_zero_copy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t NumPublishers() const override {
    std::lock_guard<std::mutex> lock(links_mutex_);
    size_t alive = 0;
    for (const auto& wl : wire_links_) {
      if (wl->link->established()) ++alive;
    }
    for (const auto& [link, publication] : intra_links_) {
      if (!publication.expired()) ++alive;
    }
    return alive;
  }

 private:
  /// One in-flight multicast frame's destination: the typed receive arena
  /// its chunks scatter into, plus (regular messages) the owned staging
  /// vector backing it.
  struct McastRxSlot {
    std::unique_ptr<std::vector<uint8_t>> scratch;
    typename Serializer<M>::ReceiveArena arena;
  };

  /// One publisher connection: the Link that owns the socket plus the
  /// loop-confined receive state.  `scratch` is the per-link staging buffer
  /// regular messages reuse across frames (grows to the largest frame seen,
  /// then allocation-free); the SFM variant ignores it and lands payloads
  /// straight in arena blocks.
  struct WireLink {
    /// Set (under links_mutex_) right after Dial returns; the owner-side
    /// handle Shutdown closes.
    std::shared_ptr<rsf::net::Link> link;
    /// Loop-confined copy, set by on_established — the receive path uses
    /// this for pause/resume without touching links_mutex_.
    std::shared_ptr<rsf::net::Link> loop_link;
    /// True once on_closed ran; guards the add-after-close race (a dial
    /// can fail before OnPublisher files the link).  Under links_mutex_.
    bool removed = false;
    std::vector<uint8_t> scratch;
    typename Serializer<M>::ReceiveArena arena;
    /// Shm-tier receive state (loop-confined after the handshake): the
    /// negotiated peer slot, the publisher's segment namespace, and this
    /// link's own mappings.  Mappings are per-link on purpose — two
    /// subscriptions in one process then register adopted arenas at
    /// distinct addresses, so the manager's address-keyed index never
    /// collides.
    ShmSubState shm;
    /// Mcast-tier receive state (loop-confined after the handshake): the
    /// joined group socket, its loop registration, and the reassembly
    /// engine.  `mcast.loop` is set BEFORE the dial (so Shutdown can reach
    /// the loop without racing loop-thread writes).
    McastSubState mcast;
    /// Per-seq in-flight frame destinations the engine's alloc hook draws
    /// from: datagram chunks land straight in the arena (one-copy receive,
    /// same contract as the TCP path).  Multiple messages reassemble
    /// concurrently under loss, hence a map, not a single arena.  The
    /// scratch vector (regular messages) sits behind a unique_ptr so the
    /// buffer address survives map rehashes.
    std::unordered_map<uint64_t, McastRxSlot> mcast_rx;
  };

  /// The subscriber end of one in-process link.  Holds the subscription
  /// strongly: the publication's lane array — and the lane view of any
  /// publish in flight — keeps the subscriber alive across a delivery,
  /// even one whose callback drops the last user handle, so Deliver is a
  /// plain call with no reference counting.  The ownership cycle this
  /// makes (intra_links_ -> IntraLink -> Subscription) is broken by
  /// Shutdown, which the last user handle runs (node_handle.h): it drops
  /// intra_links_ and unhooks the lane from the publication.  A shut-down
  /// subscription refuses deliveries, and the publication culls the lane.
  class IntraLink final : public IntraLinkBase {
   public:
    IntraLink(std::shared_ptr<Subscription> subscription, std::string md5,
              std::string callerid)
        : subscription_(std::move(subscription)),
          md5_(std::move(md5)),
          callerid_(std::move(callerid)) {}

    bool Deliver(const void* message, IntraTier tier) override {
      // The cast back to M is safe: AddIntraLink only accepted this link
      // after matching the negotiated transport checksum.
      return subscription_->DeliverIntra(
          *static_cast<const MessagePtr*>(message), tier);
    }

    [[nodiscard]] bool alive() const noexcept override {
      return !subscription_->shutdown_.load(std::memory_order_acquire);
    }

    [[nodiscard]] const std::string& transport_md5() const noexcept override {
      return md5_;
    }
    [[nodiscard]] const std::string& callerid() const noexcept override {
      return callerid_;
    }

   private:
    const std::shared_ptr<Subscription> subscription_;
    const std::string md5_;
    const std::string callerid_;
  };

  using IntraEntry =
      std::pair<std::shared_ptr<IntraLinkBase>, std::weak_ptr<Publication>>;

  Subscription(const std::string& topic, const std::string& transport_md5,
               const std::string& callerid, const SubscribeOptions& options,
               Callback callback, std::shared_ptr<CallbackQueue> queue)
      : topic_(topic),
        transport_md5_(transport_md5),
        callerid_(callerid),
        options_(options),
        callback_(std::move(callback)),
        queue_(std::move(queue)),
        shaper_(options.link),
        pending_(options.queue_size == 0 ? 1 : options.queue_size,
                 rsf::QueueFullPolicy::kDropOldest) {}

  [[nodiscard]] bool ShapedLink() const noexcept {
    return options_.link.bandwidth_bps > 0 ||
           options_.link.propagation_nanos > 0;
  }

  /// Called on the master's notify thread.  Never blocks: the in-process
  /// negotiation is a registry lookup, and the TCP fallback is a
  /// nonblocking Link::Dial whose connect + handshake complete on the
  /// reactor loop.
  void OnPublisher(const TopicEndpoint& endpoint) {
    if (shutdown_.load(std::memory_order_acquire)) return;

    // Transport negotiation, in one testable table (DESIGN.md §13): the
    // LanePolicy rows decide in-process vs TCP vs TCP-with-shm-request;
    // this function only carries out the plan.
    auto publication = intra_registry().Find(topic_, endpoint.port);
    LanePolicy::SubscriberSide side;
    side.co_located = publication != nullptr;
    side.allow_intra = options_.allow_intra_process;
    side.shaped = ShapedLink();
    side.serialization_free = Serializer<M>::kSerializationFree;
    side.allow_shm = options_.allow_shm;
    side.shm_enabled = sfm::shm::Enabled();
    side.loopback = endpoint.loopback();
    side.local_name = endpoint.local_owner != TopicEndpoint::kNoLocalName;
    side.allow_mcast = options_.allow_mcast;
    side.mcast_enabled = McastEnabled();
    const LanePolicy::Plan plan = LanePolicy::PlanSubscriber(side);

    if (plan == LanePolicy::Plan::kIntra) {
      auto link = std::make_shared<IntraLink>(this->shared_from_this(),
                                              transport_md5_, callerid_);
      const auto status = publication->AddIntraLink(link);
      if (status.ok()) {
        {
          std::lock_guard<std::mutex> lock(links_mutex_);
          if (shutdown_.load(std::memory_order_acquire)) {
            publication->RemoveIntraLink(link.get());
            return;
          }
          intra_links_.emplace_back(link, publication);
        }
        // Filed on our side: go live.  Outside links_mutex_ — the
        // publication takes its own lock and must never nest inside
        // ours.  If our Shutdown raced in between, it already called
        // RemoveIntraLink, and this activation no-ops.
        publication->ActivateIntraLink(link.get());
      } else {
        RSF_WARN("publisher rejected in-process subscription to %s: %s",
                 topic_.c_str(), status.ToString().c_str());
      }
      // Never fall back to TCP for a co-located publication: a rejection
      // here (checksum mismatch) would be rejected by the TCPROS
      // handshake too.
      return;
    }

    auto wl = std::make_shared<WireLink>();
    std::weak_ptr<Subscription> weak = this->weak_from_this();

    const bool want_shm = plan == LanePolicy::Plan::kTcpRequestShm;
    const bool want_mcast = plan == LanePolicy::Plan::kTcpRequestMcast;
    rsf::net::EventLoop* loop = rsf::net::Reactor::Get().NextLoop();
    // Pinned before the dial so Shutdown can always reach the loop that
    // owns this link's mcast socket without racing loop-thread writes.
    if (want_mcast) wl->mcast.loop = loop;

    rsf::net::Link::Callbacks callbacks;
    // Captured by value: the request must be buildable even if the
    // subscription died between dial and connect completion.
    callbacks.make_handshake_request = [topic = topic_,
                                        datatype = std::string(M::DataType()),
                                        md5 = transport_md5_,
                                        callerid = callerid_, want_shm,
                                        want_mcast] {
      auto header = MakeSubscriberHeader(topic, datatype, md5, callerid);
      if (want_shm) AddShmRequestFields(&header, ::getpid());
      if (want_mcast) AddMcastRequestFields(&header);
      return EncodeConnectionHeader(header);
    };
    callbacks.on_handshake_reply = [topic = topic_, wl](const uint8_t* data,
                                                        uint32_t length) {
      auto header = DecodeConnectionHeader(data, length);
      if (!header.ok()) return false;
      if (const auto it = header->find("error"); it != header->end()) {
        RSF_WARN("publisher rejected subscription to %s: %s", topic.c_str(),
                 it->second.c_str());
        return false;
      }
      // Publisher granted the shm tier: remember its namespace and our
      // refcount slot.  Loop-thread write, before any frame can arrive.
      // A malformed grant degrades to plain TCP.
      const ShmGrant grant = ParseShmGrant(*header, sfm::shm::kMaxPeers);
      if (grant.granted) {
        wl->shm.negotiated = true;
        wl->shm.ns = grant.ns;
        wl->shm.slot = grant.slot;
      }
      // Mcast grant: the group to join and the first seq of our stream.
      // The join itself happens at establishment (same loop thread); a
      // malformed grant degrades to plain TCP.
      const McastGrant mcast_grant = ParseMcastGrant(*header);
      if (mcast_grant.granted && wl->mcast.loop != nullptr) {
        wl->mcast.negotiated = true;
        wl->mcast.group = mcast_grant.group;
        wl->mcast.port = mcast_grant.port;
        wl->mcast.base_seq = mcast_grant.first_seq;
      }
      return true;
    };
    callbacks.alloc = [wl](uint32_t raw) -> uint8_t* {
      // One allocator call per frame, routed by the prefix tag: descriptors
      // stage in a small control buffer; data frames go the classic way —
      // regular messages into the link's reused scratch, SFM messages
      // arena-direct.  Unknown tags close the link (null allocation).
      const uint32_t tag = rsf::net::FrameTag(raw);
      const uint32_t length = rsf::net::FrameLength(raw);
      if (tag == rsf::net::kFrameTagShmDescriptor) {
        if (length == 0 || length > kShmMaxControlFrame) return nullptr;
        wl->shm.ctrl_buf.resize(length);
        return wl->shm.ctrl_buf.data();
      }
      if (tag == rsf::net::kFrameTagMcastRepair) {
        // Unicast repair of a lost multicast frame: [u64 seq | frame].
        // Staged, then copied into its arena — the rare lossy path.
        if (length < kMcastRepairHeaderSize) return nullptr;
        wl->mcast.repair_buf.resize(length);
        return wl->mcast.repair_buf.data();
      }
      if (tag != rsf::net::kFrameTagData) return nullptr;
      wl->arena = {};
      wl->arena.scratch = &wl->scratch;
      return wl->arena.Allocate(length);
    };
    callbacks.on_frame = [weak, wl](uint32_t raw) {
      auto self = weak.lock();
      if (self == nullptr) return;
      const uint32_t length = rsf::net::FrameLength(raw);
      const uint32_t tag = rsf::net::FrameTag(raw);
      if (tag == rsf::net::kFrameTagShmDescriptor) {
        self->OnShmDescriptor(wl, length);
      } else if (tag == rsf::net::kFrameTagMcastRepair) {
        self->OnMcastRepair(wl, length);
      } else {
        self->OnWireFrame(wl, length);
      }
    };
    callbacks.on_established =
        [weak, wl](const std::shared_ptr<rsf::net::Link>& link) {
          wl->loop_link = link;
          if (wl->mcast.negotiated) {
            if (auto self = weak.lock()) self->McastJoin(wl);
          }
        };
    callbacks.on_closed = [weak,
                           wl](const std::shared_ptr<rsf::net::Link>&) {
      if (auto self = weak.lock()) self->RemoveWireLink(wl);
    };

    rsf::net::Link::Options link_options;
    link_options.local_first = LanePolicy::DialLocalFirst(side);
    link_options.local_owner = endpoint.local_owner;
    auto link = rsf::net::Link::Dial(endpoint.host, endpoint.port, loop,
                                     link_options, std::move(callbacks));
    {
      std::lock_guard<std::mutex> lock(links_mutex_);
      if (!shutdown_.load(std::memory_order_acquire)) {
        wl->link = link;
        // A dial that already failed ran on_closed before we got here;
        // don't file a dead link.
        if (!wl->removed) wire_links_.push_back(wl);
        return;
      }
    }
    // Shut down while dialing: tear the link back down.
    link->CloseSync();
  }

  /// Loop-thread-only: a descriptor frame arrived on a shm-negotiated
  /// link.  Maps the referenced block (attaching its segment on first use),
  /// adopts it as a received arena — the aliased buffer's control block
  /// holds the cross-process reference — and dispatches the message read
  /// in place.  Consumption is acked so the publisher releases its pin;
  /// any distrustful failure sends "disable" and drops the link back to
  /// inline TCP (the publisher then retransmits everything unacked).
  void OnShmDescriptor(const std::shared_ptr<WireLink>& wl, uint32_t length) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    if constexpr (Serializer<M>::kSerializationFree) {
      sfm::shm::Descriptor descriptor;
      if (!wl->shm.negotiated ||
          !DecodeShmDescriptor(wl->shm.ctrl_buf.data(), length,
                               &descriptor)) {
        ShmLeaveTier(wl, "malformed shm descriptor");
        return;
      }
      if (wl->shm.broken) {
        // Tier already abandoned; in-flight descriptors are superseded by
        // the publisher's inline retransmits.
        return;
      }
      auto buffer = ShmMapDescriptor(wl->shm, descriptor, sizeof(M));
      if (!buffer.ok()) {
        if (buffer.status().code() == rsf::StatusCode::kUnavailable) {
          // Only this message is gone (the publisher evicted its pin and
          // the block recycled): drop-oldest semantics.  Ack it so the
          // ledger advances.
          SendShmControl(wl, ShmControlKind::kAck, descriptor.seq);
        } else {
          ShmLeaveTier(wl, buffer.status().ToString().c_str());
        }
        return;
      }
      const uint8_t* start = ::sfm::gmm().AdoptShared(
          M::DataType(), *std::move(buffer),
          static_cast<size_t>(descriptor.length),
          static_cast<size_t>(descriptor.length));
      received_.fetch_add(1, std::memory_order_relaxed);
      shm_zero_copy_.fetch_add(1, std::memory_order_relaxed);
      Dispatch(::sfm::WrapReceived<M>(start));
      SendShmControl(wl, ShmControlKind::kAck, descriptor.seq);
    } else {
      // A non-SFM subscription never negotiates the tier; a descriptor
      // here is a protocol violation.
      ShmLeaveTier(wl, "shm descriptor on a non-SFM subscription");
    }
  }

  /// Loop-thread-only: abandons the shm tier for this link and tells the
  /// publisher, which retransmits every unacked pin inline.
  void ShmLeaveTier(const std::shared_ptr<WireLink>& wl, const char* why) {
    if (!wl->shm.broken) {
      RSF_WARN("subscription to %s leaving the shm tier: %s", topic_.c_str(),
               why);
      wl->shm.broken = true;
      SendShmControl(wl, ShmControlKind::kDisable, 0);
    }
  }

  /// Loop-thread-only (loop_link is the loop-confined handle).
  void SendShmControl(const std::shared_ptr<WireLink>& wl,
                      ShmControlKind kind, uint64_t seq) {
    if (wl->loop_link == nullptr) return;
    (void)wl->loop_link->EnqueueFrame(
        EncodeShmControlFrame(kind, seq),
        rsf::net::TaggedLength(rsf::net::kFrameTagShmControl,
                               kShmControlSize));
    wl->loop_link->FlushOnLoop();
  }

  // ---- mcast tier (all loop-thread-only after the handshake) ----

  /// Joins the granted group at establishment: receiver socket, loop fd
  /// registration, and the reassembly engine whose hooks close the loop
  /// back into this subscription.  A join failure sends "leave"
  /// immediately — the publisher's lane falls back to per-subscriber TCP.
  void McastJoin(const std::shared_ptr<WireLink>& wl) {
    auto receiver = rsf::net::UdpSocket::CreateMulticastReceiver(
        wl->mcast.group, wl->mcast.port);
    if (!receiver.ok()) {
      McastLeaveTier(wl, receiver.status().ToString().c_str());
      return;
    }
    wl->mcast.socket = *std::move(receiver);
    std::weak_ptr<Subscription> weak = this->weak_from_this();
    McastRxEngine::Hooks hooks;
    hooks.alloc = [weak, wl](uint64_t seq, uint32_t frame_len) -> uint8_t* {
      auto self = weak.lock();
      return self == nullptr ? nullptr : self->McastAlloc(wl, seq, frame_len);
    };
    hooks.complete = [weak, wl](uint64_t seq, uint32_t frame_len) {
      if (auto self = weak.lock()) self->McastComplete(wl, seq, frame_len);
    };
    hooks.abandon = [wl](uint64_t seq) { wl->mcast_rx.erase(seq); };
    hooks.send_control = [weak, wl](McastControlKind kind, uint64_t lo,
                                    uint64_t hi) {
      if (auto self = weak.lock()) self->SendMcastControl(wl, kind, lo, hi);
    };
    hooks.schedule = [wl](uint64_t delay, std::function<void()> fire) {
      // `wl` keeps the engine alive until the timer runs; the null check
      // covers a tier torn down in between.
      (void)wl->mcast.loop->RunAfter(
          delay, [wl, fire = std::move(fire)] {
            if (!wl->mcast.broken && wl->mcast.engine != nullptr) fire();
          });
    };
    wl->mcast.engine = std::make_unique<McastRxEngine>(
        wl->mcast.base_seq, McastNackDelayNanos(), std::move(hooks));
    const int fd = wl->mcast.socket.fd();
    wl->mcast.loop->Add(fd, rsf::net::kEventReadable, [weak, wl](uint32_t) {
      if (auto self = weak.lock()) self->OnMcastReadable(wl);
    });
    wl->mcast.fd_registered = true;
  }

  /// The engine's alloc hook: stages the per-seq receive arena the frame's
  /// chunks scatter into — arena-direct for SFM messages (the one-copy
  /// contract survives chunking), an owned staging vector for regular ones.
  uint8_t* McastAlloc(const std::shared_ptr<WireLink>& wl, uint64_t seq,
                      uint32_t frame_len) {
    auto& slot = wl->mcast_rx[seq];
    slot.arena = {};
    if constexpr (!Serializer<M>::kSerializationFree) {
      if (slot.scratch == nullptr) {
        slot.scratch = std::make_unique<std::vector<uint8_t>>();
      }
      slot.arena.scratch = slot.scratch.get();
    }
    return slot.arena.Allocate(frame_len);
  }

  /// The engine's complete hook: the frame is fully reassembled in its
  /// arena — finalize and dispatch exactly like a TCP data frame.  (Mcast
  /// lanes are never shaped: LanePolicy routes shaped links to TCP.)
  void McastComplete(const std::shared_ptr<WireLink>& wl, uint64_t seq,
                     uint32_t frame_len) {
    auto it = wl->mcast_rx.find(seq);
    if (it == wl->mcast_rx.end()) return;
    auto arena = std::move(it->second.arena);
    // The regular-message arena points into the slot's scratch vector, so
    // the buffer must outlive FromWire below — take ownership before the
    // erase destroys the slot.
    auto scratch = std::move(it->second.scratch);
    wl->mcast_rx.erase(it);
    auto msg = Serializer<M>::FromWire(std::move(arena), frame_len);
    if (!msg.ok()) {
      RSF_ERROR("dropping malformed mcast message on %s: %s", topic_.c_str(),
                msg.status().ToString().c_str());
      return;
    }
    received_.fetch_add(1, std::memory_order_relaxed);
    Dispatch(*msg);
  }

  /// Drains the group socket: PeekHeader resolves each datagram's arena
  /// destination, RecvScattered lands the payload straight there (one
  /// kernel→arena copy), CommitChunk advances the engine.  Datagrams the
  /// engine rejects (stale seq, duplicate chunk, malformed header) are
  /// consumed into a discard sink.
  void OnMcastReadable(const std::shared_ptr<WireLink>& wl) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    auto& st = wl->mcast;
    while (!st.broken && st.engine != nullptr) {
      uint8_t header_buf[kMcastChunkHeaderSize];
      auto peeked = st.socket.PeekHeader({header_buf, sizeof(header_buf)});
      if (!peeked.ok()) {
        McastLeaveTier(wl, peeked.status().ToString().c_str());
        return;
      }
      if (*peeked == 0) break;  // drained
      McastChunkHeader header;
      uint8_t* dest = nullptr;
      uint32_t expect = 0;
      if (DecodeMcastChunkHeader(header_buf, *peeked, &header)) {
        dest = st.engine->ChunkDestination(header);
        const uint64_t offset =
            uint64_t{header.index} * kMcastChunkPayload;
        expect = header.frame_len > offset
                     ? static_cast<uint32_t>(std::min<uint64_t>(
                           kMcastChunkPayload, header.frame_len - offset))
                     : 0;
      }
      // ChunkDestination already points at the chunk's offset inside the
      // frame's arena; rejected datagrams drain into the discard sink.
      if (dest == nullptr) {
        if (st.discard_buf.size() < kMcastChunkPayload) {
          st.discard_buf.resize(kMcastChunkPayload);
        }
        dest = st.discard_buf.data();
        expect = kMcastChunkPayload;
      }
      iovec iov[2] = {{header_buf, sizeof(header_buf)}, {dest, expect}};
      auto got = st.socket.RecvScattered({iov, 2});
      if (!got.ok()) {
        McastLeaveTier(wl, got.status().ToString().c_str());
        return;
      }
      // Commit only a datagram whose size matches its header exactly; a
      // truncated or oversized one leaves the chunk outstanding for the
      // repair path.
      if (dest != st.discard_buf.data() &&
          *got == kMcastChunkHeaderSize + expect) {
        st.engine->CommitChunk(header);
      }
    }
    if (st.engine != nullptr &&
        st.engine->abandoned() >= kMcastLeaveThreshold) {
      McastLeaveTier(wl, "loss storm: too many unrecoverable frames");
    }
  }

  /// A unicast repair frame arrived on the TCP control channel.
  void OnMcastRepair(const std::shared_ptr<WireLink>& wl, uint32_t length) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    if (wl->mcast.broken || wl->mcast.engine == nullptr) return;
    if (length < kMcastRepairHeaderSize) return;
    const uint64_t seq = rsf::LoadLE<uint64_t>(wl->mcast.repair_buf.data());
    wl->mcast.engine->OnRepair(
        seq, wl->mcast.repair_buf.data() + kMcastRepairHeaderSize,
        length - kMcastRepairHeaderSize);
    if (wl->mcast.engine->abandoned() >= kMcastLeaveThreshold) {
      McastLeaveTier(wl, "loss storm: too many unrecoverable frames");
    }
  }

  /// Loop-thread-only (loop_link is the loop-confined handle).
  void SendMcastControl(const std::shared_ptr<WireLink>& wl,
                        McastControlKind kind, uint64_t lo, uint64_t hi) {
    if (wl->loop_link == nullptr) return;
    (void)wl->loop_link->EnqueueFrame(
        EncodeMcastControlFrame(kind, lo, hi),
        rsf::net::TaggedLength(rsf::net::kFrameTagMcastControl,
                               kMcastControlSize));
    wl->loop_link->FlushOnLoop();
  }

  /// Loop-thread-only: abandons the mcast tier for this link.  The leave
  /// control frame carries our contiguous delivery point; the publisher
  /// replays everything newer inline and the link is plain TCP from here.
  void McastLeaveTier(const std::shared_ptr<WireLink>& wl, const char* why) {
    if (wl->mcast.broken) return;
    RSF_WARN("subscription to %s leaving the mcast tier: %s", topic_.c_str(),
             why);
    wl->mcast.broken = true;
    const uint64_t contig =
        wl->mcast.engine != nullptr
            ? wl->mcast.engine->contig()
            : (wl->mcast.base_seq == 0 ? 0 : wl->mcast.base_seq - 1);
    SendMcastControl(wl, McastControlKind::kLeave, contig, 0);
    McastTeardown(wl);
  }

  /// Loop-thread-only, idempotent: unregisters and closes the group
  /// socket, drops the engine and every in-flight reassembly.
  void McastTeardown(const std::shared_ptr<WireLink>& wl) {
    if (wl->mcast.fd_registered) {
      wl->mcast.loop->Remove(wl->mcast.socket.fd());
      wl->mcast.fd_registered = false;
    }
    wl->mcast.socket.Close();
    wl->mcast.engine.reset();
    wl->mcast_rx.clear();
  }

  /// Loop-thread-only: one complete frame arrived on a publisher link.
  void OnWireFrame(const std::shared_ptr<WireLink>& wl, uint32_t length) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    auto msg = Serializer<M>::FromWire(std::move(wl->arena), length);
    if (!msg.ok()) {
      RSF_ERROR("dropping malformed message on %s: %s", topic_.c_str(),
                msg.status().ToString().c_str());
      return;
    }
    received_.fetch_add(1, std::memory_order_relaxed);
    MessagePtr message = *std::move(msg);

    // Simulated-link shaping: hold delivery for wire + propagation time,
    // paced on the loop.  Reads pause until the frame is delivered, so at
    // most one frame is in flight and unread bytes back up into the kernel
    // buffer — the same flow control the blocking shaped reader exerted.
    if (ShapedLink()) {
      const uint64_t delay =
          shaper_.DelayFor(length + 4, rsf::MonotonicNanos());
      if (delay > 0 && wl->loop_link != nullptr) {
        wl->loop_link->PauseReading();
        std::weak_ptr<Subscription> weak = this->weak_from_this();
        const bool armed = wl->loop_link->loop()->RunAfter(
            delay, [weak, wl, message] {
              if (auto self = weak.lock()) {
                if (!self->shutdown_.load(std::memory_order_acquire)) {
                  self->Dispatch(message);
                }
              }
              wl->loop_link->ResumeReading();  // no-op unless established
            });
        if (armed) return;
        // Loop is stopping: deliver inline rather than drop silently.
        wl->loop_link->ResumeReading();
      }
    }

    Dispatch(message);
  }

  /// Runs on the link's loop thread (on_closed) — the link closed itself
  /// (publisher gone, reset, malformed framing, connect failure).
  void RemoveWireLink(const std::shared_ptr<WireLink>& wl) {
    // on_closed runs on the link's loop thread — safe to tear down the
    // mcast side here, outside links_mutex_.
    McastTeardown(wl);
    std::lock_guard<std::mutex> lock(links_mutex_);
    wl->removed = true;
    std::erase(wire_links_, wl);
  }

  /// In-process delivery: called by the publication's fanout, on the
  /// publisher's thread, with the publisher's own handle.  Returns false
  /// once shut down (the publication culls the link).  Counted once, in
  /// its tier counter only (ReceivedCount adds the tiers in).
  bool DeliverIntra(const MessagePtr& msg, IntraTier tier) {
    if (shutdown_.load(std::memory_order_acquire)) return false;
    (tier == IntraTier::kZeroCopy ? intra_zero_copy_ : intra_whole_copy_)
        .fetch_add(1, std::memory_order_relaxed);
    Dispatch(msg);
    return true;
  }

  /// Inline dispatch hands the caller's handle straight to the callback;
  /// only the queued path takes a reference of its own.
  void Dispatch(const MessagePtr& msg) {
    if (options_.inline_dispatch) {
      callback_(msg);
      return;
    }
    pending_.Push(msg);
    // Weak capture: the subscription owns queue_, so a shared self here
    // would cycle through any task left undrained at destruction.  A dead
    // subscription's queued dispatches just no-op (Shutdown discards
    // pending_ regardless).
    std::weak_ptr<Subscription> weak = this->weak_from_this();
    queue_->Enqueue([weak] {
      if (auto self = weak.lock()) {
        if (auto pending = self->pending_.TryPop()) {
          self->callback_(*pending);
        }
      }
    });
  }

  const std::string topic_;
  const std::string transport_md5_;
  const std::string callerid_;
  const SubscribeOptions options_;
  const Callback callback_;
  const std::shared_ptr<CallbackQueue> queue_;

  rsf::net::SimLink shaper_;
  rsf::ConcurrentQueue<MessagePtr> pending_;
  uint64_t master_id_ = 0;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> received_{0};  // wire deliveries: tcp, shm, mcast
  std::atomic<uint64_t> intra_zero_copy_{0};
  std::atomic<uint64_t> intra_whole_copy_{0};
  std::atomic<uint64_t> shm_zero_copy_{0};

  mutable std::mutex links_mutex_;
  std::vector<std::shared_ptr<WireLink>> wire_links_;
  std::vector<IntraEntry> intra_links_;
};

}  // namespace ros
