#include "ros/publication.h"

#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/log.h"
#include "net/framing.h"
#include "net/udp.h"
#include "ros/connection_header.h"
#include "ros/mcast_transport.h"
#include "ros/message_traits.h"
#include "ros/shm_transport.h"
#include "sfm/shm_pool.h"

namespace ros {

rsf::Result<std::shared_ptr<Publication>> Publication::Create(
    const std::string& topic, const std::string& datatype,
    const std::string& md5sum, const std::string& callerid,
    size_t queue_size, bool intra_capable) {
  auto listener = rsf::net::TcpListener::Listen(0);
  if (!listener.ok()) return listener.status();
  auto publication = std::shared_ptr<Publication>(
      new Publication(topic, datatype, md5sum, callerid, queue_size,
                      *std::move(listener)));
  // Bound only while the TCP port is held, so a publication never leaves
  // its name to the port's next owner.  Anyone may hold an abstract name,
  // though: subscribers keep an AF_UNIX connection only if the kernel names
  // the owner Endpoint() advertised.
  auto local = rsf::net::TcpListener::ListenLocal(publication->port_);
  if (local.ok()) {
    publication->local_listener_ = *std::move(local);
  } else {
    RSF_WARN("topic %s: same-host socket for port %u unavailable (%s); "
             "subscribers connect over TCP",
             topic.c_str(), publication->port_,
             local.status().message().c_str());
  }
  if (intra_capable) {
    // Register before Start() and before the caller announces the endpoint
    // to the master, so a subscriber notified of (topic, port) always finds
    // the publication here.
    publication->intra_registered_ = true;
    intra_registry().Register(topic, publication->port_, publication);
  }
  publication->Start();
  return publication;
}

Publication::Publication(const std::string& topic, const std::string& datatype,
                         const std::string& md5sum,
                         const std::string& callerid, size_t queue_size,
                         rsf::net::TcpListener listener)
    : topic_(topic),
      datatype_(datatype),
      md5sum_(md5sum),
      callerid_(callerid),
      queue_size_(queue_size == 0 ? 1 : queue_size),
      max_pins_(std::max<size_t>(2 * queue_size_, 64)),
      listener_(std::move(listener)),
      port_(listener_.port()) {}

TopicEndpoint Publication::Endpoint() const {
  return TopicEndpoint{"127.0.0.1", port_, callerid_,
                       local_listener_.valid() ? ::getpid()
                                               : TopicEndpoint::kNoLocalName};
}

void Publication::Start() {
  loop_ = rsf::net::Reactor::Get().NextLoop();
  (void)listener_.SetNonBlocking(true);
  if (local_listener_.valid()) (void)local_listener_.SetNonBlocking(true);
  std::weak_ptr<Publication> weak = shared_from_this();
  loop_->RunInLoop([weak, loop = loop_] {
    auto self = weak.lock();
    if (self == nullptr || self->shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    for (rsf::net::TcpListener* listener :
         {&self->listener_, &self->local_listener_}) {
      if (!listener->valid()) continue;
      loop->Add(listener->fd(), rsf::net::kEventReadable,
                [weak, listener](uint32_t) {
                  if (auto alive = weak.lock()) alive->OnAcceptReady(*listener);
                });
    }
  });
}

Publication::~Publication() { Shutdown(); }

/// Decides a subscriber's fate from its connection-header bytes and
/// produces the reply frame.  Tier selection is pure LanePolicy; the only
/// side effect is acquiring the peer slot a grant hands to the lane.
bool Publication::EvaluateHandshake(const uint8_t* request, uint32_t length,
                                    std::vector<uint8_t>* reply_frame,
                                    WireLaneContext* ctx) {
  auto header = DecodeConnectionHeader(request, length);
  rsf::Status valid = header.ok()
                          ? ValidateSubscriberHeader(*header, topic_,
                                                     datatype_, md5sum_)
                          : header.status();

  ConnectionHeader reply;
  if (valid.ok()) {
    reply = {{"type", datatype_}, {"md5sum", md5sum_}, {"callerid", callerid_}};
    const ShmRequest shm_request = ParseShmRequest(*header);
    LanePolicy::PublisherSide side;
    side.shm_requested = shm_request.requested;
    side.peer_pid_known = shm_request.pid_known;
    side.shm_enabled = sfm::shm::Enabled();
    // On AF_UNIX the kernel names the peer: a header pid that disagrees
    // would point the pin ledger's liveness checks at another process.
    side.pid_mismatch = ctx->peer_pid != 0 && shm_request.pid_known &&
                        shm_request.pid != ctx->peer_pid;
    int slot = -1;
    if (LanePolicy::ShouldAttemptShm(side)) {
      slot = sfm::shm::AcquirePeerSlot(shm_request.pid);
      side.slot_acquired = slot >= 0;
    }
    switch (LanePolicy::GrantWireTier(side)) {
      case LanePolicy::Grant::kShm:
        // Loop-thread write, before the link can establish: the lane built
        // in OnLinkEstablished takes ownership of the slot.
        ctx->shm_negotiated = true;
        ctx->shm_slot = slot;
        ctx->shm_pid = shm_request.pid;
        sfm::shm::NotePeerNegotiated();
        AddShmGrantFields(&reply, sfm::shm::Namespace(), slot);
        break;
      case LanePolicy::Grant::kTcpNotRequested:
        break;
      case LanePolicy::Grant::kTcpTierDisabled:
        RSF_INFO("subscriber asked for shm on %s but the tier is disabled "
                 "here; staying on TCP",
                 topic_.c_str());
        break;
      case LanePolicy::Grant::kTcpPidMismatch:
        RSF_WARN("subscriber on %s claims shm_pid %d but its socket belongs "
                 "to pid %d; refusing shm, staying on TCP",
                 topic_.c_str(), static_cast<int>(shm_request.pid),
                 static_cast<int>(ctx->peer_pid));
        break;
      case LanePolicy::Grant::kTcpNoSlot:
        RSF_WARN("no free shm peer slot for subscriber on %s "
                 "(all %zu busy); falling back to TCP",
                 topic_.c_str(), sfm::shm::kMaxPeers);
        break;
    }

    // Mcast tier, evaluated after shm (a shm grant already crosses
    // zero-copy; the group would be redundant).  The requester joins the
    // eligibility census first, so the subscriber that crosses the
    // threshold is itself granted.
    const McastRequest mcast_request = ParseMcastRequest(*header);
    if (mcast_request.requested) {
      ctx->mcast_requested = true;
      ++mcast_eligible_;
    }
    LanePolicy::McastPublisherSide mcast_side;
    mcast_side.mcast_requested = mcast_request.requested;
    mcast_side.mcast_enabled = McastEnabled();
    mcast_side.shm_negotiated = ctx->shm_negotiated;
    mcast_side.above_threshold = mcast_eligible_ >= McastMinSubs();
    std::shared_ptr<McastGroupSender> sender;
    if (LanePolicy::ShouldAttemptMcast(mcast_side)) {
      sender = EnsureMcastSender();
      mcast_side.group_ready = sender != nullptr;
    }
    switch (LanePolicy::GrantMcastTier(mcast_side)) {
      case LanePolicy::McastGrant::kMcast:
        ctx->mcast_negotiated = true;
        ctx->mcast_sender = sender;
        ctx->mcast_join_seq = sender->NextSeq();
        AddMcastGrantFields(&reply, sender->group(), sender->port(),
                            ctx->mcast_join_seq);
        break;
      case LanePolicy::McastGrant::kTcpNotRequested:
      case LanePolicy::McastGrant::kTcpShmWins:
      case LanePolicy::McastGrant::kTcpBelowThreshold:
        break;  // silent: TCP is the correct tier for these
      case LanePolicy::McastGrant::kTcpTierDisabled:
        RSF_INFO("subscriber asked for mcast on %s but the tier is "
                 "disabled here; staying on TCP",
                 topic_.c_str());
        break;
      case LanePolicy::McastGrant::kTcpNoGroup:
        RSF_WARN("multicast unavailable for %s (probe or socket setup "
                 "failed); falling back to TCP",
                 topic_.c_str());
        break;
    }
  } else {
    reply = {{"error", valid.ToString()}};
    RSF_WARN("rejecting subscriber on %s: %s", topic_.c_str(),
             valid.ToString().c_str());
  }
  *reply_frame = EncodeConnectionHeader(reply);
  return valid.ok();
}

std::shared_ptr<McastGroupSender> Publication::EnsureMcastSender() {
  if (mcast_sender_ != nullptr) return mcast_sender_;
  if (mcast_sender_failed_) return nullptr;
  if (!rsf::net::MulticastLoopbackProbe()) {
    mcast_sender_failed_ = true;
    return nullptr;
  }
  auto sender = McastGroupSender::Create(topic_);
  if (!sender.ok()) {
    RSF_WARN("mcast group sender for %s failed: %s", topic_.c_str(),
             sender.status().ToString().c_str());
    mcast_sender_failed_ = true;
    return nullptr;
  }
  {
    // Publish threads read the sender under links_mutex_ to stage the
    // cohort's burst; publication is loop-thread-only.
    std::lock_guard<std::mutex> lock(links_mutex_);
    mcast_sender_ = *std::move(sender);
  }
  RSF_INFO("topic %s multicast group %s:%u engaged", topic_.c_str(),
           mcast_sender_->group().c_str(), mcast_sender_->port());
  return mcast_sender_;
}

void Publication::OnAcceptReady(rsf::net::TcpListener& listener) {
  while (!shutdown_.load(std::memory_order_acquire)) {
    rsf::net::TcpConnection conn;
    auto got = listener.TryAccept(&conn);
    if (!got.ok()) {
      // Terminal listener failure (normally: Shutdown closed it).
      loop_->Remove(listener.fd());
      return;
    }
    if (!*got) return;  // backlog drained

    std::weak_ptr<Publication> weak = weak_from_this();
    rsf::net::Link::Options options;
    options.max_pending_frames = queue_size_;
    // Data flows publisher→subscriber on this link, so it gets the
    // write-progress deadline that drops a peer that stopped reading
    // (env-tuned, resolved per link so tests can shrink it between runs).
    options.write_timeout_nanos = rsf::net::WriteTimeoutNanos();
    auto ctx = std::make_shared<WireLaneContext>();
    if (conn.local()) ctx->peer_pid = conn.PeerPid().value_or(0);
    rsf::net::Link::Callbacks callbacks;
    callbacks.on_handshake_request =
        [weak, ctx](const uint8_t* data, uint32_t length,
                    std::vector<uint8_t>* reply) {
          auto self = weak.lock();
          return self != nullptr &&
                 self->EvaluateHandshake(data, length, reply, ctx.get());
        };
    callbacks.on_established =
        [weak, ctx](const std::shared_ptr<rsf::net::Link>& link) {
          if (auto self = weak.lock()) self->OnLinkEstablished(link, ctx);
        };
    callbacks.on_closed =
        [weak, ctx](const std::shared_ptr<rsf::net::Link>& link) {
          if (auto self = weak.lock()) self->OnLinkClosed(link, ctx);
        };
    // The only thing a subscriber ever sends after the handshake is a
    // small tagged control frame — shm (ack / disable) or mcast
    // (nack / ack / leave); anything else — including any data-tagged
    // frame — is a protocol violation and closes the link by way of a
    // null allocation.
    callbacks.alloc = [ctx](uint32_t raw) -> uint8_t* {
      const uint32_t tag = rsf::net::FrameTag(raw);
      const uint32_t length = rsf::net::FrameLength(raw);
      if (tag == rsf::net::kFrameTagShmControl) {
        if (length == 0 || length > kShmMaxControlFrame) return nullptr;
      } else if (tag == rsf::net::kFrameTagMcastControl) {
        if (length != kMcastControlSize) return nullptr;
      } else {
        return nullptr;
      }
      ctx->control_buf.resize(length);
      return ctx->control_buf.data();
    };
    callbacks.on_frame = [ctx](uint32_t raw) {
      // Routed straight to the lane (loop-confined): established links
      // always have one; a frame sneaking in earlier is dropped.
      if (ctx->lane != nullptr) {
        ctx->lane->OnControlFrame(raw, ctx->control_buf.data());
      }
    };
    auto link = rsf::net::Link::Accepted(std::move(conn), loop_, options,
                                         std::move(callbacks));
    std::lock_guard<std::mutex> lock(links_mutex_);
    pending_wire_.push_back({std::move(link), std::move(ctx)});
  }
}

void Publication::OnLinkEstablished(
    const std::shared_ptr<rsf::net::Link>& link,
    const std::shared_ptr<WireLaneContext>& ctx) {
  if (shutdown_.load(std::memory_order_acquire)) {
    // Shutdown's RunSync (serialized with us on the loop) tears down the
    // still-pending entry, including a mid-handshake slot grant.
    link->CloseNow();
    return;
  }
  std::weak_ptr<Publication> weak = weak_from_this();
  auto lane = MakeWireLane(ctx, link, &counters_, topic_, max_pins_,
                           [weak](TransportLane* fallen) {
                             if (auto self = weak.lock()) {
                               self->OnMcastFallback(fallen);
                             }
                           });
  ctx->lane = lane;  // control frames route here from now on (loop thread)
  std::lock_guard<std::mutex> lock(links_mutex_);
  std::erase_if(pending_wire_,
                [&](const PendingWire& entry) { return entry.link == link; });
  // Group lanes join the cohort, not the per-publish fan-out: Publish
  // stages one burst for all of them.
  if (ctx->mcast_negotiated) {
    mcast_lanes_.push_back(std::move(lane));
  } else {
    lanes_.push_back(std::move(lane));
  }
  lane_view_.reset();
  wire_lane_count_.fetch_add(1, std::memory_order_release);
  if (ctx->shm_negotiated) {
    shm_lane_count_.fetch_add(1, std::memory_order_release);
  }
  if (ctx->mcast_negotiated) {
    mcast_lane_count_.fetch_add(1, std::memory_order_release);
  }
}

void Publication::OnLinkClosed(const std::shared_ptr<rsf::net::Link>& link,
                               const std::shared_ptr<WireLaneContext>& ctx) {
  {
    std::lock_guard<std::mutex> lock(links_mutex_);
    std::erase_if(pending_wire_, [&](const PendingWire& entry) {
      return entry.link == link;
    });
    if (ctx->lane != nullptr) {
      // A group lane lives in the cohort; a fallen-back one moved into
      // lanes_ (and already left the mcast census when it fell back).
      const size_t from_cohort = std::erase(mcast_lanes_, ctx->lane);
      const size_t from_lanes = std::erase(lanes_, ctx->lane);
      if (from_cohort + from_lanes > 0) {
        lane_view_.reset();
        wire_lane_count_.fetch_sub(1, std::memory_order_release);
        if (ctx->shm_negotiated) {
          shm_lane_count_.fetch_sub(1, std::memory_order_release);
        }
        if (from_cohort > 0) {
          mcast_lane_count_.fetch_sub(1, std::memory_order_release);
        }
      }
    }
  }
  // The eligibility census tracks requesters (granted or not); balance it
  // on the loop thread where EvaluateHandshake incremented it.
  if (ctx->mcast_requested) {
    ctx->mcast_requested = false;
    if (mcast_eligible_ > 0) --mcast_eligible_;
  }
  if (ctx->lane != nullptr) {
    // Idempotent: releases the peer slot, drops the pin ledger, and counts
    // the frames stranded behind the broken connection.
    ctx->lane->Close();
    return;
  }
  // Died mid-handshake: no lane owns the slot yet, release it here.
  if (ctx->shm_negotiated) {
    sfm::shm::ReleasePeerSlot(ctx->shm_slot, ctx->shm_pid);
    ctx->shm_negotiated = false;
  }
  counters_.dropped.fetch_add(link->stats().frames_stranded,
                              std::memory_order_relaxed);
}

void Publication::Publish(PublishContext ctx) {
  // Serialize-once fan-out: the wire frame is finalized here, exactly once
  // per publish, and shared (aliased holder) by every lane Offer visits.
  if (ctx.has_wire()) {
    ctx.wire = {ctx.payload.data, static_cast<uint32_t>(ctx.payload.size)};
    shim::frame_builds.fetch_add(1, std::memory_order_relaxed);
    // One descriptor for the whole fan-out, and only when a shm lane is
    // live: PreparePublish resolves the payload to its shm block (nullopt
    // when it is heap-backed — tier off, below threshold, or a snapshot
    // copy) and stamps it with this publish's sequence number.
    if (shm_lane_count_.load(std::memory_order_acquire) > 0) {
      ctx.seq = shm_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (auto descriptor = sfm::shm::PreparePublish(ctx.payload.data.get(),
                                                     ctx.payload.size,
                                                     ctx.seq)) {
        ctx.descriptor = {EncodeShmDescriptorFrame(*descriptor),
                          rsf::net::TaggedLength(
                              rsf::net::kFrameTagShmDescriptor,
                              kShmDescriptorSize)};
        shim::descriptor_builds.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  OfferToLanes(ctx);
}

void Publication::Publish(SerializedMessage message) {
  PublishContext ctx;
  ctx.payload = std::move(message);
  Publish(std::move(ctx));
}

void Publication::RebuildLaneView() {
  auto view = std::make_shared<LaneView>();
  view->lanes = lanes_;
  const size_t wire_lanes = std::count_if(
      lanes_.begin(), lanes_.end(),
      [](const std::shared_ptr<TransportLane>& lane) {
        return lane->Describe().kind != LaneKind::kIntra;
      });
  // One wire lane only: the publish thread's sendmsg is then the whole
  // wire cost of the publish.  Writing through on N lanes runs N sendmsg
  // calls serially inside publish() — it took the tcp fan-out's publish
  // p50 at 1024 links from 193 µs to 8.9 ms (DESIGN.md §8) — so with more
  // lanes the loop sends.
  view->write_through = wire_lanes == 1 && mcast_lanes_.empty();
  lane_view_ = std::move(view);
}

void Publication::OfferToLanes(PublishContext& ctx) {
  // One reference on the immutable lane array, taken under the lock; the
  // offers run outside it: an in-process lane may run the subscriber
  // callback inline (on this thread), and that callback is free to
  // publish, subscribe, or shut down — none of which may deadlock here,
  // and none of which changes the array this publish iterates.
  std::shared_ptr<const LaneView> view;
  std::shared_ptr<McastGroupSender> mcast_sender;
  size_t mcast_members = 0;
  {
    std::lock_guard<std::mutex> lock(links_mutex_);
    if (lane_view_ == nullptr) RebuildLaneView();
    view = lane_view_;
    mcast_members = mcast_lanes_.size();
    if (mcast_members > 0) mcast_sender = mcast_sender_;
  }
  ctx.write_through = view->write_through;
  LaneTally tally;
  // The whole mcast cohort costs O(1) here: one staged burst (the loop
  // thread sends it — on loopback the kernel replicates a datagram to
  // every member inside sendmsg, which must never run on a publish
  // thread) and one bulk enqueued count.  This is the tier's point:
  // publish cost is independent of how many subscribers share the group.
  const bool staged = ctx.has_wire() && mcast_sender != nullptr;
  if (staged) {
    tally.enqueued += mcast_members;
    mcast_sender->Stage(ctx.payload.data,
                        static_cast<uint32_t>(ctx.payload.size));
  }
  const LaneArray& lanes = view->lanes;
  if (lanes.empty() && mcast_sender == nullptr) return;

  std::vector<const TransportLane*> dead;
  for (const auto& lane : lanes) {
    if (!lane->Offer(ctx, &tally)) dead.push_back(lane.get());
  }
  counters_.Add(tally, ctx.intra_tier);
  if (!dead.empty()) {
    // Offer-reported deaths: vanished in-process subscribers (wire lanes
    // never report one — their Link callbacks drive their lifecycle).
    std::lock_guard<std::mutex> lock(links_mutex_);
    const size_t culled = std::erase_if(
        lanes_, [&](const std::shared_ptr<TransportLane>& lane) {
          return std::find(dead.begin(), dead.end(), lane.get()) !=
                 dead.end();
        });
    if (culled > 0) {
      lane_view_.reset();
      intra_lane_count_.fetch_sub(culled, std::memory_order_release);
    }
  }

  // A written-through frame needs no loop: kick only for frames a lane
  // left queued and for a staged cohort burst.
  if (!tally.queued && !staged) return;
  // Coalesced wake-up: back-to-back publishes share one loop task.  The
  // flag resets BEFORE flushing so a publish racing with the flush always
  // either lands its frames in a writer the flush is about to drain, or
  // wins the exchange and schedules the next kick.
  if (!kick_pending_.exchange(true, std::memory_order_acq_rel)) {
    std::weak_ptr<Publication> weak = weak_from_this();
    loop_->RunInLoop([weak] {
      auto self = weak.lock();
      if (self == nullptr) return;
      self->kick_pending_.store(false, std::memory_order_release);
      std::shared_ptr<McastGroupSender> sender;
      auto& lanes = self->kick_scratch_;  // loop-confined, reused
      {
        std::lock_guard<std::mutex> lock(self->links_mutex_);
        lanes.assign(self->lanes_.begin(), self->lanes_.end());
        lanes.insert(lanes.end(), self->mcast_lanes_.begin(),
                     self->mcast_lanes_.end());
        sender = self->mcast_sender_;
      }
      // Drain the cohort's staged bursts first (back-to-back publishes
      // batch into one drain), then the per-lane wire queues.
      if (sender != nullptr) sender->FlushStaged();
      for (const auto& lane : lanes) lane->Flush();
      lanes.clear();
      self->SweepMcastLanes();
    });
  }
}

void Publication::SweepMcastLanes() {
  std::vector<std::shared_ptr<TransportLane>> evicted;
  {
    std::lock_guard<std::mutex> lock(links_mutex_);
    if (mcast_lanes_.empty()) return;
    std::erase_if(mcast_lanes_,
                  [&](const std::shared_ptr<TransportLane>& lane) {
                    if (lane->SweepAlive()) return false;
                    evicted.push_back(lane);
                    return true;
                  });
    if (!evicted.empty()) lane_view_.reset();
  }
  for (const auto& lane : evicted) {
    wire_lane_count_.fetch_sub(1, std::memory_order_release);
    mcast_lane_count_.fetch_sub(1, std::memory_order_release);
    // Loop thread already (the sweep runs from the flush kick), so Close
    // is safe to call directly; OnLinkClosed finding the lane already
    // erased makes its own Close a no-op.
    lane->Close();
  }
}

void Publication::OnMcastFallback(TransportLane* lane) {
  std::lock_guard<std::mutex> lock(links_mutex_);
  const auto it = std::find_if(
      mcast_lanes_.begin(), mcast_lanes_.end(),
      [lane](const std::shared_ptr<TransportLane>& entry) {
        return entry.get() == lane;
      });
  if (it == mcast_lanes_.end()) return;  // concurrently closed or swept
  lanes_.push_back(std::move(*it));
  lane_view_.reset();
  mcast_lanes_.erase(it);
  mcast_lane_count_.fetch_sub(1, std::memory_order_release);
}

rsf::Status Publication::AddIntraLink(std::shared_ptr<IntraLinkBase> link) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return rsf::UnavailableError("publication for " + topic_ +
                                 " is shut down");
  }
  // The same negotiation the TCPROS handshake performs: the marked
  // transport checksum keeps SFM and regular variants of a type apart.
  if (link->transport_md5() != md5sum_) {
    return rsf::FailedPreconditionError(
        "md5sum mismatch on " + topic_ + ": publisher has " + md5sum_ +
        ", subscriber " + link->callerid() + " negotiated " +
        link->transport_md5());
  }
  // Mirror the TCP pending→established split: the lane joins the fanout
  // only once the subscriber finishes filing it (ActivateIntraLink), so a
  // publish racing the connect can never deliver into a half-registered
  // link whose subscriber-side bookkeeping isn't ready to receive.
  std::lock_guard<std::mutex> lock(links_mutex_);
  pending_intra_.push_back(MakeIntraLane(std::move(link)));
  return rsf::Status::Ok();
}

void Publication::ActivateIntraLink(const IntraLinkBase* link) {
  std::lock_guard<std::mutex> lock(links_mutex_);
  auto it = std::find_if(
      pending_intra_.begin(), pending_intra_.end(),
      [link](const std::shared_ptr<TransportLane>& lane) {
        return lane->intra_link() == link;
      });
  // Not pending: a concurrent Shutdown/Remove already culled it — a late
  // activation must not resurrect the lane into the fanout.
  if (it == pending_intra_.end()) return;
  lanes_.push_back(std::move(*it));
  lane_view_.reset();
  pending_intra_.erase(it);
  intra_lane_count_.fetch_add(1, std::memory_order_release);
}

void Publication::RemoveIntraLink(const IntraLinkBase* link) {
  std::lock_guard<std::mutex> lock(links_mutex_);
  const auto matches = [link](const std::shared_ptr<TransportLane>& lane) {
    return lane->intra_link() == link;
  };
  std::erase_if(pending_intra_, matches);
  const size_t removed = std::erase_if(lanes_, matches);
  if (removed > 0) lane_view_.reset();
  intra_lane_count_.fetch_sub(removed, std::memory_order_release);
}

size_t Publication::NumSubscribers() const {
  std::lock_guard<std::mutex> lock(links_mutex_);
  size_t alive = mcast_lanes_.size();
  for (const auto& lane : lanes_) {
    const LaneDescription description = lane->Describe();
    if (description.kind != LaneKind::kIntra || description.alive) ++alive;
  }
  return alive;
}

PublicationStats Publication::Stats() const {
  PublicationStats stats;
  stats.enqueued = counters_.enqueued.load(std::memory_order_relaxed);
  stats.dropped = counters_.dropped.load(std::memory_order_relaxed);
  stats.intra_delivered =
      counters_.intra_delivered.load(std::memory_order_relaxed);
  stats.intra_zero_copy =
      counters_.intra_zero_copy.load(std::memory_order_relaxed);
  stats.intra_whole_copy =
      counters_.intra_whole_copy.load(std::memory_order_relaxed);
  stats.shm_descriptors =
      counters_.shm_descriptors.load(std::memory_order_relaxed);
  stats.shm_inline = counters_.shm_inline.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(links_mutex_);
  const auto count = [&](const std::vector<std::shared_ptr<TransportLane>>&
                             lanes) {
    for (const auto& lane : lanes) {
      const LaneDescription description = lane->Describe();
      switch (description.kind) {
        case LaneKind::kIntra:
          if (description.alive) ++stats.intra_links;
          break;
        case LaneKind::kShm:
          ++stats.shm_links;
          ++stats.tcp_links;  // shm lanes ride an established TCPROS link
          break;
        case LaneKind::kMcast:
          ++stats.mcast_links;
          ++stats.tcp_links;  // the group rides the TCP control link too
          break;
        case LaneKind::kTcp:
          ++stats.tcp_links;
          break;
      }
      if (description.local) ++stats.unix_links;
    }
  };
  count(lanes_);
  count(mcast_lanes_);
  return stats;
}

void Publication::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;

  if (intra_registered_) intra_registry().Unregister(topic_, port_);

  // All per-fd state lives on the loop thread: tear it down there and
  // wait, so no callback can touch this object once RunSync returns
  // (the destructor relies on exactly this).
  if (loop_ != nullptr) {
    loop_->RunSync([this] {
      loop_->Remove(listener_.fd());
      loop_->Remove(local_listener_.fd());
      std::vector<PendingWire> pending;
      std::vector<std::shared_ptr<TransportLane>> lanes;
      std::vector<std::shared_ptr<TransportLane>> pending_intra;
      {
        std::lock_guard<std::mutex> lock(links_mutex_);
        pending.swap(pending_wire_);
        lanes.swap(lanes_);
        lane_view_.reset();
        lanes.insert(lanes.end(),
                     std::make_move_iterator(mcast_lanes_.begin()),
                     std::make_move_iterator(mcast_lanes_.end()));
        mcast_lanes_.clear();
        pending_intra.swap(pending_intra_);
        intra_lane_count_.store(0, std::memory_order_release);
        wire_lane_count_.store(0, std::memory_order_release);
        shm_lane_count_.store(0, std::memory_order_release);
        mcast_lane_count_.store(0, std::memory_order_release);
        mcast_sender_.reset();  // closes the group's sender socket
      }
      mcast_eligible_ = 0;
      for (const auto& entry : pending) {
        // A mid-handshake grant parked its slot in the context; no lane
        // owns it yet.
        if (entry.ctx->shm_negotiated) {
          sfm::shm::ReleasePeerSlot(entry.ctx->shm_slot, entry.ctx->shm_pid);
          entry.ctx->shm_negotiated = false;
        }
        entry.link->CloseNow();
      }
      // Lane Close releases peer slots and pin ledgers and counts frames
      // never flushed before shutdown as dropped (in-process lanes no-op).
      for (const auto& lane : lanes) lane->Close();
    });
  }
  local_listener_.Close();  // the name goes first, then the port
  listener_.Close();
}

}  // namespace ros
