// Tests for the TransportLane seam (DESIGN.md §13): the LanePolicy
// negotiation table (every §12.4 matrix cell as a pure-function row), the
// mixed-lane fan-out (intra + TCP + shm subscribers on one topic, stats
// reconciling across tiers), the serialize-once guarantee (shim counters
// prove one frame build and one descriptor encode per publish at any
// fan-out), the shm pin ledger's drop-oldest accounting against a
// stalled subscriber that never acks, and the fan-out's membership rules:
// culling, changes made from inside a publish, a subscriber dropping its
// own last handle mid-publish, and concurrent publishers against
// subscribe/unsubscribe churn, with the per-publish counter tally
// reconciling exactly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/framing.h"
#include "net/link.h"
#include "net/poller.h"
#include "paper_msgs/sfm/Image.h"
#include "ros/ros.h"
#include "ros/shm_transport.h"
#include "ros/transport_lane.h"
#include "sfm/shm_pool.h"

namespace {

using Image = paper_msgs::sfm::Image;
using ros::LanePolicy;

bool WaitFor(const std::function<bool()>& predicate,
             uint64_t timeout_nanos = 5'000'000'000ull) {
  const uint64_t deadline = rsf::MonotonicNanos() + timeout_nanos;
  while (rsf::MonotonicNanos() < deadline) {
    if (predicate()) return true;
    rsf::SleepForNanos(1'000'000);
  }
  return predicate();
}

/// Scoped setenv/unsetenv (the CI shm job exports RSF_TRANSPORT_SHM=1 for
/// the whole suite — tests that need the tier OFF must override it).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// ---- LanePolicy: the §12.4 matrix, one cell per assertion ----

LanePolicy::SubscriberSide IntraEligible() {
  LanePolicy::SubscriberSide side;
  side.co_located = true;
  side.allow_intra = true;
  side.shaped = false;
  return side;
}

LanePolicy::SubscriberSide ShmEligible() {
  LanePolicy::SubscriberSide side;
  side.co_located = false;
  side.serialization_free = true;
  side.allow_shm = true;
  side.shaped = false;
  side.shm_enabled = true;
  side.loopback = true;
  return side;
}

TEST(LanePolicyTest, CoLocatedPrefersIntraOverEveryWireTier) {
  // §7 preference: in-process beats the wire even when the shm tier would
  // also be available.
  auto side = IntraEligible();
  side.serialization_free = true;
  side.allow_shm = true;
  side.shm_enabled = true;
  side.loopback = true;
  EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kIntra);
}

TEST(LanePolicyTest, IntraVetoesFallThroughToWire) {
  {
    auto side = IntraEligible();
    side.allow_intra = false;  // SubscribeOptions opt-out
    EXPECT_NE(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kIntra);
  }
  {
    auto side = IntraEligible();
    side.shaped = true;  // a shaped link models a remote machine
    EXPECT_NE(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kIntra);
  }
  {
    auto side = IntraEligible();
    side.co_located = false;
    EXPECT_NE(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kIntra);
  }
}

TEST(LanePolicyTest, ShmRequestNeedsEveryCondition) {
  // The happy row: SFM type, allow_shm, unshaped, env on, same host.
  EXPECT_EQ(LanePolicy::PlanSubscriber(ShmEligible()),
            LanePolicy::Plan::kTcpRequestShm);

  // §12.4 row (a): each negated condition degrades to plain TCP — the
  // link never negotiates the tier at all.
  {
    auto side = ShmEligible();
    side.serialization_free = false;  // type is not SF
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
  {
    auto side = ShmEligible();
    side.allow_shm = false;  // SubscribeOptions opt-out
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
  {
    auto side = ShmEligible();
    side.shaped = true;  // shaped link
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
  {
    auto side = ShmEligible();
    side.shm_enabled = false;  // RSF_TRANSPORT_SHM off
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
  {
    auto side = ShmEligible();
    side.loopback = false;  // non-loopback endpoint
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
}

TEST(LanePolicyTest, GrantWireTierMatrix) {
  LanePolicy::PublisherSide side;
  // Subscriber never asked: silent plain TCP.
  EXPECT_EQ(LanePolicy::GrantWireTier(side),
            LanePolicy::Grant::kTcpNotRequested);

  // Asked, but the header carried no parseable pid: same cell.
  side.shm_requested = true;
  EXPECT_EQ(LanePolicy::GrantWireTier(side),
            LanePolicy::Grant::kTcpNotRequested);

  // Asked with a pid, tier off on the publisher: logged, plain TCP.
  side.peer_pid_known = true;
  EXPECT_EQ(LanePolicy::GrantWireTier(side),
            LanePolicy::Grant::kTcpTierDisabled);

  // §12.4 row (b): all peer slots busy — warn, fall back to TCP.
  side.shm_enabled = true;
  EXPECT_EQ(LanePolicy::GrantWireTier(side), LanePolicy::Grant::kTcpNoSlot);

  // Everything lined up: the link becomes a ShmLane.
  side.slot_acquired = true;
  EXPECT_EQ(LanePolicy::GrantWireTier(side), LanePolicy::Grant::kShm);
}

TEST(LanePolicyTest, SlotAcquisitionGatedOnRequestPidAndEnv) {
  // AcquirePeerSlot is the only side-effecting negotiation step; it must
  // not run unless the request is complete and the tier is on.
  LanePolicy::PublisherSide side;
  side.shm_requested = true;
  side.peer_pid_known = true;
  side.shm_enabled = true;
  EXPECT_TRUE(LanePolicy::ShouldAttemptShm(side));
  side.shm_enabled = false;
  EXPECT_FALSE(LanePolicy::ShouldAttemptShm(side));
  side.shm_enabled = true;
  side.peer_pid_known = false;
  EXPECT_FALSE(LanePolicy::ShouldAttemptShm(side));
  side.peer_pid_known = true;
  side.shm_requested = false;
  EXPECT_FALSE(LanePolicy::ShouldAttemptShm(side));
}

TEST(LanePolicyTest, PidMismatchRefusesShmGrantWithoutTakingASlot) {
  // An AF_UNIX peer whose kernel-reported pid contradicts its shm_pid gets
  // TCP, and no peer slot is acquired for it.
  LanePolicy::PublisherSide side;
  side.shm_requested = true;
  side.peer_pid_known = true;
  side.shm_enabled = true;
  side.pid_mismatch = true;
  EXPECT_FALSE(LanePolicy::ShouldAttemptShm(side));
  EXPECT_EQ(LanePolicy::GrantWireTier(side),
            LanePolicy::Grant::kTcpPidMismatch);
  // The tier being off is reported first: nothing to verify then.
  side.shm_enabled = false;
  EXPECT_EQ(LanePolicy::GrantWireTier(side),
            LanePolicy::Grant::kTcpTierDisabled);
}

TEST(LanePolicyTest, SameHostUnshapedDialsUnixFirst) {
  LanePolicy::SubscriberSide side;
  side.loopback = true;
  EXPECT_TRUE(LanePolicy::DialLocalFirst(side));
  // Whatever tier the subscriber asks for, the family rule is the same.
  side.serialization_free = true;
  side.shm_enabled = true;
  side.mcast_enabled = true;
  EXPECT_TRUE(LanePolicy::DialLocalFirst(side));
}

TEST(LanePolicyTest, ShapedOrRemoteDialsTcp) {
  LanePolicy::SubscriberSide side;
  side.loopback = true;
  side.shaped = true;  // models a remote machine: fig16 stays on TCP
  EXPECT_FALSE(LanePolicy::DialLocalFirst(side));
  side.shaped = false;
  side.loopback = false;  // non-loopback endpoint
  EXPECT_FALSE(LanePolicy::DialLocalFirst(side));
}

TEST(LanePolicyTest, PublicationWithoutUnixNameDialsTcp) {
  // The endpoint says the publication could not bind its AF_UNIX name
  // (TopicEndpoint::kNoLocalName): nothing to dial but TCP.
  LanePolicy::SubscriberSide side;
  side.loopback = true;
  side.local_name = false;
  EXPECT_FALSE(LanePolicy::DialLocalFirst(side));
}

TEST(LanePolicyTest, EstablishedLinkBecomesTheNegotiatedLane) {
  EXPECT_EQ(LanePolicy::WireLaneKind(true, false), ros::LaneKind::kShm);
  EXPECT_EQ(LanePolicy::WireLaneKind(false, true), ros::LaneKind::kMcast);
  EXPECT_EQ(LanePolicy::WireLaneKind(false, false), ros::LaneKind::kTcp);
  // Both negotiated can only mean a buggy handshake; shm wins regardless.
  EXPECT_EQ(LanePolicy::WireLaneKind(true, true), ros::LaneKind::kShm);
}

// ---- middleware-level lane behaviour ----

class TransportLaneTest : public ::testing::Test {
 protected:
  void SetUp() override { sfm::shm::ResetPoolForTest(); }
  void TearDown() override {
    ros::master().Reset();
    sfm::shm::ResetPoolForTest();
  }
};

void ExpectNoLeakedBlocks() {
  EXPECT_TRUE(WaitFor([] {
    sfm::shm::RecycleRetired();
    const auto stats = sfm::shm::GetPoolStats();
    return stats.live_blocks == 0 && stats.retired_blocks == 0;
  })) << "shm blocks leaked: live=" << sfm::shm::GetPoolStats().live_blocks
      << " retired=" << sfm::shm::GetPoolStats().retired_blocks;
}

/// One topic, three tiers at once: an in-process subscriber, a forced-TCP
/// subscriber, and a shm-negotiated subscriber.  Every publish must reach
/// all three, and the per-tier stats must reconcile exactly.
TEST_F(TransportLaneTest, MixedLaneFanoutReconcilesAcrossTiers) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  constexpr size_t kBytes = 48 * 1024;
  constexpr int kMessages = 8;

  ros::NodeHandle pub_node("mixed_pub");
  ros::NodeHandle sub_node("mixed_sub");
  auto pub = pub_node.advertise<Image>("/mixed_lanes", 16);

  std::atomic<int> intra_received{0};
  std::atomic<int> tcp_received{0};
  std::atomic<int> shm_received{0};

  ros::SubscribeOptions intra_options;
  intra_options.inline_dispatch = true;
  auto intra_sub = sub_node.subscribe<Image>(
      "/mixed_lanes", 16,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr&) { intra_received.fetch_add(1); }),
      intra_options);

  ros::SubscribeOptions tcp_options;
  tcp_options.inline_dispatch = true;
  tcp_options.allow_intra_process = false;
  tcp_options.allow_shm = false;  // pinned to inline TCP frames
  auto tcp_sub = sub_node.subscribe<Image>(
      "/mixed_lanes", 16,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr&) { tcp_received.fetch_add(1); }),
      tcp_options);

  ros::SubscribeOptions shm_options;
  shm_options.inline_dispatch = true;
  shm_options.allow_intra_process = false;  // force the wire, negotiate shm
  auto shm_sub = sub_node.subscribe<Image>(
      "/mixed_lanes", 16,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr&) { shm_received.fetch_add(1); }),
      shm_options);

  // All three lanes live before the first publish: one intra link and two
  // wire links, one of which negotiated the shm tier.
  ASSERT_TRUE(WaitFor([&] {
    const auto stats = pub.getStats();
    return stats.intra_links == 1 && stats.tcp_links == 2 &&
           stats.shm_links == 1;
  }));

  const uint64_t frames_before =
      ros::shim::frame_builds.load(std::memory_order_relaxed);
  const uint64_t descriptors_before =
      ros::shim::descriptor_builds.load(std::memory_order_relaxed);

  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(kBytes);
    img->data[0] = 0x5A;
    pub.publish(*img);
    ASSERT_TRUE(WaitFor([&] {
      return intra_received.load() > i && tcp_received.load() > i &&
             shm_received.load() > i;
    })) << "message " << i << " missing on some tier";
  }

  EXPECT_EQ(intra_sub.intraWholeCopyCount(),
            static_cast<uint64_t>(kMessages));
  EXPECT_EQ(shm_sub.shmZeroCopyCount(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(tcp_sub.shmZeroCopyCount(), 0u);

  // Publisher-side reconciliation: one intra + two wire attempts per
  // publish, nothing dropped, every shm-lane delivery via descriptor.
  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(3 * kMessages));
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.intra_delivered, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.intra_whole_copy, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.shm_descriptors, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.shm_inline, 0u);

  // Serialize-once proof: three lanes, but exactly ONE wire frame build
  // and ONE descriptor encode per publish.
  EXPECT_EQ(ros::shim::frame_builds.load(std::memory_order_relaxed) -
                frames_before,
            static_cast<uint64_t>(kMessages));
  EXPECT_EQ(ros::shim::descriptor_builds.load(std::memory_order_relaxed) -
                descriptors_before,
            static_cast<uint64_t>(kMessages));

  intra_sub.shutdown();
  tcp_sub.shutdown();
  shm_sub.shutdown();
  ExpectNoLeakedBlocks();
}

/// Serialize-once at wide fan-out: six TCP subscribers, the frame is built
/// exactly once per publish and shared by every lane.
TEST_F(TransportLaneTest, SerializeOnceAtWideFanout) {
  ScopedEnv off("RSF_TRANSPORT_SHM", "0");
  constexpr int kSubscribers = 6;
  constexpr int kMessages = 5;

  ros::NodeHandle pub_node("fanout_pub");
  ros::NodeHandle sub_node("fanout_sub");
  auto pub = pub_node.advertise<Image>("/fanout_once", 8);

  std::atomic<int> received{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  options.allow_shm = false;
  std::vector<ros::Subscriber> subs;
  subs.reserve(kSubscribers);
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(sub_node.subscribe<Image>(
        "/fanout_once", 8,
        std::function<void(const Image::ConstPtr&)>(
            [&](const Image::ConstPtr&) { received.fetch_add(1); }),
        options));
  }
  ASSERT_TRUE(
      WaitFor([&] { return pub.getStats().tcp_links == kSubscribers; }));

  const uint64_t frames_before =
      ros::shim::frame_builds.load(std::memory_order_relaxed);
  const uint64_t descriptors_before =
      ros::shim::descriptor_builds.load(std::memory_order_relaxed);

  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(4096);
    pub.publish(*img);
  }
  ASSERT_TRUE(
      WaitFor([&] { return received.load() == kSubscribers * kMessages; }));

  EXPECT_EQ(ros::shim::frame_builds.load(std::memory_order_relaxed) -
                frames_before,
            static_cast<uint64_t>(kMessages));
  // No shm lane: the descriptor path must not even be attempted.
  EXPECT_EQ(ros::shim::descriptor_builds.load(std::memory_order_relaxed) -
                descriptors_before,
            0u);

  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kSubscribers * kMessages));
  EXPECT_EQ(stats.dropped, 0u);
}

/// A subscriber callback publishing on its own topic (inline intra
/// dispatch runs it on the publisher's thread, inside the fan-out loop):
/// the outer publish holds a reference on the lane array, not the lock,
/// so the reentrant publish must neither deadlock nor disturb the outer
/// fan-out.
TEST_F(TransportLaneTest, ReentrantPublishFromInlineCallback) {
  ros::NodeHandle node("reentrant");
  auto pub = node.advertise<Image>("/reentrant", 8);

  std::atomic<int> received{0};
  ros::Publisher* pub_ptr = &pub;
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = node.subscribe<Image>(
      "/reentrant", 8,
      std::function<void(const Image::ConstPtr&)>(
          [&, pub_ptr](const Image::ConstPtr&) {
            if (received.fetch_add(1) == 0) {
              auto again = Image::create();
              pub_ptr->publish(*again);  // reentrant: same publication
            }
          }),
      options);
  ASSERT_TRUE(WaitFor([&] { return pub.getStats().intra_links == 1; }));

  auto img = Image::create();
  pub.publish(*img);

  ASSERT_TRUE(WaitFor([&] { return received.load() == 2; }));
  EXPECT_EQ(pub.getStats().dropped, 0u);
}

/// A stalled shm subscriber (never acks) overflows the pin ledger: the
/// oldest pins are evicted drop-oldest, each eviction counted as a
/// publisher drop and in shim::shm_pin_evictions.
TEST_F(TransportLaneTest, PinLedgerEvictionCountsAsDrops) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  constexpr size_t kBytes = 48 * 1024;
  // queue_size 8 → max_pins = max(2*8, 64) = 64; 9 publishes past the
  // bound must evict exactly 9 pins.
  constexpr size_t kQueue = 8;
  constexpr size_t kMaxPins = 64;
  constexpr size_t kOverflow = 9;
  constexpr size_t kMessages = kMaxPins + kOverflow;

  auto publication = ros::Publication::Create(
      "/pin_evict", Image::DataType(), ros::TransportChecksum<Image>(),
      "pin_pub", kQueue, /*intra_capable=*/false);
  ASSERT_TRUE(publication.ok());
  auto pub = *publication;

  // A raw dialing client that completes the TCPROS handshake with an shm
  // request, drains descriptor frames off the socket, and never acks —
  // the stalled-subscriber half of DESIGN.md §12.4 row (f) without the
  // process kill.
  std::atomic<bool> granted{false};
  std::atomic<size_t> descriptors_received{0};
  auto ctrl_buf = std::make_shared<std::vector<uint8_t>>();

  rsf::net::Link::Callbacks callbacks;
  callbacks.make_handshake_request = [] {
    auto header = ros::MakeSubscriberHeader(
        "/pin_evict", Image::DataType(), ros::TransportChecksum<Image>(),
        "stalled_sub");
    ros::AddShmRequestFields(&header, ::getpid());
    return ros::EncodeConnectionHeader(header);
  };
  callbacks.on_handshake_reply = [&granted](const uint8_t* data,
                                            uint32_t length) {
    auto header = ros::DecodeConnectionHeader(data, length);
    if (!header.ok() || header->count("error") != 0) return false;
    const ros::ShmGrant grant =
        ros::ParseShmGrant(*header, sfm::shm::kMaxPeers);
    granted.store(grant.granted);
    return true;
  };
  callbacks.alloc = [ctrl_buf](uint32_t raw) -> uint8_t* {
    if (rsf::net::FrameTag(raw) != rsf::net::kFrameTagShmDescriptor) {
      return nullptr;  // only descriptors expected; anything else is a bug
    }
    ctrl_buf->resize(rsf::net::FrameLength(raw));
    return ctrl_buf->data();
  };
  callbacks.on_frame = [&descriptors_received](uint32_t) {
    descriptors_received.fetch_add(1);  // read, discard, NEVER ack
  };

  auto link = rsf::net::Link::Dial("127.0.0.1", pub->port(),
                                   rsf::net::Reactor::Get().NextLoop(),
                                   rsf::net::Link::Options{},
                                   std::move(callbacks));
  ASSERT_TRUE(WaitFor(
      [&] { return granted.load() && pub->Stats().shm_links == 1; }));

  const uint64_t evictions_before =
      ros::shim::shm_pin_evictions.load(std::memory_order_relaxed);

  for (size_t i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(kBytes);
    pub->Publish(ros::Serializer<Image>::ToWire(*img));
    // Pace against the client so the link queue never evicts — every drop
    // below must come from the pin ledger alone.
    ASSERT_TRUE(WaitFor([&] { return descriptors_received.load() > i; }));
  }

  const auto stats = pub->Stats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.shm_descriptors, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.dropped, static_cast<uint64_t>(kOverflow));
  EXPECT_EQ(ros::shim::shm_pin_evictions.load(std::memory_order_relaxed) -
                evictions_before,
            static_cast<uint64_t>(kOverflow));
  EXPECT_EQ(pub->SentCount(), static_cast<uint64_t>(kMaxPins));

  link->CloseSync();
  pub->Shutdown();
  ExpectNoLeakedBlocks();
}

// ---- fan-out membership and accounting ----

/// A scripted in-process subscriber endpoint.  `Shutdown` makes Deliver
/// refuse from then on — what a Subscription does when its shutdown races
/// a publish — so the publish itself must count the drop and cull the lane.
class ScriptedIntraLink final : public ros::IntraLinkBase {
 public:
  explicit ScriptedIntraLink(const Image* expected)
      : md5_(ros::TransportChecksum<Image>()), expected_(expected) {}

  bool Deliver(const void* message, ros::IntraTier) override {
    if (!alive_.load()) return false;
    const auto& handle = *static_cast<const Image::ConstPtr*>(message);
    if (handle.get() == expected_) delivered_.fetch_add(1);
    return true;
  }
  [[nodiscard]] bool alive() const noexcept override { return alive_.load(); }
  [[nodiscard]] const std::string& transport_md5() const noexcept override {
    return md5_;
  }
  [[nodiscard]] const std::string& callerid() const noexcept override {
    return md5_;
  }

  void Shutdown() { alive_.store(false); }
  [[nodiscard]] uint64_t delivered() const { return delivered_.load(); }

 private:
  const std::string md5_;
  const Image* const expected_;
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> delivered_{0};
};

/// A 64-way in-process fan-out where one subscriber shuts down between
/// publishes: the next publish counts its refused delivery as a drop and
/// culls the lane, later publishes skip it, and the batched counters
/// reconcile exactly (enqueued == intra_delivered + dropped).
TEST_F(TransportLaneTest, SubscriberShutdownBetweenPublishesIsCulled) {
  constexpr size_t kLinks = 64;
  constexpr size_t kVictim = 10;
  auto publication = ros::Publication::Create(
      "/cull_fanout", Image::DataType(), ros::TransportChecksum<Image>(),
      "cull_pub", 8, /*intra_capable=*/false);
  ASSERT_TRUE(publication.ok());
  auto pub = *publication;

  const Image::ConstPtr message = Image::create();
  std::vector<std::shared_ptr<ScriptedIntraLink>> links;
  for (size_t i = 0; i < kLinks; ++i) {
    links.push_back(std::make_shared<ScriptedIntraLink>(message.get()));
    ASSERT_TRUE(pub->AddIntraLink(links.back()).ok());
    pub->ActivateIntraLink(links.back().get());
  }
  ASSERT_EQ(pub->Stats().intra_links, kLinks);

  const auto publish = [&] {
    ros::PublishContext ctx;
    ctx.intra = &message;
    ctx.intra_tier = ros::IntraTier::kZeroCopy;
    pub->Publish(std::move(ctx));
  };
  publish();
  links[kVictim]->Shutdown();
  publish();  // the victim refuses: one drop, lane culled
  EXPECT_EQ(pub->Stats().intra_links, kLinks - 1);
  EXPECT_EQ(pub->NumSubscribers(), kLinks - 1);
  publish();  // culled: not even offered

  for (size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(links[i]->delivered(), i == kVictim ? 1u : 3u) << "link " << i;
  }
  const auto stats = pub->Stats();
  EXPECT_EQ(stats.enqueued, 2 * kLinks + (kLinks - 1));
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.intra_delivered, 3 * kLinks - 2);
  EXPECT_EQ(stats.intra_zero_copy, stats.intra_delivered);
  EXPECT_EQ(stats.intra_whole_copy, 0u);
  EXPECT_EQ(stats.enqueued, stats.intra_delivered + stats.dropped);
  pub->Shutdown();
}

/// An inline callback that subscribes a new subscriber during one
/// publish and unsubscribes an old one during the next: each publish
/// delivers to exactly the lanes it started with, and the publish after
/// it sees the new membership.
TEST_F(TransportLaneTest, MembershipChangeInsidePublishShowsNextPublish) {
  ros::NodeHandle node("churn_inline");
  auto pub = node.advertise<Image>("/churn_inline", 8);
  ros::SubscribeOptions options;
  options.inline_dispatch = true;

  std::atomic<int> first{0};
  std::atomic<int> middle{0};
  std::atomic<int> last{0};
  std::atomic<int> joined{0};
  const auto counter = [](std::atomic<int>* count) {
    return std::function<void(const Image::ConstPtr&)>(
        [count](const Image::ConstPtr&) { count->fetch_add(1); });
  };
  // Lanes are offered in activation order: first, middle, last.
  ros::Subscriber first_sub =
      node.subscribe<Image>("/churn_inline", 8, counter(&first), options);
  ros::Subscriber joined_sub;
  ros::Subscriber middle_sub = node.subscribe<Image>(
      "/churn_inline", 8,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr&) {
            const int seen = middle.fetch_add(1);
            if (seen == 0) {
              joined_sub = node.subscribe<Image>("/churn_inline", 8,
                                                 counter(&joined), options);
            } else if (seen == 1) {
              first_sub.shutdown();  // already delivered to this publish
            }
          }),
      options);
  ros::Subscriber last_sub =
      node.subscribe<Image>("/churn_inline", 8, counter(&last), options);
  ASSERT_EQ(pub.getStats().intra_links, 3u);

  const auto expect_counts = [&](int f, int m, int l, int j) {
    EXPECT_EQ(first.load(), f);
    EXPECT_EQ(middle.load(), m);
    EXPECT_EQ(last.load(), l);
    EXPECT_EQ(joined.load(), j);
  };
  pub.publish(Image::ConstPtr(Image::create()));  // middle subscribes
  expect_counts(1, 1, 1, 0);
  EXPECT_EQ(pub.getStats().enqueued, 3u);
  EXPECT_EQ(pub.getStats().intra_links, 4u);

  pub.publish(Image::ConstPtr(Image::create()));  // middle unsubscribes first
  expect_counts(2, 2, 2, 1);
  EXPECT_EQ(pub.getStats().enqueued, 7u);
  EXPECT_EQ(pub.getStats().intra_links, 3u);

  pub.publish(Image::ConstPtr(Image::create()));
  expect_counts(2, 3, 3, 2);
  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued, 10u);
  EXPECT_EQ(stats.intra_delivered, 10u);
  EXPECT_EQ(stats.dropped, 0u);
}

/// A 64-way inline fan-out through real subscriptions where one callback
/// drops the only handle to its own subscription mid-publish: the publish
/// in flight keeps that subscription alive until the fan-out returns, the
/// later lanes of that publish still deliver, and the next publish no
/// longer offers the lane (unhooked, not culled: no drop).  Under ASan
/// this is also the use-after-free check for the strong lane ownership.
TEST_F(TransportLaneTest, LastHandleDroppedInsideOwnCallback) {
  constexpr size_t kLanes = 64;
  constexpr size_t kVictim = 10;
  ros::NodeHandle node("self_drop");
  auto pub = node.advertise<Image>("/self_drop", 8);
  ros::SubscribeOptions options;
  options.inline_dispatch = true;

  std::vector<std::atomic<uint64_t>> counts(kLanes);
  std::vector<ros::Subscriber> subs(kLanes);
  for (size_t i = 0; i < kLanes; ++i) {
    subs[i] = node.subscribe<Image>(
        "/self_drop", 8,
        std::function<void(const Image::ConstPtr&)>(
            [&counts, &subs, i](const Image::ConstPtr&) {
              // The victim drops its own subscription, then still reads
              // its captures: the callback must outlive its last handle.
              if (i == kVictim) subs[i] = ros::Subscriber();
              counts[i].fetch_add(1);
            }),
        options);
  }
  ASSERT_EQ(pub.getStats().intra_links, kLanes);

  pub.publish(Image::ConstPtr(Image::create()));  // the victim drops itself
  EXPECT_FALSE(subs[kVictim].valid());
  EXPECT_EQ(pub.getNumSubscribers(), kLanes - 1);
  pub.publish(Image::ConstPtr(Image::create()));  // lane gone: not offered

  for (size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(counts[i].load(), i == kVictim ? 1u : 2u) << "lane " << i;
  }
  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued, 2 * kLanes - 1);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.enqueued, stats.intra_delivered + stats.dropped);
  EXPECT_EQ(stats.intra_links, kLanes - 1);
}

/// How a transient subscriber leaves in RunPublishersAgainstChurn.
enum class Leave { kShutdownCall, kHandleScope };

/// Four publisher threads against continuous subscribe/unsubscribe churn:
/// subscribers present throughout see every publish exactly once, and
/// every delivery the publisher counted reached exactly one callback.
void RunPublishersAgainstChurn(const std::string& topic, Leave leave) {
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 1000;
  constexpr int kSteady = 8;

  ros::NodeHandle node("churn_threads");
  auto pub = node.advertise<Image>(topic, 8);
  ros::SubscribeOptions options;
  options.inline_dispatch = true;

  // The callback count of every subscriber ever made; the counters are
  // shared with the callbacks, so they outlive the transient handles.
  std::vector<std::shared_ptr<std::atomic<uint64_t>>> counts;
  const auto subscribe = [&] {
    auto count = std::make_shared<std::atomic<uint64_t>>(0);
    counts.push_back(count);
    return node.subscribe<Image>(
        topic, 8,
        std::function<void(const Image::ConstPtr&)>(
            [count](const Image::ConstPtr&) { count->fetch_add(1); }),
        options);
  };
  std::vector<ros::Subscriber> steady;
  for (int i = 0; i < kSteady; ++i) steady.push_back(subscribe());
  ASSERT_EQ(pub.getStats().intra_links, static_cast<size_t>(kSteady));

  std::atomic<int> running{kPublishers};
  std::vector<std::thread> publishers;
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&] {
      for (int i = 0; i < kPerPublisher; ++i) {
        pub.publish(Image::ConstPtr(Image::create()));
      }
      running.fetch_sub(1);
    });
  }
  int churned = 0;
  while (running.load() > 0) {
    {
      ros::Subscriber transient = subscribe();
      std::this_thread::yield();
      if (leave == Leave::kShutdownCall) transient.shutdown();
    }  // kHandleScope: the last handle leaves scope here
    ++churned;
  }
  for (auto& thread : publishers) thread.join();

  for (int i = 0; i < kSteady; ++i) {
    EXPECT_EQ(counts[i]->load(),
              static_cast<uint64_t>(kPublishers * kPerPublisher))
        << "steady subscriber " << i;
  }
  uint64_t callbacks = 0;
  for (const auto& count : counts) callbacks += count->load();
  const auto stats = pub.getStats();
  EXPECT_EQ(stats.intra_delivered, callbacks);
  EXPECT_EQ(stats.intra_zero_copy, callbacks);
  EXPECT_EQ(stats.enqueued, stats.intra_delivered + stats.dropped);
  EXPECT_EQ(stats.intra_links, static_cast<size_t>(kSteady));
  EXPECT_GT(churned, 0);
}

/// Transient subscribers leave through an explicit shutdown().  Runs under
/// TSan in CI (the suite is in the tsan regexes).
TEST_F(TransportLaneTest, ConcurrentPublishersAgainstSubscribeChurn) {
  RunPublishersAgainstChurn("/churn_threads", Leave::kShutdownCall);
}

/// Transient subscribers leave by their last handle going out of scope:
/// the handle's Shutdown-running owner must give the same exact counts.
TEST_F(TransportLaneTest, ConcurrentPublishersAgainstHandleScopeChurn) {
  RunPublishersAgainstChurn("/churn_scope", Leave::kHandleScope);
}

}  // namespace
