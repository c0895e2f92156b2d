// Tests for the UDP-multicast transport tier (DESIGN.md §14): the chunk /
// control / repair codecs, the McastRxEngine reassembly + NACK state
// machine (driven through its hooks, no sockets), the LanePolicy mcast
// negotiation rows, the connection_header request/grant helpers' negative
// paths (shm AND mcast — a malformed grant must degrade to TCP, never a
// bad join), and the middleware-level behaviour: end-to-end delivery,
// the O(chunks)-not-O(subscribers) datagram proof at a 64-way fan-out,
// loss-injected NACK/repair recovery, and dead-subscriber eviction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "net/framing.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/udp.h"
#include "paper_msgs/sfm/Image.h"
#include "ros/mcast_transport.h"
#include "ros/ros.h"
#include "ros/transport_lane.h"
#include "std_msgs/String.h"

namespace {

using Image = paper_msgs::sfm::Image;
using ros::LanePolicy;
using ros::McastChunkHeader;
using ros::McastControlKind;

bool WaitFor(const std::function<bool()>& predicate,
             uint64_t timeout_nanos = 5'000'000'000ull) {
  const uint64_t deadline = rsf::MonotonicNanos() + timeout_nanos;
  while (rsf::MonotonicNanos() < deadline) {
    if (predicate()) return true;
    rsf::SleepForNanos(1'000'000);
  }
  return predicate();
}

/// Scoped setenv/unsetenv (the CI mcast job exports RSF_TRANSPORT_MCAST=1
/// for the whole suite — tests that need the tier OFF must override it).
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

// ---- codecs ----

TEST(McastCodecTest, ChunkHeaderRoundTrips) {
  const McastChunkHeader in{/*seq=*/0x0102030405060708ull, /*index=*/2,
                            /*count=*/3,
                            /*frame_len=*/2 * ros::kMcastChunkPayload + 17};
  uint8_t wire[ros::kMcastChunkHeaderSize];
  ros::EncodeMcastChunkHeader(wire, in);
  McastChunkHeader out;
  ASSERT_TRUE(ros::DecodeMcastChunkHeader(wire, sizeof(wire), &out));
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.index, in.index);
  EXPECT_EQ(out.count, in.count);
  EXPECT_EQ(out.frame_len, in.frame_len);
}

TEST(McastCodecTest, ChunkHeaderRejectsMalformed) {
  uint8_t wire[ros::kMcastChunkHeaderSize];
  McastChunkHeader out;

  // Truncated datagram.
  ros::EncodeMcastChunkHeader(wire, {1, 0, 1, 64});
  EXPECT_FALSE(
      ros::DecodeMcastChunkHeader(wire, ros::kMcastChunkHeaderSize - 1, &out));

  // Zero chunk count.
  ros::EncodeMcastChunkHeader(wire, {1, 0, 0, 64});
  EXPECT_FALSE(ros::DecodeMcastChunkHeader(wire, sizeof(wire), &out));

  // Index out of range.
  ros::EncodeMcastChunkHeader(wire, {1, 2, 2, 64});
  EXPECT_FALSE(ros::DecodeMcastChunkHeader(wire, sizeof(wire), &out));

  // Count inconsistent with the frame length's chunking (64 bytes is one
  // chunk, never two).
  ros::EncodeMcastChunkHeader(wire, {1, 0, 2, 64});
  EXPECT_FALSE(ros::DecodeMcastChunkHeader(wire, sizeof(wire), &out));

  // A zero-length frame still takes exactly one header-only chunk.
  ros::EncodeMcastChunkHeader(wire, {1, 0, 1, 0});
  EXPECT_TRUE(ros::DecodeMcastChunkHeader(wire, sizeof(wire), &out));
}

TEST(McastCodecTest, ControlFrameRoundTripsEveryKind) {
  for (const auto kind : {McastControlKind::kNack, McastControlKind::kAck,
                          McastControlKind::kLeave}) {
    auto frame = ros::EncodeMcastControlFrame(kind, 7, 11);
    McastControlKind out_kind;
    uint64_t lo = 0;
    uint64_t hi = 0;
    ASSERT_TRUE(ros::DecodeMcastControl(frame.get(), ros::kMcastControlSize,
                                        &out_kind, &lo, &hi));
    EXPECT_EQ(out_kind, kind);
    EXPECT_EQ(lo, 7u);
    EXPECT_EQ(hi, 11u);
  }
}

TEST(McastCodecTest, ControlFrameRejectsMalformed) {
  auto frame = ros::EncodeMcastControlFrame(McastControlKind::kNack, 1, 2);
  McastControlKind kind;
  uint64_t lo = 0;
  uint64_t hi = 0;

  // Wrong size (both directions).
  EXPECT_FALSE(ros::DecodeMcastControl(frame.get(),
                                       ros::kMcastControlSize - 1, &kind, &lo,
                                       &hi));
  EXPECT_FALSE(ros::DecodeMcastControl(frame.get(),
                                       ros::kMcastControlSize + 1, &kind, &lo,
                                       &hi));

  // Corrupted magic.
  std::vector<uint8_t> bad(frame.get(), frame.get() + ros::kMcastControlSize);
  bad[0] ^= 0xFF;
  EXPECT_FALSE(ros::DecodeMcastControl(bad.data(), bad.size(), &kind, &lo,
                                       &hi));

  // Unknown kind byte.
  bad.assign(frame.get(), frame.get() + ros::kMcastControlSize);
  bad[4] = 3;
  EXPECT_FALSE(ros::DecodeMcastControl(bad.data(), bad.size(), &kind, &lo,
                                       &hi));
}

TEST(McastCodecTest, RepairFrameCarriesPayloadOrGone) {
  const uint8_t payload[5] = {1, 2, 3, 4, 5};
  auto repair = ros::EncodeMcastRepairFrame(42, payload, sizeof(payload));
  EXPECT_EQ(rsf::LoadLE<uint64_t>(repair.get()), 42u);
  EXPECT_EQ(std::memcmp(repair.get() + ros::kMcastRepairHeaderSize, payload,
                        sizeof(payload)),
            0);

  // Null payload builds the 8-byte "gone" form — only the seq.
  auto gone = ros::EncodeMcastRepairFrame(43, nullptr, 0);
  EXPECT_EQ(rsf::LoadLE<uint64_t>(gone.get()), 43u);
}

// ---- McastRxEngine: the reassembly + gap-recovery state machine ----

/// Drives the engine through its hooks alone: per-seq buffers stand in for
/// the arena, vectors record completes/abandons/control frames, and the
/// timer queue is fired by hand.
struct EngineHarness {
  std::unordered_map<uint64_t, std::vector<uint8_t>> buffers;
  std::vector<uint64_t> completed;
  std::vector<uint64_t> abandoned;
  std::vector<std::tuple<McastControlKind, uint64_t, uint64_t>> controls;
  size_t timers_armed = 0;
  std::unique_ptr<ros::McastRxEngine> engine;

  explicit EngineHarness(uint64_t first_seq) {
    ros::McastRxEngine::Hooks hooks;
    hooks.alloc = [this](uint64_t seq, uint32_t frame_len) -> uint8_t* {
      auto& buf = buffers[seq];
      buf.resize(frame_len > 0 ? frame_len : 1);
      return buf.data();
    };
    hooks.complete = [this](uint64_t seq, uint32_t) {
      completed.push_back(seq);
    };
    hooks.abandon = [this](uint64_t seq) {
      abandoned.push_back(seq);
      buffers.erase(seq);
    };
    hooks.send_control = [this](McastControlKind kind, uint64_t lo,
                                uint64_t hi) {
      controls.emplace_back(kind, lo, hi);
    };
    hooks.schedule = [this](uint64_t, std::function<void()>) {
      ++timers_armed;  // tests fire OnNackTimer directly
    };
    engine = std::make_unique<ros::McastRxEngine>(first_seq, 1,
                                                  std::move(hooks));
  }

  /// Feeds one whole single-chunk frame; returns false if the engine
  /// rejected it (stale / duplicate).
  bool FeedWhole(uint64_t seq, uint32_t frame_len = 64) {
    const McastChunkHeader header{seq, 0, 1, frame_len};
    uint8_t* dest = engine->ChunkDestination(header);
    if (dest == nullptr) return false;
    engine->CommitChunk(header);
    return true;
  }

  size_t NackCount() const {
    size_t count = 0;
    for (const auto& [kind, lo, hi] : controls) {
      if (kind == McastControlKind::kNack) ++count;
    }
    return count;
  }
};

TEST(McastRxEngineTest, InOrderStreamDeliversAndAcksOnCadence) {
  EngineHarness h(/*first_seq=*/1);
  for (uint64_t seq = 1; seq <= 2 * ros::kMcastAckInterval; ++seq) {
    EXPECT_TRUE(h.FeedWhole(seq));
  }
  ASSERT_EQ(h.completed.size(), 2 * ros::kMcastAckInterval);
  EXPECT_EQ(h.engine->contig(), 2 * ros::kMcastAckInterval);
  EXPECT_FALSE(h.engine->has_gaps());
  EXPECT_EQ(h.NackCount(), 0u);
  EXPECT_EQ(h.abandoned.size(), 0u);
  // Cumulative acks at every kMcastAckInterval messages of progress.
  ASSERT_EQ(h.controls.size(), 2u);
  EXPECT_EQ(std::get<0>(h.controls[0]), McastControlKind::kAck);
  EXPECT_EQ(std::get<1>(h.controls[0]), ros::kMcastAckInterval);
  EXPECT_EQ(std::get<1>(h.controls[1]), 2 * ros::kMcastAckInterval);
}

TEST(McastRxEngineTest, MultiChunkFrameReassemblesAtOffsets) {
  EngineHarness h(1);
  const uint32_t frame_len = ros::kMcastChunkPayload + 100;
  const McastChunkHeader c0{1, 0, 2, frame_len};
  const McastChunkHeader c1{1, 1, 2, frame_len};

  uint8_t* d1 = h.engine->ChunkDestination(c1);  // chunks arrive reordered
  ASSERT_NE(d1, nullptr);
  h.engine->CommitChunk(c1);
  EXPECT_TRUE(h.completed.empty());  // half a frame is not a message

  uint8_t* d0 = h.engine->ChunkDestination(c0);
  ASSERT_NE(d0, nullptr);
  // Both chunks land in ONE buffer at their chunk offsets — the arena
  // destination, not per-chunk staging.
  EXPECT_EQ(d0, h.buffers[1].data());
  EXPECT_EQ(d1, d0 + ros::kMcastChunkPayload);
  h.engine->CommitChunk(c0);
  ASSERT_EQ(h.completed, std::vector<uint64_t>{1});
  EXPECT_EQ(h.engine->contig(), 1u);
}

TEST(McastRxEngineTest, RejectsStaleDuplicateAndMismatchedChunks) {
  EngineHarness h(1);
  EXPECT_TRUE(h.FeedWhole(1));

  // Stale: seq already resolved.
  EXPECT_FALSE(h.FeedWhole(1));

  // Duplicate chunk of an open partial.
  const uint32_t frame_len = ros::kMcastChunkPayload + 1;
  const McastChunkHeader c0{2, 0, 2, frame_len};
  ASSERT_NE(h.engine->ChunkDestination(c0), nullptr);
  h.engine->CommitChunk(c0);
  EXPECT_EQ(h.engine->ChunkDestination(c0), nullptr);

  // Geometry disagreeing with the first-seen chunk (cross-talk).
  const McastChunkHeader liar{2, 1, 2, frame_len + 7};
  EXPECT_EQ(h.engine->ChunkDestination(liar), nullptr);
}

TEST(McastRxEngineTest, ForwardJumpNacksTheExposedGapImmediately) {
  EngineHarness h(1);
  EXPECT_TRUE(h.FeedWhole(1));
  EXPECT_TRUE(h.FeedWhole(4));  // 2 and 3 wholly missed
  ASSERT_EQ(h.NackCount(), 1u);
  const auto& [kind, lo, hi] = h.controls.back();
  EXPECT_EQ(kind, McastControlKind::kNack);
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 3u);
  EXPECT_TRUE(h.engine->has_gaps());
  EXPECT_GE(h.timers_armed, 1u);  // tail-loss timer armed while gaps remain
  EXPECT_EQ(h.engine->contig(), 1u);
}

TEST(McastRxEngineTest, RepairFillsTheGapAndAdvancesContig) {
  EngineHarness h(1);
  EXPECT_TRUE(h.FeedWhole(1));
  EXPECT_TRUE(h.FeedWhole(3));

  std::vector<uint8_t> frame(64, 0xAB);
  h.engine->OnRepair(2, frame.data(), static_cast<uint32_t>(frame.size()));
  EXPECT_EQ(h.completed, (std::vector<uint64_t>{1, 3, 2}));
  EXPECT_EQ(h.engine->contig(), 3u);
  EXPECT_FALSE(h.engine->has_gaps());
  EXPECT_EQ(h.buffers[2][0], 0xAB);
  EXPECT_EQ(h.engine->abandoned(), 0u);
}

TEST(McastRxEngineTest, GoneRepairResolvesWithoutDelivery) {
  EngineHarness h(1);
  EXPECT_TRUE(h.FeedWhole(1));
  EXPECT_TRUE(h.FeedWhole(3));

  h.engine->OnRepair(2, nullptr, 0);  // fell off the publisher's ring
  EXPECT_EQ(h.completed, (std::vector<uint64_t>{1, 3}));  // 2 never delivers
  EXPECT_EQ(h.engine->contig(), 3u);
  EXPECT_EQ(h.engine->abandoned(), 1u);
}

TEST(McastRxEngineTest, TimerRenacksThenExhaustionGivesTheSeqUp) {
  EngineHarness h(1);
  EXPECT_TRUE(h.FeedWhole(1));
  EXPECT_TRUE(h.FeedWhole(3));
  const size_t jump_nacks = h.NackCount();

  // Every timer fire re-NACKs the hole, up to the retry limit...
  for (int attempt = 0; attempt < ros::kMcastNackRetryLimit; ++attempt) {
    h.engine->OnNackTimer();
    EXPECT_EQ(h.NackCount(), jump_nacks + attempt + 1);
    EXPECT_EQ(h.engine->contig(), 1u);
  }
  // ...then the next fire abandons it so the stream moves on.
  h.engine->OnNackTimer();
  EXPECT_EQ(h.engine->contig(), 3u);
  EXPECT_EQ(h.engine->abandoned(), 1u);
  EXPECT_FALSE(h.engine->has_gaps());

  // A partially-received frame counts too: its buffer must be released.
  const uint32_t frame_len = ros::kMcastChunkPayload + 1;
  const McastChunkHeader c0{5, 0, 2, frame_len};
  ASSERT_NE(h.engine->ChunkDestination(c0), nullptr);
  h.engine->CommitChunk(c0);  // 4 wholly missed, 5 half-received
  for (int attempt = 0; attempt <= ros::kMcastNackRetryLimit; ++attempt) {
    h.engine->OnNackTimer();
  }
  EXPECT_EQ(h.engine->contig(), 5u);
  EXPECT_EQ(h.abandoned, std::vector<uint64_t>{5});
  EXPECT_EQ(h.engine->abandoned(), 3u);
}

TEST(McastRxEngineTest, HugeGapClampsToMaxNackSpan) {
  EngineHarness h(1);
  EXPECT_TRUE(h.FeedWhole(1));
  const uint64_t far = 1 + ros::kMcastMaxNackSpan + 50;
  EXPECT_TRUE(h.FeedWhole(far));
  // Only the newest kMcastMaxNackSpan seqs are worth asking for; the rest
  // resolve as gone locally.
  ASSERT_EQ(h.NackCount(), 1u);
  const auto& [kind, lo, hi] = h.controls.back();
  EXPECT_EQ(hi, far - 1);
  EXPECT_EQ(lo, far - ros::kMcastMaxNackSpan);
  EXPECT_EQ(h.engine->abandoned(), 49u);
  EXPECT_EQ(h.engine->contig(), 50u);
}

// ---- LanePolicy: the mcast negotiation rows ----

LanePolicy::SubscriberSide McastEligible() {
  LanePolicy::SubscriberSide side;
  side.co_located = false;
  side.serialization_free = false;  // mcast carries ANY serialized payload
  side.allow_mcast = true;
  side.mcast_enabled = true;
  side.shaped = false;
  side.loopback = true;
  return side;
}

TEST(LanePolicyTest, McastRequestNeedsEveryCondition) {
  EXPECT_EQ(LanePolicy::PlanSubscriber(McastEligible()),
            LanePolicy::Plan::kTcpRequestMcast);
  {
    auto side = McastEligible();
    side.allow_mcast = false;  // SubscribeOptions opt-out
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
  {
    auto side = McastEligible();
    side.mcast_enabled = false;  // RSF_TRANSPORT_MCAST off
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
  {
    auto side = McastEligible();
    side.shaped = true;  // a shaped link models a remote machine
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
  {
    auto side = McastEligible();
    side.loopback = false;  // non-loopback endpoint
    EXPECT_EQ(LanePolicy::PlanSubscriber(side), LanePolicy::Plan::kTcp);
  }
}

TEST(LanePolicyTest, ShmPlanOutranksMcast) {
  // An SFM subscriber with both tiers available asks for shm: descriptors
  // already cross zero-copy, the group would add nothing.
  auto side = McastEligible();
  side.serialization_free = true;
  side.allow_shm = true;
  side.shm_enabled = true;
  EXPECT_EQ(LanePolicy::PlanSubscriber(side),
            LanePolicy::Plan::kTcpRequestShm);
  // Unless the shm tier is off — then mcast is the best remaining ask.
  side.shm_enabled = false;
  EXPECT_EQ(LanePolicy::PlanSubscriber(side),
            LanePolicy::Plan::kTcpRequestMcast);
}

TEST(LanePolicyTest, GrantMcastTierMatrix) {
  LanePolicy::McastPublisherSide side;
  EXPECT_EQ(LanePolicy::GrantMcastTier(side),
            LanePolicy::McastGrant::kTcpNotRequested);

  side.mcast_requested = true;
  EXPECT_EQ(LanePolicy::GrantMcastTier(side),
            LanePolicy::McastGrant::kTcpTierDisabled);

  side.mcast_enabled = true;
  side.shm_negotiated = true;  // shm already covers this link
  EXPECT_EQ(LanePolicy::GrantMcastTier(side),
            LanePolicy::McastGrant::kTcpShmWins);

  side.shm_negotiated = false;
  EXPECT_EQ(LanePolicy::GrantMcastTier(side),
            LanePolicy::McastGrant::kTcpBelowThreshold);

  side.above_threshold = true;
  EXPECT_EQ(LanePolicy::GrantMcastTier(side),
            LanePolicy::McastGrant::kTcpNoGroup);

  side.group_ready = true;
  EXPECT_EQ(LanePolicy::GrantMcastTier(side), LanePolicy::McastGrant::kMcast);
}

TEST(LanePolicyTest, McastSenderCreationGatedOnEveryPrecondition) {
  // EnsureMcastSender (probe + socket) is the only side-effecting step; it
  // must not run unless the grant could actually happen.
  LanePolicy::McastPublisherSide side;
  side.mcast_requested = true;
  side.mcast_enabled = true;
  side.above_threshold = true;
  EXPECT_TRUE(LanePolicy::ShouldAttemptMcast(side));
  side.shm_negotiated = true;
  EXPECT_FALSE(LanePolicy::ShouldAttemptMcast(side));
  side.shm_negotiated = false;
  side.above_threshold = false;
  EXPECT_FALSE(LanePolicy::ShouldAttemptMcast(side));
  side.above_threshold = true;
  side.mcast_enabled = false;
  EXPECT_FALSE(LanePolicy::ShouldAttemptMcast(side));
  side.mcast_enabled = true;
  side.mcast_requested = false;
  EXPECT_FALSE(LanePolicy::ShouldAttemptMcast(side));
}

// ---- connection_header: request/grant helpers, negative paths ----

TEST(ConnectionHeaderTest, ShmRequestParsesOnlyCompleteFields) {
  ros::ConnectionHeader header;
  EXPECT_FALSE(ros::ParseShmRequest(header).requested);  // absent

  header["shm"] = "1";
  {
    const auto req = ros::ParseShmRequest(header);
    EXPECT_TRUE(req.requested);
    EXPECT_FALSE(req.pid_known);  // no pid field
  }
  header["shm_pid"] = "not_a_pid";
  EXPECT_FALSE(ros::ParseShmRequest(header).pid_known);

  header["shm_pid"] = std::to_string(::getpid());
  {
    const auto req = ros::ParseShmRequest(header);
    EXPECT_TRUE(req.requested);
    EXPECT_TRUE(req.pid_known);
    EXPECT_EQ(req.pid, ::getpid());
  }

  header["shm"] = "0";  // explicit opt-out beats a stray pid field
  EXPECT_FALSE(ros::ParseShmRequest(header).requested);
}

TEST(ConnectionHeaderTest, ShmGrantRejectsEveryMalformedShape) {
  constexpr size_t kMaxSlots = 8;
  ros::ConnectionHeader reply;
  EXPECT_FALSE(ros::ParseShmGrant(reply, kMaxSlots).granted);  // absent

  reply["shm"] = "1";
  EXPECT_FALSE(ros::ParseShmGrant(reply, kMaxSlots).granted);  // no ns/slot

  reply["shm_ns"] = "/rsf_pool";
  EXPECT_FALSE(ros::ParseShmGrant(reply, kMaxSlots).granted);  // no slot

  reply["shm_slot"] = "banana";
  EXPECT_FALSE(ros::ParseShmGrant(reply, kMaxSlots).granted);

  reply["shm_slot"] = "-1";
  EXPECT_FALSE(ros::ParseShmGrant(reply, kMaxSlots).granted);

  reply["shm_slot"] = std::to_string(kMaxSlots);  // one past the last slot
  EXPECT_FALSE(ros::ParseShmGrant(reply, kMaxSlots).granted);

  reply["shm_slot"] = "3";
  {
    const auto grant = ros::ParseShmGrant(reply, kMaxSlots);
    EXPECT_TRUE(grant.granted);
    EXPECT_EQ(grant.ns, "/rsf_pool");
    EXPECT_EQ(grant.slot, 3);
  }

  reply["shm_ns"] = "";  // empty namespace
  EXPECT_FALSE(ros::ParseShmGrant(reply, kMaxSlots).granted);
}

TEST(ConnectionHeaderTest, McastRequestRoundTrips) {
  ros::ConnectionHeader header;
  EXPECT_FALSE(ros::ParseMcastRequest(header).requested);  // absent

  ros::AddMcastRequestFields(&header);
  EXPECT_TRUE(ros::ParseMcastRequest(header).requested);

  header["mcast"] = "0";
  EXPECT_FALSE(ros::ParseMcastRequest(header).requested);
}

TEST(ConnectionHeaderTest, RingFieldRoundTrips) {
  ros::ConnectionHeader header;
  EXPECT_FALSE(ros::HasRingField(header));  // absent
  ros::AddRingField(&header);
  EXPECT_TRUE(ros::HasRingField(header));
  header["ring"] = "0";
  EXPECT_FALSE(ros::HasRingField(header));
}

TEST(ConnectionHeaderTest, McastGrantRoundTrips) {
  ros::ConnectionHeader reply;
  ros::AddMcastGrantFields(&reply, "239.255.1.2", 45678, 17);
  const auto grant = ros::ParseMcastGrant(reply);
  ASSERT_TRUE(grant.granted);
  EXPECT_EQ(grant.group, "239.255.1.2");
  EXPECT_EQ(grant.port, 45678);
  EXPECT_EQ(grant.first_seq, 17u);
}

TEST(ConnectionHeaderTest, McastGrantRejectsEveryMalformedShape) {
  const auto rejected = [](ros::ConnectionHeader reply) {
    return !ros::ParseMcastGrant(reply).granted;
  };
  ros::ConnectionHeader good;
  ros::AddMcastGrantFields(&good, "239.255.1.2", 45678, 17);

  EXPECT_TRUE(rejected({}));  // absent entirely

  {
    auto reply = good;
    reply.erase("mcast_group");
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply["mcast_group"] = "10.1.2.3";  // unicast: joining would be a bug
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply["mcast_group"] = "not.an.ip";
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply.erase("mcast_port");
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply["mcast_port"] = "0";
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply["mcast_port"] = "70000";  // past uint16
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply["mcast_port"] = "45678x";  // trailing garbage
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply.erase("mcast_seq");
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply["mcast_seq"] = "12abc";
    EXPECT_TRUE(rejected(reply));
  }
  {
    auto reply = good;
    reply["mcast"] = "0";  // grant flag off beats well-formed fields
    EXPECT_TRUE(rejected(reply));
  }
}

// ---- middleware-level mcast behaviour ----

class McastMiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!rsf::net::MulticastLoopbackProbe()) {
      GTEST_SKIP() << "loopback multicast unavailable in this environment";
    }
  }
  void TearDown() override { ros::master().Reset(); }
};

ros::SubscribeOptions WireMcastOptions() {
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire
  options.allow_shm = false;
  return options;
}

/// One publisher, a handful of mcast subscribers: every publish reaches
/// every subscriber through the group, intact.
TEST_F(McastMiddlewareTest, DeliversEndToEndThroughTheGroup) {
  ScopedEnv mcast_on("RSF_TRANSPORT_MCAST", "1");
  ScopedEnv low_bar("RSF_MCAST_MIN_SUBS", "1");
  constexpr int kSubscribers = 3;
  constexpr int kMessages = 20;
  constexpr size_t kBytes = 61 * 1024;  // > one chunk: reassembly on path

  ros::NodeHandle pub_node("mcast_pub");
  ros::NodeHandle sub_node("mcast_sub");
  auto pub = pub_node.advertise<Image>("/mcast_e2e", 8);

  std::atomic<int> received{0};
  std::atomic<int> payload_errors{0};
  std::vector<ros::Subscriber> subs;
  subs.reserve(kSubscribers);
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(sub_node.subscribe<Image>(
        "/mcast_e2e", 64,
        std::function<void(const Image::ConstPtr&)>(
            [&](const Image::ConstPtr& img) {
              if (img->data.size() != kBytes || img->data[0] != 0x5A ||
                  img->data[kBytes - 1] != 0xA5) {
                payload_errors.fetch_add(1);
              }
              received.fetch_add(1);
            }),
        WireMcastOptions()));
  }
  ASSERT_TRUE(WaitFor([&] {
    return pub.getStats().mcast_links == kSubscribers;
  })) << "mcast links: " << pub.getStats().mcast_links;

  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(kBytes);
    img->data[0] = 0x5A;
    img->data[kBytes - 1] = 0xA5;
    pub.publish(*img);
  }
  ASSERT_TRUE(
      WaitFor([&] { return received.load() == kSubscribers * kMessages; }))
      << "received " << received.load() << " of "
      << kSubscribers * kMessages;
  EXPECT_EQ(payload_errors.load(), 0);

  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued,
            static_cast<uint64_t>(kSubscribers * kMessages));
  EXPECT_EQ(stats.dropped, 0u);
}

/// The tentpole proof: at a 64-subscriber fan-out a publish still builds
/// ONE frame and sends O(chunks) datagrams — not O(subscribers) writes.
TEST_F(McastMiddlewareTest, SerializeOnceAndChunkBurstAt64WayFanout) {
  ScopedEnv mcast_on("RSF_TRANSPORT_MCAST", "1");
  ScopedEnv low_bar("RSF_MCAST_MIN_SUBS", "1");
  constexpr int kSubscribers = 64;
  constexpr int kMessages = 5;
  constexpr size_t kBytes = 61 * 1024;

  ros::NodeHandle pub_node("mcast_wide_pub");
  ros::NodeHandle sub_node("mcast_wide_sub");
  auto pub = pub_node.advertise<Image>("/mcast_wide", 8);

  std::atomic<int> received{0};
  std::vector<ros::Subscriber> subs;
  subs.reserve(kSubscribers);
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(sub_node.subscribe<Image>(
        "/mcast_wide", 64,
        std::function<void(const Image::ConstPtr&)>(
            [&](const Image::ConstPtr&) { received.fetch_add(1); }),
        WireMcastOptions()));
  }
  ASSERT_TRUE(WaitFor([&] {
    return pub.getStats().mcast_links == kSubscribers;
  })) << "mcast links: " << pub.getStats().mcast_links;

  const uint64_t frames_before =
      ros::shim::frame_builds.load(std::memory_order_relaxed);
  const uint64_t datagrams_before =
      ros::shim::mcast_datagrams_sent.load(std::memory_order_relaxed);
  const uint64_t syscalls_before = rsf::net::McastSendSyscallCount();

  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(kBytes);
    pub.publish(*img);
  }
  ASSERT_TRUE(
      WaitFor([&] { return received.load() == kSubscribers * kMessages; },
              20'000'000'000ull))
      << "received " << received.load() << " of "
      << kSubscribers * kMessages;

  EXPECT_EQ(ros::shim::frame_builds.load(std::memory_order_relaxed) -
                frames_before,
            static_cast<uint64_t>(kMessages));
  const uint64_t datagrams =
      ros::shim::mcast_datagrams_sent.load(std::memory_order_relaxed) -
      datagrams_before;
  // A ~100KiB frame chunks into a handful of ≤60KiB datagrams.  The burst
  // is identical per publish and NEVER scales with the subscriber count:
  // 64 subscribers, O(chunks) sends.
  ASSERT_EQ(datagrams % kMessages, 0u);
  const uint64_t chunks_per_publish = datagrams / kMessages;
  EXPECT_GE(chunks_per_publish, 2u);  // the payload exceeds one chunk
  EXPECT_LE(chunks_per_publish, 4u)
      << "datagrams per publish should be frame_len/60KiB, got "
      << chunks_per_publish;
  // Every counted datagram really was one sendmsg on the group socket.
  EXPECT_EQ(rsf::net::McastSendSyscallCount() - syscalls_before, datagrams);

  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued,
            static_cast<uint64_t>(kSubscribers * kMessages));
  EXPECT_EQ(stats.dropped, 0u);
}

/// Chaos: 10% of datagrams injected-dropped before the wire.  Every
/// message must still reach every subscriber — the NACK/repair loop over
/// the TCP control channel recovers each loss (tag-3 NACKs up, tag-4
/// unicast repairs down).
TEST_F(McastMiddlewareTest, LossInjectedRepairRecoversEveryMessage) {
  ScopedEnv mcast_on("RSF_TRANSPORT_MCAST", "1");
  ScopedEnv low_bar("RSF_MCAST_MIN_SUBS", "1");
  // Deep ring: every lost seq must still be pinned when its NACK arrives.
  ScopedEnv deep_ring("RSF_MCAST_REPAIR_DEPTH", "256");
  constexpr int kSubscribers = 3;
  // Stay under the eviction lag (4 * 256): a repairing subscriber must
  // never be mistaken for a dead one mid-test.
  constexpr int kMessages = 200;
  constexpr size_t kBytes = 61 * 1024;  // two chunks: partial loss too

  ros::NodeHandle pub_node("mcast_chaos_pub");
  ros::NodeHandle sub_node("mcast_chaos_sub");
  auto pub = pub_node.advertise<Image>("/mcast_chaos", 8);

  std::atomic<int> received{0};
  std::vector<ros::Subscriber> subs;
  subs.reserve(kSubscribers);
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(sub_node.subscribe<Image>(
        "/mcast_chaos", 512,
        std::function<void(const Image::ConstPtr&)>(
            [&](const Image::ConstPtr&) { received.fetch_add(1); }),
        WireMcastOptions()));
  }
  ASSERT_TRUE(WaitFor([&] {
    return pub.getStats().mcast_links == kSubscribers;
  })) << "mcast links: " << pub.getStats().mcast_links;

  const uint64_t nacks_before =
      ros::shim::mcast_nacks.load(std::memory_order_relaxed);
  const uint64_t repairs_before =
      ros::shim::mcast_repairs.load(std::memory_order_relaxed);

  ros::shim::mcast_drop_pct.store(10, std::memory_order_relaxed);
  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(kBytes);
    pub.publish(*img);
    // Light pacing: the NACK timer (ms scale) needs room to run, and a
    // full-tilt burst would outrace the per-socket receive buffers with
    // REAL (uninjected, unaccounted) loss.
    rsf::SleepForNanos(2'000'000);
  }
  ros::shim::mcast_drop_pct.store(0, std::memory_order_relaxed);

  // Tail flush: a wholly-lost FINAL message exposes no forward jump, so
  // publish clean trailers until everything (including them) lands.
  int trailers = 0;
  while (received.load() < kSubscribers * (kMessages + trailers) &&
         trailers < 50) {
    auto img = Image::create();
    img->data.resize(kBytes);
    pub.publish(*img);
    ++trailers;
    (void)WaitFor(
        [&] {
          return received.load() >= kSubscribers * (kMessages + trailers);
        },
        1'000'000'000ull);
  }
  ASSERT_TRUE(WaitFor([&] {
    return received.load() == kSubscribers * (kMessages + trailers);
  })) << "received " << received.load() << " of "
      << kSubscribers * (kMessages + trailers) << " (" << trailers
      << " trailers)";

  // ~10% of datagrams were dropped; the recovery machinery must actually
  // have run (not: the drops happened to miss every subscriber).
  EXPECT_GT(ros::shim::mcast_nacks.load(std::memory_order_relaxed),
            nacks_before);
  EXPECT_GT(ros::shim::mcast_repairs.load(std::memory_order_relaxed),
            repairs_before);
  EXPECT_EQ(pub.getStats().dropped, 0u);
}

/// A granted subscriber that never acks (and never NACKs — it is dead, not
/// lossy) is evicted once the unacked window exceeds the lag: its lane is
/// culled, the unconfirmed window lands in `dropped`, and the publisher
/// never stalls.
TEST_F(McastMiddlewareTest, DeadSubscriberIsEvictedWithoutStalling) {
  ScopedEnv mcast_on("RSF_TRANSPORT_MCAST", "1");
  ScopedEnv low_bar("RSF_MCAST_MIN_SUBS", "1");
  ScopedEnv shallow_ring("RSF_MCAST_REPAIR_DEPTH", "8");  // lag = 32
  constexpr size_t kEvictionLag = 32;
  constexpr size_t kMessages = 48;

  auto publication = ros::Publication::Create(
      "/mcast_evict", Image::DataType(), ros::TransportChecksum<Image>(),
      "evict_pub", 8, /*intra_capable=*/false);
  ASSERT_TRUE(publication.ok());
  auto pub = *publication;

  // A raw dialing client that completes the handshake with an mcast
  // request, wins the grant, then plays dead: never joins the group,
  // never acks, never NACKs.
  std::atomic<bool> granted{false};
  rsf::net::Link::Callbacks callbacks;
  callbacks.make_handshake_request = [](bool) {
    auto header = ros::MakeSubscriberHeader(
        "/mcast_evict", Image::DataType(), ros::TransportChecksum<Image>(),
        "dead_sub");
    ros::AddMcastRequestFields(&header);
    return ros::EncodeConnectionHeader(header);
  };
  callbacks.on_handshake_reply = [&granted](const uint8_t* data,
                                            uint32_t length,
                                            rsf::net::Link::RingHandshake*) {
    auto header = ros::DecodeConnectionHeader(data, length);
    if (!header.ok() || header->count("error") != 0) return false;
    granted.store(ros::ParseMcastGrant(*header).granted);
    return true;
  };
  callbacks.alloc = [](uint32_t) -> uint8_t* {
    return nullptr;  // dead: nothing should arrive on the TCP side anyway
  };
  callbacks.on_frame = [](uint32_t) {};

  auto link = rsf::net::Link::Dial("127.0.0.1", pub->port(),
                                   rsf::net::Reactor::Get().NextLoop(),
                                   rsf::net::Link::Options{},
                                   std::move(callbacks));
  ASSERT_TRUE(WaitFor(
      [&] { return granted.load() && pub->Stats().mcast_links == 1; }));

  for (size_t i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(1024);
    pub->Publish(ros::Serializer<Image>::ToWire(*img));
  }

  // The lane is culled (stats drop it) without any publish ever blocking.
  ASSERT_TRUE(WaitFor([&] { return pub->Stats().mcast_links == 0; }));
  const auto stats = pub->Stats();
  // The whole never-confirmed window counts as this publisher's drops.
  EXPECT_GE(stats.dropped, kEvictionLag);
  EXPECT_LE(stats.dropped, stats.enqueued);

  // And the publisher is still healthy: later publishes just no-op into
  // an empty fan-out.
  auto img = Image::create();
  img->data.resize(1024);
  pub->Publish(ros::Serializer<Image>::ToWire(*img));

  link->CloseSync();
  pub->Shutdown();
}

TEST_F(McastMiddlewareTest, JoinAckRepairsWhatTheGroupSentBeforeTheJoin) {
  // A subscriber joins the group only after its grant, so the group may
  // carry frames from first_seq on before it is in.  Its join ack (a
  // cumulative ack of first_seq - 1) makes the publisher send that tail
  // over the link.  A raw client forces the late join: it is granted,
  // never joins the group, and acks its "join" after a burst.
  ScopedEnv mcast_on("RSF_TRANSPORT_MCAST", "1");
  ScopedEnv low_bar("RSF_MCAST_MIN_SUBS", "1");
  constexpr size_t kMessages = 5;

  auto publication = ros::Publication::Create(
      "/mcast_late_join", Image::DataType(), ros::TransportChecksum<Image>(),
      "late_join_pub", 8, /*intra_capable=*/false);
  ASSERT_TRUE(publication.ok());
  auto pub = *publication;

  std::atomic<bool> granted{false};
  std::atomic<uint64_t> first_seq{0};
  std::mutex mutex;
  std::vector<uint64_t> repaired;  // guarded by mutex
  auto buffer = std::make_shared<std::vector<uint8_t>>();
  auto tag = std::make_shared<uint32_t>(0);
  rsf::net::Link::Callbacks callbacks;
  callbacks.make_handshake_request = [](bool) {
    auto header = ros::MakeSubscriberHeader(
        "/mcast_late_join", Image::DataType(), ros::TransportChecksum<Image>(),
        "late_sub");
    ros::AddMcastRequestFields(&header);
    return ros::EncodeConnectionHeader(header);
  };
  callbacks.on_handshake_reply = [&](const uint8_t* data, uint32_t length,
                                     rsf::net::Link::RingHandshake*) {
    auto header = ros::DecodeConnectionHeader(data, length);
    if (!header.ok() || header->count("error") != 0) return false;
    const ros::McastGrant grant = ros::ParseMcastGrant(*header);
    first_seq.store(grant.first_seq);
    granted.store(grant.granted);
    return true;
  };
  callbacks.alloc = [buffer, tag](uint32_t raw) {
    *tag = rsf::net::FrameTag(raw);
    buffer->resize(std::max<uint32_t>(rsf::net::FrameLength(raw), 1));
    return buffer->data();
  };
  callbacks.on_frame = [&, buffer, tag](uint32_t length) {
    if (*tag != rsf::net::kFrameTagMcastRepair ||
        rsf::net::FrameLength(length) < ros::kMcastRepairHeaderSize) {
      return;
    }
    std::lock_guard<std::mutex> lock(mutex);
    repaired.push_back(rsf::LoadLE<uint64_t>(buffer->data()));
  };
  auto link = rsf::net::Link::Dial("127.0.0.1", pub->port(),
                                   rsf::net::Reactor::Get().NextLoop(),
                                   rsf::net::Link::Options{},
                                   std::move(callbacks));
  ASSERT_TRUE(WaitFor(
      [&] { return granted.load() && pub->Stats().mcast_links == 1; }));

  for (size_t i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(1024);
    pub->Publish(ros::Serializer<Image>::ToWire(*img));
  }
  const auto repairs = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    return repaired;
  };
  const auto ack = [&](uint64_t lo) {
    (void)link->EnqueueFrame(
        ros::EncodeMcastControlFrame(ros::McastControlKind::kAck, lo, 0),
        rsf::net::TaggedLength(rsf::net::kFrameTagMcastControl,
                               ros::kMcastControlSize));
    link->loop()->RunInLoop([link] { link->FlushOnLoop(); });
  };
  rsf::SleepForNanos(50'000'000);
  EXPECT_TRUE(repairs().empty());  // nothing crosses the link unasked

  ack(first_seq.load() - 1);  // the join ack
  ASSERT_TRUE(WaitFor([&] { return repairs().size() == kMessages; }));
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < kMessages; ++i) expected.push_back(first_seq + i);
  EXPECT_EQ(repairs(), expected);

  // Only the first ack is the join: a repeat is an ordinary cumulative ack.
  ack(first_seq.load() - 1);
  rsf::SleepForNanos(50'000'000);
  EXPECT_EQ(repairs().size(), kMessages);

  link->CloseSync();
  pub->Shutdown();
}

/// Regular (non-SFM) messages ride the group too: the tier carries any
/// serialized payload (DESIGN.md §14.1), reassembling into a per-frame
/// staging buffer instead of an arena block.  Regression: that buffer
/// must outlive deserialization — erasing the rx slot before FromWire
/// left the reader on freed memory (caught by TSan).
TEST_F(McastMiddlewareTest, RegularMessagesDeliverThroughTheGroup) {
  ScopedEnv mcast_on("RSF_TRANSPORT_MCAST", "1");
  ScopedEnv low_bar("RSF_MCAST_MIN_SUBS", "1");
  constexpr int kSubscribers = 2;
  constexpr int kMessages = 25;

  ros::NodeHandle pub_node("mcast_str_pub");
  ros::NodeHandle sub_node("mcast_str_sub");
  auto pub = pub_node.advertise<std_msgs::String>("/mcast_str", 8);

  // > one chunk so reassembly scatters into the staging buffer at offsets.
  const std::string payload(61 * 1024, 'x');
  std::atomic<int> received{0};
  std::atomic<int> payload_errors{0};
  std::vector<ros::Subscriber> subs;
  subs.reserve(kSubscribers);
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(sub_node.subscribe<std_msgs::String>(
        "/mcast_str", 64,
        std::function<void(const std_msgs::String::ConstPtr&)>(
            [&](const std_msgs::String::ConstPtr& msg) {
              if (msg->data != payload) payload_errors.fetch_add(1);
              received.fetch_add(1);
            }),
        WireMcastOptions()));
  }
  ASSERT_TRUE(WaitFor([&] {
    return pub.getStats().mcast_links == kSubscribers;
  })) << "mcast links: " << pub.getStats().mcast_links;

  for (int i = 0; i < kMessages; ++i) {
    std_msgs::String msg;
    msg.data = payload;
    pub.publish(msg);
  }
  ASSERT_TRUE(
      WaitFor([&] { return received.load() == kSubscribers * kMessages; }))
      << "received " << received.load() << " of "
      << kSubscribers * kMessages;
  EXPECT_EQ(payload_errors.load(), 0);
  EXPECT_EQ(pub.getStats().dropped, 0u);
}

/// Below RSF_MCAST_MIN_SUBS the request is parked: plain TCP lanes,
/// mcast_links stays 0, delivery still complete.
TEST_F(McastMiddlewareTest, BelowThresholdStaysOnTcp) {
  ScopedEnv mcast_on("RSF_TRANSPORT_MCAST", "1");
  ScopedEnv high_bar("RSF_MCAST_MIN_SUBS", "8");
  constexpr int kMessages = 10;

  ros::NodeHandle pub_node("mcast_below_pub");
  ros::NodeHandle sub_node("mcast_below_sub");
  auto pub = pub_node.advertise<Image>("/mcast_below", 8);

  std::atomic<int> received{0};
  auto sub = sub_node.subscribe<Image>(
      "/mcast_below", 64,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr&) { received.fetch_add(1); }),
      WireMcastOptions());
  ASSERT_TRUE(WaitFor([&] { return pub.getStats().tcp_links == 1; }));
  EXPECT_EQ(pub.getStats().mcast_links, 0u);

  const uint64_t datagrams_before =
      ros::shim::mcast_datagrams_sent.load(std::memory_order_relaxed);
  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(4096);
    pub.publish(*img);
    // Pace against the subscriber: an unpaced burst would trip the TCP
    // queue's drop-oldest policy, which is not what this test measures.
    ASSERT_TRUE(WaitFor([&] { return received.load() > i; }));
  }
  EXPECT_EQ(received.load(), kMessages);
  EXPECT_EQ(pub.getStats().dropped, 0u);
  // Nothing rode the group.
  EXPECT_EQ(ros::shim::mcast_datagrams_sent.load(std::memory_order_relaxed),
            datagrams_before);
}

}  // namespace
