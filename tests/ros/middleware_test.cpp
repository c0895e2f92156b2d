// Integration tests for the mini-ROS middleware: the full roscpp-style
// pub/sub path over same-host sockets (AF_UNIX; loopback TCP for shaped
// links), for both regular and serialization-free message variants, plus
// connection-header and master unit coverage.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "net/io_backend.h"
#include "net/poller.h"
#include "net/socket.h"
#include "ros/ros.h"
#include "sensor_msgs/Image.h"
#include "sensor_msgs/sfm/Image.h"
#include "std_msgs/Int32.h"
#include "std_msgs/String.h"
#include "std_msgs/sfm/String.h"

namespace {

/// Waits until `predicate` holds or the deadline passes; returns its value.
bool WaitFor(const std::function<bool()>& predicate,
             uint64_t timeout_nanos = 5'000'000'000ull) {
  const uint64_t deadline = rsf::MonotonicNanos() + timeout_nanos;
  while (rsf::MonotonicNanos() < deadline) {
    if (predicate()) return true;
    rsf::SleepForNanos(1'000'000);
  }
  return predicate();
}

size_t CountProcessThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

/// Holds every reactor loop inside a blocking RunSync task until the latch
/// goes out of scope: no flush kick, receive or other loop-thread work can
/// run meanwhile.
class LoopLatch {
 public:
  LoopLatch() {
    rsf::net::Reactor& reactor = rsf::net::Reactor::Get();
    for (size_t i = 0; i < reactor.NumLoops(); ++i) {
      holders_.emplace_back([this, loop = reactor.Loop(i)] {
        loop->RunSync([this] {
          std::unique_lock<std::mutex> lock(mutex_);
          ++held_;
          cv_.notify_all();
          cv_.wait(lock, [this] { return released_; });
        });
      });
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return held_ == holders_.size(); });
  }
  ~LoopLatch() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
    for (auto& holder : holders_) holder.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t held_ = 0;        // guarded by mutex_
  bool released_ = false;  // guarded by mutex_
  std::vector<std::thread> holders_;
};

class MiddlewareTest : public ::testing::Test {
 protected:
  void TearDown() override { ros::master().Reset(); }
};

TEST_F(MiddlewareTest, ConnectionHeaderRoundTrip) {
  const ros::ConnectionHeader header = {
      {"topic", "/image"}, {"type", "sensor_msgs/Image"}, {"md5sum", "abc"}};
  const auto encoded = ros::EncodeConnectionHeader(header);
  const auto decoded =
      ros::DecodeConnectionHeader(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, header);
}

TEST_F(MiddlewareTest, ConnectionHeaderRejectsGarbage) {
  const uint8_t bogus[] = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2};
  EXPECT_FALSE(ros::DecodeConnectionHeader(bogus, sizeof(bogus)).ok());
  const uint8_t no_equals[] = {3, 0, 0, 0, 'a', 'b', 'c'};
  EXPECT_FALSE(ros::DecodeConnectionHeader(no_equals, sizeof(no_equals)).ok());
}

TEST_F(MiddlewareTest, MasterNotifiesExistingAndNewPublishers) {
  std::vector<uint16_t> seen;
  std::mutex mutex;

  ASSERT_TRUE(ros::master()
                  .RegisterPublisher("/t", "std_msgs/String", "m",
                                     {"127.0.0.1", 1000, "p1"})
                  .ok());
  auto id = ros::master().RegisterSubscriber(
      "/t", "std_msgs/String", "m", [&](const ros::TopicEndpoint& e) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(e.port);
      });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(ros::master()
                  .RegisterPublisher("/t", "std_msgs/String", "m",
                                     {"127.0.0.1", 1001, "p2"})
                  .ok());
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1000);
  EXPECT_EQ(seen[1], 1001);
}

TEST_F(MiddlewareTest, MasterRejectsTypeConflicts) {
  ASSERT_TRUE(ros::master()
                  .RegisterPublisher("/t", "std_msgs/String", "m1",
                                     {"127.0.0.1", 1, "p"})
                  .ok());
  EXPECT_FALSE(ros::master()
                   .RegisterPublisher("/t", "std_msgs/Int32", "m2",
                                      {"127.0.0.1", 2, "q"})
                   .ok());
  EXPECT_FALSE(
      ros::master()
          .RegisterSubscriber("/t", "std_msgs/String", "other-md5", [](auto&) {})
          .ok());
}

TEST_F(MiddlewareTest, RegularStringPubSub) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  std::atomic<int> count{0};
  std::string last;
  std::mutex mutex;

  auto sub = sub_node.subscribe<std_msgs::String>(
      "/chatter", 10, [&](const std_msgs::String::ConstPtr& msg) {
        std::lock_guard<std::mutex> lock(mutex);
        last = msg->data;
        count.fetch_add(1);
      });
  auto pub = pub_node.advertise<std_msgs::String>("/chatter", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  std_msgs::String msg;
  msg.data = "hello ros-sf";
  pub.publish(msg);

  ASSERT_TRUE(WaitFor([&] { return sub.receivedCount() >= 1; }));
  ASSERT_TRUE(sub_node.spinOnceFor(1'000'000'000ull));
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(last, "hello ros-sf");
  EXPECT_EQ(count.load(), 1);
}

TEST_F(MiddlewareTest, RegularImagePubSubPreservesPayload) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  sensor_msgs::Image::ConstPtr received;
  auto sub = sub_node.subscribe<sensor_msgs::Image>(
      "/image", 10,
      [&](const sensor_msgs::Image::ConstPtr& msg) { received = msg; });
  auto pub = pub_node.advertise<sensor_msgs::Image>("/image", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  sensor_msgs::Image img;
  img.header.frame_id = "cam";
  img.height = 4;
  img.width = 4;
  img.encoding = "rgb8";
  img.data.resize(48);
  img.data[47] = 0x42;
  pub.publish(img);

  ASSERT_TRUE(WaitFor([&] { return sub.receivedCount() >= 1; }));
  ASSERT_TRUE(sub_node.spinOnceFor(1'000'000'000ull));
  ASSERT_NE(received, nullptr);
  EXPECT_EQ(received->header.frame_id, "cam");
  EXPECT_EQ(received->encoding, "rgb8");
  ASSERT_EQ(received->data.size(), 48u);
  EXPECT_EQ(received->data[47], 0x42);
}

TEST_F(MiddlewareTest, SfmImagePubSubIsSerializationFree) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  using Image = sensor_msgs::sfm::Image;

  Image::ConstPtr received;
  auto sub = sub_node.subscribe<Image>(
      "/image_sf", 10, [&](const Image::ConstPtr& msg) { received = msg; });
  auto pub = pub_node.advertise<Image>("/image_sf", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  auto img = sfm::make_message<Image>();
  img->header.frame_id = "cam";
  img->header.stamp = rsf::Time::Now();
  img->height = 2;
  img->width = 2;
  img->encoding = "rgb8";
  img->data.resize(12);
  img->data[11] = 0x99;
  pub.publish(*img);

  ASSERT_TRUE(WaitFor([&] { return sub.receivedCount() >= 1; }));
  ASSERT_TRUE(sub_node.spinOnceFor(1'000'000'000ull));
  ASSERT_NE(received, nullptr);
  EXPECT_EQ(received->header.frame_id, "cam");
  EXPECT_EQ(received->encoding, "rgb8");
  ASSERT_EQ(received->data.size(), 12u);
  EXPECT_EQ(received->data[11], 0x99);

  // Publisher-side message can die first; the received arena is its own.
  img.reset();
  EXPECT_EQ(received->data[11], 0x99);
  received.reset();
}

TEST_F(MiddlewareTest, SfmAndRegularVariantsCannotMix) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  auto pub = pub_node.advertise<sensor_msgs::Image>("/mixed", 10);
  // The SFM variant negotiates a marked checksum; the master refuses it.
  EXPECT_THROW(sub_node.subscribe<sensor_msgs::sfm::Image>(
                   "/mixed", 10,
                   [](const sensor_msgs::sfm::Image::ConstPtr&) {}),
               std::runtime_error);
}

TEST_F(MiddlewareTest, MultipleSubscribersEachGetEveryMessage) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node_a("sub_a");
  ros::NodeHandle sub_node_b("sub_b");

  std::atomic<int> got_a{0};
  std::atomic<int> got_b{0};
  auto sub_a = sub_node_a.subscribe<std_msgs::String>(
      "/fan", 10, [&](const std_msgs::String::ConstPtr&) { got_a++; });
  auto sub_b = sub_node_b.subscribe<std_msgs::String>(
      "/fan", 10, [&](const std_msgs::String::ConstPtr&) { got_b++; });
  auto pub = pub_node.advertise<std_msgs::String>("/fan", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 2; }));

  std_msgs::String msg;
  msg.data = "x";
  for (int i = 0; i < 5; ++i) pub.publish(msg);

  ASSERT_TRUE(WaitFor([&] {
    return sub_a.receivedCount() >= 5 && sub_b.receivedCount() >= 5;
  }));
  while (sub_node_a.spinOnce()) {}
  while (sub_node_b.spinOnce()) {}
  EXPECT_EQ(got_a.load(), 5);
  EXPECT_EQ(got_b.load(), 5);
}

TEST_F(MiddlewareTest, LateSubscriberConnectsToExistingPublisher) {
  ros::NodeHandle pub_node("pub");
  auto pub = pub_node.advertise<std_msgs::String>("/late", 10);

  ros::NodeHandle sub_node("sub");
  std::atomic<int> got{0};
  auto sub = sub_node.subscribe<std_msgs::String>(
      "/late", 10, [&](const std_msgs::String::ConstPtr&) { got++; });
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  std_msgs::String msg;
  msg.data = "late";
  pub.publish(msg);
  ASSERT_TRUE(WaitFor([&] { return sub.receivedCount() >= 1; }));
}

TEST_F(MiddlewareTest, QueueOverflowDropsOldest) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  std::vector<int> seen;
  auto sub = sub_node.subscribe<std_msgs::Int32>(
      "/burst", 2,
      [&](const std_msgs::Int32::ConstPtr& m) { seen.push_back(m->data); });
  auto pub = pub_node.advertise<std_msgs::Int32>("/burst", 100);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  // Burst without spinning: the 2-deep pending queue keeps only the tail.
  for (int i = 0; i < 50; ++i) {
    std_msgs::Int32 msg;
    msg.data = i;
    pub.publish(msg);
  }
  ASSERT_TRUE(WaitFor([&] { return sub.receivedCount() >= 50; }));
  while (sub_node.spinOnce()) {}
  ASSERT_LE(seen.size(), 2u);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back(), 49);  // newest survives
  EXPECT_GT(sub.getTopic(), "");
}

TEST_F(MiddlewareTest, InlineDispatchSkipsTheCallbackQueue) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  std::atomic<int> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = sub_node.subscribe<std_msgs::String>(
      "/inline", 10, [&](const std_msgs::String::ConstPtr&) { got++; },
      options);
  auto pub = pub_node.advertise<std_msgs::String>("/inline", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  std_msgs::String msg;
  msg.data = "no spin needed";
  pub.publish(msg);
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
}

TEST_F(MiddlewareTest, SimulatedLinkAddsWireDelay) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  using Image = sensor_msgs::Image;

  std::atomic<uint64_t> latency_nanos{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.link = rsf::net::LinkConfig{8e6, 0};  // 8 Mbit/s: 1 ms per KB
  auto sub = sub_node.subscribe<Image>(
      "/slow", 10,
      [&](const Image::ConstPtr& msg) {
        latency_nanos.store(rsf::ElapsedSince(msg->header.stamp));
      },
      options);
  auto pub = pub_node.advertise<Image>("/slow", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  Image img;
  img.data.resize(10 * 1024);  // 10 KB -> ~10 ms of simulated wire time
  img.header.stamp = rsf::Time::Now();
  pub.publish(img);

  ASSERT_TRUE(WaitFor([&] { return latency_nanos.load() > 0; }));
  EXPECT_GE(latency_nanos.load(), 9'000'000ull);
}

TEST_F(MiddlewareTest, PublisherSurvivesSubscriberDisappearing) {
  ros::NodeHandle pub_node("pub");
  auto pub = pub_node.advertise<std_msgs::String>("/flaky", 10);
  {
    ros::NodeHandle sub_node("sub");
    auto sub = sub_node.subscribe<std_msgs::String>(
        "/flaky", 10, [](const std_msgs::String::ConstPtr&) {});
    ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));
    sub.shutdown();
  }
  // Publishing into the dead link must cull it, not crash.
  std_msgs::String msg;
  msg.data = "anyone there?";
  for (int i = 0; i < 3; ++i) {
    pub.publish(msg);
    rsf::SleepForNanos(10'000'000);
  }
  EXPECT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 0; }));
}

TEST_F(MiddlewareTest, SfmArenaIsReclaimedAfterDelivery) {
  const size_t live_before = sfm::gmm().LiveCount();
  {
    ros::NodeHandle pub_node("pub");
    ros::NodeHandle sub_node("sub");
    using Image = sensor_msgs::sfm::Image;

    std::atomic<int> got{0};
    ros::SubscribeOptions options;
    options.inline_dispatch = true;
    auto sub = sub_node.subscribe<Image>(
        "/leakcheck", 10, [&](const Image::ConstPtr&) { got++; }, options);
    auto pub = pub_node.advertise<Image>("/leakcheck", 10);
    ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

    for (int i = 0; i < 10; ++i) {
      auto img = sfm::make_message<Image>();
      img->data.resize(1024);
      pub.publish(*img);
    }
    ASSERT_TRUE(WaitFor([&] { return got.load() == 10; }));
  }
  // All publisher arenas and receiver arenas must be gone.
  EXPECT_TRUE(WaitFor([&] { return sfm::gmm().LiveCount() == live_before; }));
}

// ---- receive-path copy budget (shim counters, see message_traits.h) ----
//
// These tests force the wire transport (allow_intra_process = false) so
// every message crosses a real socket (same-host AF_UNIX), then assert
// how the payload bytes reached the delivered message.

TEST_F(MiddlewareTest, SfmTcpReceiveIsArenaDirect) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  using Image = sensor_msgs::sfm::Image;

  std::atomic<int> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire
  options.allow_shm = false;  // counters below assert the BYTE path (the
                              // CI shm job forces RSF_TRANSPORT_SHM=1)
  auto sub = sub_node.subscribe<Image>(
      "/onecopy_sf", 10, [&](const Image::ConstPtr&) { got++; }, options);
  auto pub = pub_node.advertise<Image>("/onecopy_sf", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  const uint64_t direct_before = ros::shim::arena_direct.load();
  const uint64_t scratch_before = ros::shim::scratch_allocations.load();
  const uint64_t copies_before = ros::shim::deserialize_copies.load();

  constexpr int kMessages = 8;
  for (int i = 0; i < kMessages; ++i) {
    auto img = sfm::make_message<Image>();
    img->encoding = "mono8";
    img->data.resize(4096);
    img->data[0] = static_cast<uint8_t>(i);
    pub.publish(*img);
  }
  ASSERT_TRUE(WaitFor([&] { return got.load() == kMessages; }));

  // Exactly one copy per message — kernel straight into the arena block.
  // No staging buffer is touched and the generated de-serializer never
  // runs: the arena bytes ARE the message.
  EXPECT_EQ(ros::shim::arena_direct.load() - direct_before,
            static_cast<uint64_t>(kMessages));
  EXPECT_EQ(ros::shim::scratch_allocations.load() - scratch_before, 0u);
  EXPECT_EQ(ros::shim::deserialize_copies.load() - copies_before, 0u);
}

TEST_F(MiddlewareTest, SfmTcpPublishIsCopyFreeInUserSpace) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  using Image = sensor_msgs::sfm::Image;

  std::atomic<int> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire
  options.allow_shm = false;  // counters below assert the BYTE path (the
                              // CI shm job forces RSF_TRANSPORT_SHM=1)
  auto sub = sub_node.subscribe<Image>(
      "/sfm_egress", 10, [&](const Image::ConstPtr&) { got++; }, options);
  auto pub = pub_node.advertise<Image>("/sfm_egress", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  const uint64_t serialize_before = ros::shim::wire_serialize_copies.load();
  const uint64_t snapshot_before = ros::shim::wire_snapshot_copies.load();

  constexpr size_t kPayload = 128 * 1024;
  constexpr int kMessages = 4;
  for (int i = 0; i < kMessages; ++i) {
    auto img = sfm::make_message<Image>();
    img->encoding = "mono8";
    img->data.resize(kPayload);
    img->data[0] = static_cast<uint8_t>(i);
    pub.publish(*img);
  }
  ASSERT_TRUE(WaitFor([&] { return got.load() == kMessages; }));

  // Copy-free in user space: the generated serializer never ran and the
  // stack-snapshot fallback never ran — the arena's aliased buffer pointer
  // IS the wire payload.  The kernel's sendmsg copy is the only one left.
  EXPECT_EQ(ros::shim::wire_serialize_copies.load() - serialize_before, 0u);
  EXPECT_EQ(ros::shim::wire_snapshot_copies.load() - snapshot_before, 0u);
}

TEST_F(MiddlewareTest, RegularTcpReceiveReusesScratchAcrossFrames) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  using Image = sensor_msgs::Image;

  std::atomic<int> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire
  auto sub = sub_node.subscribe<Image>(
      "/scratch_reuse", 10, [&](const Image::ConstPtr&) { got++; }, options);
  auto pub = pub_node.advertise<Image>("/scratch_reuse", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  const uint64_t allocs_before = ros::shim::scratch_allocations.load();
  const uint64_t reuses_before = ros::shim::scratch_reuses.load();
  const uint64_t copies_before = ros::shim::deserialize_copies.load();

  constexpr int kMessages = 8;
  for (int i = 0; i < kMessages; ++i) {
    Image img;
    img.data.resize(4096);  // constant size: after one growth, all reuse
    pub.publish(img);
  }
  ASSERT_TRUE(WaitFor([&] { return got.load() == kMessages; }));

  // The per-link scratch grows at most once at this size, every later
  // frame stages in it for free, and each frame is de-serialized exactly
  // once (the regular path's one unavoidable copy).
  EXPECT_LE(ros::shim::scratch_allocations.load() - allocs_before, 1u);
  EXPECT_GE(ros::shim::scratch_reuses.load() - reuses_before,
            static_cast<uint64_t>(kMessages - 1));
  EXPECT_EQ(ros::shim::deserialize_copies.load() - copies_before,
            static_cast<uint64_t>(kMessages));
}

TEST_F(MiddlewareTest, SingleWireLanePublishWritesThrough) {
  // One wire subscriber: the publishing thread sends the frame itself —
  // it reaches the socket even while every reactor loop is held busy, and
  // a steady-state publish wakes no loop.  Two wire subscribers: the
  // publish only queues, and the loop sends once it is free.  On a
  // same-host ring link the send is a ring write plus at most one doorbell
  // (net/stream_ring.h).
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire
  options.allow_shm = false;    // plain TCP lanes, whatever the CI job's
  options.allow_mcast = false;  // tier env says
  std::atomic<int> got{0};
  const auto callback = [&](const std_msgs::String::ConstPtr&) { got++; };
  auto first = sub_node.subscribe<std_msgs::String>("/write_through", 10,
                                                    callback, options);
  auto pub = pub_node.advertise<std_msgs::String>("/write_through", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));
  const bool ring = pub.getStats().ring_links == 1;
  // What the sending side pays per frame: a sendmsg, or a doorbell.
  const auto sends_now = [ring] {
    const rsf::net::IoSyscallCounters io = rsf::net::GlobalIoCounters();
    return ring ? io.doorbell_writes : io.sendmsg_calls;
  };
  std_msgs::String msg;
  msg.data = "through";

  constexpr int kMessages = 16;
  const rsf::net::IoSyscallCounters before = rsf::net::GlobalIoCounters();
  for (int i = 0; i < kMessages; ++i) {
    pub.publish(msg);
    ASSERT_TRUE(WaitFor([&] { return got.load() == i + 1; }));
  }
  const rsf::net::IoSyscallCounters after = rsf::net::GlobalIoCounters();
  if (ring) {
    EXPECT_EQ(after.wakeup_writes - before.wakeup_writes, 0u);
    EXPECT_EQ(after.sendmsg_calls - before.sendmsg_calls, 0u);
    // A reader still awake from the last frame needs no doorbell.
    EXPECT_LE(after.doorbell_writes - before.doorbell_writes,
              static_cast<uint64_t>(kMessages));
  } else {
    EXPECT_EQ(after.wakeup_writes - before.wakeup_writes, 0u);
    EXPECT_EQ(after.sendmsg_calls - before.sendmsg_calls,
              static_cast<uint64_t>(kMessages));
  }

  {
    // Every loop is held, so the subscriber's reader went to sleep before
    // this publish: a ring write rings exactly once.
    LoopLatch latch;
    const uint64_t sends = sends_now();
    pub.publish(msg);
    EXPECT_EQ(sends_now() - sends, 1u);
  }
  ASSERT_TRUE(WaitFor([&] { return got.load() == kMessages + 1; }));

  auto second = sub_node.subscribe<std_msgs::String>("/write_through", 10,
                                                     callback, options);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 2; }));
  const uint64_t sends = sends_now();
  {
    LoopLatch latch;
    pub.publish(msg);
    EXPECT_EQ(sends_now(), sends);
  }
  ASSERT_TRUE(WaitFor([&] { return got.load() == kMessages + 3; }));
  EXPECT_GE(sends_now() - sends, 2u);
}

TEST_F(MiddlewareTest, RingLinkPaysNoSocketSyscallsPerFrame) {
  // A same-host subscriber's link streams the publisher's frames through
  // a shared-memory ring: no sendmsg and no recv per frame, and at most one
  // doorbell per isolated frame (the subscriber asleep between frames).
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire
  options.allow_shm = false;
  options.allow_mcast = false;
  std::atomic<int> got{0};
  auto sub = sub_node.subscribe<std_msgs::String>(
      "/ring", 10, [&](const std_msgs::String::ConstPtr&) { got++; },
      options);
  auto pub = pub_node.advertise<std_msgs::String>("/ring", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));
  const ros::PublicationStats stats = pub.getStats();
  EXPECT_EQ(stats.unix_links, 1u);
  ASSERT_EQ(stats.ring_links, 1u);

  std_msgs::String msg;
  msg.data = "isolated";
  // The publisher counts the link once its reply is sent; the first
  // delivery shows the subscriber has read the reply too.
  pub.publish(msg);
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  constexpr int kMessages = 32;
  const rsf::net::IoSyscallCounters before = rsf::net::GlobalIoCounters();
  for (int i = 0; i < kMessages; ++i) {
    pub.publish(msg);
    ASSERT_TRUE(WaitFor([&] { return got.load() == i + 2; }));
  }
  const rsf::net::IoSyscallCounters after = rsf::net::GlobalIoCounters();
  EXPECT_EQ(after.sendmsg_calls - before.sendmsg_calls, 0u);
  EXPECT_EQ(after.recv_calls - before.recv_calls, 0u);
  EXPECT_LE(after.doorbell_writes - before.doorbell_writes,
            static_cast<uint64_t>(kMessages));
  EXPECT_LE(after.doorbell_reads - before.doorbell_reads,
            static_cast<uint64_t>(kMessages));
}

TEST_F(MiddlewareTest, UnixLinkWithoutRingRequestStillDelivers) {
  // A peer that does not ask for the ring in its connection header (an
  // older subscriber) keeps the plain AF_UNIX stream, although its link
  // attached a ring to the request.
  auto publication = ros::Publication::Create(
      "/no_ring", std_msgs::String::DataType(),
      ros::TransportChecksum<std_msgs::String>(), "pub", 8);
  ASSERT_TRUE(publication.ok());
  auto pub = *publication;
  std::atomic<int> frames{0};
  auto buffer = std::make_shared<std::vector<uint8_t>>();
  rsf::net::Link::Callbacks callbacks;
  callbacks.make_handshake_request = [](bool) {
    return ros::EncodeConnectionHeader(ros::MakeSubscriberHeader(
        "/no_ring", std_msgs::String::DataType(),
        ros::TransportChecksum<std_msgs::String>(), "plain_sub"));
  };
  callbacks.on_handshake_reply = [](const uint8_t* data, uint32_t length,
                                    rsf::net::Link::RingHandshake* ring) {
    auto header = ros::DecodeConnectionHeader(data, length);
    return header.ok() && header->count("error") == 0 &&
           !ros::HasRingField(*header) && ring->offered;
  };
  callbacks.alloc = [buffer](uint32_t length) {
    buffer->resize(length == 0 ? 1 : length);
    return buffer->data();
  };
  callbacks.on_frame = [&frames](uint32_t) { frames.fetch_add(1); };
  rsf::net::Link::Options link_options;
  link_options.local_first = true;  // AF_UNIX: the link offers a ring
  auto link = rsf::net::Link::Dial("127.0.0.1", pub->port(),
                                   rsf::net::Reactor::Get().NextLoop(),
                                   link_options, std::move(callbacks));
  ASSERT_TRUE(WaitFor([&] { return pub->Stats().tcp_links == 1; }));
  EXPECT_EQ(pub->Stats().unix_links, 1u);
  EXPECT_EQ(pub->Stats().ring_links, 0u);
  std_msgs::String msg;
  msg.data = "plain";
  for (int i = 0; i < 3; ++i) {
    pub->Publish(ros::Serializer<std_msgs::String>::ToWire(msg));
  }
  EXPECT_TRUE(WaitFor([&] { return frames.load() == 3; }));
  EXPECT_FALSE(link->ring());
  link->CloseSync();
  pub->Shutdown();
}

TEST_F(MiddlewareTest, SocketLinkPublishWritesThroughWithOneSendmsg) {
  // The socket half of SingleWireLanePublishWritesThrough, which an
  // unshaped NodeHandle subscription no longer reaches (it gets a ring): a
  // same-host subscriber that does not ask for the ring stays on the
  // AF_UNIX socket, and each publish with nothing queued is one sendmsg
  // from the publishing thread, waking no loop.
  auto publication = ros::Publication::Create(
      "/socket_write_through", std_msgs::String::DataType(),
      ros::TransportChecksum<std_msgs::String>(), "pub", 8);
  ASSERT_TRUE(publication.ok());
  auto pub = *publication;
  std::atomic<int> frames{0};
  auto buffer = std::make_shared<std::vector<uint8_t>>();
  rsf::net::Link::Callbacks callbacks;
  callbacks.make_handshake_request = [](bool) {
    return ros::EncodeConnectionHeader(ros::MakeSubscriberHeader(
        "/socket_write_through", std_msgs::String::DataType(),
        ros::TransportChecksum<std_msgs::String>(), "socket_sub"));
  };
  callbacks.on_handshake_reply = [](const uint8_t* data, uint32_t length,
                                    rsf::net::Link::RingHandshake*) {
    auto header = ros::DecodeConnectionHeader(data, length);
    return header.ok() && header->count("error") == 0;
  };
  callbacks.alloc = [buffer](uint32_t length) {
    buffer->resize(length == 0 ? 1 : length);
    return buffer->data();
  };
  callbacks.on_frame = [&frames](uint32_t) { frames.fetch_add(1); };
  rsf::net::Link::Options link_options;
  link_options.local_first = true;
  auto link = rsf::net::Link::Dial("127.0.0.1", pub->port(),
                                   rsf::net::Reactor::Get().NextLoop(),
                                   link_options, std::move(callbacks));
  ASSERT_TRUE(WaitFor([&] { return pub->Stats().tcp_links == 1; }));
  ASSERT_EQ(pub->Stats().unix_links, 1u);
  ASSERT_EQ(pub->Stats().ring_links, 0u);
  std_msgs::String msg;
  msg.data = "through";
  constexpr int kMessages = 16;
  const rsf::net::IoSyscallCounters before = rsf::net::GlobalIoCounters();
  for (int i = 0; i < kMessages; ++i) {
    pub->Publish(ros::Serializer<std_msgs::String>::ToWire(msg));
    ASSERT_TRUE(WaitFor([&] { return frames.load() == i + 1; }));
  }
  const rsf::net::IoSyscallCounters after = rsf::net::GlobalIoCounters();
  EXPECT_EQ(after.wakeup_writes - before.wakeup_writes, 0u);
  EXPECT_EQ(after.sendmsg_calls - before.sendmsg_calls,
            static_cast<uint64_t>(kMessages));
  EXPECT_EQ(after.doorbell_writes - before.doorbell_writes, 0u);
  link->CloseSync();
  pub->Shutdown();
}

TEST_F(MiddlewareTest, TransportThreadCountIndependentOfLinkCount) {
  ros::NodeHandle pub_node("pub");
  auto pub = pub_node.advertise<std_msgs::String>("/manylinks", 10);

  // Warm the reactor pool so its lazy threads exist before the baseline.
  ros::NodeHandle warm_node("warm");
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  auto warm = warm_node.subscribe<std_msgs::String>(
      "/manylinks", 10, [](const std_msgs::String::ConstPtr&) {}, options);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  const size_t threads_before = CountProcessThreads();
  const uint64_t blocking_before = rsf::net::BlockingConnectCount();
  constexpr size_t kLinks = 16;
  std::vector<ros::Subscriber> subs;
  for (size_t i = 0; i < kLinks; ++i) {
    subs.push_back(warm_node.subscribe<std_msgs::String>(
        "/manylinks", 10, [](const std_msgs::String::ConstPtr&) {}, options));
  }
  // Shaped links pace delivery with loop timers, not a reader thread.
  ros::SubscribeOptions shaped = options;
  shaped.link = rsf::net::LinkConfig{1e9, 0};  // 1 Gbit/s, negligible delay
  constexpr size_t kShapedLinks = 4;
  for (size_t i = 0; i < kShapedLinks; ++i) {
    subs.push_back(warm_node.subscribe<std_msgs::String>(
        "/manylinks", 10, [](const std_msgs::String::ConstPtr&) {}, shaped));
  }
  ASSERT_TRUE(WaitFor([&] {
    return pub.getNumSubscribers() == 1 + kLinks + kShapedLinks;
  }));

  // Thread-per-connection would add one reader thread per link here (and
  // another per shaped link); the reactor adds none — every link, shaped
  // or plain, rides the existing loop pool.
  EXPECT_EQ(CountProcessThreads(), threads_before);

  // And none of those connects blocked the master-notify thread: every
  // dial was a nonblocking Link::Dial completed on a reactor loop.
  EXPECT_EQ(rsf::net::BlockingConnectCount(), blocking_before);

  std_msgs::String msg;
  msg.data = "fanout";
  pub.publish(msg);
  for (auto& sub : subs) {
    ASSERT_TRUE(WaitFor([&] { return sub.receivedCount() >= 1; }));
  }
}

TEST_F(MiddlewareTest, UnshapedSameHostLinkRidesUnixShapedRidesTcp) {
  // Same host, unshaped: the subscriber dials the publication's AF_UNIX
  // name.  Shaped: the link models a remote machine and stays on TCP.
  // Both carry the same TCPROS bytes, so both deliver.
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire
  options.allow_shm = false;    // plain lanes, whatever the CI job's
  options.allow_mcast = false;  // tier env says
  std::atomic<int> got{0};
  const auto callback = [&](const std_msgs::String::ConstPtr&) { got++; };
  auto pub = pub_node.advertise<std_msgs::String>("/family", 10);
  auto same_host =
      sub_node.subscribe<std_msgs::String>("/family", 10, callback, options);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));
  ros::PublicationStats stats = pub.getStats();
  EXPECT_EQ(stats.tcp_links, 1u);
  EXPECT_EQ(stats.unix_links, 1u);

  ros::SubscribeOptions shaped = options;
  shaped.link = rsf::net::LinkConfig{1e9, 0};  // 1 Gbit/s, negligible delay
  auto remote =
      sub_node.subscribe<std_msgs::String>("/family", 10, callback, shaped);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 2; }));
  stats = pub.getStats();
  EXPECT_EQ(stats.tcp_links, 2u);
  EXPECT_EQ(stats.unix_links, 1u);

  std_msgs::String msg;
  msg.data = "both families";
  pub.publish(msg);
  ASSERT_TRUE(WaitFor([&] { return got.load() == 2; }));
}

/// Subscribes through NodeHandle to a plain Publication of
/// std_msgs/String advertised as `endpoint` (which the caller may alter
/// before it is registered), and returns how the link landed once one
/// message has crossed it.
ros::PublicationStats WireLinkToEndpoint(
    const std::string& topic,
    const std::function<void(ros::TopicEndpoint*)>& advertise_as) {
  auto publication = ros::Publication::Create(
      topic, std_msgs::String::DataType(),
      ros::TransportChecksum<std_msgs::String>(), "pub", 8);
  EXPECT_TRUE(publication.ok());
  if (!publication.ok()) return {};
  auto pub = *publication;
  ros::TopicEndpoint endpoint = pub->Endpoint();
  EXPECT_EQ(endpoint.local_owner, ::getpid());
  advertise_as(&endpoint);
  EXPECT_TRUE(ros::master()
                  .RegisterPublisher(topic, std_msgs::String::DataType(),
                                     ros::TransportChecksum<std_msgs::String>(),
                                     endpoint)
                  .ok());

  ros::NodeHandle sub_node("sub");
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_shm = false;
  options.allow_mcast = false;
  std::atomic<int> got{0};
  auto sub = sub_node.subscribe<std_msgs::String>(
      topic, 8, [&](const std_msgs::String::ConstPtr&) { got++; }, options);
  EXPECT_TRUE(WaitFor([&] { return pub->Stats().tcp_links == 1; }));
  std_msgs::String msg;
  msg.data = "delivered";
  pub->Publish(ros::Serializer<std_msgs::String>::ToWire(msg));
  EXPECT_TRUE(WaitFor([&] { return got.load() == 1; }));
  const ros::PublicationStats stats = pub->Stats();
  sub.shutdown();
  ros::master().UnregisterPublisher(topic, endpoint);
  pub->Shutdown();
  return stats;
}

TEST_F(MiddlewareTest, PublicationWithoutUnixNameIsDialedOverTcp) {
  // A publication that could not bind its AF_UNIX name (someone else holds
  // it) advertises kNoLocalName: an unshaped same-host subscriber goes
  // straight to TCP and never dials the name.
  const ros::PublicationStats stats =
      WireLinkToEndpoint("/no_unix_name", [](ros::TopicEndpoint* endpoint) {
        endpoint->local_owner = ros::TopicEndpoint::kNoLocalName;
      });
  EXPECT_EQ(stats.tcp_links, 1u);
  EXPECT_EQ(stats.unix_links, 0u);
}

TEST_F(MiddlewareTest, UnixNameHeldByAnotherProcessIsRefused) {
  // To the subscriber a squatter is a listener the kernel reports as some
  // process other than the advertised owner.  Advertise another pid for a
  // real publication: the subscriber must drop the AF_UNIX connection it
  // made and deliver over TCP.
  const ros::PublicationStats stats =
      WireLinkToEndpoint("/squatted", [](ros::TopicEndpoint* endpoint) {
        endpoint->local_owner = ::getppid();
      });
  EXPECT_EQ(stats.tcp_links, 1u);
  EXPECT_EQ(stats.unix_links, 0u);
}

TEST_F(MiddlewareTest, AdvertisedOwnerIsDialedOverUnix) {
  // The control for the two cases above: the endpoint as the publication
  // advertises it lands on AF_UNIX.
  const ros::PublicationStats stats =
      WireLinkToEndpoint("/owned", [](ros::TopicEndpoint*) {});
  EXPECT_EQ(stats.tcp_links, 1u);
  EXPECT_EQ(stats.unix_links, 1u);
}

TEST_F(MiddlewareTest, ShutdownReleasesTheUnixName) {
  auto publication = ros::Publication::Create(
      "/name_lifetime", std_msgs::String::DataType(),
      ros::TransportChecksum<std_msgs::String>(), "pub", 8);
  ASSERT_TRUE(publication.ok());
  const uint16_t port = (*publication)->port();
  EXPECT_FALSE(rsf::net::TcpListener::ListenLocal(port).ok());  // held
  EXPECT_EQ((*publication)->Endpoint().local_owner, ::getpid());
  (*publication)->Shutdown();
  // Released, and no longer advertised.
  EXPECT_EQ((*publication)->Endpoint().local_owner,
            ros::TopicEndpoint::kNoLocalName);
  auto rebound = rsf::net::TcpListener::ListenLocal(port);
  EXPECT_TRUE(rebound.ok()) << rebound.status().ToString();
}

}  // namespace
