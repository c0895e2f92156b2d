// Tests for the in-process transport: connect-time negotiation, the
// whole-copy and zero-copy delivery tiers, the borrowed-arena life-cycle,
// publisher/subscriber delivery accounting, TCPROS handshake rejection, and
// a mixed-transport concurrency stress (run under the tsan preset too).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/concurrent_queue.h"
#include "net/socket.h"
#include "ros/ros.h"
#include "sensor_msgs/sfm/Image.h"
#include "std_msgs/String.h"
#include "std_msgs/sfm/String.h"

namespace {

using SfmString = std_msgs::sfm::String;

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

class IntraProcessTest : public ::testing::Test {
 protected:
  void TearDown() override { ros::master().Reset(); }
};

// ---- transport negotiation ----

TEST_F(IntraProcessTest, ColocatedSubscriberNegotiatesIntraLink) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  std::atomic<uint64_t> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = sub_node.subscribe<SfmString>(
      "/intra/hello", 10,
      [&](const SfmString::ConstPtr&) { got.fetch_add(1); }, options);
  auto pub = pub_node.advertise<SfmString>("/intra/hello", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  // The link is in-process: no TCP connection was dialed.
  const auto stats = pub.getStats();
  EXPECT_EQ(stats.intra_links, 1u);
  EXPECT_EQ(stats.tcp_links, 0u);

  auto msg = SfmString::create();
  msg->data = "over the intra link";
  pub.publish(*msg);
  EXPECT_EQ(got.load(), 1u);  // inline dispatch: delivered synchronously
  EXPECT_EQ(sub.intraWholeCopyCount(), 1u);
  EXPECT_EQ(sub.intraZeroCopyCount(), 0u);
}

TEST_F(IntraProcessTest, OptOutForcesTcpTransport) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  std::atomic<uint64_t> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  auto sub = sub_node.subscribe<SfmString>(
      "/intra/tcp_only", 10,
      [&](const SfmString::ConstPtr&) { got.fetch_add(1); }, options);
  auto pub = pub_node.advertise<SfmString>("/intra/tcp_only", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  const auto stats = pub.getStats();
  EXPECT_EQ(stats.intra_links, 0u);
  EXPECT_EQ(stats.tcp_links, 1u);

  auto msg = SfmString::create();
  msg->data = "over the wire";
  pub.publish(*msg);
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  EXPECT_EQ(sub.intraWholeCopyCount(), 0u);
  EXPECT_EQ(sub.intraZeroCopyCount(), 0u);
  EXPECT_EQ(pub.getStats().enqueued, 1u);
}

TEST_F(IntraProcessTest, IntraDeliveriesFlowThroughUnifiedPublisherStats) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  // One in-process subscriber and one forced onto the wire: every publish
  // is TWO delivery attempts through the same enqueued/dropped counters.
  std::atomic<uint64_t> got_intra{0};
  std::atomic<uint64_t> got_tcp{0};
  ros::SubscribeOptions intra_options;
  intra_options.inline_dispatch = true;
  auto intra_sub = sub_node.subscribe<SfmString>(
      "/intra/unified", 10,
      [&](const SfmString::ConstPtr&) { got_intra.fetch_add(1); },
      intra_options);
  ros::SubscribeOptions tcp_options = intra_options;
  tcp_options.allow_intra_process = false;
  auto tcp_sub = sub_node.subscribe<SfmString>(
      "/intra/unified", 10,
      [&](const SfmString::ConstPtr&) { got_tcp.fetch_add(1); }, tcp_options);
  auto pub = pub_node.advertise<SfmString>("/intra/unified", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 2; }));

  constexpr uint64_t kMessages = 5;
  for (uint64_t i = 0; i < kMessages; ++i) {
    auto msg = SfmString::create();
    msg->data = "both transports";
    pub.publish(*msg);
  }
  ASSERT_TRUE(WaitFor([&] {
    return got_intra.load() == kMessages && got_tcp.load() == kMessages;
  }));

  const auto stats = pub.getStats();
  EXPECT_EQ(stats.intra_links, 1u);
  EXPECT_EQ(stats.tcp_links, 1u);
  EXPECT_EQ(stats.intra_delivered, kMessages);
  // Unified accounting: intra deliveries are not a side channel — they flow
  // through the same attempt counters as TCP frames, so the topic-level
  // sent count (enqueued - dropped) covers both transports.
  EXPECT_EQ(stats.enqueued, 2 * kMessages);
  EXPECT_EQ(stats.dropped, 0u);
}

/// One subscription fed by an in-process publisher (both tiers) and by a
/// wire-only publisher on the same topic: each delivery is counted once,
/// so receivedCount() is exactly the wire deliveries plus both intra tiers.
TEST_F(IntraProcessTest, ReceivedCountSumsWireAndIntraTiers) {
  constexpr char kTopic[] = "/intra/count_once";
  ros::NodeHandle node("count_once");
  std::atomic<uint64_t> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = node.subscribe<SfmString>(
      kTopic, 64, [&](const SfmString::ConstPtr&) { got.fetch_add(1); },
      options);
  auto intra_pub = node.advertise<SfmString>(kTopic, 64);
  // A Publication that never registers for in-process links (like bag
  // replay): the subscription reaches it over TCP.
  auto wire_pub = ros::Publication::Create(
      kTopic, SfmString::DataType(), ros::TransportChecksum<SfmString>(),
      "count_once_wire", 64);
  ASSERT_TRUE(wire_pub.ok());
  const ros::TopicEndpoint endpoint{"127.0.0.1", (*wire_pub)->port(),
                                    "count_once_wire"};
  ASSERT_TRUE(ros::master()
                  .RegisterPublisher(kTopic, SfmString::DataType(),
                                     ros::TransportChecksum<SfmString>(),
                                     endpoint)
                  .ok());
  ASSERT_TRUE(WaitFor([&] {
    return sub.getNumPublishers() == 2 && (*wire_pub)->NumSubscribers() == 1;
  }));

  constexpr uint64_t kZeroCopy = 3;
  constexpr uint64_t kWholeCopy = 2;
  constexpr uint64_t kWire = 4;
  auto msg = SfmString::create();
  msg->data = "counted once";
  for (uint64_t i = 0; i < kZeroCopy; ++i) intra_pub.publish(msg);
  for (uint64_t i = 0; i < kWholeCopy; ++i) intra_pub.publish(*msg);
  for (uint64_t i = 0; i < kWire; ++i) {
    (*wire_pub)->Publish(ros::Serializer<SfmString>::ToWire(*msg));
  }
  ASSERT_TRUE(
      WaitFor([&] { return got.load() == kZeroCopy + kWholeCopy + kWire; }));

  EXPECT_EQ(sub.intraZeroCopyCount(), kZeroCopy);
  EXPECT_EQ(sub.intraWholeCopyCount(), kWholeCopy);
  EXPECT_EQ(sub.receivedCount(), sub.intraZeroCopyCount() +
                                     sub.intraWholeCopyCount() + kWire);
  EXPECT_EQ(sub.receivedCount(), got.load());

  ros::master().UnregisterPublisher(kTopic, endpoint);
  (*wire_pub)->Shutdown();
}

// ---- subscription lifetime ----

/// The last Subscriber copy going out of scope (no shutdown() call) shuts
/// the subscription down and frees it while its publisher lives on: the
/// lane is unhooked, the callback and everything it captured are released,
/// and the next publish offers nothing.
TEST_F(IntraProcessTest, DroppingLastHandleShutsDownAndFrees) {
  ros::NodeHandle node("handle_drop");
  auto pub = node.advertise<SfmString>("/intra/handle_drop", 10);
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  std::atomic<uint64_t> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = std::make_unique<ros::Subscriber>(node.subscribe<SfmString>(
      "/intra/handle_drop", 10,
      [sentinel, &got](const SfmString::ConstPtr&) { got.fetch_add(1); },
      options));
  sentinel.reset();  // the callback holds the only reference now
  ASSERT_EQ(pub.getNumSubscribers(), 1u);

  ros::Subscriber copy = *sub;
  auto msg = SfmString::create();
  pub.publish(msg);
  EXPECT_EQ(got.load(), 1u);

  sub.reset();  // one copy left: still subscribed
  EXPECT_EQ(pub.getNumSubscribers(), 1u);
  EXPECT_FALSE(watch.expired());

  copy = ros::Subscriber();  // the last handle goes, without shutdown()
  EXPECT_EQ(pub.getNumSubscribers(), 0u);
  EXPECT_TRUE(watch.expired()) << "subscription (and its callback) leaked";

  const auto before = pub.getStats();
  pub.publish(msg);
  const auto after = pub.getStats();
  EXPECT_EQ(after.enqueued, before.enqueued);
  EXPECT_EQ(after.dropped, 0u);
  EXPECT_EQ(got.load(), 1u);
}

TEST_F(IntraProcessTest, RegistryDropsEntryOnPublisherShutdown) {
  const size_t before = ros::intra_registry().Size();
  {
    ros::NodeHandle pub_node("pub");
    auto pub = pub_node.advertise<SfmString>("/intra/registry", 10);
    EXPECT_EQ(ros::intra_registry().Size(), before + 1);
  }
  EXPECT_EQ(ros::intra_registry().Size(), before);
}

// ---- whole-copy tier ----

TEST_F(IntraProcessTest, WholeCopyTierDeliversIndependentClone) {
  using SfmImage = sensor_msgs::sfm::Image;
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  SfmImage::ConstPtr received;
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = sub_node.subscribe<SfmImage>(
      "/intra/whole_copy", 10,
      [&](const SfmImage::ConstPtr& msg) { received = msg; }, options);
  auto pub = pub_node.advertise<SfmImage>("/intra/whole_copy", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  auto msg = SfmImage::create();
  msg->width = 4;
  msg->height = 1;
  msg->data.resize(12);
  msg->data[0] = 0x11;
  pub.publish(*msg);  // const-ref: caller keeps mutation rights

  ASSERT_NE(received, nullptr);
  EXPECT_NE(received.get(), msg.get());  // it is a clone
  // The publisher mutating its message does not reach the subscriber.
  msg->data[0] = 0x22;
  EXPECT_EQ(received->data[0], 0x11);
  EXPECT_EQ(received->width, 4u);
}

// ---- zero-copy tier ----

TEST_F(IntraProcessTest, ZeroCopyTierAliasesPublishedMessage) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  SfmString::ConstPtr received;
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = sub_node.subscribe<SfmString>(
      "/intra/zero_copy", 10,
      [&](const SfmString::ConstPtr& msg) { received = msg; }, options);
  auto pub = pub_node.advertise<SfmString>("/intra/zero_copy", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  const auto borrows_before = ::sfm::gmm().Stats().borrows;
  auto msg = SfmString::create();
  msg->data = "shared, not copied";
  pub.publish(msg);  // shared_ptr: relinquishes mutation rights

  ASSERT_NE(received, nullptr);
  EXPECT_EQ(received.get(), msg.get());  // the very same message
  EXPECT_EQ(sub.intraZeroCopyCount(), 1u);
  EXPECT_EQ(::sfm::gmm().Stats().borrows, borrows_before + 1);
}

TEST_F(IntraProcessTest, BorrowedArenaOutlivesPublisherRelease) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  SfmString::ConstPtr received;
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = sub_node.subscribe<SfmString>(
      "/intra/borrowed", 10,
      [&](const SfmString::ConstPtr& msg) { received = msg; }, options);
  auto pub = pub_node.advertise<SfmString>("/intra/borrowed", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  auto msg = SfmString::create();
  msg->data = "borrowed beyond release";
  const void* start = msg.get();
  pub.publish(msg);
  ASSERT_NE(received, nullptr);
  ASSERT_EQ(received.get(), msg.get());

  // Publisher drops its handle: the manager record is released...
  msg.reset();
  EXPECT_FALSE(::sfm::gmm().Find(start).has_value());
  // ...but the subscriber's borrow pins the arena block, so the payload
  // (stored behind the skeleton, reached via relative offsets) still reads.
  EXPECT_EQ(received->data, "borrowed beyond release");
}

TEST_F(IntraProcessTest, RvaluePublishRidesZeroCopyTier) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  std_msgs::String::ConstPtr received;
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = sub_node.subscribe<std_msgs::String>(
      "/intra/rvalue", 10,
      [&](const std_msgs::String::ConstPtr& msg) { received = msg; },
      options);
  auto pub = pub_node.advertise<std_msgs::String>("/intra/rvalue", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  std_msgs::String msg;
  msg.data = "moved in";
  pub.publish(std::move(msg));
  ASSERT_NE(received, nullptr);
  EXPECT_EQ(received->data, "moved in");
  EXPECT_EQ(sub.intraZeroCopyCount(), 1u);
}

// ---- delivery accounting ----

TEST_F(IntraProcessTest, SubscriberQueueOverflowIsCountedAsDropped) {
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");

  std::atomic<uint64_t> ran{0};
  // Queued dispatch with a depth-3 pending queue, never spun while
  // publishing: every publish beyond the depth must evict the oldest.
  auto sub = sub_node.subscribe<SfmString>(
      "/intra/overflow", 3,
      [&](const SfmString::ConstPtr&) { ran.fetch_add(1); });
  auto pub = pub_node.advertise<SfmString>("/intra/overflow", 10);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  constexpr uint64_t kPublished = 10;
  for (uint64_t i = 0; i < kPublished; ++i) {
    auto msg = SfmString::create();
    msg->data = "overflow";
    pub.publish(*msg);  // intra: delivered into the pending queue inline
  }
  EXPECT_EQ(sub.receivedCount(), kPublished);
  EXPECT_EQ(sub.droppedCount(), kPublished - 3);  // exactly the overflow

  while (sub_node.spinOnce()) {
  }
  EXPECT_EQ(ran.load(), 3u);  // the queue depth survives
}

TEST_F(IntraProcessTest, EvictedTcpFramesCountAsDroppedNotSent) {
  rsf::ConcurrentQueue<int> queue(2, rsf::QueueFullPolicy::kDropOldest);
  EXPECT_EQ(queue.Offer(1), rsf::PushOutcome::kAccepted);
  EXPECT_EQ(queue.Offer(2), rsf::PushOutcome::kAccepted);
  EXPECT_EQ(queue.Offer(3), rsf::PushOutcome::kAcceptedEvictedOldest);
  queue.Shutdown();
  EXPECT_EQ(queue.Offer(4), rsf::PushOutcome::kRejected);

  // End to end: a publication whose subscriber never drains evicts frames,
  // and those evictions show up as drops, never as sent.
  auto publication =
      ros::Publication::Create("/intra/evict", "std_msgs/String", "md5", "pub",
                               /*queue_size=*/2);
  ASSERT_TRUE(publication.ok());
  auto make_frame = [] {
    auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[8]());
    return ros::SerializedMessage{std::move(buffer), 8};
  };
  // No connected links: nothing is enqueued, nothing is dropped.
  (*publication)->Publish(make_frame());
  EXPECT_EQ((*publication)->Stats().enqueued, 0u);
  EXPECT_EQ((*publication)->SentCount(), 0u);
  (*publication)->Shutdown();
}

// ---- handshake rejection ----

TEST_F(IntraProcessTest, IntraLinkRejectedOnChecksumMismatch) {
  // A publication advertised under a different transport checksum (e.g. the
  // regular variant of the type) must refuse the in-process link the same
  // way the TCPROS handshake would.
  auto publication = ros::Publication::Create(
      "/intra/md5", SfmString::DataType(), "some-other-md5", "pub",
      /*queue_size=*/10, /*intra_capable=*/true);
  ASSERT_TRUE(publication.ok());

  ros::NodeHandle sub_node("sub");
  std::atomic<uint64_t> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  auto sub = sub_node.subscribe<SfmString>(
      "/intra/md5", 10, [&](const SfmString::ConstPtr&) { got.fetch_add(1); },
      options);
  // Announce the endpoint with wildcards (type-agnostic registration, so the
  // master's type check does not mask the handshake-level rejection).
  ASSERT_TRUE(ros::master()
                  .RegisterPublisher("/intra/md5", "*", "*",
                                     {"127.0.0.1", (*publication)->port(),
                                      "pub"})
                  .ok());

  // The link must be refused, with no TCP fallback (TCPROS would reject the
  // same checksum).
  rsf::SleepForNanos(100'000'000);
  EXPECT_EQ((*publication)->NumSubscribers(), 0u);
  EXPECT_EQ(sub.getNumPublishers(), 0u);
  EXPECT_EQ(got.load(), 0u);
  (*publication)->Shutdown();
}

TEST_F(IntraProcessTest, TcpHandshakeRejectionDropsTheLink) {
  // Same mismatch, forced onto the wire: the publisher answers the
  // handshake with an error header and the subscriber drops the link.
  auto publication = ros::Publication::Create(
      "/intra/tcp_md5", SfmString::DataType(), "some-other-md5", "pub",
      /*queue_size=*/10);
  ASSERT_TRUE(publication.ok());

  ros::NodeHandle sub_node("sub");
  std::atomic<uint64_t> got{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  auto sub = sub_node.subscribe<SfmString>(
      "/intra/tcp_md5", 10,
      [&](const SfmString::ConstPtr&) { got.fetch_add(1); }, options);
  ASSERT_TRUE(ros::master()
                  .RegisterPublisher("/intra/tcp_md5", "*", "*",
                                     {"127.0.0.1", (*publication)->port(),
                                      "pub"})
                  .ok());

  // The connection is dialed, rejected in the header exchange, and closed.
  rsf::SleepForNanos(100'000'000);
  EXPECT_EQ((*publication)->NumSubscribers(), 0u);
  EXPECT_EQ(sub.getNumPublishers(), 0u);
  EXPECT_EQ(got.load(), 0u);
  (*publication)->Shutdown();
}

// ---- accept robustness ----

TEST_F(IntraProcessTest, TransientAcceptErrnosAreClassified) {
  EXPECT_TRUE(rsf::net::IsTransientAcceptErrno(ECONNABORTED));
  EXPECT_TRUE(rsf::net::IsTransientAcceptErrno(EINTR));
  EXPECT_TRUE(rsf::net::IsTransientAcceptErrno(EMFILE));
  EXPECT_TRUE(rsf::net::IsTransientAcceptErrno(ENFILE));
  EXPECT_TRUE(rsf::net::IsTransientAcceptErrno(ENOBUFS));
  EXPECT_FALSE(rsf::net::IsTransientAcceptErrno(EBADF));
  EXPECT_FALSE(rsf::net::IsTransientAcceptErrno(EINVAL));
}

// ---- mixed-transport stress (the tsan target) ----

TEST_F(IntraProcessTest, ConcurrentMixedTransportStress) {
  constexpr int kPublishers = 2;
  constexpr int kMessagesPerPublisher = 150;

  ros::NodeHandle sub_node("subs");
  std::atomic<uint64_t> intra_got{0};
  std::atomic<uint64_t> tcp_got{0};
  std::atomic<uint64_t> doomed_got{0};

  ros::SubscribeOptions inline_opts;
  inline_opts.inline_dispatch = true;
  auto intra_sub = sub_node.subscribe<SfmString>(
      "/stress", 50, [&](const SfmString::ConstPtr&) { intra_got.fetch_add(1); },
      inline_opts);
  ros::SubscribeOptions tcp_opts = inline_opts;
  tcp_opts.allow_intra_process = false;
  auto tcp_sub = sub_node.subscribe<SfmString>(
      "/stress", 50, [&](const SfmString::ConstPtr&) { tcp_got.fetch_add(1); },
      tcp_opts);
  // This one shuts down mid-stream while publishers are firing.
  auto doomed_sub = sub_node.subscribe<SfmString>(
      "/stress", 50,
      [&](const SfmString::ConstPtr&) { doomed_got.fetch_add(1); },
      inline_opts);

  std::vector<std::thread> publishers;
  std::atomic<int> ready{0};
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      ros::NodeHandle pub_node("pub" + std::to_string(p));
      auto pub = pub_node.advertise<SfmString>("/stress", 50);
      // All three subscribers (two intra, one TCP) must be linked before
      // anyone publishes, or the exact-count assertion below cannot hold.
      WaitFor([&] { return pub.getNumSubscribers() >= 3; });
      ready.fetch_add(1);
      WaitFor([&] { return ready.load() == kPublishers; });
      for (int i = 0; i < kMessagesPerPublisher; ++i) {
        auto msg = SfmString::create();
        msg->data = "stress payload";
        if (i % 2 == 0) {
          pub.publish(*msg);  // whole-copy tier + TCP
        } else {
          pub.publish(msg);  // zero-copy tier + TCP
        }
        if (i % 16 == 0) rsf::SleepForNanos(100'000);
      }
    });
  }

  // Kill one subscriber while traffic is in flight.
  WaitFor([&] { return doomed_got.load() > 0; });
  doomed_sub.shutdown();

  for (auto& thread : publishers) thread.join();
  // The survivors saw traffic from both publishers on both transports; the
  // inline intra subscriber missed nothing.
  EXPECT_EQ(intra_got.load(),
            static_cast<uint64_t>(kPublishers * kMessagesPerPublisher));
  EXPECT_GT(tcp_got.load(), 0u);
  EXPECT_GT(doomed_got.load(), 0u);
  EXPECT_EQ(intra_sub.intraZeroCopyCount() + intra_sub.intraWholeCopyCount(),
            intra_got.load());
}

}  // namespace
