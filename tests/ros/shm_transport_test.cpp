// Tests for the shared-memory transport tier (DESIGN.md §12): the pool
// allocator and its gating, the descriptor/control codecs, the generation
// fence and descriptor validation, crash reclamation (SIGKILLed peers,
// stale /dev/shm files), and the full middleware path — both the in-process
// forced-wire loop and a real cross-process subscriber killed mid-delivery.
//
// This binary has a custom main: re-exec'd with --shm-kill-child it becomes
// the victim subscriber for the cross-process chaos test.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "paper_msgs/sfm/Image.h"
#include "net/framing.h"
#include "net/socket.h"
#include "ros/ros.h"
#include "ros/shm_transport.h"
#include "sfm/shm_pool.h"

namespace {

using Image = paper_msgs::sfm::Image;
// paper_msgs/Image arenas are exactly the default shm threshold class.
constexpr size_t kCls = Image::kArenaCapacity;
static_assert(kCls == 64 * 1024);

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

/// Scoped setenv/unsetenv (tests must not leak env into each other, and the
/// CI shm job exports RSF_TRANSPORT_SHM=1 for the whole suite — tests that
/// need the tier OFF must override, not assume).
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

TEST(ShmCodec, DescriptorRoundTrip) {
  sfm::shm::Descriptor in;
  in.pool_id = 0x1122334455667788ull;
  in.block_index = 7;
  in.gen = 42;
  in.offset = 0x9000;
  in.length = 48 * 1024;
  in.seq = 0xA1B2C3D4E5F60718ull;

  const auto frame = ros::EncodeShmDescriptorFrame(in);
  ASSERT_NE(frame, nullptr);
  sfm::shm::Descriptor out;
  ASSERT_TRUE(
      ros::DecodeShmDescriptor(frame.get(), ros::kShmDescriptorSize, &out));
  EXPECT_EQ(out.pool_id, in.pool_id);
  EXPECT_EQ(out.block_index, in.block_index);
  EXPECT_EQ(out.gen, in.gen);
  EXPECT_EQ(out.offset, in.offset);
  EXPECT_EQ(out.length, in.length);
  EXPECT_EQ(out.seq, in.seq);
}

TEST(ShmCodec, DescriptorRejectsBadSizeAndMagic) {
  sfm::shm::Descriptor in;
  const auto frame = ros::EncodeShmDescriptorFrame(in);
  sfm::shm::Descriptor out;
  EXPECT_FALSE(
      ros::DecodeShmDescriptor(frame.get(), ros::kShmDescriptorSize - 1, &out));
  uint8_t corrupt[ros::kShmDescriptorSize];
  std::memcpy(corrupt, frame.get(), sizeof(corrupt));
  corrupt[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(ros::DecodeShmDescriptor(corrupt, sizeof(corrupt), &out));
}

TEST(ShmCodec, ControlRoundTrip) {
  for (const auto kind :
       {ros::ShmControlKind::kAck, ros::ShmControlKind::kDisable}) {
    const auto frame = ros::EncodeShmControlFrame(kind, 987654321ull);
    ASSERT_NE(frame, nullptr);
    ros::ShmControlKind got_kind{};
    uint64_t got_seq = 0;
    ASSERT_TRUE(ros::DecodeShmControl(frame.get(), ros::kShmControlSize,
                                      &got_kind, &got_seq));
    EXPECT_EQ(got_kind, kind);
    EXPECT_EQ(got_seq, 987654321ull);
    EXPECT_FALSE(ros::DecodeShmControl(frame.get(), ros::kShmControlSize - 1,
                                       &got_kind, &got_seq));
  }
}

// ---- pool ----

class ShmPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { sfm::shm::ResetPoolForTest(); }
  void TearDown() override { sfm::shm::ResetPoolForTest(); }
};

TEST_F(ShmPoolTest, TierGatedByEnvPeerThresholdAndClass) {
  {
    ScopedEnv on("RSF_TRANSPORT_SHM", "1");
    // No peer ever negotiated: allocation stays on the heap even with the
    // env set (the CI shm job must not change tier-1 allocation behaviour).
    EXPECT_EQ(sfm::shm::TryAcquire(kCls), nullptr);
  }
  {
    ScopedEnv off("RSF_TRANSPORT_SHM", "0");
    sfm::shm::NotePeerNegotiated();
    EXPECT_EQ(sfm::shm::TryAcquire(kCls), nullptr);
  }
  {
    ScopedEnv on("RSF_TRANSPORT_SHM", "1");
    sfm::shm::NotePeerNegotiated();
    EXPECT_EQ(sfm::shm::TryAcquire(1024), nullptr);  // below threshold
    EXPECT_EQ(sfm::shm::TryAcquire(kCls + 4096), nullptr);  // not a pow2 class
    uint8_t* block = sfm::shm::TryAcquire(kCls);
    ASSERT_NE(block, nullptr);
    EXPECT_TRUE(sfm::shm::ReleaseIfOwned(block));

    std::unique_ptr<uint8_t[]> heap(new uint8_t[kCls]);
    EXPECT_FALSE(sfm::shm::ReleaseIfOwned(heap.get()));
  }
  {
    ScopedEnv on("RSF_TRANSPORT_SHM", "1");
    ScopedEnv threshold("RSF_SHM_THRESHOLD", "32768");
    EXPECT_EQ(sfm::shm::ThresholdBytes(), 32768u);
    sfm::shm::NotePeerNegotiated();
    uint8_t* block = sfm::shm::TryAcquire(32768);
    ASSERT_NE(block, nullptr);
    EXPECT_TRUE(sfm::shm::ReleaseIfOwned(block));
  }
}

TEST_F(ShmPoolTest, PreparePublishDescribesTheBlock) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  sfm::shm::NotePeerNegotiated();

  uint8_t heap_byte = 0;
  EXPECT_FALSE(sfm::shm::PreparePublish(&heap_byte, 1, 1).has_value());

  uint8_t* block = sfm::shm::TryAcquire(kCls);
  ASSERT_NE(block, nullptr);
  auto stats = sfm::shm::GetPoolStats();
  EXPECT_EQ(stats.live_blocks, 1u);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_GE(stats.free_blocks, 1u);

  const auto desc = sfm::shm::PreparePublish(block, 4096, 17);
  ASSERT_TRUE(desc.has_value());
  EXPECT_EQ(desc->length, 4096u);
  EXPECT_EQ(desc->seq, 17u);

  // The descriptor round-trips through a fresh mapping to the same bytes.
  std::memset(block, 0xC3, 256);
  auto view = sfm::shm::AttachSegment(sfm::shm::Namespace(), desc->pool_id);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const uint8_t* mapped = (*view)->block(desc->block_index);
  EXPECT_NE(mapped, block);  // distinct mapping, same pages
  EXPECT_EQ(std::memcmp(mapped, block, 256), 0);
  EXPECT_EQ((*view)->header().data_offset +
                desc->block_index * (*view)->header().block_class,
            desc->offset);

  EXPECT_TRUE(sfm::shm::ReleaseIfOwned(block));
  stats = sfm::shm::GetPoolStats();
  EXPECT_EQ(stats.live_blocks, 0u);
  EXPECT_EQ(stats.retired_blocks, 0u);  // no peer refs: recycled immediately
}

TEST_F(ShmPoolTest, DescriptorValidationAndGenerationFence) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  sfm::shm::NotePeerNegotiated();
  uint8_t* block = sfm::shm::TryAcquire(kCls);
  ASSERT_NE(block, nullptr);
  std::memset(block, 0x7E, 512);
  const auto desc = sfm::shm::PreparePublish(block, 4096, 5);
  ASSERT_TRUE(desc.has_value());

  const int slot = sfm::shm::AcquirePeerSlot(::getpid());
  ASSERT_GE(slot, 0);
  ros::ShmSubState state;
  state.negotiated = true;
  state.slot = slot;
  state.ns = sfm::shm::Namespace();

  // Corrupted geometry must be rejected with a tier-fatal code, never
  // kUnavailable (which means "just this message is gone").
  const auto expect_fatal = [&](sfm::shm::Descriptor d) {
    auto result = ros::ShmMapDescriptor(state, d, 64);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().code(), rsf::StatusCode::kUnavailable);
  };
  {
    auto d = *desc;
    d.block_index = 9999;
    expect_fatal(d);
  }
  {
    auto d = *desc;
    d.offset += 64;  // not a block boundary
    expect_fatal(d);
  }
  {
    auto d = *desc;
    d.length = 0;
    expect_fatal(d);
  }
  {
    auto d = *desc;
    d.length = kCls + 1;  // larger than the block class
    expect_fatal(d);
  }
  {
    auto d = *desc;
    d.length = 8;  // smaller than the caller's skeleton
    expect_fatal(d);
  }
  {
    // A stale generation or a not-yet-stamped sequence is the drop-oldest
    // race: kUnavailable, the link stays in the tier.
    auto d = *desc;
    d.gen += 1;
    auto result = ros::ShmMapDescriptor(state, d, 64);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), rsf::StatusCode::kUnavailable);
  }
  {
    auto d = *desc;
    d.seq += 1;  // descriptor from the future: stamp not visible yet
    auto result = ros::ShmMapDescriptor(state, d, 64);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), rsf::StatusCode::kUnavailable);
  }
  {
    auto d = *desc;
    d.pool_id = 424242;  // no such segment file
    auto result = ros::ShmMapDescriptor(state, d, 64);
    ASSERT_FALSE(result.ok());
  }

  // The real descriptor maps, reads the publisher's bytes, and holds a
  // cross-process reference that parks the block in `retired` on release.
  {
    auto result = ros::ShmMapDescriptor(state, *desc, 64);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::shared_ptr<uint8_t[]> buffer = *std::move(result);
    EXPECT_EQ(std::memcmp(buffer.get(), block, 512), 0);

    EXPECT_TRUE(sfm::shm::ReleaseIfOwned(block));
    auto stats = sfm::shm::GetPoolStats();
    EXPECT_EQ(stats.retired_blocks, 1u);  // our reference pins it
    EXPECT_EQ(sfm::shm::RecycleRetired(), 0u);
  }
  // Reference dropped: the block recycles and its generation moves on.
  EXPECT_EQ(sfm::shm::RecycleRetired(), 1u);
  auto stats = sfm::shm::GetPoolStats();
  EXPECT_EQ(stats.retired_blocks, 0u);
  {
    // The old descriptor now fails the generation fence.
    auto result = ros::ShmMapDescriptor(state, *desc, 64);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), rsf::StatusCode::kUnavailable);
  }
  sfm::shm::ReleasePeerSlot(slot, ::getpid());
}

TEST_F(ShmPoolTest, StaleSegmentSweepUnlinksDeadOwnersOnly) {
  // A reaped child pid is guaranteed dead; files under its pid are stale.
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(dead, &status, 0), dead);

  const std::string stale =
      "/rsf." + std::to_string(dead) + ".deadbeef.0";
  const std::string own =
      "/rsf." + std::to_string(::getpid()) + ".deadbeef.0";
  for (const auto& name : {stale, own}) {
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, 4096), 0);
    ::close(fd);
  }

  EXPECT_GE(sfm::shm::SweepStaleSegments(), 1u);
  // The dead owner's file is gone; our own pid's file survived the sweep
  // (a restarted publisher must never unlink a live process's pool).
  EXPECT_LT(::shm_open(stale.c_str(), O_RDWR, 0), 0);
  const int still = ::shm_open(own.c_str(), O_RDWR, 0);
  EXPECT_GE(still, 0);
  if (still >= 0) ::close(still);
  ::shm_unlink(own.c_str());
}

// The chaos core: a peer takes a cross-process reference, dies by SIGKILL
// without releasing it, and the publisher's liveness sweep force-reclaims
// the block.  Plain fork (no exec) is safe here because the child only
// touches inherited shared pages and async-signal-safe syscalls.
TEST_F(ShmPoolTest, SigkilledPeerReferencesAreReclaimed) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  sfm::shm::NotePeerNegotiated();
  uint8_t* block = sfm::shm::TryAcquire(kCls);
  ASSERT_NE(block, nullptr);
  const auto desc = sfm::shm::PreparePublish(block, 4096, 1);
  ASSERT_TRUE(desc.has_value());
  auto view = sfm::shm::AttachSegment(sfm::shm::Namespace(), desc->pool_id);
  ASSERT_TRUE(view.ok());
  sfm::shm::BlockCtl* ctl = (*view)->ctl(desc->block_index);

  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(from_child), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: wait for its slot, take the reference, report, die hard.
    char slot_byte = 0;
    if (::read(to_child[0], &slot_byte, 1) != 1) _exit(10);
    ctl->refs[static_cast<size_t>(slot_byte)].fetch_add(
        1, std::memory_order_seq_cst);
    const char ready = 1;
    if (::write(from_child[1], &ready, 1) != 1) _exit(11);
    ::raise(SIGKILL);
    _exit(12);  // unreachable
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  const int slot = sfm::shm::AcquirePeerSlot(pid);
  ASSERT_GE(slot, 0);
  const char slot_byte = static_cast<char>(slot);
  ASSERT_EQ(::write(to_child[1], &slot_byte, 1), 1);
  char ready = 0;
  ASSERT_EQ(::read(from_child[0], &ready, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);  // reap: zombies look alive
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ::close(to_child[1]);
  ::close(from_child[0]);

  // Retiring the block parks it: the dead peer's reference pins it.
  ASSERT_TRUE(sfm::shm::ReleaseIfOwned(block));
  auto stats = sfm::shm::GetPoolStats();
  EXPECT_EQ(stats.retired_blocks, 1u);
  EXPECT_EQ(sfm::shm::RecycleRetired(), 0u);

  // The liveness sweep clears the dead peer's column and reclaims.
  EXPECT_GE(sfm::shm::SweepDeadPeers(), 1u);
  stats = sfm::shm::GetPoolStats();
  EXPECT_EQ(stats.retired_blocks, 0u);
  EXPECT_EQ(stats.live_blocks, 0u);
  EXPECT_GE(stats.blocks_reclaimed, 1u);
  EXPECT_GE(ros::shim::shm_blocks_reclaimed(), 1u);

  // The pool keeps serving after the crash.
  uint8_t* again = sfm::shm::TryAcquire(kCls);
  EXPECT_NE(again, nullptr);
  EXPECT_TRUE(sfm::shm::ReleaseIfOwned(again));
}

// ---- middleware (in-process, forced wire) ----

class ShmMiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override { sfm::shm::ResetPoolForTest(); }
  void TearDown() override {
    ros::master().Reset();
    sfm::shm::ResetPoolForTest();
  }
};

/// Drains the shm pool and the arena pool to zero live blocks, proving
/// nothing leaked once messages and links are gone.
void ExpectNoLeakedBlocks() {
  EXPECT_TRUE(WaitFor([] {
    sfm::shm::RecycleRetired();
    const auto stats = sfm::shm::GetPoolStats();
    return stats.live_blocks == 0 && stats.retired_blocks == 0;
  })) << "shm blocks leaked: live="
      << sfm::shm::GetPoolStats().live_blocks
      << " retired=" << sfm::shm::GetPoolStats().retired_blocks;
  EXPECT_TRUE(WaitFor([] {
    for (const auto& cls : sfm::ArenaPoolSnapshot()) {
      if (cls.live != 0) return false;
    }
    return true;
  })) << "arena-pool blocks leaked";
}

TEST_F(ShmMiddlewareTest, DescriptorDeliveryIsZeroCopyWithStatsParity) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  constexpr size_t kBytes = 48 * 1024;
  constexpr int kMessages = 6;
  const uint64_t shm_before =
      ros::shim::shm_zero_copy_deliveries.load(std::memory_order_relaxed);

  ros::NodeHandle pub_node("shm_pub");
  ros::NodeHandle sub_node("shm_sub");
  auto pub = pub_node.advertise<Image>("/shm_img", 8);

  std::atomic<int> received{0};
  std::atomic<bool> payload_ok{true};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;  // force the wire path
  auto sub = sub_node.subscribe<Image>(
      "/shm_img", 8,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr& msg) {
            if (msg->width != 640 || msg->height != 480 ||
                msg->data.size() != kBytes || msg->data[0] != 0x11 ||
                msg->data[kBytes - 1] != 0x99) {
              payload_ok = false;
            }
            received.fetch_add(1);
          }),
      options);

  // The handshake negotiates the tier before any message is allocated, so
  // every publish below rides a shared block.
  ASSERT_TRUE(WaitFor([&] { return pub.getStats().shm_links == 1; }));

  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->width = 640;
    img->height = 480;
    img->data.resize(kBytes);
    img->data[0] = 0x11;
    img->data[kBytes - 1] = 0x99;
    pub.publish(*img);
    ASSERT_TRUE(WaitFor([&] { return received.load() > i; }))
        << "message " << i << " never arrived";
  }

  EXPECT_TRUE(payload_ok.load());
  EXPECT_EQ(sub.shmZeroCopyCount(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(sub.receivedCount(), static_cast<uint64_t>(kMessages));

  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.shm_descriptors, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.shm_inline, 0u);
  EXPECT_EQ(stats.shm_links, 1u);
  EXPECT_EQ(
      ros::shim::shm_zero_copy_deliveries.load(std::memory_order_relaxed) -
          shm_before,
      static_cast<uint64_t>(kMessages));

  sub.shutdown();
  ExpectNoLeakedBlocks();
}

TEST_F(ShmMiddlewareTest, BelowThresholdNegotiatedLinkFallsBackInline) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  // Push the threshold above this type's 64 KiB class: blocks stay on the
  // heap, and a negotiated link must deliver inline, correctly.
  ScopedEnv threshold("RSF_SHM_THRESHOLD", "131072");
  constexpr size_t kBytes = 48 * 1024;
  constexpr int kMessages = 3;
  const uint64_t fallback_before =
      ros::shim::shm_fallback_deliveries.load(std::memory_order_relaxed);

  ros::NodeHandle pub_node("shm_pub");
  ros::NodeHandle sub_node("shm_sub");
  auto pub = pub_node.advertise<Image>("/shm_small", 8);

  std::atomic<int> received{0};
  std::atomic<bool> payload_ok{true};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  auto sub = sub_node.subscribe<Image>(
      "/shm_small", 8,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr& msg) {
            if (msg->data.size() != kBytes || msg->data[7] != 0x42) {
              payload_ok = false;
            }
            received.fetch_add(1);
          }),
      options);
  ASSERT_TRUE(WaitFor([&] { return pub.getStats().shm_links == 1; }));

  for (int i = 0; i < kMessages; ++i) {
    auto img = Image::create();
    img->data.resize(kBytes);
    img->data[7] = 0x42;
    pub.publish(*img);
    ASSERT_TRUE(WaitFor([&] { return received.load() > i; }));
  }

  EXPECT_TRUE(payload_ok.load());
  EXPECT_EQ(sub.shmZeroCopyCount(), 0u);
  const auto stats = pub.getStats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.shm_descriptors, 0u);
  EXPECT_EQ(stats.shm_inline, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.shm_links, 1u);
  EXPECT_EQ(
      ros::shim::shm_fallback_deliveries.load(std::memory_order_relaxed) -
          fallback_before,
      static_cast<uint64_t>(kMessages));

  sub.shutdown();
  ExpectNoLeakedBlocks();
}

TEST_F(ShmMiddlewareTest, SubscriberOptOutNeverNegotiates) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");

  ros::NodeHandle pub_node("shm_pub");
  ros::NodeHandle sub_node("shm_sub");
  auto pub = pub_node.advertise<Image>("/shm_optout", 8);

  std::atomic<int> received{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  options.allow_shm = false;
  auto sub = sub_node.subscribe<Image>(
      "/shm_optout", 8,
      std::function<void(const Image::ConstPtr&)>(
          [&](const Image::ConstPtr&) { received.fetch_add(1); }),
      options);
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 1; }));

  auto img = Image::create();
  img->data.resize(4096);
  pub.publish(*img);
  ASSERT_TRUE(WaitFor([&] { return received.load() == 1; }));

  const auto stats = pub.getStats();
  EXPECT_EQ(stats.shm_links, 0u);
  EXPECT_EQ(stats.shm_descriptors, 0u);
  EXPECT_EQ(stats.shm_inline, 0u);
  EXPECT_EQ(sub.shmZeroCopyCount(), 0u);
}

/// Performs the TCPROS subscriber handshake over a raw blocking AF_UNIX
/// connection, asking for shm with `claimed_pid`, and returns the reply.
ros::ConnectionHeader ShmHandshakeOverUnix(uint16_t port, const char* topic,
                                           pid_t claimed_pid) {
  auto conn = rsf::net::TcpConnection::ConnectLocal(port);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  if (!conn.ok() || !conn->SetNonBlocking(false).ok()) return {};
  auto header = ros::MakeSubscriberHeader(
      topic, Image::DataType(), ros::TransportChecksum<Image>(), "raw_sub");
  ros::AddShmRequestFields(&header, claimed_pid);
  EXPECT_TRUE(
      rsf::net::WriteFrame(*conn, ros::EncodeConnectionHeader(header)).ok());
  std::vector<uint8_t> reply;
  uint32_t length = 0;
  const bool read = rsf::net::ReadFrame(
                        *conn,
                        [&](uint32_t len) {
                          reply.resize(len == 0 ? 1 : len);
                          return reply.data();
                        },
                        &length)
                        .ok();
  EXPECT_TRUE(read);
  if (!read) return {};
  auto decoded = ros::DecodeConnectionHeader(reply.data(), length);
  EXPECT_TRUE(decoded.ok());
  return decoded.ok() ? *decoded : ros::ConnectionHeader{};
}

TEST_F(ShmMiddlewareTest, ForgedShmPidOnUnixLinkGetsNoGrant) {
  // On AF_UNIX the publisher knows its peer's pid from the kernel: a
  // header that claims another process gets plain TCP, and the honest
  // claim on the same publication still gets the grant.
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  auto publication = ros::Publication::Create(
      "/shm_forged", Image::DataType(), ros::TransportChecksum<Image>(),
      "forged_pub", 8);
  ASSERT_TRUE(publication.ok());
  auto pub = *publication;

  const ros::ConnectionHeader forged =
      ShmHandshakeOverUnix(pub->port(), "/shm_forged", ::getppid());
  EXPECT_EQ(forged.count("error"), 0u);
  EXPECT_EQ(forged.count("type"), 1u);
  EXPECT_EQ(forged.count("shm_ns"), 0u);

  const ros::ConnectionHeader honest =
      ShmHandshakeOverUnix(pub->port(), "/shm_forged", ::getpid());
  EXPECT_EQ(honest.count("shm_ns"), 1u);

  pub->Shutdown();
}

// ---- middleware (cross-process, SIGKILL mid-delivery) ----

constexpr const char* kShmKillChildFlag = "--shm-kill-child";
constexpr const char* kChaosTopic = "/shm_chaos";

/// Child mode for CrossProcessSubscriberKill: subscribe to the parent's
/// publisher through the shm tier, HOLD every received message (so the
/// cross-process refcounts stay up), report, then die by SIGKILL with the
/// references still taken.
int RunShmKillChild(uint16_t parent_port) {
  const auto status = ros::master().RegisterPublisher(
      kChaosTopic, Image::DataType(), ros::TransportChecksum<Image>(),
      ros::TopicEndpoint{"127.0.0.1", parent_port, "parent"});
  if (!status.ok()) return 2;

  static std::mutex held_mutex;
  static std::vector<Image::ConstPtr> held;
  static std::atomic<int> got{0};

  ros::NodeHandle node("chaos_sub");
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  auto sub = node.subscribe<Image>(
      kChaosTopic, 16,
      std::function<void(const Image::ConstPtr&)>(
          [](const Image::ConstPtr& msg) {
            std::lock_guard<std::mutex> lock(held_mutex);
            held.push_back(msg);  // never released: die holding the blocks
            got.fetch_add(1);
          }),
      options);

  const uint64_t deadline = rsf::MonotonicNanos() + 20'000'000'000ull;
  while (got.load() < 2 && rsf::MonotonicNanos() < deadline) {
    rsf::SleepForNanos(1'000'000);
  }
  if (got.load() < 2) return 3;
  if (sub.shmZeroCopyCount() < 2) return 4;  // tier never engaged
  std::printf("HOLDING %d\n", got.load());
  std::fflush(stdout);
  ::raise(SIGKILL);
  return 5;  // unreachable
}

TEST_F(ShmMiddlewareTest, CrossProcessSubscriberKillReclaimsBlocks) {
  ScopedEnv on("RSF_TRANSPORT_SHM", "1");
  constexpr size_t kBytes = 48 * 1024;

  ros::NodeHandle node("chaos_pub");
  auto pub = node.advertise<Image>(kChaosTopic, 16);
  const auto endpoints = ros::master().PublishersOf(kChaosTopic);
  ASSERT_EQ(endpoints.size(), 1u);

  char self_exe[4096] = {0};
  const ssize_t exe_len =
      ::readlink("/proc/self/exe", self_exe, sizeof(self_exe) - 1);
  ASSERT_GT(exe_len, 0);

  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    const std::string port = std::to_string(endpoints[0].port);
    ::execl(self_exe, self_exe, kShmKillChildFlag, port.c_str(),
            (char*)nullptr);
    _exit(127);
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);

  // The child connects and negotiates the tier; then feed it held messages
  // until it reports, SIGKILLs itself, and leaves its references behind.
  ASSERT_TRUE(WaitFor([&] { return pub.getStats().shm_links == 1; },
                      15'000'000'000ull));
  std::string pipe_text;
  const uint64_t deadline = rsf::MonotonicNanos() + 15'000'000'000ull;
  while (pipe_text.find("HOLDING") == std::string::npos &&
         rsf::MonotonicNanos() < deadline) {
    auto img = Image::create();
    img->width = 640;
    img->data.resize(kBytes);
    pub.publish(*img);
    for (int i = 0; i < 10; ++i) {
      rsf::SleepForNanos(10'000'000);
      char buf[64];
      const ssize_t r = ::read(fds[0], buf, sizeof(buf));
      if (r > 0) pipe_text.append(buf, static_cast<size_t>(r));
      if (pipe_text.find("HOLDING") != std::string::npos) break;
    }
  }
  ASSERT_NE(pipe_text.find("HOLDING"), std::string::npos)
      << "child never reached the holding state: '" << pipe_text << "'";

  // The publisher must keep publishing without stalling while the peer is
  // dying / dead.
  const uint64_t publish_start = rsf::MonotonicNanos();
  for (int i = 0; i < 10; ++i) {
    auto img = Image::create();
    img->data.resize(kBytes);
    pub.publish(*img);
  }
  EXPECT_LT(rsf::MonotonicNanos() - publish_start, 2'000'000'000ull);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ::close(fds[0]);

  // Link teardown + liveness sweep reclaim every block the dead subscriber
  // still referenced; nothing stays live or parked.
  ASSERT_TRUE(WaitFor([&] { return pub.getNumSubscribers() == 0; },
                      10'000'000'000ull));
  EXPECT_TRUE(WaitFor([] {
    sfm::shm::SweepDeadPeers();
    sfm::shm::RecycleRetired();
    const auto stats = sfm::shm::GetPoolStats();
    return stats.live_blocks == 0 && stats.retired_blocks == 0;
  })) << "blocks still referenced by the SIGKILLed subscriber";
  EXPECT_GE(sfm::shm::GetPoolStats().blocks_reclaimed, 1u);
  EXPECT_GE(ros::shim::shm_blocks_reclaimed(), 1u);
  EXPECT_EQ(sfm::shm::GetPoolStats().active_peer_slots, 0u);

  // The tier survives the crash: the pool still serves blocks.
  uint8_t* block = sfm::shm::TryAcquire(kCls);
  EXPECT_NE(block, nullptr);
  if (block != nullptr) EXPECT_TRUE(sfm::shm::ReleaseIfOwned(block));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], kShmKillChildFlag) == 0) {
    return RunShmKillChild(static_cast<uint16_t>(std::atoi(argv[2])));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
