// Unit tests for sfm::MessageManager — arena registration, interior-address
// lookup, expansion, publish aliasing, and the life-cycle state machine of
// paper §4.2 (Figs. 8 and 9) — and for the records the pooled arena blocks
// carry: re-armed per message, written to the index only at block birth
// and death, invisible while parked.
#include "sfm/message_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "sfm/alert.h"

namespace sfm {
namespace {

TEST(MessageManager, AllocateRegistersZeroedSkeleton) {
  MessageManager mm;
  void* start = mm.Allocate("test/Msg", 256, 32);
  ASSERT_NE(start, nullptr);

  const auto info = mm.Find(start);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->capacity, 256u);
  EXPECT_EQ(info->size, 32u);
  EXPECT_EQ(info->state, MessageState::kAllocated);
  EXPECT_STREQ(info->datatype.c_str(), "test/Msg");

  const auto* bytes = static_cast<const uint8_t*>(start);
  for (size_t i = 0; i < 32; ++i) EXPECT_EQ(bytes[i], 0) << i;

  EXPECT_TRUE(mm.Release(start));
  EXPECT_EQ(mm.LiveCount(), 0u);
}

TEST(MessageManager, FindByInteriorAddress) {
  MessageManager mm;
  auto* start = static_cast<uint8_t*>(mm.Allocate("test/Msg", 128, 16));
  EXPECT_TRUE(mm.Find(start + 1).has_value());
  EXPECT_TRUE(mm.Find(start + 127).has_value());
  EXPECT_FALSE(mm.Find(start + 128).has_value());
  mm.Release(start);
}

TEST(MessageManager, FindDistinguishesMultipleArenas) {
  MessageManager mm;
  void* a = mm.Allocate("test/A", 64, 8);
  void* b = mm.Allocate("test/B", 64, 8);
  EXPECT_EQ(mm.Find(a)->start, static_cast<uint8_t*>(a));
  EXPECT_EQ(mm.Find(b)->start, static_cast<uint8_t*>(b));
  EXPECT_EQ(mm.LiveCount(), 2u);
  mm.Release(a);
  mm.Release(b);
}

TEST(MessageManager, ExpandGrowsWholeMessage) {
  MessageManager mm;
  auto* start = static_cast<uint8_t*>(mm.Allocate("test/Msg", 256, 24));
  // A field at offset 8 requests 100 bytes.
  void* payload = mm.Expand(start + 8, 100, 4);
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload, start + 24);  // appended at the current end
  EXPECT_EQ(mm.SizeOf(start), 124u);

  // The next request is aligned and appended after the first.
  void* second = mm.Expand(start + 16, 8, 8);
  EXPECT_EQ(second, start + 128);  // 124 aligned up to 8
  EXPECT_EQ(mm.SizeOf(start), 136u);
  mm.Release(start);
}

TEST(MessageManager, ExpandZeroesGrantedRegion) {
  MessageManager mm;
  auto* start = static_cast<uint8_t*>(mm.Allocate("test/Msg", 256, 8));
  std::memset(start + 8, 0xAB, 248);  // dirty the arena tail
  auto* payload = static_cast<uint8_t*>(mm.Expand(start, 64, 4));
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(payload[i], 0) << i;
  mm.Release(start);
}

TEST(MessageManager, ExpandOnUnknownAddressRaisesUnmanagedAlert) {
  MessageManager mm;
  uint8_t stack_buffer[64];
  EXPECT_THROW(mm.Expand(stack_buffer, 8, 4), AlertError);
  try {
    mm.Expand(stack_buffer, 8, 4);
    FAIL() << "expected AlertError";
  } catch (const AlertError& e) {
    EXPECT_EQ(e.violation(), Violation::kUnmanagedMessage);
  }
}

TEST(MessageManager, ExpandOverCapacityRaisesOverflowAlert) {
  MessageManager mm;
  void* start = mm.Allocate("test/Msg", 64, 16);
  try {
    mm.Expand(start, 64, 4);  // 16 + 64 > 64
    FAIL() << "expected AlertError";
  } catch (const AlertError& e) {
    EXPECT_EQ(e.violation(), Violation::kArenaOverflow);
  }
  mm.Release(start);
}

TEST(MessageManager, PublishAliasesBufferAndMarksPublished) {
  MessageManager mm;
  void* start = mm.Allocate("test/Msg", 128, 16);
  mm.Expand(start, 32, 4);

  const auto buffer = mm.Publish(start);
  ASSERT_TRUE(buffer.has_value());
  EXPECT_EQ(buffer->size, 48u);
  EXPECT_EQ(buffer->data.get(), start);
  EXPECT_EQ(mm.Find(start)->state, MessageState::kPublished);

  // Fig. 8: developer releases the object while the transport still holds
  // the buffer pointer — the memory must survive.
  EXPECT_TRUE(mm.Release(start));
  EXPECT_EQ(mm.LiveCount(), 0u);
  const auto* bytes = buffer->data.get();
  EXPECT_EQ(bytes[0], 0);  // still readable: block alive via buffer pointer
}

TEST(MessageManager, PublishUnknownReturnsNullopt) {
  MessageManager mm;
  int dummy = 0;
  EXPECT_FALSE(mm.Publish(&dummy).has_value());
}

TEST(MessageManager, ReleaseBeforePublishFreesInstantly) {
  MessageManager mm;
  void* start = mm.Allocate("test/Msg", 128, 16);
  EXPECT_TRUE(mm.Release(start));
  EXPECT_FALSE(mm.Find(start).has_value());
  EXPECT_FALSE(mm.Release(start)) << "double release must be rejected";
}

TEST(MessageManager, AdoptReceivedEntersPublishedState) {
  MessageManager mm;
  auto block = std::make_unique<uint8_t[]>(128);
  std::memset(block.get(), 0x5A, 64);
  const uint8_t* start = mm.AdoptReceived("test/Msg", std::move(block), 128, 64);

  const auto info = mm.Find(start);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, MessageState::kPublished);  // paper Fig. 9
  EXPECT_EQ(info->size, 64u);
  EXPECT_EQ(start[10], 0x5A);

  // Receiver-side code may still grow the message (e.g. assign an unset
  // string field) within the adopted block's capacity.
  void* extra = mm.Expand(start + 4, 16, 4);
  EXPECT_EQ(extra, start + 64);
  EXPECT_TRUE(mm.Release(const_cast<uint8_t*>(start)));
}

TEST(MessageManager, TryWholeCopyTopLevel) {
  MessageManager mm;
  auto* src = static_cast<uint8_t*>(mm.Allocate("test/Msg", 256, 16));
  std::memset(src, 7, 16);
  mm.Expand(src, 32, 4);
  auto* dst = static_cast<uint8_t*>(mm.Allocate("test/Msg", 256, 16));

  EXPECT_TRUE(mm.TryWholeCopy(dst, src, 16));
  EXPECT_EQ(mm.SizeOf(dst), 48u);
  EXPECT_EQ(dst[0], 7);

  // Interior destination => nested-field assignment => caller copies.
  EXPECT_FALSE(mm.TryWholeCopy(dst + 4, src, 16));
  // Interior source likewise.
  EXPECT_FALSE(mm.TryWholeCopy(dst, src + 4, 16));
  mm.Release(src);
  mm.Release(dst);
}

TEST(MessageManager, TryWholeCopyFromUnregisteredCopiesSkeletonOnly) {
  MessageManager mm;
  uint8_t stack_skeleton[16];
  std::memset(stack_skeleton, 3, sizeof(stack_skeleton));
  auto* dst = static_cast<uint8_t*>(mm.Allocate("test/Msg", 64, 16));
  mm.Expand(dst, 8, 4);  // dst had grown; copy must reset it

  EXPECT_TRUE(mm.TryWholeCopy(dst, stack_skeleton, 16));
  EXPECT_EQ(mm.SizeOf(dst), 16u);
  EXPECT_EQ(dst[15], 3);
  mm.Release(dst);
}

TEST(MessageManager, TryWholeCopyOverflowRaises) {
  MessageManager mm;
  auto* src = static_cast<uint8_t*>(mm.Allocate("test/Msg", 1024, 16));
  mm.Expand(src, 512, 4);
  auto* dst = static_cast<uint8_t*>(mm.Allocate("test/Msg", 64, 16));
  EXPECT_THROW(mm.TryWholeCopy(dst, src, 16), AlertError);
  mm.Release(src);
  mm.Release(dst);
}

TEST(MessageManager, StatsCountOperations) {
  MessageManager mm;
  void* a = mm.Allocate("test/Msg", 128, 16);
  mm.Expand(a, 8, 4);
  mm.Publish(a);
  mm.Release(a);
  const auto stats = mm.Stats();
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.expansions, 1u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.releases, 1u);
}

TEST(MessageManager, PooledBlocksWriteTheIndexOnlyAtBirthAndDeath) {
  TrimArenaPool();
  MessageManager mm;
  // The first message's block is born: one index insert.
  void* first = mm.Allocate("test/Msg", 1000, 16);
  EXPECT_EQ(mm.Stats().index_writes, 1u);
  ASSERT_TRUE(mm.Release(first));
  // Every later message re-arms the parked record: no index write.
  for (int i = 0; i < 100; ++i) {
    void* msg = mm.Allocate("test/Msg", 1000, 16);
    EXPECT_EQ(msg, first) << "the pool is LIFO";
    mm.Expand(msg, 8, 8);
    ASSERT_TRUE(mm.Publish(msg).has_value());
    ASSERT_TRUE(mm.Release(msg));
  }
  EXPECT_EQ(mm.Stats().index_writes, 1u);
  // An unpooled adoption keeps one record per message: insert and erase.
  mm.ResetStats();
  const uint8_t* adopted = mm.AdoptReceived(
      "test/Msg", std::make_unique<uint8_t[]>(64), 64, 32);
  EXPECT_EQ(mm.Stats().index_writes, 1u);
  ASSERT_TRUE(mm.Release(const_cast<uint8_t*>(adopted)));
  EXPECT_EQ(mm.Stats().index_writes, 2u);
  // The block dies with the pool trim: its record leaves the index.
  mm.ResetStats();
  TrimArenaPool();
  EXPECT_EQ(mm.Stats().index_writes, 1u);
}

TEST(MessageManager, ParkedRecordIsInvisible) {
  TrimArenaPool();
  MessageManager mm;
  auto* start = static_cast<uint8_t*>(mm.Allocate("test/Msg", 1000, 16));
  std::optional<BufferRef> wire = mm.Publish(start);
  ASSERT_TRUE(wire.has_value());
  ASSERT_TRUE(mm.Release(start));
  const auto expect_invisible = [&] {
    EXPECT_FALSE(mm.Find(start).has_value());
    EXPECT_FALSE(mm.Find(start + 100).has_value());
    EXPECT_EQ(mm.SizeOf(start), 0u);
    EXPECT_EQ(mm.LiveCount(), 0u);
    EXPECT_FALSE(mm.Publish(start).has_value());
    EXPECT_FALSE(mm.Release(start));
    EXPECT_FALSE(mm.TryWholeCopy(start, start, 16));
    EXPECT_THROW(mm.Expand(start + 8, 8, 8), AlertError);
  };
  // Disarmed while the transport still holds the block...
  expect_invisible();
  EXPECT_EQ(ArenaPoolBytes(), 0u);
  // ...and parked once it lets go.
  wire.reset();
  EXPECT_EQ(ArenaPoolBytes(), ArenaBlockClassSize(1000));
  expect_invisible();
  TrimArenaPool();
}

TEST(MessageManager, ArmedRecordBelongsToOneManager) {
  TrimArenaPool();
  MessageManager a;
  MessageManager b;
  void* msg = a.Allocate("test/Msg", 1000, 16);
  EXPECT_TRUE(a.Find(msg).has_value());
  EXPECT_FALSE(b.Find(msg).has_value());
  EXPECT_FALSE(b.Release(msg));
  EXPECT_THROW(b.Expand(msg, 8, 8), AlertError);
  ASSERT_TRUE(a.Release(msg));
  // The parked record re-arms for the other manager, with no index write.
  b.ResetStats();
  void* again = b.Allocate("test/Other", 900, 32);
  EXPECT_EQ(again, msg);
  EXPECT_EQ(b.Stats().index_writes, 0u);
  const auto info = b.Find(again);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->capacity, 900u);
  EXPECT_EQ(info->size, 32u);
  EXPECT_EQ(info->datatype, "test/Other");
  EXPECT_FALSE(a.Find(again).has_value());
  ASSERT_TRUE(b.Release(again));
  TrimArenaPool();
}

TEST(ArenaPool, SnapshotAndTrimSeeParkedRecords) {
  TrimArenaPool();
  const size_t cls = ArenaBlockClassSize(3000);
  const auto class_stats = [cls] {
    for (const auto& stats : ArenaPoolSnapshot()) {
      if (stats.class_size == cls) return stats;
    }
    return ArenaPoolClassStats{cls, 0, 0};
  };
  {
    std::vector<void*> messages;
    for (int i = 0; i < 3; ++i) {
      messages.push_back(gmm().Allocate("test/Msg", 3000, 16));
    }
    EXPECT_EQ(class_stats().live, 3u);
    for (void* msg : messages) ASSERT_TRUE(gmm().Release(msg));
  }
  EXPECT_EQ(class_stats().live, 0u);
  EXPECT_EQ(class_stats().pooled, 3u);
  EXPECT_EQ(ArenaPoolBytes(), 3 * cls);
  TrimArenaPool();
  EXPECT_EQ(ArenaPoolBytes(), 0u);
  EXPECT_EQ(class_stats().pooled, 0u);
  EXPECT_EQ(class_stats().live, 0u);
}

TEST(ArenaPool, DestroyedManagerReturnsItsBlocks) {
  // Run under LeakSanitizer (the asan preset) to prove nothing is left.
  TrimArenaPool();
  const size_t cls = ArenaBlockClassSize(5000);
  size_t live = 0;
  {
    MessageManager mm;
    void* released = mm.Allocate("test/Msg", 5000, 16);
    (void)mm.Allocate("test/Msg", 5000, 16);  // leaked by its owner
    mm.Expand(released, 64, 8);
    ASSERT_TRUE(mm.Release(released));
    for (const auto& stats : ArenaPoolSnapshot()) {
      if (stats.class_size == cls) live = stats.live;
    }
    EXPECT_EQ(live, 1u);
  }
  for (const auto& stats : ArenaPoolSnapshot()) {
    if (stats.class_size == cls) {
      EXPECT_EQ(stats.live, 0u);
      EXPECT_EQ(stats.pooled, 2u);
    }
  }
  TrimArenaPool();
  EXPECT_EQ(ArenaPoolBytes(), 0u);
}

TEST(ArenaCapacity, RuntimeOverrideWinsAndClears) {
  EXPECT_EQ(ArenaCapacityFor("x/Y", 1000), 1000u);
  SetArenaCapacity("x/Y", 4096);
  EXPECT_EQ(ArenaCapacityFor("x/Y", 1000), 4096u);
  SetArenaCapacity("x/Y", 0);
  EXPECT_EQ(ArenaCapacityFor("x/Y", 1000), 1000u);
}

TEST(ArenaCapacity, OverrideTakesEffectAfterLockFreeLookups) {
  // Every lookup before the process's first override takes the lock-free
  // default path; the first override must still be seen at once, and
  // removing it must restore the default.  The name is longer than a
  // std::string's inline buffer, the case the string_view lookup is for.
  constexpr std::string_view kType = "sensor_msgs/ImageWithALongName";
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(ArenaCapacityFor(kType, 512), 512u);
  SetArenaCapacity(kType, 8192);
  EXPECT_EQ(ArenaCapacityFor(kType, 512), 8192u);
  EXPECT_EQ(ArenaCapacityFor("sensor_msgs/Other", 512), 512u);
  SetArenaCapacity(kType, 0);
  EXPECT_EQ(ArenaCapacityFor(kType, 512), 512u);
  SetArenaCapacity("never/Set", 0);  // removing an absent override is a no-op
  EXPECT_EQ(ArenaCapacityFor("never/Set", 7), 7u);
}

TEST(ArenaCapacity, ConcurrentLookupsSeeAnOverrideSetMidRun) {
  // Readers race the process's first override (the switch off the
  // lock-free path); under the thread sanitizer this is the stress test
  // for the flag-then-lock handoff.  Each reader must come to see it.
  constexpr std::string_view kType = "race/ArenaCapacityOverride";
  std::atomic<int> saw_override{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (;;) {
        const size_t capacity = ArenaCapacityFor(kType, 100);
        ASSERT_TRUE(capacity == 100 || capacity == 4000) << capacity;
        if (capacity == 4000) break;
      }
      saw_override.fetch_add(1);
    });
  }
  SetArenaCapacity(kType, 4000);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(saw_override.load(), 4);
  SetArenaCapacity(kType, 0);
}

}  // namespace
}  // namespace sfm
