// Multi-threaded stress tests for the read-mostly MessageManager: the
// shared-lock + CAS Expand fast path, the thread-local record cache and its
// invalidation by Release, records re-armed as blocks cycle through the
// pool, and the overflow alert under contention.
// Built into the ordinary sfm_test binary, so the TSan preset
// (-DRSF_SANITIZE=thread) runs these under the race detector in ctest.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sfm/alert.h"
#include "sfm/message_manager.h"
#include "sfm/shm_pool.h"

namespace sfm {
namespace {

// N threads, each cycling its OWN messages through the shared gmm():
// Allocate -> K x Expand -> Publish -> Release.  Asserts no expansion is
// lost, stats add up, and the manager ends with no extra live records.
TEST(ManagerStress, ConcurrentLifecyclesOnSharedManager) {
  constexpr int kThreads = 8;
  constexpr int kMessagesPerThread = 150;
  constexpr int kExpandsPerMessage = 32;
  constexpr size_t kSkeleton = 64;
  constexpr size_t kGrant = 24;
  constexpr size_t kCapacity =
      kSkeleton + kExpandsPerMessage * ((kGrant + 7) & ~size_t{7}) + 64;

  MessageManager& mm = gmm();
  const size_t live_before = mm.LiveCount();
  const ManagerStats before = mm.Stats();
  size_t live_blocks_before = 0;
  for (const auto& cls : ArenaPoolSnapshot()) live_blocks_before += cls.live;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int m = 0; m < kMessagesPerThread; ++m) {
        auto* start = static_cast<uint8_t*>(
            mm.Allocate("stress/Msg", kCapacity, kSkeleton));
        size_t expect_size = kSkeleton;
        for (int e = 0; e < kExpandsPerMessage; ++e) {
          // Expand via an interior address, like a real sfm field would;
          // repeated expands of one message exercise the thread cache.
          auto* got = static_cast<uint8_t*>(mm.Expand(start + 8, kGrant, 8));
          const size_t aligned = (expect_size + 7) & ~size_t{7};
          if (got != start + aligned) failures.fetch_add(1);
          for (size_t i = 0; i < kGrant; ++i) {
            if (got[i] != 0) failures.fetch_add(1);
          }
          got[0] = 0x5A;  // dirty it; the arena must re-zero on reuse
          expect_size = aligned + kGrant;
        }
        if (mm.SizeOf(start) != expect_size) failures.fetch_add(1);
        const auto buffer = mm.Publish(start);
        if (!buffer.has_value() || buffer->size != expect_size) {
          failures.fetch_add(1);
        }
        if (!mm.Release(start)) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mm.LiveCount(), live_before);
  const ManagerStats after = mm.Stats();
  constexpr uint64_t kMessages = uint64_t{kThreads} * kMessagesPerThread;
  EXPECT_EQ(after.allocations - before.allocations, kMessages);
  EXPECT_EQ(after.releases - before.releases, kMessages);
  EXPECT_EQ(after.publishes - before.publishes, kMessages);
  EXPECT_EQ(after.expansions - before.expansions,
            kMessages * kExpandsPerMessage);

  // Every arena block came back to the pool — and none leaked into the
  // shared-memory tier (this binary never negotiates a shm peer).
  size_t live_blocks_after = 0;
  for (const auto& cls : ArenaPoolSnapshot()) live_blocks_after += cls.live;
  EXPECT_EQ(live_blocks_after, live_blocks_before);
  const auto shm_stats = ::sfm::shm::GetPoolStats();
  EXPECT_EQ(shm_stats.live_blocks, 0u);
  EXPECT_EQ(shm_stats.retired_blocks, 0u);
}

// Blocks cycle between threads through the pool, each message re-arming
// the record its block carries, while a prober Finds addresses of
// whatever message is in flight.  Every lookup sees either nothing or one
// whole armed message; the index is written only when a block is born.
TEST(ManagerStress, ConcurrentLifecyclesCycleThroughReArmedRecords) {
  constexpr int kThreads = 6;  // one block each: the pool keeps them all
  constexpr int kMessagesPerThread = 2000;
  constexpr size_t kCapacity = 3000;  // a class no other test here uses
  constexpr size_t kSkeleton = 48;

  MessageManager& mm = gmm();
  const ManagerStats before = mm.Stats();
  const size_t live_before = mm.LiveCount();
  std::atomic<uintptr_t> in_flight[kThreads] = {};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread prober([&] {
    uint64_t seen = 0;
    while (!done.load()) {
      for (auto& slot : in_flight) {
        const uintptr_t start = slot.load();
        if (start == 0) continue;
        const auto* addr = reinterpret_cast<const uint8_t*>(start + 100);
        const auto info = mm.Find(addr);
        if (!info.has_value()) continue;
        ++seen;
        if (addr < info->start || addr >= info->start + info->capacity ||
            info->size > info->capacity || info->capacity != kCapacity ||
            info->datatype != "stress/ReArm") {
          failures.fetch_add(1);
        }
      }
    }
    (void)seen;
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int m = 0; m < kMessagesPerThread; ++m) {
        auto* start = static_cast<uint8_t*>(
            mm.Allocate("stress/ReArm", kCapacity, kSkeleton));
        in_flight[t].store(reinterpret_cast<uintptr_t>(start));
        for (size_t i = 0; i < kSkeleton; ++i) {
          if (start[i] != 0) failures.fetch_add(1);  // re-armed dirty block
        }
        std::memset(start, 0xA5, kSkeleton);
        auto* grant = static_cast<uint8_t*>(mm.Expand(start + 8, 256, 8));
        if (grant != start + kSkeleton || grant[255] != 0) {
          failures.fetch_add(1);
        }
        std::memset(grant, 0x5A, 256);
        const auto info = mm.Find(start + 40);
        if (!info.has_value() || info->start != start ||
            info->size != kSkeleton + 256) {
          failures.fetch_add(1);
        }
        // The transport's reference outlives the release, as on the wire.
        std::optional<BufferRef> wire = mm.Publish(start);
        if (!wire.has_value() || wire->size != kSkeleton + 256) {
          failures.fetch_add(1);
        }
        in_flight[t].store(0);
        if (!mm.Release(start)) failures.fetch_add(1);
        if (mm.Release(start)) failures.fetch_add(1);  // already disarmed
        wire.reset();  // the block parks
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true);
  prober.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mm.LiveCount(), live_before);
  const ManagerStats after = mm.Stats();
  constexpr uint64_t kMessages = uint64_t{kThreads} * kMessagesPerThread;
  EXPECT_EQ(after.allocations - before.allocations, kMessages);
  EXPECT_EQ(after.releases - before.releases, kMessages);
  // At most one birth per thread: every other message re-armed a record.
  EXPECT_LE(after.index_writes - before.index_writes, uint64_t{kThreads});
  for (const auto& cls : ArenaPoolSnapshot()) {
    if (cls.class_size == ArenaBlockClassSize(kCapacity)) {
      EXPECT_EQ(cls.live, 0u);
    }
  }
}

// A stale address of a released message names whatever message its block
// carries next — the aliasing pool reuse has always allowed: the record
// re-armed is the one the next message would have had at that address.
TEST(ManagerStress, ReleasedBlockReArmsForTheNextMessage) {
  TrimArenaPool();
  MessageManager mm;
  auto* first = static_cast<uint8_t*>(mm.Allocate("stress/First", 256, 32));
  ASSERT_NE(mm.Expand(first, 8, 8), nullptr);  // warms this thread's cache
  ASSERT_TRUE(mm.Release(first));
  auto* next = static_cast<uint8_t*>(mm.Allocate("stress/Next", 200, 16));
  ASSERT_EQ(next, first);
  EXPECT_EQ(mm.Expand(first, 8, 8), next + 16);
  EXPECT_EQ(mm.Find(first)->datatype, "stress/Next");
  EXPECT_EQ(mm.Find(first)->capacity, 200u);
  EXPECT_FALSE(mm.Find(first + 200).has_value());
  ASSERT_TRUE(mm.Release(next));
  TrimArenaPool();
}

// All threads expand the SAME message: the CAS bump loop must hand out
// disjoint, in-bounds regions with nothing lost or overlapping.
TEST(ManagerStress, ConcurrentExpandsOfOneMessageAreDisjoint) {
  constexpr int kThreads = 8;
  constexpr int kExpandsPerThread = 400;
  constexpr size_t kSkeleton = 32;
  constexpr size_t kGrant = 16;  // already 8-aligned: offsets stay exact
  constexpr size_t kCapacity =
      kSkeleton + kThreads * kExpandsPerThread * kGrant + 64;

  MessageManager mm;
  auto* start =
      static_cast<uint8_t*>(mm.Allocate("stress/Shared", kCapacity, kSkeleton));

  std::vector<std::vector<size_t>> offsets(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      offsets[t].reserve(kExpandsPerThread);
      for (int e = 0; e < kExpandsPerThread; ++e) {
        auto* got = static_cast<uint8_t*>(mm.Expand(start, kGrant, 8));
        offsets[t].push_back(static_cast<size_t>(got - start));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<size_t> all;
  for (const auto& per_thread : offsets) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  ASSERT_EQ(all.size(), size_t{kThreads} * kExpandsPerThread);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.front(), kSkeleton);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i], all[i - 1] + kGrant) << "lost or overlapping grant";
  }
  EXPECT_EQ(mm.SizeOf(start),
            kSkeleton + size_t{kThreads} * kExpandsPerThread * kGrant);
  mm.Release(start);
}

// Overflow must still raise kArenaOverflow on the CAS path, and the arena
// must never grow past capacity even when the racers pile up on the edge.
TEST(ManagerStress, OverflowAlertFiresUnderContention) {
  constexpr int kThreads = 4;
  constexpr size_t kSkeleton = 16;
  constexpr size_t kGrant = 64;
  constexpr size_t kCapacity = kSkeleton + 10 * kGrant;  // room for 10 grants

  MessageManager mm;
  auto* start =
      static_cast<uint8_t*>(mm.Allocate("stress/Tiny", kCapacity, kSkeleton));

  std::atomic<int> grants{0};
  std::atomic<int> overflows{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int e = 0; e < 8; ++e) {  // 32 attempts for 10 slots
        try {
          (void)mm.Expand(start, kGrant, 8);
          grants.fetch_add(1);
        } catch (const AlertError& error) {
          EXPECT_EQ(error.violation(), Violation::kArenaOverflow);
          overflows.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(grants.load(), 10);
  EXPECT_EQ(overflows.load(), kThreads * 8 - 10);
  EXPECT_LE(mm.SizeOf(start), kCapacity);
  mm.Release(start);
}

// The thread-local record cache must not resurrect a released record: after
// Release bumps the generation, an Expand through the stale address raises
// kUnmanagedMessage (nothing else was allocated, so the address is gone).
TEST(ManagerStress, ThreadCacheInvalidatedByRelease) {
  MessageManager mm;
  auto* start = static_cast<uint8_t*>(mm.Allocate("stress/Cache", 256, 32));
  ASSERT_NE(mm.Expand(start, 8, 8), nullptr);  // warms this thread's cache
  ASSERT_TRUE(mm.Release(start));
  try {
    mm.Expand(start, 8, 8);
    FAIL() << "expected AlertError";
  } catch (const AlertError& error) {
    EXPECT_EQ(error.violation(), Violation::kUnmanagedMessage);
  }
}

// Releasing one message must not invalidate grants already handed out for
// another, and the cache must follow the thread to the right record.
TEST(ManagerStress, CacheTracksInterleavedMessages) {
  MessageManager mm;
  auto* a = static_cast<uint8_t*>(mm.Allocate("stress/A", 256, 16));
  auto* b = static_cast<uint8_t*>(mm.Allocate("stress/B", 256, 16));
  EXPECT_EQ(mm.Expand(a, 8, 8), a + 16);
  EXPECT_EQ(mm.Expand(b, 8, 8), b + 16);  // cache switches records
  EXPECT_EQ(mm.Expand(a, 8, 8), a + 24);  // and back
  ASSERT_TRUE(mm.Release(a));
  EXPECT_EQ(mm.Expand(b, 8, 8), b + 24);  // b unaffected by a's release
  ASSERT_TRUE(mm.Release(b));
}

}  // namespace
}  // namespace sfm
