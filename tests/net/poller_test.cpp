// Tests for the reactor (net/poller.h) and the resumable framing state
// machines it drives (FrameReader/FrameWriter): task posting and the
// RunSync teardown handshake, readiness dispatch, frames split across
// arbitrary readiness events, mid-frame peer close, short-write resume,
// drop-oldest eviction, and a mixed connect/disconnect stress that the CI
// ThreadSanitizer job runs.  The FrameReader/FrameWriter suites drive
// sockets directly, without a loop.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/endian.h"
#include "backend_param.h"
#include "net/framing.h"
#include "net/poller.h"
#include "net/socket.h"

namespace rsf::net {
namespace {

class EventLoopBackends : public BackendParamTest {};
RSF_INSTANTIATE_BACKEND_SUITE(EventLoopBackends);

class PollerStress : public BackendParamTest {};
RSF_INSTANTIATE_BACKEND_SUITE(PollerStress);

std::pair<TcpConnection, TcpConnection> MakePair() {
  auto listener = TcpListener::Listen(0);
  SFM_CHECK(listener.ok());
  TcpConnection server;
  std::thread acceptor([&] {
    auto conn = listener->Accept();
    SFM_CHECK(conn.ok());
    server = *std::move(conn);
  });
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  SFM_CHECK(client.ok());
  acceptor.join();
  return {*std::move(client), std::move(server)};
}

size_t CountProcessThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  SFM_CHECK(dir != nullptr);
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

// Spins until `predicate` holds or ~2 s pass (events arrive on the loop
// thread; tests observe them from the main thread).
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    SleepForNanos(1'000'000);
  }
  return predicate();
}

TEST_P(EventLoopBackends, PostRunsTaskOnLoopThread) {
  EventLoop& loop = *loop_;
  loop.Start();
  std::atomic<bool> ran{false};
  std::thread::id loop_thread;
  ASSERT_TRUE(loop.Post([&] {
    loop_thread = std::this_thread::get_id();
    ran.store(true, std::memory_order_release);
  }));
  ASSERT_TRUE(WaitFor([&] { return ran.load(std::memory_order_acquire); }));
  EXPECT_NE(loop_thread, std::this_thread::get_id());
  loop.Stop();
}

TEST_P(EventLoopBackends, RunSyncBlocksUntilExecuted) {
  EventLoop& loop = *loop_;
  loop.Start();
  int value = 0;
  loop.RunSync([&] { value = 42; });
  EXPECT_EQ(value, 42);  // no synchronization needed: RunSync is the barrier
  loop.Stop();
  // After Stop, RunSync degrades to inline execution instead of hanging.
  loop.RunSync([&] { value = 43; });
  EXPECT_EQ(value, 43);
}

TEST_P(EventLoopBackends, StopRunsEveryAcceptedTask) {
  EventLoop& loop = *loop_;
  loop.Start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    if (!loop.Post([&] { ran.fetch_add(1); })) break;
  }
  const int accepted = 100;  // all posts precede Stop, so all are accepted
  loop.Stop();
  EXPECT_EQ(ran.load(), accepted);
}

TEST_P(EventLoopBackends, ReadableEventDispatches) {
  EventLoop& loop = *loop_;
  loop.Start();
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  std::atomic<int> bytes_seen{0};
  loop.RunSync([&] {
    loop.Add(server.fd(), kEventReadable, [&](uint32_t events) {
      EXPECT_TRUE(events & kEventReadable);
      uint8_t buffer[64];
      auto n = server.ReadSome(buffer);
      if (n.ok() && *n > 0) bytes_seen.fetch_add(static_cast<int>(*n));
    });
  });
  const uint8_t payload[] = {1, 2, 3};
  ASSERT_TRUE(client.WriteAll(payload).ok());
  ASSERT_TRUE(WaitFor([&] { return bytes_seen.load() == 3; }));
  loop.RunSync([&] { loop.Remove(server.fd()); });
  loop.Stop();
}

TEST_P(EventLoopBackends, RemoveInsideOwnCallbackIsSafe) {
  EventLoop& loop = *loop_;
  loop.Start();
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  std::atomic<bool> removed{false};
  loop.RunSync([&] {
    loop.Add(server.fd(), kEventReadable, [&](uint32_t) {
      loop.Remove(server.fd());
      removed.store(true, std::memory_order_release);
    });
  });
  const uint8_t byte = 0x55;
  ASSERT_TRUE(client.WriteAll({&byte, 1}).ok());
  ASSERT_TRUE(WaitFor([&] { return removed.load(std::memory_order_acquire); }));
  size_t handlers = 1;
  loop.RunSync([&] { handlers = loop.NumHandlers(); });
  EXPECT_EQ(handlers, 0u);
  loop.Stop();
}

TEST_P(EventLoopBackends, ManyFdsOneThread) {
  // The reactor promise: adding links adds NO threads.
  EventLoop& loop = *loop_;
  loop.Start();
  const size_t before = CountProcessThreads();
  std::vector<std::pair<TcpConnection, TcpConnection>> pairs;
  for (int i = 0; i < 50; ++i) pairs.push_back(MakePair());
  loop.RunSync([&] {
    for (auto& [client, server] : pairs) {
      (void)server.SetNonBlocking(true);
      loop.Add(server.fd(), kEventReadable, [](uint32_t) {});
    }
  });
  EXPECT_EQ(CountProcessThreads(), before);
  loop.RunSync([&] {
    for (auto& [client, server] : pairs) loop.Remove(server.fd());
  });
  loop.Stop();
}

// ---- FrameReader ----

TEST(FrameReader, HeaderSplitAcrossEvents) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  FrameReader reader;
  std::vector<uint8_t> destination;
  int allocator_calls = 0;
  const FrameAllocator alloc = [&](uint32_t len) {
    ++allocator_calls;
    destination.resize(len);
    return destination.data();
  };

  // Drip the 4-byte length prefix one byte at a time; the reader must
  // report kNeedMore at every partial step and never call the allocator.
  uint8_t header[4];
  rsf::StoreLE<uint32_t>(header, 3);
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.WriteAll({&header[i], 1}).ok());
    ASSERT_TRUE(WaitFor([&] {
      auto step = reader.Poll(server, alloc, &length);
      SFM_CHECK(step.ok());
      return i == 3 ? reader.MidFrame()
                    : *step == FrameReader::Step::kNeedMore;
    }));
  }
  EXPECT_EQ(allocator_calls, 1);  // fired exactly when the header completed
  EXPECT_TRUE(reader.MidFrame());

  const uint8_t payload[] = {7, 8, 9};
  ASSERT_TRUE(client.WriteAll(payload).ok());
  ASSERT_TRUE(WaitFor([&] {
    auto step = reader.Poll(server, alloc, &length);
    SFM_CHECK(step.ok());
    return *step == FrameReader::Step::kFrame;
  }));
  EXPECT_EQ(length, 3u);
  EXPECT_EQ(allocator_calls, 1);
  EXPECT_EQ(destination[0], 7);
  EXPECT_EQ(destination[2], 9);
  EXPECT_FALSE(reader.MidFrame());
}

TEST(FrameReader, PayloadSplitAcrossEvents) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  FrameReader reader;
  std::vector<uint8_t> destination;
  int allocator_calls = 0;
  const FrameAllocator alloc = [&](uint32_t len) {
    ++allocator_calls;
    destination.resize(len);
    return destination.data();
  };

  constexpr uint32_t kSize = 1000;
  uint8_t header[4];
  rsf::StoreLE<uint32_t>(header, kSize);
  ASSERT_TRUE(client.WriteAll(header).ok());
  std::vector<uint8_t> payload(kSize);
  for (uint32_t i = 0; i < kSize; ++i) payload[i] = static_cast<uint8_t>(i);

  // Send the payload in three unequal chunks; the reader resumes into the
  // SAME allocator buffer each time (arena-direct receive depends on this).
  uint32_t length = 0;
  size_t sent = 0;
  for (const size_t chunk : {size_t{1}, size_t{499}, size_t{500}}) {
    ASSERT_TRUE(
        client.WriteAll({payload.data() + sent, chunk}).ok());
    sent += chunk;
    const bool last = sent == kSize;
    ASSERT_TRUE(WaitFor([&] {
      auto step = reader.Poll(server, alloc, &length);
      SFM_CHECK(step.ok());
      return last ? *step == FrameReader::Step::kFrame
                  : reader.MidFrame();
    }));
  }
  EXPECT_EQ(length, kSize);
  EXPECT_EQ(allocator_calls, 1);
  EXPECT_EQ(std::memcmp(destination.data(), payload.data(), kSize), 0);
}

TEST(FrameReader, MultiFrameBurstDrains) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  for (uint8_t i = 0; i < 3; ++i) {
    const uint8_t payload[] = {i};
    ASSERT_TRUE(WriteFrame(client, payload).ok());
  }
  FrameReader reader;
  std::vector<uint8_t> destination;
  const FrameAllocator alloc = [&](uint32_t len) {
    destination.resize(len == 0 ? 1 : len);
    return destination.data();
  };
  // One readiness event, three frames: Poll loops until kNeedMore.
  int frames = 0;
  uint32_t length = 0;
  ASSERT_TRUE(WaitFor([&] {
    for (;;) {
      auto step = reader.Poll(server, alloc, &length);
      SFM_CHECK(step.ok());
      if (*step == FrameReader::Step::kNeedMore) break;
      EXPECT_EQ(length, 1u);
      EXPECT_EQ(destination[0], frames);
      ++frames;
    }
    return frames == 3;
  }));
}

TEST(FrameReader, PayloadReadBringsTheNextHeaderAndAShortReadDrains) {
  // A burst of two frames, the second with an empty payload, then one more
  // frame on its own.  Each payload read also asks for the next header, so
  // the burst costs two recvs (header; payload + next header) and the
  // empty frame none; the lone frame costs two, and its payload read,
  // coming back short of the next header, ends the turn with no probe.
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  const auto buffered = [&server](ssize_t bytes) {
    return WaitFor([&] {
      uint8_t peek[32];
      return ::recv(server.fd(), peek, sizeof(peek),
                    MSG_PEEK | MSG_DONTWAIT) == bytes;
    });
  };
  FrameReader reader;
  std::vector<uint8_t> destination;
  const FrameAllocator alloc = [&](uint32_t len) {
    destination.resize(len == 0 ? 1 : len);
    return destination.data();
  };
  const uint8_t payload[] = {1, 2, 3};
  uint32_t length = 0;

  ASSERT_TRUE(WriteFrame(client, payload).ok());
  ASSERT_TRUE(WriteFrame(client, {}).ok());
  ASSERT_TRUE(buffered(4 + 3 + 4));
  uint64_t recvs = RecvSyscallCount();
  auto step = reader.Poll(server, alloc, &length);
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(*step, FrameReader::Step::kFrame);
  EXPECT_EQ(length, 3u);
  EXPECT_EQ(RecvSyscallCount() - recvs, 2u);
  EXPECT_TRUE(reader.FrameBuffered());  // the empty frame's header
  EXPECT_FALSE(reader.Drained());
  recvs = RecvSyscallCount();
  step = reader.Poll(server, alloc, &length);
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(*step, FrameReader::Step::kFrame);
  EXPECT_EQ(length, 0u);
  EXPECT_EQ(RecvSyscallCount() - recvs, 0u);
  EXPECT_FALSE(reader.MidFrame());

  ASSERT_TRUE(WriteFrame(client, payload).ok());
  ASSERT_TRUE(buffered(4 + 3));
  recvs = RecvSyscallCount();
  step = reader.Poll(server, alloc, &length);
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(*step, FrameReader::Step::kFrame);
  EXPECT_EQ(RecvSyscallCount() - recvs, 2u);
  EXPECT_TRUE(reader.Drained());
  EXPECT_EQ(destination[2], 3);
}

TEST(FrameReader, PeerCloseMidHeaderReportsUnavailable) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  const uint8_t partial[] = {9, 0};  // 2 of 4 header bytes
  ASSERT_TRUE(client.WriteAll(partial).ok());
  client.Close();
  FrameReader reader;
  uint32_t length = 0;
  const FrameAllocator alloc = [](uint32_t) -> uint8_t* { return nullptr; };
  ASSERT_TRUE(WaitFor([&] {
    auto step = reader.Poll(server, alloc, &length);
    if (step.ok()) return false;  // partial bytes may land first
    EXPECT_EQ(step.status().code(), StatusCode::kUnavailable);
    return true;
  }));
}

TEST(FrameReader, PeerCloseMidPayloadReportsUnavailable) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(server.SetNonBlocking(true).ok());
  uint8_t header[4];
  rsf::StoreLE<uint32_t>(header, 100);
  ASSERT_TRUE(client.WriteAll(header).ok());
  const uint8_t some[] = {1, 2, 3};
  ASSERT_TRUE(client.WriteAll(some).ok());
  client.Close();
  FrameReader reader;
  std::vector<uint8_t> destination;
  const FrameAllocator alloc = [&](uint32_t len) {
    destination.resize(len);
    return destination.data();
  };
  uint32_t length = 0;
  ASSERT_TRUE(WaitFor([&] {
    auto step = reader.Poll(server, alloc, &length);
    if (step.ok()) {
      EXPECT_EQ(*step, FrameReader::Step::kNeedMore);
      return false;
    }
    EXPECT_EQ(step.status().code(), StatusCode::kUnavailable);
    return true;
  }));
}

// ---- FrameWriter ----

TEST(FrameWriter, ShortWritesResumeUntilComplete) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(client.SetNonBlocking(true).ok());
  // 4 MB >> any socket buffer: the first Flush MUST stop short and leave
  // the frame pending; repeated flushes while the reader drains finish it.
  constexpr uint32_t kSize = 4 * 1024 * 1024;
  auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[kSize]);
  for (uint32_t i = 0; i < kSize; ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  FrameWriter writer;
  EXPECT_FALSE(writer.Enqueue(payload, kSize));
  ASSERT_TRUE(writer.Flush(client).ok());
  EXPECT_TRUE(writer.HasPending());  // partial write happened

  std::thread drainer([&, srv = &server] {
    std::vector<uint8_t> received;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    *srv,
                    [&](uint32_t len) {
                      received.resize(len);
                      return received.data();
                    },
                    &length)
                    .ok());
    EXPECT_EQ(length, kSize);
    EXPECT_EQ(std::memcmp(received.data(), payload.get(), kSize), 0);
  });
  while (writer.HasPending()) {
    ASSERT_TRUE(writer.Flush(client).ok());
    if (writer.HasPending()) SleepForNanos(100'000);
  }
  drainer.join();
  EXPECT_EQ(writer.FramesWritten(), 1u);
}

TEST(FrameWriter, GathersBurstIntoFewSyscalls) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(client.SetNonBlocking(true).ok());
  FrameWriter writer;
  for (int i = 0; i < 8; ++i) {
    auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[16]);
    std::memset(payload.get(), i, 16);
    writer.Enqueue(std::move(payload), 16);
  }
  const uint64_t before = WriteSyscallCount();
  ASSERT_TRUE(writer.Flush(client).ok());
  EXPECT_FALSE(writer.HasPending());  // 160 bytes always fit
  // 8 frames (16 iovecs) within the gather window: one sendmsg.
  EXPECT_EQ(WriteSyscallCount() - before, 1u);
  EXPECT_EQ(writer.FramesWritten(), 8u);
}

TEST(FrameWriter, DropOldestEvictsQueuedNotInFlight) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(client.SetNonBlocking(true).ok());
  // Wedge a large frame partially onto the wire.
  constexpr uint32_t kBig = 8 * 1024 * 1024;
  auto big = std::shared_ptr<uint8_t[]>(new uint8_t[kBig]);
  std::memset(big.get(), 0xAA, kBig);
  FrameWriter writer;
  writer.Enqueue(big, kBig);
  ASSERT_TRUE(writer.Flush(client).ok());
  ASSERT_TRUE(writer.HasPending());

  // Queue two more behind it with max_pending = 2: the in-flight front
  // frame is never the eviction victim — the oldest QUEUED frame is.
  auto second = std::shared_ptr<uint8_t[]>(new uint8_t[1]);
  second[0] = 2;
  auto third = std::shared_ptr<uint8_t[]>(new uint8_t[1]);
  third[0] = 3;
  EXPECT_FALSE(writer.Enqueue(second, 1, 2));  // fills to capacity
  EXPECT_TRUE(writer.Enqueue(third, 1, 2));    // evicts `second`
  EXPECT_EQ(writer.PendingFrames(), 2u);       // big (partial) + third

  std::thread drainer([&, srv = &server] {
    std::vector<uint8_t> received;
    uint32_t length = 0;
    for (int frame = 0; frame < 2; ++frame) {
      ASSERT_TRUE(ReadFrame(
                      *srv,
                      [&](uint32_t len) {
                        received.resize(len == 0 ? 1 : len);
                        return received.data();
                      },
                      &length)
                      .ok());
    }
    // The surviving small frame is `third`; `second` never hit the wire.
    EXPECT_EQ(length, 1u);
    EXPECT_EQ(received[0], 3);
  });
  while (writer.HasPending()) {
    ASSERT_TRUE(writer.Flush(client).ok());
    if (writer.HasPending()) SleepForNanos(100'000);
  }
  drainer.join();
}

TEST(FrameWriter, AdaptiveGatherBudgetGrowsWithDepthAndDecaysWhenShallow) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(client.SetNonBlocking(true).ok());
  FrameWriter writer;
  EXPECT_EQ(writer.GatherBudget(), kGatherFramesMin);

  const auto enqueue_burst = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[8]);
      std::memset(payload.get(), i, 8);
      writer.Enqueue(std::move(payload), 8);
    }
  };
  std::thread drainer([srv = &server] {
    // Keep the peer's receive buffer from filling: drain and discard.
    uint8_t sink[4096];
    for (;;) {
      auto n = srv->ReadSome(sink);
      if (!n.ok()) return;
      if (*n == 0) SleepForNanos(100'000);
    }
  });
  ASSERT_TRUE(server.SetNonBlocking(true).ok());

  // Each deep flush doubles the budget (one adaptation per Flush call):
  // 8 → 16 → 32 → 64 (kGatherFramesMax), and the syscall
  // count per 100-frame burst drops as the gather window widens.
  size_t expected_budget = kGatherFramesMin;
  uint64_t syscalls_first_burst = 0;
  uint64_t syscalls_last_burst = 0;
  for (int round = 0; round < 4; ++round) {
    enqueue_burst(100);
    const uint64_t before = WriteSyscallCount();
    while (writer.HasPending()) {
      ASSERT_TRUE(writer.Flush(client).ok());
      if (writer.HasPending()) SleepForNanos(100'000);
    }
    const uint64_t used = WriteSyscallCount() - before;
    if (round == 0) syscalls_first_burst = used;
    syscalls_last_burst = used;
    expected_budget = std::min(expected_budget * 2, kGatherFramesMax);
    EXPECT_EQ(writer.GatherBudget(), expected_budget) << "round " << round;
  }
  EXPECT_LT(syscalls_last_burst, syscalls_first_burst);

  // Shallow flushes walk the budget back down to the floor.
  for (int i = 0; i < 8 && writer.GatherBudget() > kGatherFramesMin; ++i) {
    enqueue_burst(1);
    ASSERT_TRUE(writer.Flush(client).ok());
  }
  EXPECT_EQ(writer.GatherBudget(), kGatherFramesMin);

  client.Close();
  server.ShutdownBoth();
  drainer.join();
}

// ---- stress (runs under the CI ThreadSanitizer preset) ----

TEST_P(PollerStress, MixedConnectDisconnectUnderLoad) {
  EventLoop& loop = *loop_;
  loop.Start();
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(listener->SetNonBlocking(true).ok());

  // Server side, all loop-confined: accepted connections echo nothing, just
  // count the frames they see and drop on EOF.
  struct ServerConn {
    TcpConnection connection;
    FrameReader reader;
    std::vector<uint8_t> scratch;
  };
  auto conns = std::make_shared<std::vector<std::shared_ptr<ServerConn>>>();
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> conns_dropped{0};
  EventLoop* loop_ptr = &loop;

  std::function<void(std::shared_ptr<ServerConn>)> watch =
      [&, loop_ptr](std::shared_ptr<ServerConn> conn) {
        loop_ptr->Add(conn->connection.fd(), kEventReadable, [&, conn,
                                                              loop_ptr](
                                                                 uint32_t) {
          for (;;) {
            uint32_t length = 0;
            auto step = conn->reader.Poll(
                conn->connection,
                [&](uint32_t len) {
                  conn->scratch.resize(len == 0 ? 1 : len);
                  return conn->scratch.data();
                },
                &length);
            if (!step.ok()) {
              loop_ptr->Remove(conn->connection.fd());
              std::erase(*conns, conn);
              conns_dropped.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            if (*step == FrameReader::Step::kNeedMore) return;
            frames_received.fetch_add(1, std::memory_order_relaxed);
          }
        });
      };

  loop.RunSync([&] {
    loop.Add(listener->fd(), kEventReadable, [&](uint32_t) {
      for (;;) {
        TcpConnection conn;
        auto got = listener->TryAccept(&conn);
        if (!got.ok() || !*got) return;
        (void)conn.SetNonBlocking(true);
        auto server_conn = std::make_shared<ServerConn>();
        server_conn->connection = std::move(conn);
        conns->push_back(server_conn);
        watch(server_conn);
      }
    });
  });

  // Client side: several threads connect, push a few frames, disconnect,
  // repeat — churning registration/removal while frames are in flight.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  constexpr int kFramesPerConn = 5;
  std::vector<std::thread> clients;
  std::atomic<uint64_t> frames_sent{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, port = listener->port()] {
      for (int round = 0; round < kRounds; ++round) {
        auto conn = TcpConnection::Connect("127.0.0.1", port);
        if (!conn.ok()) continue;  // transient accept-queue pressure
        std::vector<uint8_t> payload(64, static_cast<uint8_t>(round));
        for (int i = 0; i < kFramesPerConn; ++i) {
          if (!WriteFrame(*conn, payload).ok()) break;
          frames_sent.fetch_add(1, std::memory_order_relaxed);
        }
        conn->ShutdownBoth();
      }
    });
  }
  for (auto& client : clients) client.join();

  // Every sent frame arrives (orderly shutdown flushes the stream), and
  // every accepted connection eventually drops.
  ASSERT_TRUE(WaitFor([&] {
    return frames_received.load(std::memory_order_relaxed) >=
           frames_sent.load(std::memory_order_relaxed);
  }));
  ASSERT_TRUE(WaitFor([&] {
    bool empty = false;
    loop.RunSync([&] { empty = conns->empty(); });
    return empty;
  }));
  EXPECT_EQ(frames_received.load(), frames_sent.load());
  loop.RunSync([&] { loop.Remove(listener->fd()); });
  loop.Stop();
}

}  // namespace
}  // namespace rsf::net
