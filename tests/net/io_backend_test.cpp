// Tests for the reactor's backend naming (net/io_backend.h) and a
// counter-based check of what a TCP delivery costs in syscalls: the
// numbers `perfbench --trace` and bench/ablation_connections report come
// from the same counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/log.h"
#include "backend_param.h"
#include "net/io_backend.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/socket.h"

namespace rsf::net {
namespace {

// Spins until `predicate` holds or ~5 s pass.
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 5000; ++i) {
    if (predicate()) return true;
    SleepForNanos(1'000'000);
  }
  return predicate();
}

/// Scoped setenv/unsetenv (tests must not leak env into each other).
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

TEST(IoBackendSelection, EpollIsTheDefault) {
  EXPECT_EQ(ResolveIoBackendKind(), IoBackendKind::kEpoll);
  EXPECT_STREQ(IoBackendKindName(ResolveIoBackendKind()), "epoll");
}

TEST(IoBackendSelection, InvalidEnvValueDegradesToEpoll) {
  // RSF_IO_BACKEND is no longer read: a deployment that still sets it, to
  // the deleted "uring" or to junk, gets a working epoll loop.
  for (const char* value : {"uring", "auto", "iocp"}) {
    ScopedEnv env("RSF_IO_BACKEND", value);
    EXPECT_EQ(ResolveIoBackendKind(), IoBackendKind::kEpoll);
    EventLoop loop;
    loop.Start();
    std::atomic<bool> ran{false};
    ASSERT_TRUE(loop.Post([&] { ran.store(true); }));
    ASSERT_TRUE(WaitFor([&] { return ran.load(); }));
    loop.Stop();
  }
}

class IoBackendLoop : public BackendParamTest {};
RSF_INSTANTIATE_BACKEND_SUITE(IoBackendLoop);

TEST_P(IoBackendLoop, ReactorAssignsLeastLoadedLoop) {
  // Two loops, three links: the third must land on whichever loop the
  // first close vacated — live-link counts, not blind rotation.
  EventLoop a;
  EventLoop b;
  a.Start();
  b.Start();
  EXPECT_EQ(a.LiveLinks(), 0u);
  a.NoteLinkBound();
  a.NoteLinkBound();
  b.NoteLinkBound();
  EXPECT_EQ(a.LiveLinks(), 2u);
  EXPECT_EQ(b.LiveLinks(), 1u);
  a.NoteLinkClosed();
  EXPECT_EQ(a.LiveLinks(), 1u);
  a.Stop();
  b.Stop();
}

/// One echo-less pub/sub pair: a server-role link that sends frames and a
/// client-role link that receives them, both on the same loop.
struct LinkPair {
  std::shared_ptr<Link> sender;
  std::shared_ptr<Link> receiver;
  std::atomic<int> received{0};
  std::vector<uint8_t> buf;
};

TEST_P(IoBackendLoop, SubmissionBatchingCutsSyscallsPerDelivery) {
  // The TCP syscall count: 32 sender→receiver pairs over loopback TCP on
  // one loop, stop-and-wait rounds, syscalls differenced around the steady
  // state.  A delivery pays one sendmsg, one recv for the header and one
  // recvmsg for the payload — which also asks for the next frame's header,
  // so coming back short tells the reader the socket is drained and no
  // EAGAIN probe read follows — plus shares of epoll_wait and of the
  // eventfd kick each pair's RunInLoop costs.  (The case keeps the name it
  // had when it compared two I/O backends.)
  constexpr int kPairs = 32;
  constexpr int kRounds = 20;
  constexpr uint32_t kPayload = 512;

  EventLoop& loop = *loop_;
  loop.Start();
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());

  std::vector<std::unique_ptr<LinkPair>> pairs;
  std::atomic<int> established{0};
  for (int i = 0; i < kPairs; ++i) {
    auto pair = std::make_unique<LinkPair>();
    LinkPair* raw = pair.get();

    Link::Callbacks client_cb;
    client_cb.make_handshake_request = [](bool) {
      return std::vector<uint8_t>{'h', 'i'};
    };
    client_cb.on_handshake_reply = [](const uint8_t*, uint32_t length,
                                      Link::RingHandshake*) {
      return length > 0;
    };
    client_cb.alloc = [raw](uint32_t length) {
      raw->buf.resize(length == 0 ? 1 : length);
      return raw->buf.data();
    };
    client_cb.on_frame = [raw](uint32_t) { raw->received.fetch_add(1); };
    client_cb.on_established = [&established](const std::shared_ptr<Link>&) {
      established.fetch_add(1);
    };
    pair->receiver = Link::Dial("127.0.0.1", listener->port(), &loop,
                                Link::Options{}, std::move(client_cb));

    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    Link::Callbacks server_cb;
    server_cb.on_handshake_request = [](const uint8_t*, uint32_t,
                                        std::vector<uint8_t>* reply,
                                        Link::RingHandshake*) {
      *reply = {'o', 'k'};
      return true;
    };
    server_cb.on_established = [&established](const std::shared_ptr<Link>&) {
      established.fetch_add(1);
    };
    pair->sender = Link::Accepted(*std::move(conn), &loop, Link::Options{},
                                  std::move(server_cb));
    pairs.push_back(std::move(pair));
  }
  ASSERT_TRUE(WaitFor([&] { return established.load() == 2 * kPairs; }));

  // Warm-up round (arena/adaptive state), then measure.
  const auto run_round = [&](int round) {
    for (auto& pair : pairs) {
      auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[kPayload]);
      std::memset(payload.get(), round, kPayload);
      EXPECT_FALSE(pair->sender->EnqueueFrame(std::move(payload), kPayload));
      loop.RunInLoop([link = pair->sender] { link->FlushOnLoop(); });
    }
    ASSERT_TRUE(WaitFor([&] {
      for (auto& pair : pairs) {
        if (pair->received.load() < round + 1) return false;
      }
      return true;
    }));
  };
  run_round(0);

  const IoSyscallCounters before = GlobalIoCounters();
  for (int round = 1; round < kRounds; ++round) run_round(round);
  const IoSyscallCounters after = GlobalIoCounters();

  const double deliveries = static_cast<double>(kPairs) * (kRounds - 1);
  const double syscalls =
      static_cast<double>(after.TotalSyscalls() - before.TotalSyscalls());
  const double per_delivery = syscalls / deliveries;
  RSF_INFO("%.2f transport syscalls per delivered frame "
           "(epoll_wait %llu, sendmsg %llu, recv %llu, "
           "wakeup write %llu, wakeup read %llu)",
           per_delivery,
           static_cast<unsigned long long>(after.epoll_waits -
                                           before.epoll_waits),
           static_cast<unsigned long long>(after.sendmsg_calls -
                                           before.sendmsg_calls),
           static_cast<unsigned long long>(after.recv_calls -
                                           before.recv_calls),
           static_cast<unsigned long long>(after.wakeup_writes -
                                           before.wakeup_writes),
           static_cast<unsigned long long>(after.wakeup_reads -
                                           before.wakeup_reads));

  const double recvs_per_delivery =
      static_cast<double>(after.recv_calls - before.recv_calls) / deliveries;
  EXPECT_EQ(after.enter_calls, before.enter_calls);
  // At least one sendmsg and one recv per delivered frame.
  EXPECT_GE(per_delivery, 2.0);
  // Two recvs per frame (measured: exactly 2.00); with the EAGAIN probe
  // read it was three.
  EXPECT_LE(recvs_per_delivery, 2.0);
  // Besides the recvs: one sendmsg, one eventfd kick (never read back:
  // the kick fd is edge-triggered), and a share of epoll_wait (measured
  // 2.06–2.10, and up to 2.46 with six copies of this test running at
  // once).
  EXPECT_LE(per_delivery, recvs_per_delivery + 2.6);

  for (auto& pair : pairs) {
    pair->sender->CloseSync();
    pair->receiver->CloseSync();
  }
  loop.Stop();
}

}  // namespace
}  // namespace rsf::net
