// Tests driving the unified transport Link (net/link.h) directly, plus the
// EventLoop timer facility it paces shaped deliveries with: nonblocking
// connect success / refusal / timeout, handshakes split across partial
// reads, close-during-handshake, server-role accept and reject (the
// Draining flush), and timer-paced pause/resume delivery.  The CI
// ThreadSanitizer job runs this whole binary.  Every suite is
// parameterized over both I/O backends (backend_param.h): under uring the
// same tests exercise the completion-mode recv/send drivers instead of
// readiness + per-link syscalls.  The link suites also run over both
// socket families: "Backends/" instantiations over loopback TCP, "Unix/"
// over the same-host AF_UNIX socket (TcpListener::ListenLocal) — the
// Link above the socket must not tell them apart.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "backend_param.h"
#include "net/framing.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/socket.h"

namespace rsf::net {
namespace {

// The AF_UNIX instantiation of a backend suite.  Its parameter stays the
// backend, so the TCP cases keep their names; the family is read back
// from the instantiation name (UnixFamily).
#define RSF_INSTANTIATE_UNIX_SUITE(suite)                                \
  INSTANTIATE_TEST_SUITE_P(Unix, suite,                                  \
                           ::testing::Values(IoBackendKind::kEpoll,      \
                                             IoBackendKind::kUring),     \
                           BackendParamName)

class LinkTest : public BackendSkipTest {};
RSF_INSTANTIATE_BACKEND_SUITE(LinkTest);
RSF_INSTANTIATE_UNIX_SUITE(LinkTest);

class LinkWriteTimeoutTest : public BackendSkipTest {};
RSF_INSTANTIATE_BACKEND_SUITE(LinkWriteTimeoutTest);
RSF_INSTANTIATE_UNIX_SUITE(LinkWriteTimeoutTest);

class LoopTimerTest : public BackendParamTest {};
RSF_INSTANTIATE_BACKEND_SUITE(LoopTimerTest);

// Spins until `predicate` holds or ~5 s pass (link transitions happen on
// the loop thread; tests observe them from the main thread).
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 5000; ++i) {
    if (predicate()) return true;
    SleepForNanos(1'000'000);
  }
  return predicate();
}

std::vector<uint8_t> Bytes(const char* text) {
  const auto* data = reinterpret_cast<const uint8_t*>(text);
  return {data, data + std::strlen(text)};
}

/// True when the running case belongs to a "Unix/" instantiation.
bool UnixFamily() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string_view(info->test_suite_name()).starts_with("Unix/");
}

/// Dial options for the running case's family: "Unix/" cases dial the
/// AF_UNIX name first, as a same-host subscriber does.
Link::Options DialOptions(Link::Options options = {}) {
  options.local_first = UnixFamily();
  return options;
}

/// A listening endpoint of the running case's family.  The TCP port is
/// held on both, as a Publication holds it: the AF_UNIX name is derived
/// from it.
struct FamilyListener {
  TcpListener tcp;
  TcpListener local;  // bound on "Unix/" cases only
  bool local_family = false;

  [[nodiscard]] bool ok() const {
    return tcp.valid() && (!local_family || local.valid());
  }
  [[nodiscard]] uint16_t port() const { return tcp.port(); }
  Result<TcpConnection> Accept() {
    return local_family ? local.Accept() : tcp.Accept();
  }
  /// A blocking client connection to this endpoint, in its family.
  Result<TcpConnection> Connect() const {
    if (!local_family) return TcpConnection::Connect("127.0.0.1", port());
    auto conn = TcpConnection::ConnectLocal(port());
    if (conn.ok()) {
      if (auto status = conn->SetNonBlocking(false); !status.ok()) {
        return status;
      }
    }
    return conn;
  }
};

FamilyListener ListenFamily() {
  FamilyListener listener;
  listener.local_family = UnixFamily();
  if (auto tcp = TcpListener::Listen(0); tcp.ok()) {
    listener.tcp = *std::move(tcp);
  }
  if (listener.local_family && listener.tcp.valid()) {
    if (auto local = TcpListener::ListenLocal(listener.port()); local.ok()) {
      listener.local = *std::move(local);
    }
  }
  return listener;
}

/// A started EventLoop plus the bookkeeping every link test wants: counts
/// of establishes/closes and the received frames.
struct LinkHarness {
  EventLoop loop;
  std::atomic<int> established{0};
  std::atomic<int> closed{0};
  std::atomic<int> frames{0};
  std::mutex mutex;
  std::vector<uint8_t> last_payload;  // guarded by mutex
  std::vector<uint8_t> receive_buf;   // loop-confined

  explicit LinkHarness(IoBackendKind kind) : loop(kind) { loop.Start(); }
  ~LinkHarness() { loop.Stop(); }

  /// Client-role callbacks: sends `request`, accepts any non-empty reply,
  /// records delivered frames.
  Link::Callbacks ClientCallbacks(std::vector<uint8_t> request) {
    Link::Callbacks callbacks;
    callbacks.make_handshake_request = [request](bool) { return request; };
    callbacks.on_handshake_reply = [](const uint8_t*, uint32_t length,
                                      Link::RingHandshake*) {
      return length > 0;
    };
    callbacks.alloc = [this](uint32_t length) {
      receive_buf.resize(length == 0 ? 1 : length);
      return receive_buf.data();
    };
    callbacks.on_frame = [this](uint32_t length) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        last_payload.assign(receive_buf.data(), receive_buf.data() + length);
      }
      frames.fetch_add(1);
    };
    callbacks.on_established = [this](const std::shared_ptr<Link>&) {
      established.fetch_add(1);
    };
    callbacks.on_closed = [this](const std::shared_ptr<Link>&) {
      closed.fetch_add(1);
    };
    return callbacks;
  }
};

/// Blocking server peer: accepts one connection, reads the handshake
/// request, replies, and hands the connection to `body`.
void RunServerPeer(
    FamilyListener& listener, std::vector<uint8_t>* request_out,
    const std::vector<uint8_t>& reply,
    const std::function<void(TcpConnection&)>& body = nullptr) {
  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  std::vector<uint8_t> request;
  uint32_t length = 0;
  ASSERT_TRUE(ReadFrame(
                  *conn,
                  [&](uint32_t len) {
                    request.resize(len == 0 ? 1 : len);
                    return request.data();
                  },
                  &length)
                  .ok());
  request.resize(length);
  if (request_out != nullptr) *request_out = request;
  ASSERT_TRUE(WriteFrame(*conn, reply).ok());
  if (body) body(*conn);
}

TEST_P(LinkTest, DialSucceedsHandshakesAndReceivesFrames) {
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::vector<uint8_t> seen_request;
  std::thread server([&] {
    RunServerPeer(listener, &seen_request, Bytes("welcome"),
                  [](TcpConnection& conn) {
                    ASSERT_TRUE(WriteFrame(conn, Bytes("payload-1")).ok());
                    ASSERT_TRUE(WriteFrame(conn, Bytes("payload-2")).ok());
                  });
  });

  auto link = Link::Dial("127.0.0.1", listener.port(), &harness.loop,
                         DialOptions(),
                         harness.ClientCallbacks(Bytes("hello")));
  ASSERT_TRUE(WaitFor([&] { return harness.frames.load() >= 2; }));
  server.join();

  EXPECT_EQ(harness.established.load(), 1);
  EXPECT_EQ(link->local(), UnixFamily());
  EXPECT_EQ(seen_request, Bytes("hello"));
  {
    std::lock_guard<std::mutex> lock(harness.mutex);
    EXPECT_EQ(harness.last_payload, Bytes("payload-2"));
  }
  EXPECT_EQ(link->stats().frames_received, 2u);

  // Server side is gone: the link notices EOF and closes itself.
  ASSERT_TRUE(WaitFor([&] { return harness.closed.load() == 1; }));
  EXPECT_EQ(link->state(), Link::State::kClosed);
}

TEST_P(LinkTest, DialRefusedReportsClosedNeverEstablished) {
  // Grab an ephemeral port, then close the listener so the dial is refused.
  uint16_t dead_port = 0;
  {
    auto listener = TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->port();
    listener->Close();
  }

  LinkHarness harness(GetParam());
  auto link = Link::Dial("127.0.0.1", dead_port, &harness.loop,
                         DialOptions(),
                         harness.ClientCallbacks(Bytes("hello")));
  ASSERT_TRUE(WaitFor([&] { return harness.closed.load() == 1; }));
  EXPECT_EQ(harness.established.load(), 0);
  EXPECT_EQ(link->state(), Link::State::kClosed);
}

TEST_P(LinkTest, LocalFirstDialFallsBackToTcpAndDelivers) {
  // Only a TCP listener: the AF_UNIX attempt is refused at once, and the
  // same dial carries on over TCP — handshake and frames unchanged.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  FamilyListener tcp_only;
  tcp_only.tcp = *std::move(listener);

  LinkHarness harness(GetParam());
  std::thread server([&] {
    RunServerPeer(tcp_only, nullptr, Bytes("welcome"),
                  [](TcpConnection& conn) {
                    ASSERT_TRUE(WriteFrame(conn, Bytes("over-tcp")).ok());
                  });
  });
  Link::Options options;
  options.local_first = true;
  auto link = Link::Dial("127.0.0.1", tcp_only.port(), &harness.loop,
                         options, harness.ClientCallbacks(Bytes("hello")));
  ASSERT_TRUE(WaitFor([&] { return harness.frames.load() >= 1; }));
  server.join();
  EXPECT_FALSE(link->local());
  {
    std::lock_guard<std::mutex> lock(harness.mutex);
    EXPECT_EQ(harness.last_payload, Bytes("over-tcp"));
  }
  link->CloseSync();
}

TEST_P(LinkTest, LocalFirstDialRefusesANameHeldByAnotherOwner) {
  // The name is bound, but not by the process the dialer was told owns it
  // (a squatter, as the dialer sees it): the AF_UNIX connection is dropped
  // and the same dial delivers over TCP.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  FamilyListener tcp_only;
  tcp_only.tcp = *std::move(listener);
  auto squatter = TcpListener::ListenLocal(tcp_only.port());
  ASSERT_TRUE(squatter.ok());

  LinkHarness harness(GetParam());
  std::thread server([&] {
    RunServerPeer(tcp_only, nullptr, Bytes("welcome"),
                  [](TcpConnection& conn) {
                    ASSERT_TRUE(WriteFrame(conn, Bytes("over-tcp")).ok());
                  });
  });
  Link::Options options;
  options.local_first = true;
  options.local_owner = ::getppid();  // not the squatter (this process)
  auto link = Link::Dial("127.0.0.1", tcp_only.port(), &harness.loop,
                         options, harness.ClientCallbacks(Bytes("hello")));
  ASSERT_TRUE(WaitFor([&] { return harness.frames.load() >= 1; }));
  server.join();
  EXPECT_FALSE(link->local());
  link->CloseSync();
}

TEST_P(LinkTest, DialToBlackholePeerTimesOut) {
  // RFC 5737 TEST-NET-1 is guaranteed unrouted: the connect either hangs
  // until the link's own timer fires (the case under test) or fails fast
  // with EHOSTUNREACH/ENETUNREACH in constrained sandboxes — both must
  // surface as on_closed with no establish.
  LinkHarness harness(GetParam());
  Link::Options options;
  options.connect_timeout_nanos = 200'000'000;  // 200 ms
  auto link = Link::Dial("192.0.2.1", 9, &harness.loop, DialOptions(options),
                         harness.ClientCallbacks(Bytes("hello")));
  ASSERT_TRUE(WaitFor([&] { return harness.closed.load() == 1; }));
  EXPECT_EQ(harness.established.load(), 0);
  EXPECT_EQ(link->state(), Link::State::kClosed);
}

TEST_P(LinkTest, HandshakeReplySplitAcrossPartialReadsStillEstablishes) {
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::thread server([&] {
    auto conn = listener.Accept();
    ASSERT_TRUE(conn.ok());
    std::vector<uint8_t> request;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      request.resize(len == 0 ? 1 : len);
                      return request.data();
                    },
                    &length)
                    .ok());
    // Dribble the reply frame one byte at a time: 4-byte LE length prefix,
    // then the payload.  The link's FrameReader must resume across events.
    const auto reply = Bytes("ok");
    const uint32_t reply_length = static_cast<uint32_t>(reply.size());
    std::vector<uint8_t> wire(4);
    std::memcpy(wire.data(), &reply_length, 4);
    wire.insert(wire.end(), reply.begin(), reply.end());
    for (const uint8_t byte : wire) {
      ASSERT_TRUE(conn->WriteAll({&byte, 1}).ok());
      SleepForNanos(2'000'000);
    }
    ASSERT_TRUE(WriteFrame(*conn, Bytes("after")).ok());
  });

  auto link = Link::Dial("127.0.0.1", listener.port(), &harness.loop,
                         DialOptions(),
                         harness.ClientCallbacks(Bytes("hello")));
  ASSERT_TRUE(WaitFor([&] { return harness.frames.load() >= 1; }));
  server.join();
  EXPECT_EQ(harness.established.load(), 1);
  EXPECT_EQ(link->stats().frames_received, 1u);
}

TEST_P(LinkTest, PeerCloseDuringHandshakeClosesLink) {
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::thread server([&] {
    auto conn = listener.Accept();
    ASSERT_TRUE(conn.ok());
    // Read the request, then hang up without ever replying.
    std::vector<uint8_t> request;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      request.resize(len == 0 ? 1 : len);
                      return request.data();
                    },
                    &length)
                    .ok());
    conn->Close();
  });

  auto link = Link::Dial("127.0.0.1", listener.port(), &harness.loop,
                         DialOptions(),
                         harness.ClientCallbacks(Bytes("hello")));
  ASSERT_TRUE(WaitFor([&] { return harness.closed.load() == 1; }));
  server.join();
  EXPECT_EQ(harness.established.load(), 0);
  EXPECT_EQ(link->state(), Link::State::kClosed);
}

TEST_P(LinkTest, ServerRoleAcceptsHandshakeAndSendsFrames) {
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::shared_ptr<Link> server_link;
  std::mutex link_mutex;

  std::thread client_thread([&] {
    auto conn = listener.Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(*conn, Bytes("subscribe-me")).ok());
    std::vector<uint8_t> reply;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      reply.resize(len == 0 ? 1 : len);
                      return reply.data();
                    },
                    &length)
                    .ok());
    reply.resize(length);
    EXPECT_EQ(reply, Bytes("accepted"));
    // Now receive the app frame the established link flushes.
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      payload.resize(len == 0 ? 1 : len);
                      return payload.data();
                    },
                    &length)
                    .ok());
    payload.resize(length);
    EXPECT_EQ(payload, Bytes("fanout"));
  });

  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  Link::Callbacks callbacks;
  callbacks.on_handshake_request = [](const uint8_t* data, uint32_t length,
                                      std::vector<uint8_t>* reply,
                                      Link::RingHandshake*) {
    EXPECT_EQ(std::vector<uint8_t>(data, data + length), Bytes("subscribe-me"));
    *reply = Bytes("accepted");
    return true;
  };
  callbacks.on_established = [&](const std::shared_ptr<Link>& link) {
    {
      std::lock_guard<std::mutex> lock(link_mutex);
      server_link = link;
    }
    harness.established.fetch_add(1);
  };
  callbacks.on_closed = [&](const std::shared_ptr<Link>&) {
    harness.closed.fetch_add(1);
  };
  auto link = Link::Accepted(*std::move(conn), &harness.loop, Link::Options{},
                             std::move(callbacks));
  ASSERT_TRUE(WaitFor([&] { return harness.established.load() == 1; }));
  EXPECT_EQ(link->local(), UnixFamily());

  const auto payload = Bytes("fanout");
  auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[payload.size()]);
  std::memcpy(buffer.get(), payload.data(), payload.size());
  EXPECT_FALSE(link->EnqueueFrame(std::move(buffer),
                                  static_cast<uint32_t>(payload.size())));
  harness.loop.RunInLoop([link] { link->FlushOnLoop(); });

  client_thread.join();
  ASSERT_TRUE(WaitFor([&] { return link->stats().frames_sent >= 1; }));
  link->CloseSync();
}

TEST_P(LinkTest, ServerRoleRejectionFlushesErrorReplyThenCloses) {
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::thread client_thread([&] {
    auto conn = listener.Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(*conn, Bytes("bad-handshake")).ok());
    // The Draining state must flush the rejection reply before closing.
    std::vector<uint8_t> reply;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      reply.resize(len == 0 ? 1 : len);
                      return reply.data();
                    },
                    &length)
                    .ok());
    reply.resize(length);
    EXPECT_EQ(reply, Bytes("error=no"));
    // ...and then the peer hangs up on us.
    uint8_t byte = 0;
    EXPECT_FALSE(conn->ReadExact({&byte, 1}).ok());
  });

  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  Link::Callbacks callbacks;
  callbacks.on_handshake_request = [](const uint8_t*, uint32_t,
                                      std::vector<uint8_t>* reply,
                                      Link::RingHandshake*) {
    *reply = Bytes("error=no");
    return false;
  };
  callbacks.on_closed = [&](const std::shared_ptr<Link>&) {
    harness.closed.fetch_add(1);
  };
  auto link = Link::Accepted(*std::move(conn), &harness.loop, Link::Options{},
                             std::move(callbacks));
  client_thread.join();
  ASSERT_TRUE(WaitFor([&] { return harness.closed.load() == 1; }));
  EXPECT_EQ(link->state(), Link::State::kClosed);
}

TEST_P(LinkTest, TimerPacedPauseResumeDelaysDelivery) {
  // The shaped-delivery pattern, driven directly: every frame pauses the
  // link and resumes it 20 ms later via the loop timer, so three frames
  // sent back-to-back must take >= 2 pacing gaps to deliver.
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::shared_ptr<Link> client_link;
  std::mutex link_mutex;
  constexpr uint64_t kGapNanos = 20'000'000;

  auto callbacks = harness.ClientCallbacks(Bytes("hello"));
  callbacks.on_established = [&](const std::shared_ptr<Link>& link) {
    {
      std::lock_guard<std::mutex> lock(link_mutex);
      client_link = link;
    }
    harness.established.fetch_add(1);
  };
  callbacks.on_frame = [&](uint32_t) {
    harness.frames.fetch_add(1);
    std::shared_ptr<Link> link;
    {
      std::lock_guard<std::mutex> lock(link_mutex);
      link = client_link;
    }
    ASSERT_NE(link, nullptr);
    link->PauseReading();
    EXPECT_TRUE(harness.loop.RunAfter(kGapNanos, [link] {
      if (link->established()) link->ResumeReading();
    }));
  };

  std::thread server([&] {
    RunServerPeer(listener, nullptr, Bytes("ok"), [](TcpConnection& conn) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(WriteFrame(conn, Bytes("frame")).ok());
      }
    });
  });

  const uint64_t start = MonotonicNanos();
  auto link = Link::Dial("127.0.0.1", listener.port(), &harness.loop,
                         DialOptions(), std::move(callbacks));
  ASSERT_TRUE(WaitFor([&] { return harness.frames.load() >= 3; }));
  const uint64_t elapsed = MonotonicNanos() - start;
  server.join();
  // Frame 1 delivers immediately; frames 2 and 3 each wait out one gap.
  EXPECT_GE(elapsed, 2 * kGapNanos);
  link->CloseSync();
}

/// Accepts one connection, performs the server-side handshake, then reads
/// `expect_frames` app frames, checking each payload against `expected`.
/// Signals `done` when finished and holds the socket open until `release`.
void RunReadingClientPeer(const FamilyListener& listener, int expect_frames,
                          const std::vector<uint8_t>& expected,
                          std::atomic<bool>& done,
                          std::atomic<bool>& release) {
  auto conn = listener.Connect();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WriteFrame(*conn, Bytes("subscribe-me")).ok());
  std::vector<uint8_t> buf;
  uint32_t length = 0;
  ASSERT_TRUE(ReadFrame(
                  *conn,
                  [&](uint32_t len) {
                    buf.resize(len == 0 ? 1 : len);
                    return buf.data();
                  },
                  &length)
                  .ok());
  for (int i = 0; i < expect_frames; ++i) {
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      buf.resize(len == 0 ? 1 : len);
                      return buf.data();
                    },
                    &length)
                    .ok());
    ASSERT_EQ(length, expected.size()) << "frame " << i;
    buf.resize(length);
    EXPECT_EQ(buf, expected) << "frame " << i;
  }
  done.store(true);
  while (!release.load()) SleepForNanos(1'000'000);
}

std::vector<uint8_t> PatternPayload(size_t size) {
  std::vector<uint8_t> payload(size);
  for (size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<uint8_t>((i * 31 + 7) & 0xff);
  }
  return payload;
}

std::shared_ptr<uint8_t[]> SharedCopy(const std::vector<uint8_t>& bytes) {
  auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[bytes.size()]);
  std::memcpy(buffer.get(), bytes.data(), bytes.size());
  return buffer;
}

Link::Callbacks AcceptingServerCallbacks(LinkHarness& harness) {
  Link::Callbacks callbacks;
  callbacks.on_handshake_request = [](const uint8_t*, uint32_t,
                                      std::vector<uint8_t>* reply,
                                      Link::RingHandshake*) {
    *reply = Bytes("accepted");
    return true;
  };
  callbacks.on_established = [&harness](const std::shared_ptr<Link>&) {
    harness.established.fetch_add(1);
  };
  callbacks.on_closed = [&harness](const std::shared_ptr<Link>&) {
    harness.closed.fetch_add(1);
  };
  return callbacks;
}

TEST_P(LinkTest, LargeFramesSurvivePartialSendsAndReleaseHolders) {
  // Frames larger than SO_SNDBUF cannot leave in one send: the epoll
  // writer resumes mid-frame on writability, and the uring writer restages
  // the remainder of a short SENDMSG.  The peer byte-checks every frame,
  // and once the writer drains the queue drops its shared payload holders
  // (the payload's only other reference was released after enqueue).
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  const auto payload = PatternPayload(256 * 1024);  // > SO_SNDBUF
  constexpr int kFrames = 3;
  std::atomic<bool> peer_done{false};
  std::atomic<bool> release_peer{false};
  std::thread client([&] {
    RunReadingClientPeer(listener, kFrames, payload, peer_done,
                         release_peer);
  });

  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  auto link = Link::Accepted(*std::move(conn), &harness.loop, Link::Options{},
                             AcceptingServerCallbacks(harness));
  ASSERT_TRUE(WaitFor([&] { return harness.established.load() == 1; }));

  auto buffer = SharedCopy(payload);
  std::weak_ptr<uint8_t[]> weak = buffer;
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_FALSE(
        link->EnqueueFrame(buffer, static_cast<uint32_t>(payload.size())));
  }
  buffer.reset();
  harness.loop.RunInLoop([link] { link->FlushOnLoop(); });

  ASSERT_TRUE(WaitFor([&] { return peer_done.load(); }));
  ASSERT_TRUE(WaitFor([&] { return weak.expired(); }));
  // +1: the handshake reply frame flows through the same writer.  The
  // writer drops a frame's holder inside its flush and publishes the sent
  // count just after it, so wait for the count rather than read it once.
  EXPECT_TRUE(WaitFor([&] {
    return link->stats().frames_sent == static_cast<uint64_t>(kFrames) + 1;
  })) << "frames_sent " << link->stats().frames_sent;

  release_peer.store(true);
  client.join();
  link->CloseSync();
}

TEST_P(LinkTest, ProducerWriteThroughRacesClose) {
  // Four producers write through to one link while its peer resets and the
  // loop closes the link.  WriteThrough reads the state and sends under the
  // lock CloseOnLoop flips the state and closes the fd under, so a producer
  // never sends on a closed or reused descriptor (the tsan job reports such
  // an fd race), and every frame lands in exactly one bucket.  Under uring
  // nothing is written through: every frame rides the loop kick.
  constexpr int kRounds = 200;
  constexpr int kProducers = 4;
  constexpr int kFramesPerProducer = 32;
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  const auto bytes = PatternPayload(512);
  const OutFrame frame{SharedCopy(bytes), static_cast<uint32_t>(bytes.size())};
  Link::Options options;
  options.max_pending_frames = 16;  // exercise drop-oldest too

  for (int round = 0; round < kRounds; ++round) {
    std::thread peer([&, round] {
      auto conn = listener.Connect();
      ASSERT_TRUE(conn.ok());
      ASSERT_TRUE(WriteFrame(*conn, Bytes("subscribe-me")).ok());
      std::vector<uint8_t> buf;
      const FrameAllocator alloc = [&](uint32_t len) {
        buf.resize(len == 0 ? 1 : len);
        return buf.data();
      };
      uint32_t length = 0;
      ASSERT_TRUE(ReadFrame(*conn, alloc, &length).ok());  // the reply
      // Take a few frames (none on some rounds), then reset: SO_LINGER 0
      // turns the close into an RST.
      for (int i = 0; i < round % 4; ++i) {
        if (!ReadFrame(*conn, alloc, &length).ok()) break;
      }
      const linger reset{1, 0};
      ::setsockopt(conn->fd(), SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
      conn->Close();
    });

    auto conn = listener.Accept();
    ASSERT_TRUE(conn.ok());
    auto link = Link::Accepted(*std::move(conn), &harness.loop, options,
                               AcceptingServerCallbacks(harness));
    ASSERT_TRUE(
        WaitFor([&] { return harness.established.load() == round + 1; }));

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kFramesPerProducer; ++i) {
          if (link->WriteThrough(frame).queued) {
            harness.loop.RunInLoop([link] { link->FlushOnLoop(); });
          }
        }
      });
    }
    for (auto& producer : producers) producer.join();
    peer.join();
    // The reset closes the link from the loop; CloseSync is the backstop.
    WaitFor([&] { return link->state() == Link::State::kClosed; });
    link->CloseSync();

    const Link::Stats stats = link->stats();
    // +1: the handshake reply went through the same writer.
    EXPECT_EQ(stats.frames_enqueued,
              static_cast<uint64_t>(kProducers * kFramesPerProducer) + 1)
        << "round " << round;
    EXPECT_EQ(stats.frames_enqueued, stats.frames_sent +
                                         stats.frames_evicted +
                                         stats.frames_stranded)
        << "round " << round << ": sent " << stats.frames_sent
        << " evicted " << stats.frames_evicted << " stranded "
        << stats.frames_stranded;
    if (HasFailure()) return;
  }
}

TEST_P(LinkWriteTimeoutTest, StalledPeerClosesLinkAndStrandsFrames) {
  // A peer that handshakes and then never reads again: the socket buffers
  // fill, the writer stops making progress, and the write-progress
  // deadline must close the link (on_closed fires, queued frames counted
  // as stranded) instead of pinning queue memory forever.
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::atomic<bool> release_peer{false};
  std::thread client([&] {
    auto conn = listener.Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(*conn, Bytes("subscribe-me")).ok());
    std::vector<uint8_t> reply;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      reply.resize(len == 0 ? 1 : len);
                      return reply.data();
                    },
                    &length)
                    .ok());
    // ... and never read another byte.
    while (!release_peer.load()) SleepForNanos(1'000'000);
  });

  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  Link::Options options;
  options.write_timeout_nanos = 150'000'000;  // 150 ms
  auto link = Link::Accepted(*std::move(conn), &harness.loop, options,
                             AcceptingServerCallbacks(harness));
  ASSERT_TRUE(WaitFor([&] { return harness.established.load() == 1; }));

  // Enough bytes to overrun both kernel buffers (256 KiB each way), so
  // frames stay queued in the writer with no forward progress.
  const auto payload = PatternPayload(128 * 1024);
  for (int i = 0; i < 16; ++i) {
    link->EnqueueFrame(SharedCopy(payload),
                       static_cast<uint32_t>(payload.size()));
  }
  harness.loop.RunInLoop([link] { link->FlushOnLoop(); });

  ASSERT_TRUE(WaitFor([&] { return harness.closed.load() == 1; }));
  EXPECT_EQ(link->state(), Link::State::kClosed);
  const Link::Stats stats = link->stats();
  EXPECT_GT(stats.frames_stranded, 0u);
  // How many frames the kernel absorbed depends on the family (AF_UNIX
  // charges its send buffer per skb), but every frame lands in one bucket.
  EXPECT_EQ(stats.frames_enqueued,
            stats.frames_sent + stats.frames_evicted + stats.frames_stranded);

  release_peer.store(true);
  client.join();
}

TEST_P(LinkWriteTimeoutTest, SlowConsumerEvictsOldestAndAccountsEveryFrame) {
  // A peer that handshakes and then reads nothing, behind a bounded queue:
  // the writer fills the socket, drop-oldest evicts the backlog beyond
  // max_pending_frames, and the deadline strands the rest.
  auto listener = ListenFamily();
  ASSERT_TRUE(listener.ok());

  LinkHarness harness(GetParam());
  std::atomic<bool> release_peer{false};
  std::thread client([&] {
    auto conn = listener.Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(*conn, Bytes("subscribe-me")).ok());
    std::vector<uint8_t> reply;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    *conn,
                    [&](uint32_t len) {
                      reply.resize(len == 0 ? 1 : len);
                      return reply.data();
                    },
                    &length)
                    .ok());
    while (!release_peer.load()) SleepForNanos(1'000'000);
  });

  auto conn = listener.Accept();
  ASSERT_TRUE(conn.ok());
  Link::Options options;
  options.max_pending_frames = 8;
  options.write_timeout_nanos = 150'000'000;  // 150 ms
  auto link = Link::Accepted(*std::move(conn), &harness.loop, options,
                             AcceptingServerCallbacks(harness));
  ASSERT_TRUE(WaitFor([&] { return harness.established.load() == 1; }));

  // Eight queued 256 KiB frames overrun both kernel buffers on either
  // family, however the enqueues interleave with the loop's flushes.
  const auto payload = PatternPayload(256 * 1024);
  constexpr int kFrames = 32;
  for (int i = 0; i < kFrames; ++i) {
    link->EnqueueFrame(SharedCopy(payload),
                       static_cast<uint32_t>(payload.size()));
    harness.loop.RunInLoop([link] { link->FlushOnLoop(); });
  }

  ASSERT_TRUE(WaitFor([&] { return harness.closed.load() == 1; }))
      << "sent " << link->stats().frames_sent << " evicted "
      << link->stats().frames_evicted << " state "
      << static_cast<int>(link->state());
  const Link::Stats stats = link->stats();
  EXPECT_EQ(stats.frames_enqueued, static_cast<uint64_t>(kFrames) + 1);
  EXPECT_GT(stats.frames_evicted, 0u);
  EXPECT_EQ(stats.frames_enqueued,
            stats.frames_sent + stats.frames_evicted + stats.frames_stranded)
      << "sent " << stats.frames_sent << " evicted " << stats.frames_evicted
      << " stranded " << stats.frames_stranded;

  release_peer.store(true);
  client.join();
}

TEST_P(LoopTimerTest, RunAfterFiresOnLoopThreadInDeadlineOrder) {
  EventLoop& loop = *loop_;
  loop.Start();

  std::mutex mutex;
  std::vector<int> order;  // guarded by mutex
  std::atomic<int> fired{0};
  std::atomic<bool> on_loop_thread{true};
  const auto arm = [&](int id, uint64_t delay_nanos) {
    ASSERT_TRUE(loop.RunAfter(delay_nanos, [&, id] {
      if (!loop.InLoopThread()) on_loop_thread.store(false);
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(id);
      fired.fetch_add(1);
    }));
  };
  arm(5, 600'000'000);
  arm(1, 200'000'000);
  arm(3, 400'000'000);
  // timers_ is loop-confined: count from the loop thread (this also
  // barriers the off-loop RunAfter posts, which arm via the task queue).
  size_t armed = 0;
  loop.RunSync([&] { armed = loop.NumTimers(); });
  EXPECT_EQ(armed, 3u);

  ASSERT_TRUE(WaitFor([&] { return fired.load() == 3; }));
  EXPECT_TRUE(on_loop_thread.load());
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
  }
  loop.RunSync([&] { armed = loop.NumTimers(); });
  EXPECT_EQ(armed, 0u);
  loop.Stop();
}

TEST_P(LoopTimerTest, ZeroDelayFiresPromptly) {
  EventLoop& loop = *loop_;
  loop.Start();
  std::atomic<bool> fired{false};
  ASSERT_TRUE(loop.RunAfter(0, [&] { fired.store(true); }));
  ASSERT_TRUE(WaitFor([&] { return fired.load(); }));
  loop.Stop();
}

TEST_P(LoopTimerTest, RunAfterRefusedAfterStop) {
  EventLoop& loop = *loop_;
  loop.Start();
  loop.Stop();
  EXPECT_FALSE(loop.RunAfter(1'000, [] {}));
}

TEST_P(LoopTimerTest, TimerReschedulingItselfDoesNotRefireInSameDrain) {
  EventLoop& loop = *loop_;
  loop.Start();
  std::atomic<int> fired{0};
  std::function<void()> chain = [&] {
    if (fired.fetch_add(1) + 1 < 3) {
      EXPECT_TRUE(loop.RunAfter(1'000'000, chain));
    }
  };
  ASSERT_TRUE(loop.RunAfter(1'000'000, chain));
  ASSERT_TRUE(WaitFor([&] { return fired.load() == 3; }));
  loop.Stop();
}

}  // namespace
}  // namespace rsf::net
