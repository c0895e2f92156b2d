// Tests for the network substrate: RAII sockets, framing (including the
// allocator hook the serialization-free receive path depends on), and the
// simulated link model used by the inter-machine experiment.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "common/clock.h"
#include "common/endian.h"
#include "net/framing.h"
#include "net/sim_link.h"
#include "net/socket.h"

namespace rsf::net {
namespace {

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

TEST(Socket, ListenerPicksEphemeralPort) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener->port(), 0);
}

TEST(Socket, RoundTripBytes) {
  auto [client, server] = MakePair();
  const uint8_t payload[] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(client.WriteAll(payload).ok());
  uint8_t received[5] = {};
  ASSERT_TRUE(server.ReadExact(received).ok());
  EXPECT_EQ(std::memcmp(payload, received, 5), 0);
}

TEST(Socket, ReadAfterPeerCloseReportsUnavailable) {
  auto [client, server] = MakePair();
  client.Close();
  uint8_t byte;
  EXPECT_EQ(server.ReadExact({&byte, 1}).code(), StatusCode::kUnavailable);
}

TEST(Socket, ShutdownUnblocksReader) {
  auto [client, server] = MakePair();
  std::thread reader([&] {
    uint8_t byte;
    EXPECT_FALSE(server.ReadExact({&byte, 1}).ok());
  });
  SleepForNanos(20'000'000);
  server.ShutdownBoth();
  reader.join();
  (void)client;
}

TEST(Socket, ConnectToBadAddressFails) {
  EXPECT_FALSE(TcpConnection::Connect("not-an-ip", 1234).ok());
}

TEST(Socket, FdGuardMoveSemantics) {
  FdGuard a(100000);  // not a real fd; never dereferenced before release
  FdGuard b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.fd(), 100000);
  EXPECT_EQ(b.Release(), 100000);
  EXPECT_FALSE(b.valid());
}

TEST(Socket, WritevAllGathersManyIovecs) {
  auto [client, server] = MakePair();
  // 64 chunks with distinct fill values; total 1 MB so the socket buffer
  // fills and WritevAll must resume mid-iovec after partial writes.
  constexpr size_t kChunks = 64;
  constexpr size_t kChunkSize = 16 * 1024;
  std::vector<std::vector<uint8_t>> chunks(kChunks);
  std::vector<iovec> iov(kChunks);
  for (size_t i = 0; i < kChunks; ++i) {
    chunks[i].assign(kChunkSize, static_cast<uint8_t>(i + 1));
    iov[i] = {chunks[i].data(), chunks[i].size()};
  }
  std::thread writer([&] { ASSERT_TRUE(client.WritevAll(iov).ok()); });
  std::vector<uint8_t> received(kChunks * kChunkSize);
  ASSERT_TRUE(server.ReadExact(received).ok());
  writer.join();
  for (size_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(received[i * kChunkSize], static_cast<uint8_t>(i + 1)) << i;
    EXPECT_EQ(received[(i + 1) * kChunkSize - 1], static_cast<uint8_t>(i + 1))
        << i;
  }
}

TEST(Socket, WritevAllSkipsEmptyIovecs) {
  auto [client, server] = MakePair();
  uint8_t a[] = {1, 2};
  uint8_t b[] = {3};
  const iovec iov[] = {{nullptr, 0}, {a, 2}, {nullptr, 0}, {b, 1}};
  ASSERT_TRUE(client.WritevAll(iov).ok());
  uint8_t received[3] = {};
  ASSERT_TRUE(server.ReadExact(received).ok());
  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[2], 3);

  // An all-empty gather is a no-op, not a syscall.
  const uint64_t before = WriteSyscallCount();
  const iovec empty[] = {{nullptr, 0}, {nullptr, 0}};
  ASSERT_TRUE(client.WritevAll(empty).ok());
  EXPECT_EQ(WriteSyscallCount(), before);
}

TEST(Framing, WriteFrameCostsOneSyscall) {
  auto [client, server] = MakePair();
  // Small enough that the socket buffer always has room: the length prefix
  // and payload must go out in ONE gathered syscall (the seed paid two).
  std::vector<uint8_t> payload(1024, 0x42);
  const uint64_t before = WriteSyscallCount();
  ASSERT_TRUE(WriteFrame(client, payload).ok());
  EXPECT_EQ(WriteSyscallCount() - before, 1u);

  std::vector<uint8_t> received(payload.size());
  uint32_t length = 0;
  ASSERT_TRUE(
      ReadFrame(server, [&](uint32_t) { return received.data(); }, &length)
          .ok());
  EXPECT_EQ(length, payload.size());
  EXPECT_EQ(received[0], 0x42);
}

TEST(Framing, RoundTripSmallAndLarge) {
  auto [client, server] = MakePair();
  for (const size_t size : {size_t{0}, size_t{1}, size_t{100000}}) {
    std::vector<uint8_t> payload(size, 0xAB);
    std::thread writer(
        [&] { ASSERT_TRUE(WriteFrame(client, payload).ok()); });
    std::vector<uint8_t> received;
    uint32_t length = 0;
    ASSERT_TRUE(ReadFrame(
                    server,
                    [&](uint32_t len) {
                      received.resize(len == 0 ? 1 : len);
                      return received.data();
                    },
                    &length)
                    .ok());
    writer.join();
    EXPECT_EQ(length, size);
    if (size > 0) {
      EXPECT_EQ(received[size - 1], 0xAB);
    }
  }
}

TEST(Framing, OversizedLengthRejected) {
  auto [client, server] = MakePair();
  uint8_t evil[4];
  rsf::StoreLE<uint32_t>(evil, kMaxFramePayload + 1);
  ASSERT_TRUE(client.WriteAll(evil).ok());
  uint32_t length = 0;
  EXPECT_EQ(ReadFrame(server, [&](uint32_t) -> uint8_t* { return nullptr; },
                      &length)
                .code(),
            StatusCode::kOutOfRange);
}

TEST(Framing, NullAllocatorRejected) {
  auto [client, server] = MakePair();
  const std::vector<uint8_t> payload = {1};
  std::thread writer([&] { (void)WriteFrame(client, payload); });
  uint32_t length = 0;
  EXPECT_EQ(ReadFrame(server, [](uint32_t) -> uint8_t* { return nullptr; },
                      &length)
                .code(),
            StatusCode::kResourceExhausted);
  writer.join();
}

// Audits the one-tunable socket-option contract: both ends of a transport
// connection — the accepted side AND the dialed side — get TCP_NODELAY and
// SO_RCVBUF/SO_SNDBUF derived from kSocketBufferBytes.  (The kernel at
// least doubles requested buffer sizes for bookkeeping, so the assertion
// is >=, and requires net.core.{r,w}mem_max >= kSocketBufferBytes.)
void ExpectTransportOptions(TcpConnection& conn) {
  auto nodelay = conn.GetIntOption(IPPROTO_TCP, TCP_NODELAY);
  ASSERT_TRUE(nodelay.ok());
  EXPECT_NE(*nodelay, 0);
  auto rcvbuf = conn.GetIntOption(SOL_SOCKET, SO_RCVBUF);
  ASSERT_TRUE(rcvbuf.ok());
  EXPECT_GE(*rcvbuf, kSocketBufferBytes);
  auto sndbuf = conn.GetIntOption(SOL_SOCKET, SO_SNDBUF);
  ASSERT_TRUE(sndbuf.ok());
  EXPECT_GE(*sndbuf, kSocketBufferBytes);
}

TEST(SocketOptions, AppliedToAcceptedConnection) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(ApplyTransportSocketOptions(server).ok());
  ExpectTransportOptions(server);
}

TEST(SocketOptions, AppliedToDialedConnection) {
  auto [client, server] = MakePair();
  ASSERT_TRUE(ApplyTransportSocketOptions(client).ok());
  ExpectTransportOptions(client);
}

TEST(SocketOptions, AppliedToLocalConnectionWithoutNoDelay) {
  // AF_UNIX refuses TCP_NODELAY; the buffer sizes must still be applied.
  auto tcp = TcpListener::Listen(0);
  ASSERT_TRUE(tcp.ok());
  auto local = TcpListener::ListenLocal(tcp->port());
  ASSERT_TRUE(local.ok());
  auto client = TcpConnection::ConnectLocal(tcp->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->local());
  ASSERT_TRUE(ApplyTransportSocketOptions(*client).ok());
  auto sndbuf = client->GetIntOption(SOL_SOCKET, SO_SNDBUF);
  ASSERT_TRUE(sndbuf.ok());
  EXPECT_GE(*sndbuf, kSocketBufferBytes);
}

TEST(Socket, LocalConnectRefusedWithoutListenerAndNamesItsPeer) {
  auto tcp = TcpListener::Listen(0);
  ASSERT_TRUE(tcp.ok());
  EXPECT_FALSE(TcpConnection::ConnectLocal(tcp->port()).ok());

  auto local = TcpListener::ListenLocal(tcp->port());
  ASSERT_TRUE(local.ok());
  auto client = TcpConnection::ConnectLocal(tcp->port());
  ASSERT_TRUE(client.ok());
  auto server = local->Accept();
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(server->local());
  auto pid = server->PeerPid();
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(*pid, ::getpid());
  // The dialing side reads the listener's owner the same way.
  auto client_pid = client->PeerPid();
  ASSERT_TRUE(client_pid.ok());
  EXPECT_EQ(*client_pid, ::getpid());
}

TEST(Socket, LocalConnectKeepsOnlyTheNamedOwnersListener) {
  auto tcp = TcpListener::Listen(0);
  ASSERT_TRUE(tcp.ok());
  auto local = TcpListener::ListenLocal(tcp->port());
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(TcpConnection::ConnectLocal(tcp->port(), ::getpid()).ok());
  auto other = TcpConnection::ConnectLocal(tcp->port(), ::getppid());
  EXPECT_FALSE(other.ok());
}

TEST(Socket, LocalConnectRefusesAnotherUsersListener) {
  // Any process may bind an abstract name; one running as another user
  // must not be taken for the publication, whatever pid is expected.
  if (::geteuid() != 0) GTEST_SKIP() << "needs root to listen as another user";
  auto tcp = TcpListener::Listen(0);
  ASSERT_TRUE(tcp.ok());
  const uint16_t port = tcp->port();
  int ready[2];
  int done[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(done), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The listener lives until the parent closes `done`.
    ::close(ready[0]);
    ::close(done[1]);
    char bound = 0;
    Result<TcpListener> listener = UnavailableError("not bound");
    if (::setgid(65534) == 0 && ::setuid(65534) == 0) {
      listener = TcpListener::ListenLocal(port);
      bound = listener.ok() ? 1 : 0;
    }
    (void)!::write(ready[1], &bound, 1);
    (void)!::read(done[0], &bound, 1);
    ::_exit(0);
  }
  ::close(ready[1]);
  ::close(done[0]);
  char bound = 0;
  ASSERT_EQ(::read(ready[0], &bound, 1), 1);
  if (bound == 1) {
    EXPECT_FALSE(TcpConnection::ConnectLocal(port).ok());
    EXPECT_FALSE(TcpConnection::ConnectLocal(port, child).ok());
  }
  ::close(done[1]);
  ::close(ready[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  if (bound != 1) GTEST_SKIP() << "could not listen as another user";
}

TEST(SimLink, WireTimeMatchesBandwidth) {
  SimLink link(LinkConfig{1e9, 0});  // 1 Gbps
  EXPECT_EQ(link.WireTimeNanos(125), 1000u);        // 1000 bits
  EXPECT_EQ(link.WireTimeNanos(1250000), 10000000u);  // 10 Mbit -> 10 ms
  SimLink unshaped(LinkConfig::Loopback());
  EXPECT_EQ(unshaped.WireTimeNanos(1000000), 0u);
}

TEST(SimLink, PropagationAddsConstantDelay) {
  SimLink link(LinkConfig{0, 50'000});
  EXPECT_EQ(link.DelayFor(100, 1'000'000), 50'000u);
}

TEST(SimLink, BackToBackFramesQueue) {
  // Two frames sent at the same instant: the second waits for the first's
  // wire time (store-and-forward serialization).
  SimLink link(LinkConfig{1e9, 0});
  const uint64_t now = 1'000'000'000;
  const uint64_t first = link.DelayFor(125'000, now);   // 1 ms wire
  const uint64_t second = link.DelayFor(125'000, now);  // queued behind
  EXPECT_EQ(first, 1'000'000u);
  EXPECT_EQ(second, 2'000'000u);
}

TEST(SimLink, IdleLinkDoesNotAccumulate) {
  SimLink link(LinkConfig{1e9, 0});
  (void)link.DelayFor(125'000, 0);
  // Much later, the link is idle again: only the wire time applies.
  EXPECT_EQ(link.DelayFor(125'000, 1'000'000'000), 1'000'000u);
}

TEST(SimLink, TenGigEPresetMatchesPaperTestbed) {
  const auto config = LinkConfig::TenGigE();
  SimLink link(config);
  // A 6MB image on 10 GbE: ~4.8 ms of wire time + 30 us propagation.
  const uint64_t delay = link.DelayFor(6 * 1024 * 1024, 0);
  EXPECT_NEAR(static_cast<double>(delay), 5.06e6, 0.2e6);
}

}  // namespace
}  // namespace rsf::net
