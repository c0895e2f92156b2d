// Tests for the same-host stream ring (net/stream_ring.h) and for Link
// over it.  StreamRingTest drives a reader and a writer mapping of one
// ring directly: the sleep/doorbell protocol under a producer/consumer
// race, a frame larger than the ring, the rewind that keeps a sparse
// stream on the first page, the checks that make each side distrust the
// other (seals, size, doorbell kind, indices), and a doorbell the peer
// tampers with that never blocks the writer.  RingLinkTest runs
// Link pairs over AF_UNIX with the ring negotiated, on both backends:
// frames bypass the socket, frames written before a close arrive before
// the EOF, a refused offer stays on the socket, a full ring keeps
// drop-oldest and the write deadline, a hostile subscriber cannot block
// the publisher's producers or loop, the edge-triggered doorbells (isolated
// frames each wake the reader with a drain only every 32 wakes, rings
// while paused are read on resume, a flooded doorbell stalls only its own
// link), and cycling links leaks no descriptor or mapping.
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend_param.h"
#include "common/clock.h"
#include "common/log.h"
#include "net/framing.h"
#include "net/io_backend.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/socket.h"
#include "net/stream_ring.h"

namespace rsf::net {
namespace {

template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 5000; ++i) {
    if (predicate()) return true;
    SleepForNanos(1'000'000);
  }
  return predicate();
}

std::vector<FdGuard> Dup(const std::array<int, 2>& fds) {
  std::vector<FdGuard> out;
  for (int fd : fds) out.emplace_back(::dup(fd));
  return out;
}

/// A reader and the writer mapping of the same ring.
struct RingPair {
  std::unique_ptr<StreamRing> reader;
  std::unique_ptr<StreamRing> writer;
};

RingPair MakePair() {
  RingPair pair;
  auto reader = StreamRing::Create();
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return pair;
  pair.reader = *std::move(reader);
  auto writer = StreamRing::Attach(Dup(pair.reader->PassedFds()));
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  if (writer.ok()) pair.writer = *std::move(writer);
  return pair;
}

/// Blocks until `fd` is readable; false after `timeout_ms` (a lost wake-up).
bool WaitReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) == 1;
}

Result<size_t> Write(StreamRing& ring, const void* data, size_t size) {
  const iovec iov{const_cast<void*>(data), size};
  return ring.WriteSome(std::span<const iovec>(&iov, 1));
}

TEST(StreamRingTest, BytesCrossTheWrapInOrder) {
  // Write 3000-byte chunks, read 2000: the ring is never empty at a write,
  // so the stream really wraps (three laps) instead of rewinding.
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  std::vector<uint8_t> stream(3 * kStreamRingCapacity);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<uint8_t>(i * 7 + i / 251);
  }
  std::vector<uint8_t> got;
  size_t written = 0;
  while (got.size() < stream.size()) {
    const size_t chunk = std::min<size_t>(3000, stream.size() - written);
    if (chunk > 0) {
      auto n = Write(*pair.writer, stream.data() + written, chunk);
      ASSERT_TRUE(n.ok());
      written += *n;
    }
    uint8_t buf[2000];
    auto r = pair.reader->ReadSome(buf);
    ASSERT_TRUE(r.ok());
    got.insert(got.end(), buf, buf + *r);
  }
  EXPECT_EQ(got, stream);

  // Empty now: the reader flags sleep, and the next write rings once.
  const uint64_t rings = GlobalIoCounters().doorbell_writes;
  uint8_t byte = 0;
  auto empty = pair.reader->ReadSome(std::span<uint8_t>(&byte, 1));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0u);
  EXPECT_FALSE(WaitReadable(pair.reader->wait_fd(), 0));
  ASSERT_TRUE(Write(*pair.writer, &byte, 1).ok());
  ASSERT_TRUE(Write(*pair.writer, &byte, 1).ok());
  EXPECT_EQ(GlobalIoCounters().doorbell_writes - rings, 1u);
  EXPECT_TRUE(WaitReadable(pair.reader->wait_fd(), 0));
}

TEST(StreamRingTest, FullRingWaitsForTheSpaceDoorbell) {
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  std::vector<uint8_t> bytes(kStreamRingCapacity + 100, 0x5a);
  auto n = Write(*pair.writer, bytes.data(), bytes.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kStreamRingCapacity);
  auto full = Write(*pair.writer, bytes.data(), 100);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, 0u);  // waiting flagged
  EXPECT_FALSE(WaitReadable(pair.writer->wait_fd(), 0));
  // A sliver freed: the writer sleeps on until half the ring is free.
  std::vector<uint8_t> out(10);
  ASSERT_TRUE(pair.reader->ReadSome(out).ok());
  EXPECT_FALSE(WaitReadable(pair.writer->wait_fd(), 0));
  std::vector<uint8_t> half(kStreamRingCapacity / 2 - out.size());
  ASSERT_EQ(*pair.reader->ReadSome(half), half.size());
  EXPECT_TRUE(WaitReadable(pair.writer->wait_fd(), 0));
  EXPECT_TRUE(pair.writer->ClearDoorbell());
  EXPECT_FALSE(WaitReadable(pair.writer->wait_fd(), 0));
  auto more = Write(*pair.writer, bytes.data(), bytes.size());
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(*more, kStreamRingCapacity / 2);
}

TEST(StreamRingTest, ProducerConsumerRaceLosesNoWakeup) {
  // A million 8-byte records (eight laps of the ring), both sides
  // sleeping on their doorbells whenever the ring is empty or full.  The
  // reader is not allowed to poll, so every empty ring goes through the
  // sleep flag.  A lost wake-up parks one side: its poll times out and
  // the test fails.
  constexpr uint64_t kRecords = 1'000'000;
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  std::atomic<bool> lost{false};

  std::thread producer([&] {
    for (uint64_t seq = 0; seq < kRecords && !lost.load();) {
      auto n = Write(*pair.writer, &seq, sizeof(seq));
      if (!n.ok()) {
        lost.store(true);
        return;
      }
      if (*n == 0) {
        if (!WaitReadable(pair.writer->wait_fd(), 10'000)) lost.store(true);
        (void)pair.writer->ClearDoorbell();
        continue;
      }
      // The ring takes whole records: 8 divides the capacity.
      ASSERT_EQ(*n, sizeof(seq));
      ++seq;
    }
  });

  uint64_t expected = 0;
  while (expected < kRecords && !lost.load()) {
    uint64_t seq;
    auto n = pair.reader->ReadSome(
        std::span<uint8_t>(reinterpret_cast<uint8_t*>(&seq), sizeof(seq)));
    ASSERT_TRUE(n.ok());
    if (*n == 0) {
      if (!WaitReadable(pair.reader->wait_fd(), 10'000)) lost.store(true);
      (void)pair.reader->ClearDoorbell();
      continue;
    }
    ASSERT_EQ(*n, sizeof(seq));
    ASSERT_EQ(seq, expected);
    ++expected;
  }
  producer.join();
  EXPECT_FALSE(lost.load()) << "a doorbell was lost after " << expected;
  EXPECT_EQ(expected, kRecords);
}

TEST(StreamRingTest, FrameLargerThanTheRingStreamsThroughInPieces) {
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  constexpr size_t kBytes = 3 * kStreamRingCapacity + 12345;
  auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[kBytes]);
  for (size_t i = 0; i < kBytes; ++i) {
    payload[i] = static_cast<uint8_t>(i * 13 + 1);
  }

  std::thread producer([&] {
    FrameWriter writer;
    writer.Enqueue(payload, kBytes);
    writer.Enqueue(payload, 16);
    while (writer.HasPending()) {
      ASSERT_TRUE(writer.Flush(*pair.writer).ok());
      if (writer.HasPending()) {
        ASSERT_TRUE(WaitReadable(pair.writer->wait_fd(), 10'000));
        (void)pair.writer->ClearDoorbell();
      }
    }
  });

  FrameReader reader;
  std::vector<uint8_t> got;
  std::vector<uint32_t> lengths;
  while (lengths.size() < 2) {
    uint32_t length = 0;
    auto step = reader.Poll(
        *pair.reader,
        [&](uint32_t raw) {
          got.assign(FrameLength(raw), 0);
          return got.data();
        },
        &length);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    if (*step == FrameReader::Step::kFrame) {
      lengths.push_back(length);
      EXPECT_EQ(std::memcmp(got.data(), payload.get(), length), 0);
      continue;
    }
    ASSERT_TRUE(WaitReadable(pair.reader->wait_fd(), 10'000));
    (void)pair.reader->ClearDoorbell();
  }
  producer.join();
  EXPECT_EQ(lengths, (std::vector<uint32_t>{uint32_t{kBytes}, 16}));
}

/// Resident pages of the ring's data area (mincore).
size_t ResidentPages(const StreamRing& ring) {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec(kStreamRingCapacity / page);
  EXPECT_EQ(::mincore(const_cast<uint8_t*>(ring.data()), kStreamRingCapacity,
                      vec.data()),
            0);
  size_t resident = 0;
  for (unsigned char v : vec) resident += v & 1;
  return resident;
}

TEST(StreamRingTest, SparseStreamRewindsAndReusesTheFirstPage) {
  // 4000 frames of 320 bytes — 1.25 MB, more than the ring holds — each
  // read before the next is written, as at 1 kHz.  Each write finds the
  // ring empty and rewinds, so only the first data page is touched.
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  EXPECT_EQ(ResidentPages(*pair.reader), 0u);
  std::vector<uint8_t> frame(320);
  std::vector<uint8_t> got(frame.size());
  for (int i = 0; i < 4000; ++i) {
    std::memset(frame.data(), i & 0xff, frame.size());
    ASSERT_EQ(*Write(*pair.writer, frame.data(), frame.size()), frame.size());
    ASSERT_EQ(*pair.reader->ReadSome(got), got.size());
    ASSERT_EQ(got, frame);
  }
  EXPECT_EQ(ResidentPages(*pair.reader), 1u);
}

TEST(StreamRingTest, PollWindowFollowsTheWritersRingStamp) {
  constexpr uint64_t kCeiling = kStreamRingPollNanos;
  constexpr uint64_t kSlept = 1'000'000'000;
  struct Row {
    uint64_t poll;     // the window before the sleep
    uint64_t rang_at;  // the writer's stamp
    uint64_t next;     // the window after it
  };
  const Row rows[] = {
      // The writer rang within the ceiling: poll, then poll longer.
      {0, kSlept + 1'000, kCeiling / 8},
      {kCeiling / 8, kSlept + 1'000, kCeiling / 4},
      {kCeiling / 2, kSlept + kCeiling - 1, kCeiling},
      {kCeiling, kSlept, kCeiling},
      // It rang later: the writer is not streaming, stop polling (a 1 kHz
      // stream rings 1 ms after each sleep).
      {kCeiling, kSlept + kCeiling, 0},
      {kCeiling / 8, kSlept + 1'000'000, 0},
      {0, kSlept + 1'000'000, 0},
      // A stamp older than the sleep rang no sleep of this reader.
      {kCeiling / 4, kSlept - 1, kCeiling / 4},
      {0, 0, 0},
      // Hostile stamps move the window only within [0, ceiling].
      {kCeiling, ~uint64_t{0}, 0},
      {~uint64_t{0}, kSlept + 1, kCeiling},
      {~uint64_t{0}, 0, kCeiling},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(NextPollNanos(row.poll, kSlept, row.rang_at), row.next)
        << "poll " << row.poll << " rang_at " << row.rang_at;
  }
}

/// A memfd of `size` bytes carrying a valid ring header, with `seals`.
FdGuard FakeRingMemfd(size_t size, int seals) {
  FdGuard fd(::memfd_create("rsf.ring.test", MFD_CLOEXEC | MFD_ALLOW_SEALING));
  EXPECT_TRUE(fd.valid());
  EXPECT_EQ(::ftruncate(fd.fd(), static_cast<off_t>(size)), 0);
  StreamRingHeader header;
  header.magic = StreamRingHeader::kMagic;
  header.capacity = size > kStreamRingHeaderBytes
                        ? size - kStreamRingHeaderBytes
                        : 0;
  EXPECT_EQ(::pwrite(fd.fd(), &header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  if (seals != 0) {
    EXPECT_EQ(::fcntl(fd.fd(), F_ADD_SEALS, seals), 0);
  }
  return fd;
}

std::vector<FdGuard> WithDoorbell(FdGuard memfd, const StreamRing& donor) {
  std::vector<FdGuard> fds;
  fds.push_back(std::move(memfd));
  fds.emplace_back(::dup(donor.PassedFds()[1]));
  return fds;
}

TEST(StreamRingTest, WriterRefusesAnUnsealedShortOrForeignRing) {
  auto donor = StreamRing::Create();
  ASSERT_TRUE(donor.ok());
  const size_t good = kStreamRingHeaderBytes + kStreamRingCapacity;
  constexpr int kSeals = F_SEAL_SHRINK | F_SEAL_GROW;

  // Unsealed: the reader could shrink it under the writer's mapping.
  EXPECT_FALSE(
      StreamRing::Attach(WithDoorbell(FakeRingMemfd(good, 0), **donor)).ok());
  EXPECT_FALSE(
      StreamRing::Attach(WithDoorbell(FakeRingMemfd(good, F_SEAL_GROW),
                                      **donor))
          .ok());
  // Any size but header plus kStreamRingCapacity.
  for (const size_t size : {good - 4096, good + 100, 2 * good,
                            kStreamRingHeaderBytes + 4096}) {
    EXPECT_FALSE(
        StreamRing::Attach(WithDoorbell(FakeRingMemfd(size, kSeals), **donor))
            .ok())
        << size;
  }
  // A doorbell that is not an AF_UNIX stream socket: a pipe (nonblocking
  // only by a flag the peer can clear) or a datagram socket.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  std::vector<FdGuard> piped;
  piped.push_back(FakeRingMemfd(good, kSeals));
  piped.emplace_back(pipe_fds[1]);
  EXPECT_FALSE(StreamRing::Attach(std::move(piped)).ok());
  ::close(pipe_fds[0]);
  int datagrams[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_DGRAM, 0, datagrams), 0);
  std::vector<FdGuard> dgram;
  dgram.push_back(FakeRingMemfd(good, kSeals));
  dgram.emplace_back(datagrams[1]);
  EXPECT_FALSE(StreamRing::Attach(std::move(dgram)).ok());
  ::close(datagrams[0]);
  // The wrong descriptor count.
  std::vector<FdGuard> three = WithDoorbell(FakeRingMemfd(good, kSeals),
                                            **donor);
  three.emplace_back(::dup((*donor)->PassedFds()[1]));
  EXPECT_FALSE(StreamRing::Attach(std::move(three)).ok());
  std::vector<FdGuard> one;
  one.push_back(FakeRingMemfd(good, kSeals));
  EXPECT_FALSE(StreamRing::Attach(std::move(one)).ok());
  // The control: the same shape, sealed, is accepted.
  EXPECT_TRUE(
      StreamRing::Attach(WithDoorbell(FakeRingMemfd(good, kSeals), **donor))
          .ok());
}

/// A third mapping of a ring's header: what a hostile peer writes.
struct HeaderTamper {
  explicit HeaderTamper(const StreamRing& reader) {
    base = ::mmap(nullptr, kStreamRingHeaderBytes, PROT_READ | PROT_WRITE,
                  MAP_SHARED, reader.PassedFds()[0], 0);
    EXPECT_NE(base, MAP_FAILED);
    header = static_cast<StreamRingHeader*>(base);
  }
  ~HeaderTamper() { ::munmap(base, kStreamRingHeaderBytes); }
  void* base;
  StreamRingHeader* header;
};

TEST(StreamRingTest, ReaderRejectsAHostileHead) {
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  HeaderTamper tamper(*pair.reader);
  std::vector<uint8_t> out(64);
  // More than a ring's worth unread: the reader would copy stale bytes
  // (its offsets stay inside the mapping either way).
  tamper.header->head.store(kStreamRingCapacity + 1);
  EXPECT_EQ(pair.reader->ReadSome(out).status().code(),
            StatusCode::kOutOfRange);
  // Behind the reader's own position.
  uint8_t byte = 1;
  tamper.header->head.store(0);
  ASSERT_TRUE(Write(*pair.writer, &byte, 1).ok());  // head 1, then...
  ASSERT_EQ(*pair.reader->ReadSome(out), 1u);       // tail 1
  tamper.header->head.store(0);                     // ...head rolled back
  EXPECT_EQ(pair.reader->ReadSome(out).status().code(),
            StatusCode::kOutOfRange);
}

TEST(StreamRingTest, WriterRejectsAHostileTail) {
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  HeaderTamper tamper(*pair.reader);
  uint8_t bytes[16] = {};
  ASSERT_EQ(*Write(*pair.writer, bytes, sizeof(bytes)), sizeof(bytes));
  tamper.header->tail.store(1000);  // past everything written
  // The writer reads `tail` only when it needs it: a write that starts a
  // new page (the rewind check) or finds its last-seen room short.
  EXPECT_EQ(*Write(*pair.writer, bytes, 1), 1u);
  std::vector<uint8_t> page(kStreamRingHeaderBytes);
  EXPECT_EQ(Write(*pair.writer, page.data(), page.size()).status().code(),
            StatusCode::kOutOfRange);
}

TEST(StreamRingTest, ReaderPublishesTailWhenTheRingEmpties) {
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  HeaderTamper tamper(*pair.reader);
  uint8_t frame[8] = {4, 0, 0, 0, 1, 2, 3, 4};  // a header and its payload
  ASSERT_EQ(*Write(*pair.writer, frame, sizeof(frame)), sizeof(frame));
  uint8_t got[4];
  ASSERT_EQ(*pair.reader->ReadSome(got), 4u);  // the header: more unread
  EXPECT_EQ(tamper.header->tail.load(), 0u);
  ASSERT_EQ(*pair.reader->ReadSome(got), 4u);  // the payload empties it
  EXPECT_EQ(tamper.header->tail.load(), sizeof(frame));

  // A backlog publishes every kStreamRingPublishBytes read.
  auto backlogged = MakePair();
  ASSERT_NE(backlogged.writer, nullptr);
  HeaderTamper backlog_tamper(*backlogged.reader);
  std::vector<uint8_t> backlog(3 * kStreamRingPublishBytes);
  ASSERT_EQ(*Write(*backlogged.writer, backlog.data(), backlog.size()),
            backlog.size());
  std::vector<uint8_t> out(kStreamRingPublishBytes - 1);
  ASSERT_EQ(*backlogged.reader->ReadSome(out), out.size());
  EXPECT_EQ(backlog_tamper.header->tail.load(), 0u);
  ASSERT_EQ(*backlogged.reader->ReadSome(std::span<uint8_t>(out.data(), 1)),
            1u);
  EXPECT_EQ(backlog_tamper.header->tail.load(), kStreamRingPublishBytes);
}

TEST(StreamRingTest, WriterStampsItsRing) {
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  HeaderTamper tamper(*pair.reader);
  uint8_t byte = 0;
  ASSERT_EQ(*pair.reader->ReadSome(std::span<uint8_t>(&byte, 1)), 0u);
  const uint64_t before = MonotonicNanos();
  ASSERT_EQ(*Write(*pair.writer, &byte, 1), 1u);  // rings the sleeper
  const uint64_t stamp = tamper.header->rang_at.load();
  EXPECT_GE(stamp, before);
  EXPECT_LE(stamp, MonotonicNanos());
  ASSERT_EQ(*Write(*pair.writer, &byte, 1), 1u);  // reader awake: no ring
  EXPECT_EQ(tamper.header->rang_at.load(), stamp);
}

/// Fills the send side of a doorbell end until a send would block.
void FillDoorbell(int fd) {
  const uint8_t junk[4096] = {};
  while (::send(fd, junk, sizeof(junk), MSG_DONTWAIT) > 0) {
  }
}

/// Clears O_NONBLOCK on a descriptor, as a peer sharing its open file can.
void MakeBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  ASSERT_GE(flags, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK), 0);
}

TEST(StreamRingTest, DoorbellThePeerTampersWithNeverBlocksTheWriter) {
  // The reader created the doorbell pair, so it shares the writer's end
  // and can make it blocking, fill it, drain it, or close it.  Every
  // writer call on it must still return; a blocked one trips the alarm.
  auto pair = MakePair();
  ASSERT_NE(pair.writer, nullptr);
  HeaderTamper tamper(*pair.reader);
  const int shared_end = pair.reader->PassedFds()[1];
  MakeBlocking(shared_end);
  ::alarm(30);
  FillDoorbell(shared_end);
  uint8_t byte = 1;
  for (int i = 0; i < 3; ++i) {
    tamper.header->reader_sleeping.store(1);  // every write rings
    ASSERT_EQ(*Write(*pair.writer, &byte, 1), 1u);
  }
  // Nothing rung for the writer (or drained by the peer): a clear returns.
  EXPECT_TRUE(pair.writer->ClearDoorbell());
  // The reader's end closed: the writer learns no ring will come, and a
  // ring into the closed pair raises no SIGPIPE.
  pair.reader.reset();
  EXPECT_FALSE(pair.writer->ClearDoorbell());
  tamper.header->reader_sleeping.store(1);
  ASSERT_EQ(*Write(*pair.writer, &byte, 1), 1u);
  ::alarm(0);
}

// ---- Link over the ring ----

class RingLinkTest : public BackendTest {};
RSF_INSTANTIATE_BACKEND_SUITE(RingLinkTest);

std::vector<uint8_t> Bytes(const char* text) {
  const auto* data = reinterpret_cast<const uint8_t*>(text);
  return {data, data + std::strlen(text)};
}

/// A server Link and a client Link over AF_UNIX, each on its own loop.
/// The server grants the client's ring when `grant`.
struct RingLinkPair {
  EventLoop server_loop;
  EventLoop client_loop;
  TcpListener tcp;
  TcpListener local;
  std::shared_ptr<Link> server;
  std::shared_ptr<Link> client;
  std::atomic<int> established{0};
  std::atomic<int> frames{0};
  std::atomic<int> frames_at_close{-1};
  std::atomic<int> client_closed{0};
  std::vector<uint8_t> receive_buf;  // client loop only
  std::mutex mutex;
  std::vector<uint8_t> last_payload;  // guarded by mutex

  RingLinkPair(bool grant, Link::Options server_options) {
    server_loop.Start();
    client_loop.Start();
    auto listener = TcpListener::Listen(0);
    EXPECT_TRUE(listener.ok());
    tcp = *std::move(listener);
    auto local_listener = TcpListener::ListenLocal(tcp.port());
    EXPECT_TRUE(local_listener.ok());
    local = *std::move(local_listener);

    Link::Callbacks client_cb;
    client_cb.make_handshake_request = [](bool ring_offered) {
      return Bytes(ring_offered ? "hello ring" : "hello");
    };
    client_cb.on_handshake_reply = [](const uint8_t* data, uint32_t length,
                                      Link::RingHandshake* ring) {
      ring->granted = std::string(reinterpret_cast<const char*>(data),
                                  length) == "ring";
      return true;
    };
    client_cb.alloc = [this](uint32_t length) {
      receive_buf.resize(length == 0 ? 1 : length);
      return receive_buf.data();
    };
    client_cb.on_frame = [this](uint32_t length) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        last_payload.assign(receive_buf.data(), receive_buf.data() + length);
      }
      frames.fetch_add(1);
    };
    client_cb.on_established = [this](const std::shared_ptr<Link>&) {
      established.fetch_add(1);
    };
    client_cb.on_closed = [this](const std::shared_ptr<Link>&) {
      frames_at_close.store(frames.load());
      client_closed.fetch_add(1);
    };
    Link::Options client_options;
    client_options.local_first = true;
    client = Link::Dial("127.0.0.1", tcp.port(), &client_loop, client_options,
                        std::move(client_cb));

    auto conn = local.Accept();  // an AF_UNIX connect completes at once
    EXPECT_TRUE(conn.ok());
    Link::Callbacks server_cb;
    server_cb.on_handshake_request =
        [grant](const uint8_t* data, uint32_t length,
                std::vector<uint8_t>* reply, Link::RingHandshake* ring) {
          const bool asked = std::string(reinterpret_cast<const char*>(data),
                                         length) == "hello ring";
          ring->granted = grant && asked && ring->offered;
          *reply = Bytes(ring->granted ? "ring" : "plain");
          return true;
        };
    server_cb.on_established = [this](const std::shared_ptr<Link>&) {
      established.fetch_add(1);
    };
    server = Link::Accepted(*std::move(conn), &server_loop, server_options,
                            std::move(server_cb));
    EXPECT_TRUE(WaitFor([&] { return established.load() == 2; }));
  }

  ~RingLinkPair() {
    if (client) client->CloseSync();
    if (server) server->CloseSync();
    client_loop.Stop();
    server_loop.Stop();
  }

  /// Publishes `count` copies of `payload` from this thread.
  void Send(const std::shared_ptr<const uint8_t[]>& payload, uint32_t size,
            int count) {
    for (int i = 0; i < count; ++i) {
      if (server->WriteThrough(OutFrame{payload, size}).queued) {
        server_loop.RunInLoop([link = server] { link->FlushOnLoop(); });
      }
    }
  }
};

std::shared_ptr<const uint8_t[]> Payload(size_t size, uint8_t seed) {
  auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[size]);
  for (size_t i = 0; i < size; ++i) buffer[i] = static_cast<uint8_t>(seed + i);
  return buffer;
}

TEST_P(RingLinkTest, GrantedRingCarriesFramesWithoutSocketSyscalls) {
  RingLinkPair pair(/*grant=*/true, Link::Options{});
  ASSERT_TRUE(pair.server->ring());
  ASSERT_TRUE(pair.client->ring());
  constexpr int kFrames = 200;
  const auto payload = Payload(320, 3);
  const IoSyscallCounters before = GlobalIoCounters();
  for (int i = 0; i < kFrames; ++i) {
    pair.Send(payload, 320, 1);
    ASSERT_TRUE(WaitFor([&] { return pair.frames.load() == i + 1; }));
  }
  const IoSyscallCounters after = GlobalIoCounters();
  EXPECT_EQ(after.sendmsg_calls - before.sendmsg_calls, 0u);
  EXPECT_EQ(after.recv_calls - before.recv_calls, 0u);
  EXPECT_LE(after.doorbell_writes - before.doorbell_writes,
            static_cast<uint64_t>(kFrames));
  {
    std::lock_guard<std::mutex> lock(pair.mutex);
    EXPECT_EQ(pair.last_payload,
              std::vector<uint8_t>(payload.get(), payload.get() + 320));
  }
  // +1: the handshake reply, which left on the socket.
  EXPECT_EQ(pair.server->stats().frames_sent,
            static_cast<uint64_t>(kFrames) + 1);
  EXPECT_EQ(pair.client->stats().frames_received,
            static_cast<uint64_t>(kFrames));
}

TEST_P(RingLinkTest, RefusedRingLeavesTheLinkOnTheSocket) {
  RingLinkPair pair(/*grant=*/false, Link::Options{});
  EXPECT_FALSE(pair.server->ring());
  EXPECT_FALSE(pair.client->ring());
  EXPECT_TRUE(pair.client->local());
  const auto payload = Payload(1000, 9);
  pair.Send(payload, 1000, 5);
  ASSERT_TRUE(WaitFor([&] { return pair.frames.load() == 5; }));
}

TEST_P(RingLinkTest, FramesWrittenBeforeShutdownArriveBeforeEof) {
  // The client's loop is held while the server fills the ring and closes,
  // so the doorbell and the socket's EOF are both pending when it wakes:
  // every frame is delivered before the link acts on the EOF.
  RingLinkPair pair(/*grant=*/true, Link::Options{});
  ASSERT_TRUE(pair.client->ring());
  constexpr int kFrames = 100;
  const auto payload = Payload(1024, 5);
  std::mutex hold;
  std::unique_lock<std::mutex> held(hold);
  std::atomic<bool> holding{false};
  pair.client_loop.Post([&] {
    holding.store(true);
    std::lock_guard<std::mutex> wait(hold);
  });
  ASSERT_TRUE(WaitFor([&] { return holding.load(); }));
  pair.Send(payload, 1024, kFrames);
  ASSERT_TRUE(WaitFor([&] {
    return pair.server->stats().frames_sent ==
           static_cast<uint64_t>(kFrames) + 1;
  }));
  pair.server->CloseSync();
  held.unlock();
  ASSERT_TRUE(WaitFor([&] { return pair.client_closed.load() == 1; }));
  EXPECT_EQ(pair.frames_at_close.load(), kFrames);
}

TEST_P(RingLinkTest, FullRingKeepsDropOldestAndTheWriteDeadline) {
  // A reader that never wakes: the ring fills, the writer queue evicts its
  // oldest frames, the deadline closes the link, and every frame lands in
  // exactly one bucket.
  Link::Options options;
  options.max_pending_frames = 8;
  options.write_timeout_nanos = 200'000'000;
  RingLinkPair pair(/*grant=*/true, options);
  ASSERT_TRUE(pair.server->ring());
  std::mutex hold;
  std::unique_lock<std::mutex> held(hold);
  std::atomic<bool> holding{false};
  pair.client_loop.Post([&] {
    holding.store(true);
    std::lock_guard<std::mutex> wait(hold);
  });
  ASSERT_TRUE(WaitFor([&] { return holding.load(); }));
  constexpr int kFrames = 40;
  const auto payload = Payload(64 * 1024, 1);  // 16 fill the ring
  pair.Send(payload, 64 * 1024, kFrames);
  ASSERT_TRUE(WaitFor(
      [&] { return pair.server->state() == Link::State::kClosed; }));
  held.unlock();
  const Link::Stats stats = pair.server->stats();
  EXPECT_EQ(stats.frames_enqueued, static_cast<uint64_t>(kFrames) + 1);
  EXPECT_GT(stats.frames_evicted, 0u);
  EXPECT_GT(stats.frames_stranded, 0u);
  EXPECT_EQ(stats.frames_enqueued,
            stats.frames_sent + stats.frames_evicted + stats.frames_stranded);
}

/// A raw subscriber that offered a ring over AF_UNIX, and the publisher
/// Link that accepted it on a loop and granted the ring.
struct RawRingLink {
  TcpConnection subscriber;
  std::unique_ptr<StreamRing> ring;  // the subscriber's mapping
  std::shared_ptr<Link> publisher;   // null when set-up failed
};

RawRingLink ConnectRawSubscriber(uint16_t port, TcpListener& local,
                                 EventLoop* loop, Link::Options options) {
  RawRingLink raw;
  auto subscriber = TcpConnection::ConnectLocal(port);
  auto ring = StreamRing::Create();
  EXPECT_TRUE(subscriber.ok() && ring.ok());
  if (!subscriber.ok() || !ring.ok()) return raw;
  raw.subscriber = *std::move(subscriber);
  raw.ring = *std::move(ring);
  std::vector<uint8_t> request(4);
  const std::vector<uint8_t> body = Bytes("hello ring");
  const uint32_t length = static_cast<uint32_t>(body.size());
  std::memcpy(request.data(), &length, sizeof(length));
  request.insert(request.end(), body.begin(), body.end());
  const iovec iov{request.data(), request.size()};
  const auto passed = raw.ring->PassedFds();
  auto sent = raw.subscriber.WriteSome(std::span<const iovec>(&iov, 1),
                                       std::span<const int>(passed));
  EXPECT_TRUE(sent.ok() && *sent == request.size());
  auto conn = local.Accept();
  EXPECT_TRUE(conn.ok());
  if (!conn.ok()) return raw;
  auto established = std::make_shared<std::atomic<bool>>(false);
  Link::Callbacks callbacks;
  callbacks.on_handshake_request = [](const uint8_t*, uint32_t,
                                      std::vector<uint8_t>* reply,
                                      Link::RingHandshake* ring_handshake) {
    ring_handshake->granted = ring_handshake->offered;
    *reply = Bytes("ring");
    return true;
  };
  callbacks.on_established = [established](const std::shared_ptr<Link>&) {
    established->store(true);
  };
  raw.publisher =
      Link::Accepted(*std::move(conn), loop, options, std::move(callbacks));
  EXPECT_TRUE(WaitFor([&] { return established->load(); }));
  return raw;
}

TEST_P(RingLinkTest, HostileSubscriberCannotBlockThePublisher) {
  // A raw subscriber offers a ring, keeps its copy of the writer's end of
  // the doorbell, makes it blocking, fills it and flags sleep: every
  // publish rings into a full socket.  Then it rings the publisher and
  // drains the ring itself.  Producers and the publisher's loop return
  // throughout; a blocked call trips the alarm.
  EventLoop loop;
  loop.Start();
  auto tcp = TcpListener::Listen(0);
  ASSERT_TRUE(tcp.ok());
  auto local = TcpListener::ListenLocal(tcp->port());
  ASSERT_TRUE(local.ok());
  Link::Options options;
  options.write_timeout_nanos = 10'000'000'000ull;
  RawRingLink raw = ConnectRawSubscriber(tcp->port(), *local, &loop, options);
  const std::shared_ptr<Link> publisher = raw.publisher;
  ASSERT_NE(publisher, nullptr);
  ASSERT_TRUE(publisher->ring());
  auto& ring = raw.ring;

  HeaderTamper tamper(*ring);
  const int shared_end = ring->PassedFds()[1];
  MakeBlocking(shared_end);
  ::alarm(60);
  FillDoorbell(shared_end);
  const auto payload = Payload(320, 4);
  for (int i = 0; i < 20; ++i) {
    tamper.header->reader_sleeping.store(1);
    if (publisher->WriteThrough(OutFrame{payload, 320}).queued) {
      loop.RunInLoop([publisher] { publisher->FlushOnLoop(); });
    }
    loop.RunSync([] {});
  }
  EXPECT_EQ(publisher->stats().frames_sent, 21u);  // + the handshake reply
  // Ring the publisher, and race its loop to the byte.
  for (int i = 0; i < 100; ++i) {
    const uint8_t byte = 1;
    ASSERT_EQ(::send(ring->wait_fd(), &byte, 1, MSG_DONTWAIT), 1);
    uint8_t stolen;
    (void)::recv(shared_end, &stolen, 1, MSG_DONTWAIT);
    loop.RunSync([] {});
  }
  EXPECT_TRUE(publisher->established());
  ::alarm(0);
  publisher->CloseSync();
  loop.Stop();
}

/// Waits like WaitFor (5 s), but at a 20 µs grain: for loops of single
/// frames.
template <typename Predicate>
bool WaitBriefly(Predicate predicate) {
  const uint64_t deadline = MonotonicNanos() + 5'000'000'000ull;
  while (MonotonicNanos() < deadline) {
    if (predicate()) return true;
    SleepForNanos(20'000);
  }
  return predicate();
}

/// The header of the one stream ring mapped in this process, found in
/// /proc/self/maps (a pair's two mappings alias one memfd).
StreamRingHeader* MappedRingHeader() {
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    if (line.find("memfd:rsf.ring") == std::string::npos) continue;
    return reinterpret_cast<StreamRingHeader*>(
        static_cast<uintptr_t>(std::stoull(line, nullptr, 16)));
  }
  return nullptr;
}

TEST_P(RingLinkTest, IsolatedFramesNeedNoDoorbellReadEach) {
  // Each frame finds the reader asleep, so each rings its doorbell, and
  // the reader's loop wakes on the ring's edge.  The reader drains the
  // doorbell only every kDoorbellDrainPeriod wakes.  Without those drains
  // the 279th unread ring would not fit in the doorbell, and its frame
  // would never be delivered.
  RingLinkPair pair(/*grant=*/true, Link::Options{});
  ASSERT_TRUE(pair.client->ring());
  constexpr uint64_t kRings = 1000;
  const auto payload = Payload(320, 7);
  const IoSyscallCounters before = GlobalIoCounters();
  int sent = 0;
  // A reader woken within its poll window polls instead of sleeping, so
  // not quite every frame rings: send until kRings have.
  while (GlobalIoCounters().doorbell_writes - before.doorbell_writes < kRings &&
         sent < 5 * static_cast<int>(kRings)) {
    pair.Send(payload, 320, 1);
    ++sent;
    ASSERT_TRUE(WaitBriefly([&] { return pair.frames.load() == sent; }))
        << "frame " << sent << " was not delivered";
    SleepForNanos(2 * kStreamRingPollNanos);  // the reader goes to sleep
  }
  const IoSyscallCounters after = GlobalIoCounters();
  const uint64_t rings = after.doorbell_writes - before.doorbell_writes;
  const uint64_t drains = after.doorbell_reads - before.doorbell_reads;
  const double syscalls_per_delivery =
      static_cast<double>(after.TotalSyscalls() - before.TotalSyscalls()) /
      sent;
  RSF_INFO("%d frames, %llu rings, %llu drains, %.3f syscalls per delivery",
           sent, static_cast<unsigned long long>(rings),
           static_cast<unsigned long long>(drains), syscalls_per_delivery);
  EXPECT_GE(rings, kRings);
  EXPECT_LE(drains, rings / kDoorbellDrainPeriod + 2);
  // A ring, an epoll_wait, and a share of a drain.
  EXPECT_LE(syscalls_per_delivery, 2.1);
  EXPECT_EQ(after.sendmsg_calls - before.sendmsg_calls, 0u);
  EXPECT_EQ(after.recv_calls - before.recv_calls, 0u);
  EXPECT_EQ(pair.client->stats().frames_received,
            static_cast<uint64_t>(sent));
}

TEST_P(RingLinkTest, RingsWhilePausedAreDeliveredOnResume) {
  // A paused ring reader parks its doorbell.  Frames that ring it meanwhile
  // (the sleep flag forced, as a reader asleep at every frame would have
  // it) are all read after ResumeReading, and the doorbell still wakes
  // the reader for isolated frames afterwards.
  RingLinkPair pair(/*grant=*/true, Link::Options{});
  ASSERT_TRUE(pair.client->ring());
  pair.client_loop.RunSync([&] { pair.client->PauseReading(); });
  StreamRingHeader* header = MappedRingHeader();
  ASSERT_NE(header, nullptr);
  constexpr int kPaused = 100;
  const auto payload = Payload(320, 8);
  const uint64_t rings_before = GlobalIoCounters().doorbell_writes;
  for (int i = 0; i < kPaused; ++i) {
    header->reader_sleeping.store(1);
    pair.Send(payload, 320, 1);
  }
  EXPECT_EQ(GlobalIoCounters().doorbell_writes - rings_before,
            static_cast<uint64_t>(kPaused));
  SleepForNanos(20'000'000);
  EXPECT_EQ(pair.frames.load(), 0);
  pair.client_loop.RunSync([&] { pair.client->ResumeReading(); });
  ASSERT_TRUE(WaitFor([&] { return pair.frames.load() == kPaused; }));
  for (int i = 1; i <= 50; ++i) {
    SleepForNanos(2 * kStreamRingPollNanos);
    pair.Send(payload, 320, 1);
    ASSERT_TRUE(WaitFor([&] { return pair.frames.load() == kPaused + i; }));
  }
}

TEST_P(RingLinkTest, FloodedDoorbellStallsOnlyItsOwnLink) {
  // Two publisher links on one loop.  Link A's raw subscriber fills A's
  // doorbell end with junk and lets A fill the ring; when it then frees
  // the ring, its ring for room finds the end full and is lost.  A stalls
  // until its write deadline closes it, while link B, on the same
  // publisher loop, keeps delivering.
  RingLinkPair pair(/*grant=*/true, Link::Options{});  // link B
  ASSERT_TRUE(pair.server->ring());
  EventLoop& loop = pair.server_loop;

  Link::Options options;
  options.write_timeout_nanos = 300'000'000;
  RawRingLink raw =
      ConnectRawSubscriber(pair.tcp.port(), pair.local, &loop, options);
  const std::shared_ptr<Link> flooded = raw.publisher;
  ASSERT_NE(flooded, nullptr);
  ASSERT_TRUE(flooded->ring());
  auto& ring = raw.ring;

  // The subscriber's end sends to the publisher's: fill it (twice, as
  // the publisher's loop may drain a few bytes on its wakes).
  FillDoorbell(ring->wait_fd());
  loop.RunSync([] {});
  FillDoorbell(ring->wait_fd());
  // 20 frames of 64 KiB: about 16 fill the ring, the rest wait in A's
  // queue.
  const auto big = Payload(64 * 1024, 6);
  for (int i = 0; i < 20; ++i) {
    if (flooded->WriteThrough(OutFrame{big, 64 * 1024}).queued) {
      loop.RunInLoop([flooded] { flooded->FlushOnLoop(); });
    }
  }
  loop.RunSync([] {});
  const uint64_t sent_when_full = flooded->stats().frames_sent;
  // Free the ring: the ring for room cannot enter the full doorbell.
  std::vector<uint8_t> sink(64 * 1024);
  uint64_t freed = 0;
  for (;;) {
    auto n = ring->ReadSome(sink);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    freed += *n;
  }
  EXPECT_EQ(freed, kStreamRingCapacity);

  // Link B keeps delivering isolated frames on the same publisher loop.
  const auto small = Payload(320, 9);
  int delivered = 0;
  while (flooded->state() != Link::State::kClosed && delivered < 10'000) {
    pair.Send(small, 320, 1);
    ++delivered;
    ASSERT_TRUE(WaitFor([&] { return pair.frames.load() == delivered; }));
  }
  EXPECT_EQ(flooded->state(), Link::State::kClosed);
  EXPECT_EQ(flooded->stats().frames_sent, sent_when_full);
  EXPECT_GT(flooded->stats().frames_stranded, 0u);
  EXPECT_GT(delivered, 1);
  EXPECT_TRUE(pair.server->established());
  flooded->CloseSync();
}

size_t OpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

size_t RingMappings() {
  std::ifstream maps("/proc/self/maps");
  size_t count = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.find("memfd:rsf.ring") != std::string::npos) ++count;
  }
  return count;
}

TEST_P(RingLinkTest, CyclingRingLinksLeaksNoDescriptorsOrMappings) {
  // Warm-up cycle: lazily created process state (loggers, the backend
  // probe) is not a leak.
  { RingLinkPair warm(true, Link::Options{}); }
  const size_t fds = OpenFds();
  const size_t mappings = RingMappings();
  ASSERT_GT(fds, 0u);
  const auto payload = Payload(64, 2);
  for (int i = 0; i < 100; ++i) {
    RingLinkPair pair(/*grant=*/true, Link::Options{});
    ASSERT_TRUE(pair.client->ring());
    pair.Send(payload, 64, 1);
    ASSERT_TRUE(WaitFor([&] { return pair.frames.load() == 1; }));
  }
  EXPECT_EQ(OpenFds(), fds);
  EXPECT_EQ(RingMappings(), mappings);
}

}  // namespace
}  // namespace rsf::net
