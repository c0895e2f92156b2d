#include "net/link.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace rsf::net {
namespace {

/// The client's request writes on a ring-offering link: the ring's
/// descriptors ride the first bytes that leave.
class FdPassingStream final : public ByteStream {
 public:
  FdPassingStream(TcpConnection& conn, std::span<const int> fds, bool* sent)
      : conn_(conn), fds_(fds), sent_(sent) {}
  Result<size_t> ReadSome(std::span<uint8_t> data) override {
    return conn_.ReadSome(data);
  }
  Result<size_t> WriteSome(std::span<const iovec> iov) override {
    if (*sent_) return conn_.WriteSome(iov);
    auto n = conn_.WriteSome(iov, fds_);
    if (n.ok() && *n > 0) *sent_ = true;
    return n;
  }

 private:
  TcpConnection& conn_;
  std::span<const int> fds_;
  bool* sent_;
};

/// The server's handshake reads on an AF_UNIX link: keeps the descriptors
/// a ring-offering client attached to its request.
class FdCollectingStream final : public ByteStream {
 public:
  FdCollectingStream(TcpConnection& conn, std::vector<FdGuard>* fds)
      : conn_(conn), fds_(fds) {}
  Result<size_t> ReadSome(std::span<uint8_t> data) override {
    auto n = conn_.ReadSome(data, fds_);
    // More than a ring's worth can only fail to attach; don't hoard them.
    if (fds_->size() > kMaxPassedFds) fds_->resize(kMaxPassedFds + 1);
    return n;
  }
  Result<size_t> WriteSome(std::span<const iovec> iov) override {
    return conn_.WriteSome(iov);
  }

 private:
  TcpConnection& conn_;
  std::vector<FdGuard>* fds_;
};

}  // namespace

uint64_t WriteTimeoutNanos() noexcept {
  uint64_t millis = 30'000;
  if (const char* env = std::getenv("RSF_WRITE_TIMEOUT_MS")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env) millis = parsed;
  }
  return millis * 1'000'000ull;
}

Link::Link(EventLoop* loop, Options options, Callbacks callbacks)
    : loop_(loop),
      options_(options),
      callbacks_(std::move(callbacks)) {
  // Counted at construction, not registration, so a dial burst spreads
  // across the pool before any of the links finish binding.
  loop_->NoteLinkBound();
  loop_slot_held_.store(true, std::memory_order_release);
}

Link::~Link() { ReleaseLoopSlot(); }

void Link::ReleaseLoopSlot() noexcept {
  if (loop_slot_held_.exchange(false, std::memory_order_acq_rel)) {
    loop_->NoteLinkClosed();
  }
}

std::shared_ptr<Link> Link::Accepted(TcpConnection conn, EventLoop* loop,
                                     Options options, Callbacks callbacks) {
  auto link = std::make_shared<Link>(loop, options, std::move(callbacks));
  link->role_ = Role::kServer;
  link->conn_ = std::move(conn);
  link->state_.store(State::kHandshaking, std::memory_order_release);
  loop->RunInLoop([link] { link->StartServerOnLoop(); });
  return link;
}

std::shared_ptr<Link> Link::Dial(const std::string& host, uint16_t port,
                                 EventLoop* loop, Options options,
                                 Callbacks callbacks) {
  auto link = std::make_shared<Link>(loop, options, std::move(callbacks));
  link->role_ = Role::kClient;
  bool in_progress = false;
  auto conn = options.local_first
                  ? TcpConnection::ConnectLocal(port, options.local_owner)
                  : TcpConnection::ConnectStart(host, port, &in_progress);
  if (!conn.ok() && options.local_first) {
    RSF_DEBUG("link: local dial for port %u failed (%s); using TCP", port,
              conn.status().message().c_str());
    conn = TcpConnection::ConnectStart(host, port, &in_progress);
  }
  if (conn.ok()) {
    link->conn_ = std::move(*conn);
    link->state_.store(in_progress ? State::kConnecting : State::kHandshaking,
                       std::memory_order_release);
  } else {
    RSF_WARN("link: dial %s:%u failed: %s", host.c_str(), port,
             conn.status().message().c_str());
    // Not kClosed (CloseOnLoop would no-op): StartClientOnLoop sees the
    // invalid conn and surfaces the failure through on_closed like every
    // other error.
    link->state_.store(State::kConnecting, std::memory_order_release);
  }
  loop->RunInLoop([link, in_progress] { link->StartClientOnLoop(in_progress); });
  return link;
}

void Link::StartServerOnLoop() {
  if (state() == State::kClosed) return;
  if (auto s = conn_.SetNonBlocking(true); !s.ok()) {
    RSF_WARN("link: set nonblocking failed: %s", s.message().c_str());
    CloseOnLoop(true);
    return;
  }
  if (auto s = ApplyTransportSocketOptions(conn_); !s.ok()) {
    RSF_WARN("link: socket options failed: %s", s.message().c_str());
  }
  Register();
}

void Link::StartClientOnLoop(bool in_progress) {
  if (!conn_.valid()) {
    // The dial failed synchronously (bad address, fd exhaustion).
    CloseOnLoop(true);
    return;
  }
  if (auto s = ApplyTransportSocketOptions(conn_); !s.ok()) {
    RSF_WARN("link: socket options failed: %s", s.message().c_str());
  }
  if (in_progress) {
    Register();
    // No cancellation handle needed: the timer holds a weak_ptr and a
    // firing after the link left kConnecting is a no-op.
    std::weak_ptr<Link> weak = shared_from_this();
    loop_->RunAfter(options_.connect_timeout_nanos, [weak] {
      auto link = weak.lock();
      if (link && link->state() == State::kConnecting) {
        RSF_WARN("link: connect timed out (fd %d)", link->fd());
        link->CloseOnLoop(true);
      }
    });
    return;
  }
  // Loopback connects often complete synchronously — go straight to the
  // handshake.
  EnterClientHandshake();
  if (state() != State::kClosed) Register();
}

void Link::MaybeArmWriteDeadline() {
  if (options_.write_timeout_nanos == 0 || write_deadline_armed_) return;
  const State s = state();
  if (s == State::kClosed || s == State::kConnecting) return;
  uint64_t snapshot;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!writer_.HasPending()) return;
    snapshot = writer_.BytesWritten();
  }
  write_deadline_armed_ = true;
  std::weak_ptr<Link> weak = shared_from_this();
  loop_->RunAfter(options_.write_timeout_nanos, [weak, snapshot] {
    if (auto link = weak.lock()) link->OnWriteDeadline(snapshot);
  });
}

void Link::OnWriteDeadline(uint64_t bytes_snapshot) {
  write_deadline_armed_ = false;
  if (state() == State::kClosed) return;
  bool pending;
  uint64_t written;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    pending = writer_.HasPending();
    written = writer_.BytesWritten();
  }
  if (!pending) return;  // queue drained since arming — all good
  if (written == bytes_snapshot) {
    // The peer accepted nothing for a full period: it stopped reading.
    // Close so queued frames stop accruing; the owner counts the stranded
    // frames as drops.
    RSF_WARN("link: no write progress in %llu ms with frames queued; "
             "closing (fd %d)",
             static_cast<unsigned long long>(options_.write_timeout_nanos /
                                             1'000'000ull),
             conn_.fd());
    CloseOnLoop(true);
    return;
  }
  MaybeArmWriteDeadline();  // slow but moving: re-arm on a fresh snapshot
}

void Link::Register() {
  loop_->Add(conn_.fd(), CurrentInterest(),
             [self = shared_from_this()](uint32_t events) {
               self->OnEvent(events);
             });
  registered_ = true;
}

uint32_t Link::CurrentInterest() {
  bool write_pending;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    write_pending = writer_.HasPending();
  }
  switch (state()) {
    case State::kConnecting:
      return kEventWritable;
    case State::kHandshaking:
      return kEventReadable | (write_pending ? kEventWritable : 0u);
    case State::kEstablished:
      // A ring writer waits for room on its doorbell, not here.
      return (paused_ ? 0u : kEventReadable) |
             (write_pending && !RingWriter() ? kEventWritable : 0u);
    case State::kDraining:
      return write_pending ? kEventWritable : 0u;
    case State::kClosed:
      return 0;
  }
  return 0;
}

void Link::UpdateInterest() {
  if (registered_ && state() != State::kClosed) {
    loop_->SetInterest(conn_.fd(), CurrentInterest());
  }
}

void Link::OnEvent(uint32_t events) {
  if (state() == State::kClosed) return;
  if (events & kEventWritable) {
    if (state() == State::kConnecting) {
      ResolveConnect();
    } else {
      FlushWriter();
    }
  }
  if (state() == State::kClosed) return;
  if (events & kEventReadable) {
    if (state() == State::kEstablished && paused_) {
      // Read interest is off, so this is an EPOLLERR/HUP fold-in: peek for
      // EOF without consuming frame bytes the resume will want.
      PeekForEof();
    } else {
      if (state() == State::kHandshaking) HandshakeReadable();
      // Fall through: bytes buffered behind the handshake reply (a fast
      // publisher) drain in the same event.
      if (state() == State::kEstablished && !paused_) ReadEstablished();
    }
  }
  if (state() != State::kClosed) UpdateInterest();
}

void Link::ResolveConnect() {
  const int error = conn_.TakeConnectError();
  if (error != 0) {
    RSF_DEBUG("link: connect failed: %s", std::strerror(error));
    CloseOnLoop(true);
    return;
  }
  state_.store(State::kHandshaking, std::memory_order_release);
  EnterClientHandshake();
}

void Link::EnterClientHandshake() {
  state_.store(State::kHandshaking, std::memory_order_release);
  if (conn_.local()) {
    auto ring = StreamRing::Create();
    if (ring.ok()) {
      ring_offer_ = *std::move(ring);
    } else {
      RSF_INFO("link: no stream ring to offer (%s); staying on the socket",
               ring.status().message().c_str());
    }
  }
  if (callbacks_.make_handshake_request) {
    EnqueueHandshake(
        callbacks_.make_handshake_request(ring_offer_ != nullptr));
  }
  FlushWriter();
}

void Link::HandshakeReadable() {
  // One frame each way: a request (server role) or a reply (client role).
  const FrameAllocator alloc = [this](uint32_t length) -> uint8_t* {
    if (length > kMaxHandshakeFrame) return nullptr;
    handshake_buf_.resize(length);
    return handshake_buf_.data();
  };
  uint32_t length = 0;
  Result<FrameReader::Step> step = FrameReader::Step::kNeedMore;
  if (role_ == Role::kServer && conn_.local()) {
    FdCollectingStream in(conn_, &passed_fds_);
    step = reader_.Poll(in, alloc, &length);
  } else {
    step = reader_.Poll(conn_, alloc, &length);
  }
  if (!step.ok()) {
    CloseOnLoop(true);
    return;
  }
  if (*step == FrameReader::Step::kNeedMore) return;

  if (role_ == Role::kServer) {
    RingHandshake ring;
    if (!passed_fds_.empty()) {
      auto mapped = StreamRing::Attach(std::move(passed_fds_));
      passed_fds_.clear();
      if (mapped.ok()) {
        ring_offer_ = *std::move(mapped);
        ring.offered = true;
      } else {
        RSF_INFO("link: peer's stream ring refused (%s); staying on the "
                 "socket",
                 mapped.status().message().c_str());
      }
    }
    std::vector<uint8_t> reply;
    bool accepted = callbacks_.on_handshake_request &&
                    callbacks_.on_handshake_request(handshake_buf_.data(),
                                                    length, &reply, &ring);
    if (!reply.empty()) EnqueueHandshake(reply);
    if (accepted && ring.granted && !AdoptRingAsWriter()) {
      CloseOnLoop(true);
      return;
    }
    ring_offer_.reset();
    if (accepted) {
      EnterEstablished();
    } else {
      // Flush the error reply to the peer, then close (kDraining).
      state_.store(State::kDraining, std::memory_order_release);
      FlushWriter();
    }
  } else {
    RingHandshake ring{ring_offer_ != nullptr, false};
    bool accepted = callbacks_.on_handshake_reply &&
                    callbacks_.on_handshake_reply(handshake_buf_.data(),
                                                  length, &ring);
    if (accepted && ring.granted) {
      if (ring_offer_ == nullptr) {
        RSF_WARN("link: server granted a stream ring that was never "
                 "offered; closing");
        accepted = false;
      } else {
        std::lock_guard<std::mutex> lock(write_mutex_);
        ring_ = std::move(ring_offer_);
        ring_granted_.store(true, std::memory_order_release);
        // Frames come from the ring now; socket bytes past the reply
        // (there should be none) are not the start of one.
        reader_.Reset();
      }
    }
    ring_offer_.reset();
    if (accepted) {
      EnterEstablished();
    } else {
      CloseOnLoop(true);
    }
  }
  handshake_buf_.clear();
  handshake_buf_.shrink_to_fit();
}

void Link::EnterEstablished() {
  state_.store(State::kEstablished, std::memory_order_release);
  if (ring_ != nullptr) RegisterDoorbell();
  if (callbacks_.on_established) callbacks_.on_established(shared_from_this());
  if (state() == State::kClosed) return;  // on_established may close
  FlushWriter();
  // The server may have filled the ring before its reply was read here.
  if (RingReader() && state() == State::kEstablished && !paused_) {
    ReadFrames(*ring_);
  }
}

bool Link::AdoptRingAsWriter() {
  if (ring_offer_ == nullptr) {
    RSF_WARN("link: owner granted a stream ring that was never offered");
    return false;
  }
  std::lock_guard<std::mutex> lock(write_mutex_);
  // The reply leaves on the socket whole before any frame enters the
  // ring: the client reads the ring only once it has read the reply.  A
  // fresh socket takes a sub-KiB reply in one sendmsg.
  const Status status = writer_.Flush(conn_);
  sent_.store(writer_.FramesWritten(), std::memory_order_relaxed);
  if (!status.ok() || writer_.HasPending()) return false;
  ring_ = std::move(ring_offer_);
  ring_granted_.store(true, std::memory_order_release);
  return true;
}

void Link::RegisterDoorbell() {
  loop_->Add(ring_->wait_fd(), kEventReadable | kEventEdge,
             [self = shared_from_this()](uint32_t) { self->OnDoorbell(); });
  doorbell_registered_ = true;
}

void Link::OnDoorbell() {
  if (state() != State::kEstablished || ring_ == nullptr) return;
  // Edge-triggered: every ring raises its own wake-up, read or not, so the
  // rings are drained only often enough that they never fill the doorbell
  // (kDoorbellDrainPeriod, net/stream_ring.h).
  if (++doorbell_wakes_ % kDoorbellDrainPeriod == 0 &&
      !ring_->ClearDoorbell()) {
    // The peer closed its end of the doorbell (it is exiting, or
    // misbehaving): no ring comes again.  The socket's EOF, or the write
    // deadline of a writer left waiting for room, closes the link.
    loop_->Remove(ring_->wait_fd());
    doorbell_registered_ = false;
  }
  if (RingWriter()) {
    FlushWriter();  // the reader made room: the queue moves on
  } else if (!paused_) {
    ReadFrames(*ring_);
  }
}

void Link::ReadNextTurn() {
  loop_->Post([self = shared_from_this()] {
    if (self->state() == State::kEstablished && !self->paused_) {
      self->ReadFrames(self->RingReader()
                           ? static_cast<ByteStream&>(*self->ring_)
                           : self->conn_);
    }
  });
}

void Link::ReadEstablished() {
  if (RingReader()) {
    // The socket carries nothing after the handshake but EOF: deliver
    // what the ring holds before acting on it.
    ReadFrames(*ring_);
    if (state() == State::kEstablished && !paused_) DrainDiscard();
    return;
  }
  if (!callbacks_.on_frame) {
    DrainDiscard();
    return;
  }
  ReadFrames(conn_);
}

void Link::ReadFrames(ByteStream& in) {
  const bool ring = RingReader();
  // A ring reader polls before it sleeps only while it is its loop's one
  // link: on a shared loop the poll would hold up the other links' events.
  if (ring) ring_->AllowPolling(loop_->LiveLinks() == 1);
  size_t frames = 0;
  // `in` may be the ring, which a close inside on_frame destroys: the
  // state check comes before every touch of it.
  while (state() == State::kEstablished && !paused_) {
    if (ring && frames == kRingFramesPerTurn) {
      // A writer that keeps refilling the ring would hold the loop here
      // for as long as it streams: let the loop's other handlers run, and
      // come back on the next turn.
      ReadNextTurn();
      return;
    }
    ++frames;
    uint32_t length = 0;
    auto step = reader_.Poll(in, callbacks_.alloc, &length);
    if (!step.ok()) {
      CloseOnLoop(true);
      return;
    }
    if (*step == FrameReader::Step::kNeedMore) return;
    received_.fetch_add(1, std::memory_order_relaxed);
    callbacks_.on_frame(length);  // may pause or close the link
    // A short socket read drained the socket: epoll reports what comes
    // next, so no probe read for EAGAIN.
    if (reader_.Drained()) return;
  }
}

void Link::DrainDiscard() {
  // Publisher side of a link: the peer sends nothing after the handshake,
  // so any readability is either EOF or junk to discard.
  uint8_t scratch[4096];
  for (;;) {
    auto n = conn_.ReadSome(scratch);
    if (!n.ok()) {
      CloseOnLoop(true);
      return;
    }
    if (*n < sizeof(scratch)) return;  // drained (a short read)
  }
}

void Link::PeekForEof() {
  // Frames before the EOF: in the ring, or read ahead from the socket.
  if (RingReader() ? ring_->HasUnread() : reader_.FrameBuffered()) return;
  uint8_t byte;
  const ssize_t n = ::recv(conn_.fd(), &byte, 1, MSG_PEEK);
  if (n > 0) return;  // data waiting for the resume — not an error
  if (n < 0 &&
      (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  CloseOnLoop(true);
}

void Link::EnqueueHandshake(const std::vector<uint8_t>& frame) {
  auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[frame.size()]);
  std::memcpy(payload.get(), frame.data(), frame.size());
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(write_mutex_);
  writer_.Enqueue(std::move(payload), static_cast<uint32_t>(frame.size()));
}

bool Link::EnqueueFrame(std::shared_ptr<const uint8_t[]> payload,
                        uint32_t size) {
  return Enqueue(std::move(payload), size, /*write_through=*/false).dropped;
}

Link::WriteResult Link::WriteThrough(const OutFrame& frame) {
  return Enqueue(frame.payload, frame.raw, /*write_through=*/true);
}

Link::WriteResult Link::Enqueue(std::shared_ptr<const uint8_t[]> payload,
                                uint32_t size, bool write_through) {
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  WriteResult result;
  {
    // The state is read under the lock CloseOnLoop flips it under: a frame
    // either lands before the close (and is counted sent or stranded) or
    // sees kClosed (and is counted evicted) — and a write-through never
    // reaches a closed fd.
    std::lock_guard<std::mutex> lock(write_mutex_);
    const State s = state();
    if (s == State::kClosed) {
      result.dropped = true;
    } else {
      const bool send = write_through && s == State::kEstablished &&
                        !writer_.HasPending();
      result.dropped =
          writer_.Enqueue(std::move(payload), size, options_.max_pending_frames);
      result.queued = true;
      if (send) {
        // A failed send leaves the frame queued; the loop's flush hits
        // the same error and closes the link.
        (void)writer_.Flush(OutStream());
        sent_.store(writer_.FramesWritten(), std::memory_order_relaxed);
        result.queued = writer_.HasPending();
      }
    }
  }
  if (result.dropped) evicted_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void Link::FlushOnLoop() {
  if (state() == State::kClosed) return;
  if (state() == State::kConnecting) return;  // nothing to flush yet
  FlushWriter();
  if (state() != State::kClosed) UpdateInterest();
}

void Link::FlushWriter() {
  // A client's ring offer goes with the request's first bytes or not at
  // all.  Unsent, the offer lapses and the server, finding no
  // descriptors, keeps the link on the socket.
  const bool pass_fds = ring_offer_ != nullptr && !ring_fds_sent_;
  Status status;
  bool pending;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (pass_fds) {
      const auto fds = ring_offer_->PassedFds();
      FdPassingStream out(conn_, fds, &ring_fds_sent_);
      status = writer_.Flush(out);
    } else {
      status = writer_.Flush(OutStream());
    }
    pending = writer_.HasPending();
    sent_.store(writer_.FramesWritten(), std::memory_order_relaxed);
  }
  if (pass_fds && !ring_fds_sent_) ring_offer_.reset();
  if (!status.ok()) {
    CloseOnLoop(true);
    return;
  }
  if (state() == State::kDraining && !pending) {
    CloseOnLoop(true);
    return;
  }
  if (pending) MaybeArmWriteDeadline();
}

void Link::PauseReading() {
  if (state() != State::kEstablished || paused_) return;
  paused_ = true;
  if (RingReader()) loop_->SetInterest(ring_->wait_fd(), kEventEdge);
  UpdateInterest();
}

void Link::ResumeReading() {
  if (state() != State::kEstablished || !paused_) return;
  paused_ = false;
  if (RingReader()) {
    loop_->SetInterest(ring_->wait_fd(), kEventReadable | kEventEdge);
  }
  // Frames that arrived in the ring while paused raised no doorbell event
  // (the reader was awake, or its bell parked), and an empty frame whose
  // header the reader read ahead from the socket raises no readiness:
  // read them on the next loop turn.  Bytes still in the socket's buffer
  // need nothing: level-triggered epoll re-reports them.
  if (RingReader() || reader_.FrameBuffered()) ReadNextTurn();
  UpdateInterest();
}

void Link::CloseNow() { CloseOnLoop(false); }

void Link::CloseSync() {
  auto self = shared_from_this();
  loop_->RunSync([self] { self->CloseOnLoop(false); });
}

void Link::CloseOnLoop(bool notify) {
  if (state() == State::kClosed) return;
  // Remove BEFORE close: a closed fd number may be reused at once.
  if (registered_) {
    loop_->Remove(conn_.fd());
    registered_ = false;
  }
  if (doorbell_registered_) {
    loop_->Remove(ring_->wait_fd());
    doorbell_registered_ = false;
  }
  {
    // Flip and close under the lock WriteThrough sends under: a producer
    // either finished its send before this point or sees kClosed.
    std::lock_guard<std::mutex> lock(write_mutex_);
    state_.store(State::kClosed, std::memory_order_release);
    stranded_.store(writer_.PendingFrames(), std::memory_order_relaxed);
    conn_.Close();
    ring_.reset();
  }
  ring_offer_.reset();
  passed_fds_.clear();
  ReleaseLoopSlot();
  if (notify && callbacks_.on_closed) callbacks_.on_closed(shared_from_this());
  // Release the callbacks (they capture the owner: Link ⇄ owner cycle).
  // Deferred via Post: CloseOnLoop may be running INSIDE one of these
  // std::functions (on_frame → CloseOnLoop), and destroying the function
  // currently executing is UB.  The posted task runs after this event
  // dispatch finishes, on the same loop.  Post only fails once the loop
  // has stopped — at which point no callback frame is live and clearing
  // inline is safe.
  if (!loop_->Post([self = shared_from_this()] { self->callbacks_ = {}; })) {
    callbacks_ = {};
  }
}

Link::Stats Link::stats() const noexcept {
  Stats s;
  s.frames_enqueued = enqueued_.load(std::memory_order_relaxed);
  s.frames_evicted = evicted_.load(std::memory_order_relaxed);
  s.frames_sent = sent_.load(std::memory_order_relaxed);
  s.frames_received = received_.load(std::memory_order_relaxed);
  s.frames_stranded = stranded_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rsf::net
