#include "net/link.h"

#include <limits.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace rsf::net {

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
      callbacks_(std::move(callbacks)),
      submit_mode_(loop->io_backend()->SupportsSubmission()) {
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
  if (submit_mode_) {
    // Sends always travel as submissions and established-state receives as
    // recv SQEs; readiness is only needed to resolve the connect and to
    // drive the (deliberately readiness-shaped) handshake exchange.
    switch (state()) {
      case State::kConnecting:
        return kEventWritable;
      case State::kHandshaking:
        return kEventReadable;
      default:
        return 0;
    }
  }
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
      return (paused_ ? 0u : kEventReadable) |
             (write_pending ? kEventWritable : 0u);
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
    if (submit_mode_) {
      // Only the handshake reads by readiness here; in kEstablished the
      // recv SQE owns the socket and a stale single-shot poll completion
      // (armed during the handshake, reaped after the transition) must not
      // race it with a second reader.
      if (state() == State::kHandshaking) HandshakeReadable();
      // Bytes buffered behind the handshake reply are picked up by the
      // first recv SQE — EnterEstablished arms it before returning.
    } else if (state() == State::kEstablished && paused_) {
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
  if (callbacks_.make_handshake_request) {
    EnqueueHandshake(callbacks_.make_handshake_request());
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
  auto step = reader_.Poll(conn_, alloc, &length);
  if (!step.ok()) {
    CloseOnLoop(true);
    return;
  }
  if (*step == FrameReader::Step::kNeedMore) return;

  if (role_ == Role::kServer) {
    std::vector<uint8_t> reply;
    const bool accepted = callbacks_.on_handshake_request &&
                          callbacks_.on_handshake_request(
                              handshake_buf_.data(), length, &reply);
    if (!reply.empty()) EnqueueHandshake(reply);
    if (accepted) {
      EnterEstablished();
    } else {
      // Flush the error reply to the peer, then close (kDraining).
      state_.store(State::kDraining, std::memory_order_release);
      FlushWriter();
    }
  } else {
    const bool accepted = callbacks_.on_handshake_reply &&
                          callbacks_.on_handshake_reply(handshake_buf_.data(),
                                                        length);
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
  if (callbacks_.on_established) callbacks_.on_established(shared_from_this());
  if (state() == State::kClosed) return;  // on_established may close
  FlushWriter();
  // Completion-mode receive starts here: the first recv SQE also collects
  // any bytes the peer sent right behind its handshake reply.
  if (submit_mode_ && state() == State::kEstablished && !paused_) {
    ArmReceive();
  }
}

void Link::ReadEstablished() {
  if (!callbacks_.on_frame) {
    DrainDiscard();
    return;
  }
  while (state() == State::kEstablished && !paused_) {
    uint32_t length = 0;
    auto step = reader_.Poll(conn_, callbacks_.alloc, &length);
    if (!step.ok()) {
      CloseOnLoop(true);
      return;
    }
    if (*step == FrameReader::Step::kNeedMore) return;
    received_.fetch_add(1, std::memory_order_relaxed);
    callbacks_.on_frame(length);  // may pause or close the link
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
    if (*n == 0) return;  // drained
  }
}

void Link::PeekForEof() {
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
      const bool send = write_through && !submit_mode_ &&
                        s == State::kEstablished && !writer_.HasPending();
      result.dropped =
          writer_.Enqueue(std::move(payload), size, options_.max_pending_frames);
      result.queued = true;
      if (send) {
        // A failed send leaves the frame queued; the loop's flush hits
        // the same error and closes the link.
        (void)writer_.Flush(conn_);
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
  if (submit_mode_) {
    PumpSend();
    return;
  }
  Status status;
  bool pending;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    status = writer_.Flush(conn_);
    pending = writer_.HasPending();
    sent_.store(writer_.FramesWritten(), std::memory_order_relaxed);
  }
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

void Link::ArmReceive() {
  if (recv_armed_ || state() != State::kEstablished || paused_) return;
  void* buf;
  size_t len;
  int flags;
  if (callbacks_.on_frame) {
    // Aim the SQE at the reader's exact remaining window (header bytes,
    // then the allocator's arena pointer) — the one-copy receive survives
    // the backend swap.  MSG_WAITALL lets the kernel accumulate the whole
    // window before completing, so a frame costs two CQEs (header,
    // payload) instead of one per skb.
    const std::span<uint8_t> window = reader_.NextWindow();
    buf = window.data();
    len = window.size();
    flags = MSG_WAITALL;
  } else {
    // Drain-and-discard mode (publisher side): any completion is either
    // junk to drop or EOF.
    if (discard_buf_.empty()) discard_buf_.resize(4096);
    buf = discard_buf_.data();
    len = discard_buf_.size();
    flags = 0;
  }
  recv_armed_ = loop_->io_backend()->SubmitRecv(
      conn_.fd(), buf, len, flags,
      [self = shared_from_this()](int32_t res) { self->OnRecvCqe(res); });
  if (!recv_armed_) CloseOnLoop(true);
}

void Link::OnRecvCqe(int32_t res) {
  recv_armed_ = false;
  if (state() == State::kClosed) return;
  if (res == 0) {  // orderly EOF
    CloseOnLoop(true);
    return;
  }
  if (res < 0) {
    if (res == -EINTR || res == -EAGAIN || res == -ENOBUFS) {
      ArmReceive();  // transient — re-stage the same window
      return;
    }
    if (res == -ECANCELED) return;  // Del cancelled us mid-teardown
    RSF_DEBUG("link: recv completion failed: %s", std::strerror(-res));
    CloseOnLoop(true);
    return;
  }
  if (!callbacks_.on_frame) {
    ArmReceive();  // discarded
    return;
  }
  // MSG_WAITALL can still complete short (signal, peer close mid-frame);
  // Commit accumulates and reports kNeedMore, and the re-arm below stages
  // the shrunken window.
  uint32_t length = 0;
  auto step = reader_.Commit(static_cast<size_t>(res), callbacks_.alloc,
                             &length);
  if (!step.ok()) {
    CloseOnLoop(true);
    return;
  }
  if (*step == FrameReader::Step::kFrame) {
    received_.fetch_add(1, std::memory_order_relaxed);
    callbacks_.on_frame(length);  // may pause or close the link
  }
  if (state() == State::kEstablished && !paused_) ArmReceive();
}

void Link::PumpSend() {
  if (send_inflight_) return;
  const State s = state();
  if (s == State::kClosed || s == State::kConnecting) return;
  std::span<const iovec> staged;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    staged = writer_.StageSubmission();
  }
  if (staged.empty()) {
    if (s == State::kDraining) CloseOnLoop(true);
    return;
  }
  send_hdr_ = msghdr{};
  send_hdr_.msg_iov = const_cast<iovec*>(staged.data());
  send_hdr_.msg_iovlen =
      std::min<size_t>(staged.size(), static_cast<size_t>(IOV_MAX));
  if (!loop_->io_backend()->SubmitSendMsg(
          conn_.fd(), &send_hdr_,
          [self = shared_from_this()](int32_t res) { self->OnSendCqe(res); })) {
    CloseOnLoop(true);
    return;
  }
  send_inflight_ = true;
  MaybeArmWriteDeadline();
}

void Link::OnSendCqe(int32_t res) {
  send_inflight_ = false;
  if (state() == State::kClosed) return;
  if (res < 0) {
    if (res == -EINTR || res == -EAGAIN) {
      PumpSend();  // restage the same batch
      return;
    }
    if (res == -ECANCELED) return;
    RSF_DEBUG("link: send completion failed: %s", std::strerror(-res));
    CloseOnLoop(true);
    return;
  }
  bool pending;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    writer_.CommitStaged(static_cast<size_t>(res));
    pending = writer_.HasPending();
    sent_.store(writer_.FramesWritten(), std::memory_order_relaxed);
  }
  if (pending) {
    PumpSend();  // a short send resumes mid-frame; more frames keep going
    return;
  }
  if (state() == State::kDraining) CloseOnLoop(true);
}

void Link::PauseReading() {
  if (state() != State::kEstablished || paused_) return;
  paused_ = true;
  UpdateInterest();
}

void Link::ResumeReading() {
  if (state() != State::kEstablished || !paused_) return;
  paused_ = false;
  if (submit_mode_) {
    // Bytes that arrived while paused sit in the kernel buffer; the fresh
    // recv SQE completes against them immediately.
    ArmReceive();
    return;
  }
  UpdateInterest();
  // Bytes that arrived while paused are already in the kernel buffer;
  // level-triggered epoll re-reports them, so no manual read is needed.
}

void Link::CloseNow() { CloseOnLoop(false); }

void Link::CloseSync() {
  auto self = shared_from_this();
  loop_->RunSync([self] { self->CloseOnLoop(false); });
}

void Link::CloseOnLoop(bool notify) {
  if (state() == State::kClosed) return;
  // Remove BEFORE close: on a submission backend this synchronously
  // cancels every SQE targeting the fd (and drops the completion
  // closures) — closing first would leave in-flight SQEs holding the file
  // open.
  if (registered_) {
    loop_->Remove(conn_.fd());
    registered_ = false;
  }
  {
    // Flip and close under the lock WriteThrough sends under: a producer
    // either finished its send before this point or sees kClosed.
    std::lock_guard<std::mutex> lock(write_mutex_);
    state_.store(State::kClosed, std::memory_order_release);
    stranded_.store(writer_.PendingFrames(), std::memory_order_relaxed);
    conn_.Close();
  }
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
