// The one transport lifecycle: a loop-confined state machine that owns a
// connected (or connecting) socket, its resumable framing, its stats, and
// its teardown — shared by every stream link in the middleware
// (publication fan-out, subscription receive, shaped SimLink delivery, bag
// record/replay).  Publication and Subscription are policy over this class:
// they decide which tier a peer lands on (intra zero-copy / intra
// whole-copy / TCP) and what the frames mean; Link owns how bytes move.
//
//   Connecting ──connect completes──▶ Handshaking ──accepted──▶ Established
//        │                                │    │                     │
//        │ SO_ERROR / timeout             │    └──rejected──▶ Draining│
//        ▼                                ▼                      │    ▼
//      Closed ◀──────────────────────── error ◀──reply flushed──┘  Closed
//
// Every state transition, every callback, and all reader-side state run on
// ONE EventLoop thread; the cross-thread entry points are EnqueueFrame and
// WriteThrough (the mutex-guarded writer queue) and CloseSync (RunSync
// teardown: after it returns, no callback will run again, which is what
// lets owners destroy captured state).  WriteThrough is the one place a
// producer touches the socket: on an idle established readiness-driven
// link it sends its frame itself, under write_mutex_ — the same lock
// CloseOnLoop flips the state and closes the fd under, so a producer
// never sends on a closed or reused descriptor (DESIGN.md §8).
//
// The handshake is pluggable: Link moves handshake *frames*; the owner
// supplies encode/validate callbacks (TCPROS connection headers live in
// src/ros/, the net layer stays protocol-agnostic).  A dial
// (`Link::Dial`) never blocks the calling thread — the nonblocking
// connect(2) is initiated inline (EINPROGRESS), completion arrives as an
// EPOLLOUT event on the loop, and a timer closes the link if the peer
// never answers.  This is what takes the master-notify thread out of the
// connect path entirely.
//
// Link is socket-family-agnostic.  A dial with Options::local_first tries
// the publication's same-host AF_UNIX name first (TcpConnection::
// ConnectLocal, which completes or fails synchronously and keeps the
// connection only if the listener is Options::local_owner's) and falls
// back to TCP on any failure there; everything above the socket — handshake,
// framing, write-through, pause/resume, teardown — is byte-identical on
// both (DESIGN.md §8).
//
// On an AF_UNIX link the server→client half of the stream can move into a
// shared-memory ring (net/stream_ring.h).  A client whose dial landed on
// AF_UNIX creates one and passes its descriptors with the handshake
// request; the server maps it, and the owners' handshake callbacks decide
// through RingHandshake whether to use it.  Once granted,
// the server's FrameWriter copies frames into the ring and the client's
// FrameReader copies them out; each side's loop waits on the ring's
// doorbell (EventLoop::Add) instead of the socket, which keeps the
// handshake, client→server frames, and EOF.  Any setup failure leaves the
// link on the socket.
#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/framing.h"
#include "net/poller.h"
#include "net/socket.h"
#include "net/stream_ring.h"

namespace rsf::net {

/// Most frames a ring reader delivers in one loop turn before it lets the
/// loop's other handlers run (Link::ReadFrames).
inline constexpr size_t kRingFramesPerTurn = 256;

/// Largest accepted handshake frame (connection headers are < 1 KiB; the
/// cap guards the pre-validation allocator against hostile lengths).
inline constexpr uint32_t kMaxHandshakeFrame = 1u * 1024u * 1024u;

/// Default for Options::write_timeout_nanos on data-bearing publisher
/// links (RSF_WRITE_TIMEOUT_MS env, default 30000; 0 disables).  Re-read
/// on every call so tests and benches can shrink it per run.
uint64_t WriteTimeoutNanos() noexcept;

/// A finalized outgoing frame: the shared payload holder plus the raw
/// (possibly tag-carrying) length prefix.  Built once per publish and
/// enqueued onto any number of links — fan-out shares the holder, it never
/// re-encodes (ros/transport_lane.h builds these).
struct OutFrame {
  std::shared_ptr<const uint8_t[]> payload;
  uint32_t raw = 0;  // length prefix as it goes on the wire (tag | length)

  [[nodiscard]] bool valid() const noexcept { return payload != nullptr; }
};

class Link : public std::enable_shared_from_this<Link> {
 public:
  enum class State : uint8_t {
    kConnecting,    // dial in flight (EINPROGRESS), waiting for EPOLLOUT
    kHandshaking,   // exchanging handshake frames
    kEstablished,   // app frames flow
    kDraining,      // handshake rejected: flushing the error reply, then close
    kClosed,
  };

  struct Options {
    /// Drop-oldest bound for the outgoing frame queue (0 = unbounded).
    size_t max_pending_frames = 0;
    /// A dial still in kConnecting after this long is closed.
    uint64_t connect_timeout_nanos = 10ull * 1'000'000'000ull;
    /// Write-progress deadline: with frames queued and the kernel
    /// accepting zero bytes across one full period, the link closes and
    /// the queued frames count as stranded — a peer that stops reading
    /// must not pin queued payload buffers forever.  0 (the
    /// default) disables the deadline.  Detection latency is within
    /// [period, 2·period): the timer snapshots BytesWritten and fires one
    /// period later.
    uint64_t write_timeout_nanos = 0;
    /// Dial only: try the peer's same-host AF_UNIX name (named after
    /// `port`, net/socket.h) before TCP.  Any failure to connect there —
    /// no such name (ECONNREFUSED), a full backlog (EAGAIN), a listener
    /// that is not `local_owner`'s — falls back to TCP on `host:port`.
    /// LanePolicy::DialLocalFirst decides it.
    bool local_first = false;
    /// With local_first: the pid that must hold the name (0: any process
    /// of this user).  See TcpConnection::ConnectLocal.
    pid_t local_owner = 0;
  };

  /// The stream-ring question one handshake answers.  `offered`: client —
  /// this link attached a ring to its request; server — the request
  /// carried one that mapped cleanly.  `granted`: set by the server's
  /// callback to use it, by the client's when the reply granted it.  Left
  /// false, the link stays on the socket.
  struct RingHandshake {
    bool offered = false;
    bool granted = false;
  };

  /// All callbacks run on the link's loop thread.  They are released (on
  /// the loop) once the link closes, so owners may capture shared_ptrs to
  /// themselves without leaking: the Link ⇄ owner cycle is broken at close.
  struct Callbacks {
    /// Server role: validate the peer's handshake request and fill the
    /// reply frame.  Return false to reject — the reply (an error header)
    /// is still flushed before the link closes (kDraining).
    std::function<bool(const uint8_t* data, uint32_t length,
                       std::vector<uint8_t>* reply, RingHandshake* ring)>
        on_handshake_request;
    /// Client role: the handshake request frame to send once connected;
    /// `ring_offered` says whether a ring rides along with it.
    std::function<std::vector<uint8_t>(bool ring_offered)>
        make_handshake_request;
    /// Client role: validate the server's reply.  Return false to close.
    /// A grant of a ring that was never offered closes the link.
    std::function<bool(const uint8_t* data, uint32_t length,
                       RingHandshake* ring)>
        on_handshake_reply;
    /// Established receive path: where payload bytes land (the SFM
    /// arena-direct hook) and what to do when a frame completes.  When
    /// on_frame is absent the link drains and discards inbound bytes,
    /// watching only for EOF — the publisher side of a TCPROS link.
    FrameAllocator alloc;
    std::function<void(uint32_t length)> on_frame;
    /// Fired once on the transition into kEstablished.  Receives the link
    /// so owners can file it without racing the factory's return value
    /// (a dial may establish before Dial() even returns to the caller).
    std::function<void(const std::shared_ptr<Link>&)> on_established;
    /// Fired when the LINK decides to close (peer hangup, socket error,
    /// handshake rejection, connect failure/timeout) — NOT on
    /// owner-initiated CloseNow/CloseSync, so owners never re-enter their
    /// own teardown.
    std::function<void(const std::shared_ptr<Link>&)> on_closed;
  };

  /// Wraps an accepted connection (server role, starts handshaking).
  /// Callable from any thread; the link activates on `loop`.
  static std::shared_ptr<Link> Accepted(TcpConnection conn, EventLoop* loop,
                                        Options options, Callbacks callbacks);

  /// Starts a nonblocking dial (client role).  Never blocks: the connect
  /// is initiated inline and completes (or fails, or times out) on `loop`.
  /// Always returns a link — a dial that can never succeed surfaces as
  /// on_closed, keeping the caller's error handling in one place.
  static std::shared_ptr<Link> Dial(const std::string& host, uint16_t port,
                                    EventLoop* loop, Options options,
                                    Callbacks callbacks);

  /// Use the factories; public only for std::make_shared.
  Link(EventLoop* loop, Options options, Callbacks callbacks);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Queues one outgoing frame (thread-safe).  Returns true when a frame
  /// will never reach the wire — an older frame was evicted (drop-oldest
  /// at max_pending_frames) or the link is already closed — so callers can
  /// count drops.  Frames queued here do not move until someone kicks
  /// FlushOnLoop (publication coalesces one kick per burst).
  bool EnqueueFrame(std::shared_ptr<const uint8_t[]> payload, uint32_t size);
  bool EnqueueFrame(const OutFrame& frame) {
    return EnqueueFrame(frame.payload, frame.raw);
  }

  struct WriteResult {
    bool dropped = false;  // as EnqueueFrame's return value
    bool queued = false;   // frames wait in the queue: kick FlushOnLoop
  };
  /// Producer-side enqueue-and-send (thread-safe).  Queues the frame and,
  /// when the link is established and its queue was empty before this
  /// frame, writes it from the calling thread: one nonblocking gathered
  /// sendmsg (or ring write), FrameWriter::Flush.  Anything else — a
  /// backlog, EAGAIN or a partial write, a send error (the loop's flush
  /// rediscovers it and closes) — leaves frames queued, and `queued`
  /// tells the caller to kick the loop.
  WriteResult WriteThrough(const OutFrame& frame);

  /// Flushes the writer queue as far as the socket allows and re-arms
  /// interest.  Loop-thread-only (RunInLoop a kick from producers).
  void FlushOnLoop();

  /// Stops delivering frames: read interest is dropped until
  /// ResumeReading.  The pause lands between frames (never mid-frame), and
  /// unread bytes back up into the kernel buffer — TCP flow control then
  /// pushes back on the sender, exactly like the blocking reader the
  /// shaped path used to run.  Loop-thread-only.
  void PauseReading();
  /// Re-arms read interest (no-op unless kEstablished); level-triggered
  /// epoll re-reports any bytes that arrived while paused.
  /// Loop-thread-only.
  void ResumeReading();

  /// Owner-initiated close, loop-thread-only.  Does not fire on_closed.
  void CloseNow();
  /// Owner-initiated close from any thread; returns after the loop has
  /// torn the link down — no callback runs after this.  The teardown
  /// primitive for Publication/Subscription destructors.
  void CloseSync();

  [[nodiscard]] State state() const noexcept {
    return state_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool established() const noexcept {
    return state() == State::kEstablished;
  }

  /// Every frame the writer accepted ends up in exactly one bucket:
  /// frames_enqueued == frames_sent + frames_evicted + frames_stranded
  /// once the link is closed.  Handshake frames count like app frames.
  struct Stats {
    uint64_t frames_enqueued = 0;
    uint64_t frames_evicted = 0;  // drop-oldest + enqueue-after-close
    uint64_t frames_sent = 0;
    uint64_t frames_received = 0;
    uint64_t frames_stranded = 0;  // queued but unsent when the link closed
  };
  [[nodiscard]] Stats stats() const noexcept;

  [[nodiscard]] int fd() const noexcept { return conn_.fd(); }
  [[nodiscard]] EventLoop* loop() const noexcept { return loop_; }
  /// True when the link rides an AF_UNIX socket (fixed before the factory
  /// returns, so readable from any thread).
  [[nodiscard]] bool local() const noexcept { return conn_.local(); }
  /// True once the handshake moved the server→client frames into a stream
  /// ring (any thread; stays true after close).
  [[nodiscard]] bool ring() const noexcept {
    return ring_granted_.load(std::memory_order_acquire);
  }

 private:
  enum class Role : uint8_t { kServer, kClient };

  void StartServerOnLoop();
  void StartClientOnLoop(bool in_progress);
  void MaybeArmWriteDeadline();
  void OnWriteDeadline(uint64_t bytes_snapshot);
  void Register();
  void UpdateInterest();
  [[nodiscard]] uint32_t CurrentInterest();
  void OnEvent(uint32_t events);
  void ResolveConnect();
  void EnterClientHandshake();
  void HandshakeReadable();
  void EnterEstablished();
  void ReadEstablished();
  /// Parses and delivers every frame `in` has (loop thread).
  void ReadFrames(ByteStream& in);
  void DrainDiscard();
  void PeekForEof();
  void FlushWriter();
  void CloseOnLoop(bool notify);
  WriteResult Enqueue(std::shared_ptr<const uint8_t[]> payload, uint32_t size,
                      bool write_through);
  /// Queues a handshake frame (loop thread, pre-established).
  void EnqueueHandshake(const std::vector<uint8_t>& frame);

  // Stream ring (net/stream_ring.h).  The server writes ring_, the client
  // reads it; the socket carries the rest.
  [[nodiscard]] bool RingWriter() const noexcept {
    return ring_ != nullptr && role_ == Role::kServer;
  }
  [[nodiscard]] bool RingReader() const noexcept {
    return ring_ != nullptr && role_ == Role::kClient;
  }
  /// Where the writer's frames go: the ring once granted, else the socket.
  /// Under write_mutex_.
  [[nodiscard]] ByteStream& OutStream() noexcept {
    return RingWriter() ? static_cast<ByteStream&>(*ring_) : conn_;
  }
  /// Server: flushes the handshake reply onto the socket, then makes the
  /// offered ring the writer's stream.  False when the reply did not leave
  /// whole (the link must close: frames would overtake it).
  bool AdoptRingAsWriter();
  void RegisterDoorbell();
  void OnDoorbell();
  /// Reads frames on the loop's next turn: the ring's (a reader that has
  /// not slept gets no doorbell) or, on a socket, the ones behind a header
  /// the reader already holds.
  void ReadNextTurn();

  /// Decrements the loop's live-link count exactly once (close or
  /// destruction, whichever comes first).
  void ReleaseLoopSlot() noexcept;

  EventLoop* const loop_;
  const Options options_;
  Callbacks callbacks_;
  Role role_ = Role::kServer;
  // Loop-confined, except that WriteThrough sends on it under
  // write_mutex_; CloseOnLoop closes it under the same lock.
  TcpConnection conn_;
  // Written on the loop thread; the transition to kClosed happens under
  // write_mutex_ so a locked reader sees a state consistent with conn_.
  std::atomic<State> state_{State::kClosed};

  // Loop-confined.
  bool registered_ = false;
  bool paused_ = false;
  bool write_deadline_armed_ = false;
  FrameReader reader_;
  std::vector<uint8_t> handshake_buf_;

  std::atomic<bool> loop_slot_held_{false};

  std::mutex write_mutex_;
  FrameWriter writer_;  // guarded by write_mutex_
  // The live ring: set on the loop thread under write_mutex_ at the
  // handshake, reset there at close.  The server's producers use it under
  // the lock; the client reads it on the loop.
  std::unique_ptr<StreamRing> ring_;
  std::atomic<bool> ring_granted_{false};
  // Handshake-time ring state, loop-confined: the client's offer (its
  // descriptors ride the first request bytes, ring_fds_sent_ once they
  // left) or the ring the server mapped from the request's descriptors.
  std::unique_ptr<StreamRing> ring_offer_;
  bool ring_fds_sent_ = false;
  std::vector<FdGuard> passed_fds_;  // server: collected from the request
  bool doorbell_registered_ = false;

  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> stranded_{0};
};

}  // namespace rsf::net
