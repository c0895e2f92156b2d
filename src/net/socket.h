// RAII stream-socket primitives over the BSD socket API.
//
// Transport connections are nonblocking and reactor-managed (net/poller.h,
// net/link.h); the blocking helpers remain for tools and tests that want a
// simple synchronous peer.  A connection is either loopback TCP or, for a
// same-host peer, an abstract-namespace AF_UNIX stream named after the
// publication's TCP port (ListenLocal / ConnectLocal).  Both carry the same
// TCPROS bytes; the family only decides which kernel stack moves them.
#pragma once

#include <sys/types.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/byte_stream.h"

namespace rsf::net {

/// Owns a file descriptor; closes it on destruction.  Move-only.
///
/// The descriptor is held atomically because the middleware's shutdown
/// pattern closes sockets from one thread to unblock another thread parked
/// in accept(2)/recv(2) on the same guard — the standard TCPROS unblock
/// idiom.  Ownership transfers (move, Release, Reset) are still single-
/// owner operations; the atomic only makes the close-while-blocked-reader
/// handoff well defined.
class FdGuard {
 public:
  FdGuard() noexcept = default;
  explicit FdGuard(int fd) noexcept : fd_(fd) {}
  ~FdGuard() { Reset(); }

  FdGuard(FdGuard&& other) noexcept : fd_(other.Release()) {}
  FdGuard& operator=(FdGuard&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_.store(other.Release(), std::memory_order_relaxed);
    }
    return *this;
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  [[nodiscard]] int fd() const noexcept {
    return fd_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool valid() const noexcept { return fd() >= 0; }

  /// Releases ownership without closing.
  int Release() noexcept { return fd_.exchange(-1, std::memory_order_relaxed); }

  /// Closes the descriptor (idempotent, safe against a concurrent Close).
  void Reset() noexcept;

 private:
  std::atomic<int> fd_{-1};
};

/// Most descriptors one AF_UNIX read collects (SCM_RIGHTS): a stream
/// ring's memfd and its doorbell (net/stream_ring.h).
inline constexpr size_t kMaxPassedFds = 2;

/// A connected stream: loopback TCP, or same-host AF_UNIX when `local()`.
/// Thread-compatible: one reader + one writer thread may operate
/// concurrently (reads and writes never share state).
class TcpConnection final : public ByteStream {
 public:
  TcpConnection() = default;
  explicit TcpConnection(FdGuard fd, bool local = false)
      : fd_(std::move(fd)), local_(local) {}

  /// Connects to host:port (blocking).  Transport code should use
  /// ConnectStart + a reactor loop instead; this remains for tools, tests,
  /// and benches.  Every call bumps BlockingConnectCount().
  static Result<TcpConnection> Connect(const std::string& host, uint16_t port);

  /// Initiates a nonblocking connect to host:port.  On success the returned
  /// connection is O_NONBLOCK; `*in_progress` tells whether the three-way
  /// handshake is still pending (EINPROGRESS — arm kEventWritable and call
  /// TakeConnectError when it fires) or already complete (loopback often
  /// connects synchronously).  Never blocks, so it is safe to call from the
  /// master-notify thread.
  static Result<TcpConnection> ConnectStart(const std::string& host,
                                            uint16_t port, bool* in_progress);

  /// Nonblocking connect to the AF_UNIX name a same-host publication bound
  /// next to TCP `port` (TcpListener::ListenLocal).  An AF_UNIX connect
  /// never pends: it completes, or fails at once — ECONNREFUSED when no
  /// such name is bound, EAGAIN when its backlog is full.  The returned
  /// connection is O_NONBLOCK.
  ///
  /// An abstract name carries no permissions, so any process may hold it.
  /// The connection is kept only if the kernel reports the listener
  /// (SO_PEERCRED, as of its listen()) running as this process's user and,
  /// when `owner` is nonzero, as process `owner`; otherwise it is closed
  /// and an error returned.
  static Result<TcpConnection> ConnectLocal(uint16_t port, pid_t owner = 0);

  /// Resolves a pending nonblocking connect: reads and clears SO_ERROR.
  /// 0 means the connection is established; otherwise the errno the connect
  /// failed with (ECONNREFUSED, ETIMEDOUT, …).
  int TakeConnectError() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  /// True for an AF_UNIX connection (ConnectLocal or a local listener).
  [[nodiscard]] bool local() const noexcept { return local_; }

  /// The peer process's pid as the kernel recorded it (SO_PEERCRED): for
  /// an accepted connection the client's at connect(), for a dialed one
  /// the listener's at listen().  AF_UNIX connections only.
  Result<pid_t> PeerPid() const;

  /// Writes the entire span; returns an error on EOF/failure.
  Status WriteAll(std::span<const uint8_t> data);

  /// Writes every byte of every iovec, gathering them into as few syscalls
  /// as the kernel allows (one `sendmsg` when the socket buffer has room).
  /// Handles partial writes by resuming mid-iovec.  Empty iovecs are
  /// skipped; an all-empty span is a no-op.  This is what keeps framed
  /// sends at one syscall per message (see net/framing.h).
  Status WritevAll(std::span<const iovec> iov);

  /// Reads exactly data.size() bytes; kUnavailable on orderly EOF.
  Status ReadExact(std::span<uint8_t> data);

  /// Nonblocking single read (reactor transport).  Returns the byte count
  /// (> 0), or 0 when the socket has no data right now (EAGAIN) — callers
  /// must never pass an empty span.  Orderly EOF and resets come back as
  /// kUnavailable.
  Result<size_t> ReadSome(std::span<uint8_t> data) override;

  /// Nonblocking single gathered write (one sendmsg).  Returns the bytes
  /// the kernel accepted, or 0 when the socket buffer is full (EAGAIN).
  /// The caller resumes from wherever the count left off (FrameWriter).
  Result<size_t> WriteSome(std::span<const iovec> iov) override;

  /// AF_UNIX only: ReadSome by recvmsg, appending any descriptors the peer
  /// attached (SCM_RIGHTS, close-on-exec, at most kMaxPassedFds) to
  /// `*fds`.  Counts as one recv.
  Result<size_t> ReadSome(std::span<uint8_t> data, std::vector<FdGuard>* fds);

  /// AF_UNIX only: WriteSome with `fds` attached (SCM_RIGHTS) to the first
  /// byte it sends.  The descriptors reach the peer only if the returned
  /// count is nonzero.  Counts as one sendmsg.
  Result<size_t> WriteSome(std::span<const iovec> iov,
                           std::span<const int> fds);

  /// Switches O_NONBLOCK on or off (reactor-managed connections are
  /// nonblocking; the legacy thread transport and SimLink stay blocking).
  Status SetNonBlocking(bool enabled);

  /// Disables Nagle's algorithm (latency benchmarks need this, as does ROS).
  Status SetNoDelay(bool enabled);

  /// getsockopt as an int (tests audit the applied options).
  Result<int> GetIntOption(int level, int option) const;

  /// Shuts down both directions, unblocking any reader.
  void ShutdownBoth() noexcept;

  void Close() noexcept { fd_.Reset(); }

  [[nodiscard]] int fd() const noexcept { return fd_.fd(); }

 private:
  FdGuard fd_;
  bool local_ = false;
};

/// Kernel socket buffer size requested for every transport connection,
/// both directions.  One tunable so the accept and dial paths can never
/// drift apart: ApplyTransportSocketOptions sets SO_RCVBUF/SO_SNDBUF to
/// this and TCP_NODELAY on.  256 KiB holds tens of frames at typical
/// message sizes without approaching net.core.{r,w}mem_max defaults (the
/// kernel clamps to those, then doubles for bookkeeping).
inline constexpr int kSocketBufferBytes = 256 * 1024;

/// Applies the transport socket options (TCP_NODELAY on TCP connections,
/// SO_RCVBUF/SO_SNDBUF from kSocketBufferBytes on both families) to a
/// connection.  Called on both accepted and dialed sockets.
Status ApplyTransportSocketOptions(TcpConnection& conn);

/// Process-wide count of write-side socket syscalls (`send` + `sendmsg`)
/// issued by TcpConnection.  A test shim: frame-write tests assert the
/// syscalls-per-message budget (one `sendmsg` per frame) without strace.
uint64_t WriteSyscallCount() noexcept;

/// Process-wide count of read-side socket syscalls (`recv`) issued by
/// TcpConnection.  Together with WriteSyscallCount and the backend
/// counters (net/io_backend.h) this is the syscalls-per-delivery shim the
/// batching tests and the connection bench difference.
uint64_t RecvSyscallCount() noexcept;

/// Process-wide count of blocking TcpConnection::Connect calls.  A test
/// shim: middleware tests assert the subscriber dial path (which runs on
/// the master-notify thread) never issues a blocking connect.
uint64_t BlockingConnectCount() noexcept;

/// True for accept(2) errno values that do not poison the listener —
/// aborted handshakes (ECONNABORTED, EPROTO), fd-table or kernel-memory
/// exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM), signals (EINTR) — so accept
/// loops should back off and retry instead of exiting.
bool IsTransientAcceptErrno(int error) noexcept;

/// A listening socket: TCP bound to 127.0.0.1, or the same-host AF_UNIX
/// name that shadows one (ListenLocal).
class TcpListener {
 public:
  TcpListener() = default;  // not listening; valid() is false

  /// Binds and listens; port 0 picks an ephemeral port.
  static Result<TcpListener> Listen(uint16_t port);

  /// Binds and listens on the abstract AF_UNIX name `@rsf.tcpros.<port>`,
  /// where `port` is a TCP port the caller already holds — the name's
  /// uniqueness rides on the port's.  An abstract name has no filesystem
  /// entry: the kernel releases it with the socket, so a crashed owner
  /// leaves nothing to clean up.  Fails with EADDRINUSE when the name is
  /// taken.
  static Result<TcpListener> ListenLocal(uint16_t port);

  /// Blocks until a connection arrives.  EINTR is retried internally;
  /// transient failures (see IsTransientAcceptErrno) come back as
  /// kResourceExhausted, terminal ones (listener closed) as kUnavailable.
  Result<TcpConnection> Accept();

  /// Nonblocking accept for reactor use (listener must be O_NONBLOCK).
  /// Returns true with `*out` filled, false when the backlog is drained
  /// (EAGAIN) or the failure is transient, or an error when the listener is
  /// terminally broken (closed).
  Result<bool> TryAccept(TcpConnection* out);

  /// Switches O_NONBLOCK on the listening socket.
  Status SetNonBlocking(bool enabled);

  [[nodiscard]] int fd() const noexcept { return fd_.fd(); }
  [[nodiscard]] uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  [[nodiscard]] bool local() const noexcept { return local_; }

  /// Unblocks Accept() by closing the listening socket (for a local
  /// listener this also releases its name).
  void Close() noexcept;

 private:
  TcpListener(FdGuard fd, uint16_t port, bool local)
      : fd_(std::move(fd)), port_(port), local_(local) {}
  FdGuard fd_;
  uint16_t port_ = 0;
  bool local_ = false;
};

}  // namespace rsf::net
