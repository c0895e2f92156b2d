#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <vector>

namespace rsf::net {
namespace {

Status ErrnoStatus(const char* what) {
  return UnavailableError(std::string(what) + ": " + std::strerror(errno));
}

/// The abstract AF_UNIX address `@rsf.tcpros.<port>` (leading NUL, no
/// terminator; `*len` is the exact address length the kernel keys on).
sockaddr_un LocalAddress(uint16_t port, socklen_t* len) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const int n = std::snprintf(addr.sun_path + 1, sizeof(addr.sun_path) - 1,
                              "rsf.tcpros.%u", static_cast<unsigned>(port));
  *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + n);
  return addr;
}

std::atomic<uint64_t> g_write_syscalls{0};
std::atomic<uint64_t> g_recv_syscalls{0};
std::atomic<uint64_t> g_blocking_connects{0};

/// The peer credentials SO_PEERCRED reports for an AF_UNIX socket.
Result<ucred> PeerCredentials(int fd) {
  ucred cred{};
  socklen_t len = sizeof(cred);
  if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &len) != 0) {
    return ErrnoStatus("getsockopt(SO_PEERCRED)");
  }
  return cred;
}

}  // namespace

uint64_t WriteSyscallCount() noexcept {
  return g_write_syscalls.load(std::memory_order_relaxed);
}

uint64_t RecvSyscallCount() noexcept {
  return g_recv_syscalls.load(std::memory_order_relaxed);
}

uint64_t BlockingConnectCount() noexcept {
  return g_blocking_connects.load(std::memory_order_relaxed);
}

void FdGuard::Reset() noexcept {
  const int fd = Release();
  if (fd >= 0) ::close(fd);
}

Result<TcpConnection> TcpConnection::Connect(const std::string& host,
                                             uint16_t port) {
  g_blocking_connects.fetch_add(1, std::memory_order_relaxed);
  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad address: " + host);
  }
  if (::connect(fd.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("connect");
  }
  return TcpConnection(std::move(fd));
}

Result<TcpConnection> TcpConnection::ConnectStart(const std::string& host,
                                                  uint16_t port,
                                                  bool* in_progress) {
  *in_progress = false;
  FdGuard fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return ErrnoStatus("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("bad address: " + host);
  }
  for (;;) {
    if (::connect(fd.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return TcpConnection(std::move(fd));
    }
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) {
      *in_progress = true;
      return TcpConnection(std::move(fd));
    }
    return ErrnoStatus("connect");
  }
}

Result<TcpConnection> TcpConnection::ConnectLocal(uint16_t port,
                                                  pid_t owner) {
  FdGuard fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return ErrnoStatus("socket(AF_UNIX)");
  socklen_t len = 0;
  const sockaddr_un addr = LocalAddress(port, &len);
  while (::connect(fd.fd(), reinterpret_cast<const sockaddr*>(&addr), len) !=
         0) {
    if (errno != EINTR) return ErrnoStatus("connect(AF_UNIX)");
  }
  auto cred = PeerCredentials(fd.fd());
  if (!cred.ok()) return cred.status();
  if (cred->uid != ::geteuid() || (owner != 0 && cred->pid != owner)) {
    return UnavailableError(
        "connect(AF_UNIX): name for port " + std::to_string(port) +
        " is held by pid " + std::to_string(cred->pid) + " uid " +
        std::to_string(cred->uid) + ", not the publication's");
  }
  return TcpConnection(std::move(fd), /*local=*/true);
}

Result<pid_t> TcpConnection::PeerPid() const {
  auto cred = PeerCredentials(fd_.fd());
  if (!cred.ok()) return cred.status();
  return cred->pid;
}

int TcpConnection::TakeConnectError() noexcept {
  int error = 0;
  socklen_t len = sizeof(error);
  if (::getsockopt(fd_.fd(), SOL_SOCKET, SO_ERROR, &error, &len) != 0) {
    return errno != 0 ? errno : EBADF;
  }
  return error;
}

Status TcpConnection::WriteAll(std::span<const uint8_t> data) {
  size_t written = 0;
  while (written < data.size()) {
    g_write_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::send(fd_.fd(), data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status TcpConnection::WritevAll(std::span<const iovec> iov) {
  // A mutable copy: partial writes are resumed by advancing iov_base.  The
  // hot path (framed message sends) uses 2-3 iovecs, so stay on the stack;
  // larger gathers fall back to the heap.
  constexpr size_t kStackIovecs = 8;
  iovec stack[kStackIovecs];
  std::vector<iovec> heap;
  iovec* vec;
  if (iov.size() <= kStackIovecs) {
    std::memcpy(stack, iov.data(), iov.size() * sizeof(iovec));
    vec = stack;
  } else {
    heap.assign(iov.begin(), iov.end());
    vec = heap.data();
  }

  size_t index = 0;
  while (index < iov.size()) {
    if (vec[index].iov_len == 0) {
      ++index;
      continue;
    }
    // sendmsg, not writev: we need MSG_NOSIGNAL (broken-pipe handling
    // matches WriteAll).
    msghdr msg{};
    msg.msg_iov = vec + index;
    msg.msg_iovlen = std::min(iov.size() - index, size_t{IOV_MAX});
    g_write_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::sendmsg(fd_.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("sendmsg");
    }
    size_t accepted = static_cast<size_t>(n);
    while (accepted > 0) {
      if (accepted >= vec[index].iov_len) {
        accepted -= vec[index].iov_len;
        vec[index].iov_len = 0;
        ++index;
      } else {
        vec[index].iov_base = static_cast<uint8_t*>(vec[index].iov_base) +
                              accepted;
        vec[index].iov_len -= accepted;
        accepted = 0;
      }
    }
  }
  return Status::Ok();
}

Status TcpConnection::ReadExact(std::span<uint8_t> data) {
  size_t got = 0;
  while (got < data.size()) {
    g_recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::recv(fd_.fd(), data.data() + got, data.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("recv");
    }
    if (n == 0) return UnavailableError("connection closed");
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<size_t> TcpConnection::ReadSome(std::span<uint8_t> data) {
  if (data.empty()) return size_t{0};  // recv(…, 0) would mimic EOF
  for (;;) {
    g_recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::recv(fd_.fd(), data.data(), data.size(), 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return UnavailableError("connection closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return ErrnoStatus("recv");
  }
}

Result<size_t> TcpConnection::WriteSome(std::span<const iovec> iov) {
  if (iov.empty()) return size_t{0};
  for (;;) {
    msghdr msg{};
    msg.msg_iov = const_cast<iovec*>(iov.data());
    msg.msg_iovlen = std::min(iov.size(), size_t{IOV_MAX});
    g_write_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::sendmsg(fd_.fd(), &msg, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return ErrnoStatus("sendmsg");
  }
}

Result<size_t> TcpConnection::ReadSome(std::span<uint8_t> data,
                                       std::vector<FdGuard>* fds) {
  if (data.empty()) return size_t{0};
  alignas(cmsghdr) char control[CMSG_SPACE(kMaxPassedFds * sizeof(int))];
  for (;;) {
    iovec iov{data.data(), data.size()};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    g_recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::recvmsg(fd_.fd(), &msg, MSG_CMSG_CLOEXEC);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
      return ErrnoStatus("recvmsg");
    }
    for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
         c = CMSG_NXTHDR(&msg, c)) {
      if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SCM_RIGHTS) continue;
      const size_t count = (c->cmsg_len - CMSG_LEN(0)) / sizeof(int);
      for (size_t i = 0; i < count; ++i) {
        int fd;
        std::memcpy(&fd, CMSG_DATA(c) + i * sizeof(int), sizeof(fd));
        fds->emplace_back(fd);
      }
    }
    if (n == 0) return UnavailableError("connection closed");
    return static_cast<size_t>(n);
  }
}

Result<size_t> TcpConnection::WriteSome(std::span<const iovec> iov,
                                        std::span<const int> fds) {
  if (fds.size() > kMaxPassedFds) {
    return InvalidArgumentError("too many descriptors to pass");
  }
  if (fds.empty() || iov.empty()) return WriteSome(iov);
  alignas(cmsghdr) char control[CMSG_SPACE(kMaxPassedFds * sizeof(int))] = {};
  for (;;) {
    msghdr msg{};
    msg.msg_iov = const_cast<iovec*>(iov.data());
    msg.msg_iovlen = std::min(iov.size(), size_t{IOV_MAX});
    msg.msg_control = control;
    msg.msg_controllen = CMSG_SPACE(fds.size() * sizeof(int));
    cmsghdr* c = CMSG_FIRSTHDR(&msg);
    c->cmsg_level = SOL_SOCKET;
    c->cmsg_type = SCM_RIGHTS;
    c->cmsg_len = CMSG_LEN(fds.size() * sizeof(int));
    std::memcpy(CMSG_DATA(c), fds.data(), fds.size() * sizeof(int));
    g_write_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::sendmsg(fd_.fd(), &msg, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return ErrnoStatus("sendmsg(SCM_RIGHTS)");
  }
}

Status TcpConnection::SetNonBlocking(bool enabled) {
  const int flags = ::fcntl(fd_.fd(), F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_.fd(), F_SETFL, wanted) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

Result<int> TcpConnection::GetIntOption(int level, int option) const {
  int value = 0;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd_.fd(), level, option, &value, &len) != 0) {
    return ErrnoStatus("getsockopt");
  }
  return value;
}

Status ApplyTransportSocketOptions(TcpConnection& conn) {
  // Nagle is a TCP notion: AF_UNIX refuses TCP_NODELAY (EOPNOTSUPP) but
  // honours the buffer sizes below.
  if (!conn.local()) RSF_RETURN_IF_ERROR(conn.SetNoDelay(true));
  const int bytes = kSocketBufferBytes;
  if (::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) !=
      0) {
    return ErrnoStatus("setsockopt(SO_RCVBUF)");
  }
  if (::setsockopt(conn.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) !=
      0) {
    return ErrnoStatus("setsockopt(SO_SNDBUF)");
  }
  return Status::Ok();
}

Status TcpConnection::SetNoDelay(bool enabled) {
  const int flag = enabled ? 1 : 0;
  if (::setsockopt(fd_.fd(), IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) != 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)");
  }
  return Status::Ok();
}

void TcpConnection::ShutdownBoth() noexcept {
  if (fd_.valid()) ::shutdown(fd_.fd(), SHUT_RDWR);
}

Result<TcpListener> TcpListener::Listen(uint16_t port) {
  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");

  const int one = 1;
  ::setsockopt(fd.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  // 1024: the connection-scaling bench dials 1024 subscribers at once;
  // the kernel clamps to net.core.somaxconn anyway.
  if (::listen(fd.fd(), 1024) != 0) return ErrnoStatus("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  return TcpListener(std::move(fd), ntohs(addr.sin_port), /*local=*/false);
}

Result<TcpListener> TcpListener::ListenLocal(uint16_t port) {
  FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket(AF_UNIX)");
  socklen_t len = 0;
  const sockaddr_un addr = LocalAddress(port, &len);
  if (::bind(fd.fd(), reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    return ErrnoStatus("bind(AF_UNIX)");
  }
  if (::listen(fd.fd(), 1024) != 0) return ErrnoStatus("listen");
  return TcpListener(std::move(fd), port, /*local=*/true);
}

bool IsTransientAcceptErrno(int error) noexcept {
  switch (error) {
    case ECONNABORTED:  // peer aborted between SYN and accept
    case EINTR:         // signal; retried inline below, listed for callers
    case EMFILE:        // process fd table full — may drain
    case ENFILE:        // system fd table full — may drain
    case ENOBUFS:       // transient kernel memory pressure
    case ENOMEM:
    case EAGAIN:        // spurious wake-up on some kernels
    case EPROTO:        // protocol error on the nascent connection
      return true;
    default:
      return false;
  }
}

Result<TcpConnection> TcpListener::Accept() {
  for (;;) {
    const int client = ::accept(fd_.fd(), nullptr, nullptr);
    if (client >= 0) return TcpConnection(FdGuard(client), local_);
    if (errno == EINTR) continue;  // signal delivery is never fatal here
    // Transient failures come back as kResourceExhausted so accept loops
    // can back off and retry instead of abandoning the listener; anything
    // else (EBADF/EINVAL after Close()) is a terminal kUnavailable.
    if (IsTransientAcceptErrno(errno)) {
      return ResourceExhaustedError(std::string("accept: ") +
                                    std::strerror(errno));
    }
    return ErrnoStatus("accept");
  }
}

Result<bool> TcpListener::TryAccept(TcpConnection* out) {
  for (;;) {
    const int client = ::accept(fd_.fd(), nullptr, nullptr);
    if (client >= 0) {
      *out = TcpConnection(FdGuard(client), local_);
      return true;
    }
    if (errno == EINTR) continue;
    // EAGAIN means drained; other transient errnos (aborted handshakes, fd
    // pressure) also yield to the event loop — level-triggered epoll
    // re-reports while a connection is still pending.
    if (IsTransientAcceptErrno(errno)) return false;
    return ErrnoStatus("accept");
  }
}

Status TcpListener::SetNonBlocking(bool enabled) {
  const int flags = ::fcntl(fd_.fd(), F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_.fd(), F_SETFL, wanted) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

void TcpListener::Close() noexcept {
  if (fd_.valid()) ::shutdown(fd_.fd(), SHUT_RDWR);
  fd_.Reset();
}

}  // namespace rsf::net
