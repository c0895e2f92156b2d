#include "net/stream_ring.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <string>

#include "common/clock.h"
#include "net/io_backend.h"

namespace rsf::net {
namespace {

Status ErrnoStatus(const char* what) {
  return UnavailableError(std::string("stream ring: ") + what + ": " +
                          std::strerror(errno));
}

/// True when `fd` is an AF_UNIX stream socket: a doorbell every call on
/// which can be made nonblocking per call (MSG_DONTWAIT).
bool IsUnixStream(int fd) {
  int domain = 0;
  int type = 0;
  socklen_t len = sizeof(domain);
  if (::getsockopt(fd, SOL_SOCKET, SO_DOMAIN, &domain, &len) != 0) {
    return false;
  }
  len = sizeof(type);
  return ::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len) == 0 &&
         domain == AF_UNIX && type == SOCK_STREAM;
}

void Ring(int fd) noexcept {
  const uint8_t byte = 1;
  backend_counters::AddDoorbellWrites(1);
  // Never blocks.  A full socket buffer means the other side left more
  // rings unread than its drain period allows (stream_ring.h): it stalls
  // only its own link.  A closed end means it is gone.
  [[maybe_unused]] const ssize_t n =
      ::send(fd, &byte, sizeof(byte), MSG_DONTWAIT | MSG_NOSIGNAL);
}

/// How far apart a writer checks for an empty ring to rewind: at each
/// page boundary of the lap (the header is page-aligned, so are the data).
constexpr size_t kRewindCheckBytes = kStreamRingHeaderBytes;

}  // namespace

Result<std::unique_ptr<StreamRing>> StreamRing::Create() {
  constexpr size_t kBytes = kStreamRingHeaderBytes + kStreamRingCapacity;
  FdGuard memfd(::memfd_create("rsf.ring", MFD_CLOEXEC | MFD_ALLOW_SEALING));
  if (!memfd.valid()) return ErrnoStatus("memfd_create");
  if (::ftruncate(memfd.fd(), static_cast<off_t>(kBytes)) != 0) {
    return ErrnoStatus("ftruncate");
  }
  if (::fcntl(memfd.fd(), F_ADD_SEALS,
              F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) != 0) {
    return ErrnoStatus("F_ADD_SEALS");
  }
  int bells[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, bells) != 0) {
    return ErrnoStatus("socketpair");
  }
  FdGuard bell(bells[0]);
  FdGuard peer_bell(bells[1]);
  void* base = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                      memfd.fd(), 0);
  if (base == MAP_FAILED) return ErrnoStatus("mmap");
  auto* header = new (base) StreamRingHeader;
  header->magic = StreamRingHeader::kMagic;
  header->capacity = kStreamRingCapacity;
  return std::unique_ptr<StreamRing>(
      new StreamRing(base, std::move(memfd), std::move(bell),
                     std::move(peer_bell)));
}

Result<std::unique_ptr<StreamRing>> StreamRing::Attach(
    std::vector<FdGuard> fds) {
  if (fds.size() != 2) {
    return InvalidArgumentError("stream ring: expected 2 descriptors, got " +
                                std::to_string(fds.size()));
  }
  const int memfd = fds[0].fd();
  // Without both seals the reader could shrink the file under our mapping
  // and turn a ring write into SIGBUS.
  const int seals = ::fcntl(memfd, F_GET_SEALS);
  if (seals < 0) return ErrnoStatus("F_GET_SEALS (not a memfd?)");
  if ((seals & (F_SEAL_SHRINK | F_SEAL_GROW)) !=
      (F_SEAL_SHRINK | F_SEAL_GROW)) {
    return FailedPreconditionError("stream ring: memfd is not size-sealed");
  }
  struct stat st{};
  if (::fstat(memfd, &st) != 0) return ErrnoStatus("fstat");
  constexpr size_t kBytes = kStreamRingHeaderBytes + kStreamRingCapacity;
  if (static_cast<uint64_t>(st.st_size) != kBytes) {
    return FailedPreconditionError("stream ring: bad memfd size " +
                                   std::to_string(st.st_size));
  }
  if (!IsUnixStream(fds[1].fd())) {
    return FailedPreconditionError(
        "stream ring: doorbell is not an AF_UNIX stream socket");
  }
  void* base = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                      memfd, 0);
  if (base == MAP_FAILED) return ErrnoStatus("mmap");
  const auto* header = static_cast<const StreamRingHeader*>(base);
  if (header->magic != StreamRingHeader::kMagic ||
      header->capacity != kStreamRingCapacity) {
    ::munmap(base, kBytes);
    return FailedPreconditionError("stream ring: bad header");
  }
  // The mapping keeps the memory; the writer has no use for the memfd.
  return std::unique_ptr<StreamRing>(
      new StreamRing(base, FdGuard(), std::move(fds[1]), FdGuard()));
}

StreamRing::StreamRing(void* base, FdGuard memfd, FdGuard bell,
                       FdGuard peer_bell)
    : base_(base),
      header_(static_cast<StreamRingHeader*>(base)),
      data_(static_cast<uint8_t*>(base) + kStreamRingHeaderBytes),
      memfd_(std::move(memfd)),
      peer_bell_(std::move(peer_bell)),
      bell_(std::move(bell)) {}

StreamRing::~StreamRing() {
  ::munmap(base_, kStreamRingHeaderBytes + kStreamRingCapacity);
}

bool StreamRing::ClearDoorbell() noexcept {
  // One bounded recv, larger than the 278 one-byte rings an end can hold:
  // a drain empties the end of a peer that only rings.
  uint8_t rings[512];
  backend_counters::AddDoorbellReads(1);
  const ssize_t n = ::recv(bell_.fd(), rings, sizeof(rings), MSG_DONTWAIT);
  if (n > 0) return true;
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
}

Result<uint64_t> StreamRing::Readable(uint64_t head) noexcept {
  // The writer jumped from here to the next lap's start: follow it.  It
  // only jumps on finding the ring empty, i.e. with us parked exactly here.
  if (head != position_ && (position_ & (kStreamRingCapacity - 1)) != 0 &&
      header_->rewind_from.load(std::memory_order_relaxed) == position_) {
    position_ = LapStart(position_);
  }
  if (head < position_ || head - position_ > kStreamRingCapacity) {
    return OutOfRangeError("stream ring: writer index out of range");
  }
  return head - position_;
}

bool StreamRing::HasUnread() const noexcept {
  return header_->head.load(std::memory_order_acquire) != position_;
}

uint64_t NextPollNanos(uint64_t poll_nanos, uint64_t slept_at,
                       uint64_t rang_at) noexcept {
  poll_nanos = std::min(poll_nanos, kStreamRingPollNanos);
  if (rang_at < slept_at) return poll_nanos;
  if (rang_at - slept_at >= kStreamRingPollNanos) return 0;
  return poll_nanos == 0 ? kStreamRingPollNanos / 8
                         : std::min(2 * poll_nanos, kStreamRingPollNanos);
}

Result<size_t> StreamRing::ReadSome(std::span<uint8_t> data) {
  if (slept_at_ != 0) {
    // The first read since this reader slept.  The writer's stamp, not
    // this thread's clock, ends the sleep: the wake-up latency says
    // nothing about how soon the writer's next frame came.
    poll_nanos_ =
        NextPollNanos(poll_nanos_, slept_at_,
                      header_->rang_at.load(std::memory_order_acquire));
    slept_at_ = 0;
  }
  uint64_t head = header_->head.load(std::memory_order_acquire);
  auto readable = Readable(head);
  if (!readable.ok()) return readable.status();
  if (*readable == 0 && poll_allowed_ && poll_nanos_ > 0) {
    const uint64_t deadline = MonotonicNanos() + poll_nanos_;
    do {
      head = header_->head.load(std::memory_order_acquire);
    } while (head == position_ && MonotonicNanos() < deadline);
    readable = Readable(head);
    if (!readable.ok()) return readable.status();
  }
  if (*readable == 0) {
    // About to sleep: flag it, then look once more.  Either the writer's
    // check sees the flag and rings, or this load sees its bytes.  The
    // sleep starts before the flag, so any ring of this sleep is stamped
    // after it.
    const uint64_t now = MonotonicNanos();
    header_->reader_sleeping.store(1, std::memory_order_seq_cst);
    readable = Readable(header_->head.load(std::memory_order_seq_cst));
    if (!readable.ok()) return readable.status();
    if (*readable == 0) {
      slept_at_ = now;
      return size_t{0};
    }
    header_->reader_sleeping.store(0, std::memory_order_relaxed);
  }
  const size_t n = static_cast<size_t>(std::min<uint64_t>(*readable,
                                                          data.size()));
  const size_t offset = position_ & (kStreamRingCapacity - 1);
  const size_t first = std::min(n, kStreamRingCapacity - offset);
  std::memcpy(data.data(), data_ + offset, first);
  std::memcpy(data.data() + first, data_, n - first);
  position_ += n;
  // A frame's header read leaves its payload unread: the payload read
  // that empties the ring publishes both.
  const uint64_t unread = *readable - n;
  if (unread == 0 || position_ - tail_ >= kStreamRingPublishBytes) {
    PublishTail(unread);
  }
  return n;
}

void StreamRing::PublishTail(uint64_t unread) noexcept {
  tail_ = position_;
  header_->tail.store(position_, std::memory_order_seq_cst);
  // Wake a waiting writer only once half the ring is free, as a socket
  // wakes its writer (sk_write_space): a doorbell per few freed bytes
  // would cost a wake-up per sliver of a large frame.  This reader keeps
  // reading until the ring is empty, and publishes there, so that point
  // always comes.
  if (unread <= kStreamRingCapacity / 2 &&
      header_->writer_waiting.load(std::memory_order_seq_cst) != 0 &&
      header_->writer_waiting.exchange(0, std::memory_order_acq_rel) != 0) {
    Ring(bell_.fd());
  }
}

Result<uint64_t> StreamRing::EffectiveTail(uint64_t tail) noexcept {
  if (rewind_pending_ != kNoRewind) {
    if (tail == rewind_pending_) {
      tail = LapStart(tail);  // the reader has yet to follow the jump
    } else if (tail > rewind_pending_) {
      rewind_pending_ = kNoRewind;
    }
  }
  if (tail > position_ || position_ - tail > kStreamRingCapacity) {
    return OutOfRangeError("stream ring: reader index out of range");
  }
  return tail;
}

Status StreamRing::ReloadTail(std::memory_order order) noexcept {
  auto tail = EffectiveTail(header_->tail.load(order));
  if (!tail.ok()) return tail.status();
  tail_ = *tail;
  return Status::Ok();
}

void StreamRing::PublishHead() noexcept {
  header_->head.store(position_, std::memory_order_seq_cst);
  if (header_->reader_sleeping.load(std::memory_order_seq_cst) != 0 &&
      header_->reader_sleeping.exchange(0, std::memory_order_acq_rel) != 0) {
    header_->rang_at.store(MonotonicNanos(), std::memory_order_release);
    Ring(bell_.fd());
  }
}

Result<size_t> StreamRing::WriteSome(std::span<const iovec> iov) {
  size_t total = 0;
  for (const iovec& v : iov) total += v.iov_len;
  if (total == 0) return size_t{0};

  const size_t offset = position_ & (kStreamRingCapacity - 1);
  if (offset != 0 && (offset - 1) / kRewindCheckBytes !=
                         (offset + total - 1) / kRewindCheckBytes) {
    // The write would start a page this lap has not touched: if the ring
    // is empty, start the next lap instead, so a stream the reader keeps
    // up with stays on the first pages.
    RSF_RETURN_IF_ERROR(ReloadTail(std::memory_order_acquire));
    if (tail_ == position_ && rewind_pending_ == kNoRewind) {
      header_->rewind_from.store(position_, std::memory_order_relaxed);
      rewind_pending_ = position_;
      position_ = LapStart(position_);
      tail_ = position_;
    }
  }
  uint64_t room = kStreamRingCapacity - (position_ - tail_);
  if (room < total) {
    RSF_RETURN_IF_ERROR(ReloadTail(std::memory_order_acquire));
    room = kStreamRingCapacity - (position_ - tail_);
  }
  if (room == 0) {
    // Full: flag it, then look once more (the mirror of ReadSome's sleep).
    header_->writer_waiting.store(1, std::memory_order_seq_cst);
    RSF_RETURN_IF_ERROR(ReloadTail(std::memory_order_seq_cst));
    room = kStreamRingCapacity - (position_ - tail_);
    if (room == 0) return size_t{0};
    header_->writer_waiting.store(0, std::memory_order_relaxed);
  }

  // Copy, publishing `head` every kStreamRingPublishBytes: the reader
  // starts on a large frame while the rest is still being copied in, as
  // a socket hands its reader each skb.
  const size_t n = static_cast<size_t>(std::min<uint64_t>(room, total));
  size_t left = n;
  size_t unpublished = 0;
  for (const iovec& v : iov) {
    const auto* src = static_cast<const uint8_t*>(v.iov_base);
    size_t len = std::min(v.iov_len, left);
    left -= len;
    while (len > 0) {
      const size_t offset = position_ & (kStreamRingCapacity - 1);
      const size_t chunk = std::min({len, kStreamRingCapacity - offset,
                                     kStreamRingPublishBytes - unpublished});
      std::memcpy(data_ + offset, src, chunk);
      src += chunk;
      len -= chunk;
      position_ += chunk;
      unpublished += chunk;
      if (unpublished == kStreamRingPublishBytes) {
        PublishHead();
        unpublished = 0;
      }
    }
    if (left == 0) break;
  }
  if (unpublished > 0) PublishHead();
  return n;
}

}  // namespace rsf::net
