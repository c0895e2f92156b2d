#include "net/framing.h"

#include <algorithm>

#include "common/endian.h"

namespace rsf::net {

// WriteFrame gathers the length prefix and the payload into one WritevAll
// call, so a frame normally costs a single sendmsg syscall (the kernel
// splits it only when the socket buffer fills).  The seed paid two write
// syscalls per message — a measurable per-message tax at high rates.

Status WriteFrame(TcpConnection& conn, std::span<const uint8_t> payload) {
  uint8_t header[4];
  StoreLE<uint32_t>(header, static_cast<uint32_t>(payload.size()));
  const iovec iov[2] = {
      {header, sizeof(header)},
      {const_cast<uint8_t*>(payload.data()), payload.size()},
  };
  return conn.WritevAll(std::span<const iovec>(iov, payload.empty() ? 1 : 2));
}

Status ReadFrame(TcpConnection& conn, const FrameAllocator& alloc,
                 uint32_t* length) {
  uint8_t header[4];
  RSF_RETURN_IF_ERROR(conn.ReadExact(header));
  const uint32_t raw = LoadLE<uint32_t>(header);
  if (FrameTag(raw) != kFrameTagData) {
    return OutOfRangeError("unexpected frame tag on blocking read: " +
                           std::to_string(FrameTag(raw)));
  }
  const uint32_t len = FrameLength(raw);
  uint8_t* dst = alloc(len);
  if (dst == nullptr && len > 0) {
    return ResourceExhaustedError("frame allocator returned null");
  }
  if (len > 0) {
    RSF_RETURN_IF_ERROR(conn.ReadExact(std::span<uint8_t>(dst, len)));
  }
  *length = len;
  return Status::Ok();
}

void FrameReader::Reset() noexcept {
  state_ = State::kHeader;
  header_got_ = 0;
  payload_ = nullptr;
  raw_len_ = 0;
  payload_len_ = 0;
  payload_got_ = 0;
}

Result<FrameReader::Step> FrameReader::Poll(ByteStream& in,
                                            const FrameAllocator& alloc,
                                            uint32_t* length) {
  // A short read from a socket means it is drained: stop there, and let
  // level-triggered epoll report the next bytes, instead of reading again
  // only to see EAGAIN.
  const bool short_read_drains = in.ShortReadDrains();
  drained_ = false;
  for (;;) {
    if (state_ == State::kHeader) {
      // The last payload read may have brought this header in already.
      if (header_got_ < sizeof(header_)) {
        const size_t want = sizeof(header_) - header_got_;
        auto n = in.ReadSome(std::span<uint8_t>(header_ + header_got_, want));
        if (!n.ok()) {
          if (n.status().code() == StatusCode::kUnavailable &&
              header_got_ > 0) {
            return Status(StatusCode::kUnavailable,
                          "connection closed mid-frame (header)");
          }
          return n.status();
        }
        if (*n == 0) return Step::kNeedMore;
        header_got_ += *n;
        if (header_got_ < sizeof(header_)) {
          if (short_read_drains) return Step::kNeedMore;
          continue;
        }
      }

      const uint32_t raw = LoadLE<uint32_t>(header_);
      if (FrameTag(raw) > kFrameTagMax) {
        return OutOfRangeError("unknown frame tag (corrupted length?): " +
                               std::to_string(raw));
      }
      raw_len_ = raw;
      payload_len_ = FrameLength(raw);
      payload_got_ = 0;
      payload_ = alloc(raw);
      if (payload_ == nullptr && payload_len_ > 0) {
        return ResourceExhaustedError("frame allocator returned null");
      }
      if (payload_len_ == 0) {
        *length = raw;
        Reset();
        return Step::kFrame;
      }
      state_ = State::kPayload;
    }

    // The payload, and on into the next frame's header: a burst then
    // costs one read per frame, and a read that stops short of the next
    // header has drained a socket.
    const size_t want = payload_len_ - payload_got_;
    auto n = in.ReadAhead(std::span<uint8_t>(payload_ + payload_got_, want),
                          std::span<uint8_t>(header_, sizeof(header_)));
    if (!n.ok()) {
      if (n.status().code() == StatusCode::kUnavailable) {
        return Status(StatusCode::kUnavailable,
                      "connection closed mid-frame (payload)");
      }
      return n.status();
    }
    if (*n == 0) return Step::kNeedMore;
    if (*n < want) {
      payload_got_ += *n;
      if (short_read_drains) return Step::kNeedMore;
      continue;
    }
    const uint32_t raw = raw_len_;
    Reset();
    header_got_ = *n - want;
    drained_ = short_read_drains && header_got_ < sizeof(header_);
    *length = raw;
    return Step::kFrame;
  }
}

bool FrameReader::FrameBuffered() const noexcept {
  return state_ == State::kHeader && header_got_ == sizeof(header_) &&
         FrameLength(LoadLE<uint32_t>(header_)) == 0;
}

void FrameWriter::Queue::push_back(PendingFrame frame) {
  if (size_ == slots_.size()) {
    std::vector<PendingFrame> grown(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    slots_ = std::move(grown);
    head_ = 0;
  }
  (*this)[size_] = std::move(frame);
  ++size_;
}

void FrameWriter::Queue::pop_front() noexcept {
  front().payload.reset();
  head_ = (head_ + 1) & (slots_.size() - 1);
  --size_;
}

void FrameWriter::Queue::erase(size_t i) noexcept {
  for (; i > 0; --i) (*this)[i] = std::move((*this)[i - 1]);
  pop_front();
}

bool FrameWriter::Enqueue(std::shared_ptr<const uint8_t[]> payload,
                          uint32_t size, size_t max_pending) {
  bool evicted = false;
  if (max_pending > 0 && pending_.size() >= max_pending) {
    // Drop-oldest, but never the front frame once its bytes have begun to
    // leave.
    const size_t victim =
        (!pending_.empty() && pending_.front().offset > 0) ? 1 : 0;
    if (victim < pending_.size()) {
      pending_.erase(victim);
      evicted = true;
    }
  }
  PendingFrame frame;
  // The raw value (tag | length) goes on the wire; the writer's own
  // byte accounting uses the masked payload length.
  StoreLE<uint32_t>(frame.header, size);
  frame.payload = std::move(payload);
  frame.size = FrameLength(size);
  pending_.push_back(std::move(frame));
  return evicted;
}

void FrameWriter::AdaptGatherBudget() noexcept {
  // Deep queue: the socket is the bottleneck, so amortize the syscall over
  // more frames.  Shallow queue: shrink back so the common one-or-two-frame
  // flush never walks an oversized iovec array.
  if (pending_.size() > gather_budget_) {
    gather_budget_ = std::min(gather_budget_ * 2, kGatherFramesMax);
  } else if (gather_budget_ > kGatherFramesMin &&
             pending_.size() <= gather_budget_ / 4) {
    gather_budget_ = std::max(gather_budget_ / 2, kGatherFramesMin);
  }
}

std::span<const iovec> FrameWriter::Gather(size_t count) {
  iov_.clear();
  for (size_t i = 0; i < count; ++i) {
    PendingFrame& frame = pending_[i];
    size_t skip = frame.offset;  // only ever non-zero for i == 0
    if (skip < sizeof(frame.header)) {
      iov_.push_back({frame.header + skip, sizeof(frame.header) - skip});
      skip = 0;
    } else {
      skip -= sizeof(frame.header);
    }
    if (frame.size > skip) {
      iov_.push_back({const_cast<uint8_t*>(frame.payload.get()) + skip,
                      frame.size - skip});
    }
  }
  return {iov_.data(), iov_.size()};
}

void FrameWriter::Advance(size_t bytes) noexcept {
  bytes_written_ += bytes;
  while (bytes > 0 && !pending_.empty()) {
    PendingFrame& front = pending_.front();
    const size_t wire = sizeof(front.header) + front.size;
    const size_t take = std::min(bytes, wire - front.offset);
    front.offset += take;
    bytes -= take;
    if (front.offset == wire) {
      pending_.pop_front();
      ++frames_written_;
    }
  }
}

Status FrameWriter::Flush(ByteStream& out) {
  // Gather up to the adaptive budget of queued frames (header + payload
  // each) into one sendmsg; resume mid-frame via the front frame's offset.
  // Every frame contributes at least its unsent header or payload bytes,
  // so the gather is never empty while frames remain.
  AdaptGatherBudget();
  while (!pending_.empty()) {
    auto written =
        out.WriteSome(Gather(std::min(pending_.size(), gather_budget_)));
    if (!written.ok()) return written.status();
    if (*written == 0) return Status::Ok();  // socket full: resume later
    Advance(*written);
  }
  return Status::Ok();
}

}  // namespace rsf::net
