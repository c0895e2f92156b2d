#include "ros/mcast_transport.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/endian.h"
#include "ros/message_traits.h"

namespace ros {

namespace {

uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t floor) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return std::max<uint64_t>(parsed, floor);
}

/// Chunk count a frame of `frame_len` bytes must arrive in (a zero-length
/// frame still needs its one header-only datagram).
constexpr uint32_t ChunkCountFor(uint32_t frame_len) noexcept {
  if (frame_len == 0) return 1;
  return (frame_len + kMcastChunkPayload - 1) / kMcastChunkPayload;
}

uint32_t ChunkBytesAt(uint32_t frame_len, uint32_t index) noexcept {
  const uint64_t offset = uint64_t{index} * kMcastChunkPayload;
  if (offset >= frame_len) return 0;
  return static_cast<uint32_t>(
      std::min<uint64_t>(kMcastChunkPayload, frame_len - offset));
}

}  // namespace

bool McastEnabled() noexcept {
  const char* raw = std::getenv("RSF_TRANSPORT_MCAST");
  return raw != nullptr && std::strcmp(raw, "1") == 0;
}

size_t McastMinSubs() noexcept {
  return EnvCount("RSF_MCAST_MIN_SUBS", 8, 1);
}

size_t McastRepairDepth() noexcept {
  return EnvCount("RSF_MCAST_REPAIR_DEPTH", 64, 4);
}

uint64_t McastNackDelayNanos() noexcept {
  return EnvCount("RSF_MCAST_NACK_MS", 5, 1) * 1'000'000ull;
}

size_t McastEvictionLag() noexcept {
  return std::max<size_t>(4 * McastRepairDepth(), 2 * kMcastAckInterval);
}

void EncodeMcastChunkHeader(uint8_t out[kMcastChunkHeaderSize],
                            const McastChunkHeader& header) {
  rsf::StoreLE<uint64_t>(out, header.seq);
  rsf::StoreLE<uint16_t>(out + 8, header.index);
  rsf::StoreLE<uint16_t>(out + 10, header.count);
  rsf::StoreLE<uint32_t>(out + 12, header.frame_len);
}

bool DecodeMcastChunkHeader(const uint8_t* data, size_t size,
                            McastChunkHeader* out) {
  if (size < kMcastChunkHeaderSize) return false;
  out->seq = rsf::LoadLE<uint64_t>(data);
  out->index = rsf::LoadLE<uint16_t>(data + 8);
  out->count = rsf::LoadLE<uint16_t>(data + 10);
  out->frame_len = rsf::LoadLE<uint32_t>(data + 12);
  if (out->count == 0 || out->index >= out->count) return false;
  // The count must be exactly what the frame length dictates — a mismatch
  // is corruption or cross-talk, never a legitimate sender.
  return out->count == ChunkCountFor(out->frame_len);
}

std::shared_ptr<const uint8_t[]> EncodeMcastControlFrame(McastControlKind kind,
                                                         uint64_t lo,
                                                         uint64_t hi) {
  auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[kMcastControlSize]);
  rsf::StoreLE<uint32_t>(buffer.get(), kMcastControlMagic);
  buffer[4] = static_cast<uint8_t>(kind);
  buffer[5] = buffer[6] = buffer[7] = 0;
  rsf::StoreLE<uint64_t>(buffer.get() + 8, lo);
  rsf::StoreLE<uint64_t>(buffer.get() + 16, hi);
  return buffer;
}

bool DecodeMcastControl(const uint8_t* data, size_t size,
                        McastControlKind* kind, uint64_t* lo, uint64_t* hi) {
  if (size != kMcastControlSize) return false;
  if (rsf::LoadLE<uint32_t>(data) != kMcastControlMagic) return false;
  if (data[4] > static_cast<uint8_t>(McastControlKind::kLeave)) return false;
  *kind = static_cast<McastControlKind>(data[4]);
  *lo = rsf::LoadLE<uint64_t>(data + 8);
  *hi = rsf::LoadLE<uint64_t>(data + 16);
  return true;
}

std::shared_ptr<const uint8_t[]> EncodeMcastRepairFrame(uint64_t seq,
                                                        const uint8_t* frame,
                                                        uint32_t frame_len) {
  const uint32_t total =
      kMcastRepairHeaderSize + (frame == nullptr ? 0 : frame_len);
  auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[total]);
  rsf::StoreLE<uint64_t>(buffer.get(), seq);
  if (frame != nullptr && frame_len > 0) {
    std::memcpy(buffer.get() + kMcastRepairHeaderSize, frame, frame_len);
  }
  return buffer;
}

// ---- McastGroupSender ----

McastGroupSender::McastGroupSender(std::string group,
                                   rsf::net::UdpSocket socket, size_t depth)
    : group_(std::move(group)), socket_(std::move(socket)), depth_(depth) {}

rsf::Result<std::shared_ptr<McastGroupSender>> McastGroupSender::Create(
    const std::string& topic) {
  (void)topic;  // the group is process-unique; the topic only names logs
  const std::string group = rsf::net::AllocateMulticastGroup();
  auto socket = rsf::net::UdpSocket::CreateMulticastSender(group, 0);
  if (!socket.ok()) return socket.status();
  // Seed the deterministic loss shim once, so RSF_MCAST_DROP_PCT can drive
  // whole binaries; in-process chaos tests set the atomic directly.
  static const bool seeded = [] {
    const char* raw = std::getenv("RSF_MCAST_DROP_PCT");
    if (raw != nullptr && *raw != '\0') {
      shim::mcast_drop_pct.store(
          static_cast<uint32_t>(std::min(std::atoi(raw), 100)),
          std::memory_order_relaxed);
    }
    return true;
  }();
  (void)seeded;
  return std::shared_ptr<McastGroupSender>(new McastGroupSender(
      group, std::move(*socket), McastRepairDepth()));
}

void McastGroupSender::Stage(const std::shared_ptr<const uint8_t[]>& payload,
                             uint32_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Pin into the ring NOW: a NACK racing the flush can already be
  // repaired, and a leave-tier replay never misses a staged frame.
  const uint64_t seq = ++next_seq_;
  ring_.push_back({seq, payload, size});
  while (ring_.size() > depth_) ring_.pop_front();
  staged_.push_back({seq, payload, size});
  last_seq_.store(seq, std::memory_order_release);
}

void McastGroupSender::FlushStaged() {
  // Swap the batch out, send outside the mutex: on loopback one sendmsg
  // replicates to every member socket in-kernel, and a publish thread
  // must never wait behind that.
  std::deque<Pinned> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch.swap(staged_);
  }
  const uint32_t drop_pct =
      shim::mcast_drop_pct.load(std::memory_order_relaxed);
  uint8_t header[kMcastChunkHeaderSize];
  for (const Pinned& pin : batch) {
    const uint32_t count = ChunkCountFor(pin.size);
    for (uint32_t index = 0; index < count; ++index) {
      EncodeMcastChunkHeader(header,
                             {pin.seq, static_cast<uint16_t>(index),
                              static_cast<uint16_t>(count), pin.size});
      shim::mcast_datagrams_sent.fetch_add(1, std::memory_order_relaxed);
      if (drop_pct > 0 && (drop_counter_++ % 100) < drop_pct) {
        continue;  // injected loss: counted as sent, never hits the wire
      }
      const uint32_t bytes = ChunkBytesAt(pin.size, index);
      iovec iov[2] = {
          {header, kMcastChunkHeaderSize},
          {const_cast<uint8_t*>(pin.payload.get()) +
               uint64_t{index} * kMcastChunkPayload,
           bytes},
      };
      // A failed send is indistinguishable from wire loss to the
      // receivers; the NACK/repair layer owns recovery, so the status is
      // advisory.
      (void)socket_.SendScattered({iov, bytes > 0 ? size_t{2} : size_t{1}});
    }
  }
}

bool McastGroupSender::LookupFrame(uint64_t seq,
                                   std::shared_ptr<const uint8_t[]>* payload,
                                   uint32_t* size) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Pinned& pin : ring_) {
    if (pin.seq == seq) {
      *payload = pin.payload;
      *size = pin.size;
      return true;
    }
  }
  return false;
}

std::vector<rsf::net::OutFrame> McastGroupSender::CollectInlineSince(
    uint64_t from_seq, uint64_t* missing) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<rsf::net::OutFrame> frames;
  uint64_t oldest_pinned = next_seq_ + 1;
  if (!ring_.empty()) oldest_pinned = ring_.front().seq;
  // Seqs newer than the subscriber's contiguous point but older than the
  // ring are unrecoverable for it — real per-subscriber losses.
  *missing = oldest_pinned > from_seq + 1 ? oldest_pinned - from_seq - 1 : 0;
  for (const Pinned& pin : ring_) {
    if (pin.seq <= from_seq) continue;
    frames.push_back({pin.payload, pin.size});
  }
  return frames;
}

// ---- McastRxEngine ----

McastRxEngine::McastRxEngine(uint64_t first_seq, uint64_t nack_delay_nanos,
                             Hooks hooks)
    : contig_(first_seq == 0 ? 0 : first_seq - 1),
      max_seen_(contig_),
      last_acked_(contig_),
      nack_delay_(nack_delay_nanos),
      hooks_(std::move(hooks)) {}

uint8_t* McastRxEngine::ChunkDestination(const McastChunkHeader& header) {
  const uint64_t seq = header.seq;
  if (seq <= contig_ || resolved_ahead_.count(seq) != 0) return nullptr;

  auto it = partials_.find(seq);
  if (it != partials_.end()) {
    Partial& partial = it->second;
    if (partial.frame_len != header.frame_len ||
        partial.count != header.count) {
      return nullptr;  // geometry disagrees with the first-seen chunk
    }
    if (partial.have[header.index]) return nullptr;  // duplicate chunk
    return partial.data + uint64_t{header.index} * kMcastChunkPayload;
  }

  uint8_t* data = hooks_.alloc(seq, header.frame_len);
  if (data == nullptr) {
    // The owner couldn't stage a buffer — give this message up rather than
    // stall the stream behind it.
    ResolveGone(seq);
    return nullptr;
  }
  Partial partial;
  partial.frame_len = header.frame_len;
  partial.count = header.count;
  partial.have.assign(header.count, false);
  partial.data = data;
  partials_.emplace(seq, std::move(partial));
  return data + uint64_t{header.index} * kMcastChunkPayload;
}

void McastRxEngine::CommitChunk(const McastChunkHeader& header) {
  const uint64_t seq = header.seq;
  auto it = partials_.find(seq);
  if (it == partials_.end()) return;  // never staged (stale/rejected)
  Partial& partial = it->second;
  if (partial.have[header.index]) return;
  partial.have[header.index] = true;
  ++partial.received;

  // A forward jump exposes wholly-missed seqs immediately — NACK them now
  // instead of waiting for the idle timer (the common single-datagram-loss
  // case repairs within one publisher round trip).
  if (seq > max_seen_ + 1) NackRange(max_seen_ + 1, seq - 1);
  if (seq > max_seen_) max_seen_ = seq;

  if (partial.received == partial.count) {
    const uint32_t frame_len = partial.frame_len;
    partials_.erase(it);
    hooks_.complete(seq, frame_len);
    Resolve(seq);
  }
  if (has_gaps()) ArmTimer();
}

void McastRxEngine::OnRepair(uint64_t seq, const uint8_t* frame,
                             uint32_t frame_len) {
  if (seq <= contig_ || resolved_ahead_.count(seq) != 0) return;
  if (seq > max_seen_) max_seen_ = seq;
  if (frame_len == 0) {
    // "Gone": the seq fell off the publisher's repair ring.
    auto it = partials_.find(seq);
    if (it != partials_.end()) {
      partials_.erase(it);
      hooks_.abandon(seq);
    }
    ResolveGone(seq);
    return;
  }
  auto it = partials_.find(seq);
  if (it != partials_.end() && it->second.frame_len == frame_len) {
    std::memcpy(it->second.data, frame, frame_len);
    partials_.erase(it);
  } else {
    if (it != partials_.end()) {
      // Geometry mismatch with what we staged — trust the repair.
      partials_.erase(it);
      hooks_.abandon(seq);
    }
    uint8_t* data = hooks_.alloc(seq, frame_len);
    if (data == nullptr) {
      ResolveGone(seq);
      return;
    }
    std::memcpy(data, frame, frame_len);
  }
  hooks_.complete(seq, frame_len);
  Resolve(seq);
}

void McastRxEngine::OnNackTimer() {
  timer_armed_ = false;
  if (!has_gaps()) return;
  // Walk the open window: every unresolved seq is either a partial (tail
  // chunks lost) or wholly missing; both want a whole-frame repair.
  uint64_t range_lo = 0;
  bool in_range = false;
  std::vector<uint64_t> give_up;
  for (uint64_t seq = contig_ + 1; seq <= max_seen_; ++seq) {
    if (resolved_ahead_.count(seq) != 0) {
      if (in_range) {
        NackRange(range_lo, seq - 1);
        in_range = false;
      }
      continue;
    }
    if (++nack_attempts_[seq] > kMcastNackRetryLimit) {
      give_up.push_back(seq);
      if (in_range) {
        NackRange(range_lo, seq - 1);
        in_range = false;
      }
      continue;
    }
    if (!in_range) {
      range_lo = seq;
      in_range = true;
    }
  }
  if (in_range) NackRange(range_lo, max_seen_);
  for (const uint64_t seq : give_up) {
    auto it = partials_.find(seq);
    if (it != partials_.end()) {
      partials_.erase(it);
      hooks_.abandon(seq);
    }
    ResolveGone(seq);
  }
  if (has_gaps()) ArmTimer();
}

void McastRxEngine::Resolve(uint64_t seq) {
  if (seq <= contig_) return;
  resolved_ahead_.emplace(seq, true);
  while (true) {
    auto next = resolved_ahead_.find(contig_ + 1);
    if (next == resolved_ahead_.end()) break;
    resolved_ahead_.erase(next);
    ++contig_;
    nack_attempts_.erase(contig_);
  }
  if (contig_ - last_acked_ >= kMcastAckInterval) {
    last_acked_ = contig_;
    hooks_.send_control(McastControlKind::kAck, contig_, 0);
  }
}

void McastRxEngine::ResolveGone(uint64_t seq) {
  ++abandoned_total_;
  Resolve(seq);
}

void McastRxEngine::NackRange(uint64_t lo, uint64_t hi) {
  if (hi < lo) return;
  if (hi - lo + 1 > kMcastMaxNackSpan) {
    // Anything this far back is beyond any plausible repair ring; resolve
    // it as gone locally instead of asking.
    const uint64_t clamped_lo = hi - kMcastMaxNackSpan + 1;
    for (uint64_t seq = lo; seq < clamped_lo; ++seq) {
      if (resolved_ahead_.count(seq) != 0) continue;
      auto it = partials_.find(seq);
      if (it != partials_.end()) {
        partials_.erase(it);
        hooks_.abandon(seq);
      }
      ResolveGone(seq);
    }
    lo = clamped_lo;
  }
  hooks_.send_control(McastControlKind::kNack, lo, hi);
}

void McastRxEngine::ArmTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  hooks_.schedule(nack_delay_, [this] { OnNackTimer(); });
}

}  // namespace ros
