#include "sfm/shm_pool.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <random>
#include <vector>

#include "common/log.h"

namespace sfm::shm {
namespace {

// Geometry: segments hold a handful of blocks of ONE size class, so the
// free/retired bookkeeping stays trivial and a class that stops being used
// wastes at most one segment.  The byte cap mirrors the heap ArenaPool's.
constexpr size_t kTargetSegmentBytes = 16ull * 1024 * 1024;
constexpr size_t kMinBlocksPerSegment = 2;
constexpr size_t kMaxBlocksPerSegment = 32;
constexpr size_t kMaxPoolBytes = 512ull * 1024 * 1024;
constexpr uint32_t kMaxBlockCount = 4096;  // attach-side sanity bound

enum class BlockState : uint8_t { kFree, kLive, kRetired };

struct Segment {
  std::string name;  // shm_open name, with leading '/'
  uint64_t pool_id = 0;
  uint8_t* base = nullptr;
  size_t bytes = 0;
  size_t cls = 0;
  uint32_t count = 0;
  BlockCtl* ctl = nullptr;
  uint8_t* data = nullptr;
  std::vector<BlockState> state;
  std::vector<uint32_t> free_list;

  [[nodiscard]] const SegmentHeader& header() const noexcept {
    return *reinterpret_cast<const SegmentHeader*>(base);
  }
};

struct PeerSlot {
  enum class State : uint8_t { kFree, kActive, kDraining };
  State state = State::kFree;
  pid_t pid = 0;
};

struct ShmPool {
  std::mutex mutex;
  std::vector<Segment> segments;
  PeerSlot slots[kMaxPeers];
  uint64_t next_pool_id = 0;
  size_t mapped_bytes = 0;
  uint64_t blocks_reclaimed = 0;
  uint64_t gen_fence_rejections = 0;
};

ShmPool& Pool() {
  static auto* pool = new ShmPool();  // leaked: outlives all arenas
  return *pool;
}

// One-load fast path for PooledDeleter: most processes never map a segment.
std::atomic<bool> g_has_segments{false};
std::atomic<bool> g_peer_negotiated{false};

bool PidDead(pid_t pid) noexcept {
  return pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH;
}

bool EnvTruthy(const char* value) noexcept {
  return value != nullptr &&
         (std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0 ||
          std::strcmp(value, "on") == 0 || std::strcmp(value, "yes") == 0);
}

size_t AlignUp(size_t value, size_t align) noexcept {
  return (value + align - 1) & ~(align - 1);
}

void UnlinkOwnSegments() {
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  for (const Segment& segment : pool.segments) {
    ::shm_unlink(segment.name.c_str());
  }
}

std::string MakeNamespace() {
  std::random_device rd;
  const uint64_t token =
      (static_cast<uint64_t>(rd()) << 32) | static_cast<uint64_t>(rd());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rsf.%d.%llx", ::getpid(),
                static_cast<unsigned long long>(token));
  return buf;
}

/// Recycle protocol (caller holds the pool mutex): a retired block may be
/// reused only when no peer holds a reference — checked once, then FENCED
/// with a generation bump, then checked again.  seq_cst on both sides: a
/// reader that incremented refs concurrently either did so before our
/// first check (we see it, abort), or races the bump — then our recheck
/// sees its increment OR its generation check sees our bump; both sides
/// observing "no conflict" is a store-buffer outcome seq_cst forbids.
bool TryRecycleLocked(ShmPool& pool, Segment& segment, uint32_t index) {
  if (segment.state[index] != BlockState::kRetired) return false;
  BlockCtl* ctl = segment.ctl + index;
  for (size_t s = 0; s < kMaxPeers; ++s) {
    if (ctl->refs[s].load(std::memory_order_seq_cst) != 0) return false;
  }
  ctl->gen.fetch_add(1, std::memory_order_seq_cst);
  for (size_t s = 0; s < kMaxPeers; ++s) {
    if (ctl->refs[s].load(std::memory_order_seq_cst) != 0) {
      // A reader raced in between the check and the fence; it will see the
      // new generation and back out, after which a later recycle succeeds.
      ++pool.gen_fence_rejections;
      return false;
    }
  }
  segment.state[index] = BlockState::kFree;
  segment.free_list.push_back(index);
  return true;
}

size_t RecycleRetiredLocked(ShmPool& pool) {
  size_t recycled = 0;
  for (Segment& segment : pool.segments) {
    for (uint32_t i = 0; i < segment.count; ++i) {
      if (TryRecycleLocked(pool, segment, i)) ++recycled;
    }
  }
  return recycled;
}

bool SlotDrainedLocked(const ShmPool& pool, int slot) {
  for (const Segment& segment : pool.segments) {
    for (uint32_t i = 0; i < segment.count; ++i) {
      if (segment.ctl[i].refs[slot].load(std::memory_order_seq_cst) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Force-clears a dead peer's refcount column and reclaims any retired
/// blocks that drop to zero because of it.  Only ever called for a pid
/// that no longer exists — a dead process cannot be mid-read.
size_t ForceClearSlotLocked(ShmPool& pool, int slot) {
  size_t reclaimed = 0;
  for (Segment& segment : pool.segments) {
    for (uint32_t i = 0; i < segment.count; ++i) {
      BlockCtl* ctl = segment.ctl + i;
      if (ctl->refs[slot].load(std::memory_order_seq_cst) != 0) {
        ctl->refs[slot].store(0, std::memory_order_seq_cst);
        if (TryRecycleLocked(pool, segment, i)) ++reclaimed;
      }
    }
  }
  pool.slots[slot] = PeerSlot{};
  pool.blocks_reclaimed += reclaimed;
  return reclaimed;
}

size_t SweepDeadPeersLocked(ShmPool& pool) {
  size_t reclaimed = 0;
  for (size_t slot = 0; slot < kMaxPeers; ++slot) {
    if (pool.slots[slot].state != PeerSlot::State::kFree &&
        PidDead(pool.slots[slot].pid)) {
      RSF_WARN("shm peer pid %d died; reclaiming its block references",
               static_cast<int>(pool.slots[slot].pid));
      reclaimed += ForceClearSlotLocked(pool, static_cast<int>(slot));
    }
  }
  return reclaimed;
}

Segment* CreateSegmentLocked(ShmPool& pool, size_t cls) {
  const size_t want = kTargetSegmentBytes / cls;
  const uint32_t count = static_cast<uint32_t>(
      std::min(kMaxBlocksPerSegment, std::max(kMinBlocksPerSegment, want)));
  const size_t ctl_offset = AlignUp(sizeof(SegmentHeader), alignof(BlockCtl));
  const size_t data_offset =
      AlignUp(ctl_offset + count * sizeof(BlockCtl), 4096);
  const size_t bytes = data_offset + count * cls;
  if (pool.mapped_bytes + bytes > kMaxPoolBytes) return nullptr;

  const uint64_t pool_id = pool.next_pool_id++;
  const std::string name =
      "/" + Namespace() + "." + std::to_string(pool_id);
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    RSF_WARN("shm_open(%s) failed: %s — shm tier falls back to the heap",
             name.c_str(), std::strerror(errno));
    return nullptr;
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    RSF_WARN("ftruncate(%s, %zu) failed: %s", name.c_str(), bytes,
             std::strerror(errno));
    ::close(fd);
    ::shm_unlink(name.c_str());
    return nullptr;
  }
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                      0);
  ::close(fd);
  if (base == MAP_FAILED) {
    RSF_WARN("mmap(%s) failed: %s", name.c_str(), std::strerror(errno));
    ::shm_unlink(name.c_str());
    return nullptr;
  }

  Segment segment;
  segment.name = name;
  segment.pool_id = pool_id;
  segment.base = static_cast<uint8_t*>(base);
  segment.bytes = bytes;
  segment.cls = cls;
  segment.count = count;
  segment.ctl =
      reinterpret_cast<BlockCtl*>(segment.base + ctl_offset);
  segment.data = segment.base + data_offset;
  segment.state.assign(count, BlockState::kFree);
  segment.free_list.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    new (segment.ctl + i) BlockCtl();  // zero-initialized control words
    segment.free_list.push_back(count - 1 - i);  // hand out low indices first
  }
  auto* header = new (segment.base) SegmentHeader();
  header->magic = kSegmentMagic;
  header->version = kSegmentVersion;
  header->pool_id = pool_id;
  header->segment_bytes = bytes;
  header->block_class = cls;
  header->block_count = count;
  header->owner_pid = static_cast<int32_t>(::getpid());
  header->ctl_offset = ctl_offset;
  header->data_offset = data_offset;

  pool.mapped_bytes += bytes;
  pool.segments.push_back(std::move(segment));
  g_has_segments.store(true, std::memory_order_release);
  return &pool.segments.back();
}

Segment* FindByAddressLocked(ShmPool& pool, const uint8_t* addr) {
  for (Segment& segment : pool.segments) {
    if (addr >= segment.data && addr < segment.base + segment.bytes) {
      return &segment;
    }
  }
  return nullptr;
}

}  // namespace

bool Enabled() noexcept {
  return EnvTruthy(std::getenv("RSF_TRANSPORT_SHM"));
}

size_t ThresholdBytes() noexcept {
  if (const char* env = std::getenv("RSF_SHM_THRESHOLD")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env) return static_cast<size_t>(parsed);
  }
  return 64 * 1024;
}

const std::string& Namespace() {
  static const std::string* ns = [] {
    (void)SweepStaleSegments();
    auto* fresh = new std::string(MakeNamespace());
    // Normal-exit hygiene: crash cleanup is the stale sweep above, run by
    // the NEXT publisher on this host.
    std::atexit(UnlinkOwnSegments);
    return fresh;
  }();
  return *ns;
}

void NotePeerNegotiated() noexcept {
  g_peer_negotiated.store(true, std::memory_order_release);
}

bool PeersEverNegotiated() noexcept {
  return g_peer_negotiated.load(std::memory_order_acquire);
}

size_t SweepStaleSegments() {
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return 0;
  const pid_t self = ::getpid();
  size_t removed = 0;
  while (dirent* entry = ::readdir(dir)) {
    const char* name = entry->d_name;
    if (std::strncmp(name, "rsf.", 4) != 0) continue;
    char* end = nullptr;
    const long pid = std::strtol(name + 4, &end, 10);
    if (end == name + 4 || *end != '.' || pid <= 0 ||
        static_cast<pid_t>(pid) == self || !PidDead(static_cast<pid_t>(pid))) {
      continue;
    }
    const std::string path = "/" + std::string(name);
    if (::shm_unlink(path.c_str()) == 0) {
      RSF_INFO("removed stale shm segment %s (owner pid %ld is dead)",
               name, pid);
      ++removed;
    }
  }
  ::closedir(dir);
  return removed;
}

uint8_t* TryAcquire(size_t cls) {
  // Runs on every publisher Allocate: the atomic flag and the class come
  // first, so a process no shm peer ever negotiated with reads no env.
  if (!PeersEverNegotiated() || !std::has_single_bit(cls)) return nullptr;
  if (!Enabled() || cls < ThresholdBytes()) return nullptr;
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);

  const auto pop_free = [&]() -> uint8_t* {
    for (Segment& segment : pool.segments) {
      if (segment.cls != cls || segment.free_list.empty()) continue;
      const uint32_t index = segment.free_list.back();
      segment.free_list.pop_back();
      segment.state[index] = BlockState::kLive;
      return segment.data + static_cast<size_t>(index) * cls;
    }
    return nullptr;
  };

  if (uint8_t* block = pop_free()) return block;
  // Allocation pressure: drain retired blocks, then sweep dead peers —
  // a SIGKILLed subscriber must never wedge the pool.
  (void)RecycleRetiredLocked(pool);
  if (uint8_t* block = pop_free()) return block;
  if (SweepDeadPeersLocked(pool) > 0) {
    if (uint8_t* block = pop_free()) return block;
  }
  if (CreateSegmentLocked(pool, cls) != nullptr) {
    if (uint8_t* block = pop_free()) return block;
  }
  return nullptr;  // byte cap or syscall failure: heap fallback
}

bool ReleaseIfOwned(uint8_t* block) noexcept {
  if (!g_has_segments.load(std::memory_order_acquire)) return false;
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  Segment* segment = FindByAddressLocked(pool, block);
  if (segment == nullptr) return false;
  const size_t offset = static_cast<size_t>(block - segment->data);
  const uint32_t index = static_cast<uint32_t>(offset / segment->cls);
  if (offset % segment->cls != 0 ||
      segment->state[index] != BlockState::kLive) {
    RSF_ERROR("shm release of unrecognized block %p (index %u)",
              static_cast<void*>(block), index);
    return true;  // shm-owned either way: never let the heap free it
  }
  segment->state[index] = BlockState::kRetired;
  // Fast path: no peer ever referenced it (or all already released) —
  // straight back to the free list.
  (void)TryRecycleLocked(pool, *segment, index);
  return true;
}

std::optional<Descriptor> PreparePublish(const uint8_t* data, size_t length,
                                         uint64_t seq) {
  if (!g_has_segments.load(std::memory_order_acquire)) return std::nullopt;
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  Segment* segment = FindByAddressLocked(pool, data);
  if (segment == nullptr) return std::nullopt;
  const size_t offset = static_cast<size_t>(data - segment->data);
  const uint32_t index = static_cast<uint32_t>(offset / segment->cls);
  if (offset % segment->cls != 0 || length > segment->cls ||
      segment->state[index] != BlockState::kLive) {
    return std::nullopt;
  }
  BlockCtl* ctl = segment->ctl + index;
  Descriptor descriptor;
  descriptor.pool_id = segment->pool_id;
  descriptor.block_index = index;
  // The publisher's live holder pins the block (PooledDeleter hasn't run),
  // so gen cannot move between this read and the subscriber's check unless
  // the descriptor outlives the pin — exactly what the fence is for.
  descriptor.gen = ctl->gen.load(std::memory_order_seq_cst);
  descriptor.offset = segment->header().data_offset +
                      static_cast<uint64_t>(index) * segment->cls;
  descriptor.length = length;
  descriptor.seq = seq;
  // The release edge ordering the payload bytes (written before Publish)
  // before the subscriber's acquire load of the stamp.
  ctl->stamp.store(seq, std::memory_order_seq_cst);
  return descriptor;
}

int AcquirePeerSlot(pid_t peer_pid) {
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  for (size_t s = 0; s < kMaxPeers; ++s) {
    if (pool.slots[s].state == PeerSlot::State::kFree) {
      pool.slots[s] = {PeerSlot::State::kActive, peer_pid};
      return static_cast<int>(s);
    }
  }
  // No virgin slot: reap draining slots whose owner died or fully drained.
  for (size_t s = 0; s < kMaxPeers; ++s) {
    if (pool.slots[s].state != PeerSlot::State::kDraining) continue;
    if (PidDead(pool.slots[s].pid)) {
      (void)ForceClearSlotLocked(pool, static_cast<int>(s));
    } else if (!SlotDrainedLocked(pool, static_cast<int>(s))) {
      continue;
    }
    pool.slots[s] = {PeerSlot::State::kActive, peer_pid};
    return static_cast<int>(s);
  }
  return -1;
}

void ReleasePeerSlot(int slot, pid_t peer_pid) {
  if (slot < 0 || static_cast<size_t>(slot) >= kMaxPeers) return;
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  PeerSlot& entry = pool.slots[slot];
  if (entry.state != PeerSlot::State::kActive || entry.pid != peer_pid) {
    return;  // stale release: the slot moved on (swept and reassigned)
  }
  if (PidDead(peer_pid)) {
    (void)ForceClearSlotLocked(pool, slot);
    return;
  }
  // The peer process is alive and may still hold message references; the
  // slot drains (its RefTokens decrement through the shared mapping) and
  // becomes reusable once every column entry is zero.
  entry.state = PeerSlot::State::kDraining;
  (void)RecycleRetiredLocked(pool);
  if (SlotDrainedLocked(pool, slot)) entry = PeerSlot{};
}

size_t SweepDeadPeers() {
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  return SweepDeadPeersLocked(pool);
}

size_t RecycleRetired() {
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  return RecycleRetiredLocked(pool);
}

PoolStats GetPoolStats() {
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  PoolStats stats;
  stats.segments = pool.segments.size();
  stats.mapped_bytes = pool.mapped_bytes;
  for (const Segment& segment : pool.segments) {
    stats.total_blocks += segment.count;
    for (uint32_t i = 0; i < segment.count; ++i) {
      switch (segment.state[i]) {
        case BlockState::kFree: ++stats.free_blocks; break;
        case BlockState::kLive: ++stats.live_blocks; break;
        case BlockState::kRetired: ++stats.retired_blocks; break;
      }
    }
  }
  for (const PeerSlot& slot : pool.slots) {
    if (slot.state == PeerSlot::State::kActive) ++stats.active_peer_slots;
  }
  stats.blocks_reclaimed = pool.blocks_reclaimed;
  stats.gen_fence_rejections = pool.gen_fence_rejections;
  return stats;
}

SegmentView::~SegmentView() { ::munmap(base_, bytes_); }

rsf::Result<std::shared_ptr<SegmentView>> AttachSegment(const std::string& ns,
                                                        uint64_t pool_id) {
  const std::string name = "/" + ns + "." + std::to_string(pool_id);
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
  if (fd < 0) {
    return rsf::UnavailableError("shm_open(" + name +
                                 "): " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      st.st_size < static_cast<off_t>(sizeof(SegmentHeader))) {
    ::close(fd);
    return rsf::OutOfRangeError("shm segment " + name + " too small");
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return rsf::UnavailableError("mmap(" + name +
                                 "): " + std::strerror(errno));
  }
  auto view =
      std::make_shared<SegmentView>(static_cast<uint8_t*>(base), bytes);
  const SegmentHeader& header = view->header();
  const auto reject = [&](const std::string& why) {
    return rsf::FailedPreconditionError("shm segment " + name + ": " + why);
  };
  if (header.magic != kSegmentMagic) return reject("bad magic");
  if (header.version != kSegmentVersion) {
    return reject("pool version " + std::to_string(header.version) +
                  " != " + std::to_string(kSegmentVersion));
  }
  if (header.pool_id != pool_id) return reject("pool id mismatch");
  if (header.segment_bytes != bytes) return reject("size mismatch");
  if (header.block_count == 0 || header.block_count > kMaxBlockCount) {
    return reject("implausible block count");
  }
  if (header.block_class == 0 ||
      !std::has_single_bit(header.block_class)) {
    return reject("block class not a power of two");
  }
  if (header.ctl_offset < sizeof(SegmentHeader) ||
      header.ctl_offset % alignof(BlockCtl) != 0 ||
      header.ctl_offset + header.block_count * sizeof(BlockCtl) >
          header.data_offset) {
    return reject("control array out of bounds");
  }
  if (header.data_offset > bytes ||
      header.block_count * header.block_class > bytes - header.data_offset) {
    return reject("blocks out of bounds");
  }
  return view;
}

void ResetPoolForTest() {
  ShmPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  for (Segment& segment : pool.segments) {
    ::munmap(segment.base, segment.bytes);
    ::shm_unlink(segment.name.c_str());
  }
  pool.segments.clear();
  pool.mapped_bytes = 0;
  pool.blocks_reclaimed = 0;
  pool.gen_fence_rejections = 0;
  for (PeerSlot& slot : pool.slots) slot = PeerSlot{};
  g_has_segments.store(false, std::memory_order_release);
  g_peer_negotiated.store(false, std::memory_order_release);
}

}  // namespace sfm::shm
