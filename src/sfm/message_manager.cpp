#include "sfm/message_manager.h"

#include <bit>
#include <cstring>
#include <limits>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "sfm/alert.h"
#include "sfm/shm_pool.h"

namespace sfm {
namespace {

size_t AlignUp(size_t value, size_t align) noexcept {
  return (value + align - 1) & ~(align - 1);
}

std::mutex g_capacity_mutex;
// Transparent comparator: lookups by string_view build no std::string.
std::map<std::string, size_t, std::less<>>& CapacityOverrides() {
  static std::map<std::string, size_t, std::less<>> overrides;
  return overrides;
}
// Set, under g_capacity_mutex, by the first SetArenaCapacity and never
// cleared: until then every lookup takes the default without the lock.
std::atomic<bool> g_capacity_overridden{false};

// ---- arena block pool ----
//
// Blocks are recycled by power-of-two size class (ArenaBlockClassSize), so
// near-miss capacities share a bucket.  Bounded so pathological capacity
// mixes cannot hoard memory; beyond the bound, blocks fall back to the
// heap.
constexpr size_t kMaxPoolBytes = 512ull * 1024 * 1024;
constexpr size_t kMaxBlocksPerCapacity = 8;

struct ArenaPool {
  std::mutex mutex;
  std::map<size_t, std::vector<uint8_t*>> free_blocks;
  // Blocks of each class currently out with a caller (deleter not yet run),
  // heap- and shm-backed alike — the leak-detection side of the snapshot.
  std::map<size_t, size_t> live_counts;
  size_t bytes = 0;

  ~ArenaPool() {
    for (auto& [capacity, blocks] : free_blocks) {
      for (uint8_t* block : blocks) delete[] block;
    }
  }
};

ArenaPool& Pool() {
  static auto* pool = new ArenaPool();  // leaked: outlives all arenas
  return *pool;
}

void NoteBlockDead(ArenaPool& pool, size_t cls) {
  const auto it = pool.live_counts.find(cls);
  if (it != pool.live_counts.end() && it->second > 0) --it->second;
}

}  // namespace

void PooledDeleter::operator()(uint8_t* block) const noexcept {
  if (block == nullptr) return;
  ArenaPool& pool = Pool();
  // Shm-backed blocks go back to their segment's free list (the cross-
  // process release/recycle protocol lives there); the heap pool only ever
  // sees heap pointers.  One relaxed load when no segment exists.
  if (shm::ReleaseIfOwned(block)) {
    std::lock_guard<std::mutex> lock(pool.mutex);
    NoteBlockDead(pool, capacity);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    NoteBlockDead(pool, capacity);
    auto& blocks = pool.free_blocks[capacity];
    if (blocks.size() < kMaxBlocksPerCapacity &&
        pool.bytes + capacity <= kMaxPoolBytes) {
      blocks.push_back(block);
      pool.bytes += capacity;
      return;
    }
  }
  delete[] block;
}

size_t ArenaBlockClassSize(size_t capacity) noexcept {
  // Floor keeps tiny arenas from fragmenting the pool into dozens of
  // classes; the pow2 ceiling at most doubles a request, which the
  // kMaxPoolBytes bound already accommodates.
  constexpr size_t kMinClass = 256;
  if (capacity <= kMinClass) return kMinClass;
  if (capacity > (std::numeric_limits<size_t>::max() >> 1)) return capacity;
  return std::bit_ceil(capacity);
}

PooledBlock AcquireArenaBlock(size_t capacity) {
  return AcquireArenaBlock(capacity, /*shareable=*/false);
}

PooledBlock AcquireArenaBlock(size_t capacity, bool shareable) {
  const size_t cls = ArenaBlockClassSize(capacity);
  ArenaPool& pool = Pool();
  if (shareable) {
    // Above-threshold publisher arenas land in shared memory when the tier
    // is on and a subscriber negotiated it; TryAcquire declines otherwise
    // and the heap path below is byte-identical to the pre-shm behavior.
    if (uint8_t* block = shm::TryAcquire(cls)) {
      std::lock_guard<std::mutex> lock(pool.mutex);
      ++pool.live_counts[cls];
      return PooledBlock(block, PooledDeleter{cls});
    }
  }
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    ++pool.live_counts[cls];
    const auto it = pool.free_blocks.find(cls);
    if (it != pool.free_blocks.end() && !it->second.empty()) {
      uint8_t* block = it->second.back();
      it->second.pop_back();
      pool.bytes -= cls;
      return PooledBlock(block, PooledDeleter{cls});
    }
  }
  return PooledBlock(new uint8_t[cls], PooledDeleter{cls});
}

size_t ArenaPoolBytes() {
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  return pool.bytes;
}

void TrimArenaPool() {
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  for (auto& [capacity, blocks] : pool.free_blocks) {
    for (uint8_t* block : blocks) delete[] block;
  }
  pool.free_blocks.clear();
  pool.bytes = 0;
}

std::vector<ArenaPoolClassStats> ArenaPoolSnapshot() {
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  std::map<size_t, ArenaPoolClassStats> by_class;
  for (const auto& [cls, blocks] : pool.free_blocks) {
    by_class[cls].class_size = cls;
    by_class[cls].pooled = blocks.size();
  }
  for (const auto& [cls, live] : pool.live_counts) {
    by_class[cls].class_size = cls;
    by_class[cls].live = live;
  }
  std::vector<ArenaPoolClassStats> snapshot;
  snapshot.reserve(by_class.size());
  for (const auto& [cls, stats] : by_class) snapshot.push_back(stats);
  return snapshot;
}

const char* MessageStateName(MessageState state) noexcept {
  switch (state) {
    case MessageState::kAllocated:
      return "Allocated";
    case MessageState::kPublished:
      return "Published";
  }
  return "?";
}

MessageManager::ThreadRecordCache& MessageManager::Cache() noexcept {
  static thread_local ThreadRecordCache cache;
  return cache;
}

MessageManager::~MessageManager() {
  // Records still registered at destruction (leaked messages) may be parked
  // in some thread's cache; clearing `live` keeps such an entry from
  // validating against a later manager or arena at the same address.
  std::unique_lock<std::shared_mutex> lock(index_mutex_);
  for (auto& [key, record] : records_) {
    record->live.store(false, std::memory_order_release);
  }
}

uint8_t* MessageManager::Insert(uint8_t* start, size_t capacity, size_t size,
                                MessageState state,
                                std::shared_ptr<uint8_t[]> buffer,
                                const char* datatype) {
  auto record = std::make_shared<Record>();
  record->start = start;
  record->capacity = capacity;
  record->size.store(size, std::memory_order_relaxed);
  record->state.store(state, std::memory_order_relaxed);
  record->buffer = std::move(buffer);
  record->datatype = datatype;
  std::unique_lock<std::shared_mutex> lock(index_mutex_);
  records_.emplace(reinterpret_cast<uintptr_t>(start), std::move(record));
  return start;
}

void* MessageManager::Allocate(const char* datatype, size_t capacity,
                               size_t skeleton_size) {
  SFM_CHECK_MSG(skeleton_size <= capacity,
                "arena capacity smaller than message skeleton");
  // All publisher-side arenas are shareable candidates: whether one lands
  // in shared memory is decided entirely inside the shm pool (tier enabled,
  // peer negotiated, class above threshold).
  PooledBlock pooled = AcquireArenaBlock(capacity, /*shareable=*/true);
  // Copy the deleter: it carries the pool's size class, which may exceed
  // the requested capacity (power-of-two rounding).
  const PooledDeleter deleter = pooled.get_deleter();
  auto block = std::shared_ptr<uint8_t[]>(pooled.release(), deleter);
  uint8_t* start = block.get();
  std::memset(start, 0, skeleton_size);  // before registration: no lock held

  Insert(start, capacity, skeleton_size, MessageState::kAllocated,
         std::move(block), datatype);
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

bool MessageManager::Release(void* start) {
  std::shared_ptr<uint8_t[]> doomed;  // freed after the lock is dropped
  {
    std::unique_lock<std::shared_mutex> lock(index_mutex_);
    const auto it = records_.find(reinterpret_cast<uintptr_t>(start));
    if (it == records_.end()) return false;
    Record& record = *it->second;
    // Order matters for lock-free cache validation: clear `live` first so a
    // parked cache entry can never validate once the buffer is gone.
    record.live.store(false, std::memory_order_release);
    doomed = std::move(record.buffer);
    records_.erase(it);
  }
  releases_.fetch_add(1, std::memory_order_relaxed);
  // Erasing the record dropped the manager's buffer pointer; `doomed` dies
  // here and the block is freed (or pooled) once any in-flight transport
  // references die — outside the index lock either way.
  return true;
}

std::shared_ptr<MessageManager::Record> MessageManager::FindInIndex(
    const void* addr) const {
  const auto key = reinterpret_cast<uintptr_t>(addr);
  auto it = records_.upper_bound(key);
  if (it == records_.begin()) return nullptr;
  --it;
  if (key >= it->first + it->second->capacity) return nullptr;
  return it->second;
}

void* MessageManager::Expand(const void* field_addr, size_t bytes,
                             size_t align) {
  SFM_CHECK_MSG(align != 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
  const auto key = reinterpret_cast<uintptr_t>(field_addr);

  // Fast path: the thread's cached record still covers this address and is
  // still live — no lock, no search.  The shared_ptr guarantees the Record
  // struct outlives any concurrent Release; `live` (cleared under the
  // writer lock before the buffer is dropped) guarantees we never grant
  // space in a freed arena.
  ThreadRecordCache& cache = Cache();
  Record* record = nullptr;
  if (cache.manager == this && key >= cache.start &&
      key < cache.start + cache.capacity &&
      cache.record->live.load(std::memory_order_acquire)) {
    record = cache.record.get();
  } else {
    std::shared_lock<std::shared_mutex> lock(index_mutex_);
    std::shared_ptr<Record> found = FindInIndex(field_addr);
    if (found == nullptr) {
      RaiseAlert(
          Violation::kUnmanagedMessage,
          "an sfm field requested memory but its message is not "
          "arena-allocated; declare the message on the heap (the ROS-SF "
          "Converter rewrites stack declarations automatically)");
      return nullptr;  // unreachable: kUnmanagedMessage always throws
    }
    cache.manager = this;
    cache.start = reinterpret_cast<uintptr_t>(found->start);
    cache.capacity = found->capacity;
    cache.record = std::move(found);
    record = cache.record.get();
  }

  // Reserve [aligned_end, aligned_end + bytes) with a CAS bump: concurrent
  // expanders of the same message get disjoint regions, and expanders of
  // different messages never touch the same lock or cache line.
  size_t old_size = record->size.load(std::memory_order_relaxed);
  size_t aligned_end;
  do {
    aligned_end = AlignUp(old_size, align);
    if (aligned_end + bytes > record->capacity) {
      RaiseAlert(Violation::kArenaOverflow,
                 "whole message for " + std::string(record->datatype) +
                     " would grow to " + std::to_string(aligned_end + bytes) +
                     " bytes, over the arena capacity of " +
                     std::to_string(record->capacity) +
                     "; raise it in the IDL (@arena_capacity) or via "
                     "sfm::SetArenaCapacity()");
      return nullptr;  // unreachable: kArenaOverflow always throws
    }
  } while (!record->size.compare_exchange_weak(
      old_size, aligned_end + bytes, std::memory_order_acq_rel,
      std::memory_order_relaxed));

  // Zero the granted region outside any lock: it was exclusively reserved
  // above, and the arena block cannot disappear while the caller
  // legitimately owns the message it is expanding.
  uint8_t* out = record->start + aligned_end;
  std::memset(out, 0, bytes);
  expansions_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::optional<BufferRef> MessageManager::Publish(const void* start) {
  const auto key = reinterpret_cast<uintptr_t>(start);

  // Fast path: the publishing thread's cached record IS this message (the
  // overwhelmingly common shape — the thread that filled the message, whose
  // Expands primed the cache, is the thread that publishes it).  Publish
  // requires the record START, so the hit test is exact-key, not range.
  // Reading `buffer` without the index lock is safe for the same reason
  // Expand's arena writes are: only Release moves the buffer out, and
  // releasing a message while another thread is still publishing it is a
  // use-after-free in the caller (see the ownership rule in the header).
  ThreadRecordCache& cache = Cache();
  if (cache.manager == this && key == cache.start &&
      cache.record->live.load(std::memory_order_acquire)) {
    Record& record = *cache.record;
    record.state.store(MessageState::kPublished, std::memory_order_release);
    publishes_.fetch_add(1, std::memory_order_relaxed);
    return BufferRef{std::shared_ptr<const uint8_t[]>(record.buffer),
                     record.size.load(std::memory_order_acquire)};
  }

  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  Record& record = *it->second;
  record.state.store(MessageState::kPublished, std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  // Copying `record.buffer` is safe under the shared lock: the shared_ptr
  // object itself is immutable after insertion (only Release moves it out,
  // under the writer lock), and control-block refcounting is atomic.
  return BufferRef{std::shared_ptr<const uint8_t[]>(record.buffer),
                   record.size.load(std::memory_order_acquire)};
}

std::optional<BufferRef> MessageManager::Borrow(const void* start) {
  auto ref = Publish(start);
  if (ref.has_value()) borrows_.fetch_add(1, std::memory_order_relaxed);
  return ref;
}

const uint8_t* MessageManager::AdoptReceived(const char* datatype,
                                             std::unique_ptr<uint8_t[]> block,
                                             size_t capacity, size_t size) {
  SFM_CHECK_MSG(size <= capacity, "received message larger than its block");
  uint8_t* start = block.get();
  Insert(start, capacity, size, MessageState::kPublished,
         std::shared_ptr<uint8_t[]>(block.release(),
                                    std::default_delete<uint8_t[]>()),
         datatype);
  received_adoptions_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

const uint8_t* MessageManager::AdoptReceived(const char* datatype,
                                             PooledBlock block,
                                             size_t capacity, size_t size) {
  SFM_CHECK_MSG(size <= capacity, "received message larger than its block");
  uint8_t* start = block.get();
  // Preserve the deleter's size class (≥ capacity after pow2 rounding) so
  // the block returns to the pool under the class it was drawn from.
  const PooledDeleter deleter = block.get_deleter();
  Insert(start, capacity, size, MessageState::kPublished,
         std::shared_ptr<uint8_t[]>(block.release(), deleter), datatype);
  received_adoptions_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

const uint8_t* MessageManager::AdoptShared(const char* datatype,
                                           std::shared_ptr<uint8_t[]> buffer,
                                           size_t capacity, size_t size) {
  SFM_CHECK_MSG(size <= capacity, "received message larger than its block");
  uint8_t* start = buffer.get();
  Insert(start, capacity, size, MessageState::kPublished, std::move(buffer),
         datatype);
  received_adoptions_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

bool MessageManager::TryWholeCopy(void* dst, const void* src,
                                  size_t skeleton_size) {
  // Whole-copy is a rare, coarse operation (generated operator=): the
  // writer lock keeps it trivially exclusive against the lock-free Expand
  // path mutating dst's size concurrently.
  std::unique_lock<std::shared_mutex> lock(index_mutex_);
  const auto dst_it = records_.find(reinterpret_cast<uintptr_t>(dst));
  if (dst_it == records_.end()) return false;
  Record& dst_record = *dst_it->second;

  const std::shared_ptr<Record> src_record = FindInIndex(src);
  size_t src_size = skeleton_size;
  if (src_record != nullptr) {
    if (src_record->start != static_cast<const uint8_t*>(src)) {
      // src is a nested field of some arena, not a whole message; the
      // caller must copy field-wise so payloads land in dst's arena.
      return false;
    }
    src_size = src_record->size.load(std::memory_order_acquire);
  }
  if (src_size > dst_record.capacity) {
    RaiseAlert(Violation::kArenaOverflow,
               "whole-message copy of " + std::to_string(src_size) +
                   " bytes exceeds destination arena capacity of " +
                   std::to_string(dst_record.capacity));
    return true;  // unreachable: kArenaOverflow always throws
  }
  std::memcpy(dst_record.start, src, src_size);
  dst_record.size.store(src_size, std::memory_order_release);
  return true;
}

std::optional<RecordInfo> MessageManager::Find(const void* addr) const {
  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  const std::shared_ptr<Record> record = FindInIndex(addr);
  if (record == nullptr) return std::nullopt;
  RecordInfo info;
  info.start = record->start;
  info.capacity = record->capacity;
  info.size = record->size.load(std::memory_order_acquire);
  info.state = record->state.load(std::memory_order_acquire);
  info.use_count = record->buffer.use_count();
  info.datatype = record->datatype;
  return info;
}

size_t MessageManager::SizeOf(const void* addr) const {
  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  const std::shared_ptr<Record> record = FindInIndex(addr);
  return record == nullptr ? 0
                           : record->size.load(std::memory_order_acquire);
}

size_t MessageManager::LiveCount() const {
  std::shared_lock<std::shared_mutex> lock(index_mutex_);
  return records_.size();
}

ManagerStats MessageManager::Stats() const {
  ManagerStats stats;
  stats.allocations = allocations_.load(std::memory_order_relaxed);
  stats.releases = releases_.load(std::memory_order_relaxed);
  stats.expansions = expansions_.load(std::memory_order_relaxed);
  stats.publishes = publishes_.load(std::memory_order_relaxed);
  stats.received_adoptions =
      received_adoptions_.load(std::memory_order_relaxed);
  stats.borrows = borrows_.load(std::memory_order_relaxed);
  return stats;
}

void MessageManager::ResetStats() {
  allocations_.store(0, std::memory_order_relaxed);
  releases_.store(0, std::memory_order_relaxed);
  expansions_.store(0, std::memory_order_relaxed);
  publishes_.store(0, std::memory_order_relaxed);
  received_adoptions_.store(0, std::memory_order_relaxed);
  borrows_.store(0, std::memory_order_relaxed);
}

MessageManager& gmm() {
  static MessageManager manager;
  return manager;
}

void SetArenaCapacity(std::string_view datatype, size_t bytes) {
  std::lock_guard<std::mutex> lock(g_capacity_mutex);
  auto& overrides = CapacityOverrides();
  if (bytes == 0) {
    if (const auto it = overrides.find(datatype); it != overrides.end()) {
      overrides.erase(it);
    }
  } else {
    overrides.insert_or_assign(std::string(datatype), bytes);
    g_capacity_overridden.store(true, std::memory_order_release);
  }
}

size_t ArenaCapacityFor(std::string_view datatype, size_t default_bytes) {
  // Runs on every cross-process message (operator new on the publisher,
  // the receive arena on the subscriber): no lock until an override exists.
  if (!g_capacity_overridden.load(std::memory_order_acquire)) {
    return default_bytes;
  }
  std::lock_guard<std::mutex> lock(g_capacity_mutex);
  const auto& overrides = CapacityOverrides();
  const auto it = overrides.find(datatype);
  return it != overrides.end() ? it->second : default_bytes;
}

}  // namespace sfm
