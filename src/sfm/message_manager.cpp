#include "sfm/message_manager.h"

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "sfm/alert.h"
#include "sfm/shm_pool.h"

namespace sfm {

struct ArenaRecord : std::enable_shared_from_this<ArenaRecord> {
  ArenaRecord(uint8_t* block, size_t bytes, bool pooled_block) noexcept
      : start(block), block_size(bytes), pooled(pooled_block) {}

  uint8_t* const start;
  const size_t block_size;  // the pool's size class, or the adopted bytes
  // False: a one-message record (shm or unpooled adoption), erased from
  // the index at Release.
  const bool pooled;
  // Set when armed, before the release store of `armed_by`.
  std::atomic<size_t> capacity{0};
  std::atomic<const char*> datatype{""};
  std::atomic<size_t> size{0};
  std::atomic<MessageState> state{MessageState::kAllocated};
  std::atomic<const MessageManager*> armed_by{nullptr};  // null: parked
  std::shared_ptr<uint8_t[]> buffer;  // the buffer pointer, while armed
  // A pooled block's buffer pointer keeps its control block here
  // (InRecordAllocator).
  alignas(std::max_align_t) std::byte control_block[64];
};

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

// ---- arena block pool and record index ----
//
// Blocks are recycled by power-of-two size class (ArenaBlockClassSize), so
// near-miss capacities share a bucket.  Bounded so pathological capacity
// mixes cannot hoard memory; beyond the bound, blocks fall back to the
// heap.  Every heap block carries its record from birth to death: the
// pool parks the two together, and the index — the paper's
// address-ordered lookup structure, one for the process — changes only
// when a block is born or dies.
constexpr size_t kMaxPoolBytes = 512ull * 1024 * 1024;
constexpr size_t kMaxBlocksPerCapacity = 8;
constexpr size_t kMinClassLog2 = 8;  // ArenaBlockClassSize's 256-byte floor
constexpr size_t kMinClass = size_t{1} << kMinClassLog2;
constexpr size_t kClassCount = 64 - kMinClassLog2;

size_t ClassIndex(size_t cls) noexcept {
  return static_cast<size_t>(std::countr_zero(cls)) - kMinClassLog2;
}

struct ClassPool {
  std::array<ArenaRecord*, kMaxBlocksPerCapacity> parked{};
  size_t parked_count = 0;
  // Blocks of the class out with a caller (deleter not yet run), heap- and
  // shm-backed alike — the leak-detection side of the snapshot.
  size_t live = 0;
};

struct ArenaPool {
  std::mutex mutex;
  std::array<ClassPool, kClassCount> classes;
  size_t bytes = 0;

  // Never held together with `mutex`.
  std::shared_mutex index_mutex;
  std::map<uintptr_t, std::shared_ptr<ArenaRecord>> index;  // by start
  std::atomic<uint64_t> index_writes{0};
};

ArenaPool& Pool() {
  static auto* pool = new ArenaPool();  // leaked: outlives all arenas
  return *pool;
}

void IndexInsert(std::shared_ptr<ArenaRecord> record) {
  ArenaPool& pool = Pool();
  const auto key = reinterpret_cast<uintptr_t>(record->start);
  std::unique_lock<std::shared_mutex> lock(pool.index_mutex);
  pool.index.emplace(key, std::move(record));
  pool.index_writes.fetch_add(1, std::memory_order_relaxed);
}

void IndexErase(const uint8_t* start) noexcept {
  ArenaPool& pool = Pool();
  std::shared_ptr<ArenaRecord> doomed;  // dies after the lock is dropped
  std::unique_lock<std::shared_mutex> lock(pool.index_mutex);
  const auto it = pool.index.find(reinterpret_cast<uintptr_t>(start));
  if (it == pool.index.end()) return;
  doomed = std::move(it->second);
  pool.index.erase(it);
  pool.index_writes.fetch_add(1, std::memory_order_relaxed);
}

// The record whose block contains `addr` (armed or not), or nullptr.
// Caller holds index_mutex in either mode.
ArenaRecord* FindInIndex(const ArenaPool& pool, const void* addr) {
  const auto key = reinterpret_cast<uintptr_t>(addr);
  auto it = pool.index.upper_bound(key);
  if (it == pool.index.begin()) return nullptr;
  --it;
  ArenaRecord* record = it->second.get();
  return key < it->first + record->block_size ? record : nullptr;
}

// Whether `record` is armed for `manager` and starts at (`exact`) or
// contains `addr`.
bool Resolves(const ArenaRecord& record, const MessageManager* manager,
              const void* addr, bool exact) noexcept {
  if (record.armed_by.load(std::memory_order_acquire) != manager) {
    return false;
  }
  const auto key = reinterpret_cast<uintptr_t>(addr);
  const auto start = reinterpret_cast<uintptr_t>(record.start);
  return exact ? key == start
               : key - start < record.capacity.load(std::memory_order_relaxed);
}

// After the disarm: drops the manager's buffer pointer (the block parks
// once the transport's die too) and erases a one-message record.
void DropMessage(ArenaRecord& record) noexcept {
  const std::shared_ptr<uint8_t[]> doomed = std::move(record.buffer);
  if (!record.pooled) IndexErase(record.start);
}

// A block leaves the heap: its record leaves the index.
void RetireBlock(ArenaRecord* record) noexcept {
  uint8_t* block = record->start;
  IndexErase(block);  // may destroy the record: read it first
  delete[] block;
}

// The pooled block's last reference died: park it with its record, or
// retire both when the pool is full.
void ParkBlock(ArenaRecord* record) noexcept {
  ArenaPool& pool = Pool();
  const size_t cls = record->block_size;
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    ClassPool& parked = pool.classes[ClassIndex(cls)];
    if (parked.live > 0) --parked.live;
    if (parked.parked_count < kMaxBlocksPerCapacity &&
        pool.bytes + cls <= kMaxPoolBytes) {
      parked.parked[parked.parked_count++] = record;
      pool.bytes += cls;
      return;
    }
  }
  RetireBlock(record);
}

/// Places the buffer pointer's control block in the record's own storage,
/// so arming a pooled block allocates nothing.  The control block's
/// deallocation is the last thing its shared_ptr does, so that — not the
/// deleter, which runs while the control block still exists — is where the
/// block parks and becomes free for its next message.
template <typename T>
struct InRecordAllocator {
  using value_type = T;
  ArenaRecord* record;

  explicit InRecordAllocator(ArenaRecord* owner) noexcept : record(owner) {}
  template <typename U>
  InRecordAllocator(const InRecordAllocator<U>& other) noexcept  // NOLINT
      : record(other.record) {}

  T* allocate(size_t n) {
    static_assert(sizeof(T) <= sizeof(ArenaRecord::control_block) &&
                  alignof(T) <= alignof(std::max_align_t));
    SFM_CHECK_MSG(n == 1, "a record holds one control block");
    return reinterpret_cast<T*>(record->control_block);
  }
  void deallocate(T*, size_t) noexcept { ParkBlock(record); }

  template <typename U>
  bool operator==(const InRecordAllocator<U>& other) const noexcept {
    return record == other.record;
  }
};

/// The buffer pointer of a pooled block's message: its deleter leaves the
/// block alone; the allocator parks it.
std::shared_ptr<uint8_t[]> InRecordBuffer(ArenaRecord* record) {
  return std::shared_ptr<uint8_t[]>(record->start, [](uint8_t*) {},
                                    InRecordAllocator<uint8_t>(record));
}

}  // namespace

void PooledDeleter::operator()(uint8_t* block) const noexcept {
  if (block == nullptr) return;
  if (record != nullptr) {
    ParkBlock(record);
    return;
  }
  // Shm-backed blocks go back to their segment's free list (the cross-
  // process release/recycle protocol lives there).
  if (!shm::ReleaseIfOwned(block)) delete[] block;
  if (!std::has_single_bit(capacity) || capacity < kMinClass) return;
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  ClassPool& parked = pool.classes[ClassIndex(capacity)];
  if (parked.live > 0) --parked.live;
}

size_t ArenaBlockClassSize(size_t capacity) noexcept {
  // Floor keeps tiny arenas from fragmenting the pool into dozens of
  // classes; the pow2 ceiling at most doubles a request, which the
  // kMaxPoolBytes bound already accommodates.
  if (capacity <= kMinClass) return kMinClass;
  if (capacity > (std::numeric_limits<size_t>::max() >> 1)) return capacity;
  return std::bit_ceil(capacity);
}

PooledBlock AcquireArenaBlock(size_t capacity) {
  return AcquireArenaBlock(capacity, /*shareable=*/false);
}

PooledBlock AcquireArenaBlock(size_t capacity, bool shareable) {
  const size_t cls = ArenaBlockClassSize(capacity);
  if (!std::has_single_bit(cls)) throw std::bad_alloc();  // > half the space
  ArenaPool& pool = Pool();
  ClassPool& parked = pool.classes[ClassIndex(cls)];
  if (shareable) {
    // Above-threshold publisher arenas land in shared memory when the tier
    // is on and a subscriber negotiated it; TryAcquire declines otherwise
    // and the heap path below is byte-identical to the pre-shm behavior.
    if (uint8_t* block = shm::TryAcquire(cls)) {
      std::lock_guard<std::mutex> lock(pool.mutex);
      ++parked.live;
      return PooledBlock(block, PooledDeleter{cls, nullptr});
    }
  }
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    if (parked.parked_count > 0) {
      ++parked.live;
      pool.bytes -= cls;
      ArenaRecord* record = parked.parked[--parked.parked_count];
      return PooledBlock(record->start, PooledDeleter{cls, record});
    }
  }
  // A block is born, and its record with it: the one index write all of
  // the block's messages share.
  std::unique_ptr<uint8_t[]> block(new uint8_t[cls]);
  auto record = std::make_shared<ArenaRecord>(block.get(), cls, true);
  ArenaRecord* raw = record.get();
  IndexInsert(std::move(record));
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    ++parked.live;
  }
  return PooledBlock(block.release(), PooledDeleter{cls, raw});
}

size_t ArenaPoolBytes() {
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  return pool.bytes;
}

void TrimArenaPool() {
  ArenaPool& pool = Pool();
  std::vector<ArenaRecord*> doomed;
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    for (ClassPool& parked : pool.classes) {
      doomed.insert(doomed.end(), parked.parked.begin(),
                    parked.parked.begin() +
                        static_cast<std::ptrdiff_t>(parked.parked_count));
      parked.parked_count = 0;
    }
    pool.bytes = 0;
  }
  for (ArenaRecord* record : doomed) RetireBlock(record);
}

std::vector<ArenaPoolClassStats> ArenaPoolSnapshot() {
  ArenaPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mutex);
  std::vector<ArenaPoolClassStats> snapshot;
  for (size_t i = 0; i < kClassCount; ++i) {
    const ClassPool& parked = pool.classes[i];
    if (parked.parked_count == 0 && parked.live == 0) continue;
    snapshot.push_back(ArenaPoolClassStats{size_t{1} << (i + kMinClassLog2),
                                           parked.parked_count, parked.live});
  }
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

MessageManager::MessageManager()
    : index_writes_at_reset_(
          Pool().index_writes.load(std::memory_order_relaxed)) {}

MessageManager::~MessageManager() {
  // Messages still armed for this manager (leaked by their owners) are
  // disarmed, so no record validates against a later manager at this
  // address; their blocks park once the transport drops them.
  ArenaPool& pool = Pool();
  std::vector<std::shared_ptr<ArenaRecord>> armed;
  {
    std::shared_lock<std::shared_mutex> lock(pool.index_mutex);
    for (const auto& [key, record] : pool.index) {
      if (record->armed_by.load(std::memory_order_acquire) == this) {
        armed.push_back(record);
      }
    }
  }
  for (const auto& record : armed) {
    record->armed_by.store(nullptr, std::memory_order_release);
    DropMessage(*record);
  }
}

void MessageManager::Arm(ArenaRecord& record, const char* datatype,
                         size_t capacity, size_t size, MessageState state,
                         std::shared_ptr<uint8_t[]> buffer) {
  record.capacity.store(capacity, std::memory_order_relaxed);
  record.size.store(size, std::memory_order_relaxed);
  record.state.store(state, std::memory_order_relaxed);
  record.datatype.store(datatype, std::memory_order_relaxed);
  record.buffer = std::move(buffer);
  armed_.fetch_add(1, std::memory_order_relaxed);
  // Publishes every field above to a thread that sees the record armed.
  record.armed_by.store(this, std::memory_order_release);
  // The thread that arms a message is the one that fills and publishes it
  // (or, receiving, usually the one that releases it).
  ThreadRecordCache& cache = Cache();
  if (cache.record.get() != &record) cache.record = record.shared_from_this();
}

uint8_t* MessageManager::AdoptOnce(std::shared_ptr<uint8_t[]> buffer,
                                   const char* datatype, size_t capacity,
                                   size_t size, MessageState state) {
  uint8_t* start = buffer.get();
  auto record = std::make_shared<ArenaRecord>(start, capacity, false);
  Arm(*record, datatype, capacity, size, state, std::move(buffer));
  IndexInsert(std::move(record));
  return start;
}

uint8_t* MessageManager::AdoptBlock(PooledBlock block, const char* datatype,
                                    size_t capacity, size_t size,
                                    MessageState state) {
  ArenaRecord* record = block.get_deleter().record;
  if (record == nullptr) {
    // Copy the deleter: it carries the pool's size class, which may exceed
    // the requested capacity (power-of-two rounding).
    const PooledDeleter deleter = block.get_deleter();
    return AdoptOnce(std::shared_ptr<uint8_t[]>(block.release(), deleter),
                     datatype, capacity, size, state);
  }
  (void)block.release();  // the record's buffer pointer owns it now
  Arm(*record, datatype, capacity, size, state, InRecordBuffer(record));
  return record->start;
}

void* MessageManager::Allocate(const char* datatype, size_t capacity,
                               size_t skeleton_size) {
  SFM_CHECK_MSG(skeleton_size <= capacity,
                "arena capacity smaller than message skeleton");
  // All publisher-side arenas are shareable candidates: whether one lands
  // in shared memory is decided entirely inside the shm pool (tier enabled,
  // peer negotiated, class above threshold).
  PooledBlock block = AcquireArenaBlock(capacity, /*shareable=*/true);
  std::memset(block.get(), 0, skeleton_size);  // before arming: no reader
  uint8_t* start = AdoptBlock(std::move(block), datatype, capacity,
                              skeleton_size, MessageState::kAllocated);
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

ArenaRecord* MessageManager::Lookup(const void* addr, bool exact) {
  ThreadRecordCache& cache = Cache();
  ArenaRecord* cached = cache.record.get();
  if (cached != nullptr && Resolves(*cached, this, addr, exact)) {
    return cached;
  }
  ArenaPool& pool = Pool();
  std::shared_lock<std::shared_mutex> lock(pool.index_mutex);
  ArenaRecord* found = FindInIndex(pool, addr);
  if (found == nullptr || !Resolves(*found, this, addr, exact)) {
    return nullptr;
  }
  cache.record = found->shared_from_this();
  return found;
}

bool MessageManager::Release(void* start) {
  ArenaRecord* record = Lookup(start, /*exact=*/true);
  if (record == nullptr) return false;
  // Disarm first: from here no lookup finds the record, and the buffer
  // pointer is this thread's to drop.
  const MessageManager* self = this;
  if (!record->armed_by.compare_exchange_strong(self, nullptr,
                                                std::memory_order_acq_rel)) {
    return false;  // a racing Release of the same message won
  }
  armed_.fetch_sub(1, std::memory_order_relaxed);
  DropMessage(*record);  // the cache holds the record across an erase
  releases_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void* MessageManager::Expand(const void* field_addr, size_t bytes,
                             size_t align) {
  SFM_CHECK_MSG(align != 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
  // Usually a cache hit: the thread that allocated the message fills it.
  // The record is armed, so its arena is live for as long as the caller
  // legitimately owns the message it is expanding.
  ArenaRecord* record = Lookup(field_addr, /*exact=*/false);
  if (record == nullptr) {
    RaiseAlert(
        Violation::kUnmanagedMessage,
        "an sfm field requested memory but its message is not "
        "arena-allocated; declare the message on the heap (the ROS-SF "
        "Converter rewrites stack declarations automatically)");
    return nullptr;  // unreachable: kUnmanagedMessage always throws
  }

  // Reserve [aligned_end, aligned_end + bytes) with a CAS bump: concurrent
  // expanders of the same message get disjoint regions, and expanders of
  // different messages never touch the same lock or cache line.
  const size_t capacity = record->capacity.load(std::memory_order_relaxed);
  size_t old_size = record->size.load(std::memory_order_relaxed);
  size_t aligned_end;
  do {
    aligned_end = AlignUp(old_size, align);
    if (aligned_end + bytes > capacity) {
      RaiseAlert(Violation::kArenaOverflow,
                 "whole message for " +
                     std::string(record->datatype.load(
                         std::memory_order_relaxed)) +
                     " would grow to " + std::to_string(aligned_end + bytes) +
                     " bytes, over the arena capacity of " +
                     std::to_string(capacity) +
                     "; raise it in the IDL (@arena_capacity) or via "
                     "sfm::SetArenaCapacity()");
      return nullptr;  // unreachable: kArenaOverflow always throws
    }
  } while (!record->size.compare_exchange_weak(
      old_size, aligned_end + bytes, std::memory_order_acq_rel,
      std::memory_order_relaxed));

  // Zero the granted region outside any lock: it was exclusively reserved
  // above.
  uint8_t* out = record->start + aligned_end;
  std::memset(out, 0, bytes);
  expansions_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::optional<BufferRef> MessageManager::Publish(const void* start) {
  // Usually a cache hit: the thread that filled the message publishes it.
  // Reading `buffer` is safe for the same reason Expand's arena writes
  // are: only Release moves it out, and releasing a message while another
  // thread is still publishing it is a use-after-free in the caller (see
  // the ownership rule in the header).
  ArenaRecord* record = Lookup(start, /*exact=*/true);
  if (record == nullptr) return std::nullopt;
  record->state.store(MessageState::kPublished, std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return BufferRef{std::shared_ptr<const uint8_t[]>(record->buffer),
                   record->size.load(std::memory_order_acquire)};
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
  const uint8_t* start = AdoptOnce(
      std::shared_ptr<uint8_t[]>(block.release(),
                                 std::default_delete<uint8_t[]>()),
      datatype, capacity, size, MessageState::kPublished);
  received_adoptions_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

const uint8_t* MessageManager::AdoptReceived(const char* datatype,
                                             PooledBlock block,
                                             size_t capacity, size_t size) {
  SFM_CHECK_MSG(size <= capacity, "received message larger than its block");
  const uint8_t* start = AdoptBlock(std::move(block), datatype, capacity,
                                    size, MessageState::kPublished);
  received_adoptions_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

const uint8_t* MessageManager::AdoptShared(const char* datatype,
                                           std::shared_ptr<uint8_t[]> buffer,
                                           size_t capacity, size_t size) {
  SFM_CHECK_MSG(size <= capacity, "received message larger than its block");
  const uint8_t* start = AdoptOnce(std::move(buffer), datatype, capacity,
                                   size, MessageState::kPublished);
  received_adoptions_.fetch_add(1, std::memory_order_relaxed);
  return start;
}

bool MessageManager::TryWholeCopy(void* dst, const void* src,
                                  size_t skeleton_size) {
  // Whole-copy is a rare, coarse operation (generated operator=).  Both
  // records stay armed while their owners hold the messages, so the copy
  // itself runs outside the index lock.
  ArenaRecord* dst_record = nullptr;
  size_t src_size = skeleton_size;
  {
    ArenaPool& pool = Pool();
    std::shared_lock<std::shared_mutex> lock(pool.index_mutex);
    dst_record = FindInIndex(pool, dst);
    if (dst_record == nullptr || !Resolves(*dst_record, this, dst, true)) {
      return false;
    }
    const ArenaRecord* src_record = FindInIndex(pool, src);
    if (src_record != nullptr && Resolves(*src_record, this, src, false)) {
      if (src_record->start != static_cast<const uint8_t*>(src)) {
        // src is a nested field of some arena, not a whole message; the
        // caller must copy field-wise so payloads land in dst's arena.
        return false;
      }
      src_size = src_record->size.load(std::memory_order_acquire);
    }
  }
  const size_t capacity = dst_record->capacity.load(std::memory_order_relaxed);
  if (src_size > capacity) {
    RaiseAlert(Violation::kArenaOverflow,
               "whole-message copy of " + std::to_string(src_size) +
                   " bytes exceeds destination arena capacity of " +
                   std::to_string(capacity));
    return true;  // unreachable: kArenaOverflow always throws
  }
  std::memcpy(dst_record->start, src, src_size);
  dst_record->size.store(src_size, std::memory_order_release);
  return true;
}

std::optional<RecordInfo> MessageManager::Find(const void* addr) const {
  ArenaPool& pool = Pool();
  std::shared_lock<std::shared_mutex> lock(pool.index_mutex);
  const ArenaRecord* record = FindInIndex(pool, addr);
  if (record == nullptr || !Resolves(*record, this, addr, false)) {
    return std::nullopt;
  }
  RecordInfo info;
  info.start = record->start;
  info.capacity = record->capacity.load(std::memory_order_relaxed);
  info.size = record->size.load(std::memory_order_acquire);
  info.state = record->state.load(std::memory_order_acquire);
  info.datatype = record->datatype.load(std::memory_order_relaxed);
  return info;
}

size_t MessageManager::SizeOf(const void* addr) const {
  const auto info = Find(addr);
  return info.has_value() ? info->size : 0;
}

size_t MessageManager::LiveCount() const {
  return armed_.load(std::memory_order_relaxed);
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
  stats.index_writes =
      Pool().index_writes.load(std::memory_order_relaxed) -
      index_writes_at_reset_.load(std::memory_order_relaxed);
  return stats;
}

void MessageManager::ResetStats() {
  allocations_.store(0, std::memory_order_relaxed);
  releases_.store(0, std::memory_order_relaxed);
  expansions_.store(0, std::memory_order_relaxed);
  publishes_.store(0, std::memory_order_relaxed);
  received_adoptions_.store(0, std::memory_order_relaxed);
  borrows_.store(0, std::memory_order_relaxed);
  index_writes_at_reset_.store(
      Pool().index_writes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
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
