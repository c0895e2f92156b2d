// The message manager (paper §4.2, §4.3.3: `sfm::mm` with one global
// instance `sfm::gmm`).
//
// Every serialization-free message lives in one contiguous heap block, its
// *arena*: the fixed-size skeleton at offset 0, variable-size payloads
// (string contents, vector elements) appended behind it.  Each pooled
// arena block carries one record for its whole life:
//
//   [start, start+capacity)   the message's arena (capacity as requested)
//   size                      current extent of the *whole message*
//   buffer                    the "buffer pointer" — a shared_ptr that owns
//                             the block; publish() hands aliased copies to
//                             the transport, so the block outlives the
//                             developer-visible message object
//   state                     Allocated -> Published
//   armed_by                  the manager the record is armed for; null
//                             while the block is parked in the pool
//
// Allocate and AdoptReceived *arm* the record of the block they take;
// Release *disarms* it, and the block parks in the pool, record and all,
// once the transport's aliased pointers die.  A disarmed record is
// invisible to every lookup.  Field types (sfm::string / sfm::vector) call
// Expand() with their own address when they need payload space; the
// manager locates the containing record by binary search over the
// address-ordered record index — exactly the lookup structure the paper
// describes — bumps `size`, and returns the new region.
//
// Concurrency model (see DESIGN.md "Manager concurrency model"): the index
// is process-wide and written only when a block is born or dies (a pool
// miss, a pool overflow, TrimArenaPool) — never per message.  Index
// readers (the Release, Publish and Expand slow paths, Find) take the
// reader side of a shared_mutex.  Arming and disarming are atomic stores
// on the record.  A thread-local one-entry cache holds a shared_ptr to the
// last record this thread used; a hit is validated by an address check
// plus `armed_by`, so the common lifecycle — Allocate, Expand calls,
// Publish and Release on one thread — takes no index lock at all.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sfm {

enum class MessageState { kAllocated, kPublished };

const char* MessageStateName(MessageState state) noexcept;

/// An aliased reference to a message arena: what `publish` puts on the wire.
struct BufferRef {
  std::shared_ptr<const uint8_t[]> data;
  size_t size = 0;

  [[nodiscard]] bool valid() const noexcept { return data != nullptr; }
};

/// Introspection snapshot of one record (tests, debugging).
struct RecordInfo {
  const uint8_t* start = nullptr;
  size_t capacity = 0;
  size_t size = 0;
  MessageState state = MessageState::kAllocated;
  std::string datatype;
};

/// Aggregate counters (tests, the ablation bench).
struct ManagerStats {
  uint64_t allocations = 0;
  uint64_t releases = 0;
  uint64_t expansions = 0;
  uint64_t publishes = 0;
  uint64_t received_adoptions = 0;
  // Zero-copy in-process publishes: the subscriber borrowed the arena via
  // an aliased buffer pointer instead of receiving bytes.  A subset of
  // `publishes`.
  uint64_t borrows = 0;
  // Inserts into and erases from the record index since this manager's
  // construction or ResetStats.  The index is process-wide, so this counts
  // every manager's writes (and the pool's): block births and deaths, and
  // the one-message records of shm and unpooled adoptions.  0 per
  // steady-state pooled message.
  uint64_t index_writes = 0;
};

/// A heap arena block's record: born with the block, parked with it in
/// the pool, armed by the manager for each message the block carries.
struct ArenaRecord;

/// Deleter that returns an arena block to the process-wide block pool.
struct PooledDeleter {
  size_t capacity = 0;            // the block's size class
  ArenaRecord* record = nullptr;  // heap blocks; null for shm blocks
  void operator()(uint8_t* block) const noexcept;
};

/// An owned arena block that recycles itself.
using PooledBlock = std::unique_ptr<uint8_t[], PooledDeleter>;

/// The pooled size class a requested capacity lands in: the next power of
/// two (with a small floor).  Classing means near-miss capacities — a
/// type whose largest-message estimate grew by a few bytes — still reuse
/// pooled blocks instead of missing an exact-capacity lookup and paying
/// the allocator.
size_t ArenaBlockClassSize(size_t capacity) noexcept;

/// Acquires a block of at least `capacity` bytes from the pool (or the
/// heap, recording the new block in the index).  Pooling matters for
/// throughput: arenas are sized for the LARGEST message of a type (§4.2),
/// typically megabytes, and allocating/releasing such blocks per message
/// costs mmap + page-fault churn that can eat the serialization savings.
/// Recycled blocks keep their pages warm.
/// The returned block is ArenaBlockClassSize(capacity) bytes; its deleter
/// carries that class size and the block's record, so callers re-wrapping
/// the pointer must copy the deleter (never rebuild one from the requested
/// capacity: the block would leave the heap with its record still
/// indexed).
PooledBlock AcquireArenaBlock(size_t capacity);

/// Same, with placement control: `shareable` blocks may come from the
/// shared-memory pool (DESIGN.md §12) when the shm transport tier is
/// enabled and a peer has negotiated it — the seam that lets above-threshold
/// publisher arenas land directly in cross-process-mappable pages.  The
/// returned block is interchangeable with the heap kind: PooledDeleter
/// routes it back to whichever pool owns it.  Falls back to the heap
/// whenever the shm pool declines (tier off, below threshold, byte cap).
PooledBlock AcquireArenaBlock(size_t capacity, bool shareable);

/// Pool occupancy in bytes (tests / introspection).
size_t ArenaPoolBytes();
/// Drops all pooled blocks and their records.
void TrimArenaPool();

/// Per-size-class pool occupancy: how many blocks of each class sit free in
/// the pool (parked) and how many are live (acquired, deleter not yet
/// run).  Live counts cover heap- and shm-backed blocks alike — after full
/// teardown every class must read live == 0, which is what the stress
/// tests assert to prove no arena (shm blocks included) leaks.
struct ArenaPoolClassStats {
  size_t class_size = 0;
  size_t pooled = 0;
  size_t live = 0;
};
std::vector<ArenaPoolClassStats> ArenaPoolSnapshot();

/// The message manager.  All methods are thread-safe with respect to each
/// other and to operations on *other* messages.  Operations on one message
/// follow the normal ownership rule: the thread(s) writing a message may
/// Expand it concurrently (the CAS bump makes grants disjoint), but
/// releasing a message while another thread is still expanding it is a
/// use-after-free bug in the caller, exactly as with any heap object.
class MessageManager {
 public:
  MessageManager();
  ~MessageManager();
  MessageManager(const MessageManager&) = delete;
  MessageManager& operator=(const MessageManager&) = delete;

  /// Takes an arena block of at least `capacity` bytes from the pool, arms
  /// its record, and returns the message start address.  The first
  /// `skeleton_size` bytes are zeroed (a zeroed skeleton is the valid
  /// default state for every SFM type) and the whole-message size starts at
  /// `skeleton_size`.  A pooled block costs no heap allocation and no index
  /// write.
  void* Allocate(const char* datatype, size_t capacity, size_t skeleton_size);

  /// Disarms the record whose start address is `start` (object deleted by
  /// the developer's code — the overloaded operator delete, or the
  /// subscriber ConstPtr deleter).  The block returns to the pool once the
  /// transport holds no aliased buffer pointers.  Returns false if `start`
  /// is not an armed arena of this manager (the caller then owns the
  /// memory).
  bool Release(void* start);

  /// Grants `bytes` bytes (aligned to `align`) at the current end of the
  /// whole message containing `field_addr`, zeroed, and grows the recorded
  /// size.  Raises kUnmanagedMessage if no record contains `field_addr`
  /// (stack-allocated message: the ROS-SF Converter was not applied) and
  /// kArenaOverflow if capacity is exceeded.  Both are fatal alerts.
  ///
  /// Lock-free on the fast path: when the thread's one-entry record cache
  /// still covers `field_addr` (the overwhelmingly common case — a message
  /// is filled by one thread, field by field), no index lock is taken at
  /// all; the region is reserved with a CAS loop on the record's atomic
  /// size and zeroed outside any lock.  A cache miss falls back to a
  /// shared-lock binary search and refills the cache.
  void* Expand(const void* field_addr, size_t bytes, size_t align);

  /// Marks the message Published and returns an aliased buffer pointer
  /// covering the whole message, for the transmission queue.  nullopt if
  /// `start` is not registered.  Lock-free when the calling thread's record
  /// cache holds this message (the thread that filled it publishes it);
  /// otherwise takes only a shared lock, so publishers on different
  /// messages never serialize either way.
  std::optional<BufferRef> Publish(const void* start);

  /// Zero-copy in-process publish ("borrowed publish"): identical to
  /// Publish(), but counted separately.  The returned BufferRef's shared
  /// ownership of the arena block is the life-cycle guarantee the
  /// in-process transport relies on: even after the publisher's handle dies
  /// and Release() disarms the record, the block stays alive until the last
  /// borrowing subscriber drops its aliased pointer (SFM reads are relative
  /// offsets, so they never need the record back).
  std::optional<BufferRef> Borrow(const void* start);

  /// Receive path: registers an externally filled arena.  `block` is the
  /// heap block (capacity bytes), `size` the received whole-message size.
  /// The message enters the Published state directly (paper Fig. 9).
  /// Returns the message start address.  An unpooled block gets a record
  /// of its own: one index insert here and one erase at Release.
  const uint8_t* AdoptReceived(const char* datatype,
                               std::unique_ptr<uint8_t[]> block,
                               size_t capacity, size_t size);

  /// Same, for a pooled block (the transport's receive path): arms the
  /// block's record, with no heap allocation and no index write.
  const uint8_t* AdoptReceived(const char* datatype, PooledBlock block,
                               size_t capacity, size_t size);

  /// Same, for an externally owned buffer (the shm receive path: `buffer`
  /// aliases a block in a publisher's mapped segment, and its control block
  /// holds the cross-process reference token).  The manager shares — never
  /// frees — the underlying bytes; when the last aliased pointer dies the
  /// caller-supplied control block runs and releases the shm reference.
  const uint8_t* AdoptShared(const char* datatype,
                             std::shared_ptr<uint8_t[]> buffer,
                             size_t capacity, size_t size);

  /// Top-level assignment fast path for the generated copy constructor and
  /// operator= (paper §4.3.1: "find the current size of the whole message
  /// from the message manager and copy the message").  If `dst` is a
  /// registered record *start*, copies src's whole-message bytes verbatim
  /// (relative offsets make them position-independent) — or just the
  /// skeleton when src is unregistered — resets dst's size, and returns
  /// true.  Returns false when dst is not a record start, i.e. the
  /// assignment target is a nested field and the caller must copy
  /// field-wise.  Raises kArenaOverflow if dst cannot hold src.
  bool TryWholeCopy(void* dst, const void* src, size_t skeleton_size);

  /// Record lookup by any address inside an armed arena of this manager
  /// (tests / introspection).
  std::optional<RecordInfo> Find(const void* addr) const;

  /// Current whole-message size of the message containing `addr`;
  /// 0 if unknown.
  size_t SizeOf(const void* addr) const;

  /// Armed records of this manager: messages not yet released.
  [[nodiscard]] size_t LiveCount() const;
  [[nodiscard]] ManagerStats Stats() const;
  void ResetStats();

 private:
  /// One-entry per-thread cache of the last record this thread armed or
  /// looked up.  The shared_ptr keeps the (small) record alive after its
  /// block dies, so validation — `armed_by` plus an address check — is
  /// safe with no lock; a parked or dead record never validates.
  struct ThreadRecordCache {
    std::shared_ptr<ArenaRecord> record;
  };
  static ThreadRecordCache& Cache() noexcept;

  /// The record armed for this manager that starts at `addr` (`exact`) or
  /// contains it, or nullptr: the thread cache first, then the index (a
  /// hit there refills the cache, which keeps the record alive).
  ArenaRecord* Lookup(const void* addr, bool exact);
  /// Arms `record` for a message of this manager and caches it.
  void Arm(ArenaRecord& record, const char* datatype, size_t capacity,
           size_t size, MessageState state, std::shared_ptr<uint8_t[]> buffer);
  /// Arms the record of a pooled block, or a one-message record for a
  /// block without one (shm); returns the message start.
  uint8_t* AdoptBlock(PooledBlock block, const char* datatype,
                      size_t capacity, size_t size, MessageState state);
  /// Records a block that has no pooled record (shm, unpooled adoption)
  /// for one message: an index insert here, an erase at Release.
  uint8_t* AdoptOnce(std::shared_ptr<uint8_t[]> buffer, const char* datatype,
                     size_t capacity, size_t size, MessageState state);

  std::atomic<size_t> armed_{0};  // LiveCount()

  // Relaxed: counters are monotonic telemetry, never synchronization.
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> expansions_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> received_adoptions_{0};
  std::atomic<uint64_t> borrows_{0};
  std::atomic<uint64_t> index_writes_at_reset_{0};
};

/// The global message manager (`sfm::gmm` in the paper).
MessageManager& gmm();

/// Overrides the arena capacity for a datatype at run time (takes precedence
/// over the IDL-declared capacity baked into the generated header).  Pass 0
/// to remove the override.
void SetArenaCapacity(std::string_view datatype, size_t bytes);

/// Capacity to use for `datatype` given its generated default.  Lock-free
/// and allocation-free until the first SetArenaCapacity in the process.
size_t ArenaCapacityFor(std::string_view datatype, size_t default_bytes);

}  // namespace sfm
