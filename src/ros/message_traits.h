// Serialization traits: the seam where ROS-SF replaces roscpp's generated
// serialize/de-serialize routines (paper §4.3.1, "Overloaded ROS
// serialization routine" / "Overloaded ROS de-serialization routine").
//
// Regular messages take the classic path:
//   publish:  allocate a buffer, run the generated serializer (one full copy)
//   receive:  read the frame into a scratch buffer, run the generated
//             de-serializer into a fresh message object (another full copy)
//
// SFM messages take the serialization-free path:
//   publish:  ask the global message manager for an aliased buffer pointer
//             covering the whole message — zero copy
//   receive:  read the frame straight into a newly adopted arena and
//             reinterpret it as the message — the "dummy de-serialization
//             routine" of Fig. 9 — zero copy
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/status.h"
#include "serialization/field_model.h"
#include "serialization/ros1.h"
#include "sfm/sfm.h"
#include "sfm/shm_pool.h"
#include "ros/serialized_message.h"

namespace ros {

using rsf::ser::Message;

/// Receive-path shim counters: how frame payloads reached their final
/// message.  Tests assert the copy budget with these instead of strace —
/// the SFM path must show arena-direct landings and zero scratch
/// allocations / deserialize copies (exactly one kernel→arena copy), and
/// the regular path must show scratch reuse instead of per-frame
/// allocation.  Relaxed telemetry, never synchronization.
namespace shim {
inline std::atomic<uint64_t> scratch_allocations{0};  // scratch grew (heap)
inline std::atomic<uint64_t> scratch_reuses{0};     // frame fit in scratch
inline std::atomic<uint64_t> deserialize_copies{0};  // generated de-serializer ran
inline std::atomic<uint64_t> arena_direct{0};  // payload read straight into an arena
// Send-path counters: every user-space copy a publish can make on its way
// to the wire.  An SFM arena publish must bump NEITHER — its payload goes
// out as an aliased shared_ptr, so the only copy left on the send side is
// the kernel's own sendmsg copy (one, by design: DESIGN.md §9).
inline std::atomic<uint64_t> wire_serialize_copies{0};  // generated serializer ran
inline std::atomic<uint64_t> wire_snapshot_copies{0};   // SFM stack-fallback memcpy
// Shm-tier counters (DESIGN.md §12): deliveries that crossed processes as a
// 48-byte descriptor into a shared block (zero payload copies end to end),
// vs deliveries on shm-negotiated links that went inline anyway — below the
// size threshold, heap-backed payload, or a per-link fallback.
inline std::atomic<uint64_t> shm_zero_copy_deliveries{0};
inline std::atomic<uint64_t> shm_fallback_deliveries{0};
// Serialize-once fan-out proof (DESIGN.md §13): a publish finalizes its
// wire frame once and encodes its shm descriptor once, no matter how many
// lanes the fan-out visits.  Tests assert these advance by exactly the
// publish count at any subscriber count.
inline std::atomic<uint64_t> frame_builds{0};       // wire frames finalized
inline std::atomic<uint64_t> descriptor_builds{0};  // shm descriptors encoded
/// Pins evicted from a shm lane's ledger by drop-oldest backpressure.  Each
/// eviction is a real publisher-side loss (the subscriber's descriptor will
/// fail the generation fence) and counts in PublicationStats::dropped.
inline std::atomic<uint64_t> shm_pin_evictions{0};
// Mcast-tier counters (DESIGN.md §14): the O(chunks)-not-O(subs) proof is
// datagrams_sent advancing by the chunk count per publish at ANY fan-out,
// while nacks/repairs count the recovery traffic the loss-injection chaos
// tests drive.  datagrams_sent counts send ATTEMPTS — a drop injected by
// mcast_drop_pct simulates loss after the send, so it still counts.
inline std::atomic<uint64_t> mcast_datagrams_sent{0};
inline std::atomic<uint64_t> mcast_nacks{0};    // NACK control frames handled
inline std::atomic<uint64_t> mcast_repairs{0};  // unicast repairs sent
/// Deterministic loss injection: the percentage of outgoing datagrams the
/// group sender silently discards instead of sending (counter-based, so a
/// run is exactly reproducible).  A test shim — chaos tests set it
/// directly; RSF_MCAST_DROP_PCT seeds it once at first sender creation so
/// the CI chaos job can drive whole binaries.  0 in production.
inline std::atomic<uint32_t> mcast_drop_pct{0};
/// Shm blocks force-reclaimed from dead (SIGKILLed) subscribers — reads the
/// pool's own ledger so the count survives pool-internal sweeps too.
inline uint64_t shm_blocks_reclaimed() {
  return ::sfm::shm::GetPoolStats().blocks_reclaimed;
}
}  // namespace shim

/// A frame destination handed to the transport's frame reader, plus the
/// typed finalization once the bytes are in.
template <Message M>
struct Serializer;

// ---- regular messages ----

template <Message M>
struct Serializer {
  static constexpr bool kSerializationFree = false;

  static SerializedMessage ToWire(const M& msg) {
    const size_t length = rsf::ser::ros1::SerializedLength(msg);
    auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[length]);
    rsf::ser::ros1::Serialize(msg, buffer.get());
    shim::wire_serialize_copies.fetch_add(1, std::memory_order_relaxed);
    return SerializedMessage{std::move(buffer), length};
  }

  /// In-process whole-copy tier: one deep copy through the generated copy
  /// constructor — no serialization, no wire format.  Safe while the
  /// publisher keeps mutating `msg`.
  static std::shared_ptr<const M> ToShared(const M& msg) {
    return std::make_shared<const M>(msg);
  }

  /// In-process zero-copy tier: for regular messages shared ownership IS
  /// the borrow — the subscriber holds the same heap object.
  static std::shared_ptr<const M> Borrow(const std::shared_ptr<const M>& msg) {
    return msg;
  }

  struct ReceiveArena {
    /// Per-link scratch staging buffer, reused across frames: the read loop
    /// owns it and keeps its capacity, so steady-state receive does zero
    /// heap allocation for the staging bytes.  Grow-only.
    std::vector<uint8_t>* scratch = nullptr;
    std::unique_ptr<uint8_t[]> owned;  // fallback when no scratch is wired
    uint8_t* data = nullptr;

    uint8_t* Allocate(uint32_t length) {
      const size_t needed = length == 0 ? 1 : length;
      if (scratch != nullptr) {
        if (scratch->size() < needed) {
          scratch->resize(needed);
          shim::scratch_allocations.fetch_add(1, std::memory_order_relaxed);
        } else {
          shim::scratch_reuses.fetch_add(1, std::memory_order_relaxed);
        }
        data = scratch->data();
      } else {
        // Default-initialized: the socket read fills it (make_unique would
        // value-initialize, i.e. memset the whole block).
        owned.reset(new uint8_t[needed]);
        shim::scratch_allocations.fetch_add(1, std::memory_order_relaxed);
        data = owned.get();
      }
      return data;
    }
  };

  static rsf::Result<std::shared_ptr<const M>> FromWire(ReceiveArena arena,
                                                        uint32_t length) {
    auto msg = std::make_shared<M>();
    shim::deserialize_copies.fetch_add(1, std::memory_order_relaxed);
    RSF_RETURN_IF_ERROR(
        rsf::ser::ros1::Deserialize(arena.data, length, *msg));
    return std::shared_ptr<const M>(std::move(msg));
  }
};

// ---- serialization-free messages ----

template <Message M>
  requires(::sfm::is_sfm_message_v<M>)
struct Serializer<M> {
  static constexpr bool kSerializationFree = true;

  static SerializedMessage ToWire(const M& msg) {
    // The common case: the message lives in a managed arena (the ROS-SF
    // Converter guarantees heap allocation), so publishing is one aliased
    // shared_ptr copy.
    if (auto buffer = ::sfm::gmm().Publish(&msg)) {
      return SerializedMessage{std::move(buffer->data), buffer->size};
    }
    // A stack-allocated message can only reach here if it never grew (any
    // variable-size use would have raised kUnmanagedMessage); its skeleton
    // alone is a complete whole message, so snapshot it.
    auto buffer = std::shared_ptr<uint8_t[]>(new uint8_t[sizeof(M)]);
    std::memcpy(buffer.get(), &msg, sizeof(M));
    shim::wire_snapshot_copies.fetch_add(1, std::memory_order_relaxed);
    return SerializedMessage{std::move(buffer), sizeof(M)};
  }

  /// In-process whole-copy tier: the generated copy constructor routes
  /// through MessageManager::TryWholeCopy — one arena memcpy of the whole
  /// message, no per-field work (paper §4.3.1's assignment fast path).
  static std::shared_ptr<const M> ToShared(const M& msg) {
    return ::sfm::make_message<M>(msg);
  }

  /// In-process zero-copy tier: aliases the manager's buffer pointer, so
  /// the subscriber's handle keeps the arena block alive even after the
  /// publisher's shared_ptr dies and the record is released — SFM reads
  /// are relative offsets and never need the record back (Fig. 8
  /// life-cycle, extended to borrowed in-process readers).
  static std::shared_ptr<const M> Borrow(const std::shared_ptr<const M>& msg) {
    if (auto buffer = ::sfm::gmm().Borrow(msg.get())) {
      return std::shared_ptr<const M>(std::move(buffer->data), msg.get());
    }
    // Unmanaged (stack-declared, never grown) message: plain shared
    // ownership of the caller's object is still zero-copy.
    return msg;
  }

  struct ReceiveArena {
    /// Present for interface parity with the regular variant; the SFM path
    /// never stages bytes — payloads land in the arena block directly.
    std::vector<uint8_t>* scratch = nullptr;
    ::sfm::PooledBlock block;
    size_t capacity = 0;

    uint8_t* Allocate(uint32_t length) {
      capacity = ::sfm::ArenaCapacityFor(M::DataType(), M::kArenaCapacity);
      if (capacity < length) capacity = length;
      // Pooled + default-initialized: arenas are megabytes (sized for the
      // largest message of the type), so recycling keeps pages warm and a
      // value-initializing allocation would memset the full capacity.
      block = ::sfm::AcquireArenaBlock(capacity);
      shim::arena_direct.fetch_add(1, std::memory_order_relaxed);
      return block.get();
    }
  };

  static rsf::Result<std::shared_ptr<const M>> FromWire(ReceiveArena arena,
                                                        uint32_t length) {
    if (length < sizeof(M)) {
      return rsf::OutOfRangeError("SFM frame smaller than the skeleton");
    }
    const uint8_t* start = ::sfm::gmm().AdoptReceived(
        M::DataType(), std::move(arena.block), arena.capacity, length);
    return ::sfm::WrapReceived<M>(start);
  }
};

}  // namespace ros
