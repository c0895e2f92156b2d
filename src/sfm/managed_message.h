// Allocation plumbing shared by every generated SFM message class.
//
// The paper implements "initial memory allocation ... by overloading the
// global new operator and explicitly specializing std::make_shared"
// (§4.3.1).  We inject the overloads per message class instead, through this
// CRTP base: `new Image` resolves to Image::operator new exactly as in the
// paper, without hijacking every allocation in the process (see DESIGN.md,
// substitutions).  The base is empty, so the derived skeleton layout is
// unchanged (empty-base optimization; enforced by static_asserts in the
// generated headers).
#pragma once

#include <cstddef>
#include <memory>
#include <new>

#include "sfm/message_manager.h"

namespace sfm {

template <typename Derived>
struct ManagedMessage {
  /// Allocates the message's arena (capacity from the IDL, overridable via
  /// sfm::SetArenaCapacity) and registers it with the global manager.
  static void* operator new(size_t size) {
    const size_t capacity =
        ArenaCapacityFor(Derived::DataType(), Derived::kArenaCapacity);
    const size_t cap = capacity < size ? size : capacity;
    return gmm().Allocate(Derived::DataType(), cap, size);
  }

  /// Disarms the manager record; the arena returns to the pool once the
  /// transport holds no buffer pointers (paper Fig. 8).  Falls back to the
  /// global heap for pointers that were never registered.
  static void operator delete(void* ptr) {
    if (!gmm().Release(ptr)) ::operator delete(ptr);
  }

  // Placement form used by the receive path (interpret-in-place).
  static void* operator new(size_t, void* where) noexcept { return where; }
  static void operator delete(void*, void*) noexcept {}

  // Arrays of whole messages make no life-cycle sense here.
  static void* operator new[](size_t) = delete;
  static void operator delete[](void*) = delete;
};

/// True for generated SFM message types.
template <typename T>
inline constexpr bool is_sfm_message_v =
    std::is_base_of_v<ManagedMessage<T>, T>;

/// The supported way to get a shared serialization-free message.
/// (`std::make_shared` bypasses class operator new — its control block +
/// object allocation would not be an arena — so generated headers also
/// provide `T::create()` forwarding here.)
template <typename M, typename... Args>
std::shared_ptr<M> make_message(Args&&... args) {
  static_assert(is_sfm_message_v<M>, "make_message is for SFM messages");
  return std::shared_ptr<M>(new M(std::forward<Args>(args)...));
}

/// Receive path: wraps a just-adopted arena (see
/// MessageManager::AdoptReceived) as a callback-ready ConstPtr.  The deleter
/// releases the manager record — the "dummy de-serialization routine" of
/// paper Fig. 9 in which the buffer and the message object are one.
template <typename M>
std::shared_ptr<const M> WrapReceived(const uint8_t* start) {
  static_assert(is_sfm_message_v<M>, "WrapReceived is for SFM messages");
  const M* msg = reinterpret_cast<const M*>(start);
  return std::shared_ptr<const M>(
      msg, [](const M* m) { gmm().Release(const_cast<M*>(m)); });
}

}  // namespace sfm
