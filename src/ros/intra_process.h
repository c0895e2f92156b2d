// In-process transport: the zero-copy fast path negotiated when publisher
// and subscriber live in the same process.
//
// The TCPROS data plane (publication.h / subscription.h) always works, but
// co-located endpoints do not need it: every byte a loopback socket moves
// is a `ToWire` copy, a kernel round-trip, and a receive-arena copy that a
// pointer hand-off avoids entirely (TZC and ROS 2's Agnocast make the same
// observation).  At connect time a Subscription<M> that finds the
// publisher's Publication in this process — via the registry below, keyed
// by the (topic, port) pair the master hands out — registers a direct
// IntraLink with it instead of dialing TCP.
//
// Delivery has two tiers (see DESIGN.md §8):
//
//   whole-copy  publish(const M&): the publisher may keep mutating the
//               message, so each publish clones it once (for SFM messages a
//               single arena memcpy via MessageManager::TryWholeCopy — no
//               per-field serialization) and every in-process subscriber
//               shares the clone.
//
//   zero-copy   publish(shared_ptr<const M>) / publish(std::move(msg)):
//               ownership is relinquished or shared, so subscribers receive
//               a shared_ptr<const M> aliasing the publisher's message; for
//               SFM messages it pins the manager's buffer pointer, so the
//               arena is released only when the last subscriber drops it.
//
// TCP remains the transport for SimLink-shaped subscriptions (the simulated
// two-machine topologies), for subscriptions that opt out
// (SubscribeOptions::allow_intra_process = false), and as the fallback for
// endpoints that never registered here (e.g. bag replay, which fans out
// untyped wire frames).
//
// Accounting: an in-process delivery attempt flows through the SAME
// publisher-side enqueued/dropped counters as a TCP frame (an attempt on a
// dead link is a drop), so Publication::SentCount() and PublicationStats
// describe the topic across both transports, not one wire.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

namespace ros {

class Publication;

/// Which delivery tier produced an in-process message.
enum class IntraTier : uint8_t {
  kWholeCopy,  // subscriber got its own clone (one memcpy, no serialization)
  kZeroCopy,   // subscriber aliases the publisher's message (no copy at all)
};

/// Type-erased subscriber endpoint of one in-process link.  The concrete
/// Subscription<M>::IntraLink casts the void pointer back to
/// `const shared_ptr<const M>*`; type safety comes from the
/// transport-checksum handshake performed by Publication::AddIntraLink
/// before the link is accepted, exactly mirroring the TCPROS header
/// exchange.
class IntraLinkBase {
 public:
  virtual ~IntraLinkBase() = default;

  /// Delivers one message: `message` points at the publisher's
  /// shared_ptr<const M>, borrowed for this call only (copy it to keep
  /// it).  Returns false once the subscriber has shut down; the
  /// publication then counts a drop and culls the link.
  ///
  /// Ownership contract: the link keeps its subscriber alive (a plain
  /// owning pointer, no per-delivery locking), so the lane holding the
  /// link — in the publication's lane array or in the lane view of a
  /// publish in flight — is what makes Deliver safe, including from a
  /// callback that drops the subscriber's last user handle.  The subscriber
  /// breaks the resulting cycle in its Shutdown by unhooking the link
  /// (Publication::RemoveIntraLink).
  virtual bool Deliver(const void* message, IntraTier tier) = 0;

  /// False once the subscriber shut down (used for counting and culling).
  [[nodiscard]] virtual bool alive() const noexcept = 0;

  /// Negotiated transport checksum (md5, "-sfm"-marked for SFM variants).
  [[nodiscard]] virtual const std::string& transport_md5() const noexcept = 0;

  [[nodiscard]] virtual const std::string& callerid() const noexcept = 0;
};

/// Process-wide map from the master's (topic, port) endpoint coordinates to
/// the live Publication behind them.  Only *typed* publishers register
/// (NodeHandle::advertise): an untyped Publication (bag replay) moves wire
/// frames and cannot feed typed in-process links, so lookups for it miss
/// and the subscriber falls back to TCP.
class IntraProcessRegistry {
 public:
  IntraProcessRegistry() = default;
  IntraProcessRegistry(const IntraProcessRegistry&) = delete;
  IntraProcessRegistry& operator=(const IntraProcessRegistry&) = delete;

  void Register(const std::string& topic, uint16_t port,
                std::weak_ptr<Publication> publication);
  void Unregister(const std::string& topic, uint16_t port);

  /// The live Publication listening on (topic, port), or nullptr if none
  /// registered here (remote endpoint, untyped publisher, or torn down).
  [[nodiscard]] std::shared_ptr<Publication> Find(const std::string& topic,
                                                  uint16_t port) const;

  /// Number of registered (live or not-yet-expired) endpoints (tests).
  [[nodiscard]] size_t Size() const;

 private:
  using Key = std::pair<std::string, uint16_t>;
  mutable std::mutex mutex_;
  std::map<Key, std::weak_ptr<Publication>> endpoints_;
};

/// The process-wide registry (leaked, like ros::master(): unwinding node
/// threads may still unregister at process exit).
IntraProcessRegistry& intra_registry();

}  // namespace ros
