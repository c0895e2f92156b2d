// The developer-facing API — the same programming pattern as roscpp
// (paper Fig. 3):
//
//   ros::NodeHandle nh("pub");
//   ros::Publisher pub = nh.advertise<sensor_msgs::Image>("/image", 10);
//   ...
//   pub.publish(img);
//
//   ros::NodeHandle nh("sub");
//   ros::Subscriber sub = nh.subscribe<sensor_msgs::Image>(
//       "/image", 10, [](const sensor_msgs::Image::ConstPtr& msg) {...});
//   nh.spin();
//
// Swapping sensor_msgs::Image for sensor_msgs::sfm::Image — what the
// paper's regenerated headers do underneath unchanged source — flips the
// whole pipeline to the serialization-free path; nothing else changes.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ros/callback_queue.h"
#include "ros/master.h"
#include "ros/message_traits.h"
#include "ros/publication.h"
#include "ros/subscription.h"

namespace ros {

/// Checksum negotiated on the wire.  Regular and SFM variants of a message
/// share the IDL MD5 but not the wire format, so the SFM side is marked —
/// mixing them on one topic is refused at the master and in the handshake.
template <Message M>
std::string TransportChecksum() {
  std::string md5 = M::Md5Sum();
  if constexpr (::sfm::is_sfm_message_v<M>) md5 += "-sfm";
  return md5;
}

/// Handle to an advertised topic; copyable, reference-counted.  The last
/// handle going out of scope tears the publication down (roscpp semantics).
class Publisher {
 public:
  Publisher() = default;

  /// Publishes a message the caller keeps owning (and may keep mutating).
  /// Wire subscribers get the wire form; co-located subscribers get the
  /// whole-copy tier — one clone, shared by all of them.  Everything a
  /// publish produces is built ONCE into a PublishContext and fanned out
  /// across all lanes in a single Publish call; the context borrows the
  /// typed handle, which lives on this frame until Publish returns.
  template <Message M>
  void publish(const M& msg) const {
    CheckType<M>();
    PublishContext ctx;
    std::shared_ptr<const M> intra;
    if (impl_->HasIntraLinks()) {
      intra = Serializer<M>::ToShared(msg);
      ctx.intra = &intra;
      ctx.intra_tier = IntraTier::kWholeCopy;
    }
    if (impl_->HasTcpLinks()) ctx.payload = Serializer<M>::ToWire(msg);
    if (!ctx.empty()) impl_->Publish(std::move(ctx));
  }

  /// Publishing through a shared_ptr relinquishes mutation rights (roscpp's
  /// intra-process contract): co-located subscribers get the zero-copy tier
  /// — a handle aliasing this very message, no copy at all.
  template <Message M>
  void publish(const std::shared_ptr<const M>& msg) const {
    CheckType<M>();
    PublishContext ctx;
    std::shared_ptr<const M> intra;
    if (impl_->HasIntraLinks()) {
      intra = Serializer<M>::Borrow(msg);
      ctx.intra = &intra;
      ctx.intra_tier = IntraTier::kZeroCopy;
    }
    if (impl_->HasTcpLinks()) ctx.payload = Serializer<M>::ToWire(*msg);
    if (!ctx.empty()) impl_->Publish(std::move(ctx));
  }
  template <Message M>
  void publish(const std::shared_ptr<M>& msg) const {
    publish(std::shared_ptr<const M>(msg));
  }

  /// Publishing an rvalue hands the message over: regular messages move
  /// into shared ownership and ride the zero-copy tier; SFM messages clone
  /// once into a fresh arena (relocating an arena-backed skeleton away from
  /// its payloads would corrupt the relative offsets) and share that clone.
  template <typename T, Message M = std::remove_cvref_t<T>>
    requires(!std::is_lvalue_reference_v<T>)
  void publish(T&& msg) const {
    if constexpr (::sfm::is_sfm_message_v<M>) {
      publish(Serializer<M>::ToShared(msg));
    } else {
      publish(std::shared_ptr<const M>(std::make_shared<M>(std::move(msg))));
    }
  }

  [[nodiscard]] size_t getNumSubscribers() const {
    return impl_ ? impl_->NumSubscribers() : 0;
  }
  [[nodiscard]] std::string getTopic() const {
    return impl_ ? impl_->topic() : std::string();
  }
  /// Publisher-side delivery counters (TCP enqueues/drops, intra tiers).
  [[nodiscard]] PublicationStats getStats() const {
    return impl_ ? impl_->Stats() : PublicationStats{};
  }
  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
  void shutdown() { impl_.reset(); }

 private:
  friend class NodeHandle;
  explicit Publisher(std::shared_ptr<Publication> impl)
      : impl_(std::move(impl)) {}

  template <Message M>
  void CheckType() const {
    SFM_CHECK_MSG(impl_ != nullptr, "publish on an invalid Publisher");
    SFM_CHECK_MSG(impl_->datatype() == M::DataType(),
                  "publish type does not match advertise type");
  }

  std::shared_ptr<Publication> impl_;
};

/// Handle to a subscription; copyable, reference-counted.  The copies share
/// one owner, and the last one to go runs Subscription::Shutdown before
/// releasing the subscription (roscpp semantics).  Shutdown is what frees
/// it: each in-process lane holds its subscription strongly
/// (subscription.h), so the subscription outlives its last handle only
/// while a publish that already took its lane is in flight.
class Subscriber {
 public:
  Subscriber() = default;

  [[nodiscard]] std::string getTopic() const {
    return impl_ ? impl_->topic() : std::string();
  }
  [[nodiscard]] uint64_t receivedCount() const {
    return impl_ ? impl_->ReceivedCount() : 0;
  }
  [[nodiscard]] uint64_t droppedCount() const {
    return impl_ ? impl_->DroppedCount() : 0;
  }
  [[nodiscard]] uint64_t intraZeroCopyCount() const {
    return impl_ ? impl_->IntraZeroCopyCount() : 0;
  }
  [[nodiscard]] uint64_t intraWholeCopyCount() const {
    return impl_ ? impl_->IntraWholeCopyCount() : 0;
  }
  /// Cross-process deliveries that arrived through the shm tier (mapped
  /// and read in place, zero payload copies).
  [[nodiscard]] uint64_t shmZeroCopyCount() const {
    return impl_ ? impl_->ShmZeroCopyCount() : 0;
  }
  [[nodiscard]] size_t getNumPublishers() const {
    return impl_ ? impl_->NumPublishers() : 0;
  }
  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }
  void shutdown() {
    if (impl_) impl_->Shutdown();
    impl_.reset();
  }

 private:
  friend class NodeHandle;
  explicit Subscriber(std::shared_ptr<SubscriptionBase> subscription) {
    SubscriptionBase* raw = subscription.get();
    impl_ = std::shared_ptr<SubscriptionBase>(
        raw, [owned = std::move(subscription)](SubscriptionBase*) mutable {
          owned->Shutdown();
          owned.reset();
        });
  }
  std::shared_ptr<SubscriptionBase> impl_;
};

class NodeHandle {
 public:
  explicit NodeHandle(std::string name = "node")
      : name_(std::move(name)),
        queue_(std::make_shared<CallbackQueue>()) {}

  ~NodeHandle() { shutdown(); }
  NodeHandle(const NodeHandle&) = delete;
  NodeHandle& operator=(const NodeHandle&) = delete;

  /// Declares a topic and returns the publishing handle (paper Fig. 3).
  template <Message M>
  Publisher advertise(const std::string& topic, size_t queue_size) {
    auto publication = Publication::Create(topic, M::DataType(),
                                           TransportChecksum<M>(), name_,
                                           queue_size, /*intra_capable=*/true);
    SFM_CHECK_MSG(publication.ok(), publication.status().ToString().c_str());
    const auto status = master().RegisterPublisher(
        topic, M::DataType(), TransportChecksum<M>(),
        TopicEndpoint{"127.0.0.1", (*publication)->port(), name_});
    if (!status.ok()) {
      (*publication)->Shutdown();
      throw std::runtime_error(status.ToString());
    }
    registered_publications_.push_back(
        {topic, TopicEndpoint{"127.0.0.1", (*publication)->port(), name_}});
    return Publisher(*std::move(publication));
  }

  /// Registers a callback for a topic (paper Fig. 3).  The callback runs on
  /// this node's callback queue, driven by spin()/spinOnce().
  template <Message M>
  Subscriber subscribe(
      const std::string& topic, size_t queue_size,
      std::function<void(const std::shared_ptr<const M>&)> callback,
      SubscribeOptions options = {}) {
    options.queue_size = queue_size;
    auto subscription =
        Subscription<M>::Create(topic, TransportChecksum<M>(), name_, options,
                                std::move(callback), queue_);
    if (!subscription.ok()) {
      throw std::runtime_error(subscription.status().ToString());
    }
    return Subscriber(*std::move(subscription));
  }

  /// Processes callbacks until shutdown() — ros::spin().
  void spin() { queue_->Spin(); }
  /// Processes one pending callback if any — ros::spinOnce().
  bool spinOnce() { return queue_->SpinOnce(); }
  bool spinOnceFor(uint64_t timeout_nanos) {
    return queue_->SpinOnceFor(timeout_nanos);
  }

  /// Stops spin() and unregisters this node's publishers from the master.
  void shutdown() {
    queue_->Shutdown();
    for (const auto& [topic, endpoint] : registered_publications_) {
      master().UnregisterPublisher(topic, endpoint);
    }
    registered_publications_.clear();
  }

  [[nodiscard]] const std::string& getName() const noexcept { return name_; }
  [[nodiscard]] std::shared_ptr<CallbackQueue> getCallbackQueue() const {
    return queue_;
  }

 private:
  std::string name_;
  std::shared_ptr<CallbackQueue> queue_;
  std::vector<std::pair<std::string, TopicEndpoint>> registered_publications_;
};

}  // namespace ros
