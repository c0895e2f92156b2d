// The name service: tracks which topics are published where and tells
// subscribers about new publishers.
//
// In ROS1 this is the XML-RPC rosmaster process; here the node graph runs
// as threads in one process (DESIGN.md, deviations), so the master is an
// in-process registry with callback-based publisher-update notifications —
// the same control-plane contract, without the RPC encoding.  The data
// plane (message frames) still flows over real sockets: same-host AF_UNIX
// streams, with loopback TCP as the fallback and the remote model.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ros {

struct TopicEndpoint {
  /// Values of `local_owner` that name no process.
  static constexpr pid_t kOwnerUnknown = 0;
  static constexpr pid_t kNoLocalName = -1;

  std::string host;
  uint16_t port = 0;
  std::string callerid;
  /// Who holds the publication's same-host AF_UNIX name (DESIGN.md §8).
  /// A subscriber dials the name unless this is kNoLocalName, and keeps
  /// the connection only if the kernel reports the listener as this
  /// process — or, for kOwnerUnknown, as any process of its own user:
  ///  - a pid: the publishing process, which bound the name
  ///    (Publication::Endpoint);
  ///  - kNoLocalName: the publication could not bind it (TCP only);
  ///  - kOwnerUnknown: registered from outside the publishing process.
  pid_t local_owner = kOwnerUnknown;

  /// The endpoint is on this machine (what LanePolicy calls `loopback`).
  [[nodiscard]] bool loopback() const noexcept {
    return host == "127.0.0.1" || host == "localhost";
  }

  friend bool operator==(const TopicEndpoint& a,
                         const TopicEndpoint& b) noexcept {
    return a.host == b.host && a.port == b.port && a.callerid == b.callerid;
  }
};

struct TopicInfo {
  std::string name;
  std::string datatype;
  std::string md5sum;
  size_t publisher_count = 0;
  size_t subscriber_count = 0;
};

/// Notified with every publisher endpoint for a subscribed topic: existing
/// ones at registration time, new ones as they appear.  Callbacks run on
/// whichever thread registers the publisher and MUST NOT block: since PR 4
/// every subscriber connect is a nonblocking Link::Dial that completes on a
/// reactor loop, so a notify callback only allocates link state and returns.
using PublisherUpdateFn = std::function<void(const TopicEndpoint&)>;

class Master {
 public:
  Master() = default;
  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  /// Registers a publisher; notifies current subscribers of the topic.
  /// kFailedPrecondition if the topic exists with a different type.
  rsf::Status RegisterPublisher(const std::string& topic,
                                const std::string& datatype,
                                const std::string& md5sum,
                                const TopicEndpoint& endpoint);

  void UnregisterPublisher(const std::string& topic,
                           const TopicEndpoint& endpoint);

  /// Registers a subscriber; `on_publisher` fires synchronously for every
  /// existing publisher and later for each new one.  Returns a subscriber
  /// id for unregistration.
  rsf::Result<uint64_t> RegisterSubscriber(const std::string& topic,
                                           const std::string& datatype,
                                           const std::string& md5sum,
                                           PublisherUpdateFn on_publisher);

  void UnregisterSubscriber(const std::string& topic, uint64_t id);

  /// Topic table snapshot (rostopic-list flavoured introspection).
  [[nodiscard]] std::vector<TopicInfo> Topics() const;

  /// Publisher endpoints currently registered for `topic`.
  [[nodiscard]] std::vector<TopicEndpoint> PublishersOf(
      const std::string& topic) const;

  /// Drops all registrations (tests / process shutdown).
  void Reset();

 private:
  struct Topic {
    std::string datatype;
    std::string md5sum;
    std::vector<TopicEndpoint> publishers;
    std::map<uint64_t, PublisherUpdateFn> subscribers;
  };

  rsf::Status CheckTypeLocked(Topic& topic, const std::string& datatype,
                              const std::string& md5sum,
                              const std::string& topic_name);

  mutable std::mutex mutex_;
  std::map<std::string, Topic> topics_;
  uint64_t next_subscriber_id_ = 1;
};

/// The process-wide master instance.
Master& master();

}  // namespace ros
