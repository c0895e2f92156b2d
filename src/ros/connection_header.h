// TCPROS-style connection header: the key=value handshake exchanged when a
// subscriber connects to a publisher.  Encoded exactly like ROS1:
// repeated [uint32 length]["key=value"] fields inside one frame.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace ros {

using ConnectionHeader = std::map<std::string, std::string>;

/// Encodes the header fields (without the outer frame length).
std::vector<uint8_t> EncodeConnectionHeader(const ConnectionHeader& header);

/// Decodes a header payload; rejects malformed field lengths / missing '='.
rsf::Result<ConnectionHeader> DecodeConnectionHeader(const uint8_t* data,
                                                     size_t size);

/// Builds the subscriber-side handshake for a topic.
ConnectionHeader MakeSubscriberHeader(const std::string& topic,
                                      const std::string& datatype,
                                      const std::string& md5sum,
                                      const std::string& callerid);

/// Validates a subscriber handshake against what the publisher offers.
/// Returns OK or a descriptive error (also sent back over the wire).
rsf::Status ValidateSubscriberHeader(const ConnectionHeader& header,
                                     const std::string& topic,
                                     const std::string& datatype,
                                     const std::string& md5sum);

// ---- shm-tier negotiation fields (DESIGN.md §12.4 / §13) ----
//
// The shm tier rides the TCPROS handshake as plain key=value fields:
// request `shm=1, shm_pid=<pid>`, grant `shm=1, shm_ns=<ns>,
// shm_slot=<slot>`.  These helpers keep the field names and their
// validation in one place; LanePolicy (transport_lane.h) consumes the
// parsed forms.

/// Stamps the subscriber's shm request onto its handshake header.
void AddShmRequestFields(ConnectionHeader* header, pid_t pid);

/// The publisher-side view of a subscriber's shm request.
struct ShmRequest {
  bool requested = false;  // header carried shm=1
  bool pid_known = false;  // ... and a parseable shm_pid
  pid_t pid = 0;
};
[[nodiscard]] ShmRequest ParseShmRequest(const ConnectionHeader& header);

/// Stamps the publisher's shm grant onto its handshake reply.
void AddShmGrantFields(ConnectionHeader* reply, const std::string& ns,
                       int slot);

/// The subscriber-side view of the publisher's reply.  `granted` is true
/// only for a well-formed grant: shm=1 with a non-empty namespace and a
/// slot inside [0, max_slots) — anything malformed degrades to plain TCP.
struct ShmGrant {
  bool granted = false;
  std::string ns;
  int slot = -1;
};
[[nodiscard]] ShmGrant ParseShmGrant(const ConnectionHeader& reply,
                                     size_t max_slots);

// ---- mcast-tier negotiation fields (DESIGN.md §14) ----
//
// Same handshake ride as the shm tier: request `mcast=1`, grant `mcast=1,
// mcast_group=<ipv4>, mcast_port=<port>, mcast_seq=<first seq>`.  The
// grant tells the subscriber which group/port to join and the seq its
// stream starts at (everything older belongs to earlier joiners).

/// Stamps the subscriber's mcast request onto its handshake header.
void AddMcastRequestFields(ConnectionHeader* header);

/// The publisher-side view of a subscriber's mcast request.
struct McastRequest {
  bool requested = false;  // header carried mcast=1
};
[[nodiscard]] McastRequest ParseMcastRequest(const ConnectionHeader& header);

/// Stamps the publisher's mcast grant onto its handshake reply.
void AddMcastGrantFields(ConnectionHeader* reply, const std::string& group,
                         uint16_t port, uint64_t first_seq);

/// The subscriber-side view of the publisher's reply.  `granted` is true
/// only for a well-formed grant: mcast=1 with a syntactically valid IPv4
/// multicast group (224.0.0.0/4), a non-zero port, and a parseable first
/// seq — anything malformed degrades to plain TCP, never a bad join.
struct McastGrant {
  bool granted = false;
  std::string group;
  uint16_t port = 0;
  uint64_t first_seq = 0;
};
[[nodiscard]] McastGrant ParseMcastGrant(const ConnectionHeader& reply);

// ---- stream-ring negotiation field (DESIGN.md §8) ----
//
// A same-host subscriber whose link attached a stream ring to its request
// (net/stream_ring.h) says so with `ring=1`; a publisher that maps and
// grants the ring answers `ring=1`.  One field, both directions.

/// Stamps `ring=1` onto a request or a reply.
void AddRingField(ConnectionHeader* header);
/// Whether a request asked for, or a reply granted, the stream ring.
[[nodiscard]] bool HasRingField(const ConnectionHeader& header);

}  // namespace ros
