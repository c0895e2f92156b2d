#include "ros/connection_header.h"

#include <arpa/inet.h>
#include <netinet/in.h>

#include <cstdlib>

#include "common/endian.h"

namespace ros {

std::vector<uint8_t> EncodeConnectionHeader(const ConnectionHeader& header) {
  std::vector<uint8_t> out;
  for (const auto& [key, value] : header) {
    const std::string field = key + "=" + value;
    uint8_t length[4];
    rsf::StoreLE<uint32_t>(length, static_cast<uint32_t>(field.size()));
    out.insert(out.end(), length, length + 4);
    out.insert(out.end(), field.begin(), field.end());
  }
  return out;
}

rsf::Result<ConnectionHeader> DecodeConnectionHeader(const uint8_t* data,
                                                     size_t size) {
  ConnectionHeader header;
  size_t at = 0;
  while (at < size) {
    if (at + 4 > size) {
      return rsf::InvalidArgumentError("truncated header field length");
    }
    const auto length = rsf::LoadLE<uint32_t>(data + at);
    at += 4;
    if (at + length > size) {
      return rsf::InvalidArgumentError("truncated header field");
    }
    const std::string field(reinterpret_cast<const char*>(data + at), length);
    at += length;
    const size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return rsf::InvalidArgumentError("header field without '=': " + field);
    }
    header[field.substr(0, eq)] = field.substr(eq + 1);
  }
  return header;
}

ConnectionHeader MakeSubscriberHeader(const std::string& topic,
                                      const std::string& datatype,
                                      const std::string& md5sum,
                                      const std::string& callerid) {
  return ConnectionHeader{{"topic", topic},
                          {"type", datatype},
                          {"md5sum", md5sum},
                          {"callerid", callerid}};
}

rsf::Status ValidateSubscriberHeader(const ConnectionHeader& header,
                                     const std::string& topic,
                                     const std::string& datatype,
                                     const std::string& md5sum) {
  const auto get = [&](const char* key) -> const std::string* {
    const auto it = header.find(key);
    return it == header.end() ? nullptr : &it->second;
  };
  const std::string* got_topic = get("topic");
  if (got_topic == nullptr || *got_topic != topic) {
    return rsf::InvalidArgumentError("topic mismatch on " + topic);
  }
  const std::string* got_type = get("type");
  if (got_type == nullptr || (*got_type != datatype && *got_type != "*")) {
    return rsf::InvalidArgumentError(
        "datatype mismatch on " + topic + ": publisher offers " + datatype +
        ", subscriber wants " + (got_type ? *got_type : "<missing>"));
  }
  const std::string* got_md5 = get("md5sum");
  if (got_md5 == nullptr || (*got_md5 != md5sum && *got_md5 != "*")) {
    return rsf::InvalidArgumentError("md5sum mismatch on " + topic);
  }
  return rsf::Status::Ok();
}

void AddShmRequestFields(ConnectionHeader* header, pid_t pid) {
  (*header)["shm"] = "1";
  (*header)["shm_pid"] = std::to_string(pid);
}

ShmRequest ParseShmRequest(const ConnectionHeader& header) {
  ShmRequest request;
  const auto want = header.find("shm");
  request.requested = want != header.end() && want->second == "1";
  if (!request.requested) return request;
  const auto pid_field = header.find("shm_pid");
  if (pid_field != header.end()) {
    char* end = nullptr;
    const long parsed = std::strtol(pid_field->second.c_str(), &end, 10);
    // Strict: the whole field must be a positive pid — a half-parsed one
    // would acquire a peer slot for a process that can never release it.
    if (end != pid_field->second.c_str() && *end == '\0' && parsed > 0) {
      request.pid = static_cast<pid_t>(parsed);
      request.pid_known = true;
    }
  }
  return request;
}

void AddShmGrantFields(ConnectionHeader* reply, const std::string& ns,
                       int slot) {
  (*reply)["shm"] = "1";
  (*reply)["shm_ns"] = ns;
  (*reply)["shm_slot"] = std::to_string(slot);
}

void AddMcastRequestFields(ConnectionHeader* header) {
  (*header)["mcast"] = "1";
}

McastRequest ParseMcastRequest(const ConnectionHeader& header) {
  McastRequest request;
  const auto want = header.find("mcast");
  request.requested = want != header.end() && want->second == "1";
  return request;
}

void AddMcastGrantFields(ConnectionHeader* reply, const std::string& group,
                         uint16_t port, uint64_t first_seq) {
  (*reply)["mcast"] = "1";
  (*reply)["mcast_group"] = group;
  (*reply)["mcast_port"] = std::to_string(port);
  (*reply)["mcast_seq"] = std::to_string(first_seq);
}

McastGrant ParseMcastGrant(const ConnectionHeader& reply) {
  McastGrant grant;
  const auto mcast = reply.find("mcast");
  const auto group = reply.find("mcast_group");
  const auto port = reply.find("mcast_port");
  const auto seq = reply.find("mcast_seq");
  if (mcast == reply.end() || mcast->second != "1" || group == reply.end() ||
      port == reply.end() || seq == reply.end()) {
    return grant;
  }
  in_addr addr{};
  if (::inet_pton(AF_INET, group->second.c_str(), &addr) != 1 ||
      (ntohl(addr.s_addr) >> 28) != 0xE) {
    return grant;  // not a multicast address — refuse the join
  }
  char* end = nullptr;
  const long parsed_port = std::strtol(port->second.c_str(), &end, 10);
  if (end == port->second.c_str() || *end != '\0' || parsed_port <= 0 ||
      parsed_port > 65535) {
    return grant;
  }
  end = nullptr;
  const unsigned long long parsed_seq =
      std::strtoull(seq->second.c_str(), &end, 10);
  if (end == seq->second.c_str() || *end != '\0') return grant;
  grant.granted = true;
  grant.group = group->second;
  grant.port = static_cast<uint16_t>(parsed_port);
  grant.first_seq = parsed_seq;
  return grant;
}

ShmGrant ParseShmGrant(const ConnectionHeader& reply, size_t max_slots) {
  ShmGrant grant;
  const auto shm = reply.find("shm");
  const auto ns = reply.find("shm_ns");
  const auto slot = reply.find("shm_slot");
  if (shm == reply.end() || shm->second != "1" || ns == reply.end() ||
      slot == reply.end()) {
    return grant;
  }
  char* end = nullptr;
  const long parsed = std::strtol(slot->second.c_str(), &end, 10);
  if (end == slot->second.c_str() || *end != '\0' || parsed < 0 ||
      static_cast<size_t>(parsed) >= max_slots || ns->second.empty()) {
    return grant;
  }
  grant.granted = true;
  grant.ns = ns->second;
  grant.slot = static_cast<int>(parsed);
  return grant;
}

void AddRingField(ConnectionHeader* header) { (*header)["ring"] = "1"; }

bool HasRingField(const ConnectionHeader& header) {
  const auto it = header.find("ring");
  return it != header.end() && it->second == "1";
}

}  // namespace ros
