#include "ros/bag.h"

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>

#include "common/clock.h"
#include "common/endian.h"
#include "net/framing.h"
#include "net/link.h"
#include "net/poller.h"
#include "ros/connection_header.h"
#include "ros/master.h"
#include "ros/publication.h"
#include "ros/transport_lane.h"

namespace ros {
namespace {

constexpr char kMagic[] = "RSFBAG\x01\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;

void WriteU32(std::ofstream& out, uint32_t value) {
  uint8_t bytes[4];
  rsf::StoreLE(bytes, value);
  out.write(reinterpret_cast<const char*>(bytes), 4);
}

void WriteU64(std::ofstream& out, uint64_t value) {
  uint8_t bytes[8];
  rsf::StoreLE(bytes, value);
  out.write(reinterpret_cast<const char*>(bytes), 8);
}

rsf::Status ReadU32(std::ifstream& in, uint32_t* value) {
  uint8_t bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (!in) return rsf::OutOfRangeError("truncated bag record");
  *value = rsf::LoadLE<uint32_t>(bytes);
  return rsf::Status::Ok();
}

rsf::Status ReadU64(std::ifstream& in, uint64_t* value) {
  uint8_t bytes[8];
  in.read(reinterpret_cast<char*>(bytes), 8);
  if (!in) return rsf::OutOfRangeError("truncated bag record");
  *value = rsf::LoadLE<uint64_t>(bytes);
  return rsf::Status::Ok();
}

rsf::Status ReadString(std::ifstream& in, std::string* out) {
  uint32_t length = 0;
  RSF_RETURN_IF_ERROR(ReadU32(in, &length));
  if (length > 1 << 20) return rsf::OutOfRangeError("bag string too long");
  out->resize(length);
  in.read(out->data(), length);
  if (!in) return rsf::OutOfRangeError("truncated bag string");
  return rsf::Status::Ok();
}

}  // namespace

rsf::Result<BagWriter> BagWriter::Open(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return rsf::UnavailableError("cannot open bag for write: " + path);
  out.write(kMagic, kMagicLen);
  return BagWriter(std::move(out));
}

rsf::Status BagWriter::Write(const std::string& topic,
                             const std::string& datatype,
                             const std::string& md5sum, uint64_t stamp_nanos,
                             const uint8_t* payload, size_t payload_size) {
  if (!out_.is_open()) return rsf::FailedPreconditionError("bag closed");
  WriteU32(out_, static_cast<uint32_t>(topic.size()));
  out_.write(topic.data(), static_cast<std::streamsize>(topic.size()));
  WriteU32(out_, static_cast<uint32_t>(datatype.size()));
  out_.write(datatype.data(), static_cast<std::streamsize>(datatype.size()));
  WriteU32(out_, static_cast<uint32_t>(md5sum.size()));
  out_.write(md5sum.data(), static_cast<std::streamsize>(md5sum.size()));
  WriteU64(out_, stamp_nanos);
  WriteU32(out_, static_cast<uint32_t>(payload_size));
  out_.write(reinterpret_cast<const char*>(payload),
             static_cast<std::streamsize>(payload_size));
  if (!out_) return rsf::UnavailableError("bag write failed");
  ++records_;
  return rsf::Status::Ok();
}

rsf::Status BagWriter::Close() {
  if (!out_.is_open()) return rsf::Status::Ok();
  out_.flush();
  out_.close();
  return out_.fail() ? rsf::UnavailableError("bag close failed")
                     : rsf::Status::Ok();
}

rsf::Result<BagReader> BagReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return rsf::NotFoundError("cannot open bag: " + path);
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  if (!in || std::memcmp(magic, kMagic, kMagicLen) != 0) {
    return rsf::InvalidArgumentError("not a bag file: " + path);
  }
  return BagReader(std::move(in));
}

rsf::Result<BagRecord> BagReader::Next() {
  if (in_.peek() == EOF) return rsf::NotFoundError("end of bag");
  BagRecord record;
  RSF_RETURN_IF_ERROR(ReadString(in_, &record.topic));
  RSF_RETURN_IF_ERROR(ReadString(in_, &record.datatype));
  RSF_RETURN_IF_ERROR(ReadString(in_, &record.md5sum));
  RSF_RETURN_IF_ERROR(ReadU64(in_, &record.stamp_nanos));
  uint32_t payload_size = 0;
  RSF_RETURN_IF_ERROR(ReadU32(in_, &payload_size));
  if (payload_size > rsf::net::kMaxFramePayload) {
    return rsf::OutOfRangeError("bag payload too large");
  }
  record.payload.resize(payload_size);
  in_.read(reinterpret_cast<char*>(record.payload.data()), payload_size);
  if (!in_) return rsf::OutOfRangeError("truncated bag payload");
  return record;
}

rsf::Result<std::vector<BagRecord>> BagReader::ReadAll() {
  std::vector<BagRecord> records;
  while (true) {
    auto record = Next();
    if (!record.ok()) {
      if (record.status().code() == rsf::StatusCode::kNotFound) break;
      return record.status();
    }
    records.push_back(*std::move(record));
  }
  return records;
}

// ---- TopicRecorder ----
//
// Type-erased subscription over client-role Links: connects like a
// Subscription<M> but treats the payload as an opaque frame.  It handshakes
// with datatype "*" / md5 "*", which the publisher-side validation accepts
// (rostopic/rosbag behaviour).  The recorder spawns NO threads: each
// publisher link dials nonblockingly, handshakes on its reactor loop, and
// appends records from the loop's frame callback.  (Bag appends are small
// buffered ofstream writes; they run on the loop thread, serialized across
// links by write_mutex since one BagWriter can span topics and loops.)

struct TopicRecorder::Impl : std::enable_shared_from_this<TopicRecorder::Impl> {
  std::string topic;
  BagWriter* writer = nullptr;
  std::mutex write_mutex;
  uint64_t master_id = 0;
  std::atomic<bool> shutdown{false};
  std::atomic<uint64_t> recorded{0};

  /// One recorded publisher connection.  datatype/md5 (learned from the
  /// handshake reply) and the payload staging buffer are loop-confined.
  struct RecordLink {
    std::shared_ptr<rsf::net::Link> link;  // under links_mutex
    bool removed = false;                  // under links_mutex
    std::string datatype = "*";
    std::string md5 = "*";
    std::vector<uint8_t> payload;
  };

  std::mutex links_mutex;
  std::vector<std::shared_ptr<RecordLink>> links;

  /// Master-notify thread; never blocks.
  void OnPublisher(const TopicEndpoint& endpoint) {
    if (shutdown.load(std::memory_order_acquire)) return;
    auto rl = std::make_shared<RecordLink>();
    std::weak_ptr<Impl> weak = weak_from_this();

    rsf::net::Link::Callbacks callbacks;
    callbacks.make_handshake_request = [topic = topic] {
      return EncodeConnectionHeader(
          MakeSubscriberHeader(topic, "*", "*", "rsfbag_record"));
    };
    callbacks.on_handshake_reply = [rl](const uint8_t* data, uint32_t length) {
      auto header = DecodeConnectionHeader(data, length);
      if (!header.ok() || header->count("error") != 0) return false;
      if (const auto it = header->find("type"); it != header->end()) {
        rl->datatype = it->second;
      }
      if (const auto it = header->find("md5sum"); it != header->end()) {
        rl->md5 = it->second;
      }
      return true;
    };
    callbacks.alloc = [rl](uint32_t length) {
      rl->payload.resize(length == 0 ? 1 : length);
      return rl->payload.data();
    };
    callbacks.on_frame = [weak, rl](uint32_t length) {
      if (auto self = weak.lock()) self->OnFrame(*rl, length);
    };
    callbacks.on_closed = [weak,
                           rl](const std::shared_ptr<rsf::net::Link>&) {
      if (auto self = weak.lock()) self->RemoveLink(rl);
    };

    // The recorder dials like an unshaped subscriber: AF_UNIX first for a
    // same-host publisher.
    LanePolicy::SubscriberSide side;
    side.loopback = endpoint.loopback();
    side.local_name = endpoint.local_owner != TopicEndpoint::kNoLocalName;
    rsf::net::Link::Options options;
    options.local_first = LanePolicy::DialLocalFirst(side);
    options.local_owner = endpoint.local_owner;
    auto link = rsf::net::Link::Dial(endpoint.host, endpoint.port,
                                     rsf::net::Reactor::Get().NextLoop(),
                                     options, std::move(callbacks));
    {
      std::lock_guard<std::mutex> lock(links_mutex);
      if (!shutdown.load(std::memory_order_acquire)) {
        rl->link = link;
        if (!rl->removed) links.push_back(rl);
        return;
      }
    }
    link->CloseSync();
  }

  /// Loop-thread-only: one frame arrived on a recorded link.
  void OnFrame(const RecordLink& rl, uint32_t length) {
    if (shutdown.load(std::memory_order_acquire)) return;
    {
      std::lock_guard<std::mutex> lock(write_mutex);
      const auto now = rsf::Time::Now().ToNanos();
      if (!writer->Write(topic, rl.datatype, rl.md5, now, rl.payload.data(),
                         length)
               .ok()) {
        return;
      }
    }
    recorded.fetch_add(1, std::memory_order_relaxed);
  }

  void RemoveLink(const std::shared_ptr<RecordLink>& rl) {
    std::lock_guard<std::mutex> lock(links_mutex);
    rl->removed = true;
    std::erase(links, rl);
  }

  void Shutdown() {
    bool expected = false;
    if (!shutdown.compare_exchange_strong(expected, true)) return;
    master().UnregisterSubscriber(topic, master_id);
    std::vector<std::shared_ptr<RecordLink>> snapshot;
    {
      std::lock_guard<std::mutex> lock(links_mutex);
      snapshot.swap(links);
    }
    // Outside links_mutex_: CloseSync handshakes with the loop thread,
    // which may be blocked in RemoveLink on that mutex.
    for (const auto& rl : snapshot) rl->link->CloseSync();
  }
};

TopicRecorder::TopicRecorder(const std::string& topic, BagWriter* writer)
    : impl_(std::make_shared<Impl>()) {
  impl_->topic = topic;
  impl_->writer = writer;
  std::weak_ptr<Impl> weak = impl_;
  auto id = master().RegisterSubscriber(
      topic, "*", "*", [weak](const TopicEndpoint& endpoint) {
        if (auto impl = weak.lock()) impl->OnPublisher(endpoint);
      });
  SFM_CHECK_MSG(id.ok(), id.status().ToString().c_str());
  impl_->master_id = *id;
}

TopicRecorder::~TopicRecorder() { impl_->Shutdown(); }

uint64_t TopicRecorder::recorded() const {
  return impl_->recorded.load(std::memory_order_relaxed);
}

void TopicRecorder::Shutdown() { impl_->Shutdown(); }

rsf::Result<uint64_t> PlayBag(const std::string& path, double rate) {
  auto reader = BagReader::Open(path);
  if (!reader.ok()) return reader.status();
  auto records = reader->ReadAll();
  if (!records.ok()) return records.status();
  if (records->empty()) return uint64_t{0};

  // One publication per distinct topic.
  std::map<std::string, std::shared_ptr<Publication>> publications;
  for (const auto& record : *records) {
    if (publications.count(record.topic) != 0) continue;
    auto publication = Publication::Create(record.topic, record.datatype,
                                           record.md5sum, "rsfbag_play", 16);
    if (!publication.ok()) return publication.status();
    RSF_RETURN_IF_ERROR(master().RegisterPublisher(
        record.topic, record.datatype, record.md5sum,
        (*publication)->Endpoint()));
    publications.emplace(record.topic, *std::move(publication));
  }
  // Give subscribers a beat to connect (rosbag play has the same race).
  rsf::SleepForNanos(50'000'000);

  uint64_t published = 0;
  uint64_t previous_stamp = (*records)[0].stamp_nanos;
  for (auto& record : *records) {
    if (rate > 0 && record.stamp_nanos > previous_stamp) {
      rsf::SleepForNanos(static_cast<uint64_t>(
          static_cast<double>(record.stamp_nanos - previous_stamp) / rate));
    }
    previous_stamp = record.stamp_nanos;

    // The record's payload is already exactly the wire frame body: move it
    // into a shared holder and alias it, so every subscriber link's writer
    // queue references the bag bytes directly — no re-serialize, no copy.
    const size_t size = record.payload.size();
    auto holder =
        std::make_shared<std::vector<uint8_t>>(std::move(record.payload));
    if (holder->empty()) holder->resize(1);  // keep data() non-null
    publications[record.topic]->Publish(SerializedMessage{
        std::shared_ptr<uint8_t[]>(holder, holder->data()), size});
    ++published;
  }
  // Let the frames drain before tearing the publications down.
  rsf::SleepForNanos(100'000'000);
  for (const auto& [topic, publication] : publications) {
    master().UnregisterPublisher(topic, publication->Endpoint());
    publication->Shutdown();
  }
  return published;
}

}  // namespace ros
