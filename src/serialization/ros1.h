// The ROS1 (roscpp) wire format, implemented generically over the field
// model: little-endian scalars in declaration order; strings as
// [uint32 length][bytes] with no terminator; dynamic arrays as
// [uint32 count][elements]; fixed arrays as bare elements; nested messages
// flattened in place.
//
// This is the serializer the unmodified middleware path uses — the cost
// that ROS-SF eliminates.  It intentionally mirrors roscpp's structure:
// one pass to compute the length, one pass to memcpy fields into a fresh
// contiguous buffer (serialization), and the inverse pass on receipt
// (de-serialization).
#pragma once

#include <cstring>
#include <vector>

#include "common/endian.h"
#include "common/status.h"
#include "serialization/field_model.h"

namespace rsf::ser::ros1 {

namespace internal {

template <typename T>
size_t FieldLength(const T& field);

template <Message M>
size_t MessageLength(const M& msg) {
  size_t total = 0;
  msg.for_each_field(
      [&](const char*, const auto& field) { total += FieldLength(field); });
  return total;
}

template <typename T>
size_t FieldLength(const T& field) {
  if constexpr (is_scalar_v<T>) {
    return sizeof(T);
  } else if constexpr (is_string_like_v<T>) {
    return 4 + field.size();
  } else if constexpr (is_vector_like_v<T>) {
    using E = element_of_t<T>;
    if constexpr (is_scalar_v<E>) {
      return 4 + field.size() * sizeof(E);
    } else {
      size_t total = 4;
      for (const auto& element : field) total += FieldLength(element);
      return total;
    }
  } else if constexpr (is_std_array_v<T>) {
    using E = element_of_t<T>;
    if constexpr (is_scalar_v<E>) {
      return field.size() * sizeof(E);
    } else {
      size_t total = 0;
      for (const auto& element : field) total += FieldLength(element);
      return total;
    }
  } else {
    static_assert(Message<T>, "unsupported field type");
    return MessageLength(field);
  }
}

template <typename T>
void WriteField(uint8_t*& out, const T& field);

template <Message M>
void WriteMessage(uint8_t*& out, const M& msg) {
  msg.for_each_field(
      [&](const char*, const auto& field) { WriteField(out, field); });
}

template <typename T>
void WriteField(uint8_t*& out, const T& field) {
  if constexpr (is_scalar_v<T>) {
    StoreLE(out, field);
    out += sizeof(T);
  } else if constexpr (is_string_like_v<T>) {
    StoreLE<uint32_t>(out, static_cast<uint32_t>(field.size()));
    out += 4;
    std::memcpy(out, field.data(), field.size());
    out += field.size();
  } else if constexpr (is_vector_like_v<T>) {
    using E = element_of_t<T>;
    StoreLE<uint32_t>(out, static_cast<uint32_t>(field.size()));
    out += 4;
    if constexpr (is_scalar_v<E>) {
      // An empty vector's data() may be null, which memcpy must not see.
      if (!field.empty()) {
        std::memcpy(out, field.data(), field.size() * sizeof(E));
      }
      out += field.size() * sizeof(E);
    } else {
      for (const auto& element : field) WriteField(out, element);
    }
  } else if constexpr (is_std_array_v<T>) {
    using E = element_of_t<T>;
    if constexpr (is_scalar_v<E>) {
      std::memcpy(out, field.data(), field.size() * sizeof(E));
      out += field.size() * sizeof(E);
    } else {
      for (const auto& element : field) WriteField(out, element);
    }
  } else {
    WriteMessage(out, field);
  }
}

/// Bounds-checked reader.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : cursor_(data), end_(data + size) {}

  template <typename T>
  Status Pop(T* value) {
    if (Remaining() < sizeof(T)) return Truncated();
    *value = LoadLE<T>(cursor_);
    cursor_ += sizeof(T);
    return Status::Ok();
  }

  Status PopBytes(void* dst, size_t count) {
    if (Remaining() < count) return Truncated();
    if (count == 0) return Status::Ok();  // dst may be an empty vector's null
    std::memcpy(dst, cursor_, count);
    cursor_ += count;
    return Status::Ok();
  }

  [[nodiscard]] size_t Remaining() const noexcept {
    return static_cast<size_t>(end_ - cursor_);
  }

 private:
  static Status Truncated() {
    return OutOfRangeError("truncated ROS1 message buffer");
  }
  const uint8_t* cursor_;
  const uint8_t* end_;
};

template <typename T>
Status ReadField(Reader& in, T& field);

template <Message M>
Status ReadMessage(Reader& in, M& msg) {
  Status status;
  msg.for_each_field([&](const char*, auto& field) {
    if (status.ok()) status = ReadField(in, field);
  });
  return status;
}

template <typename T>
Status ReadField(Reader& in, T& field) {
  if constexpr (is_scalar_v<T>) {
    return in.Pop(&field);
  } else if constexpr (is_string_like_v<T>) {
    uint32_t length = 0;
    RSF_RETURN_IF_ERROR(in.Pop(&length));
    if (in.Remaining() < length) {
      return OutOfRangeError("truncated string field");
    }
    if constexpr (std::is_same_v<T, std::string>) {
      field.resize(length);
      return in.PopBytes(field.data(), length);
    } else {
      std::string scratch(length, '\0');
      RSF_RETURN_IF_ERROR(in.PopBytes(scratch.data(), length));
      field = scratch;
      return Status::Ok();
    }
  } else if constexpr (is_vector_like_v<T>) {
    using E = element_of_t<T>;
    uint32_t count = 0;
    RSF_RETURN_IF_ERROR(in.Pop(&count));
    if constexpr (is_scalar_v<E>) {
      if (in.Remaining() < static_cast<size_t>(count) * sizeof(E)) {
        return OutOfRangeError("truncated array field");
      }
      field.resize(count);
      return in.PopBytes(field.data(), static_cast<size_t>(count) * sizeof(E));
    } else {
      field.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        RSF_RETURN_IF_ERROR(ReadField(in, field[i]));
      }
      return Status::Ok();
    }
  } else if constexpr (is_std_array_v<T>) {
    using E = element_of_t<T>;
    if constexpr (is_scalar_v<E>) {
      return in.PopBytes(field.data(), field.size() * sizeof(E));
    } else {
      for (auto& element : field) RSF_RETURN_IF_ERROR(ReadField(in, element));
      return Status::Ok();
    }
  } else {
    return ReadMessage(in, field);
  }
}

}  // namespace internal

/// Serialized length of `msg` on the ROS1 wire.
template <Message M>
size_t SerializedLength(const M& msg) {
  return internal::MessageLength(msg);
}

/// Serializes into `out` (must hold SerializedLength(msg) bytes); returns
/// the number of bytes written.
template <Message M>
size_t Serialize(const M& msg, uint8_t* out) {
  uint8_t* cursor = out;
  internal::WriteMessage(cursor, msg);
  return static_cast<size_t>(cursor - out);
}

/// Convenience: serialize into a fresh vector.
template <Message M>
std::vector<uint8_t> SerializeToVector(const M& msg) {
  std::vector<uint8_t> out(SerializedLength(msg));
  Serialize(msg, out.data());
  return out;
}

/// De-serializes `msg` from `data`; kOutOfRange on truncation, and
/// kInvalidArgument if trailing bytes remain.
template <Message M>
Status Deserialize(const uint8_t* data, size_t size, M& msg) {
  internal::Reader reader(data, size);
  RSF_RETURN_IF_ERROR(internal::ReadMessage(reader, msg));
  if (reader.Remaining() != 0) {
    return InvalidArgumentError("trailing bytes after ROS1 message");
  }
  return Status::Ok();
}

}  // namespace rsf::ser::ros1
