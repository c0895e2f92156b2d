// The byte-stream seam the framing layer runs over (net/framing.h).  Two
// streams satisfy it: a socket (TcpConnection, loopback TCP or AF_UNIX)
// and a same-host link's shared-memory ring (StreamRing,
// net/stream_ring.h).  FrameReader and FrameWriter see only this
// interface, so every parser check and every write-side rule — resumable
// partial frames, drop-oldest eviction, the write-progress deadline —
// holds on both.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <span>

#include "common/status.h"

namespace rsf::net {

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Nonblocking single read.  Returns the byte count (> 0), or 0 when
  /// nothing is readable right now — callers must never pass an empty
  /// span.  Orderly EOF and resets come back as kUnavailable; a stream
  /// the peer corrupted as another error.
  virtual Result<size_t> ReadSome(std::span<uint8_t> data) = 0;

  /// Nonblocking single gathered write.  Returns the bytes accepted, or 0
  /// when the stream is full; the caller resumes from wherever the count
  /// left off (FrameWriter).
  virtual Result<size_t> WriteSome(std::span<const iovec> iov) = 0;
};

}  // namespace rsf::net
