// Feature extraction for the synthetic ORB-SLAM pipeline: a FAST-9-style
// segment-test corner detector and a BRIEF-style 256-bit binary descriptor
// (the two components ORB composes).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsf::slam {

struct Keypoint {
  uint16_t x = 0;
  uint16_t y = 0;
  int16_t score = 0;  // corner response (for non-max suppression)
};

struct Descriptor {
  std::array<uint64_t, 4> bits{};  // 256-bit BRIEF pattern

  [[nodiscard]] int HammingDistance(const Descriptor& other) const noexcept {
    int distance = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      distance += __builtin_popcountll(bits[i] ^ other.bits[i]);
    }
    return distance;
  }
};

struct FastConfig {
  int threshold = 24;      // intensity delta for the segment test
  int min_arc = 9;         // contiguous circle pixels required (FAST-9)
  size_t max_keypoints = 600;
  int nms_radius = 6;      // non-maximum suppression radius
};

/// FAST-style corner detection over a grayscale image (row-major).  When
/// `pixels_tested` is given, the number of candidate pixels the segment
/// test visited is added to it.
std::vector<Keypoint> DetectFast(const uint8_t* gray, uint32_t width,
                                 uint32_t height, const FastConfig& config,
                                 uint64_t* pixels_tested = nullptr);

/// BRIEF-style descriptors for keypoints (sampled pairs in a 31x31 patch;
/// keypoints too close to the border get zero descriptors).
std::vector<Descriptor> ComputeBrief(const uint8_t* gray, uint32_t width,
                                     uint32_t height,
                                     const std::vector<Keypoint>& keypoints);

struct Match {
  uint32_t query = 0;  // index into the current frame's keypoints
  uint32_t train = 0;  // index into the previous frame's keypoints
  int distance = 0;
};

/// Brute-force Hamming matching with a Lowe-style ratio test.
std::vector<Match> MatchDescriptors(const std::vector<Descriptor>& query,
                                    const std::vector<Descriptor>& train,
                                    double max_ratio = 0.8);

}  // namespace rsf::slam
