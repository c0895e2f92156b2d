#include "slam/features.h"

#include <algorithm>

namespace rsf::slam {
namespace {

// The 16-pixel Bresenham circle of radius 3 used by FAST.
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0},  {3, 1},  {2, 2},  {1, 3},
    {0, 3},  {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};

}  // namespace

std::vector<Keypoint> DetectFast(const uint8_t* gray, uint32_t width,
                                 uint32_t height, const FastConfig& config,
                                 uint64_t* pixels_tested) {
  std::vector<Keypoint> raw;
  const int t = config.threshold;
  uint64_t tested = 0;

  for (uint32_t y = 3; y + 3 < height; ++y) {
    for (uint32_t x = 3; x + 3 < width; ++x) {
      ++tested;
      const int center = gray[y * width + x];
      const int hi = center + t;
      const int lo = center - t;

      // Quick rejection: of pixels 0/4/8/12, at least 3 must be out.
      int quick_bright = 0;
      int quick_dark = 0;
      for (const int probe : {0, 4, 8, 12}) {
        const int value =
            gray[(y + kCircle[probe][1]) * width + (x + kCircle[probe][0])];
        if (value > hi) ++quick_bright;
        if (value < lo) ++quick_dark;
      }
      if (quick_bright < 3 && quick_dark < 3) continue;

      // Full segment test: a contiguous arc of min_arc pixels all brighter
      // (or all darker) than the center by the threshold.
      uint32_t bright_mask = 0;
      uint32_t dark_mask = 0;
      for (int i = 0; i < 16; ++i) {
        const int value =
            gray[(y + kCircle[i][1]) * width + (x + kCircle[i][0])];
        if (value > hi) bright_mask |= (1u << i);
        if (value < lo) dark_mask |= (1u << i);
      }
      const auto has_arc = [&](uint32_t mask) {
        // Wrap-around run detection on the 16-bit ring.
        const uint32_t ring = mask | (mask << 16);
        int run = 0;
        for (int i = 0; i < 32; ++i) {
          run = (ring >> i) & 1u ? run + 1 : 0;
          if (run >= config.min_arc) return true;
        }
        return false;
      };
      if (!has_arc(bright_mask) && !has_arc(dark_mask)) continue;

      // Response: sum of absolute differences over the circle.
      int score = 0;
      for (const auto& offset : kCircle) {
        score += std::abs(
            gray[(y + offset[1]) * width + (x + offset[0])] - center);
      }
      raw.push_back(Keypoint{static_cast<uint16_t>(x),
                             static_cast<uint16_t>(y),
                             static_cast<int16_t>(std::min(score, 32000))});
    }
  }

  if (pixels_tested != nullptr) *pixels_tested += tested;

  // Non-maximum suppression on a coarse grid, strongest first.
  std::sort(raw.begin(), raw.end(),
            [](const Keypoint& a, const Keypoint& b) { return a.score > b.score; });
  std::vector<Keypoint> kept;
  const int r = config.nms_radius;
  const uint32_t grid_w = width / r + 2;
  std::vector<uint8_t> occupied((width / r + 2) * (height / r + 2), 0);
  for (const Keypoint& kp : raw) {
    const uint32_t cell = (kp.y / r) * grid_w + (kp.x / r);
    if (occupied[cell]) continue;
    occupied[cell] = 1;
    kept.push_back(kp);
    if (kept.size() >= config.max_keypoints) break;
  }
  return kept;
}

std::vector<Descriptor> ComputeBrief(const uint8_t* gray, uint32_t width,
                                     uint32_t height,
                                     const std::vector<Keypoint>& keypoints) {
  std::vector<Descriptor> descriptors(keypoints.size());
  for (size_t k = 0; k < keypoints.size(); ++k) {
    const Keypoint& kp = keypoints[k];
    if (kp.x < 16 || kp.y < 16 || kp.x + 16 >= width || kp.y + 16 >= height) {
      continue;  // border: zero descriptor
    }
    // Deterministic pseudo-random point pairs (the BRIEF test pattern),
    // derived from the bit index so every keypoint uses the same pattern.
    Descriptor& desc = descriptors[k];
    for (int bit = 0; bit < 256; ++bit) {
      uint64_t h = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(bit + 1);
      h ^= h >> 31;
      const int ax = static_cast<int>(h % 31) - 15;
      const int ay = static_cast<int>((h >> 8) % 31) - 15;
      const int bx = static_cast<int>((h >> 16) % 31) - 15;
      const int by = static_cast<int>((h >> 24) % 31) - 15;
      const uint8_t a = gray[(kp.y + ay) * width + (kp.x + ax)];
      const uint8_t b = gray[(kp.y + by) * width + (kp.x + bx)];
      if (a < b) desc.bits[bit >> 6] |= (1ull << (bit & 63));
    }
  }
  return descriptors;
}

std::vector<Match> MatchDescriptors(const std::vector<Descriptor>& query,
                                    const std::vector<Descriptor>& train,
                                    double max_ratio) {
  std::vector<Match> matches;
  if (train.empty()) return matches;
  for (uint32_t q = 0; q < query.size(); ++q) {
    int best = 1 << 30;
    int second = 1 << 30;
    uint32_t best_index = 0;
    for (uint32_t t = 0; t < train.size(); ++t) {
      const int distance = query[q].HammingDistance(train[t]);
      if (distance < best) {
        second = best;
        best = distance;
        best_index = t;
      } else if (distance < second) {
        second = distance;
      }
    }
    if (best < static_cast<int>(max_ratio * second) && best < 80) {
      matches.push_back(Match{q, best_index, best});
    }
  }
  return matches;
}

}  // namespace rsf::slam
