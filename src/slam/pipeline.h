// OrbSlamLite — the compute core of the application case study (paper
// §5.3): per frame, detect FAST corners, describe them with BRIEF, match
// against the previous frame, and integrate the estimated camera motion.
// The `work_factor` knob repeats the detection over synthetic pyramid
// levels so the per-frame compute can be tuned to the paper's reported
// 30-40 ms, which dominates the end-to-end latencies of Fig. 18.
#pragma once

#include <cstdint>
#include <vector>

#include "slam/features.h"
#include "slam/image_gen.h"

namespace rsf::slam {

struct SlamResult {
  CameraPose pose;                  // integrated camera pose estimate
  std::vector<Keypoint> keypoints;  // current frame's features
  std::vector<Match> matches;       // matches against the previous frame
  double compute_millis = 0;        // wall time spent in ProcessFrame
  /// Work done, as inner-loop iterations: the candidate pixels the FAST
  /// segment test visited, over every pyramid pass.  Unlike the wall
  /// time, other load on the host does not move it.
  uint64_t work_iterations = 0;
};

class OrbSlamLite {
 public:
  struct Config {
    FastConfig fast;
    /// Number of synthetic pyramid passes (compute-cost knob).
    int work_factor = 3;
  };

  OrbSlamLite() : OrbSlamLite(Config{}) {}
  explicit OrbSlamLite(Config config) : config_(config) {}

  /// Tracks one grayscale frame (row-major, width*height bytes).
  SlamResult ProcessFrame(const uint8_t* gray, uint32_t width,
                          uint32_t height);

  [[nodiscard]] const CameraPose& pose() const noexcept { return pose_; }
  [[nodiscard]] uint64_t frames_processed() const noexcept {
    return frames_;
  }

 private:
  Config config_;
  CameraPose pose_;
  std::vector<Keypoint> previous_keypoints_;
  std::vector<Descriptor> previous_descriptors_;
  uint64_t frames_ = 0;
};

}  // namespace rsf::slam
