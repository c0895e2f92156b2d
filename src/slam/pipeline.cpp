#include "slam/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"

namespace rsf::slam {

SlamResult OrbSlamLite::ProcessFrame(const uint8_t* gray, uint32_t width,
                                     uint32_t height) {
  const rsf::Stopwatch watch;
  SlamResult result;

  // Pyramid passes: pass 0 is the full-resolution detection whose output we
  // keep; further passes redo the detection with tighter thresholds, which
  // stands in for ORB's multi-scale pyramid cost.
  for (int pass = 0; pass < std::max(1, config_.work_factor); ++pass) {
    FastConfig fast = config_.fast;
    fast.threshold += pass * 2;
    auto keypoints =
        DetectFast(gray, width, height, fast, &result.work_iterations);
    if (pass == 0) result.keypoints = std::move(keypoints);
  }
  auto descriptors = ComputeBrief(gray, width, height, result.keypoints);
  result.matches =
      MatchDescriptors(descriptors, previous_descriptors_, 0.8);

  // Motion estimate: median feature displacement current -> previous.
  if (!result.matches.empty()) {
    std::vector<double> dxs;
    std::vector<double> dys;
    dxs.reserve(result.matches.size());
    dys.reserve(result.matches.size());
    for (const Match& match : result.matches) {
      const Keypoint& current = result.keypoints[match.query];
      const Keypoint& previous = previous_keypoints_[match.train];
      dxs.push_back(static_cast<double>(previous.x) - current.x);
      dys.push_back(static_cast<double>(previous.y) - current.y);
    }
    const auto median = [](std::vector<double>& v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    // A feature's image position decreases as the camera pans positively,
    // so previous - current IS the camera motion in scene units.
    pose_.x += median(dxs);
    pose_.y += median(dys);
  }

  previous_keypoints_ = result.keypoints;
  previous_descriptors_ = std::move(descriptors);
  ++frames_;

  result.pose = pose_;
  result.compute_millis = watch.ElapsedMillis();
  return result;
}

}  // namespace rsf::slam
