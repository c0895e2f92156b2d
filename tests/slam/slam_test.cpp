// Tests for the synthetic ORB-SLAM substrate: frame generation determinism,
// FAST/BRIEF behaviour, matching, motion estimation accuracy against the
// generator's ground truth, and the end-to-end node graph on both message
// variants.
#include <gtest/gtest.h>

#include <cmath>

#include "common/clock.h"
#include "slam/image_gen.h"
#include "slam/nodes.h"
#include "slam/pipeline.h"

namespace {

using namespace rsf::slam;

TEST(FrameGenerator, DeterministicForSameSeed) {
  FrameGenerator a(160, 120, 7);
  FrameGenerator b(160, 120, 7);
  const Frame fa = a.Next();
  const Frame fb = b.Next();
  EXPECT_EQ(fa.gray, fb.gray);
  EXPECT_EQ(fa.rgb, fb.rgb);
}

TEST(FrameGenerator, DifferentSeedsDiffer) {
  FrameGenerator a(160, 120, 7);
  FrameGenerator b(160, 120, 8);
  EXPECT_NE(a.Next().gray, b.Next().gray);
}

TEST(FrameGenerator, FramesMoveAlongTrajectory) {
  FrameGenerator gen(160, 120, 7);
  const Frame f0 = gen.Next();
  const Frame f1 = gen.Next();
  EXPECT_NE(f0.gray, f1.gray);
  EXPECT_GT(f1.truth.x, f0.truth.x);
}

TEST(FrameGenerator, RgbAndGrayAreConsistentSizes) {
  FrameGenerator gen(64, 48, 1);
  const Frame frame = gen.Next();
  EXPECT_EQ(frame.gray.size(), 64u * 48u);
  EXPECT_EQ(frame.rgb.size(), 64u * 48u * 3u);
}

TEST(FastDetector, FindsCornersOnSyntheticScene) {
  FrameGenerator gen(320, 240, 42);
  const Frame frame = gen.Next();
  const auto keypoints = DetectFast(frame.gray.data(), 320, 240, FastConfig{});
  EXPECT_GE(keypoints.size(), 50u) << "textured scene must yield corners";
  for (const auto& kp : keypoints) {
    EXPECT_GE(kp.x, 3);
    EXPECT_GE(kp.y, 3);
    EXPECT_LT(kp.x, 317);
    EXPECT_LT(kp.y, 237);
  }
}

TEST(FastDetector, FlatImageHasNoCorners) {
  std::vector<uint8_t> flat(320 * 240, 128);
  const auto keypoints = DetectFast(flat.data(), 320, 240, FastConfig{});
  EXPECT_TRUE(keypoints.empty());
}

TEST(FastDetector, SingleBrightDotIsDetected) {
  std::vector<uint8_t> image(100 * 100, 10);
  // A 3x3 bright blob: its center passes the segment test.
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      image[(50 + dy) * 100 + (50 + dx)] = 250;
    }
  }
  const auto keypoints = DetectFast(image.data(), 100, 100, FastConfig{});
  ASSERT_FALSE(keypoints.empty());
  bool found = false;
  for (const auto& kp : keypoints) {
    if (std::abs(kp.x - 50) <= 2 && std::abs(kp.y - 50) <= 2) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FastDetector, RespectsMaxKeypoints) {
  FrameGenerator gen(320, 240, 42);
  const Frame frame = gen.Next();
  FastConfig config;
  config.max_keypoints = 10;
  const auto keypoints =
      DetectFast(frame.gray.data(), 320, 240, config);
  EXPECT_LE(keypoints.size(), 10u);
}

TEST(Brief, IdenticalPatchesMatchExactly) {
  FrameGenerator gen(320, 240, 42);
  const Frame frame = gen.Next();
  const auto keypoints = DetectFast(frame.gray.data(), 320, 240, FastConfig{});
  ASSERT_FALSE(keypoints.empty());
  const auto a = ComputeBrief(frame.gray.data(), 320, 240, keypoints);
  const auto b = ComputeBrief(frame.gray.data(), 320, 240, keypoints);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].HammingDistance(b[i]), 0);
  }
}

TEST(Brief, DistinctPatchesDiffer) {
  FrameGenerator gen(320, 240, 42);
  const Frame frame = gen.Next();
  auto keypoints = DetectFast(frame.gray.data(), 320, 240, FastConfig{});
  ASSERT_GE(keypoints.size(), 2u);
  const auto descriptors =
      ComputeBrief(frame.gray.data(), 320, 240, keypoints);
  EXPECT_GT(descriptors[0].HammingDistance(descriptors[1]), 10);
}

TEST(Matcher, MatchesFrameToItself) {
  FrameGenerator gen(320, 240, 42);
  const Frame frame = gen.Next();
  const auto keypoints = DetectFast(frame.gray.data(), 320, 240, FastConfig{});
  const auto descriptors =
      ComputeBrief(frame.gray.data(), 320, 240, keypoints);
  const auto matches = MatchDescriptors(descriptors, descriptors, 0.8);
  EXPECT_GE(matches.size(), keypoints.size() / 2);
  for (const auto& match : matches) {
    EXPECT_EQ(match.query, match.train);
    EXPECT_EQ(match.distance, 0);
  }
}

TEST(Pipeline, TracksCameraPanDirection) {
  // The generator pans the camera in +x; the integrated pose must follow
  // with roughly the right magnitude (3 px/frame).
  FrameGenerator gen(320, 240, 42);
  OrbSlamLite::Config config;
  config.work_factor = 1;
  OrbSlamLite slam(config);
  SlamResult result;
  for (int i = 0; i < 8; ++i) {
    const Frame frame = gen.Next();
    result = slam.ProcessFrame(frame.gray.data(), 320, 240);
  }
  EXPECT_GE(result.matches.size(), 20u);
  EXPECT_GT(result.pose.x, 8.0);   // 7 tracked steps * 3 px, with slack
  EXPECT_LT(result.pose.x, 40.0);
}

TEST(Pipeline, WorkFactorScalesCompute) {
  FrameGenerator gen(320, 240, 42);
  const Frame frame = gen.Next();

  OrbSlamLite::Config light;
  light.work_factor = 1;
  OrbSlamLite slam_light(light);

  OrbSlamLite::Config heavy;
  heavy.work_factor = 8;
  OrbSlamLite slam_heavy(heavy);

  // The work done, not the wall time: other tests sharing the cores can
  // stretch three frames' worth of time either way.
  uint64_t light_work = 0;
  uint64_t heavy_work = 0;
  for (int i = 0; i < 3; ++i) {
    light_work += slam_light.ProcessFrame(frame.gray.data(), 320, 240)
                      .work_iterations;
    heavy_work += slam_heavy.ProcessFrame(frame.gray.data(), 320, 240)
                      .work_iterations;
  }
  EXPECT_GT(light_work, 0u);
  EXPECT_GT(heavy_work, light_work * 2);
}

template <typename Msgs>
void RunGraphOnce() {
  ros::master().Reset();
  {
    SlamNode<Msgs> slam;
    LatencySinkNode<typename Msgs::PoseStamped> pose_sink("pose_sink",
                                                          "/pose");
    LatencySinkNode<typename Msgs::PointCloud2> cloud_sink("cloud_sink",
                                                           "/pointcloud");
    LatencySinkNode<typename Msgs::Image> debug_sink("debug_sink",
                                                     "/debug_image");
    TumPublisherNode<Msgs> source(320, 240);

    const uint64_t deadline = rsf::MonotonicNanos() + 10'000'000'000ull;
    while (source.NumSubscribers() == 0 && rsf::MonotonicNanos() < deadline) {
      rsf::SleepForNanos(1'000'000);
    }
    ASSERT_EQ(source.NumSubscribers(), 1u);

    for (int i = 0; i < 3; ++i) {
      source.PublishOne();
      const uint64_t frame_deadline = rsf::MonotonicNanos() + 10'000'000'000ull;
      while ((pose_sink.count() < static_cast<uint64_t>(i + 1) ||
              cloud_sink.count() < static_cast<uint64_t>(i + 1) ||
              debug_sink.count() < static_cast<uint64_t>(i + 1)) &&
             rsf::MonotonicNanos() < frame_deadline) {
        rsf::SleepForNanos(1'000'000);
      }
    }
    EXPECT_EQ(pose_sink.count(), 3u);
    EXPECT_EQ(cloud_sink.count(), 3u);
    EXPECT_EQ(debug_sink.count(), 3u);
    EXPECT_EQ(slam.frames(), 3u);
    EXPECT_GT(pose_sink.snapshot().mean_ms(), 0.0);
  }
  ros::master().Reset();
}

TEST(SlamGraph, EndToEndRegularVariant) { RunGraphOnce<RegularMsgs>(); }

TEST(SlamGraph, EndToEndSfmVariant) {
  const size_t live_before = sfm::gmm().LiveCount();
  RunGraphOnce<SfmMsgs>();
  // All arenas created by the graph must be reclaimed.
  const uint64_t deadline = rsf::MonotonicNanos() + 5'000'000'000ull;
  while (sfm::gmm().LiveCount() != live_before &&
         rsf::MonotonicNanos() < deadline) {
    rsf::SleepForNanos(1'000'000);
  }
  EXPECT_EQ(sfm::gmm().LiveCount(), live_before);
}

}  // namespace
