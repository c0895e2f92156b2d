// Steady-state in-process publishing allocates nothing: the fan-out
// iterates a lane array built once per membership change, lanes count
// into a stack tally, and subscribers receive a borrowed handle.  This
// binary replaces the global operator new with a counting one (counting
// only on a thread that opted in), so it lives in its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "paper_msgs/sfm/Image.h"
#include "ros/ros.h"

namespace {

thread_local bool counting = false;
std::atomic<uint64_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (counting) allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace {

using Image = paper_msgs::sfm::Image;

/// Heap allocations `fn` makes on this thread.
uint64_t AllocationsIn(const std::function<void()>& fn) {
  const uint64_t before = allocations.load(std::memory_order_relaxed);
  counting = true;
  fn();
  counting = false;
  return allocations.load(std::memory_order_relaxed) - before;
}

TEST(PublishAllocTest, SteadyStateIntraPublishDoesNotAllocate) {
  constexpr int kSubscribers = 64;
  constexpr int kMessages = 1000;

  ros::NodeHandle node("alloc");
  auto pub = node.advertise<Image>("/alloc_fanout", 8);
  std::atomic<uint64_t> received{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;
  std::vector<ros::Subscriber> subs;
  for (int i = 0; i < kSubscribers; ++i) {
    subs.push_back(node.subscribe<Image>(
        "/alloc_fanout", 8,
        std::function<void(const Image::ConstPtr&)>(
            [&received](const Image::ConstPtr&) { received.fetch_add(1); }),
        options));
  }
  ASSERT_EQ(pub.getStats().intra_links, static_cast<size_t>(kSubscribers));
  // The self-test: the counter sees an allocation when one happens.
  ASSERT_GT(AllocationsIn([] { (void)std::make_shared<int>(1); }), 0u);

  pub.publish(Image::ConstPtr(Image::create()));  // warm-up: builds the view

  uint64_t total = 0;
  for (int i = 0; i < kMessages; ++i) {
    Image::Ptr msg = Image::create();  // construction is not publishing
    msg->data.resize(64);
    const Image::ConstPtr handle = std::move(msg);
    total += AllocationsIn([&] { pub.publish(handle); });
  }
  EXPECT_EQ(total, 0u) << "steady-state publishes allocated";
  EXPECT_EQ(received.load(),
            static_cast<uint64_t>(kSubscribers) * (kMessages + 1));
}

}  // namespace
