// Ablation: publisher fan-out scaling.  ROS serializes once per publish but
// the middleware shares the serialized buffer across subscriber links, so
// BOTH variants fan out without per-subscriber copies — the difference
// stays the single serialize/de-serialize pair per delivery.  This bench
// shows per-delivery latency as the subscriber count grows (1, 2, 4), for
// ROS and ROS-SF at 1MB, plus the endianness-conversion cost of §4.4.1
// (what a mixed-endianness deployment would add back).
//
// It also measures the TransportLane fan-out curve (DESIGN.md §13): the
// publish-call cost and per-delivery latency at 1..1024 subscribers per
// lane mix (all-intra, all-TCP, half/half, all-mcast), at a small payload
// so the numbers isolate the fan-out machinery — one PublishContext build,
// N lane Offers — instead of memcpy bandwidth.  The mcast rows carry a
// datagrams-per-publish column: O(chunks), flat across the whole curve,
// versus the O(subscribers) unicast writes of the tcp rows.  `--json-out
// <path>` writes the curve as JSON (BENCH_fanout.json is a snapshot);
// `--smoke` runs a CI-sized 8-subscriber intra+tcp+mcast check and exits
// non-zero on any missing delivery, or if multicast works here but the
// mcast mix sent no datagrams.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "net/udp.h"
#include "sfm/endian_convert.h"

namespace {

template <typename ImageT>
rsf::LatencyRecorder RunFanout(size_t subscribers, uint32_t width,
                               uint32_t height, const bench::Options& options) {
  ros::master().Reset();
  ros::NodeHandle pub_node("pub");

  std::mutex mutex;
  rsf::LatencyRecorder recorder;
  uint64_t seen = 0;
  const uint64_t skip = static_cast<uint64_t>(options.warmup) * subscribers;

  std::vector<std::unique_ptr<ros::NodeHandle>> sub_nodes;
  std::vector<ros::Subscriber> subs;
  ros::SubscribeOptions sub_options;
  sub_options.inline_dispatch = true;
  for (size_t i = 0; i < subscribers; ++i) {
    sub_nodes.push_back(
        std::make_unique<ros::NodeHandle>("sub" + std::to_string(i)));
    subs.push_back(sub_nodes.back()->template subscribe<ImageT>(
        "/fan", 10,
        [&](const std::shared_ptr<const ImageT>& msg) {
          const uint64_t nanos = rsf::ElapsedSince(msg->header.stamp);
          std::lock_guard<std::mutex> lock(mutex);
          if (++seen > skip) recorder.AddNanos(nanos);
        },
        sub_options));
  }

  auto pub = pub_node.advertise<ImageT>("/fan", 10);
  bench::WaitFor([&] { return pub.getNumSubscribers() == subscribers; });

  const auto received = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    return seen;
  };
  rsf::Rate rate(options.hz);
  const int total = options.iterations + options.warmup;
  for (int i = 0; i < total; ++i) {
    auto msg = rsf::slam::NewMessage<ImageT>();
    bench::FillImage(*msg, width, height, static_cast<uint32_t>(i));
    pub.publish(*msg);
    rate.Sleep();
    bench::WaitFor(
        [&] {
          return received() + 4 * subscribers >=
                 static_cast<uint64_t>(i + 1) * subscribers;
        },
        10'000'000'000ull);
  }
  bench::WaitFor(
      [&] { return received() >= static_cast<uint64_t>(total) * subscribers; },
      10'000'000'000ull);
  std::lock_guard<std::mutex> lock(mutex);
  return recorder;
}

// ---- TransportLane fan-out curve (DESIGN.md §13) ----

struct MixCell {
  std::string mix;
  size_t subscribers = 0;
  int iterations = 0;
  rsf::LatencyRecorder publish;   // pub.publish() call duration
  rsf::LatencyRecorder delivery;  // stamp-to-callback latency
  uint64_t dropped = 0;
  uint64_t missing = 0;  // deliveries that never reached a callback
  // Multicast datagrams per publish: the O(chunks)-not-O(subscribers)
  // column — flat across the whole curve for the mcast mix, 0 elsewhere.
  double datagrams_per_publish = 0.0;
};

/// One curve cell: `subscribers` co-located subscribers in the requested
/// lane mix, publishes paced by a full delivery barrier (every subscriber
/// saw message i before i+1 goes out), so queue drops never pollute the
/// latency numbers.
MixCell RunLaneMix(const std::string& mix, size_t subscribers, int iterations,
                   int warmup) {
  using ImageT = sensor_msgs::sfm::Image;
  constexpr size_t kPayloadBytes = 4096;

  // The mcast mix turns the tier on for BOTH sides of this process and
  // lets a single subscriber cross the threshold, so every curve point
  // exercises the group path.  Every other mix pins the tier off.
  const bool mcast = mix == "mcast";
  ::setenv("RSF_TRANSPORT_MCAST", mcast ? "1" : "0", 1);
  ::setenv("RSF_MCAST_MIN_SUBS", "1", 1);

  ros::master().Reset();
  ros::NodeHandle pub_node("pub");

  MixCell cell;
  cell.mix = mix;
  cell.subscribers = subscribers;
  cell.iterations = iterations;

  std::mutex mutex;
  uint64_t seen = 0;
  const uint64_t skip = static_cast<uint64_t>(warmup) * subscribers;

  std::vector<std::unique_ptr<ros::NodeHandle>> sub_nodes;
  std::vector<ros::Subscriber> subs;
  sub_nodes.reserve(subscribers);
  subs.reserve(subscribers);
  for (size_t i = 0; i < subscribers; ++i) {
    const bool wire = mix == "tcp" || mcast || (mix == "mixed" && i % 2 == 1);
    ros::SubscribeOptions sub_options;
    sub_options.inline_dispatch = true;
    sub_options.allow_intra_process = !wire;
    sub_options.allow_shm = false;  // the shm tier has its own bench
    sub_nodes.push_back(
        std::make_unique<ros::NodeHandle>("sub" + std::to_string(i)));
    subs.push_back(sub_nodes.back()->subscribe<ImageT>(
        "/fan_curve", 16,
        [&](const std::shared_ptr<const ImageT>& msg) {
          const uint64_t nanos = rsf::ElapsedSince(msg->header.stamp);
          std::lock_guard<std::mutex> lock(mutex);
          if (++seen > skip) cell.delivery.AddNanos(nanos);
        },
        sub_options));
  }

  auto pub = pub_node.advertise<ImageT>("/fan_curve", 16);
  // 1024 nonblocking dials funnel through the reactor; give them time.
  bench::WaitFor([&] { return pub.getNumSubscribers() == subscribers; },
                 60'000'000'000ull);

  const auto received = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    return seen;
  };
  const uint64_t datagrams_before =
      ros::shim::mcast_datagrams_sent.load(std::memory_order_relaxed);
  const int total = iterations + warmup;
  for (int i = 0; i < total; ++i) {
    auto msg = rsf::slam::NewMessage<ImageT>();
    msg->header.stamp = rsf::Time::Now();
    msg->header.seq = static_cast<uint32_t>(i);
    msg->data.resize(kPayloadBytes);
    msg->data[kPayloadBytes - 1] = 0x5A;
    const uint64_t start = rsf::MonotonicNanos();
    pub.publish(*msg);
    const uint64_t end = rsf::MonotonicNanos();
    if (i >= warmup) cell.publish.AddNanos(end - start);
    bench::WaitFor(
        [&] {
          return received() >= static_cast<uint64_t>(i + 1) * subscribers;
        },
        30'000'000'000ull);
    // Settle: the barrier releases inside the loop thread's drain batch,
    // and on a small-core box the residual post-delivery work (ack bursts,
    // liveness sweeps) would otherwise time-slice against the next timed
    // publish and pollute it with the PREVIOUS message's tail.  Work that
    // happens inside the publish call (e.g. tcp's per-link writes) is
    // unaffected — this isolates exactly the cost the column claims.
    rsf::SleepForNanos(500'000);
  }
  const uint64_t expected = static_cast<uint64_t>(total) * subscribers;
  cell.missing = expected - std::min(received(), expected);
  cell.dropped = pub.getStats().dropped;
  cell.datagrams_per_publish =
      static_cast<double>(
          ros::shim::mcast_datagrams_sent.load(std::memory_order_relaxed) -
          datagrams_before) /
      total;
  return cell;
}

void PrintCurveCell(const MixCell& cell) {
  std::printf("  %-6s %5zu subs:  publish p50 %8.2f us  p99 %8.2f us   "
              "delivery p50 %8.1f us  p99 %8.1f us   dgrams/pub %5.1f%s%s\n",
              cell.mix.c_str(), cell.subscribers,
              cell.publish.Percentile(0.5) * 1000.0,
              cell.publish.Percentile(0.99) * 1000.0,
              cell.delivery.Percentile(0.5) * 1000.0,
              cell.delivery.Percentile(0.99) * 1000.0,
              cell.datagrams_per_publish,
              cell.dropped != 0 ? "  [DROPS]" : "",
              cell.missing != 0 ? "  [MISSING]" : "");
}

void WriteCurveJson(const std::vector<MixCell>& cells, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"ablation_fanout\",\n"
               "  \"unit\": \"microseconds\",\n"
               "  \"payload_bytes\": 4096,\n"
               "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const MixCell& cell = cells[i];
    std::fprintf(
        out,
        "    {\"mix\": \"%s\", \"subscribers\": %zu, \"iterations\": %d, "
        "\"publish_mean_us\": %.2f, \"publish_p50_us\": %.2f, "
        "\"publish_p99_us\": %.2f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
        "\"datagrams_per_publish\": %.1f, \"dropped\": %llu}%s\n",
        cell.mix.c_str(), cell.subscribers, cell.iterations,
        cell.publish.mean_ms() * 1000.0, cell.publish.Percentile(0.5) * 1000.0,
        cell.publish.Percentile(0.99) * 1000.0,
        cell.delivery.Percentile(0.5) * 1000.0,
        cell.delivery.Percentile(0.99) * 1000.0, cell.datagrams_per_publish,
        static_cast<unsigned long long>(cell.dropped),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("  curve written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::Options::Parse(argc, argv);
  const char* json_out = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-out" && i + 1 < argc) {
      json_out = argv[i + 1];
    }
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  if (!options.full && options.iterations > 40) {
    options.iterations = 40;
    options.hz = 40.0;
  }
  rsf::SetLogLevel(rsf::LogLevel::kError);

  if (smoke) {
    // CI quick run: one intra, one tcp and one mcast cell at 8
    // subscribers.  Fails on any missing delivery, and loudly if
    // multicast is available here yet the mcast mix never put a datagram
    // on the wire — that would mean the tier silently fell back to
    // unicast and the bench rows are lying.
    std::printf("=== Fan-out smoke (8 subscribers, 20 iterations) ===\n\n");
    bool ok = true;
    const auto run = [&ok](const char* mix) {
      const MixCell cell = RunLaneMix(mix, 8, /*iterations=*/20,
                                      /*warmup=*/2);
      PrintCurveCell(cell);
      if (cell.missing != 0) {
        std::fprintf(stderr, "FAIL: the %s mix missed %llu deliveries\n",
                     mix, static_cast<unsigned long long>(cell.missing));
        ok = false;
      }
      return cell;
    };
    run("intra");
    run("tcp");
    if (!rsf::net::MulticastLoopbackProbe()) {
      ::unsetenv("RSF_TRANSPORT_MCAST");
      ::unsetenv("RSF_MCAST_MIN_SUBS");
      std::printf("  mcast cell skipped: loopback multicast unavailable\n");
      return ok ? 0 : 1;
    }
    const MixCell cell = run("mcast");
    ::unsetenv("RSF_TRANSPORT_MCAST");
    ::unsetenv("RSF_MCAST_MIN_SUBS");
    if (cell.datagrams_per_publish <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: multicast is usable but the mcast mix sent no "
                   "datagrams — tier fell back to unicast\n");
      return 1;
    }
    return ok ? 0 : 1;
  }

  constexpr uint32_t kWidth = 800;
  constexpr uint32_t kHeight = 600;  // ~1MB

  std::printf("=== Ablation: fan-out scaling at ~1MB (%d msgs/cell) ===\n\n",
              options.iterations);
  for (const size_t subscribers : {1u, 2u, 4u}) {
    const auto ros_rec =
        RunFanout<sensor_msgs::Image>(subscribers, kWidth, kHeight, options);
    const auto sf_rec = RunFanout<sensor_msgs::sfm::Image>(
        subscribers, kWidth, kHeight, options);
    std::printf("  %zu sub(s):  ROS mean %7.3f ms   ROS-SF mean %7.3f ms   "
                "(-%.1f%%)\n",
                subscribers, ros_rec.mean_ms(), sf_rec.mean_ms(),
                (1.0 - sf_rec.mean_ms() / ros_rec.mean_ms()) * 100.0);
  }

  // TransportLane fan-out curve: publish-call cost and delivery latency
  // per lane mix as the subscriber count grows to 1024.
  std::printf("\n=== TransportLane fan-out curve at 4KB (DESIGN.md §13) "
              "===\n\n");
  std::vector<MixCell> cells;
  const bool mcast_usable = rsf::net::MulticastLoopbackProbe();
  if (!mcast_usable) {
    std::printf("  (mcast rows skipped: loopback multicast unavailable)\n");
  }
  for (const char* mix : {"intra", "tcp", "mixed", "mcast"}) {
    if (std::string(mix) == "mcast" && !mcast_usable) continue;
    for (const size_t subscribers : {1u, 8u, 64u, 256u, 512u, 1024u}) {
      const int iterations =
          std::min(options.iterations, subscribers >= 256 ? 30 : 40);
      cells.push_back(RunLaneMix(mix, subscribers, iterations, /*warmup=*/5));
      PrintCurveCell(cells.back());
    }
  }
  ::unsetenv("RSF_TRANSPORT_MCAST");
  ::unsetenv("RSF_MCAST_MIN_SUBS");
  if (json_out != nullptr) WriteCurveJson(cells, json_out);

  // §4.4.1: what a receiver-side endianness conversion would add back.
  std::printf("\n=== Ablation: endianness-conversion cost (§4.4.1) ===\n");
  for (const size_t bytes : {size_t{200} * 1024, size_t{1} << 20,
                             size_t{6} * 1024 * 1024}) {
    auto img = sfm::make_message<sensor_msgs::sfm::Image>();
    img->encoding = "rgb8";
    img->data.resize(bytes);
    rsf::Stopwatch watch;
    constexpr int kReps = 20;
    for (int i = 0; i < kReps; ++i) {
      sfm::ConvertEndianness(*img, sfm::SwapDirection::kToForeign);
      sfm::ConvertEndianness(*img, sfm::SwapDirection::kFromForeign);
    }
    std::printf("  %-8s: %7.3f ms per conversion\n",
                rsf::HumanBytes(bytes).c_str(),
                watch.ElapsedMillis() / (2 * kReps));
  }
  std::printf("  (uint8 payloads swap-free; the loop cost is the per-element "
              "walk)\n");
  return 0;
}
