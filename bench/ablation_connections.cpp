// Ablation: connection scaling on the reactor transport (src/net/poller.h,
// src/net/link.h).  One publisher fans a message out to N wire subscriber
// links (in-process transport disabled) for N in {1, 64, 256, 1024}, in
// two modes:
//
//   tcp   every subscription carries a shaped link of unbounded bandwidth
//         and no delay (`LinkConfig{1e15, 0}`), which routes it over
//         loopback TCP exactly as a remote subscriber is routed, while
//         adding no delivery delay;
//   ring  unshaped same-host subscriptions, which dial the publication's
//         AF_UNIX name and stream frames through a shared-memory ring
//         (DESIGN.md §8).  Each ring is a 1 MiB shared mapping, so this
//         mode stops at 256 links unless --links asks for more.
//
// Each cell records the process thread count at steady state, the
// p50/p99 publish-to-last-delivery latency, and — from the process-wide
// syscall counters (net/io_backend.h) — transport syscalls and recv calls
// per delivered message.  The publisher waits for the last delivery by
// yielding, so the latency carries no sleep quantum.
//
// The claim under test: transport threads stay O(cores) no matter how many
// links exist.  The thread-per-connection transport and the second I/O
// backend this bench once compared against are gone; their tables stay in
// EXPERIMENTS.md ("Connection scaling ablation").
//
// Prints a table and writes BENCH_connections.json.
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/io_backend.h"
#include "ros/ros.h"
#include "std_msgs/String.h"

namespace {

size_t CountProcessThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

bool WaitFor(const std::function<bool()>& predicate,
             uint64_t timeout_nanos = 60'000'000'000ull) {
  const uint64_t deadline = rsf::MonotonicNanos() + timeout_nanos;
  while (rsf::MonotonicNanos() < deadline) {
    if (predicate()) return true;
    ::sched_yield();
  }
  return predicate();
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      fraction * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

struct Row {
  std::string mode;
  size_t links = 0;
  size_t threads_total = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double syscalls_per_delivery = 0.0;
  double recv_per_delivery = 0.0;
};

struct Config {
  size_t payload_bytes = 4096;
  int iterations = 200;
  int warmup = 10;
  size_t only_links = 0;        // 0 = every cell
  std::string only_mode;        // empty = both modes
};

/// One cell: N wire subscribers on one topic, `iterations` stop-and-wait
/// fan-outs.  Latency per iteration = publish() to the LAST subscriber's
/// callback; syscalls differenced across the measured iterations.
Row RunCell(const std::string& mode, size_t links, const Config& config) {
  ros::NodeHandle pub_node("bench_pub");
  ros::NodeHandle sub_node("bench_sub");
  const std::string topic =
      "/conn_scaling_" + mode + "_" + std::to_string(links);
  auto pub = pub_node.advertise<std_msgs::String>(topic, 10);

  std::atomic<uint64_t> delivered{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;        // latency measured at the callback
  options.allow_intra_process = false;   // force the wire
  if (mode == "tcp") options.link = rsf::net::LinkConfig{1e15, 0};
  std::vector<ros::Subscriber> subs;
  subs.reserve(links);
  for (size_t i = 0; i < links; ++i) {
    subs.push_back(sub_node.subscribe<std_msgs::String>(
        topic, 10,
        [&](const std_msgs::String::ConstPtr&) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        },
        options));
  }
  if (!WaitFor([&] { return pub.getNumSubscribers() == links; })) {
    std::fprintf(stderr, "FATAL: %s/%zu links never all connected\n",
                 mode.c_str(), links);
    std::exit(1);
  }
  const size_t rings = pub.getStats().ring_links;
  if ((mode == "ring") != (rings == links)) {
    std::fprintf(stderr, "FATAL: %s/%zu links: %zu rode a ring\n",
                 mode.c_str(), links, rings);
    std::exit(1);
  }

  std_msgs::String msg;
  msg.data.assign(config.payload_bytes, 'x');

  std::vector<double> latencies_us;
  latencies_us.reserve(config.iterations);
  uint64_t expected = 0;
  size_t threads_at_steady_state = 0;
  rsf::net::IoSyscallCounters counters_before{};
  for (int i = -config.warmup; i < config.iterations; ++i) {
    expected += links;
    const rsf::Stopwatch watch;
    pub.publish(msg);
    if (!WaitFor([&] {
          return delivered.load(std::memory_order_relaxed) >= expected;
        })) {
      std::fprintf(stderr, "FATAL: %s/%zu links stalled at iteration %d\n",
                   mode.c_str(), links, i);
      std::exit(1);
    }
    if (i == 0) {
      threads_at_steady_state = CountProcessThreads();
      counters_before = rsf::net::GlobalIoCounters();
    }
    if (i >= 0) latencies_us.push_back(watch.ElapsedNanos() * 1e-3);
  }
  const rsf::net::IoSyscallCounters counters_after =
      rsf::net::GlobalIoCounters();

  const double deliveries =
      static_cast<double>(links) * static_cast<double>(config.iterations);
  const auto per_delivery = [&](uint64_t before, uint64_t after) {
    return deliveries > 0.0 ? static_cast<double>(after - before) / deliveries
                            : 0.0;
  };
  return {mode,
          links,
          threads_at_steady_state,
          Percentile(latencies_us, 0.50),
          Percentile(latencies_us, 0.99),
          per_delivery(counters_before.TotalSyscalls(),
                       counters_after.TotalSyscalls()),
          per_delivery(counters_before.recv_calls, counters_after.recv_calls)};
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      config.iterations = 1000;
    } else if (arg == "--iters" && i + 1 < argc) {
      config.iterations = std::atoi(argv[++i]);
    } else if (arg == "--bytes" && i + 1 < argc) {
      config.payload_bytes = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--links" && i + 1 < argc) {
      config.only_links = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--mode" && i + 1 < argc) {
      config.only_mode = argv[++i];
    }
  }
  config.iterations = std::max(config.iterations, 1);
  config.payload_bytes = std::max(config.payload_bytes, size_t{1});

  std::printf(
      "=== Ablation: connection scaling, %zu-byte payload, %d iterations "
      "===\n\n",
      config.payload_bytes, config.iterations);
  std::printf("  %-6s %-8s %14s %12s %12s %18s %14s\n", "mode", "links",
              "threads total", "p50 (us)", "p99 (us)", "syscalls/delivery",
              "recv/delivery");

  std::vector<Row> rows;
  for (const char* mode : {"tcp", "ring"}) {
    if (!config.only_mode.empty() && config.only_mode != mode) continue;
    for (const size_t links : {1, 64, 256, 1024}) {
      if (config.only_links != 0 && links != config.only_links) continue;
      if (config.only_links == 0 && std::strcmp(mode, "ring") == 0 &&
          links > 256) {
        continue;  // 1 MiB of shared ring per link: ask with --links
      }
      const Row row = RunCell(mode, links, config);
      std::printf("  %-6s %-8zu %14zu %12.1f %12.1f %18.2f %14.2f\n",
                  row.mode.c_str(), row.links, row.threads_total, row.p50_us,
                  row.p99_us, row.syscalls_per_delivery,
                  row.recv_per_delivery);
      std::fflush(stdout);
      rows.push_back(row);
      ros::master().Reset();
    }
  }

  FILE* json = std::fopen("BENCH_connections.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ablation_connections\",\n"
                 "  \"unit\": \"publish-to-last-delivery latency, "
                 "microseconds\",\n"
                 "  \"payload_bytes\": %zu,\n  \"iterations\": %d,\n"
                 "  \"results\": [\n",
                 config.payload_bytes, config.iterations);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(json,
                   "    {\"mode\": \"%s\", \"links\": %zu, "
                   "\"threads_total\": %zu, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f, \"syscalls_per_delivery\": %.2f, "
                   "\"recv_per_delivery\": %.2f}%s\n",
                   rows[i].mode.c_str(), rows[i].links,
                   rows[i].threads_total, rows[i].p50_us, rows[i].p99_us,
                   rows[i].syscalls_per_delivery, rows[i].recv_per_delivery,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\n  wrote BENCH_connections.json\n");
  }
  return 0;
}
