// The repository benchmark: one sensor stream per workload, measured
// end to end and, in a traced run, layer by layer.  run.py builds and runs
// it; see README.md for the workloads and metrics.
//
//   rsf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run has three parts:
//   set-up      kSetups times, each after an idle gap: first NodeHandle (or
//               fork+exec of the subscriber process) until the publisher
//               sees every subscriber.  The last graph is kept for the
//               phases below.
//   open loop   messages due on a fixed-rate schedule.  Latency runs from a
//               message's due time to callback entry; CLOCK_MONOTONIC is
//               shared across processes, so the subscriber process stamps
//               its own deliveries the same way.
//   saturation  closed loop: the next publish waits until fewer than
//               kWindow messages are undelivered.  Gives throughput.  It
//               runs in bursts between stretches of the open loop, each
//               drained before and after; burst work is kept out of the
//               open loop's counters.
// A traced run has no saturation: it traces two in three open-loop seqs,
// keeps the rest as an untraced reference and reports per-layer metrics.
//
// Completion is callback-side: every callback bumps a futex word in a memfd
// mapping shared with the subscriber process, so no timed region ever
// sleep-polls.  Callbacks record into that mapping a delivered bit per
// (subscriber, seq) and latency histograms, never one record per delivery,
// so the harness's own memory stays small and fixed.  Each layer is
// measured from outside, around the calls into its public functions
// (NewMessage + fill, Publisher::publish, the subscriber callback) and from
// deltas of its public counters.
//
// Every delivery is checked: seq, size and a seed-derived signature with
// sentinels at the start, middle and end of the payload.  Missing,
// duplicated, reordered or corrupt deliveries, an unclean child exit and
// arena blocks still live after teardown all count as failures; the result
// then reads "correct": false and the exit code is 1.
#include <fcntl.h>
#include <linux/futex.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/io_backend.h"
#include "net/poller.h"
#include "ros/ros.h"
#include "sensor_msgs/sfm/Image.h"
#include "sensor_msgs/sfm/Imu.h"
#include "sfm/shm_pool.h"
#include "slam/nodes.h"  // rsf::slam::NewMessage

namespace {

using Image = sensor_msgs::sfm::Image;
using Imu = sensor_msgs::sfm::Imu;

constexpr const char* kTopic = "/perfbench";
constexpr size_t kQueueSize = 64;
constexpr uint64_t kWindow = 4;  // closed-loop in-flight messages
constexpr int kSetups = 51;
// Idle time before each set-up, so that each starts from a quiet process as
// a real one does.  Back to back, set-ups found caches and CPUs warm to a
// degree that varied with the host: run medians on fanout_intra swung
// between 0.25 and 0.45 ms; with 20-40 ms gaps they held at 0.51-0.61 ms.
constexpr uint64_t kSetupGapNs = 50'000'000;
constexpr double kWarmupSeconds = 0.25;  // open-loop lead, checked, not timed
constexpr double kSaturationShare = 0.2;  // of an untraced run, in bursts
constexpr uint64_t kMaxBursts = 5;
constexpr double kMinBurstSeconds = 1.0;
constexpr uint64_t kLeadNs = 2'000'000;  // schedule start after a pause
constexpr uint64_t kDrainTimeoutNs = 5'000'000'000ull;
constexpr uint64_t kSetupTimeoutNs = 10'000'000'000ull;
constexpr uint64_t kNoSeq = UINT64_MAX;
constexpr uint64_t kRateWindowNs = 500'000'000;  // saturation throughput windows

struct Workload {
  const char* name;
  bool imu;  // sensor_msgs/sfm/Imu; otherwise sensor_msgs/sfm/Image
  uint32_t width;
  uint32_t height;
  uint32_t channels;
  const char* encoding;
  double hz;
  uint32_t subscribers;
  bool xproc;  // subscribers live in one fork+exec'd process
  bool shm;    // RSF_TRANSPORT_SHM=1 on both sides

  [[nodiscard]] size_t payload_bytes() const {
    return static_cast<size_t>(width) * height * channels;
  }
};

// Why each workload exists, and which ones BENCHMARK.json gates: README.md.
constexpr Workload kWorkloads[] = {
    {"camera_intra", false, 640, 480, 3, "rgb8", 100.0, 2, false, false},
    {"camera_xproc", false, 640, 480, 3, "rgb8", 100.0, 1, true, true},
    {"imu_xproc", true, 0, 0, 0, "", 1000.0, 1, true, false},
    {"fanout_intra", false, 64, 64, 1, "mono8", 1000.0, 256, false, false},
};

uint64_t Now() { return rsf::MonotonicNanos(); }

uint32_t Clamp32(uint64_t nanos) {
  return nanos > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(nanos);
}

void SleepUntil(uint64_t deadline) {
  const timespec ts{static_cast<time_t>(deadline / 1'000'000'000ull),
                    static_cast<long>(deadline % 1'000'000'000ull)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

uint64_t ThreadCpuNanos() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// The open-loop generator's wait: a spin to the due time, never a sleep.
/// A timer wake-up on a busy VM can run hundreds of microseconds late, and
/// a CPU left idle between messages is lent to other guests by the host:
/// with a sleep until 200 us before each due time, fanout_intra latency
/// rose 30% in slow host spells while CPU per delivery rose 15%.  Returns
/// the CPU time the spin burned, which the CPU metric excludes.
uint64_t WaitUntilDue(uint64_t due) {
  const uint64_t cpu_before = ThreadCpuNanos();
  while (Now() < due) CpuRelax();
  return ThreadCpuNanos() - cpu_before;
}

// ---- latency histograms ----

/// Log-linear histogram of nanosecond values: exact below 256 ns, then 256
/// buckets per octave (each under 0.4% wide) up to 2^32 ns.  Callbacks bump
/// buckets in the shared mapping with relaxed atomics.
constexpr uint32_t kSubBits = 8;
constexpr uint32_t kSubBuckets = 1u << kSubBits;
constexpr uint32_t kBuckets = kSubBuckets * (33 - kSubBits);

uint32_t BucketOf(uint64_t nanos) {
  const uint32_t v = Clamp32(nanos);
  if (v < kSubBuckets) return v;
  const uint32_t shift = 31 - static_cast<uint32_t>(__builtin_clz(v)) - kSubBits;
  return kSubBuckets * (shift + 1) + ((v >> shift) & (kSubBuckets - 1));
}

void Bump(uint32_t* histogram, uint64_t nanos) {
  std::atomic_ref<uint32_t>(histogram[BucketOf(nanos)])
      .fetch_add(1, std::memory_order_relaxed);
}

/// The sum of one or more shared histograms, read by the publisher.
struct Histogram {
  std::vector<uint64_t> counts = std::vector<uint64_t>(kBuckets, 0);
  uint64_t total = 0;

  void Add(const uint32_t* shared) {
    for (uint32_t b = 0; b < kBuckets; ++b) {
      counts[b] += shared[b];
      total += shared[b];
    }
  }

  /// Nearest-rank quantile in microseconds; the samples of a bucket are
  /// taken as evenly spread over its width.
  [[nodiscard]] double Quantile(double q) const {
    if (total == 0) return 0.0;
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))), 1,
        total);
    uint64_t below = 0;
    for (uint32_t b = 0; b < kBuckets; ++b) {
      if (below + counts[b] >= rank) {
        double lower = b;
        double width = 1;
        if (b >= kSubBuckets) {
          const uint32_t shift = b / kSubBuckets - 1;
          lower = static_cast<double>(uint64_t{kSubBuckets + b % kSubBuckets}
                                      << shift);
          width = static_cast<double>(uint64_t{1} << shift);
        }
        const double within = (static_cast<double>(rank - below) - 0.5) /
                              static_cast<double>(counts[b]);
        return (lower + width * within) * 1e-3;
      }
      below += counts[b];
    }
    return 0.0;
  }
};

// ---- payload signature ----

uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
uint64_t Signature(uint64_t seed, uint64_t seq) {
  return Mix64(Mix64(seed) ^ seq);
}
constexpr uint64_t kMidSalt = 0x6D69646D69646D69ull;
constexpr uint64_t kEndSalt = 0x656E64656E64656Eull;

size_t MidOffset(size_t bytes) { return (bytes / 2) & ~size_t{7}; }

void Put64(uint8_t* at, uint64_t value) { std::memcpy(at, &value, 8); }
uint64_t Get64(const uint8_t* at) {
  uint64_t value = 0;
  std::memcpy(&value, at, 8);
  return value;
}
// Covariance slots carry 53-bit slices of the signature: exact in a double.
double Slot(uint64_t value) { return static_cast<double>(value >> 11); }

/// What a camera driver does per frame: stamp, metadata, then the pixels.
/// Every page is written (as a sensor DMA would) and three sentinels carry
/// the signature.
void Fill(Image& msg, const Workload& w, uint64_t seed, uint32_t seq,
          uint64_t due) {
  msg.header.seq = seq;
  msg.header.stamp = rsf::Time::FromNanos(due);
  msg.header.frame_id = "camera";
  msg.height = w.height;
  msg.width = w.width;
  msg.encoding = w.encoding;
  msg.step = w.width * w.channels;
  const size_t bytes = w.payload_bytes();
  msg.data.resize(bytes);
  uint8_t* out = msg.data.data();
  const uint64_t sig = Signature(seed, seq);
  for (size_t i = 0; i < bytes; i += 4096) {
    out[i] = static_cast<uint8_t>(sig >> (((i >> 12) & 7) * 8));
  }
  Put64(out, sig);
  Put64(out + MidOffset(bytes), sig ^ kMidSalt);
  Put64(out + bytes - 8, sig ^ kEndSalt);
}

void Fill(Imu& msg, const Workload&, uint64_t seed, uint32_t seq,
          uint64_t due) {
  msg.header.seq = seq;
  msg.header.stamp = rsf::Time::FromNanos(due);
  msg.header.frame_id = "imu";
  const uint64_t sig = Signature(seed, seq);
  msg.orientation.w = 1.0;
  msg.angular_velocity.z = 0.01 * static_cast<double>(seq % 100);
  msg.linear_acceleration.z = 9.81;
  msg.orientation_covariance[0] = Slot(sig);
  msg.angular_velocity_covariance[4] = Slot(sig ^ kMidSalt);
  msg.linear_acceleration_covariance[8] = Slot(sig ^ kEndSalt);
}

bool Check(const Image& msg, const Workload& w, uint64_t seed) {
  const size_t bytes = w.payload_bytes();
  if (msg.width != w.width || msg.height != w.height ||
      msg.step != w.width * w.channels || msg.data.size() != bytes ||
      !(msg.encoding == w.encoding) || !(msg.header.frame_id == "camera")) {
    return false;
  }
  const uint64_t sig = Signature(seed, msg.header.seq);
  const uint8_t* in = msg.data.data();
  return Get64(in) == sig && Get64(in + MidOffset(bytes)) == (sig ^ kMidSalt) &&
         Get64(in + bytes - 8) == (sig ^ kEndSalt);
}

bool Check(const Imu& msg, const Workload&, uint64_t seed) {
  const uint64_t sig = Signature(seed, msg.header.seq);
  return msg.header.frame_id == "imu" &&
         msg.orientation_covariance[0] == Slot(sig) &&
         msg.angular_velocity_covariance[4] == Slot(sig ^ kMidSalt) &&
         msg.linear_acceleration_covariance[8] == Slot(sig ^ kEndSalt);
}

/// The test hook behind --corrupt-seq: damages one message after its fill,
/// as a faulty transport would, so the subscriber's check must catch it.
void Corrupt(Image& msg) { msg.data[MidOffset(msg.data.size())] ^= 0xFF; }
void Corrupt(Imu& msg) { msg.angular_velocity_covariance[4] += 1.0; }

// ---- per-process counters (each layer's public counters) ----

#define PB_COUNTERS(X)                                                  \
  X(cpu_us) X(ctx_switches) X(sfm_allocations) X(sfm_expansions)        \
  X(sfm_borrows) X(sfm_adoptions) X(ser_copies) X(ser_scratch_allocs)   \
  X(arena_direct) X(frame_builds) X(io_syscalls) X(io_sendmsg)          \
  X(io_recv) X(io_epoll_waits) X(io_epoll_ctls) X(io_uring_enters)      \
  X(shm_fence_rejections)

struct ProcCounters {
#define PB_FIELD(name) uint64_t name = 0;
  PB_COUNTERS(PB_FIELD)
#undef PB_FIELD
  // Gauges: read at the snapshot, never differenced.
  uint64_t peak_rss_kb = 0;
  uint64_t arena_pool_bytes = 0;
  uint64_t shm_mapped_bytes = 0;
  uint64_t shm_live_blocks = 0;
};

uint64_t Micros(const timeval& tv) {
  return static_cast<uint64_t>(tv.tv_sec) * 1'000'000ull +
         static_cast<uint64_t>(tv.tv_usec);
}

/// This process image's peak RSS (VmHWM).  Not getrusage's ru_maxrss:
/// that survives exec, so a fork+exec'd process would report the RSS of
/// its parent's image at fork time (run.py's Python, or the publisher's
/// for the subscriber process) if that was larger.
uint64_t PeakRssKb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

ProcCounters TakeCounters() {
  ProcCounters c;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  c.cpu_us = Micros(ru.ru_utime) + Micros(ru.ru_stime);
  c.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  c.peak_rss_kb = PeakRssKb();
  const sfm::ManagerStats sfm_stats = sfm::gmm().Stats();
  c.sfm_allocations = sfm_stats.allocations;
  c.sfm_expansions = sfm_stats.expansions;
  c.sfm_borrows = sfm_stats.borrows;
  c.sfm_adoptions = sfm_stats.received_adoptions;
  namespace shim = ros::shim;
  c.ser_copies = shim::wire_serialize_copies.load() +
                 shim::wire_snapshot_copies.load() +
                 shim::deserialize_copies.load();
  c.ser_scratch_allocs = shim::scratch_allocations.load();
  c.arena_direct = shim::arena_direct.load();
  c.frame_builds = shim::frame_builds.load();
  const rsf::net::IoSyscallCounters io = rsf::net::GlobalIoCounters();
  c.io_syscalls = io.TotalSyscalls();
  c.io_sendmsg = io.sendmsg_calls;
  c.io_recv = io.recv_calls;
  c.io_epoll_waits = io.epoll_waits;
  c.io_epoll_ctls = io.epoll_ctls;
  c.io_uring_enters = io.enter_calls;
  const sfm::shm::PoolStats pool = sfm::shm::GetPoolStats();
  c.shm_fence_rejections = pool.gen_fence_rejections;
  c.shm_mapped_bytes = pool.mapped_bytes;
  c.shm_live_blocks = pool.live_blocks;
  c.arena_pool_bytes = sfm::ArenaPoolBytes();
  return c;
}

/// end - begin for the counters; gauges as read at `end`.
ProcCounters Delta(const ProcCounters& begin, const ProcCounters& end) {
  ProcCounters d = end;
#define PB_SUB(name) d.name = end.name >= begin.name ? end.name - begin.name : 0;
  PB_COUNTERS(PB_SUB)
#undef PB_SUB
  return d;
}

ProcCounters Sum(const ProcCounters& a, const ProcCounters& b) {
  ProcCounters s;
#define PB_ADD(name) s.name = a.name + b.name;
  PB_COUNTERS(PB_ADD)
#undef PB_ADD
  s.peak_rss_kb = a.peak_rss_kb + b.peak_rss_kb;
  s.arena_pool_bytes = a.arena_pool_bytes + b.arena_pool_bytes;
  s.shm_mapped_bytes = a.shm_mapped_bytes + b.shm_mapped_bytes;
  s.shm_live_blocks = a.shm_live_blocks + b.shm_live_blocks;
  return s;
}

uint64_t ArenaLiveBlocks() {
  uint64_t live = 0;
  for (const auto& cls : sfm::ArenaPoolSnapshot()) live += cls.live;
  return live;
}

// ---- the shared control block ----

/// Lives at the start of a memfd mapping that the subscriber process
/// inherits; the delivery records follow it.  Only lock-free atomics and
/// plain data, so the layout is valid in both processes.
struct Control {
  std::atomic<uint32_t> delivered{0};    // futex word: deliveries, all subs
  std::atomic<uint32_t> pub_waiting{0};  // publisher blocked on `delivered`
  std::atomic<uint32_t> quit{0};         // futex word: subscriber may exit
  uint32_t workload = 0;
  uint32_t subscribers = 0;
  uint32_t lat_slots = 0;  // latency histograms: the reference, then windows
  uint64_t seed = 0;
  uint64_t n_open = 0;       // open-loop seqs are [0, n_open)
  uint64_t win_begin = 0;    // measured window: slots 1.., lat_span seqs each
  uint64_t win_end = 0;
  uint64_t lat_span = 1;
  uint32_t trace = 0;  // a traced run: see Traced()
  std::atomic<uint64_t> bad_content{0};
  std::atomic<uint64_t> duplicates{0};
  std::atomic<uint64_t> out_of_order{0};  // saturation deliveries off-sequence
  // Written by the subscriber process.
  ProcCounters sub_begin;
  ProcCounters sub_end;
  ProcCounters sub_burst_begin;
  ProcCounters sub_bursts;  // saturation bursts inside the window, summed
  uint32_t sub_in_burst = 0;
  uint64_t sub_arena_live_end = 0;
  uint64_t sub_peak_rss_kb = 0;
  uint32_t sub_snapshots = 0;  // bit 0: begin taken, bit 1: end taken
};
static_assert(std::atomic<uint32_t>::is_always_lock_free &&
              std::atomic<uint64_t>::is_always_lock_free);

void FutexWait(std::atomic<uint32_t>* word, uint32_t expected,
               uint64_t timeout_ns) {
  const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ull),
                    static_cast<long>(timeout_ns % 1'000'000'000ull)};
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAIT,
            expected, &ts, nullptr, 0);
}
void FutexWakeAll(std::atomic<uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), FUTEX_WAKE, INT_MAX,
            nullptr, nullptr, 0);
}

/// The memfd mapping: Control; a delivered bit per (subscriber, seq) of the
/// open loop, indexed subscriber * n_open + seq; the latency, transit and
/// callback histograms; per-seq publish-entry stamps and nested callback
/// time (traced seqs); each subscriber's next saturation seq.
class Region {
 public:
  static std::unique_ptr<Region> Create(uint32_t subscribers, uint64_t n_open,
                                        uint32_t lat_slots) {
    const int fd = ::memfd_create("perfbench", 0);  // inherited across exec
    if (fd < 0) throw std::runtime_error("memfd_create failed");
    const size_t bytes = Layout(subscribers, n_open, lat_slots).total;
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      ::close(fd);
      throw std::runtime_error("ftruncate failed");
    }
    auto region = Map(fd, bytes);
    new (region->ctl()) Control();
    region->ctl()->subscribers = subscribers;
    region->ctl()->n_open = n_open;
    region->ctl()->lat_slots = lat_slots;
    return region;
  }

  static std::unique_ptr<Region> Attach(int fd) {
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(sizeof(Control))) {
      throw std::runtime_error("bad control fd");
    }
    return Map(fd, static_cast<size_t>(st.st_size));
  }

  ~Region() {
    ::munmap(base_, bytes_);
    ::close(fd_);
  }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] Control* ctl() const { return static_cast<Control*>(base_); }
  [[nodiscard]] uint64_t* seen() const { return At<uint64_t>(layout().seen); }
  [[nodiscard]] uint32_t* latency(uint32_t slot) const {
    return At<uint32_t>(layout().latency) + size_t{slot} * kBuckets;
  }
  [[nodiscard]] uint32_t* transit() const { return At<uint32_t>(layout().transit); }
  [[nodiscard]] uint32_t* callback() const { return At<uint32_t>(layout().callback); }
  [[nodiscard]] uint64_t* publish_entry() const {
    return At<uint64_t>(layout().publish_entry);
  }
  [[nodiscard]] uint64_t* nested() const { return At<uint64_t>(layout().nested); }
  [[nodiscard]] uint64_t* next_sat() const { return At<uint64_t>(layout().next_sat); }

 private:
  struct Offsets {
    size_t seen, latency, transit, callback, publish_entry, nested, next_sat,
        total;
  };
  static size_t Align(size_t n) { return (n + 63) & ~size_t{63}; }
  static Offsets Layout(uint64_t subscribers, uint64_t n_open,
                        uint32_t lat_slots) {
    const size_t words = static_cast<size_t>((subscribers * n_open + 63) / 64);
    const size_t histogram = kBuckets * sizeof(uint32_t);
    Offsets o{};
    o.seen = Align(sizeof(Control));
    o.latency = Align(o.seen + words * sizeof(uint64_t));
    o.transit = Align(o.latency + lat_slots * histogram);
    o.callback = Align(o.transit + histogram);
    o.publish_entry = Align(o.callback + histogram);
    o.nested = Align(o.publish_entry + n_open * sizeof(uint64_t));
    o.next_sat = Align(o.nested + n_open * sizeof(uint64_t));
    o.total = Align(o.next_sat + subscribers * sizeof(uint64_t));
    return o;
  }
  [[nodiscard]] Offsets layout() const {
    return Layout(ctl()->subscribers, ctl()->n_open, ctl()->lat_slots);
  }
  template <typename T>
  T* At(size_t offset) const {
    return reinterpret_cast<T*>(static_cast<uint8_t*>(base_) + offset);
  }
  static std::unique_ptr<Region> Map(int fd, size_t bytes) {
    void* base =
        ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("mmap of the control region failed");
    }
    return std::unique_ptr<Region>(new Region(fd, base, bytes));
  }
  Region(int fd, void* base, size_t bytes)
      : fd_(fd), base_(base), bytes_(bytes) {}

  int fd_;
  void* base_;
  size_t bytes_;
};

/// Blocks (futex, no polling) until `target` deliveries have been counted.
bool WaitDelivered(Control* ctl, uint64_t target, uint64_t timeout_ns) {
  const uint64_t deadline = Now() + timeout_ns;
  bool reached = false;
  for (;;) {
    uint32_t seen = ctl->delivered.load();
    if (seen >= target) {
      reached = true;
      break;
    }
    ctl->pub_waiting.store(1);
    seen = ctl->delivered.load();
    if (seen >= target) {
      reached = true;
      break;
    }
    const uint64_t now = Now();
    if (now >= deadline) break;
    FutexWait(&ctl->delivered, seen,
              std::min<uint64_t>(deadline - now, 100'000'000ull));
  }
  ctl->pub_waiting.store(0);
  return reached;
}

// ---- subscriber side ----

/// The subscriptions of one process and what their callbacks record.
struct SubHost {
  const Region* region;
  const Workload* workload;
  bool snapshots;  // the subscriber process snapshots its own counters
};

/// Traced seqs alternate: even ones record each delivery's transit, odd
/// ones time each callback.  Timing a callback costs a clock read, and in
/// an inline fan-out every later subscriber's transit would carry the
/// earlier subscribers' reads.
bool TimesCallbacks(uint64_t seq) { return seq % 2 == 1; }

/// In a traced run, every third seq of the window stays untraced: the
/// reference for the tracing overhead and the stage reconciliation, taken
/// under the same host conditions as the traced seqs around it.
bool Traced(const Control& ctl, uint64_t seq) {
  return ctl.trace != 0 && seq >= ctl.win_begin && seq < ctl.win_end &&
         seq % 3 != 0;
}

/// The latency histogram a delivery of open-loop `seq` lands in: 0 for a
/// traced run's reference seqs, else one per span of the window; -1 for
/// the warm-up.
int LatencySlot(const Control& ctl, uint64_t seq) {
  if (seq < ctl.win_begin || seq >= ctl.win_end) return -1;
  if (ctl.trace != 0 && !Traced(ctl, seq)) return 0;
  return 1 + static_cast<int>(std::min<uint64_t>(
                 (seq - ctl.win_begin) / ctl.lat_span, ctl.lat_slots - 2));
}

/// The subscriber process's counter snapshots: at the window's first
/// delivery, and around each saturation burst inside the window, so that
/// burst work stays out of the open-loop counters (the window's last
/// snapshot is taken in OnDelivery).  The publisher drains before and after
/// each burst, so open-loop and burst deliveries never interleave.
void NoteSubscriberPhase(Control& ctl, uint64_t seq) {
  const bool burst = seq >= ctl.n_open;
  if (!burst && (ctl.sub_snapshots & 1u) == 0 && seq >= ctl.win_begin) {
    ctl.sub_begin = TakeCounters();
    ctl.sub_snapshots |= 1u;
  } else if (ctl.sub_snapshots == 1u && burst != (ctl.sub_in_burst != 0)) {
    const ProcCounters now = TakeCounters();
    if (burst) {
      ctl.sub_burst_begin = now;
    } else {
      ctl.sub_bursts = Sum(ctl.sub_bursts, Delta(ctl.sub_burst_begin, now));
    }
  }
  ctl.sub_in_burst = burst ? 1 : 0;
}

template <typename M>
void OnDelivery(const SubHost& host, uint32_t sub, const M& msg) {
  const uint64_t entry = Now();
  const Region& region = *host.region;
  Control* ctl = region.ctl();
  const uint64_t seq = msg.header.seq;
  const uint64_t n_open = ctl->n_open;
  if (host.snapshots) NoteSubscriberPhase(*ctl, seq);
  if (!Check(msg, *host.workload, ctl->seed)) ctl->bad_content.fetch_add(1);
  if (seq < n_open) {
    const uint64_t cell = sub * n_open + seq;
    const uint64_t bit = uint64_t{1} << (cell % 64);
    const uint64_t was = std::atomic_ref<uint64_t>(region.seen()[cell / 64])
                             .fetch_or(bit, std::memory_order_relaxed);
    const int slot = LatencySlot(*ctl, seq);
    if ((was & bit) != 0) {
      ctl->duplicates.fetch_add(1);
    } else if (slot >= 0) {
      const uint64_t due = msg.header.stamp.ToNanos();
      Bump(region.latency(static_cast<uint32_t>(slot)),
           entry > due ? entry - due : 0);
      if (Traced(*ctl, seq) && !TimesCallbacks(seq)) {
        // Stored by the publisher before publish; the transport orders it.
        const uint64_t published =
            std::atomic_ref<uint64_t>(region.publish_entry()[seq])
                .load(std::memory_order_acquire);
        Bump(region.transit(), entry > published ? entry - published : 0);
      } else if (Traced(*ctl, seq)) {
        const uint64_t took = Now() - entry;
        Bump(region.callback(), took);
        std::atomic_ref<uint64_t>(region.nested()[seq])
            .fetch_add(took, std::memory_order_relaxed);
      }
    }
  } else {
    uint64_t& next = region.next_sat()[sub];
    if (seq != next) ctl->out_of_order.fetch_add(1);
    next = seq + 1;
  }
  if (host.snapshots && (ctl->sub_snapshots & 2u) == 0 &&
      seq + 1 >= ctl->win_end && seq < n_open) {
    ctl->sub_end = TakeCounters();
    ctl->sub_snapshots |= 2u;
  }
  ctl->delivered.fetch_add(1);
  if (ctl->pub_waiting.load() != 0) FutexWakeAll(&ctl->delivered);
}

template <typename M>
ros::Subscriber Subscribe(ros::NodeHandle& node, const SubHost& host,
                          uint32_t sub) {
  ros::SubscribeOptions options;
  options.inline_dispatch = true;  // callback entry = delivery, no queue hop
  return node.subscribe<M>(
      kTopic, kQueueSize,
      [&host, sub](const std::shared_ptr<const M>& msg) {
        OnDelivery(host, sub, *msg);
      },
      options);
}

template <typename M>
int RunSubscriberProcess(int ctl_fd, uint16_t port) {
  const auto region = Region::Attach(ctl_fd);
  Control* ctl = region->ctl();
  const Workload& w = kWorkloads[ctl->workload];
  const pid_t parent = ::getppid();
  const auto status = ros::master().RegisterPublisher(
      kTopic, M::DataType(), ros::TransportChecksum<M>(),
      ros::TopicEndpoint{"127.0.0.1", port, "perf_pub"});
  if (!status.ok()) return 2;
  {
    const SubHost host{region.get(), &w, /*snapshots=*/true};
    ros::NodeHandle node("perf_sub");
    ros::Subscriber sub = Subscribe<M>(node, host, 0);
    while (ctl->quit.load() == 0 && ::getppid() == parent) {
      FutexWait(&ctl->quit, 0, 200'000'000ull);
    }
    sub.shutdown();
    node.shutdown();
  }
  ctl->sub_arena_live_end = ArenaLiveBlocks();
  ctl->sub_peak_rss_kb = PeakRssKb();
  return 0;
}

// ---- publisher side ----

/// One set-up publisher/subscriber graph.
struct Graph {
  std::unique_ptr<Region> region;
  std::unique_ptr<SubHost> host;
  std::unique_ptr<ros::NodeHandle> pub_node;
  std::unique_ptr<ros::NodeHandle> sub_node;
  ros::Publisher pub;
  std::vector<ros::Subscriber> subs;
  pid_t child = -1;
};

/// Where each thread runs.  The publisher's generator thread, its reactor
/// pool and the subscriber process each get a CPU of their own, so thread
/// placement is the same on every run: left to the scheduler, whether the
/// generator, the reactor threads and the subscriber shared a CPU changed
/// from run to run, and with it the wake-up path, which made cross-process
/// latency bimodal.  On a deployment the reactor pool does not wait for the
/// publishing thread to yield either.  With fewer than three CPUs the roles
/// share.
struct CpuPlan {
  int generator = -1;
  int reactor = -1;
  int subscriber = -1;
};

CpuPlan PlanCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return {};
  // The highest-numbered CPUs: CPU 0 takes most device interrupts.
  const auto from_top = [&](size_t i) {
    return cpus[cpus.size() - 1 - std::min(i, cpus.size() - 1)];
  };
  return {from_top(0), from_top(2), from_top(1)};
}

/// Pins the calling thread; threads it creates later inherit the pin.
void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

pid_t Spawn(const std::string& exe, const std::vector<std::string>& args,
            int ctl_fd, int sub_cpu) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: async-signal-safe calls only until exec.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (sub_cpu >= 0) PinToCpu(sub_cpu);
  if (::getppid() != parent) ::_exit(126);
  if (::dup2(ctl_fd, 3) < 0) ::_exit(126);
  ::syscall(SYS_close_range, 4u, ~0u, 0u);
  ::execv(exe.c_str(), argv.data());
  ::_exit(127);
}

/// Tells the subscriber process to finish and reaps it.  True on a clean
/// exit(0) within the timeout.
bool StopChild(Graph& g) {
  if (g.child <= 0) return true;
  g.region->ctl()->quit.store(1);
  FutexWakeAll(&g.region->ctl()->quit);
  const uint64_t deadline = Now() + kDrainTimeoutNs;
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(g.child, &status, WNOHANG)) == 0 &&
         Now() < deadline) {
    rsf::SleepForNanos(1'000'000);
  }
  if (reaped != g.child) {
    ::kill(g.child, SIGKILL);
    ::waitpid(g.child, &status, 0);
    std::fprintf(stderr, "subscriber process %d did not exit; killed\n",
                 static_cast<int>(g.child));
  }
  g.child = -1;
  const bool clean = reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!clean) {
    std::fprintf(stderr, "subscriber process ended with %s %d\n",
                 WIFSIGNALED(status) ? "signal" : "exit code",
                 WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
  }
  return clean;
}

/// Tears a graph down; returns false if the subscriber process misbehaved.
bool Teardown(Graph& g) {
  const bool clean = StopChild(g);
  for (auto& sub : g.subs) sub.shutdown();
  g.subs.clear();
  g.pub.shutdown();
  g.sub_node.reset();
  g.pub_node.reset();
  return clean;
}

template <typename F>
bool WaitUntil(F&& predicate, uint64_t timeout_ns) {
  const uint64_t deadline = Now() + timeout_ns;
  while (!predicate()) {
    if (Now() >= deadline) return false;
    rsf::SleepForNanos(20'000);
  }
  return true;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t corrupt_seq = kNoSeq;
  bool subscriber_role = false;
  int ctl_fd = -1;
  uint16_t port = 0;
};

/// Which seqs of a run do what: a warm-up, then the window every metric is
/// taken over.  Untraced runs interleave saturation bursts with the window;
/// traced runs have none and trace two of every three seqs of the window.
struct Plan {
  uint64_t n_open = 0;  // open-loop seqs are [0, n_open)
  uint64_t win_begin = 0;
  uint64_t win_end = 0;
  // The window in spans of at least 1 s and 1000 deliveries, each with its
  // own latency histogram (so at least 10 samples lie beyond each p99).
  uint64_t span = 1;
  uint32_t spans = 1;
  // Saturation bursts of burst_ns, one after each of these open-loop seqs.
  std::vector<uint64_t> burst_after;
  uint64_t burst_ns = 0;
};

Plan MakePlan(const Workload& w, const Args& args) {
  const double period_s = 1.0 / w.hz;
  const auto count_for = [&](double seconds) {
    return static_cast<uint64_t>(std::max(1.0, std::floor(seconds / period_s)));
  };
  const uint64_t n_warm = count_for(kWarmupSeconds);
  const double open_s =
      args.trace ? args.seconds : args.seconds * (1.0 - kSaturationShare);
  const uint64_t n_timed =
      count_for(std::max(open_s - kWarmupSeconds, period_s));
  Plan plan;
  plan.n_open = n_warm + n_timed;
  plan.win_begin = n_warm;
  plan.win_end = plan.n_open;
  plan.span = std::max<uint64_t>(static_cast<uint64_t>(w.hz),
                                 (1000 + w.subscribers - 1) / w.subscribers);
  if (args.trace) plan.span = plan.span * 3 / 2;  // two in three are traced
  plan.spans = static_cast<uint32_t>(std::max<uint64_t>(
      1, (plan.win_end - plan.win_begin) / plan.span));
  if (!args.trace) {
    // Spread over the run, so that throughput samples more of the host's
    // drift than its last seconds; each burst lasts at least 1 s when the
    // run allows.
    const double sat_s = args.seconds * kSaturationShare;
    const uint64_t bursts = std::clamp<uint64_t>(
        static_cast<uint64_t>(sat_s / kMinBurstSeconds), 1, kMaxBursts);
    for (uint64_t k = 1; k <= bursts; ++k) {
      plan.burst_after.push_back(
          plan.win_begin + k * (plan.win_end - plan.win_begin) / bursts - 1);
    }
    plan.burst_ns = static_cast<uint64_t>(sat_s * 1e9 / bursts);
  }
  return plan;
}

/// Sets up one graph and returns its set-up time in seconds (negative if
/// the publisher never saw every subscriber).
template <typename M>
double SetUp(Graph& g, const Workload& w, uint32_t workload_index,
             const Args& args, const Plan& plan, const CpuPlan& cpus,
             const std::string& exe) {
  g.region = Region::Create(w.subscribers, plan.n_open, 1 + plan.spans);
  Control* ctl = g.region->ctl();
  ctl->workload = workload_index;
  ctl->seed = args.seed;
  ctl->win_begin = plan.win_begin;
  ctl->win_end = plan.win_end;
  ctl->lat_span = plan.span;
  ctl->trace = args.trace ? 1 : 0;
  for (uint32_t s = 0; s < w.subscribers; ++s) {
    g.region->next_sat()[s] = plan.n_open;
  }
  g.host = std::make_unique<SubHost>(SubHost{g.region.get(), &w, false});
  ros::master().Reset();

  const uint64_t start = Now();
  g.pub_node = std::make_unique<ros::NodeHandle>("perf_pub");
  g.pub = g.pub_node->advertise<M>(kTopic, kQueueSize);
  if (w.xproc) {
    const auto endpoints = ros::master().PublishersOf(kTopic);
    if (endpoints.size() != 1) return -1;
    g.child = Spawn(exe,
                    {"--role", "sub", "--workload", w.name, "--ctl-fd", "3",
                     "--port", std::to_string(endpoints[0].port)},
                    g.region->fd(), cpus.subscriber);
    if (g.child < 0) return -1;
  } else {
    g.sub_node = std::make_unique<ros::NodeHandle>("perf_sub");
    for (uint32_t s = 0; s < w.subscribers; ++s) {
      g.subs.push_back(Subscribe<M>(*g.sub_node, *g.host, s));
    }
  }
  // Poll without sleeping, so no timer wake-up delay lands in the
  // measurement.  Yield rather than spin: a freshly forked subscriber
  // process starts on this CPU and must run before it can pin itself to
  // its own; a spinning poll held it off for a scheduler tick.
  while (g.pub.getNumSubscribers() != w.subscribers) {
    if (Now() - start >= kSetupTimeoutNs) return -1;
    ::sched_yield();
  }
  return static_cast<double>(Now() - start) * 1e-9;
}

// ---- statistics ----

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank quantile; reorders `v`.
double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// ---- one workload ----

template <typename M>
int RunWorkload(const Workload& w, uint32_t workload_index, const Args& args,
                const CpuPlan& cpus) {
  const uint32_t subs = w.subscribers;
  const Plan plan = MakePlan(w, args);
  const uint64_t n_open = plan.n_open;
  const uint64_t win_begin = plan.win_begin;
  const uint64_t win_end = plan.win_end;

  char exe[4096] = {0};
  if (::readlink("/proc/self/exe", exe, sizeof(exe) - 1) <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 2;
  }

  // ---- set-up, kSetups times, kSetupGapNs apart; the last graph is measured ----
  std::vector<double> setup_s;
  uint64_t teardown_failures = 0;
  Graph g;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0 && !Teardown(g)) ++teardown_failures;
    g = Graph();
    SleepUntil(Now() + kSetupGapNs);
    const double s = SetUp<M>(g, w, workload_index, args, plan, cpus, exe);
    if (s < 0) {
      std::fprintf(stderr, "set-up %d: publisher never saw %u subscriber(s)\n",
                   i, subs);
      Teardown(g);
      return 1;
    }
    setup_s.push_back(s);
  }
  std::printf("# set-up: %d times, min %.6f, median %.6f, max %.6f s\n",
              kSetups, *std::min_element(setup_s.begin(), setup_s.end()),
              Median(setup_s), *std::max_element(setup_s.begin(), setup_s.end()));
  Control* ctl = g.region->ctl();

  // ---- closed-loop saturation, in bursts ----
  uint64_t sat_msgs = 0;  // saturation seqs are n_open + [0, sat_msgs)
  std::vector<double> rates;  // msg/s in each kRateWindowNs of saturation
  // One burst: the next publish waits until fewer than kWindow messages are
  // undelivered.  `done` messages were fully delivered before it.  False if
  // deliveries stalled.
  const auto burst = [&](uint64_t done) {
    std::vector<uint64_t> issued;  // publishes in each kRateWindowNs
    const uint64_t begin = Now();
    bool stalled = false;
    uint64_t n = 0;
    while (!stalled && Now() - begin < plan.burst_ns) {
      if (n >= kWindow) {
        stalled = !WaitDelivered(ctl, (done + n - kWindow + 1) * subs,
                                 kDrainTimeoutNs);
      }
      const uint64_t now = Now();
      const size_t window = (now - begin) / kRateWindowNs;
      if (window >= issued.size()) issued.resize(window + 1, 0);
      ++issued[window];
      auto msg = rsf::slam::NewMessage<M>();
      Fill(*msg, w, args.seed, static_cast<uint32_t>(n_open + sat_msgs + n), now);
      g.pub.publish(std::shared_ptr<const M>(std::move(msg)));
      ++n;
    }
    stalled = !WaitDelivered(ctl, (done + n) * subs, kDrainTimeoutNs) || stalled;
    const uint64_t end = Now();
    sat_msgs += n;
    // With at most kWindow messages in flight, issues per window equal
    // completions per window to within kWindow.  Whole windows only.
    const size_t whole = (end - begin) / kRateWindowNs;
    issued.resize(std::max(issued.size(), whole), 0);
    for (size_t k = 0; k < whole; ++k) {
      rates.push_back(static_cast<double>(issued[k]) / (kRateWindowNs * 1e-9));
    }
    if (end - begin < kRateWindowNs) {
      rates.push_back(static_cast<double>(n) /
                      (static_cast<double>(end - begin) * 1e-9));
    }
    return !stalled;
  };

  // ---- open loop ----
  std::vector<uint32_t> gen_lag(n_open, 0);
  std::vector<uint32_t> construct(n_open, 0);
  std::vector<uint32_t> publish(n_open, 0);
  ProcCounters pub_begin;
  ProcCounters pub_end;
  ProcCounters pub_bursts;  // bursts inside the window, summed
  ros::PublicationStats stats_begin;
  ros::PublicationStats stats_end;
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / w.hz);
  uint64_t spin_cpu_ns = 0;
  const uint64_t t0 = Now() + kLeadNs;
  uint64_t shift = 0;  // the schedule resumes kLeadNs after each burst
  size_t next_burst = 0;
  bool stalled = false;
  for (uint64_t seq = 0; seq < n_open && !stalled; ++seq) {
    const uint64_t due = t0 + shift + seq * period_ns;
    if (seq == win_begin) {
      pub_begin = TakeCounters();
      stats_begin = g.pub.getStats();
    }
    const uint64_t spun = WaitUntilDue(due);
    if (seq >= win_begin && seq < win_end) spin_cpu_ns += spun;
    const uint64_t start = Now();
    const bool traced = Traced(*ctl, seq);
    gen_lag[seq] = Clamp32(start - due);
    auto msg = rsf::slam::NewMessage<M>();
    Fill(*msg, w, args.seed, static_cast<uint32_t>(seq), due);
    if (seq == args.corrupt_seq) Corrupt(*msg);
    const uint64_t publish_entry = traced ? Now() : 0;
    if (traced) {
      std::atomic_ref<uint64_t>(g.region->publish_entry()[seq])
          .store(publish_entry, std::memory_order_release);
    }
    g.pub.publish(std::shared_ptr<const M>(std::move(msg)));
    if (traced) {
      construct[seq] = Clamp32(publish_entry - start);
      publish[seq] = Clamp32(Now() - publish_entry);
    }
    const uint64_t done = seq + 1 + sat_msgs;
    if (seq + 1 == win_end) {
      WaitDelivered(ctl, done * subs, kDrainTimeoutNs);
      pub_end = TakeCounters();
      stats_end = g.pub.getStats();
    }
    if (next_burst < plan.burst_after.size() &&
        seq == plan.burst_after[next_burst]) {
      ++next_burst;
      WaitDelivered(ctl, done * subs, kDrainTimeoutNs);
      const bool in_window = seq + 1 < win_end;
      const ProcCounters before = in_window ? TakeCounters() : ProcCounters{};
      stalled = !burst(done);
      if (in_window) pub_bursts = Sum(pub_bursts, Delta(before, TakeCounters()));
      const uint64_t next_due = t0 + shift + (seq + 1) * period_ns;
      const uint64_t resume = Now() + kLeadNs;
      if (resume > next_due) shift += resume - next_due;
    }
  }
  WaitDelivered(ctl, (n_open + sat_msgs) * subs, kDrainTimeoutNs);
  const uint64_t n_total = n_open + sat_msgs;

  // ---- teardown ----
  if (!Teardown(g)) ++teardown_failures;
  ProcCounters proc_end = TakeCounters();
  // Lanes may drop their last block references just after shutdown returns.
  WaitUntil([] { return ArenaLiveBlocks() == 0; }, 1'000'000'000ull);
  uint64_t arena_live = ArenaLiveBlocks();
  if (w.xproc) arena_live += ctl->sub_arena_live_end;
  if (arena_live != 0) {
    std::fprintf(stderr, "teardown: %llu arena block(s) still live (parent %llu)\n",
                 static_cast<unsigned long long>(arena_live),
                 static_cast<unsigned long long>(ArenaLiveBlocks()));
    ++teardown_failures;
  }
  if (w.xproc && ctl->sub_snapshots != 3u) {
    std::fprintf(stderr, "teardown: subscriber took counter snapshots %u\n",
                 ctl->sub_snapshots);
    ++teardown_failures;
  }

  // ---- failures ----
  const uint64_t cells = uint64_t{subs} * n_open;
  uint64_t delivered_cells = 0;
  for (uint64_t i = 0; i < (cells + 63) / 64; ++i) {
    delivered_cells += static_cast<uint64_t>(std::popcount(g.region->seen()[i]));
  }
  uint64_t missing = cells - delivered_cells;
  for (uint32_t s = 0; s < subs; ++s) {
    const uint64_t next = g.region->next_sat()[s];
    if (next < n_total) missing += n_total - next;
  }
  const uint64_t duplicates = ctl->duplicates.load();
  const uint64_t bad = ctl->bad_content.load();
  const uint64_t out_of_order = ctl->out_of_order.load();
  const uint64_t attempted = n_total * subs;
  const uint64_t failed =
      missing + duplicates + bad + out_of_order + teardown_failures;
  const bool correct = failed == 0;
  std::printf("# %s seed %llu: %llu messages, %llu deliveries expected; "
              "missing %llu, duplicate %llu, corrupt %llu, out-of-order %llu, "
              "teardown failures %llu\n",
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(n_total),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(missing),
              static_cast<unsigned long long>(duplicates),
              static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(out_of_order),
              static_cast<unsigned long long>(teardown_failures));

  const auto per_traced_msg = [&](const std::vector<uint32_t>& src) {
    std::vector<double> v;
    for (uint64_t q = win_begin; q < win_end; ++q) {
      if (Traced(*ctl, q)) v.push_back(src[q] * 1e-3);
    }
    return v;
  };

  // Counter deltas over the window, less the bursts inside it.
  ProcCounters window = Delta(pub_bursts, Delta(pub_begin, pub_end));
  window.cpu_us -= std::min(window.cpu_us, spin_cpu_ns / 1000);
  if (w.xproc) {
    window = Sum(window, Delta(ctl->sub_bursts, Delta(ctl->sub_begin, ctl->sub_end)));
  }
  const double msgs = static_cast<double>(win_end - win_begin);
  const double deliveries = msgs * subs;
  const uint64_t peak_rss_kb =
      proc_end.peak_rss_kb + (w.xproc ? ctl->sub_peak_rss_kb : 0);

  // The window's latency, and its p99 per span, median over spans: a burst
  // of host stalls moves one span's p99, not the result.
  Histogram lat;
  std::vector<double> span_p99s;
  for (uint32_t slot = 1; slot <= plan.spans; ++slot) {
    Histogram span;
    span.Add(g.region->latency(slot));
    span_p99s.push_back(span.Quantile(0.99));
    lat.Add(g.region->latency(slot));
  }
  const double lat_p50 = lat.Quantile(0.5);
  const double lat_p99 = Median(span_p99s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::printf("# open loop: %llu latency samples in %u span(s); "
                "saturation: %llu messages over %zu window(s)\n",
                static_cast<unsigned long long>(lat.total), plan.spans,
                static_cast<unsigned long long>(n_total - n_open),
                rates.size());
    metrics = {
        {"latency_p50_us", lat_p50, "us"},
        {"throughput_msg_s", Median(rates), "msg/s"},
        {"cpu_us_per_delivery", Ratio(window.cpu_us, deliveries), "us"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_kb * 1024.0 / 1e6, "MB"},
    };
  } else {
    Histogram ref;
    ref.Add(g.region->latency(0));
    const double ref_p50 = ref.Quantile(0.5);
    std::vector<double> gen = per_traced_msg(gen_lag);
    std::vector<double> cons = per_traced_msg(construct);
    Histogram transit;
    transit.Add(g.region->transit());
    Histogram callback;
    callback.Add(g.region->callback());
    std::vector<double> pub_self;
    for (uint64_t q = win_begin; q < win_end; ++q) {
      if (!Traced(*ctl, q) || !TimesCallbacks(q)) continue;
      // Intra callbacks run inline, inside publish.
      const uint64_t nested = w.xproc ? 0 : g.region->nested()[q];
      pub_self.push_back((publish[q] > nested ? publish[q] - nested : 0) * 1e-3);
    }
    const double gen_p50 = Quantile(gen, 0.5);
    const double cons_p50 = Quantile(cons, 0.5);
    const double transit_p50 = transit.Quantile(0.5);
    const double stage_sum = gen_p50 + cons_p50 + transit_p50;
    // Against the untraced reference seqs: the traced stages must account
    // for the latency that a run without tracing sees.
    const double reconcile_pct =
        Ratio(std::fabs(stage_sum - ref_p50), ref_p50) * 100;
    std::printf("# reconcile %s: gen_lag %.3f + construct %.3f + transit %.3f "
                "= %.3f us vs untraced latency_p50 %.3f us (%.1f%% off) %s\n",
                w.name, gen_p50, cons_p50, transit_p50, stage_sum, ref_p50,
                reconcile_pct, reconcile_pct <= 10.0 ? "PASS" : "FAIL");
    std::printf("# tracing overhead %s: traced latency_p50 %.3f - untraced "
                "%.3f = %.3f us (%llu traced / %llu untraced deliveries)\n",
                w.name, lat_p50, ref_p50, lat_p50 - ref_p50,
                static_cast<unsigned long long>(lat.total),
                static_cast<unsigned long long>(ref.total));
    const double d_enq = static_cast<double>(stats_end.enqueued - stats_begin.enqueued);
    const double d_drop = static_cast<double>(stats_end.dropped - stats_begin.dropped);
    const double d_zc = static_cast<double>(stats_end.intra_zero_copy - stats_begin.intra_zero_copy);
    const double d_shm = static_cast<double>(stats_end.shm_descriptors - stats_begin.shm_descriptors);
    metrics = {
        {"sfm.construct_p50_us", cons_p50, "us"},
        {"sfm.construct_p99_us", Quantile(cons, 0.99), "us"},
        {"sfm.allocations_per_msg", Ratio(window.sfm_allocations, msgs), "count/msg"},
        {"sfm.expansions_per_msg", Ratio(window.sfm_expansions, msgs), "count/msg"},
        {"sfm.borrows_per_msg", Ratio(window.sfm_borrows, msgs), "count/msg"},
        {"sfm.adoptions_per_delivery", Ratio(window.sfm_adoptions, deliveries), "count/delivery"},
        {"sfm.arena_pool_mb", window.arena_pool_bytes / 1e6, "MB"},
        {"sfm.arena_live_blocks_end", static_cast<double>(arena_live), "count"},
        {"sfm.shm_mapped_mb", window.shm_mapped_bytes / 1e6, "MB"},
        {"sfm.shm_live_blocks", static_cast<double>(window.shm_live_blocks), "count"},
        {"sfm.shm_gen_fence_rejections", static_cast<double>(window.shm_fence_rejections), "count"},
        {"serialization.copies_per_delivery", Ratio(window.ser_copies, deliveries), "count/delivery"},
        {"serialization.scratch_allocs_per_delivery", Ratio(window.ser_scratch_allocs, deliveries), "count/delivery"},
        {"ros.publish_p50_us", Quantile(pub_self, 0.5), "us"},
        {"ros.publish_p99_us", Quantile(pub_self, 0.99), "us"},
        {"ros.frame_builds_per_msg", Ratio(window.frame_builds, msgs), "count/msg"},
        {"ros.enqueued_per_msg", Ratio(d_enq, msgs), "count/msg"},
        {"ros.dropped_per_msg", Ratio(d_drop, msgs), "count/msg"},
        {"ros.transit_p50_us", transit_p50, "us"},
        {"ros.transit_p99_us", transit.Quantile(0.99), "us"},
        {"ros.callback_p50_us", callback.Quantile(0.5), "us"},
        {"ros.intra_zero_copy_ratio", Ratio(d_zc, deliveries), "ratio"},
        {"ros.shm_descriptor_ratio", Ratio(d_shm, deliveries), "ratio"},
        {"ros.arena_direct_ratio", Ratio(window.arena_direct, deliveries), "ratio"},
        {"net.syscalls_per_delivery", Ratio(window.io_syscalls, deliveries), "count/delivery"},
        {"net.sendmsg_per_msg", Ratio(window.io_sendmsg, msgs), "count/msg"},
        {"net.recv_per_delivery", Ratio(window.io_recv, deliveries), "count/delivery"},
        {"net.epoll_waits_per_delivery", Ratio(window.io_epoll_waits, deliveries), "count/delivery"},
        {"net.epoll_ctls_per_delivery", Ratio(window.io_epoll_ctls, deliveries), "count/delivery"},
        {"net.uring_enters_per_delivery", Ratio(window.io_uring_enters, deliveries), "count/delivery"},
        {"bench.gen_lag_p50_us", gen_p50, "us"},
        {"bench.gen_lag_p99_us", Quantile(gen, 0.99), "us"},
        {"bench.ctx_switches_per_delivery", Ratio(window.ctx_switches, deliveries), "count/delivery"},
        {"bench.drop_ratio", Ratio(failed, attempted), "ratio"},
        {"bench.latency_p90_us", lat.Quantile(0.9), "us"},
        {"bench.latency_p99_us", lat_p99, "us"},
        {"bench.traced_latency_p50_us", lat_p50, "us"},
        {"bench.tracing_overhead_us", lat_p50 - ref_p50, "us"},
        {"bench.reconcile_error_pct", reconcile_pct, "%"},
    };
  }
  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"io_backend\": \"%s\", \"build_type\": \"%s\", "
              "\"rsf_transport_shm\": \"%s\", \"subscribers\": %u, "
              "\"rate_hz\": %g, \"payload_bytes\": %zu, "
              "\"generator_cpu\": %d, \"reactor_cpu\": %d, "
              "\"subscriber_cpu\": %d}\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0,
              rsf::net::IoBackendKindName(rsf::net::ResolveIoBackendKind()),
              RSF_BUILD_TYPE, w.shm ? "1" : "0", subs, w.hz,
              w.imu ? sizeof(Imu) : w.payload_bytes(), cpus.generator,
              cpus.reactor, w.xproc ? cpus.subscriber : cpus.generator);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (key == "--corrupt-seq") {
      args->corrupt_seq = std::strtoull(value, nullptr, 10);
    } else if (key == "--role") {
      args->subscriber_role = std::strcmp(value, "sub") == 0;
    } else if (key == "--ctl-fd") {
      args->ctl_fd = std::atoi(value);
    } else if (key == "--port") {
      args->port = static_cast<uint16_t>(std::atoi(value));
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--corrupt-seq <seq>]\n",
                 argv[0]);
    return 2;
  }
  const Workload* workload = nullptr;
  uint32_t index = 0;
  for (uint32_t i = 0; i < std::size(kWorkloads); ++i) {
    if (args.workload == kWorkloads[i].name) {
      workload = &kWorkloads[i];
      index = i;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  rsf::SetLogLevel(rsf::LogLevel::kError);
  try {
    if (args.subscriber_role) {
      return workload->imu ? RunSubscriberProcess<Imu>(args.ctl_fd, args.port)
                           : RunSubscriberProcess<Image>(args.ctl_fd, args.port);
    }
    // The subscriber process inherits this through exec.
    ::setenv("RSF_TRANSPORT_SHM", workload->shm ? "1" : "0", 1);
    // The reactor pool starts here, so its threads inherit the reactor CPU;
    // then the main thread, which sets up, generates and publishes, moves
    // to its own CPU and takes tight timer sleeps (the reactor threads keep
    // the default slack).
    const CpuPlan cpus = PlanCpus();
    if (cpus.reactor >= 0) PinToCpu(cpus.reactor);
    rsf::net::Reactor::Get();
    if (cpus.generator >= 0) PinToCpu(cpus.generator);
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    return workload->imu ? RunWorkload<Imu>(*workload, index, args, cpus)
                         : RunWorkload<Image>(*workload, index, args, cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
