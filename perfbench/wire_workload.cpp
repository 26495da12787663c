// wire_fleet: an in-process net::CoordinatorNode on loopback, restarted
// over a durable task registry, driven by one client thread that plays
// three monitor sessions and a control client with raw sockets and the
// library's public codec and framing functions.
//
// Load is open loop: LocalViolations are due on a seeded Poisson schedule
// and every latency is timed from the due time, so a stall on either side
// shows up in the latencies of the requests queued behind it.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "control/registry_store.h"
#include "control/task_registry.h"
#include "net/coordinator_node.h"
#include "net/framing.h"
#include "net/io_counters.h"
#include "net/messages.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

namespace net = volley::net;
using volley::TaskId;
using volley::Tick;

constexpr std::size_t kSessions = 3;
// The registry: 1024 tasks that receive violations, 8 that only see control
// updates, and a long tail of registered tasks that stay quiet — the task
// set a restarted daemon must reload and push to every session.
constexpr TaskId kFirstPollTask = 1;
constexpr int kPollTasks = 1024;
constexpr TaskId kFirstChurnTask = 5001;
constexpr int kChurnTasks = 8;
constexpr TaskId kFirstIdleTask = 6001;
constexpr int kIdleTasks = 3064;
constexpr int kTotalTasks = kPollTasks + kChurnTasks + kIdleTasks;

// Offered load. kViolationRate is about a seventh of the ~40000/s at which
// alert_p90_us first passed 1 ms on the reference box; a third of that knee
// already held the coordinator at 78 % of its core (see README.md).
constexpr double kViolationRate = 6000.0;     // LocalViolations per second
constexpr double kControlRate = 20.0;         // UpdateTasks per second
constexpr double kAboveShare = 0.9;           // polls whose aggregate > T
constexpr std::int64_t kHeartbeatNs = 200'000'000;
constexpr std::int64_t kStatsRoundNs = 50'000'000;
constexpr double kGeneratorLagBoundUs = 20000.0;
constexpr int kSetupReps = 15;
constexpr std::int64_t kMs = 1'000'000;

double task_threshold(TaskId task) { return 1000.0 + static_cast<double>(task); }

// ---------------------------------------------------------------------------
// One client connection. Frames are queued whole and written in order; a
// partly written frame stays at the head of the queue until the kernel
// takes the rest, so the coordinator never sees a torn frame.

class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(); }

  /// Blocking connect to localhost, then non-blocking with TCP_NODELAY.
  /// One attempt, no retries.
  bool connect_to(std::uint16_t port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      close();
      return false;
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    out_.clear();
    out_off_ = 0;
    stamps_.clear();
    reader_ = volley::FrameReader{};
  }

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0; }
  bool pending() const { return out_off_ < out_.size(); }

  /// Queues one framed message; `written` (optional) receives the time at
  /// which its last byte was handed to the kernel.
  void queue(std::span<const std::byte> payload, std::int64_t* written = nullptr) {
    const auto frame = volley::frame_payload(payload);
    out_.insert(out_.end(), frame.begin(), frame.end());
    if (written != nullptr) stamps_.push_back({out_.size(), written});
  }

  /// Writes what the kernel accepts. False on a hard error.
  bool flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      out_off_ += static_cast<std::size_t>(n);
    }
    if (!stamps_.empty()) {
      const std::int64_t t = now_ns();
      std::size_t done = 0;
      while (done < stamps_.size() && stamps_[done].first <= out_off_) {
        *stamps_[done].second = t;
        ++done;
      }
      stamps_.erase(stamps_.begin(), stamps_.begin() + static_cast<std::ptrdiff_t>(done));
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }

  /// Drains the socket into the frame reader. False on EOF or error.
  /// `capture` (optional) keeps a copy of the raw bytes.
  bool read_some(std::vector<std::vector<std::byte>>* capture) {
    std::byte buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      const std::span<const std::byte> chunk(buf, static_cast<std::size_t>(n));
      reader_.feed(chunk);
      if (capture != nullptr) capture->emplace_back(chunk.begin(), chunk.end());
    }
  }

  volley::FrameReader& reader() { return reader_; }

 private:
  int fd_{-1};
  volley::FrameReader reader_;
  std::vector<std::byte> out_;
  std::size_t out_off_{0};
  std::vector<std::pair<std::size_t, std::int64_t*>> stamps_;
};

// ---------------------------------------------------------------------------
// On a VM, a vCPU that halts can lose its physical core to another guest
// for milliseconds, so a coordinator that sleeps in epoll between frames
// measures the hypervisor. An idle-priority (SCHED_IDLE) thread spinning
// on the coordinator's CPU keeps the vCPU running; the coordinator preempts
// it on every wakeup. Its CPU time is excluded from the coordinator's.

class KeepAwake {
 public:
  KeepAwake() = default;
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;
  ~KeepAwake() { stop(); }

  void start(int cpu) {
    thread_ = std::thread([this, cpu] {
      pin_this_thread(cpu);
      const sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
    ::pthread_getcpuclockid(thread_.native_handle(), &clock_);
  }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// CPU time the spinner has used so far (0 when not running).
  std::int64_t cpu_ns() const { return thread_.joinable() ? clock_ns(clock_) : 0; }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
  clockid_t clock_{};
};

// ---------------------------------------------------------------------------
// Per-request records

/// What violation s scripts: its task, and the poll aggregate the three
/// sessions will answer with (above T in kAboveShare of the polls).
struct Script {
  TaskId task{0};
  bool above{false};
  double aggregate{0.0};
};

Script script(std::uint64_t seed, std::size_t s) {
  Script out;
  out.task = kFirstPollTask + static_cast<TaskId>(s % kPollTasks);
  const std::uint64_t h = hash3(seed, 0x7e1, s);
  out.above = unit(h) < kAboveShare;
  const double margin = 0.25 * static_cast<double>(1 + mix64(h) % 64);
  out.aggregate = task_threshold(out.task) + (out.above ? margin : -margin);
  return out;
}

// Per-request records stay small: the wire run's peak RSS should be the
// coordinator's, not the benchmark's bookkeeping.
struct Violation {
  std::int64_t due{0};
  std::int64_t sent{0};
  std::uint8_t reqs{0};   // PollRequests read
  std::uint8_t resps{0};  // PollResponses queued
};

/// Traced windows only: per-session read and write times of one poll.
struct PollTrace {
  std::int64_t req_read[kSessions]{};
  std::int64_t resp_written[kSessions]{};
};

/// Written by on_alert on the coordinator's thread; read by the client
/// after the coordinator thread has been joined.
struct AlertSink {
  std::uint64_t seed{0};
  std::vector<std::int64_t> at;
  std::vector<std::uint16_t> count;
  std::vector<std::uint8_t> value_ok;  // first alert carried the scripted aggregate
  std::int64_t unknown{0};
  std::atomic<std::int64_t> total{0};

  void reset(std::size_t n) {
    at.assign(n, 0);
    count.assign(n, 0);
    value_ok.assign(n, 0);
    unknown = 0;
    total.store(0);
  }
};

struct ControlOp {
  std::int64_t due{0};
  std::int64_t written{0};
  std::int64_t reply{0};
  std::int64_t attach_read[kSessions]{};
  int attaches{0};
  TaskId task{0};
  bool ok{false};
  std::uint64_t epoch{0};
  std::uint64_t attach_epoch{0};
};

/// Scripted poll values: the three per-session values of violation s are
/// multiples of 1/4, so their sum is exact in any order.
std::array<double, kSessions> session_values(double aggregate) {
  const double third = std::floor(aggregate / 3.0 * 4.0) / 4.0;
  return {third, third, aggregate - 2.0 * third};
}

// ---------------------------------------------------------------------------

struct Window {
  std::size_t first_violation{0};
  std::size_t violations{0};
  std::size_t first_control{0};
  std::size_t controls{0};
  std::int64_t process_cpu{0};
  std::int64_t bench_cpu{0};  // client thread plus the KeepAwake spinner
  std::int64_t wakeups{0};
  std::int64_t syscalls{0};
  std::int64_t frames_in{0};
  std::int64_t writev_calls{0};
  std::int64_t frames_written{0};
  std::int64_t journal_appends{0};
  std::int64_t uniform_skips{0};
  std::int64_t floor_clamps{0};
};

class WireBench {
 public:
  WireBench(const RunConfig& config, RunReport& report)
      : config_(config), report_(report),
        gen_state_(hash3(config.seed, 0x9e7, 0)) {
    const double total_s = config.seconds;
    const std::size_t cap =
        static_cast<std::size_t>(std::ceil(kViolationRate * total_s * 1.3)) + 4096;
    violations_.reserve(cap);
    controls_.reserve(static_cast<std::size_t>(kControlRate * total_s * 2) + 64);
    sink_.reset(cap);
    sink_.seed = config.seed;
    if (config.trace) poll_trace_.resize(cap);
    base_ = config.out_dir + "/wire_registry";
  }

  ~WireBench() { stop_node(); }

  void pin_threads() {
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.size() >= 2) {
      client_cpu_ = cpus[cpus.size() - 2];
      coord_cpu_ = cpus.back();
    }
    const bool pinned = client_cpu_ >= 0 && pin_this_thread(client_cpu_);
    report_.box["pinning"] =
        pinned ? "client thread on cpu " + std::to_string(client_cpu_) +
                     ", coordinator home loop and an idle-priority spinner on cpu " +
                     std::to_string(coord_cpu_)
               : "unpinned";
    if (!pinned) coord_cpu_ = -1;
    if (pinned) keep_awake_.start(coord_cpu_);
  }

  /// Brings the coordinator to serving state kSetupReps times; returns the
  /// median setup time and keeps the last instance serving.
  double setup() {
    std::vector<double> times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      stop_node();
      write_registry();
      times.push_back(start_node());
    }
    return median(times);
  }

  Window run_window(double seconds, bool tracing);
  void drain_alerts();
  void finish();
  void score(const Window& w, bool end_to_end);
  void report_layers(const Window& w, const Window& plain);
  double setup_s{0.0};

 private:
  void write_registry();
  double start_node();
  void stop_node();
  bool await_serving();
  void handle_session(std::size_t j, const net::Message& m, bool tracing);
  void handle_control(const net::Message& m);
  void send_violation(std::int64_t due, bool tracing);
  void send_stats_round();
  void start_control(std::int64_t due);
  std::int64_t next_exp_ns(double rate);
  void encode_queue(Conn& c, const net::Message& m, std::int64_t* written, bool tracing);
  Window counters_now();

  const RunConfig& config_;
  RunReport& report_;
  std::uint64_t gen_state_;
  std::string base_;
  int client_cpu_{-1};
  int coord_cpu_{-1};
  KeepAwake keep_awake_;

  std::unique_ptr<net::CoordinatorNode> node_;
  std::thread coord_thread_;
  volley::obs::MetricsRegistry coord_registry_;
  Conn sessions_[kSessions];
  Conn control_;
  std::size_t control_open_{0};  // index+1 of the outstanding control op
  std::int64_t attaches_[kSessions]{};
  std::int64_t allowances_[kSessions]{};
  std::uint64_t stats_round_{0};
  std::uint64_t heartbeat_seq_{0};

  std::vector<Violation> violations_;
  std::vector<PollTrace> poll_trace_;
  std::vector<ControlOp> controls_;
  AlertSink sink_;
  std::uint64_t last_epoch_{0};

  // Traced windows: the client's own codec and framing inputs.
  std::vector<net::Message> encoded_;
  std::vector<std::vector<std::byte>> decoded_;
  std::vector<std::vector<std::byte>> ingress_;
  SpanLog spans_;
};

void WireBench::write_registry() {
  for (const char* suffix : {".snapshot", ".journal", ".snapshot.tmp"}) {
    std::error_code ec;
    std::filesystem::remove(base_ + suffix, ec);
  }
  volley::control::TaskRegistry registry;
  volley::control::RegistryStore store(base_);
  const auto add = [&](TaskId id, double threshold) {
    volley::TaskSpec spec;
    spec.global_threshold = threshold;
    const auto result = registry.add(id, spec);
    if (!result.ok()) throw std::runtime_error("registry add failed: " + result.error);
    // What the daemon itself does on every mutation.
    store.append(*result.op);
    store.maybe_compact(registry);
  };
  for (int k = 0; k < kPollTasks; ++k)
    add(kFirstPollTask + k, task_threshold(kFirstPollTask + k));
  for (int k = 0; k < kChurnTasks; ++k) add(kFirstChurnTask + k, 500.0);
  for (int k = 0; k < kIdleTasks; ++k) add(kFirstIdleTask + k, 100.0);
}

double WireBench::start_node() {
  net::CoordinatorNodeOptions options;
  options.monitors = kSessions;
  options.registry_path = base_;
  AlertSink* sink = &sink_;
  options.on_alert = [sink](TaskId task, Tick tick, double value) {
    (void)task;
    const std::int64_t t = now_ns();
    const auto s = static_cast<std::size_t>(tick);
    if (tick >= 0 && s < sink->at.size()) {
      if (sink->count[s]++ == 0) {
        sink->at[s] = t;
        sink->value_ok[s] = value == script(sink->seed, s).aggregate ? 1 : 0;
      }
    } else {
      ++sink->unknown;
    }
    sink->total.fetch_add(1, std::memory_order_release);
  };

  const std::int64_t t0 = now_ns();
  node_ = std::make_unique<net::CoordinatorNode>(options);
  net::CoordinatorNode* node = node_.get();
  volley::obs::MetricsRegistry* registry = &coord_registry_;
  const int cpu = coord_cpu_;
  coord_thread_ = std::thread([node, registry, cpu] {
    if (cpu >= 0) pin_this_thread(cpu);
    volley::obs::ScopedMetricsRegistry scope(*registry);
    node->run();
  });
  for (std::size_t j = 0; j < kSessions; ++j) {
    attaches_[j] = 0;
    allowances_[j] = 0;
    if (!sessions_[j].connect_to(node_->port()))
      throw std::runtime_error("cannot connect session to the coordinator");
    // A monitor resuming against a restarted coordinator: the resync
    // handshake pushes TaskAttach and AllowanceUpdate for every task.
    const auto hello = net::encode(net::Hello{static_cast<volley::MonitorId>(j), true});
    sessions_[j].queue(hello);
    if (!sessions_[j].flush()) throw std::runtime_error("Hello write failed");
  }
  if (!await_serving()) throw std::runtime_error("coordinator never reached serving state");
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

bool WireBench::await_serving() {
  const std::int64_t deadline = now_ns() + 10'000 * kMs;
  for (;;) {
    bool ready = true;
    for (std::size_t j = 0; j < kSessions; ++j) {
      if (attaches_[j] < kTotalTasks || allowances_[j] < kTotalTasks) ready = false;
    }
    if (ready) return true;
    if (now_ns() > deadline) return false;
    pollfd fds[kSessions];
    for (std::size_t j = 0; j < kSessions; ++j) fds[j] = {sessions_[j].fd(), POLLIN, 0};
    ::poll(fds, kSessions, 0);  // spin, like the timed windows
    for (std::size_t j = 0; j < kSessions; ++j) {
      if (!(fds[j].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!sessions_[j].read_some(nullptr)) return false;
      while (auto payload = sessions_[j].reader().next()) {
        const auto m = net::decode(*payload);
        if (!m) return false;
        if (std::get_if<net::TaskAttach>(&*m)) ++attaches_[j];
        if (std::get_if<net::AllowanceUpdate>(&*m)) ++allowances_[j];
      }
    }
  }
}

void WireBench::stop_node() {
  if (!node_) return;
  node_->request_stop();
  if (coord_thread_.joinable()) coord_thread_.join();
  for (auto& s : sessions_) s.close();
  control_.close();
  node_.reset();
}

std::int64_t WireBench::next_exp_ns(double rate) {
  gen_state_ = mix64(gen_state_);
  const double u = unit(gen_state_);
  return static_cast<std::int64_t>(-std::log1p(-u) / rate * 1e9);
}

void WireBench::encode_queue(Conn& c, const net::Message& m, std::int64_t* written,
                             bool tracing) {
  if (tracing && encoded_.size() < 50000) encoded_.push_back(m);
  const auto payload = net::encode(m);
  c.queue(payload, written);
}

void WireBench::send_violation(std::int64_t due, bool tracing) {
  const std::size_t s = violations_.size();
  if (s >= sink_.at.size()) throw std::runtime_error("violation record capacity exceeded");
  Violation& v = violations_.emplace_back();
  v.due = due;
  const Script sc = script(config_.seed, s);
  Conn& c = sessions_[s % kSessions];
  encode_queue(c,
               net::LocalViolation{static_cast<volley::MonitorId>(s % kSessions),
                                   static_cast<Tick>(s), sc.aggregate, sc.task},
               &v.sent, tracing);
  if (!c.flush()) report_.fail("session write failed");
}

void WireBench::send_stats_round() {
  const TaskId task = kFirstPollTask + static_cast<TaskId>(stats_round_ % kPollTasks);
  for (std::size_t j = 0; j < kSessions; ++j) {
    const std::uint64_t h = hash3(config_.seed, stats_round_, j);
    net::StatsReport r;
    r.monitor = static_cast<volley::MonitorId>(j);
    r.avg_gain = 0.001 + 0.01 * unit(h);
    r.avg_allowance = 1e-4 * (1.0 + unit(mix64(h)));
    r.observations = 100;
    r.task = task;
    sessions_[j].queue(net::encode(r));
  }
  ++stats_round_;
}

void WireBench::start_control(std::int64_t due) {
  ControlOp& op = controls_.emplace_back();
  op.due = due;
  op.task = kFirstChurnTask + static_cast<TaskId>((controls_.size() - 1) % kChurnTasks);
  control_open_ = controls_.size();
  if (!control_.connect_to(node_->port())) {
    report_.fail("control connect failed");
    control_open_ = 0;
    return;
  }
  volley::TaskSpec spec;
  spec.global_threshold = 500.0 + static_cast<double>(controls_.size() % 100);
  control_.queue(net::encode(net::UpdateTask{op.task, spec}), &op.written);
  if (!control_.flush()) report_.fail("control write failed");
}

void WireBench::handle_session(std::size_t j, const net::Message& m, bool tracing) {
  const std::int64_t t = now_ns();
  if (const auto* req = std::get_if<net::PollRequest>(&m)) {
    const auto s = static_cast<std::size_t>(req->tick);
    if (req->tick < 0 || s >= violations_.size() ||
        script(config_.seed, s).task != req->task) {
      report_.fail("PollRequest for an unknown violation");
      return;
    }
    Violation& v = violations_[s];
    ++v.reqs;
    ++v.resps;
    PollTrace* trace = tracing ? &poll_trace_[s] : nullptr;
    if (trace != nullptr) trace->req_read[j] = t;
    const auto values = session_values(script(config_.seed, s).aggregate);
    encode_queue(sessions_[j],
                 net::PollResponse{static_cast<volley::MonitorId>(j), req->poll_id,
                                   req->tick, values[j], req->task},
                 trace != nullptr ? &trace->resp_written[j] : nullptr, tracing);
    if (!sessions_[j].flush()) report_.fail("session write failed");
    return;
  }
  if (const auto* attach = std::get_if<net::TaskAttach>(&m)) {
    ++attaches_[j];
    // The reply may overtake the fan-out, so an attach can belong to any
    // recent op; the churn tasks rotate, so the task id names it.
    for (std::size_t i = controls_.size(); i > 0 && i + kChurnTasks > controls_.size(); --i) {
      ControlOp& op = controls_[i - 1];
      if (op.task == attach->task && op.attach_read[j] == 0) {
        op.attach_read[j] = t;
        ++op.attaches;
        op.attach_epoch = attach->epoch;
        return;
      }
    }
    report_.fail("TaskAttach nobody asked for");
    return;
  }
  if (std::get_if<net::AllowanceUpdate>(&m)) {
    ++allowances_[j];
    return;
  }
  if (std::get_if<net::HeartbeatAck>(&m)) return;
  report_.fail("unexpected frame on a monitor session");
}

void WireBench::handle_control(const net::Message& m) {
  const auto* reply = std::get_if<net::ControlReply>(&m);
  if (reply == nullptr || control_open_ == 0) {
    report_.fail("unexpected frame on the control connection");
    return;
  }
  ControlOp& op = controls_[control_open_ - 1];
  op.reply = now_ns();
  op.ok = reply->status == volley::control::ControlStatus::kOk;
  op.epoch = reply->epoch;
  control_open_ = 0;
  control_.close();
}

Window WireBench::counters_now() {
  Window w;
  w.process_cpu = process_cpu_ns();
  w.bench_cpu = thread_cpu_ns() + keep_awake_.cpu_ns();
  w.wakeups = node_->loop_wakeups();
  w.frames_in = node_->messages_received();
  w.syscalls = net::io_syscalls_estimate();
  volley::obs::MetricsRegistry& r = coord_registry_;
  w.writev_calls = r.counter("volley_net_writev_calls_total").value();
  w.frames_written = r.counter("volley_net_frames_written_total").value();
  w.journal_appends = r.counter("volley_control_journal_appends_total").value();
  w.uniform_skips = r.counter("volley_allocation_uniform_skips_total").value();
  w.floor_clamps = r.counter("volley_allocation_floor_clamps_total").value();
  return w;
}

Window WireBench::run_window(double seconds, bool tracing) {
  const Window before = counters_now();
  Window w;
  w.first_violation = violations_.size();
  w.first_control = controls_.size();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_deadline = end + 3000 * kMs;
  std::int64_t next_violation = start + next_exp_ns(kViolationRate);
  std::int64_t next_control = start + next_exp_ns(kControlRate);
  std::int64_t next_stats = start + kStatsRoundNs / 2;
  std::int64_t next_heartbeat = start;
  std::size_t done_upto = w.first_violation;  // violations fully answered below this

  for (;;) {
    std::int64_t now = now_ns();
    while (next_violation <= now && next_violation < end) {
      send_violation(next_violation, tracing);
      next_violation += next_exp_ns(kViolationRate);
    }
    if (next_heartbeat <= now) {
      for (std::size_t j = 0; j < kSessions; ++j) {
        sessions_[j].queue(net::encode(net::Heartbeat{static_cast<volley::MonitorId>(j),
                                                      ++heartbeat_seq_}));
      }
      next_heartbeat += kHeartbeatNs;
    }
    if (next_stats <= now && next_stats < end) {
      send_stats_round();
      next_stats += kStatsRoundNs;
    }
    if (next_control <= now && next_control < end && control_open_ == 0) {
      start_control(next_control);
      next_control += next_exp_ns(kControlRate);
    }
    for (auto& s : sessions_) {
      if (s.pending() && !s.flush()) report_.fail("session write failed");
    }
    if (control_.open() && control_.pending() && !control_.flush())
      report_.fail("control write failed");

    while (done_upto < violations_.size() && violations_[done_upto].reqs == kSessions)
      ++done_upto;
    const bool control_busy =
        control_open_ != 0 ||
        (!controls_.empty() && controls_.back().attaches < static_cast<int>(kSessions));
    bool output_pending = control_.open() && control_.pending();
    for (const auto& sess : sessions_) output_pending = output_pending || sess.pending();
    now = now_ns();
    if (now >= end && done_upto == violations_.size() && !control_busy && !output_pending)
      break;
    if (now >= drain_deadline) break;

    pollfd fds[kSessions + 1];
    nfds_t nfds = 0;
    for (auto& s : sessions_) {
      fds[nfds++] = {s.fd(), static_cast<short>(POLLIN | (s.pending() ? POLLOUT : 0)), 0};
    }
    if (control_.open()) {
      fds[nfds++] = {control_.fd(),
                     static_cast<short>(POLLIN | (control_.pending() ? POLLOUT : 0)), 0};
    }
    // The client spins on a zero-timeout poll: sends leave on time, and
    // its vCPU never halts (see KeepAwake).
    const int ready = ::poll(fds, nfds, 0);
    if (ready <= 0) continue;
    for (std::size_t j = 0; j < kSessions; ++j) {
      if (!(fds[j].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!sessions_[j].read_some(tracing && ingress_.size() < 20000 ? &ingress_ : nullptr)) {
        report_.fail("coordinator closed a monitor session");
        return w;
      }
      while (auto payload = sessions_[j].reader().next()) {
        if (tracing && decoded_.size() < 50000) decoded_.push_back(*payload);
        const auto m = net::decode(*payload);
        if (!m) {
          report_.fail("undecodable frame from the coordinator");
          continue;
        }
        handle_session(j, *m, tracing);
      }
    }
    if (control_.open() && nfds == kSessions + 1 &&
        (fds[kSessions].revents & (POLLIN | POLLHUP | POLLERR))) {
      const bool alive = control_.read_some(nullptr);
      while (control_.open()) {
        auto payload = control_.reader().next();
        if (!payload) break;
        const auto m = net::decode(*payload);
        if (m) handle_control(*m);
      }
      if (!alive && control_open_ != 0) {
        report_.fail("control connection closed without a reply");
        control_open_ = 0;
        control_.close();
      }
    }
  }
  const Window after = counters_now();
  w.violations = violations_.size() - w.first_violation;
  w.controls = controls_.size() - w.first_control;
  w.process_cpu = after.process_cpu - before.process_cpu;
  w.bench_cpu = after.bench_cpu - before.bench_cpu;
  w.wakeups = after.wakeups - before.wakeups;
  w.frames_in = after.frames_in - before.frames_in;
  w.syscalls = after.syscalls - before.syscalls;
  w.writev_calls = after.writev_calls - before.writev_calls;
  w.frames_written = after.frames_written - before.frames_written;
  w.journal_appends = after.journal_appends - before.journal_appends;
  w.uniform_skips = after.uniform_skips - before.uniform_skips;
  w.floor_clamps = after.floor_clamps - before.floor_clamps;
  return w;
}

/// Waits (outside every timed window) until the coordinator has raised
/// every alert the scripted polls call for, or a poll timeout has passed.
void WireBench::drain_alerts() {
  std::int64_t expected = 0;
  for (std::size_t s = 0; s < violations_.size(); ++s)
    expected += script(config_.seed, s).above ? 1 : 0;
  const std::int64_t deadline = now_ns() + 1500 * kMs;
  while (sink_.total.load(std::memory_order_acquire) < expected && now_ns() < deadline)
    std::this_thread::yield();
}

void WireBench::finish() {
  const std::size_t offered = violations_.size();
  node_->request_stop();
  coord_thread_.join();
  if (node_->global_polls() != static_cast<std::int64_t>(offered))
    report_.fail("coordinator ran " + std::to_string(node_->global_polls()) +
                 " polls for " + std::to_string(offered) + " violations");
  if (node_->fault_stats().suspected != 0) report_.fail("a session went suspect");
  if (sink_.unknown != 0) report_.fail("alert for a tick nobody violated");
}

void WireBench::score(const Window& w, bool end_to_end) {
  const int timeout_ms = net::CoordinatorNodeOptions{}.poll_timeout_ms;
  std::vector<double> alert_us;
  std::vector<double> lag_us;
  std::int64_t failed = 0;
  std::int64_t above = 0;
  std::int64_t detected = 0;
  std::int64_t responses = 0;
  std::int64_t duplicate = 0;
  std::int64_t wrong_value = 0;
  std::int64_t below_alerted = 0;
  for (std::size_t s = w.first_violation; s < w.first_violation + w.violations; ++s) {
    const Violation& v = violations_[s];
    lag_us.push_back(static_cast<double>(v.sent - v.due) * 1e-3);
    // A missing, late or absorbed alert is a failed operation; a wrong,
    // duplicate or unwarranted one is a wrong output and fails the run.
    bool ok = v.reqs == kSessions;
    responses += v.resps;
    duplicate += sink_.count[s] > 1 ? 1 : 0;
    if (script(config_.seed, s).above) {
      ++above;
      wrong_value += sink_.count[s] != 0 && sink_.value_ok[s] == 0 ? 1 : 0;
      const bool alerted = sink_.count[s] == 1 && sink_.value_ok[s] == 1;
      const double latency_us = static_cast<double>(sink_.at[s] - v.due) * 1e-3;
      if (!alerted || latency_us > timeout_ms * 1e3) {
        ok = false;
      } else {
        ++detected;
        alert_us.push_back(latency_us);
      }
    } else if (sink_.count[s] != 0) {
      ++below_alerted;
      ok = false;
    }
    failed += ok ? 0 : 1;
  }
  const auto gate = [&](std::int64_t n, const char* what) {
    if (n != 0) report_.fail(std::to_string(n) + " " + what);
  };
  gate(duplicate, "violations raised more than one alert");
  gate(wrong_value, "alerts carried the wrong aggregate");
  gate(below_alerted, "polls scripted below T raised an alert");
  std::vector<double> control_us;
  for (std::size_t i = w.first_control; i < w.first_control + w.controls; ++i) {
    const ControlOp& op = controls_[i];
    const bool ok = op.ok && op.epoch > last_epoch_ && op.reply != 0;
    if (op.reply != 0 && !op.ok)
      report_.fail("UpdateTask on task " + std::to_string(op.task) + " not OK");
    if (op.ok && op.epoch <= last_epoch_) report_.fail("control epochs not strictly increasing");
    if (op.attaches != static_cast<int>(kSessions) || op.attach_epoch != op.epoch)
      report_.fail("control op's TaskAttach fan-out incomplete or at the wrong epoch");
    last_epoch_ = std::max(last_epoch_, op.epoch);
    failed += ok ? 0 : 1;
    if (ok) control_us.push_back(static_cast<double>(op.reply - op.due) * 1e-3);
  }
  const double lag_p99 = percentile(lag_us, 0.99);
  if (lag_p99 > kGeneratorLagBoundUs)
    report_.fail("generator lag p99 " + std::to_string(lag_p99) + " us exceeds its bound");
  if (w.violations == 0 || w.controls == 0) report_.fail("window offered no load");
  report_.attempted += static_cast<std::int64_t>(w.violations + w.controls);
  report_.failed += failed;
  if (!end_to_end) return;

  const double coord_cpu_ns = static_cast<double>(w.process_cpu - w.bench_cpu);
  const double polls = static_cast<double>(w.violations);
  report_.set("setup_s", setup_s, "s");
  report_.set("peak_rss_mb", peak_rss_mb(), "MB");
  report_.set("cpu_ns_per_monitor_tick", coord_cpu_ns / (polls * kSessions), "ns");
  report_.set("sampling_ratio", static_cast<double>(responses) / (polls * kSessions), "ratio");
  report_.set("episode_detect_rate", ratio(static_cast<double>(detected), static_cast<double>(above)),
              "ratio");
  report_.set("alert_us", percentile(alert_us, 0.90), "us");
  report_.set("control_us", percentile(control_us, 0.90), "us");
  report_.set("cpu_us_per_poll", coord_cpu_ns * 1e-3 / polls, "us");
  report_.box["alerts_scored"] = std::to_string(alert_us.size());
  report_.box["control_ops"] = std::to_string(w.controls);
  report_.box["generator_lag_p99_us"] = std::to_string(lag_p99);
}

/// Times `op` over the captured inputs until at least 20 ms have passed;
/// returns ns per call.
template <typename Op>
double time_per_call(std::size_t n, Op&& op) {
  if (n == 0) return 0.0;
  std::int64_t calls = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  do {
    for (std::size_t i = 0; i < n; ++i) op(i);
    calls += static_cast<std::int64_t>(n);
    t1 = now_ns();
  } while (t1 - t0 < 20 * kMs);
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

void WireBench::report_layers(const Window& w, const Window& plain) {
  std::vector<double> to_pollreq, to_alert, turnaround, fanout, alert_traced, alert_plain;
  const auto last = [](const std::int64_t* a) {
    std::int64_t m = 0;
    for (std::size_t j = 0; j < kSessions; ++j) m = std::max(m, a[j]);
    return m;
  };
  for (std::size_t s = plain.first_violation; s < plain.first_violation + plain.violations; ++s) {
    if (script(config_.seed, s).above && sink_.count[s] == 1)
      alert_plain.push_back(static_cast<double>(sink_.at[s] - violations_[s].due) * 1e-3);
  }
  for (std::size_t s = w.first_violation; s < w.first_violation + w.violations; ++s) {
    const Violation& v = violations_[s];
    const PollTrace& pt = poll_trace_[s];
    const std::uint64_t id = s + 1;
    const std::int64_t req_last = last(pt.req_read);
    const std::int64_t resp_last = last(pt.resp_written);
    spans_.add("violation.send", v.due, v.sent, id);
    for (std::size_t j = 0; j < kSessions; ++j) {
      spans_.add("pollrequest.read", v.sent, pt.req_read[j], id, id);
      spans_.add("pollresponse.write", pt.req_read[j], pt.resp_written[j], id, id);
    }
    to_pollreq.push_back(static_cast<double>(req_last - v.sent) * 1e-3);
    turnaround.push_back(static_cast<double>(resp_last - req_last) * 1e-3);
    if (script(config_.seed, s).above && sink_.count[s] == 1) {
      spans_.add("on_alert", resp_last, sink_.at[s], id, id);
      to_alert.push_back(static_cast<double>(sink_.at[s] - resp_last) * 1e-3);
      alert_traced.push_back(static_cast<double>(sink_.at[s] - v.due) * 1e-3);
    }
  }
  for (std::size_t i = w.first_control; i < w.first_control + w.controls; ++i) {
    const ControlOp& op = controls_[i];
    const std::uint64_t id = (1ULL << 40) + i;
    spans_.add("control.request", op.due, op.written, id);
    spans_.add("control.reply", op.written, op.reply, id, id);
    for (std::size_t j = 0; j < kSessions; ++j)
      spans_.add("control.attach.read", op.written, op.attach_read[j], id, id);
    fanout.push_back(static_cast<double>(last(op.attach_read) - op.written) * 1e-3);
  }
  const std::string path = config_.out_dir + "/wire_fleet.spans.jsonl";
  if (!spans_.write(path)) report_.fail("cannot write " + path);

  const double polls = static_cast<double>(w.violations);
  std::vector<double> lag;
  for (std::size_t s = w.first_violation; s < w.first_violation + w.violations; ++s)
    lag.push_back(static_cast<double>(violations_[s].sent - violations_[s].due) * 1e-3);

  report_.set("net.codec.encode_ns",
              time_per_call(encoded_.size(), [&](std::size_t i) {
                auto bytes = net::encode(encoded_[i]);
                asm volatile("" : : "r"(bytes.data()) : "memory");
              }),
              "ns");
  report_.set("net.codec.decode_ns",
              time_per_call(decoded_.size(), [&](std::size_t i) {
                auto m = net::decode(decoded_[i]);
                asm volatile("" : : "r"(&m) : "memory");
              }),
              "ns");
  {
    // FrameReader::next over the captured ingress, chunk by chunk as recv
    // returned it.
    std::int64_t frames = 0;
    std::int64_t next_ns = 0;
    const std::int64_t t0 = now_ns();
    do {
      volley::FrameReader reader;
      for (const auto& chunk : ingress_) {
        reader.feed(chunk);
        const std::int64_t a = now_ns();
        while (auto payload = reader.next()) {
          ++frames;
          asm volatile("" : : "r"(payload->data()) : "memory");
        }
        next_ns += now_ns() - a;
      }
    } while (!ingress_.empty() && now_ns() - t0 < 20 * kMs);
    report_.set("net.framing.next_ns", ratio(static_cast<double>(next_ns), static_cast<double>(frames)),
                "ns");
  }
  report_.set("net.coord.violation_to_pollreq_p50_us", percentile(to_pollreq, 0.50), "us");
  report_.set("net.coord.violation_to_pollreq_p99_us", percentile(to_pollreq, 0.99), "us");
  report_.set("net.coord.response_to_alert_p50_us", percentile(to_alert, 0.50), "us");
  report_.set("net.coord.response_to_alert_p99_us", percentile(to_alert, 0.99), "us");
  report_.set("bench.client_turnaround_p50_us", percentile(turnaround, 0.50), "us");
  report_.set("net.reactor.wakeups_per_poll", static_cast<double>(w.wakeups) / polls, "1/poll");
  report_.set("net.reactor.syscalls_per_poll", static_cast<double>(w.syscalls) / polls, "1/poll");
  report_.set("net.reactor.frames_per_writev",
              ratio(static_cast<double>(w.frames_written), static_cast<double>(w.writev_calls)),
              "1/writev");
  report_.set("net.coord.frames_in_per_poll", static_cast<double>(w.frames_in) / polls, "1/poll");
  report_.set("control.attach_fanout_p50_us", percentile(fanout, 0.50), "us");
  report_.set("control.journal_appends_per_op",
              ratio(static_cast<double>(w.journal_appends), static_cast<double>(w.controls)), "1/op");
  report_.set("core.alloc_uniform_skips", static_cast<double>(w.uniform_skips), "count");
  report_.set("core.alloc_floor_clamps", static_cast<double>(w.floor_clamps), "count");
  report_.set("bench.generator_lag_p99_us", percentile(lag, 0.99), "us");
  const double p50_plain = percentile(alert_plain, 0.50);
  report_.set("bench.trace_overhead_pct",
              p50_plain == 0.0 ? 0.0 : 100.0 * (percentile(alert_traced, 0.50) / p50_plain - 1.0),
              "%");
}

}  // namespace

RunReport run_wire_fleet(const RunConfig& config) {
  RunReport report;
  WireBench bench(config, report);
  bench.pin_threads();
  report.box["offered"] = std::to_string(kViolationRate) + " LocalViolation/s Poisson over " +
                          std::to_string(kPollTasks) + " tasks, " +
                          std::to_string(kControlRate) + " UpdateTask/s Poisson over " +
                          std::to_string(kChurnTasks) + " tasks";
  report.box["registry_tasks"] = std::to_string(kTotalTasks);
  bench.setup_s = bench.setup();
  if (!config.trace) {
    const Window w = bench.run_window(config.seconds, false);
    bench.drain_alerts();
    bench.finish();
    bench.score(w, true);
    return report;
  }
  // Traced run: an untraced half, then a traced half on the same node.
  const Window plain = bench.run_window(config.seconds / 2.0, false);
  const Window traced = bench.run_window(config.seconds / 2.0, true);
  bench.drain_alerts();
  bench.finish();
  bench.score(plain, false);
  bench.score(traced, false);
  bench.report_layers(traced, plain);
  return report;
}

}  // namespace perfbench
