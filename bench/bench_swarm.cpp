// E14 — Swarm scale (table).
//
// What the paper's vision demands but its evaluation never measured: one
// broker process mediating a *swarm* of providers — thousands of phones,
// SBCs and desktops — at wire level. This harness drives the real loopback
// TCP transport (net/tcp.hpp) with up to 10k simulated providers living
// behind ONE listener socket: the broker pools one outbound connection per
// provider id, so the broker process genuinely holds N send channels and the
// event loop's whole reason to exist (readiness multiplexing, writev
// coalescing, pooled frame buffers, batched broker ticks) is on the hook.
//
// The row to reproduce: submits/sec through one broker, p50/p99 end-to-end
// latency, the amortized dispatch floor (wall / completed), frames per
// writev and consumer resubmits. The floor is read against E1's serial
// dispatch floor: with the submission window keeping the pipeline full,
// batching must push the amortized floor below the serial one. The swarm
// must complete every tasklet without a resubmit; the bench exits non-zero
// when one is resubmitted or the run fails.
//
// Providers are simulated by a SwarmHarness: an event loop + frame parser
// accepting the broker's connections, a timer wheel delaying each
// AttemptResult by a per-provider service latency (heterogeneous classes
// with a straggler tail), and one shared reply connection back to the
// broker — identity travels in the envelope, not the socket.
//
// CLI (defaults reproduce the full experiment; CI runs a small smoke):
//   bench_swarm [--providers N] [--tasklets N] [--window N] [--slots N]
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "broker/broker.hpp"
#include "broker/scheduling.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "consumer/consumer.hpp"
#include "net/event_loop.hpp"
#include "net/tcp.hpp"
#include "proto/messages.hpp"

namespace {

using namespace tasklets;
using Clock = std::chrono::steady_clock;

constexpr NodeId kBroker{1};
constexpr NodeId kConsumer{2};
constexpr std::uint64_t kFirstProvider = 1000;
constexpr std::uint64_t kTaskletFuel = 1'000'000;

// Raise the fd ceiling to the hard limit: 10k providers means >20k sockets
// in this process (N broker channels + N harness inbound ends).
std::size_t raise_nofile_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  lim.rlim_cur = lim.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &lim);
  ::getrlimit(RLIMIT_NOFILE, &lim);
  return static_cast<std::size_t>(lim.rlim_cur);
}

bool write_all(int fd, const std::byte* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Per-provider service latency: a heterogeneous mix (fast majority, slower
// classes, a 1% straggler tail) plus deterministic per-provider jitter, so
// the swarm looks like the paper's device zoo rather than N clones.
std::chrono::microseconds service_latency(std::size_t provider_index) {
  const std::uint64_t h = provider_index * 2654435761u;
  std::uint64_t base_us;
  const std::uint64_t cls = h % 100;
  if (cls < 70) {
    base_us = 1'000;  // desktop-class
  } else if (cls < 90) {
    base_us = 3'000;  // laptop / SBC
  } else if (cls < 99) {
    base_us = 8'000;  // mobile
  } else {
    base_us = 25'000;  // straggler tail
  }
  return std::chrono::microseconds(base_us + (h >> 8) % 1'000);
}

double advertised_speed(std::size_t provider_index) {
  const std::uint64_t cls = (provider_index * 2654435761u) % 100;
  if (cls < 70) return 1e9;
  if (cls < 90) return 3e8;
  if (cls < 99) return 1e8;
  return 4e7;
}

// Simulates `providers` tasklet providers behind one listener: accepts the
// broker's per-provider connections, answers AssignTasklet with an
// AttemptResult after the provider's service latency, and registers the
// whole swarm through one shared reply connection.
class SwarmHarness {
 public:
  SwarmHarness(std::size_t providers, std::uint32_t slots)
      : providers_(providers), slots_(slots) {
    listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 4096) != 0) {
      std::perror("swarm listener");
      std::exit(1);
    }
    socklen_t addr_len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    port_ = ntohs(addr.sin_port);

    loop_.add(listen_fd_, net::kEventRead, [this](std::uint32_t) { accept_all(); });
    io_thread_ = std::thread([this] { loop_.run(); });
    reply_thread_ = std::thread([this] { reply_loop(); });
    ::pthread_setname_np(io_thread_.native_handle(), "swarm-io");
    ::pthread_setname_np(reply_thread_.native_handle(), "swarm-reply");
  }

  ~SwarmHarness() { stop(); }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint64_t assigned() const noexcept { return assigned_.load(); }

  // Registers all provider identities with the broker, in chunks so the
  // broker's burst of per-provider RegisterAck connections never overruns
  // the listen backlog. Returns false on timeout.
  bool register_swarm(std::uint16_t broker_port) {
    reply_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(broker_port);
    if (::connect(reply_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      std::perror("swarm reply connect");
      return false;
    }
    const int one = 1;
    ::setsockopt(reply_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    Bytes buf;
    constexpr std::size_t kChunk = 512;
    std::size_t sent = 0;
    while (sent < providers_) {
      const std::size_t upto = std::min(providers_, sent + kChunk);
      buf.clear();
      for (std::size_t i = sent; i < upto; ++i) {
        proto::Capability cap;
        cap.device_class = proto::DeviceClass::kDesktop;
        cap.speed_fuel_per_sec = advertised_speed(i);
        cap.slots = slots_;
        proto::Envelope env{NodeId{kFirstProvider + i}, kBroker,
                            proto::RegisterProvider{std::move(cap), 1}};
        append_frame(env, buf);
      }
      {
        const std::scoped_lock lock(send_mutex_);
        if (!write_all(reply_fd_, buf.data(), buf.size())) return false;
      }
      sent = upto;
      const auto deadline = Clock::now() + std::chrono::seconds(30);
      while (acks_.load(std::memory_order_relaxed) < sent) {
        if (Clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  }

  void stop() {
    if (stopped_.exchange(true)) return;
    loop_.stop();
    if (io_thread_.joinable()) io_thread_.join();
    {
      const std::scoped_lock lock(reply_mutex_);
      reply_stop_ = true;
    }
    reply_cv_.notify_all();
    if (reply_thread_.joinable()) reply_thread_.join();
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (reply_fd_ >= 0) ::close(reply_fd_);
    listen_fd_ = reply_fd_ = -1;
  }

 private:
  struct Conn {
    int fd = -1;
    net::FrameParser parser{64u << 20};
  };

  struct PendingReply {
    Clock::time_point due;
    proto::Envelope envelope;
    bool operator>(const PendingReply& other) const { return due > other.due; }
  };

  void accept_all() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conns_.emplace(fd, conn);
      loop_.add(fd, net::kEventRead, [this, conn](std::uint32_t) { read_conn(conn); });
    }
  }

  void read_conn(const std::shared_ptr<Conn>& conn) {
    for (;;) {
      const ssize_t n = ::recv(conn->fd, read_buf_.data(), read_buf_.size(), 0);
      if (n > 0) {
        conn->parser.feed(read_buf_.data(), static_cast<std::size_t>(n));
        for (;;) {
          const auto frame = conn->parser.next();
          if (frame.empty()) break;
          auto decoded = proto::decode(frame);
          if (decoded.is_ok()) handle(std::move(decoded).value());
        }
        if (conn->parser.bad_frame()) break;
        if (static_cast<std::size_t>(n) < read_buf_.size()) {
          flush_new_replies();
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        flush_new_replies();
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF or hard error
    }
    flush_new_replies();
    loop_.remove(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
  }

  void handle(proto::Envelope envelope) {
    if (std::holds_alternative<proto::RegisterAck>(envelope.payload)) {
      acks_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto* assign = std::get_if<proto::AssignTasklet>(&envelope.payload);
    if (assign == nullptr) return;  // heartbeat acks etc.: not simulated
    assigned_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t index =
        static_cast<std::size_t>(envelope.to.value() - kFirstProvider);
    proto::AttemptOutcome outcome;
    outcome.status = proto::AttemptStatus::kOk;
    std::uint64_t fuel = kTaskletFuel;
    if (const auto* body = std::get_if<proto::SyntheticBody>(&assign->body)) {
      outcome.result = body->result;
      fuel = body->fuel;
    }
    outcome.fuel_used = fuel;
    outcome.instructions = fuel;
    // Staged locally; flush_new_replies() hands the whole recv drain's worth
    // to the reply thread under one lock acquisition + one notify.
    new_replies_.push_back(
        PendingReply{Clock::now() + service_latency(index),
                     proto::Envelope{envelope.to, envelope.from,
                                     proto::AttemptResult{assign->attempt,
                                                          assign->tasklet,
                                                          std::move(outcome)}}});
  }

  void flush_new_replies() {
    if (new_replies_.empty()) return;
    {
      const std::scoped_lock lock(reply_mutex_);
      for (auto& reply : new_replies_) replies_.push(std::move(reply));
    }
    new_replies_.clear();
    reply_cv_.notify_one();
  }

  // Drains due replies; all frames share one connection back to the broker.
  // Every reply that is due by the time the loop wakes is encoded into one
  // buffer and pushed with a single send — under swarm load dozens of
  // results come due per wakeup, so this collapses dozens of syscalls (and
  // lock round-trips) into one.
  void reply_loop() {
    Bytes buf;
    std::vector<proto::Envelope> due;
    std::unique_lock lock(reply_mutex_);
    while (!reply_stop_) {
      if (replies_.empty()) {
        reply_cv_.wait(lock, [this] { return reply_stop_ || !replies_.empty(); });
        continue;
      }
      const auto now = Clock::now();
      // A copy: the wait unlocks, and a push may reallocate the heap.
      const Clock::time_point next_due = replies_.top().due;
      if (next_due > now) {
        reply_cv_.wait_until(lock, next_due);
        continue;
      }
      due.clear();
      while (!replies_.empty() && replies_.top().due <= now) {
        // priority_queue::top() is const; moving out right before pop() is
        // safe — the element is destroyed by the pop.
        due.push_back(
            std::move(const_cast<PendingReply&>(replies_.top()).envelope));
        replies_.pop();
      }
      lock.unlock();
      buf.clear();
      for (const auto& envelope : due) append_frame(envelope, buf);
      {
        const std::scoped_lock send_lock(send_mutex_);
        write_all(reply_fd_, buf.data(), buf.size());
      }
      lock.lock();
    }
  }

  // Appends one [u32-le length][payload] frame for `envelope` to `buf`.
  static void append_frame(const proto::Envelope& envelope, Bytes& buf) {
    const std::size_t start = buf.size();
    buf.resize(start + 4);
    proto::encode_into(envelope, buf);
    const std::uint32_t len = static_cast<std::uint32_t>(buf.size() - start - 4);
    std::memcpy(buf.data() + start, &len, sizeof len);
  }

  std::size_t providers_;
  std::uint32_t slots_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int reply_fd_ = -1;
  net::EventLoop loop_;
  std::thread io_thread_;
  std::thread reply_thread_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> acks_{0};
  std::atomic<std::uint64_t> assigned_{0};
  // Loop-thread-only.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::array<std::byte, 256 * 1024> read_buf_{};
  std::vector<PendingReply> new_replies_;
  // Reply machinery.
  std::mutex reply_mutex_;
  std::condition_variable reply_cv_;
  std::priority_queue<PendingReply, std::vector<PendingReply>,
                      std::greater<PendingReply>>
      replies_;
  bool reply_stop_ = false;
  std::mutex send_mutex_;
};

struct CellResult {
  bool ok = false;
  double elapsed_s = 0.0;
  double submits_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double dispatch_us = 0.0;  // amortized: wall / completed
  std::uint64_t completed = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t frames_out = 0;
  double frames_per_writev = 0.0;  // frames_out / writev_calls
  std::uint64_t resubmits = 0;
  std::size_t batches = 0;     // broker mailbox bursts observed
  double batch_p50 = 0.0;      // messages per burst
  double batch_p95 = 0.0;
};

// Runs the experiment: a broker + consumer on real TCP runtimes against a
// simulated swarm, pushing `tasklets` submissions through a fixed-size
// in-flight window.
CellResult run_cell(std::size_t providers, std::size_t tasklets,
                    std::size_t window, std::uint32_t slots) {
  CellResult cell;
  net::TcpRuntime broker_rt;
  net::TcpRuntime consumer_rt;

  broker::BrokerConfig broker_config;
  // The harness never heartbeats: park the liveness machinery out of the way.
  broker_config.heartbeat_interval = 3600 * kSecond;
  broker_config.scan_interval = 10 * kSecond;
  broker_config.terminal_retention = 8192;
  broker_rt.add(std::make_unique<broker::Broker>(kBroker, broker::make_least_loaded(),
                                                 broker_config));
  auto* consumer =
      new consumer::ConsumerAgent(kConsumer, kBroker, /*locality=*/"");
  auto& consumer_host = consumer_rt.add(std::unique_ptr<proto::Actor>(consumer));

  consumer_rt.add_remote(kBroker, broker_rt.port_of(kBroker));
  broker_rt.add_remote(kConsumer, consumer_rt.port_of(kConsumer));

  SwarmHarness harness(providers, slots);
  for (std::size_t i = 0; i < providers; ++i) {
    broker_rt.add_remote(NodeId{kFirstProvider + i}, harness.port());
  }
  if (!harness.register_swarm(broker_rt.port_of(kBroker))) {
    bench::line("  !! swarm registration timed out (%zu providers)", providers);
    consumer_rt.stop_all();
    broker_rt.stop_all();
    return cell;
  }

  // Isolate this cell's transport/broker metrics from previous cells and
  // from registration traffic.
  auto& registry = metrics::MetricsRegistry::instance();
  registry.reset();

  // Shared submission state. Handlers run on the consumer actor thread only,
  // so everything except the completion promise is unsynchronized.
  struct RunState {
    std::size_t tasklets = 0;
    std::uint64_t next_id = 1;
    std::uint64_t completed = 0;
    std::size_t due_submits = 0;  // window slots freed since the last refill
    bool refill_pending = false;  // a refill closure is already queued
    std::vector<Clock::time_point> submit_at;
    Sampler latencies_ms;
    std::promise<void> done;
  };
  auto state = std::make_shared<RunState>();
  state->tasklets = tasklets;
  state->submit_at.resize(tasklets + 1);

  // Refills the in-flight window. Report handlers fire without an outbox, so
  // completions chain new submissions by posting this closure through the
  // consumer host — but coalesced: a mailbox burst of N reports frees N
  // window slots yet posts ONE refill, which then submits all N in a single
  // actor turn instead of N separate mailbox round-trips.
  auto refill =
      std::make_shared<std::function<void(SimTime, proto::Outbox&)>>();
  *refill = [state, consumer, refill,
             &consumer_host](SimTime now, proto::Outbox& out) {
    state->refill_pending = false;
    std::size_t n = state->due_submits;
    state->due_submits = 0;
    for (; n > 0 && state->next_id <= state->tasklets; --n) {
      const std::uint64_t id = state->next_id++;
      proto::TaskletSpec spec;
      spec.id = TaskletId{id};
      spec.job = JobId{1};
      spec.body = proto::SyntheticBody{kTaskletFuel,
                                       static_cast<std::int64_t>(id), 256};
      state->submit_at[id] = Clock::now();
      consumer->submit(
          std::move(spec),
          [state, refill, &consumer_host](const proto::TaskletReport& report) {
            const std::uint64_t rid = report.id.value();
            state->latencies_ms.add(std::chrono::duration<double, std::milli>(
                                        Clock::now() - state->submit_at[rid])
                                        .count());
            state->completed += 1;
            if (state->completed == state->tasklets) {
              state->done.set_value();
              return;
            }
            if (state->next_id <= state->tasklets) {
              state->due_submits += 1;
              if (!state->refill_pending) {
                state->refill_pending = true;
                consumer_host.post_closure(*refill);
              }
            }
          },
          now, out);
    }
  };

  auto done_future = state->done.get_future();
  const auto start = Clock::now();
  state->due_submits = std::min(window, tasklets);
  state->refill_pending = true;
  consumer_host.post_closure(*refill);

  const auto wait_budget =
      std::chrono::seconds(60 + static_cast<long>(tasklets / 5'000));
  if (done_future.wait_for(wait_budget) != std::future_status::ready) {
    bench::line("  !! cell timed out: %llu / %zu completed",
                static_cast<unsigned long long>(state->completed), tasklets);
    harness.stop();
    consumer_rt.stop_all();
    broker_rt.stop_all();
    return cell;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  cell.ok = true;
  cell.elapsed_s = elapsed;
  cell.completed = state->completed;
  cell.submits_per_sec = static_cast<double>(state->completed) / elapsed;
  cell.p50_ms = state->latencies_ms.p50();
  cell.p99_ms = state->latencies_ms.p99();
  cell.dispatch_us = elapsed * 1e6 / static_cast<double>(state->completed);
  cell.writev_calls = registry.counter("net.tcp.writev_calls").value();
  cell.frames_out = registry.counter("net.tcp.frames_out").value();
  cell.frames_per_writev =
      cell.writev_calls == 0 ? 0.0
                             : static_cast<double>(cell.frames_out) /
                                   static_cast<double>(cell.writev_calls);
  cell.resubmits = consumer->stats().resubmits;
  const auto batch_hist = registry.histogram("broker.batch.size").snapshot();
  cell.batches = batch_hist.count();
  cell.batch_p50 = batch_hist.quantile(0.5);
  cell.batch_p95 = batch_hist.quantile(0.95);

  harness.stop();
  consumer_rt.stop_all();
  broker_rt.stop_all();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t providers = 10'000;
  std::size_t tasklets = 1'000'000;
  std::size_t window = 4096;
  std::uint32_t slots = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> std::size_t {
      return i + 1 < argc ? std::strtoull(argv[++i], nullptr, 10) : 0;
    };
    if (arg == "--providers") providers = next();
    else if (arg == "--tasklets") tasklets = next();
    else if (arg == "--window") window = next();
    else if (arg == "--slots") slots = static_cast<std::uint32_t>(next());
    else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 2;
    }
  }

  const std::size_t fd_limit = raise_nofile_limit();
  // Each provider costs ~2 fds (broker channel + harness inbound); leave
  // slack for listeners, wakeups and the consumer connections.
  const std::size_t max_providers = fd_limit > 512 ? (fd_limit - 512) / 2 : 64;
  if (providers > max_providers) {
    bench::line("fd limit %zu: scaling swarm from %zu to %zu providers",
                fd_limit, providers, max_providers);
    providers = max_providers;
  }

  bench::header("E14", "swarm scale: one broker, simulated provider swarm over TCP");
  bench::line("  providers=%zu slots=%u tasklets=%zu window=%zu fd_limit=%zu",
              providers, slots, tasklets, window, fd_limit);
  bench::line("  %10s %12s %10s %10s %12s", "providers", "submits/s", "p50 ms",
              "p99 ms", "dispatch us");

  const CellResult cell = run_cell(providers, tasklets, window, slots);
  if (!cell.ok) return 1;
  bench::line("  %10zu %12.0f %10.2f %10.2f %12.2f", providers,
              cell.submits_per_sec, cell.p50_ms, cell.p99_ms, cell.dispatch_us);
  bench::line("    writev=%llu frames=%llu (%.2f frames/writev) resubmits=%llu",
              static_cast<unsigned long long>(cell.writev_calls),
              static_cast<unsigned long long>(cell.frames_out),
              cell.frames_per_writev,
              static_cast<unsigned long long>(cell.resubmits));
  bench::line("    broker bursts=%zu batch p50=%.0f p95=%.0f msgs", cell.batches,
              cell.batch_p50, cell.batch_p95);
  bench::line("csv,E14,%zu,%zu,%.0f,%.3f,%.3f,%.3f,%.2f,%llu", providers,
              tasklets, cell.submits_per_sec, cell.p50_ms, cell.p99_ms,
              cell.dispatch_us, cell.frames_per_writev,
              static_cast<unsigned long long>(cell.resubmits));
  if (cell.resubmits > 0) {
    bench::line("FAIL: %llu tasklet(s) resubmitted; the swarm must complete "
                "every tasklet without one",
                static_cast<unsigned long long>(cell.resubmits));
    return 1;
  }
  return 0;
}
