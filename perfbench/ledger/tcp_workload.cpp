// pipeline_tcp: one consumer keeps a 1,024-tasklet window of SyntheticBody
// tasklets in flight over real loopback net::TcpRuntime to a benchmark-built
// Broker. Four simulated providers x 256 slots live behind one listener and
// answer after a heterogeneous service latency (the E14 swarm shape).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>

#include "common/metrics.hpp"
#include "layers.hpp"
#include "net/event_loop.hpp"
#include "net/tcp.hpp"

namespace ledger {

using namespace tasklets;

namespace {

constexpr std::size_t kProviders = 4;
constexpr std::uint32_t kSlots = 256;
constexpr std::size_t kWindow = 1024;
constexpr std::size_t kTcpTasklets = 100'000;
constexpr std::size_t kTcpTracedTasklets = 30'000;
constexpr std::size_t kTcpWarmup = 10'000;
constexpr std::uint64_t kTaskletFuel = 1'000'000;

// What the timing decorators of one round record; outlives the runtimes.
struct RoundTimes {
  HandlerTimes broker;
  HandlerTimes consumer;
  PickTimes picks;
  std::vector<double> consumer_submit_us;
  double wall_s = 0.0;
};

// Advertised speeds stay within qoc_aware's 8x selectivity band; service
// latencies spread 1-8 ms like E14's desktop / laptop / phone classes.
constexpr std::array<double, kProviders> kSpeed = {1e9, 1e9, 5e8, 2e8};
constexpr std::array<std::int64_t, kProviders> kServiceUs = {1'000, 1'200, 3'000, 8'000};

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

void append_frame(const proto::Envelope& envelope, Bytes& buf) {
  const std::size_t start = buf.size();
  buf.resize(start + 4);
  proto::encode_into(envelope, buf);
  const auto len = static_cast<std::uint32_t>(buf.size() - start - 4);
  std::memcpy(buf.data() + start, &len, sizeof len);
}

// The simulated providers: one listener accepting the broker's per-provider
// connections, a delay queue answering each AssignTasklet after its
// provider's service latency, and one shared reply connection.
class ProviderSwarm {
 public:
  ProviderSwarm() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw std::runtime_error("provider swarm cannot listen");
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    loop_.add(listen_fd_, net::kEventRead, [this](std::uint32_t) { accept_all(); });
    io_thread_ = std::thread([this] { loop_.run(); });
    reply_thread_ = std::thread([this] { reply_loop(); });
  }

  ~ProviderSwarm() { stop(); }
  ProviderSwarm(const ProviderSwarm&) = delete;
  ProviderSwarm& operator=(const ProviderSwarm&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  // Registers every provider through the shared reply connection and waits
  // for the acks.
  bool register_all(std::uint16_t broker_port) {
    reply_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(broker_port);
    if (::connect(reply_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(reply_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Bytes buf;
    for (std::size_t i = 0; i < kProviders; ++i) {
      proto::Capability capability;
      capability.device_class = proto::DeviceClass::kDesktop;
      capability.speed_fuel_per_sec = kSpeed[i];
      capability.slots = kSlots;
      append_frame(proto::Envelope{NodeId{kFirstProvider + i}, kBrokerId,
                                   proto::RegisterProvider{capability, 1}},
                   buf);
    }
    {
      const std::scoped_lock lock(send_mutex_);
      if (!write_all(reply_fd_, buf.data(), buf.size())) return false;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (acks_.load() < kProviders) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
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
  struct Reply {
    Clock::time_point due;
    proto::Envelope envelope;
    bool operator>(const Reply& other) const { return due > other.due; }
  };

  void accept_all() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
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
        for (auto frame = conn->parser.next(); !frame.empty();
             frame = conn->parser.next()) {
          auto decoded = proto::decode(frame);
          if (decoded.is_ok()) handle(std::move(decoded).value());
        }
        if (conn->parser.bad_frame()) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        flush_staged();
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF or error
    }
    flush_staged();
    loop_.remove(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
  }

  void handle(proto::Envelope envelope) {
    if (std::holds_alternative<proto::RegisterAck>(envelope.payload)) {
      acks_.fetch_add(1);
      return;
    }
    const auto* assign = std::get_if<proto::AssignTasklet>(&envelope.payload);
    if (assign == nullptr) return;
    proto::AttemptOutcome outcome;
    if (const auto* body = std::get_if<proto::SyntheticBody>(&assign->body)) {
      outcome.result = body->result;
      outcome.fuel_used = body->fuel;
      outcome.instructions = body->fuel;
    }
    const std::size_t index =
        static_cast<std::size_t>(envelope.to.value() - kFirstProvider) % kProviders;
    staged_.push_back(Reply{
        Clock::now() + std::chrono::microseconds(kServiceUs[index]),
        proto::Envelope{envelope.to, envelope.from,
                        proto::AttemptResult{assign->attempt, assign->tasklet,
                                             std::move(outcome)}}});
  }

  void flush_staged() {
    if (staged_.empty()) return;
    {
      const std::scoped_lock lock(reply_mutex_);
      for (auto& reply : staged_) replies_.push(std::move(reply));
    }
    staged_.clear();
    reply_cv_.notify_one();
  }

  // Sends every reply that is due in one write.
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
        // top() is const; the element is popped right after the move.
        due.push_back(std::move(const_cast<Reply&>(replies_.top()).envelope));
        replies_.pop();
      }
      lock.unlock();
      buf.clear();
      for (const auto& envelope : due) append_frame(envelope, buf);
      {
        const std::scoped_lock send_lock(send_mutex_);
        (void)write_all(reply_fd_, buf.data(), buf.size());
      }
      lock.lock();
    }
  }

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int reply_fd_ = -1;
  net::EventLoop loop_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> acks_{0};
  // Loop-thread only.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::array<std::byte, 256 * 1024> read_buf_{};
  std::vector<Reply> staged_;
  // Reply queue, shared with the reply thread.
  std::mutex reply_mutex_;
  std::condition_variable reply_cv_;
  std::priority_queue<Reply, std::vector<Reply>, std::greater<Reply>> replies_;
  bool reply_stop_ = false;
  std::mutex send_mutex_;
  // Declared last: they run against every member above.
  std::thread io_thread_;
  std::thread reply_thread_;
};

std::int64_t synthetic_result(std::uint64_t seed, std::uint64_t id) {
  return static_cast<std::int64_t>(mix64(seed ^ (id * 0x9E3779B97F4A7C15ULL)) >> 2);
}

// Runs `fn` on `host`'s actor thread, serialized with its handlers, and
// waits for it.
void run_on(net::ActorHost& host, const std::function<void()>& fn) {
  std::promise<void> done;
  host.post_closure([&](SimTime, proto::Outbox&) {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

struct TcpRoundConfig {
  std::size_t tasklets = 0;
  RoundTimes* times = nullptr;  // non-null: broker and consumer decorated
  TraceStore* trace = nullptr;  // broker + consumer spans
  bool metrics_on = true;
};

// Drives `n` tasklets (ids first..first+n-1) through the window; the
// consumer actor thread submits and collects, the caller waits.
class WindowDriver {
 public:
  WindowDriver(consumer::ConsumerAgent& consumer, net::ActorHost& host,
               std::uint64_t seed, bool time_submits)
      : consumer_(consumer), host_(host), seed_(seed), time_submits_(time_submits) {}

  // Returns false if the tasklets did not all report within the deadline.
  bool drive(std::uint64_t first, std::size_t n, std::vector<double>* latency_us) {
    state_ = std::make_shared<State>();
    state_->next = first;
    state_->end = first + n;
    state_->first = first;
    state_->submit_at.resize(n);
    state_->latency_us = latency_us;
    auto done = state_->done.get_future();
    state_->due = std::min(kWindow, n);
    state_->refill_pending = true;
    host_.post_closure([this, state = state_](SimTime now, proto::Outbox& out) {
      refill(state, now, out);
    });
    if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      return false;
    }
    return true;
  }

  // Completions of the last drive; read only after it returned true.
  [[nodiscard]] std::uint64_t completed() const { return state_->completed; }
  std::vector<double> submit_us;  // consumer.submit() call times

 private:
  struct State {
    std::uint64_t first = 0, next = 0, end = 0;
    std::uint64_t completed = 0, failed = 0;
    std::size_t due = 0;
    bool refill_pending = false;
    std::vector<Clock::time_point> submit_at;
    std::vector<double>* latency_us = nullptr;
    std::promise<void> done;
  };

  // Submits one tasklet per freed window slot. Reports free slots in
  // bursts; one refill closure per burst submits them all in one turn.
  void refill(const std::shared_ptr<State>& state, SimTime now, proto::Outbox& out) {
    state->refill_pending = false;
    for (std::size_t n = std::exchange(state->due, 0); n > 0 && state->next < state->end;
         --n) {
      const std::uint64_t id = state->next++;
      proto::TaskletSpec spec;
      spec.id = TaskletId{id};
      spec.job = JobId{1};
      spec.body = proto::SyntheticBody{kTaskletFuel, synthetic_result(seed_, id), 256};
      state->submit_at[id - state->first] = Clock::now();
      const auto submit_start = Clock::now();
      consumer_.submit(
          std::move(spec),
          [this, state](const proto::TaskletReport& report) { on_report(state, report); },
          now, out);
      if (time_submits_) submit_us.push_back(us_between(submit_start, Clock::now()));
    }
  }

  void on_report(const std::shared_ptr<State>& state, const proto::TaskletReport& report) {
    const std::uint64_t id = report.id.value();
    if (state->latency_us != nullptr) {
      state->latency_us->push_back(
          us_between(state->submit_at[id - state->first], Clock::now()));
    }
    const auto* value = std::get_if<std::int64_t>(&report.result);
    if (report.status == proto::TaskletStatus::kCompleted && value != nullptr &&
        *value == synthetic_result(seed_, id)) {
      ++state->completed;
    } else {
      ++state->failed;
    }
    if (state->completed + state->failed == state->end - state->first) {
      state->done.set_value();
      return;
    }
    if (state->next < state->end) {
      ++state->due;
      if (!state->refill_pending) {
        state->refill_pending = true;
        host_.post_closure([this, state](SimTime now, proto::Outbox& out) {
          refill(state, now, out);
        });
      }
    }
  }

  consumer::ConsumerAgent& consumer_;
  net::ActorHost& host_;
  std::uint64_t seed_;
  bool time_submits_;
  std::shared_ptr<State> state_;
};

// One round: set-up, warm-up, then `config.tasklets` timed tasklets.
Round tcp_round(std::uint64_t seed, const TcpRoundConfig& config, Report& report) {
  const MetricsSwitch metrics_switch(config.metrics_on);
  Round round;
  const auto setup_start = Clock::now();
  net::TcpRuntime broker_rt;
  net::TcpRuntime consumer_rt;
  broker::BrokerConfig broker_config;
  // The simulated providers never heartbeat: park liveness out of the way.
  broker_config.heartbeat_interval = 3600 * kSecond;
  broker_config.scan_interval = 10 * kSecond;
  broker_config.terminal_retention = 8192;
  broker_config.trace = config.trace;
  consumer::ConsumerConfig consumer_config;
  consumer_config.trace = config.trace;
  auto consumer_owned = std::make_unique<consumer::ConsumerAgent>(
      kConsumerId, kBrokerId, "", consumer_config);
  consumer::ConsumerAgent& consumer = *consumer_owned;
  std::unique_ptr<proto::Actor> consumer_actor = std::move(consumer_owned);
  std::unique_ptr<proto::Actor> broker_actor;
  if (config.times != nullptr) {
    RoundTimes& t = *config.times;
    broker_actor = std::make_unique<TimedActor>(
        std::make_unique<broker::Broker>(
            kBrokerId, std::make_unique<TimedScheduler>(broker::make_qoc_aware(), t.picks),
            broker_config),
        t.broker, &t.picks);
    consumer_actor = std::make_unique<TimedActor>(std::move(consumer_actor), t.consumer,
                                                  nullptr);
  } else {
    broker_actor = std::make_unique<broker::Broker>(kBrokerId, broker::make_qoc_aware(),
                                                    broker_config);
  }
  net::ActorHost& broker_host = broker_rt.add(std::move(broker_actor));
  net::ActorHost& consumer_host = consumer_rt.add(std::move(consumer_actor));
  consumer_rt.add_remote(kBrokerId, broker_rt.port_of(kBrokerId));
  broker_rt.add_remote(kConsumerId, consumer_rt.port_of(kConsumerId));
  ProviderSwarm swarm;
  for (std::size_t i = 0; i < kProviders; ++i) {
    broker_rt.add_remote(NodeId{kFirstProvider + i}, swarm.port());
  }
  const bool registered = swarm.register_all(broker_rt.port_of(kBrokerId));
  // The two runtimes' clocks start apart; broker spans are shifted onto the
  // consumer's clock so cross-node phases line up.
  const SimTime broker_skew = broker_rt.now() - consumer_rt.now();
  // Set-up: construction, connects and registration; warm-up is not in it.
  round.setup_s = seconds_between(setup_start, Clock::now());

  WindowDriver driver(consumer, consumer_host, seed, config.times != nullptr);
  const bool warmed = registered && driver.drive(1, kTcpWarmup, nullptr);
  // The timed part starts clean: no warm-up spans, counters or samples.
  if (config.trace != nullptr) (void)config.trace->drain();
  metrics::MetricsRegistry::instance().reset();
  if (config.times != nullptr) {
    // The decorators write on their actors' threads, so clear there.
    RoundTimes& t = *config.times;
    run_on(broker_host, [&t] {
      t.broker = {};
      t.picks = {};
    });
    run_on(consumer_host, [&t] { t.consumer = {}; });
  }
  driver.submit_us.clear();
  round.latency_us.reserve(config.tasklets);
  const double cpu_start = process_cpu_seconds();
  const auto wall_start = Clock::now();
  const bool drained =
      warmed && driver.drive(kTcpWarmup + 1, config.tasklets, &round.latency_us);
  round.wall_s = seconds_between(wall_start, Clock::now());
  round.cpu_s = process_cpu_seconds() - cpu_start;
  // A window that did not drain may still be reporting: count none of it.
  round.completed = drained ? driver.completed() : 0;
  round.failed = config.tasklets - round.completed;
  if (!registered) {
    report.fail("provider registration timed out");
  } else if (!drained) {
    report.fail("pipeline_tcp window did not drain within 60 s");
  }

  swarm.stop();
  consumer_rt.stop_all();
  broker_rt.stop_all();
  if (config.times != nullptr) {
    config.times->consumer_submit_us = std::move(driver.submit_us);
    config.times->wall_s = round.wall_s;
  }
  if (config.trace != nullptr) {
    std::vector<Span> spans = config.trace->drain();
    for (Span& span : spans) {
      if (span.node == kBrokerId) {
        span.start -= broker_skew;
        span.end -= broker_skew;
      }
      config.trace->add(std::move(span));
    }
  }
  return round;
}

}  // namespace

void run_pipeline_tcp(const Options& options, Report& report) {
  if (!options.trace) {
    const auto rounds = run_rounds(
        options.seconds, 5,
        [&] { return tcp_round(options.seed, {kTcpTasklets, nullptr, nullptr, true}, report); },
        report);
    report_end_to_end(rounds, report);
    return;
  }
  const auto start = Clock::now();
  measure_inproc_hop(report);
  measure_dispatch_pinned(report);
  measure_kernels_and_store(options.seed, report);

  // Codec samples: the workload's own messages through a pump.
  double codec_ns = 0.0;
  {
    std::vector<proto::Capability> pool(kProviders);
    for (std::size_t i = 0; i < kProviders; ++i) {
      pool[i].speed_fuel_per_sec = kSpeed[i];
      pool[i].slots = kSlots;
    }
    BrokerPump pump({pool, "", true, nullptr});
    for (std::uint64_t id = 1; id <= 64; ++id) {
      proto::TaskletSpec spec;
      spec.id = TaskletId{id};
      spec.job = JobId{1};
      spec.body = proto::SyntheticBody{kTaskletFuel, synthetic_result(options.seed, id), 256};
      (void)pump.run(std::move(spec), [](const proto::AssignTasklet& assign) {
        proto::AttemptOutcome outcome;
        outcome.result = std::get<proto::SyntheticBody>(assign.body).result;
        outcome.fuel_used = kTaskletFuel;
        return outcome;
      });
    }
    codec_ns = measure_codec(pump.samples, report);
  }

  // A plain round for the registry counters and the untraced reference.
  const Round plain = tcp_round(options.seed, {kTcpTracedTasklets, nullptr, nullptr, true},
                                report);
  report.tally(plain.completed + plain.failed, plain.failed);
  report_registry_counters(plain.completed, report);
  std::vector<double> plain_p50{quantile(plain.latency_us, 0.5)};
  const double plain_cpu_us =
      plain.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(plain.completed, 1));

  // A decorated round for the broker and consumer handler times.
  RoundTimes times;
  const Round timed = tcp_round(options.seed, {kTcpTracedTasklets, &times, nullptr, true},
                                report);
  report.tally(timed.completed + timed.failed, timed.failed);
  const BrokerLayer layer{&times.broker, &times.picks, &times.consumer,
                          &times.consumer_submit_us, times.wall_s};
  report_broker_layer(layer, report);
  LayerTimes ledger = layer_self_times(layer, timed.completed);
  ledger.emplace_back("codec", codec_ns / 1e3);
  note_cpu_ledger("pipeline_tcp", ledger, plain_cpu_us);

  std::vector<double> traced_p50, off_p50;
  std::vector<Span> spans;
  do {
    TraceStore store;
    const Round traced =
        tcp_round(options.seed, {kTcpTracedTasklets, nullptr, &store, true}, report);
    const Round off = tcp_round(options.seed, {kTcpTracedTasklets, nullptr, nullptr, false},
                                report);
    const Round again = tcp_round(options.seed,
                                  {kTcpTracedTasklets, nullptr, nullptr, true}, report);
    for (const Round* r : {&traced, &off, &again}) {
      report.tally(r->completed + r->failed, r->failed);
    }
    traced_p50.push_back(quantile(traced.latency_us, 0.5));
    off_p50.push_back(quantile(off.latency_us, 0.5));
    plain_p50.push_back(quantile(again.latency_us, 0.5));
    spans = store.all();
  } while (report.correct() && seconds_between(start, Clock::now()) < options.seconds);
  report_phases("pipeline_tcp", spans, median(plain_p50), report);
  report_overheads(median(plain_p50), median(traced_p50), median(off_p50), report);
}

}  // namespace ledger
