// Tests for the threaded runtimes: ActorHost mailbox/timer semantics, the
// in-process router, and the loopback TCP transport (framing, reconnection,
// full middleware stack over real sockets).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "core/kernels.hpp"
#include "core/system.hpp"
#include "net/event_loop.hpp"
#include "net/inproc.hpp"
#include "broker/broker.hpp"
#include "consumer/consumer.hpp"
#include "net/tcp.hpp"
#include "provider/provider.hpp"

// Allocation counting for the zero-alloc submit-path test: global operator
// new/delete route through malloc/free and bump a thread-local counter when
// armed. Trivially-destructible thread_locals are zero-initialized, so this
// is safe during static init; when t_count_allocs is false (the default,
// and every other test) the only overhead is one branch.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_alloc_count = 0;
}  // namespace

// GCC pairs the replaced operator delete's free() against the compiler's
// builtin operator new and warns; the pairing is in fact consistent (both
// replacements use malloc/free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (t_count_allocs) ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (t_count_allocs) ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace tasklets::net {
namespace {

using namespace std::chrono_literals;

// A test actor recording everything it observes, with optional auto-reply.
class Recorder final : public proto::Actor {
 public:
  explicit Recorder(NodeId id, NodeId reply_to = {})
      : Actor(id), reply_to_(reply_to) {}

  void on_start(SimTime, proto::Outbox&) override { started_ = true; }

  void on_message(const proto::Envelope& envelope, SimTime,
                  proto::Outbox& out) override {
    handler_thread_.store(std::this_thread::get_id());
    messages_.fetch_add(1);
    last_from_.store(envelope.from.value());
    if (reply_to_.valid()) {
      out.send(reply_to_, proto::Heartbeat{});
    }
  }

  void on_timer(std::uint64_t timer_id, SimTime, proto::Outbox&) override {
    timer_fires_.fetch_add(1);
    last_timer_.store(timer_id);
  }

  [[nodiscard]] int messages() const { return messages_.load(); }
  [[nodiscard]] int timer_fires() const { return timer_fires_.load(); }
  [[nodiscard]] std::uint64_t last_timer() const { return last_timer_.load(); }
  [[nodiscard]] std::uint64_t last_from() const { return last_from_.load(); }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] std::thread::id handler_thread() const {
    return handler_thread_.load();
  }

 private:
  NodeId reply_to_;
  std::atomic<std::thread::id> handler_thread_{};
  std::atomic<bool> started_{false};
  std::atomic<int> messages_{0};
  std::atomic<int> timer_fires_{0};
  std::atomic<std::uint64_t> last_timer_{0};
  std::atomic<std::uint64_t> last_from_{0};
};

// Records the sequence number each heartbeat carries as its one attempt id,
// so a test can check per-destination order.
class SequenceRecorder final : public proto::Actor {
 public:
  explicit SequenceRecorder(NodeId id) : Actor(id) {}

  void on_start(SimTime, proto::Outbox&) override {}
  void on_message(const proto::Envelope& envelope, SimTime,
                  proto::Outbox&) override {
    const std::scoped_lock lock(mutex_);
    seen_.push_back(static_cast<std::uint32_t>(
        std::get<proto::Heartbeat>(envelope.payload).attempts.at(0).value()));
  }
  void on_timer(std::uint64_t, SimTime, proto::Outbox&) override {}

  [[nodiscard]] std::vector<std::uint32_t> seen() const {
    const std::scoped_lock lock(mutex_);
    return seen_;
  }
  [[nodiscard]] std::size_t count() const {
    const std::scoped_lock lock(mutex_);
    return seen_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint32_t> seen_;
};

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// --- ActorHost / InProcRuntime ---------------------------------------------------

TEST(InProcTest, OnStartRunsAndMessagesRoute) {
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  EXPECT_TRUE(eventually([&] {
    return static_cast<Recorder*>(&a.actor())->started() && recorder_b->started();
  }));
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 1; }));
  EXPECT_EQ(recorder_b->last_from(), 1u);
}

TEST(InProcTest, UnknownDestinationDropsSilently) {
  InProcRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  runtime.route(proto::Envelope{NodeId{1}, NodeId{99}, proto::Heartbeat{}});
  // Nothing to assert beyond "no crash"; give the router a beat.
  std::this_thread::sleep_for(10ms);
}

TEST(InProcTest, ClosuresRunInActorContext) {
  InProcRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  std::promise<std::uint64_t> ran;
  auto future = ran.get_future();
  host.post_closure([&ran](SimTime, proto::Outbox& out) {
    ran.set_value(out.self().value());
  });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), 1u);
}

TEST(InProcTest, ClosureOutboxMessagesAreRouted) {
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  a.post_closure([](SimTime, proto::Outbox& out) {
    out.send(NodeId{2}, proto::Heartbeat{});
  });
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 1; }));
}

TEST(InProcTest, TimersFireAfterDelay) {
  InProcRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  host.post_closure([](SimTime, proto::Outbox& out) {
    out.arm_timer(7, 20 * kMillisecond);
  });
  auto* recorder = static_cast<Recorder*>(&host.actor());
  EXPECT_TRUE(eventually([&] { return recorder->timer_fires() == 1; }));
  EXPECT_EQ(recorder->last_timer(), 7u);
}

TEST(InProcTest, RearmingTimerReplacesPending) {
  InProcRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  // Arm at 30ms, then immediately re-arm the same id at 60ms: exactly one
  // fire must happen (replace semantics), not two.
  host.post_closure([](SimTime, proto::Outbox& out) {
    out.arm_timer(3, 30 * kMillisecond);
  });
  host.post_closure([](SimTime, proto::Outbox& out) {
    out.arm_timer(3, 60 * kMillisecond);
  });
  auto* recorder = static_cast<Recorder*>(&host.actor());
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(recorder->timer_fires(), 1);
}

TEST(InProcTest, DistinctTimerIdsBothFire) {
  InProcRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  host.post_closure([](SimTime, proto::Outbox& out) {
    out.arm_timer(1, 10 * kMillisecond);
    out.arm_timer(2, 20 * kMillisecond);
  });
  auto* recorder = static_cast<Recorder*>(&host.actor());
  EXPECT_TRUE(eventually([&] { return recorder->timer_fires() == 2; }));
}

TEST(InProcTest, StopAllIsIdempotentAndJoinsThreads) {
  InProcRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  runtime.add(std::make_unique<Recorder>(NodeId{2}));
  runtime.stop_all();
  runtime.stop_all();
}

TEST(InProcTest, RequestReplyPingPong) {
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  runtime.add(std::make_unique<Recorder>(NodeId{2}, /*reply_to=*/NodeId{1}));
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  auto* recorder_a = static_cast<Recorder*>(&a.actor());
  EXPECT_TRUE(eventually([&] { return recorder_a->messages() == 1; }));
}

TEST(InProcTest, PostsBeforeStartWaitForOnStart) {
  InProcRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}),
                           /*autostart=*/false);
  auto* recorder = static_cast<Recorder*>(&host.actor());
  std::atomic<int> ran{0};
  std::atomic<bool> started_first{false};
  host.post_closure([&](SimTime, proto::Outbox&) {
    started_first.store(recorder->started());
    ran.fetch_add(1);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_FALSE(recorder->started());
  host.start();
  EXPECT_TRUE(eventually([&] { return ran.load() == 1; }));
  EXPECT_TRUE(started_first.load());
}

TEST(InProcTest, CoHostedActorsRunOnOneThread) {
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  runtime.route(proto::Envelope{NodeId{2}, NodeId{1}, proto::Heartbeat{}});
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  auto* recorder_a = static_cast<Recorder*>(&a.actor());
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  ASSERT_TRUE(eventually(
      [&] { return recorder_a->messages() == 1 && recorder_b->messages() == 1; }));
  EXPECT_EQ(recorder_a->handler_thread(), recorder_b->handler_thread());
  EXPECT_NE(recorder_a->handler_thread(), std::this_thread::get_id());
}

// Notes how many messages `watched` had handled when this actor got its
// first message.
class TurnProbe final : public proto::Actor {
 public:
  TurnProbe(NodeId id, const Recorder& watched) : Actor(id), watched_(watched) {}
  void on_start(SimTime, proto::Outbox&) override {}
  void on_message(const proto::Envelope&, SimTime, proto::Outbox&) override {
    if (seen_.load() < 0) seen_.store(watched_.messages());
  }
  void on_timer(std::uint64_t, SimTime, proto::Outbox&) override {}
  [[nodiscard]] int seen() const { return seen_.load(); }

 private:
  const Recorder& watched_;
  std::atomic<int> seen_{-1};
};

TEST(InProcTest, ReadyHostsTakeTurnsOneBurstEach) {
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto* recorder_a = static_cast<Recorder*>(&a.actor());
  auto& b = runtime.add(std::make_unique<TurnProbe>(NodeId{2}, *recorder_a));
  auto* probe = static_cast<TurnProbe*>(&b.actor());
  auto& c = runtime.add(std::make_unique<Recorder>(NodeId{3}));
  // A becomes ready before B, with far more than one burst queued: B's
  // turn comes after exactly one burst of A.
  constexpr int kFlood = 5000;
  c.post_closure([](SimTime, proto::Outbox& out) {
    for (int i = 0; i < kFlood; ++i) out.send(NodeId{1}, proto::Heartbeat{});
    out.send(NodeId{2}, proto::Heartbeat{});
  });
  ASSERT_TRUE(eventually(
      [&] { return recorder_a->messages() == kFlood && probe->seen() >= 0; }));
  EXPECT_EQ(probe->seen(), static_cast<int>(MailboxThread::kMaxBatch));
}

// Appends every timer it sees to a log shared with other actors.
class TimerLog final : public proto::Actor {
 public:
  TimerLog(NodeId id, std::mutex& mutex, std::vector<std::uint64_t>& log)
      : Actor(id), mutex_(mutex), log_(log) {}
  void on_start(SimTime, proto::Outbox&) override {}
  void on_message(const proto::Envelope&, SimTime, proto::Outbox&) override {}
  void on_timer(std::uint64_t timer_id, SimTime, proto::Outbox&) override {
    const std::scoped_lock lock(mutex_);
    log_.push_back(timer_id);
  }

 private:
  std::mutex& mutex_;
  std::vector<std::uint64_t>& log_;
};

TEST(InProcTest, CoHostedTimersFireInDeadlineOrder) {
  std::mutex mutex;
  std::vector<std::uint64_t> log;
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<TimerLog>(NodeId{1}, mutex, log));
  auto& b = runtime.add(std::make_unique<TimerLog>(NodeId{2}, mutex, log));
  // A's timer 10 is re-armed from 10 ms to 120 ms, so B's 60 ms timer goes
  // first; B's 180 ms timer goes last.
  a.post_closure([](SimTime, proto::Outbox& out) {
    out.arm_timer(10, 10 * kMillisecond);
    out.arm_timer(10, 120 * kMillisecond);
  });
  b.post_closure([](SimTime, proto::Outbox& out) {
    out.arm_timer(20, 60 * kMillisecond);
    out.arm_timer(21, 180 * kMillisecond);
  });
  const auto fired = [&] {
    const std::scoped_lock lock(mutex);
    return log.size();
  };
  ASSERT_TRUE(eventually([&] { return fired() == 3; }));
  std::this_thread::sleep_for(50ms);  // room for a fourth, unexpected fire
  const std::scoped_lock lock(mutex);
  EXPECT_EQ(log, (std::vector<std::uint64_t>{20, 10, 21}));
}

TEST(InProcTest, StopWaitsForRunningClosureAndSparesCoHostedActors) {
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  std::promise<void> entered;
  auto entered_future = entered.get_future();
  std::atomic<bool> finished{false};
  a.post_closure([&](SimTime, proto::Outbox&) {
    entered.set_value();
    std::this_thread::sleep_for(50ms);
    finished.store(true);
  });
  ASSERT_EQ(entered_future.wait_for(5s), std::future_status::ready);
  a.stop();
  EXPECT_TRUE(finished.load());

  std::atomic<bool> late_ran{false};
  a.post_closure([&](SimTime, proto::Outbox&) { late_ran.store(true); });
  runtime.route(proto::Envelope{NodeId{2}, NodeId{1}, proto::Heartbeat{}});
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 1; }));
  EXPECT_FALSE(late_ran.load());
  EXPECT_EQ(static_cast<Recorder*>(&a.actor())->messages(), 0);
}

// Posts driving closures into `host` until one runs on the calling thread.
// Then the host's mailbox thread is parked, and it stays parked until the
// next post. False if it never parks.
bool drive_until_parked(ActorHost& host) {
  for (int attempt = 0; attempt < 5000; ++attempt) {
    auto ran_on = std::make_shared<std::promise<std::thread::id>>();
    auto future = ran_on->get_future();
    host.post_closure_and_drive([ran_on](SimTime, proto::Outbox&) {
      ran_on->set_value(std::this_thread::get_id());
    });
    if (future.get() == std::this_thread::get_id()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

std::uint64_t counter(std::string_view name) {
  return metrics::MetricsRegistry::instance().snapshot().counter(name);
}

TEST(InProcTest, DrivenPostRunsTheTurnsOnTheCallingThreadWhenIdle) {
  InProcRuntime runtime;
  auto& a = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  ASSERT_TRUE(drive_until_parked(a));
  const std::uint64_t driven = counter("net.mailbox.driven");
  std::atomic<std::thread::id> closure_thread{};
  a.post_closure_and_drive([&](SimTime, proto::Outbox& out) {
    closure_thread.store(std::this_thread::get_id());
    out.send(NodeId{2}, proto::Heartbeat{});
  });
  // The closure and the co-hosted handler it fed both ran before the post
  // returned, on this thread.
  EXPECT_EQ(closure_thread.load(), std::this_thread::get_id());
  EXPECT_EQ(recorder_b->messages(), 1);
  EXPECT_EQ(recorder_b->handler_thread(), std::this_thread::get_id());
  EXPECT_EQ(counter("net.mailbox.driven"), driven + 1);
}

TEST(InProcTest, DrivenPostOnlyEnqueuesWhileTheThreadIsBusy) {
  InProcRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  std::latch open(1);
  auto blocked_on = std::make_shared<std::promise<std::thread::id>>();
  auto blocked_future = blocked_on->get_future();
  host.post_closure([&open, blocked_on](SimTime, proto::Outbox&) {
    blocked_on->set_value(std::this_thread::get_id());
    open.wait();
  });
  const std::thread::id runtime_thread = blocked_future.get();

  auto ran_on = std::make_shared<std::promise<std::thread::id>>();
  auto ran_future = ran_on->get_future();
  auto posted = std::async(std::launch::async, [&host, ran_on] {
    host.post_closure_and_drive([ran_on](SimTime, proto::Outbox&) {
      ran_on->set_value(std::this_thread::get_id());
    });
  });
  const bool returned = posted.wait_for(1s) == std::future_status::ready;
  const bool ran_early = ran_future.wait_for(0s) == std::future_status::ready;
  open.count_down();
  EXPECT_TRUE(returned);
  EXPECT_FALSE(ran_early);
  ASSERT_EQ(ran_future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(ran_future.get(), runtime_thread);
}

// The environment of a standalone host: a clock, and routes to nowhere.
class ClockEnv final : public HostEnv {
 public:
  void route(proto::Envelope) override {}
  [[nodiscard]] SimTime now() const override { return clock_.now(); }

 private:
  SteadyClock clock_;
};

TEST(InProcTest, TimerArmedByADriveWakesAThreadParkedWithoutOne) {
  ClockEnv env;
  ActorHost host(std::make_unique<Recorder>(NodeId{1}), env);
  host.start();
  auto* recorder = static_cast<Recorder*>(&host.actor());
  ASSERT_TRUE(drive_until_parked(host));
  // The host's thread parked with no timer; the drive's hand-back must move
  // its deadline, and must not leave it deaf to later posts.
  host.post_closure_and_drive([](SimTime, proto::Outbox& out) {
    out.arm_timer(7, 5 * kMillisecond);
  });
  EXPECT_TRUE(eventually([&] { return recorder->timer_fires() == 1; }, 1000ms));
  host.post(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  EXPECT_TRUE(eventually([&] { return recorder->messages() == 1; }));
}

TEST(InProcTest, DriveRunsAtMostTheBoundThenHandsBack) {
  InProcRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  ASSERT_TRUE(drive_until_parked(host));
  const std::uint64_t handbacks = counter("net.mailbox.drive_handbacks");
  constexpr int kRuns = 1000;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::atomic<int> on_caller{0};
  // Each run re-posts the closure, so each is a turn of its own.
  ActorClosure step = [&](SimTime, proto::Outbox&) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    if (ran.fetch_add(1) + 1 < kRuns) host.post_closure(step);
  };
  host.post_closure_and_drive(step);
  EXPECT_GT(on_caller.load(), 0);
  EXPECT_LE(on_caller.load(), static_cast<int>(MailboxThread::kMaxDrivenTurns));
  EXPECT_TRUE(eventually([&] { return ran.load() == kRuns; }));
  EXPECT_LE(on_caller.load(), static_cast<int>(MailboxThread::kMaxDrivenTurns));
  EXPECT_EQ(counter("net.mailbox.drive_handbacks"), handbacks + 1);
}

// --- TcpRuntime -------------------------------------------------------------------

TEST(TcpTest, ListenerPortsAssigned) {
  TcpRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  EXPECT_NE(runtime.port_of(host.id()), 0);
  EXPECT_EQ(runtime.port_of(NodeId{42}), 0);
}

TEST(TcpTest, MessagesTravelOverSockets) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 1; }));
  EXPECT_GT(runtime.bytes_sent(), 0u);
  EXPECT_EQ(recorder_b->last_from(), 1u);
}

TEST(TcpTest, ManyMessagesArriveInOrderPerPair) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  }
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == kCount; }));
}

TEST(TcpTest, LargePayloadFrames) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  // A ~4 MB tasklet body must cross intact.
  proto::VmBody body;
  body.program = Bytes(64, std::byte{0x7F});
  body.args = {std::vector<std::int64_t>(500'000, 123456789)};
  proto::SubmitTasklet submit;
  submit.spec.id = TaskletId{1};
  submit.spec.body = std::move(body);
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, std::move(submit)});
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 1; }));
}

TEST(TcpTest, UnknownPeerDropsWithoutBlocking) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  runtime.route(proto::Envelope{NodeId{1}, NodeId{77}, proto::Heartbeat{}});
}

TEST(TcpTest, StopAllShutsDownCleanly) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 1; }));
  runtime.stop_all();
  runtime.stop_all();
}

TEST(TcpTest, OversizedFrameDropsConnectionButRuntimeRecovers) {
  TcpConfig config;
  config.max_frame_bytes = 1024;
  TcpRuntime runtime(config);
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());

  // A frame beyond the receiver's limit: rejected, connection dropped.
  proto::SubmitTasklet submit;
  submit.spec.id = TaskletId{1};
  proto::VmBody body;
  body.args = {std::vector<std::int64_t>(10'000, 7)};
  submit.spec.body = std::move(body);
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, std::move(submit)});
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(recorder_b->messages(), 0);

  // Small messages still get through (fresh connection on retry).
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() >= 1; }));
}

// --- Event loop: framing, backpressure, backends ----------------------------------

Bytes encode_frame(const proto::Envelope& envelope) {
  Bytes frame;
  frame.resize(4);
  proto::encode_into(envelope, frame);
  const auto len = static_cast<std::uint32_t>(frame.size() - 4);
  std::memcpy(frame.data(), &len, 4);
  return frame;
}

// Connects a blocking socket to 127.0.0.1:`port`.
bool connect_socket(int fd, std::uint16_t port) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
}

// Blocking loopback client socket, for driving a runtime's listener with
// byte-exact wire sequences the pooled channels would never produce.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!connect_socket(fd, port)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Client sockets, closed on every exit path.
struct Sockets {
  std::vector<int> fds;
  ~Sockets() { close_all(); }
  void close_all() {
    for (const int fd : fds) ::close(fd);
    fds.clear();
  }
};

TEST(FrameParserTest, TwoFramesInOneFeed) {
  FrameParser parser(1024);
  const Bytes a = encode_frame({NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  const Bytes b = encode_frame({NodeId{3}, NodeId{2}, proto::Heartbeat{}});
  Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  parser.feed(stream.data(), stream.size());

  const auto first = parser.next();
  ASSERT_EQ(first.size(), a.size() - 4);
  EXPECT_EQ(proto::decode(first).value().from, NodeId{1});
  const auto second = parser.next();
  ASSERT_EQ(second.size(), b.size() - 4);
  EXPECT_EQ(proto::decode(second).value().from, NodeId{3});
  EXPECT_TRUE(parser.next().empty());
  EXPECT_FALSE(parser.bad_frame());
}

TEST(FrameParserTest, ByteAtATimeAcrossFrameBoundaries) {
  FrameParser parser(1024);
  const Bytes a = encode_frame({NodeId{7}, NodeId{2}, proto::Heartbeat{}});
  const Bytes b = encode_frame({NodeId{8}, NodeId{2}, proto::Heartbeat{}});
  Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  int frames = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    parser.feed(stream.data() + i, 1);
    while (!parser.next().empty()) ++frames;
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_FALSE(parser.bad_frame());
}

TEST(FrameParserTest, OversizedAndZeroLengthsAreBadFrames) {
  {
    FrameParser parser(16);
    const std::uint32_t len = 17;  // one past the limit
    parser.feed(reinterpret_cast<const std::byte*>(&len), 4);
    EXPECT_TRUE(parser.next().empty());
    EXPECT_TRUE(parser.bad_frame());
  }
  {
    FrameParser parser(16);
    const std::uint32_t len = 0;
    parser.feed(reinterpret_cast<const std::byte*>(&len), 4);
    EXPECT_TRUE(parser.next().empty());
    EXPECT_TRUE(parser.bad_frame());
  }
}

TEST(BufferPoolTest, ReleaseManyRecyclesUpToTheCaps) {
  BufferPool pool(/*max_pooled=*/2, /*max_buffer_bytes=*/64);
  std::vector<Bytes> buffers(4);
  buffers[0].reserve(16);
  buffers[1].reserve(128);  // over max_buffer_bytes: dropped
  buffers[2].reserve(16);
  buffers[3].reserve(16);  // beyond max_pooled: dropped
  pool.release_many(buffers.data(), buffers.size());
  EXPECT_EQ(pool.pooled(), 2u);
  EXPECT_GT(pool.acquire().capacity(), 0u);
  EXPECT_GT(pool.acquire().capacity(), 0u);
  EXPECT_EQ(pool.acquire().capacity(), 0u);  // pool empty again
}

// Shrinking SO_SNDBUF to a few KB while pushing ~64 KB frames forces the
// writev path through partial writes and EAGAIN storms: every frame must
// still arrive intact, in order, via the want_write re-arm path.
TEST(TcpTest, PartialWritesAndEagainStormsDeliverEveryFrame) {
  TcpConfig config;
  config.sndbuf_bytes = 4096;
  TcpRuntime runtime(config);
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());

  constexpr int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) {
    proto::VmBody body;
    body.args = {std::vector<std::int64_t>(8192, i)};
    proto::SubmitTasklet submit;
    submit.spec.id = TaskletId{static_cast<std::uint64_t>(i + 1)};
    submit.spec.body = std::move(body);
    runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, std::move(submit)});
  }
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == kFrames; },
                         std::chrono::milliseconds(10000)));
}

TEST(TcpTest, ShortReadsAcrossFrameBoundariesReassemble) {
  TcpRuntime runtime;
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());

  Bytes stream = encode_frame({NodeId{9}, NodeId{2}, proto::Heartbeat{}});
  const Bytes second = encode_frame({NodeId{9}, NodeId{2}, proto::Heartbeat{}});
  stream.insert(stream.end(), second.begin(), second.end());

  const int fd = connect_loopback(runtime.port_of(NodeId{2}));
  ASSERT_GE(fd, 0);
  // Dribble the two frames 5 bytes at a time so every recv() lands mid-frame
  // (and one lands exactly on the boundary between them).
  for (std::size_t off = 0; off < stream.size(); off += 5) {
    const std::size_t n = std::min<std::size_t>(5, stream.size() - off);
    ASSERT_EQ(::send(fd, stream.data() + off, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 2; }));
  ::close(fd);
}

TEST(TcpTest, ConnectionResetMidFrameDropsItButListenerRecovers) {
  TcpRuntime runtime;
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());

  // A frame header promising 100 bytes, then only 10, then a close: the
  // half-frame must vanish without wedging the listener.
  const int fd = connect_loopback(runtime.port_of(NodeId{2}));
  ASSERT_GE(fd, 0);
  const std::uint32_t promised = 100;
  ASSERT_EQ(::send(fd, &promised, 4, MSG_NOSIGNAL), 4);
  char partial[10] = {};
  ASSERT_EQ(::send(fd, partial, sizeof partial, MSG_NOSIGNAL), 10);
  ::close(fd);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(recorder_b->messages(), 0);

  // A fresh connection with a whole frame still gets through.
  const Bytes frame = encode_frame({NodeId{9}, NodeId{2}, proto::Heartbeat{}});
  const int fd2 = connect_loopback(runtime.port_of(NodeId{2}));
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::send(fd2, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == 1; }));
  ::close(fd2);
}

TEST(TcpTest, PollBackendEndToEnd) {
  TcpConfig config;
  config.force_poll = true;
  TcpRuntime runtime(config);
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  }
  EXPECT_TRUE(eventually([&] { return recorder_b->messages() == kCount; }));
}

// --- Batched hand-offs: route_batch out, post_many in -------------------------------

// One turn's outbox leaves through one route_batch: ~1,000 envelopes
// interleaved across three destinations (nodes 2, 3 and 4) must arrive
// complete and in turn order at each of them.
TEST(TcpTest, OneTurnToThreeDestinationsArrivesInOrderPerDestination) {
  TcpRuntime runtime;
  auto& sender = runtime.add(std::make_unique<Recorder>(NodeId{1}));
  std::vector<SequenceRecorder*> recorders;
  for (std::uint64_t id = 2; id <= 4; ++id) {
    auto& host = runtime.add(std::make_unique<SequenceRecorder>(NodeId{id}));
    recorders.push_back(static_cast<SequenceRecorder*>(&host.actor()));
  }

  constexpr std::uint32_t kEnvelopes = 999;
  sender.post_closure([](SimTime, proto::Outbox& out) {
    for (std::uint32_t seq = 0; seq < kEnvelopes; ++seq) {
      out.send(NodeId{2 + seq % 3}, proto::Heartbeat{{AttemptId{seq}}});
    }
  });
  for (std::size_t d = 0; d < recorders.size(); ++d) {
    ASSERT_TRUE(eventually(
        [&] { return recorders[d]->count() == kEnvelopes / 3; }, 10000ms))
        << "destination " << d + 2 << " got " << recorders[d]->count();
    const std::vector<std::uint32_t> seen = recorders[d]->seen();
    for (std::size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i], 3 * i + d) << "destination " << d + 2 << ", frame " << i;
    }
  }
}

// The loop posts the frames of one recv in runs of at most 64 consecutive
// frames for one host. One write carrying 100 frames for node 2, then 100
// alternating between nodes 2 and 3, then 70 more for node 2, crosses both
// run boundaries (size and destination); each host must see its frames in
// wire order.
TEST(TcpTest, OneRecvOfRunsForTwoHostsArrivesInOrder) {
  TcpRuntime runtime;
  auto& two = runtime.add(std::make_unique<SequenceRecorder>(NodeId{2}));
  auto& three = runtime.add(std::make_unique<SequenceRecorder>(NodeId{3}));
  auto* recorder_two = static_cast<SequenceRecorder*>(&two.actor());
  auto* recorder_three = static_cast<SequenceRecorder*>(&three.actor());

  Bytes stream;
  std::vector<std::uint32_t> want_two, want_three;
  std::uint32_t seq = 0;
  const auto append = [&](NodeId to) {
    const Bytes frame = encode_frame({NodeId{9}, to, proto::Heartbeat{{AttemptId{seq}}}});
    stream.insert(stream.end(), frame.begin(), frame.end());
    (to == NodeId{2} ? want_two : want_three).push_back(seq++);
  };
  for (int i = 0; i < 100; ++i) append(NodeId{2});
  for (int i = 0; i < 100; ++i) append(NodeId{i % 2 == 0 ? 2u : 3u});
  for (int i = 0; i < 70; ++i) append(NodeId{2});

  const int fd = connect_loopback(runtime.port_of(NodeId{2}));
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  EXPECT_TRUE(eventually([&] {
    return recorder_two->count() == want_two.size() &&
           recorder_three->count() == want_three.size();
  }));
  EXPECT_EQ(recorder_two->seen(), want_two);
  EXPECT_EQ(recorder_three->seen(), want_three);
  ::close(fd);
}

// stop_all on a runtime while a peer runtime streams frames into it: its
// loop is joined while runs are being posted, and the sender keeps routing
// to the vanished peer. Both shut down cleanly (the tsan CI job runs this).
TEST(TcpTest, StopAllWhileAPeerStreamsFramesIn) {
  auto receiver = std::make_unique<TcpRuntime>();
  TcpRuntime sender;
  auto& host = receiver->add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder = static_cast<Recorder*>(&host.actor());
  sender.add(std::make_unique<Recorder>(NodeId{1}));
  sender.add_remote(NodeId{2}, receiver->port_of(NodeId{2}));

  std::atomic<bool> stop{false};
  std::thread streamer([&] {
    std::vector<proto::Envelope> turn;
    while (!stop.load()) {
      turn.assign(32, proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
      sender.route_batch(turn);
      std::this_thread::sleep_for(50us);  // bounds the sender's queue
    }
  });
  EXPECT_TRUE(eventually([&] { return recorder->messages() > 1000; }));
  receiver->stop_all();  // destroys the recorder
  receiver.reset();
  std::this_thread::sleep_for(20ms);  // routes to a closed listener
  stop.store(true);
  streamer.join();
  sender.stop_all();
}

#if defined(__linux__)
TEST(TcpTest, LoopThreadIsNamedAfterItsFirstHost) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{4711}));
  runtime.add(std::make_unique<Recorder>(NodeId{4712}));
  int named = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(entry.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name == "tcp-4711") ++named;
    EXPECT_NE(name, "tcp-4712");
  }
  EXPECT_EQ(named, 1);
}
#endif

// drop_connection closes the pooled channel and the next send opens a fresh
// one. Frames routed while the drop is under way may be lost, but none
// arrives out of order, and once one frame has crossed the fresh connection
// every later frame does.
TEST(TcpTest, DropConnectionReconnectsOnTheNextSend) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& host = runtime.add(std::make_unique<SequenceRecorder>(NodeId{2}));
  auto* recorder = static_cast<SequenceRecorder*>(&host.actor());
  std::uint32_t seq = 0;
  const auto send = [&] {
    runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{{AttemptId{seq++}}}});
  };
  for (int i = 0; i < 50; ++i) send();
  ASSERT_TRUE(eventually([&] { return recorder->count() == 50; }));

  runtime.drop_connection(NodeId{2});
  ASSERT_TRUE(eventually([&] {
    send();
    return eventually([&] { return recorder->count() > 50; }, 20ms);
  }));
  const std::uint32_t first_of_last = seq;
  for (int i = 0; i < 100; ++i) send();
  ASSERT_TRUE(eventually([&] {
    const auto seen = recorder->seen();
    return !seen.empty() && seen.back() == seq - 1;
  }));
  std::vector<std::uint32_t> seen = recorder->seen();
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end(),
                               std::greater_equal<>()),
            seen.end())
      << "a frame arrived out of order";
  ASSERT_GE(seen.size(), 150u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(seen[seen.size() - 100 + i], first_of_last + i);
  }

  // An unknown node has no channel to drop: the live one keeps its order.
  runtime.drop_connection(NodeId{99});
  send();
  ASSERT_TRUE(eventually([&] { return recorder->count() == seen.size() + 1; }));
  EXPECT_EQ(recorder->seen().back(), seq - 1);

  // After stop_all there is nothing to drop.
  runtime.stop_all();
  runtime.drop_connection(NodeId{2});
  runtime.drop_connection(NodeId{99});
}

#if defined(__linux__)
std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

// The event loop serves every inbound connection itself: accepting and
// reading 64 of them starts no thread.
TEST(TcpTest, InboundConnectionsStartNoThreads) {
  TcpRuntime runtime;
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder = static_cast<Recorder*>(&host.actor());
  const std::size_t threads = thread_count();

  const Bytes frame = encode_frame({NodeId{9}, NodeId{2}, proto::Heartbeat{}});
  Sockets clients;
  for (int i = 0; i < 64; ++i) {
    const int fd = connect_loopback(runtime.port_of(NodeId{2}));
    ASSERT_GE(fd, 0);
    clients.fds.push_back(fd);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }
  ASSERT_TRUE(eventually([&] { return recorder->messages() == 64; }));
  EXPECT_EQ(thread_count(), threads);
}

// Counts the log records whose message contains a needle.
class CountingSink final : public LogSink {
 public:
  explicit CountingSink(std::string needle) : needle_(std::move(needle)) {}
  void write(const LogRecord& record) override {
    if (record.message.find(needle_) != std::string_view::npos) ++count_;
  }
  [[nodiscard]] int count() const { return count_.load(); }

 private:
  std::string needle_;
  std::atomic<int> count_{0};
};

// Lowers the soft descriptor limit and captures the log for its lifetime;
// restores both on every exit path, since other tests may share the process.
class DescriptorLimit {
 public:
  DescriptorLimit(rlim_t soft, std::shared_ptr<LogSink> sink)
      : sink_(Logger::instance().sink()), level_(Logger::instance().level()) {
    Logger::instance().set_sink(std::move(sink));
    Logger::instance().set_level(LogLevel::kWarn);
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    lowered_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~DescriptorLimit() {
    restore();
    Logger::instance().set_sink(sink_);
    Logger::instance().set_level(level_);
  }
  DescriptorLimit(const DescriptorLimit&) = delete;
  DescriptorLimit& operator=(const DescriptorLimit&) = delete;

  [[nodiscard]] bool lowered() const { return lowered_; }
  void restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  std::shared_ptr<LogSink> sink_;
  LogLevel level_;
  rlimit saved_{};
  bool lowered_ = false;
};

int highest_open_fd() {
  int highest = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  return highest;
}

// utime + stime, in clock ticks, read from an open /proc/.../stat file.
long cpu_ticks(int stat_fd) {
  char buf[1024];
  const ssize_t n = ::pread(stat_fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return -1;
  buf[n] = '\0';
  // Field 3 starts two characters after the comm's closing parenthesis
  // (the comm may hold spaces); utime and stime are fields 14 and 15.
  const char* field = std::strrchr(buf, ')');
  if (field == nullptr) return -1;
  field += 2;
  for (int skipped = 3; skipped < 14; ++skipped) {
    field = std::strchr(field, ' ');
    if (field == nullptr) return -1;
    ++field;
  }
  char* end = nullptr;
  const long utime = std::strtol(field, &end, 10);
  return utime + std::strtol(end, nullptr, 10);
}

// With every descriptor taken, accept fails and the connection stays in the
// backlog. The loop must idle with one warning, not spin on the ready
// listener, and serve new connections once descriptors are free again.
void expect_accept_idles_at_the_limit(bool force_poll) {
  TcpConfig config;
  config.force_poll = force_poll;
  TcpRuntime runtime(config);
  auto& host = runtime.add(std::make_unique<Recorder>(NodeId{4801}));
  auto* recorder = static_cast<Recorder*>(&host.actor());
  const std::uint16_t port = runtime.port_of(host.id());
  std::string loop_stat;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(entry.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name == "tcp-4801") loop_stat = (entry.path() / "stat").string();
  }
  ASSERT_FALSE(loop_stat.empty());
  Sockets clients;
  // Opened before the limit drops: the stat file to re-read at the limit,
  // and sockets that connect once it is full.
  const int stat_fd = ::open(loop_stat.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(stat_fd, 0);
  clients.fds.push_back(stat_fd);
  std::vector<int> late;
  for (int i = 0; i < 4; ++i) {
    late.push_back(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_GE(late.back(), 0);
    clients.fds.push_back(late.back());
  }

  ASSERT_TRUE(eventually([&] { return recorder->started(); }));

  auto sink = std::make_shared<CountingSink>("accept failed");
  DescriptorLimit limit(static_cast<rlim_t>(highest_open_fd() + 41), sink);
  ASSERT_TRUE(limit.lowered());
  for (int i = 0; i < 1024; ++i) {
    const int fd = connect_loopback(port);
    if (fd < 0) break;
    clients.fds.push_back(fd);
  }
  ASSERT_LT(clients.fds.size(), 1024u) << "the lowered limit never took effect";
  for (const int fd : late) ASSERT_TRUE(connect_socket(fd, port));
  ASSERT_TRUE(eventually([&] { return sink->count() > 0; }));

  const long ticks_before = cpu_ticks(stat_fd);
  ASSERT_GE(ticks_before, 0);
  std::this_thread::sleep_for(300ms);
  const long ticks = cpu_ticks(stat_fd) - ticks_before;
  EXPECT_LE(ticks, 3) << "loop thread CPU ticks over 300 ms at the limit";
  EXPECT_LE(sink->count(), 2) << "\"accept failed\" records";

  limit.restore();
  clients.close_all();
  const Bytes frame = encode_frame({NodeId{9}, NodeId{4801}, proto::Heartbeat{}});
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  clients.fds.push_back(fd);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(eventually([&] { return recorder->messages() == 1; }));
}

TEST(TcpTest, AcceptAtTheDescriptorLimitDoesNotSpin) {
#if defined(TASKLETS_SANITIZE_VPTR)
  // UBSan's dynamic-type check reads memory through a pipe the first time it
  // meets a (type, vtable) pair; with no descriptor free, it reports an
  // invalid vptr on a valid object.
  GTEST_SKIP() << "UBSan's vptr check needs free descriptors";
#endif
  for (const bool force_poll : {false, true}) {
    SCOPED_TRACE(force_poll ? "poll backend" : "default backend");
    expect_accept_idles_at_the_limit(force_poll);
    if (HasFatalFailure()) return;
  }
}
#endif

// The tentpole's zero-allocation claim, measured: once the buffer pool and
// the channel's queues are warm, route() and a multi-destination
// route_batch() on the submitting thread perform no heap allocations at all.
TEST(TcpTest, SteadyStateSubmitPathDoesNotAllocate) {
  TcpRuntime runtime;
  runtime.add(std::make_unique<Recorder>(NodeId{1}));
  auto& b = runtime.add(std::make_unique<Recorder>(NodeId{2}));
  auto* recorder_b = static_cast<Recorder*>(&b.actor());
  auto& c = runtime.add(std::make_unique<Recorder>(NodeId{3}));
  auto* recorder_c = static_cast<Recorder*>(&c.actor());

  // Warm up: fill the pool, grow the queues, bind the metric statics.
  constexpr int kWarm = 300;
  for (int i = 0; i < kWarm; ++i) {
    runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  }
  ASSERT_TRUE(eventually([&] { return recorder_b->messages() == kWarm; }));

  // Measure one send at a time, waiting for delivery between sends so every
  // route() reuses the buffer the event loop just released.
  std::uint64_t allocs = 0;
  constexpr int kMeasured = 100;
  for (int i = 0; i < kMeasured; ++i) {
    t_alloc_count = 0;
    t_count_allocs = true;
    runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
    t_count_allocs = false;
    allocs += t_alloc_count;
    ASSERT_TRUE(
        eventually([&] { return recorder_b->messages() == kWarm + i + 1; }));
  }
  EXPECT_EQ(allocs, 0u);

  // A turn's outbox, interleaved across two destinations, through the
  // batched path an ActorHost's dispatch takes.
  std::array<proto::Envelope, 6> turn;
  const auto fill_turn = [&] {
    for (std::size_t j = 0; j < turn.size(); ++j) {
      turn[j] = proto::Envelope{NodeId{1}, NodeId{2 + j % 2}, proto::Heartbeat{}};
    }
  };
  const int b_base = recorder_b->messages();
  const int per_dest = static_cast<int>(turn.size() / 2);
  for (int i = 0; i < kWarm; ++i) {
    fill_turn();
    runtime.route_batch(turn);
  }
  ASSERT_TRUE(eventually([&] {
    return recorder_b->messages() == b_base + kWarm * per_dest &&
           recorder_c->messages() == kWarm * per_dest;
  }));
  allocs = 0;
  for (int i = 0; i < kMeasured; ++i) {
    fill_turn();
    t_alloc_count = 0;
    t_count_allocs = true;
    runtime.route_batch(turn);
    t_count_allocs = false;
    allocs += t_alloc_count;
    ASSERT_TRUE(eventually([&] {
      return recorder_c->messages() == (kWarm + i + 1) * per_dest &&
             recorder_b->messages() == b_base + (kWarm + i + 1) * per_dest;
    }));
  }
  EXPECT_EQ(allocs, 0u);
}


// --- Cross-runtime (multi-process shape) deployments -------------------------------

// A provider-side execution service that completes synchronously in the
// actor's own handler context (good enough for transport tests).
class InlineExecution final : public provider::ExecutionService {
 public:
  void execute(provider::ExecRequest request, provider::ExecDone done) override {
    proto::AttemptOutcome outcome = executor_.run(request);
    // The agent invokes `done` with the outbox of the current handler via
    // this immediate call (same thread, same context).
    pending_ = [outcome = std::move(outcome), done = std::move(done)](
                   SimTime now, proto::Outbox& out) mutable {
      done(std::move(outcome), now, out);
    };
  }

  // The completion must run with a live outbox; SyncProvider calls
  // complete_now() from within the same handler invocation that triggered
  // execute(), so results flow out through that handler's outbox.
  [[nodiscard]] bool has_pending() const { return static_cast<bool>(pending_); }
  void complete_now(SimTime now, proto::Outbox& out) {
    auto fn = std::move(pending_);
    pending_ = nullptr;
    fn(now, out);
  }

 private:
  provider::VmExecutor executor_;
  std::function<void(SimTime, proto::Outbox&)> pending_;
};

// Wraps a ProviderAgent so that executions requested during on_message are
// completed within the same handler invocation (synchronous provider).
class SyncProvider final : public proto::Actor {
 public:
  SyncProvider(NodeId id, NodeId broker)
      : Actor(id), agent_(id, broker, proto::Capability{}, execution_) {}

  void on_start(SimTime now, proto::Outbox& out) override {
    agent_.on_start(now, out);
  }
  void on_message(const proto::Envelope& envelope, SimTime now,
                  proto::Outbox& out) override {
    agent_.on_message(envelope, now, out);
    while (execution_.has_pending()) {
      execution_.complete_now(now, out);
    }
  }
  void on_timer(std::uint64_t timer_id, SimTime now, proto::Outbox& out) override {
    agent_.on_timer(timer_id, now, out);
  }

 private:
  InlineExecution execution_;
  provider::ProviderAgent agent_;
};

TEST(TcpTest, MiddlewareAcrossTwoRuntimes) {
  // Runtime A hosts the broker and the consumer; runtime B hosts the
  // provider — the shape of a real two-process deployment, connected only
  // through loopback TCP and static address-book entries.
  constexpr NodeId kBroker{1};
  constexpr NodeId kConsumer{2};
  constexpr NodeId kProvider{3};

  TcpRuntime site_a;
  TcpRuntime site_b;

  auto& broker_host = site_a.add(
      std::make_unique<broker::Broker>(kBroker, broker::make_qoc_aware()));
  auto* consumer_agent_raw = new consumer::ConsumerAgent(kConsumer, kBroker);
  auto& consumer_host =
      site_a.add(std::unique_ptr<proto::Actor>(consumer_agent_raw));
  (void)broker_host;

  site_b.add(std::make_unique<SyncProvider>(kProvider, kBroker));

  // Cross-wire the address books.
  site_a.add_remote(kProvider, site_b.port_of(kProvider));
  site_b.add_remote(kBroker, site_a.port_of(kBroker));
  site_b.add_remote(kConsumer, site_a.port_of(kConsumer));

  // Submit through the consumer actor on site A.
  auto body = core::compile_tasklet(core::kernels::kFib, {std::int64_t{14}});
  ASSERT_TRUE(body.is_ok());
  std::promise<proto::TaskletReport> promise;
  auto future = promise.get_future();
  consumer_host.post_closure([&](SimTime now, proto::Outbox& out) {
    proto::TaskletSpec spec;
    spec.id = TaskletId{1};
    spec.job = JobId{1};
    spec.body = std::move(*body);
    consumer_agent_raw->submit(
        std::move(spec),
        [&promise](const proto::TaskletReport& report) {
          promise.set_value(report);
        },
        now, out);
  });

  ASSERT_EQ(future.wait_for(30s), std::future_status::ready)
      << "cross-runtime round trip did not complete";
  const auto report = future.get();
  EXPECT_EQ(report.status, proto::TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(report.result), 377);
  EXPECT_EQ(report.executed_by, kProvider);
  EXPECT_GT(site_a.bytes_sent(), 0u);
  EXPECT_GT(site_b.bytes_sent(), 0u);
}

// --- Full middleware over TCP ------------------------------------------------------

TEST(TcpTest, FullMiddlewareStackOverTcp) {
  core::SystemConfig config;
  config.transport = core::Transport::kTcp;
  core::TaskletSystem system(config);
  system.add_provider();
  system.add_provider();
  auto body = core::compile_tasklet(core::kernels::kFib, {std::int64_t{16}});
  ASSERT_TRUE(body.is_ok());
  auto future = system.submit(std::move(body).value());
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  const auto report = future.get();
  EXPECT_EQ(report.status, proto::TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(report.result), 987);
}

TEST(TcpTest, BatchOverTcpWithRedundancy) {
  core::SystemConfig config;
  config.transport = core::Transport::kTcp;
  core::TaskletSystem system(config);
  for (int i = 0; i < 3; ++i) system.add_provider();
  proto::Qoc qoc;
  qoc.redundancy = 2;
  std::vector<proto::TaskletBody> bodies;
  for (int i = 0; i < 10; ++i) {
    auto body = core::compile_tasklet(core::kernels::kFib, {std::int64_t{12}});
    ASSERT_TRUE(body.is_ok());
    bodies.push_back(std::move(body).value());
  }
  auto futures = system.submit_batch(std::move(bodies), qoc);
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
    const auto report = future.get();
    EXPECT_EQ(report.status, proto::TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::int64_t>(report.result), 144);
  }
}

}  // namespace
}  // namespace tasklets::net
