#include "net/inproc.hpp"

#if defined(__linux__)
#include <pthread.h>
#endif

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/metrics.hpp"

namespace tasklets::net {

namespace {

// The MailboxThread whose turns run on the calling thread, if any: its
// serving thread, or a caller while it drives. A post from that thread
// wakes no one and a driving post only enqueues; a stop() issued from one
// of its handlers does not wait for that handler to finish.
thread_local const MailboxThread* t_serving = nullptr;

// The park deadline of a serving thread that waits for a post only.
constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

void deliver(proto::Actor& actor, HostEnv& env,
             std::variant<proto::Envelope, ActorClosure>& item, proto::Outbox& out) {
  if (auto* envelope = std::get_if<proto::Envelope>(&item)) {
    actor.on_message(*envelope, env.now(), out);
  } else {
    std::get<ActorClosure>(item)(env.now(), out);
  }
}

}  // namespace

// --- MailboxThread ---------------------------------------------------------------

MailboxThread::MailboxThread(std::string name) : name_(std::move(name)) {
  burst_.reserve(kMaxBatch);
}

MailboxThread::~MailboxThread() { stop(); }

void MailboxThread::stop() {
  std::thread thread;
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
    parked_ = false;  // ends the park, and no drive starts from here on
    if (t_serving != this) turn_done_.wait(lock, [this] { return !driving_; });
    thread = std::move(thread_);
  }
  wake_.notify_all();
  if (thread.joinable()) thread.join();
}

void MailboxThread::start(ActorHost& host) {
  std::unique_lock lock(mutex_);
  if (host.state_ != ActorHost::State::kCreated) return;
  host.state_ = ActorHost::State::kStarting;
  if (make_ready(host)) {
    unpark(lock);
  } else if (!thread_.joinable() && !stopping_) {
    thread_ = std::thread([this] { run(); });
  }
}

void MailboxThread::post(ActorHost& host, Item item, bool may_drive) {
  std::unique_lock lock(mutex_);
  if (host.state_ == ActorHost::State::kStopped) return;
  host.mailbox_.push_back(std::move(item));
  schedule(lock, host, may_drive);
}

void MailboxThread::post_many(ActorHost& host,
                              std::span<proto::Envelope> envelopes) {
  std::unique_lock lock(mutex_);
  if (host.state_ == ActorHost::State::kStopped) return;
  for (auto& envelope : envelopes) host.mailbox_.emplace_back(std::move(envelope));
  schedule(lock, host, /*may_drive=*/false);
}

void MailboxThread::schedule(std::unique_lock<std::mutex>& lock, ActorHost& host,
                             bool may_drive) {
  if (host.state_ == ActorHost::State::kCreated || host.queued_) return;
  if (!make_ready(host)) return;
  if (may_drive && t_serving == nullptr) {
    drive(lock);
  } else {
    unpark(lock);
  }
}

bool MailboxThread::make_ready(ActorHost& host) {
  host.queued_ = true;
  ready_.push_back(&host);
  // The thread holding the turns is never parked, so a self-post costs no
  // wake-up. During a drive a post only enqueues: the driver runs it or
  // hands it back.
  return parked_ && !driving_;
}

void MailboxThread::unpark(std::unique_lock<std::mutex>& lock) {
  parked_ = false;
  lock.unlock();
  wake_.notify_one();
}

void MailboxThread::stop(ActorHost& host) {
  std::deque<Item> dropped;  // destroyed after the lock is released
  std::unique_lock lock(mutex_);
  if (host.state_ != ActorHost::State::kStopped) {
    host.state_ = ActorHost::State::kStopped;
    dropped.swap(host.mailbox_);
    if (host.queued_) std::erase(ready_, &host);
    host.queued_ = false;
    for (const auto& [timer_id, due] : host.timers_) {
      timers_.erase(Timer{due, &host, timer_id});
    }
    host.timers_.clear();
  }
  if (t_serving != this) {
    turn_done_.wait(lock, [this, &host] { return current_ != &host; });
  }
}

void MailboxThread::arm(ActorHost& host,
                        const std::vector<proto::TimerRequest>& requests) {
  const std::scoped_lock lock(mutex_);
  if (host.state_ == ActorHost::State::kStopped) return;
  const SimTime now = clock_.now();
  for (const auto& request : requests) {
    const SimTime due = now + request.delay;
    const auto [it, inserted] = host.timers_.try_emplace(request.timer_id, due);
    if (!inserted) {  // re-arm replaces the pending instance
      timers_.erase(Timer{it->second, &host, request.timer_id});
      it->second = due;
    }
    timers_.insert(Timer{due, &host, request.timer_id});
  }
}

void MailboxThread::run() {
  t_serving = this;
#if defined(__linux__)
  // Thread names cap at 15 chars; a name keeps the thread's CPU visible in
  // /proc and profilers.
  ::pthread_setname_np(::pthread_self(), name_.substr(0, 15).c_str());
#endif
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    // While a caller drives, the turns are its own: wait for the hand-back.
    if (driving_ || !run_next_turn(lock)) park(lock);
  }
}

void MailboxThread::park(std::unique_lock<std::mutex>& lock) {
  // A driver fires due timers itself and hands back if it leaves one due
  // before this deadline, so a park during a drive has none.
  park_deadline_ = driving_ || timers_.empty() ? kNoDeadline : timers_.begin()->due;
  parked_ = true;
  // Waking also on a cleared flag, not only on a ready host, keeps a
  // hand-back that only moves the deadline from being swallowed: later
  // posts would see parked_ false and never notify.
  const auto woken = [this] { return !parked_; };
  if (park_deadline_ == kNoDeadline) {
    wake_.wait(lock, woken);
  } else {
    wake_.wait_for(lock, std::chrono::nanoseconds(park_deadline_ - clock_.now()),
                   woken);
  }
  parked_ = false;
}

bool MailboxThread::run_next_turn(std::unique_lock<std::mutex>& lock) {
  // A due timer and a burst take turns, so neither starves the other.
  const bool timer_due =
      !timers_.empty() && timers_.begin()->due <= clock_.now();
  if (timer_due && (timer_next_ || ready_.empty())) {
    const Timer timer = *timers_.begin();
    timers_.erase(timers_.begin());
    timer.host->timers_.erase(timer.timer_id);
    timer_next_ = false;
    run_turn(lock, *timer.host, &timer.timer_id);
  } else if (!ready_.empty()) {
    ActorHost& host = *ready_.front();
    ready_.pop_front();
    timer_next_ = true;
    run_turn(lock, host, nullptr);
  } else {
    return false;
  }
  return true;
}

void MailboxThread::drive(std::unique_lock<std::mutex>& lock) noexcept {
  driving_ = true;
  t_serving = this;
  std::size_t turns = 0;
  while (turns < kMaxDrivenTurns && !stopping_ && run_next_turn(lock)) ++turns;
  t_serving = nullptr;
  driving_ = false;
  turn_done_.notify_all();  // a stop() may wait for the drive
  // Hand back when a host is still ready, or a timer armed during the
  // drive is due before the park deadline. A thread that woke mid-drive
  // parked again without a deadline, so then any timer counts.
  const bool hand_back =
      parked_ && (!ready_.empty() ||
                  (!timers_.empty() && timers_.begin()->due < park_deadline_));
  if (hand_back) {
    unpark(lock);
  } else {
    lock.unlock();
  }
  TASKLETS_COUNT("net.mailbox.driven", 1);
  if (hand_back) TASKLETS_COUNT("net.mailbox.drive_handbacks", 1);
}

void MailboxThread::run_turn(std::unique_lock<std::mutex>& lock, ActorHost& host,
                             const std::uint64_t* timer_id) {
  const bool starting =
      timer_id == nullptr && host.state_ == ActorHost::State::kStarting;
  if (timer_id == nullptr) {
    if (starting) {
      host.state_ = ActorHost::State::kRunning;
    } else {
      const std::size_t n = std::min(host.mailbox_.size(), kMaxBatch);
      for (std::size_t i = 0; i < n; ++i) {
        burst_.push_back(std::move(host.mailbox_.front()));
        host.mailbox_.pop_front();
      }
    }
    // Round-robin: a host with more work goes behind the other ready ones.
    host.queued_ = !host.mailbox_.empty();
    if (host.queued_) ready_.push_back(&host);
  }
  current_ = &host;
  lock.unlock();

  proto::Actor& actor = *host.actor_;
  proto::Outbox out(actor.id());
  if (timer_id != nullptr) {
    actor.on_timer(*timer_id, host.env_.now(), out);
  } else if (starting) {
    actor.on_start(host.env_.now(), out);
  } else if (burst_.size() == 1) {
    // Single item: deliver without batch brackets so the low-rate path
    // keeps its original per-message semantics and latency.
    deliver(actor, host.env_, burst_.front(), out);
  } else {
    actor.on_batch_begin(host.env_.now());
    for (auto& item : burst_) deliver(actor, host.env_, item, out);
    actor.on_batch_end(host.env_.now(), out);
  }
  host.dispatch_outbox(out);
  burst_.clear();

  lock.lock();
  current_ = nullptr;
  turn_done_.notify_all();
}

// --- ActorHost -----------------------------------------------------------------

ActorHost::ActorHost(std::unique_ptr<proto::Actor> actor, HostEnv& env)
    : actor_(std::move(actor)),
      env_(env),
      own_thread_(std::make_unique<MailboxThread>(
          "actor-" + std::to_string(actor_->id().value()))),
      thread_(*own_thread_) {}

ActorHost::ActorHost(std::unique_ptr<proto::Actor> actor, HostEnv& env,
                     MailboxThread& thread)
    : actor_(std::move(actor)), env_(env), thread_(thread) {}

ActorHost::~ActorHost() { stop(); }

NodeId ActorHost::id() const noexcept { return actor_->id(); }

void ActorHost::post(proto::Envelope envelope) {
  thread_.post(*this, std::move(envelope), /*may_drive=*/false);
}

void ActorHost::post_many(std::span<proto::Envelope> envelopes) {
  thread_.post_many(*this, envelopes);
}

void ActorHost::post_closure(ActorClosure fn) {
  thread_.post(*this, std::move(fn), /*may_drive=*/false);
}

void ActorHost::post_closure_and_drive(ActorClosure fn) {
  thread_.post(*this, std::move(fn), /*may_drive=*/true);
}

void ActorHost::start() { thread_.start(*this); }

void ActorHost::stop() {
  thread_.stop(*this);
  if (own_thread_ != nullptr) own_thread_->stop();
}

bool ActorHost::idle() const {
  const std::scoped_lock lock(thread_.mutex_);
  return mailbox_.empty();
}

void ActorHost::dispatch_outbox(proto::Outbox& out) {
  if (!out.timers().empty()) thread_.arm(*this, out.timers());
  std::vector<proto::Envelope> messages = out.take_messages();
  if (!messages.empty()) env_.route_batch(messages);
}

// --- InProcRuntime ---------------------------------------------------------------

InProcRuntime::~InProcRuntime() { stop_all(); }

ActorHost& InProcRuntime::add(std::unique_ptr<proto::Actor> actor, bool autostart,
                              HostEnv* env) {
  auto host = std::make_unique<ActorHost>(
      std::move(actor), env != nullptr ? *env : *this, thread_);
  ActorHost& ref = *host;
  {
    const std::unique_lock lock(registry_mutex_);
    registry_[ref.id()] = &ref;
    hosts_.push_back(std::move(host));
  }
  if (autostart) ref.start();
  return ref;
}

void InProcRuntime::route(proto::Envelope envelope) {
  TASKLETS_COUNT("net.inproc.routed", 1);
  // Post under the registry lock: stop_all() unpublishes a host under the
  // exclusive lock before destroying it, so a routed post never reaches a
  // destroyed host.
  const std::shared_lock lock(registry_mutex_);
  const auto it = registry_.find(envelope.to);
  if (it != registry_.end()) it->second->post(std::move(envelope));
}

ActorHost* InProcRuntime::find(NodeId id) {
  const std::shared_lock lock(registry_mutex_);
  const auto it = registry_.find(id);
  return it != registry_.end() ? it->second : nullptr;
}

void InProcRuntime::stop_all() {
  // Join the runtime thread first, after any running drive: then no handler
  // runs, and a post that still arrives only queues. Then unpublish the
  // hosts and destroy them in reverse creation order; their routes find
  // nothing.
  thread_.stop();
  std::vector<std::unique_ptr<ActorHost>> hosts;
  {
    const std::unique_lock lock(registry_mutex_);
    hosts = std::move(hosts_);
    hosts_.clear();
    registry_.clear();
  }
  while (!hosts.empty()) hosts.pop_back();
}

}  // namespace tasklets::net
