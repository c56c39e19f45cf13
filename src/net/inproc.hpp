// Threaded in-process runtime for protocol actors.
//
// An ActorHost holds one actor with its mailbox and timers; a MailboxThread
// drains the mailboxes of the hosts it serves. All handler invocations for
// one host run one at a time, in turns that never overlap, so the actor
// needs no locking. Timers are implemented with re-arm-replaces semantics.
// Arbitrary closures can be posted into the actor's context — this is how
// execution services deliver completions.
//
// InProcRuntime serves all of its hosts from one mailbox thread, named
// "inproc". A message between two of its actors, or a closure an actor
// posts to itself, is only enqueued: it wakes no other thread. A turn takes
// the next ready host round-robin and runs one burst of at most kMaxBatch
// items, or fires the earliest due timer across the hosts between bursts.
//
// Who runs the turns: the serving thread, or a caller that drives. A
// driving post (ActorHost::post_closure_and_drive) enqueues like a plain
// post. If the serving thread is parked and no one else drives, the calling
// thread then runs the turns itself, through the serving thread's loop
// body, until nothing is ready or kMaxDrivenTurns turns have run, and wakes
// the serving thread only if work is left. So a submit to an idle runtime
// runs to completion on the caller's thread and wakes nobody. A plain post
// wakes the serving thread only when it is parked and no caller drives;
// during a drive it only enqueues, and the driver runs it or hands it back.
//
// The price of running handlers on whichever thread holds the turn: a
// handler or closure must never block on another actor of the same runtime
// (for example wait on a future that a co-hosted actor fulfils). That actor
// only runs after the blocking handler returns, so the wait never ends. The
// rule covers callers that drive too, since their turns run the same
// handlers. Long VM work belongs on a provider's worker pool, never in a
// turn.
//
// A standalone ActorHost(actor, env) is served by a mailbox thread of its
// own, named "actor-<id>", through the same code. TcpRuntime builds its
// hosts that way, since a TCP node stands for a separate process.
//
// Both crossings between a host and its runtime go in runs. A turn's whole
// outbox leaves through one HostEnv::route_batch call; the default routes
// envelope by envelope, and TcpRuntime overrides it to send the turn with
// one lock round per destination. Inbound, ActorHost::post_many enqueues a
// run of envelopes with one mailbox lock and readies or wakes the host at
// most once: TcpRuntime posts the frames of one recv that way.
//
// Delivery guarantees: reliable, FIFO per sender-receiver pair, no
// artificial latency (for latency/bandwidth models use the simulator; for
// real sockets use net/tcp.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/clock.hpp"
#include "proto/actor.hpp"

namespace tasklets::net {

class ActorHost;

// A closure executed in the actor's context with a fresh outbox.
using ActorClosure = std::function<void(SimTime, proto::Outbox&)>;

// What an ActorHost needs from its surrounding runtime: a clock and a way
// to hand off outbound envelopes. Implemented by InProcRuntime (direct
// mailbox delivery) and TcpRuntime (length-prefixed frames over loopback
// sockets, see net/tcp.hpp).
class HostEnv {
 public:
  virtual ~HostEnv() = default;
  virtual void route(proto::Envelope envelope) = 0;
  // Routes one turn's outbox in order, moving from `envelopes`. The default
  // calls route() per envelope, so a decorator that counts route() calls
  // (net/fault.hpp) still sees one per envelope.
  virtual void route_batch(std::span<proto::Envelope> envelopes) {
    for (auto& envelope : envelopes) route(std::move(envelope));
  }
  [[nodiscard]] virtual SimTime now() const = 0;
};

// A transport-agnostic runtime owning a set of hosts. Lets higher layers
// (core::TaskletSystem) swap the wire without caring which one runs.
class Runtime : public HostEnv {
 public:
  // Takes ownership of the actor. With autostart (default) the host starts
  // immediately; pass false when wiring (e.g. an execution service) must
  // finish before on_start may send messages, and call host.start()
  // afterwards. `env` overrides the environment the host's outbound
  // messages route through — a decorator (net/fault.hpp) passes itself so
  // it sits on every send while this runtime still owns the host.
  virtual ActorHost& add(std::unique_ptr<proto::Actor> actor,
                         bool autostart = true, HostEnv* env = nullptr) = 0;
  virtual void stop_all() = 0;
};

// A thread draining the mailboxes of the hosts it serves, and lending its
// turns to callers that drive while it is parked. The OS thread starts with
// the first host's start().
class MailboxThread {
 public:
  // Items handled per host turn: a burst amortizes lock traffic and lets
  // actors (via the batch brackets) and transports (via one outbox flush)
  // process a submit storm as one unit. Bounded so timers, stop requests
  // and the other hosts stay responsive under sustained load.
  static constexpr std::size_t kMaxBatch = 256;
  // Turns one driving post may run on its caller's thread before it hands
  // the rest back to the serving thread: bounds how long a submit is
  // borrowed for other work.
  static constexpr std::size_t kMaxDrivenTurns = 256;

  explicit MailboxThread(std::string name);
  ~MailboxThread();

  MailboxThread(const MailboxThread&) = delete;
  MailboxThread& operator=(const MailboxThread&) = delete;

  // Waits for a running drive, then joins the thread; no drive starts
  // afterwards. Queued work never runs; hosts must still be stopped (or
  // destroyed) before this object goes. Idempotent.
  void stop();

 private:
  friend class ActorHost;
  using Item = std::variant<proto::Envelope, ActorClosure>;

  // A pending timer, ordered by deadline. The host and timer id break ties
  // and make the key unique.
  struct Timer {
    SimTime due;
    ActorHost* host;
    std::uint64_t timer_id;
    friend bool operator<(const Timer& a, const Timer& b) noexcept {
      if (a.due != b.due) return a.due < b.due;
      if (a.host != b.host) return std::less<>{}(a.host, b.host);
      return a.timer_id < b.timer_id;
    }
  };

  void start(ActorHost& host);
  // Enqueues `item`; with `may_drive`, may run the turns on the calling
  // thread (see the file comment).
  void post(ActorHost& host, Item item, bool may_drive);
  // Enqueues `envelopes` in order under one lock and readies or wakes the
  // host at most once. Never drives.
  void post_many(ActorHost& host, std::span<proto::Envelope> envelopes);
  // After a post into `host`'s mailbox: queues the host for a turn and
  // drives or unparks as `post` describes. Called with `lock` held; may
  // release it.
  void schedule(std::unique_lock<std::mutex>& lock, ActorHost& host,
                bool may_drive);
  // Queues `host` for a turn. True when the serving thread is parked and no
  // caller drives: then the caller must unpark it or drive.
  bool make_ready(ActorHost& host);
  // Clears parked_ and notifies the serving thread. Releases `lock`.
  void unpark(std::unique_lock<std::mutex>& lock);
  void stop(ActorHost& host);
  void arm(ActorHost& host, const std::vector<proto::TimerRequest>& requests);
  void run();
  // The loop body the serving thread and a driver share: runs the next
  // turn, a due timer or a ready host's burst, and returns false when
  // nothing is ready. Called and returns with `lock` held.
  bool run_next_turn(std::unique_lock<std::mutex>& lock);
  // Runs one turn of `host`: its on_start, a due timer or a mailbox burst.
  // Called and returns with `lock` held; releases it while handlers run.
  void run_turn(std::unique_lock<std::mutex>& lock, ActorHost& host,
                const std::uint64_t* timer_id);
  // Runs turns on the calling thread while the serving thread stays
  // parked, then wakes it if work is left. Called with `lock` held; returns
  // with it released. A handler that throws ends the program, as it does
  // on the serving thread, instead of leaving the drive half done.
  void drive(std::unique_lock<std::mutex>& lock) noexcept;
  // Parks the serving thread until a waker clears parked_ or its deadline,
  // the earliest timer, passes.
  void park(std::unique_lock<std::mutex>& lock);

  std::string name_;
  SteadyClock clock_;  // timer deadlines, shared by every served host
  // The items of the running burst; touched by the thread holding the turn.
  std::vector<Item> burst_;

  std::mutex mutex_;  // guards everything below and each host's queue state
  std::condition_variable wake_;       // the serving thread parks here
  std::condition_variable turn_done_;  // stops wait here for a turn or drive
  std::deque<ActorHost*> ready_;       // hosts with work, in turn order
  std::set<Timer> timers_;
  ActorHost* current_ = nullptr;  // host whose handlers are running
  bool timer_next_ = true;        // a due timer goes before the next burst
  // The serving thread waits on wake_: a post or a hand-back must clear
  // this flag and notify, and only then may a caller drive.
  bool parked_ = false;
  SimTime park_deadline_ = 0;  // when the parked thread wakes by itself
  bool driving_ = false;       // a caller is running the turns
  bool stopping_ = false;
  std::thread thread_;
};

class ActorHost {
 public:
  // A host served by a mailbox thread of its own.
  ActorHost(std::unique_ptr<proto::Actor> actor, HostEnv& env);
  // A host served by `thread`, which must outlive it.
  ActorHost(std::unique_ptr<proto::Actor> actor, HostEnv& env,
            MailboxThread& thread);
  ~ActorHost();

  ActorHost(const ActorHost&) = delete;
  ActorHost& operator=(const ActorHost&) = delete;

  [[nodiscard]] NodeId id() const noexcept;
  [[nodiscard]] proto::Actor& actor() noexcept { return *actor_; }

  // Enqueues an envelope for delivery to this actor.
  void post(proto::Envelope envelope);
  // Enqueues a run of envelopes (moved from) in order, taking the mailbox
  // lock and readying or waking the serving thread once for the whole run.
  void post_many(std::span<proto::Envelope> envelopes);
  // Runs `fn` in the actor's context (serialized with handlers).
  void post_closure(ActorClosure fn);
  // post_closure, and when the serving thread is parked and no one else
  // drives, runs the serving thread's turns on the calling thread (at most
  // MailboxThread::kMaxDrivenTurns) before it returns. From a handler it
  // only enqueues.
  void post_closure_and_drive(ActorClosure fn);

  // Lets the serving thread run on_start, then whatever was posted.
  // Idempotent.
  void start();
  // Drops the mailbox and pending timers and refuses later posts. Called
  // from another thread, it returns only after a handler of this host that
  // is running has finished; a host with a thread of its own also joins it.
  // Idempotent; a stopped host never runs again.
  void stop();

  // True when the mailbox is empty — used by tests for quiescence
  // detection (not a synchronization primitive).
  [[nodiscard]] bool idle() const;

 private:
  friend class MailboxThread;
  enum class State : std::uint8_t { kCreated, kStarting, kRunning, kStopped };

  void dispatch_outbox(proto::Outbox& out);

  std::unique_ptr<proto::Actor> actor_;
  HostEnv& env_;
  std::unique_ptr<MailboxThread> own_thread_;  // standalone hosts only
  MailboxThread& thread_;

  // Guarded by thread_.mutex_.
  std::deque<MailboxThread::Item> mailbox_;
  std::map<std::uint64_t, SimTime> timers_;  // timer_id -> deadline
  State state_ = State::kCreated;
  bool queued_ = false;  // in thread_.ready_
};

class InProcRuntime final : public Runtime {
 public:
  InProcRuntime() = default;
  ~InProcRuntime() override;

  InProcRuntime(const InProcRuntime&) = delete;
  InProcRuntime& operator=(const InProcRuntime&) = delete;

  ActorHost& add(std::unique_ptr<proto::Actor> actor, bool autostart = true,
                 HostEnv* env = nullptr) override;

  // Routes an envelope to its destination host; unknown destinations are
  // dropped (the peer may have stopped — distributed systems shrug).
  void route(proto::Envelope envelope) override;

  [[nodiscard]] ActorHost* find(NodeId id);
  [[nodiscard]] SimTime now() const override { return clock_.now(); }

  // Waits for a running drive and joins the runtime thread, then destroys
  // all hosts (in reverse creation order). Idempotent; the runtime runs
  // nothing afterwards.
  void stop_all() override;

 private:
  SteadyClock clock_;
  MailboxThread thread_{"inproc"};
  mutable std::shared_mutex registry_mutex_;
  std::unordered_map<NodeId, ActorHost*> registry_;
  std::vector<std::unique_ptr<ActorHost>> hosts_;
};

}  // namespace tasklets::net
