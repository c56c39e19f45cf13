// Readiness-based socket event loop: the engine under the swarm-scale TCP
// transport (net/tcp.hpp) and the bench harnesses that drive thousands of
// simulated providers through one process.
//
// One EventLoop owns one OS readiness queue (epoll on Linux, poll(2) as the
// portable fallback) and one thread calling run(). All fd registration and
// callback invocation happens on that thread; other threads talk to the
// loop only through wake(), which is async-signal-safe in spirit: it writes
// one byte/word to an eventfd (or self-pipe) and the loop invokes the
// installed wake handler on its own thread. This keeps every connection's
// state single-threaded without per-connection locks — the design YASMIN
// and every modern middleware transport converge on.
//
// The loop is deliberately minimal: one deferred call instead of timers, no
// thread pool, no ownership of fds beyond the interest list. Higher layers
// (TcpRuntime, bench swarm harnesses) compose connection state machines out
// of it with FrameParser (length-prefixed frame reassembly across arbitrary
// read boundaries) and BufferPool (recycled frame buffers so steady-state
// send paths allocate nothing).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace tasklets::net {

// Readiness interest / event bits (deliberately not the epoll constants so
// the poll backend shares them).
inline constexpr std::uint32_t kEventRead = 1u << 0;
inline constexpr std::uint32_t kEventWrite = 1u << 1;
// Reported only (never requested): error or peer hangup on the fd.
inline constexpr std::uint32_t kEventError = 1u << 2;

class EventLoop {
 public:
  // Called on the loop thread when the fd is ready; `events` is a bitmask of
  // kEventRead/kEventWrite/kEventError.
  using IoHandler = std::function<void(std::uint32_t events)>;

  // `force_poll` selects the poll(2) backend even where epoll is available
  // (tests exercise both; non-Linux builds always poll).
  explicit EventLoop(bool force_poll = false);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- loop-thread-only interface -----------------------------------------
  // Registers `fd` with an interest set; the handler stays installed until
  // remove(). The loop never closes registered fds — owners do.
  void add(int fd, std::uint32_t interest, IoHandler handler);
  // Replaces the interest set of a registered fd.
  void update(int fd, std::uint32_t interest);
  // Deregisters the fd. Safe to call from inside its own handler.
  void remove(int fd);
  // Runs `callback` once on the loop thread, no sooner than `delay` from
  // now. One call is pending at a time; a later call_after replaces it.
  void call_after(std::chrono::milliseconds delay, std::function<void()> callback);

  // Runs until stop(): blocks in epoll_wait/poll, dispatches handlers.
  // Call from exactly one thread.
  void run();

  // --- any-thread interface ------------------------------------------------
  // Makes run() return after the current dispatch round.
  void stop();
  // Wakes the loop; it invokes the wake handler (set_wake_handler) on the
  // loop thread. Coalescing: many wakes before the loop runs produce one
  // handler call.
  void wake();
  // Installed before run(); called on the loop thread after each wake().
  void set_wake_handler(std::function<void()> handler);

  [[nodiscard]] bool using_poll() const noexcept { return force_poll_; }

 private:
  struct Registration {
    std::uint32_t interest = 0;
    // Shared so a handler that remove()s its own fd mid-call stays alive
    // until the dispatch returns.
    std::shared_ptr<IoHandler> handler;
  };

  void dispatch(int fd, std::uint32_t events);
  [[nodiscard]] int wait_and_collect(std::vector<std::pair<int, std::uint32_t>>& ready);

  bool force_poll_ = false;
  int epoll_fd_ = -1;    // epoll backend only
  int wake_read_ = -1;   // eventfd, or pipe read end under poll fallback
  int wake_write_ = -1;  // == wake_read_ for eventfd; pipe write end otherwise
  std::function<void()> wake_handler_;
  std::function<void()> deferred_;  // call_after's callback, if pending
  std::chrono::steady_clock::time_point deferred_at_;
  std::atomic<bool> stop_{false};
  std::unordered_map<int, Registration> registrations_;
  // poll backend: rebuilt when the registration set changes.
  bool pollset_dirty_ = true;
  std::vector<int> poll_fds_order_;
};

// Recycles frame buffers between the send paths and the event loop so the
// steady-state submit path performs zero per-frame heap allocations: a
// released buffer keeps its capacity and the next acquire() reuses it.
// Thread-safe; bounded (excess buffers and oversized ones are freed rather
// than hoarded).
class BufferPool {
 public:
  explicit BufferPool(std::size_t max_pooled = 4096,
                      std::size_t max_buffer_bytes = 1u << 20)
      : max_pooled_(max_pooled), max_buffer_bytes_(max_buffer_bytes) {}

  [[nodiscard]] Bytes acquire() {
    const std::scoped_lock lock(mutex_);
    if (free_.empty()) return {};
    Bytes buffer = std::move(free_.back());
    free_.pop_back();
    buffer.clear();
    return buffer;
  }

  void release(Bytes buffer) {
    if (buffer.capacity() == 0 || buffer.capacity() > max_buffer_bytes_) return;
    const std::scoped_lock lock(mutex_);
    if (free_.size() >= max_pooled_) return;
    free_.push_back(std::move(buffer));
  }

  // Releases a contiguous run of buffers under one lock round-trip — the
  // event loop returns every frame a writev retired in a single call.
  void release_many(Bytes* buffers, std::size_t n) {
    const std::scoped_lock lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      Bytes& buffer = buffers[i];
      if (buffer.capacity() == 0 || buffer.capacity() > max_buffer_bytes_) {
        continue;
      }
      if (free_.size() >= max_pooled_) return;
      free_.push_back(std::move(buffer));
    }
  }

  [[nodiscard]] std::size_t pooled() const {
    const std::scoped_lock lock(mutex_);
    return free_.size();
  }

 private:
  std::size_t max_pooled_;
  std::size_t max_buffer_bytes_;
  mutable std::mutex mutex_;
  std::vector<Bytes> free_;
};

// Reassembles [u32-le length][payload] frames from an arbitrary byte
// stream: feed it whatever recv() returned and drain complete frames. The
// internal buffer is compacted lazily and reused across frames, so a busy
// connection settles into zero allocations for frames under its high-water
// capacity.
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  // Appends raw stream bytes.
  void feed(const std::byte* data, std::size_t len);

  // Next complete frame's payload (excluding the length prefix), or an empty
  // span when none is buffered. The span stays valid until the next feed()
  // or next() call. Sets `bad_frame` (sticky) on a length of 0 or beyond
  // max_frame_bytes — the connection should be dropped.
  [[nodiscard]] std::span<const std::byte> next();

  [[nodiscard]] bool bad_frame() const noexcept { return bad_frame_; }
  // Bytes buffered but not yet returned (tests).
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }

 private:
  std::uint32_t max_frame_bytes_;
  Bytes buffer_;
  std::size_t begin_ = 0;  // parse cursor into buffer_
  std::size_t end_ = 0;    // valid bytes end
  bool bad_frame_ = false;
};

}  // namespace tasklets::net
