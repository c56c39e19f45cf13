#include "net/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#define TASKLETS_HAVE_EPOLL 1
#else
#define TASKLETS_HAVE_EPOLL 0
#endif

#include "common/log.hpp"

namespace tasklets::net {

namespace {
constexpr std::string_view kLog = "event_loop";

#if TASKLETS_HAVE_EPOLL
std::uint32_t to_epoll(std::uint32_t interest) {
  std::uint32_t events = 0;
  if ((interest & kEventRead) != 0) events |= EPOLLIN;
  if ((interest & kEventWrite) != 0) events |= EPOLLOUT;
  return events;
}

std::uint32_t from_epoll(std::uint32_t events) {
  std::uint32_t out = 0;
  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) out |= kEventRead;
  if ((events & EPOLLOUT) != 0) out |= kEventWrite;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) out |= kEventError;
  return out;
}
#endif

short to_poll(std::uint32_t interest) {
  short events = 0;
  if ((interest & kEventRead) != 0) events |= POLLIN;
  if ((interest & kEventWrite) != 0) events |= POLLOUT;
  return events;
}

std::uint32_t from_poll(short events) {
  std::uint32_t out = 0;
  if ((events & POLLIN) != 0) out |= kEventRead;
  if ((events & POLLOUT) != 0) out |= kEventWrite;
  if ((events & (POLLERR | POLLHUP | POLLNVAL)) != 0) out |= kEventError;
  return out;
}
}  // namespace

EventLoop::EventLoop(bool force_poll) : force_poll_(force_poll) {
#if TASKLETS_HAVE_EPOLL
  if (!force_poll_) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      TASKLETS_LOG(kWarn, kLog) << "epoll_create1 failed; using poll backend";
      force_poll_ = true;
    }
  }
  if (!force_poll_) {
    wake_read_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    wake_write_ = wake_read_;
    if (wake_read_ >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = wake_read_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_, &ev);
    }
    return;
  }
#else
  force_poll_ = true;
#endif
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) == 0) {
    ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);
    wake_read_ = pipe_fds[0];
    wake_write_ = pipe_fds[1];
  }
}

EventLoop::~EventLoop() {
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0 && wake_write_ != wake_read_) ::close(wake_write_);
#if TASKLETS_HAVE_EPOLL
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
#endif
}

void EventLoop::set_wake_handler(std::function<void()> handler) {
  wake_handler_ = std::move(handler);
}

void EventLoop::add(int fd, std::uint32_t interest, IoHandler handler) {
  registrations_[fd] =
      Registration{interest, std::make_shared<IoHandler>(std::move(handler))};
  pollset_dirty_ = true;
#if TASKLETS_HAVE_EPOLL
  if (!force_poll_) {
    epoll_event ev{};
    ev.events = to_epoll(interest);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      TASKLETS_LOG(kError, kLog) << "epoll_ctl ADD failed for fd " << fd;
    }
  }
#endif
}

void EventLoop::update(int fd, std::uint32_t interest) {
  const auto it = registrations_.find(fd);
  if (it == registrations_.end()) return;
  if (it->second.interest == interest) return;
  it->second.interest = interest;
#if TASKLETS_HAVE_EPOLL
  if (!force_poll_) {
    epoll_event ev{};
    ev.events = to_epoll(interest);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
#endif
}

void EventLoop::remove(int fd) {
  registrations_.erase(fd);
  pollset_dirty_ = true;
#if TASKLETS_HAVE_EPOLL
  if (!force_poll_) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
}

void EventLoop::call_after(std::chrono::milliseconds delay,
                           std::function<void()> callback) {
  deferred_ = std::move(callback);
  deferred_at_ = std::chrono::steady_clock::now() + delay;
}

void EventLoop::wake() {
  if (wake_write_ < 0) return;
  const std::uint64_t one = 1;
  // A full pipe/eventfd already guarantees a pending wake; EAGAIN is fine.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &one, sizeof one);
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::dispatch(int fd, std::uint32_t events) {
  const auto it = registrations_.find(fd);
  if (it == registrations_.end()) return;  // removed by an earlier handler
  // Keep the handler alive across the call: it may remove(fd), erasing the
  // map entry out from under itself.
  const std::shared_ptr<IoHandler> handler = it->second.handler;
  (*handler)(events);
}

int EventLoop::wait_and_collect(std::vector<std::pair<int, std::uint32_t>>& ready) {
  ready.clear();
  // Block until the deferred call is due (rounded up), or indefinitely.
  int timeout_ms = -1;
  if (deferred_) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deferred_at_ - std::chrono::steady_clock::now());
    timeout_ms = static_cast<int>(std::max<std::int64_t>(left.count(), 0));
  }
#if TASKLETS_HAVE_EPOLL
  if (!force_poll_) {
    epoll_event events[256];
    const int n = ::epoll_wait(epoll_fd_, events, 256, timeout_ms);
    if (n < 0) return errno == EINTR ? 0 : -1;
    bool woke = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == wake_read_) {
        std::uint64_t drained = 0;
        while (::read(wake_read_, &drained, sizeof drained) > 0) {
        }
        woke = true;
        continue;
      }
      const int fd = events[i].data.fd;  // copy: epoll_data is packed
      ready.emplace_back(fd, from_epoll(events[i].events));
    }
    return woke ? 1 : 0;
  }
#endif
  // poll backend: rebuild the pollfd array only when registrations changed.
  static thread_local std::vector<pollfd> pollset;
  if (pollset_dirty_) {
    poll_fds_order_.clear();
    for (const auto& [fd, reg] : registrations_) poll_fds_order_.push_back(fd);
    pollset_dirty_ = false;
  }
  pollset.clear();
  pollset.push_back(pollfd{wake_read_, POLLIN, 0});
  for (const int fd : poll_fds_order_) {
    const auto it = registrations_.find(fd);
    if (it == registrations_.end()) continue;
    pollset.push_back(pollfd{fd, to_poll(it->second.interest), 0});
  }
  const int n = ::poll(pollset.data(), pollset.size(), timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  bool woke = false;
  if ((pollset[0].revents & POLLIN) != 0) {
    std::uint8_t drain[64];
    while (::read(wake_read_, drain, sizeof drain) > 0) {
    }
    woke = true;
  }
  for (std::size_t i = 1; i < pollset.size(); ++i) {
    if (pollset[i].revents == 0) continue;
    ready.emplace_back(pollset[i].fd, from_poll(pollset[i].revents));
  }
  return woke ? 1 : 0;
}

void EventLoop::run() {
  std::vector<std::pair<int, std::uint32_t>> ready;
  ready.reserve(256);
  while (!stop_.load(std::memory_order_acquire)) {
    const int woke = wait_and_collect(ready);
    if (woke < 0) {
      TASKLETS_LOG(kError, kLog) << "wait failed: " << std::strerror(errno);
      return;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (woke > 0 && wake_handler_) wake_handler_();
    for (const auto& [fd, events] : ready) dispatch(fd, events);
    if (deferred_ && std::chrono::steady_clock::now() >= deferred_at_) {
      std::exchange(deferred_, nullptr)();
    }
  }
}

// --- FrameParser -------------------------------------------------------------

void FrameParser::feed(const std::byte* data, std::size_t len) {
  if (len == 0) return;
  // Compact consumed bytes before growing: the steady state for small
  // frames is begin_ == end_ (everything parsed), which makes this a free
  // reset instead of a memmove.
  if (begin_ == end_) {
    begin_ = end_ = 0;
  } else if (begin_ > 0 && end_ + len > buffer_.size() && begin_ >= len) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ + len > buffer_.size()) buffer_.resize(end_ + len);
  std::memcpy(buffer_.data() + end_, data, len);
  end_ += len;
}

std::span<const std::byte> FrameParser::next() {
  if (bad_frame_ || end_ - begin_ < 4) return {};
  std::uint32_t len = 0;
  std::memcpy(&len, buffer_.data() + begin_, 4);  // little-endian hosts
  if (len == 0 || len > max_frame_bytes_) {
    bad_frame_ = true;
    return {};
  }
  if (end_ - begin_ < 4 + static_cast<std::size_t>(len)) return {};
  const std::span<const std::byte> frame(buffer_.data() + begin_ + 4, len);
  begin_ += 4 + static_cast<std::size_t>(len);
  return frame;
}

}  // namespace tasklets::net
