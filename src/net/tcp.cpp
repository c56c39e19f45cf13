#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <pthread.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "common/log.hpp"
#include "common/metrics.hpp"

namespace tasklets::net {

namespace {

constexpr std::string_view kLog = "tcp";

// Frames batched into a single writev: each entry is one whole frame.
constexpr int kMaxIov = 128;

// Decoded frames posted to a host per mailbox lock. Bounded so the host
// starts on the first frames of a large recv while the loop decodes the
// rest: unbounded runs cost throughput and p50 latency (EXPERIMENTS.md,
// E14).
constexpr std::size_t kDeliveryRun = 64;

// How long a listener stays out of the interest set after accept ran out of
// descriptors, before the loop tries again.
constexpr std::chrono::milliseconds kAcceptRetry{100};

}  // namespace

struct TcpRuntime::NodeEntry {
  std::unique_ptr<ActorHost> host;
  int listen_fd = -1;
  std::uint16_t port = 0;
};

// One outbound connection per destination. Senders (any thread) append
// frames to `pending` under `mutex`; the loop thread owns everything else
// and drains pending into `writing` when woken. A failed channel is marked
// `dead`, removed from the map, and replaced by a fresh connection carrying
// its unsent frames. The replacement gets no replacement of its own until it
// has flushed its queue, so unsent frames survive one stale or reset
// connection but not two in a row.
struct TcpRuntime::Channel {
  // pending/writing swap roles on every flush; pre-sizing BOTH twins keeps
  // the steady-state enqueue path allocation-free from the very first frame
  // each buffer carries (a fresh zero-capacity vector would otherwise grow
  // once after its first swap into producer position).
  Channel() {
    pending.reserve(16);
    writing.reserve(16);
  }

  NodeId dest{};
  std::uint16_t port = 0;

  std::mutex mutex;  // guards pending / wake_queued / dead
  std::vector<Bytes> pending;
  bool wake_queued = false;
  bool dead = false;

  // Loop-thread-only.
  int fd = -1;
  bool connecting = false;
  bool want_write = false;
  int retries_left = 1;
  std::vector<Bytes> writing;
  std::size_t writing_begin = 0;
  std::size_t write_offset = 0;  // bytes of writing[writing_begin] sent
};

// One encoded frame of a turn on its way to a channel; `index` is the
// envelope's position in the turn.
struct TcpRuntime::Outgoing {
  NodeId to;
  std::uint16_t port = 0;
  std::uint32_t index = 0;
  Bytes frame;
};

struct TcpRuntime::Inbound {
  int fd = -1;
  FrameParser parser;
  Inbound(int fd_in, std::uint32_t max_frame_bytes)
      : fd(fd_in), parser(max_frame_bytes) {}
};

TcpRuntime::TcpRuntime(TcpConfig config)
    : config_(config), loop_(config.force_poll) {
  read_buf_.resize(256u << 10);
  run_.reserve(kDeliveryRun);
  // Both twins of each queue start with capacity, so a turn that wakes the
  // loop for several channels never grows the one it lands in.
  tasks_.reserve(64);
  dirty_.reserve(64);
  loop_.set_wake_handler([this] {
    // Reuse two member vectors per queue so the producer side keeps its
    // capacity (the steady-state send path must not allocate).
    static thread_local std::vector<std::function<void()>> tasks;
    static thread_local std::vector<std::shared_ptr<Channel>> dirty;
    // The swap hands this side's storage to the producers; make sure it has
    // capacity before it crosses over so enqueue never grows a
    // zero-capacity twin mid-send.
    if (tasks.capacity() == 0) tasks.reserve(64);
    if (dirty.capacity() == 0) dirty.reserve(64);
    {
      const std::scoped_lock lock(loop_in_mutex_);
      tasks.swap(tasks_);
      dirty.swap(dirty_);
    }
    for (auto& task : tasks) task();
    tasks.clear();
    for (auto& channel : dirty) loop_flush_channel(channel);
    dirty.clear();
  });
  loop_thread_ = std::thread([this] { loop_.run(); });
#if defined(__linux__)
  ::pthread_setname_np(loop_thread_.native_handle(), "tcp-loop");
#endif
}

TcpRuntime::~TcpRuntime() { stop_all(); }

int TcpRuntime::open_listener(std::uint16_t* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 4096) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  *port_out = ntohs(addr.sin_port);
  return fd;
}

ActorHost& TcpRuntime::add(std::unique_ptr<proto::Actor> actor, bool autostart,
                           HostEnv* env) {
  auto entry = std::make_unique<NodeEntry>();
  entry->host = std::make_unique<ActorHost>(std::move(actor),
                                            env != nullptr ? *env : *this);

  entry->listen_fd = open_listener(&entry->port);
  if (entry->listen_fd < 0) {
    TASKLETS_LOG(kError, kLog) << "failed to open listener for "
                               << entry->host->id().to_string();
  } else {
    loop_enqueue([this, raw = entry.get()] { loop_register_listener(raw); });
  }

  ActorHost& host = *entry->host;
  bool first = false;
  {
    const std::unique_lock lock(registry_mutex_);
    first = nodes_.empty();
    nodes_.emplace(host.id(), std::move(entry));
  }
#if defined(__linux__)
  // Named after its first host, as mailbox threads are, so /proc and
  // profilers tell the loops of co-resident runtimes apart.
  if (first) {
    const std::string name = "tcp-" + std::to_string(host.id().value());
    ::pthread_setname_np(loop_thread_.native_handle(), name.substr(0, 15).c_str());
  }
#endif
  if (autostart) host.start();
  return host;
}

void TcpRuntime::add_remote(NodeId id, std::uint16_t port) {
  const std::unique_lock lock(registry_mutex_);
  remotes_[id] = port;
}

std::uint16_t TcpRuntime::port_of(NodeId id) const {
  const std::shared_lock lock(registry_mutex_);
  const auto it = nodes_.find(id);
  return it == nodes_.end() ? 0 : it->second->port;
}

std::uint64_t TcpRuntime::bytes_sent() const noexcept {
  return bytes_sent_.load(std::memory_order_relaxed);
}

std::uint16_t TcpRuntime::port_locked(NodeId to) const {
  if (const auto it = nodes_.find(to); it != nodes_.end()) {
    return it->second->port;
  }
  if (const auto remote = remotes_.find(to); remote != remotes_.end()) {
    return remote->second;
  }
  return 0;
}

int TcpRuntime::connect_to(std::uint16_t port) const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (config_.sndbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes, sizeof(int));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- send path ---------------------------------------------------------------

void TcpRuntime::route(proto::Envelope envelope) { route_batch({&envelope, 1}); }

void TcpRuntime::route_batch(std::span<proto::Envelope> envelopes) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  // The calling thread's scratch keeps its capacity, so a warm turn
  // allocates nothing.
  thread_local std::vector<Outgoing> outgoing;
  thread_local std::vector<std::shared_ptr<Channel>> woken;
  outgoing.clear();
  {
    const std::shared_lock lock(registry_mutex_);
    for (std::size_t i = 0; i < envelopes.size(); ++i) {
      const std::uint16_t port = port_locked(envelopes[i].to);
      if (port == 0) continue;  // unknown peer: drop
      outgoing.push_back({envelopes[i].to, port, static_cast<std::uint32_t>(i), {}});
    }
  }

  // Build each [u32 len][payload] in one pooled buffer: zero heap
  // allocations once the pool is warm.
  for (Outgoing& out : outgoing) {
    out.frame = pool_.acquire();
    out.frame.resize(4);  // length placeholder, patched below
    proto::encode_into(envelopes[out.index], out.frame);
    const auto len = static_cast<std::uint32_t>(out.frame.size() - 4);
    std::memcpy(out.frame.data(), &len, 4);  // little-endian hosts only
  }
  // Group by destination, in turn order within each.
  std::sort(outgoing.begin(), outgoing.end(), [](const Outgoing& a, const Outgoing& b) {
    return a.to != b.to ? a.to < b.to : a.index < b.index;
  });
  for (std::size_t begin = 0; begin < outgoing.size();) {
    std::size_t end = begin + 1;
    while (end < outgoing.size() && outgoing[end].to == outgoing[begin].to) ++end;
    if (auto channel = enqueue_frames({outgoing.data() + begin, end - begin})) {
      woken.push_back(std::move(channel));
    }
    begin = end;
  }
  if (woken.empty()) return;
  {
    const std::scoped_lock lock(loop_in_mutex_);
    for (auto& channel : woken) dirty_.push_back(std::move(channel));
  }
  woken.clear();
  loop_.wake();
}

std::shared_ptr<TcpRuntime::Channel> TcpRuntime::enqueue_frames(
    std::span<Outgoing> run) {
  const NodeId to = run.front().to;
  // Two attempts: the first may land on a channel that just died; the
  // second re-looks it up (the failure path erased it) and takes its
  // replacement or creates one. If that one is dead too, the frames drop.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::shared_ptr<Channel> channel;
    {
      const std::scoped_lock lock(channels_mutex_);
      std::shared_ptr<Channel>& slot = channels_[to];
      if (!slot) {
        slot = std::make_shared<Channel>();
        slot->dest = to;
        slot->port = run.front().port;
      }
      channel = slot;
    }
    const std::scoped_lock lock(channel->mutex);
    if (channel->dead) continue;
    for (Outgoing& out : run) channel->pending.push_back(std::move(out.frame));
    if (channel->wake_queued) return nullptr;
    channel->wake_queued = true;
    return channel;
  }
  for (Outgoing& out : run) pool_.release(std::move(out.frame));
  return nullptr;
}

// --- event loop --------------------------------------------------------------

void TcpRuntime::loop_enqueue(std::function<void()> task) {
  {
    const std::scoped_lock lock(loop_in_mutex_);
    tasks_.push_back(std::move(task));
  }
  loop_.wake();
}

void TcpRuntime::loop_start_connect(const std::shared_ptr<Channel>& channel) {
  const int fd = connect_to(channel->port);
  if (fd < 0) {
    loop_fail_channel(channel);
    return;
  }
  channel->fd = fd;
  channel->connecting = true;
  channel->want_write = true;
  loop_.add(fd, kEventWrite, [this, channel](std::uint32_t events) {
    if (channel->connecting) {
      int err = 0;
      socklen_t err_len = sizeof err;
      ::getsockopt(channel->fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
      if (err != 0 || (events & kEventError) != 0) {
        loop_fail_channel(channel);
        return;
      }
      channel->connecting = false;
    } else if ((events & kEventError) != 0) {
      loop_fail_channel(channel);
      return;
    } else if ((events & kEventRead) != 0) {
      // Channels are send-only, so readability means the peer closed (FIN)
      // or reset. Detecting it here — instead of on the next failed write —
      // is what lets queued frames migrate to a fresh connection rather
      // than vanish into a half-closed socket's buffer.
      char probe[512];
      for (;;) {
        const ssize_t r = ::recv(channel->fd, probe, sizeof probe, 0);
        if (r > 0) continue;  // stray payload on a send-only socket: discard
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        loop_fail_channel(channel);
        return;
      }
    }
    loop_flush_channel(channel);
  });
}

void TcpRuntime::loop_flush_channel(const std::shared_ptr<Channel>& channel) {
  {
    const std::scoped_lock lock(channel->mutex);
    channel->wake_queued = false;
    if (channel->dead) return;
    if (channel->writing.empty()) {
      channel->writing.swap(channel->pending);
      channel->writing_begin = 0;
    } else {
      for (auto& frame : channel->pending) {
        channel->writing.push_back(std::move(frame));
      }
      channel->pending.clear();
    }
  }
  if (channel->fd < 0) {
    if (channel->writing_begin < channel->writing.size()) {
      loop_start_connect(channel);
    }
    return;
  }
  if (channel->connecting) return;  // flush resumes once connected

  const std::size_t depth = channel->writing.size() - channel->writing_begin;
  if (depth == 0) {
    if (channel->want_write) {
      channel->want_write = false;
      loop_.update(channel->fd, kEventRead);
    }
    return;
  }
  TASKLETS_OBSERVE("net.tcp.send_queue_depth", static_cast<double>(depth));

  while (channel->writing_begin < channel->writing.size()) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    for (std::size_t i = channel->writing_begin;
         i < channel->writing.size() && iovcnt < kMaxIov; ++i) {
      const Bytes& frame = channel->writing[i];
      const std::size_t skip = i == channel->writing_begin
                                   ? channel->write_offset
                                   : 0;
      iov[iovcnt].iov_base =
          const_cast<std::byte*>(frame.data()) + skip;
      iov[iovcnt].iov_len = frame.size() - skip;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(channel->fd, &msg, MSG_NOSIGNAL);
    TASKLETS_COUNT("net.tcp.writev_calls", 1);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        if (!channel->want_write) {
          channel->want_write = true;
          loop_.update(channel->fd, kEventRead | kEventWrite);
        }
        return;  // resume on writable
      }
      loop_fail_channel(channel);
      return;
    }
    bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
    TASKLETS_COUNT("net.tcp.bytes_out", n);
    auto remaining = static_cast<std::size_t>(n);
    std::uint64_t frames_done = 0;
    const std::size_t first_done = channel->writing_begin;
    while (remaining > 0) {
      Bytes& front = channel->writing[channel->writing_begin];
      const std::size_t left = front.size() - channel->write_offset;
      if (remaining >= left) {
        remaining -= left;
        channel->write_offset = 0;
        ++channel->writing_begin;
        ++frames_done;
      } else {
        channel->write_offset += remaining;
        remaining = 0;
      }
    }
    if (frames_done > 0) {
      pool_.release_many(channel->writing.data() + first_done, frames_done);
    }
    TASKLETS_COUNT("net.tcp.frames_out", frames_done);
    if (iovcnt > 1) TASKLETS_COUNT("net.tcp.frames_coalesced", frames_done);
  }
  channel->writing.clear();
  channel->writing_begin = 0;
  channel->retries_left = 1;
  if (channel->want_write) {
    channel->want_write = false;
    loop_.update(channel->fd, kEventRead);
  }
}

void TcpRuntime::loop_fail_channel(const std::shared_ptr<Channel>& channel) {
  if (channel->fd >= 0) {
    loop_.remove(channel->fd);
    ::close(channel->fd);
    channel->fd = -1;
  }
  channel->connecting = false;
  channel->want_write = false;
  channel->write_offset = 0;

  // Remove from the map first so concurrent senders recreate rather than
  // queue onto the corpse.
  {
    const std::scoped_lock lock(channels_mutex_);
    const auto it = channels_.find(channel->dest);
    if (it != channels_.end() && it->second == channel) channels_.erase(it);
  }
  std::vector<Bytes> unsent;
  for (std::size_t i = channel->writing_begin; i < channel->writing.size();
       ++i) {
    unsent.push_back(std::move(channel->writing[i]));
  }
  channel->writing.clear();
  channel->writing_begin = 0;
  {
    const std::scoped_lock lock(channel->mutex);
    channel->dead = true;
    for (auto& frame : channel->pending) unsent.push_back(std::move(frame));
    channel->pending.clear();
  }

  if (channel->retries_left <= 0 || unsent.empty() ||
      stopping_.load(std::memory_order_relaxed)) {
    for (auto& frame : unsent) pool_.release(std::move(frame));
    return;
  }
  // One fresh connection carries the unsent frames.
  auto fresh = std::make_shared<Channel>();
  fresh->dest = channel->dest;
  fresh->port = channel->port;
  fresh->retries_left = channel->retries_left - 1;
  fresh->writing = std::move(unsent);
  bool inserted = false;
  std::shared_ptr<Channel> existing;
  {
    const std::scoped_lock lock(channels_mutex_);
    const auto [it, ins] = channels_.try_emplace(channel->dest, fresh);
    inserted = ins;
    if (!ins) existing = it->second;
  }
  if (inserted) {
    loop_start_connect(fresh);
  } else {
    // A sender raced in with a brand-new channel; fold the retry frames
    // into it (order across the failure is already best-effort).
    {
      const std::scoped_lock lock(existing->mutex);
      for (auto& frame : fresh->writing) {
        existing->pending.push_back(std::move(frame));
      }
      existing->wake_queued = true;  // we flush it right here, on loop thread
    }
    loop_flush_channel(existing);
  }
}

void TcpRuntime::drop_connection(NodeId to) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  loop_enqueue([this, to] {
    std::shared_ptr<Channel> channel;
    {
      const std::scoped_lock lock(channels_mutex_);
      if (const auto it = channels_.find(to); it != channels_.end()) {
        channel = it->second;
        channels_.erase(it);
      }
    }
    if (!channel) return;
    if (channel->fd >= 0) {
      loop_.remove(channel->fd);
      ::close(channel->fd);
      channel->fd = -1;
    }
    channel->write_offset = 0;
    for (std::size_t i = channel->writing_begin; i < channel->writing.size();
         ++i) {
      pool_.release(std::move(channel->writing[i]));
    }
    channel->writing.clear();
    channel->writing_begin = 0;
    const std::scoped_lock lock(channel->mutex);
    channel->dead = true;
    for (auto& frame : channel->pending) pool_.release(std::move(frame));
    channel->pending.clear();
  });
}

void TcpRuntime::loop_register_listener(NodeEntry* entry) {
  loop_.add(entry->listen_fd, kEventRead,
            [this, entry](std::uint32_t) { loop_accept(entry); });
}

void TcpRuntime::loop_accept(NodeEntry* entry) {
  for (;;) {
    const int fd = ::accept4(entry->listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        loop_pause_accept(entry, err);
      } else if (err != EAGAIN && err != EWOULDBLOCK && err != ECONNABORTED) {
        TASKLETS_LOG(kWarn, kLog) << "accept failed: " << std::strerror(err);
      }
      return;
    }
    if (accept_starved_) {
      accept_starved_ = false;
      TASKLETS_LOG(kInfo, kLog) << "accepting again";
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto inbound = std::make_shared<Inbound>(fd, config_.max_frame_bytes);
    inbound_.emplace(fd, inbound);
    loop_.add(fd, kEventRead,
              [this, inbound](std::uint32_t) { loop_read(inbound); });
  }
}

void TcpRuntime::loop_pause_accept(NodeEntry* entry, int err) {
  // The connection stays in the backlog, so the level-triggered listener
  // would be ready again at once. An episode lasts until an accept succeeds.
  if (!accept_starved_) {
    accept_starved_ = true;
    TASKLETS_LOG(kWarn, kLog) << "accept failed: " << std::strerror(err)
                              << "; retrying every " << kAcceptRetry.count()
                              << " ms";
  }
  loop_.update(entry->listen_fd, 0);
  if (paused_.empty()) {
    // No signal says that a descriptor was freed, by this runtime or any
    // other part of the process, so retry on a timer.
    loop_.call_after(kAcceptRetry, [this] {
      for (NodeEntry* paused : paused_) loop_.update(paused->listen_fd, kEventRead);
      paused_.clear();
    });
  }
  paused_.push_back(entry);
}

void TcpRuntime::loop_read(const std::shared_ptr<Inbound>& inbound) {
  const auto post_run = [this] {
    if (run_.empty()) return;
    deliver(run_);
    run_.clear();
  };
  for (;;) {
    const ssize_t n =
        ::recv(inbound->fd, read_buf_.data(), read_buf_.size(), 0);
    if (n > 0) {
      TASKLETS_COUNT("net.tcp.bytes_in", n);
      inbound->parser.feed(read_buf_.data(), static_cast<std::size_t>(n));
      // The frames of this recv go out in runs of consecutive frames for
      // one host, at most kDeliveryRun each.
      for (;;) {
        const auto frame = inbound->parser.next();
        if (frame.empty()) break;
        TASKLETS_COUNT("net.tcp.frames_in", 1);
        auto envelope = proto::decode(frame);
        if (!envelope.is_ok()) {
          TASKLETS_LOG(kWarn, kLog) << "undecodable frame: "
                                    << envelope.status().to_string();
          post_run();
          loop_close_inbound(inbound);  // protocol confusion: drop the conn
          return;
        }
        if (!run_.empty() && (run_.size() == kDeliveryRun ||
                              run_.front().to != envelope->to)) {
          post_run();
        }
        run_.push_back(std::move(envelope).value());
      }
      post_run();
      if (inbound->parser.bad_frame()) {
        TASKLETS_LOG(kWarn, kLog) << "bad frame length; closing";
        loop_close_inbound(inbound);
        return;
      }
      continue;
    }
    if (n == 0) {
      loop_close_inbound(inbound);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    loop_close_inbound(inbound);
    return;
  }
}

void TcpRuntime::loop_close_inbound(const std::shared_ptr<Inbound>& inbound) {
  loop_.remove(inbound->fd);
  ::close(inbound->fd);
  inbound_.erase(inbound->fd);
}

void TcpRuntime::deliver(std::span<proto::Envelope> run) {
  // Post under the registry lock: stop_all unpublishes the hosts under the
  // exclusive lock before it stops them, so no post reaches a stopped host.
  const std::shared_lock lock(registry_mutex_);
  const auto it = nodes_.find(run.front().to);
  if (it != nodes_.end()) it->second->host->post_many(run);
}

void TcpRuntime::stop_all() {
  if (stopping_.exchange(true)) return;
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop is stopped: all socket state is exclusively ours now.
  for (auto& [fd, inbound] : inbound_) ::close(fd);
  inbound_.clear();
  {
    const std::scoped_lock lock(channels_mutex_);
    for (auto& [id, channel] : channels_) {
      if (channel->fd >= 0) ::close(channel->fd);
    }
    channels_.clear();
  }
  std::unordered_map<NodeId, std::unique_ptr<NodeEntry>> nodes;
  {
    const std::unique_lock lock(registry_mutex_);
    nodes = std::move(nodes_);
    nodes_.clear();
  }
  for (auto& [id, entry] : nodes) {
    if (entry->listen_fd >= 0) ::close(entry->listen_fd);
  }
  for (auto& [id, entry] : nodes) entry->host->stop();
}

}  // namespace tasklets::net
