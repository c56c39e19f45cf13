// Loopback TCP transport for protocol actors.
//
// Each node listens on an ephemeral 127.0.0.1 port; peers are discovered
// through the runtime's in-process address book (in a multi-machine
// deployment this would be a directory service — the framing and socket
// handling below are exactly what such a deployment uses). Envelopes travel
// as length-prefixed frames of the stable proto codec:
//
//   [u32 little-endian payload length][payload = proto::encode(envelope)]
//
// Delivery semantics: reliable and FIFO per sender->receiver connection
// while the connection lives; messages to unknown or dead peers are dropped
// (the middleware's re-issue machinery owns recovery, not the transport).
// One outbound connection per (sender node, target node) is pooled and
// re-established on demand after failures.
//
// One readiness event loop (net/event_loop.hpp) drives every listener,
// inbound and outbound socket of the runtime on one thread, named
// "tcp-<first host id>"; inbound connections start no threads. Senders
// append encoded frames to a per-destination write queue and wake the loop;
// the loop coalesces queued frames into writev batches and recycles their
// buffers through a BufferPool, so the steady-state send path performs zero
// per-frame heap allocations. This is what holds 10k+ provider connections
// in one process (bench/bench_swarm.cpp, experiment E14).
//
// Both hand-offs between the loop and the hosts' mailbox threads go in runs.
// A host's turn routes its whole outbox through route_batch: ports resolved
// under one registry lock, each destination's frames appended under one
// channel lock, at most one loop wake. The loop posts the frames decoded
// from one recv to their host in runs of consecutive frames for that host,
// at most 64 each, through ActorHost::post_many: one mailbox lock and at
// most one wake per run. The bound lets the host start on a run while the
// loop decodes the next.
//
// The loop and the hosts keep separate threads. Running the hosts' turns on
// the loop thread removes the hand-offs, but then decoding, handlers,
// encoding and syscalls share one core: a prototype of that design saved
// CPU yet lost throughput and p50 latency on pipeline_tcp (EXPERIMENTS.md,
// E14).
//
// A listener that cannot accept because the process is out of descriptors
// leaves the loop's interest set and is retried every 100 ms, however the
// descriptor is freed; the loop idles meanwhile and logs one warning per
// episode.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "net/event_loop.hpp"
#include "net/inproc.hpp"

namespace tasklets::net {

struct TcpConfig {
  std::uint32_t max_frame_bytes = 64u << 20;  // reject larger frames
  // Use the poll(2) backend even where epoll exists (tests exercise both
  // backends).
  bool force_poll = false;
  // Tests only: shrink SO_SNDBUF on outbound sockets to force partial writes
  // and EAGAIN storms. 0 = kernel default.
  int sndbuf_bytes = 0;
};

class TcpRuntime final : public Runtime {
 public:
  explicit TcpRuntime(TcpConfig config = {});
  ~TcpRuntime() override;

  TcpRuntime(const TcpRuntime&) = delete;
  TcpRuntime& operator=(const TcpRuntime&) = delete;

  // Adds an actor: opens its listener, registers it in the address book and
  // starts its mailbox thread (unless autostart is false).
  ActorHost& add(std::unique_ptr<proto::Actor> actor, bool autostart = true,
                 HostEnv* env = nullptr) override;

  // Serializes the envelope and sends it over the pooled connection to the
  // destination's listener. Unknown destination or I/O failure: dropped.
  // The same path as route_batch with one envelope.
  void route(proto::Envelope envelope) override;
  // Sends a turn's envelopes, in order per destination, with one registry
  // lock, one channel lock per destination and at most one loop wake.
  void route_batch(std::span<proto::Envelope> envelopes) override;

  [[nodiscard]] SimTime now() const override { return clock_.now(); }
  void stop_all() override;

  // Registers a peer hosted by ANOTHER TcpRuntime (another process/host in a
  // real deployment): envelopes to `id` are sent to 127.0.0.1:`port`. Local
  // nodes take precedence over remote entries with the same id.
  void add_remote(NodeId id, std::uint16_t port);

  // Listener port of a node (tests / external peers). 0 if unknown.
  [[nodiscard]] std::uint16_t port_of(NodeId id) const;
  // Forcibly closes the pooled outbound connection to `to` (if any). The
  // next send re-establishes it; in-flight frames on the old socket may be
  // lost: the protocol recovers them (a lost assign or result drops off the
  // provider's heartbeats and the broker re-issues it). Used by the
  // fault-injection layer to model connection resets.
  void drop_connection(NodeId to);
  // Bytes actually pushed through sockets (tests assert the wire was used).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept;

 private:
  struct NodeEntry;
  struct Channel;
  struct Inbound;
  struct Outgoing;

  // Listener port of `to`, local nodes first; 0 if unknown. Caller holds
  // registry_mutex_.
  [[nodiscard]] std::uint16_t port_locked(NodeId to) const;
  [[nodiscard]] static int open_listener(std::uint16_t* port_out);
  [[nodiscard]] int connect_to(std::uint16_t port) const;
  // Posts a run of envelopes, all for one host, to that host. Any thread.
  void deliver(std::span<proto::Envelope> run);

  // Loop-thread-only unless noted.
  void loop_enqueue(std::function<void()> task);          // any thread
  // Appends one destination's frames, in order, to its channel's queue
  // under one channel lock. Returns the channel when the loop must be woken
  // for it. Any thread.
  std::shared_ptr<Channel> enqueue_frames(std::span<Outgoing> run);
  void loop_flush_channel(const std::shared_ptr<Channel>& channel);
  void loop_start_connect(const std::shared_ptr<Channel>& channel);
  void loop_fail_channel(const std::shared_ptr<Channel>& channel);
  void loop_register_listener(NodeEntry* entry);
  void loop_accept(NodeEntry* entry);
  // Takes a listener out of the interest set after accept failed with
  // `err` for want of descriptors or memory, and re-arms it after a delay.
  void loop_pause_accept(NodeEntry* entry, int err);
  void loop_read(const std::shared_ptr<Inbound>& inbound);
  void loop_close_inbound(const std::shared_ptr<Inbound>& inbound);

  TcpConfig config_;
  SteadyClock clock_;

  mutable std::shared_mutex registry_mutex_;
  std::unordered_map<NodeId, std::unique_ptr<NodeEntry>> nodes_;
  std::unordered_map<NodeId, std::uint16_t> remotes_;

  EventLoop loop_;
  std::thread loop_thread_;
  BufferPool pool_;
  std::mutex loop_in_mutex_;  // guards tasks_ + dirty_ (producers -> loop)
  std::vector<std::function<void()>> tasks_;
  std::vector<std::shared_ptr<Channel>> dirty_;
  std::mutex channels_mutex_;
  std::unordered_map<NodeId, std::shared_ptr<Channel>> channels_;
  // Loop-thread-only: live inbound connections, a reusable read buffer and
  // the decoded frames of the run loop_read is gathering.
  std::unordered_map<int, std::shared_ptr<Inbound>> inbound_;
  std::vector<std::byte> read_buf_;
  std::vector<proto::Envelope> run_;
  // Loop-thread-only: listeners waiting out a descriptor shortage, and
  // whether the current shortage has been logged.
  std::vector<NodeEntry*> paused_;
  bool accept_starved_ = false;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace tasklets::net
