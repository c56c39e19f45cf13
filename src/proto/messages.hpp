// Wire protocol between consumers, the broker and providers.
//
// Every message has a stable binary encoding so the same protocol runs over
// the in-process transport, loopback TCP, and the simulator (which skips
// encoding but shares the types). The codec is versioned through the
// envelope magic.
#pragma once

#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/trace.hpp"
#include "dag/dag.hpp"
#include "proto/types.hpp"

namespace tasklets::proto {

// --- Provider -> Broker -------------------------------------------------------

struct RegisterProvider {
  Capability capability;
  // Monotonic per-provider-process registration epoch. The broker treats a
  // re-registration with the *same* incarnation as a retransmit (refresh +
  // re-ack, in-flight work untouched) and a *different* one as a restart
  // (in-flight attempts re-issued). 0 = legacy sender: every registration
  // is a restart.
  std::uint64_t incarnation = 0;
};

struct DeregisterProvider {
  // true = the provider is draining: it will checkpoint in-flight work and
  // report it as suspended shortly — the broker waits (up to its drain
  // grace) instead of re-issuing immediately. false = in-flight work is
  // re-issued right away.
  bool draining = false;
};

// Liveness beat (r5): the ascending ids of every attempt the provider holds
// — accepted and not yet answered, running or parked on a program fetch.
// The broker fences and re-issues an attempt that two consecutive beats omit.
struct Heartbeat {
  std::vector<AttemptId> attempts;
};

// Provider's answer to an assignment.
struct AttemptResult {
  AttemptId attempt;
  TaskletId tasklet;
  AttemptOutcome outcome;
};

// --- Consumer -> Broker -------------------------------------------------------

struct SubmitTasklet {
  TaskletSpec spec;
  // Tracing context (0/0 when tracing is off). trace_id identifies the
  // tasklet's trace; parent_span is the consumer's root "submit" span.
  TraceContext trace;
};

struct CancelTasklet {
  TaskletId tasklet;
};

// --- Broker -> Provider -------------------------------------------------------

struct AssignTasklet {
  AttemptId attempt;
  TaskletId tasklet;
  TaskletBody body;
  std::uint64_t max_fuel = 0;  // 0 = provider default
  // Non-empty when this assignment continues a migrated execution: the
  // provider resumes from this TVM snapshot instead of starting over.
  Bytes resume_snapshot;
  // Tracing context; parent_span is the broker's per-attempt span.
  TraceContext trace;
};

// --- Broker -> Consumer -------------------------------------------------------

struct TaskletDone {
  TaskletReport report;
};

// Broker -> Provider: acknowledges a RegisterProvider. Registration is
// at-least-once — the provider keeps re-sending RegisterProvider on its
// heartbeat cadence until the ack for its current incarnation arrives.
struct RegisterAck {
  std::uint64_t incarnation = 0;
};

// --- Content store (protocol r3) ---------------------------------------------
//
// Pull-on-miss for digest-addressed bodies. A provider handed a DigestBody
// it cannot resolve asks the broker; a broker handed a DigestBody submit it
// cannot resolve asks the consumer. Both directions are at-least-once: the
// requester re-sends on its retry cadence until ProgramData arrives (or it
// gives up and rejects/fails the work), and the receiver verifies the
// payload against the digest and treats duplicates as idempotent puts — so
// dropped, duplicated or corrupted frames are all safe.

struct FetchProgram {
  store::Digest program_digest;
};

struct ProgramData {
  store::Digest program_digest;
  Bytes program;  // serialized tvm::Program whose digest is program_digest
};

// --- Tasklet DAGs (protocol r4) -----------------------------------------------
//
// A consumer submits a whole dataflow graph with SubmitDag; the broker
// executes it node by node, delegating each finished node's result directly
// into its dependents (no consumer round trip between stages). Submission is
// at-least-once: the consumer re-sends SubmitDag on its retry cadence until
// node results or the terminal DagStatus arrive; the broker dedups by DagId
// and replays the retained terminal DagStatus for duplicates. Node-result
// delegation inherits the same property — DagNodeResult frames may arrive
// more than once and consumers must treat repeats as idempotent.

struct SubmitDag {
  dag::DagSpec spec;
  // trace_id identifies the DAG's trace; parent_span is the consumer's root
  // "dag" span. Broker-side node tasklets emit their spans into this trace.
  TraceContext trace;
};

// Per-node fate as reported in the terminal DagStatus.
enum class DagNodeDisposition : std::uint8_t {
  kPending = 0,  // never reached a terminal state (DAG failed elsewhere)
  kExecuted,     // completed through provider attempts
  kMemo,         // answered from the memo table (Merkle subtree hit)
  kSkipped,      // never demanded: every consumer of it was a memo hit
  kFailed,       // reached a terminal non-completed state
};

[[nodiscard]] std::string_view to_string(DagNodeDisposition d) noexcept;

// Broker -> Consumer: one DAG node reached a terminal state. Streamed as
// nodes finish so consumers can observe pipeline progress; only demanded
// nodes (executed, memo or failed) produce one.
struct DagNodeResult {
  DagId dag;
  std::uint32_t node = 0;
  TaskletReport report;
};

// Broker -> Consumer: the whole DAG reached a terminal state. `outputs`
// carries the reports of output_nodes(spec) in order; `nodes` records every
// node's disposition, indexed like spec.nodes.
struct DagStatus {
  DagId dag;
  JobId job;
  TaskletStatus status = TaskletStatus::kCompleted;
  std::vector<DagNodeDisposition> nodes;
  std::vector<TaskletReport> outputs;
  SimTime latency = 0;  // SubmitDag arrival -> terminal state
};

using Message =
    std::variant<RegisterProvider, DeregisterProvider, Heartbeat, AttemptResult,
                 SubmitTasklet, CancelTasklet, AssignTasklet, TaskletDone,
                 RegisterAck, FetchProgram, ProgramData, SubmitDag,
                 DagNodeResult, DagStatus>;

[[nodiscard]] std::string_view message_name(const Message& m) noexcept;

// Approximate wire size of a message: a fixed header estimate plus the
// dominant variable parts (bodies, results, program blobs, heartbeat attempt
// lists). Shared by the simulator's transfer-time model and the runtimes'
// byte counters, so both report the same "bytes on wire" for a given traffic
// mix.
[[nodiscard]] std::size_t message_wire_size(const Message& m) noexcept;

struct Envelope {
  NodeId from;
  NodeId to;
  Message payload;
};

// Wire framing: magic, from, to, type tag, payload. decode() rejects
// malformed frames with kDataLoss.
[[nodiscard]] Bytes encode(const Envelope& envelope);
// Appends the encoded envelope to `out`, reusing its capacity — the
// allocation-free form every send path uses (callers clear between frames
// when they want just one envelope per buffer).
void encode_into(const Envelope& envelope, Bytes& out);
[[nodiscard]] Result<Envelope> decode(std::span<const std::byte> data);

}  // namespace tasklets::proto
