#include "proto/messages.hpp"

namespace tasklets::proto {

namespace {

constexpr std::uint32_t kEnvelopeMagic = 0x54534B4C;  // "TSKL"

enum class Tag : std::uint8_t {
  kRegisterProvider = 0,
  kDeregisterProvider,
  kHeartbeat,
  kAttemptResult,
  kSubmitTasklet,
  kCancelTasklet,
  kAssignTasklet,
  kTaskletDone,
  kRegisterAck,
  kFetchProgram,
  kProgramData,
  kSubmitDag,
  kDagNodeResult,
  kDagStatus,
};

// --- field codecs -------------------------------------------------------------

void put_capability(ByteWriter& w, const Capability& c) {
  w.write_u8(static_cast<std::uint8_t>(c.device_class));
  w.write_f64(c.speed_fuel_per_sec);
  w.write_varint(c.slots);
  w.write_f64(c.cost_per_gfuel);
  w.write_f64(c.reliability);
  w.write_string(c.locality);
}

Result<Capability> get_capability(ByteReader& r) {
  Capability c;
  TASKLETS_ASSIGN_OR_RETURN(auto device_class, r.read_u8());
  if (device_class > static_cast<std::uint8_t>(DeviceClass::kMobile)) {
    return make_error(StatusCode::kDataLoss, "bad device class");
  }
  c.device_class = static_cast<DeviceClass>(device_class);
  TASKLETS_ASSIGN_OR_RETURN(c.speed_fuel_per_sec, r.read_f64());
  TASKLETS_ASSIGN_OR_RETURN(auto slots, r.read_varint());
  c.slots = static_cast<std::uint32_t>(slots);
  TASKLETS_ASSIGN_OR_RETURN(c.cost_per_gfuel, r.read_f64());
  TASKLETS_ASSIGN_OR_RETURN(c.reliability, r.read_f64());
  TASKLETS_ASSIGN_OR_RETURN(c.locality, r.read_string());
  return c;
}

void put_digest(ByteWriter& w, const store::Digest& d) {
  w.write_u64(d.hi);
  w.write_u64(d.lo);
}

Result<store::Digest> get_digest(ByteReader& r) {
  store::Digest d;
  TASKLETS_ASSIGN_OR_RETURN(d.hi, r.read_u64());
  TASKLETS_ASSIGN_OR_RETURN(d.lo, r.read_u64());
  return d;
}

void put_qoc(ByteWriter& w, const Qoc& q) {
  w.write_u8(static_cast<std::uint8_t>(q.speed));
  w.write_u8(static_cast<std::uint8_t>(q.locality));
  w.write_u8(q.redundancy);
  w.write_u8(q.max_reissues);
  w.write_i64(q.deadline);
  w.write_f64(q.cost_ceiling);
  w.write_u8(q.priority);
  w.write_bool(q.memoize);
}

Result<Qoc> get_qoc(ByteReader& r) {
  Qoc q;
  TASKLETS_ASSIGN_OR_RETURN(auto speed, r.read_u8());
  if (speed > static_cast<std::uint8_t>(SpeedGoal::kFast)) {
    return make_error(StatusCode::kDataLoss, "bad speed goal");
  }
  q.speed = static_cast<SpeedGoal>(speed);
  TASKLETS_ASSIGN_OR_RETURN(auto locality, r.read_u8());
  if (locality > static_cast<std::uint8_t>(Locality::kRemoteOnly)) {
    return make_error(StatusCode::kDataLoss, "bad locality");
  }
  q.locality = static_cast<Locality>(locality);
  TASKLETS_ASSIGN_OR_RETURN(q.redundancy, r.read_u8());
  TASKLETS_ASSIGN_OR_RETURN(q.max_reissues, r.read_u8());
  TASKLETS_ASSIGN_OR_RETURN(q.deadline, r.read_i64());
  TASKLETS_ASSIGN_OR_RETURN(q.cost_ceiling, r.read_f64());
  TASKLETS_ASSIGN_OR_RETURN(q.priority, r.read_u8());
  TASKLETS_ASSIGN_OR_RETURN(q.memoize, r.read_bool());
  return q;
}

void put_body(ByteWriter& w, const TaskletBody& body) {
  if (const auto* vm = std::get_if<VmBody>(&body)) {
    w.write_u8(0);
    w.write_bytes(vm->program);
    tvm::encode_args(w, vm->args);
  } else if (const auto* digest = std::get_if<DigestBody>(&body)) {
    w.write_u8(2);
    put_digest(w, digest->program_digest);
    tvm::encode_args(w, digest->args);
  } else {
    const auto& synth = std::get<SyntheticBody>(body);
    w.write_u8(1);
    w.write_varint(synth.fuel);
    w.write_i64(synth.result);
    w.write_varint(synth.payload_bytes);
  }
}

// GCC 12 false positive: the inactive variant alternative's vector members
// get flagged maybe-uninitialized when this inlines into Result's move path
// (-O2 / -fsanitize). Same pattern and suppression as tvm/marshal.cpp.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
Result<TaskletBody> get_body(ByteReader& r) {
  TASKLETS_ASSIGN_OR_RETURN(auto tag, r.read_u8());
  if (tag == 0) {
    VmBody vm;
    TASKLETS_ASSIGN_OR_RETURN(vm.program, r.read_bytes());
    TASKLETS_ASSIGN_OR_RETURN(vm.args, tvm::decode_args(r));
    return TaskletBody{std::move(vm)};
  }
  if (tag == 1) {
    SyntheticBody synth;
    TASKLETS_ASSIGN_OR_RETURN(synth.fuel, r.read_varint());
    TASKLETS_ASSIGN_OR_RETURN(synth.result, r.read_i64());
    TASKLETS_ASSIGN_OR_RETURN(synth.payload_bytes, r.read_varint());
    return TaskletBody{synth};
  }
  if (tag == 2) {
    DigestBody digest;
    TASKLETS_ASSIGN_OR_RETURN(digest.program_digest, get_digest(r));
    if (!digest.program_digest.valid()) {
      return make_error(StatusCode::kDataLoss, "null digest in body");
    }
    TASKLETS_ASSIGN_OR_RETURN(digest.args, tvm::decode_args(r));
    return TaskletBody{std::move(digest)};
  }
  return make_error(StatusCode::kDataLoss, "bad body tag");
}
#pragma GCC diagnostic pop

void put_trace(ByteWriter& w, const TraceContext& t) {
  w.write_varint(t.trace_id);
  w.write_varint(t.parent_span);
}

Result<TraceContext> get_trace(ByteReader& r) {
  TraceContext t;
  TASKLETS_ASSIGN_OR_RETURN(t.trace_id, r.read_varint());
  TASKLETS_ASSIGN_OR_RETURN(t.parent_span, r.read_varint());
  return t;
}

void put_outcome(ByteWriter& w, const AttemptOutcome& o) {
  w.write_u8(static_cast<std::uint8_t>(o.status));
  tvm::encode_arg(w, o.result);
  w.write_varint(o.fuel_used);
  w.write_varint(o.instructions);
  w.write_string(o.error);
  w.write_bytes(o.snapshot);
}

Result<AttemptOutcome> get_outcome(ByteReader& r) {
  AttemptOutcome o;
  TASKLETS_ASSIGN_OR_RETURN(auto status, r.read_u8());
  if (status > static_cast<std::uint8_t>(AttemptStatus::kSuspended)) {
    return make_error(StatusCode::kDataLoss, "bad attempt status");
  }
  o.status = static_cast<AttemptStatus>(status);
  TASKLETS_ASSIGN_OR_RETURN(o.result, tvm::decode_arg(r));
  TASKLETS_ASSIGN_OR_RETURN(o.fuel_used, r.read_varint());
  TASKLETS_ASSIGN_OR_RETURN(o.instructions, r.read_varint());
  TASKLETS_ASSIGN_OR_RETURN(o.error, r.read_string());
  TASKLETS_ASSIGN_OR_RETURN(o.snapshot, r.read_bytes());
  return o;
}

void put_report(ByteWriter& w, const TaskletReport& report) {
  w.write_u64(report.id.value());
  w.write_u64(report.job.value());
  w.write_u8(static_cast<std::uint8_t>(report.status));
  tvm::encode_arg(w, report.result);
  w.write_varint(report.fuel_used);
  w.write_varint(report.instructions);
  w.write_varint(report.attempts);
  w.write_u64(report.executed_by.value());
  w.write_i64(report.latency);
  w.write_string(report.error);
}

Result<TaskletReport> get_report(ByteReader& r) {
  TaskletReport report;
  TASKLETS_ASSIGN_OR_RETURN(auto id, r.read_u64());
  report.id = TaskletId{id};
  TASKLETS_ASSIGN_OR_RETURN(auto job, r.read_u64());
  report.job = JobId{job};
  TASKLETS_ASSIGN_OR_RETURN(auto status, r.read_u8());
  if (status > static_cast<std::uint8_t>(TaskletStatus::kExhausted)) {
    return make_error(StatusCode::kDataLoss, "bad tasklet status");
  }
  report.status = static_cast<TaskletStatus>(status);
  TASKLETS_ASSIGN_OR_RETURN(report.result, tvm::decode_arg(r));
  TASKLETS_ASSIGN_OR_RETURN(report.fuel_used, r.read_varint());
  TASKLETS_ASSIGN_OR_RETURN(report.instructions, r.read_varint());
  TASKLETS_ASSIGN_OR_RETURN(auto attempts, r.read_varint());
  report.attempts = static_cast<std::uint32_t>(attempts);
  TASKLETS_ASSIGN_OR_RETURN(auto executed_by, r.read_u64());
  report.executed_by = NodeId{executed_by};
  TASKLETS_ASSIGN_OR_RETURN(report.latency, r.read_i64());
  TASKLETS_ASSIGN_OR_RETURN(report.error, r.read_string());
  return report;
}

void put_dag_spec(ByteWriter& w, const dag::DagSpec& spec) {
  w.write_u64(spec.id.value());
  w.write_u64(spec.job.value());
  w.write_varint(spec.nodes.size());
  for (const dag::DagNode& node : spec.nodes) {
    put_body(w, node.body);
    w.write_varint(node.inputs.size());
    for (const dag::DagEdge& edge : node.inputs) {
      w.write_varint(edge.from_node);
      w.write_varint(edge.arg_slot);
    }
  }
  put_qoc(w, spec.qoc);
  w.write_string(spec.origin_locality);
  w.write_varint(spec.outputs.size());
  for (const std::uint32_t out : spec.outputs) w.write_varint(out);
}

// Same GCC 12 maybe-uninitialized false positive as get_body above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
Result<dag::DagSpec> get_dag_spec(ByteReader& r) {
  dag::DagSpec spec;
  TASKLETS_ASSIGN_OR_RETURN(auto id, r.read_u64());
  spec.id = DagId{id};
  TASKLETS_ASSIGN_OR_RETURN(auto job, r.read_u64());
  spec.job = JobId{job};
  TASKLETS_ASSIGN_OR_RETURN(auto node_count, r.read_varint());
  if (node_count == 0 || node_count > dag::kMaxNodes) {
    return make_error(StatusCode::kDataLoss, "bad dag node count");
  }
  spec.nodes.reserve(static_cast<std::size_t>(node_count));
  for (std::uint64_t i = 0; i < node_count; ++i) {
    dag::DagNode node;
    TASKLETS_ASSIGN_OR_RETURN(node.body, get_body(r));
    TASKLETS_ASSIGN_OR_RETURN(auto edge_count, r.read_varint());
    if (edge_count > node_count) {
      return make_error(StatusCode::kDataLoss, "bad dag edge count");
    }
    node.inputs.reserve(static_cast<std::size_t>(edge_count));
    for (std::uint64_t e = 0; e < edge_count; ++e) {
      dag::DagEdge edge;
      TASKLETS_ASSIGN_OR_RETURN(auto from, r.read_varint());
      if (from >= node_count) {
        return make_error(StatusCode::kDataLoss, "dag edge out of range");
      }
      edge.from_node = static_cast<std::uint32_t>(from);
      TASKLETS_ASSIGN_OR_RETURN(auto slot, r.read_varint());
      edge.arg_slot = static_cast<std::uint32_t>(slot);
      node.inputs.push_back(edge);
    }
    spec.nodes.push_back(std::move(node));
  }
  TASKLETS_ASSIGN_OR_RETURN(spec.qoc, get_qoc(r));
  TASKLETS_ASSIGN_OR_RETURN(spec.origin_locality, r.read_string());
  TASKLETS_ASSIGN_OR_RETURN(auto output_count, r.read_varint());
  if (output_count > node_count) {
    return make_error(StatusCode::kDataLoss, "bad dag output count");
  }
  spec.outputs.reserve(static_cast<std::size_t>(output_count));
  for (std::uint64_t i = 0; i < output_count; ++i) {
    TASKLETS_ASSIGN_OR_RETURN(auto out, r.read_varint());
    if (out >= node_count) {
      return make_error(StatusCode::kDataLoss, "dag output out of range");
    }
    spec.outputs.push_back(static_cast<std::uint32_t>(out));
  }
  return spec;
}
#pragma GCC diagnostic pop

// --- message-level codecs -----------------------------------------------------

struct PutVisitor {
  ByteWriter& w;

  void operator()(const RegisterProvider& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kRegisterProvider));
    put_capability(w, m.capability);
    w.write_varint(m.incarnation);
  }
  void operator()(const DeregisterProvider& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kDeregisterProvider));
    w.write_bool(m.draining);
  }
  void operator()(const Heartbeat& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kHeartbeat));
    w.write_varint(m.attempts.size());
    for (const AttemptId attempt : m.attempts) w.write_u64(attempt.value());
  }
  void operator()(const AttemptResult& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kAttemptResult));
    w.write_u64(m.attempt.value());
    w.write_u64(m.tasklet.value());
    put_outcome(w, m.outcome);
  }
  void operator()(const SubmitTasklet& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kSubmitTasklet));
    w.write_u64(m.spec.id.value());
    w.write_u64(m.spec.job.value());
    put_body(w, m.spec.body);
    put_qoc(w, m.spec.qoc);
    w.write_string(m.spec.origin_locality);
    put_trace(w, m.trace);
  }
  void operator()(const CancelTasklet& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kCancelTasklet));
    w.write_u64(m.tasklet.value());
  }
  void operator()(const AssignTasklet& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kAssignTasklet));
    w.write_u64(m.attempt.value());
    w.write_u64(m.tasklet.value());
    put_body(w, m.body);
    w.write_varint(m.max_fuel);
    w.write_bytes(m.resume_snapshot);
    put_trace(w, m.trace);
  }
  void operator()(const TaskletDone& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kTaskletDone));
    put_report(w, m.report);
  }
  void operator()(const RegisterAck& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kRegisterAck));
    w.write_varint(m.incarnation);
  }
  void operator()(const FetchProgram& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kFetchProgram));
    put_digest(w, m.program_digest);
  }
  void operator()(const ProgramData& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kProgramData));
    put_digest(w, m.program_digest);
    w.write_bytes(m.program);
  }
  void operator()(const SubmitDag& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kSubmitDag));
    put_dag_spec(w, m.spec);
    put_trace(w, m.trace);
  }
  void operator()(const DagNodeResult& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kDagNodeResult));
    w.write_u64(m.dag.value());
    w.write_varint(m.node);
    put_report(w, m.report);
  }
  void operator()(const DagStatus& m) {
    w.write_u8(static_cast<std::uint8_t>(Tag::kDagStatus));
    w.write_u64(m.dag.value());
    w.write_u64(m.job.value());
    w.write_u8(static_cast<std::uint8_t>(m.status));
    w.write_varint(m.nodes.size());
    for (const DagNodeDisposition d : m.nodes) {
      w.write_u8(static_cast<std::uint8_t>(d));
    }
    w.write_varint(m.outputs.size());
    for (const TaskletReport& report : m.outputs) put_report(w, report);
    w.write_i64(m.latency);
  }
};

Result<Message> get_message(ByteReader& r) {
  TASKLETS_ASSIGN_OR_RETURN(auto tag, r.read_u8());
  switch (static_cast<Tag>(tag)) {
    case Tag::kRegisterProvider: {
      RegisterProvider m;
      TASKLETS_ASSIGN_OR_RETURN(m.capability, get_capability(r));
      TASKLETS_ASSIGN_OR_RETURN(m.incarnation, r.read_varint());
      return Message{std::move(m)};
    }
    case Tag::kDeregisterProvider: {
      DeregisterProvider m;
      TASKLETS_ASSIGN_OR_RETURN(m.draining, r.read_bool());
      return Message{m};
    }
    case Tag::kHeartbeat: {
      Heartbeat m;
      TASKLETS_ASSIGN_OR_RETURN(auto count, r.read_varint());
      if (count > r.remaining() / 8) {
        return make_error(StatusCode::kDataLoss, "bad heartbeat attempt count");
      }
      m.attempts.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        TASKLETS_ASSIGN_OR_RETURN(auto attempt, r.read_u64());
        m.attempts.push_back(AttemptId{attempt});
      }
      return Message{std::move(m)};
    }
    case Tag::kAttemptResult: {
      AttemptResult m;
      TASKLETS_ASSIGN_OR_RETURN(auto attempt, r.read_u64());
      m.attempt = AttemptId{attempt};
      TASKLETS_ASSIGN_OR_RETURN(auto tasklet, r.read_u64());
      m.tasklet = TaskletId{tasklet};
      TASKLETS_ASSIGN_OR_RETURN(m.outcome, get_outcome(r));
      return Message{std::move(m)};
    }
    case Tag::kSubmitTasklet: {
      SubmitTasklet m;
      TASKLETS_ASSIGN_OR_RETURN(auto id, r.read_u64());
      m.spec.id = TaskletId{id};
      TASKLETS_ASSIGN_OR_RETURN(auto job, r.read_u64());
      m.spec.job = JobId{job};
      TASKLETS_ASSIGN_OR_RETURN(m.spec.body, get_body(r));
      TASKLETS_ASSIGN_OR_RETURN(m.spec.qoc, get_qoc(r));
      TASKLETS_ASSIGN_OR_RETURN(m.spec.origin_locality, r.read_string());
      TASKLETS_ASSIGN_OR_RETURN(m.trace, get_trace(r));
      return Message{std::move(m)};
    }
    case Tag::kCancelTasklet: {
      CancelTasklet m;
      TASKLETS_ASSIGN_OR_RETURN(auto tasklet, r.read_u64());
      m.tasklet = TaskletId{tasklet};
      return Message{m};
    }
    case Tag::kAssignTasklet: {
      AssignTasklet m;
      TASKLETS_ASSIGN_OR_RETURN(auto attempt, r.read_u64());
      m.attempt = AttemptId{attempt};
      TASKLETS_ASSIGN_OR_RETURN(auto tasklet, r.read_u64());
      m.tasklet = TaskletId{tasklet};
      TASKLETS_ASSIGN_OR_RETURN(m.body, get_body(r));
      TASKLETS_ASSIGN_OR_RETURN(m.max_fuel, r.read_varint());
      TASKLETS_ASSIGN_OR_RETURN(m.resume_snapshot, r.read_bytes());
      TASKLETS_ASSIGN_OR_RETURN(m.trace, get_trace(r));
      return Message{std::move(m)};
    }
    case Tag::kTaskletDone: {
      TaskletDone m;
      TASKLETS_ASSIGN_OR_RETURN(m.report, get_report(r));
      return Message{std::move(m)};
    }
    case Tag::kRegisterAck: {
      RegisterAck m;
      TASKLETS_ASSIGN_OR_RETURN(m.incarnation, r.read_varint());
      return Message{m};
    }
    case Tag::kFetchProgram: {
      FetchProgram m;
      TASKLETS_ASSIGN_OR_RETURN(m.program_digest, get_digest(r));
      return Message{m};
    }
    case Tag::kProgramData: {
      ProgramData m;
      TASKLETS_ASSIGN_OR_RETURN(m.program_digest, get_digest(r));
      TASKLETS_ASSIGN_OR_RETURN(m.program, r.read_bytes());
      return Message{std::move(m)};
    }
    case Tag::kSubmitDag: {
      SubmitDag m;
      TASKLETS_ASSIGN_OR_RETURN(m.spec, get_dag_spec(r));
      TASKLETS_ASSIGN_OR_RETURN(m.trace, get_trace(r));
      return Message{std::move(m)};
    }
    case Tag::kDagNodeResult: {
      DagNodeResult m;
      TASKLETS_ASSIGN_OR_RETURN(auto dag, r.read_u64());
      m.dag = DagId{dag};
      TASKLETS_ASSIGN_OR_RETURN(auto node, r.read_varint());
      m.node = static_cast<std::uint32_t>(node);
      TASKLETS_ASSIGN_OR_RETURN(m.report, get_report(r));
      return Message{std::move(m)};
    }
    case Tag::kDagStatus: {
      DagStatus m;
      TASKLETS_ASSIGN_OR_RETURN(auto dag, r.read_u64());
      m.dag = DagId{dag};
      TASKLETS_ASSIGN_OR_RETURN(auto job, r.read_u64());
      m.job = JobId{job};
      TASKLETS_ASSIGN_OR_RETURN(auto status, r.read_u8());
      if (status > static_cast<std::uint8_t>(TaskletStatus::kExhausted)) {
        return make_error(StatusCode::kDataLoss, "bad dag status");
      }
      m.status = static_cast<TaskletStatus>(status);
      TASKLETS_ASSIGN_OR_RETURN(auto node_count, r.read_varint());
      if (node_count > dag::kMaxNodes) {
        return make_error(StatusCode::kDataLoss, "bad dag status node count");
      }
      m.nodes.reserve(static_cast<std::size_t>(node_count));
      for (std::uint64_t i = 0; i < node_count; ++i) {
        TASKLETS_ASSIGN_OR_RETURN(auto disposition, r.read_u8());
        if (disposition > static_cast<std::uint8_t>(DagNodeDisposition::kFailed)) {
          return make_error(StatusCode::kDataLoss, "bad dag node disposition");
        }
        m.nodes.push_back(static_cast<DagNodeDisposition>(disposition));
      }
      TASKLETS_ASSIGN_OR_RETURN(auto output_count, r.read_varint());
      if (output_count > node_count) {
        return make_error(StatusCode::kDataLoss, "bad dag output count");
      }
      m.outputs.reserve(static_cast<std::size_t>(output_count));
      for (std::uint64_t i = 0; i < output_count; ++i) {
        TASKLETS_ASSIGN_OR_RETURN(auto report, get_report(r));
        m.outputs.push_back(std::move(report));
      }
      TASKLETS_ASSIGN_OR_RETURN(m.latency, r.read_i64());
      return Message{std::move(m)};
    }
  }
  return make_error(StatusCode::kDataLoss, "unknown message tag");
}

}  // namespace

std::string_view message_name(const Message& m) noexcept {
  switch (static_cast<Tag>(m.index())) {
    case Tag::kRegisterProvider: return "RegisterProvider";
    case Tag::kDeregisterProvider: return "DeregisterProvider";
    case Tag::kHeartbeat: return "Heartbeat";
    case Tag::kAttemptResult: return "AttemptResult";
    case Tag::kSubmitTasklet: return "SubmitTasklet";
    case Tag::kCancelTasklet: return "CancelTasklet";
    case Tag::kAssignTasklet: return "AssignTasklet";
    case Tag::kTaskletDone: return "TaskletDone";
    case Tag::kRegisterAck: return "RegisterAck";
    case Tag::kFetchProgram: return "FetchProgram";
    case Tag::kProgramData: return "ProgramData";
    case Tag::kSubmitDag: return "SubmitDag";
    case Tag::kDagNodeResult: return "DagNodeResult";
    case Tag::kDagStatus: return "DagStatus";
  }
  return "?";
}

std::string_view to_string(DagNodeDisposition d) noexcept {
  switch (d) {
    case DagNodeDisposition::kPending: return "pending";
    case DagNodeDisposition::kExecuted: return "executed";
    case DagNodeDisposition::kMemo: return "memo";
    case DagNodeDisposition::kSkipped: return "skipped";
    case DagNodeDisposition::kFailed: return "failed";
  }
  return "?";
}

std::size_t message_wire_size(const Message& m) noexcept {
  constexpr std::size_t kHeader = 64;
  if (const auto* submit = std::get_if<SubmitTasklet>(&m)) {
    return kHeader + body_wire_size(submit->spec.body);
  }
  if (const auto* assign = std::get_if<AssignTasklet>(&m)) {
    return kHeader + body_wire_size(assign->body);
  }
  if (const auto* result = std::get_if<AttemptResult>(&m)) {
    return kHeader + tvm::arg_wire_size(result->outcome.result);
  }
  if (const auto* done = std::get_if<TaskletDone>(&m)) {
    return kHeader + tvm::arg_wire_size(done->report.result);
  }
  if (const auto* data = std::get_if<ProgramData>(&m)) {
    return kHeader + data->program.size();
  }
  if (const auto* dag = std::get_if<SubmitDag>(&m)) {
    std::size_t size = kHeader;
    for (const auto& node : dag->spec.nodes) {
      size += body_wire_size(node.body) + 8 * node.inputs.size() + 8;
    }
    return size;
  }
  if (const auto* beat = std::get_if<Heartbeat>(&m)) {
    return kHeader + 8 * beat->attempts.size();
  }
  if (const auto* node_result = std::get_if<DagNodeResult>(&m)) {
    return kHeader + tvm::arg_wire_size(node_result->report.result);
  }
  if (const auto* status = std::get_if<DagStatus>(&m)) {
    std::size_t size = kHeader + status->nodes.size();
    for (const auto& report : status->outputs) {
      size += 48 + tvm::arg_wire_size(report.result);
    }
    return size;
  }
  return kHeader;
}

Bytes encode(const Envelope& envelope) {
  Bytes out;
  encode_into(envelope, out);
  return out;
}

void encode_into(const Envelope& envelope, Bytes& out) {
  ByteWriter w(std::move(out));
  w.write_u32(kEnvelopeMagic);
  w.write_u64(envelope.from.value());
  w.write_u64(envelope.to.value());
  std::visit(PutVisitor{w}, envelope.payload);
  out = std::move(w).take();
}

Result<Envelope> decode(std::span<const std::byte> data) {
  ByteReader r(data);
  TASKLETS_ASSIGN_OR_RETURN(auto magic, r.read_u32());
  if (magic != kEnvelopeMagic) {
    return make_error(StatusCode::kDataLoss, "bad envelope magic");
  }
  Envelope envelope;
  TASKLETS_ASSIGN_OR_RETURN(auto from, r.read_u64());
  envelope.from = NodeId{from};
  TASKLETS_ASSIGN_OR_RETURN(auto to, r.read_u64());
  envelope.to = NodeId{to};
  TASKLETS_ASSIGN_OR_RETURN(envelope.payload, get_message(r));
  if (!r.exhausted()) {
    return make_error(StatusCode::kDataLoss, "trailing bytes in envelope");
  }
  return envelope;
}

}  // namespace tasklets::proto
