// Tests for the wire protocol: envelope/message codec round trips, malformed
// frame rejection, and domain-type helpers.
#include <gtest/gtest.h>

#include "proto/messages.hpp"
#include "proto/types.hpp"

namespace tasklets::proto {
namespace {

Envelope round_trip(Envelope in) {
  const Bytes wire = encode(in);
  auto out = decode(wire);
  EXPECT_TRUE(out.is_ok()) << out.status().to_string();
  return out.is_ok() ? std::move(out).value() : Envelope{};
}

Capability sample_capability() {
  Capability c;
  c.device_class = DeviceClass::kSbc;
  c.speed_fuel_per_sec = 25e6;
  c.slots = 2;
  c.cost_per_gfuel = 0.25;
  c.reliability = 0.9;
  c.locality = "site-a";
  return c;
}

TEST(ProtoCodec, RegisterProviderRoundTrip) {
  Envelope in{NodeId{5}, NodeId{1}, RegisterProvider{sample_capability()}};
  const Envelope out = round_trip(in);
  EXPECT_EQ(out.from, NodeId{5});
  EXPECT_EQ(out.to, NodeId{1});
  const auto& m = std::get<RegisterProvider>(out.payload);
  EXPECT_EQ(m.capability, sample_capability());
}

TEST(ProtoCodec, RegisterProviderCarriesIncarnation) {
  // The incarnation number is what lets the broker tell a retransmitted
  // registration (same value) from a provider restart (new value).
  Envelope in{NodeId{5}, NodeId{1}, RegisterProvider{sample_capability(), 42}};
  const Envelope out = round_trip(in);
  EXPECT_EQ(std::get<RegisterProvider>(out.payload).incarnation, 42u);
}

TEST(ProtoCodec, RegisterAckRoundTrip) {
  const Envelope out = round_trip({NodeId{1}, NodeId{5}, RegisterAck{42}});
  EXPECT_EQ(std::get<RegisterAck>(out.payload).incarnation, 42u);
}

TEST(ProtoCodec, HeartbeatRoundTrip) {
  Heartbeat hb;
  hb.attempts = {AttemptId{3}, AttemptId{7}, AttemptId{1ULL << 40}};
  Envelope out = round_trip({NodeId{2}, NodeId{1}, hb});
  EXPECT_EQ(std::get<Heartbeat>(out.payload).attempts, hb.attempts);
  out = round_trip({NodeId{2}, NodeId{1}, Heartbeat{}});
  EXPECT_TRUE(std::get<Heartbeat>(out.payload).attempts.empty());

  // An id count larger than the rest of the frame can hold is rejected
  // before the decoder reserves room for it. Layout: magic(4) + from(8) +
  // to(8) + tag(1) + count varint + 8 bytes per id.
  Bytes wire = encode({NodeId{2}, NodeId{1}, Heartbeat{{AttemptId{9}}}});
  ASSERT_EQ(wire.size(), 30u);
  wire[21] = std::byte{2};
  EXPECT_EQ(decode(wire).status().code(), StatusCode::kDataLoss);
  // A count of 2^63 - 1, which no vector could reserve.
  Bytes forged(wire.begin(), wire.begin() + 21);
  forged.insert(forged.end(), 8, std::byte{0xFF});
  forged.push_back(std::byte{0x7F});
  forged.insert(forged.end(), wire.begin() + 22, wire.end());
  EXPECT_EQ(decode(forged).status().code(), StatusCode::kDataLoss);
}

TEST(ProtoCodec, DeregisterRoundTrip) {
  const Envelope out = round_trip({NodeId{2}, NodeId{1}, DeregisterProvider{}});
  EXPECT_TRUE(std::holds_alternative<DeregisterProvider>(out.payload));
}

TEST(ProtoCodec, SubmitTaskletVmBodyRoundTrip) {
  SubmitTasklet submit;
  submit.spec.id = TaskletId{42};
  submit.spec.job = JobId{7};
  VmBody body;
  body.program = {std::byte{1}, std::byte{2}, std::byte{3}};
  body.args = {std::int64_t{5}, 2.5, std::vector<std::int64_t>{1, 2}};
  submit.spec.body = body;
  submit.spec.qoc.speed = SpeedGoal::kFast;
  submit.spec.qoc.locality = Locality::kRemoteOnly;
  submit.spec.qoc.redundancy = 3;
  submit.spec.qoc.max_reissues = 5;
  submit.spec.qoc.deadline = 2 * kSecond;
  submit.spec.qoc.cost_ceiling = 1.5;
  submit.spec.qoc.priority = 7;
  submit.spec.origin_locality = "site-b";

  const Envelope out = round_trip({NodeId{9}, NodeId{1}, submit});
  const auto& m = std::get<SubmitTasklet>(out.payload);
  EXPECT_EQ(m.spec.id, TaskletId{42});
  EXPECT_EQ(m.spec.job, JobId{7});
  EXPECT_EQ(std::get<VmBody>(m.spec.body), body);
  EXPECT_EQ(m.spec.qoc, submit.spec.qoc);
  EXPECT_EQ(m.spec.origin_locality, "site-b");
}

TEST(ProtoCodec, AssignSyntheticBodyRoundTrip) {
  AssignTasklet assign;
  assign.attempt = AttemptId{11};
  assign.tasklet = TaskletId{12};
  SyntheticBody synth;
  synth.fuel = 1234567;
  synth.result = -9;
  synth.payload_bytes = 4096;
  assign.body = synth;
  assign.max_fuel = 1000;

  const Envelope out = round_trip({NodeId{1}, NodeId{3}, assign});
  const auto& m = std::get<AssignTasklet>(out.payload);
  EXPECT_EQ(m.attempt, AttemptId{11});
  EXPECT_EQ(std::get<SyntheticBody>(m.body), synth);
  EXPECT_EQ(m.max_fuel, 1000u);
}

TEST(ProtoCodec, AttemptResultRoundTrip) {
  AttemptResult result;
  result.attempt = AttemptId{4};
  result.tasklet = TaskletId{5};
  result.outcome.status = AttemptStatus::kTrap;
  result.outcome.error = "ABORTED: division by zero";
  result.outcome.fuel_used = 999;
  result.outcome.result = std::vector<double>{1.5, -2.5};

  const Envelope out = round_trip({NodeId{3}, NodeId{1}, result});
  const auto& m = std::get<AttemptResult>(out.payload);
  EXPECT_EQ(m.outcome, result.outcome);
}

TEST(ProtoCodec, TaskletDoneRoundTrip) {
  TaskletDone done;
  done.report.id = TaskletId{8};
  done.report.job = JobId{2};
  done.report.status = TaskletStatus::kCompleted;
  done.report.result = std::int64_t{55};
  done.report.fuel_used = 777;
  done.report.attempts = 2;
  done.report.executed_by = NodeId{6};
  done.report.latency = 3 * kMillisecond;

  const Envelope out = round_trip({NodeId{1}, NodeId{9}, done});
  const auto& m = std::get<TaskletDone>(out.payload);
  EXPECT_EQ(m.report.id, TaskletId{8});
  EXPECT_EQ(m.report.status, TaskletStatus::kCompleted);
  EXPECT_TRUE(tvm::args_equal(m.report.result, done.report.result));
  EXPECT_EQ(m.report.latency, 3 * kMillisecond);
}

TEST(ProtoCodec, CancelRoundTrip) {
  const Envelope out = round_trip({NodeId{9}, NodeId{1}, CancelTasklet{TaskletId{3}}});
  EXPECT_EQ(std::get<CancelTasklet>(out.payload).tasklet, TaskletId{3});
}

TEST(ProtoCodec, SubmitDigestBodyRoundTrip) {
  // r3: repeat submission naming the program by digest, opted into the memo.
  SubmitTasklet submit;
  submit.spec.id = TaskletId{43};
  DigestBody body;
  body.program_digest = store::Digest{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  body.args = {std::int64_t{15}, std::vector<double>{0.5, -1.0}};
  submit.spec.body = body;
  submit.spec.qoc.memoize = true;

  const Envelope out = round_trip({NodeId{9}, NodeId{1}, submit});
  const auto& m = std::get<SubmitTasklet>(out.payload);
  EXPECT_EQ(std::get<DigestBody>(m.spec.body), body);
  EXPECT_TRUE(m.spec.qoc.memoize);
}

TEST(ProtoCodec, AssignDigestBodyRoundTrip) {
  // r3: digest-only assignment to a warm provider.
  AssignTasklet assign;
  assign.attempt = AttemptId{4};
  assign.tasklet = TaskletId{43};
  DigestBody body;
  body.program_digest = store::Digest{7, 9};
  body.args = {std::int64_t{1}};
  assign.body = body;

  const Envelope out = round_trip({NodeId{1}, NodeId{3}, assign});
  const auto& m = std::get<AssignTasklet>(out.payload);
  EXPECT_EQ(m.attempt, AttemptId{4});
  EXPECT_EQ(std::get<DigestBody>(m.body), body);
}

TEST(ProtoCodec, FetchProgramRoundTrip) {
  const store::Digest digest{0xdeadbeefULL, 0xcafef00dULL};
  const Envelope out = round_trip({NodeId{3}, NodeId{1}, FetchProgram{digest}});
  EXPECT_EQ(std::get<FetchProgram>(out.payload).program_digest, digest);
}

TEST(ProtoCodec, ProgramDataRoundTrip) {
  ProgramData data;
  data.program_digest = store::Digest{1, 2};
  data.program = {std::byte{9}, std::byte{8}, std::byte{7}};
  const Envelope out = round_trip({NodeId{1}, NodeId{3}, data});
  const auto& m = std::get<ProgramData>(out.payload);
  EXPECT_EQ(m.program_digest, data.program_digest);
  EXPECT_EQ(m.program, data.program);
}

TEST(ProtoCodec, RejectsBadMagic) {
  Bytes wire = encode({NodeId{1}, NodeId{2}, Heartbeat{}});
  wire[0] = std::byte{0x00};
  EXPECT_EQ(decode(wire).status().code(), StatusCode::kDataLoss);
}

TEST(ProtoCodec, RejectsTruncatedFrames) {
  const Bytes wire = encode({NodeId{1}, NodeId{2},
                             SubmitTasklet{TaskletSpec{
                                 TaskletId{1}, JobId{1},
                                 SyntheticBody{100, 5, 64}, Qoc{}, "x"},
                                 TraceContext{}}});
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    const std::span<const std::byte> prefix(wire.data(), cut);
    EXPECT_FALSE(decode(prefix).is_ok()) << "cut=" << cut;
  }
}

TEST(ProtoCodec, RejectsTrailingBytes) {
  Bytes wire = encode({NodeId{1}, NodeId{2}, Heartbeat{}});
  wire.push_back(std::byte{7});
  EXPECT_FALSE(decode(wire).is_ok());
}

TEST(ProtoCodec, RejectsBadEnums) {
  // Corrupt the device class byte of a RegisterProvider frame.
  Bytes wire = encode({NodeId{1}, NodeId{2}, RegisterProvider{sample_capability()}});
  // Layout: magic(4) + from(8) + to(8) + tag(1) + device_class(1).
  wire[21] = std::byte{99};
  EXPECT_FALSE(decode(wire).is_ok());
}

TEST(ProtoTypes, MessageNames) {
  EXPECT_EQ(message_name(Message{Heartbeat{}}), "Heartbeat");
  EXPECT_EQ(message_name(Message{TaskletDone{}}), "TaskletDone");
}

TEST(ProtoTypes, BodyWireSize) {
  VmBody vm;
  vm.program = Bytes(100);
  vm.args = {std::int64_t{1}};
  EXPECT_EQ(body_wire_size(TaskletBody{vm}), 109u);
  EXPECT_EQ(body_wire_size(TaskletBody{SyntheticBody{0, 0, 2048}}), 2048u);
}

TEST(ProtoTypes, EnumToStrings) {
  EXPECT_EQ(to_string(DeviceClass::kServer), "server");
  EXPECT_EQ(to_string(DeviceClass::kMobile), "mobile");
  EXPECT_EQ(to_string(AttemptStatus::kProviderLost), "provider_lost");
  EXPECT_EQ(to_string(TaskletStatus::kDeadlineExceeded), "deadline_exceeded");
}

}  // namespace
}  // namespace tasklets::proto
