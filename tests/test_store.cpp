// Tests for the content-addressed tasklet store (protocol r3): digest
// stability, the blob store's refcount/LRU composition, the memo table, the
// VmExecutor cache cap, and the end-to-end dedup/memoization/fetch paths
// through the simulated cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "core/kernels.hpp"
#include "dag/dag.hpp"
#include "core/sim_cluster.hpp"
#include "core/system.hpp"
#include "provider/execution.hpp"
#include "store/blob_store.hpp"
#include "store/digest.hpp"
#include "store/memo.hpp"
#include "chaos_harness.hpp"
#include "tcl/compiler.hpp"
#include "tvm/program.hpp"

namespace tasklets {
namespace {

Bytes compile_bytes(std::string_view source) {
  auto program = tcl::compile(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return program->serialize();
}

Bytes blob_of(std::string_view text) {
  Bytes out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(static_cast<std::byte>(c));
  return out;
}

// --- digest -----------------------------------------------------------------------

TEST(DigestTest, EmptyAndDistinctInputs) {
  const auto empty = store::digest_bytes({});
  EXPECT_TRUE(empty.valid());  // 0/0 is reserved for "no digest"
  const auto a = store::digest_bytes(blob_of("tasklet"));
  const auto b = store::digest_bytes(blob_of("tasklet!"));
  const auto c = store::digest_bytes(blob_of("taskle!t"));
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_NE(a, empty);
  // Same content digests identically.
  EXPECT_EQ(a, store::digest_bytes(blob_of("tasklet")));
}

TEST(DigestTest, ToStringIs32HexChars) {
  const auto d = store::digest_bytes(blob_of("hello"));
  const std::string s = d.to_string();
  EXPECT_EQ(s.size(), 32u);
  EXPECT_EQ(s.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(DigestTest, StableAcrossProgramSerializeRoundTrips) {
  // The digest names the canonical serialized form: deserializing and
  // re-serializing a program must not change it, or the broker's store and
  // every provider cache would miss on identical content.
  const Bytes wire = compile_bytes(core::kernels::kFib);
  const auto first = store::digest_bytes(wire);
  auto program = tvm::Program::deserialize(wire);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  const Bytes rewire = program->serialize();
  EXPECT_EQ(wire, rewire);
  EXPECT_EQ(first, store::digest_bytes(rewire));
  // And a second round trip through the re-serialized bytes.
  auto again = tvm::Program::deserialize(rewire);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(first, store::digest_bytes(again->serialize()));
}

TEST(DigestTest, ArgsDigestDependsOnValuesAndOrder) {
  using Args = std::vector<tvm::HostArg>;
  const auto a = store::digest_args(Args{std::int64_t{1}, 2.5});
  const auto b = store::digest_args(Args{std::int64_t{1}, 2.5});
  const auto c = store::digest_args(Args{2.5, std::int64_t{1}});
  const auto d = store::digest_args(Args{std::int64_t{2}, 2.5});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_TRUE(store::digest_args({}).valid());
}

// --- blob store --------------------------------------------------------------------

TEST(BlobStoreTest, PutGetAndDedup) {
  store::BlobStore blobs(1 << 20);
  const Bytes content = blob_of("program bytes");
  const auto digest = store::digest_bytes(content);
  EXPECT_FALSE(blobs.contains(digest));
  EXPECT_EQ(blobs.get(digest), nullptr);  // counted miss
  blobs.put(digest, content);
  EXPECT_TRUE(blobs.contains(digest));
  const Bytes* read = blobs.get(digest);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(*read, content);
  blobs.put(digest, content);  // idempotent re-put
  EXPECT_EQ(blobs.entries(), 1u);
  EXPECT_EQ(blobs.stats().puts, 1u);
  EXPECT_EQ(blobs.stats().dedup_puts, 1u);
  EXPECT_EQ(blobs.stats().hits, 1u);
  EXPECT_EQ(blobs.stats().misses, 1u);
}

TEST(BlobStoreTest, EvictsLruWithinBudget) {
  store::BlobStore blobs(256);  // room for two 100-byte blobs
  const Bytes a(100, std::byte{0xAA});
  const Bytes b(100, std::byte{0xBB});
  const Bytes c(100, std::byte{0xCC});
  const auto da = store::digest_bytes(a);
  const auto db = store::digest_bytes(b);
  const auto dc = store::digest_bytes(c);
  blobs.put(da, a);
  blobs.put(db, b);
  (void)blobs.get(da);  // touch a: b becomes the LRU victim
  blobs.put(dc, c);
  EXPECT_TRUE(blobs.contains(da));
  EXPECT_FALSE(blobs.contains(db));
  EXPECT_TRUE(blobs.contains(dc));
  EXPECT_EQ(blobs.stats().evictions, 1u);
  EXPECT_LE(blobs.bytes(), blobs.budget_bytes());
}

TEST(BlobStoreTest, PinnedBlobsSurviveOverBudget) {
  store::BlobStore blobs(150);
  const Bytes a(100, std::byte{0xAA});
  const Bytes b(100, std::byte{0xBB});
  const auto da = store::digest_bytes(a);
  const auto db = store::digest_bytes(b);
  blobs.put(da, a);
  EXPECT_TRUE(blobs.ref(da));
  blobs.put(db, b);
  EXPECT_TRUE(blobs.ref(db));
  // Both pinned: 200 bytes resident against a 150-byte budget.
  EXPECT_TRUE(blobs.contains(da));
  EXPECT_TRUE(blobs.contains(db));
  EXPECT_GT(blobs.bytes(), blobs.budget_bytes());
  // Unpinning trims back under budget, dropping only unpinned content.
  blobs.unref(da);
  EXPECT_FALSE(blobs.contains(da));
  EXPECT_TRUE(blobs.contains(db));
  blobs.unref(db);  // fits on its own: stays cached for future dedup
  EXPECT_TRUE(blobs.contains(db));
  EXPECT_FALSE(blobs.ref(da));  // ref of absent content reports failure
}

TEST(BlobStoreTest, MultipleRefsPinUntilLastUnref) {
  store::BlobStore blobs(50);
  const Bytes a(100, std::byte{0xAA});
  const auto da = store::digest_bytes(a);
  blobs.put(da, a);
  EXPECT_TRUE(blobs.ref(da));
  EXPECT_TRUE(blobs.ref(da));
  blobs.unref(da);
  EXPECT_TRUE(blobs.contains(da));  // still pinned by the second ref
  blobs.unref(da);
  EXPECT_FALSE(blobs.contains(da));  // over budget and unpinned: gone
}

// --- memo table --------------------------------------------------------------------

store::MemoKey key_of(std::uint64_t i) {
  return {store::Digest{1, i}, store::Digest{2, i}};
}

TEST(MemoTableTest, LookupInsertAndStats) {
  store::MemoTable memo(16);
  EXPECT_EQ(memo.lookup(key_of(1)), nullptr);
  store::MemoEntry entry;
  entry.result = std::int64_t{42};
  entry.fuel = 7;
  entry.instructions = 9;
  entry.provider = NodeId{3};
  memo.insert(key_of(1), entry);
  const auto* hit = memo.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<std::int64_t>(hit->result), 42);
  EXPECT_EQ(hit->fuel, 7u);
  EXPECT_EQ(hit->provider, NodeId{3});
  EXPECT_EQ(memo.stats().misses, 1u);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().inserts, 1u);
}

TEST(MemoTableTest, CapsEntriesLru) {
  store::MemoTable memo(2);
  memo.insert(key_of(1), {});
  memo.insert(key_of(2), {});
  ASSERT_NE(memo.lookup(key_of(1)), nullptr);  // refresh 1: victim is 2
  memo.insert(key_of(3), {});
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_NE(memo.lookup(key_of(1)), nullptr);
  EXPECT_EQ(memo.lookup(key_of(2)), nullptr);
  EXPECT_NE(memo.lookup(key_of(3)), nullptr);
  EXPECT_EQ(memo.stats().evictions, 1u);
}

// --- VmExecutor cache cap ----------------------------------------------------------

TEST(VmExecutorCacheTest, CapsEntriesAndCountsEvictions) {
  provider::VmExecutor executor(tvm::ExecLimits{}, 2);
  auto run_program = [&](std::string_view source, std::int64_t arg) {
    provider::ExecRequest request;
    proto::VmBody body;
    body.program = compile_bytes(source);
    body.args = {arg};
    request.body = std::move(body);
    return executor.run(request);
  };
  EXPECT_EQ(run_program(core::kernels::kFib, 10).status,
            proto::AttemptStatus::kOk);
  EXPECT_EQ(run_program(core::kernels::kSieve, 50).status,
            proto::AttemptStatus::kOk);
  EXPECT_EQ(executor.cache_size(), 2u);
  EXPECT_EQ(executor.cache_evictions(), 0u);
  EXPECT_EQ(run_program(core::kernels::kSpin, 100).status,
            proto::AttemptStatus::kOk);
  EXPECT_EQ(executor.cache_size(), 2u);  // cap held
  EXPECT_EQ(executor.cache_evictions(), 1u);
  // The evicted program (fib, the LRU victim) still runs — re-verified and
  // re-cached, evicting the next victim.
  EXPECT_EQ(std::get<std::int64_t>(run_program(core::kernels::kFib, 10).result),
            55);
  EXPECT_EQ(executor.cache_size(), 2u);
  EXPECT_EQ(executor.cache_evictions(), 2u);
}

// --- end-to-end: dedup, memo, affinity ---------------------------------------------

namespace sim_e2e {

proto::TaskletBody fib_body(std::int64_t n) {
  auto body = core::compile_tasklet(core::kernels::kFib, {n});
  EXPECT_TRUE(body.is_ok()) << body.status().to_string();
  return std::move(body).value();
}

TEST(StoreSimTest, RepeatSubmissionsDedupProgramBytes) {
  core::SimCluster cluster;
  cluster.add_providers(sim::desktop_profile(), 2);
  std::vector<TaskletId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(cluster.submit(fib_body(15)));
  ASSERT_TRUE(cluster.run_until_quiescent());
  for (const TaskletId id : ids) {
    const auto* report = cluster.report_for(id);
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->status, proto::TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::int64_t>(report->result), 610);
  }
  const auto& stats = cluster.broker().stats();
  // The consumer shipped the program once; every repeat went by digest and
  // resolved against the broker's blob store.
  EXPECT_GE(stats.program_dedup_hits, 11u);
  EXPECT_EQ(cluster.broker().blob_store().entries(), 1u);
  // Warm providers got digest-only assigns after their first inline one.
  EXPECT_GE(stats.assigns_by_digest, 10u);
  EXPECT_GT(stats.assign_bytes_saved, 0u);
}

TEST(StoreSimTest, MemoHitsCompleteWithoutProviderRoundTrip) {
  core::SimCluster cluster;
  cluster.add_provider(sim::desktop_profile());
  proto::Qoc qoc;
  qoc.memoize = true;
  const TaskletId first = cluster.submit(fib_body(18), qoc);
  ASSERT_TRUE(cluster.run_until_quiescent());
  ASSERT_EQ(cluster.report_for(first)->status, proto::TaskletStatus::kCompleted);
  const std::uint64_t attempts_before = cluster.broker().stats().attempts_issued;

  const TaskletId second = cluster.submit(fib_body(18), qoc);
  const TaskletId third = cluster.submit(fib_body(18), qoc);
  ASSERT_TRUE(cluster.run_until_quiescent());
  for (const TaskletId id : {second, third}) {
    const auto* report = cluster.report_for(id);
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->status, proto::TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::int64_t>(report->result), 2584);
    // The memo's defining property: answered broker-locally, zero attempts.
    EXPECT_EQ(report->attempts, 0u);
  }
  EXPECT_EQ(cluster.broker().stats().attempts_issued, attempts_before);
  EXPECT_EQ(cluster.broker().stats().memo_hits, 2u);
  EXPECT_EQ(cluster.broker().stats().memo_inserts, 1u);
}

TEST(StoreSimTest, MemoRespectsQocOptIn) {
  core::SimCluster cluster;
  cluster.add_provider(sim::desktop_profile());
  // Without the memoize knob, identical submissions re-execute.
  const TaskletId a = cluster.submit(fib_body(16));
  ASSERT_TRUE(cluster.run_until_quiescent());
  const TaskletId b = cluster.submit(fib_body(16));
  ASSERT_TRUE(cluster.run_until_quiescent());
  EXPECT_EQ(cluster.report_for(a)->status, proto::TaskletStatus::kCompleted);
  EXPECT_EQ(cluster.report_for(b)->status, proto::TaskletStatus::kCompleted);
  EXPECT_GE(cluster.report_for(b)->attempts, 1u);
  EXPECT_EQ(cluster.broker().stats().memo_hits, 0u);
  EXPECT_EQ(cluster.broker().stats().memo_inserts, 0u);
}

TEST(StoreSimTest, DifferentArgsMissTheMemo) {
  core::SimCluster cluster;
  cluster.add_provider(sim::desktop_profile());
  proto::Qoc qoc;
  qoc.memoize = true;
  const TaskletId a = cluster.submit(fib_body(10), qoc);
  ASSERT_TRUE(cluster.run_until_quiescent());
  const TaskletId b = cluster.submit(fib_body(11), qoc);
  ASSERT_TRUE(cluster.run_until_quiescent());
  EXPECT_EQ(std::get<std::int64_t>(cluster.report_for(a)->result), 55);
  EXPECT_EQ(std::get<std::int64_t>(cluster.report_for(b)->result), 89);
  EXPECT_GE(cluster.report_for(b)->attempts, 1u);  // no false sharing
  EXPECT_EQ(cluster.broker().stats().memo_hits, 0u);
}

TEST(StoreSimTest, DedupCutsSubmitAndAssignBytes) {
  // The headline E9 claim, in miniature: a repeated-kernel fan-out must
  // move less than half the submit+assign bytes once dedup kicks in.
  auto wire_cost = [](bool dedup) {
    core::SimConfig config;
    config.broker.dedup_assign = dedup;
    core::SimCluster cluster(config);
    cluster.add_providers(sim::desktop_profile(), 2);
    // Consumer-side submit dedup is on in both runs; the knob under test is
    // broker-side digest assignment.
    std::vector<TaskletId> ids;
    for (int i = 0; i < 16; ++i) ids.push_back(cluster.submit(fib_body(14)));
    EXPECT_TRUE(cluster.run_until_quiescent());
    for (const TaskletId id : ids) {
      EXPECT_EQ(cluster.report_for(id)->status,
                proto::TaskletStatus::kCompleted);
    }
    const auto& by_message = cluster.wire_bytes_by_message();
    std::uint64_t bytes = 0;
    for (const char* name : {"SubmitTasklet", "AssignTasklet", "FetchProgram",
                             "ProgramData"}) {
      if (const auto it = by_message.find(name); it != by_message.end()) {
        bytes += it->second;
      }
    }
    return bytes;
  };
  const std::uint64_t with_dedup = wire_cost(true);
  const std::uint64_t inline_assigns = wire_cost(false);
  // Digest assigns alone (consumer dedup held constant) already save bytes.
  EXPECT_LT(with_dedup, inline_assigns);
}

TEST(StoreSimTest, DeterministicWithStoreEnabled) {
  // The r3 paths (digest submits, memo, fetch) must preserve bit-level
  // sim determinism.
  auto run_once = [] {
    core::SimConfig config;
    config.seed = 99;
    core::SimCluster cluster(config);
    cluster.add_providers(sim::laptop_profile(), 3);
    proto::Qoc qoc;
    qoc.memoize = true;
    for (int i = 0; i < 20; ++i) {
      cluster.submit_at(i * 5 * kMillisecond, fib_body(12 + (i % 3)), qoc);
    }
    EXPECT_TRUE(cluster.run_until_quiescent());
    std::vector<std::pair<std::uint64_t, SimTime>> trace;
    for (const auto& report : cluster.reports()) {
      trace.emplace_back(report.id.value(), report.latency);
    }
    std::sort(trace.begin(), trace.end());
    return std::make_pair(trace, cluster.wire_bytes());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace sim_e2e

// --- provider fetch path -----------------------------------------------------------

namespace fetch_path {

constexpr NodeId kBroker{1};
constexpr NodeId kSelf{5};

class StubExecution final : public provider::ExecutionService {
 public:
  void execute(provider::ExecRequest request,
               provider::ExecDone done) override {
    requests.push_back(std::move(request));
    dones.push_back(std::move(done));
  }
  std::vector<provider::ExecRequest> requests;
  std::vector<provider::ExecDone> dones;
};

// Drives a ProviderAgent through accept-park-fetch-resolve by hand.
TEST(ProviderFetchTest, DigestAssignParksFetchesAndRuns) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 2;
  provider::ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  proto::Outbox ack(kSelf);
  agent.on_message({kBroker, kSelf, proto::RegisterAck{agent.incarnation()}}, 0,
                   ack);

  const Bytes program = compile_bytes(core::kernels::kFib);
  const auto digest = store::digest_bytes(program);
  proto::AssignTasklet assign;
  assign.attempt = AttemptId{1};
  assign.tasklet = TaskletId{1};
  assign.body = proto::DigestBody{digest, {std::int64_t{10}}};

  proto::Outbox assign_out(kSelf);
  agent.on_message({kBroker, kSelf, assign}, 0, assign_out);
  // Cold cache: the assignment parks (occupying its slot) and a FetchProgram
  // goes to the broker. Nothing executes yet.
  EXPECT_EQ(agent.busy_slots(), 1u);
  EXPECT_TRUE(execution.requests.empty());
  ASSERT_EQ(assign_out.messages().size(), 1u);
  const auto& fetch =
      std::get<proto::FetchProgram>(assign_out.messages()[0].payload);
  EXPECT_EQ(fetch.program_digest, digest);
  EXPECT_EQ(agent.stats().program_cache_misses, 1u);

  // ProgramData resolves the parked assignment into a real execution.
  proto::Outbox data_out(kSelf);
  agent.on_message({kBroker, kSelf, proto::ProgramData{digest, program}}, 0,
                   data_out);
  ASSERT_EQ(execution.requests.size(), 1u);
  const auto* vm = std::get_if<proto::VmBody>(&execution.requests[0].body);
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->program, program);

  // A second assignment of the same digest resolves locally — no fetch.
  proto::AssignTasklet warm = assign;
  warm.attempt = AttemptId{2};
  warm.tasklet = TaskletId{2};
  proto::Outbox warm_out(kSelf);
  agent.on_message({kBroker, kSelf, warm}, 0, warm_out);
  EXPECT_TRUE(warm_out.messages().empty());
  EXPECT_EQ(execution.requests.size(), 2u);
  EXPECT_EQ(agent.stats().program_cache_hits, 1u);
}

TEST(ProviderFetchTest, CorruptProgramDataIsDropped) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 1;
  provider::ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  proto::Outbox ack(kSelf);
  agent.on_message({kBroker, kSelf, proto::RegisterAck{agent.incarnation()}}, 0,
                   ack);

  const Bytes program = compile_bytes(core::kernels::kFib);
  const auto digest = store::digest_bytes(program);
  proto::AssignTasklet assign;
  assign.attempt = AttemptId{1};
  assign.tasklet = TaskletId{1};
  assign.body = proto::DigestBody{digest, {std::int64_t{10}}};
  proto::Outbox assign_out(kSelf);
  agent.on_message({kBroker, kSelf, assign}, 0, assign_out);

  // Bytes that decode but don't match the digest (fault-layer corruption)
  // must not be cached or executed.
  Bytes corrupt = program;
  corrupt[0] ^= std::byte{0xFF};
  proto::Outbox corrupt_out(kSelf);
  agent.on_message({kBroker, kSelf, proto::ProgramData{digest, corrupt}}, 0,
                   corrupt_out);
  EXPECT_TRUE(execution.requests.empty());
  EXPECT_EQ(agent.busy_slots(), 1u);  // still parked, awaiting honest bytes

  proto::Outbox data_out(kSelf);
  agent.on_message({kBroker, kSelf, proto::ProgramData{digest, program}}, 0,
                   data_out);
  EXPECT_EQ(execution.requests.size(), 1u);
}

TEST(ProviderFetchTest, FetchBudgetExhaustionRejects) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 1;
  provider::ProviderConfig config;
  config.program_fetch_attempts = 2;
  provider::ProviderAgent agent(kSelf, kBroker, capability, execution, config);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  proto::Outbox ack(kSelf);
  agent.on_message({kBroker, kSelf, proto::RegisterAck{agent.incarnation()}}, 0,
                   ack);

  proto::AssignTasklet assign;
  assign.attempt = AttemptId{1};
  assign.tasklet = TaskletId{1};
  assign.body = proto::DigestBody{store::Digest{7, 7}, {std::int64_t{1}}};
  proto::Outbox assign_out(kSelf);
  agent.on_message({kBroker, kSelf, assign}, 0, assign_out);
  EXPECT_EQ(agent.busy_slots(), 1u);

  // Heartbeat ticks re-send the fetch until the budget runs out, then the
  // attempt is rejected so the broker re-issues inline.
  bool rejected = false;
  for (int tick = 1; tick <= 4 && !rejected; ++tick) {
    proto::Outbox hb(kSelf);
    agent.on_timer(1, tick * kSecond, hb);
    for (const auto& envelope : hb.messages()) {
      if (const auto* result =
              std::get_if<proto::AttemptResult>(&envelope.payload)) {
        EXPECT_EQ(result->outcome.status, proto::AttemptStatus::kRejected);
        EXPECT_NE(result->outcome.error.find("program unavailable"),
                  std::string::npos);
        rejected = true;
      }
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_EQ(agent.busy_slots(), 0u);  // slot freed for real work
}

}  // namespace fetch_path

// --- memo under chaos --------------------------------------------------------------

namespace chaos_memo {

// Duplicate submissions over a faulty link must cross the memo/dedup fence
// exactly once: the duplicate-submit fence absorbs retransmits of the same
// tasklet id, and the memo absorbs distinct resubmissions of the same
// (program, args) — the program executes once.
TEST(StoreChaosTest, MemoAndDuplicateFenceUnderFaults) {
  net::FaultPlan plan;
  plan.seed = 0xFA17;
  net::LinkFaults faults;
  faults.drop = 0.10;
  faults.duplicate = 0.20;
  plan.default_faults = faults;

  core::TaskletSystem system(chaos::chaos_config(std::move(plan)));
  (void)system.add_provider();

  auto body = core::compile_tasklet(core::kernels::kFib, {std::int64_t{17}});
  ASSERT_TRUE(body.is_ok());
  proto::Qoc qoc;
  qoc.memoize = true;

  auto first = system.submit(*body, qoc);
  const auto first_report = first.get();
  ASSERT_EQ(first_report.status, proto::TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(first_report.result), 1597);

  // Re-submissions of the same (program, args): every one is answered from
  // the memo, however many duplicate frames the link manufactures.
  for (int i = 0; i < 3; ++i) {
    auto repeat = system.submit(*body, qoc);
    const auto report = repeat.get();
    ASSERT_EQ(report.status, proto::TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::int64_t>(report.result), 1597);
    EXPECT_EQ(report.attempts, 0u);
  }

  const auto stats = system.broker_stats();
  EXPECT_EQ(stats.memo_inserts, 1u);  // the fence held: one real execution
  EXPECT_EQ(stats.memo_hits, 3u);
  EXPECT_EQ(stats.tasklets_completed, 4u);
}

}  // namespace chaos_memo

// --- Merkle node digests (protocol r4) ---------------------------------------------
//
// A node's Merkle digest must separate every identity dimension that decides
// whether a memoized result is reusable: the program, the literal arguments,
// which upstream feeds which argument slot, and the upstream subtree digests
// themselves. Placeholder values in bound slots must NOT contribute — they
// are overwritten by delegation before execution.

namespace merkle_property {

// node0 (synthetic leaf) -> node1 (slot 0) -> node2 (slots 0 and 1 from
// nodes 0 and 1).
dag::DagSpec diamond_spec(Bytes program) {
  dag::DagSpec spec;
  spec.id = DagId{1};
  spec.job = JobId{1};
  proto::SyntheticBody leaf;
  leaf.fuel = 100;
  leaf.result = 1;
  spec.nodes.push_back({leaf, {}});
  proto::VmBody mid;
  mid.program = program;
  mid.args = {std::int64_t{0}, std::int64_t{7}};
  spec.nodes.push_back({std::move(mid), {dag::DagEdge{0, 0}}});
  proto::VmBody sink;
  sink.program = std::move(program);
  sink.args = {std::int64_t{0}, std::int64_t{0}, std::int64_t{5}};
  spec.nodes.push_back(
      {std::move(sink), {dag::DagEdge{0, 0}, dag::DagEdge{1, 1}}});
  return spec;
}

std::vector<store::Digest> merkle_of(const dag::DagSpec& spec) {
  auto topo = dag::validate(spec);
  EXPECT_TRUE(topo.is_ok()) << topo.status().to_string();
  return dag::merkle_digests(spec, *topo);
}

TEST(MerkleDigest, SeparatesProgramArgsBindingAndUpstream) {
  const Bytes program = compile_bytes(
      "int main(int a, int b) { return a + b; }");
  const dag::DagSpec base = diamond_spec(program);
  const auto digests = merkle_of(base);
  ASSERT_EQ(digests.size(), 3u);

  // Determinism: recomputation reproduces the same digests bit for bit.
  EXPECT_EQ(merkle_of(base), digests);

  // Program dimension: changing the leaf's (pseudo) program re-digests the
  // leaf and its whole downstream cone.
  {
    dag::DagSpec mutated = base;
    std::get<proto::SyntheticBody>(mutated.nodes[0].body).fuel = 101;
    const auto changed = merkle_of(mutated);
    EXPECT_NE(changed[0], digests[0]);
    EXPECT_NE(changed[1], digests[1]);
    EXPECT_NE(changed[2], digests[2]);
  }

  // Literal-args dimension: a free (unbound) slot's value participates; the
  // upstream leaf stays untouched.
  {
    dag::DagSpec mutated = base;
    std::get<proto::VmBody>(mutated.nodes[1].body).args[1] = std::int64_t{8};
    const auto changed = merkle_of(mutated);
    EXPECT_EQ(changed[0], digests[0]);
    EXPECT_NE(changed[1], digests[1]);
    EXPECT_NE(changed[2], digests[2]);  // upstream dimension, transitively
  }

  // Binding dimension: the same producers wired into different argument
  // slots is a different computation.
  {
    dag::DagSpec mutated = base;
    mutated.nodes[2].inputs = {dag::DagEdge{0, 1}, dag::DagEdge{1, 0}};
    const auto changed = merkle_of(mutated);
    EXPECT_EQ(changed[0], digests[0]);
    EXPECT_EQ(changed[1], digests[1]);
    EXPECT_NE(changed[2], digests[2]);
  }

  // Canonicalization: the placeholder literal sitting in a *bound* slot is
  // dead — delegation overwrites it — so it must not perturb the digest.
  {
    dag::DagSpec mutated = base;
    std::get<proto::VmBody>(mutated.nodes[1].body).args[0] =
        std::int64_t{424242};
    EXPECT_EQ(merkle_of(mutated), digests);
  }
}

TEST(MerkleDigest, SeededSweepFindsNoCollisions) {
  const Bytes program = compile_bytes(
      "int main(int a, int b) { return a + b; }");
  std::set<std::string> seen;
  std::size_t digests_total = 0;
  Rng rng(0x4DA6'5EED);
  for (int round = 0; round < 64; ++round) {
    dag::DagSpec spec;
    spec.id = DagId{static_cast<std::uint64_t>(round + 1)};
    spec.job = JobId{1};
    // A random-length chain with random per-node identity in every
    // dimension the digest must separate.
    const std::size_t length = 2 + rng.next_below(4);
    for (std::size_t i = 0; i < length; ++i) {
      if (i == 0) {
        proto::SyntheticBody leaf;
        leaf.fuel = 1 + rng.next_below(1000);
        leaf.result = static_cast<std::int64_t>(rng.next_below(1000));
        spec.nodes.emplace_back().body = leaf;
        continue;
      }
      proto::VmBody body;
      body.program = program;
      body.args = {std::int64_t{0},
                   static_cast<std::int64_t>(rng.next_below(1000))};
      spec.nodes.push_back(
          {std::move(body),
           {dag::DagEdge{static_cast<std::uint32_t>(i - 1),
                         static_cast<std::uint32_t>(rng.next_below(2))}}});
    }
    for (const store::Digest& digest : merkle_of(spec)) {
      ++digests_total;
      seen.insert(digest.to_string());
    }
  }
  // Distinct identities must stay distinct. (Random draws can repeat an
  // identity; allow a small slack for that, never for digest collisions.)
  EXPECT_GT(seen.size(), digests_total * 9 / 10);
  // And the leaf dimension alone (fuel) must never alias another leaf's
  // digest computed from a different fuel value.
  std::set<std::string> leaf_digests;
  for (std::uint64_t fuel = 1; fuel <= 256; ++fuel) {
    dag::DagSpec spec;
    spec.id = DagId{fuel};
    spec.job = JobId{1};
    proto::SyntheticBody leaf;
    leaf.fuel = fuel;
    leaf.result = 1;
    spec.nodes.push_back({leaf, {}});
    leaf_digests.insert(merkle_of(spec)[0].to_string());
  }
  EXPECT_EQ(leaf_digests.size(), 256u);
}

}  // namespace merkle_property

}  // namespace
}  // namespace tasklets
