// Correctness tests for the standard kernel library: every kernel is
// compiled to bytecode and executed in the TVM, and its output is checked
// against a host-side C++ reference implementation across a parameter sweep
// (parameterized gtest). This is the deepest end-to-end check of the
// compiler + VM chain on realistic programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "core/kernels.hpp"
#include "tcl/compiler.hpp"
#include "tvm/interpreter.hpp"
#include "tvm/verifier.hpp"

namespace tasklets::core {
namespace {

using tvm::HostArg;

const tvm::Program& compiled(std::string_view source) {
  static std::map<const char*, tvm::Program> cache;
  const auto it = cache.find(source.data());
  if (it != cache.end()) return it->second;
  auto program = tcl::compile(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return cache.emplace(source.data(), std::move(program).value()).first->second;
}

HostArg run(std::string_view source, std::vector<HostArg> args) {
  auto outcome = tvm::execute(compiled(source), args);
  EXPECT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  return outcome.is_ok() ? std::move(outcome).value().result
                         : HostArg{std::int64_t{0}};
}

// --- fib -------------------------------------------------------------------------

class FibSweep : public ::testing::TestWithParam<int> {};

TEST_P(FibSweep, MatchesClosedForm) {
  const int n = GetParam();
  auto host_fib = [](int k) {
    std::int64_t a = 0, b = 1;
    for (int i = 0; i < k; ++i) {
      const std::int64_t next = a + b;
      a = b;
      b = next;
    }
    return a;
  };
  EXPECT_EQ(std::get<std::int64_t>(
                run(kernels::kFib, {static_cast<std::int64_t>(n)})),
            host_fib(n));
}

INSTANTIATE_TEST_SUITE_P(Kernels, FibSweep, ::testing::Values(0, 1, 2, 7, 15, 21));

// --- sieve ------------------------------------------------------------------------

class SieveSweep : public ::testing::TestWithParam<int> {};

TEST_P(SieveSweep, MatchesHostSieve) {
  const int n = GetParam();
  auto host_sieve = [](int limit) {
    if (limit < 3) return std::int64_t{0};
    std::vector<char> composite(static_cast<std::size_t>(limit), 0);
    std::int64_t count = 0;
    for (int i = 2; i < limit; ++i) {
      if (!composite[static_cast<std::size_t>(i)]) {
        ++count;
        for (int j = i + i; j < limit; j += i) {
          composite[static_cast<std::size_t>(j)] = 1;
        }
      }
    }
    return count;
  };
  EXPECT_EQ(std::get<std::int64_t>(
                run(kernels::kSieve, {static_cast<std::int64_t>(n)})),
            host_sieve(n));
}

INSTANTIATE_TEST_SUITE_P(Kernels, SieveSweep,
                         ::testing::Values(0, 2, 3, 10, 100, 1000, 10000));

// --- mandelbrot row -------------------------------------------------------------

struct MandelCase {
  int width;
  int row;
  int height;
  int max_iter;
};

class MandelSweep : public ::testing::TestWithParam<MandelCase> {};

TEST_P(MandelSweep, MatchesHostEscapeCounts) {
  const auto& c = GetParam();
  constexpr double x0 = -2.0, x1 = 1.0, y0 = -1.2, y1 = 1.2;
  std::vector<std::int64_t> expected(static_cast<std::size_t>(c.width));
  const double ci = y0 + (y1 - y0) * c.row / c.height;
  for (int col = 0; col < c.width; ++col) {
    const double cr = x0 + (x1 - x0) * col / c.width;
    double zr = 0, zi = 0;
    int iter = 0;
    while (iter < c.max_iter && zr * zr + zi * zi <= 4.0) {
      const double tmp = zr * zr - zi * zi + cr;
      zi = 2.0 * zr * zi + ci;
      zr = tmp;
      ++iter;
    }
    expected[static_cast<std::size_t>(col)] = iter;
  }
  const auto result = run(
      kernels::kMandelbrotRow,
      {static_cast<std::int64_t>(c.width), static_cast<std::int64_t>(c.row),
       static_cast<std::int64_t>(c.height), x0, x1, y0, y1,
       static_cast<std::int64_t>(c.max_iter)});
  EXPECT_EQ(std::get<std::vector<std::int64_t>>(result), expected);
}

INSTANTIATE_TEST_SUITE_P(Kernels, MandelSweep,
                         ::testing::Values(MandelCase{16, 0, 16, 32},
                                           MandelCase{64, 32, 64, 64},
                                           MandelCase{33, 7, 20, 100},
                                           MandelCase{1, 0, 1, 256}));

// --- monte carlo ------------------------------------------------------------------

class MonteCarloSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(MonteCarloSweep, MatchesHostLcg) {
  const auto [samples, seed] = GetParam();
  // Host replica of the kernel's LCG sampling. Unsigned arithmetic: the
  // multiply wraps (the VM's i64 mul wraps too), and signed overflow would
  // be UB. The & mask keeps every state below 2^48, so the signed/unsigned
  // distinction never reaches the double conversions.
  std::uint64_t state = static_cast<std::uint64_t>(seed);
  constexpr std::uint64_t a = 25214903917, c = 11, mask = 281474976710655;
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < samples; ++i) {
    state = (state * a + c) & mask;
    const double x = static_cast<double>(state) / 281474976710656.0;
    state = (state * a + c) & mask;
    const double y = static_cast<double>(state) / 281474976710656.0;
    if (x * x + y * y <= 1.0) ++hits;
  }
  EXPECT_EQ(std::get<std::int64_t>(run(kernels::kMonteCarloPi, {samples, seed})),
            hits);
}

INSTANTIATE_TEST_SUITE_P(Kernels, MonteCarloSweep,
                         ::testing::Values(std::pair{100L, 1L},
                                           std::pair{1000L, 42L},
                                           std::pair{5000L, 987654L}));

TEST(MonteCarloTest, EstimatesPiRoughly) {
  const auto hits =
      std::get<std::int64_t>(run(kernels::kMonteCarloPi, {std::int64_t{50000},
                                                          std::int64_t{7}}));
  const double pi = 4.0 * static_cast<double>(hits) / 50000.0;
  EXPECT_NEAR(pi, M_PI, 0.05);
}

// --- matmul ------------------------------------------------------------------------

class MatMulSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatMulSweep, MatchesHostProduct) {
  const int n = GetParam();
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(static_cast<std::size_t>(n * n));
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<std::size_t>(i)] = 0.25 * i - 3.0;
    b[static_cast<std::size_t>(i)] = 1.5 - 0.125 * i;
  }
  std::vector<double> expected(static_cast<std::size_t>(n * n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int k = 0; k < n; ++k) {
        sum += a[static_cast<std::size_t>(i * n + k)] *
               b[static_cast<std::size_t>(k * n + j)];
      }
      expected[static_cast<std::size_t>(i * n + j)] = sum;
    }
  }
  const auto result =
      run(kernels::kMatMul, {a, b, static_cast<std::int64_t>(n)});
  const auto& got = std::get<std::vector<double>>(result);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expected[i]) << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, MatMulSweep, ::testing::Values(1, 2, 3, 5, 8));

// --- dot --------------------------------------------------------------------------

TEST(DotTest, MatchesHostAccumulation) {
  std::vector<double> a{1.5, -2.0, 3.25, 0.0};
  std::vector<double> b{2.0, 0.5, -1.0, 9.9};
  // The kernel accumulates left-to-right; match exactly.
  double expected = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) expected += a[i] * b[i];
  EXPECT_DOUBLE_EQ(std::get<double>(run(kernels::kDot, {a, b})), expected);
}

TEST(DotTest, EmptyVectorsYieldZero) {
  EXPECT_DOUBLE_EQ(std::get<double>(run(kernels::kDot,
                                        {std::vector<double>{},
                                         std::vector<double>{}})),
                   0.0);
}

// --- spin --------------------------------------------------------------------------

TEST(SpinTest, DeterministicChecksumAndLinearFuel) {
  const auto a = tvm::execute(compiled(kernels::kSpin), {std::int64_t{1000}});
  const auto b = tvm::execute(compiled(kernels::kSpin), {std::int64_t{1000}});
  const auto big = tvm::execute(compiled(kernels::kSpin), {std::int64_t{2000}});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(big.is_ok());
  EXPECT_TRUE(tvm::args_equal(a->result, b->result));
  EXPECT_EQ(a->fuel_used, b->fuel_used);
  // Fuel scales ~linearly with the iteration count.
  const double ratio = static_cast<double>(big->fuel_used) /
                       static_cast<double>(a->fuel_used);
  EXPECT_NEAR(ratio, 2.0, 0.05);
}

// --- quicksort ----------------------------------------------------------------------

class QuicksortSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuicksortSweep, SortsRandomArrays) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  std::vector<std::int64_t> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(rng.uniform_int(-1000, 1000));
  auto expected = xs;
  std::sort(expected.begin(), expected.end());
  const auto result = run(kernels::kQuicksort, {xs});
  EXPECT_EQ(std::get<std::vector<std::int64_t>>(result), expected);
}

INSTANTIATE_TEST_SUITE_P(Kernels, QuicksortSweep,
                         ::testing::Values(0, 1, 2, 3, 10, 100, 1000));

TEST(QuicksortTest, HandlesAdversarialInputs) {
  // Already sorted, reverse sorted, all-equal: the median-of-three pivot
  // must keep the explicit range stack within its 2n+4 bound.
  std::vector<std::int64_t> ascending, descending, equal;
  for (int i = 0; i < 500; ++i) {
    ascending.push_back(i);
    descending.push_back(500 - i);
    equal.push_back(42);
  }
  for (const auto& input : {ascending, descending, equal}) {
    auto expected = input;
    std::sort(expected.begin(), expected.end());
    const auto result = run(kernels::kQuicksort, {input});
    EXPECT_EQ(std::get<std::vector<std::int64_t>>(result), expected);
  }
}

// --- nbody -------------------------------------------------------------------------

TEST(NBodyTest, MatchesHostIntegration) {
  constexpr int kBodies = 4;
  constexpr int kSteps = 10;
  constexpr double kDt = 0.01;
  std::vector<double> px{0.0, 1.0, -1.0, 0.5};
  std::vector<double> py{0.0, 0.5, -0.5, -1.0};
  std::vector<double> vx{0.1, 0.0, -0.1, 0.0};
  std::vector<double> vy{0.0, 0.1, 0.0, -0.1};
  std::vector<double> mass{1.0, 0.5, 0.75, 0.25};

  // Host reference (same operation order as the kernel).
  auto hpx = px;
  auto hpy = py;
  auto hvx = vx;
  auto hvy = vy;
  for (int s = 0; s < kSteps; ++s) {
    for (int i = 0; i < kBodies; ++i) {
      double ax = 0.0, ay = 0.0;
      for (int j = 0; j < kBodies; ++j) {
        if (j != i) {
          const double dx = hpx[static_cast<std::size_t>(j)] -
                            hpx[static_cast<std::size_t>(i)];
          const double dy = hpy[static_cast<std::size_t>(j)] -
                            hpy[static_cast<std::size_t>(i)];
          const double dist2 = dx * dx + dy * dy + 0.01;
          const double inv = 1.0 / (dist2 * std::sqrt(dist2));
          ax += mass[static_cast<std::size_t>(j)] * dx * inv;
          ay += mass[static_cast<std::size_t>(j)] * dy * inv;
        }
      }
      hvx[static_cast<std::size_t>(i)] += ax * kDt;
      hvy[static_cast<std::size_t>(i)] += ay * kDt;
    }
    for (int i = 0; i < kBodies; ++i) {
      hpx[static_cast<std::size_t>(i)] += hvx[static_cast<std::size_t>(i)] * kDt;
      hpy[static_cast<std::size_t>(i)] += hvy[static_cast<std::size_t>(i)] * kDt;
    }
  }

  const auto result =
      run(kernels::kNBody,
          {px, py, vx, vy, mass, kDt, static_cast<std::int64_t>(kSteps)});
  const auto& got = std::get<std::vector<double>>(result);
  ASSERT_EQ(got.size(), hpx.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], hpx[i]) << "body " << i;
  }
}

// --- fast-engine plans -----------------------------------------------------------
//
// The VM-bound kernels' hot loops must stay speculated and fused, so a change
// that silently stops fusing fails here and not only in a perf run.

struct PlannedFunction {
  std::vector<tvm::SlotTag> params;
  std::vector<std::string_view> loop_heads;  // fast op at each backward-jump target
  std::vector<std::string_view> ops;         // every op the fast engine sees
};

PlannedFunction planned(std::string_view source, std::string_view function) {
  const tvm::Program& program = compiled(source);
  auto plan = tvm::analyze(program);
  EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
  const auto idx = program.find_function(function).value();
  const tvm::Function& fn = program.function(idx);
  const tvm::FunctionPlan& fp = plan->functions[idx];
  PlannedFunction out;
  out.params = fp.param_tags;
  for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
    out.ops.push_back(tvm::vm_op_name(fp.quick[ip].op));
    const tvm::Instr& instr = fn.code[ip];
    if (instr.op == tvm::OpCode::kJump &&
        static_cast<std::size_t>(instr.operand) < ip) {
      out.loop_heads.push_back(tvm::vm_op_name(
          fp.quick[static_cast<std::size_t>(instr.operand)].op));
    }
  }
  return out;
}

bool has_op(const PlannedFunction& fn, std::string_view op) {
  return std::find(fn.ops.begin(), fn.ops.end(), op) != fn.ops.end();
}

TEST(KernelPlans, SieveSpeculatesIntBoundAndFusesBothLoops) {
  const auto main = planned(kernels::kSieve, "main");
  EXPECT_EQ(main.params, std::vector<tvm::SlotTag>{tvm::SlotTag::kInt});
  // Inner `j < n` head, then outer `i < n` head.
  EXPECT_EQ(main.loop_heads,
            (std::vector<std::string_view>{"kCmpLtJzLLU", "kCmpLtJzLLU"}));
  EXPECT_TRUE(has_op(main, "kArrayStoreLLIU"));  // composite[j] = 1
  EXPECT_TRUE(has_op(main, "kAddStoreLLU"));     // j = j + i
  EXPECT_TRUE(has_op(main, "kAddStoreLIU"));     // count = count + 1
}

TEST(KernelPlans, FibSpeculatesIntAndFusesItsBaseCase) {
  const auto fib = planned(kernels::kFib, "fib");
  EXPECT_EQ(fib.params, std::vector<tvm::SlotTag>{tvm::SlotTag::kInt});
  EXPECT_EQ(fib.ops.front(), "kCmpLtJzLIU");  // if (n < 2)
  EXPECT_TRUE(has_op(fib, "kSubIntImmU"));     // n - 1, n - 2
}

TEST(KernelPlans, MandelbrotSpeculatesEscapeSignatureAndFusesLoops) {
  const auto escape = planned(kernels::kMandelbrotRow, "escape");
  EXPECT_EQ(escape.params,
            (std::vector<tvm::SlotTag>{tvm::SlotTag::kFloat, tvm::SlotTag::kFloat,
                                       tvm::SlotTag::kInt}));
  EXPECT_EQ(escape.loop_heads, std::vector<std::string_view>{"kCmpLtJzLLU"});
  EXPECT_TRUE(has_op(escape, "kAddStoreLIU"));  // iter = iter + 1
  EXPECT_FALSE(has_op(escape, "add_f"))         // `+ cr`, `+ ci` unchecked
      << "a float add kept its tag check";
  const auto main = planned(kernels::kMandelbrotRow, "main");
  EXPECT_EQ(main.loop_heads, std::vector<std::string_view>{"kCmpLtJzLLU"});
}

}  // namespace
}  // namespace tasklets::core
