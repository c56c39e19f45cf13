#include "tvm/interpreter.hpp"

#include <bit>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "tvm/value.hpp"
#include "tvm/verifier.hpp"

// Computed-goto dispatch needs the GNU address-of-label extension; fall back
// to the switch-based fast loop elsewhere even when the option is set.
#if defined(TASKLETS_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define TASKLETS_COMPUTED_GOTO 1
#else
#define TASKLETS_COMPUTED_GOTO 0
#endif

namespace tasklets::tvm {

namespace {

// How the fast engine may run a frame (the frame rule, interpreter.hpp).
enum class FrameMode : std::uint8_t {
  kFast,     // state matched the plan's tags: runs quickened code
  kChecked,  // state contradicted the plan: reference stepper until return
  kPending,  // restored from a snapshot: decided at its next block entry
};

struct Frame {
  const Function* fn = nullptr;
  std::uint32_t fn_idx = 0;  // index of `fn` in the program
  FrameMode mode = FrameMode::kFast;
  std::size_t ip = 0;
  std::size_t locals_base = 0;
};

static_assert(static_cast<int>(SlotTag::kInt) == static_cast<int>(ValueTag::kInt) &&
                  static_cast<int>(SlotTag::kFloat) ==
                      static_cast<int>(ValueTag::kFloat) &&
                  static_cast<int>(SlotTag::kArray) ==
                      static_cast<int>(ValueTag::kArray),
              "SlotTag must mirror ValueTag");

// Whether each of `n` values carries the tag proven (or speculated) for it.
bool tags_admit(const SlotTag* tags, const Value* values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (tags[i] != SlotTag::kAny &&
        static_cast<ValueTag>(tags[i]) != values[i].tag()) {
      return false;
    }
  }
  return true;
}

// Raw-buffer operand stack. The fast-path engine runs a proven basic block
// through a bare Value* cursor with no per-push checks (capacity is
// reserved from the block's proven max depth at block entry); std::vector
// cannot legally be written past size(), so the buffer is managed directly.
class OperandStack {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] Value* data() noexcept { return data_.get(); }
  [[nodiscard]] const Value* begin() const noexcept { return data_.get(); }
  [[nodiscard]] const Value* end() const noexcept { return data_.get() + size_; }
  [[nodiscard]] Value& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  void reserve(std::size_t cap) {
    if (cap > cap_) grow(cap);
  }
  void push_back(Value v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }
  void pop_back() noexcept { --size_; }
  void clear() noexcept { size_ = 0; }
  // Publishes the cursor position after a fast-path block ran over data().
  void set_size(std::size_t n) noexcept { size_ = n; }

 private:
  void grow(std::size_t need) {
    std::size_t cap = cap_ == 0 ? 256 : cap_;
    while (cap < need) cap *= 2;
    auto next = std::make_unique<Value[]>(cap);
    std::copy(data_.get(), data_.get() + size_, next.get());
    data_ = std::move(next);
    cap_ = cap;
  }

  std::unique_ptr<Value[]> data_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

// Intrinsic kernels shared by both engines (tag checks are the caller's
// job). Returns false on an id/table mismatch, which the callers surface as
// the reference stepper's "intrinsic dispatch mismatch" internal trap.
bool eval_intrinsic_float(Intrinsic id, double x, double y, double& r) {
  switch (id) {
    case Intrinsic::kSqrt: r = std::sqrt(x); return true;
    case Intrinsic::kSin: r = std::sin(x); return true;
    case Intrinsic::kCos: r = std::cos(x); return true;
    case Intrinsic::kTan: r = std::tan(x); return true;
    case Intrinsic::kExp: r = std::exp(x); return true;
    case Intrinsic::kLog: r = std::log(x); return true;
    case Intrinsic::kFloor: r = std::floor(x); return true;
    case Intrinsic::kCeil: r = std::ceil(x); return true;
    case Intrinsic::kRound: r = std::round(x); return true;
    case Intrinsic::kAbsFloat: r = std::fabs(x); return true;
    case Intrinsic::kPow: r = std::pow(x, y); return true;
    case Intrinsic::kAtan2: r = std::atan2(x, y); return true;
    case Intrinsic::kMinFloat: r = std::fmin(x, y); return true;
    case Intrinsic::kMaxFloat: r = std::fmax(x, y); return true;
    default: return false;
  }
}

bool eval_intrinsic_int(Intrinsic id, std::int64_t x, std::int64_t y,
                        std::int64_t& r) {
  switch (id) {
    case Intrinsic::kAbsInt:
      r = x < 0 ? static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(x)) : x;
      return true;
    case Intrinsic::kMinInt: r = std::min(x, y); return true;
    case Intrinsic::kMaxInt: r = std::max(x, y); return true;
    default: return false;
  }
}

class Machine {
 public:
  Machine(const Program& program, const ExecLimits& limits)
      : program_(program), limits_(limits) {}

  Result<ExecOutcome> run(const std::vector<HostArg>& args);

  // Resumable execution (see interpreter.hpp).
  Status start(const std::vector<HostArg>& args);
  Status restore(std::span<const std::byte> snapshot);
  Result<SliceOutcome> run_slice(std::uint64_t fuel_slice);

  void set_profile(ExecProfile* profile) noexcept { profile_ = profile; }
  // Seeds the retired-instruction counter when resuming from a Suspension
  // whose in-memory count survived (same-host slicing).
  void set_instructions(std::uint64_t n) noexcept { instructions_ = n; }
  // Enables the fast-path engine; `plan` must outlive the machine. Null (or
  // a kReference engine, or profiling) keeps the reference stepper.
  void set_plan(const ExecPlan* plan) noexcept { plan_ = plan; }
  void set_engine(Engine engine) noexcept { engine_ = engine; }

 private:
  [[nodiscard]] Bytes snapshot() const;
  // --- error helpers -------------------------------------------------------
  Status trap(StatusCode code, std::string what) const {
    const Frame& f = frames_.back();
    return make_error(code, std::move(what) + " in '" + f.fn->name +
                                "' at instruction " + std::to_string(f.ip - 1));
  }

  // --- stack helpers (verifier guarantees no underflow) --------------------
  void push(Value v) { stack_.push_back(v); }
  Value pop() {
    Value v = stack_.back();
    stack_.pop_back();
    return v;
  }
  Value& top() { return stack_.back(); }

  Status pop_int(std::int64_t& out) {
    const Value v = pop();
    if (!v.is_int()) {
      return trap(StatusCode::kAborted,
                  std::string("expected int, got ") + std::string(to_string(v.tag())));
    }
    out = v.as_int();
    return Status::ok();
  }
  Status pop_float(double& out) {
    const Value v = pop();
    if (!v.is_float()) {
      return trap(StatusCode::kAborted,
                  std::string("expected float, got ") + std::string(to_string(v.tag())));
    }
    out = v.as_float();
    return Status::ok();
  }
  Status pop_array(ArrayHandle& out) {
    const Value v = pop();
    if (!v.is_array()) {
      return trap(StatusCode::kAborted,
                  std::string("expected array, got ") + std::string(to_string(v.tag())));
    }
    out = v.as_array();
    return Status::ok();
  }

  // --- heap ----------------------------------------------------------------
  Result<ArrayHandle> alloc_array(std::int64_t length) {
    if (length < 0) {
      return trap(StatusCode::kAborted, "negative array length");
    }
    const auto cells = static_cast<std::uint64_t>(length);
    if (heap_cells_ + cells > limits_.max_heap_cells) {
      return trap(StatusCode::kResourceExhausted, "heap limit exceeded");
    }
    heap_cells_ += cells;
    heap_.emplace_back(static_cast<std::size_t>(length), Value::from_int(0));
    return static_cast<ArrayHandle>(heap_.size() - 1);
  }

  // --- frames ----------------------------------------------------------------
  Status enter(std::uint32_t fn_idx, bool from_host,
               const std::vector<HostArg>* host_args);
  Status do_return();

  // --- marshalling -----------------------------------------------------------
  Result<Value> host_to_value(const HostArg& arg);
  Result<HostArg> value_to_host(Value v) const;

  Status step();  // executes one instruction
  // Profiled interpreter loop: step() plus per-opcode timing into profile_,
  // until halt/trap or fuel_used_ >= `target` at an instruction boundary
  // (sets `suspended`). Kept out of step() so the unprofiled path carries no
  // clock reads; kept a loop (not a profiled step called from the generic
  // run loop) so the inter-read window stays a handful of instructions —
  // see the definition for the skew bound.
  Status run_profiled(std::uint64_t target, bool& suspended);

  // The fast-path engine is usable when a plan is attached and nothing
  // forces per-instruction observation.
  [[nodiscard]] bool fast_enabled() const noexcept {
    return plan_ != nullptr && profile_ == nullptr && engine_ == Engine::kFast;
  }
  // Runs fast-path blocks until halt, trap, or fuel_used_ >= `target` at an
  // instruction boundary (sets `suspended` in the latter case).
  Status run_fast(std::uint64_t target, bool& suspended);
  // Whether the top frame's locals and operand stack carry the tags the
  // plan proved at the entry of block `block_idx`.
  [[nodiscard]] bool entry_matches(const FunctionPlan& fplan,
                                   std::uint32_t block_idx) const;

  const Program& program_;
  const ExecLimits& limits_;
  OperandStack stack_;
  std::vector<Value> locals_;
  std::vector<Frame> frames_;
  std::vector<std::vector<Value>> heap_;
  std::uint64_t heap_cells_ = 0;
  std::uint64_t fuel_used_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint32_t peak_depth_ = 0;
  bool halted_ = false;
  ExecProfile* profile_ = nullptr;
  const ExecPlan* plan_ = nullptr;
  Engine engine_ = Engine::kFast;
};

Status Machine::enter(std::uint32_t fn_idx, bool from_host,
                      const std::vector<HostArg>* host_args) {
  const Function& fn = program_.function(fn_idx);
  if (frames_.size() >= limits_.max_call_depth) {
    return make_error(StatusCode::kResourceExhausted,
                      "call depth limit exceeded entering '" + fn.name + "'");
  }
  Frame frame;
  frame.fn = &fn;
  frame.fn_idx = fn_idx;
  frame.ip = 0;
  frame.locals_base = locals_.size();
  locals_.resize(locals_.size() + fn.num_locals, Value::from_int(0));
  if (from_host) {
    if (host_args->size() != fn.arity) {
      return make_error(StatusCode::kInvalidArgument,
                        "entry '" + fn.name + "' expects " +
                            std::to_string(fn.arity) + " args, got " +
                            std::to_string(host_args->size()));
    }
    for (std::uint32_t i = 0; i < fn.arity; ++i) {
      TASKLETS_ASSIGN_OR_RETURN(auto v, host_to_value((*host_args)[i]));
      locals_[frame.locals_base + i] = v;
    }
  } else {
    // Arguments were pushed left-to-right, so the last argument is on top.
    for (std::uint32_t i = fn.arity; i-- > 0;) {
      locals_[frame.locals_base + i] = pop();
    }
  }
  if (plan_ != nullptr &&
      !tags_admit(plan_->functions[fn_idx].param_tags.data(),
                  locals_.data() + frame.locals_base, fn.arity)) {
    frame.mode = FrameMode::kChecked;
  }
  frames_.push_back(frame);
  peak_depth_ = std::max(peak_depth_, static_cast<std::uint32_t>(frames_.size()));
  return Status::ok();
}

Status Machine::do_return() {
  const Frame frame = frames_.back();
  frames_.pop_back();
  locals_.resize(frame.locals_base);
  // Result value stays on the operand stack for the caller (or the host).
  if (frames_.empty()) halted_ = true;
  return Status::ok();
}

Result<Value> Machine::host_to_value(const HostArg& arg) {
  if (const auto* i = std::get_if<std::int64_t>(&arg)) {
    return Value::from_int(*i);
  }
  if (const auto* f = std::get_if<double>(&arg)) {
    return Value::from_float(*f);
  }
  if (const auto* iv = std::get_if<std::vector<std::int64_t>>(&arg)) {
    TASKLETS_ASSIGN_OR_RETURN(
        auto h, alloc_array(static_cast<std::int64_t>(iv->size())));
    auto& cells = heap_[h];
    for (std::size_t i = 0; i < iv->size(); ++i) {
      cells[i] = Value::from_int((*iv)[i]);
    }
    return Value::from_array(h);
  }
  const auto& fv = std::get<std::vector<double>>(arg);
  TASKLETS_ASSIGN_OR_RETURN(auto h,
                            alloc_array(static_cast<std::int64_t>(fv.size())));
  auto& cells = heap_[h];
  for (std::size_t i = 0; i < fv.size(); ++i) {
    cells[i] = Value::from_float(fv[i]);
  }
  return Value::from_array(h);
}

// GCC 12 flow analysis loses track of the variant alternative when the
// vector branches are inlined into Result<HostArg>'s move path and flags the
// inactive alternative's vector members as maybe-uninitialized (at -O2 and
// under -fsanitize). False positive; silenced locally for -Werror builds.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
Result<HostArg> Machine::value_to_host(Value v) const {
  switch (v.tag()) {
    case ValueTag::kInt:
      return HostArg{v.as_int()};
    case ValueTag::kFloat:
      return HostArg{v.as_float()};
    case ValueTag::kArray: {
      const auto& cells = heap_[v.as_array()];
      // Classify: all-int -> int array, otherwise all elements must be
      // numeric and are widened to double. Nested arrays cannot cross the
      // host boundary.
      bool all_int = true;
      for (const Value& c : cells) {
        if (c.is_array()) {
          return make_error(StatusCode::kAborted,
                            "nested array cannot be returned to host");
        }
        if (!c.is_int()) all_int = false;
      }
      if (all_int) {
        std::vector<std::int64_t> out;
        out.reserve(cells.size());
        for (const Value& c : cells) out.push_back(c.as_int());
        return HostArg{std::move(out)};
      }
      std::vector<double> out;
      out.reserve(cells.size());
      for (const Value& c : cells) out.push_back(c.to_double());
      return HostArg{std::move(out)};
    }
  }
  return make_error(StatusCode::kInternal, "corrupt value tag");
}
#pragma GCC diagnostic pop

// One steady_clock read per instruction: the previous step's end timestamp
// is this step's begin (only the first step pays two reads). Batching has a
// cost: everything between two reads that is not step() itself — the bucket
// update, the halt/target checks and the next opcode fetch — is billed to
// the *next* opcode's window. This loop exists to bound that residual: the
// inter-read code is ~10 straight-line instructions with no allocation,
// branch misprediction aside, versus the previous shape (a profiled step()
// driven from the generic run loop) which also billed a Status-object
// round trip and a profiling dispatch branch per step. The residual bound
// is documented in docs/OBSERVABILITY.md; it cannot reach zero without a
// second clock read per instruction, which would double the probe cost.
Status Machine::run_profiled(std::uint64_t target, bool& suspended) {
  auto mark = std::chrono::steady_clock::now();
  while (!halted_) {
    if (fuel_used_ >= target) {
      suspended = true;
      return Status::ok();
    }
    const OpCode op = frames_.back().fn->code[frames_.back().ip].op;
    const Status status = step();
    const auto end = std::chrono::steady_clock::now();
    ExecProfile::OpEntry& entry = profile_->ops[static_cast<std::size_t>(op)];
    ++entry.count;
    entry.nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - mark)
            .count());
    mark = end;
    ++profile_->instructions;
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

Status Machine::step() {
  Frame& frame = frames_.back();
  const Instr instr = frame.fn->code[frame.ip++];

  ++instructions_;
  ++fuel_used_;
  if (fuel_used_ > limits_.max_fuel) {
    return trap(StatusCode::kDeadlineExceeded, "fuel exhausted");
  }
  if (stack_.size() >= limits_.max_operand_stack) {
    return trap(StatusCode::kResourceExhausted, "operand stack limit");
  }

  switch (instr.op) {
    case OpCode::kNop:
      break;
    case OpCode::kPushInt:
      push(Value::from_int(instr.operand));
      break;
    case OpCode::kPushFloat:
      push(Value::from_float(
          std::bit_cast<double>(static_cast<std::uint64_t>(instr.operand))));
      break;
    case OpCode::kPop:
      pop();
      break;
    case OpCode::kDup:
      push(top());
      break;
    case OpCode::kSwap: {
      Value b = pop();
      Value a = pop();
      push(b);
      push(a);
      break;
    }
    case OpCode::kLoadLocal:
      push(locals_[frame.locals_base + static_cast<std::size_t>(instr.operand)]);
      break;
    case OpCode::kStoreLocal:
      locals_[frame.locals_base + static_cast<std::size_t>(instr.operand)] = pop();
      break;

#define TASKLETS_BIN_INT(name, expr)                 \
  case OpCode::name: {                               \
    std::int64_t b, a;                               \
    TASKLETS_RETURN_IF_ERROR(pop_int(b));            \
    TASKLETS_RETURN_IF_ERROR(pop_int(a));            \
    push(Value::from_int(expr));                     \
    break;                                           \
  }

    TASKLETS_BIN_INT(kAddInt, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b)))
    TASKLETS_BIN_INT(kSubInt, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b)))
    TASKLETS_BIN_INT(kMulInt, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)))
    TASKLETS_BIN_INT(kBitAnd, a & b)
    TASKLETS_BIN_INT(kBitOr, a | b)
    TASKLETS_BIN_INT(kBitXor, a ^ b)
    TASKLETS_BIN_INT(kShl, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63)))
    TASKLETS_BIN_INT(kShr, a >> (static_cast<std::uint64_t>(b) & 63))
    TASKLETS_BIN_INT(kCmpEqInt, a == b ? 1 : 0)
    TASKLETS_BIN_INT(kCmpNeInt, a != b ? 1 : 0)
    TASKLETS_BIN_INT(kCmpLtInt, a < b ? 1 : 0)
    TASKLETS_BIN_INT(kCmpLeInt, a <= b ? 1 : 0)
    TASKLETS_BIN_INT(kCmpGtInt, a > b ? 1 : 0)
    TASKLETS_BIN_INT(kCmpGeInt, a >= b ? 1 : 0)
#undef TASKLETS_BIN_INT

    case OpCode::kDivInt: {
      std::int64_t b, a;
      TASKLETS_RETURN_IF_ERROR(pop_int(b));
      TASKLETS_RETURN_IF_ERROR(pop_int(a));
      if (b == 0) return trap(StatusCode::kAborted, "integer division by zero");
      if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
        return trap(StatusCode::kAborted, "integer division overflow");
      }
      push(Value::from_int(a / b));
      break;
    }
    case OpCode::kModInt: {
      std::int64_t b, a;
      TASKLETS_RETURN_IF_ERROR(pop_int(b));
      TASKLETS_RETURN_IF_ERROR(pop_int(a));
      if (b == 0) return trap(StatusCode::kAborted, "integer modulo by zero");
      if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
        push(Value::from_int(0));
      } else {
        push(Value::from_int(a % b));
      }
      break;
    }
    case OpCode::kNegInt: {
      std::int64_t a;
      TASKLETS_RETURN_IF_ERROR(pop_int(a));
      push(Value::from_int(static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a))));
      break;
    }

#define TASKLETS_BIN_FLOAT(name, expr)               \
  case OpCode::name: {                               \
    double b, a;                                     \
    TASKLETS_RETURN_IF_ERROR(pop_float(b));          \
    TASKLETS_RETURN_IF_ERROR(pop_float(a));          \
    push(expr);                                      \
    break;                                           \
  }

    TASKLETS_BIN_FLOAT(kAddFloat, Value::from_float(a + b))
    TASKLETS_BIN_FLOAT(kSubFloat, Value::from_float(a - b))
    TASKLETS_BIN_FLOAT(kMulFloat, Value::from_float(a * b))
    TASKLETS_BIN_FLOAT(kDivFloat, Value::from_float(a / b))
    TASKLETS_BIN_FLOAT(kCmpEqFloat, Value::from_int(a == b ? 1 : 0))
    TASKLETS_BIN_FLOAT(kCmpNeFloat, Value::from_int(a != b ? 1 : 0))
    TASKLETS_BIN_FLOAT(kCmpLtFloat, Value::from_int(a < b ? 1 : 0))
    TASKLETS_BIN_FLOAT(kCmpLeFloat, Value::from_int(a <= b ? 1 : 0))
    TASKLETS_BIN_FLOAT(kCmpGtFloat, Value::from_int(a > b ? 1 : 0))
    TASKLETS_BIN_FLOAT(kCmpGeFloat, Value::from_int(a >= b ? 1 : 0))
#undef TASKLETS_BIN_FLOAT

    case OpCode::kNegFloat: {
      double a;
      TASKLETS_RETURN_IF_ERROR(pop_float(a));
      push(Value::from_float(-a));
      break;
    }
    case OpCode::kLogicalNot: {
      std::int64_t a;
      TASKLETS_RETURN_IF_ERROR(pop_int(a));
      push(Value::from_int(a == 0 ? 1 : 0));
      break;
    }
    case OpCode::kIntToFloat: {
      std::int64_t a;
      TASKLETS_RETURN_IF_ERROR(pop_int(a));
      push(Value::from_float(static_cast<double>(a)));
      break;
    }
    case OpCode::kFloatToInt: {
      double a;
      TASKLETS_RETURN_IF_ERROR(pop_float(a));
      if (std::isnan(a) || a < -9.223372036854776e18 || a >= 9.223372036854776e18) {
        return trap(StatusCode::kAborted, "float to int out of range");
      }
      push(Value::from_int(static_cast<std::int64_t>(a)));
      break;
    }

    case OpCode::kJump:
      frame.ip = static_cast<std::size_t>(instr.operand);
      break;
    case OpCode::kJumpIfZero: {
      std::int64_t a;
      TASKLETS_RETURN_IF_ERROR(pop_int(a));
      if (a == 0) frame.ip = static_cast<std::size_t>(instr.operand);
      break;
    }
    case OpCode::kJumpIfNotZero: {
      std::int64_t a;
      TASKLETS_RETURN_IF_ERROR(pop_int(a));
      if (a != 0) frame.ip = static_cast<std::size_t>(instr.operand);
      break;
    }

    case OpCode::kCall:
      // Calls cost extra fuel: frame setup dominates a single opcode.
      fuel_used_ += 3;
      return enter(static_cast<std::uint32_t>(instr.operand),
                   /*from_host=*/false, nullptr);
    case OpCode::kReturn:
      return do_return();
    case OpCode::kHalt:
      // Stops the whole machine (even inside a nested call); the value on
      // top of the stack becomes the program result.
      halted_ = true;
      break;

    case OpCode::kNewArray: {
      std::int64_t len;
      TASKLETS_RETURN_IF_ERROR(pop_int(len));
      // Zero-filling large arrays is real work; charge proportionally.
      fuel_used_ += static_cast<std::uint64_t>(len < 0 ? 0 : len) / 4;
      TASKLETS_ASSIGN_OR_RETURN(auto h, alloc_array(len));
      push(Value::from_array(h));
      break;
    }
    case OpCode::kArrayLoad: {
      std::int64_t idx;
      ArrayHandle h;
      TASKLETS_RETURN_IF_ERROR(pop_int(idx));
      TASKLETS_RETURN_IF_ERROR(pop_array(h));
      const auto& cells = heap_[h];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        return trap(StatusCode::kAborted, "array index out of bounds");
      }
      push(cells[static_cast<std::size_t>(idx)]);
      break;
    }
    case OpCode::kArrayStore: {
      const Value value = pop();
      std::int64_t idx;
      ArrayHandle h;
      TASKLETS_RETURN_IF_ERROR(pop_int(idx));
      TASKLETS_RETURN_IF_ERROR(pop_array(h));
      auto& cells = heap_[h];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        return trap(StatusCode::kAborted, "array index out of bounds");
      }
      cells[static_cast<std::size_t>(idx)] = value;
      break;
    }
    case OpCode::kArrayLen: {
      ArrayHandle h;
      TASKLETS_RETURN_IF_ERROR(pop_array(h));
      push(Value::from_int(static_cast<std::int64_t>(heap_[h].size())));
      break;
    }

    case OpCode::kIntrinsic: {
      fuel_used_ += 4;  // libm calls are pricier than simple ALU ops
      const auto id = static_cast<Intrinsic>(instr.operand);
      const IntrinsicInfo& info = intrinsic_info(id);
      if (info.float_args) {
        double y = 0.0, x;
        if (info.arity == 2) TASKLETS_RETURN_IF_ERROR(pop_float(y));
        TASKLETS_RETURN_IF_ERROR(pop_float(x));
        double r = 0.0;
        if (!eval_intrinsic_float(id, x, y, r)) {
          return trap(StatusCode::kInternal, "intrinsic dispatch mismatch");
        }
        push(Value::from_float(r));
      } else {
        std::int64_t y = 0, x;
        if (info.arity == 2) TASKLETS_RETURN_IF_ERROR(pop_int(y));
        TASKLETS_RETURN_IF_ERROR(pop_int(x));
        std::int64_t r = 0;
        if (!eval_intrinsic_int(id, x, y, r)) {
          return trap(StatusCode::kInternal, "intrinsic dispatch mismatch");
        }
        push(Value::from_int(r));
      }
      break;
    }

    default:
      // Quickened opcodes (>= kNumOpCodes) exist only inside an ExecPlan's
      // quick code; the reference stepper executes original program code and
      // can never encounter them.
      return trap(StatusCode::kInternal, "unexecutable opcode");
  }
  return Status::ok();
}

// --- fast-path engine ---------------------------------------------------------
//
// Executes one proven basic block at a time over the plan's quickened code,
// with the reference stepper's per-instruction fuel and stack-limit checks
// hoisted to block entry. Exact parity with the reference stepper is by
// construction: a block runs fast only when the plan proves it cannot trap
// on fuel or stack and cannot cross `target` mid-block, and only in a frame
// whose state matched the plan's tags (the frame rule, interpreter.hpp);
// every other case — data-dependent fuel (kNewArray), a possible mid-block
// fuel/stack trap or slice-target crossing, a mid-block resume point after
// snapshot restore, a checked frame — drains through single checked
// reference steps, which re-evaluate the fast conditions at the next
// boundary. A retired block chains into its successor without returning to
// the loop head when the successor passes the same checks. Fuel and
// instruction counters are charged when a block completes; a mid-block trap
// discards the machine, so only the trap's code and message (which carry
// the exact instruction index) are observable and both are reproduced
// exactly.

// Type-checked pops for un-quickened opcodes inside a fast block; trap
// messages match the reference stepper's pop_int/pop_float/pop_array.
#define TASKLETS_FPOP_INT(var)                                                \
  std::int64_t var;                                                           \
  {                                                                           \
    const Value v_ = *--sp;                                                   \
    if (!v_.is_int()) {                                                       \
      return fast_trap(StatusCode::kAborted,                                  \
                       std::string("expected int, got ") +                    \
                           std::string(to_string(v_.tag())),                  \
                       ip);                                                   \
    }                                                                         \
    var = v_.as_int();                                                        \
  }

#define TASKLETS_FPOP_FLOAT(var)                                              \
  double var;                                                                 \
  {                                                                           \
    const Value v_ = *--sp;                                                   \
    if (!v_.is_float()) {                                                     \
      return fast_trap(StatusCode::kAborted,                                  \
                       std::string("expected float, got ") +                  \
                           std::string(to_string(v_.tag())),                  \
                       ip);                                                   \
    }                                                                         \
    var = v_.as_float();                                                      \
  }

#define TASKLETS_FPOP_ARRAY(var)                                              \
  ArrayHandle var;                                                            \
  {                                                                           \
    const Value v_ = *--sp;                                                   \
    if (!v_.is_array()) {                                                     \
      return fast_trap(StatusCode::kAborted,                                  \
                       std::string("expected array, got ") +                  \
                           std::string(to_string(v_.tag())),                  \
                       ip);                                                   \
    }                                                                         \
    var = v_.as_array();                                                      \
  }

// Handler families. Checked forms replicate the reference stepper's pop
// order (b first, then a); unchecked forms rely on verifier-proven tags.
#define TASKLETS_FAST_BIN_INT(name, expr)                                     \
  TASKLETS_OP(name) : {                                                       \
    TASKLETS_FPOP_INT(b)                                                      \
    TASKLETS_FPOP_INT(a)                                                      \
    *sp++ = Value::from_int(expr);                                            \
    ++ip;                                                                     \
    TASKLETS_NEXT();                                                          \
  }

#define TASKLETS_FAST_BIN_INT_U(name, expr)                                   \
  TASKLETS_OP(name) : {                                                       \
    const std::int64_t b = (--sp)->as_int();                                  \
    const std::int64_t a = sp[-1].as_int();                                   \
    sp[-1] = Value::from_int(expr);                                           \
    ++ip;                                                                     \
    TASKLETS_NEXT();                                                          \
  }

#define TASKLETS_FAST_IMM_INT(name, expr)                                     \
  TASKLETS_OP(name) : {                                                       \
    const std::int64_t b = cur.operand;                                       \
    const std::int64_t a = sp[-1].as_int();                                   \
    sp[-1] = Value::from_int(expr);                                           \
    ip += 2;                                                                  \
    TASKLETS_NEXT();                                                          \
  }

#define TASKLETS_FAST_BIN_FLOAT(name, push_expr)                              \
  TASKLETS_OP(name) : {                                                       \
    TASKLETS_FPOP_FLOAT(b)                                                    \
    TASKLETS_FPOP_FLOAT(a)                                                    \
    *sp++ = push_expr;                                                        \
    ++ip;                                                                     \
    TASKLETS_NEXT();                                                          \
  }

#define TASKLETS_FAST_BIN_FLOAT_U(name, push_expr)                            \
  TASKLETS_OP(name) : {                                                       \
    const double b = (--sp)->as_float();                                      \
    const double a = sp[-1].as_float();                                       \
    sp[-1] = push_expr;                                                       \
    ++ip;                                                                     \
    TASKLETS_NEXT();                                                          \
  }

#define TASKLETS_FAST_IMM_FLOAT(name, push_expr)                              \
  TASKLETS_OP(name) : {                                                       \
    const double b =                                                          \
        std::bit_cast<double>(static_cast<std::uint64_t>(cur.operand));       \
    const double a = sp[-1].as_float();                                       \
    sp[-1] = push_expr;                                                       \
    ip += 2;                                                                  \
    TASKLETS_NEXT();                                                          \
  }

#if TASKLETS_COMPUTED_GOTO
// Token-threaded dispatch: each handler ends in its own indirect jump
// through the label table, giving the branch predictor one site per
// *predecessor opcode* instead of one shared site for the whole loop.
#define TASKLETS_OP(name) h_##name
#define TASKLETS_NEXT()                                                       \
  do {                                                                        \
    if (ip == block_end) goto fast_block_done;                                \
    cur = code[ip];                                                           \
    goto* kDispatch[static_cast<std::size_t>(cur.op)];                        \
  } while (0)
#else
#define TASKLETS_OP(name) case OpCode::name
#define TASKLETS_NEXT() goto fast_dispatch
#endif

bool Machine::entry_matches(const FunctionPlan& fplan,
                            std::uint32_t block_idx) const {
  const Frame& frame = frames_.back();
  const auto& tags = fplan.entry_tags[block_idx];
  const std::size_t num_locals = frame.fn->num_locals;
  if (tags.size() < num_locals || tags.size() - num_locals > stack_.size()) {
    return false;
  }
  const std::size_t depth = tags.size() - num_locals;
  return tags_admit(tags.data(), locals_.data() + frame.locals_base,
                    num_locals) &&
         tags_admit(tags.data() + num_locals, stack_.end() - depth, depth);
}

Status Machine::run_fast(std::uint64_t target, bool& suspended) {
  suspended = false;
#if TASKLETS_COMPUTED_GOTO
  static const void* const kDispatch[kNumVmOps] = {
#define TASKLETS_LABEL_ADDR(name) &&h_##name,
      TASKLETS_BASE_OPS(TASKLETS_LABEL_ADDR)
      TASKLETS_QUICKENED_OPS(TASKLETS_LABEL_ADDR)
#undef TASKLETS_LABEL_ADDR
  };
#endif
  // A block runs fast only when its full fuel fits under both the fuel
  // limit and the slice target (fuel_used_ + base_fuel <= fuel_cap), it
  // has no data-dependent fuel, and its stack growth stays under the limit;
  // otherwise it could trap or suspend mid-block.
  const std::uint64_t fuel_cap = std::min(limits_.max_fuel, target - 1);
  auto runnable = [&](const BlockInfo& b, std::size_t depth) {
    return !b.variable_fuel && fuel_used_ <= fuel_cap &&
           b.base_fuel <= fuel_cap - fuel_used_ &&
           depth + b.max_depth < limits_.max_operand_stack;
  };
  while (!halted_) {
    if (fuel_used_ >= target) {
      suspended = true;
      return Status::ok();
    }
    Frame& frame = frames_.back();
    const FunctionPlan& fplan = plan_->functions[frame.fn_idx];
    std::size_t ip = frame.ip;
    const std::uint32_t block_idx = fplan.block_of[ip];
    const BlockInfo* block =
        block_idx != kNoBlock && fplan.blocks[block_idx].begin == ip
            ? &fplan.blocks[block_idx]
            : nullptr;  // unreachable code or a mid-block resume point
    if (block != nullptr && frame.mode == FrameMode::kPending) {
      frame.mode = entry_matches(fplan, block_idx) ? FrameMode::kFast
                                                   : FrameMode::kChecked;
    }
    if (block == nullptr || frame.mode != FrameMode::kFast ||
        !runnable(*block, stack_.size())) {
      // One checked reference step; conditions re-evaluate at the next
      // boundary, so this lane drains exactly as far as it has to (or, for
      // a checked frame, until it returns).
      TASKLETS_RETURN_IF_ERROR(step());
      continue;
    }

    // Fast lane: the block cannot trap on fuel or stack and cannot cross
    // the slice target, so no per-instruction checks are needed.
    stack_.reserve(stack_.size() + block->max_depth + 2);
    const Instr* const code = fplan.quick.data();
    const Function& fn = *frame.fn;
    Value* const locals = locals_.data() + frame.locals_base;
    Value* sp = stack_.data() + stack_.size();
    std::size_t block_end = block->end;
    Instr cur;
    auto fast_trap = [&fn](StatusCode code_, std::string what,
                           std::size_t trap_ip) {
      return make_error(code_, std::move(what) + " in '" + fn.name +
                                   "' at instruction " +
                                   std::to_string(trap_ip));
    };

    // Block entry, also reached by chaining from the previous block.
  fast_dispatch:
#if TASKLETS_COMPUTED_GOTO
    TASKLETS_NEXT();
#else
    if (ip == block_end) goto fast_block_done;
    cur = code[ip];
    switch (cur.op) {
#endif

    // --- stack & constants --------------------------------------------------
    TASKLETS_OP(kNop) : {
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kPushInt) : {
      *sp++ = Value::from_int(cur.operand);
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kPushFloat) : {
      *sp++ = Value::from_float(
          std::bit_cast<double>(static_cast<std::uint64_t>(cur.operand)));
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kPop) : {
      --sp;
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kDup) : {
      *sp = sp[-1];
      ++sp;
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kSwap) : {
      const Value tmp = sp[-1];
      sp[-1] = sp[-2];
      sp[-2] = tmp;
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kLoadLocal) : {
      *sp++ = locals[static_cast<std::size_t>(cur.operand)];
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kStoreLocal) : {
      locals[static_cast<std::size_t>(cur.operand)] = *--sp;
      ++ip;
      TASKLETS_NEXT();
    }

    // --- integer arithmetic (checked: operand tags unproven) ----------------
    TASKLETS_FAST_BIN_INT(kAddInt, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b)))
    TASKLETS_FAST_BIN_INT(kSubInt, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b)))
    TASKLETS_FAST_BIN_INT(kMulInt, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)))
    TASKLETS_OP(kDivInt) : {
      TASKLETS_FPOP_INT(b)
      TASKLETS_FPOP_INT(a)
      if (b == 0) {
        return fast_trap(StatusCode::kAborted, "integer division by zero", ip);
      }
      if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
        return fast_trap(StatusCode::kAborted, "integer division overflow", ip);
      }
      *sp++ = Value::from_int(a / b);
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kModInt) : {
      TASKLETS_FPOP_INT(b)
      TASKLETS_FPOP_INT(a)
      if (b == 0) {
        return fast_trap(StatusCode::kAborted, "integer modulo by zero", ip);
      }
      *sp++ = Value::from_int(
          a == std::numeric_limits<std::int64_t>::min() && b == -1 ? 0 : a % b);
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kNegInt) : {
      TASKLETS_FPOP_INT(a)
      *sp++ = Value::from_int(
          static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a)));
      ++ip;
      TASKLETS_NEXT();
    }

    // --- float arithmetic (checked) -----------------------------------------
    TASKLETS_FAST_BIN_FLOAT(kAddFloat, Value::from_float(a + b))
    TASKLETS_FAST_BIN_FLOAT(kSubFloat, Value::from_float(a - b))
    TASKLETS_FAST_BIN_FLOAT(kMulFloat, Value::from_float(a * b))
    TASKLETS_FAST_BIN_FLOAT(kDivFloat, Value::from_float(a / b))
    TASKLETS_OP(kNegFloat) : {
      TASKLETS_FPOP_FLOAT(a)
      *sp++ = Value::from_float(-a);
      ++ip;
      TASKLETS_NEXT();
    }

    // --- bit operations (checked) -------------------------------------------
    TASKLETS_FAST_BIN_INT(kBitAnd, a & b)
    TASKLETS_FAST_BIN_INT(kBitOr, a | b)
    TASKLETS_FAST_BIN_INT(kBitXor, a ^ b)
    TASKLETS_FAST_BIN_INT(kShl, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63)))
    TASKLETS_FAST_BIN_INT(kShr, a >> (static_cast<std::uint64_t>(b) & 63))

    // --- comparisons (checked) ----------------------------------------------
    TASKLETS_FAST_BIN_INT(kCmpEqInt, a == b ? 1 : 0)
    TASKLETS_FAST_BIN_INT(kCmpNeInt, a != b ? 1 : 0)
    TASKLETS_FAST_BIN_INT(kCmpLtInt, a < b ? 1 : 0)
    TASKLETS_FAST_BIN_INT(kCmpLeInt, a <= b ? 1 : 0)
    TASKLETS_FAST_BIN_INT(kCmpGtInt, a > b ? 1 : 0)
    TASKLETS_FAST_BIN_INT(kCmpGeInt, a >= b ? 1 : 0)
    TASKLETS_FAST_BIN_FLOAT(kCmpEqFloat, Value::from_int(a == b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT(kCmpNeFloat, Value::from_int(a != b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT(kCmpLtFloat, Value::from_int(a < b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT(kCmpLeFloat, Value::from_int(a <= b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT(kCmpGtFloat, Value::from_int(a > b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT(kCmpGeFloat, Value::from_int(a >= b ? 1 : 0))

    // --- logic & conversions (checked) --------------------------------------
    TASKLETS_OP(kLogicalNot) : {
      TASKLETS_FPOP_INT(a)
      *sp++ = Value::from_int(a == 0 ? 1 : 0);
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kIntToFloat) : {
      TASKLETS_FPOP_INT(a)
      *sp++ = Value::from_float(static_cast<double>(a));
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kFloatToInt) : {
      TASKLETS_FPOP_FLOAT(a)
      if (std::isnan(a) || a < -9.223372036854776e18 ||
          a >= 9.223372036854776e18) {
        return fast_trap(StatusCode::kAborted, "float to int out of range", ip);
      }
      *sp++ = Value::from_int(static_cast<std::int64_t>(a));
      ++ip;
      TASKLETS_NEXT();
    }

    // --- control flow (always block terminators) ----------------------------
    TASKLETS_OP(kJump) : {
      ip = static_cast<std::size_t>(cur.operand);
      goto fast_block_done;
    }
    TASKLETS_OP(kJumpIfZero) : {
      TASKLETS_FPOP_INT(a)
      ip = a == 0 ? static_cast<std::size_t>(cur.operand) : ip + 1;
      goto fast_block_done;
    }
    TASKLETS_OP(kJumpIfNotZero) : {
      TASKLETS_FPOP_INT(a)
      ip = a != 0 ? static_cast<std::size_t>(cur.operand) : ip + 1;
      goto fast_block_done;
    }
    TASKLETS_OP(kCall) : { goto fast_block_call; }
    TASKLETS_OP(kReturn) : { goto fast_block_return; }
    TASKLETS_OP(kHalt) : { goto fast_block_halt; }

    // --- arrays (checked; kNewArray never reaches the fast lane) ------------
    TASKLETS_OP(kNewArray) : {
      // Blocks containing kNewArray have variable_fuel set and always run
      // through the checked stepper.
      return fast_trap(StatusCode::kInternal, "fast-path dispatch mismatch",
                       ip);
    }
    TASKLETS_OP(kArrayLoad) : {
      TASKLETS_FPOP_INT(idx)
      TASKLETS_FPOP_ARRAY(h)
      const auto& cells = heap_[h];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        return fast_trap(StatusCode::kAborted, "array index out of bounds", ip);
      }
      *sp++ = cells[static_cast<std::size_t>(idx)];
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kArrayStore) : {
      const Value value = *--sp;
      TASKLETS_FPOP_INT(idx)
      TASKLETS_FPOP_ARRAY(h)
      auto& cells = heap_[h];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        return fast_trap(StatusCode::kAborted, "array index out of bounds", ip);
      }
      cells[static_cast<std::size_t>(idx)] = value;
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kArrayLen) : {
      TASKLETS_FPOP_ARRAY(h)
      *sp++ = Value::from_int(static_cast<std::int64_t>(heap_[h].size()));
      ++ip;
      TASKLETS_NEXT();
    }

    // --- intrinsics (checked) -----------------------------------------------
    TASKLETS_OP(kIntrinsic) : {
      const auto id = static_cast<Intrinsic>(cur.operand);
      const IntrinsicInfo& info = intrinsic_info(id);
      if (info.float_args) {
        double y = 0.0;
        if (info.arity == 2) {
          TASKLETS_FPOP_FLOAT(y2)
          y = y2;
        }
        TASKLETS_FPOP_FLOAT(x)
        double r = 0.0;
        if (!eval_intrinsic_float(id, x, y, r)) {
          return fast_trap(StatusCode::kInternal, "intrinsic dispatch mismatch",
                           ip);
        }
        *sp++ = Value::from_float(r);
      } else {
        std::int64_t y = 0;
        if (info.arity == 2) {
          TASKLETS_FPOP_INT(y2)
          y = y2;
        }
        TASKLETS_FPOP_INT(x)
        std::int64_t r = 0;
        if (!eval_intrinsic_int(id, x, y, r)) {
          return fast_trap(StatusCode::kInternal, "intrinsic dispatch mismatch",
                           ip);
        }
        *sp++ = Value::from_int(r);
      }
      ++ip;
      TASKLETS_NEXT();
    }

    // --- quickened: unchecked integer arithmetic ----------------------------
    TASKLETS_FAST_BIN_INT_U(kAddIntU, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b)))
    TASKLETS_FAST_BIN_INT_U(kSubIntU, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b)))
    TASKLETS_FAST_BIN_INT_U(kMulIntU, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)))
    TASKLETS_OP(kDivIntU) : {
      const std::int64_t b = (--sp)->as_int();
      const std::int64_t a = sp[-1].as_int();
      if (b == 0) {
        return fast_trap(StatusCode::kAborted, "integer division by zero", ip);
      }
      if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
        return fast_trap(StatusCode::kAborted, "integer division overflow", ip);
      }
      sp[-1] = Value::from_int(a / b);
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kModIntU) : {
      const std::int64_t b = (--sp)->as_int();
      const std::int64_t a = sp[-1].as_int();
      if (b == 0) {
        return fast_trap(StatusCode::kAborted, "integer modulo by zero", ip);
      }
      sp[-1] = Value::from_int(
          a == std::numeric_limits<std::int64_t>::min() && b == -1 ? 0 : a % b);
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_FAST_BIN_INT_U(kBitAndU, a & b)
    TASKLETS_FAST_BIN_INT_U(kBitOrU, a | b)
    TASKLETS_FAST_BIN_INT_U(kBitXorU, a ^ b)
    TASKLETS_FAST_BIN_INT_U(kShlU, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63)))
    TASKLETS_FAST_BIN_INT_U(kShrU, a >> (static_cast<std::uint64_t>(b) & 63))
    TASKLETS_FAST_BIN_INT_U(kCmpEqIntU, a == b ? 1 : 0)
    TASKLETS_FAST_BIN_INT_U(kCmpNeIntU, a != b ? 1 : 0)
    TASKLETS_FAST_BIN_INT_U(kCmpLtIntU, a < b ? 1 : 0)
    TASKLETS_FAST_BIN_INT_U(kCmpLeIntU, a <= b ? 1 : 0)
    TASKLETS_FAST_BIN_INT_U(kCmpGtIntU, a > b ? 1 : 0)
    TASKLETS_FAST_BIN_INT_U(kCmpGeIntU, a >= b ? 1 : 0)
    TASKLETS_OP(kNegIntU) : {
      sp[-1] = Value::from_int(static_cast<std::int64_t>(
          0 - static_cast<std::uint64_t>(sp[-1].as_int())));
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kLogicalNotU) : {
      sp[-1] = Value::from_int(sp[-1].as_int() == 0 ? 1 : 0);
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kIntToFloatU) : {
      sp[-1] = Value::from_float(static_cast<double>(sp[-1].as_int()));
      ++ip;
      TASKLETS_NEXT();
    }

    // --- quickened: unchecked float arithmetic ------------------------------
    TASKLETS_FAST_BIN_FLOAT_U(kAddFloatU, Value::from_float(a + b))
    TASKLETS_FAST_BIN_FLOAT_U(kSubFloatU, Value::from_float(a - b))
    TASKLETS_FAST_BIN_FLOAT_U(kMulFloatU, Value::from_float(a * b))
    TASKLETS_FAST_BIN_FLOAT_U(kDivFloatU, Value::from_float(a / b))
    TASKLETS_FAST_BIN_FLOAT_U(kCmpEqFloatU, Value::from_int(a == b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT_U(kCmpNeFloatU, Value::from_int(a != b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT_U(kCmpLtFloatU, Value::from_int(a < b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT_U(kCmpLeFloatU, Value::from_int(a <= b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT_U(kCmpGtFloatU, Value::from_int(a > b ? 1 : 0))
    TASKLETS_FAST_BIN_FLOAT_U(kCmpGeFloatU, Value::from_int(a >= b ? 1 : 0))
    TASKLETS_OP(kNegFloatU) : {
      sp[-1] = Value::from_float(-sp[-1].as_float());
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kFloatToIntU) : {
      const double a = sp[-1].as_float();
      if (std::isnan(a) || a < -9.223372036854776e18 ||
          a >= 9.223372036854776e18) {
        return fast_trap(StatusCode::kAborted, "float to int out of range", ip);
      }
      sp[-1] = Value::from_int(static_cast<std::int64_t>(a));
      ++ip;
      TASKLETS_NEXT();
    }

    // --- quickened: branches on a proven-int condition ----------------------
    TASKLETS_OP(kJumpIfZeroU) : {
      const std::int64_t a = (--sp)->as_int();
      ip = a == 0 ? static_cast<std::size_t>(cur.operand) : ip + 1;
      goto fast_block_done;
    }
    TASKLETS_OP(kJumpIfNotZeroU) : {
      const std::int64_t a = (--sp)->as_int();
      ip = a != 0 ? static_cast<std::size_t>(cur.operand) : ip + 1;
      goto fast_block_done;
    }

    // --- quickened: arrays with proven ref/index tags -----------------------
    TASKLETS_OP(kArrayLoadU) : {
      const std::int64_t idx = (--sp)->as_int();
      const ArrayHandle h = (--sp)->as_array();
      const auto& cells = heap_[h];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        return fast_trap(StatusCode::kAborted, "array index out of bounds", ip);
      }
      *sp++ = cells[static_cast<std::size_t>(idx)];
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kArrayStoreU) : {
      const Value value = *--sp;
      const std::int64_t idx = (--sp)->as_int();
      const ArrayHandle h = (--sp)->as_array();
      auto& cells = heap_[h];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        return fast_trap(StatusCode::kAborted, "array index out of bounds", ip);
      }
      cells[static_cast<std::size_t>(idx)] = value;
      ++ip;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kArrayLenU) : {
      sp[-1] = Value::from_int(
          static_cast<std::int64_t>(heap_[sp[-1].as_array()].size()));
      ++ip;
      TASKLETS_NEXT();
    }

    // --- quickened: intrinsic with proven argument tags ---------------------
    TASKLETS_OP(kIntrinsicU) : {
      const auto id = static_cast<Intrinsic>(cur.operand);
      const IntrinsicInfo& info = intrinsic_info(id);
      if (info.float_args) {
        double y = 0.0;
        if (info.arity == 2) y = (--sp)->as_float();
        const double x = (--sp)->as_float();
        double r = 0.0;
        if (!eval_intrinsic_float(id, x, y, r)) {
          return fast_trap(StatusCode::kInternal, "intrinsic dispatch mismatch",
                           ip);
        }
        *sp++ = Value::from_float(r);
      } else {
        std::int64_t y = 0;
        if (info.arity == 2) y = (--sp)->as_int();
        const std::int64_t x = (--sp)->as_int();
        std::int64_t r = 0;
        if (!eval_intrinsic_int(id, x, y, r)) {
          return fast_trap(StatusCode::kInternal, "intrinsic dispatch mismatch",
                           ip);
        }
        *sp++ = Value::from_int(r);
      }
      ++ip;
      TASKLETS_NEXT();
    }

    // --- quickened: fused `push_i k; <op>` (operand = k, 2 slots) -----------
    TASKLETS_FAST_IMM_INT(kAddIntImmU, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b)))
    TASKLETS_FAST_IMM_INT(kSubIntImmU, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b)))
    TASKLETS_FAST_IMM_INT(kMulIntImmU, static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)))
    TASKLETS_FAST_IMM_INT(kCmpEqIntImmU, a == b ? 1 : 0)
    TASKLETS_FAST_IMM_INT(kCmpNeIntImmU, a != b ? 1 : 0)
    TASKLETS_FAST_IMM_INT(kCmpLtIntImmU, a < b ? 1 : 0)
    TASKLETS_FAST_IMM_INT(kCmpLeIntImmU, a <= b ? 1 : 0)
    TASKLETS_FAST_IMM_INT(kCmpGtIntImmU, a > b ? 1 : 0)
    TASKLETS_FAST_IMM_INT(kCmpGeIntImmU, a >= b ? 1 : 0)

    // --- quickened: fused `push_f x; <op>` (operand = IEEE bits, 2 slots) ---
    TASKLETS_FAST_IMM_FLOAT(kAddFloatImmU, Value::from_float(a + b))
    TASKLETS_FAST_IMM_FLOAT(kSubFloatImmU, Value::from_float(a - b))
    TASKLETS_FAST_IMM_FLOAT(kMulFloatImmU, Value::from_float(a * b))
    TASKLETS_FAST_IMM_FLOAT(kDivFloatImmU, Value::from_float(a / b))
    TASKLETS_FAST_IMM_FLOAT(kCmpEqFloatImmU, Value::from_int(a == b ? 1 : 0))
    TASKLETS_FAST_IMM_FLOAT(kCmpNeFloatImmU, Value::from_int(a != b ? 1 : 0))
    TASKLETS_FAST_IMM_FLOAT(kCmpLtFloatImmU, Value::from_int(a < b ? 1 : 0))
    TASKLETS_FAST_IMM_FLOAT(kCmpLeFloatImmU, Value::from_int(a <= b ? 1 : 0))
    TASKLETS_FAST_IMM_FLOAT(kCmpGtFloatImmU, Value::from_int(a > b ? 1 : 0))
    TASKLETS_FAST_IMM_FLOAT(kCmpGeFloatImmU, Value::from_int(a >= b ? 1 : 0))

    // --- quickened: fused local loads ---------------------------------------
    TASKLETS_OP(kLoadLocal2) : {
      const auto packed = static_cast<std::uint64_t>(cur.operand);
      *sp++ = locals[packed & 0xFFFFFFFFu];
      *sp++ = locals[packed >> 32];
      ip += 2;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kArrayLoadLLU) : {
      const auto packed = static_cast<std::uint64_t>(cur.operand);
      const ArrayHandle h = locals[packed & 0xFFFFFFFFu].as_array();
      const std::int64_t idx = locals[packed >> 32].as_int();
      const auto& cells = heap_[h];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        // The trap site is the fused aload, two slots past the window start.
        return fast_trap(StatusCode::kAborted, "array index out of bounds",
                         ip + 2);
      }
      *sp++ = cells[static_cast<std::size_t>(idx)];
      ip += 3;
      TASKLETS_NEXT();
    }
    TASKLETS_OP(kArrayLoadLLC) : {
      // Tag-checked variant: check order (index first, then ref) and trap
      // site match the reference stepper executing the unfused triple.
      const auto packed = static_cast<std::uint64_t>(cur.operand);
      const Value vref = locals[packed & 0xFFFFFFFFu];
      const Value vidx = locals[packed >> 32];
      if (!vidx.is_int()) {
        return fast_trap(StatusCode::kAborted,
                         std::string("expected int, got ") +
                             std::string(to_string(vidx.tag())),
                         ip + 2);
      }
      if (!vref.is_array()) {
        return fast_trap(StatusCode::kAborted,
                         std::string("expected array, got ") +
                             std::string(to_string(vref.tag())),
                         ip + 2);
      }
      const std::int64_t idx = vidx.as_int();
      const auto& cells = heap_[vref.as_array()];
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        return fast_trap(StatusCode::kAborted, "array index out of bounds",
                         ip + 2);
      }
      *sp++ = cells[static_cast<std::size_t>(idx)];
      ip += 3;
      TASKLETS_NEXT();
    }

    // --- quickened: 4-slot windows over proven ints -------------------------
    // Operands come from the window's slots: WLOCAL(k) is the local named by
    // slot k, WIMM(k) slot k's immediate.
#define TASKLETS_WLOCAL(k) locals[static_cast<std::size_t>(code[ip + (k)].operand)]
#define TASKLETS_WIMM(k) code[ip + (k)].operand
    // Compare-and-branch: falls through when the compare holds, else takes
    // the jz target (slot 3).
#define TASKLETS_FAST_CMP_JZ(cmp, op)                                         \
  TASKLETS_OP(kCmp##cmp##JzLLU) : {                                           \
    const std::int64_t a = TASKLETS_WLOCAL(0).as_int();                       \
    const std::int64_t b = TASKLETS_WLOCAL(1).as_int();                       \
    ip = a op b ? ip + 4 : static_cast<std::size_t>(TASKLETS_WIMM(3));       \
    goto fast_block_done;                                                     \
  }                                                                           \
  TASKLETS_OP(kCmp##cmp##JzLIU) : {                                           \
    const std::int64_t a = TASKLETS_WLOCAL(0).as_int();                       \
    const std::int64_t b = TASKLETS_WIMM(1);                                  \
    ip = a op b ? ip + 4 : static_cast<std::size_t>(TASKLETS_WIMM(3));       \
    goto fast_block_done;                                                     \
  }
    TASKLETS_FAST_CMP_JZ(Eq, ==)
    TASKLETS_FAST_CMP_JZ(Ne, !=)
    TASKLETS_FAST_CMP_JZ(Lt, <)
    TASKLETS_FAST_CMP_JZ(Le, <=)
    TASKLETS_FAST_CMP_JZ(Gt, >)
    TASKLETS_FAST_CMP_JZ(Ge, >=)
#undef TASKLETS_FAST_CMP_JZ

    // Three-address add/sub into the local named by slot 3.
#define TASKLETS_FAST_STORE3(name, rhs, expr)                                 \
  TASKLETS_OP(name) : {                                                       \
    const auto a = static_cast<std::uint64_t>(TASKLETS_WLOCAL(0).as_int());   \
    const auto b = static_cast<std::uint64_t>(rhs);                           \
    TASKLETS_WLOCAL(3) = Value::from_int(static_cast<std::int64_t>(expr));    \
    ip += 4;                                                                  \
    TASKLETS_NEXT();                                                          \
  }
    TASKLETS_FAST_STORE3(kAddStoreLLU, TASKLETS_WLOCAL(1).as_int(), a + b)
    TASKLETS_FAST_STORE3(kAddStoreLIU, TASKLETS_WIMM(1), a + b)
    TASKLETS_FAST_STORE3(kSubStoreLLU, TASKLETS_WLOCAL(1).as_int(), a - b)
    TASKLETS_FAST_STORE3(kSubStoreLIU, TASKLETS_WIMM(1), a - b)
#undef TASKLETS_FAST_STORE3

    TASKLETS_OP(kArrayStoreLLIU) : {
      auto& cells = heap_[TASKLETS_WLOCAL(0).as_array()];
      const std::int64_t idx = TASKLETS_WLOCAL(1).as_int();
      if (idx < 0 || static_cast<std::size_t>(idx) >= cells.size()) {
        // The trap site is the fused astore, three slots past the start.
        return fast_trap(StatusCode::kAborted, "array index out of bounds",
                         ip + 3);
      }
      cells[static_cast<std::size_t>(idx)] = Value::from_int(TASKLETS_WIMM(2));
      ip += 4;
      TASKLETS_NEXT();
    }
#undef TASKLETS_WLOCAL
#undef TASKLETS_WIMM

#if !TASKLETS_COMPUTED_GOTO
    default:
      return fast_trap(StatusCode::kInternal, "fast-path dispatch mismatch",
                       ip);
    }  // switch
#endif

  fast_block_done:
    // Whole block retired (fallthrough or branch): charge the proven block
    // totals in one shot, then chain straight into the next block of this
    // frame (`ip` is its leader) when it passes the same entry conditions
    // and fits the reserved stack.
    fuel_used_ += block->base_fuel;
    instructions_ += block->end - block->begin;
    {
      const BlockInfo* next = &fplan.blocks[fplan.block_of[ip]];
      const auto depth = static_cast<std::size_t>(sp - stack_.data());
      if (runnable(*next, depth) &&
          depth + next->max_depth + 2 <= stack_.capacity()) {
        block = next;
        block_end = next->end;
        goto fast_dispatch;
      }
      stack_.set_size(depth);
    }
    frame.ip = ip;
    continue;

  fast_block_call:
    stack_.set_size(static_cast<std::size_t>(sp - stack_.data()));
    frame.ip = ip + 1;  // resume point for the caller, as in the stepper
    fuel_used_ += block->base_fuel;
    instructions_ += block->end - block->begin;
    TASKLETS_RETURN_IF_ERROR(enter(static_cast<std::uint32_t>(cur.operand),
                                   /*from_host=*/false, nullptr));
    continue;

  fast_block_return:
    stack_.set_size(static_cast<std::size_t>(sp - stack_.data()));
    fuel_used_ += block->base_fuel;
    instructions_ += block->end - block->begin;
    TASKLETS_RETURN_IF_ERROR(do_return());
    continue;

  fast_block_halt:
    stack_.set_size(static_cast<std::size_t>(sp - stack_.data()));
    fuel_used_ += block->base_fuel;
    instructions_ += block->end - block->begin;
    halted_ = true;
    continue;
  }
  return Status::ok();
}

#undef TASKLETS_OP
#undef TASKLETS_NEXT
#undef TASKLETS_FPOP_INT
#undef TASKLETS_FPOP_FLOAT
#undef TASKLETS_FPOP_ARRAY
#undef TASKLETS_FAST_BIN_INT
#undef TASKLETS_FAST_BIN_INT_U
#undef TASKLETS_FAST_IMM_INT
#undef TASKLETS_FAST_BIN_FLOAT
#undef TASKLETS_FAST_BIN_FLOAT_U
#undef TASKLETS_FAST_IMM_FLOAT

Status Machine::start(const std::vector<HostArg>& args) {
  stack_.reserve(256);
  locals_.reserve(256);
  frames_.reserve(16);
  return enter(program_.entry(), /*from_host=*/true, &args);
}

Result<ExecOutcome> Machine::run(const std::vector<HostArg>& args) {
  TASKLETS_RETURN_IF_ERROR(start(args));
  if (fast_enabled()) {
    bool suspended = false;  // unreachable: the target is unlimited
    TASKLETS_RETURN_IF_ERROR(
        run_fast(std::numeric_limits<std::uint64_t>::max(), suspended));
  } else if (profile_ != nullptr) {
    bool suspended = false;  // unreachable: the target is unlimited
    TASKLETS_RETURN_IF_ERROR(
        run_profiled(std::numeric_limits<std::uint64_t>::max(), suspended));
  } else {
    while (!halted_) {
      TASKLETS_RETURN_IF_ERROR(step());
    }
  }
  ExecOutcome outcome;
  TASKLETS_ASSIGN_OR_RETURN(outcome.result, value_to_host(pop()));
  outcome.fuel_used = fuel_used_;
  outcome.instructions = instructions_;
  outcome.peak_call_depth = peak_depth_;
  return outcome;
}

// GCC 12 false positive: the inactive SliceOutcome alternative's members get
// flagged maybe-uninitialized when the variant construction inlines into
// Result's move path (-O2 / -fsanitize). Same suppression as value_to_host.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
Result<SliceOutcome> Machine::run_slice(std::uint64_t fuel_slice) {
  const std::uint64_t target =
      fuel_slice == 0 ? std::numeric_limits<std::uint64_t>::max()
                      : fuel_used_ + fuel_slice;
  bool suspended = false;
  if (fast_enabled()) {
    TASKLETS_RETURN_IF_ERROR(run_fast(target, suspended));
  } else if (profile_ != nullptr) {
    TASKLETS_RETURN_IF_ERROR(run_profiled(target, suspended));
  } else {
    while (!halted_) {
      if (fuel_used_ >= target) {
        suspended = true;
        break;
      }
      TASKLETS_RETURN_IF_ERROR(step());
    }
  }
  if (suspended) {
    Suspension suspension;
    suspension.state = snapshot();
    suspension.fuel_used = fuel_used_;
    suspension.instructions = instructions_;
    return SliceOutcome{std::move(suspension)};
  }
  ExecOutcome outcome;
  TASKLETS_ASSIGN_OR_RETURN(outcome.result, value_to_host(pop()));
  outcome.fuel_used = fuel_used_;
  outcome.instructions = instructions_;
  outcome.peak_call_depth = peak_depth_;
  return SliceOutcome{std::move(outcome)};
}
#pragma GCC diagnostic pop

// --- snapshot encoding ("TSNP") ----------------------------------------------

namespace snapshot_format {
constexpr std::uint32_t kMagic = 0x54534E50;  // "TSNP"
constexpr std::uint16_t kVersion = 1;
}  // namespace snapshot_format

namespace {
void encode_value(ByteWriter& w, const Value& v) {
  w.write_u8(static_cast<std::uint8_t>(v.tag()));
  switch (v.tag()) {
    case ValueTag::kInt: w.write_varint_signed(v.as_int()); break;
    case ValueTag::kFloat: w.write_f64(v.as_float()); break;
    case ValueTag::kArray: w.write_u32(v.as_array()); break;
  }
}

Result<Value> decode_value(ByteReader& r) {
  TASKLETS_ASSIGN_OR_RETURN(auto tag, r.read_u8());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kInt: {
      TASKLETS_ASSIGN_OR_RETURN(auto v, r.read_varint_signed());
      return Value::from_int(v);
    }
    case ValueTag::kFloat: {
      TASKLETS_ASSIGN_OR_RETURN(auto v, r.read_f64());
      return Value::from_float(v);
    }
    case ValueTag::kArray: {
      TASKLETS_ASSIGN_OR_RETURN(auto v, r.read_u32());
      return Value::from_array(v);
    }
  }
  return make_error(StatusCode::kDataLoss, "bad value tag in snapshot");
}
}  // namespace

Bytes Machine::snapshot() const {
  ByteWriter w;
  w.write_u32(snapshot_format::kMagic);
  w.write_u16(snapshot_format::kVersion);
  w.write_u64(program_.content_hash());
  w.write_varint(fuel_used_);
  w.write_varint(peak_depth_);
  w.write_varint(stack_.size());
  for (const Value& v : stack_) encode_value(w, v);
  w.write_varint(locals_.size());
  for (const Value& v : locals_) encode_value(w, v);
  w.write_varint(frames_.size());
  for (const Frame& frame : frames_) {
    // Function identity travels as an index (pointers are host-local).
    w.write_varint(frame.fn_idx);
    w.write_varint(frame.ip);
    w.write_varint(frame.locals_base);
  }
  w.write_varint(heap_.size());
  for (const auto& cells : heap_) {
    w.write_varint(cells.size());
    for (const Value& v : cells) encode_value(w, v);
  }
  return std::move(w).take();
}

Status Machine::restore(std::span<const std::byte> snapshot_bytes) {
  ByteReader r(snapshot_bytes);
  TASKLETS_ASSIGN_OR_RETURN(auto magic, r.read_u32());
  if (magic != snapshot_format::kMagic) {
    return make_error(StatusCode::kDataLoss, "bad snapshot magic");
  }
  TASKLETS_ASSIGN_OR_RETURN(auto version, r.read_u16());
  if (version != snapshot_format::kVersion) {
    return make_error(StatusCode::kDataLoss, "unsupported snapshot version");
  }
  TASKLETS_ASSIGN_OR_RETURN(auto hash, r.read_u64());
  if (hash != program_.content_hash()) {
    return make_error(StatusCode::kFailedPrecondition,
                      "snapshot belongs to a different program");
  }
  TASKLETS_ASSIGN_OR_RETURN(fuel_used_, r.read_varint());
  if (fuel_used_ > limits_.max_fuel) {
    return make_error(StatusCode::kInvalidArgument, "snapshot exceeds fuel limit");
  }
  TASKLETS_ASSIGN_OR_RETURN(auto peak, r.read_varint());
  peak_depth_ = static_cast<std::uint32_t>(peak);

  TASKLETS_ASSIGN_OR_RETURN(auto stack_size, r.read_varint());
  if (stack_size > limits_.max_operand_stack) {
    return make_error(StatusCode::kInvalidArgument, "snapshot stack too deep");
  }
  stack_.clear();
  stack_.reserve(stack_size);
  for (std::uint64_t i = 0; i < stack_size; ++i) {
    TASKLETS_ASSIGN_OR_RETURN(auto v, decode_value(r));
    stack_.push_back(v);
  }
  TASKLETS_ASSIGN_OR_RETURN(auto locals_size, r.read_varint());
  if (locals_size > limits_.max_operand_stack) {
    return make_error(StatusCode::kInvalidArgument, "snapshot locals too large");
  }
  locals_.clear();
  locals_.reserve(locals_size);
  for (std::uint64_t i = 0; i < locals_size; ++i) {
    TASKLETS_ASSIGN_OR_RETURN(auto v, decode_value(r));
    locals_.push_back(v);
  }

  TASKLETS_ASSIGN_OR_RETURN(auto frame_count, r.read_varint());
  if (frame_count == 0 || frame_count > limits_.max_call_depth) {
    return make_error(StatusCode::kInvalidArgument, "snapshot frame count invalid");
  }
  frames_.clear();
  std::vector<std::pair<std::uint32_t, std::size_t>> frame_meta;  // (fn, ip)
  std::size_t expected_base = 0;
  for (std::uint64_t i = 0; i < frame_count; ++i) {
    TASKLETS_ASSIGN_OR_RETURN(auto fn_idx, r.read_varint());
    TASKLETS_ASSIGN_OR_RETURN(auto ip, r.read_varint());
    TASKLETS_ASSIGN_OR_RETURN(auto locals_base, r.read_varint());
    if (fn_idx >= program_.function_count()) {
      return make_error(StatusCode::kInvalidArgument, "snapshot frame function");
    }
    const Function& fn = program_.function(static_cast<std::uint32_t>(fn_idx));
    if (ip >= fn.code.size()) {
      return make_error(StatusCode::kInvalidArgument, "snapshot frame ip");
    }
    if (locals_base != expected_base) {
      return make_error(StatusCode::kInvalidArgument, "snapshot locals layout");
    }
    expected_base += fn.num_locals;
    Frame frame;
    frame.fn = &fn;
    frame.fn_idx = static_cast<std::uint32_t>(fn_idx);
    frame.ip = static_cast<std::size_t>(ip);
    frame.locals_base = static_cast<std::size_t>(locals_base);
    // Restore checks shapes, not value tags: the fast engine decides at
    // the frame's next block entry whether its state matches the plan.
    frame.mode = FrameMode::kPending;
    frames_.push_back(frame);
    frame_meta.emplace_back(static_cast<std::uint32_t>(fn_idx),
                            static_cast<std::size_t>(ip));
  }
  if (expected_base != locals_.size()) {
    return make_error(StatusCode::kInvalidArgument, "snapshot locals size");
  }

  TASKLETS_ASSIGN_OR_RETURN(auto heap_count, r.read_varint());
  heap_.clear();
  heap_cells_ = 0;
  for (std::uint64_t i = 0; i < heap_count; ++i) {
    TASKLETS_ASSIGN_OR_RETURN(auto len, r.read_varint());
    heap_cells_ += len;
    if (heap_cells_ > limits_.max_heap_cells) {
      return make_error(StatusCode::kInvalidArgument, "snapshot heap too large");
    }
    std::vector<Value> cells;
    cells.reserve(len);
    for (std::uint64_t c = 0; c < len; ++c) {
      TASKLETS_ASSIGN_OR_RETURN(auto v, decode_value(r));
      cells.push_back(v);
    }
    heap_.push_back(std::move(cells));
  }
  if (!r.exhausted()) {
    return make_error(StatusCode::kDataLoss, "trailing bytes in snapshot");
  }

  // Every array handle anywhere in the state must point into the heap.
  auto handles_valid = [&](const auto& values) {
    for (const Value& v : values) {
      if (v.is_array() && v.as_array() >= heap_.size()) return false;
    }
    return true;
  };
  if (!handles_valid(stack_) || !handles_valid(locals_)) {
    return make_error(StatusCode::kInvalidArgument, "snapshot array handle");
  }
  for (const auto& cells : heap_) {
    if (!handles_valid(cells)) {
      return make_error(StatusCode::kInvalidArgument, "snapshot array handle");
    }
  }

  // Call-chain consistency: each suspended caller must sit immediately after
  // a kCall to the next frame's function.
  for (std::size_t i = 0; i + 1 < frame_meta.size(); ++i) {
    const Function& fn = program_.function(frame_meta[i].first);
    const std::size_t ip = frame_meta[i].second;
    if (ip == 0 || fn.code[ip - 1].op != OpCode::kCall ||
        fn.code[ip - 1].operand !=
            static_cast<std::int64_t>(frame_meta[i + 1].first)) {
      return make_error(StatusCode::kInvalidArgument, "snapshot call chain");
    }
  }

  // Operand-stack depth proven against the verifier's depth map: callers
  // contribute their depth after the call minus the pending result; the top
  // frame contributes its depth before the next instruction.
  TASKLETS_ASSIGN_OR_RETURN(auto depth_map, stack_depth_map(program_));
  std::int64_t expected_depth = 0;
  for (std::size_t i = 0; i < frame_meta.size(); ++i) {
    const auto [fn_idx, ip] = frame_meta[i];
    const int depth = depth_map[fn_idx][ip];
    if (depth < 0) {
      return make_error(StatusCode::kInvalidArgument,
                        "snapshot ip at unreachable instruction");
    }
    expected_depth += i + 1 < frame_meta.size() ? depth - 1 : depth;
  }
  if (expected_depth < 0 ||
      static_cast<std::size_t>(expected_depth) != stack_.size()) {
    return make_error(StatusCode::kInvalidArgument, "snapshot stack depth");
  }
  halted_ = false;
  return Status::ok();
}

}  // namespace

void ExecProfile::merge(const ExecProfile& other) noexcept {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].count += other.ops[i].count;
    ops[i].nanos += other.ops[i].nanos;
  }
  instructions += other.instructions;
}

std::string ExecProfile::to_string() const {
  // Opcodes hit, heaviest total time first.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].count > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return ops[a].nanos != ops[b].nanos ? ops[a].nanos > ops[b].nanos
                                        : ops[a].count > ops[b].count;
  });
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof buf, "%-14s %12s %12s %8s\n", "opcode", "count",
                "total_ns", "avg_ns");
  out += buf;
  for (const std::size_t i : order) {
    const double avg =
        static_cast<double>(ops[i].nanos) / static_cast<double>(ops[i].count);
    std::snprintf(buf, sizeof buf, "%-14s %12llu %12llu %8.1f\n",
                  std::string(op_info(static_cast<OpCode>(i)).name).c_str(),
                  static_cast<unsigned long long>(ops[i].count),
                  static_cast<unsigned long long>(ops[i].nanos), avg);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "instructions   %12llu\n",
                static_cast<unsigned long long>(instructions));
  out += buf;
  return out;
}

std::string ExecProfile::to_json() const {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].count > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return ops[a].nanos != ops[b].nanos ? ops[a].nanos > ops[b].nanos
                                        : ops[a].count > ops[b].count;
  });
  std::string out = "{\"instructions\":" + std::to_string(instructions);
  out += ",\"ops\":[";
  char buf[160];
  bool first = true;
  for (const std::size_t i : order) {
    const double avg =
        static_cast<double>(ops[i].nanos) / static_cast<double>(ops[i].count);
    // Opcode names are plain identifiers; no JSON escaping needed.
    std::snprintf(buf, sizeof buf,
                  "%s{\"op\":\"%s\",\"count\":%llu,\"total_ns\":%llu,"
                  "\"avg_ns\":%.1f}",
                  first ? "" : ",",
                  std::string(op_info(static_cast<OpCode>(i)).name).c_str(),
                  static_cast<unsigned long long>(ops[i].count),
                  static_cast<unsigned long long>(ops[i].nanos), avg);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

namespace {

// Resolve the engine for one run. Profiling forces the reference stepper
// (per-opcode attribution needs per-instruction stepping); otherwise use the
// caller's plan when it matches this program, or analyze here. A program
// that analyze() rejects silently falls back to the reference engine, which
// then traps or succeeds exactly as it always has.
void configure_engine(Machine& machine, const Program& program,
                      const ExecOptions& options, ExecPlan& plan_storage) {
  machine.set_profile(options.profile);
  if (options.engine != Engine::kFast || options.profile != nullptr) {
    machine.set_engine(Engine::kReference);
    return;
  }
  const ExecPlan* plan = nullptr;
  if (options.plan != nullptr && options.plan->compatible_with(program)) {
    plan = options.plan;
  } else {
    auto analyzed = analyze(program);
    if (analyzed.is_ok()) {
      plan_storage = std::move(analyzed).value();
      plan = &plan_storage;
    }
  }
  machine.set_plan(plan);
  machine.set_engine(plan != nullptr ? Engine::kFast : Engine::kReference);
}

}  // namespace

Result<ExecOutcome> execute(const Program& program,
                            const std::vector<HostArg>& args,
                            const ExecLimits& limits, ExecProfile* profile) {
  ExecOptions options;
  options.profile = profile;
  return execute(program, args, limits, options);
}

Result<ExecOutcome> execute(const Program& program,
                            const std::vector<HostArg>& args,
                            const ExecLimits& limits,
                            const ExecOptions& options) {
  Machine machine(program, limits);
  ExecPlan plan_storage;
  configure_engine(machine, program, options, plan_storage);
  return machine.run(args);
}

Result<ExecOutcome> verify_and_execute(const Program& program,
                                       const std::vector<HostArg>& args,
                                       const ExecLimits& limits,
                                       ExecProfile* profile) {
  TASKLETS_RETURN_IF_ERROR(verify(program));
  return execute(program, args, limits, profile);
}

Result<SliceOutcome> execute_slice(const Program& program,
                                   const std::vector<HostArg>& args,
                                   const ExecLimits& limits,
                                   std::uint64_t fuel_slice,
                                   ExecProfile* profile) {
  ExecOptions options;
  options.profile = profile;
  return execute_slice(program, args, limits, fuel_slice, options);
}

Result<SliceOutcome> execute_slice(const Program& program,
                                   const std::vector<HostArg>& args,
                                   const ExecLimits& limits,
                                   std::uint64_t fuel_slice,
                                   const ExecOptions& options) {
  Machine machine(program, limits);
  ExecPlan plan_storage;
  configure_engine(machine, program, options, plan_storage);
  TASKLETS_RETURN_IF_ERROR(machine.start(args));
  return machine.run_slice(fuel_slice);
}

Result<std::uint64_t> snapshot_fuel(std::span<const std::byte> state) {
  ByteReader r(state);
  TASKLETS_ASSIGN_OR_RETURN(auto magic, r.read_u32());
  if (magic != snapshot_format::kMagic) {
    return make_error(StatusCode::kDataLoss, "bad snapshot magic");
  }
  TASKLETS_ASSIGN_OR_RETURN(auto version, r.read_u16());
  if (version != snapshot_format::kVersion) {
    return make_error(StatusCode::kDataLoss, "unsupported snapshot version");
  }
  TASKLETS_ASSIGN_OR_RETURN(auto hash, r.read_u64());
  (void)hash;
  return r.read_varint();
}

Result<SliceOutcome> resume_slice(const Program& program,
                                  const Suspension& suspension,
                                  const ExecLimits& limits,
                                  std::uint64_t fuel_slice,
                                  ExecProfile* profile) {
  ExecOptions options;
  options.profile = profile;
  return resume_slice(program, suspension, limits, fuel_slice, options);
}

Result<SliceOutcome> resume_slice(const Program& program,
                                  const Suspension& suspension,
                                  const ExecLimits& limits,
                                  std::uint64_t fuel_slice,
                                  const ExecOptions& options) {
  Machine machine(program, limits);
  ExecPlan plan_storage;
  configure_engine(machine, program, options, plan_storage);
  TASKLETS_RETURN_IF_ERROR(machine.restore(std::span<const std::byte>(
      suspension.state.data(), suspension.state.size())));
  machine.set_instructions(suspension.instructions);
  return machine.run_slice(fuel_slice);
}

}  // namespace tasklets::tvm
