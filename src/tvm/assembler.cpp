#include "tvm/assembler.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

namespace tasklets::tvm {

namespace {

// A named operand awaiting resolution: label within a function, or a call
// target resolved across the whole program.
struct Fixup {
  std::size_t function_ordinal;  // unused for jump fixups
  std::size_t instr_index;
  std::string symbol;
  std::size_t line;
};

// A `push_f` operand (IEEE-754 bits) as a round-trippable literal.
std::string float_literal(std::int64_t bits) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g",
                std::bit_cast<double>(static_cast<std::uint64_t>(bits)));
  return buf;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

Status parse_error(std::size_t line, std::string what) {
  return make_error(StatusCode::kInvalidArgument,
                    "asm line " + std::to_string(line) + ": " + std::move(what));
}

Result<std::int64_t> parse_int(std::string_view tok, std::size_t line) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    return parse_error(line, "bad integer '" + std::string(tok) + "'");
  }
  return value;
}

Result<double> parse_float(std::string_view tok, std::size_t line) {
  // from_chars<double> is not universally available; strtod on a copy is
  // portable and this is not a hot path.
  const std::string copy(tok);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size()) {
    return parse_error(line, "bad float '" + copy + "'");
  }
  return value;
}

Result<std::uint32_t> parse_attr(std::string_view tok, std::string_view key,
                                 std::size_t line) {
  if (tok.substr(0, key.size()) != key || tok.size() <= key.size() ||
      tok[key.size()] != '=') {
    return parse_error(line, "expected " + std::string(key) + "=<n>");
  }
  TASKLETS_ASSIGN_OR_RETURN(auto v, parse_int(tok.substr(key.size() + 1), line));
  if (v < 0) return parse_error(line, std::string(key) + " must be >= 0");
  return static_cast<std::uint32_t>(v);
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

bool looks_numeric(std::string_view tok) {
  return !tok.empty() &&
         (std::isdigit(static_cast<unsigned char>(tok[0])) != 0 ||
          tok[0] == '-' || tok[0] == '+' || tok[0] == '.');
}

}  // namespace

Result<Program> assemble(std::string_view source) {
  std::vector<Function> functions;
  std::map<std::string, std::uint32_t, std::less<>> function_index;
  std::vector<Fixup> call_fixups;  // resolved after all functions are parsed
  std::string entry_name;
  std::size_t entry_line = 0;

  Function current;
  bool in_function = false;
  std::map<std::string, std::size_t, std::less<>> labels;
  std::vector<Fixup> jump_fixups;  // resolved at .end of each function

  std::istringstream stream{std::string(source)};
  std::string raw_line;
  std::size_t line_no = 0;

  while (std::getline(stream, raw_line)) {
    ++line_no;
    std::string_view line = trim(raw_line);
    if (const auto comment = line.find(';'); comment != std::string_view::npos) {
      line = trim(line.substr(0, comment));
    }
    if (line.empty()) continue;

    if (line.starts_with(".func")) {
      if (in_function) return parse_error(line_no, "nested .func");
      const auto toks = split_ws(line);
      if (toks.size() != 4) {
        return parse_error(line_no, ".func <name> arity=<n> locals=<n>");
      }
      current = Function{};
      current.name = std::string(toks[1]);
      TASKLETS_ASSIGN_OR_RETURN(current.arity, parse_attr(toks[2], "arity", line_no));
      TASKLETS_ASSIGN_OR_RETURN(current.num_locals,
                                parse_attr(toks[3], "locals", line_no));
      if (current.num_locals < current.arity) current.num_locals = current.arity;
      labels.clear();
      jump_fixups.clear();
      in_function = true;
      continue;
    }
    if (line == ".end") {
      if (!in_function) return parse_error(line_no, ".end outside function");
      for (const auto& fx : jump_fixups) {
        const auto it = labels.find(fx.symbol);
        if (it == labels.end()) {
          return parse_error(fx.line, "undefined label '" + fx.symbol + "'");
        }
        current.code[fx.instr_index].operand = static_cast<std::int64_t>(it->second);
      }
      if (function_index.contains(current.name)) {
        return parse_error(line_no, "duplicate function '" + current.name + "'");
      }
      function_index.emplace(current.name,
                             static_cast<std::uint32_t>(functions.size()));
      functions.push_back(std::move(current));
      in_function = false;
      continue;
    }
    if (line.starts_with(".entry")) {
      const auto toks = split_ws(line);
      if (toks.size() != 2) return parse_error(line_no, ".entry <name>");
      entry_name = std::string(toks[1]);
      entry_line = line_no;
      continue;
    }
    if (!in_function) {
      return parse_error(line_no, "instruction outside .func");
    }
    if (line.ends_with(':')) {
      const std::string label(trim(line.substr(0, line.size() - 1)));
      if (label.empty()) return parse_error(line_no, "empty label");
      if (!labels.emplace(label, current.code.size()).second) {
        return parse_error(line_no, "duplicate label '" + label + "'");
      }
      continue;
    }

    const auto toks = split_ws(line);
    const auto opcode = opcode_by_name(toks[0]);
    if (!opcode) {
      return parse_error(line_no, "unknown mnemonic '" + std::string(toks[0]) + "'");
    }
    Instr instr;
    instr.op = *opcode;
    const bool needs_operand = op_info(*opcode).has_operand;
    if (needs_operand != (toks.size() == 2)) {
      return parse_error(line_no, needs_operand
                                      ? "'" + std::string(toks[0]) + "' needs an operand"
                                      : "'" + std::string(toks[0]) + "' takes no operand");
    }
    if (needs_operand) {
      const std::string_view operand = toks[1];
      switch (*opcode) {
        case OpCode::kPushFloat: {
          TASKLETS_ASSIGN_OR_RETURN(auto f, parse_float(operand, line_no));
          instr.operand = static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(f));
          break;
        }
        case OpCode::kIntrinsic: {
          const auto id = intrinsic_by_name(operand);
          if (!id) {
            return parse_error(line_no,
                               "unknown intrinsic '" + std::string(operand) + "'");
          }
          instr.operand = static_cast<std::int64_t>(*id);
          break;
        }
        case OpCode::kCall:
          if (looks_numeric(operand)) {
            TASKLETS_ASSIGN_OR_RETURN(instr.operand, parse_int(operand, line_no));
          } else {
            call_fixups.push_back({functions.size(), current.code.size(),
                                   std::string(operand), line_no});
          }
          break;
        case OpCode::kJump:
        case OpCode::kJumpIfZero:
        case OpCode::kJumpIfNotZero:
          if (looks_numeric(operand)) {
            TASKLETS_ASSIGN_OR_RETURN(instr.operand, parse_int(operand, line_no));
          } else {
            jump_fixups.push_back(
                {functions.size(), current.code.size(), std::string(operand), line_no});
          }
          break;
        default:
          TASKLETS_ASSIGN_OR_RETURN(instr.operand, parse_int(operand, line_no));
          break;
      }
    }
    current.code.push_back(instr);
  }

  if (in_function) {
    return make_error(StatusCode::kInvalidArgument, "missing .end at EOF");
  }
  if (functions.empty()) {
    return make_error(StatusCode::kInvalidArgument, "no functions in source");
  }

  for (const auto& fx : call_fixups) {
    const auto it = function_index.find(fx.symbol);
    if (it == function_index.end()) {
      return parse_error(fx.line, "undefined function '" + fx.symbol + "'");
    }
    functions[fx.function_ordinal].code[fx.instr_index].operand = it->second;
  }

  if (entry_name.empty()) {
    return make_error(StatusCode::kInvalidArgument, "missing .entry directive");
  }
  const auto entry_it = function_index.find(entry_name);
  if (entry_it == function_index.end()) {
    return parse_error(entry_line, "entry function '" + entry_name + "' not defined");
  }

  Program program;
  for (auto& fn : functions) program.add_function(std::move(fn));
  program.set_entry(entry_it->second);
  return program;
}

std::string plan_listing(const Program& program, const ExecPlan& plan) {
  static constexpr std::string_view kTagNames[] = {"int", "float", "array",
                                                   "any"};
  std::ostringstream out;
  for (std::uint32_t f = 0; f < program.function_count(); ++f) {
    const Function& fn = program.function(f);
    const FunctionPlan& fp = plan.functions[f];
    out << ".func " << fn.name << '(';
    for (std::size_t i = 0; i < fp.param_tags.size(); ++i) {
      out << (i == 0 ? "" : ", ")
          << kTagNames[static_cast<std::size_t>(fp.param_tags[i])];
    }
    out << ") locals=" << fn.num_locals << '\n';
    std::size_t fused_until = 0;  // end of the fused window covering ip
    for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
      const std::uint32_t b = fp.block_of[ip];
      if (b == kNoBlock) {
        out << "  " << ip << "  unreachable\n";
        continue;
      }
      const BlockInfo& block = fp.blocks[b];
      if (block.begin == ip) {
        out << " block " << b << ": fuel=" << block.base_fuel
            << " depth=" << block.max_depth
            << (block.variable_fuel ? " variable_fuel" : "") << '\n';
      }
      const Instr& instr = fn.code[ip];
      std::string text(op_info(instr.op).name);
      if (instr.op == OpCode::kPushFloat) {
        text += ' ' + float_literal(instr.operand);
      } else if (op_info(instr.op).has_operand) {
        text += ' ' + std::to_string(instr.operand);
      }
      std::string runs_as;
      if (ip < fused_until) {
        runs_as = "(fused)";
      } else if (fp.quick[ip].op != instr.op) {
        runs_as = vm_op_name(fp.quick[ip].op);
        fused_until = ip + vm_op_slots(fp.quick[ip].op);
      }
      char line[128];
      std::snprintf(line, sizeof line, "  %4zu  %-20s  %s", ip, text.c_str(),
                    runs_as.c_str());
      std::string_view trimmed(line);
      out << trimmed.substr(0, trimmed.find_last_not_of(' ') + 1) << '\n';
    }
    out << ".end\n";
  }
  return out.str();
}

std::string disassemble(const Program& program) {
  std::ostringstream out;
  for (std::uint32_t f = 0; f < program.function_count(); ++f) {
    const Function& fn = program.function(f);
    out << ".func " << fn.name << " arity=" << fn.arity
        << " locals=" << fn.num_locals << "\n";
    std::map<std::size_t, std::string> target_labels;
    for (const Instr& instr : fn.code) {
      if (instr.op == OpCode::kJump || instr.op == OpCode::kJumpIfZero ||
          instr.op == OpCode::kJumpIfNotZero) {
        const auto target = static_cast<std::size_t>(instr.operand);
        if (!target_labels.contains(target)) {
          target_labels.emplace(target, "L" + std::to_string(target_labels.size()));
        }
      }
    }
    for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
      if (const auto it = target_labels.find(ip); it != target_labels.end()) {
        out << it->second << ":\n";
      }
      const Instr& instr = fn.code[ip];
      const OpInfo& info = op_info(instr.op);
      out << "  " << info.name;
      if (info.has_operand) {
        switch (instr.op) {
          case OpCode::kPushFloat:
            out << ' ' << float_literal(instr.operand);
            break;
          case OpCode::kIntrinsic:
            out << ' '
                << intrinsic_info(static_cast<Intrinsic>(instr.operand)).name;
            break;
          case OpCode::kCall:
            out << ' '
                << program.function(static_cast<std::uint32_t>(instr.operand)).name;
            break;
          case OpCode::kJump:
          case OpCode::kJumpIfZero:
          case OpCode::kJumpIfNotZero:
            out << ' ' << target_labels.at(static_cast<std::size_t>(instr.operand));
            break;
          default:
            out << ' ' << instr.operand;
            break;
        }
      }
      out << '\n';
    }
    out << ".end\n";
  }
  out << ".entry " << program.function(program.entry()).name << '\n';
  return out.str();
}

}  // namespace tasklets::tvm
