#include "interp/step_bound.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

namespace ompfuzz::interp {

namespace {

using ir::Op;
using ir::StmtOp;

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept {
  return b > kSaturated - a ? kSaturated : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return a > kSaturated / b ? kSaturated : a * b;
}

/// Statements whose `var` is a scalar they store to or bind.
bool binds_scalar(StmtOp op) noexcept {
  switch (op) {
    case StmtOp::AssignInt:
    case StmtOp::AssignF32:
    case StmtOp::AssignF64:
    case StmtOp::AtomicF32:
    case StmtOp::AtomicF64:
    case StmtOp::DeclF32:
    case StmtOp::DeclF64:
    case StmtOp::For:
      return true;
    default:
      return false;
  }
}

/// Who executes a block: `threads` threads, each once. `whole_team` when
/// they are exactly the enclosing region's team, so a worksharing loop met
/// there runs each of its iterations once across them.
struct Executors {
  std::uint64_t threads = 1;
  bool whole_team = false;
};

class StepBound {
 public:
  StepBound(const Compiled& program, const fp::InputSet& input,
            int num_threads_override)
      : prog_(program), override_(num_threads_override), values_(program.vars.size()) {
    // An int parameter keeps its input value for the whole run unless some
    // statement stores to it or some thread privatizes it.
    for (std::size_t k = 0; k < program.params.size(); ++k) {
      const ast::VarId id = program.params[k];
      if (program.vars[id].kind == ast::VarKind::IntScalar) {
        values_[id] = input.values[k].int_value;
      }
    }
    for (const ir::Stmt& s : program.stmts) {
      if (binds_scalar(s.op)) values_[s.var].reset();
    }
    for (const ir::Region& r : program.regions) {
      for (const ast::VarId v : r.privatizable) values_[v].reset();
    }
  }

  [[nodiscard]] std::uint64_t run() const { return block(0, prog_.body_end, {}); }

 private:
  [[nodiscard]] std::uint64_t block(std::uint32_t begin, std::uint32_t end,
                                    Executors who) const {
    std::uint64_t total = 0;
    for (std::uint32_t k = begin; k < end; ++k) {
      total = sat_add(total, stmt(prog_.stmts[k], who));
    }
    return total;
  }

  /// Steps of one statement, summed over its executing threads; each of
  /// them steps once for the statement itself.
  [[nodiscard]] std::uint64_t stmt(const ir::Stmt& s, Executors who) const {
    const std::uint64_t self = who.threads;
    switch (s.op) {
      case StmtOp::For: {
        const std::uint64_t n = trip_count(s);
        if (!s.worksharing) {
          // Every executing thread runs all n iterations.
          return sat_add(self, sat_mul(n, sat_add(who.threads, block(s.begin, s.end, who))));
        }
        // Met by part of the team only (e.g. inside another loop's
        // iteration), its iterations are split among threads that do not
        // all arrive: count none of them.
        if (!who.whole_team) return self;
        const std::uint64_t body = block(s.begin, s.end, {1, false});
        return sat_add(self, sat_mul(n, sat_add(1, body)));
      }
      case StmtOp::Critical:
        return sat_add(self, block(s.begin, s.end, who));
      case StmtOp::Parallel: {
        if (s.in_region) return self;  // nested: execute() raises
        const ir::Region& r = prog_.regions[s.var];
        const int team = override_ > 0 ? override_ : r.num_threads;
        if (team <= 0) return self;
        const Executors members{sat_mul(who.threads, static_cast<std::uint64_t>(team)),
                                true};
        return sat_add(self, block(s.begin, s.end, members));
      }
      default:
        return self;  // If, Single and Master bodies may not run
    }
  }

  [[nodiscard]] std::uint64_t trip_count(const ir::Stmt& s) const {
    const ir::Node& bound = prog_.nodes[s.value];
    std::int64_t n = 0;
    if (bound.op == Op::ConstInt) {
      n = bound.i64();
    } else if (bound.op == Op::LoadInt && values_[bound.a]) {
      n = *values_[bound.a];
    }
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, n));
  }

  const Compiled& prog_;
  const int override_;
  /// Per variable: the value every load of it reads, when known.
  std::vector<std::optional<std::int64_t>> values_;
};

}  // namespace

std::uint64_t min_steps(const Compiled& program, const fp::InputSet& input,
                        int num_threads_override) {
  if (input.values.size() != program.params.size()) return 0;
  return StepBound(program, input, num_threads_override).run();
}

}  // namespace ompfuzz::interp
