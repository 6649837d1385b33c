// A complete generated test program (paper Section III-B).
//
// A Program is the `compute` kernel: a symbol table, an ordered parameter
// list, the `comp` result accumulator, and a body block. The emitter wraps it
// in a main() that parses inputs, runs compute() under a std::chrono timer,
// and prints comp — exactly the artifact the paper's driver compiles with
// each OpenMP implementation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ast/stmt.hpp"
#include "fp/input_gen.hpp"

namespace ompfuzz::ast {

class Program {
 public:
  Program() = default;

  // Programs are move-only: statement trees are uniquely owned.
  Program(Program&&) noexcept = default;
  Program& operator=(Program&&) noexcept = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Deep copy.
  [[nodiscard]] Program clone() const;

  // -- Symbol table ---------------------------------------------------------
  /// Adds a variable; returns its id. Names must be unique.
  VarId add_var(VarDecl decl);
  [[nodiscard]] const VarDecl& var(VarId id) const;
  [[nodiscard]] std::size_t var_count() const noexcept { return vars_.size(); }
  [[nodiscard]] std::span<const VarDecl> vars() const noexcept { return vars_; }

  /// Marks a variable as a compute() parameter (order of calls = argv order).
  void add_param(VarId id);
  [[nodiscard]] std::span<const VarId> params() const noexcept { return params_; }

  void set_comp(VarId id) { comp_ = id; }
  [[nodiscard]] VarId comp() const noexcept { return comp_; }

  // -- Body -----------------------------------------------------------------
  [[nodiscard]] Block& body() noexcept { return body_; }
  [[nodiscard]] const Block& body() const noexcept { return body_; }

  /// Identifier used in reports and file names, e.g. "test_42".
  void set_name(std::string name) { name_ = std::move(name); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Parameter specs in argv order, for the input generator.
  [[nodiscard]] std::vector<fp::ParamSpec> signature() const;

  /// Structural fingerprint: stable across processes, used by the
  /// deterministic fault models and for de-duplication.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Checks tree well-formedness: every referenced variable exists, kinds
  /// match their use (arrays subscripted, scalars not), loop variables are
  /// IntScalar, comp is a declared FpScalar, assignment targets are not
  /// loop indices or int params. Throws Error with a description otherwise.
  void validate() const;

 private:
  std::vector<VarDecl> vars_;
  std::vector<VarId> params_;
  VarId comp_ = kInvalidVar;
  Block body_;
  std::string name_ = "test";
};

/// Structural features the runtime cost models and reports key off
/// (e.g. Case Study 2 hinges on a parallel region inside a serial loop).
struct ProgramFeatures {
  int num_parallel_regions = 0;
  int num_omp_for_loops = 0;
  int num_critical_sections = 0;
  int num_reductions = 0;
  int num_serial_loops = 0;          ///< for-loops with no "omp for"
  int num_if_blocks = 0;
  int num_math_calls = 0;
  int max_nesting_depth = 0;
  bool has_parallel_inside_serial_loop = false;  ///< Case Study 2 pattern
  bool has_critical_in_parallel_loop = false;    ///< Case Studies 1 & 3 pattern
  std::int64_t static_loop_iterations = 0;  ///< product-sum of constant bounds
  int num_float_vars = 0;
  int num_double_vars = 0;
  int num_arrays = 0;
  int num_atomics = 0;          ///< "#pragma omp atomic" updates
  int num_singles = 0;          ///< "#pragma omp single" blocks
  int num_masters = 0;          ///< "#pragma omp master" blocks
  int num_scheduled_loops = 0;  ///< omp-for loops with a schedule clause
};

[[nodiscard]] ProgramFeatures analyze(const Program& program);

/// Scalar reads that may execute before anything was stored to the variable
/// in the executing thread. Params and comp are stored before the body runs,
/// and entering a parallel region stores every private copy; after that a
/// variable counts as stored once a Decl, assignment or atomic update of it
/// has run on every path to the read. Only stores in enclosing blocks count
/// (a store inside an if, loop body or region never covers a read after it),
/// so the answer is conservative: every read that can observe an unwritten
/// variable is returned, in pre-order.
///
/// Such a read is undefined behaviour in the emitted C++. The interpreter
/// gives it a placeholder double 0.0, whatever the variable's declared type,
/// and the lowering (interp/lower.hpp) keeps it dynamically typed. In the
/// generated streams the benchmark runs, every such read sits in a
/// self-referential declaration, `float v = (v - x) / y;`: the generator
/// adds a new temp to the scope before drawing its initializer.
[[nodiscard]] std::vector<const Expr*> maybe_unwritten_reads(const Program& program);

/// Result of dropping every variable the body never references (the
/// reducer's final cleanup). Pruning renumbers the surviving VarIds, so the
/// body is rebuilt through clone_remap and the program re-fingerprints.
struct PruneResult {
  Program program;
  /// For each surviving parameter, its position in the original parameter
  /// list (ascending). The caller uses this to drop the corresponding values
  /// from an InputSet so the argv contract still matches the signature.
  std::vector<std::size_t> kept_params;
  bool changed = false;  ///< false when every variable was still referenced
};

/// Drops unused variables and parameters. "Used" means referenced anywhere
/// in the body (targets, expressions, guards, loop vars and bounds); comp is
/// always kept. A variable whose only mention is a data-sharing clause is
/// unused — the clause entry is dropped with it.
[[nodiscard]] PruneResult prune_unused_vars(const Program& program);

}  // namespace ompfuzz::ast
