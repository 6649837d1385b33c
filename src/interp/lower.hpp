// The lowered form the interpreter executes.
//
// interp::compile walks an ast::Program once and produces flat arrays:
//
//   * expression nodes in pre-order, 16 bytes each. A node's first operand
//     is the next node; a second or third operand sits at an offset stored
//     in the node. Every node carries the static C++ type of its value (int,
//     float or double). Where C++ converts an operand, the lowering inserts
//     an explicit conversion node, so each evaluator only ever sees operands
//     of the type it computes in;
//   * statement nodes, one contiguous range per block, with variable ids,
//     array extents and loop schedules resolved;
//   * one entry per parallel region with its clause lists and the variables
//     a thread can privatize.
//
// One kind of read keeps tag-dispatched Value evaluation: a read of a float
// scalar that may execute before anything was stored to it
// (ast::maybe_unwritten_reads — in generated programs, the self-referential
// `float v = (v - x) / y;`). Such a read yields a double 0.0 on its first
// execution and a float afterwards, so its type is Dyn and every operation
// it feeds is decided per execution.
//
// FMA contraction changes which operations exist, so it is decided here:
// compile once per contract_fma setting and execute with matching options.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "ast/program.hpp"

namespace ompfuzz::interp {

/// Static type of a lowered value. Dyn: decided per execution (see above).
enum class Ty : std::uint8_t { Int, F32, F64, Dyn };

namespace ir {

enum class Op : std::uint8_t {
  // Int results.
  ConstInt,   ///< i64()
  LoadInt,    ///< scalar var a
  ThreadId,   ///< omp_get_thread_num() inside a region
  Mod,        ///< int % int, both Int operands
  F32ToInt,
  F64ToInt,
  DynToInt,
  // Float results.
  LoadF32,
  LoadArrayF32,  ///< array a[index], extent in bits; index is the next node
  BinF32,        ///< sub = ast::BinOp
  FmaF32,        ///< x*y +/- z, sub = Add or Sub; y at a, z at bits
  // Double results.
  ConstF64,
  LoadF64,
  LoadArrayF64,
  BinF64,
  FmaF64,
  Call,  ///< sub = ast::MathFunc
  IntToF64,
  F32ToF64,
  DynToF64,
  // Dyn results.
  LoadDyn,
  BinDyn,
  FmaDyn,
};

struct Node {
  Op op;
  Ty ty;
  std::uint8_t sub = 0;  ///< ast::BinOp or ast::MathFunc
  std::uint8_t pad = 0;
  std::uint32_t a = 0;   ///< var id, or offset of the second operand
  std::uint64_t bits = 0;  ///< constant bits, array extent, or third-operand offset

  [[nodiscard]] const Node& operand(std::uint32_t offset) const noexcept {
    return *(this + offset);
  }
  [[nodiscard]] double f64() const noexcept { return std::bit_cast<double>(bits); }
  [[nodiscard]] std::int64_t i64() const noexcept {
    return static_cast<std::int64_t>(bits);
  }
};
static_assert(sizeof(Node) == 16);

enum class StmtOp : std::uint8_t {
  AssignInt,
  AssignF32,
  AssignF64,
  AssignArrayF32,
  AssignArrayF64,
  AtomicF32,
  AtomicF64,
  AtomicArrayF32,
  AtomicArrayF64,
  DeclF32,
  DeclF64,
  If,
  For,
  Parallel,
  Critical,
  Single,
  Master,
};

struct Stmt {
  StmtOp op;
  std::uint8_t sub = 0;     ///< ast::AssignOp, ast::BoolOp or ast::ScheduleKind
  bool in_region = false;   ///< lexically inside a parallel region
  bool worksharing = false; ///< For: "omp for" inside a region
  std::uint32_t var = 0;    ///< target, loop var, or region index
  std::uint32_t value = 0;  ///< node: value, guard rhs, or loop bound
  std::uint32_t index = 0;  ///< node: subscript, or guard lhs
  std::int32_t extent = 0;  ///< array size, or schedule chunk
  std::uint32_t begin = 0;  ///< body statements [begin, end)
  std::uint32_t end = 0;
};

struct Region {
  std::vector<ast::VarId> privates;
  std::vector<ast::VarId> firstprivates;
  /// Every variable a thread of this region may privatize: the clause
  /// lists, comp under a reduction, and each Decl target and loop variable
  /// in the body. Reset to shared storage when a thread ends.
  std::vector<ast::VarId> privatizable;
  int num_threads = 1;
  bool has_reduction = false;
  ast::ReductionOp reduction = ast::ReductionOp::Sum;
};

}  // namespace ir

/// A program lowered for execution. Immutable once built; any number of
/// threads may execute it concurrently.
struct Compiled {
  std::vector<ir::Node> nodes;
  std::vector<ir::Stmt> stmts;  ///< the body is stmts[0, body_end)
  std::vector<ir::Region> regions;
  std::vector<ast::VarDecl> vars;
  std::vector<ast::VarId> params;
  ast::VarId comp = ast::kInvalidVar;
  std::uint32_t body_end = 0;
  bool contract_fma = false;
};

/// Lowers `program` once. Runtime errors (bad subscript, modulo by zero,
/// unbound array, nested region) are left to execute(), which raises them
/// when the faulty statement runs.
[[nodiscard]] Compiled compile(const ast::Program& program,
                               bool contract_fma = false);

}  // namespace ompfuzz::interp
