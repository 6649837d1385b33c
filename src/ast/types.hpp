// Core vocabulary of the generated language (paper Listing 2).
//
// The generated programs are C++ compute kernels over float/double scalars
// and arrays, with for loops, if blocks, and the OpenMP constructs of
// Section III-E: parallel regions (private/firstprivate/default(shared)/
// reduction clauses), work-shared for loops, and critical sections.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include "fp/fp_class.hpp"

namespace ompfuzz::ast {

using fp::FpWidth;

/// Arithmetic operators of <op> (plus Mod, used only in array subscripts,
/// e.g. the paper's `comp[i % 1000]`).
enum class BinOp : std::uint8_t { Add, Sub, Mul, Div, Mod };

/// Comparison operators of <bool-op>.
enum class BoolOp : std::uint8_t { Lt, Gt, Eq, Ne, Ge, Le };

/// Assignment operators of <assign-op>.
enum class AssignOp : std::uint8_t { Assign, AddAssign, SubAssign, MulAssign, DivAssign };

/// Reduction operators of <reduction-op> (the paper supports + and *).
enum class ReductionOp : std::uint8_t { Sum, Prod };

/// Single-argument <math.h> functions the generator may call.
enum class MathFunc : std::uint8_t {
  Sin, Cos, Tan, Exp, Log, Sqrt, Fabs, Floor, Ceil, Atan,
};
inline constexpr int kNumMathFuncs = 10;

/// Storage classes of program variables.
enum class VarKind : std::uint8_t {
  IntScalar,  ///< int parameter (loop bounds) or loop index
  FpScalar,   ///< float/double scalar
  FpArray,    ///< float/double array of fixed size
};

/// Role of a variable in the program.
enum class VarRole : std::uint8_t {
  Comp,       ///< the `comp` result accumulator
  Param,      ///< a compute() parameter
  Temp,       ///< block-local temporary
  LoopIndex,  ///< a for-loop induction variable
};

/// OpenMP data-sharing attribute assigned to a variable within a region
/// (Section III-E: assigned randomly, except comp and loop-binding vars).
enum class Sharing : std::uint8_t { Shared, Private, FirstPrivate };

/// Index of a variable in Program::vars.
using VarId = std::uint32_t;
inline constexpr VarId kInvalidVar = ~VarId{0};

/// A variable declaration in the program symbol table.
struct VarDecl {
  std::string name;
  VarKind kind = VarKind::FpScalar;
  VarRole role = VarRole::Temp;
  FpWidth width = FpWidth::F64;  ///< for FpScalar / FpArray
  int array_size = 0;            ///< for FpArray
};

[[nodiscard]] const char* to_string(BinOp op) noexcept;
[[nodiscard]] const char* to_string(BoolOp op) noexcept;
[[nodiscard]] const char* to_string(AssignOp op) noexcept;
[[nodiscard]] const char* to_string(ReductionOp op) noexcept;   // "+" or "*"
[[nodiscard]] const char* to_string(MathFunc f) noexcept;       // C name, e.g. "sin"

// The operators' meaning, shared by the interpreter and the reducer's
// constant folds. Inline: the interpreter evaluates them on every step.

/// The <math.h> function `f` at `x`, in double (C semantics).
[[nodiscard]] inline double apply(MathFunc f, double x) noexcept {
  switch (f) {
    case MathFunc::Sin: return std::sin(x);
    case MathFunc::Cos: return std::cos(x);
    case MathFunc::Tan: return std::tan(x);
    case MathFunc::Exp: return std::exp(x);
    case MathFunc::Log: return std::log(x);
    case MathFunc::Sqrt: return std::sqrt(x);
    case MathFunc::Fabs: return std::fabs(x);
    case MathFunc::Floor: return std::floor(x);
    case MathFunc::Ceil: return std::ceil(x);
    case MathFunc::Atan: return std::atan(x);
  }
  return x;
}

/// `a op b` in T. Integer Div and Mod need b != 0. Mod is a subscript-only
/// operator: for floating-point T it never occurs and returns `a`.
template <typename T>
[[nodiscard]] inline T apply(BinOp op, T a, T b) noexcept {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Div: return a / b;
    case BinOp::Mod:
      if constexpr (std::is_integral_v<T>) return a % b;
      return a;
  }
  return a;
}

}  // namespace ompfuzz::ast
