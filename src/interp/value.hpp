// Runtime values of the interpreted test language.
//
// The interpreter mirrors C++ arithmetic semantics exactly (see
// emit/codegen.hpp): an operation is performed in float only when both
// operands are float; everything else is double. Value keeps the native
// representation per width so float operations round exactly like the
// compiled binary does on the same hardware.
#pragma once

#include <cstdint>

#include "ast/types.hpp"

namespace ompfuzz::interp {

struct Value {
  enum class Tag : std::uint8_t { Int, F32, F64 };

  Tag tag = Tag::F64;
  std::int64_t i = 0;
  float f = 0.0f;
  double d = 0.0;

  static Value make_int(std::int64_t v) noexcept {
    Value out;
    out.tag = Tag::Int;
    out.i = v;
    return out;
  }
  static Value make_f32(float v) noexcept {
    Value out;
    out.tag = Tag::F32;
    out.f = v;
    return out;
  }
  static Value make_f64(double v) noexcept {
    Value out;
    out.tag = Tag::F64;
    out.d = v;
    return out;
  }

  /// Usual arithmetic conversion to double (ints convert exactly for the
  /// magnitudes the generator produces).
  [[nodiscard]] double as_double() const noexcept {
    switch (tag) {
      case Tag::Int: return static_cast<double>(i);
      case Tag::F32: return static_cast<double>(f);
      case Tag::F64: return d;
    }
    return 0.0;
  }

  [[nodiscard]] std::int64_t as_int() const noexcept {
    switch (tag) {
      case Tag::Int: return i;
      case Tag::F32: return static_cast<std::int64_t>(f);
      case Tag::F64: return static_cast<std::int64_t>(d);
    }
    return 0;
  }

  /// Zero of the given variable width (the deterministic placeholder for
  /// never-initialized privates; generated programs never read one).
  static Value zero_of(ast::FpWidth w) noexcept {
    return w == ast::FpWidth::F32 ? make_f32(0.0f) : make_f64(0.0);
  }
};

}  // namespace ompfuzz::interp
