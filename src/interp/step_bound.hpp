// A static lower bound on the steps the interpreter counts.
//
// execute() counts one step per executed statement plus one per loop
// iteration and stops a run once the count passes InterpOptions::max_steps.
// min_steps walks the lowered statement ranges once, without executing
// anything, and returns a count that no completed run on `input` can stay
// under. When it already exceeds the budget, the run is known to end over
// budget and need not be interpreted.
//
// The bound is sound because it only counts what must execute:
//
//   * If, Single and Master bodies count 0; Critical bodies count in full;
//   * a serial For counts 1 + n * (1 + body) per executing thread;
//   * a worksharing For executed by the whole team counts the statement once
//     per thread plus n * (1 + body) over the team: both the contiguous and
//     the round-robin schedule run each iteration exactly once;
//   * a region's team is num_threads_override when positive, otherwise the
//     region's own num_threads, exactly as execute() decides;
//   * a trip count n is known only for a constant, or for a load of an int
//     parameter that no statement assigns, no loop binds and no region
//     privatizes (its value is then the input's); any other bound counts 0
//     iterations.
//
// Sums and products saturate at UINT64_MAX. The statement structure does not
// depend on contract_fma or on any FpSemantics, so one bound serves every
// lowering of a program. Programs that raise InterpError (out-of-bounds
// subscripts, nested regions) are outside the claim: the bound assumes the
// run is not cut short by an error.
#pragma once

#include <cstdint>

#include "fp/input_gen.hpp"
#include "interp/lower.hpp"

namespace ompfuzz::interp {

/// Lower bound on InterpResult::steps of any completed execute(program,
/// input, {.num_threads_override = num_threads_override}). Returns 0 when
/// `input` does not match the program's signature (execute() rejects it).
[[nodiscard]] std::uint64_t min_steps(const Compiled& program,
                                      const fp::InputSet& input,
                                      int num_threads_override);

}  // namespace ompfuzz::interp
