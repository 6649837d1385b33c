// Tests for the interpreter: arithmetic typing, control flow, OpenMP
// semantics (privatization, firstprivate, reductions, omp-for scheduling),
// FP semantic knobs, event counting, the step budget, and the static step
// bound (min_steps) with its soundness sweep (CI: --gtest_filter=*MinStepsSweep*).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "core/generator.hpp"
#include "interp/interp.hpp"
#include "interp/step_bound.hpp"
#include "runtime/impl_profile.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz::interp {
namespace {

using ast::AssignOp;
using ast::BinOp;
using ast::Block;
using ast::Expr;
using ast::FpWidth;
using ast::LValue;
using ast::OmpClauses;
using ast::Program;
using ast::ReductionOp;
using ast::Stmt;
using ast::VarId;
using ast::VarKind;
using ast::VarRole;

/// Program builder: comp + configurable params, returning input values.
struct TestProgram {
  Program prog;
  VarId comp;
  std::vector<fp::InputValue> inputs;

  TestProgram() {
    comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
  }

  VarId add_double(const std::string& name, double v) {
    const VarId id =
        prog.add_var({name, VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Scalar;
    in.width = fp::FpWidth::F64;
    in.fp_value = v;
    inputs.push_back(in);
    return id;
  }

  VarId add_float(const std::string& name, float v) {
    const VarId id =
        prog.add_var({name, VarKind::FpScalar, VarRole::Param, FpWidth::F32, 0});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Scalar;
    in.width = fp::FpWidth::F32;
    in.fp_value = static_cast<double>(v);
    inputs.push_back(in);
    return id;
  }

  VarId add_int(const std::string& name, std::int64_t v) {
    const VarId id =
        prog.add_var({name, VarKind::IntScalar, VarRole::Param, FpWidth::F64, 0});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Int;
    in.int_value = v;
    inputs.push_back(in);
    return id;
  }

  VarId add_array(const std::string& name, FpWidth w, int size, double fill) {
    const VarId id = prog.add_var({name, VarKind::FpArray, VarRole::Param, w, size});
    prog.add_param(id);
    fp::InputValue in;
    in.kind = fp::ParamKind::Array;
    in.width = w == FpWidth::F32 ? fp::FpWidth::F32 : fp::FpWidth::F64;
    in.fp_value = fill;
    inputs.push_back(in);
    return id;
  }

  VarId loop_index(const std::string& name) {
    return prog.add_var({name, VarKind::IntScalar, VarRole::LoopIndex,
                         FpWidth::F64, 0});
  }

  InterpResult run(InterpOptions opt = {}) {
    fp::InputSet set;
    set.values = inputs;
    prog.validate();
    return execute(prog, set, opt);
  }
};

// ------------------------------------------------------------ basics -------

TEST(Interp, CompStartsAtZero) {
  TestProgram t;
  const auto r = t.run();
  EXPECT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.comp, 0.0);
}

TEST(Interp, SimpleArithmetic) {
  TestProgram t;
  const VarId x = t.add_double("x", 3.0);
  const VarId y = t.add_double("y", 4.0);
  // comp += x * y + 0.5
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Add,
                   Expr::binary(BinOp::Mul, Expr::var(x), Expr::var(y)),
                   Expr::fp_const(0.5))));
  EXPECT_DOUBLE_EQ(t.run().comp, 12.5);
}

TEST(Interp, AllAssignOps) {
  TestProgram t;
  const VarId x = t.add_double("x", 2.0);
  auto& body = t.prog.body().stmts;
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::Assign,
                              Expr::fp_const(10.0)));
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                              Expr::var(x)));  // 12
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::SubAssign,
                              Expr::fp_const(4.0)));  // 8
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::MulAssign,
                              Expr::var(x)));  // 16
  body.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::DivAssign,
                              Expr::fp_const(4.0)));  // 4
  EXPECT_DOUBLE_EQ(t.run().comp, 4.0);
}

TEST(Interp, DivisionByZeroGivesInfinity) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId z = t.add_double("z", 0.0);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Div, Expr::var(x), Expr::var(z))));
  EXPECT_TRUE(std::isinf(t.run().comp));
}

TEST(Interp, MathCallsMatchLibm) {
  TestProgram t;
  const VarId x = t.add_double("x", 0.5);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::call(ast::MathFunc::Sin, Expr::var(x))));
  EXPECT_DOUBLE_EQ(t.run().comp, std::sin(0.5));
}

TEST(Interp, FloatOperationsRoundInFloat) {
  TestProgram t;
  const float a = 1.1f, b = 2.3f;
  const VarId va = t.add_float("a", a);
  const VarId vb = t.add_float("b", b);
  // tmp (float) = a * b; comp += tmp
  const VarId tmp = t.prog.add_var({"tmp", VarKind::FpScalar, VarRole::Temp,
                                    FpWidth::F32, 0});
  t.prog.body().stmts.push_back(
      Stmt::decl(tmp, Expr::binary(BinOp::Mul, Expr::var(va), Expr::var(vb))));
  t.prog.body().stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                             AssignOp::AddAssign, Expr::var(tmp)));
  // Reference: float multiply, then widen — exactly what C++ does.
  const double expected = static_cast<double>(a * b);
  EXPECT_DOUBLE_EQ(t.run().comp, expected);
}

TEST(Interp, MixedWidthPromotesToDouble) {
  TestProgram t;
  const VarId f = t.add_float("f", 0.1f);
  const VarId d = t.add_double("d", 0.2);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Add, Expr::var(f), Expr::var(d))));
  EXPECT_DOUBLE_EQ(t.run().comp, static_cast<double>(0.1f) + 0.2);
}

TEST(Interp, CompoundFloatAssignMatchesCpp) {
  TestProgram t;
  const float a = 3.3f;
  const float b = 7.7f;
  const VarId va = t.add_float("a", a);
  const VarId vb = t.add_float("b", b);
  const VarId tmp = t.prog.add_var({"tmp", VarKind::FpScalar, VarRole::Temp,
                                    FpWidth::F32, 0});
  t.prog.body().stmts.push_back(Stmt::decl(tmp, Expr::var(va)));
  t.prog.body().stmts.push_back(
      Stmt::assign(LValue{tmp, nullptr}, AssignOp::MulAssign, Expr::var(vb)));
  t.prog.body().stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                             AssignOp::AddAssign, Expr::var(tmp)));
  float ref = a;
  ref *= b;  // float multiply, as the emitted C++ would do
  EXPECT_DOUBLE_EQ(t.run().comp, static_cast<double>(ref));
}

// ------------------------------------------------------------ control flow -

TEST(Interp, IfTakenAndNotTaken) {
  TestProgram t;
  const VarId x = t.add_double("x", 5.0);
  ast::BoolExpr taken;
  taken.lhs = x;
  taken.op = ast::BoolOp::Gt;
  taken.rhs = Expr::fp_const(1.0);
  Block then1;
  then1.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                     Expr::fp_const(10.0)));
  t.prog.body().stmts.push_back(Stmt::if_block(std::move(taken), std::move(then1)));

  ast::BoolExpr not_taken;
  not_taken.lhs = x;
  not_taken.op = ast::BoolOp::Lt;
  not_taken.rhs = Expr::fp_const(1.0);
  Block then2;
  then2.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                     Expr::fp_const(100.0)));
  t.prog.body().stmts.push_back(
      Stmt::if_block(std::move(not_taken), std::move(then2)));
  EXPECT_DOUBLE_EQ(t.run().comp, 10.0);
}

TEST(Interp, ForLoopWithConstantBound) {
  TestProgram t;
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(7), std::move(body), false));
  const auto r = t.run();
  EXPECT_DOUBLE_EQ(r.comp, 7.0);
  EXPECT_EQ(r.events.loop_iterations, 7u);
}

TEST(Interp, ForLoopWithParamBound) {
  TestProgram t;
  const VarId n = t.add_int("n", 5);
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(2.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::var(n), std::move(body), false));
  EXPECT_DOUBLE_EQ(t.run().comp, 10.0);
}

TEST(Interp, LoopIndexVisibleInBody) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 4, 0.0);
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{arr, Expr::var(i)}, AssignOp::Assign,
                                    Expr::fp_const(3.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(4), std::move(body), false));
  // comp += arr[3]
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::array(arr, Expr::int_const(3))));
  EXPECT_DOUBLE_EQ(t.run().comp, 3.0);
}

TEST(Interp, ArrayFillAndFloatStorage) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F32, 8, 0.1);  // fill = 0.1
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::array(arr, Expr::int_const(2))));
  // Float array holds float(0.1), widened on read.
  EXPECT_DOUBLE_EQ(t.run().comp, static_cast<double>(0.1f));
}

TEST(Interp, OutOfBoundsSubscriptThrows) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 4, 1.0);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::array(arr, Expr::int_const(4))));
  // validate() passes (subscript bounds are a dynamic property); the
  // interpreter must catch it as a framework-level error.
  fp::InputSet set;
  set.values = t.inputs;
  EXPECT_THROW((void)execute(t.prog, set, {}), InterpError);
}

// ------------------------------------------------------------ OpenMP -------

/// Builds "parallel { preamble...; for (...) { body } }".
Stmt* add_region(TestProgram& t, OmpClauses clauses, Block preamble,
                 VarId loop_var, std::int64_t bound, Block loop_body,
                 bool omp_for) {
  Block region;
  for (auto& s : preamble.stmts) region.stmts.push_back(std::move(s));
  region.stmts.push_back(Stmt::for_loop(loop_var, Expr::int_const(bound),
                                        std::move(loop_body), omp_for));
  t.prog.body().stmts.push_back(
      Stmt::omp_parallel(std::move(clauses), std::move(region)));
  return t.prog.body().stmts.back().get();
}

TEST(Interp, ReductionSumAcrossThreads) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 4;
  // omp for over 12 iterations: each iteration adds 1 exactly once.
  add_region(t, std::move(clauses), std::move(preamble), i, 12, std::move(loop),
             /*omp_for=*/true);
  const auto r = t.run();
  EXPECT_DOUBLE_EQ(r.comp, 12.0);
  EXPECT_EQ(r.events.parallel_regions, 1u);
  EXPECT_EQ(r.events.thread_starts, 4u);
  EXPECT_EQ(r.events.reduction_combines, 4u);
}

TEST(Interp, ReductionProdUsesIdentityOne) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::MulAssign,
                                    Expr::fp_const(2.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Prod;
  clauses.num_threads = 2;
  add_region(t, std::move(clauses), std::move(preamble), i, 8, std::move(loop),
             /*omp_for=*/true);
  // comp starts 0.0: 0 * (2^8) = 0 under reduction(*: comp).
  EXPECT_DOUBLE_EQ(t.run().comp, 0.0);
}

TEST(Interp, SerialLoopInRegionRunsPerThread) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 3;
  // NOT work-shared: every thread runs all 5 iterations.
  add_region(t, std::move(clauses), std::move(preamble), i, 5, std::move(loop),
             /*omp_for=*/false);
  EXPECT_DOUBLE_EQ(t.run().comp, 15.0);
}

TEST(Interp, FirstprivateCarriesValueIn) {
  TestProgram t;
  const VarId x = t.add_double("x", 7.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                        AssignOp::AddAssign, Expr::var(x)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(0.0)));
  OmpClauses clauses;
  clauses.firstprivates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 2;
  add_region(t, std::move(clauses), std::move(preamble), i, 2, std::move(loop), true);
  // Each of 2 threads adds firstprivate x (7.0) once in the preamble.
  EXPECT_DOUBLE_EQ(t.run().comp, 14.0);
}

TEST(Interp, PrivateWritesDoNotLeakOut) {
  TestProgram t;
  const VarId x = t.add_double("x", 3.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(99.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{x, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 2;
  Block crit;
  crit.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(0.0)));
  loop.stmts.push_back(Stmt::omp_critical(std::move(crit)));
  add_region(t, std::move(clauses), std::move(preamble), i, 2, std::move(loop), true);
  // After the region, shared x must still be 3.0.
  t.prog.body().stmts.push_back(
      Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign, Expr::var(x)));
  EXPECT_DOUBLE_EQ(t.run().comp, 3.0);
}

TEST(Interp, ThreadIdIndexedArrayWrites) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 8, 0.0);
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{arr, Expr::thread_id()},
                                    AssignOp::Assign, Expr::fp_const(5.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 4;
  add_region(t, std::move(clauses), std::move(preamble), i, 4, std::move(loop), true);
  // Threads 0..3 each wrote arr[tid] = 5.
  for (int k = 0; k < 4; ++k) {
    t.prog.body().stmts.push_back(Stmt::assign(
        LValue{t.comp, nullptr}, AssignOp::AddAssign,
        Expr::array(arr, Expr::int_const(k))));
  }
  EXPECT_DOUBLE_EQ(t.run().comp, 20.0);
}

TEST(Interp, OmpForPartitionsIterations) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 10, 0.0);
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{arr, Expr::var(i)}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 3;
  add_region(t, std::move(clauses), std::move(preamble), i, 10, std::move(loop), true);
  // Work-shared: every element written exactly once.
  for (int k = 0; k < 10; ++k) {
    t.prog.body().stmts.push_back(Stmt::assign(
        LValue{t.comp, nullptr}, AssignOp::AddAssign,
        Expr::array(arr, Expr::int_const(k))));
  }
  EXPECT_DOUBLE_EQ(t.run().comp, 10.0);
}

TEST(Interp, NumThreadsOverride) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 8;
  add_region(t, std::move(clauses), std::move(preamble), i, 4, std::move(loop),
             /*omp_for=*/false);
  InterpOptions opt;
  opt.num_threads_override = 2;
  EXPECT_DOUBLE_EQ(t.run(opt).comp, 8.0);  // 2 threads x 4 iterations
}

TEST(Interp, CriticalEventsCounted) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block crit;
  crit.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  Block loop;
  loop.stmts.push_back(Stmt::omp_critical(std::move(crit)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.num_threads = 2;
  add_region(t, std::move(clauses), std::move(preamble), i, 6, std::move(loop), true);
  const auto r = t.run();
  EXPECT_DOUBLE_EQ(r.comp, 6.0);
  EXPECT_EQ(r.events.critical_entries, 6u);
  EXPECT_EQ(r.events.critical_stmts, 6u);
}

// ------------------------------------------------------------ FP semantics -

TEST(Interp, FlushSubnormalsChangesComparisonAgainstZero) {
  TestProgram t;
  const VarId x = t.add_double("x", 1e-310);  // subnormal input
  ast::BoolExpr guard;
  guard.lhs = x;
  guard.op = ast::BoolOp::Ne;
  guard.rhs = Expr::fp_const(0.0);
  Block then;
  then.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  t.prog.body().stmts.push_back(Stmt::if_block(std::move(guard), std::move(then)));

  EXPECT_DOUBLE_EQ(t.run().comp, 1.0);  // strict IEEE: subnormal != 0

  InterpOptions ftz;
  ftz.fp.flush_subnormals = true;
  EXPECT_DOUBLE_EQ(t.run(ftz).comp, 0.0);  // DAZ: flushed to zero at load
}

TEST(Interp, FlushAffectsOperationResults) {
  TestProgram t;
  const VarId x = t.add_double("x", 1e-300);
  // comp += x * 1e-100 (a subnormal result ~1e-400 -> 0 under FTZ... the
  // value underflows to subnormal 0? 1e-400 is below min subnormal, both give
  // 0; use 1e-20 so the product 1e-320 is subnormal).
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Mul, Expr::var(x), Expr::fp_const(1e-20))));
  const double strict = t.run().comp;
  EXPECT_GT(strict, 0.0);
  InterpOptions ftz;
  ftz.fp.flush_subnormals = true;
  EXPECT_DOUBLE_EQ(t.run(ftz).comp, 0.0);
}

TEST(Interp, SubnormalOpsCountedOnlyWithoutFlush) {
  TestProgram t;
  const VarId x = t.add_double("x", 1e-310);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Mul, Expr::var(x), Expr::fp_const(0.5))));
  EXPECT_GT(t.run().events.subnormal_fp_ops, 0u);
  InterpOptions ftz;
  ftz.fp.flush_subnormals = true;
  EXPECT_EQ(t.run(ftz).events.subnormal_fp_ops, 0u);
}

TEST(Interp, FmaContractionChangesRounding) {
  TestProgram t;
  const double a = 1.0 + 1e-8, b = 1.0 - 1e-8, c = -1.0;
  const VarId va = t.add_double("a", a);
  const VarId vb = t.add_double("b", b);
  const VarId vc = t.add_double("c", c);
  // comp += a * b + c : fma gives the exact -1e-16, separate rounding differs.
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::binary(BinOp::Add,
                   Expr::binary(BinOp::Mul, Expr::var(va), Expr::var(vb)),
                   Expr::var(vc))));
  const double separate = t.run().comp;
  InterpOptions fma;
  fma.fp.contract_fma = true;
  const double contracted = t.run(fma).comp;
  EXPECT_DOUBLE_EQ(separate, a * b + c);
  EXPECT_DOUBLE_EQ(contracted, std::fma(a, b, c));
  EXPECT_NE(separate, contracted);
}

TEST(Interp, ReassociatedReductionDiffersFromSequential) {
  TestProgram t;
  const VarId x = t.add_double("x", 0.1);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr},
                                        AssignOp::AddAssign, Expr::var(x)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(0.0)));
  OmpClauses clauses;
  clauses.firstprivates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 7;  // odd team: tree and fold orders differ
  add_region(t, std::move(clauses), std::move(preamble), i, 1, std::move(loop),
             false);
  const double sequential = t.run().comp;
  InterpOptions tree;
  tree.fp.reassociate_reductions = true;
  const double reassociated = t.run(tree).comp;
  // 7 x 0.1 summed in different orders: one may differ in the last bit; at
  // minimum both must be within a few ulps of 0.7.
  EXPECT_NEAR(sequential, 0.7, 1e-15);
  EXPECT_NEAR(reassociated, 0.7, 1e-15);
}

// ------------------------------------------------------------ budget -------

TEST(Interp, StepBudgetStopsExecution) {
  TestProgram t;
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(1000000), std::move(body), false));
  InterpOptions opt;
  opt.max_steps = 1000;
  const auto r = t.run(opt);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.over_budget);
  EXPECT_LE(r.steps, 1002u);
}

TEST(Interp, BudgetInsideRegionLeavesValidState) {
  TestProgram t;
  const VarId x = t.add_double("x", 1.0);
  const VarId i = t.loop_index("i_1");
  Block preamble;
  preamble.stmts.push_back(
      Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  Block loop;
  loop.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  OmpClauses clauses;
  clauses.privates = {x};
  clauses.reduction = ReductionOp::Sum;
  clauses.num_threads = 4;
  add_region(t, std::move(clauses), std::move(preamble), i, 1000000,
             std::move(loop), false);
  InterpOptions opt;
  opt.max_steps = 500;
  const auto r = t.run(opt);
  EXPECT_TRUE(r.over_budget);
  EXPECT_FALSE(std::isnan(r.comp));  // reads global comp, not a dangling frame
}

TEST(Interp, ExactStepBudgetCompletesAndOneLessStopsAtTheLastStatement) {
  // for (i < 3) comp += 1.0: one step for the loop statement, then per
  // iteration one step for the iteration and one for the assignment.
  TestProgram t;
  const VarId i = t.loop_index("i_1");
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::fp_const(1.0)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(3), std::move(body), false));
  const auto full = t.run();
  ASSERT_TRUE(full.ok);
  ASSERT_EQ(full.steps, 7u);

  InterpOptions exact;
  exact.max_steps = full.steps;
  const auto at_budget = t.run(exact);
  EXPECT_TRUE(at_budget.ok);
  EXPECT_FALSE(at_budget.over_budget);
  EXPECT_EQ(at_budget.steps, full.steps);
  EXPECT_DOUBLE_EQ(at_budget.comp, 3.0);

  InterpOptions one_less;
  one_less.max_steps = full.steps - 1;
  const auto over = t.run(one_less);
  EXPECT_FALSE(over.ok);
  EXPECT_TRUE(over.over_budget);
  EXPECT_EQ(over.steps, full.steps);  // the step that broke the budget counts
  EXPECT_DOUBLE_EQ(over.comp, 2.0);
  // Partial counts hold everything before the refused third assignment.
  EXPECT_EQ(over.events.loop_iterations, 3u);
  EXPECT_EQ(over.events.branches, 3u);
  EXPECT_EQ(over.events.scalar_loads, 2u);
  EXPECT_EQ(over.events.scalar_stores, 2u);
  EXPECT_EQ(full.events.scalar_stores, 3u);
}

TEST(Interp, ModuloByZeroThrows) {
  TestProgram t;
  const VarId arr = t.add_array("arr", FpWidth::F64, 8, 1.0);
  const VarId zero = t.add_int("n_zero", 0);
  t.prog.body().stmts.push_back(Stmt::assign(
      LValue{t.comp, nullptr}, AssignOp::AddAssign,
      Expr::array(arr, Expr::binary(BinOp::Mod, Expr::int_const(5),
                                    Expr::var(zero)))));
  EXPECT_THROW((void)t.run(), InterpError);
}

// `float t = (x + k) + y` with an int k (`i % n` or the thread id): the int
// operand promotes the whole expression to double, and only the declaration
// rounds to float. With x = 2^24 and y = 1, all-float arithmetic would round
// x + 1 back to 2^24.
void expect_int_operand_promotes(bool use_thread_id) {
  TestProgram t;
  const VarId x = t.add_float("x", 16777216.0f);
  const VarId y = t.add_float("y", 1.0f);
  const VarId n = t.add_int("n_1", 5);
  const VarId i = t.loop_index("i_1");
  const VarId tmp =
      t.prog.add_var({"t_1", VarKind::FpScalar, VarRole::Temp, FpWidth::F32, 0});
  Block body;
  body.stmts.push_back(Stmt::decl(
      tmp, Expr::binary(BinOp::Add,
                        Expr::binary(BinOp::Add, Expr::var(x),
                                     use_thread_id
                                         ? Expr::thread_id()
                                         : Expr::binary(BinOp::Mod, Expr::var(i),
                                                        Expr::var(n))),
                        Expr::var(y))));
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(tmp)));
  if (use_thread_id) {
    OmpClauses clauses;
    clauses.reduction = ReductionOp::Sum;
    clauses.num_threads = 2;
    add_region(t, std::move(clauses), Block{}, i, 1, std::move(body), false);
  } else {
    t.prog.body().stmts.push_back(
        Stmt::for_loop(i, Expr::int_const(2), std::move(body), false));
  }
  // k = 0: 2^24 + 1 rounds to 2^24; k = 1: 2^24 + 2 is a float.
  const double promoted = 16777216.0 + 16777218.0;
  const double all_float = 2 * 16777216.0;
  ASSERT_NE(promoted, all_float);
  EXPECT_EQ(t.run().comp, promoted);
}

TEST(Interp, BinaryWithLoopIndexModOperandPromotesToDouble) {
  expect_int_operand_promotes(/*use_thread_id=*/false);
}

TEST(Interp, BinaryWithThreadIdOperandPromotesToDouble) {
  expect_int_operand_promotes(/*use_thread_id=*/true);
}

// `float v = (v - x) * y + z;` reads its own target. Pinned behaviour: the
// first execution reads the interpreter's placeholder, a double 0.0, so the
// initializer is computed in double; a later serial iteration reads the
// float v the previous iteration stored, so it is computed in float.
TEST(Interp, SelfReferentialDeclReadsDoubleZeroThenPreviousIteration) {
  TestProgram t;
  const float xf = 0.1f;
  const float yf = 3.0f;
  const float zf = 0.1f;
  const VarId x = t.add_float("x", xf);
  const VarId y = t.add_float("y", yf);
  const VarId z = t.add_float("z", zf);
  const VarId i = t.loop_index("i_1");
  const VarId v =
      t.prog.add_var({"v_1", VarKind::FpScalar, VarRole::Temp, FpWidth::F32, 0});
  Block body;
  body.stmts.push_back(Stmt::decl(
      v, Expr::binary(BinOp::Add,
                      Expr::binary(BinOp::Mul,
                                   Expr::binary(BinOp::Sub, Expr::var(v), Expr::var(x)),
                                   Expr::var(y)),
                      Expr::var(z))));
  body.stmts.push_back(Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(v)));
  t.prog.body().stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(2), std::move(body), false));

  // The detector finds exactly the self-read.
  const auto unwritten = ast::maybe_unwritten_reads(t.prog);
  ASSERT_EQ(unwritten.size(), 1u);
  EXPECT_EQ(unwritten[0]->var_id(), v);

  const float first = static_cast<float>(
      (0.0 - static_cast<double>(xf)) * static_cast<double>(yf) +
      static_cast<double>(zf));
  const float first_if_float = (0.0f - xf) * yf + zf;
  ASSERT_NE(first, first_if_float);  // the program tells the two apart
  const float second = (first - xf) * yf + zf;
  const auto r = t.run();
  EXPECT_EQ(r.comp, static_cast<double>(first) + static_cast<double>(second));
  // Same answer from a lowered form reused across runs.
  fp::InputSet set;
  set.values = t.inputs;
  const Compiled lowered = compile(t.prog);
  EXPECT_EQ(execute(lowered, set).comp, r.comp);
  EXPECT_EQ(execute(lowered, set).comp, r.comp);
}

TEST(Interp, ExecuteRefusesMismatchedFmaSetting) {
  TestProgram t;
  fp::InputSet set;
  set.values = t.inputs;
  const Compiled lowered = compile(t.prog, /*contract_fma=*/false);
  InterpOptions fma;
  fma.fp.contract_fma = true;
  EXPECT_THROW((void)execute(lowered, set, fma), Error);
}

// ------------------------------------------------------------ step bound ---

struct BoundAndSteps {
  std::uint64_t bound = 0;
  std::uint64_t steps = 0;
};

/// min_steps of `t` at `team` (0 keeps each region's num_threads), checked
/// against the steps an execution at that team size takes.
BoundAndSteps bound_and_steps(TestProgram& t, int team = 0) {
  fp::InputSet set;
  set.values = t.inputs;
  const std::uint64_t bound = min_steps(compile(t.prog), set, team);
  InterpOptions opt;
  opt.num_threads_override = team;
  const InterpResult r = t.run(opt);
  EXPECT_TRUE(r.ok);
  EXPECT_LE(bound, r.steps);
  return {bound, r.steps};
}

/// "comp += 1.0", one step when executed.
ast::StmtPtr bump(const TestProgram& t) {
  return Stmt::assign(LValue{t.comp, nullptr}, AssignOp::AddAssign,
                      Expr::fp_const(1.0));
}

TEST(MinSteps, ConditionalBodiesCountZeroAndCriticalCountsInFull) {
  TestProgram t;
  const VarId x = t.add_double("x", 5.0);
  const VarId i = t.loop_index("i_1");
  ast::BoolExpr taken;
  taken.lhs = x;
  taken.op = ast::BoolOp::Gt;
  taken.rhs = Expr::fp_const(1.0);
  Block loop;
  loop.stmts.push_back(bump(t));
  Block then_block;
  then_block.stmts.push_back(
      Stmt::for_loop(i, Expr::int_const(100), std::move(loop), false));
  t.prog.body().stmts.push_back(Stmt::if_block(std::move(taken), std::move(then_block)));
  // The branch is taken (201 steps inside), but only the If itself counts.
  EXPECT_EQ(bound_and_steps(t).bound, 1u);

  // In a region of 4: single and master run their bodies on one thread each
  // (uncounted); critical runs its body on every thread (counted).
  TestProgram r;
  Block single_body;
  single_body.stmts.push_back(bump(r));
  Block master_body;
  master_body.stmts.push_back(bump(r));
  Block critical_body;
  critical_body.stmts.push_back(bump(r));
  critical_body.stmts.push_back(bump(r));
  Block region;
  region.stmts.push_back(Stmt::omp_single(std::move(single_body)));
  region.stmts.push_back(Stmt::omp_master(std::move(master_body)));
  region.stmts.push_back(Stmt::omp_critical(std::move(critical_body)));
  OmpClauses clauses;
  clauses.num_threads = 4;
  r.prog.body().stmts.push_back(Stmt::omp_parallel(std::move(clauses), std::move(region)));
  EXPECT_EQ(bound_and_steps(r).bound, 1u + 4u * (1 + 1 + 3));
}

TEST(MinSteps, WorksharingIterationsTotalNAtEveryTeamSizeAndChunk) {
  struct Schedule {
    ast::ScheduleKind kind;
    int chunk;
  };
  const Schedule schedules[] = {
      {ast::ScheduleKind::None, 0},    {ast::ScheduleKind::Static, 0},
      {ast::ScheduleKind::Static, 1},  {ast::ScheduleKind::Static, 3},
      {ast::ScheduleKind::Static, 64}, {ast::ScheduleKind::Dynamic, 0},
      {ast::ScheduleKind::Dynamic, 4}};
  for (const int team : {1, 2, 3, 7, 32}) {
    for (const Schedule& sched : schedules) {
      for (const std::int64_t n : {0, 1, 10, 37}) {
        TestProgram t;
        const VarId i = t.loop_index("i_1");
        Block loop;
        loop.stmts.push_back(bump(t));
        Block region;
        region.stmts.push_back(Stmt::for_loop(i, Expr::int_const(n), std::move(loop),
                                              /*omp_for=*/true, sched.kind, sched.chunk));
        OmpClauses clauses;
        clauses.num_threads = 2;
        clauses.reduction = ReductionOp::Sum;
        t.prog.body().stmts.push_back(
            Stmt::omp_parallel(std::move(clauses), std::move(region)));
        // Exact here: the region, each thread's loop statement, and n
        // iterations of two steps spread over the team.
        const auto expected = static_cast<std::uint64_t>(1 + team + 2 * n);
        const BoundAndSteps b = bound_and_steps(t, team);
        EXPECT_EQ(b.bound, expected) << "team " << team << " chunk " << sched.chunk
                                     << " n " << n;
        EXPECT_EQ(b.steps, expected);
      }
    }
  }
}

TEST(MinSteps, ZeroOverrideUsesTheRegionsNumThreads) {
  TestProgram t;
  const VarId i = t.loop_index("i_1");
  Block loop;
  loop.stmts.push_back(bump(t));
  Block region;
  region.stmts.push_back(Stmt::for_loop(i, Expr::int_const(4), std::move(loop), false));
  OmpClauses clauses;
  clauses.num_threads = 5;
  t.prog.body().stmts.push_back(Stmt::omp_parallel(std::move(clauses), std::move(region)));
  // Every thread runs the serial loop: 1 + 4 * 2 steps each.
  EXPECT_EQ(bound_and_steps(t, 0).bound, 1u + 5u * 9u);
  EXPECT_EQ(bound_and_steps(t, 2).bound, 1u + 2u * 9u);
}

TEST(MinSteps, TrustsOnlyIntBoundsNoStatementOrThreadRebinds) {
  // A param that nothing rebinds: its input value is the trip count.
  {
    TestProgram t;
    const VarId n = t.add_int("n", 50);
    const VarId i = t.loop_index("i_1");
    Block loop;
    loop.stmts.push_back(bump(t));
    t.prog.body().stmts.push_back(Stmt::for_loop(i, Expr::var(n), std::move(loop), false));
    EXPECT_EQ(bound_and_steps(t).bound, 1u + 50u * 2u);
  }
  // Reassigned anywhere, even after the loop: not trusted.
  {
    TestProgram t;
    const VarId n = t.add_int("n", 50);
    const VarId i = t.loop_index("i_1");
    Block loop;
    loop.stmts.push_back(bump(t));
    t.prog.body().stmts.push_back(Stmt::for_loop(i, Expr::var(n), std::move(loop), false));
    t.prog.body().stmts.push_back(
        Stmt::assign(LValue{n, nullptr}, AssignOp::Assign, Expr::int_const(3)));
    EXPECT_EQ(bound_and_steps(t).bound, 2u);
  }
  // Privatized: each thread's private copy starts at 0, not at the input;
  // a firstprivate copy is not trusted either.
  for (const bool first : {false, true}) {
    TestProgram t;
    const VarId n = t.add_int("n", 50);
    const VarId i = t.loop_index("i_1");
    Block loop;
    loop.stmts.push_back(bump(t));
    Block region;
    region.stmts.push_back(Stmt::for_loop(i, Expr::var(n), std::move(loop), false));
    OmpClauses clauses;
    clauses.num_threads = 3;
    (first ? clauses.firstprivates : clauses.privates) = {n};
    t.prog.body().stmts.push_back(
        Stmt::omp_parallel(std::move(clauses), std::move(region)));
    EXPECT_EQ(bound_and_steps(t).bound, 1u + 3u) << (first ? "firstprivate" : "private");
  }
  // A negative bound runs no iteration.
  {
    TestProgram t;
    const VarId n = t.add_int("n", -7);
    const VarId i = t.loop_index("i_1");
    Block loop;
    loop.stmts.push_back(bump(t));
    t.prog.body().stmts.push_back(Stmt::for_loop(i, Expr::var(n), std::move(loop), false));
    EXPECT_EQ(bound_and_steps(t).bound, 1u);
  }
}

TEST(MinSteps, SaturatesInsteadOfWrapping) {
  // 2^40 * (1 + 2^40 * 2) and a team of 2^20 overflow 64 bits; wrapped, the
  // products would come out small.
  TestProgram t;
  const VarId i = t.loop_index("i_1");
  const VarId j = t.loop_index("i_2");
  const std::int64_t big = std::int64_t{1} << 40;
  Block inner;
  inner.stmts.push_back(bump(t));
  Block outer;
  outer.stmts.push_back(Stmt::for_loop(j, Expr::int_const(big), std::move(inner), false));
  Block region;
  region.stmts.push_back(Stmt::for_loop(i, Expr::int_const(big), std::move(outer), false));
  OmpClauses clauses;
  clauses.num_threads = 2;
  t.prog.body().stmts.push_back(Stmt::omp_parallel(std::move(clauses), std::move(region)));
  t.prog.body().stmts.push_back(bump(t));
  t.prog.validate();
  fp::InputSet set;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const Compiled lowered = compile(t.prog);
  EXPECT_EQ(min_steps(lowered, set, 2), kMax);
  EXPECT_EQ(min_steps(lowered, set, 1 << 20), kMax);
  // Still a lower bound: the run stops at the budget.
  InterpOptions opt;
  opt.max_steps = 1000;
  EXPECT_TRUE(t.run(opt).over_budget);
}

TEST(MinSteps, MismatchedInputBoundsNothing) {
  TestProgram t;
  (void)t.add_int("n", 5);
  t.prog.body().stmts.push_back(bump(t));
  EXPECT_EQ(min_steps(compile(t.prog), fp::InputSet{}, 0), 0u);
}

// The step-bound soundness sweep (CI: --gtest_filter=*MinStepsSweep*).
// Seeded streams run under the gcc, clang and contract_fma semantics; for
// every (program, input, semantics) a completed run must take at least
// min_steps, and a run min_steps puts over the budget must end over budget
// when interpreted: never ok, never an InterpError. Prints the catch rate,
// the share of over-budget runs (and of their interpretation time) the
// bound would have skipped.
struct SweepStats {
  int runs = 0;
  int completed = 0;
  int over_budget = 0;
  int errors = 0;
  int caught = 0;  ///< over budget with min_steps > budget
  int violations = 0;
  std::uint64_t over_nanos = 0;
  std::uint64_t caught_nanos = 0;
};

struct SweepStream {
  const char* label;
  GeneratorConfig generator;
  fp::InputGenOptions inputs;
  int team;
  std::uint64_t max_steps;
  int programs;
  std::uint64_t salt;
};

void sweep_stream(const SweepStream& stream, SweepStats& stats) {
  interp::FpSemantics fma = rt::clang_profile().fp;
  fma.contract_fma = true;
  const interp::FpSemantics semantics[] = {rt::gcc_profile().fp,
                                           rt::clang_profile().fp, fma};
  constexpr int kInputsPerProgram = 3;
  const core::ProgramGenerator generator(stream.generator);
  const fp::InputGenerator input_gen(stream.inputs);
  for (int n = 0; n < stream.programs; ++n) {
    const ast::Program prog = generator.generate(
        std::string(stream.label) + "_" + std::to_string(n), hash_combine(stream.salt, n));
    const Compiled plain = compile(prog, false);
    const Compiled fused = compile(prog, true);
    RandomEngine rng(hash_combine(stream.salt ^ 0x5eed, n));
    for (int k = 0; k < kInputsPerProgram; ++k) {
      const fp::InputSet input = input_gen.generate(prog.signature(), rng);
      const std::uint64_t bound = min_steps(plain, input, stream.team);
      EXPECT_EQ(bound, min_steps(fused, input, stream.team)) << prog.name();
      const bool skip = bound > stream.max_steps;
      for (const interp::FpSemantics& fp : semantics) {
        InterpOptions opt;
        opt.fp = fp;
        opt.num_threads_override = stream.team;
        opt.max_steps = stream.max_steps;
        ++stats.runs;
        const auto t0 = std::chrono::steady_clock::now();
        InterpResult r;
        try {
          r = execute(fp.contract_fma ? fused : plain, input, opt);
        } catch (const Error& e) {
          ++stats.errors;
          if (skip) {
            ++stats.violations;
            ADD_FAILURE() << prog.name() << " input " << k << ": bound " << bound
                          << " skips a run that raises " << e.what();
          }
          continue;
        }
        const auto nanos = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (r.ok) {
          ++stats.completed;
          if (bound > r.steps) {
            ++stats.violations;
            ADD_FAILURE() << prog.name() << " input " << k << ": bound " << bound
                          << " > " << r.steps << " steps taken";
          }
        } else {
          ++stats.over_budget;
          stats.over_nanos += nanos;
          if (skip) {
            ++stats.caught;
            stats.caught_nanos += nanos;
          }
        }
      }
    }
  }
}

TEST(Interp, MinStepsSweep) {
  // The sim-paper shape: the paper's generator at team 32 and the default
  // 4M budget, with input trip counts up to 1000.
  GeneratorConfig paper;
  paper.max_loop_trip_count = 100;
  fp::InputGenOptions paper_inputs;
  paper_inputs.min_trip_count = 25;
  paper_inputs.max_trip_count = 1000;

  GeneratorConfig base;
  base.max_loop_trip_count = 100;
  fp::InputGenOptions base_inputs;
  base_inputs.max_trip_count = 100;
  GeneratorConfig features = base;
  features.enable_features("atomic,single,master,schedule,rangeidx");

  const SweepStream streams[] = {
      {"paper", paper, paper_inputs, 32, 4'000'000, 40, 0x5735},
      {"base", base, base_inputs, 8, 150'000, 60, 0xba5e},
      {"feat", features, base_inputs, 8, 150'000, 60, 0xfea7},
  };
  SweepStats total;
  for (const SweepStream& stream : streams) {
    SweepStats stats;
    sweep_stream(stream, stats);
    std::printf(
        "[ MinSteps ] %-5s %4d runs: %4d completed, %4d over budget, %d errors; "
        "bound caught %d of %d over-budget runs (%.0f%% of their time)\n",
        stream.label, stats.runs, stats.completed, stats.over_budget, stats.errors,
        stats.caught, stats.over_budget,
        stats.over_nanos > 0 ? 100.0 * static_cast<double>(stats.caught_nanos) /
                                   static_cast<double>(stats.over_nanos)
                             : 0.0);
    total.runs += stats.runs;
    total.completed += stats.completed;
    total.over_budget += stats.over_budget;
    total.caught += stats.caught;
    total.violations += stats.violations;
  }
  EXPECT_EQ(total.violations, 0);
  // Neither check is vacuous: most runs complete, and the bound skips some.
  EXPECT_GT(total.completed, total.runs / 2);
  EXPECT_GT(total.caught, 0);
}

// ------------------------------------------------------------ scheduling ---

TEST(StaticChunk, CoversRangeExactlyOnce) {
  for (int n : {0, 1, 7, 10, 32, 100}) {
    for (int threads : {1, 2, 3, 8, 32}) {
      std::vector<int> hits(static_cast<std::size_t>(std::max(n, 1)), 0);
      for (int tid = 0; tid < threads; ++tid) {
        const auto r = static_chunk(n, threads, tid);
        for (auto k = r.begin; k < r.end; ++k) hits[static_cast<std::size_t>(k)]++;
      }
      for (int k = 0; k < n; ++k) {
        EXPECT_EQ(hits[static_cast<std::size_t>(k)], 1)
            << "n=" << n << " T=" << threads << " k=" << k;
      }
    }
  }
}

TEST(StaticChunk, BalancedWithinOne) {
  const auto size = [](IterRange r) { return r.end - r.begin; };
  for (int tid = 0; tid < 8; ++tid) {
    const auto len = size(static_chunk(30, 8, tid));
    EXPECT_TRUE(len == 3 || len == 4);
  }
}

TEST(StaticChunk, DegenerateInputs) {
  EXPECT_EQ(static_chunk(10, 4, -1).end, 0);
  EXPECT_EQ(static_chunk(10, 4, 4).end, 0);
  EXPECT_EQ(static_chunk(-5, 4, 0).end, 0);
  EXPECT_EQ(static_chunk(10, 0, 0).end, 0);
}

}  // namespace
}  // namespace ompfuzz::interp
