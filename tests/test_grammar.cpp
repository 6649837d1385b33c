// Tests for the formal grammar (Listing 2) and the conformance checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/generator.hpp"
#include "core/grammar.hpp"

namespace ompfuzz::core {
namespace {

using ast::AssignOp;
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

TEST(Grammar, HasAllPaperProductions) {
  const auto& grammar = test_program_grammar();
  const auto find = [&](const std::string& name) {
    for (const auto& p : grammar) {
      if (p.name == name) return true;
    }
    return false;
  };
  for (const char* rule :
       {"<function>", "<param-list>", "<param-declaration>", "<assignment>",
        "<expression>", "<term>", "<block>", "<openmp-head>", "<openmp-block>",
        "<openmp-critical>", "<if-block>", "<for-loop-head>", "<for-loop-block>",
        "<loop-header>", "<bool-expression>", "<omp-atomic>", "<omp-single>",
        "<omp-master>", "<schedule-clause>"}) {
    EXPECT_TRUE(find(rule)) << "missing production " << rule;
  }
}

TEST(Grammar, RenderMentionsOpenMPDirectives) {
  const std::string text = render_grammar();
  EXPECT_NE(text.find("#pragma omp parallel"), std::string::npos);
  EXPECT_NE(text.find("#pragma omp critical"), std::string::npos);
  EXPECT_NE(text.find("reduction("), std::string::npos);
  EXPECT_NE(text.find("<bool-expression>"), std::string::npos);
  EXPECT_NE(text.find("#pragma omp atomic"), std::string::npos);
  EXPECT_NE(text.find("#pragma omp single nowait"), std::string::npos);
  EXPECT_NE(text.find("schedule("), std::string::npos);
}

// Helper assembling a program with one parallel region built from pieces.
struct RegionBuilder {
  Program prog;
  VarId comp, x, i;

  RegionBuilder() {
    comp = prog.add_var({"comp", VarKind::FpScalar, VarRole::Comp, FpWidth::F64, 0});
    prog.set_comp(comp);
    x = prog.add_var({"var_1", VarKind::FpScalar, VarRole::Param, FpWidth::F64, 0});
    prog.add_param(x);
    i = prog.add_var({"i_1", VarKind::IntScalar, VarRole::LoopIndex, FpWidth::F64, 0});
  }

  ast::StmtPtr make_region(bool with_preamble, bool omp_for,
                           std::optional<ReductionOp> reduction,
                           AssignOp comp_op, Block loop_extra = {}) {
    Block loop_body;
    loop_body.stmts.push_back(
        Stmt::assign(LValue{comp, nullptr}, comp_op, Expr::var(x)));
    for (auto& s : loop_extra.stmts) loop_body.stmts.push_back(std::move(s));
    Block region;
    if (with_preamble) {
      region.stmts.push_back(
          Stmt::assign(LValue{x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
    }
    region.stmts.push_back(
        Stmt::for_loop(i, Expr::int_const(4), std::move(loop_body), omp_for));
    OmpClauses clauses;
    clauses.privates.push_back(x);
    clauses.reduction = reduction;
    return Stmt::omp_parallel(std::move(clauses), std::move(region));
  }
};

bool has_rule(const std::vector<Violation>& v, const std::string& rule) {
  for (const auto& x : v) {
    if (x.rule == rule) return true;
  }
  return false;
}

TEST(Conformance, AcceptsWellFormedRegion) {
  RegionBuilder b;
  b.prog.body().stmts.push_back(b.make_region(true, true, ReductionOp::Sum,
                                              AssignOp::AddAssign));
  GeneratorConfig cfg;
  EXPECT_TRUE(check_conformance(b.prog, cfg).empty());
}

TEST(Conformance, R1MissingPreamble) {
  RegionBuilder b;
  b.prog.body().stmts.push_back(b.make_region(false, true, ReductionOp::Sum,
                                              AssignOp::AddAssign));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R1"));
}

TEST(Conformance, R2OrphanedOmpFor) {
  RegionBuilder b;
  Block body;
  body.stmts.push_back(Stmt::assign(LValue{b.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(b.x)));
  b.prog.body().stmts.push_back(
      Stmt::for_loop(b.i, Expr::int_const(4), std::move(body), /*omp_for=*/true));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R2"));
}

TEST(Conformance, R3CriticalOutsideParallelForBody) {
  RegionBuilder b;
  Block crit;
  crit.stmts.push_back(Stmt::assign(LValue{b.comp, nullptr}, AssignOp::AddAssign,
                                    Expr::var(b.x)));
  b.prog.body().stmts.push_back(Stmt::omp_critical(std::move(crit)));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R3"));
}

TEST(Conformance, R4NestedParallel) {
  RegionBuilder b;
  auto inner = b.make_region(true, false, std::nullopt, AssignOp::AddAssign);
  Block loop_extra;
  loop_extra.stmts.push_back(std::move(inner));
  // Outer region whose loop body contains another parallel region.
  Block loop_body;
  loop_body.stmts.push_back(Stmt::assign(LValue{b.x, nullptr}, AssignOp::Assign,
                                         Expr::fp_const(1.0)));
  for (auto& s : loop_extra.stmts) loop_body.stmts.push_back(std::move(s));
  Block region;
  region.stmts.push_back(Stmt::assign(LValue{b.x, nullptr}, AssignOp::Assign,
                                      Expr::fp_const(0.0)));
  region.stmts.push_back(
      Stmt::for_loop(b.i, Expr::int_const(2), std::move(loop_body), false));
  b.prog.body().stmts.push_back(Stmt::omp_parallel(OmpClauses{}, std::move(region)));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R4"));
}

TEST(Conformance, R5EmptyIfBody) {
  RegionBuilder b;
  ast::BoolExpr cond;
  cond.lhs = b.x;
  cond.rhs = Expr::fp_const(1.0);
  b.prog.body().stmts.push_back(Stmt::if_block(std::move(cond), Block{}));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R5"));
}

TEST(Conformance, R6OversizedExpression) {
  RegionBuilder b;
  GeneratorConfig cfg;
  cfg.max_expression_size = 2;
  auto e = Expr::var(b.x);
  for (int i = 0; i < 3; ++i) {
    e = Expr::binary(ast::BinOp::Add, std::move(e), Expr::var(b.x));
  }
  b.prog.body().stmts.push_back(
      Stmt::assign(LValue{b.comp, nullptr}, AssignOp::AddAssign, std::move(e)));
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R6"));
}

TEST(Conformance, R6ParenthesizedGroupCountsAsOneTerm) {
  RegionBuilder b;
  GeneratorConfig cfg;
  cfg.max_expression_size = 2;
  // (x + x) + x : 2 top-level terms with the group parenthesized.
  auto grouped = Expr::binary(ast::BinOp::Add, Expr::var(b.x), Expr::var(b.x),
                              /*parenthesized=*/true);
  auto e = Expr::binary(ast::BinOp::Add, std::move(grouped), Expr::var(b.x));
  b.prog.body().stmts.push_back(
      Stmt::assign(LValue{b.comp, nullptr}, AssignOp::AddAssign, std::move(e)));
  EXPECT_FALSE(has_rule(check_conformance(b.prog, cfg), "R6"));
}

TEST(Conformance, R7TooManyLines) {
  RegionBuilder b;
  GeneratorConfig cfg;
  cfg.max_lines_in_block = 2;
  for (int i = 0; i < 3; ++i) {
    b.prog.body().stmts.push_back(Stmt::assign(
        LValue{b.comp, nullptr}, AssignOp::AddAssign, Expr::fp_const(1.0)));
  }
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R7"));
}

TEST(Conformance, R8TooDeepNesting) {
  RegionBuilder b;
  GeneratorConfig cfg;
  cfg.max_nesting_levels = 1;
  Block inner;
  inner.stmts.push_back(Stmt::assign(LValue{b.comp, nullptr}, AssignOp::AddAssign,
                                     Expr::fp_const(1.0)));
  ast::BoolExpr cond1;
  cond1.lhs = b.x;
  cond1.rhs = Expr::fp_const(0.0);
  Block mid;
  mid.stmts.push_back(Stmt::if_block(std::move(cond1), std::move(inner)));
  ast::BoolExpr cond2;
  cond2.lhs = b.x;
  cond2.rhs = Expr::fp_const(0.0);
  b.prog.body().stmts.push_back(Stmt::if_block(std::move(cond2), std::move(mid)));
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R8"));
}

TEST(Conformance, R9WrongReductionOperator) {
  RegionBuilder b;
  // reduction(+) but comp *= inside the region.
  b.prog.body().stmts.push_back(b.make_region(true, true, ReductionOp::Sum,
                                              AssignOp::MulAssign));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R9"));
}

TEST(Conformance, R9SubAssignAllowedForSumReduction) {
  RegionBuilder b;
  b.prog.body().stmts.push_back(b.make_region(true, true, ReductionOp::Sum,
                                              AssignOp::SubAssign));
  GeneratorConfig cfg;
  EXPECT_FALSE(has_rule(check_conformance(b.prog, cfg), "R9"));
}

TEST(Conformance, R10MathCallsForbidden) {
  RegionBuilder b;
  GeneratorConfig cfg;
  cfg.math_func_allowed = false;
  b.prog.body().stmts.push_back(Stmt::assign(
      LValue{b.comp, nullptr}, AssignOp::AddAssign,
      Expr::call(ast::MathFunc::Sin, Expr::var(b.x))));
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R10"));
}

// --------------------------------------------------------------------------
// Feature-gated constructs: R11 (atomic), R12 (single/master), R13 (schedule)
// --------------------------------------------------------------------------

TEST(Conformance, R11AtomicRequiresItsFeatureGate) {
  RegionBuilder b;
  Block loop_extra;
  loop_extra.stmts.push_back(Stmt::omp_atomic(LValue{b.x, nullptr},
                                              AssignOp::AddAssign,
                                              Expr::fp_const(1.0)));
  b.prog.body().stmts.push_back(b.make_region(true, true, ReductionOp::Sum,
                                              AssignOp::AddAssign,
                                              std::move(loop_extra)));
  GeneratorConfig cfg;  // enable_atomic defaults to off
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R11"));
  cfg.enable_atomic = true;
  EXPECT_TRUE(check_conformance(b.prog, cfg).empty());
}

TEST(Conformance, R11AtomicOutsideParallelRegion) {
  RegionBuilder b;
  b.prog.body().stmts.push_back(Stmt::omp_atomic(LValue{b.x, nullptr},
                                                 AssignOp::AddAssign,
                                                 Expr::fp_const(1.0)));
  GeneratorConfig cfg;
  cfg.enable_atomic = true;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R11"));
}

TEST(Conformance, R11AtomicMustBeACompoundUpdate) {
  RegionBuilder b;
  Block loop_extra;
  loop_extra.stmts.push_back(Stmt::omp_atomic(LValue{b.x, nullptr},
                                              AssignOp::Assign,
                                              Expr::fp_const(1.0)));
  b.prog.body().stmts.push_back(b.make_region(true, true, ReductionOp::Sum,
                                              AssignOp::AddAssign,
                                              std::move(loop_extra)));
  GeneratorConfig cfg;
  cfg.enable_atomic = true;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R11"));
}

// Region of shape "x-init; <sync blocks>; omp-for loop" — the only slot the
// grammar gives single/master blocks.
ast::StmtPtr make_sync_region(RegionBuilder& b,
                              std::vector<ast::StmtPtr> sync_blocks) {
  Block loop_body;
  loop_body.stmts.push_back(
      Stmt::assign(LValue{b.comp, nullptr}, AssignOp::AddAssign, Expr::var(b.x)));
  Block region;
  region.stmts.push_back(
      Stmt::assign(LValue{b.x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  for (auto& s : sync_blocks) region.stmts.push_back(std::move(s));
  region.stmts.push_back(
      Stmt::for_loop(b.i, Expr::int_const(4), std::move(loop_body), true));
  OmpClauses clauses;
  clauses.privates.push_back(b.x);
  clauses.reduction = ReductionOp::Sum;
  return Stmt::omp_parallel(std::move(clauses), std::move(region));
}

Block one_assign(RegionBuilder& b) {
  Block body;
  body.stmts.push_back(
      Stmt::assign(LValue{b.x, nullptr}, AssignOp::AddAssign, Expr::fp_const(1.0)));
  return body;
}

TEST(Conformance, R12SingleRequiresItsFeatureGate) {
  RegionBuilder b;
  std::vector<ast::StmtPtr> sync;
  sync.push_back(Stmt::omp_single(one_assign(b)));
  b.prog.body().stmts.push_back(make_sync_region(b, std::move(sync)));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R12"));
  cfg.enable_single = true;
  EXPECT_TRUE(check_conformance(b.prog, cfg).empty());
}

TEST(Conformance, R12MasterAcceptedInTheSyncSlot) {
  RegionBuilder b;
  std::vector<ast::StmtPtr> sync;
  sync.push_back(Stmt::omp_master(one_assign(b)));
  b.prog.body().stmts.push_back(make_sync_region(b, std::move(sync)));
  GeneratorConfig cfg;
  cfg.enable_master = true;
  EXPECT_TRUE(check_conformance(b.prog, cfg).empty());
}

TEST(Conformance, R12SingleMisplacedInLoopBody) {
  RegionBuilder b;
  Block loop_extra;
  loop_extra.stmts.push_back(Stmt::omp_single(one_assign(b)));
  b.prog.body().stmts.push_back(b.make_region(true, true, ReductionOp::Sum,
                                              AssignOp::AddAssign,
                                              std::move(loop_extra)));
  GeneratorConfig cfg;
  cfg.enable_single = true;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R12"));
}

TEST(Conformance, R12SingleBodyMustBeNonEmptyAssignments) {
  RegionBuilder b;
  std::vector<ast::StmtPtr> sync;
  sync.push_back(Stmt::omp_single(Block{}));
  b.prog.body().stmts.push_back(make_sync_region(b, std::move(sync)));
  GeneratorConfig cfg;
  cfg.enable_single = true;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R12"));
}

ast::StmtPtr make_scheduled_region(RegionBuilder& b, bool omp_for,
                                   ast::ScheduleKind kind, int chunk) {
  Block loop_body;
  loop_body.stmts.push_back(
      Stmt::assign(LValue{b.comp, nullptr}, AssignOp::AddAssign, Expr::var(b.x)));
  Block region;
  region.stmts.push_back(
      Stmt::assign(LValue{b.x, nullptr}, AssignOp::Assign, Expr::fp_const(0.0)));
  region.stmts.push_back(Stmt::for_loop(b.i, Expr::int_const(4),
                                        std::move(loop_body), omp_for, kind,
                                        chunk));
  OmpClauses clauses;
  clauses.privates.push_back(b.x);
  clauses.reduction = ReductionOp::Sum;
  return Stmt::omp_parallel(std::move(clauses), std::move(region));
}

TEST(Conformance, R13ScheduleRequiresItsFeatureGate) {
  RegionBuilder b;
  b.prog.body().stmts.push_back(
      make_scheduled_region(b, true, ast::ScheduleKind::Dynamic, 2));
  GeneratorConfig cfg;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R13"));
  cfg.enable_schedule = true;
  EXPECT_TRUE(check_conformance(b.prog, cfg).empty());
}

// The for_loop factory rejects these states outright, so exercise the R13
// branches the way a buggy post-construction mutation (e.g. a reducer pass)
// would reach them: build a valid loop, then poke the public fields.
TEST(Conformance, R13ScheduleOnSerialLoop) {
  RegionBuilder b;
  Block loop_body;
  loop_body.stmts.push_back(
      Stmt::assign(LValue{b.x, nullptr}, AssignOp::AddAssign, Expr::fp_const(1.0)));
  Block loop_extra;
  loop_extra.stmts.push_back(Stmt::for_loop(b.i, Expr::int_const(2),
                                            std::move(loop_body),
                                            /*omp_for=*/false));
  loop_extra.stmts.back()->schedule = ast::ScheduleKind::Static;
  b.prog.body().stmts.push_back(b.make_region(true, true, ReductionOp::Sum,
                                              AssignOp::AddAssign,
                                              std::move(loop_extra)));
  GeneratorConfig cfg;
  cfg.enable_schedule = true;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R13"));
}

TEST(Conformance, R13NegativeChunk) {
  RegionBuilder b;
  auto region =
      make_scheduled_region(b, true, ast::ScheduleKind::Static, 2);
  region->body.stmts.back()->schedule_chunk = -1;
  b.prog.body().stmts.push_back(std::move(region));
  GeneratorConfig cfg;
  cfg.enable_schedule = true;
  EXPECT_TRUE(has_rule(check_conformance(b.prog, cfg), "R13"));
}

// Property: feature-enabled generation still conforms across seeds.
TEST(Conformance, FeatureEnabledGeneratedProgramsConform) {
  GeneratorConfig cfg;
  cfg.enable_atomic = true;
  cfg.enable_single = true;
  cfg.enable_master = true;
  cfg.enable_schedule = true;
  cfg.max_loop_trip_count = 20;
  cfg.num_threads = 4;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 40; ++s) {
    const auto prog = gen.generate("t", 6000 + s);
    const auto violations = check_conformance(prog, cfg);
    EXPECT_TRUE(violations.empty())
        << "seed " << 6000 + s << ": " << violations[0].rule << " "
        << violations[0].detail;
  }
}

// Property: every generated program conforms, across seeds and configs.
// gtest names each case by a byte dump of its parameter, so the padding is
// spelled out and zeroed: implicit padding put stack bytes into test names.
struct GenConformanceParam {
  std::uint64_t seed_base;
  int max_expr;
  int max_nest;
  int max_lines;
  std::int32_t pad = 0;
};
static_assert(std::has_unique_object_representations_v<GenConformanceParam>);

class GeneratedConformance
    : public ::testing::TestWithParam<GenConformanceParam> {};

TEST_P(GeneratedConformance, GeneratedProgramsConform) {
  const auto p = GetParam();
  GeneratorConfig cfg;
  cfg.max_expression_size = p.max_expr;
  cfg.max_nesting_levels = p.max_nest;
  cfg.max_lines_in_block = p.max_lines;
  cfg.max_loop_trip_count = 20;
  cfg.num_threads = 4;
  const ProgramGenerator gen(cfg);
  for (int s = 0; s < 40; ++s) {
    const auto prog = gen.generate("t", p.seed_base + s);
    const auto violations = check_conformance(prog, cfg);
    EXPECT_TRUE(violations.empty())
        << "seed " << p.seed_base + s << ": " << violations[0].rule << " "
        << violations[0].detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, GeneratedConformance,
    ::testing::Values(GenConformanceParam{1000, 5, 3, 10},
                      GenConformanceParam{2000, 1, 1, 1},
                      GenConformanceParam{3000, 10, 4, 3},
                      GenConformanceParam{4000, 2, 2, 20},
                      GenConformanceParam{5000, 8, 1, 5}));

}  // namespace
}  // namespace ompfuzz::core
