#include "interp/lower.hpp"

#include <algorithm>
#include <initializer_list>
#include <unordered_set>

#include "support/error.hpp"

namespace ompfuzz::interp {

namespace {

using ast::BinOp;
using ast::Block;
using ast::Expr;
using ast::FpWidth;
using ast::VarDecl;
using ast::VarId;
using ast::VarKind;
using ir::Node;
using ir::Op;
using ir::StmtOp;

/// The type an assignment or private copy stores to a variable; reads of a
/// variable whose every store has this type have it too.
Ty declared_type(const VarDecl& d) {
  if (d.kind == VarKind::IntScalar) return Ty::Int;
  return d.width == FpWidth::F32 ? Ty::F32 : Ty::F64;
}

/// The type a Decl or atomic update stores: the width, whatever the kind.
Ty width_type(const VarDecl& d) {
  return d.width == FpWidth::F32 ? Ty::F32 : Ty::F64;
}

bool fma_shape(const Expr& e) {
  return (e.bin_op() == BinOp::Add || e.bin_op() == BinOp::Sub) &&
         e.lhs().kind() == Expr::Kind::Binary && e.lhs().bin_op() == BinOp::Mul;
}

class Lowerer {
 public:
  Lowerer(const ast::Program& program, bool contract_fma)
      : prog_(program), contract_fma_(contract_fma) {
    for (const Expr* read : ast::maybe_unwritten_reads(program)) {
      unwritten_.insert(read);
    }
    type_vars();
  }

  Compiled run() {
    out_.contract_fma = contract_fma_;
    out_.vars.assign(prog_.vars().begin(), prog_.vars().end());
    out_.params.assign(prog_.params().begin(), prog_.params().end());
    out_.comp = prog_.comp();
    out_.body_end = static_cast<std::uint32_t>(prog_.body().size());
    lower_block(prog_.body());
    return std::move(out_);
  }

 private:
  /// A scalar whose every store matches its declaration reads with that
  /// static type; any other, and an array read as a scalar (only ill-formed
  /// programs have either), reads Dyn.
  void type_vars() {
    const std::size_t n = prog_.var_count();
    var_ty_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      const VarDecl& d = prog_.var(static_cast<VarId>(v));
      var_ty_[v] = d.kind == VarKind::FpArray ? Ty::Dyn : declared_type(d);
    }
    const auto store = [this](VarId v, Ty t) {
      if (v < var_ty_.size() && var_ty_[v] != t) var_ty_[v] = Ty::Dyn;
    };
    for (const VarId p : prog_.params()) {
      if (prog_.var(p).kind != VarKind::FpArray) store(p, declared_type(prog_.var(p)));
    }
    store(prog_.comp(), Ty::F64);
    ast::walk_stmts(prog_.body(), [&](const ast::Stmt& s) {
      switch (s.kind) {
        case ast::Stmt::Kind::Assign:
        case ast::Stmt::Kind::OmpAtomic:
          if (!s.target.is_array_element()) {
            const VarDecl& d = prog_.var(s.target.var);
            store(s.target.var, s.kind == ast::Stmt::Kind::OmpAtomic
                                    ? width_type(d)
                                    : declared_type(d));
          }
          break;
        case ast::Stmt::Kind::Decl:
          store(s.target.var, width_type(prog_.var(s.target.var)));
          break;
        case ast::Stmt::Kind::For:
          store(s.loop_var, Ty::Int);
          break;
        case ast::Stmt::Kind::OmpParallel:
          for (const VarId v : s.clauses.privates) store(v, declared_type(prog_.var(v)));
          break;
        default:
          break;
      }
    });
  }

  // -- expressions ------------------------------------------------------------
  Ty type_of(const Expr& e) const {
    switch (e.kind()) {
      case Expr::Kind::FpConst: return Ty::F64;
      case Expr::Kind::IntConst: return Ty::Int;
      case Expr::Kind::ThreadId: return Ty::Int;
      case Expr::Kind::Call: return Ty::F64;
      case Expr::Kind::VarRef: return var_type(e);
      case Expr::Kind::ArrayRef:
        return prog_.var(e.var_id()).width == FpWidth::F32 ? Ty::F32 : Ty::F64;
      case Expr::Kind::Binary:
        if (e.bin_op() == BinOp::Mod) return Ty::Int;
        if (contract_fma_ && fma_shape(e)) {
          return combined({type_of(e.lhs().lhs()), type_of(e.lhs().rhs()),
                           type_of(e.rhs())});
        }
        return combined({type_of(e.lhs()), type_of(e.rhs())});
    }
    throw InterpError("unreachable expr kind");
  }

  Ty var_type(const Expr& ref) const {
    const Ty t = var_ty_[ref.var_id()];
    // Int and double placeholders behave exactly like int 0 and double 0.0;
    // only a float variable's type depends on whether it was stored yet.
    return t == Ty::F32 && unwritten_.count(&ref) != 0 ? Ty::Dyn : t;
  }

  /// C++ usual arithmetic conversions: float only when every operand is
  /// float; Dyn when that cannot be decided statically.
  static Ty combined(std::initializer_list<Ty> operands) {
    bool all_float_or_dyn = true;
    bool any_dyn = false;
    for (const Ty t : operands) {
      all_float_or_dyn = all_float_or_dyn && (t == Ty::F32 || t == Ty::Dyn);
      any_dyn = any_dyn || t == Ty::Dyn;
    }
    if (!all_float_or_dyn) return Ty::F64;
    return any_dyn ? Ty::Dyn : Ty::F32;
  }

  std::uint32_t push(Op op, Ty ty, std::uint8_t sub = 0, std::uint32_t a = 0,
                     std::uint64_t bits = 0) {
    out_.nodes.push_back(Node{op, ty, sub, 0, a, bits});
    return static_cast<std::uint32_t>(out_.nodes.size() - 1);
  }

  std::uint32_t offset_from(std::uint32_t node) const {
    return static_cast<std::uint32_t>(out_.nodes.size()) - node;
  }

  /// Pushes the node converting a `from` value to `want` (Int or F64), if
  /// they differ; the converted value must be emitted next.
  void push_conversion(Ty from, Ty want) {
    if (from == want) return;
    if (want == Ty::F64) {
      (void)push(from == Ty::Int ? Op::IntToF64 : from == Ty::F32 ? Op::F32ToF64 : Op::DynToF64,
                 Ty::F64);
    } else {
      OMPFUZZ_CHECK(want == Ty::Int, "conversion target must be int or double");
      (void)push(from == Ty::F32 ? Op::F32ToInt : from == Ty::F64 ? Op::F64ToInt : Op::DynToInt,
                 Ty::Int);
    }
  }

  /// Emits `e` converted to `want` (Int or F64); returns the root's index.
  std::uint32_t emit_as(const Expr& e, Ty want) {
    const auto root = static_cast<std::uint32_t>(out_.nodes.size());
    push_conversion(type_of(e), want);
    (void)emit(e);
    return root;
  }

  std::uint32_t emit(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::FpConst:
        return push(Op::ConstF64, Ty::F64, 0, 0, std::bit_cast<std::uint64_t>(e.fp_value()));
      case Expr::Kind::IntConst:
        return push(Op::ConstInt, Ty::Int, 0, 0, static_cast<std::uint64_t>(e.int_value()));
      case Expr::Kind::ThreadId:
        return in_region_ ? push(Op::ThreadId, Ty::Int) : push(Op::ConstInt, Ty::Int);
      case Expr::Kind::VarRef:
        return emit_load(e.var_id(), var_type(e));
      case Expr::Kind::ArrayRef: {
        const VarDecl& d = prog_.var(e.var_id());
        const bool f32 = d.width == FpWidth::F32;
        const std::uint32_t root =
            push(f32 ? Op::LoadArrayF32 : Op::LoadArrayF64, f32 ? Ty::F32 : Ty::F64, 0,
                 e.var_id(), static_cast<std::uint64_t>(d.array_size));
        (void)emit_as(e.index(), Ty::Int);
        return root;
      }
      case Expr::Kind::Call: {
        const std::uint32_t root =
            push(Op::Call, Ty::F64, static_cast<std::uint8_t>(e.func()));
        (void)emit_as(e.arg(), Ty::F64);
        return root;
      }
      case Expr::Kind::Binary:
        return emit_binary(e);
    }
    throw InterpError("unreachable expr kind");
  }

  std::uint32_t emit_load(VarId v, Ty t) {
    switch (t) {
      case Ty::Int: return push(Op::LoadInt, t, 0, v);
      case Ty::F32: return push(Op::LoadF32, t, 0, v);
      case Ty::F64: return push(Op::LoadF64, t, 0, v);
      case Ty::Dyn: return push(Op::LoadDyn, t, 0, v);
    }
    throw InterpError("unreachable type");
  }

  std::uint32_t emit_binary(const Expr& e) {
    const auto sub = static_cast<std::uint8_t>(e.bin_op());
    if (e.bin_op() == BinOp::Mod) {
      const std::uint32_t root = push(Op::Mod, Ty::Int, sub);
      (void)emit_as(e.lhs(), Ty::Int);
      out_.nodes[root].a = offset_from(root);
      (void)emit_as(e.rhs(), Ty::Int);
      return root;
    }
    const Ty t = type_of(e);
    if (contract_fma_ && fma_shape(e)) {
      const Op op = t == Ty::F32 ? Op::FmaF32 : t == Ty::F64 ? Op::FmaF64 : Op::FmaDyn;
      const std::uint32_t root = push(op, t, sub);
      emit_operand(e.lhs().lhs(), t);
      out_.nodes[root].a = offset_from(root);
      emit_operand(e.lhs().rhs(), t);
      out_.nodes[root].bits = offset_from(root);
      emit_operand(e.rhs(), t);
      return root;
    }
    const Op op = t == Ty::F32 ? Op::BinF32 : t == Ty::F64 ? Op::BinF64 : Op::BinDyn;
    const std::uint32_t root = push(op, t, sub);
    emit_operand(e.lhs(), t);
    out_.nodes[root].a = offset_from(root);
    emit_operand(e.rhs(), t);
    return root;
  }

  /// Operands of a double operation are converted to double; those of a
  /// float or Dyn operation keep their own type.
  void emit_operand(const Expr& e, Ty op_type) {
    (void)(op_type == Ty::F64 ? emit_as(e, Ty::F64) : emit(e));
  }

  // -- statements -------------------------------------------------------------
  void lower_block(const Block& block) {
    const auto begin = static_cast<std::uint32_t>(out_.stmts.size());
    out_.stmts.resize(begin + block.size(), ir::Stmt{StmtOp::Critical});
    for (std::size_t k = 0; k < block.size(); ++k) {
      // Built locally: lowering nested bodies appends to out_.stmts.
      const ir::Stmt s = lower_stmt(*block.stmts[k]);
      out_.stmts[begin + k] = s;
    }
  }

  /// Lowers `body` after the statements already reserved into s.begin/end.
  void lower_body(const Block& body, ir::Stmt& s) {
    s.begin = static_cast<std::uint32_t>(out_.stmts.size());
    lower_block(body);
    s.end = s.begin + static_cast<std::uint32_t>(body.size());
  }

  ir::Stmt lower_stmt(const ast::Stmt& st) {
    ir::Stmt s{StmtOp::Critical};
    s.in_region = in_region_;
    switch (st.kind) {
      case ast::Stmt::Kind::Assign:
      case ast::Stmt::Kind::OmpAtomic:
        lower_update(st, s);
        break;
      case ast::Stmt::Kind::Decl:
        s.op = width_type(prog_.var(st.target.var)) == Ty::F32 ? StmtOp::DeclF32
                                                              : StmtOp::DeclF64;
        s.var = st.target.var;
        s.value = emit_as(*st.value, Ty::F64);
        break;
      case ast::Stmt::Kind::If:
        // The guard variable is a plain read, converted like any operand.
        s.op = StmtOp::If;
        s.sub = static_cast<std::uint8_t>(st.cond.op);
        s.index = static_cast<std::uint32_t>(out_.nodes.size());
        push_conversion(var_ty_[st.cond.lhs], Ty::F64);
        (void)emit_load(st.cond.lhs, var_ty_[st.cond.lhs]);
        s.value = emit_as(*st.cond.rhs, Ty::F64);
        lower_body(st.body, s);
        break;
      case ast::Stmt::Kind::For:
        s.op = StmtOp::For;
        s.var = st.loop_var;
        s.value = emit_as(*st.loop_bound, Ty::Int);
        s.worksharing = st.omp_for && in_region_;
        s.sub = static_cast<std::uint8_t>(st.schedule);
        s.extent = st.schedule_chunk;
        lower_body(st.body, s);
        break;
      case ast::Stmt::Kind::OmpParallel:
        lower_region(st, s);
        break;
      case ast::Stmt::Kind::OmpCritical:
        s.op = StmtOp::Critical;
        lower_body(st.body, s);
        break;
      case ast::Stmt::Kind::OmpSingle:
        s.op = StmtOp::Single;
        lower_body(st.body, s);
        break;
      case ast::Stmt::Kind::OmpMaster:
        s.op = StmtOp::Master;
        lower_body(st.body, s);
        break;
    }
    return s;
  }

  /// Assignments and atomic updates: the op is chosen by target storage and
  /// type; a float target keeps a float or Dyn value as-is (C++ decides the
  /// compound operation's precision by it), int targets convert to int and
  /// double targets to double.
  void lower_update(const ast::Stmt& st, ir::Stmt& s) {
    const VarDecl& d = prog_.var(st.target.var);
    const bool atomic = st.kind == ast::Stmt::Kind::OmpAtomic;
    const bool f32 = d.width == FpWidth::F32;
    s.sub = static_cast<std::uint8_t>(st.assign_op);
    s.var = st.target.var;
    if (st.target.is_array_element()) {
      s.op = atomic ? (f32 ? StmtOp::AtomicArrayF32 : StmtOp::AtomicArrayF64)
                    : (f32 ? StmtOp::AssignArrayF32 : StmtOp::AssignArrayF64);
      s.extent = d.array_size;
      s.index = emit_as(*st.target.index, Ty::Int);
    } else if (!atomic && d.kind == VarKind::IntScalar) {
      s.op = StmtOp::AssignInt;
      s.value = emit_as(*st.value, Ty::Int);
      return;
    } else {
      s.op = atomic ? (f32 ? StmtOp::AtomicF32 : StmtOp::AtomicF64)
                    : (f32 ? StmtOp::AssignF32 : StmtOp::AssignF64);
    }
    const Ty t = type_of(*st.value);
    s.value = f32 && (t == Ty::F32 || t == Ty::Dyn) ? emit(*st.value)
                                                    : emit_as(*st.value, Ty::F64);
  }

  void lower_region(const ast::Stmt& st, ir::Stmt& s) {
    s.op = StmtOp::Parallel;
    s.var = static_cast<std::uint32_t>(out_.regions.size());
    ir::Region r;
    r.privates = st.clauses.privates;
    r.firstprivates = st.clauses.firstprivates;
    r.num_threads = st.clauses.num_threads;
    r.has_reduction = st.clauses.reduction.has_value();
    if (r.has_reduction) r.reduction = *st.clauses.reduction;
    r.privatizable = r.privates;
    r.privatizable.insert(r.privatizable.end(), r.firstprivates.begin(),
                          r.firstprivates.end());
    if (r.has_reduction) r.privatizable.push_back(prog_.comp());
    ast::walk_stmts(st.body, [&r](const ast::Stmt& inner) {
      if (inner.kind == ast::Stmt::Kind::Decl) r.privatizable.push_back(inner.target.var);
      if (inner.kind == ast::Stmt::Kind::For) r.privatizable.push_back(inner.loop_var);
    });
    std::sort(r.privatizable.begin(), r.privatizable.end());
    r.privatizable.erase(std::unique(r.privatizable.begin(), r.privatizable.end()),
                         r.privatizable.end());
    out_.regions.push_back(std::move(r));
    // A nested region keeps in_region set and fails when executed, like
    // every other runtime error.
    const bool outer = in_region_;
    in_region_ = true;
    lower_body(st.body, s);
    in_region_ = outer;
  }

  const ast::Program& prog_;
  const bool contract_fma_;
  std::unordered_set<const Expr*> unwritten_;
  std::vector<Ty> var_ty_;
  bool in_region_ = false;
  Compiled out_;
};

}  // namespace

Compiled compile(const ast::Program& program, bool contract_fma) {
  return Lowerer(program, contract_fma).run();
}

}  // namespace ompfuzz::interp
