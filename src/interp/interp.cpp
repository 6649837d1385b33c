#include "interp/interp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "support/error.hpp"

namespace ompfuzz::interp {

namespace {

using ast::AssignOp;
using ast::BinOp;
using ast::FpWidth;
using ast::MathFunc;
using ast::VarId;
using ast::VarKind;
using ir::Node;
using ir::Op;
using ir::StmtOp;

/// Internal signal for budget exhaustion; converted to a result flag.
struct BudgetExceeded {};

double apply_math(MathFunc f, double x) noexcept {
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

template <typename T>
T apply_bin(BinOp op, T a, T b) noexcept {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Div: return a / b;
    case BinOp::Mod: return a;  // never reached for fp (lowered to Op::Mod)
  }
  return a;
}

template <typename T>
T combine(AssignOp op, T old_value, T rhs) noexcept {
  switch (op) {
    case AssignOp::Assign: return rhs;
    case AssignOp::AddAssign: return old_value + rhs;
    case AssignOp::SubAssign: return old_value - rhs;
    case AssignOp::MulAssign: return old_value * rhs;
    case AssignOp::DivAssign: return old_value / rhs;
  }
  return rhs;
}

template <typename T>
bool is_subnormal(T v) noexcept {
  return std::fabs(v) < std::numeric_limits<T>::min() && v != T{0};
}

/// The right-hand side of a float target's update: C++ computes the
/// compound operation in float only when the value is float too.
struct FloatUpdate {
  bool is_float;
  float f;
  double d;
};

/// The engine. Traced instantiations feed InterpOptions::trace/values; the
/// untraced one compiles every hook away.
template <bool kTraced>
class Engine {
 public:
  Engine(const Compiled& program, const fp::InputSet& input,
         const InterpOptions& options)
      : prog_(program),
        nodes_(program.nodes.data()),
        stmts_(program.stmts.data()),
        opt_(options),
        flush_(options.fp.flush_subnormals),
        max_steps_(options.max_steps) {
    const std::size_t n = program.vars.size();
    globals_.assign(n, Value{});
    locals_.assign(n, Value{});
    view_.resize(n);
    for (std::size_t v = 0; v < n; ++v) view_[v] = &globals_[v];
    arrays_.assign(n, nullptr);
    if constexpr (kTraced) {
      if (opt_.values != nullptr) opt_.values->reset(n);
    }
    bind_inputs(input);
  }

  InterpResult run() {
    InterpResult result;
    try {
      exec_block(0, prog_.body_end);
      result.ok = true;
    } catch (const BudgetExceeded&) {
      result.over_budget = true;
    }
    result.comp = globals_[prog_.comp].as_double();
    result.events = ev_;
    result.steps = steps_;
    return result;
  }

 private:
  void bind_inputs(const fp::InputSet& input) {
    OMPFUZZ_CHECK(input.values.size() == prog_.params.size(),
                  "input arity does not match program signature");
    std::size_t total = 0;
    for (const VarId id : prog_.params) {
      const auto& decl = prog_.vars[id];
      if (decl.kind == VarKind::FpArray && decl.array_size > 0) {
        total += static_cast<std::size_t>(decl.array_size);
      }
    }
    array_store_.resize(total);
    std::size_t next = 0;
    for (std::size_t k = 0; k < prog_.params.size(); ++k) {
      const VarId id = prog_.params[k];
      const auto& decl = prog_.vars[id];
      const auto& v = input.values[k];
      switch (decl.kind) {
        case VarKind::IntScalar:
          globals_[id] = Value::make_int(v.int_value);
          note_int(id, v.int_value);
          break;
        case VarKind::FpScalar:
          if (decl.width == FpWidth::F32) {
            globals_[id] = Value::make_f32(flush32(static_cast<float>(v.fp_value)));
          } else {
            globals_[id] = Value::make_f64(flush64(v.fp_value));
          }
          break;
        case VarKind::FpArray: {
          if (decl.array_size <= 0) break;  // never bound
          const double fill = decl.width == FpWidth::F32
                                  ? static_cast<double>(flush32(static_cast<float>(v.fp_value)))
                                  : flush64(v.fp_value);
          double* base = array_store_.data() + next;
          next += static_cast<std::size_t>(decl.array_size);
          std::fill(base, base + decl.array_size, fill);
          arrays_[id] = base;
          break;
        }
      }
    }
    globals_[prog_.comp] = Value::make_f64(0.0);
  }

  // -- fp semantics -------------------------------------------------------------
  [[nodiscard]] double flush64(double v) const noexcept {
    if (flush_ && is_subnormal(v)) return std::signbit(v) ? -0.0 : 0.0;
    return v;
  }
  [[nodiscard]] float flush32(float v) const noexcept {
    if (flush_ && is_subnormal(v)) return std::signbit(v) ? -0.0f : 0.0f;
    return v;
  }

  void step() {
    if (++steps_ > max_steps_) throw BudgetExceeded{};
  }

  // -- trace hooks ------------------------------------------------------------------
  void note_int(VarId id, std::int64_t v) {
    if constexpr (kTraced) {
      if (opt_.values != nullptr) opt_.values->scalars[id].note(v);
    }
  }

  [[nodiscard]] bool shared(VarId id) const noexcept {
    return view_[id] == &globals_[id];
  }

  /// Appends to the shared-access trace; a no-op outside parallel regions.
  void record(VarId id, std::int32_t elem, bool is_write, bool is_atomic = false) {
    if constexpr (kTraced) {
      if (opt_.trace == nullptr || !in_region_) return;
      opt_.trace->accesses.push_back({trace_region_, trace_phase_, id, elem,
                                      static_cast<std::uint16_t>(tid_), is_write,
                                      in_critical_, is_atomic});
    }
  }

  /// A scalar read: counted, traced when it reaches shared storage.
  const Value& load(VarId id) {
    ++ev_.scalar_loads;
    if constexpr (kTraced) {
      if (shared(id)) record(id, -1, /*is_write=*/false);
    }
    return *view_[id];
  }

  /// A scalar store through the thread's view (assignments).
  Value& store(VarId id) {
    ++ev_.scalar_stores;
    if constexpr (kTraced) {
      if (shared(id)) record(id, -1, /*is_write=*/true);
    }
    return *view_[id];
  }

  /// The slot a Decl or loop header binds: thread-private inside a region.
  Value& bind_local(VarId id, bool in_region) {
    if (!in_region) return globals_[id];
    view_[id] = &locals_[id];
    return locals_[id];
  }

  // -- arrays -------------------------------------------------------------------------
  std::size_t subscript(const Node& idx, VarId array, std::int64_t extent) {
    const std::int64_t raw = eval_int(idx);
    // Observed before the bounds check: a subscript that is about to abort
    // the run is exactly the observation the soundness sweep must not miss.
    if constexpr (kTraced) {
      if (opt_.values != nullptr) opt_.values->subscripts[array].note(raw);
    }
    if (raw < 0 || raw >= extent) {
      throw InterpError("array subscript out of bounds: " + std::to_string(raw) +
                        " (size " + std::to_string(extent) + ")");
    }
    return static_cast<std::size_t>(raw);
  }

  double* array(VarId id) const {
    double* base = arrays_[id];
    OMPFUZZ_CHECK(base != nullptr, "array never bound: " + prog_.vars[id].name);
    return base;
  }

  template <typename T>
  T load_element(const Node& n) {
    const std::size_t i = subscript(n.operand(1), n.a, n.i64());
    ++ev_.array_loads;
    record(n.a, static_cast<std::int32_t>(i), /*is_write=*/false);
    return static_cast<T>(array(n.a)[i]);
  }

  // -- expressions -----------------------------------------------------------------------
  void count_op(std::uint8_t op) {
    switch (static_cast<BinOp>(op)) {
      case BinOp::Add:
      case BinOp::Sub: ++ev_.fp_add_sub; break;
      case BinOp::Mul: ++ev_.fp_mul; break;
      case BinOp::Div: ++ev_.fp_div; break;
      case BinOp::Mod: break;
    }
  }

  float bin_f32(std::uint8_t op, float a, float b) {
    count_op(op);
    const float r = flush32(apply_bin<float>(static_cast<BinOp>(op), a, b));
    if (is_subnormal(a) || is_subnormal(b) || is_subnormal(r)) ++ev_.subnormal_fp_ops;
    return r;
  }

  double bin_f64(std::uint8_t op, double a, double b) {
    count_op(op);
    const double r = flush64(apply_bin<double>(static_cast<BinOp>(op), a, b));
    if (is_subnormal(a) || is_subnormal(b) || is_subnormal(r)) ++ev_.subnormal_fp_ops;
    return r;
  }

  /// FMA contraction (Intel-style -fp-model fast): x*y +/- z with a single
  /// rounding. The event stream still records the multiply and the add.
  float fma_f32(std::uint8_t op, float x, float y, float z) {
    ++ev_.fp_mul;
    ++ev_.fp_add_sub;
    return flush32(std::fmaf(x, y, static_cast<BinOp>(op) == BinOp::Add ? z : -z));
  }
  double fma_f64(std::uint8_t op, double x, double y, double z) {
    ++ev_.fp_mul;
    ++ev_.fp_add_sub;
    return flush64(std::fma(x, y, static_cast<BinOp>(op) == BinOp::Add ? z : -z));
  }

  std::int64_t eval_int(const Node& n) {
    switch (n.op) {
      case Op::ConstInt: return n.i64();
      case Op::LoadInt: return load(n.a).i;
      case Op::ThreadId: return tid_;
      case Op::Mod: {
        const std::int64_t a = eval_int(n.operand(1));
        const std::int64_t b = eval_int(n.operand(n.a));
        if (b == 0) throw InterpError("modulo by zero");
        ++ev_.int_ops;
        return a % b;
      }
      case Op::F32ToInt: return static_cast<std::int64_t>(eval_f32(n.operand(1)));
      case Op::F64ToInt: return static_cast<std::int64_t>(eval_f64(n.operand(1)));
      case Op::DynToInt: return eval_dyn(n.operand(1)).as_int();
      default: break;
    }
    throw InterpError("int evaluator reached a non-int node");
  }

  float eval_f32(const Node& n) {
    switch (n.op) {
      case Op::LoadF32: return load(n.a).f;
      case Op::LoadArrayF32: return load_element<float>(n);
      case Op::BinF32: {
        const float a = eval_f32(n.operand(1));
        return bin_f32(n.sub, a, eval_f32(n.operand(n.a)));
      }
      case Op::FmaF32: {
        const float x = eval_f32(n.operand(1));
        const float y = eval_f32(n.operand(n.a));
        return fma_f32(n.sub, x, y, eval_f32(n.operand(static_cast<std::uint32_t>(n.bits))));
      }
      default: break;
    }
    throw InterpError("float evaluator reached a non-float node");
  }

  double eval_f64(const Node& n) {
    switch (n.op) {
      case Op::ConstF64: return n.f64();
      case Op::LoadF64: return load(n.a).d;
      case Op::LoadArrayF64: return load_element<double>(n);
      case Op::BinF64: {
        const double a = eval_f64(n.operand(1));
        return bin_f64(n.sub, a, eval_f64(n.operand(n.a)));
      }
      case Op::FmaF64: {
        const double x = eval_f64(n.operand(1));
        const double y = eval_f64(n.operand(n.a));
        return fma_f64(n.sub, x, y, eval_f64(n.operand(static_cast<std::uint32_t>(n.bits))));
      }
      case Op::Call: {
        const double arg = eval_f64(n.operand(1));
        ++ev_.math_calls;
        return flush64(apply_math(static_cast<MathFunc>(n.sub), arg));
      }
      case Op::IntToF64: return static_cast<double>(eval_int(n.operand(1)));
      case Op::F32ToF64: return static_cast<double>(eval_f32(n.operand(1)));
      case Op::DynToF64: return eval_dyn(n.operand(1)).as_double();
      default: break;
    }
    throw InterpError("double evaluator reached a non-double node");
  }

  /// Any node as a tagged Value (operands of Dyn operations).
  Value eval_value(const Node& n) {
    switch (n.ty) {
      case Ty::Int: return Value::make_int(eval_int(n));
      case Ty::F32: return Value::make_f32(eval_f32(n));
      case Ty::F64: return Value::make_f64(eval_f64(n));
      case Ty::Dyn: return eval_dyn(n);
    }
    throw InterpError("unreachable type");
  }

  Value eval_dyn(const Node& n) {
    switch (n.op) {
      case Op::LoadDyn: return load(n.a);
      case Op::BinDyn: {
        const Value a = eval_value(n.operand(1));
        const Value b = eval_value(n.operand(n.a));
        if (a.tag == Value::Tag::F32 && b.tag == Value::Tag::F32) {
          return Value::make_f32(bin_f32(n.sub, a.f, b.f));
        }
        return Value::make_f64(bin_f64(n.sub, a.as_double(), b.as_double()));
      }
      case Op::FmaDyn: {
        const Value x = eval_value(n.operand(1));
        const Value y = eval_value(n.operand(n.a));
        const Value z = eval_value(n.operand(static_cast<std::uint32_t>(n.bits)));
        if (x.tag == Value::Tag::F32 && y.tag == Value::Tag::F32 &&
            z.tag == Value::Tag::F32) {
          return Value::make_f32(fma_f32(n.sub, x.f, y.f, z.f));
        }
        return Value::make_f64(fma_f64(n.sub, x.as_double(), y.as_double(), z.as_double()));
      }
      default: break;
    }
    throw InterpError("dynamic evaluator reached a static node");
  }

  bool compare(ast::BoolOp op, double lhs, double rhs) {
    ++ev_.branches;
    switch (op) {
      case ast::BoolOp::Lt: return lhs < rhs;
      case ast::BoolOp::Gt: return lhs > rhs;
      case ast::BoolOp::Eq: return lhs == rhs;
      case ast::BoolOp::Ne: return lhs != rhs;
      case ast::BoolOp::Ge: return lhs >= rhs;
      case ast::BoolOp::Le: return lhs <= rhs;
    }
    return false;
  }

  // -- updates ----------------------------------------------------------------------------
  FloatUpdate eval_float_update(const Node& n) {
    switch (n.ty) {
      case Ty::F32: return {true, eval_f32(n), 0.0};
      case Ty::Dyn: {
        const Value v = eval_dyn(n);
        return {v.tag == Value::Tag::F32, v.f, v.as_double()};
      }
      default: return {false, 0.0f, eval_f64(n)};
    }
  }

  /// `target op= rhs` with C++ compound-assignment typing: float only when
  /// the rhs is float too; otherwise double with a narrowing store.
  [[nodiscard]] float combine_f32(AssignOp op, float old_value, FloatUpdate rhs) const noexcept {
    if (rhs.is_float) return flush32(combine<float>(op, old_value, rhs.f));
    return flush32(static_cast<float>(
        combine<double>(op, static_cast<double>(old_value), rhs.d)));
  }
  [[nodiscard]] double combine_f64(AssignOp op, double old_value, double rhs) const noexcept {
    return flush64(combine<double>(op, old_value, rhs));
  }

  template <bool kAtomic>
  void update_element(const ir::Stmt& s) {
    const auto op = static_cast<AssignOp>(s.sub);
    const std::size_t i = subscript(nodes_[s.index], s.var, s.extent);
    double* base = nullptr;
    if constexpr (!kAtomic) base = array(s.var);
    const bool f32 = s.op == StmtOp::AssignArrayF32 || s.op == StmtOp::AtomicArrayF32;
    double result = 0.0;
    if (f32) {
      const FloatUpdate rhs = eval_float_update(nodes_[s.value]);
      if constexpr (kAtomic) base = array(s.var);
      const float old_value = op == AssignOp::Assign ? 0.0f : static_cast<float>(base[i]);
      result = static_cast<double>(combine_f32(op, old_value, rhs));
    } else {
      const double rhs = eval_f64(nodes_[s.value]);
      if constexpr (kAtomic) base = array(s.var);
      const double old_value = op == AssignOp::Assign ? 0.0 : base[i];
      result = combine_f64(op, old_value, rhs);
    }
    if constexpr (kAtomic) ++ev_.array_loads;
    ++ev_.array_stores;
    // An atomic is one indivisible read-modify-write: a single atomic-classed
    // access, not a plain read plus a plain write.
    record(s.var, static_cast<std::int32_t>(i), /*is_write=*/true, kAtomic);
    base[i] = result;
  }

  void assign_scalar(const ir::Stmt& s) {
    const auto op = static_cast<AssignOp>(s.sub);
    if (s.op == StmtOp::AssignF32) {
      const FloatUpdate rhs = eval_float_update(nodes_[s.value]);
      const float old_value = op == AssignOp::Assign ? 0.0f : load(s.var).f;
      store(s.var) = Value::make_f32(combine_f32(op, old_value, rhs));
    } else {
      const double rhs = eval_f64(nodes_[s.value]);
      const double old_value = op == AssignOp::Assign ? 0.0 : load(s.var).as_double();
      store(s.var) = Value::make_f64(combine_f64(op, old_value, rhs));
    }
  }

  void atomic_scalar(const ir::Stmt& s) {
    const auto op = static_cast<AssignOp>(s.sub);
    const bool f32 = s.op == StmtOp::AtomicF32;
    FloatUpdate frhs{};
    double drhs = 0.0;
    if (f32) {
      frhs = eval_float_update(nodes_[s.value]);
    } else {
      drhs = eval_f64(nodes_[s.value]);
    }
    ++ev_.scalar_loads;
    ++ev_.scalar_stores;
    // An atomic on a private copy degenerates to a plain update.
    if constexpr (kTraced) {
      if (shared(s.var)) record(s.var, -1, /*is_write=*/true, /*is_atomic=*/true);
    }
    Value& slot = *view_[s.var];
    if (f32) {
      slot = Value::make_f32(combine_f32(op, op == AssignOp::Assign ? 0.0f : slot.f, frhs));
    } else {
      slot = Value::make_f64(combine_f64(op, op == AssignOp::Assign ? 0.0 : slot.as_double(), drhs));
    }
  }

  // -- statements -------------------------------------------------------------------------
  void exec_block(std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t k = begin; k < end; ++k) exec(stmts_[k]);
  }

  void exec(const ir::Stmt& s) {
    step();
    if (in_critical_) ++ev_.critical_stmts;
    switch (s.op) {
      case StmtOp::AssignInt: {
        const std::int64_t v = eval_int(nodes_[s.value]);
        note_int(s.var, v);
        store(s.var) = Value::make_int(v);
        break;
      }
      case StmtOp::AssignF32:
      case StmtOp::AssignF64:
        assign_scalar(s);
        break;
      case StmtOp::AssignArrayF32:
      case StmtOp::AssignArrayF64:
        update_element<false>(s);
        break;
      case StmtOp::AtomicF32:
      case StmtOp::AtomicF64:
        atomic_scalar(s);
        break;
      case StmtOp::AtomicArrayF32:
      case StmtOp::AtomicArrayF64:
        update_element<true>(s);
        break;
      case StmtOp::DeclF32: {
        const double init = eval_f64(nodes_[s.value]);
        bind_local(s.var, s.in_region) = Value::make_f32(flush32(static_cast<float>(init)));
        ++ev_.scalar_stores;
        break;
      }
      case StmtOp::DeclF64: {
        const double init = eval_f64(nodes_[s.value]);
        bind_local(s.var, s.in_region) = Value::make_f64(flush64(init));
        ++ev_.scalar_stores;
        break;
      }
      case StmtOp::If: {
        const double lhs = eval_f64(nodes_[s.index]);
        if (compare(static_cast<ast::BoolOp>(s.sub), lhs, eval_f64(nodes_[s.value]))) {
          exec_block(s.begin, s.end);
        }
        break;
      }
      case StmtOp::For:
        exec_for(s);
        break;
      case StmtOp::Parallel:
        exec_parallel(s);
        break;
      case StmtOp::Critical: {
        ++ev_.critical_entries;
        const bool saved = in_critical_;
        in_critical_ = true;
        exec_block(s.begin, s.end);
        in_critical_ = saved;
        break;
      }
      case StmtOp::Single: {
        if (!s.in_region) {  // serial context: the one thread executes
          exec_block(s.begin, s.end);
          break;
        }
        // Deterministic stand-in for "first thread to arrive": encounter k
        // within a region execution is taken by thread k mod team, rotating
        // the executor across blocks. Emitted nowait — no barrier, no phase
        // advance.
        const std::uint32_t k = single_counter_++;
        if (static_cast<int>(k % static_cast<std::uint32_t>(team_)) == tid_) {
          exec_block(s.begin, s.end);
        }
        break;
      }
      case StmtOp::Master:
        if (!s.in_region || tid_ == 0) exec_block(s.begin, s.end);
        break;
    }
  }

  void run_iters(const ir::Stmt& s, std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      step();
      ++ev_.loop_iterations;
      ++ev_.branches;  // loop condition check
      note_int(s.var, i);
      bind_local(s.var, s.in_region) = Value::make_int(i);
      exec_block(s.begin, s.end);
    }
  }

  void exec_for(const ir::Stmt& s) {
    const std::int64_t n = eval_int(nodes_[s.value]);
    if (!s.worksharing) {
      run_iters(s, 0, n);
      return;
    }
    ++ev_.omp_for_loops;
    const auto schedule = static_cast<ast::ScheduleKind>(s.sub);
    if (schedule == ast::ScheduleKind::None ||
        (schedule == ast::ScheduleKind::Static && s.extent == 0)) {
      // Default partition: contiguous near-equal chunks.
      const IterRange r = static_chunk(n, team_, tid_);
      run_iters(s, r.begin, r.end);
    } else {
      // Round-robin chunks: models schedule(static, c) exactly and stands
      // in deterministically for schedule(dynamic[, c]) — every iteration
      // still runs on exactly one thread, which is all the race model and
      // the result's reproducibility need.
      const std::int64_t c = s.extent > 0 ? s.extent : 1;
      const auto team = static_cast<std::int64_t>(team_);
      for (std::int64_t base = c * tid_; base < n; base += c * team) {
        run_iters(s, base, std::min(base + c, n));
      }
    }
    ++ev_.barriers;  // this thread arriving at the work-shared loop barrier
    ++trace_phase_;
  }

  void exec_parallel(const ir::Stmt& s) {
    OMPFUZZ_CHECK(!s.in_region, "nested parallel regions are not supported");
    const ir::Region& r = prog_.regions[s.var];
    ++ev_.parallel_regions;
    ++trace_region_;  // each execution of a region is its own trace instance
    const int team = opt_.num_threads_override > 0 ? opt_.num_threads_override
                                                   : r.num_threads;
    const VarId comp = prog_.comp;
    std::vector<double> contributions;  // per-thread reduction contributions
    team_ = team;
    for (int tid = 0; tid < team; ++tid) {
      ++ev_.thread_starts;
      // The thread's private environment.
      for (const VarId v : r.privates) {
        view_[v] = &locals_[v];
        const auto& d = prog_.vars[v];
        if (d.kind == VarKind::IntScalar) {
          locals_[v] = Value::make_int(0);
          note_int(v, 0);
        } else {
          locals_[v] = Value::zero_of(d.width);
        }
      }
      for (const VarId v : r.firstprivates) {
        view_[v] = &locals_[v];
        locals_[v] = globals_[v];
      }
      if (r.has_reduction) {
        view_[comp] = &locals_[comp];
        locals_[comp] = Value::make_f64(r.reduction == ast::ReductionOp::Sum ? 0.0 : 1.0);
      }
      tid_ = tid;
      in_region_ = true;
      trace_phase_ = 0;    // per-thread barrier count within this region
      single_counter_ = 0; // per-thread single-encounter count
      exec_block(s.begin, s.end);
      in_region_ = false;
      tid_ = 0;
      for (const VarId v : r.privatizable) view_[v] = &globals_[v];
      if (r.has_reduction) {
        ++ev_.reduction_combines;
        contributions.push_back(locals_[comp].as_double());
      }
    }
    if (r.has_reduction) {
      combine_reduction(r.reduction == ast::ReductionOp::Sum, contributions);
    }
    // Implicit join barrier: one arrival per team member (ev_.barriers counts
    // arrivals so the cost models can charge per-thread synchronization).
    ev_.barriers += static_cast<std::uint64_t>(team);
  }

  void combine_reduction(bool is_sum, std::vector<double>& parts) {
    const auto combine2 = [&](double a, double b) {
      return flush64(is_sum ? a + b : a * b);
    };
    if (opt_.fp.reassociate_reductions) {
      // Pairwise tree combine, as a vectorized reduction produces.
      while (parts.size() > 1) {
        std::size_t out = 0;
        for (std::size_t k = 0; k + 1 < parts.size(); k += 2) {
          parts[out++] = combine2(parts[k], parts[k + 1]);
        }
        if (parts.size() % 2 == 1) parts[out++] = parts.back();
        parts.resize(out);
      }
    } else {
      // Thread-order left fold.
      for (std::size_t k = 1; k < parts.size(); ++k) {
        parts[0] = combine2(parts[0], parts[k]);
      }
      parts.resize(1);  // an empty team folds to a single 0.0
    }
    const double total = parts.empty() ? (is_sum ? 0.0 : 1.0) : parts[0];
    Value& comp = globals_[prog_.comp];
    comp = Value::make_f64(combine2(comp.as_double(), total));
  }

  const Compiled& prog_;
  const Node* nodes_;
  const ir::Stmt* stmts_;
  const InterpOptions& opt_;
  const bool flush_;
  const std::uint64_t max_steps_;
  std::vector<Value> globals_;
  std::vector<Value> locals_;  ///< the current thread's private copies
  std::vector<Value*> view_;   ///< per variable: its global or private slot
  std::vector<double> array_store_;
  std::vector<double*> arrays_;  ///< per variable: bound array, else null
  int tid_ = 0;
  int team_ = 1;
  bool in_region_ = false;
  bool in_critical_ = false;
  std::uint32_t trace_region_ = 0;  ///< parallel-region execution counter
  std::uint32_t trace_phase_ = 0;   ///< current thread's barrier count
  std::uint32_t single_counter_ = 0;  ///< single blocks this thread has met
  EventCounts ev_;
  std::uint64_t steps_ = 0;
};

}  // namespace

IterRange static_chunk(std::int64_t n, int num_threads, int tid) noexcept {
  if (n <= 0 || num_threads <= 0 || tid < 0 || tid >= num_threads) return {0, 0};
  const std::int64_t base = n / num_threads;
  const std::int64_t extra = n % num_threads;
  const std::int64_t begin =
      tid < extra ? tid * (base + 1) : extra * (base + 1) + (tid - extra) * base;
  const std::int64_t len = base + (tid < extra ? 1 : 0);
  return {begin, begin + len};
}

InterpResult execute(const Compiled& program, const fp::InputSet& input,
                     const InterpOptions& options) {
  OMPFUZZ_CHECK(program.contract_fma == options.fp.contract_fma,
                "program lowered for a different contract_fma setting");
  if (options.trace != nullptr || options.values != nullptr) {
    return Engine<true>(program, input, options).run();
  }
  return Engine<false>(program, input, options).run();
}

InterpResult execute(const ast::Program& program, const fp::InputSet& input,
                     const InterpOptions& options) {
  return execute(compile(program, options.fp.contract_fma), input, options);
}

}  // namespace ompfuzz::interp
