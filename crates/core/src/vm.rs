//! Compiled expression programs: flat postfix instruction streams executed
//! by a small stack VM over column vectors.
//!
//! [`ExprProgram::compile`] lowers an [`Expr`] tree once, at plan time.
//! Kernels are selected from an op-dictionary keyed by operation × operand
//! types using the schema's *static* types (so execution never dispatches
//! on `DType` per batch, let alone per row), literal-only subtrees are
//! folded into constant instructions, `LIKE` patterns are pre-compiled,
//! and repeated subtrees are computed once (`tee` / `load_tmp`). Mixed
//! numeric operands get explicit `cast_f64` instructions; operands whose
//! type is only known at runtime (query parameters) compile to `*_dyn`
//! instructions that dispatch once per vector.
//!
//! Execution keeps scalars (constants, parameters) unmaterialized and
//! represents validity as a [`Bitmap`] alongside each value stack slot;
//! boolean results are always dense selection masks: NULL never passes a
//! predicate.
//!
//! This is the engine's only expression evaluator: every filter, map output
//! and aggregate input of a stage runs a program, and a site that does not
//! compile fails the query before it runs. What the programs compute is
//! checked against a row-at-a-time reference evaluator in the tests
//! (`tests/support/oracle.rs`), which shares no code with this module.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use hsqp_storage::{
    decimal_to_f64, year_of_date, Bitmap, Column, DataType, Field, Schema, StringColumn, Table,
    Value,
};
use hsqp_tpch::TpchTable;

use crate::expr::{cmp_keeps, fold_const, ArithOp, CmpOp, Expr, FoldVal, LikeMatcher};
use crate::plan::{AggFunc, AggPhase, JoinKind, Plan};

/// Static type of a compiled (sub)expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmType {
    /// Integers, dates, extracted years.
    I64,
    /// Floats (decimal columns promote on load).
    F64,
    /// Strings.
    Str,
    /// Boolean masks.
    Bool,
    /// Unknown until runtime (query parameters).
    Unknown,
}

/// Why an expression cannot be compiled (an unknown column, a type error)
/// or bound. A stage with such a site fails; nothing falls back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError(msg.into()))
}

/// The static type of `e` against `schema` — the single typing judgement
/// used for kernel selection, cast insertion, and schema inference.
pub(crate) fn static_type(e: &Expr, schema: &Schema) -> Result<VmType, CompileError> {
    use VmType::*;
    Ok(match e {
        Expr::Col(name) => {
            let f = schema
                .fields()
                .iter()
                .find(|f| f.name == *name)
                .ok_or_else(|| CompileError(format!("unknown column {name:?}")))?;
            match f.dtype {
                DataType::Int64 | DataType::Date => I64,
                DataType::Decimal | DataType::Float64 => F64,
                DataType::Utf8 => Str,
            }
        }
        Expr::LitI64(_) => I64,
        Expr::LitF64(_) => F64,
        Expr::LitStr(_) => Str,
        Expr::Param(_) => Unknown,
        Expr::Cmp(_, a, b) => {
            let (ta, tb) = (static_type(a, schema)?, static_type(b, schema)?);
            match (ta, tb) {
                (Bool, _) | (_, Bool) => {
                    return err(format!("comparison over boolean operand ({ta:?}, {tb:?})"))
                }
                (Str, I64 | F64) | (I64 | F64, Str) => {
                    return err("comparison between string and number")
                }
                _ => Bool,
            }
        }
        Expr::And(children) | Expr::Or(children) => {
            for c in children {
                if static_type(c, schema)? != Bool {
                    return err("AND/OR over a non-boolean child");
                }
            }
            Bool
        }
        Expr::Not(c) => {
            if static_type(c, schema)? != Bool {
                return err("NOT over a non-boolean child");
            }
            Bool
        }
        Expr::Arith(op, a, b) => {
            let (ta, tb) = (static_type(a, schema)?, static_type(b, schema)?);
            match (ta, tb) {
                (Str | Bool, _) | (_, Str | Bool) => {
                    return err(format!("arithmetic over ({ta:?}, {tb:?})"))
                }
                (Unknown, _) | (_, Unknown) => Unknown,
                (I64, I64) if *op != ArithOp::Div => I64,
                _ => F64,
            }
        }
        Expr::Like(c, _) | Expr::InStr(c, _) => match static_type(c, schema)? {
            Str | Unknown => Bool,
            other => return err(format!("string predicate over {other:?} input")),
        },
        Expr::InI64(c, _) => match static_type(c, schema)? {
            I64 | Unknown => Bool,
            other => return err(format!("integer IN over {other:?} input")),
        },
        Expr::Substr(c, start, _) => {
            if *start == 0 {
                return err("substring start must be 1-based");
            }
            match static_type(c, schema)? {
                Str | Unknown => Str,
                other => return err(format!("substring over {other:?} input")),
            }
        }
        Expr::ExtractYear(c) => match static_type(c, schema)? {
            I64 | Unknown => I64,
            other => return err(format!("extract(year) over {other:?} input")),
        },
        Expr::Case(cond, then, els) => {
            if static_type(cond, schema)? != Bool {
                return err("CASE condition is not boolean");
            }
            let (tt, te) = (static_type(then, schema)?, static_type(els, schema)?);
            match (tt, te) {
                (Str | Bool, _) | (_, Str | Bool) => {
                    return err(format!("CASE branches of types ({tt:?}, {te:?})"))
                }
                (Unknown, _) | (_, Unknown) => Unknown,
                (I64, I64) => I64,
                _ => F64,
            }
        }
        Expr::IsNull(c) => {
            static_type(c, schema)?;
            Bool
        }
    })
}

/// The storage type an [`EvalVec`] of this static type converts to
/// ([`EvalVec::into_column`]); `None` when unknown until runtime.
pub(crate) fn vm_to_dtype(t: VmType) -> Option<DataType> {
    match t {
        VmType::I64 | VmType::Bool => Some(DataType::Int64),
        VmType::F64 => Some(DataType::Float64),
        VmType::Str => Some(DataType::Utf8),
        VmType::Unknown => None,
    }
}

/// Physical payload of an evaluated expression.
#[derive(Debug, Clone, PartialEq)]
pub enum VecData {
    /// Integers / dates / years.
    I64(Vec<i64>),
    /// Floats (including promoted decimals).
    F64(Vec<f64>),
    /// Strings.
    Str(StringColumn),
    /// Booleans (filter masks).
    Bool(Vec<bool>),
}

/// An evaluated expression: data plus optional validity.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalVec {
    /// The values.
    pub data: VecData,
    /// Validity; `None` means all rows valid.
    pub validity: Option<Bitmap>,
}

impl EvalVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            VecData::I64(v) => v.len(),
            VecData::F64(v) => v.len(),
            VecData::Str(v) => v.len(),
            VecData::Bool(v) => v.len(),
        }
    }

    /// True when no rows are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether row `i` is valid.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|b| b.get(i))
    }

    /// Scalar at row `i`.
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            VecData::I64(v) => Value::I64(v[i]),
            VecData::F64(v) => Value::F64(v[i]),
            VecData::Str(v) => Value::Str(v.get(i).to_owned()),
            VecData::Bool(v) => Value::I64(i64::from(v[i])),
        }
    }

    /// Convert to a storage column with inferred type.
    pub fn into_column(self) -> (Column, DataType) {
        let v = self.validity;
        match self.data {
            VecData::I64(d) => (Column::I64(d, v), DataType::Int64),
            VecData::F64(d) => (Column::F64(d, v), DataType::Float64),
            VecData::Str(d) => (Column::Str(d, v), DataType::Utf8),
            VecData::Bool(d) => (
                Column::I64(d.into_iter().map(i64::from).collect(), v),
                DataType::Int64,
            ),
        }
    }
}

/// A column reference in a program's column table: resolved to a position
/// at bind time, with name / logical type / physical representation all
/// verified so a compiled kernel can never read the wrong data.
#[derive(Debug, Clone, PartialEq)]
struct ColRef {
    name: String,
    dtype: DataType,
}

/// One VM instruction. Postfix: operands are popped off the value stack,
/// one result is pushed (except `tee`, which peeks).
#[derive(Debug, Clone)]
enum Inst {
    /// Push an integer/date column slice.
    LoadI64(u16),
    /// Push a decimal column slice, promoted to `f64` (scale 100).
    LoadDec(u16),
    /// Push a float column slice.
    LoadF64(u16),
    /// Push a string column slice.
    LoadStr(u16),
    /// Push an integer constant (scalar; never materialized per row).
    ConstI64(i64),
    /// Push a float constant.
    ConstF64(f64),
    /// Push a string constant from the pool.
    ConstStr(u16),
    /// Push a boolean constant (a folded predicate subtree).
    ConstBool(bool),
    /// Push query parameter `i` (type resolved from its runtime [`Value`]).
    Param(u16),
    /// Convert the top of stack from `i64` to `f64`.
    CastF64,
    /// Typed comparisons → dense boolean mask.
    CmpI64(CmpOp),
    /// Float comparison (`NaN` compares false for every operator).
    CmpF64(CmpOp),
    /// Lexicographic string comparison.
    CmpStr(CmpOp),
    /// Comparison dispatching once per vector on runtime operand types.
    CmpDyn(CmpOp),
    /// Pop `n` masks, push their conjunction.
    AndN(u16),
    /// Pop `n` masks, push their disjunction.
    OrN(u16),
    /// Negate the top mask.
    Not,
    /// Integer arithmetic (never division).
    ArithI64(ArithOp),
    /// Float arithmetic.
    ArithF64(ArithOp),
    /// Arithmetic dispatching once per vector on runtime operand types.
    ArithDyn(ArithOp),
    /// Match against the pre-compiled pattern in the like pool.
    Like(u16),
    /// String membership against the list pool.
    InStr(u16),
    /// Integer membership against the list pool.
    InI64(u16),
    /// 1-based byte substring.
    Substr(u32, u32),
    /// `extract(year)` from a day number.
    Year,
    /// `CASE` over two integer branches (cond, then, else on the stack).
    CaseI64,
    /// `CASE` over two float branches.
    CaseF64,
    /// `CASE` dispatching once per vector on runtime branch types.
    CaseDyn,
    /// Push the NULL mask of the top value.
    IsNull,
    /// Copy the top of stack into temp slot `i` (shared subexpression).
    Tee(u16),
    /// Push a copy of temp slot `i`.
    LoadTmp(u16),
}

/// A compiled expression: a flat postfix program plus its constant pools.
#[derive(Debug, Clone)]
pub struct ExprProgram {
    insts: Vec<Inst>,
    cols: Vec<ColRef>,
    strs: Vec<Box<str>>,
    likes: Vec<(LikeMatcher, String)>,
    str_lists: Vec<Vec<String>>,
    i64_lists: Vec<Vec<i64>>,
    n_tmps: u16,
    out: VmType,
}

fn leaf(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Col(_) | Expr::LitI64(_) | Expr::LitF64(_) | Expr::LitStr(_) | Expr::Param(_)
    )
}

fn count_subtrees(e: &Expr, counts: &mut HashMap<String, u32>) {
    if leaf(e) {
        return;
    }
    *counts.entry(format!("{e:?}")).or_insert(0) += 1;
    match e {
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
            count_subtrees(a, counts);
            count_subtrees(b, counts);
        }
        Expr::And(cs) | Expr::Or(cs) => cs.iter().for_each(|c| count_subtrees(c, counts)),
        Expr::Not(c)
        | Expr::Like(c, _)
        | Expr::InStr(c, _)
        | Expr::InI64(c, _)
        | Expr::Substr(c, _, _)
        | Expr::ExtractYear(c)
        | Expr::IsNull(c) => count_subtrees(c, counts),
        Expr::Case(c, t, e2) => {
            count_subtrees(c, counts);
            count_subtrees(t, counts);
            count_subtrees(e2, counts);
        }
        _ => {}
    }
}

struct Compiler<'a> {
    schema: &'a Schema,
    prog: ExprProgram,
    counts: HashMap<String, u32>,
    done: HashMap<String, (u16, VmType)>,
}

impl Compiler<'_> {
    fn push(&mut self, i: Inst) {
        self.prog.insts.push(i);
    }

    fn intern_col(&mut self, name: &str, dtype: DataType) -> Result<u16, CompileError> {
        if let Some(i) = self.prog.cols.iter().position(|c| c.name == name) {
            return Ok(i as u16);
        }
        let i = self.prog.cols.len();
        if i > u16::MAX as usize {
            return err("too many columns");
        }
        self.prog.cols.push(ColRef {
            name: name.to_string(),
            dtype,
        });
        Ok(i as u16)
    }

    fn emit_const(&mut self, v: FoldVal) -> VmType {
        match v {
            FoldVal::I64(x) => {
                self.push(Inst::ConstI64(x));
                VmType::I64
            }
            FoldVal::F64(x) => {
                self.push(Inst::ConstF64(x));
                VmType::F64
            }
            FoldVal::Str(s) => {
                let i = self
                    .prog
                    .strs
                    .iter()
                    .position(|x| **x == *s)
                    .unwrap_or_else(|| {
                        self.prog.strs.push(s.clone().into_boxed_str());
                        self.prog.strs.len() - 1
                    });
                self.push(Inst::ConstStr(i as u16));
                VmType::Str
            }
            FoldVal::Bool(b) => {
                self.push(Inst::ConstBool(b));
                VmType::Bool
            }
        }
    }

    fn emit(&mut self, e: &Expr) -> Result<VmType, CompileError> {
        // The whole-expression type check ran up front, so `static_type`
        // cannot fail below; folding a literal-only subtree comes first.
        if let Some(v) = fold_const(e) {
            return Ok(self.emit_const(v));
        }
        let key = (!leaf(e)).then(|| format!("{e:?}"));
        if let Some(k) = &key {
            if let Some(&(tmp, ty)) = self.done.get(k) {
                self.push(Inst::LoadTmp(tmp));
                return Ok(ty);
            }
        }
        let ty = self.emit_node(e)?;
        if let Some(k) = key {
            if self.counts.get(&k).copied().unwrap_or(0) >= 2 && self.prog.n_tmps < u16::MAX {
                let tmp = self.prog.n_tmps;
                self.prog.n_tmps += 1;
                self.push(Inst::Tee(tmp));
                self.done.insert(k, (tmp, ty));
            }
        }
        Ok(ty)
    }

    /// Emit `e` and, when its static type is `I64` but `F64` is required,
    /// a cast instruction after it.
    fn emit_as_f64(&mut self, e: &Expr) -> Result<(), CompileError> {
        let t = self.emit(e)?;
        if t == VmType::I64 {
            self.push(Inst::CastF64);
        }
        Ok(())
    }

    fn emit_node(&mut self, e: &Expr) -> Result<VmType, CompileError> {
        use VmType::*;
        let s = self.schema;
        match e {
            Expr::Col(name) => {
                let f = s
                    .fields()
                    .iter()
                    .find(|f| f.name == *name)
                    .ok_or_else(|| CompileError(format!("unknown column {name:?}")))?
                    .clone();
                let c = self.intern_col(name, f.dtype)?;
                Ok(match f.dtype {
                    DataType::Int64 | DataType::Date => {
                        self.push(Inst::LoadI64(c));
                        I64
                    }
                    DataType::Decimal => {
                        self.push(Inst::LoadDec(c));
                        F64
                    }
                    DataType::Float64 => {
                        self.push(Inst::LoadF64(c));
                        F64
                    }
                    DataType::Utf8 => {
                        self.push(Inst::LoadStr(c));
                        Str
                    }
                })
            }
            // Literals fold before reaching here; keep them total anyway.
            Expr::LitI64(v) => Ok(self.emit_const(FoldVal::I64(*v))),
            Expr::LitF64(v) => Ok(self.emit_const(FoldVal::F64(*v))),
            Expr::LitStr(v) => Ok(self.emit_const(FoldVal::Str(v.clone()))),
            Expr::Param(i) => {
                let i = u16::try_from(*i).map_err(|_| CompileError("parameter index".into()))?;
                self.push(Inst::Param(i));
                Ok(Unknown)
            }
            Expr::Cmp(op, a, b) => {
                let (ta, tb) = (static_type(a, s)?, static_type(b, s)?);
                match (ta, tb) {
                    (I64, I64) => {
                        self.emit(a)?;
                        self.emit(b)?;
                        self.push(Inst::CmpI64(*op));
                    }
                    (Str, Str) => {
                        self.emit(a)?;
                        self.emit(b)?;
                        self.push(Inst::CmpStr(*op));
                    }
                    (Unknown, _) | (_, Unknown) => {
                        self.emit(a)?;
                        self.emit(b)?;
                        self.push(Inst::CmpDyn(*op));
                    }
                    _ => {
                        self.emit_as_f64(a)?;
                        self.emit_as_f64(b)?;
                        self.push(Inst::CmpF64(*op));
                    }
                }
                Ok(Bool)
            }
            Expr::And(children) | Expr::Or(children) => {
                let n = u16::try_from(children.len())
                    .map_err(|_| CompileError("conjunction width".into()))?;
                for c in children {
                    self.emit(c)?;
                }
                self.push(if matches!(e, Expr::And(_)) {
                    Inst::AndN(n)
                } else {
                    Inst::OrN(n)
                });
                Ok(Bool)
            }
            Expr::Not(c) => {
                self.emit(c)?;
                self.push(Inst::Not);
                Ok(Bool)
            }
            Expr::Arith(op, a, b) => {
                let (ta, tb) = (static_type(a, s)?, static_type(b, s)?);
                match (ta, tb) {
                    (Unknown, _) | (_, Unknown) => {
                        self.emit(a)?;
                        self.emit(b)?;
                        self.push(Inst::ArithDyn(*op));
                        Ok(Unknown)
                    }
                    (I64, I64) if *op != ArithOp::Div => {
                        self.emit(a)?;
                        self.emit(b)?;
                        self.push(Inst::ArithI64(*op));
                        Ok(I64)
                    }
                    _ => {
                        self.emit_as_f64(a)?;
                        self.emit_as_f64(b)?;
                        self.push(Inst::ArithF64(*op));
                        Ok(F64)
                    }
                }
            }
            Expr::Like(c, pattern) => {
                self.emit(c)?;
                let i = self.prog.likes.len();
                self.prog
                    .likes
                    .push((LikeMatcher::new(pattern), pattern.clone()));
                self.push(Inst::Like(i as u16));
                Ok(Bool)
            }
            Expr::InStr(c, options) => {
                self.emit(c)?;
                let i = self.prog.str_lists.len();
                self.prog.str_lists.push(options.clone());
                self.push(Inst::InStr(i as u16));
                Ok(Bool)
            }
            Expr::InI64(c, options) => {
                self.emit(c)?;
                let i = self.prog.i64_lists.len();
                self.prog.i64_lists.push(options.clone());
                self.push(Inst::InI64(i as u16));
                Ok(Bool)
            }
            Expr::Substr(c, start, len) => {
                self.emit(c)?;
                let (start, len) = (
                    u32::try_from(*start).map_err(|_| CompileError("substr start".into()))?,
                    u32::try_from(*len).map_err(|_| CompileError("substr length".into()))?,
                );
                self.push(Inst::Substr(start, len));
                Ok(Str)
            }
            Expr::ExtractYear(c) => {
                self.emit(c)?;
                self.push(Inst::Year);
                Ok(I64)
            }
            Expr::Case(cond, then, els) => {
                let (tt, te) = (static_type(then, s)?, static_type(els, s)?);
                self.emit(cond)?;
                match (tt, te) {
                    (Unknown, _) | (_, Unknown) => {
                        self.emit(then)?;
                        self.emit(els)?;
                        self.push(Inst::CaseDyn);
                        Ok(Unknown)
                    }
                    (I64, I64) => {
                        self.emit(then)?;
                        self.emit(els)?;
                        self.push(Inst::CaseI64);
                        Ok(I64)
                    }
                    _ => {
                        self.emit_as_f64(then)?;
                        self.emit_as_f64(els)?;
                        self.push(Inst::CaseF64);
                        Ok(F64)
                    }
                }
            }
            Expr::IsNull(c) => {
                self.emit(c)?;
                self.push(Inst::IsNull);
                Ok(Bool)
            }
        }
    }
}

impl ExprProgram {
    /// Compile `expr` against `schema`. Fails (rather than panicking) on
    /// unknown columns and on statically ill-typed expressions.
    pub fn compile(expr: &Expr, schema: &Schema) -> Result<ExprProgram, CompileError> {
        let out = static_type(expr, schema)?;
        let mut counts = HashMap::new();
        count_subtrees(expr, &mut counts);
        let mut c = Compiler {
            schema,
            prog: ExprProgram {
                insts: Vec::new(),
                cols: Vec::new(),
                strs: Vec::new(),
                likes: Vec::new(),
                str_lists: Vec::new(),
                i64_lists: Vec::new(),
                n_tmps: 0,
                out,
            },
            counts,
            done: HashMap::new(),
        };
        let emitted = c.emit(expr)?;
        debug_assert_eq!(emitted, out, "typing and emission disagree");
        Ok(c.prog)
    }

    /// The program's static result type.
    pub fn out_type(&self) -> VmType {
        self.out
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True for an empty program (never produced by [`Self::compile`]).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// One-line shape summary, e.g. `7 insts, 2 cols, 1 tmp`.
    pub fn summary(&self) -> String {
        let mut s = format!("{} insts, {} cols", self.insts.len(), self.cols.len());
        if self.n_tmps > 0 {
            s.push_str(&format!(", {} tmp", self.n_tmps));
        }
        s
    }

    /// Human-readable disassembly, one instruction per line.
    pub fn listing(&self) -> Vec<String> {
        self.insts
            .iter()
            .enumerate()
            .map(|(pc, i)| format!("{pc:>3}  {}", self.fmt_inst(i)))
            .collect()
    }

    fn fmt_inst(&self, i: &Inst) -> String {
        let col = |c: &u16| self.cols[*c as usize].name.clone();
        match i {
            Inst::LoadI64(c) => format!("load_i64   {}", col(c)),
            Inst::LoadDec(c) => format!("load_dec   {} (as f64)", col(c)),
            Inst::LoadF64(c) => format!("load_f64   {}", col(c)),
            Inst::LoadStr(c) => format!("load_str   {}", col(c)),
            Inst::ConstI64(v) => format!("const_i64  {v}"),
            Inst::ConstF64(v) => format!("const_f64  {v}"),
            Inst::ConstStr(s) => format!("const_str  {:?}", &*self.strs[*s as usize]),
            Inst::ConstBool(b) => format!("const_bool {b}"),
            Inst::Param(p) => format!("param      ${p}"),
            Inst::CastF64 => "cast_f64".to_string(),
            Inst::CmpI64(op) => format!("cmp_i64    {op:?}"),
            Inst::CmpF64(op) => format!("cmp_f64    {op:?}"),
            Inst::CmpStr(op) => format!("cmp_str    {op:?}"),
            Inst::CmpDyn(op) => format!("cmp_dyn    {op:?}"),
            Inst::AndN(n) => format!("and        {n}"),
            Inst::OrN(n) => format!("or         {n}"),
            Inst::Not => "not".to_string(),
            Inst::ArithI64(op) => format!("arith_i64  {op:?}"),
            Inst::ArithF64(op) => format!("arith_f64  {op:?}"),
            Inst::ArithDyn(op) => format!("arith_dyn  {op:?}"),
            Inst::Like(l) => format!("like       {:?}", self.likes[*l as usize].1),
            Inst::InStr(l) => format!("in_str     {:?}", self.str_lists[*l as usize]),
            Inst::InI64(l) => format!("in_i64     {:?}", self.i64_lists[*l as usize]),
            Inst::Substr(s, l) => format!("substr     start={s} len={l}"),
            Inst::Year => "year".to_string(),
            Inst::CaseI64 => "case_i64".to_string(),
            Inst::CaseF64 => "case_f64".to_string(),
            Inst::CaseDyn => "case_dyn".to_string(),
            Inst::IsNull => "is_null".to_string(),
            Inst::Tee(t) => format!("tee        t{t}"),
            Inst::LoadTmp(t) => format!("load_tmp   t{t}"),
        }
    }

    /// Resolve the program's column references against a concrete table.
    /// Every referenced column must exist with the compiled logical type
    /// and the matching physical representation; any mismatch (static
    /// schema inference drifted from runtime truth) fails the bind, and
    /// with it the stage.
    pub fn bind<'p>(&'p self, table: &Table) -> Result<BoundProgram<'p>, CompileError> {
        let mut col_idx = Vec::with_capacity(self.cols.len());
        for c in &self.cols {
            let idx = table
                .schema()
                .fields()
                .iter()
                .position(|f| f.name == c.name)
                .ok_or_else(|| CompileError(format!("bind: no column {:?}", c.name)))?;
            let f = &table.schema().fields()[idx];
            if f.dtype != c.dtype {
                return err(format!(
                    "bind: column {:?} is {:?}, compiled for {:?}",
                    c.name, f.dtype, c.dtype
                ));
            }
            let physical_ok = matches!(
                (table.column(idx), f.dtype),
                (
                    Column::I64(..),
                    DataType::Int64 | DataType::Date | DataType::Decimal
                ) | (Column::F64(..), DataType::Float64)
                    | (Column::Str(..), DataType::Utf8)
            );
            if !physical_ok {
                return err(format!(
                    "bind: column {:?} has an unexpected physical representation",
                    c.name
                ));
            }
            col_idx.push(idx);
        }
        Ok(BoundProgram {
            prog: self,
            col_idx,
        })
    }
}

/// A program bound to a concrete table, ready to run over morsels.
#[derive(Debug, Clone)]
pub struct BoundProgram<'p> {
    prog: &'p ExprProgram,
    col_idx: Vec<usize>,
}

/// Values in a stack slot: column vectors or unmaterialized scalars.
#[derive(Debug, Clone)]
enum Vals {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(StringColumn),
    Bool(Vec<bool>),
    ScalI64(i64),
    ScalF64(f64),
    ScalStr(Box<str>),
    ScalBool(bool),
}

/// Validity of a stack slot.
#[derive(Debug, Clone)]
enum Valid {
    /// Every row valid.
    All,
    /// Every row NULL (an unbound-to-a-row NULL parameter).
    Never,
    /// Per-row selection bitmap.
    Mask(Bitmap),
}

#[derive(Debug, Clone)]
struct Slot {
    vals: Vals,
    valid: Valid,
}

/// Typed per-row accessors: the dispatch happens once per vector when the
/// accessor is built, after which `get` is a branch the CPU predicts
/// perfectly (always the same arm).
enum I64s<'a> {
    V(&'a [i64]),
    S(i64),
}

impl I64s<'_> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            I64s::V(v) => v[i],
            I64s::S(x) => *x,
        }
    }
}

enum F64s<'a> {
    V(&'a [f64]),
    Owned(Vec<f64>),
    S(f64),
}

impl F64s<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            F64s::V(v) => v[i],
            F64s::Owned(v) => v[i],
            F64s::S(x) => *x,
        }
    }
}

enum Strs<'a> {
    V(&'a StringColumn),
    S(&'a str),
}

impl Strs<'_> {
    #[inline]
    fn get(&self, i: usize) -> &str {
        match self {
            Strs::V(v) => v.get(i),
            Strs::S(s) => s,
        }
    }
}

enum Bools<'a> {
    V(&'a [bool]),
    S(bool),
}

impl Bools<'_> {
    #[inline]
    fn get(&self, i: usize) -> bool {
        match self {
            Bools::V(v) => v[i],
            Bools::S(b) => *b,
        }
    }
}

impl Slot {
    fn scal_bool(b: bool) -> Slot {
        Slot {
            vals: Vals::ScalBool(b),
            valid: Valid::All,
        }
    }

    fn dense_bool(mask: Vec<bool>) -> Slot {
        Slot {
            vals: Vals::Bool(mask),
            valid: Valid::All,
        }
    }

    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        match &self.valid {
            Valid::All => true,
            Valid::Never => false,
            Valid::Mask(bm) => bm.get(i),
        }
    }

    fn all_valid(&self) -> bool {
        matches!(self.valid, Valid::All)
    }

    fn is_scalar(&self) -> bool {
        matches!(
            self.vals,
            Vals::ScalI64(_) | Vals::ScalF64(_) | Vals::ScalStr(_) | Vals::ScalBool(_)
        )
    }

    fn is_i64_kind(&self) -> bool {
        matches!(self.vals, Vals::I64(_) | Vals::ScalI64(_))
    }

    fn is_str_kind(&self) -> bool {
        matches!(self.vals, Vals::Str(_) | Vals::ScalStr(_))
    }

    fn kind_name(&self) -> &'static str {
        match self.vals {
            Vals::I64(_) | Vals::ScalI64(_) => "integer",
            Vals::F64(_) | Vals::ScalF64(_) => "float",
            Vals::Str(_) | Vals::ScalStr(_) => "string",
            Vals::Bool(_) | Vals::ScalBool(_) => "boolean",
        }
    }

    fn i64s(&self) -> Option<I64s<'_>> {
        match &self.vals {
            Vals::I64(v) => Some(I64s::V(v)),
            Vals::ScalI64(x) => Some(I64s::S(*x)),
            _ => None,
        }
    }

    fn f64s(&self) -> F64s<'_> {
        match &self.vals {
            Vals::F64(v) => F64s::V(v),
            Vals::ScalF64(x) => F64s::S(*x),
            Vals::I64(v) => F64s::Owned(v.iter().map(|&x| x as f64).collect()),
            Vals::ScalI64(x) => F64s::S(*x as f64),
            _ => panic!(
                "expected numeric expression, got {} values",
                self.kind_name()
            ),
        }
    }

    fn strs(&self) -> Strs<'_> {
        match &self.vals {
            Vals::Str(v) => Strs::V(v),
            Vals::ScalStr(s) => Strs::S(s),
            _ => panic!(
                "expected string expression, got {} values",
                self.kind_name()
            ),
        }
    }

    fn bools(&self) -> Bools<'_> {
        match &self.vals {
            Vals::Bool(v) => Bools::V(v),
            Vals::ScalBool(b) => Bools::S(*b),
            _ => panic!(
                "expected boolean expression, got {} values",
                self.kind_name()
            ),
        }
    }

    /// Materialize into an [`EvalVec`].
    fn finish(self, n: usize) -> EvalVec {
        let validity = match self.valid {
            Valid::All => None,
            Valid::Never => Some(Bitmap::filled(n, false)),
            Valid::Mask(bm) => Some(bm),
        };
        let data = match self.vals {
            Vals::I64(v) => VecData::I64(v),
            Vals::F64(v) => VecData::F64(v),
            Vals::Str(v) => VecData::Str(v),
            Vals::Bool(v) => VecData::Bool(v),
            Vals::ScalI64(x) => VecData::I64(vec![x; n]),
            Vals::ScalF64(x) => VecData::F64(vec![x; n]),
            Vals::ScalStr(s) => {
                let mut c = StringColumn::with_capacity(n, s.len());
                for _ in 0..n {
                    c.push(&s);
                }
                VecData::Str(c)
            }
            Vals::ScalBool(b) => VecData::Bool(vec![b; n]),
        };
        EvalVec { data, validity }
    }
}

fn load_valid(col: &Column, range: &Range<usize>) -> Valid {
    match col.validity() {
        None => Valid::All,
        Some(bm) => Valid::Mask(range.clone().map(|i| bm.get(i)).collect()),
    }
}

/// Fold both operands' validity into a freshly computed comparison mask
/// (NULL comparisons are never true).
fn mask_valid(mask: &mut [bool], a: &Slot, b: &Slot) {
    if a.all_valid() && b.all_valid() {
        return;
    }
    for (i, m) in mask.iter_mut().enumerate() {
        *m = *m && a.is_valid(i) && b.is_valid(i);
    }
}

fn cmp_i64(op: CmpOp, a: &Slot, b: &Slot, n: usize) -> Slot {
    let msg = || panic!("integer comparison over non-integer values");
    let (x, y) = (a.i64s().unwrap_or_else(msg), b.i64s().unwrap_or_else(msg));
    if a.is_scalar() && b.is_scalar() {
        let ok = cmp_keeps(op, x.get(0).cmp(&y.get(0))) && a.all_valid() && b.all_valid();
        return Slot::scal_bool(ok);
    }
    let mut mask: Vec<bool> = (0..n)
        .map(|i| cmp_keeps(op, x.get(i).cmp(&y.get(i))))
        .collect();
    mask_valid(&mut mask, a, b);
    Slot::dense_bool(mask)
}

fn cmp_f64(op: CmpOp, a: &Slot, b: &Slot, n: usize) -> Slot {
    let (x, y) = (a.f64s(), b.f64s());
    if a.is_scalar() && b.is_scalar() {
        let ok = x
            .get(0)
            .partial_cmp(&y.get(0))
            .is_some_and(|o| cmp_keeps(op, o))
            && a.all_valid()
            && b.all_valid();
        return Slot::scal_bool(ok);
    }
    let mut mask: Vec<bool> = (0..n)
        .map(|i| {
            x.get(i)
                .partial_cmp(&y.get(i))
                .is_some_and(|o| cmp_keeps(op, o))
        })
        .collect();
    mask_valid(&mut mask, a, b);
    Slot::dense_bool(mask)
}

fn cmp_str(op: CmpOp, a: &Slot, b: &Slot, n: usize) -> Slot {
    let (x, y) = (a.strs(), b.strs());
    if a.is_scalar() && b.is_scalar() {
        let ok = cmp_keeps(op, x.get(0).cmp(y.get(0))) && a.all_valid() && b.all_valid();
        return Slot::scal_bool(ok);
    }
    let mut mask: Vec<bool> = (0..n)
        .map(|i| cmp_keeps(op, x.get(i).cmp(y.get(i))))
        .collect();
    mask_valid(&mut mask, a, b);
    Slot::dense_bool(mask)
}

/// Runtime type dispatch for parameter-typed operands — once per vector, by
/// the rule static typing applies: integers, strings, else floats.
fn cmp_dyn(op: CmpOp, a: &Slot, b: &Slot, n: usize) -> Slot {
    if a.is_i64_kind() && b.is_i64_kind() {
        cmp_i64(op, a, b, n)
    } else if a.is_str_kind() && b.is_str_kind() {
        cmp_str(op, a, b, n)
    } else {
        cmp_f64(op, a, b, n)
    }
}

fn merge_valid(a: &Slot, b: &Slot, n: usize) -> Valid {
    match (&a.valid, &b.valid) {
        (Valid::All, Valid::All) => Valid::All,
        (Valid::Never, _) | (_, Valid::Never) => Valid::Never,
        _ => Valid::Mask((0..n).map(|i| a.is_valid(i) && b.is_valid(i)).collect()),
    }
}

fn arith_i64(op: ArithOp, a: &Slot, b: &Slot, n: usize) -> Slot {
    let msg = || panic!("integer arithmetic over non-integer values");
    let (x, y) = (a.i64s().unwrap_or_else(msg), b.i64s().unwrap_or_else(msg));
    // Plain operators on purpose: overflow panics in debug builds and
    // wraps in release, which is why constant folding leaves it alone.
    let f = |x: i64, y: i64| match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => unreachable!("integer division compiles to float"),
    };
    if a.is_scalar() && b.is_scalar() {
        return Slot {
            vals: Vals::ScalI64(f(x.get(0), y.get(0))),
            valid: merge_valid(a, b, n),
        };
    }
    Slot {
        vals: Vals::I64((0..n).map(|i| f(x.get(i), y.get(i))).collect()),
        valid: merge_valid(a, b, n),
    }
}

fn arith_f64(op: ArithOp, a: &Slot, b: &Slot, n: usize) -> Slot {
    let (x, y) = (a.f64s(), b.f64s());
    let f = |x: f64, y: f64| match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
    };
    if a.is_scalar() && b.is_scalar() {
        return Slot {
            vals: Vals::ScalF64(f(x.get(0), y.get(0))),
            valid: merge_valid(a, b, n),
        };
    }
    Slot {
        vals: Vals::F64((0..n).map(|i| f(x.get(i), y.get(i))).collect()),
        valid: merge_valid(a, b, n),
    }
}

fn arith_dyn(op: ArithOp, a: &Slot, b: &Slot, n: usize) -> Slot {
    if a.is_i64_kind() && b.is_i64_kind() && op != ArithOp::Div {
        arith_i64(op, a, b, n)
    } else {
        arith_f64(op, a, b, n)
    }
}

fn and_or(children: &[Slot], n: usize, is_and: bool) -> Slot {
    let masks: Vec<Bools<'_>> = children.iter().map(Slot::bools).collect();
    if children.iter().all(Slot::is_scalar) {
        let v = if is_and {
            masks.iter().all(|m| m.get(0))
        } else {
            masks.iter().any(|m| m.get(0))
        };
        return Slot::scal_bool(v);
    }
    let mut acc = vec![is_and; n];
    for m in &masks {
        if is_and {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = *a && m.get(i);
            }
        } else {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = *a || m.get(i);
            }
        }
    }
    Slot::dense_bool(acc)
}

fn substr_of(s: &str, start: u32, len: u32) -> &str {
    let from = (start as usize - 1).min(s.len());
    let to = (from + len as usize).min(s.len());
    s.get(from..to).unwrap_or("")
}

fn case_i64(cond: &Slot, t: Slot, e: Slot, n: usize) -> Slot {
    match &cond.vals {
        Vals::ScalBool(b) => {
            if *b {
                t
            } else {
                e
            }
        }
        Vals::Bool(mask) => {
            let msg = || panic!("integer CASE over non-integer branches");
            let (tx, ex) = (t.i64s().unwrap_or_else(msg), e.i64s().unwrap_or_else(msg));
            let vals = Vals::I64(
                (0..n)
                    .map(|i| if mask[i] { tx.get(i) } else { ex.get(i) })
                    .collect(),
            );
            let valid = if t.all_valid() && e.all_valid() {
                Valid::All
            } else {
                Valid::Mask(
                    (0..n)
                        .map(|i| {
                            if mask[i] {
                                t.is_valid(i)
                            } else {
                                e.is_valid(i)
                            }
                        })
                        .collect(),
                )
            };
            Slot { vals, valid }
        }
        _ => panic!(
            "expected boolean expression, got {} values",
            cond.kind_name()
        ),
    }
}

fn case_f64(cond: &Slot, t: Slot, e: Slot, n: usize) -> Slot {
    match &cond.vals {
        Vals::ScalBool(b) => {
            if *b {
                t
            } else {
                e
            }
        }
        Vals::Bool(mask) => {
            let (tx, ex) = (t.f64s(), e.f64s());
            let vals = Vals::F64(
                (0..n)
                    .map(|i| if mask[i] { tx.get(i) } else { ex.get(i) })
                    .collect(),
            );
            let valid = if t.all_valid() && e.all_valid() {
                Valid::All
            } else {
                Valid::Mask(
                    (0..n)
                        .map(|i| {
                            if mask[i] {
                                t.is_valid(i)
                            } else {
                                e.is_valid(i)
                            }
                        })
                        .collect(),
                )
            };
            Slot { vals, valid }
        }
        _ => panic!(
            "expected boolean expression, got {} values",
            cond.kind_name()
        ),
    }
}

fn case_dyn(cond: &Slot, t: Slot, e: Slot, n: usize) -> Slot {
    if t.is_i64_kind() && e.is_i64_kind() {
        case_i64(cond, t, e, n)
    } else {
        case_f64(cond, t, e, n)
    }
}

impl BoundProgram<'_> {
    /// The program's static result type.
    pub fn out_type(&self) -> VmType {
        self.prog.out
    }

    /// Evaluate over rows `range` of the bound table's shape.
    pub fn eval(&self, table: &Table, range: Range<usize>, params: &[Value]) -> EvalVec {
        let n = range.len();
        self.run(table, range, params).finish(n)
    }

    /// Evaluate a predicate program to a selection mask: NULL never
    /// passes.
    ///
    /// # Panics
    /// Panics if the program does not produce booleans.
    pub fn eval_mask(&self, table: &Table, range: Range<usize>, params: &[Value]) -> Vec<bool> {
        let n = range.len();
        let slot = self.run(table, range, params);
        match slot.vals {
            // Boolean slots are dense by construction; fold defensively.
            Vals::Bool(mut v) => {
                if !matches!(slot.valid, Valid::All) {
                    for (i, x) in v.iter_mut().enumerate() {
                        let ok = match &slot.valid {
                            Valid::All => true,
                            Valid::Never => false,
                            Valid::Mask(bm) => bm.get(i),
                        };
                        *x = *x && ok;
                    }
                }
                v
            }
            Vals::ScalBool(b) => vec![b && matches!(slot.valid, Valid::All); n],
            _ => panic!(
                "expected boolean expression, got {} values",
                Slot {
                    vals: slot.vals,
                    valid: Valid::All
                }
                .kind_name()
            ),
        }
    }

    fn run(&self, table: &Table, range: Range<usize>, params: &[Value]) -> Slot {
        let n = range.len();
        let p = self.prog;
        let mut stack: Vec<Slot> = Vec::with_capacity(8);
        let mut tmps: Vec<Option<Slot>> = vec![None; p.n_tmps as usize];
        let pop2 = |stack: &mut Vec<Slot>| {
            let b = stack.pop().expect("program stack underflow");
            let a = stack.pop().expect("program stack underflow");
            (a, b)
        };
        for inst in &p.insts {
            match inst {
                Inst::LoadI64(c) => {
                    let col = table.column(self.col_idx[*c as usize]);
                    let Column::I64(v, _) = col else {
                        panic!("load_i64 on a non-integer column")
                    };
                    stack.push(Slot {
                        vals: Vals::I64(v[range.clone()].to_vec()),
                        valid: load_valid(col, &range),
                    });
                }
                Inst::LoadDec(c) => {
                    let col = table.column(self.col_idx[*c as usize]);
                    let Column::I64(v, _) = col else {
                        panic!("load_dec on a non-decimal column")
                    };
                    stack.push(Slot {
                        vals: Vals::F64(
                            v[range.clone()]
                                .iter()
                                .map(|&x| decimal_to_f64(x))
                                .collect(),
                        ),
                        valid: load_valid(col, &range),
                    });
                }
                Inst::LoadF64(c) => {
                    let col = table.column(self.col_idx[*c as usize]);
                    let Column::F64(v, _) = col else {
                        panic!("load_f64 on a non-float column")
                    };
                    stack.push(Slot {
                        vals: Vals::F64(v[range.clone()].to_vec()),
                        valid: load_valid(col, &range),
                    });
                }
                Inst::LoadStr(c) => {
                    let col = table.column(self.col_idx[*c as usize]);
                    let Column::Str(v, _) = col else {
                        panic!("load_str on a non-string column")
                    };
                    let mut out = StringColumn::with_capacity(n, 16);
                    for i in range.clone() {
                        out.push(v.get(i));
                    }
                    stack.push(Slot {
                        vals: Vals::Str(out),
                        valid: load_valid(col, &range),
                    });
                }
                Inst::ConstI64(v) => stack.push(Slot {
                    vals: Vals::ScalI64(*v),
                    valid: Valid::All,
                }),
                Inst::ConstF64(v) => stack.push(Slot {
                    vals: Vals::ScalF64(*v),
                    valid: Valid::All,
                }),
                Inst::ConstStr(s) => stack.push(Slot {
                    vals: Vals::ScalStr(p.strs[*s as usize].clone()),
                    valid: Valid::All,
                }),
                Inst::ConstBool(b) => stack.push(Slot::scal_bool(*b)),
                Inst::Param(i) => {
                    let i = *i as usize;
                    let v = params
                        .get(i)
                        .unwrap_or_else(|| panic!("parameter {i} not bound"));
                    stack.push(match v {
                        Value::I64(x) => Slot {
                            vals: Vals::ScalI64(*x),
                            valid: Valid::All,
                        },
                        Value::F64(x) => Slot {
                            vals: Vals::ScalF64(*x),
                            valid: Valid::All,
                        },
                        Value::Str(s) => Slot {
                            vals: Vals::ScalStr(s.as_str().into()),
                            valid: Valid::All,
                        },
                        // A NULL parameter is integer zeros with an
                        // all-false validity: it takes the integer kernels.
                        Value::Null => Slot {
                            vals: Vals::ScalI64(0),
                            valid: Valid::Never,
                        },
                    });
                }
                Inst::CastF64 => {
                    let s = stack.pop().expect("program stack underflow");
                    let vals = match s.vals {
                        Vals::I64(v) => Vals::F64(v.into_iter().map(|x| x as f64).collect()),
                        Vals::ScalI64(x) => Vals::ScalF64(x as f64),
                        other => other,
                    };
                    stack.push(Slot {
                        vals,
                        valid: s.valid,
                    });
                }
                Inst::CmpI64(op) => {
                    let (a, b) = pop2(&mut stack);
                    stack.push(cmp_i64(*op, &a, &b, n));
                }
                Inst::CmpF64(op) => {
                    let (a, b) = pop2(&mut stack);
                    stack.push(cmp_f64(*op, &a, &b, n));
                }
                Inst::CmpStr(op) => {
                    let (a, b) = pop2(&mut stack);
                    stack.push(cmp_str(*op, &a, &b, n));
                }
                Inst::CmpDyn(op) => {
                    let (a, b) = pop2(&mut stack);
                    stack.push(cmp_dyn(*op, &a, &b, n));
                }
                Inst::AndN(k) | Inst::OrN(k) => {
                    let k = *k as usize;
                    assert!(stack.len() >= k, "program stack underflow");
                    let children = stack.split_off(stack.len() - k);
                    stack.push(and_or(&children, n, matches!(inst, Inst::AndN(_))));
                }
                Inst::Not => {
                    let s = stack.pop().expect("program stack underflow");
                    stack.push(match s.bools() {
                        Bools::S(b) => Slot::scal_bool(!b),
                        Bools::V(v) => Slot::dense_bool(v.iter().map(|b| !b).collect()),
                    });
                }
                Inst::ArithI64(op) => {
                    let (a, b) = pop2(&mut stack);
                    stack.push(arith_i64(*op, &a, &b, n));
                }
                Inst::ArithF64(op) => {
                    let (a, b) = pop2(&mut stack);
                    stack.push(arith_f64(*op, &a, &b, n));
                }
                Inst::ArithDyn(op) => {
                    let (a, b) = pop2(&mut stack);
                    stack.push(arith_dyn(*op, &a, &b, n));
                }
                Inst::Like(l) => {
                    let s = stack.pop().expect("program stack underflow");
                    let matcher = &p.likes[*l as usize].0;
                    stack.push(match s.strs() {
                        Strs::S(txt) => Slot::scal_bool(s.all_valid() && matcher.matches(txt)),
                        Strs::V(sc) => Slot::dense_bool(
                            (0..n)
                                .map(|i| s.is_valid(i) && matcher.matches(sc.get(i)))
                                .collect(),
                        ),
                    });
                }
                Inst::InStr(l) => {
                    let s = stack.pop().expect("program stack underflow");
                    let options = &p.str_lists[*l as usize];
                    stack.push(match s.strs() {
                        Strs::S(txt) => {
                            Slot::scal_bool(s.all_valid() && options.iter().any(|o| o == txt))
                        }
                        Strs::V(sc) => Slot::dense_bool(
                            (0..n)
                                .map(|i| s.is_valid(i) && options.iter().any(|o| o == sc.get(i)))
                                .collect(),
                        ),
                    });
                }
                Inst::InI64(l) => {
                    let s = stack.pop().expect("program stack underflow");
                    let options = &p.i64_lists[*l as usize];
                    let x = s.i64s().unwrap_or_else(|| {
                        panic!(
                            "IN over integers needs integer input, got {} values",
                            s.kind_name()
                        )
                    });
                    stack.push(match x {
                        I64s::S(v) => Slot::scal_bool(s.all_valid() && options.contains(&v)),
                        I64s::V(_) => Slot::dense_bool(
                            (0..n)
                                .map(|i| s.is_valid(i) && options.contains(&x.get(i)))
                                .collect(),
                        ),
                    });
                }
                Inst::Substr(start, len) => {
                    let s = stack.pop().expect("program stack underflow");
                    let vals = match &s.vals {
                        Vals::Str(sc) => {
                            let mut out = StringColumn::with_capacity(n, *len as usize);
                            for i in 0..n {
                                out.push(substr_of(sc.get(i), *start, *len));
                            }
                            Vals::Str(out)
                        }
                        Vals::ScalStr(x) => Vals::ScalStr(substr_of(x, *start, *len).into()),
                        _ => panic!("expected string expression, got {} values", s.kind_name()),
                    };
                    stack.push(Slot {
                        vals,
                        valid: s.valid,
                    });
                }
                Inst::Year => {
                    let s = stack.pop().expect("program stack underflow");
                    let vals = match &s.vals {
                        Vals::I64(v) => Vals::I64(v.iter().map(|&d| year_of_date(d)).collect()),
                        Vals::ScalI64(x) => Vals::ScalI64(year_of_date(*x)),
                        _ => panic!(
                            "extract(year) needs a date column, got {} values",
                            s.kind_name()
                        ),
                    };
                    stack.push(Slot {
                        vals,
                        valid: s.valid,
                    });
                }
                Inst::CaseI64 | Inst::CaseF64 | Inst::CaseDyn => {
                    let e = stack.pop().expect("program stack underflow");
                    let t = stack.pop().expect("program stack underflow");
                    let cond = stack.pop().expect("program stack underflow");
                    stack.push(match inst {
                        Inst::CaseI64 => case_i64(&cond, t, e, n),
                        Inst::CaseF64 => case_f64(&cond, t, e, n),
                        _ => case_dyn(&cond, t, e, n),
                    });
                }
                Inst::IsNull => {
                    let s = stack.pop().expect("program stack underflow");
                    stack.push(match &s.valid {
                        Valid::All => Slot::scal_bool(false),
                        Valid::Never => Slot::scal_bool(true),
                        Valid::Mask(bm) => Slot::dense_bool((0..n).map(|i| !bm.get(i)).collect()),
                    });
                }
                Inst::Tee(t) => {
                    let top = stack.last().expect("program stack underflow").clone();
                    tmps[*t as usize] = Some(top);
                }
                Inst::LoadTmp(t) => {
                    stack.push(
                        tmps[*t as usize]
                            .clone()
                            .expect("temp read before it was computed"),
                    );
                }
            }
        }
        debug_assert_eq!(stack.len(), 1, "program left a dirty stack");
        stack.pop().expect("program produced no value")
    }
}

// ---------------------------------------------------------------------------
// Stage compilation: walk a physical plan once per stage, inferring static
// schemas bottom-up and compiling every expression site into an
// `ExprProgram`. A site that does not compile, or whose input schema cannot
// be inferred, is the stage's failure: recorded here, and reported before any
// operator of the stage runs.
// ---------------------------------------------------------------------------

/// Compiled programs for one operator, keyed by expression site.
#[derive(Debug, Clone, Default)]
pub struct OpPrograms {
    /// Scan pushed-down filter or `Filter` predicate.
    pub filter: Option<ExprProgram>,
    /// One slot per `Map` output, by position. `None` marks the bare
    /// column-copy fast path, which must not be compiled: it preserves
    /// `Decimal`/`Date` types that evaluation would widen.
    pub outputs: Vec<(String, Option<ExprProgram>)>,
    /// One program per aggregate input, by position (non-`Final` phases;
    /// the `Final` merge reads partial-state columns directly).
    pub aggs: Vec<(String, ExprProgram)>,
}

/// All compiled programs of one distributed stage, keyed by the operator's
/// pre-order index — the same numbering [`crate::profile::plan_labels`]
/// and the executor's span cells use (first child = `idx + 1`, a join's
/// build subtree starts after the whole probe subtree).
#[derive(Debug, Clone, Default)]
pub struct CompiledStage {
    ops: HashMap<usize, OpPrograms>,
    /// The first expression site that did not compile.
    failure: Option<String>,
}

/// Schema lookup for base relations on this cluster (`None` while a table
/// is not loaded).
pub type BaseSchemas<'a> = &'a dyn Fn(TpchTable) -> Option<Schema>;

impl CompiledStage {
    /// Programs for operator `idx`; `None` when it has no expression site.
    pub fn get(&self, idx: usize) -> Option<&OpPrograms> {
        self.ops.get(&idx)
    }

    /// Why the stage cannot run: its first expression site that did not
    /// compile, if there is one.
    pub fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    /// Total number of compiled programs in the stage.
    pub fn program_count(&self) -> usize {
        self.programs_in_order().len()
    }

    /// `(operator index, site label, program)` triples in pre-order; the
    /// position in this list is the program's display id (`p0`, `p1`, …).
    fn programs_in_order(&self) -> Vec<(usize, String, &ExprProgram)> {
        let mut idxs: Vec<usize> = self.ops.keys().copied().collect();
        idxs.sort_unstable();
        let mut out = Vec::new();
        for i in idxs {
            let op = &self.ops[&i];
            if let Some(p) = &op.filter {
                out.push((i, "filter".to_string(), p));
            }
            for (name, p) in &op.outputs {
                if let Some(p) = p {
                    out.push((i, format!("map {name}"), p));
                }
            }
            for (name, p) in &op.aggs {
                out.push((i, format!("agg {name}"), p));
            }
        }
        out
    }

    /// The plan's `explain` rendering with compiled-program ids appended to
    /// each operator line (` (p0, p1)`), so profile rows, explain rows, and
    /// program listings all speak the same names.
    pub fn annotate(&self, plan: &Plan) -> String {
        let programs = self.programs_in_order();
        let mut out = String::new();
        for (idx, line) in plan.explain().lines().enumerate() {
            out.push_str(line);
            let ids: Vec<String> = programs
                .iter()
                .enumerate()
                .filter(|(_, (op, _, _))| *op == idx)
                .map(|(pid, _)| format!("p{pid}"))
                .collect();
            if !ids.is_empty() {
                out.push_str(&format!(" ({})", ids.join(", ")));
            }
            out.push('\n');
        }
        out
    }

    /// Full human-readable rendering for `--explain`: the annotated plan
    /// followed by each program's disassembly.
    pub fn render(&self, plan: &Plan) -> String {
        let mut out = self.annotate(plan);
        let labels: Vec<String> = plan
            .explain()
            .lines()
            .map(|l| l.trim_start().to_string())
            .collect();
        for (pid, (op, site, prog)) in self.programs_in_order().into_iter().enumerate() {
            out.push_str(&format!(
                "\np{pid} = {} {site} ({}):\n",
                labels.get(op).map(String::as_str).unwrap_or("?"),
                prog.summary()
            ));
            for line in prog.listing() {
                out.push_str("  ");
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// What evaluating a column of this declared type produces when it is
/// materialized back into a column ([`EvalVec::into_column`]): decimals
/// widen to floats, dates flatten to plain integers.
fn dtype_after_eval(dtype: DataType) -> DataType {
    match dtype {
        DataType::Int64 | DataType::Date => DataType::Int64,
        DataType::Decimal | DataType::Float64 => DataType::Float64,
        DataType::Utf8 => DataType::Utf8,
    }
}

struct StageCompiler<'a> {
    base: BaseSchemas<'a>,
    temps: &'a HashMap<String, Schema>,
    /// The stage's parameters, when they are known.
    params: Option<&'a [Value]>,
    ops: HashMap<usize, OpPrograms>,
    next: usize,
    failure: Option<String>,
}

impl StageCompiler<'_> {
    /// Compile the site `site()` names of operator `idx` against its
    /// input's schema, recording the stage's first failure.
    fn compile(
        &mut self,
        idx: usize,
        site: impl FnOnce() -> String,
        e: &Expr,
        schema: Option<&Schema>,
    ) -> Option<ExprProgram> {
        let compiled = match schema {
            Some(s) => ExprProgram::compile(e, s).map_err(|err| err.to_string()),
            None => Err("the schema of its input cannot be inferred".to_string()),
        };
        compiled
            .map_err(|why| {
                self.failure
                    .get_or_insert_with(|| format!("{} of operator {idx}: {why}", site()));
            })
            .ok()
    }

    /// The storage type `prog`, compiled from `e`, yields over `input`: its
    /// static type or, when a parameter types it, what it evaluates to over
    /// zero rows with the stage's parameters — as the executor finds it.
    /// `None` while those parameters are not known.
    fn output_dtype(&self, prog: &ExprProgram, e: &Expr, input: &Schema) -> Option<DataType> {
        vm_to_dtype(prog.out_type()).or_else(|| {
            let params = self.params?;
            if e.max_param().is_some_and(|m| m >= params.len()) {
                return None;
            }
            let empty = Table::empty(input.clone());
            let bound = prog.bind(&empty).ok()?;
            Some(bound.eval(&empty, 0..0, params).into_column().1)
        })
    }

    fn project(schema: &Schema, cols: &Option<Vec<String>>) -> Option<Schema> {
        match cols {
            None => Some(schema.clone()),
            Some(names) => {
                let fields: Option<Vec<Field>> = names
                    .iter()
                    .map(|n| schema.fields().iter().find(|f| f.name == *n).cloned())
                    .collect();
                Some(Schema::new(fields?))
            }
        }
    }

    /// Walk `plan` in pre-order, compiling expression sites and returning
    /// the operator's statically inferred output schema (`None` stops
    /// inference for ancestors, whose expression sites then fail).
    fn walk(&mut self, plan: &Plan) -> Option<Schema> {
        let idx = self.next;
        self.next += 1;
        match plan {
            Plan::Scan {
                table,
                filter,
                project,
            } => {
                let full = (self.base)(*table);
                // The pushed-down filter runs before projection, against
                // the full table schema.
                if let Some(f) = filter {
                    let filter = self.compile(idx, || "filter".into(), f, full.as_ref());
                    self.ops.insert(
                        idx,
                        OpPrograms {
                            filter,
                            ..OpPrograms::default()
                        },
                    );
                }
                Self::project(&full?, project)
            }
            Plan::TempScan { name, project } => {
                let schema = self.temps.get(name)?.clone();
                Self::project(&schema, project)
            }
            Plan::Filter { input, predicate } => {
                let schema = self.walk(input);
                let filter = self.compile(idx, || "filter".into(), predicate, schema.as_ref());
                self.ops.insert(
                    idx,
                    OpPrograms {
                        filter,
                        ..OpPrograms::default()
                    },
                );
                schema
            }
            Plan::Map { input, outputs } => {
                let s = self.walk(input);
                let mut programs = Vec::with_capacity(outputs.len());
                let mut fields: Option<Vec<Field>> = Some(Vec::with_capacity(outputs.len()));
                for o in outputs {
                    let bare = matches!(&o.expr, Expr::Col(_)) && o.dtype.is_none();
                    let prog = if bare {
                        None
                    } else {
                        let site = || format!("map {}", o.name);
                        self.compile(idx, site, &o.expr, s.as_ref())
                    };
                    let dtype = o.dtype.or_else(|| {
                        let s = s.as_ref()?;
                        match &o.expr {
                            Expr::Col(c) if bare => {
                                s.fields().iter().find(|f| f.name == *c).map(|f| f.dtype)
                            }
                            _ => self.output_dtype(prog.as_ref()?, &o.expr, s),
                        }
                    });
                    match (dtype, &mut fields) {
                        (Some(dt), Some(fs)) => fs.push(Field::nullable(o.name.clone(), dt)),
                        _ => fields = None,
                    }
                    programs.push((o.name.clone(), prog));
                }
                self.ops.insert(
                    idx,
                    OpPrograms {
                        outputs: programs,
                        ..OpPrograms::default()
                    },
                );
                fields.map(Schema::new)
            }
            Plan::HashJoin {
                probe, build, kind, ..
            } => {
                let p = self.walk(probe);
                let b = self.walk(build);
                let (p, b) = (p?, b?);
                match kind {
                    JoinKind::LeftSemi | JoinKind::LeftAnti => Some(p),
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        let mut fields: Vec<Field> = p.fields().to_vec();
                        for f in b.fields() {
                            // The runtime join asserts output names are
                            // unique; the static mirror must not panic at
                            // submit time, so duplicate names just stop
                            // inference here.
                            if fields.iter().any(|x| x.name == f.name) {
                                return None;
                            }
                            let mut f = f.clone();
                            if *kind == JoinKind::LeftOuter {
                                f.nullable = true;
                            }
                            fields.push(f);
                        }
                        Some(Schema::new(fields))
                    }
                }
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
                phase,
            } => {
                let s = self.walk(input);
                if *phase != AggPhase::Final {
                    let mut programs = Vec::with_capacity(aggs.len());
                    for a in aggs {
                        let site = || format!("agg {}", a.name);
                        if let Some(p) = self.compile(idx, site, &a.expr, s.as_ref()) {
                            programs.push((a.name.clone(), p));
                        }
                    }
                    self.ops.insert(
                        idx,
                        OpPrograms {
                            aggs: programs,
                            ..OpPrograms::default()
                        },
                    );
                }
                let s = s?;
                // Static mirror of the runtime aggregate output schema.
                let mut fields: Vec<Field> = Vec::new();
                for g in group_by {
                    fields.push(s.fields().iter().find(|f| f.name == *g)?.clone());
                }
                for a in aggs {
                    match (*phase, a.func) {
                        (AggPhase::Partial, AggFunc::Avg) => {
                            fields.push(Field::new(format!("{}__sum", a.name), DataType::Float64));
                            fields.push(Field::new(format!("{}__cnt", a.name), DataType::Int64));
                        }
                        (_, AggFunc::Sum) | (_, AggFunc::Avg) => {
                            fields.push(Field::nullable(a.name.clone(), DataType::Float64));
                        }
                        (_, AggFunc::Count) | (_, AggFunc::CountDistinct) => {
                            fields.push(Field::new(a.name.clone(), DataType::Int64));
                        }
                        (_, AggFunc::Min) | (_, AggFunc::Max) => {
                            let dt = match phase {
                                AggPhase::Final => {
                                    let f = s.fields().iter().find(|f| f.name == a.name)?;
                                    dtype_after_eval(f.dtype)
                                }
                                _ => {
                                    let op = self.ops.get(&idx)?;
                                    let (_, p) = op.aggs.iter().find(|(n, _)| *n == a.name)?;
                                    self.output_dtype(p, &a.expr, &s)?
                                }
                            };
                            fields.push(Field::nullable(a.name.clone(), dt));
                        }
                    }
                }
                Some(Schema::new(fields))
            }
            Plan::Sort { input, .. } | Plan::Exchange { input, .. } => self.walk(input),
        }
    }
}

/// Compile every expression site in one stage's plan. Returns the
/// per-operator programs, with the first site that did not compile as their
/// [`failure`](CompiledStage::failure), plus the stage's statically
/// inferred output schema (`None` when inference broke somewhere along the
/// spine).
///
/// `base` resolves base-relation schemas; `temps` maps already-planned
/// materialized temp relations to their schemas so later stages of the
/// same query can compile against them. Without the stage's parameters, an
/// output only a parameter types stops inference like an unknown column
/// does; the nodes compile with them.
pub fn compile_stage(
    plan: &Plan,
    base: BaseSchemas<'_>,
    temps: &HashMap<String, Schema>,
) -> (CompiledStage, Option<Schema>) {
    compile_stage_with(plan, base, temps, None)
}

/// [`compile_stage`], typing the outputs a parameter types from `params`,
/// the stage's parameters.
pub(crate) fn compile_stage_with(
    plan: &Plan,
    base: BaseSchemas<'_>,
    temps: &HashMap<String, Schema>,
    params: Option<&[Value]>,
) -> (CompiledStage, Option<Schema>) {
    let mut c = StageCompiler {
        base,
        temps,
        params,
        ops: HashMap::new(),
        next: 0,
        failure: None,
    };
    let schema = c.walk(plan);
    let compiled = CompiledStage {
        ops: c.ops,
        failure: c.failure,
    };
    (compiled, schema)
}
