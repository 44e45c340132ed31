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
//! Execution keeps scalars (constants, parameters) unmaterialized, and a
//! load over a morsel borrows the column's slice instead of copying it (a
//! Decimal is promoted as it is read, a string compared as its bytes,
//! never UTF-8-checked). Every stack slot carries its validity, truth
//! values included: `NOT`, `AND` and `OR` follow SQL's three-valued
//! (Kleene) logic, and `CASE` takes its `ELSE` branch where the condition
//! is NULL.
//!
//! Filters run through [`BoundProgram::select`], which refines a `u32`
//! selection vector (MonetDB/X100's technique): a top-level `AND` runs one
//! conjunct at a time, each later conjunct only at the rows still
//! selected, and the last comparison of each writes straight into the
//! selection, shrinking it in place; no mask or copy is built per
//! predicate. Any other predicate runs the same stack machine at the
//! selected rows. Only there — `select`, and `eval_mask` on top of it — does
//! NULL become "not selected".
//!
//! This is the engine's only expression evaluator: every filter, map output
//! and aggregate input of a stage runs a program, and a site that does not
//! compile fails the query before it runs. What the programs compute is
//! checked against a row-at-a-time reference evaluator in the tests
//! (`tests/support/oracle.rs`), which shares no code with this module.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use hsqp_storage::{
    decimal_to_f64, year_of_date, Bitmap, Column, DataType, Field, Schema, StringColumn, Table,
    Value,
};
use hsqp_tpch::TpchTable;

use crate::expr::{fold_const, op, ArithOp, CmpOp, Expr, FoldVal, Keeps, LikeMatcher};
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
    /// Truth values (unspecified where the validity says NULL).
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
    /// Typed comparisons → truth values, NULL where an operand is.
    CmpI64(CmpOp),
    /// Float comparison (`NaN` compares false for every operator).
    CmpF64(CmpOp),
    /// Bytewise lexicographic string comparison.
    CmpStr(CmpOp),
    /// Comparison dispatching once per vector on runtime operand types.
    CmpDyn(CmpOp),
    /// Pop `n` truth values, push their (Kleene) conjunction.
    AndN(u16),
    /// Pop `n` truth values, push their (Kleene) disjunction.
    OrN(u16),
    /// Negate the top truth value (NULL stays NULL).
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
    /// Where each top-level conjunct's instructions end: a program that is
    /// an `AND` is its conjuncts back to back and one `and` joining them.
    /// Empty for any other program, which is one conjunct.
    conjunct_ends: Vec<usize>,
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

    /// Emit the whole program: a conjunction (nested ones flattened) one
    /// conjunct at a time, each recorded as an instruction range
    /// [`BoundProgram::select`] runs on its own, then the `and` that joins
    /// them for [`BoundProgram::eval`]; anything else as it is.
    fn emit_top(&mut self, e: &Expr) -> Result<VmType, CompileError> {
        fn flatten<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            match e {
                Expr::And(children) => children.iter().for_each(|c| flatten(c, out)),
                other => out.push(other),
            }
        }
        let mut conjuncts = Vec::new();
        if matches!(e, Expr::And(_)) && fold_const(e).is_none() {
            flatten(e, &mut conjuncts);
        }
        if conjuncts.len() < 2 {
            return self.emit(e);
        }
        let n =
            u16::try_from(conjuncts.len()).map_err(|_| CompileError("conjunction width".into()))?;
        for c in conjuncts {
            self.emit(c)?;
            self.prog.conjunct_ends.push(self.prog.insts.len());
        }
        self.push(Inst::AndN(n));
        Ok(VmType::Bool)
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
                conjunct_ends: Vec::new(),
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
        let emitted = c.emit_top(expr)?;
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

/// The rows a program runs over and the parameters it reads.
struct Frame<'a> {
    table: &'a Table,
    range: Range<usize>,
    params: &'a [Value],
}

/// The positions of a morsel a kernel computes. Every vector on the stack
/// is indexed by position in the morsel (position `p` is row
/// `range.start + p`); outside the selection its values are unspecified,
/// and no kernel reads them to compute a selected position.
#[derive(Debug, Clone, Copy)]
enum Sel<'s> {
    /// Every position of the morsel.
    All,
    /// These positions.
    Rows(&'s [u32]),
}

impl Sel<'_> {
    /// A vector of `n` holding `f(p)` at every selected position.
    #[inline]
    fn collect<T: Copy + Default>(self, n: usize, f: impl Fn(usize) -> T) -> Vec<T> {
        match self {
            Sel::All => (0..n).map(f).collect(),
            Sel::Rows(rows) => {
                let mut out = vec![T::default(); n];
                for &p in rows {
                    out[p as usize] = f(p as usize);
                }
                out
            }
        }
    }

    /// Call `f` on every selected position of a vector of `n`.
    #[inline]
    fn for_each(self, n: usize, mut f: impl FnMut(usize)) {
        match self {
            Sel::All => (0..n).for_each(f),
            Sel::Rows(rows) => rows.iter().for_each(|&p| f(p as usize)),
        }
    }
}

/// Values in a stack slot: a vector over the morsel's positions — a loaded
/// column's slice, borrowed, or one a kernel computed — or an
/// unmaterialized scalar.
#[derive(Debug, Clone)]
enum Vals<'a> {
    I64(Cow<'a, [i64]>),
    F64(Cow<'a, [f64]>),
    /// A Decimal column's slice, promoted to `f64` where it is read.
    Dec(&'a [i64]),
    /// Strings: position `p` is string `base + p` of the column.
    Str(Cow<'a, StringColumn>, usize),
    /// Truth values; unspecified where the slot is NULL.
    Bool(Vec<bool>),
    ScalI64(i64),
    ScalF64(f64),
    ScalStr(&'a str),
    ScalBool(bool),
}

/// Validity of a stack slot. A scalar's is `All` or `Never`.
#[derive(Debug, Clone)]
enum Valid<'a> {
    /// Every position valid.
    All,
    /// Every position NULL (a NULL parameter).
    Never,
    /// Position `p` is valid when bit `base + p` is set: a loaded column's
    /// bitmap, borrowed, or one a kernel computed (`base` 0).
    Bits(Cow<'a, Bitmap>, usize),
}

impl Valid<'_> {
    #[inline]
    fn get(&self, p: usize) -> bool {
        match self {
            Valid::All => true,
            Valid::Never => false,
            Valid::Bits(bm, base) => bm.get(base + p),
        }
    }

    /// Validity computed position by position.
    fn computed(bits: impl Iterator<Item = bool>) -> Valid<'static> {
        Valid::Bits(Cow::Owned(bits.collect()), 0)
    }
}

#[derive(Debug, Clone)]
struct Slot<'a> {
    vals: Vals<'a>,
    valid: Valid<'a>,
}

/// Typed per-position readers: the dispatch happens once per vector when
/// the reader is built, after which `get` is a branch the CPU predicts
/// perfectly (always the same arm).
#[derive(Clone, Copy)]
enum I64s<'a> {
    V(&'a [i64]),
    S(i64),
}

impl I64s<'_> {
    #[inline]
    fn get(self, p: usize) -> i64 {
        match self {
            I64s::V(v) => v[p],
            I64s::S(x) => x,
        }
    }
}

#[derive(Clone, Copy)]
enum F64s<'a> {
    V(&'a [f64]),
    /// Decimal cents, promoted as they are read.
    Dec(&'a [i64]),
    /// Integers, converted as they are read (a parameter-typed operand).
    Int(&'a [i64]),
    S(f64),
}

impl F64s<'_> {
    #[inline]
    fn get(self, p: usize) -> f64 {
        match self {
            F64s::V(v) => v[p],
            F64s::Dec(v) => decimal_to_f64(v[p]),
            F64s::Int(v) => v[p] as f64,
            F64s::S(x) => x,
        }
    }
}

/// Strings as bytes: comparisons, `IN` and `LIKE` never check UTF-8.
#[derive(Clone, Copy)]
enum Strs<'a> {
    V(&'a StringColumn, usize),
    S(&'a [u8]),
}

impl<'a> Strs<'a> {
    #[inline]
    fn get(self, p: usize) -> &'a [u8] {
        match self {
            Strs::V(c, base) => c.bytes(base + p),
            Strs::S(s) => s,
        }
    }
}

#[derive(Clone, Copy)]
enum Bools<'a> {
    V(&'a [bool]),
    S(bool),
}

impl Bools<'_> {
    #[inline]
    fn get(self, p: usize) -> bool {
        match self {
            Bools::V(v) => v[p],
            Bools::S(b) => b,
        }
    }
}

impl Vals<'_> {
    fn is_scalar(&self) -> bool {
        matches!(
            self,
            Vals::ScalI64(_) | Vals::ScalF64(_) | Vals::ScalStr(_) | Vals::ScalBool(_)
        )
    }

    fn is_i64_kind(&self) -> bool {
        matches!(self, Vals::I64(_) | Vals::ScalI64(_))
    }

    fn is_str_kind(&self) -> bool {
        matches!(self, Vals::Str(..) | Vals::ScalStr(_))
    }

    fn kind_name(&self) -> &'static str {
        match self {
            Vals::I64(_) | Vals::ScalI64(_) => "integer",
            Vals::F64(_) | Vals::Dec(_) | Vals::ScalF64(_) => "float",
            Vals::Str(..) | Vals::ScalStr(_) => "string",
            Vals::Bool(_) | Vals::ScalBool(_) => "boolean",
        }
    }

    fn i64s(&self) -> Option<I64s<'_>> {
        match self {
            Vals::I64(v) => Some(I64s::V(v)),
            Vals::ScalI64(x) => Some(I64s::S(*x)),
            _ => None,
        }
    }

    fn f64s(&self) -> F64s<'_> {
        match self {
            Vals::F64(v) => F64s::V(v),
            Vals::Dec(v) => F64s::Dec(v),
            Vals::I64(v) => F64s::Int(v),
            Vals::ScalF64(x) => F64s::S(*x),
            Vals::ScalI64(x) => F64s::S(*x as f64),
            other => panic!(
                "expected numeric expression, got {} values",
                other.kind_name()
            ),
        }
    }

    fn strs(&self) -> Strs<'_> {
        match self {
            Vals::Str(c, base) => Strs::V(c, *base),
            Vals::ScalStr(s) => Strs::S(s.as_bytes()),
            other => panic!(
                "expected string expression, got {} values",
                other.kind_name()
            ),
        }
    }

    fn bools(&self) -> Bools<'_> {
        match self {
            Vals::Bool(v) => Bools::V(v),
            Vals::ScalBool(b) => Bools::S(*b),
            other => panic!(
                "expected boolean expression, got {} values",
                other.kind_name()
            ),
        }
    }
}

impl<'a> Slot<'a> {
    fn scalar(vals: Vals<'a>) -> Slot<'a> {
        Slot {
            vals,
            valid: Valid::All,
        }
    }

    /// Materialize the `n` positions into an [`EvalVec`].
    fn finish(self, n: usize) -> EvalVec {
        let validity = match self.valid {
            Valid::All => None,
            Valid::Never => Some(Bitmap::filled(n, false)),
            Valid::Bits(bm, 0) if bm.len() == n => Some(bm.into_owned()),
            Valid::Bits(bm, base) => Some((base..base + n).map(|i| bm.get(i)).collect()),
        };
        let data = match self.vals {
            Vals::I64(v) => VecData::I64(v.into_owned()),
            Vals::F64(v) => VecData::F64(v.into_owned()),
            Vals::Dec(v) => VecData::F64(v.iter().map(|&x| decimal_to_f64(x)).collect()),
            Vals::Str(Cow::Owned(c), 0) if c.len() == n => VecData::Str(c),
            Vals::Str(c, base) => {
                let mut out = StringColumn::new();
                out.extend_rows(&c, base..base + n);
                VecData::Str(out)
            }
            Vals::Bool(v) => VecData::Bool(v),
            Vals::ScalI64(x) => VecData::I64(vec![x; n]),
            Vals::ScalF64(x) => VecData::F64(vec![x; n]),
            Vals::ScalStr(s) => {
                let mut c = StringColumn::with_capacity(n, s.len());
                for _ in 0..n {
                    c.push(s);
                }
                VecData::Str(c)
            }
            Vals::ScalBool(b) => VecData::Bool(vec![b; n]),
        };
        EvalVec { data, validity }
    }
}

fn load_valid(col: &Column, base: usize) -> Valid<'_> {
    match col.validity() {
        None => Valid::All,
        Some(bm) => Valid::Bits(Cow::Borrowed(bm), base),
    }
}

/// Valid where both operands are.
fn merge_valid<'a>(a: &Valid<'a>, b: &Valid<'a>, n: usize) -> Valid<'a> {
    match (a, b) {
        (Valid::Never, _) | (_, Valid::Never) => Valid::Never,
        (Valid::All, v) | (v, Valid::All) => v.clone(),
        (x, y) => Valid::computed((0..n).map(|p| x.get(p) && y.get(p))),
    }
}

fn param(params: &[Value], i: usize) -> Slot<'_> {
    match params
        .get(i)
        .unwrap_or_else(|| panic!("parameter {i} not bound"))
    {
        Value::I64(x) => Slot::scalar(Vals::ScalI64(*x)),
        Value::F64(x) => Slot::scalar(Vals::ScalF64(*x)),
        Value::Str(s) => Slot::scalar(Vals::ScalStr(s)),
        // A NULL parameter is an integer zero that is never valid: it
        // takes the integer kernels.
        Value::Null => Slot {
            vals: Vals::ScalI64(0),
            valid: Valid::Never,
        },
    }
}

// -- predicates ---------------------------------------------------------------

/// Where a predicate kernel's answers go.
enum Out<'s> {
    /// Into a truth-value slot, computed at the selected positions.
    Slot(Sel<'s>),
    /// Into `sel`, which keeps the positions where the predicate — negated
    /// when `negate` — is true; never one where it is NULL. With `fill`,
    /// `sel` holds every position of the morsel first.
    Refine {
        sel: &'s mut Vec<u32>,
        fill: bool,
        negate: bool,
    },
}

/// Deliver the predicate `holds`, NULL where `valid` says, to `out`.
#[inline]
fn deliver<'a>(
    out: Out<'_>,
    n: usize,
    valid: Valid<'a>,
    holds: impl Fn(usize) -> bool,
) -> Option<Slot<'a>> {
    match out {
        Out::Slot(sel) => Some(Slot {
            vals: Vals::Bool(sel.collect(n, holds)),
            valid,
        }),
        Out::Refine { sel, fill, negate } => {
            let all = matches!(valid, Valid::All);
            refine(sel, fill, n, |p| {
                (all || valid.get(p)) & (holds(p) != negate)
            });
            None
        }
    }
}

/// Deliver a predicate whose answer is the same at every position.
fn answer<'a>(out: Out<'_>, n: usize, valid: Valid<'a>, holds: bool) -> Option<Slot<'a>> {
    match out {
        Out::Slot(_) => Some(Slot {
            vals: Vals::ScalBool(holds),
            valid,
        }),
        refine => deliver(refine, n, valid, |_| holds),
    }
}

/// Deliver a truth-value slot to `out`.
fn keep_where(slot: Slot<'_>, n: usize, out: Out<'_>) {
    let Slot { vals, valid } = slot;
    match vals {
        Vals::Bool(v) => deliver(out, n, valid, |p| v[p]),
        Vals::ScalBool(b) => answer(out, n, valid, b),
        other => panic!(
            "expected boolean expression, got {} values",
            other.kind_name()
        ),
    };
}

/// Shrink `sel` (with `fill`: every position below `n`) to the positions
/// where `keep` holds, in order: each one is written and the write
/// position advances by `keep`, so there is no branch to mispredict.
#[inline]
fn refine(sel: &mut Vec<u32>, fill: bool, n: usize, keep: impl Fn(usize) -> bool) {
    let mut kept = 0;
    if fill {
        sel.clear();
        sel.resize(n, 0);
        for p in 0..n {
            sel[kept] = p as u32;
            kept += usize::from(keep(p));
        }
    } else {
        for i in 0..sel.len() {
            let p = sel[i];
            sel[kept] = p;
            kept += usize::from(keep(p as usize));
        }
    }
    sel.truncate(kept);
}

/// The kernel family a comparison runs.
#[derive(Debug, Clone, Copy)]
enum Domain {
    Int,
    Float,
    Str,
}

/// Run `$kernel::<O>(args)` with `O` the [`Keeps`] type of `$op`.
macro_rules! by_op {
    ($op:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $op {
            CmpOp::Eq => $kernel::<op::Eq>($($arg),*),
            CmpOp::Ne => $kernel::<op::Ne>($($arg),*),
            CmpOp::Lt => $kernel::<op::Lt>($($arg),*),
            CmpOp::Le => $kernel::<op::Le>($($arg),*),
            CmpOp::Gt => $kernel::<op::Gt>($($arg),*),
            CmpOp::Ge => $kernel::<op::Ge>($($arg),*),
        }
    };
}

/// Compare `a` with `b` in `domain` — or, for a parameter-typed comparison
/// (`None`), in the domain the operands' runtime kinds pick by the rule
/// static typing applies: integers, strings, else floats. NULL where
/// either operand is.
fn compare<'a>(
    domain: Option<Domain>,
    op: CmpOp,
    a: &Slot<'a>,
    b: &Slot<'a>,
    n: usize,
    out: Out<'_>,
) -> Option<Slot<'a>> {
    // A scalar goes on the right: `c < x` is `x > c`.
    if a.vals.is_scalar() && !b.vals.is_scalar() {
        let flipped = match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            symmetric => symmetric,
        };
        return compare(domain, flipped, b, a, n, out);
    }
    let domain = domain.unwrap_or(if a.vals.is_i64_kind() && b.vals.is_i64_kind() {
        Domain::Int
    } else if a.vals.is_str_kind() && b.vals.is_str_kind() {
        Domain::Str
    } else {
        Domain::Float
    });
    let valid = merge_valid(&a.valid, &b.valid, n);
    let (a, b) = (&a.vals, &b.vals);
    match domain {
        Domain::Int => by_op!(op, cmp_i64(a, b, n, valid, out)),
        Domain::Float => by_op!(op, cmp_f64(a, b, n, valid, out)),
        Domain::Str => by_op!(op, cmp_str(a, b, n, valid, out)),
    }
}

const SCALAR_ON_THE_RIGHT: &str = "a scalar is compared on the right";

fn cmp_i64<'a, O: Keeps>(
    a: &Vals<'_>,
    b: &Vals<'_>,
    n: usize,
    valid: Valid<'a>,
    out: Out<'_>,
) -> Option<Slot<'a>> {
    let msg = || panic!("integer comparison over non-integer values");
    match (a.i64s().unwrap_or_else(msg), b.i64s().unwrap_or_else(msg)) {
        (I64s::S(x), I64s::S(y)) => answer(out, n, valid, O::keeps(&x, &y)),
        (I64s::V(x), I64s::S(y)) => deliver(out, n, valid, |p| O::keeps(&x[p], &y)),
        (I64s::V(x), I64s::V(y)) => deliver(out, n, valid, |p| O::keeps(&x[p], &y[p])),
        (I64s::S(_), I64s::V(_)) => unreachable!("{SCALAR_ON_THE_RIGHT}"),
    }
}

fn cmp_f64<'a, O: Keeps>(
    a: &Vals<'_>,
    b: &Vals<'_>,
    n: usize,
    valid: Valid<'a>,
    out: Out<'_>,
) -> Option<Slot<'a>> {
    match (a.f64s(), b.f64s()) {
        (F64s::S(x), F64s::S(y)) => answer(out, n, valid, O::keeps(&x, &y)),
        (F64s::V(x), F64s::S(y)) => deliver(out, n, valid, |p| O::keeps(&x[p], &y)),
        (F64s::Dec(x), F64s::S(y)) => {
            deliver(out, n, valid, |p| O::keeps(&decimal_to_f64(x[p]), &y))
        }
        (F64s::S(_), _) => unreachable!("{SCALAR_ON_THE_RIGHT}"),
        (x, y) => deliver(out, n, valid, |p| O::keeps(&x.get(p), &y.get(p))),
    }
}

fn cmp_str<'a, O: Keeps>(
    a: &Vals<'_>,
    b: &Vals<'_>,
    n: usize,
    valid: Valid<'a>,
    out: Out<'_>,
) -> Option<Slot<'a>> {
    match (a.strs(), b.strs()) {
        (Strs::S(x), Strs::S(y)) => answer(out, n, valid, O::keeps(x, y)),
        (Strs::V(c, base), Strs::S(y)) => {
            deliver(out, n, valid, |p| O::keeps(c.bytes(base + p), y))
        }
        (Strs::S(_), Strs::V(..)) => unreachable!("{SCALAR_ON_THE_RIGHT}"),
        (x, y) => deliver(out, n, valid, |p| O::keeps(x.get(p), y.get(p))),
    }
}

// -- other kernels ------------------------------------------------------------

/// Kleene `AND` (`is_and`) or `OR` over truth-value slots: a definite
/// `false` decides an `AND` and a definite `true` an `OR`; where no child
/// decides, the result is NULL if a child is.
fn kleene<'a>(children: &[Slot<'a>], n: usize, is_and: bool) -> Slot<'a> {
    let decisive = !is_and;
    let decides = |c: &Slot<'_>, p: usize| c.valid.get(p) && c.vals.bools().get(p) == decisive;
    if children.iter().all(|c| c.vals.is_scalar()) {
        let decided = children.iter().any(|c| decides(c, 0));
        let null = !decided && children.iter().any(|c| !c.valid.get(0));
        return Slot {
            vals: Vals::ScalBool(decided != is_and),
            valid: if null { Valid::Never } else { Valid::All },
        };
    }
    let mut decided = vec![false; n];
    for c in children {
        if let Valid::All = c.valid {
            let v = c.vals.bools();
            for (p, d) in decided.iter_mut().enumerate() {
                *d |= v.get(p) == decisive;
            }
        } else {
            for (p, d) in decided.iter_mut().enumerate() {
                *d |= decides(c, p);
            }
        }
    }
    let valid = if children.iter().all(|c| matches!(c.valid, Valid::All)) {
        Valid::All
    } else {
        Valid::computed((0..n).map(|p| decided[p] || children.iter().all(|c| c.valid.get(p))))
    };
    decided.iter_mut().for_each(|d| *d = *d != is_and);
    Slot {
        vals: Vals::Bool(decided),
        valid,
    }
}

/// `NOT`: NULL stays NULL.
fn not(s: Slot<'_>) -> Slot<'_> {
    let vals = match s.vals {
        Vals::Bool(mut v) => {
            v.iter_mut().for_each(|b| *b = !*b);
            Vals::Bool(v)
        }
        Vals::ScalBool(b) => Vals::ScalBool(!b),
        other => panic!(
            "expected boolean expression, got {} values",
            other.kind_name()
        ),
    };
    Slot {
        vals,
        valid: s.valid,
    }
}

fn cast_f64<'a>(s: Slot<'a>, sel: Sel<'_>, n: usize) -> Slot<'a> {
    let vals = match s.vals {
        Vals::I64(v) => Vals::F64(Cow::Owned(sel.collect(n, |p| v[p] as f64))),
        Vals::ScalI64(x) => Vals::ScalF64(x as f64),
        other => other,
    };
    Slot {
        vals,
        valid: s.valid,
    }
}

fn arith_i64<'a>(op: ArithOp, a: Slot<'a>, b: Slot<'a>, sel: Sel<'_>, n: usize) -> Slot<'a> {
    let msg = || panic!("integer arithmetic over non-integer values");
    let (x, y) = (
        a.vals.i64s().unwrap_or_else(msg),
        b.vals.i64s().unwrap_or_else(msg),
    );
    // Plain operators on purpose: overflow panics in debug builds and
    // wraps in release, which is why constant folding leaves it alone.
    let vals = match op {
        ArithOp::Add => zip_i64(x, y, sel, n, |x, y| x + y),
        ArithOp::Sub => zip_i64(x, y, sel, n, |x, y| x - y),
        ArithOp::Mul => zip_i64(x, y, sel, n, |x, y| x * y),
        ArithOp::Div => unreachable!("integer division compiles to float"),
    };
    Slot {
        vals,
        valid: merge_valid(&a.valid, &b.valid, n),
    }
}

fn zip_i64(
    x: I64s<'_>,
    y: I64s<'_>,
    sel: Sel<'_>,
    n: usize,
    f: impl Fn(i64, i64) -> i64,
) -> Vals<'static> {
    match (x, y) {
        (I64s::S(x), I64s::S(y)) => Vals::ScalI64(f(x, y)),
        _ => Vals::I64(Cow::Owned(sel.collect(n, |p| f(x.get(p), y.get(p))))),
    }
}

fn arith_f64<'a>(op: ArithOp, a: Slot<'a>, b: Slot<'a>, sel: Sel<'_>, n: usize) -> Slot<'a> {
    let valid = merge_valid(&a.valid, &b.valid, n);
    let (a, b) = (a.vals, b.vals);
    let vals = match op {
        ArithOp::Add => zip_f64(a, b, sel, n, |x, y| x + y),
        ArithOp::Sub => zip_f64(a, b, sel, n, |x, y| x - y),
        ArithOp::Mul => zip_f64(a, b, sel, n, |x, y| x * y),
        ArithOp::Div => zip_f64(a, b, sel, n, |x, y| x / y),
    };
    Slot { vals, valid }
}

/// `f` over two float operands; an operand a kernel computed is
/// overwritten with the result instead of allocating another vector.
fn zip_f64<'a>(
    a: Vals<'a>,
    b: Vals<'a>,
    sel: Sel<'_>,
    n: usize,
    f: impl Fn(f64, f64) -> f64,
) -> Vals<'a> {
    match (a, b) {
        (Vals::F64(Cow::Owned(mut v)), b) => {
            let y = b.f64s();
            sel.for_each(n, |p| v[p] = f(v[p], y.get(p)));
            Vals::F64(Cow::Owned(v))
        }
        (a, Vals::F64(Cow::Owned(mut v))) => {
            let x = a.f64s();
            sel.for_each(n, |p| v[p] = f(x.get(p), v[p]));
            Vals::F64(Cow::Owned(v))
        }
        (a, b) => match (a.f64s(), b.f64s()) {
            (F64s::S(x), F64s::S(y)) => Vals::ScalF64(f(x, y)),
            (x, y) => Vals::F64(Cow::Owned(sel.collect(n, |p| f(x.get(p), y.get(p))))),
        },
    }
}

/// Bytes `start..start + len` (1-based) of `s`, clamped to its length; ""
/// when they do not form whole characters.
fn substr_of(s: &[u8], start: u32, len: u32) -> &str {
    let from = (start as usize - 1).min(s.len());
    let to = (from + len as usize).min(s.len());
    std::str::from_utf8(&s[from..to]).unwrap_or("")
}

fn substr(s: Slot<'_>, start: u32, len: u32, n: usize) -> Slot<'_> {
    let vals = match s.vals {
        Vals::Str(c, base) => {
            let mut out = StringColumn::with_capacity(n, len as usize);
            for p in 0..n {
                out.push(substr_of(c.bytes(base + p), start, len));
            }
            Vals::Str(Cow::Owned(out), 0)
        }
        Vals::ScalStr(x) => Vals::ScalStr(substr_of(x.as_bytes(), start, len)),
        other => panic!(
            "expected string expression, got {} values",
            other.kind_name()
        ),
    };
    Slot {
        vals,
        valid: s.valid,
    }
}

fn year<'a>(s: Slot<'a>, sel: Sel<'_>, n: usize) -> Slot<'a> {
    let vals = match s.vals.i64s() {
        Some(I64s::S(d)) => Vals::ScalI64(year_of_date(d)),
        Some(I64s::V(v)) => Vals::I64(Cow::Owned(sel.collect(n, |p| year_of_date(v[p])))),
        None => panic!(
            "extract(year) needs a date column, got {} values",
            s.vals.kind_name()
        ),
    };
    Slot {
        vals,
        valid: s.valid,
    }
}

/// `CASE`: `then` where the condition is true, `else` where it is false
/// or NULL; integers when `ints`, else floats.
fn case<'a>(
    cond: Slot<'a>,
    t: Slot<'a>,
    e: Slot<'a>,
    sel: Sel<'_>,
    n: usize,
    ints: bool,
) -> Slot<'a> {
    let (t, e) = if ints {
        (t, e)
    } else {
        (cast_f64(t, sel, n), cast_f64(e, sel, n))
    };
    let mask = match cond.vals {
        Vals::ScalBool(b) => {
            return if b && matches!(cond.valid, Valid::All) {
                t
            } else {
                e
            }
        }
        Vals::Bool(mask) => mask,
        other => panic!(
            "expected boolean expression, got {} values",
            other.kind_name()
        ),
    };
    let takes = |p: usize| mask[p] && cond.valid.get(p);
    let valid = if matches!((&t.valid, &e.valid), (Valid::All, Valid::All)) {
        Valid::All
    } else {
        let pick = |p| {
            if takes(p) {
                t.valid.get(p)
            } else {
                e.valid.get(p)
            }
        };
        Valid::computed((0..n).map(pick))
    };
    let vals = if ints {
        let msg = || panic!("integer CASE over non-integer branches");
        let (tx, ex) = (
            t.vals.i64s().unwrap_or_else(msg),
            e.vals.i64s().unwrap_or_else(msg),
        );
        let pick = |p| if takes(p) { tx.get(p) } else { ex.get(p) };
        Vals::I64(Cow::Owned((0..n).map(pick).collect()))
    } else {
        let (tx, ex) = (t.vals.f64s(), e.vals.f64s());
        let pick = |p| if takes(p) { tx.get(p) } else { ex.get(p) };
        Vals::F64(Cow::Owned((0..n).map(pick).collect()))
    };
    Slot { vals, valid }
}

/// What a program's run keeps between instructions.
struct Machine<'a> {
    stack: Vec<Slot<'a>>,
    tmps: Vec<Option<Slot<'a>>>,
}

impl<'a> Machine<'a> {
    fn pop(&mut self) -> Slot<'a> {
        self.stack.pop().expect("program stack underflow")
    }
}

/// Instructions whose result [`BoundProgram::select`] takes straight into
/// its selection.
fn is_predicate(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::CmpI64(_)
            | Inst::CmpF64(_)
            | Inst::CmpStr(_)
            | Inst::CmpDyn(_)
            | Inst::Like(_)
            | Inst::InStr(_)
            | Inst::InI64(_)
            | Inst::IsNull
    )
}

impl<'p> BoundProgram<'p> {
    /// The program's static result type.
    pub fn out_type(&self) -> VmType {
        self.prog.out
    }

    /// Evaluate over rows `range` of the bound table's shape.
    pub fn eval(&self, table: &Table, range: Range<usize>, params: &[Value]) -> EvalVec {
        let n = range.len();
        let frame = Frame {
            table,
            range,
            params,
        };
        let mut m = self.machine();
        for inst in &self.prog.insts {
            self.step(inst, &frame, Sel::All, &mut m);
        }
        debug_assert_eq!(m.stack.len(), 1, "program left a dirty stack");
        m.pop().finish(n)
    }

    /// Write to `sel` the rows of `range` where a predicate program is
    /// true, as ascending row ids of `table`. A row where it is NULL is not
    /// selected. `sel`'s contents are replaced, so one vector passed morsel
    /// after morsel is allocated once.
    ///
    /// A top-level `AND` runs one conjunct at a time: the first over the
    /// whole morsel, each later one only over the rows still selected,
    /// shrinking `sel` in place. A conjunct, like a predicate of any other
    /// shape, runs the stack machine [`eval`](Self::eval) runs, at the
    /// selected rows only, and its last comparison (or `LIKE`, `IN`,
    /// `IS NULL`, each under any `NOT`s) writes straight into `sel`.
    ///
    /// # Panics
    /// Panics if the program does not produce booleans, or if `range`
    /// reaches past `u32::MAX`.
    pub fn select(&self, table: &Table, range: Range<usize>, params: &[Value], sel: &mut Vec<u32>) {
        let base = u32::try_from(range.end)
            .map(|_| range.start as u32)
            .expect("row ids fit in u32");
        let frame = Frame {
            table,
            range,
            params,
        };
        self.filter(&frame, sel, true);
        if base > 0 {
            sel.iter_mut().for_each(|r| *r += base);
        }
    }

    /// Keep the rows of `sel` — row ids of `table`, in any order, which
    /// the kept ones keep — where a predicate program is true: what
    /// [`select`](Self::select) does to the rows its first conjunct left.
    ///
    /// # Panics
    /// Panics if the program does not produce booleans.
    pub fn refine(&self, table: &Table, params: &[Value], sel: &mut Vec<u32>) {
        let (Some(&lo), Some(&hi)) = (sel.iter().min(), sel.iter().max()) else {
            return;
        };
        sel.iter_mut().for_each(|r| *r -= lo);
        let frame = Frame {
            table,
            range: lo as usize..hi as usize + 1,
            params,
        };
        self.filter(&frame, sel, false);
        sel.iter_mut().for_each(|r| *r += lo);
    }

    /// Evaluate a predicate program to a selection mask: NULL is not
    /// selected. [`select`](Self::select), spread over the range.
    ///
    /// # Panics
    /// Panics if the program does not produce booleans.
    pub fn eval_mask(&self, table: &Table, range: Range<usize>, params: &[Value]) -> Vec<bool> {
        let start = range.start;
        let mut mask = vec![false; range.len()];
        let mut sel = Vec::new();
        self.select(table, range, params, &mut sel);
        for r in sel {
            mask[r as usize - start] = true;
        }
        mask
    }

    fn machine<'a>(&self) -> Machine<'a> {
        Machine {
            stack: Vec::with_capacity(8),
            tmps: vec![None; self.prog.n_tmps as usize],
        }
    }

    /// Shrink `sel` — positions in `frame`'s range or, with `fill`, all of
    /// them — to those where the predicate is true, a conjunct at a time.
    fn filter<'a>(&'a self, frame: &Frame<'a>, sel: &mut Vec<u32>, fill: bool) {
        let n = frame.range.len();
        let mut m = self.machine();
        let whole = [self.prog.insts.len()];
        let ends = match self.prog.conjunct_ends.as_slice() {
            [] => &whole[..],
            ends => ends,
        };
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            let fill = fill && i == 0;
            if !fill && sel.is_empty() {
                return;
            }
            let insts = &self.prog.insts[start..end];
            start = end;
            // Trailing NOTs negate what the conjunct delivers.
            let nots = insts
                .iter()
                .rev()
                .take_while(|i| matches!(i, Inst::Not))
                .count();
            let negate = nots % 2 == 1;
            let (last, body) = insts[..insts.len() - nots]
                .split_last()
                .expect("a conjunct computes a value");
            let at = if fill { Sel::All } else { Sel::Rows(sel) };
            for inst in body {
                self.step(inst, frame, at, &mut m);
            }
            if is_predicate(last) {
                self.predicate(last, n, &mut m, Out::Refine { sel, fill, negate });
            } else {
                self.step(last, frame, at, &mut m);
                keep_where(m.pop(), n, Out::Refine { sel, fill, negate });
            }
        }
    }

    fn column<'a>(&self, frame: &Frame<'a>, c: u16) -> &'a Column {
        frame.table.column(self.col_idx[c as usize])
    }

    /// Run `inst` at the positions `sel` selects and push its result.
    fn step<'a>(&'a self, inst: &Inst, frame: &Frame<'a>, sel: Sel<'_>, m: &mut Machine<'a>) {
        let n = frame.range.len();
        let rows = frame.range.clone();
        let slot = match inst {
            Inst::LoadI64(c) => {
                let col = self.column(frame, *c);
                let Column::I64(v, _) = col else {
                    panic!("load_i64 on a non-integer column")
                };
                Slot {
                    vals: Vals::I64(Cow::Borrowed(&v[rows])),
                    valid: load_valid(col, frame.range.start),
                }
            }
            Inst::LoadDec(c) => {
                let col = self.column(frame, *c);
                let Column::I64(v, _) = col else {
                    panic!("load_dec on a non-decimal column")
                };
                Slot {
                    vals: Vals::Dec(&v[rows]),
                    valid: load_valid(col, frame.range.start),
                }
            }
            Inst::LoadF64(c) => {
                let col = self.column(frame, *c);
                let Column::F64(v, _) = col else {
                    panic!("load_f64 on a non-float column")
                };
                Slot {
                    vals: Vals::F64(Cow::Borrowed(&v[rows])),
                    valid: load_valid(col, frame.range.start),
                }
            }
            Inst::LoadStr(c) => {
                let col = self.column(frame, *c);
                let Column::Str(v, _) = col else {
                    panic!("load_str on a non-string column")
                };
                Slot {
                    vals: Vals::Str(Cow::Borrowed(v), frame.range.start),
                    valid: load_valid(col, frame.range.start),
                }
            }
            Inst::ConstI64(v) => Slot::scalar(Vals::ScalI64(*v)),
            Inst::ConstF64(v) => Slot::scalar(Vals::ScalF64(*v)),
            Inst::ConstStr(s) => Slot::scalar(Vals::ScalStr(&self.prog.strs[*s as usize])),
            Inst::ConstBool(b) => Slot::scalar(Vals::ScalBool(*b)),
            Inst::Param(i) => param(frame.params, *i as usize),
            Inst::CastF64 => cast_f64(m.pop(), sel, n),
            Inst::CmpI64(_)
            | Inst::CmpF64(_)
            | Inst::CmpStr(_)
            | Inst::CmpDyn(_)
            | Inst::Like(_)
            | Inst::InStr(_)
            | Inst::InI64(_)
            | Inst::IsNull => self
                .predicate(inst, n, m, Out::Slot(sel))
                .expect("a predicate delivered to a slot returns it"),
            Inst::AndN(k) | Inst::OrN(k) => {
                let from = m.stack.len().checked_sub(*k as usize);
                let from = from.expect("program stack underflow");
                let slot = kleene(&m.stack[from..], n, matches!(inst, Inst::AndN(_)));
                m.stack.truncate(from);
                slot
            }
            Inst::Not => not(m.pop()),
            Inst::ArithI64(op) | Inst::ArithF64(op) | Inst::ArithDyn(op) => {
                let b = m.pop();
                let a = m.pop();
                let ints = match inst {
                    Inst::ArithI64(_) => true,
                    Inst::ArithF64(_) => false,
                    // Parameter-typed: picked once per vector.
                    _ => a.vals.is_i64_kind() && b.vals.is_i64_kind() && *op != ArithOp::Div,
                };
                if ints {
                    arith_i64(*op, a, b, sel, n)
                } else {
                    arith_f64(*op, a, b, sel, n)
                }
            }
            Inst::Substr(start, len) => substr(m.pop(), *start, *len, n),
            Inst::Year => year(m.pop(), sel, n),
            Inst::CaseI64 | Inst::CaseF64 | Inst::CaseDyn => {
                let e = m.pop();
                let t = m.pop();
                let cond = m.pop();
                let ints = match inst {
                    Inst::CaseI64 => true,
                    Inst::CaseF64 => false,
                    _ => t.vals.is_i64_kind() && e.vals.is_i64_kind(),
                };
                case(cond, t, e, sel, n, ints)
            }
            Inst::Tee(t) => {
                let top = m.stack.last().expect("program stack underflow").clone();
                m.tmps[*t as usize] = Some(top);
                return;
            }
            Inst::LoadTmp(t) => m.tmps[*t as usize]
                .clone()
                .expect("temp read before it was computed"),
        };
        m.stack.push(slot);
    }

    /// Run predicate instruction `inst` — a comparison, `LIKE`, `IN` or
    /// `IS NULL` — delivering its answers to `out`.
    fn predicate<'a>(
        &'a self,
        inst: &Inst,
        n: usize,
        m: &mut Machine<'a>,
        out: Out<'_>,
    ) -> Option<Slot<'a>> {
        let prog = self.prog;
        if let Inst::CmpI64(op) | Inst::CmpF64(op) | Inst::CmpStr(op) | Inst::CmpDyn(op) = inst {
            let b = m.pop();
            let a = m.pop();
            let domain = match inst {
                Inst::CmpI64(_) => Some(Domain::Int),
                Inst::CmpF64(_) => Some(Domain::Float),
                Inst::CmpStr(_) => Some(Domain::Str),
                _ => None,
            };
            return compare(domain, *op, &a, &b, n, out);
        }
        let Slot { vals, valid } = m.pop();
        match inst {
            Inst::Like(l) => {
                let like = &prog.likes[*l as usize].0;
                match vals.strs() {
                    Strs::S(s) => answer(out, n, valid, like.matches(s)),
                    Strs::V(c, base) => deliver(out, n, valid, |p| like.matches(c.bytes(base + p))),
                }
            }
            Inst::InStr(l) => {
                let options = &prog.str_lists[*l as usize];
                let is_in = |s: &[u8]| options.iter().any(|o| o.as_bytes() == s);
                match vals.strs() {
                    Strs::S(s) => answer(out, n, valid, is_in(s)),
                    Strs::V(c, base) => deliver(out, n, valid, |p| is_in(c.bytes(base + p))),
                }
            }
            Inst::InI64(l) => {
                let options = &prog.i64_lists[*l as usize];
                let x = vals.i64s().unwrap_or_else(|| {
                    panic!(
                        "IN over integers needs integer input, got {} values",
                        vals.kind_name()
                    )
                });
                match x {
                    I64s::S(x) => answer(out, n, valid, options.contains(&x)),
                    I64s::V(v) => deliver(out, n, valid, |p| options.contains(&v[p])),
                }
            }
            Inst::IsNull => match valid {
                Valid::All => answer(out, n, Valid::All, false),
                Valid::Never => answer(out, n, Valid::All, true),
                Valid::Bits(bm, base) => deliver(out, n, Valid::All, |p| !bm.get(base + p)),
            },
            other => unreachable!("{other:?} is not a predicate"),
        }
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
                probe,
                build,
                kind,
                filter,
                ..
            } => {
                if let Some(side) = filter.filter(|&side| plan.filter_site(side).is_none()) {
                    self.failure.get_or_insert_with(|| {
                        format!(
                            "operator {idx}: a {kind:?} join cannot filter its {side:?} side \
                             (its kind keeps that side's unmatched rows, or no repartition \
                             ships it)"
                        )
                    });
                }
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
