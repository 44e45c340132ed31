//! Versioned binary serialization of plans, stages, values, and tables —
//! the encoding the out-of-process coordinator ships to `hsqp-node`
//! processes.
//!
//! The format is deliberately explicit: every top-level envelope opens
//! with [`SERIAL_MAGIC`] and [`SERIAL_VERSION`], every enum variant is a
//! tag byte, every list a `u32` count, every string a `u32` length plus
//! UTF-8 bytes, all integers little-endian. Decoding validates tags,
//! lengths, and the version; schema drift between coordinator and node
//! builds fails loudly at decode time instead of silently mis-executing —
//! the same fail-loud stance `BoundProgram::bind` takes for compiled
//! expressions.
//!
//! Nodes receive *plans*, not compiled programs: expression compilation is
//! deterministic from the plan plus the (identical, generated) base-table
//! schemas, so each node compiles its own [`CompiledStage`] locally and
//! the wire format stays small and stable.
//!
//! [`CompiledStage`]: crate::vm::CompiledStage

use hsqp_storage::{DataType, Field, Schema, Table, Value};
use hsqp_tpch::TpchTable;

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::plan::{
    AggFunc, AggPhase, AggSpec, ExchangeKind, JoinKind, JoinSide, MapExpr, Plan, SortKey,
};
use crate::queries::{Query, QueryStage, StageRole};
use crate::wire::{RowDeserializer, RowSerializer};

/// Magic number opening every serialized envelope ("PLAN").
pub const SERIAL_MAGIC: u32 = 0x504C_414E;
/// Version of the plan encoding. Bump on any incompatible change — the
/// round-trip tests pin the format, and decode rejects mismatches.
/// v2 added the tenant / deadline tail to stage envelopes; v3 the side a
/// hash join filters; v4 dropped the tenant; v5 dropped the feedback
/// estimate.
pub const SERIAL_VERSION: u16 = 5;

/// How deeply plans and expressions may nest in what is decoded, counted
/// together: the decoder recurses once per level, so a forged input of a
/// few kilobytes could otherwise overflow the decoding thread's stack. The
/// deepest TPC-H stage nests about 20 levels.
const MAX_NESTING: usize = 256;

// ---------------------------------------------------------------------------
// Primitive writers / reader
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt<T: ?Sized>(out: &mut Vec<u8>, v: Option<&T>, enc: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            enc(out, x);
        }
    }
}

fn put_vec<T>(out: &mut Vec<u8>, items: &[T], mut enc: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for it in items {
        enc(out, it);
    }
}

pub(crate) fn put_strs(out: &mut Vec<u8>, items: &[String]) {
    put_vec(out, items, |o, s| put_str(o, s));
}

/// Cursor over an encoded buffer; every read validates bounds and tags.
pub(crate) struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Plans and expressions being decoded around the cursor.
    depth: usize,
}

pub(crate) type DecodeResult<T> = Result<T, String>;

impl<'a> Rd<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "truncated input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> DecodeResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    pub(crate) fn usize_val(&mut self) -> DecodeResult<usize> {
        Ok(self.u64()? as usize)
    }

    /// Consume and return every remaining byte (for trailing payloads that
    /// carry their own envelope, like an embedded table encoding).
    pub(crate) fn take_rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn opt<T>(
        &mut self,
        dec: impl FnOnce(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(dec(self)?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }

    pub(crate) fn vec<T>(
        &mut self,
        mut dec: impl FnMut(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Vec<T>> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos.min(self.buf.len()) {
            // Each element takes ≥ 1 byte; a count beyond the remaining
            // bytes is corrupt and must not drive a huge allocation.
            return Err(format!("corrupt list count {n}"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(dec(self)?);
        }
        Ok(out)
    }

    /// Decode one level of a recursive value with `dec`, failing past
    /// [`MAX_NESTING`] levels instead of recursing on.
    fn nested<T>(&mut self, dec: impl FnOnce(&mut Self) -> DecodeResult<T>) -> DecodeResult<T> {
        if self.depth == MAX_NESTING {
            return Err(format!("plan nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let out = dec(self);
        self.depth -= 1;
        out
    }

    pub(crate) fn strs(&mut self) -> DecodeResult<Vec<String>> {
        self.vec(|r| r.str())
    }

    pub(crate) fn finish(self) -> DecodeResult<()> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing byte(s) after a complete value",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn check_envelope(r: &mut Rd<'_>) -> DecodeResult<()> {
    let magic = r.u32()?;
    if magic != SERIAL_MAGIC {
        return Err(format!("bad plan-encoding magic {magic:#x}"));
    }
    let version = r.u16()?;
    if version != SERIAL_VERSION {
        return Err(format!(
            "plan-encoding version mismatch: got {version}, this build speaks {SERIAL_VERSION}"
        ));
    }
    Ok(())
}

fn envelope(out: &mut Vec<u8>) {
    put_u32(out, SERIAL_MAGIC);
    put_u16(out, SERIAL_VERSION);
}

// ---------------------------------------------------------------------------
// Leaf enums
// ---------------------------------------------------------------------------

fn enc_table_ref(out: &mut Vec<u8>, t: TpchTable) {
    put_str(out, t.name());
}

fn dec_table_ref(r: &mut Rd<'_>) -> DecodeResult<TpchTable> {
    let name = r.str()?;
    TpchTable::from_name(&name).ok_or_else(|| format!("unknown TPC-H table {name:?}"))
}

fn enc_dtype(out: &mut Vec<u8>, d: DataType) {
    put_u8(
        out,
        match d {
            DataType::Int64 => 0,
            DataType::Date => 1,
            DataType::Decimal => 2,
            DataType::Float64 => 3,
            DataType::Utf8 => 4,
        },
    );
}

fn dec_dtype(r: &mut Rd<'_>) -> DecodeResult<DataType> {
    Ok(match r.u8()? {
        0 => DataType::Int64,
        1 => DataType::Date,
        2 => DataType::Decimal,
        3 => DataType::Float64,
        4 => DataType::Utf8,
        t => return Err(format!("invalid DataType tag {t}")),
    })
}

fn enc_cmp(out: &mut Vec<u8>, op: CmpOp) {
    put_u8(
        out,
        match op {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        },
    );
}

fn dec_cmp(r: &mut Rd<'_>) -> DecodeResult<CmpOp> {
    Ok(match r.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(format!("invalid CmpOp tag {t}")),
    })
}

fn enc_arith(out: &mut Vec<u8>, op: ArithOp) {
    put_u8(
        out,
        match op {
            ArithOp::Add => 0,
            ArithOp::Sub => 1,
            ArithOp::Mul => 2,
            ArithOp::Div => 3,
        },
    );
}

fn dec_arith(r: &mut Rd<'_>) -> DecodeResult<ArithOp> {
    Ok(match r.u8()? {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        t => return Err(format!("invalid ArithOp tag {t}")),
    })
}

fn enc_join_kind(out: &mut Vec<u8>, k: JoinKind) {
    put_u8(
        out,
        match k {
            JoinKind::Inner => 0,
            JoinKind::LeftOuter => 1,
            JoinKind::LeftSemi => 2,
            JoinKind::LeftAnti => 3,
        },
    );
}

fn dec_join_kind(r: &mut Rd<'_>) -> DecodeResult<JoinKind> {
    Ok(match r.u8()? {
        0 => JoinKind::Inner,
        1 => JoinKind::LeftOuter,
        2 => JoinKind::LeftSemi,
        3 => JoinKind::LeftAnti,
        t => return Err(format!("invalid JoinKind tag {t}")),
    })
}

fn enc_join_side(out: &mut Vec<u8>, side: JoinSide) {
    put_u8(
        out,
        match side {
            JoinSide::Probe => 0,
            JoinSide::Build => 1,
        },
    );
}

fn dec_join_side(r: &mut Rd<'_>) -> DecodeResult<JoinSide> {
    Ok(match r.u8()? {
        0 => JoinSide::Probe,
        1 => JoinSide::Build,
        t => return Err(format!("invalid JoinSide tag {t}")),
    })
}

fn enc_agg_func(out: &mut Vec<u8>, f: AggFunc) {
    put_u8(
        out,
        match f {
            AggFunc::Sum => 0,
            AggFunc::Min => 1,
            AggFunc::Max => 2,
            AggFunc::Count => 3,
            AggFunc::CountDistinct => 4,
            AggFunc::Avg => 5,
        },
    );
}

fn dec_agg_func(r: &mut Rd<'_>) -> DecodeResult<AggFunc> {
    Ok(match r.u8()? {
        0 => AggFunc::Sum,
        1 => AggFunc::Min,
        2 => AggFunc::Max,
        3 => AggFunc::Count,
        4 => AggFunc::CountDistinct,
        5 => AggFunc::Avg,
        t => return Err(format!("invalid AggFunc tag {t}")),
    })
}

fn enc_agg_phase(out: &mut Vec<u8>, p: AggPhase) {
    put_u8(
        out,
        match p {
            AggPhase::Single => 0,
            AggPhase::Partial => 1,
            AggPhase::Final => 2,
        },
    );
}

fn dec_agg_phase(r: &mut Rd<'_>) -> DecodeResult<AggPhase> {
    Ok(match r.u8()? {
        0 => AggPhase::Single,
        1 => AggPhase::Partial,
        2 => AggPhase::Final,
        t => return Err(format!("invalid AggPhase tag {t}")),
    })
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn enc_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Col(name) => {
            put_u8(out, 0);
            put_str(out, name);
        }
        Expr::LitI64(v) => {
            put_u8(out, 1);
            put_i64(out, *v);
        }
        Expr::LitF64(v) => {
            put_u8(out, 2);
            put_f64(out, *v);
        }
        Expr::LitStr(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
        Expr::Param(i) => {
            put_u8(out, 4);
            put_u64(out, *i as u64);
        }
        Expr::Cmp(op, a, b) => {
            put_u8(out, 5);
            enc_cmp(out, *op);
            enc_expr(out, a);
            enc_expr(out, b);
        }
        Expr::And(children) => {
            put_u8(out, 6);
            put_vec(out, children, enc_expr);
        }
        Expr::Or(children) => {
            put_u8(out, 7);
            put_vec(out, children, enc_expr);
        }
        Expr::Not(a) => {
            put_u8(out, 8);
            enc_expr(out, a);
        }
        Expr::Arith(op, a, b) => {
            put_u8(out, 9);
            enc_arith(out, *op);
            enc_expr(out, a);
            enc_expr(out, b);
        }
        Expr::Like(a, pat) => {
            put_u8(out, 10);
            enc_expr(out, a);
            put_str(out, pat);
        }
        Expr::InStr(a, opts) => {
            put_u8(out, 11);
            enc_expr(out, a);
            put_strs(out, opts);
        }
        Expr::InI64(a, opts) => {
            put_u8(out, 12);
            enc_expr(out, a);
            put_vec(out, opts, |o, v| put_i64(o, *v));
        }
        Expr::Substr(a, start, len) => {
            put_u8(out, 13);
            enc_expr(out, a);
            put_u64(out, *start as u64);
            put_u64(out, *len as u64);
        }
        Expr::ExtractYear(a) => {
            put_u8(out, 14);
            enc_expr(out, a);
        }
        Expr::Case(cond, then, els) => {
            put_u8(out, 15);
            enc_expr(out, cond);
            enc_expr(out, then);
            enc_expr(out, els);
        }
        Expr::IsNull(a) => {
            put_u8(out, 16);
            enc_expr(out, a);
        }
    }
}

fn dec_expr(r: &mut Rd<'_>) -> DecodeResult<Expr> {
    r.nested(dec_expr_level)
}

fn dec_expr_level(r: &mut Rd<'_>) -> DecodeResult<Expr> {
    Ok(match r.u8()? {
        0 => Expr::Col(r.str()?),
        1 => Expr::LitI64(r.i64()?),
        2 => Expr::LitF64(r.f64()?),
        3 => Expr::LitStr(r.str()?),
        4 => Expr::Param(r.usize_val()?),
        5 => {
            let op = dec_cmp(r)?;
            let a = dec_expr(r)?;
            let b = dec_expr(r)?;
            Expr::Cmp(op, Box::new(a), Box::new(b))
        }
        6 => Expr::And(r.vec(dec_expr)?),
        7 => Expr::Or(r.vec(dec_expr)?),
        8 => Expr::Not(Box::new(dec_expr(r)?)),
        9 => {
            let op = dec_arith(r)?;
            let a = dec_expr(r)?;
            let b = dec_expr(r)?;
            Expr::Arith(op, Box::new(a), Box::new(b))
        }
        10 => {
            let a = dec_expr(r)?;
            Expr::Like(Box::new(a), r.str()?)
        }
        11 => {
            let a = dec_expr(r)?;
            Expr::InStr(Box::new(a), r.strs()?)
        }
        12 => {
            let a = dec_expr(r)?;
            Expr::InI64(Box::new(a), r.vec(|x| x.i64())?)
        }
        13 => {
            let a = dec_expr(r)?;
            let start = r.usize_val()?;
            let len = r.usize_val()?;
            Expr::Substr(Box::new(a), start, len)
        }
        14 => Expr::ExtractYear(Box::new(dec_expr(r)?)),
        15 => {
            let cond = dec_expr(r)?;
            let then = dec_expr(r)?;
            let els = dec_expr(r)?;
            Expr::Case(Box::new(cond), Box::new(then), Box::new(els))
        }
        16 => Expr::IsNull(Box::new(dec_expr(r)?)),
        t => return Err(format!("invalid Expr tag {t}")),
    })
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

fn enc_plan(out: &mut Vec<u8>, p: &Plan) {
    match p {
        Plan::Scan {
            table,
            filter,
            project,
        } => {
            put_u8(out, 0);
            enc_table_ref(out, *table);
            put_opt(out, filter.as_ref(), enc_expr);
            put_opt(out, project.as_ref(), |o, cols| put_strs(o, cols));
        }
        Plan::TempScan { name, project } => {
            put_u8(out, 1);
            put_str(out, name);
            put_opt(out, project.as_ref(), |o, cols| put_strs(o, cols));
        }
        Plan::Filter { input, predicate } => {
            put_u8(out, 2);
            enc_plan(out, input);
            enc_expr(out, predicate);
        }
        Plan::Map { input, outputs } => {
            put_u8(out, 3);
            enc_plan(out, input);
            put_vec(out, outputs, |o, m: &MapExpr| {
                put_str(o, &m.name);
                enc_expr(o, &m.expr);
                put_opt(o, m.dtype.as_ref(), |o2, d| enc_dtype(o2, *d));
            });
        }
        Plan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            kind,
            filter,
        } => {
            put_u8(out, 4);
            enc_plan(out, probe);
            enc_plan(out, build);
            put_strs(out, probe_keys);
            put_strs(out, build_keys);
            enc_join_kind(out, *kind);
            put_opt(out, filter.as_ref(), |o, side| enc_join_side(o, *side));
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            phase,
        } => {
            put_u8(out, 5);
            enc_plan(out, input);
            put_strs(out, group_by);
            put_vec(out, aggs, |o, a: &AggSpec| {
                enc_agg_func(o, a.func);
                enc_expr(o, &a.expr);
                put_str(o, &a.name);
            });
            enc_agg_phase(out, *phase);
        }
        Plan::Sort { input, keys, limit } => {
            put_u8(out, 6);
            enc_plan(out, input);
            put_vec(out, keys, |o, k: &SortKey| {
                put_str(o, &k.column);
                put_u8(o, k.desc as u8);
            });
            put_opt(out, limit.as_ref(), |o, l| put_u64(o, *l as u64));
        }
        Plan::Exchange { input, kind } => {
            put_u8(out, 7);
            enc_plan(out, input);
            match kind {
                ExchangeKind::HashPartition(cols) => {
                    put_u8(out, 0);
                    put_strs(out, cols);
                }
                ExchangeKind::Broadcast => put_u8(out, 1),
                ExchangeKind::Gather => put_u8(out, 2),
            }
        }
    }
}

fn dec_plan(r: &mut Rd<'_>) -> DecodeResult<Plan> {
    r.nested(dec_plan_level)
}

fn dec_plan_level(r: &mut Rd<'_>) -> DecodeResult<Plan> {
    Ok(match r.u8()? {
        0 => Plan::Scan {
            table: dec_table_ref(r)?,
            filter: r.opt(dec_expr)?,
            project: r.opt(|x| x.strs())?,
        },
        1 => Plan::TempScan {
            name: r.str()?,
            project: r.opt(|x| x.strs())?,
        },
        2 => Plan::Filter {
            input: Box::new(dec_plan(r)?),
            predicate: dec_expr(r)?,
        },
        3 => Plan::Map {
            input: Box::new(dec_plan(r)?),
            outputs: r.vec(|x| {
                Ok(MapExpr {
                    name: x.str()?,
                    expr: dec_expr(x)?,
                    dtype: x.opt(dec_dtype)?,
                })
            })?,
        },
        4 => Plan::HashJoin {
            probe: Box::new(dec_plan(r)?),
            build: Box::new(dec_plan(r)?),
            probe_keys: r.strs()?,
            build_keys: r.strs()?,
            kind: dec_join_kind(r)?,
            filter: r.opt(dec_join_side)?,
        },
        5 => Plan::Aggregate {
            input: Box::new(dec_plan(r)?),
            group_by: r.strs()?,
            aggs: r.vec(|x| {
                Ok(AggSpec {
                    func: dec_agg_func(x)?,
                    expr: dec_expr(x)?,
                    name: x.str()?,
                })
            })?,
            phase: dec_agg_phase(r)?,
        },
        6 => Plan::Sort {
            input: Box::new(dec_plan(r)?),
            keys: r.vec(|x| {
                Ok(SortKey {
                    column: x.str()?,
                    desc: x.u8()? != 0,
                })
            })?,
            limit: r.opt(|x| x.usize_val())?,
        },
        7 => {
            let input = Box::new(dec_plan(r)?);
            let kind = match r.u8()? {
                0 => ExchangeKind::HashPartition(r.strs()?),
                1 => ExchangeKind::Broadcast,
                2 => ExchangeKind::Gather,
                t => return Err(format!("invalid ExchangeKind tag {t}")),
            };
            Plan::Exchange { input, kind }
        }
        t => return Err(format!("invalid Plan tag {t}")),
    })
}

// ---------------------------------------------------------------------------
// Stages and queries
// ---------------------------------------------------------------------------

fn enc_role(out: &mut Vec<u8>, role: &StageRole) {
    match role {
        StageRole::Params => put_u8(out, 0),
        StageRole::Materialize(name) => {
            put_u8(out, 1);
            put_str(out, name);
        }
        StageRole::Result => put_u8(out, 2),
    }
}

fn dec_role(r: &mut Rd<'_>) -> DecodeResult<StageRole> {
    Ok(match r.u8()? {
        0 => StageRole::Params,
        1 => StageRole::Materialize(r.str()?),
        2 => StageRole::Result,
        t => return Err(format!("invalid StageRole tag {t}")),
    })
}

fn enc_stage_body(out: &mut Vec<u8>, stage: &QueryStage) {
    enc_plan(out, &stage.plan);
    enc_role(out, &stage.role);
    put_opt(out, stage.estimated_rows.as_ref(), |o, v| put_f64(o, *v));
}

fn dec_stage_body(r: &mut Rd<'_>) -> DecodeResult<QueryStage> {
    Ok(QueryStage {
        plan: dec_plan(r)?,
        role: dec_role(r)?,
        estimated_rows: r.opt(|x| x.f64())?,
    })
}

/// Encode one query stage with the microseconds left of its query's
/// deadline, if it has one (the unit the coordinator ships per `Stage`
/// command; a budget, because the nodes' clocks are not the
/// coordinator's).
pub fn encode_stage(stage: &QueryStage, deadline_us: Option<u64>) -> Vec<u8> {
    let mut out = Vec::new();
    envelope(&mut out);
    enc_stage_body(&mut out, stage);
    put_opt(&mut out, deadline_us.as_ref(), |o, v| put_u64(o, *v));
    out
}

/// Decode one query stage and its deadline budget (inverse of
/// [`encode_stage`]); rejects version skew, unknown tags, truncated input,
/// and trailing garbage.
pub fn decode_stage(buf: &[u8]) -> DecodeResult<(QueryStage, Option<u64>)> {
    let mut r = Rd::new(buf);
    check_envelope(&mut r)?;
    let stage = dec_stage_body(&mut r)?;
    let deadline_us = r.opt(|x| x.u64())?;
    r.finish()?;
    Ok((stage, deadline_us))
}

/// Encode a whole multi-stage query.
pub fn encode_query(q: &Query) -> Vec<u8> {
    let mut out = Vec::new();
    envelope(&mut out);
    put_u32(&mut out, q.number);
    put_vec(&mut out, &q.stages, enc_stage_body);
    out
}

/// Decode a whole multi-stage query (inverse of [`encode_query`]).
pub fn decode_query(buf: &[u8]) -> DecodeResult<Query> {
    let mut r = Rd::new(buf);
    check_envelope(&mut r)?;
    let number = r.u32()?;
    let stages = r.vec(dec_stage_body)?;
    r.finish()?;
    Ok(Query { stages, number })
}

// ---------------------------------------------------------------------------
// Values, schemas, tables
// ---------------------------------------------------------------------------

fn enc_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::I64(x) => {
            put_u8(out, 1);
            put_i64(out, *x);
        }
        Value::F64(x) => {
            put_u8(out, 2);
            put_f64(out, *x);
        }
        Value::Str(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
    }
}

fn dec_value(r: &mut Rd<'_>) -> DecodeResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::I64(r.i64()?),
        2 => Value::F64(r.f64()?),
        3 => Value::Str(r.str()?),
        t => return Err(format!("invalid Value tag {t}")),
    })
}

/// Encode a list of scalar values (bound query parameters).
pub fn encode_values(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    put_vec(&mut out, values, enc_value);
    out
}

/// Decode a list of scalar values from the front of `r`-style buffer.
pub fn decode_values(buf: &[u8]) -> DecodeResult<Vec<Value>> {
    let mut r = Rd::new(buf);
    let vals = r.vec(dec_value)?;
    r.finish()?;
    Ok(vals)
}

fn enc_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_vec(out, schema.fields(), |o, f: &Field| {
        put_str(o, &f.name);
        enc_dtype(o, f.dtype);
        put_u8(o, f.nullable as u8);
    });
}

fn dec_schema(r: &mut Rd<'_>) -> DecodeResult<Schema> {
    let fields = r.vec(|x| {
        let name = x.str()?;
        let dtype = dec_dtype(x)?;
        let nullable = x.u8()? != 0;
        Ok(if nullable {
            Field::nullable(name, dtype)
        } else {
            Field::new(name, dtype)
        })
    })?;
    Ok(Schema::new(fields))
}

/// Encode a whole table: schema, row count, then the rows as one chunk of
/// the engine's exchange format ([`crate::wire`]). Used to ship stage
/// results and parameter tables between node processes and the
/// coordinator.
pub fn encode_table(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    enc_table(&mut out, table);
    out
}

/// [`encode_table`] appended to `out`: lets a caller that frames the table
/// (a `StageDone` reply) encode it where it will be sent from instead of
/// copying a temporary.
pub(crate) fn enc_table(out: &mut Vec<u8>, table: &Table) {
    enc_schema(out, table.schema());
    put_u64(out, table.rows() as u64);
    let ser = RowSerializer::new(table.schema());
    ser.serialize_range(table, 0..table.rows(), out);
}

/// Decode a table produced by [`encode_table`].
pub fn decode_table(buf: &[u8]) -> DecodeResult<Table> {
    let mut r = Rd::new(buf);
    let schema = dec_schema(&mut r)?;
    let rows = r.u64()? as usize;
    let rest = &r.buf[r.pos..];
    let table = RowDeserializer::new(&schema)
        .decode(rest)
        .map_err(|e| format!("table rows: {e}"))?;
    if table.rows() != rows {
        return Err(format!(
            "table decoded to {} rows, header said {rows}",
            table.rows()
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};
    use crate::queries::{tpch_logical, Query};

    /// TPC-H query `n` as the planner lowers it for four nodes.
    fn planned(n: u32) -> Query {
        let logical = tpch_logical(n).expect("query number");
        Planner::new(PlannerConfig::new(4))
            .plan_query(&logical)
            .expect("builder query plans")
    }

    #[test]
    fn all_22_planned_tpch_queries_roundtrip() {
        for n in 1..=22 {
            let q = planned(n);
            let bytes = encode_query(&q);
            let back = decode_query(&bytes).expect("decode");
            assert_eq!(q, back, "Q{n} did not survive the round trip");
        }
    }

    #[test]
    fn join_filters_roundtrip() {
        use crate::plan::JoinSide;
        for filter in [None, Some(JoinSide::Probe), Some(JoinSide::Build)] {
            let mut plan = Plan::scan(TpchTable::Lineitem)
                .repartition(&["l_orderkey"])
                .join(
                    Plan::scan(TpchTable::Orders).repartition(&["o_orderkey"]),
                    &["l_orderkey"],
                    &["o_orderkey"],
                    JoinKind::Inner,
                );
            if let Plan::HashJoin { filter: f, .. } = &mut plan {
                *f = filter;
            }
            let q = Query::single(0, plan);
            assert_eq!(decode_query(&encode_query(&q)).unwrap(), q, "{filter:?}");
        }
    }

    /// A stage envelope and a query envelope around a plan of `levels`
    /// nested `Filter`s, and the two around a scan filtered by `levels`
    /// nested `NOT`s.
    fn nested(levels: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut filters = vec![2u8; levels];
        filters.push(0);
        enc_table_ref(&mut filters, TpchTable::Nation);
        filters.extend([0, 0]);
        let mut nots = vec![0u8];
        enc_table_ref(&mut nots, TpchTable::Nation);
        put_u8(&mut nots, 1);
        nots.extend(std::iter::repeat_n(8u8, levels));
        [filters, nots]
            .into_iter()
            .map(|plan| {
                let mut stage = Vec::new();
                envelope(&mut stage);
                stage.extend_from_slice(&plan);
                let mut query = Vec::new();
                envelope(&mut query);
                put_u32(&mut query, 1);
                put_u32(&mut query, 1);
                query.extend_from_slice(&plan);
                (stage, query)
            })
            .collect()
    }

    /// A forged plan nested 3 000 levels deep, 3 KB of input: decoding
    /// recursed once per level and overflowed the 2 MiB stack of a thread
    /// like the node server's. It must stop at `MAX_NESTING` levels with
    /// an error, through both entry points a node decodes with.
    #[test]
    fn plans_nested_past_the_bound_are_errors_not_overflows() {
        std::thread::spawn(|| {
            for (stage, query) in nested(3_000) {
                for err in [
                    decode_stage(&stage).map(|_| ()).unwrap_err(),
                    decode_query(&query).map(|_| ()).unwrap_err(),
                ] {
                    assert!(err.contains("nested deeper"), "unexpected error: {err}");
                }
            }
        })
        .join()
        .expect("decoding returned an error");
    }

    /// Plans right at the bound still decode: `MAX_NESTING - 2` filters
    /// over a scan, where the innermost filter's comparison of a column
    /// with a literal reaches the bound.
    #[test]
    fn plans_nested_to_the_bound_decode() {
        use crate::expr::{col, lit};
        let deep = |filters: usize| {
            let plan = (0..filters).fold(Plan::scan(TpchTable::Nation), |p, _| {
                p.filter(col("n_nationkey").lt(lit(1)))
            });
            encode_query(&Query::single(0, plan))
        };
        decode_query(&deep(MAX_NESTING - 2)).unwrap();
        assert!(decode_query(&deep(MAX_NESTING - 1))
            .unwrap_err()
            .contains("nested deeper"));
    }

    #[test]
    fn stages_roundtrip_with_and_without_a_deadline() {
        let q = planned(6);
        let stage = &q.stages[0];
        for deadline_us in [None, Some(0), Some(1_500_000), Some(u64::MAX)] {
            let (back, budget) = decode_stage(&encode_stage(stage, deadline_us)).unwrap();
            assert_eq!((&back, budget), (stage, deadline_us));
        }
    }

    /// Every stage of the 22 TPC-H queries as planned for two nodes at
    /// SF 0.01, encoded as the coordinator ships it: whole, it decodes to
    /// itself; cut short at any length it is an error; with any one byte
    /// set to 0x00 or 0xFF or its low bit flipped it decodes or is an
    /// error, and never panics. On a thread with the node server's 2 MiB
    /// stack, where a node decodes what it is sent.
    #[test]
    fn stages_decode_whole_and_every_cut_or_forged_byte_is_handled() {
        on_small_stack(|| {
            let planner = Planner::for_tpch(2, 0.01, |_| None);
            for n in 1..=22 {
                let q = planner.plan_query(&tpch_logical(n).unwrap()).unwrap();
                for (s, stage) in q.stages.iter().enumerate() {
                    sweep(
                        &format!("Q{n} stage {s}"),
                        &encode_stage(stage, Some(1_500_000)),
                        stage,
                        |b| decode_stage(b).map(|(stage, _)| stage),
                    );
                }
            }
        });
    }

    /// The same sweep over the 22 queries encoded whole, which share the
    /// stage body with [`encode_stage`].
    #[test]
    fn queries_decode_whole_and_every_cut_or_forged_byte_is_handled() {
        on_small_stack(|| {
            let planner = Planner::for_tpch(2, 0.01, |_| None);
            for n in 1..=22 {
                let q = planner.plan_query(&tpch_logical(n).unwrap()).unwrap();
                sweep(&format!("Q{n}"), &encode_query(&q), &q, decode_query);
            }
        });
    }

    /// `bytes` decodes whole to `expected`, every cut of it is an error,
    /// and no forged byte panics the decoder.
    fn sweep<T: PartialEq + std::fmt::Debug>(
        what: &str,
        bytes: &[u8],
        expected: &T,
        decode: impl Fn(&[u8]) -> DecodeResult<T>,
    ) {
        assert_eq!(decode(bytes).unwrap(), *expected, "{what}");
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "{what} cut to {len} of {} bytes decoded",
                bytes.len()
            );
        }
        let mut forged = bytes.to_vec();
        for (i, &byte) in bytes.iter().enumerate() {
            for b in [0x00, 0xFF, byte ^ 0x01] {
                forged[i] = b;
                let decoded =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&forged)));
                assert!(
                    decoded.is_ok(),
                    "{what}: byte {i} set to {b:#04x} panicked the decoder"
                );
            }
            forged[i] = byte;
        }
    }

    /// Run `f` on a thread with the node server's 2 MiB stack, where a node
    /// decodes what it is sent.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .expect("the sweep finished");
    }

    #[test]
    fn version_mismatch_fails_loudly() {
        let q = planned(1);
        let mut bytes = encode_query(&q);
        bytes[4] = 0xFF; // corrupt the version field
        let err = decode_query(&bytes).unwrap_err();
        assert!(err.contains("version mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn corrupt_magic_and_truncation_fail() {
        let q = planned(3);
        let mut bytes = encode_query(&q);
        bytes[0] ^= 0xFF;
        assert!(decode_query(&bytes).unwrap_err().contains("magic"));
        let bytes = encode_query(&q);
        assert!(decode_query(&bytes[..bytes.len() - 3]).is_err());
        // Trailing garbage is rejected too.
        let mut bytes = encode_query(&q);
        bytes.push(0);
        assert!(decode_query(&bytes).unwrap_err().contains("trailing"));
    }

    #[test]
    fn values_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::I64(-42),
            Value::F64(3.25),
            Value::Str("acid green".into()),
        ];
        assert_eq!(decode_values(&encode_values(&vals)).unwrap(), vals);
    }

    #[test]
    fn corrupt_table_rows_are_an_error_not_a_panic() {
        let db = hsqp_tpch::TpchDb::generate(0.001);
        let bytes = encode_table(db.table(hsqp_tpch::TpchTable::Nation));
        // A `StageDone` body cut short, or with a byte of a name flipped
        // into invalid UTF-8, must come back as `Err` to the coordinator.
        let err = decode_table(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(err.contains("truncated"), "unexpected error: {err}");
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() = 0xFF;
        let err = decode_table(&bad).unwrap_err();
        assert!(err.contains("UTF-8"), "unexpected error: {err}");
    }

    #[test]
    fn tables_roundtrip() {
        let db = hsqp_tpch::TpchDb::generate(0.001);
        for (kind, table) in db.into_tables() {
            let back = decode_table(&encode_table(&table)).expect("decode table");
            assert_eq!(back.schema(), table.schema(), "{kind:?} schema");
            assert_eq!(back.rows(), table.rows(), "{kind:?} rows");
            for row in [0, table.rows() / 2, table.rows().saturating_sub(1)] {
                for col in 0..table.schema().len() {
                    assert_eq!(back.value(row, col), table.value(row, col));
                }
            }
        }
    }
}
