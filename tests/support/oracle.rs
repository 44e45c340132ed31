//! A reference evaluator for [`LogicalQuery`]: row at a time over
//! `Vec<Vec<Value>>`, equi-joins and groups through a `BTreeMap`, and a
//! scalar evaluator of its own for the 17 expression variants.
//!
//! It shares no code with the engine it checks: not its operators, its
//! compiled expressions, its exchange, its wire format or its planner, nor
//! its constant folding and LIKE matcher. It uses the engine's plan and
//! expression *types*, the TPC-H generator, and storage's scalar helpers
//! (Decimal promotion, calendar years). Where the engine's semantics are
//! not SQL's they are written down here from their definition: a
//! comparison with NULL is false (so `NOT` of one is true), division always
//! yields a float, and a predicate projected as a column is 1 or 0.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use hsqp::engine::expr::{ArithOp, CmpOp, Expr};
use hsqp::engine::logical::{LogicalPlan, LogicalQuery};
use hsqp::engine::plan::{AggFunc, AggSpec, JoinKind, MapExpr, SortKey};
use hsqp::storage::{decimal_to_f64, year_of_date, DataType, Field, Table, Value};
use hsqp::tpch::{TpchDb, TpchTable};

/// The static type of an expression: decides a CASE's result type, and is
/// what a compiled program's output must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Int,
    Float,
    Str,
    Bool,
}

fn ty_of(dtype: DataType) -> Ty {
    match dtype {
        DataType::Int64 | DataType::Date => Ty::Int,
        DataType::Decimal | DataType::Float64 => Ty::Float,
        DataType::Utf8 => Ty::Str,
    }
}

/// A relation: named, typed columns and rows of values. A Decimal is the
/// float it stands for (cents / 100); a date is its day number.
#[derive(Debug, Clone)]
pub struct Rel {
    pub cols: Vec<String>,
    pub types: Vec<Ty>,
    pub rows: Vec<Vec<Value>>,
}

impl Rel {
    /// The rows of `t`, its Decimal columns promoted.
    pub fn of_table(t: &Table) -> Rel {
        let fields = t.schema().fields();
        let rows = (0..t.rows())
            .map(|r| {
                let cell = |(c, f): (usize, &Field)| match (f.dtype, t.value(r, c)) {
                    (DataType::Decimal, Value::I64(cents)) => Value::F64(decimal_to_f64(cents)),
                    (_, v) => v,
                };
                fields.iter().enumerate().map(cell).collect()
            })
            .collect();
        Rel {
            cols: fields.iter().map(|f| f.name.clone()).collect(),
            types: fields.iter().map(|f| ty_of(f.dtype)).collect(),
            rows,
        }
    }

    fn index(&self, name: &str) -> usize {
        self.cols
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.cols))
    }

    /// Expressions over this relation's rows, with `params` bound.
    pub fn scope<'a>(&'a self, params: &'a [Value]) -> Scope<'a> {
        Scope { rel: self, params }
    }
}

// ---------------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------------

/// Evaluates expressions over rows of one relation.
pub struct Scope<'a> {
    rel: &'a Rel,
    params: &'a [Value],
}

fn num(v: &Value) -> f64 {
    match v {
        Value::I64(x) => *x as f64,
        Value::F64(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

/// How two values compare: integers as integers, strings by their bytes,
/// other numbers as floats (a NaN with nothing). NULL compares with nothing.
fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => None,
        (Value::I64(x), Value::I64(y)) => Some(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Some(x.as_bytes().cmp(y.as_bytes())),
        (x, y) => num(x).partial_cmp(&num(y)),
    }
}

fn satisfies(op: CmpOp, o: Ordering) -> bool {
    match op {
        CmpOp::Eq => o.is_eq(),
        CmpOp::Ne => o.is_ne(),
        CmpOp::Lt => o.is_lt(),
        CmpOp::Le => o.is_le(),
        CmpOp::Gt => o.is_gt(),
        CmpOp::Ge => o.is_ge(),
    }
}

fn arith(op: ArithOp, a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::I64(x), Value::I64(y)) if op != ArithOp::Div => Value::I64(match op {
            ArithOp::Add => x + y,
            ArithOp::Sub => x - y,
            ArithOp::Mul => x * y,
            ArithOp::Div => unreachable!(),
        }),
        (a, b) => {
            let (x, y) = (num(&a), num(&b));
            Value::F64(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            })
        }
    }
}

/// SQL LIKE with `%` as the only wildcard, over bytes: on a mismatch, let
/// the last `%` seen swallow one more byte and try again.
fn like(text: &[u8], pattern: &[u8]) -> bool {
    let (mut t, mut p) = (0, 0);
    let mut retry: Option<(usize, usize)> = None;
    while t < text.len() {
        if p < pattern.len() && pattern[p] == b'%' {
            retry = Some((p + 1, t));
            p += 1;
        } else if p < pattern.len() && pattern[p] == text[t] {
            p += 1;
            t += 1;
        } else if let Some((after, from)) = retry {
            retry = Some((after, from + 1));
            p = after;
            t = from + 1;
        } else {
            return false;
        }
    }
    pattern[p..].iter().all(|&c| c == b'%')
}

/// Bytes `start..start + len` (1-based) of `s`, clamped to its length; ""
/// when they do not form whole characters.
fn substr(s: &str, start: usize, len: usize) -> String {
    let bytes = s.as_bytes();
    let from = (start - 1).min(bytes.len());
    let to = (from + len).min(bytes.len());
    String::from_utf8(bytes[from..to].to_vec()).unwrap_or_default()
}

impl Scope<'_> {
    fn column(&self, name: &str) -> usize {
        self.rel.index(name)
    }

    /// The static type of `e`. A parameter is typed by its value, a NULL
    /// one as an integer.
    pub fn ty(&self, e: &Expr) -> Ty {
        match e {
            Expr::Col(name) => self.rel.types[self.column(name)],
            Expr::LitI64(_) | Expr::ExtractYear(_) => Ty::Int,
            Expr::LitF64(_) => Ty::Float,
            Expr::LitStr(_) | Expr::Substr(..) => Ty::Str,
            Expr::Param(i) => match &self.params[*i] {
                Value::Null | Value::I64(_) => Ty::Int,
                Value::F64(_) => Ty::Float,
                Value::Str(_) => Ty::Str,
            },
            Expr::Arith(op, a, b) => {
                let ints = self.ty(a) == Ty::Int && self.ty(b) == Ty::Int;
                if ints && *op != ArithOp::Div {
                    Ty::Int
                } else {
                    Ty::Float
                }
            }
            Expr::Case(_, then, els) => {
                if self.ty(then) == Ty::Int && self.ty(els) == Ty::Int {
                    Ty::Int
                } else {
                    Ty::Float
                }
            }
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Like(..)
            | Expr::InStr(..)
            | Expr::InI64(..)
            | Expr::IsNull(_) => Ty::Bool,
        }
    }

    /// The value of `e` on `row`; a predicate's is 1 or 0.
    pub fn value(&self, e: &Expr, row: &[Value]) -> Value {
        match e {
            Expr::Col(name) => row[self.column(name)].clone(),
            Expr::LitI64(v) => Value::I64(*v),
            Expr::LitF64(v) => Value::F64(*v),
            Expr::LitStr(s) => Value::Str(s.clone()),
            Expr::Param(i) => self.params[*i].clone(),
            Expr::Arith(op, a, b) => arith(*op, self.value(a, row), self.value(b, row)),
            Expr::Substr(c, start, len) => match self.value(c, row) {
                Value::Str(s) => Value::Str(substr(&s, *start, *len)),
                Value::Null => Value::Null,
                other => panic!("substring of {other:?}"),
            },
            Expr::ExtractYear(c) => match self.value(c, row) {
                Value::I64(days) => Value::I64(year_of_date(days)),
                Value::Null => Value::Null,
                other => panic!("year of {other:?}"),
            },
            Expr::Case(cond, then, els) => {
                let picked = if self.holds(cond, row) {
                    self.value(then, row)
                } else {
                    self.value(els, row)
                };
                match (self.ty(e), picked) {
                    (Ty::Float, Value::I64(x)) => Value::F64(x as f64),
                    (_, v) => v,
                }
            }
            _ => Value::I64(i64::from(self.holds(e, row))),
        }
    }

    /// Whether predicate `e` holds on `row`. Nothing NULL does.
    pub fn holds(&self, e: &Expr, row: &[Value]) -> bool {
        match e {
            Expr::Cmp(op, a, b) => {
                compare(&self.value(a, row), &self.value(b, row)).is_some_and(|o| satisfies(*op, o))
            }
            Expr::And(children) => children.iter().all(|c| self.holds(c, row)),
            Expr::Or(children) => children.iter().any(|c| self.holds(c, row)),
            Expr::Not(c) => !self.holds(c, row),
            Expr::Like(c, pattern) => {
                matches!(self.value(c, row), Value::Str(s) if like(s.as_bytes(), pattern.as_bytes()))
            }
            Expr::InStr(c, options) => {
                matches!(self.value(c, row), Value::Str(s) if options.contains(&s))
            }
            Expr::InI64(c, options) => {
                matches!(self.value(c, row), Value::I64(x) if options.contains(&x))
            }
            Expr::IsNull(c) => self.value(c, row).is_null(),
            other => panic!("not a predicate: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Keys: join equality and grouping
// ---------------------------------------------------------------------------

/// A value as a key. A float equal to an integer is that integer (so the
/// zeros are one key, and a Decimal meets the Int64 it equals); other
/// floats are their bits.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
}

impl Key {
    fn of(v: &Value) -> Key {
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        match v {
            Value::Null => Key::Null,
            Value::I64(x) => Key::Int(*x),
            Value::F64(f) if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(f) => {
                Key::Int(*f as i64)
            }
            Value::F64(f) => Key::Float(f.to_bits()),
            Value::Str(s) => Key::Str(s.clone()),
        }
    }
}

/// The key of `row` over columns `cols`; `None` when a part is NULL, which
/// never joins.
fn join_key(row: &[Value], cols: &[usize]) -> Option<Vec<Key>> {
    cols.iter()
        .map(|&c| Some(Key::of(&row[c])).filter(|k| *k != Key::Null))
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// One aggregate of one group, over the non-NULL inputs it has seen.
enum Acc {
    Sum(f64, u64),
    Count(i64),
    Distinct(BTreeSet<Key>),
    Best(Option<Value>, Ordering),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Sum | AggFunc::Avg => Acc::Sum(0.0, 0),
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountDistinct => Acc::Distinct(BTreeSet::new()),
            AggFunc::Min => Acc::Best(None, Ordering::Less),
            AggFunc::Max => Acc::Best(None, Ordering::Greater),
        }
    }

    fn add(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            Acc::Sum(sum, n) => {
                *sum += num(&v);
                *n += 1;
            }
            Acc::Count(n) => *n += 1,
            Acc::Distinct(seen) => {
                seen.insert(Key::of(&v));
            }
            Acc::Best(best, better) => {
                if best
                    .as_ref()
                    .is_none_or(|b| compare(&v, b) == Some(*better))
                {
                    *best = Some(v);
                }
            }
        }
    }

    fn finish(self, func: AggFunc) -> Value {
        match self {
            Acc::Sum(_, 0) => Value::Null,
            Acc::Sum(sum, n) if func == AggFunc::Avg => Value::F64(sum / n as f64),
            Acc::Sum(sum, _) => Value::F64(sum),
            Acc::Count(n) => Value::I64(n),
            Acc::Distinct(seen) => Value::I64(seen.len() as i64),
            Acc::Best(best, _) => best.unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// Plans and queries
// ---------------------------------------------------------------------------

/// NULL sorts last; a descending key reverses the whole order.
fn sort_order(a: &Value, b: &Value) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => compare(a, b).unwrap_or(Ordering::Equal),
    }
}

/// A query's answer, with what comparing another result to it needs to
/// know about its order.
pub struct Answer {
    pub rel: Rel,
    /// The result's sort keys as (column, descending); empty when its
    /// order is unspecified.
    pub order: Vec<(usize, bool)>,
    /// Whether a limit cut rows away: which of the rows tying with the last
    /// one on the sort keys are kept is then up to the sort.
    pub cut: bool,
}

/// The TPC-H relations, and the queries over them.
pub struct Oracle {
    tables: HashMap<TpchTable, Rel>,
}

impl Oracle {
    pub fn new(db: &TpchDb) -> Oracle {
        let tables = TpchTable::ALL
            .iter()
            .map(|&t| (t, Rel::of_table(db.table(t))))
            .collect();
        Oracle { tables }
    }

    /// The answer to `query`: its CTEs evaluated where they are scanned,
    /// each scalar stage's first row bound as parameters, the last stage's
    /// rows returned.
    pub fn answer(&self, query: &LogicalQuery) -> Answer {
        let mut run = Run {
            tables: &self.tables,
            ctes: query.ctes(),
            done: HashMap::new(),
            params: Vec::new(),
        };
        let (last, scalars) = query.stages().split_last().expect("a result stage");
        for stage in scalars {
            let rel = run.eval(stage);
            let row = rel.rows.first().expect("a parameter stage yields a row");
            run.params.extend(row.iter().cloned());
        }
        let (ordered, limit) = match last {
            LogicalPlan::Limit { input, n } => (&**input, Some(*n)),
            plan => (plan, None),
        };
        let mut rel = run.eval(ordered);
        let cut = limit.is_some_and(|n| rel.rows.len() > n);
        rel.rows.truncate(limit.unwrap_or(usize::MAX));
        let order = match ordered {
            LogicalPlan::Sort { keys, .. } => keys
                .iter()
                .map(|k| (rel.index(&k.column), k.desc))
                .collect(),
            _ => Vec::new(),
        };
        Answer { rel, order, cut }
    }
}

/// One evaluation of a query.
struct Run<'a> {
    tables: &'a HashMap<TpchTable, Rel>,
    ctes: &'a [(String, LogicalPlan)],
    done: HashMap<String, Rel>,
    params: Vec<Value>,
}

impl Run<'_> {
    fn eval(&mut self, plan: &LogicalPlan) -> Rel {
        match plan {
            LogicalPlan::Scan { table } => self.tables[table].clone(),
            LogicalPlan::CteScan { name } => {
                if !self.done.contains_key(name) {
                    let (_, cte) = self
                        .ctes
                        .iter()
                        .find(|(n, _)| n == name)
                        .unwrap_or_else(|| panic!("no CTE {name:?}"));
                    let rel = self.eval(cte);
                    self.done.insert(name.clone(), rel);
                }
                self.done[name].clone()
            }
            LogicalPlan::Filter { input, predicate } => {
                let mut rel = self.eval(input);
                let scope = rel.scope(&self.params);
                let keep: Vec<bool> = rel.rows.iter().map(|r| scope.holds(predicate, r)).collect();
                let mut keep = keep.into_iter();
                rel.rows.retain(|_| keep.next() == Some(true));
                rel
            }
            LogicalPlan::Project { input, outputs } => {
                let rel = self.eval(input);
                project(&rel, outputs, &self.params)
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                ..
            } => {
                let (probe, build) = (self.eval(left), self.eval(right));
                join(probe, &build, left_keys, right_keys, *kind)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let rel = self.eval(input);
                aggregate(&rel, group_by, aggs, &self.params)
            }
            LogicalPlan::Sort { input, keys } => {
                let mut rel = self.eval(input);
                sort(&mut rel, keys);
                rel
            }
            LogicalPlan::Limit { input, n } => {
                let mut rel = self.eval(input);
                rel.rows.truncate(*n);
                rel
            }
        }
    }
}

fn project(rel: &Rel, outputs: &[MapExpr], params: &[Value]) -> Rel {
    let scope = rel.scope(params);
    let types = outputs
        .iter()
        .map(|o| match scope.ty(&o.expr) {
            Ty::Bool => Ty::Int,
            ty => ty,
        })
        .collect();
    let rows = rel
        .rows
        .iter()
        .map(|r| outputs.iter().map(|o| scope.value(&o.expr, r)).collect())
        .collect();
    Rel {
        cols: outputs.iter().map(|o| o.name.clone()).collect(),
        types,
        rows,
    }
}

fn join(
    probe: Rel,
    build: &Rel,
    probe_keys: &[String],
    build_keys: &[String],
    kind: JoinKind,
) -> Rel {
    let pk: Vec<usize> = probe_keys.iter().map(|k| probe.index(k)).collect();
    let bk: Vec<usize> = build_keys.iter().map(|k| build.index(k)).collect();
    let mut table: BTreeMap<Vec<Key>, Vec<&[Value]>> = BTreeMap::new();
    for row in &build.rows {
        if let Some(key) = join_key(row, &bk) {
            table.entry(key).or_default().push(row);
        }
    }
    let widen = matches!(kind, JoinKind::Inner | JoinKind::LeftOuter);
    let mut rows = Vec::new();
    for row in probe.rows {
        let matches = join_key(&row, &pk)
            .and_then(|key| table.get(&key))
            .map_or(&[][..], Vec::as_slice);
        match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                for m in matches {
                    rows.push([&row[..], *m].concat());
                }
                if matches.is_empty() && kind == JoinKind::LeftOuter {
                    let nulls = vec![Value::Null; build.cols.len()];
                    rows.push([row, nulls].concat());
                }
            }
            JoinKind::LeftSemi if !matches.is_empty() => rows.push(row),
            JoinKind::LeftAnti if matches.is_empty() => rows.push(row),
            JoinKind::LeftSemi | JoinKind::LeftAnti => {}
        }
    }
    let (mut cols, mut types) = (probe.cols, probe.types);
    if widen {
        cols.extend(build.cols.iter().cloned());
        types.extend(&build.types);
    }
    Rel { cols, types, rows }
}

fn aggregate(rel: &Rel, group_by: &[String], aggs: &[AggSpec], params: &[Value]) -> Rel {
    let scope = rel.scope(params);
    let gk: Vec<usize> = group_by.iter().map(|g| rel.index(g)).collect();
    let mut ids: BTreeMap<Vec<Key>, usize> = BTreeMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
    let fresh = || aggs.iter().map(|a| Acc::new(a.func)).collect::<Vec<_>>();
    for row in &rel.rows {
        let key = gk.iter().map(|&c| Key::of(&row[c])).collect();
        let id = *ids.entry(key).or_insert_with(|| {
            groups.push((gk.iter().map(|&c| row[c].clone()).collect(), fresh()));
            groups.len() - 1
        });
        for (acc, a) in groups[id].1.iter_mut().zip(aggs) {
            acc.add(scope.value(&a.expr, row));
        }
    }
    // A global aggregate has one row, whatever its input.
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), fresh()));
    }
    let rows = groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(
                accs.into_iter()
                    .zip(aggs)
                    .map(|(acc, a)| acc.finish(a.func)),
            );
            key
        })
        .collect();
    let mut cols = group_by.to_vec();
    cols.extend(aggs.iter().map(|a| a.name.clone()));
    let mut types: Vec<Ty> = gk.iter().map(|&c| rel.types[c]).collect();
    types.extend(aggs.iter().map(|a| match a.func {
        AggFunc::Sum | AggFunc::Avg => Ty::Float,
        AggFunc::Count | AggFunc::CountDistinct => Ty::Int,
        AggFunc::Min | AggFunc::Max => scope.ty(&a.expr),
    }));
    Rel { cols, types, rows }
}

fn sort(rel: &mut Rel, keys: &[SortKey]) {
    let keys: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| (rel.index(&k.column), k.desc))
        .collect();
    rel.rows.sort_by(|a, b| {
        keys.iter()
            .map(|&(c, desc)| {
                let o = sort_order(&a[c], &b[c]);
                if desc {
                    o.reverse()
                } else {
                    o
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
}
