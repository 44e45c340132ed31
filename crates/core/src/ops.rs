//! Relational operators: hash join, hash aggregation, sort.
//!
//! Operators are morsel-parallel: probe/aggregation input is split into
//! morsels claimed dynamically by workers ([`crate::local::MorselDriver`]),
//! worker-local results are merged at the pipeline breaker — the HyPer
//! execution model the paper builds on.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use hsqp_storage::{decimal_to_f64, Bitmap, Column, DataType, Field, Schema, Table, Value};

use crate::expr::{eval, EvalVec, VecData};
use crate::local::MorselDriver;
use crate::plan::{AggFunc, AggPhase, AggSpec, JoinKind, SortKey};
use crate::serve::CancelToken;
use crate::vm::{BoundProgram, ExprProgram};

/// Rows a sequential operator loop processes between cancellation checks.
/// Smaller than the morsel-loop interval because hash-table builds cost
/// more per row than streaming loops.
const CANCEL_CHECK_ROWS: usize = 1024;

/// Morsel-loop cancellation point: panic out of the operator (to the
/// per-query containment net) once the query's token has tripped.
#[inline]
fn check_cancel(cancel: Option<&CancelToken>) {
    if let Some(token) = cancel {
        token.check_morsel();
    }
}

/// A fast, non-cryptographic hasher for join/aggregation keys (FxHash's
/// multiply-xor scheme; HashDoS is not a concern inside a query engine).
///
/// std's `HashMap` (hashbrown) consumes a hash at both ends: the **low**
/// bits pick the bucket group a probe starts at, the **top 7** bits are
/// the control tag compared before any key is. The per-word step
/// `(h.rotl(5) ^ v) * SEED` only ever carries entropy *upwards* — the low
/// `k` bits of a product depend on the low `k` bits of its factors alone —
/// while the engine's keys keep theirs at the top: an Int64 join key is
/// canonicalised to its f64 bit pattern ([`join_key_of`]), whose low ~36
/// bits are zero for every TPC-H-sized integer, and Float64 group and
/// count-distinct keys are raw `to_bits()` ([`key_of`]). Returning the
/// state as it stands put all such keys into one probe chain (a join build
/// quadratic in its rows). [`finish`](Hasher::finish) therefore folds:
/// the high half onto the low half, a multiply that carries the result
/// back up to the tag bits, and a second downward fold — every input bit
/// reaches both ends. (`h ^ (h >> 32)` alone is not enough: bits 32..36
/// of those f64 patterns are zero too, which leaves 2 048 distinct values
/// in the low 16 bits of 65 536 consecutive keys.)
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Multiplier of the finishing fold (2^64 / φ, odd).
const FOLD: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        let h = (self.hash ^ (self.hash >> 32)).wrapping_mul(FOLD);
        h ^ (h >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    // One multiply round per integer, whatever its width: the derived
    // `Hash` of a `Key` writes a `usize` length prefix and an `isize`
    // discriminant per part (both arrive at `write_usize`), a `u8`
    // terminator per string, and only then the `u64`/`i64` payloads.
    // Without these the provided methods feed each integer to `write`
    // byte by byte, eight rounds apiece.

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` with the engine hasher.
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the engine hasher.
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// One component of a composite join/group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPart {
    /// Integer-backed key (ints, dates, decimals in cents).
    I64(i64),
    /// Canonical f64 bit pattern (see [`canon_f64_bits`]): the numeric
    /// join-key domain, so Int64, Float64, and promoted Decimal keys
    /// holding the same logical value compare equal.
    F64(u64),
    /// String key.
    Str(Box<str>),
    /// NULL key component (groups NULLs together, SQL GROUP BY semantics).
    Null,
}

/// A composite key.
pub type Key = Vec<KeyPart>;

/// Extract the key of row `row` from `columns`.
pub fn key_of(columns: &[&Column], row: usize) -> Key {
    columns
        .iter()
        .map(|c| {
            if !c.is_valid(row) {
                KeyPart::Null
            } else {
                match c {
                    Column::I64(v, _) => KeyPart::I64(v[row]),
                    Column::F64(v, _) => KeyPart::I64(v[row].to_bits() as i64),
                    Column::Str(v, _) => KeyPart::Str(v.get(row).into()),
                }
            }
        })
        .collect()
}

// Canonical numeric-key helpers live next to the placement hash in
// `hsqp_storage` so that table placement and exchange partitioning cannot
// diverge; re-exported here because they define the `KeyPart::F64` domain.
pub use hsqp_storage::placement::{canon_f64_bits, i64_as_f64_exact};

/// A join-key column plus its canonicalization flag: `true` promotes a
/// fixed-point Decimal (i64 cents) to its logical f64 value — the same
/// promotion expression evaluation applies — so a Decimal key equi-joins
/// against Float64 keys (aggregate outputs, computed expressions) *by
/// value* instead of silently matching nothing on raw bit patterns.
pub type JoinKeyCol<'a> = (&'a Column, bool);

/// Resolve the join-key columns of `table`, flagging Decimal columns for
/// canonical promotion.
pub fn join_key_cols<'t>(table: &'t Table, key_cols: &[usize]) -> Vec<JoinKeyCol<'t>> {
    key_cols
        .iter()
        .map(|&i| {
            (
                table.column(i),
                table.schema().fields()[i].dtype == DataType::Decimal,
            )
        })
        .collect()
}

/// Extract the canonicalized join key of row `row`.
pub fn join_key_of(columns: &[JoinKeyCol<'_>], row: usize) -> Key {
    columns
        .iter()
        .map(|&(c, promote)| {
            if !c.is_valid(row) {
                KeyPart::Null
            } else {
                match c {
                    Column::I64(v, _) if promote => {
                        KeyPart::F64(canon_f64_bits(decimal_to_f64(v[row])))
                    }
                    // Int64 keys join the numeric f64 domain when exactly
                    // representable; the rest keep their integer identity
                    // (no f64 can equal them by value anyway).
                    Column::I64(v, _) => match i64_as_f64_exact(v[row]) {
                        Some(f) => KeyPart::F64(canon_f64_bits(f)),
                        None => KeyPart::I64(v[row]),
                    },
                    Column::F64(v, _) => KeyPart::F64(canon_f64_bits(v[row])),
                    Column::Str(v, _) => KeyPart::Str(v.get(row).into()),
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// A materialized join hash table over the build side.
///
/// Keys are canonicalized by logical type (see [`join_key_of`]), so mixed
/// Decimal/Float64 key pairs join by value. The build side is held behind
/// an `Arc` so a shared temp relation (a materialized CTE) can back the
/// hash table without being deep-copied.
pub struct JoinTable {
    build: Arc<Table>,
    index: FxMap<Key, Vec<u32>>,
}

impl JoinTable {
    /// Build the hash table from `build` keyed by `key_cols`.
    pub fn build(build: impl Into<Arc<Table>>, key_cols: &[usize]) -> Self {
        Self::build_cancellable(build, key_cols, None)
    }

    /// [`build`](Self::build) with a cooperative cancellation point every
    /// `CANCEL_CHECK_ROWS` build rows, so cancelling a query mid-build
    /// does not wait out the whole hash-table construction.
    pub fn build_cancellable(
        build: impl Into<Arc<Table>>,
        key_cols: &[usize],
        cancel: Option<&CancelToken>,
    ) -> Self {
        let build = build.into();
        let mut index: FxMap<Key, Vec<u32>> = FxMap::default();
        {
            let cols = join_key_cols(&build, key_cols);
            for row in 0..build.rows() {
                if row % CANCEL_CHECK_ROWS == 0 {
                    check_cancel(cancel);
                }
                let key = join_key_of(&cols, row);
                if key.contains(&KeyPart::Null) {
                    continue; // NULL keys never join
                }
                index.entry(key).or_default().push(row as u32);
            }
        }
        Self { build, index }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.index.len()
    }

    /// The build-side table.
    pub fn build_side(&self) -> &Table {
        &self.build
    }
}

/// Output schema of a join.
pub fn join_schema(probe: &Schema, build: &Schema, kind: JoinKind) -> Schema {
    match kind {
        JoinKind::LeftSemi | JoinKind::LeftAnti => probe.clone(),
        JoinKind::Inner | JoinKind::LeftOuter => {
            let mut fields: Vec<Field> = probe.fields().to_vec();
            for f in build.fields() {
                assert!(
                    probe.fields().iter().all(|p| p.name != f.name),
                    "duplicate column {:?} across join sides",
                    f.name
                );
                let mut f = f.clone();
                if kind == JoinKind::LeftOuter {
                    f.nullable = true;
                }
                fields.push(f);
            }
            Schema::new(fields)
        }
    }
}

/// Probe `probe` against `table`, morsel-parallel, producing the joined
/// result. Each morsel is a cooperative cancellation point when a token
/// is supplied.
pub fn probe_join(
    probe: &Table,
    table: &JoinTable,
    probe_key_cols: &[usize],
    kind: JoinKind,
    driver: &MorselDriver,
    cancel: Option<&CancelToken>,
) -> Table {
    let out_schema = join_schema(probe.schema(), table.build.schema(), kind);
    let cols = join_key_cols(probe, probe_key_cols);

    let parts = driver.run(
        probe.rows(),
        |_| (Vec::<usize>::new(), Vec::<Option<u32>>::new()),
        |(probe_idx, build_idx), _, m| {
            check_cancel(cancel);
            for row in m.range() {
                let key = join_key_of(&cols, row);
                let matches = if key.contains(&KeyPart::Null) {
                    None
                } else {
                    table.index.get(&key)
                };
                match kind {
                    JoinKind::Inner => {
                        if let Some(rows) = matches {
                            for &b in rows {
                                probe_idx.push(row);
                                build_idx.push(Some(b));
                            }
                        }
                    }
                    JoinKind::LeftOuter => match matches {
                        Some(rows) => {
                            for &b in rows {
                                probe_idx.push(row);
                                build_idx.push(Some(b));
                            }
                        }
                        None => {
                            probe_idx.push(row);
                            build_idx.push(None);
                        }
                    },
                    JoinKind::LeftSemi => {
                        if matches.is_some() {
                            probe_idx.push(row);
                        }
                    }
                    JoinKind::LeftAnti => {
                        if matches.is_none() {
                            probe_idx.push(row);
                        }
                    }
                }
            }
        },
    );

    let mut out = Table::empty(out_schema);
    for (probe_idx, build_idx) in parts {
        if probe_idx.is_empty() {
            continue;
        }
        let left = probe.gather(&probe_idx);
        let piece = match kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => left,
            JoinKind::Inner | JoinKind::LeftOuter => {
                let right = gather_optional(&table.build, &build_idx);
                let mut cols = left.columns().to_vec();
                cols.extend(right);
                Table::new(out.schema().clone(), cols)
            }
        };
        out.append(&piece);
    }
    out
}

/// Gather build rows where `idx[i]` may be None (left-outer miss → NULL row).
fn gather_optional(build: &Table, idx: &[Option<u32>]) -> Vec<Column> {
    if idx.iter().all(Option::is_some) {
        let dense: Vec<usize> = idx.iter().map(|i| i.expect("checked") as usize).collect();
        return build.gather(&dense).columns().to_vec();
    }
    let validity: Bitmap = idx.iter().map(Option::is_some).collect();
    let dense: Vec<usize> = idx.iter().map(|i| i.unwrap_or(0) as usize).collect();
    build
        .gather(&dense)
        .columns()
        .iter()
        .map(|c| match c.clone() {
            Column::I64(v, _) => Column::I64(v, Some(validity.clone())),
            Column::F64(v, _) => Column::F64(v, Some(validity.clone())),
            Column::Str(v, _) => Column::Str(v, Some(validity.clone())),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AggState {
    Sum { sum: f64, any: bool },
    Count(i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, cnt: i64 },
    Distinct(FxSet<KeyPart>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                any: false,
            },
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, cnt: 0 },
            AggFunc::CountDistinct => AggState::Distinct(FxSet::default()),
        }
    }

    fn update(&mut self, v: &EvalVec, row: usize) {
        if !v.is_valid(row) {
            return; // SQL aggregates skip NULLs
        }
        match self {
            AggState::Sum { sum, any } => {
                *sum += numeric(v, row);
                *any = true;
            }
            AggState::Count(c) => *c += 1,
            AggState::Min(cur) => {
                let val = v.value(row);
                if cur.as_ref().is_none_or(|c| value_lt(&val, c)) {
                    *cur = Some(val);
                }
            }
            AggState::Max(cur) => {
                let val = v.value(row);
                if cur.as_ref().is_none_or(|c| value_lt(c, &val)) {
                    *cur = Some(val);
                }
            }
            AggState::Avg { sum, cnt } => {
                *sum += numeric(v, row);
                *cnt += 1;
            }
            AggState::Distinct(set) => {
                let part = match &v.data {
                    VecData::I64(d) => KeyPart::I64(d[row]),
                    VecData::F64(d) => KeyPart::I64(d[row].to_bits() as i64),
                    VecData::Str(d) => KeyPart::Str(d.get(row).into()),
                    VecData::Bool(d) => KeyPart::I64(i64::from(d[row])),
                };
                set.insert(part);
            }
        }
    }

    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Sum { sum, any }, AggState::Sum { sum: s2, any: a2 }) => {
                *sum += s2;
                *any |= a2;
            }
            (AggState::Count(c), AggState::Count(c2)) => *c += c2,
            (AggState::Min(cur), AggState::Min(other)) => {
                if let Some(o) = other {
                    if cur.as_ref().is_none_or(|c| value_lt(&o, c)) {
                        *cur = Some(o);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(other)) => {
                if let Some(o) = other {
                    if cur.as_ref().is_none_or(|c| value_lt(c, &o)) {
                        *cur = Some(o);
                    }
                }
            }
            (AggState::Avg { sum, cnt }, AggState::Avg { sum: s2, cnt: c2 }) => {
                *sum += s2;
                *cnt += c2;
            }
            (AggState::Distinct(set), AggState::Distinct(other)) => set.extend(other),
            _ => panic!("mismatched aggregate states"),
        }
    }
}

fn numeric(v: &EvalVec, row: usize) -> f64 {
    match &v.data {
        VecData::I64(d) => d[row] as f64,
        VecData::F64(d) => d[row],
        VecData::Bool(d) => f64::from(u8::from(d[row])),
        VecData::Str(_) => panic!("cannot sum strings"),
    }
}

/// Total order over values: NULL sorts last; numerics compare numerically.
fn value_lt(a: &Value, b: &Value) -> bool {
    value_cmp(a, b) == std::cmp::Ordering::Less
}

/// Comparison used by MIN/MAX and ORDER BY.
pub fn value_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater, // NULLs last
        (_, Value::Null) => Ordering::Less,
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => {
            let x = a.as_f64();
            let y = b.as_f64();
            x.partial_cmp(&y).unwrap_or(Ordering::Equal)
        }
    }
}

/// Where an operator's input comes from, a batch at a time: the morsels of
/// a table that exists ([`Morsels`]), or batches that exist only while they
/// are being looked at — what an exchange decodes, handed on as it lands
/// (Figure 7, step 7) instead of being collected into a table first.
pub trait BatchSource {
    /// A table shaped like every batch: the same schema over the same
    /// physical columns. Only its shape is read, never its rows.
    fn shape(&self) -> &Table;

    /// Give each worker a state from `init`, pass every batch — a table
    /// and the rows of it to read — to `each` together with the state of
    /// the worker it is on, and return the states. A batch is only valid
    /// during the call: the next one may overwrite it.
    fn drive<S, I, E>(&self, init: I, each: E) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        E: Fn(&mut S, &Table, std::ops::Range<usize>) + Sync;
}

/// A materialized table as a [`BatchSource`]: its morsels, claimed by the
/// driver's workers.
pub struct Morsels<'a> {
    /// The table.
    pub table: &'a Table,
    /// Who cuts it up and runs the workers.
    pub driver: &'a MorselDriver,
}

impl BatchSource for Morsels<'_> {
    fn shape(&self) -> &Table {
        self.table
    }

    fn drive<S, I, E>(&self, init: I, each: E) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        E: Fn(&mut S, &Table, std::ops::Range<usize>) + Sync,
    {
        self.driver.run(
            self.table.rows(),
            |_| init(),
            |state, _, m| each(state, self.table, m.range()),
        )
    }
}

/// Hash-aggregate `input`, morsel-parallel with per-worker maps merged at
/// the end.
///
/// * `Single` computes final results directly.
/// * `Partial` emits mergeable state columns (`name`, or `name__sum` +
///   `name__cnt` for AVG) — the pre-aggregation of Figure 6(c).
/// * `Final` merges state columns produced by `Partial`.
pub fn aggregate(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    driver: &MorselDriver,
    params: &[Value],
) -> Table {
    let input = Morsels {
        table: input,
        driver,
    };
    aggregate_with(&input, group_by, aggs, phase, params, None, None)
}

/// [`aggregate`] over any [`BatchSource`], with optional compiled input
/// programs (one slot per aggregate, aligned by position; see
/// [`OpPrograms::aggs`](crate::vm::OpPrograms::aggs)). Programs are bound
/// once against the source's shape here — a slot whose bind fails silently
/// reverts to the tree walker for that aggregate alone. `Final`-phase
/// merges read partial-state columns directly and take no programs.
pub fn aggregate_with<B: BatchSource>(
    input: &B,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    params: &[Value],
    programs: Option<&[(String, Option<ExprProgram>)]>,
    cancel: Option<&CancelToken>,
) -> Table {
    assert!(
        phase == AggPhase::Final
            || !aggs
                .iter()
                .any(|a| a.func == AggFunc::CountDistinct && phase == AggPhase::Partial),
        "count(distinct) cannot be pre-aggregated"
    );

    // In Final phase the input carries partial-state columns; aggregate
    // specs are rewritten to merge them.
    let effective: Vec<(AggFunc, Expr2)> = match phase {
        AggPhase::Final => aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Sum => (AggFunc::Sum, Expr2::Col(a.name.to_string())),
                AggFunc::Count => (AggFunc::Sum, Expr2::Col(a.name.clone())),
                AggFunc::Min => (AggFunc::Min, Expr2::Col(a.name.clone())),
                AggFunc::Max => (AggFunc::Max, Expr2::Col(a.name.clone())),
                AggFunc::Avg => (
                    AggFunc::Avg,
                    Expr2::Pair(format!("{}__sum", a.name), format!("{}__cnt", a.name)),
                ),
                AggFunc::CountDistinct => (AggFunc::CountDistinct, Expr2::Col(a.name.clone())),
            })
            .collect(),
        _ => aggs
            .iter()
            .map(|a| (a.func, Expr2::Expr(a.expr.clone())))
            .collect(),
    };

    let shape = input.shape();

    // Bind compiled input programs once, not per batch.
    let bound: Vec<Option<BoundProgram<'_>>> = match programs {
        Some(ps) if phase != AggPhase::Final && ps.len() == aggs.len() => ps
            .iter()
            .map(|(_, p)| p.as_ref().and_then(|p| p.bind(shape).ok()))
            .collect(),
        _ => (0..aggs.len()).map(|_| None).collect(),
    };

    let maps = input.drive(FxMap::<Key, Vec<AggState>>::default, |map, batch, rows| {
        check_cancel(cancel);
        let group_cols: Vec<&Column> = group_by.iter().map(|&i| batch.column(i)).collect();
        // Evaluate agg inputs once per batch.
        let inputs: Vec<AggInput> = effective
            .iter()
            .zip(&bound)
            .map(|((func, e), b)| match b {
                Some(bp) => AggInput::Vec(bp.eval(batch, rows.clone(), params)),
                None => AggInput::eval(e, *func, batch, rows.clone(), params),
            })
            .collect();
        for row in rows.clone() {
            let key = key_of(&group_cols, row);
            let states = map
                .entry(key)
                .or_insert_with(|| effective.iter().map(|(f, _)| AggState::new(*f)).collect());
            let local = row - rows.start;
            for (state, inp) in states.iter_mut().zip(&inputs) {
                inp.update(state, local);
            }
        }
    });

    // Merge worker maps.
    let mut merged: FxMap<Key, Vec<AggState>> = FxMap::default();
    for map in maps {
        for (k, states) in map {
            match merged.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(states);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(states) {
                        a.merge(b);
                    }
                }
            }
        }
    }

    // Global aggregate over empty input still yields one row (Final/Single).
    if merged.is_empty() && group_by.is_empty() && phase != AggPhase::Partial {
        merged.insert(
            Vec::new(),
            effective.iter().map(|(f, _)| AggState::new(*f)).collect(),
        );
    }

    // MIN/MAX output columns take the *static* type of their input
    // expression (evaluated over zero rows), so empty partials keep the
    // same schema as populated ones.
    let minmax_types: Vec<DataType> = effective
        .iter()
        .map(|(func, e)| match func {
            AggFunc::Min | AggFunc::Max => {
                let v = match e {
                    Expr2::Expr(x) => eval(x, shape, 0..0, params),
                    Expr2::Col(name) => {
                        eval(&crate::expr::Expr::Col(name.clone()), shape, 0..0, params)
                    }
                    Expr2::Pair(..) => unreachable!("pairs are AVG-only"),
                };
                v.into_column().1
            }
            _ => DataType::Float64,
        })
        .collect();

    build_agg_output(shape, group_by, aggs, phase, merged, &minmax_types)
}

/// How an aggregate reads its input in a given phase.
enum Expr2 {
    Expr(crate::expr::Expr),
    Col(String),
    Pair(String, String),
}

enum AggInput {
    Vec(EvalVec),
    /// AVG merge: partial sums and counts.
    Pair(EvalVec, EvalVec),
}

impl AggInput {
    fn eval(
        e: &Expr2,
        _func: AggFunc,
        table: &Table,
        range: std::ops::Range<usize>,
        params: &[Value],
    ) -> Self {
        match e {
            Expr2::Expr(x) => AggInput::Vec(eval(x, table, range, params)),
            Expr2::Col(name) => AggInput::Vec(eval(
                &crate::expr::Expr::Col(name.clone()),
                table,
                range,
                params,
            )),
            Expr2::Pair(s, c) => AggInput::Pair(
                eval(
                    &crate::expr::Expr::Col(s.clone()),
                    table,
                    range.clone(),
                    params,
                ),
                eval(&crate::expr::Expr::Col(c.clone()), table, range, params),
            ),
        }
    }

    fn update(&self, state: &mut AggState, row: usize) {
        match self {
            AggInput::Vec(v) => state.update(v, row),
            AggInput::Pair(sums, cnts) => {
                if let AggState::Avg { sum, cnt } = state {
                    if sums.is_valid(row) {
                        *sum += numeric(sums, row);
                        *cnt += match &cnts.data {
                            VecData::I64(d) => d[row],
                            VecData::F64(d) => d[row] as i64,
                            _ => panic!("count column must be numeric"),
                        };
                    }
                } else {
                    panic!("paired input only for AVG merge");
                }
            }
        }
    }
}

fn build_agg_output(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    merged: FxMap<Key, Vec<AggState>>,
    minmax_types: &[DataType],
) -> Table {
    // Output schema: group columns keep their input field definitions.
    let mut fields: Vec<Field> = group_by
        .iter()
        .map(|&i| input.schema().fields()[i].clone())
        .collect();
    for a in aggs {
        match (phase, a.func) {
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
                let idx = aggs
                    .iter()
                    .position(|x| std::ptr::eq(x, a))
                    .expect("in aggs");
                fields.push(Field::nullable(a.name.clone(), minmax_types[idx]));
            }
        }
    }
    let schema = Schema::new(fields);
    let mut columns: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.dtype))
        .collect();

    for (key, states) in merged {
        for (i, part) in key.iter().enumerate() {
            let v = match part {
                KeyPart::I64(x) => {
                    if input.schema().fields()[group_by[i]].dtype == DataType::Float64 {
                        Value::F64(f64::from_bits(*x as u64))
                    } else {
                        Value::I64(*x)
                    }
                }
                // Group-by keys come from `key_of`, which keeps f64 bits in
                // the I64 variant; F64 belongs to the join/partition key
                // domain but decodes cleanly if it ever shows up here.
                KeyPart::F64(bits) => Value::F64(f64::from_bits(*bits)),
                KeyPart::Str(s) => Value::Str(s.to_string()),
                KeyPart::Null => Value::Null,
            };
            columns[i].push_value(&v);
        }
        let mut c = group_by.len();
        for (state, a) in states.into_iter().zip(aggs) {
            match (phase, state) {
                (AggPhase::Partial, AggState::Avg { sum, cnt }) => {
                    columns[c].push_value(&Value::F64(sum));
                    columns[c + 1].push_value(&Value::I64(cnt));
                    c += 2;
                    continue;
                }
                (_, AggState::Sum { sum, any }) => {
                    // COUNT merged in the Final phase sums integer counts.
                    let v = if a.func == AggFunc::Count {
                        Value::I64(sum as i64)
                    } else if any {
                        Value::F64(sum)
                    } else {
                        Value::Null
                    };
                    columns[c].push_value(&v);
                }
                (_, AggState::Count(n)) => columns[c].push_value(&Value::I64(n)),
                (_, AggState::Avg { sum, cnt }) => {
                    columns[c].push_value(&if cnt > 0 {
                        Value::F64(sum / cnt as f64)
                    } else {
                        Value::Null
                    });
                }
                (_, AggState::Min(v)) | (_, AggState::Max(v)) => {
                    columns[c].push_value(&v.unwrap_or(Value::Null));
                }
                (_, AggState::Distinct(set)) => {
                    columns[c].push_value(&Value::I64(set.len() as i64));
                }
            }
            let _ = a;
            c += 1;
        }
    }
    Table::new(schema, columns)
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// Sort a table by `keys`, optionally truncating to `limit` rows.
pub fn sort_table(input: &Table, keys: &[SortKey], limit: Option<usize>) -> Table {
    let key_cols: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| (input.schema().index_of(&k.column), k.desc))
        .collect();
    let mut indices: Vec<usize> = (0..input.rows()).collect();
    indices.sort_by(|&a, &b| {
        for &(c, desc) in &key_cols {
            let va = input.value(a, c);
            let vb = input.value(b, c);
            let ord = value_cmp(&va, &vb);
            if ord != std::cmp::Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(l) = limit {
        indices.truncate(l);
    }
    input.gather(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use hsqp_numa::Topology;

    fn driver() -> MorselDriver {
        MorselDriver::new(2, &Topology::uniform(2), 64, true)
    }

    fn orders_like() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("v", DataType::Decimal),
        ]);
        let n = 200;
        let keys: Vec<i64> = (0..n).collect();
        let grps: hsqp_storage::StringColumn = (0..n)
            .map(|i| if i % 2 == 0 { "even" } else { "odd" })
            .collect();
        let vals: Vec<i64> = (0..n).map(|i| i * 100).collect();
        Table::new(
            schema,
            vec![
                Column::I64(keys, None),
                Column::Str(grps, None),
                Column::I64(vals, None),
            ],
        )
    }

    fn dim() -> Table {
        let schema = Schema::new(vec![
            Field::new("dk", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]);
        Table::new(
            schema,
            vec![
                Column::I64(vec![0, 1, 2, 0], None),
                Column::Str(["zero", "one", "two", "zero2"].into_iter().collect(), None),
            ],
        )
    }

    /// Distinct values of the two bit ranges hashbrown consumes — the low
    /// 16 bits (bucket index of a 64 Ki-slot table) and the top 7 (control
    /// tag) — over the hashes of `keys`.
    fn spread<K: std::hash::Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        let (mut low, mut top) = (HashSet::new(), HashSet::new());
        for k in keys {
            let h = build.hash_one(&k);
            low.insert(h & 0xffff);
            top.insert(h >> 57);
        }
        (low.len(), top.len())
    }

    #[test]
    fn hash_spreads_keys_whose_entropy_sits_in_the_high_bits() {
        const N: u64 = 1 << 16;
        let families = [
            (
                "Int64 join keys (canonical f64 bits)",
                spread((1..=N).map(|i| vec![KeyPart::F64(canon_f64_bits(i as f64))])),
            ),
            (
                "Float64 group keys (f64 bits as i64)",
                spread((1..=N).map(|i| vec![KeyPart::I64((i as f64).to_bits() as i64)])),
            ),
            (
                "count-distinct members (bare KeyPart)",
                spread((1..=N).map(|i| KeyPart::I64((i as f64).to_bits() as i64))),
            ),
            (
                "u64 differing only above bit 32",
                spread((1..=N).map(|i| i << 32)),
            ),
        ];
        for (family, (low, top)) in families {
            // 65 536 keys can take at most 65 536 low-bit and 128 tag
            // values; a uniform hash reaches ≈ 63 % of the former and all
            // of the latter. Before the fold every family took exactly one
            // low-bit value.
            assert!(low >= 32_768, "{family}: {low} distinct low-16-bit values");
            assert!(top >= 64, "{family}: {top} distinct 7-bit tags");
        }
        // Small integers (entropy at the bottom) must keep spreading too.
        let (low, top) = spread((1..=N).map(|i| vec![KeyPart::I64(i as i64)]));
        assert!(low >= 32_768 && top >= 64, "small ints: {low} / {top}");
    }

    fn int_key_table(name: &str, rows: i64) -> Table {
        Table::new(
            Schema::new(vec![Field::new(name, DataType::Int64)]),
            vec![Column::I64((0..rows).collect(), None)],
        )
    }

    #[test]
    fn join_cost_scales_with_rows_not_their_square() {
        // Build + probe over n distinct Int64 keys, best of five.
        let cost = |n: i64| {
            let (build, probe) = (int_key_table("b", n), int_key_table("p", n));
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let jt = JoinTable::build(build.clone(), &[0]);
                    let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
                    assert_eq!(out.rows(), n as usize);
                    started.elapsed()
                })
                .min()
                .expect("five runs")
        };
        let (small, large) = (cost(16_000), cost(160_000));
        // 10× the rows cost 12–30× when keys spread: the 16 k-key table
        // and its heap-allocated keys sit in L2, the 160 k-key one does
        // not (≈ 120 → 300 ns per build row). With every key in one probe
        // chain they cost 95–150×.
        assert!(
            large <= small * 40,
            "160 k keys cost {large:?}, 16 k cost {small:?}: more than 40×"
        );
    }

    #[test]
    fn inner_join_matches_all_pairs() {
        let probe = orders_like(); // keys 0..200
        let build = dim(); // dk 0,1,2,0
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        // Probe keys 0,1,2 match; key 0 matches twice.
        assert_eq!(out.rows(), 4);
        assert_eq!(out.schema().len(), 5);
        let mut labels: Vec<String> = (0..out.rows())
            .map(|r| out.value(r, 4).as_str().to_string())
            .collect();
        labels.sort();
        assert_eq!(labels, vec!["one", "two", "zero", "zero2"]);
    }

    #[test]
    fn left_outer_join_fills_nulls() {
        let probe = dim(); // dk 0,1,2,0
        let schema = Schema::new(vec![
            Field::new("bk", DataType::Int64),
            Field::new("payload", DataType::Int64),
        ]);
        let build = Table::new(
            schema,
            vec![Column::I64(vec![1], None), Column::I64(vec![99], None)],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::LeftOuter, &driver(), None);
        assert_eq!(out.rows(), 4);
        let matched: Vec<bool> = (0..4).map(|r| !out.value(r, 2).is_null()).collect();
        assert_eq!(matched.iter().filter(|&&b| b).count(), 1);
        // The matched row carries the payload.
        let idx = matched.iter().position(|&b| b).unwrap();
        assert_eq!(out.value(idx, 3), Value::I64(99));
    }

    #[test]
    fn semi_and_anti_partition_probe() {
        let probe = orders_like();
        let jt = JoinTable::build(dim(), &[0]);
        let semi = probe_join(&probe, &jt, &[0], JoinKind::LeftSemi, &driver(), None);
        let anti = probe_join(&probe, &jt, &[0], JoinKind::LeftAnti, &driver(), None);
        assert_eq!(semi.rows(), 3); // keys 0,1,2 (distinct probe rows)
        assert_eq!(anti.rows(), 197);
        assert_eq!(semi.schema().len(), probe.schema().len());
        assert_eq!(semi.rows() + anti.rows(), probe.rows());
    }

    #[test]
    fn decimal_keys_join_float64_keys_by_value() {
        // Probe: a Decimal column holding 1.00, 2.50, 9.99 as cents.
        let probe = Table::new(
            Schema::new(vec![Field::new("cost", DataType::Decimal)]),
            vec![Column::I64(vec![100, 250, 999], None)],
        );
        // Build: Float64 keys as an aggregate (e.g. MIN) would produce them.
        let build = Table::new(
            Schema::new(vec![Field::new("min_cost", DataType::Float64)]),
            vec![Column::F64(vec![2.5, 7.0], None)],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::LeftSemi, &driver(), None);
        assert_eq!(out.rows(), 1, "2.50 must match the f64 key 2.5");
        // The surviving probe row keeps its fixed-point representation.
        assert_eq!(out.value(0, 0), Value::I64(250));
        // Decimal ⋈ Decimal still joins (both sides canonicalized).
        let renamed = Table::new(
            Schema::new(vec![Field::new("c2", DataType::Decimal)]),
            vec![Column::I64(vec![100, 250, 999], None)],
        );
        let jt = JoinTable::build(renamed, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        assert_eq!(out.rows(), 3);
    }

    #[test]
    fn i64_f64_exact_roundtrip_edges() {
        assert_eq!(i64_as_f64_exact(0), Some(0.0));
        assert_eq!(i64_as_f64_exact(-7), Some(-7.0));
        assert_eq!(i64_as_f64_exact(1 << 53), Some((1u64 << 53) as f64));
        // 2^53 + 1 is the first integer f64 cannot represent.
        assert_eq!(i64_as_f64_exact((1 << 53) + 1), None);
        // i64::MAX would round-trip through the saturating cast — must be
        // rejected explicitly.
        assert_eq!(i64_as_f64_exact(i64::MAX), None);
        // i64::MIN is a power of two, exactly representable.
        assert_eq!(i64_as_f64_exact(i64::MIN), Some(i64::MIN as f64));
        // Canonical zero folds the sign bit.
        assert_eq!(canon_f64_bits(-0.0), canon_f64_bits(0.0));
        assert_ne!(canon_f64_bits(-1.0), canon_f64_bits(1.0));
    }

    #[test]
    fn int64_keys_join_float64_keys_by_value() {
        let probe = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Column::I64(vec![1, 2, 3, (1 << 53) + 1], None)],
        );
        let build = Table::new(
            Schema::new(vec![Field::new("f", DataType::Float64)]),
            vec![Column::F64(
                vec![2.0, 3.0, -0.0, ((1i64 << 53) + 2) as f64],
                None,
            )],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::LeftSemi, &driver(), None);
        // 2 and 3 match by value; 2^53+1 has no exact f64 peer.
        assert_eq!(out.rows(), 2);
        // Pure Int64 ⋈ Int64 is unchanged by canonicalization, including
        // keys beyond f64's exact-integer range.
        let big = Table::new(
            Schema::new(vec![Field::new("k2", DataType::Int64)]),
            vec![Column::I64(vec![1, (1 << 53) + 1, i64::MAX], None)],
        );
        let jt = JoinTable::build(big, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        assert_eq!(out.rows(), 2); // 1 and 2^53+1
    }

    #[test]
    fn null_keys_never_join() {
        let schema = Schema::new(vec![Field::nullable("k", DataType::Int64)]);
        let mut c = Column::empty(DataType::Int64);
        c.push_value(&Value::I64(1));
        c.push_value(&Value::Null);
        let probe = Table::new(schema.clone(), vec![c]);
        let mut b = Column::empty(DataType::Int64);
        b.push_value(&Value::I64(1));
        b.push_value(&Value::Null);
        let build = Table::new(
            Schema::new(vec![Field::nullable("bk", DataType::Int64)]),
            vec![b],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        assert_eq!(out.rows(), 1); // only 1 = 1 joins; NULL ≠ NULL
    }

    #[test]
    fn grouped_aggregation() {
        let t = orders_like();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, col("v"), "total"),
            AggSpec::new(AggFunc::Count, lit(1), "cnt"),
            AggSpec::new(AggFunc::Min, col("k"), "lo"),
            AggSpec::new(AggFunc::Max, col("k"), "hi"),
            AggSpec::new(AggFunc::Avg, col("v"), "mean"),
        ];
        let out = aggregate(&t, &[1], &aggs, AggPhase::Single, &driver(), &[]);
        assert_eq!(out.rows(), 2);
        let g = out.schema().index_of("grp");
        for r in 0..2 {
            let name = out.value(r, g).as_str().to_string();
            let total = out.value(r, out.schema().index_of("total")).as_f64();
            let cnt = out.value(r, out.schema().index_of("cnt")).as_i64();
            let lo = out.value(r, out.schema().index_of("lo")).as_i64();
            assert_eq!(cnt, 100);
            if name == "even" {
                // sum of v (decimal /100) over even keys: sum(2i for i in 0..100) = 9900
                assert!((total - 9900.0).abs() < 1e-6, "{total}");
                assert_eq!(lo, 0);
            } else {
                assert!((total - 10000.0).abs() < 1e-6, "{total}");
                assert_eq!(lo, 1);
            }
        }
    }

    #[test]
    fn global_aggregate_on_empty_input_emits_one_row() {
        let t = Table::empty(orders_like().schema().clone());
        let aggs = vec![
            AggSpec::new(AggFunc::Count, lit(1), "cnt"),
            AggSpec::new(AggFunc::Sum, col("v"), "total"),
        ];
        let out = aggregate(&t, &[], &aggs, AggPhase::Single, &driver(), &[]);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value(0, 0), Value::I64(0));
        assert_eq!(out.value(0, 1), Value::Null); // SUM of nothing is NULL
    }

    #[test]
    fn partial_plus_final_equals_single() {
        let t = orders_like();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, col("v"), "total"),
            AggSpec::new(AggFunc::Avg, col("v"), "mean"),
            AggSpec::new(AggFunc::Count, lit(1), "cnt"),
        ];
        let single = aggregate(&t, &[1], &aggs, AggPhase::Single, &driver(), &[]);
        // Split the input as two nodes would see it, pre-aggregate each.
        let half1 = t.gather(&(0..100).collect::<Vec<_>>());
        let half2 = t.gather(&(100..200).collect::<Vec<_>>());
        let p1 = aggregate(&half1, &[1], &aggs, AggPhase::Partial, &driver(), &[]);
        let mut partials = aggregate(&half2, &[1], &aggs, AggPhase::Partial, &driver(), &[]);
        partials.append(&p1);
        let grp = partials.schema().index_of("grp");
        let fin = aggregate(&partials, &[grp], &aggs, AggPhase::Final, &driver(), &[]);
        let sorted_single = sort_table(&single, &[SortKey::asc("grp")], None);
        let sorted_fin = sort_table(&fin, &[SortKey::asc("grp")], None);
        assert_eq!(sorted_single.rows(), sorted_fin.rows());
        for r in 0..sorted_single.rows() {
            for c in 0..sorted_single.schema().len() {
                let a = sorted_single.value(r, c);
                let b = sorted_fin.value(r, c);
                match (&a, &b) {
                    (Value::F64(x), Value::F64(y)) => assert!((x - y).abs() < 1e-9),
                    _ => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn count_distinct() {
        let t = orders_like();
        let aggs = vec![AggSpec::new(AggFunc::CountDistinct, col("grp"), "groups")];
        let out = aggregate(&t, &[], &aggs, AggPhase::Single, &driver(), &[]);
        assert_eq!(out.value(0, 0), Value::I64(2));
    }

    #[test]
    #[should_panic(expected = "cannot be pre-aggregated")]
    fn count_distinct_rejects_partial_phase() {
        let t = orders_like();
        let aggs = vec![AggSpec::new(AggFunc::CountDistinct, col("k"), "d")];
        aggregate(&t, &[], &aggs, AggPhase::Partial, &driver(), &[]);
    }

    #[test]
    fn sort_orders_and_limits() {
        let t = orders_like();
        let out = sort_table(&t, &[SortKey::desc("k")], Some(3));
        assert_eq!(out.rows(), 3);
        assert_eq!(out.value(0, 0), Value::I64(199));
        assert_eq!(out.value(2, 0), Value::I64(197));
        let out = sort_table(&t, &[SortKey::asc("grp"), SortKey::desc("k")], Some(2));
        assert_eq!(out.value(0, 1), Value::Str("even".into()));
        assert_eq!(out.value(0, 0), Value::I64(198));
    }

    #[test]
    fn value_cmp_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(value_cmp(&Value::I64(1), &Value::I64(2)), Less);
        assert_eq!(value_cmp(&Value::F64(2.0), &Value::I64(1)), Greater);
        assert_eq!(value_cmp(&Value::Null, &Value::I64(1)), Greater); // NULLs last
        assert_eq!(
            value_cmp(&Value::Str("a".into()), &Value::Str("b".into())),
            Less
        );
    }
}
