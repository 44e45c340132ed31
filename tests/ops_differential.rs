//! The join and aggregation kernels against a reference that shares no
//! code with them: nested loops and a `BTreeMap` over `Vec<Vec<Value>>`,
//! with key equality written down here from its definition.
//!
//! Random tables cover every key shape the planner can emit — Int64,
//! Decimal, Float64 and Utf8 parts, nullable and not, one to three of them,
//! sides of different numeric types — all four join kinds, all six
//! aggregate functions in one phase and in two, on one worker and on three.
//! Results are compared as sorted multisets with a float tolerance.
//!
//! String keys also come coded — a byte per row into a dictionary, as
//! table generation stores a column with at most 256 distinct values —
//! grouped alone, with each other and with Int64 keys, and joined against
//! plain strings that crossed an exchange.
//!
//! Every join also runs against a table whose keys all share one chain
//! ([`JoinTable::build_in_one_chain`]): there a probe meets every build
//! key, so an equality that is too generous for some key shape shows as
//! rows the reference does not have.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use proptest::prelude::*;

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::exec::NodeExec;
use hsqp::engine::expr::{col, lit};
use hsqp::engine::local::MorselDriver;
use hsqp::engine::ops::{aggregate, probe_join, JoinTable};
use hsqp::engine::plan::{AggFunc, AggPhase, AggSpec, ExchangeKind, JoinKind, MapExpr, Plan};
use hsqp::engine::QueryId;
use hsqp::numa::Topology;
use hsqp::storage::placement::chunk_split;
use hsqp::storage::{Column, DataType, Field, Schema, Table, Value};
use hsqp::tpch::TpchTable;

// ---------------------------------------------------------------------------
// Random tables
// ---------------------------------------------------------------------------

/// SplitMix64: the case's seed decides everything about it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

const BIG: i64 = 1 << 53;

/// A value of `dtype` from a pool small enough that keys meet, holding the
/// values key equality is subtle about: both zeros, numbers that are equal
/// across Int64, Decimal (cents) and Float64, integers around 2^53 where
/// f64 stops being exact, the ends of the i64 range, a NaN, strings that
/// differ in length only or past their eighth byte.
fn arb_value(rng: &mut Rng, dtype: DataType) -> Value {
    match dtype {
        DataType::Int64 | DataType::Date => Value::I64(rng.pick(&[
            -2,
            -1,
            0,
            1,
            2,
            3,
            7,
            BIG,
            BIG + 1,
            BIG + 2,
            i64::MAX,
            i64::MIN,
        ])),
        DataType::Decimal => Value::I64(rng.pick(&[-200, -100, 0, 100, 200, 250, 300, 700, 999])),
        DataType::Float64 => Value::F64(rng.pick(&[
            -2.0,
            -1.0,
            -0.0,
            0.0,
            1.0,
            2.0,
            2.5,
            3.0,
            7.0,
            9.99,
            BIG as f64,
            (BIG + 2) as f64,
            i64::MIN as f64,
            i64::MAX as f64,
            f64::NAN,
        ])),
        DataType::Utf8 => Value::Str(
            rng.pick(&[
                "",
                "a",
                "b",
                "ab",
                "é",
                "abcdefgh",
                "abcdefghi",
                "abcdefghj",
            ])
            .to_string(),
        ),
    }
}

/// A table of `rows` rows over `fields`; a nullable field is NULL in about
/// a fifth of them.
fn arb_table(rng: &mut Rng, fields: Vec<Field>, rows: usize) -> Table {
    let mut cols: Vec<Column> = fields.iter().map(|f| Column::empty(f.dtype)).collect();
    for _ in 0..rows {
        for (c, f) in cols.iter_mut().zip(&fields) {
            let null = f.nullable && rng.below(5) == 0;
            c.push_value(&if null {
                Value::Null
            } else {
                arb_value(rng, f.dtype)
            });
        }
    }
    Table::new(Schema::new(fields), cols)
}

fn arb_field(rng: &mut Rng, name: String, dtype: DataType) -> Field {
    if rng.below(2) == 0 {
        Field::nullable(name, dtype)
    } else {
        Field::new(name, dtype)
    }
}

const KEY_TYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Decimal,
    DataType::Float64,
    DataType::Utf8,
];

fn driver(workers: u16) -> MorselDriver {
    // Morsels of seven rows: every table is many batches.
    MorselDriver::new(workers, &Topology::uniform(workers), 7, true)
}

// ---------------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------------

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.rows()).map(|r| t.row(r)).collect()
}

/// A number as the join sees it: a Decimal is its value in units.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Flt(f64),
}

fn num_of(v: &Value, dtype: DataType) -> Num {
    match (v, dtype) {
        (Value::I64(cents), DataType::Decimal) => Num::Flt(*cents as f64 / 100.0),
        (Value::I64(i), _) => Num::Int(*i),
        (Value::F64(f), _) => Num::Flt(*f),
        other => panic!("not a number: {other:?}"),
    }
}

/// Two floats are one key when they are equal (so the zeros are) or the
/// same NaN.
fn same_float(a: f64, b: f64) -> bool {
    a == b || a.to_bits() == b.to_bits()
}

/// The definition of join-key equality for one key part.
fn join_parts_equal(a: &Value, ta: DataType, b: &Value, tb: DataType) -> bool {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => false,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Str(_), _) | (_, Value::Str(_)) => false,
        _ => match (num_of(a, ta), num_of(b, tb)) {
            (Num::Int(i), Num::Int(j)) => i == j,
            // An integer equals a float when it is that float exactly:
            // i128 holds both without rounding.
            (Num::Int(i), Num::Flt(f)) | (Num::Flt(f), Num::Int(i)) => {
                f == i as f64 && f as i128 == i128::from(i)
            }
            (Num::Flt(f), Num::Flt(g)) => same_float(f, g),
        },
    }
}

fn reference_join(
    probe: &Table,
    probe_keys: &[usize],
    build: &Table,
    build_keys: &[usize],
    kind: JoinKind,
) -> Vec<Vec<Value>> {
    let dtype = |t: &Table, c: usize| t.schema().fields()[c].dtype;
    let build_rows = rows_of(build);
    let mut out = Vec::new();
    for p in rows_of(probe) {
        let partners: Vec<&Vec<Value>> = build_rows
            .iter()
            .filter(|b| {
                probe_keys.iter().zip(build_keys).all(|(&pk, &bk)| {
                    join_parts_equal(&p[pk], dtype(probe, pk), &b[bk], dtype(build, bk))
                })
            })
            .collect();
        let with = |b: &Vec<Value>| p.iter().chain(b).cloned().collect::<Vec<_>>();
        match kind {
            JoinKind::Inner => out.extend(partners.iter().map(|b| with(b))),
            JoinKind::LeftOuter if partners.is_empty() => {
                out.push(with(&vec![Value::Null; build.schema().len()]));
            }
            JoinKind::LeftOuter => out.extend(partners.iter().map(|b| with(b))),
            JoinKind::LeftSemi if !partners.is_empty() => out.push(p.clone()),
            JoinKind::LeftAnti if partners.is_empty() => out.push(p.clone()),
            JoinKind::LeftSemi | JoinKind::LeftAnti => {}
        }
    }
    out
}

/// A group key part, ordered: NULLs are one group, the zeros are one
/// float, a NaN is itself.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupPart {
    Null,
    Int(i64),
    Flt(u64),
    Str(String),
}

fn group_part(v: &Value) -> GroupPart {
    match v {
        Value::Null => GroupPart::Null,
        Value::I64(i) => GroupPart::Int(*i),
        Value::F64(f) => GroupPart::Flt(if *f == 0.0 { 0 } else { f.to_bits() }),
        Value::Str(s) => GroupPart::Str(s.clone()),
    }
}

fn ungroup_part(p: &GroupPart) -> Value {
    match p {
        GroupPart::Null => Value::Null,
        GroupPart::Int(i) => Value::I64(*i),
        GroupPart::Flt(bits) => Value::F64(f64::from_bits(*bits)),
        GroupPart::Str(s) => Value::Str(s.clone()),
    }
}

/// What `col(name)` evaluates to on a cell: a Decimal in units.
fn evaluated(v: &Value, dtype: DataType) -> Value {
    match (v, dtype) {
        (Value::I64(cents), DataType::Decimal) => Value::F64(*cents as f64 / 100.0),
        _ => v.clone(),
    }
}

/// One aggregate over the non-NULL `inputs` of a group.
fn reference_agg(func: AggFunc, inputs: &[Value]) -> Value {
    let as_f64 = |v: &Value| match v {
        Value::I64(i) => *i as f64,
        Value::F64(f) => *f,
        other => panic!("cannot add {other:?}"),
    };
    let less = |a: &Value, b: &Value| match (a, b) {
        (Value::I64(x), Value::I64(y)) => x < y,
        (Value::F64(x), Value::F64(y)) => x < y,
        (Value::Str(x), Value::Str(y)) => x < y,
        other => panic!("cannot order {other:?}"),
    };
    let sum = || inputs.iter().map(as_f64).sum::<f64>();
    match func {
        AggFunc::Count => Value::I64(inputs.len() as i64),
        AggFunc::CountDistinct => {
            let mut seen: Vec<GroupPart> = inputs.iter().map(group_part).collect();
            seen.sort();
            seen.dedup();
            Value::I64(seen.len() as i64)
        }
        _ if inputs.is_empty() => Value::Null,
        AggFunc::Sum => Value::F64(sum()),
        AggFunc::Avg => Value::F64(sum() / inputs.len() as f64),
        AggFunc::Min => {
            inputs[1..].iter().fold(
                inputs[0].clone(),
                |m, v| if less(v, &m) { v.clone() } else { m },
            )
        }
        AggFunc::Max => {
            inputs[1..].iter().fold(
                inputs[0].clone(),
                |m, v| if less(&m, v) { v.clone() } else { m },
            )
        }
    }
}

/// `aggs` — each a function over one input column — grouped by `group_by`.
fn reference_aggregate(
    input: &Table,
    group_by: &[usize],
    aggs: &[(AggFunc, usize)],
) -> Vec<Vec<Value>> {
    let mut groups: BTreeMap<Vec<GroupPart>, Vec<Vec<Value>>> = BTreeMap::new();
    for row in rows_of(input) {
        let key = group_by.iter().map(|&g| group_part(&row[g])).collect();
        groups.entry(key).or_default().push(row);
    }
    if group_by.is_empty() {
        groups.entry(Vec::new()).or_default(); // a global aggregate has its row
    }
    groups
        .iter()
        .map(|(key, rows)| {
            let mut out: Vec<Value> = key.iter().map(ungroup_part).collect();
            for &(func, c) in aggs {
                let dtype = input.schema().fields()[c].dtype;
                let inputs: Vec<Value> = rows
                    .iter()
                    .filter(|r| !r[c].is_null())
                    .map(|r| evaluated(&r[c], dtype))
                    .collect();
                out.push(reference_agg(func, &inputs));
            }
            out
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// A total order over cells, for sorting rows only.
fn cmp_cells(a: &Value, b: &Value) -> Ordering {
    let rank = |v: &Value| match v {
        Value::Null => 0,
        Value::I64(_) => 1,
        Value::F64(_) => 2,
        Value::Str(_) => 3,
    };
    match (a, b) {
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        // Both zeros sort as one, so which of them a side emits is not
        // what orders its rows.
        (Value::F64(x), Value::F64(y)) => (x + 0.0).total_cmp(&(y + 0.0)),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn cells_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => {
            same_float(*x, *y) || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

/// `got` and `want` as sorted multisets of rows, floats within 1e-9.
fn same_rows(
    mut got: Vec<Vec<Value>>,
    mut want: Vec<Vec<Value>>,
    what: &str,
) -> Result<(), TestCaseError> {
    let by_cells = |a: &Vec<Value>, b: &Vec<Value>| {
        let unequal = a.iter().zip(b).map(|(x, y)| cmp_cells(x, y));
        unequal
            .into_iter()
            .find(|&o| o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    };
    got.sort_by(by_cells);
    want.sort_by(by_cells);
    prop_assert_eq!(
        got.len(),
        want.len(),
        "{}: row counts\n got {:?}\nwant {:?}",
        what,
        got,
        want
    );
    for (g, w) in got.iter().zip(&want) {
        prop_assert!(
            g.len() == w.len() && g.iter().zip(w).all(|(x, y)| cells_match(x, y)),
            "{}:\n got {:?}\nwant {:?}",
            what,
            g,
            w
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn joins_equal_nested_loops(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        // One to three key parts; each side of a part has a type of its
        // own, a string facing a string and a number facing any number.
        // Every fourth case is the shape most joins have, and the kernel a
        // loop of its own for: one Int64 key on either side.
        let plain = rng.below(4) == 0;
        let parts = if plain { 1 } else { 1 + rng.below(3) };
        let mut probe_fields = vec![Field::new("p_row", DataType::Int64)];
        let mut build_fields = vec![Field::new("b_row", DataType::Int64)];
        for part in 0..parts {
            let probe_type = if plain { DataType::Int64 } else { rng.pick(&KEY_TYPES) };
            let build_type = if plain || probe_type == DataType::Utf8 {
                probe_type
            } else {
                rng.pick(&KEY_TYPES[..3])
            };
            probe_fields.push(arb_field(&mut rng, format!("pk{part}"), probe_type));
            build_fields.push(arb_field(&mut rng, format!("bk{part}"), build_type));
        }
        probe_fields.push(Field::nullable("p_text", DataType::Utf8));
        build_fields.push(Field::nullable("b_num", DataType::Float64));
        let (probe_rows, build_rows) = (rng.below(40), rng.below(40));
        let probe = arb_table(&mut rng, probe_fields, probe_rows);
        let build = arb_table(&mut rng, build_fields, build_rows);
        let keys: Vec<usize> = (1..=parts).collect();

        let tables = [
            ("sized", JoinTable::build(build.clone(), &keys)),
            ("one chain", JoinTable::build_in_one_chain(build.clone(), &keys)),
        ];
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::LeftSemi, JoinKind::LeftAnti] {
            let want = reference_join(&probe, &keys, &build, &keys, kind);
            for (name, table) in &tables {
                for workers in [1, 3] {
                    let got = probe_join(&probe, table, &keys, kind, &driver(workers), None);
                    let what = format!(
                        "{kind:?}, {name} table, {workers} workers, {:?} into {:?}",
                        probe.schema().fields(),
                        build.schema().fields(),
                    );
                    let pairs = matches!(kind, JoinKind::Inner | JoinKind::LeftOuter);
                    let width = probe.schema().len() + if pairs { build.schema().len() } else { 0 };
                    prop_assert_eq!(got.schema().len(), width);
                    same_rows(rows_of(&got), want.clone(), &what)?;
                }
            }
        }
    }

    #[test]
    fn aggregates_equal_a_btreemap(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        // Zero to three group columns, then one input column of each type.
        let parts = rng.below(4);
        let mut fields: Vec<Field> = (0..parts)
            .map(|part| {
                let dtype = rng.pick(&KEY_TYPES);
                arb_field(&mut rng, format!("g{part}"), dtype)
            })
            .collect();
        let inputs = [
            ("v_int", DataType::Int64),
            ("v_dec", DataType::Decimal),
            ("v_flt", DataType::Float64),
            ("v_str", DataType::Utf8),
        ];
        fields.extend(inputs.map(|(name, dtype)| Field::nullable(name, dtype)));
        let rows = rng.below(80);
        let table = arb_table(&mut rng, fields, rows);
        // Sums are compared with a tolerance that means nothing at 2^63,
        // and a NaN input has no minimum: the numbers that are added and
        // ordered are small ones, NULL where the random ones were.
        let mut cols = table.columns().cloned().collect::<Vec<_>>();
        let small_ints = (0..rows).map(|_| rng.below(9) as i64 - 4).collect();
        cols[parts] = Column::I64(small_ints, cols[parts].validity().cloned());
        let small_floats = (0..rows).map(|_| rng.below(33) as f64 / 8.0 - 2.0).collect();
        cols[parts + 2] = Column::F64(small_floats, cols[parts + 2].validity().cloned());
        let table = Table::new(table.schema().clone(), cols);

        let (v_int, v_dec, v_flt, v_str) = (parts, parts + 1, parts + 2, parts + 3);
        let all: Vec<(AggFunc, usize)> = vec![
            (AggFunc::Sum, v_dec),
            (AggFunc::Sum, v_int),
            (AggFunc::Count, v_flt),
            (AggFunc::Count, v_str),
            (AggFunc::Min, v_int),
            (AggFunc::Min, v_str),
            (AggFunc::Min, v_dec),
            (AggFunc::Max, v_flt),
            (AggFunc::Max, v_str),
            (AggFunc::Avg, v_dec),
            (AggFunc::Avg, v_int),
            (AggFunc::CountDistinct, v_str),
            (AggFunc::CountDistinct, v_flt),
            (AggFunc::CountDistinct, v_int),
        ];
        // A random non-empty subset of them, so state columns of every type
        // sit at every position.
        let mut chosen: Vec<(AggFunc, usize)> =
            all.iter().copied().filter(|_| rng.below(2) == 0).collect();
        if chosen.is_empty() {
            chosen.push(rng.pick(&all));
        }
        let name_of = |c: usize| table.schema().fields()[c].name.clone();
        let specs = |aggs: &[(AggFunc, usize)]| -> Vec<AggSpec> {
            aggs.iter()
                .enumerate()
                .map(|(i, &(func, c))| AggSpec::new(func, col(&name_of(c)), &format!("a{i}")))
                .collect()
        };
        let group_by: Vec<usize> = (0..parts).collect();
        let shape = format!("{:?} by {:?}", chosen, &table.schema().fields()[..parts]);

        for workers in [1, 3] {
            let got = aggregate(&table, &group_by, &specs(&chosen), AggPhase::Single, &driver(workers), &[]);
            let want = reference_aggregate(&table, &group_by, &chosen);
            same_rows(rows_of(&got), want, &format!("single phase, {workers} workers, {shape}"))?;

            // Two phases: each half pre-aggregated as a node would, the
            // partial states merged. COUNT(DISTINCT) has no partial state.
            let mergeable: Vec<(AggFunc, usize)> = chosen
                .iter()
                .copied()
                .filter(|(func, _)| *func != AggFunc::CountDistinct)
                .collect();
            if mergeable.is_empty() {
                continue;
            }
            let aggs = specs(&mergeable);
            let partial = |half: &Table| {
                aggregate(half, &group_by, &aggs, AggPhase::Partial, &driver(workers), &[])
            };
            let halves = chunk_split(table.clone(), 2);
            let mut partials = partial(&halves[0]);
            partials.append(&partial(&halves[1]));
            let merged = aggregate(&partials, &group_by, &aggs, AggPhase::Final, &driver(workers), &[]);
            let want = reference_aggregate(&table, &group_by, &mergeable);
            same_rows(rows_of(&merged), want, &format!("two phases, {workers} workers, {shape}"))?;
        }
    }
}

/// Whether column `c` holds codes.
fn is_coded(c: &Column) -> bool {
    matches!(c, Column::Str(s, _) if s.dictionary().is_some())
}

// Group keys that are codes — alone, several, or beside an Int64 key, NULL
// in about a fifth of the rows of a nullable one — group as their strings
// do, in one phase and in two, on one to three workers.
proptest! {
    #[test]
    fn aggregates_over_coded_keys_equal_a_btreemap(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let parts = 1 + rng.below(3);
        let mut fields: Vec<Field> = (0..parts)
            .map(|part| {
                // The first part is a string; the others either.
                let dtype = match part {
                    0 => DataType::Utf8,
                    _ => rng.pick(&[DataType::Utf8, DataType::Int64]),
                };
                arb_field(&mut rng, format!("g{part}"), dtype)
            })
            .collect();
        fields.push(Field::nullable("v_int", DataType::Int64));
        fields.push(Field::nullable("v_str", DataType::Utf8));
        let rows = 1 + rng.below(80);
        let plain = arb_table(&mut rng, fields, rows);
        // Small integers to sum, as above: NULL where the random ones were.
        let mut cols = plain.columns().cloned().collect::<Vec<_>>();
        let small_ints = (0..rows).map(|_| rng.below(9) as i64 - 4).collect();
        cols[parts] = Column::I64(small_ints, cols[parts].validity().cloned());
        let plain = Table::new(plain.schema().clone(), cols);
        let table = Table::new(
            plain.schema().clone(),
            plain.columns().cloned().map(Column::encode).collect(),
        );
        for (f, c) in table.schema().fields().iter().zip(table.columns()) {
            prop_assert_eq!(is_coded(c), f.dtype == DataType::Utf8, "{}", f.name);
        }
        let (v_int, v_str) = (parts, parts + 1);
        let chosen = [
            (AggFunc::Count, v_str),
            (AggFunc::Sum, v_int),
            (AggFunc::Min, v_str),
            (AggFunc::Max, v_str),
        ];
        let specs: Vec<AggSpec> = chosen
            .iter()
            .enumerate()
            .map(|(i, &(func, c))| {
                AggSpec::new(func, col(&table.schema().fields()[c].name), &format!("a{i}"))
            })
            .collect();
        let group_by: Vec<usize> = (0..parts).collect();
        let want = reference_aggregate(&plain, &group_by, &chosen);
        let shape = format!("by {:?}", &table.schema().fields()[..parts]);
        for workers in 1..=3 {
            let got = aggregate(&table, &group_by, &specs, AggPhase::Single, &driver(workers), &[]);
            prop_assert!(got.columns().all(|c| !is_coded(c)), "keys leave plain");
            same_rows(rows_of(&got), want.clone(), &format!("single, {workers} workers, {shape}"))?;
            // One half coded, the other decoded: the Final phase merges
            // the plain keys both Partial phases emit.
            let halves = chunk_split(table.clone(), 2);
            let decoded = Table::new(
                table.schema().clone(),
                halves[1].columns().cloned().map(Column::decode).collect(),
            );
            let partial = |half: &Table| {
                aggregate(half, &group_by, &specs, AggPhase::Partial, &driver(workers), &[])
            };
            let mut partials = partial(&halves[0]);
            partials.append(&partial(&decoded));
            let merged = aggregate(&partials, &group_by, &specs, AggPhase::Final, &driver(workers), &[]);
            same_rows(rows_of(&merged), want.clone(), &format!("two phases, {workers} workers, {shape}"))?;
        }
    }
}

/// A join on `n_name` whose one side is the coded column of the nation
/// relation as it was loaded and whose other side is every nation's name,
/// broadcast — decoded from the wire, so plain — meets each nation once,
/// the coded side probing and building.
#[test]
fn coded_keys_join_plain_keys_that_crossed_an_exchange() {
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch(0.001).unwrap();
    let nation = cluster.node_ctx(0).tables.read()[&TpchTable::Nation].clone();
    assert!(is_coded(nation.column_by_name("n_name")), "loaded coded");
    let coded = || Plan::scan_cols(TpchTable::Nation, &["n_name", "n_nationkey"]);
    let plain = || {
        Plan::scan(TpchTable::Nation)
            .map(vec![
                MapExpr::new("b_name", col("n_name")),
                MapExpr::new("b_key", col("n_nationkey")),
            ])
            .broadcast()
    };
    for (plan, name_at, key_at) in [
        (
            coded().join(plain(), &["n_name"], &["b_name"], JoinKind::Inner),
            0,
            3,
        ),
        (
            plain().join(coded(), &["b_name"], &["n_name"], JoinKind::Inner),
            2,
            1,
        ),
    ] {
        let result = cluster.run_plan(&plan.gather()).unwrap().table;
        let mut pairs: Vec<(i64, i64)> = (0..result.rows())
            .map(|r| {
                let key = |c: usize| result.value(r, c).as_i64();
                assert_eq!(result.value(r, name_at), result.value(r, 2 - name_at));
                (key(key_at), key(4 - key_at))
            })
            .collect();
        pairs.sort_unstable();
        // The oracle: each of the 25 nations equals itself and no other.
        let want: Vec<(i64, i64)> = (0..25).map(|k| (k, k)).collect();
        assert_eq!(pairs, want);
    }
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Keyless aggregates
// ---------------------------------------------------------------------------

/// An aggregate without group columns has one group, which every row is
/// in (the kernel neither hashes nor looks it up): all six functions over
/// inputs of every type, in one phase and in two, on one to three workers
/// and morsels of seven rows. Over no rows, a Single or Final aggregate
/// still yields its one row and a Partial one yields none.
#[test]
fn keyless_aggregates_equal_the_reference() {
    let mut rng = Rng(0x6b65_796c_6573_7321);
    let fields = vec![
        Field::nullable("v_int", DataType::Int64),
        Field::nullable("v_dec", DataType::Decimal),
        Field::nullable("v_flt", DataType::Float64),
        Field::nullable("v_str", DataType::Utf8),
    ];
    let (v_int, v_dec, v_flt, v_str) = (0, 1, 2, 3);
    let all = [
        (AggFunc::Sum, v_int),
        (AggFunc::Sum, v_dec),
        (AggFunc::Avg, v_flt),
        (AggFunc::Avg, v_dec),
        (AggFunc::Count, v_str),
        (AggFunc::Count, v_flt),
        (AggFunc::Min, v_int),
        (AggFunc::Min, v_str),
        (AggFunc::Max, v_flt),
        (AggFunc::Max, v_str),
        (AggFunc::CountDistinct, v_int),
        (AggFunc::CountDistinct, v_str),
    ];
    let mergeable: Vec<(AggFunc, usize)> = all
        .iter()
        .copied()
        .filter(|(func, _)| *func != AggFunc::CountDistinct)
        .collect();
    for rows in [0, 1, 6, 7, 8, 50, 300] {
        let table = arb_table(&mut rng, fields.clone(), rows);
        // Small numbers, NULL where the random ones were: sums within the
        // tolerance, minima without NaNs.
        let mut cols = table.columns().cloned().collect::<Vec<_>>();
        let ints = (0..rows).map(|_| rng.below(9) as i64 - 4).collect();
        cols[v_int] = Column::I64(ints, cols[v_int].validity().cloned());
        let floats = (0..rows)
            .map(|_| rng.below(33) as f64 / 8.0 - 2.0)
            .collect();
        cols[v_flt] = Column::F64(floats, cols[v_flt].validity().cloned());
        let table = Table::new(table.schema().clone(), cols);
        let specs = |aggs: &[(AggFunc, usize)]| -> Vec<AggSpec> {
            aggs.iter()
                .enumerate()
                .map(|(i, &(func, c))| {
                    let name = &table.schema().fields()[c].name;
                    AggSpec::new(func, col(name), &format!("a{i}"))
                })
                .collect()
        };
        for workers in [1, 2, 3] {
            let what = format!("{rows} rows, {workers} workers");
            let single = aggregate(
                &table,
                &[],
                &specs(&all),
                AggPhase::Single,
                &driver(workers),
                &[],
            );
            assert_eq!(single.rows(), 1, "single phase, {what}");
            let want = reference_aggregate(&table, &[], &all);
            same_rows(rows_of(&single), want, &format!("single phase, {what}")).unwrap();

            // Three nodes' partials, merged; a node without rows sends none.
            let aggs = specs(&mergeable);
            let mut partials = Table::empty(
                aggregate(&table, &[], &aggs, AggPhase::Partial, &driver(1), &[])
                    .schema()
                    .clone(),
            );
            for part in chunk_split(table.clone(), 3) {
                let partial =
                    aggregate(&part, &[], &aggs, AggPhase::Partial, &driver(workers), &[]);
                assert_eq!(
                    partial.rows(),
                    usize::from(part.rows() > 0),
                    "partial, {what}"
                );
                partials.append(&partial);
            }
            let merged = aggregate(
                &partials,
                &[],
                &aggs,
                AggPhase::Final,
                &driver(workers),
                &[],
            );
            assert_eq!(merged.rows(), 1, "final phase, {what}");
            let want = reference_aggregate(&table, &[], &mergeable);
            same_rows(rows_of(&merged), want, &format!("two phases, {what}")).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// COUNT(DISTINCT) compaction
// ---------------------------------------------------------------------------

/// COUNT(DISTINCT) compacts its pairs whenever they hold more than twice
/// what it last kept plus a batch: over 20 000 rows in morsels of seven, a
/// few groups and a few dozen distinct values, that is hundreds of
/// compactions, and on three workers the merge of partly compacted pairs.
/// The values are the pools' — NULL, both zeros, a NaN, `""` among them.
#[test]
fn count_distinct_compacting_many_times_equals_a_btreemap() {
    let mut rng = Rng(0x00c0_ffee);
    let fields = vec![
        Field::nullable("g", DataType::Int64),
        Field::nullable("v_int", DataType::Int64),
        Field::nullable("v_flt", DataType::Float64),
        Field::nullable("v_str", DataType::Utf8),
    ];
    let table = arb_table(&mut rng, fields, 20_000);
    // Five groups and NULL, where the pool's integers would make a dozen.
    let mut cols = table.columns().cloned().collect::<Vec<_>>();
    let groups = (0..table.rows()).map(|_| rng.below(5) as i64).collect();
    cols[0] = Column::I64(groups, cols[0].validity().cloned());
    let table = Table::new(table.schema().clone(), cols);

    let chosen = [
        (AggFunc::CountDistinct, 1),
        (AggFunc::CountDistinct, 2),
        (AggFunc::CountDistinct, 3),
    ];
    let specs: Vec<AggSpec> = chosen
        .iter()
        .enumerate()
        .map(|(i, &(func, c))| {
            let name = &table.schema().fields()[c].name;
            AggSpec::new(func, col(name), &format!("a{i}"))
        })
        .collect();
    for group_by in [vec![], vec![0]] {
        let want = reference_aggregate(&table, &group_by, &chosen);
        for workers in [1, 3] {
            let got = aggregate(
                &table,
                &group_by,
                &specs,
                AggPhase::Single,
                &driver(workers),
                &[],
            );
            let what = format!("by {group_by:?}, {workers} workers");
            same_rows(rows_of(&got), want.clone(), &what).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Signed zeros
// ---------------------------------------------------------------------------

/// The exchange routes 0.0 and −0.0 to one node (it partitions by canonical
/// bits), so the aggregate there must see one key, not two: as a group
/// key, and as a member of a COUNT(DISTINCT).
#[test]
fn signed_zeros_are_one_group_and_one_distinct_member() {
    let zeros = Table::new(
        Schema::new(vec![Field::new("f", DataType::Float64)]),
        vec![Column::F64(vec![0.0, -0.0, 1.0], None)],
    );
    let count = [AggSpec::new(AggFunc::Count, lit(1), "n")];
    let distinct = [AggSpec::new(AggFunc::CountDistinct, col("f"), "d")];

    // On one node.
    let groups = aggregate(&zeros, &[0], &count, AggPhase::Single, &driver(1), &[]);
    let mut sizes: Vec<(u64, i64)> = (0..groups.rows())
        .map(|r| {
            (
                groups.value(r, 0).as_f64().to_bits(),
                groups.value(r, 1).as_i64(),
            )
        })
        .collect();
    sizes.sort();
    assert_eq!(sizes, [(0.0f64.to_bits(), 2), (1.0f64.to_bits(), 1)]);
    let members = aggregate(&zeros, &[], &distinct, AggPhase::Single, &driver(1), &[]);
    assert_eq!(members.value(0, 0), Value::I64(2));

    // Through a repartition by `f` on two nodes, one zero starting on each.
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    let one_zero_each = zeros.gather(&[0, 2, 1]);
    cluster
        .load_table(TpchTable::Region, chunk_split(one_zero_each, 2))
        .unwrap();
    let repartitioned = |group_by: &[&str], aggs: &[AggSpec]| -> Vec<Table> {
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Exchange {
                input: Box::new(Plan::scan(TpchTable::Region)),
                kind: ExchangeKind::HashPartition(vec!["f".to_string()]),
            }),
            group_by: group_by.iter().map(|g| g.to_string()).collect(),
            aggs: aggs.to_vec(),
            phase: AggPhase::Single,
        };
        let cluster = &cluster;
        std::thread::scope(|scope| {
            let nodes: Vec<_> = (0..2)
                .map(|n| {
                    let plan = &plan;
                    scope.spawn(move || {
                        NodeExec::new(cluster.node_ctx(n), QueryId(1), &[], 0).execute(plan)
                    })
                })
                .collect();
            nodes.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    let groups: usize = repartitioned(&["f"], &count).iter().map(Table::rows).sum();
    assert_eq!(
        groups, 2,
        "0.0 and -0.0 meet on one node and are one group there"
    );
    let members: i64 = repartitioned(&[], &distinct)
        .iter()
        .map(|t| t.value(0, 0).as_i64())
        .sum();
    assert_eq!(members, 2);
    cluster.shutdown();
}
