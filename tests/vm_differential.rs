//! Differential tests for the compiled expression VM against the reference
//! evaluator's scalar expressions (`tests/support/oracle.rs`), which share
//! no code with it — the correctness contract of the vectorized executor.
//!
//! Three layers:
//! 1. proptest: random well-typed expressions over random nullable
//!    mixed-dtype tables must evaluate identically (values, validity, and
//!    selection masks; floats bit for bit) under `ExprProgram` and the
//!    oracle, evaluated row at a time.
//! 2. deterministic kernel cases: one test per typed kernel family
//!    (comparisons, arithmetic, strings, dates, CASE, NULL handling)
//!    pinning the edges proptest may not hit every run — Decimal scale,
//!    division by zero, NaN ordering, NULL parameters, byte-wise SUBSTRING.
//! 3. end-to-end: every stage of every planned TPC-H query compiles, and a
//!    plan with an expression that cannot be typed fails as a planner
//!    error before it runs, on both clusters.

mod support;

use std::collections::HashMap;
use std::ops::Range;

use proptest::prelude::*;

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::expr::{col, lit, litf, lits, param, Expr};
use hsqp::engine::plan::Plan;
use hsqp::engine::planner::{Planner, PlannerConfig};
use hsqp::engine::queries::{tpch_logical, Query, StageRole, ALL_QUERIES};
use hsqp::engine::vm::{compile_stage, EvalVec, ExprProgram, VecData};
use hsqp::engine::{Coordinator, EngineError, NodeServer, ProcessCluster, ProcessClusterConfig};
use hsqp::storage::{date_from_ymd, Column, DataType, Field, Schema, Table, Value};
use hsqp::tpch::{schema as tpch_schema, TpchTable};

use support::oracle::{Rel, Ty};

/// Parameter bindings shared by the VM and the oracle: integer, float, string, and
/// NULL (the generator only uses $2 in string contexts and $3 in numeric
/// ones, mirroring how the planner binds scalar-subquery results).
fn test_params() -> Vec<Value> {
    vec![
        Value::I64(7),
        Value::F64(2.5),
        Value::Str("gj".into()),
        Value::Null,
    ]
}

/// The fixed schema every generated expression is typed against:
/// non-nullable Int64 and Date, nullable Decimal / Float64 / Int64 / Utf8.
fn test_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("d", DataType::Date),
        Field::nullable("dec", DataType::Decimal),
        Field::nullable("f", DataType::Float64),
        Field::nullable("ni", DataType::Int64),
        Field::nullable("s", DataType::Utf8),
    ])
}

type Row = (
    i64,
    u32,
    Option<i64>,
    Option<f64>,
    Option<i64>,
    Option<String>,
);

fn table_from_rows(rows: Vec<Row>) -> Table {
    let schema = test_schema();
    let mut cols: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.dtype))
        .collect();
    for (k, d, dec, f, ni, s) in rows {
        cols[0].push_value(&Value::I64(k));
        let date = date_from_ymd(1992 + i64::from(d % 7), 1 + d / 7 % 12, 1 + d / 84 % 28);
        cols[1].push_value(&Value::I64(date));
        cols[2].push_value(&dec.map_or(Value::Null, Value::I64));
        cols[3].push_value(&f.map_or(Value::Null, Value::F64));
        cols[4].push_value(&ni.map_or(Value::Null, Value::I64));
        cols[5].push_value(&s.map_or(Value::Null, Value::Str));
    }
    Table::new(schema, cols)
}

/// A random nullable table over all six dtypes. Integer magnitudes are kept
/// small (|v| ≤ 100) so depth-3 multiplication chains cannot overflow i64 —
/// overflow panics in the VM and the oracle alike but would abort the test.
fn arb_table() -> impl Strategy<Value = Table> {
    let row = (
        -100i64..101,
        any::<u32>(),
        proptest::option::of(-100_000i64..100_001),
        proptest::option::of(any::<f64>().prop_filter("finite", |f| f.is_finite())),
        proptest::option::of(-100i64..101),
        proptest::option::of("[a-z0-9 ]{0,12}"),
    );
    proptest::collection::vec(row, 1..48).prop_map(table_from_rows)
}

/// Deterministic token stream driving the expression generator: proptest
/// supplies the randomness as a `Vec<u32>`; exhaustion yields zeros, which
/// always select a leaf, so generation terminates.
struct Toks {
    toks: Vec<u32>,
    pos: usize,
}

impl Toks {
    fn next(&mut self) -> u32 {
        let t = self.toks.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        t
    }
}

/// A random numeric-typed expression (Int64, Date, Decimal, or Float64
/// inputs; includes deliberate division by zero and NULL parameters).
fn gen_num(t: &mut Toks, depth: u32) -> Expr {
    let choice = if depth == 0 {
        t.next() % 7
    } else {
        t.next() % 11
    };
    match choice {
        0 => col("k"),
        1 => col("dec"),
        2 => col("f"),
        3 => col("ni"),
        4 => lit(i64::from(t.next() % 201) - 100),
        5 => litf((f64::from(t.next() % 201) - 100.0) / 8.0),
        6 => match t.next() % 3 {
            0 => param(0),
            1 => param(1),
            _ => param(3), // NULL parameter
        },
        7 => {
            let op = t.next() % 4;
            let a = gen_num(t, depth - 1);
            let b = gen_num(t, depth - 1);
            match op {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                _ => a.div(b),
            }
        }
        8 => gen_num(t, depth - 1).div(lit(0)), // division by zero on purpose
        9 => {
            let c = gen_bool(t, depth - 1);
            c.case(gen_num(t, depth - 1), gen_num(t, depth - 1))
        }
        _ => col("d").year().sub(lit(1992)),
    }
}

/// A random string-typed expression.
fn gen_str(t: &mut Toks, depth: u32) -> Expr {
    const LITS: [&str; 5] = ["", "a", "foo", "xy z", "gj"];
    let choice = if depth == 0 {
        t.next() % 3
    } else {
        t.next() % 4
    };
    match choice {
        0 => col("s"),
        1 => lits(LITS[t.next() as usize % LITS.len()]),
        2 => param(2),
        _ => {
            let start = 1 + t.next() as usize % 4;
            let len = t.next() as usize % 5;
            gen_str(t, depth - 1).substr(start, len)
        }
    }
}

/// A random boolean-typed expression (the filter-predicate shape).
fn gen_bool(t: &mut Toks, depth: u32) -> Expr {
    const PATTERNS: [&str; 5] = ["%a%", "f%", "%z", "a_c", "%"];
    let cmp = |t: &mut Toks, a: Expr, b: Expr| match t.next() % 6 {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.le(b),
        4 => a.gt(b),
        _ => a.ge(b),
    };
    if depth == 0 {
        let a = gen_num(t, 0);
        let b = gen_num(t, 0);
        return cmp(t, a, b);
    }
    match t.next() % 11 {
        0 | 1 => {
            let a = gen_num(t, depth - 1);
            let b = gen_num(t, depth - 1);
            cmp(t, a, b)
        }
        2 => {
            let a = gen_str(t, depth - 1);
            let b = gen_str(t, depth - 1);
            cmp(t, a, b)
        }
        3 => gen_bool(t, depth - 1).and(gen_bool(t, depth - 1)),
        4 => gen_bool(t, depth - 1).or(gen_bool(t, depth - 1)),
        5 => gen_bool(t, depth - 1).not(),
        6 => gen_str(t, depth - 1).like(PATTERNS[t.next() as usize % PATTERNS.len()]),
        7 => gen_str(t, depth - 1).in_str(&["foo", "a", ""]),
        8 => match t.next() % 3 {
            0 => col("k").in_i64(&[0, 1, 7, -3]),
            1 => col("ni").in_i64(&[2, -2, 50]),
            _ => col("d").year().in_i64(&[1993, 1995]),
        },
        9 => {
            if t.next().is_multiple_of(2) {
                gen_num(t, depth - 1).is_null()
            } else {
                gen_str(t, depth - 1).is_null()
            }
        }
        _ => {
            let x = gen_num(t, depth - 1);
            let lo = gen_num(t, depth - 1);
            let hi = gen_num(t, depth - 1);
            x.between(lo, hi)
        }
    }
}

/// f64 agreement: exact equality, identical bit pattern, or both NaN.
/// The oracle performs the VM's operations in the VM's order, so results
/// are bitwise identical in practice; the NaN clause only guards against a
/// payload-differing NaN from the same arithmetic.
fn f64_eq(a: f64, b: f64) -> bool {
    a == b || a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::F64(a), Value::F64(b)) => f64_eq(*a, *b),
        _ => got == want,
    }
}

fn kind(v: &EvalVec) -> Ty {
    match v.data {
        VecData::I64(_) => Ty::Int,
        VecData::F64(_) => Ty::Float,
        VecData::Str(_) => Ty::Str,
        VecData::Bool(_) => Ty::Bool,
    }
}

/// Compile `e`, bind it, and check it against the oracle row by row, over
/// the full table and over a sub-range (validity bitmaps are
/// range-relative — a classic off-by-offset trap): the same type, the same
/// NULLs, the same values, and for a predicate the same selection mask.
fn check_agree(e: &Expr, t: &Table) -> Result<(), TestCaseError> {
    let ps = test_params();
    let prog = match ExprProgram::compile(e, t.schema()) {
        Ok(p) => p,
        Err(err) => {
            return Err(TestCaseError::fail(format!(
                "well-typed expression failed to compile: {err} — {e:?}"
            )))
        }
    };
    let bound = prog
        .bind(t)
        .map_err(|err| TestCaseError::fail(format!("bind failed: {err} — {e:?}")))?;
    let rel = Rel::of_table(t);
    let oracle = rel.scope(&ps);
    let ty = oracle.ty(e);
    let ranges: [Range<usize>; 2] = [0..t.rows(), t.rows() / 3..t.rows()];
    for range in ranges {
        let got = bound.eval(t, range.clone(), &ps);
        prop_assert_eq!(got.len(), range.len(), "length mismatch for {:?}", e);
        prop_assert_eq!(kind(&got), ty, "type mismatch for {:?}", e);
        let mask = (ty == Ty::Bool).then(|| bound.eval_mask(t, range.clone(), &ps));
        for (i, row) in rel.rows[range].iter().enumerate() {
            let want = oracle.value(e, row);
            prop_assert!(
                same(&got.value(i), &want),
                "row {}: {:?} where the oracle has {:?} for {:?}",
                i,
                got.value(i),
                want,
                e
            );
            if let Some(mask) = &mask {
                prop_assert_eq!(mask[i], oracle.holds(e, row), "mask row {} for {:?}", i, e);
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn random_numeric_expressions_agree(
        t in arb_table(),
        toks in proptest::collection::vec(any::<u32>(), 0..48),
        depth in 0u32..4,
    ) {
        let e = gen_num(&mut Toks { toks, pos: 0 }, depth);
        check_agree(&e, &t)?;
    }

    #[test]
    fn random_string_expressions_agree(
        t in arb_table(),
        toks in proptest::collection::vec(any::<u32>(), 0..48),
        depth in 0u32..4,
    ) {
        let e = gen_str(&mut Toks { toks, pos: 0 }, depth);
        check_agree(&e, &t)?;
    }

    #[test]
    fn random_predicates_agree(
        t in arb_table(),
        toks in proptest::collection::vec(any::<u32>(), 0..64),
        depth in 0u32..4,
    ) {
        let e = gen_bool(&mut Toks { toks, pos: 0 }, depth);
        check_agree(&e, &t)?;
    }

    #[test]
    fn folded_expressions_agree_with_unfolded(
        t in arb_table(),
        toks in proptest::collection::vec(any::<u32>(), 0..48),
        depth in 0u32..4,
    ) {
        // Constant folding is a planner rewrite; it must be invisible: the
        // folded predicate selects what the original does.
        let e = gen_bool(&mut Toks { toks, pos: 0 }, depth);
        let folded = e.fold();
        let ps = test_params();
        let rel = Rel::of_table(&t);
        let oracle = rel.scope(&ps);
        for row in &rel.rows {
            prop_assert_eq!(oracle.holds(&e, row), oracle.holds(&folded, row), "fold changed {:?}", e);
        }
        check_agree(&folded, &t)?;
    }
}

// ---------------------------------------------------------------------------
// Deterministic kernel cases
// ---------------------------------------------------------------------------

/// A small fixed table hitting the edges: NULLs in every nullable column,
/// zeros, negatives, Decimal cents needing scale conversion, empty and
/// multi-word strings.
fn kernel_table() -> Table {
    table_from_rows(vec![
        (0, 0, Some(0), Some(0.0), Some(0), Some(String::new())),
        (1, 1, Some(1), Some(-1.5), Some(-3), Some("a".into())),
        (
            -7,
            2,
            Some(-12345),
            Some(f64::MAX),
            None,
            Some("foo bar".into()),
        ),
        (100, 3, Some(99), None, Some(50), None),
        (-100, 4, None, Some(1e-9), Some(7), Some("xy z".into())),
        (42, 5, Some(100_000), Some(-0.0), Some(2), Some("gj".into())),
    ])
}

fn check(e: Expr) {
    check_agree(&e, &kernel_table()).unwrap_or_else(|err| panic!("{err:?}"));
}

#[test]
fn kernel_cmp_i64() {
    for e in [
        col("k").lt(col("ni")),
        col("k").eq(lit(42)),
        col("ni").ge(lit(0)),
        col("d").ne(col("k")),
    ] {
        check(e);
    }
}

#[test]
fn kernel_cmp_f64_including_nan() {
    // NaN never compares true under any operator — in the VM or the oracle.
    let nan = litf(0.0).div(litf(0.0));
    for e in [
        col("f").lt(col("dec")),
        col("f").le(litf(0.0)),
        nan.clone().lt(litf(1.0)),
        nan.clone().ge(litf(1.0)),
        nan.clone().eq(nan.clone()),
        col("f").gt(nan),
    ] {
        check(e);
    }
}

#[test]
fn kernel_cmp_str() {
    for e in [
        col("s").eq(lits("foo bar")),
        col("s").lt(lits("b")),
        col("s").ge(lits("")),
    ] {
        check(e);
    }
}

#[test]
fn kernel_arith_i64_and_f64() {
    for e in [
        col("k").add(col("ni")),
        col("k").sub(lit(100)),
        col("ni").mul(lit(-3)),
        col("f").add(col("dec")),
        col("k").mul(col("f")),
        col("dec").sub(litf(0.005)),
    ] {
        check(e);
    }
}

#[test]
fn kernel_division_by_zero_is_float() {
    // Div always produces Float64: 1/0 → +inf, -1/0 → -inf, 0/0 → NaN,
    // in the VM and the oracle (and identically when constant-folded).
    for e in [
        col("k").div(lit(0)),
        col("f").div(litf(0.0)),
        lit(1).div(lit(0)),
        litf(-1.0).div(litf(0.0)),
        col("k").div(col("ni")),
    ] {
        check(e);
    }
}

#[test]
fn kernel_decimal_scale() {
    // Decimal columns evaluate as f64 at cents/100 scale; the edge is a
    // value whose scaled form is not exactly representable (12345 cents).
    for e in [
        col("dec").eq(litf(123.45)),
        col("dec").eq(litf(-123.45)),
        col("dec").mul(lit(100)),
        col("dec").add(col("dec")),
        col("dec").gt(litf(999.99)),
    ] {
        check(e);
    }
}

#[test]
fn kernel_null_propagation() {
    for e in [
        col("ni").add(lit(1)),
        col("ni").mul(col("dec")),
        col("ni").is_null(),
        col("f").is_null(),
        col("s").is_null(),
        col("ni").eq(lit(50)), // NULL never matches a comparison
        param(3).add(col("k")),
        param(3).eq(lit(0)),
        param(3).is_null(),
        col("k").lt(lit(10)).case(col("ni"), col("dec")),
    ] {
        check(e);
    }
}

#[test]
fn kernel_string_ops() {
    for e in [
        col("s").like("%o%"),
        col("s").like("f__ b%"),
        col("s").in_str(&["foo bar", ""]),
        col("s").substr(2, 3).eq(lits("oo ")),
        col("s").substr(1, 0).eq(lits("")),
        col("s").substr(4, 50).like("%"),
        lits("héllo").substr(2, 1).eq(lits("")), // byte slicing mid-codepoint
        param(2).eq(col("s")),
    ] {
        check(e);
    }
}

#[test]
fn kernel_dates_and_case() {
    for e in [
        col("d").year().eq(lit(1994)),
        col("d").year().in_i64(&[1992, 1996]),
        col("d").ge(lit(date_from_ymd(1994, 6, 1))),
        col("k").gt(lit(0)).case(lit(1), lit(0)),
        col("f").is_null().case(litf(0.0), col("f")),
        col("s").like("%a%").case(col("k"), col("ni").mul(lit(2))),
    ] {
        check(e);
    }
}

#[test]
fn common_subexpressions_compile_to_tees() {
    let shared = col("k").add(col("ni"));
    let e = shared.clone().mul(shared.clone()).add(shared);
    let prog = ExprProgram::compile(&e, &test_schema()).unwrap();
    let listing = prog.listing().join("\n");
    assert!(listing.contains("tee"), "expected a tee in:\n{listing}");
    assert!(
        listing.contains("load_tmp"),
        "expected load_tmp in:\n{listing}"
    );
    // And the shared subtree is emitted exactly once.
    assert_eq!(listing.matches("arith_i64  Add").count(), 2, "{listing}");
    check(e);
}

#[test]
fn constant_subtrees_fold_at_compile_time() {
    let e = col("k").add(lit(2).mul(lit(3)));
    let prog = ExprProgram::compile(&e, &test_schema()).unwrap();
    let listing = prog.listing().join("\n");
    assert!(listing.contains("const_i64  6"), "{listing}");
    check(e);
}

#[test]
fn bind_rejects_schema_drift() {
    let e = col("k").add(lit(1));
    let prog = ExprProgram::compile(&e, &test_schema()).unwrap();
    // Same column name, different dtype: bind must refuse, not misread.
    let other = Table::new(
        Schema::new(vec![Field::new("k", DataType::Float64)]),
        vec![Column::empty(DataType::Float64)],
    );
    assert!(prog.bind(&other).is_err());
    // Missing column entirely.
    let empty = Table::new(Schema::new(vec![]), vec![]);
    assert!(prog.bind(&empty).is_err());
}

// ---------------------------------------------------------------------------
// End-to-end: every planned TPC-H stage compiles; what does not compile fails
// before it runs
// ---------------------------------------------------------------------------

fn base_schema(t: TpchTable) -> Option<Schema> {
    Some(match t {
        TpchTable::Part => tpch_schema::part(),
        TpchTable::Supplier => tpch_schema::supplier(),
        TpchTable::Partsupp => tpch_schema::partsupp(),
        TpchTable::Customer => tpch_schema::customer(),
        TpchTable::Orders => tpch_schema::orders(),
        TpchTable::Lineitem => tpch_schema::lineitem(),
        TpchTable::Nation => tpch_schema::nation(),
        TpchTable::Region => tpch_schema::region(),
    })
}

/// TPC-H query `n` as the planner lowers it for two nodes.
fn planned(n: u32) -> Query {
    Planner::new(PlannerConfig::new(2))
        .plan_query(&tpch_logical(n).unwrap())
        .unwrap()
}

#[test]
fn every_tpch_plan_compiles_to_programs() {
    // Every stage of every planned query compiles against the base schemas
    // (the path a node takes before it runs a stage), and each query has
    // programs to run.
    for n in ALL_QUERIES {
        let q = planned(n);
        let mut temps: HashMap<String, Schema> = HashMap::new();
        let mut total = 0usize;
        for stage in &q.stages {
            let (compiled, schema) = compile_stage(&stage.plan, &base_schema, &temps);
            assert_eq!(compiled.failure(), None, "Q{n} does not compile");
            total += compiled.program_count();
            if let StageRole::Materialize(name) = &stage.role {
                temps.insert(name.clone(), schema.expect("a temp's schema is inferred"));
            }
        }
        assert!(total > 0, "Q{n} compiled zero programs");
    }
}

#[test]
fn q6_filter_compiles_and_annotates() {
    let base = |t: TpchTable| (t == TpchTable::Lineitem).then(tpch_schema::lineitem);
    let q = planned(6);
    let stage = &q.stages[0];
    let (compiled, _) = compile_stage(&stage.plan, &base, &HashMap::new());
    let has_filter = (0..64).any(|i| compiled.get(i).is_some_and(|p| p.filter.is_some()));
    assert!(has_filter, "Q6's scan filter must compile");
    let annotated = compiled.annotate(&stage.plan);
    assert!(
        annotated.contains("(p"),
        "explain must name programs:\n{annotated}"
    );
    let rendered = compiled.render(&stage.plan);
    assert!(
        rendered.contains("p0 ="),
        "render must list programs:\n{rendered}"
    );
}

/// A filter adding a number to a string cannot be typed. Submitted to
/// `cluster`, it must come back as an error, and the next query must still
/// return the right rows.
fn untypable_filter_fails(cluster: &Coordinator) -> EngineError {
    let bad = Plan::scan(TpchTable::Lineitem)
        .filter(col("l_comment").add(lit(1)).gt(lit(0)))
        .gather();
    let nations = Plan::scan_cols(TpchTable::Nation, &["n_nationkey"]).gather();
    let err = cluster
        .run_plan(&bad)
        .expect_err("an untypable filter must fail");
    assert_eq!(cluster.run_plan(&nations).unwrap().row_count(), 25);
    err
}

#[test]
fn untypable_expressions_fail_as_planner_errors_before_running() {
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch(0.001).unwrap();
    let executed = || cluster.metrics().counter("stages.executed");
    let before = executed();
    match untypable_filter_fails(&cluster) {
        EngineError::Planner(msg) => assert!(msg.contains("does not compile"), "{msg}"),
        other => panic!("expected a planner error, got {other:?}"),
    }
    // No stage of the bad query ran; the good one did.
    assert_eq!(executed(), before.map(|n| n + 1));
    cluster.shutdown();

    // Over sockets every node refuses the stage, and keeps serving.
    let addrs: Vec<String> = (0..2)
        .map(|_| {
            let server = NodeServer::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap().to_string();
            std::thread::spawn(move || {
                let _ = server.run();
            });
            addr
        })
        .collect();
    let cfg = ProcessClusterConfig {
        reply_timeout: std::time::Duration::from_secs(10),
        ..ProcessClusterConfig::default()
    };
    let pc = ProcessCluster::connect(&addrs, cfg).unwrap();
    pc.load_tpch(0.001).unwrap();
    match untypable_filter_fails(&pc) {
        EngineError::Execution(msg) => assert!(msg.contains("does not compile"), "{msg}"),
        other => panic!("expected the nodes' refusal, got {other:?}"),
    }
    pc.shutdown();
}
