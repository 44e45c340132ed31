//! Property-based tests (proptest) on the core data structures and
//! invariants: the wire format, partitioning, dates, LIKE matching,
//! bitmaps, sorting, and two-phase aggregation.

use proptest::prelude::*;

use hsqp::engine::exec::{bucket_vector, row_bucket};
use hsqp::engine::expr::{col, lit, Expr, LikeMatcher};
use hsqp::engine::local::MorselDriver;
use hsqp::engine::ops::{aggregate, sort_table};
use hsqp::engine::plan::{AggFunc, AggSpec, SortKey};
use hsqp::engine::wire::{rows_that_fit, RowDeserializer, RowSerializer, Rows};
use hsqp::numa::Topology;
use hsqp::storage::placement::{chunk_split, crc32_i64, hash_partition};
use hsqp::storage::types::ymd_of_date;
use hsqp::storage::{date_from_ymd, Bitmap, Column, DataType, Field, Schema, Table, Value};

/// A random nullable mixed-type table: every wire class (fixed and
/// variable-length, NOT NULL and nullable), empty and multi-byte strings.
fn arb_table() -> impl Strategy<Value = Table> {
    let row = (
        any::<i64>(),
        proptest::option::of(any::<f64>().prop_filter("finite", |f| f.is_finite())),
        proptest::option::of("[a-z0-9 éß日𝄞]{0,12}"),
        0i64..1000,
        proptest::option::of(any::<i64>()),
        "[a-cü語]{0,5}",
    );
    proptest::collection::vec(row, 0..60).prop_map(|rows| {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::nullable("f", DataType::Float64),
            Field::nullable("s", DataType::Utf8),
            Field::new("g", DataType::Int64),
            Field::nullable("n", DataType::Decimal),
            Field::new("u", DataType::Utf8),
        ]);
        let mut cols: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        for (k, f, s, g, n, u) in rows {
            cols[0].push_value(&Value::I64(k));
            cols[1].push_value(&f.map_or(Value::Null, Value::F64));
            cols[2].push_value(&s.map_or(Value::Null, Value::Str));
            cols[3].push_value(&Value::I64(g));
            cols[4].push_value(&n.map_or(Value::Null, Value::I64));
            cols[5].push_value(&Value::Str(u));
        }
        Table::new(schema, cols)
    })
}

/// `back` holds exactly the rows `sel` of `t`, value for value and NULL
/// for NULL, as `Table::gather` would produce them.
fn same_as_gather(back: &Table, t: &Table, sel: &[usize]) -> Result<(), TestCaseError> {
    let expect = t.gather(sel);
    prop_assert_eq!(back.rows(), expect.rows());
    for r in 0..expect.rows() {
        for c in 0..expect.schema().len() {
            prop_assert_eq!(back.value(r, c), expect.value(r, c), "row {} col {}", r, c);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn wire_roundtrip_is_lossless(t in arb_table()) {
        let ser = RowSerializer::new(t.schema());
        let de = RowDeserializer::new(t.schema());
        let mut buf = Vec::new();
        ser.serialize_range(&t, 0..t.rows(), &mut buf);
        let back = de.deserialize(&buf);
        prop_assert_eq!(back.rows(), t.rows());
        for r in 0..t.rows() {
            for c in 0..t.schema().len() {
                prop_assert_eq!(back.value(r, c), t.value(r, c));
            }
        }
    }

    #[test]
    fn wire_row_size_is_exact(t in arb_table()) {
        // What the sender cuts messages by: a chunk is four bytes plus the
        // sizes of its rows, whichever rows those are.
        let ser = RowSerializer::new(t.schema());
        let mut sizes = Vec::new();
        ser.row_sizes(&t, Rows::Span(0, t.rows()), &mut sizes);
        prop_assert_eq!(sizes.len(), t.rows());
        for (r, size) in sizes.iter().enumerate() {
            let mut buf = Vec::new();
            ser.serialize_range(&t, r..r + 1, &mut buf);
            prop_assert_eq!(4 + size, buf.len());
        }
    }

    #[test]
    fn wire_selection_roundtrip_equals_gather(
        t in arb_table(),
        picks in proptest::collection::vec(any::<u64>(), 0..150),
        morsel in 1usize..40,
    ) {
        let ser = RowSerializer::new(t.schema());
        let de = RowDeserializer::new(t.schema());
        // Any rows in any order, some more than once; none; all.
        let random: Vec<usize> = match t.rows() {
            0 => Vec::new(),
            rows => picks.iter().map(|&p| (p % rows as u64) as usize).collect(),
        };
        for sel in [random, Vec::new(), (0..t.rows()).collect()] {
            // One chunk.
            let mut chunk = Vec::new();
            ser.serialize(&t, Rows::Sel(&sel), &mut chunk);
            same_as_gather(&de.deserialize(&chunk), &t, &sel)?;

            // The same rows as a sender ships them: a morsel's share at a
            // time into the open message, a new message when one is full.
            for capacity in [64, 300, 4096, 65536] {
                let mut messages: Vec<Vec<u8>> = vec![Vec::new()];
                let mut sizes = Vec::new();
                for piece in sel.chunks(morsel) {
                    let rows = Rows::Sel(piece);
                    ser.row_sizes(&t, rows, &mut sizes);
                    let mut done = 0;
                    while done < piece.len() {
                        let open = messages.last_mut().expect("one open");
                        let room = capacity - open.len().min(capacity);
                        let fit = rows_that_fit(&sizes[done..], room, open.is_empty());
                        ser.serialize(&t, rows.slice(done..done + fit), open);
                        done += fit;
                        if done < piece.len() {
                            messages.push(Vec::new());
                        }
                    }
                }
                let mut cols = de.empty_columns();
                let mut rows = 0;
                for message in &messages {
                    let got = de.decode_into(message, &mut cols);
                    prop_assert!(got.is_ok(), "{:?}", got);
                    // No message outgrows its buffer, except to carry a
                    // single row that no message could hold.
                    prop_assert!(message.len() <= capacity || got == Ok(1));
                    rows += got.unwrap_or(0);
                }
                // No row split, dropped or reordered at a cut.
                prop_assert_eq!(rows, sel.len());
                same_as_gather(&Table::new(t.schema().clone(), cols), &t, &sel)?;
            }
        }
    }

    #[test]
    fn bucket_kernel_equals_row_bucket(t in arb_table(), buckets in 1usize..13) {
        let key = |name: &str| {
            let i = t.schema().index_of(name);
            (t.column(i), t.schema().fields()[i].dtype == DataType::Decimal)
        };
        for names in [
            &["k"][..], &["f"], &["s"], &["n"], &["u"],
            &["u", "k"], &["n", "s", "f"],
        ] {
            let cols: Vec<(&Column, bool)> = names.iter().map(|n| key(n)).collect();
            kernel_equals_row_bucket(&cols, t.rows(), buckets);
        }
    }

    #[test]
    fn crc_partitioning_is_stable_and_in_range(keys in proptest::collection::vec(any::<i64>(), 1..500), n in 1usize..16) {
        for &k in &keys {
            let b = crc32_i64(k) as usize % n;
            prop_assert!(b < n);
            prop_assert_eq!(b, crc32_i64(k) as usize % n);
        }
    }

    #[test]
    fn hash_partition_is_disjoint_and_complete(t in arb_table(), n in 1usize..6) {
        let parts = hash_partition(t.clone(), 0, n);
        let total: usize = parts.iter().map(Table::rows).sum();
        prop_assert_eq!(total, t.rows());
        let mut all: Vec<i64> = parts
            .iter()
            .flat_map(|p| p.column(0).i64_values().to_vec())
            .collect();
        let mut orig: Vec<i64> = t.column(0).i64_values().to_vec();
        all.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(all, orig);
    }

    #[test]
    fn chunk_split_preserves_order_and_rows(t in arb_table(), n in 1usize..6) {
        let parts = chunk_split(t.clone(), n);
        prop_assert_eq!(parts.len(), n);
        let rebuilt: Vec<i64> = parts
            .iter()
            .flat_map(|p| p.column(0).i64_values().to_vec())
            .collect();
        prop_assert_eq!(rebuilt, t.column(0).i64_values().to_vec());
    }

    #[test]
    fn date_roundtrip(days in -200_000i64..200_000) {
        let (y, m, d) = ymd_of_date(days);
        prop_assert_eq!(date_from_ymd(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    #[test]
    fn like_matches_reference(text in "[a-c]{0,16}", pattern in "[a-c%]{0,8}") {
        // Reference: naive recursive matcher over % wildcards.
        fn reference(text: &str, pat: &str) -> bool {
            match pat.find('%') {
                None => text == pat,
                Some(i) => {
                    let (head, rest) = (&pat[..i], &pat[i + 1..]);
                    if !text.starts_with(head) {
                        return false;
                    }
                    let tail = &text[head.len()..];
                    (0..=tail.len()).any(|j| reference(&tail[j..], rest))
                }
            }
        }
        let m = LikeMatcher::new(&pattern);
        prop_assert_eq!(m.matches(&text), reference(&text, &pattern), "pattern {:?} text {:?}", pattern, text);
    }

    #[test]
    fn bitmap_behaves_like_vec_bool(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
        let bm: Bitmap = bits.iter().copied().collect();
        prop_assert_eq!(bm.len(), bits.len());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(bm.get(i), b);
        }
        prop_assert_eq!(bm.count_set(), bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn bulk_append_equals_row_wise_push(
        ints in proptest::collection::vec(proptest::option::of(any::<i64>()), 0..200),
        strs in proptest::collection::vec(proptest::option::of("[a-zé語]{0,6}"), 0..200),
    ) {
        let ints: Vec<Value> = ints.into_iter().map(|v| v.map_or(Value::Null, Value::I64)).collect();
        let strs: Vec<Value> = strs.into_iter().map(|v| v.map_or(Value::Null, Value::Str)).collect();
        for (dtype, values) in [(DataType::Int64, ints), (DataType::Utf8, strs)] {
            let build = |values: &[Value]| {
                let mut c = Column::empty(dtype);
                values.iter().for_each(|v| c.push_value(v));
                c
            };
            // The appended part starts at every bit offset of a word, and
            // then some.
            for offset in 0..=values.len().min(130) {
                let mut joined = build(&values[..offset]);
                joined.append(&build(&values[offset..]));
                prop_assert_eq!(joined.len(), values.len());
                for (row, v) in values.iter().enumerate() {
                    prop_assert_eq!(&joined.value(row), v, "offset {} row {}", offset, row);
                }
            }
        }
    }

    #[test]
    fn sort_is_ordered_permutation(t in arb_table()) {
        let sorted = sort_table(&t, &[SortKey::asc("k"), SortKey::desc("g")], None);
        prop_assert_eq!(sorted.rows(), t.rows());
        let ks = sorted.column(0).i64_values();
        let gs = sorted.column(3).i64_values();
        for w in 1..sorted.rows() {
            prop_assert!(ks[w - 1] <= ks[w]);
            if ks[w - 1] == ks[w] {
                prop_assert!(gs[w - 1] >= gs[w]);
            }
        }
        let mut a: Vec<i64> = ks.to_vec();
        let mut b: Vec<i64> = t.column(0).i64_values().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sort_limit_is_prefix(t in arb_table(), limit in 0usize..20) {
        let full = sort_table(&t, &[SortKey::asc("k")], None);
        let limited = sort_table(&t, &[SortKey::asc("k")], Some(limit));
        prop_assert_eq!(limited.rows(), limit.min(t.rows()));
        prop_assert_eq!(
            limited.column(0).i64_values(),
            &full.column(0).i64_values()[..limited.rows()]
        );
    }

    #[test]
    fn two_phase_aggregation_equals_single(t in arb_table(), split in 0usize..60) {
        use hsqp::engine::plan::AggPhase;
        let driver = MorselDriver::new(1, &Topology::uniform(1), 16, true);
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, col("g"), "total"),
            AggSpec::new(AggFunc::Count, lit(1), "cnt"),
            AggSpec::new(AggFunc::Min, col("k"), "lo"),
            AggSpec::new(AggFunc::Max, col("k"), "hi"),
            AggSpec::new(AggFunc::Avg, col("g"), "mean"),
        ];
        let single = aggregate(&t, &[3], &aggs, AggPhase::Single, &driver, &[]);

        let split = split.min(t.rows());
        let left = t.gather(&(0..split).collect::<Vec<_>>());
        let right = t.gather(&(split..t.rows()).collect::<Vec<_>>());
        let mut partials = aggregate(&left, &[3], &aggs, AggPhase::Partial, &driver, &[]);
        partials.append(&aggregate(&right, &[3], &aggs, AggPhase::Partial, &driver, &[]));
        let gidx = partials.schema().index_of("g");
        let merged = aggregate(&partials, &[gidx], &aggs, AggPhase::Final, &driver, &[]);

        prop_assert_eq!(merged.rows(), single.rows());
        let key = |tab: &Table| {
            let mut rows: Vec<String> = (0..tab.rows())
                .map(|r| {
                    (0..tab.schema().len())
                        .map(|c| match tab.value(r, c) {
                            Value::F64(x) => format!("{x:.6}"),
                            v => v.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(key(&merged), key(&single));
    }

    #[test]
    fn zipf_imbalance_at_least_one(count in 10usize..500, units in 1usize..32) {
        let g = hsqp::tpch::ZipfGenerator::new(50, 0.84);
        let keys = g.sample_many(count, 5);
        let f = hsqp::tpch::skew::imbalance(&keys, units);
        prop_assert!(f >= 1.0 - 1e-9);
    }
}

/// `bucket_vector` over all rows and over an inner range agrees with the
/// scalar `row_bucket`, row for row.
fn kernel_equals_row_bucket(cols: &[(&Column, bool)], rows: usize, buckets: usize) {
    let mut out = Vec::new();
    for range in [0..rows, rows / 3..rows - rows / 4] {
        bucket_vector(cols, range.clone(), buckets, &mut out);
        let scalar: Vec<u32> = range
            .map(|row| row_bucket(cols, row, buckets) as u32)
            .collect();
        assert_eq!(out, scalar, "{buckets} buckets");
    }
}

#[test]
fn bucket_kernel_on_the_edges_of_the_numeric_domain() {
    let exact = 1i64 << 53;
    let ints = Column::I64(
        vec![
            0,
            7,
            -7,
            exact,
            exact + 1,
            -exact - 1,
            i64::MAX,
            i64::MAX - 1,
            i64::MIN,
        ],
        None,
    );
    let floats = Column::F64(
        vec![
            0.0,
            -0.0,
            f64::NAN,
            7.0,
            -7.5,
            f64::INFINITY,
            1e300,
            5e-324,
            -f64::NAN,
        ],
        None,
    );
    let strs = Column::Str(
        ["", "a", "ab", "日本", "", "z", "7", "7.0", "\u{0}"]
            .into_iter()
            .collect(),
        None,
    );
    for buckets in [1, 2, 3, 6, 64] {
        for single in [
            (&ints, false),
            (&ints, true),
            (&floats, false),
            (&strs, false),
        ] {
            kernel_equals_row_bucket(&[single], 9, buckets);
        }
        kernel_equals_row_bucket(&[(&ints, false), (&strs, false)], 9, buckets);
        kernel_equals_row_bucket(
            &[(&floats, false), (&ints, true), (&ints, false)],
            9,
            buckets,
        );

        // A single Int64 key is `placement::hash_partition`'s hash.
        let mut out = Vec::new();
        bucket_vector(&[(&ints, false)], 0..9, buckets, &mut out);
        for (&b, &v) in out.iter().zip(ints.i64_values()) {
            assert_eq!(b as usize, crc32_i64(v) as usize % buckets);
        }
    }
}

#[test]
fn equal_numbers_share_a_bucket_whatever_their_type() {
    let int = Column::I64(vec![7, 0, 0], None);
    let dec = Column::I64(vec![700, 0, 0], None); // 7.00
    let flt = Column::F64(vec![7.0, 0.0, -0.0], None);
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    for buckets in [2, 5, 48, 1000] {
        bucket_vector(&[(&int, false)], 0..3, buckets, &mut a);
        bucket_vector(&[(&dec, true)], 0..3, buckets, &mut b);
        bucket_vector(&[(&flt, false)], 0..3, buckets, &mut c);
        assert_eq!(a, b, "Int64 vs Decimal, {buckets} buckets");
        assert_eq!(a, c, "Int64 vs Float64, {buckets} buckets");
    }
}

/// Build a deterministic random expression from a stream of seed words,
/// bounded in depth so generation always terminates.
fn build_expr(seed: &mut std::slice::Iter<'_, u64>, depth: u32) -> Expr {
    use hsqp::engine::expr::{ArithOp, CmpOp};
    fn next(seed: &mut std::slice::Iter<'_, u64>, m: u64) -> u64 {
        seed.next().copied().unwrap_or(7) % m
    }
    if depth == 0 {
        return match next(seed, 5) {
            0 => Expr::Col(format!("c{}", next(seed, 8))),
            1 => Expr::LitI64(next(seed, u64::MAX) as i64),
            2 => Expr::LitF64(next(seed, 1_000_000) as f64 / 64.0),
            3 => Expr::LitStr(format!("s{}", next(seed, 100))),
            _ => Expr::Param(next(seed, 6) as usize),
        };
    }
    fn sub(seed: &mut std::slice::Iter<'_, u64>, depth: u32) -> Box<Expr> {
        Box::new(build_expr(seed, depth - 1))
    }
    match next(seed, 12) {
        0 => Expr::Cmp(
            [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][next(seed, 6) as usize],
            sub(seed, depth),
            sub(seed, depth),
        ),
        1 => Expr::And(vec![
            build_expr(seed, depth - 1),
            build_expr(seed, depth - 1),
        ]),
        2 => Expr::Or(vec![
            build_expr(seed, depth - 1),
            build_expr(seed, depth - 1),
        ]),
        3 => Expr::Not(sub(seed, depth)),
        4 => Expr::Arith(
            [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][next(seed, 4) as usize],
            sub(seed, depth),
            sub(seed, depth),
        ),
        5 => Expr::Like(sub(seed, depth), format!("%p{}%", next(seed, 50))),
        6 => Expr::InStr(
            sub(seed, depth),
            (0..next(seed, 4)).map(|i| format!("o{i}")).collect(),
        ),
        7 => Expr::InI64(sub(seed, depth), (0..next(seed, 4) as i64).collect()),
        8 => Expr::Substr(
            sub(seed, depth),
            next(seed, 10) as usize,
            next(seed, 10) as usize,
        ),
        9 => Expr::ExtractYear(sub(seed, depth)),
        10 => Expr::Case(sub(seed, depth), sub(seed, depth), sub(seed, depth)),
        _ => Expr::IsNull(sub(seed, depth)),
    }
}

proptest! {
    #[test]
    fn plan_serialization_roundtrips_random_exprs(
        seed in proptest::collection::vec(any::<u64>(), 1..64),
        depth in 0u32..4,
    ) {
        use hsqp::engine::plan::{MapExpr, Plan};
        use hsqp::engine::queries::{Query, QueryStage, StageRole};
        use hsqp::engine::serial::{decode_query, encode_query};
        let expr = build_expr(&mut seed.iter(), depth);
        let plan = Plan::scan(hsqp::tpch::TpchTable::Lineitem)
            .filter(expr.clone())
            .map(vec![MapExpr::new("e", expr)])
            .gather();
        let q = Query {
            stages: vec![QueryStage { plan, role: StageRole::Result, estimated_rows: None }],
            number: 0,
        };
        let bytes = encode_query(&q);
        prop_assert_eq!(decode_query(&bytes).unwrap(), q);
    }
}

/// A string column of few distinct values, NULL in some rows, plain and
/// coded (a byte per row into a dictionary of its strings).
fn arb_coded() -> impl Strategy<Value = (Column, Column)> {
    proptest::collection::vec(proptest::option::of("[a-cé ]{0,3}"), 1..80).prop_map(|words| {
        let mut plain = Column::empty(DataType::Utf8);
        for w in words {
            plain.push_value(&w.map_or(Value::Null, Value::Str));
        }
        let coded = plain.clone().encode();
        (plain, coded)
    })
}

fn is_coded(c: &Column) -> bool {
    matches!(c, Column::Str(s, _) if s.dictionary().is_some())
}

// The coded and the plain form of a column are one column to everything
// that cuts, gathers, routes, hashes and serializes it.
proptest! {
    #[test]
    fn coded_columns_cut_and_gather_as_plain_ones(
        pair in arb_coded(),
        picks in proptest::collection::vec(any::<u32>(), 0..40),
        cut in any::<u32>(),
    ) {
        let (plain, coded) = pair;
        let n = plain.len();
        prop_assert!(is_coded(&coded));
        prop_assert_eq!(&coded, &plain);
        let dict = coded.str_values().dictionary().unwrap().byte_size();
        prop_assert_eq!(coded.byte_size(), n + dict);

        let picks: Vec<usize> = picks.iter().map(|&p| p as usize % n).collect();
        let gathered = coded.gather(&picks);
        prop_assert!(is_coded(&gathered));
        prop_assert_eq!(&gathered, &plain.gather(&picks));

        let at = cut as usize % (n + 1);
        for range in [0..at, at..n] {
            let slice = coded.slice(range.clone());
            prop_assert!(is_coded(&slice));
            prop_assert_eq!(&slice, &plain.slice(range));
        }

        let to: Vec<u32> = (0..n).map(|r| picks.get(r).map_or(0, |&p| (p % 3) as u32)).collect();
        let mut counts = vec![0; 3];
        to.iter().for_each(|&p| counts[p as usize] += 1);
        for (c, p) in coded.scatter(&to, &counts).iter().zip(plain.scatter(&to, &counts)) {
            prop_assert!(is_coded(c));
            prop_assert_eq!(c, &p);
        }

        // Gathered onto a slice of itself, with rows of no row among them.
        let rows: Vec<u32> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| if i % 5 == 4 { Column::NULL_ROW } else { p as u32 })
            .collect();
        let (mut c, mut p) = (coded.slice(0..at), plain.slice(0..at));
        c.extend_gather(&coded, &rows);
        p.extend_gather(&plain, &rows);
        prop_assert!(is_coded(&c));
        prop_assert_eq!(&c, &p);
        // Rows of another dictionary decode the column.
        let other = plain.clone().encode();
        c.extend_gather(&other, &rows);
        p.extend_gather(&plain, &rows);
        prop_assert!(!is_coded(&c));
        prop_assert_eq!(&c, &p);
    }

    #[test]
    fn coded_strings_route_and_serialize_as_plain_ones(
        pair in arb_coded(),
        ints in proptest::collection::vec(any::<i64>(), 80..81),
        buckets in 1usize..9,
    ) {
        let (plain, coded) = pair;
        let n = plain.len();
        let ids = Column::I64(ints[..n].to_vec(), None);
        let mut want = Vec::new();
        bucket_vector(&[(&ids, false), (&plain, false)], 0..n, buckets, &mut want);
        let mut got = Vec::new();
        bucket_vector(&[(&ids, false), (&coded, false)], 0..n, buckets, &mut got);
        prop_assert_eq!(&got, &want);
        for (row, &wanted) in want.iter().enumerate() {
            let bucket = row_bucket(&[(&ids, false), (&coded, false)], row, buckets);
            prop_assert_eq!(bucket, wanted as usize);
            prop_assert_eq!(bucket, row_bucket(&[(&ids, false), (&plain, false)], row, buckets));
        }

        let schema = Schema::new(vec![Field::new("k", DataType::Int64), Field::nullable("s", DataType::Utf8)]);
        let as_table = |c: &Column| Table::new(schema.clone(), vec![ids.clone(), c.clone()]);
        let (p, c) = (as_table(&plain), as_table(&coded));
        let ser = RowSerializer::new(&schema);
        let sel: Vec<usize> = (0..n).rev().step_by(2).collect();
        for rows in [Rows::Span(0, n), Rows::Sel(&sel)] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            ser.serialize(&p, rows, &mut a);
            ser.serialize(&c, rows, &mut b);
            prop_assert_eq!(&a, &b);
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            ser.row_sizes(&p, rows, &mut sa);
            ser.row_sizes(&c, rows, &mut sb);
            prop_assert_eq!(&sa, &sb);
        }
    }
}
