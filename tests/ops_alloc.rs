//! Exact guards on what the join and aggregation kernels ask of the
//! allocator, under a counting global allocator (the technique of
//! `tests/exchange_alloc.rs`, counting calls, live bytes and their peak).
//!
//! A kernel that builds a key per row — a `Vec` of parts, a boxed string, a
//! list of rows per distinct key, a vector of states per group — calls the
//! allocator at least once per row or per key, whatever the host is doing.
//! The kernels here are allowed a number of calls that grows with the
//! logarithm of their input (vectors that double) and with its morsels (a
//! vector of key columns and an evaluated input per batch): a few dozen
//! for 100 000 build rows, 400 000 probe rows, 400 000 aggregated rows and
//! 100 000 groups.
//!
//! `COUNT(DISTINCT)` is also held to the memory it keeps: its pairs are
//! appended and compacted whenever they have doubled, so what it holds at
//! its peak follows the distinct (group, value) pairs, never the input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use hsqp::engine::expr::{col, lit};
use hsqp::engine::local::MorselDriver;
use hsqp::engine::ops::{aggregate, probe_join, JoinTable};
use hsqp::engine::plan::{AggFunc, AggPhase, AggSpec, JoinKind};
use hsqp::numa::Topology;
use hsqp::storage::table::MORSEL_SIZE;
use hsqp::storage::{Column, DataType, Field, Schema, Table, Value};

/// The system allocator, counting how often it is asked and how many bytes
/// it has out.
struct Counting;

/// Calls of `alloc`, `alloc_zeroed` and `realloc` since the last reset.
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, since the process started.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // Counted as the new block arriving before the old one leaves,
        // which is what a move to a new address costs.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide and the test harness runs tests on
/// parallel threads: every test holds this from its first allocation to its
/// last, so that no other test's tables are counted in its measurements.
static MEASURING: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// What `f` asks of the allocator — its calls, and the most bytes it has
/// out at once beyond what was out before it, per input row — and what it
/// returns.
fn asked_of<R>(what: &str, f: impl FnOnce() -> R) -> (usize, f64, R) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    let result = f();
    let calls = CALLS.load(Ordering::Relaxed);
    let per_row = PEAK.load(Ordering::Relaxed).saturating_sub(before) as f64 / ROWS as f64;
    println!("{what}: {calls} allocator calls, {per_row:.1} peak bytes per input row");
    (calls, per_row, result)
}

/// What every kernel below may ask for. Today's counts are 6 (build), 72
/// (probe), 184 and 256 (the two aggregations), and 194 and 118 for the
/// two `COUNT(DISTINCT)`s. Grouping into 100 k groups sits at the bound.
const BOUND: usize = 256;

const BUILD_ROWS: i64 = 100_000;
const ROWS: i64 = 400_000;

/// One worker, as every benchmarked node has, over morsels of the size the
/// engine cuts.
fn driver() -> MorselDriver {
    MorselDriver::new(1, &Topology::uniform(1), MORSEL_SIZE, true)
}

fn int_table(name: &str, keys: impl Iterator<Item = i64>) -> Table {
    Table::new(
        Schema::new(vec![Field::new(name, DataType::Int64)]),
        vec![Column::I64(keys.collect(), None)],
    )
}

#[test]
fn a_join_calls_the_allocator_a_few_dozen_times() {
    let _exclusive = exclusive();
    let build = int_table("b", (0..BUILD_ROWS).map(|i| i * 7));
    // Every other probe row finds its key.
    let probe = int_table("p", (0..ROWS).map(|i| i % (2 * BUILD_ROWS) * 7));

    let (calls, _, table) = asked_of("build on 100 k unique Int64 keys", || {
        JoinTable::build(build, &[0])
    });
    assert!(
        calls <= BOUND,
        "{calls} calls to build over {BUILD_ROWS} rows"
    );

    let (calls, _, out) = asked_of("semi-join probe of 400 k rows", || {
        probe_join(&probe, &table, &[0], JoinKind::LeftSemi, &driver(), None)
    });
    assert_eq!(out.rows(), ROWS as usize / 2);
    assert!(calls <= BOUND, "{calls} calls to probe {ROWS} rows");
}

#[test]
fn an_aggregation_calls_the_allocator_a_few_dozen_times() {
    let _exclusive = exclusive();
    let flags = ["A", "N", "R", "N"];
    let statuses = ["F", "O", "F", "F"];
    let input = Table::new(
        Schema::new(vec![
            Field::new("flag", DataType::Utf8),
            Field::new("status", DataType::Utf8),
            Field::new("key", DataType::Int64),
            Field::new("qty", DataType::Decimal),
        ]),
        vec![
            Column::Str(
                (0..ROWS).map(|i| flags[(i * 7 % 4) as usize]).collect(),
                None,
            ),
            Column::Str(
                (0..ROWS).map(|i| statuses[(i * 7 % 4) as usize]).collect(),
                None,
            ),
            Column::I64((0..ROWS).map(|i| i / 4).collect(), None),
            Column::I64((0..ROWS).map(|i| i % 50 * 100).collect(), None),
        ],
    );
    let aggs = [
        AggSpec::new(AggFunc::Sum, col("qty"), "sum_qty"),
        AggSpec::new(AggFunc::Count, lit(1), "cnt"),
    ];

    let (calls, _, out) = asked_of("400 k rows by (Utf8, Utf8) into 4 groups", || {
        aggregate(&input, &[0, 1], &aggs, AggPhase::Single, &driver(), &[])
    });
    assert_eq!(out.rows(), 4);
    assert!(calls <= BOUND, "{calls} calls for {ROWS} rows in 4 groups");

    let (calls, _, out) = asked_of("400 k rows by Int64 into 100 k groups", || {
        aggregate(&input, &[2], &aggs, AggPhase::Single, &driver(), &[])
    });
    assert_eq!(out.rows(), BUILD_ROWS as usize);
    assert!(
        calls <= BOUND,
        "{calls} calls for {ROWS} rows in {BUILD_ROWS} groups"
    );
}

/// `COUNT(DISTINCT)` shaped like Q21's: four rows per group, every
/// (group, value) pair distinct, so the pairs are as many as the rows. A
/// second hash table over the pairs held 56.7 bytes per row at its peak in
/// 304 calls; appended pairs compacted by a counting sort hold 33.1 in 194.
#[test]
fn a_count_distinct_over_distinct_pairs_keeps_them_compactly() {
    let _exclusive = exclusive();
    let input = Table::new(
        Schema::new(vec![
            Field::new("key", DataType::Int64),
            Field::new("val", DataType::Int64),
        ]),
        vec![
            Column::I64((0..ROWS).map(|i| i / 4).collect(), None),
            Column::I64((0..ROWS).map(|i| i * 7919 % 5000).collect(), None),
        ],
    );
    let aggs = [AggSpec::new(AggFunc::CountDistinct, col("val"), "d")];

    let (calls, per_row, out) = asked_of("count(distinct) of 400 k pairs in 100 k groups", || {
        aggregate(&input, &[0], &aggs, AggPhase::Single, &driver(), &[])
    });
    assert_eq!(out.rows(), BUILD_ROWS as usize);
    assert!((0..out.rows()).all(|r| out.value(r, 1) == Value::I64(4)));
    assert!(calls <= BOUND, "{calls} calls for {ROWS} distinct pairs");
    assert!(
        per_row <= 48.0,
        "{per_row:.1} peak bytes per row for {ROWS} distinct pairs"
    );
}

/// A global `COUNT(DISTINCT)` over four values: its state must stay near
/// the four pairs it keeps. Pairs that were appended and never compacted
/// would hold 24.2 bytes per row at the end; compacted as they double they
/// hold 3.4 (the hash table held 1.7).
#[test]
fn a_count_distinct_over_few_values_keeps_few_pairs() {
    let _exclusive = exclusive();
    let input = int_table("val", (0..ROWS).map(|i| i * 7 % 4));
    let aggs = [AggSpec::new(AggFunc::CountDistinct, col("val"), "d")];

    let (calls, per_row, out) = asked_of("global count(distinct) of 400 k rows, 4 values", || {
        aggregate(&input, &[], &aggs, AggPhase::Single, &driver(), &[])
    });
    assert_eq!(out.value(0, 0), Value::I64(4));
    assert!(calls <= BOUND, "{calls} calls for {ROWS} rows of 4 values");
    assert!(
        per_row <= 8.0,
        "{per_row:.1} peak bytes per row for 4 distinct values"
    );
}
