//! Exact guards on what the join and aggregation kernels ask of the
//! allocator, under a counting global allocator (the technique of
//! `tests/exchange_alloc.rs`, counting calls where that counts bytes).
//!
//! A kernel that builds a key per row — a `Vec` of parts, a boxed string, a
//! list of rows per distinct key, a vector of states per group — calls the
//! allocator at least once per row or per key, whatever the host is doing.
//! The kernels here are allowed a number of calls that grows with the
//! logarithm of their input (vectors that double) and with its morsels (a
//! vector of key columns and an evaluated input per batch): a few dozen
//! for 100 000 build rows, 400 000 probe rows, 400 000 aggregated rows and
//! 100 000 groups.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hsqp::engine::expr::{col, lit};
use hsqp::engine::local::MorselDriver;
use hsqp::engine::ops::{aggregate, probe_join, JoinTable};
use hsqp::engine::plan::{AggFunc, AggPhase, AggSpec, JoinKind};
use hsqp::numa::Topology;
use hsqp::storage::table::MORSEL_SIZE;
use hsqp::storage::{Column, DataType, Field, Schema, Table};

/// The system allocator, counting how often it is asked.
struct Counting;

/// Calls of `alloc`, `alloc_zeroed` and `realloc` since the last reset.
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is process-wide and the test harness runs tests on parallel
/// threads: whoever measures holds this.
static MEASURING: Mutex<()> = Mutex::new(());

/// Allocator calls `f` makes, and what it returns.
fn calls_of<R>(what: &str, f: impl FnOnce() -> R) -> (usize, R) {
    let _guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    CALLS.store(0, Ordering::Relaxed);
    let result = f();
    let calls = CALLS.load(Ordering::Relaxed);
    println!("{what}: {calls} allocator calls");
    (calls, result)
}

/// What every kernel below may ask for: today's counts are 8, 110, 125 and 197.
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
    let build = int_table("b", (0..BUILD_ROWS).map(|i| i * 7));
    // Every other probe row finds its key.
    let probe = int_table("p", (0..ROWS).map(|i| i % (2 * BUILD_ROWS) * 7));

    let (calls, table) = calls_of("build on 100 k unique Int64 keys", || {
        JoinTable::build(build, &[0])
    });
    assert!(
        calls <= BOUND,
        "{calls} calls to build over {BUILD_ROWS} rows"
    );

    let (calls, out) = calls_of("semi-join probe of 400 k rows", || {
        probe_join(&probe, &table, &[0], JoinKind::LeftSemi, &driver(), None)
    });
    assert_eq!(out.rows(), ROWS as usize / 2);
    assert!(calls <= BOUND, "{calls} calls to probe {ROWS} rows");
}

#[test]
fn an_aggregation_calls_the_allocator_a_few_dozen_times() {
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

    let (calls, out) = calls_of("400 k rows by (Utf8, Utf8) into 4 groups", || {
        aggregate(&input, &[0, 1], &aggs, AggPhase::Single, &driver(), &[])
    });
    assert_eq!(out.rows(), 4);
    assert!(calls <= BOUND, "{calls} calls for {ROWS} rows in 4 groups");

    let (calls, out) = calls_of("400 k rows by Int64 into 100 k groups", || {
        aggregate(&input, &[2], &aggs, AggPhase::Single, &driver(), &[])
    });
    assert_eq!(out.rows(), BUILD_ROWS as usize);
    assert!(
        calls <= BOUND,
        "{calls} calls for {ROWS} rows in {BUILD_ROWS} groups"
    );
}
