//! An exact guard on what filtering asks of the allocator, under a counting
//! global allocator (the technique of `tests/exchange_alloc.rs`).
//!
//! `BoundProgram::select` evaluates a predicate a conjunct at a time into a
//! selection vector the caller reuses, over column slices it borrows: what
//! it may request per morsel is a handful of small vectors, whatever the
//! morsel holds. A load that copies its column, a mask or a bitmap built
//! per predicate, or a string checked into a new buffer costs a byte or
//! more per row per conjunct, and fails the bound below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hsqp::engine::expr::{col, lit, litf, lits, Expr};
use hsqp::engine::vm::ExprProgram;
use hsqp::storage::table::MORSEL_SIZE;
use hsqp::storage::{date_from_ymd, Table};
use hsqp::tpch::{TpchDb, TpchTable};

/// The system allocator, counting what is asked of it.
struct Counting;

/// Bytes requested since the last reset (a `realloc` counts its whole new
/// size: it may have to move).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Calls of `alloc`, `alloc_zeroed` and `realloc` since the last reset.
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    REQUESTED.fetch_add(size, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// Q6's predicate: four conjuncts over a date and two Decimals.
fn q6() -> Expr {
    col("l_shipdate")
        .ge(lit(date_from_ymd(1994, 1, 1)))
        .and(col("l_shipdate").lt(lit(date_from_ymd(1995, 1, 1))))
        .and(col("l_discount").between(litf(0.0499), litf(0.0701)))
        .and(col("l_quantity").lt(litf(24.0)))
}

/// Q12's: a string `IN`, two column-to-column and two constant date
/// comparisons.
fn q12() -> Expr {
    col("l_shipmode")
        .in_str(&["MAIL", "SHIP"])
        .and(col("l_commitdate").lt(col("l_receiptdate")))
        .and(col("l_shipdate").lt(col("l_commitdate")))
        .and(col("l_receiptdate").ge(lit(date_from_ymd(1994, 1, 1))))
        .and(col("l_receiptdate").lt(lit(date_from_ymd(1995, 1, 1))))
}

/// Q19's scan filter: a string `IN` and a string equality.
fn q19() -> Expr {
    col("l_shipmode")
        .in_str(&["AIR", "REG AIR"])
        .and(col("l_shipinstruct").eq(lits("DELIVER IN PERSON")))
}

/// Bytes and allocator calls `select` requests filtering all of
/// `lineitem` with `predicate`, morsel by morsel into one reused selection
/// vector; and the rows it kept.
fn select_counts(lineitem: &Table, predicate: &Expr) -> (usize, usize, usize) {
    let prog = ExprProgram::compile(predicate, lineitem.schema()).unwrap();
    let bound = prog.bind(lineitem).unwrap();
    let mut sel = Vec::new();
    let mut kept = 0;
    REQUESTED.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    for start in (0..lineitem.rows()).step_by(MORSEL_SIZE) {
        let end = (start + MORSEL_SIZE).min(lineitem.rows());
        bound.select(lineitem, start..end, &[], &mut sel);
        kept += sel.len();
    }
    let counts = (
        REQUESTED.load(Ordering::Relaxed),
        CALLS.load(Ordering::Relaxed),
    );
    // The same rows as the mask, counted where nothing is measured.
    let masked: usize = (0..lineitem.rows())
        .step_by(MORSEL_SIZE)
        .map(|s| {
            let mask = bound.eval_mask(lineitem, s..(s + MORSEL_SIZE).min(lineitem.rows()), &[]);
            mask.iter().filter(|&&b| b).count()
        })
        .sum();
    assert_eq!(kept, masked);
    (counts.0, counts.1, kept)
}

/// Measured on 150 k lineitems, before selection vectors: 47.1, 74.1 and
/// 43.1 bytes per row through `eval_mask`, in 17, 17 and 11 allocator
/// calls per morsel. Through `select`: the selection vector, allocated
/// once, and the stack of each morsel's run.
#[test]
fn selecting_requests_at_most_eight_bytes_per_row() {
    const BOUND: f64 = 8.0;
    // One node's share of SF 0.05: about 150 000 lineitems.
    let db = TpchDb::generate(0.025);
    let lineitem = db.table(TpchTable::Lineitem);
    let rows = lineitem.rows();
    assert!(rows > 140_000, "{rows} lineitems");
    let morsels = rows.div_ceil(MORSEL_SIZE);
    for (name, predicate) in [("Q6", q6()), ("Q12", q12()), ("Q19", q19())] {
        let (bytes, calls, kept) = select_counts(lineitem, &predicate);
        let per_row = bytes as f64 / rows as f64;
        println!(
            "{name}: {kept} of {rows} rows kept; requested {bytes} bytes ({per_row:.2} B/row) \
             in {calls} allocator calls ({:.1} per morsel)",
            calls as f64 / morsels as f64
        );
        assert!(kept > 0, "{name} kept nothing");
        assert!(
            per_row <= BOUND,
            "{name}'s filter requested {per_row:.2} bytes per row (bound {BOUND}): a load \
             copies its column, or a mask is built per predicate"
        );
    }
}
