//! Exact guards on what the exchange data path allocates, under a counting
//! global allocator: timings on a shared two-core host wander by ± 20 %,
//! bytes requested from the allocator do not.
//!
//! * A repartition that keeps its result must not request more than a
//!   small multiple of its input: one set of destination columns, and —
//!   warm — next to nothing for message buffers, which come from the pool
//!   and go back to it. A temporary table per message, a buffer allocated
//!   per message, or a result that is appended together twice, fails the
//!   bound below whatever the host is doing. The buffers the pool still
//!   registers — how many depends on how many messages happen to be in
//!   flight at once — are counted on their own and must stay a small
//!   share of the buffers taken.
//! * A repartition whose result is aggregated as it lands must request a
//!   fraction of its input: nothing on that path may grow with the rows
//!   that pass through it.
//! * The wire decoder must not let the bytes it decodes talk it into an
//!   allocation: whatever a corrupted message declares, nothing much
//!   larger than the message itself is ever requested.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::exchange::HEADER_LEN;
use hsqp::engine::expr::lit;
use hsqp::engine::plan::{AggFunc, AggSpec, Plan};
use hsqp::engine::queries::global_agg;
use hsqp::engine::serial::{decode_table, encode_table};
use hsqp::engine::wire::RowSerializer;
use hsqp::storage::{Column, DataType, Field, Schema, Table, Value};
use hsqp::tpch::{TpchDb, TpchTable};

/// The system allocator, counting what is asked of it.
struct Counting;

/// Bytes requested since the last [`reset`] (a `realloc` counts its whole
/// new size: it may have to move).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Largest single request since the last [`reset`].
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    REQUESTED.fetch_add(size, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
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

/// The counters are process-wide and the test harness runs tests on
/// parallel threads: whoever measures holds this.
static MEASURING: Mutex<()> = Mutex::new(());

fn reset() {
    REQUESTED.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
}

/// Message size of the measured cluster.
const MESSAGE: usize = 32 * 1024;

/// Bytes the allocator is asked for while `plan` runs — warm: it has run
/// once already — on a simulated 2 × 1 cluster holding TPC-H at SF 0.01,
/// with 32 KiB messages, as a multiple of the `byte_size()` of lineitem,
/// the relation every measured plan moves; and the rows of the result.
///
/// The message buffers the pool registers in the measured run are not in
/// that multiple: a sender that runs ahead of its receiver leaves more
/// messages in flight than the warm-up left idle, by as many buffers as
/// the threads' timing decides (0–61 of 276 in a release build). They are
/// counted apart, and must be at most half the buffers taken: a pool that
/// stopped reusing registers one per message.
fn requested_per_lineitem_byte(plan: &Plan) -> (f64, usize, usize) {
    let _guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let db = TpchDb::generate(0.01);
    let input_bytes = db.table(TpchTable::Lineitem).byte_size();
    let input_rows = db.table(TpchTable::Lineitem).rows();
    let cluster = Cluster::start(ClusterConfig {
        workers_per_node: 1,
        message_capacity: MESSAGE,
        ..ClusterConfig::quick(2)
    })
    .unwrap();
    cluster.load_tpch_db(db).unwrap();
    // Once unmeasured: thread stacks, pool registrations, lazy statics.
    cluster.run_plan(plan).unwrap();
    // (registrations, takes) of both nodes' message pools.
    let pools = || {
        (0..2).fold((0, 0), |(r, t), n| {
            let pool = &cluster.node_ctx(n).pool;
            (r + pool.registrations(), t + pool.takes())
        })
    };

    let before = pools();
    reset();
    let result = cluster.run_plan(plan).unwrap();
    let requested = REQUESTED.load(Ordering::Relaxed);
    let after = pools();
    cluster.shutdown();
    let (registered, taken) = (after.0 - before.0, after.1 - before.1);
    let exchange = requested - registered as usize * (MESSAGE + HEADER_LEN);
    let ratio = exchange as f64 / input_bytes as f64;
    println!(
        "requested {requested} bytes for {input_bytes} input bytes, {registered} of \
         {taken} message buffers registered: {ratio:.2}x without them"
    );
    assert!(
        registered * 2 <= taken,
        "the message pool registered {registered} of the {taken} buffers taken in a warm \
         run: buffers are no longer reused"
    );
    (ratio, result.row_count(), input_rows)
}

/// `Plan::scan(Lineitem).repartition(&["l_orderkey"])`, the result kept.
///
/// Measured, bytes requested for 8.94 MB of input (the counts repeat to
/// within a few KB, the bookkeeping of whichever threads happen to run):
///
/// * row-at-a-time send into buffers that regrow, receive through a
///   temporary table per message and two growing appends: **11.11**
/// * column-at-a-time, every message allocated twice — as the buffer it is
///   written into and as the shared buffer the fabric carries — plus one
///   set of destination columns: **3.27**
/// * this exchange: **1.15–1.17** — the destination columns, sized up front
///   with an eighth to spare; message buffers are the pool's and cost
///   nothing once it is warm (the spread is the odd buffer the pool
///   still registers when more messages are in flight than it has idle).
/// * since lineitem's four low-cardinality string columns are held as
///   one-byte codes, its `byte_size` — the denominator — is 7.12 MB, 20 %
///   less, while the landed columns are plain as before; with the pool's
///   registrations counted apart, **1.52** in every run.
#[test]
fn repartition_allocates_a_small_multiple_of_its_input() {
    const BOUND: f64 = 2.0;
    let plan = Plan::scan(TpchTable::Lineitem).repartition(&["l_orderkey"]);
    let (ratio, rows, input_rows) = requested_per_lineitem_byte(&plan);
    // Node 0's share of a two-way hash split.
    assert!(rows > input_rows / 3 && rows < input_rows * 2 / 3);
    assert!(
        ratio < BOUND,
        "a repartition requested {ratio:.2}x its input from the allocator (bound {BOUND}x): \
         something on the exchange path copies every tuple more often than it used to, or \
         allocates per message"
    );
}

/// The same repartition under a global `count(*)`: the aggregate takes the
/// decoded batches as they land, so what is requested is two batches of a
/// few thousand rows (one per node) and what the aggregate asks for per
/// batch — **0.25–0.27** of the input, and no more for ten times the input.
/// Materializing the exchange's result anywhere on that path costs 1.1,
/// a buffer per message 1.0. Against the 20 % smaller input of coded
/// lineitem that path would read 0.37–0.56; with the send loop's bucket
/// ids and selections sized once per exchange (not regrown at every one)
/// and `count(*)` counting rows instead of evaluating a column of ones
/// per batch, and the pool's registrations counted apart, it reads
/// **0.31–0.32** (ten release runs with debug assertions).
#[test]
fn streamed_repartition_allocates_a_fraction_of_its_input() {
    const BOUND: f64 = 0.5;
    let count = vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")];
    let plan = global_agg(
        Plan::scan(TpchTable::Lineitem).repartition(&["l_orderkey"]),
        count,
    );
    let (ratio, rows, input_rows) = requested_per_lineitem_byte(&plan);
    assert_eq!(rows, 1);
    assert!(input_rows > 50_000);
    assert!(
        ratio < BOUND,
        "a streamed repartition requested {ratio:.2}x its input from the allocator (bound \
         {BOUND}x): something between the exchange and the aggregate above it keeps what \
         passes through, or allocates per message"
    );
}

/// 200 rows of every wire class — fixed and variable-length, NOT NULL and
/// nullable with NULLs — with empty and multi-byte strings.
fn mixed_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::nullable("price", DataType::Decimal),
        Field::new("name", DataType::Utf8),
        Field::nullable("ratio", DataType::Float64),
        Field::nullable("note", DataType::Utf8),
    ]);
    let mut cols: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.dtype))
        .collect();
    let words = ["", "naïve", "日本語", "plain", "ß"];
    for i in 0..200usize {
        cols[0].push_value(&Value::I64(i as i64 * 1_000_003));
        cols[1].push_value(&match i % 5 {
            0 => Value::Null,
            _ => Value::I64(i as i64 * 99),
        });
        cols[2].push_value(&Value::Str(format!("{}{i}", words[i % words.len()])));
        cols[3].push_value(&match i % 3 {
            1 => Value::Null,
            _ => Value::F64(i as f64 / 7.0),
        });
        cols[4].push_value(&match i % 4 {
            2 => Value::Null,
            _ => Value::Str(words[(i / 4) % words.len()].repeat(i % 3)),
        });
    }
    Table::new(schema, cols)
}

/// Every prefix and every single-byte corruption of `bytes` (each byte
/// with its low bit, its high bit and all its bits flipped), with the
/// largest single allocation `decode` made for any of them.
fn worst_allocation(bytes: &[u8], decode: impl Fn(&[u8])) -> usize {
    let mut worst = 0;
    let mut check = |corrupt: &[u8]| {
        LARGEST.store(0, Ordering::Relaxed);
        decode(corrupt);
        worst = worst.max(LARGEST.load(Ordering::Relaxed));
    };
    for cut in 0..bytes.len() {
        check(&bytes[..cut]);
    }
    let mut corrupt = bytes.to_vec();
    for at in 0..bytes.len() {
        for flip in [0x01, 0x80, 0xFF] {
            corrupt[at] = bytes[at] ^ flip;
            check(&corrupt);
        }
        corrupt[at] = bytes[at];
    }
    worst
}

/// Hostile bytes: every truncation and every single-byte mutation of an
/// encoded table — its schema, its row count, and the chunk of column runs
/// an exchange message would carry — decodes to an error or to a table,
/// never a panic, and never makes the decoder request a block larger than
/// twice the input.
#[test]
fn corrupt_tables_decode_to_errors_without_large_allocations() {
    let _guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let table = mixed_table();
    let framed = encode_table(&table);
    assert_eq!(decode_table(&framed).as_ref(), Ok(&table));

    let worst = worst_allocation(&framed, |bytes| {
        if let Ok(t) = decode_table(bytes) {
            // Whatever decoded is a well-formed table.
            if let Some(last) = t.rows().checked_sub(1) {
                std::hint::black_box(t.row(last));
            }
        }
    });
    assert!(
        worst <= 2 * framed.len(),
        "decoding a corrupt {}-byte table allocated {worst} bytes at once",
        framed.len()
    );

    // A forged row count at the head of the chunk asks for nothing at all.
    let mut chunk = Vec::new();
    RowSerializer::new(table.schema()).serialize_range(&table, 0..table.rows(), &mut chunk);
    let at = framed.len() - chunk.len();
    assert_eq!(framed[at..], chunk[..]);
    let mut forged = framed.clone();
    forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    LARGEST.store(0, Ordering::Relaxed);
    assert!(decode_table(&forged).is_err());
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 1024,
        "a forged row count allocated {largest} bytes"
    );
}
