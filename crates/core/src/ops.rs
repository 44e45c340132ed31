//! Relational operators: hash join, hash aggregation, sort.
//!
//! Operators are morsel-parallel: probe/aggregation input is split into
//! morsels claimed dynamically by workers ([`crate::local::MorselDriver`]),
//! worker-local results are merged at the pipeline breaker — the HyPer
//! execution model the paper builds on.
//!
//! Join and aggregation share one key kernel, and no key is ever built.
//! The key columns of a batch are hashed a column at a time into a
//! `Vec<u64>`, by a loop picked once per column from its physical type and
//! promote flag (`hash_keys`; the shape of
//! [`bucket_vector`](crate::exec::bucket_vector), with a multiply-mix in
//! place of the CRC, whose residue every row of a node shares). The hash
//! picks a slot; a slot heads a chain of `u32` ids — build rows in a
//! [`JoinTable`], dense group ids in the aggregation's `GroupTable` — and a
//! candidate is compared where it lies, in the column buffers
//! (`keys_equal`: two plain Int64 parts as integers, numbers of different
//! types by value, strings by their bytes). Aggregate state is one typed
//! vector per aggregate with a slot per group id, updated a batch at a time
//! and moved into the result — except COUNT(DISTINCT)'s, which appends
//! (group id, value) pairs and compacts them by a counting sort on the
//! group id whenever they double (`DistinctPairs`), a sequential pass
//! where a second hash table would pay a cache miss per pair.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use hsqp_storage::{decimal_to_f64, Bitmap, Column, DataType, Field, Schema, Table, Value};

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

// ---------------------------------------------------------------------------
// Key kernel
// ---------------------------------------------------------------------------

// Canonical numeric-key helpers live next to the placement hash in
// `hsqp_storage` so that table placement and exchange partitioning cannot
// diverge; re-exported here because key equality is defined by them.
pub use hsqp_storage::placement::{canon_f64_bits, i64_as_f64_exact};

/// A key column plus its canonicalization flag: `true` promotes a
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

/// An empty slot, the end of a chain, the build row of an outer-join miss.
const NIL: u32 = Column::NULL_ROW;

/// Multiplier of the hash step (2^64 / φ, odd).
const FOLD: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// What a NULL key part hashes as.
const NULL_WORD: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One hash step. A multiply only carries entropy *upwards* — the low `k`
/// bits of a product depend on the low `k` bits of its factors alone — and
/// keys may keep theirs anywhere (small integers at the bottom, f64 bit
/// patterns at the top), so a table reads its slot off the **top** of the
/// hash ([`slot_of`]), which every input bit has reached; the shift hands
/// the top half down for the next part's multiply to carry up again.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    let x = (hash ^ word).wrapping_mul(FOLD);
    x ^ (x >> 32)
}

/// Slot of `hash` among `slots`: its top bits, scaled. Any table size
/// will do, and a one-slot table puts every key into one chain.
#[inline]
fn slot_of(hash: u64, slots: usize) -> usize {
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

/// What a number hashes by: the integer it equals, if there is one, else
/// its bits. Equal Int64, Float64 and promoted Decimal keys hash alike,
/// −0.0 as 0, and an Int64 column hashes its values as they are.
#[inline]
fn float_word(f: f64) -> u64 {
    let i = f as i64;
    // 2^63 saturates to i64::MAX, which rounds back up to 2^63.
    if i as f64 == f && i != i64::MAX {
        i as u64
    } else {
        f.to_bits()
    }
}

#[inline]
fn str_word(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut hash = bytes.len() as u64;
    for c in &mut chunks {
        hash = mix(hash, u64::from_le_bytes(c.try_into().expect("8 bytes")));
    }
    // A byte at a time: most string keys are a few bytes long, and a
    // `copy_from_slice` of unknown length is a call.
    let tail = chunks.remainder().iter().rev();
    mix(hash, tail.fold(0, |word, &b| word << 8 | u64::from(b)))
}

/// Append the key hash of every row in `rows` to `out`: one running hash
/// per row, fed a key column at a time by a loop picked once per column.
pub(crate) fn hash_keys(cols: &[JoinKeyCol<'_>], rows: Range<usize>, out: &mut Vec<u64>) {
    fn feed(out: &mut [u64], start: usize, valid: Option<&Bitmap>, word: impl Fn(usize) -> u64) {
        match valid {
            None => out
                .iter_mut()
                .zip(start..)
                .for_each(|(h, row)| *h = mix(*h, word(row))),
            Some(bm) => out.iter_mut().zip(start..).for_each(|(h, row)| {
                *h = mix(*h, if bm.get(row) { word(row) } else { NULL_WORD });
            }),
        }
    }
    let (start, old_len) = (rows.start, out.len());
    out.resize(old_len + rows.len(), 0);
    let out = &mut out[old_len..];
    for &(c, promote) in cols {
        match (c, promote) {
            (Column::I64(v, bm), false) => feed(out, start, bm.as_ref(), |r| v[r] as u64),
            (Column::I64(v, bm), true) => feed(out, start, bm.as_ref(), |r| {
                float_word(decimal_to_f64(v[r]))
            }),
            (Column::F64(v, bm), _) => feed(out, start, bm.as_ref(), |r| float_word(v[r])),
            (Column::Str(v, bm), _) => feed(out, start, bm.as_ref(), |r| str_word(v.bytes(r))),
        }
    }
}

/// Whether no part of row `row`'s key is NULL (a NULL never joins).
pub(crate) fn key_valid(cols: &[JoinKeyCol<'_>], row: usize) -> bool {
    cols.iter().all(|(c, _)| c.is_valid(row))
}

/// Whether row `ra` of `a` and row `rb` of `b` hold the same key. Numbers
/// compare in one domain: Int64 `k` equals Float64 `f` iff
/// `i64_as_f64_exact(k) == Some(f)`, a promoted Decimal is its f64 value,
/// two floats are equal when their canonical bits are (−0.0 is +0.0), and
/// two Int64 (or two Decimal) columns compare as the integers they store,
/// so integers no f64 can hold still find each other. Two NULLs are equal
/// — GROUP BY's rule; a join never asks about a row with a NULL part.
fn keys_equal<'b>(
    a: &[JoinKeyCol<'_>],
    ra: usize,
    b: impl IntoIterator<Item = JoinKeyCol<'b>>,
    rb: usize,
) -> bool {
    enum Num {
        Int(i64),
        Flt(f64),
    }
    fn num(c: &Column, promote: bool, row: usize) -> Option<Num> {
        match c {
            Column::I64(v, _) if promote => Some(Num::Flt(decimal_to_f64(v[row]))),
            Column::I64(v, _) => Some(Num::Int(v[row])),
            Column::F64(v, _) => Some(Num::Flt(v[row])),
            Column::Str(..) => None,
        }
    }
    a.iter().zip(b).all(|(&(ca, pa), (cb, pb))| {
        let (valid_a, valid_b) = (ca.is_valid(ra), cb.is_valid(rb));
        if !(valid_a && valid_b) {
            return valid_a == valid_b;
        }
        match (ca, cb) {
            (Column::I64(x, _), Column::I64(y, _)) if pa == pb => x[ra] == y[rb],
            (Column::Str(x, _), Column::Str(y, _)) => x.bytes(ra) == y.bytes(rb),
            _ => match (num(ca, pa, ra), num(cb, pb, rb)) {
                (Some(Num::Int(i)), Some(Num::Int(j))) => i == j,
                (Some(Num::Int(i)), Some(Num::Flt(f))) | (Some(Num::Flt(f)), Some(Num::Int(i))) => {
                    i64_as_f64_exact(i) == Some(f)
                }
                (Some(Num::Flt(f)), Some(Num::Flt(g))) => canon_f64_bits(f) == canon_f64_bits(g),
                _ => false, // a string is no number
            },
        }
    })
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// A materialized join hash table over the build side: per slot, a chain
/// of build rows in ascending order (`heads`, then `next` from row to
/// row). The keys stay where they are, in the build columns; the build
/// side is held behind an `Arc` so a shared temp relation (a materialized
/// CTE) can back the table without being deep-copied.
pub struct JoinTable {
    build: Arc<Table>,
    key_cols: Vec<usize>,
    heads: Vec<u32>,
    /// Indexed by build row; a row with a NULL key part is in no chain.
    next: Vec<u32>,
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
        // Half as many slots again as rows: a hit then takes 1.3 steps.
        let slots = build.rows() + build.rows() / 2 + 1;
        Self::build_sized(build, key_cols, slots, cancel)
    }

    /// A table whose keys all share one chain, so that every probe compares
    /// its key with every build key: what tests check key equality with.
    #[doc(hidden)]
    pub fn build_in_one_chain(build: impl Into<Arc<Table>>, key_cols: &[usize]) -> Self {
        Self::build_sized(build.into(), key_cols, 1, None)
    }

    fn build_sized(
        build: Arc<Table>,
        key_cols: &[usize],
        slots: usize,
        cancel: Option<&CancelToken>,
    ) -> Self {
        let rows = build.rows();
        assert!(rows < NIL as usize, "build side exceeds 2^32 - 1 rows");
        let mut heads = vec![NIL; slots];
        let mut next = vec![NIL; rows];
        let cols = join_key_cols(&build, key_cols);
        let nullable = cols.iter().any(|(c, _)| c.validity().is_some());
        let mut hashes = Vec::with_capacity(CANCEL_CHECK_ROWS);
        // Last block first, last row first: pushing each row onto the front
        // of its chain leaves the chains in ascending row order.
        for block in (0..rows.div_ceil(CANCEL_CHECK_ROWS)).rev() {
            check_cancel(cancel);
            let block = block * CANCEL_CHECK_ROWS..rows.min((block + 1) * CANCEL_CHECK_ROWS);
            hashes.clear();
            hash_keys(&cols, block.clone(), &mut hashes);
            for (row, &hash) in block.zip(&hashes).rev() {
                if nullable && !key_valid(&cols, row) {
                    continue;
                }
                let head = &mut heads[slot_of(hash, slots)];
                next[row] = *head;
                *head = row as u32;
            }
        }
        Self {
            build,
            key_cols: key_cols.to_vec(),
            heads,
            next,
        }
    }

    /// The chains, each as an iterator over its build rows.
    fn chains(&self) -> impl Iterator<Item = impl Iterator<Item = usize> + '_> + '_ {
        self.heads.iter().map(move |&head| {
            std::iter::successors((head != NIL).then_some(head), move |&row| {
                let next = self.next[row as usize];
                (next != NIL).then_some(next)
            })
            .map(|row| row as usize)
        })
    }

    /// Number of distinct keys (counted when asked, a chain at a time).
    pub fn distinct_keys(&self) -> usize {
        let cols = join_key_cols(&self.build, &self.key_cols);
        let mut distinct = 0;
        let mut firsts = Vec::new();
        for chain in self.chains() {
            firsts.clear();
            for row in chain {
                let same = |&first: &usize| keys_equal(&cols, row, cols.iter().copied(), first);
                if !firsts.iter().any(same) {
                    firsts.push(row);
                }
            }
            distinct += firsts.len();
        }
        distinct
    }

    /// Chain entries visited if every build row's key were looked up once
    /// (a row is found after the rows before it in its chain): an exact
    /// count of what probing costs, where a timer would only estimate it.
    pub fn probe_steps(&self) -> u64 {
        self.chains()
            .map(|chain| {
                let len = chain.count() as u64;
                len * (len + 1) / 2
            })
            .sum()
    }

    /// Length of the longest chain.
    pub fn max_chain(&self) -> usize {
        self.chains().map(Iterator::count).max().unwrap_or(0)
    }

    /// The build-side table.
    pub fn build_side(&self) -> &Table {
        &self.build
    }

    /// Probe rows `rows` of `batch`: leave the matching (probe row, build
    /// row) pairs in `state` — for semi and anti joins the surviving probe
    /// rows alone — and gather them onto its output columns.
    fn probe_batch(
        &self,
        state: &mut ProbeState,
        batch: &Table,
        rows: Range<usize>,
        probe_key_cols: &[usize],
        kind: JoinKind,
    ) {
        assert!(rows.end < NIL as usize, "probe batch exceeds 2^32 - 1 rows");
        let probe = join_key_cols(batch, probe_key_cols);
        let build = join_key_cols(&self.build, &self.key_cols);
        state.hashes.clear();
        hash_keys(&probe, rows.clone(), &mut state.hashes);
        state.probe_rows.clear();
        state.build_rows.clear();
        match (&probe[..], &build[..]) {
            // One Int64 key on either side, the common case: two slices.
            ([(Column::I64(p, _), false)], [(Column::I64(b, _), false)]) => {
                self.walk(state, &probe, rows, kind, |row, cand| p[row] == b[cand]);
            }
            _ => self.walk(state, &probe, rows, kind, |row, cand| {
                keys_equal(&probe, row, build.iter().copied(), cand)
            }),
        }
        let (ours, theirs) = state.out.split_at_mut(batch.columns().len());
        for (dst, src) in ours.iter_mut().zip(batch.columns()) {
            dst.extend_gather(src, &state.probe_rows);
        }
        for (dst, src) in theirs.iter_mut().zip(self.build.columns()) {
            dst.extend_gather(src, &state.build_rows);
        }
    }

    /// The chain walk of [`probe_batch`](Self::probe_batch), with key
    /// equality between a probe row and a build row given as `equal`.
    fn walk(
        &self,
        state: &mut ProbeState,
        probe: &[JoinKeyCol<'_>],
        rows: Range<usize>,
        kind: JoinKind,
        equal: impl Fn(usize, usize) -> bool,
    ) {
        let nullable = probe.iter().any(|(c, _)| c.validity().is_some());
        let pairs = matches!(kind, JoinKind::Inner | JoinKind::LeftOuter);
        for (row, &hash) in rows.zip(&state.hashes) {
            let mut cand = if nullable && !key_valid(probe, row) {
                NIL
            } else {
                self.heads[slot_of(hash, self.heads.len())]
            };
            let mut matched = false;
            while cand != NIL {
                if equal(row, cand as usize) {
                    matched = true;
                    if !pairs {
                        break;
                    }
                    state.probe_rows.push(row as u32);
                    state.build_rows.push(cand);
                }
                cand = self.next[cand as usize];
            }
            match kind {
                JoinKind::LeftOuter if !matched => {
                    state.probe_rows.push(row as u32);
                    state.build_rows.push(NIL);
                }
                JoinKind::LeftSemi if matched => state.probe_rows.push(row as u32),
                JoinKind::LeftAnti if !matched => state.probe_rows.push(row as u32),
                _ => {}
            }
        }
    }
}

/// Bits a [`BloomFilter`] spends per key, at least: with three bits set in
/// a 64-bit word per key, about 2 % of absent keys then test positive
/// (0.5 % at the 20 bits rounding up may leave).
pub(crate) const BLOOM_BITS_PER_KEY: usize = 10;

/// A register-blocked Bloom filter over join keys (Putze, Sanders and
/// Singler, WEA 2007): a key sets three bits of one `u64` word. The word
/// is picked by the top of the key's [`hash_keys`] hash, as a join table
/// picks its slot, and the bits by its low bits, so a test is one load and
/// one compare. Equal Int64, Float64 and promoted Decimal keys hash alike,
/// and so test alike. A key that was inserted always tests positive; one
/// that was not does so rarely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BloomFilter {
    words: Vec<u64>,
}

impl BloomFilter {
    /// A filter over the keys in columns `key_cols` of `table` that have no
    /// NULL part, sized from the table's rows: at least
    /// [`BLOOM_BITS_PER_KEY`] bits per row, in a power of two of words.
    pub fn over(table: &Table, key_cols: &[usize]) -> Self {
        let bits = table.rows() * BLOOM_BITS_PER_KEY;
        let mut words = vec![0u64; bits.div_ceil(64).next_power_of_two()];
        let cols = join_key_cols(table, key_cols);
        let nullable = cols.iter().any(|(c, _)| c.validity().is_some());
        let mut hashes = Vec::with_capacity(CANCEL_CHECK_ROWS);
        for block in 0..table.rows().div_ceil(CANCEL_CHECK_ROWS) {
            let block =
                block * CANCEL_CHECK_ROWS..table.rows().min((block + 1) * CANCEL_CHECK_ROWS);
            hashes.clear();
            hash_keys(&cols, block.clone(), &mut hashes);
            for (row, &hash) in block.zip(&hashes) {
                if nullable && !key_valid(&cols, row) {
                    continue;
                }
                let slots = words.len();
                words[slot_of(hash, slots)] |= bloom_bits(hash);
            }
        }
        Self { words }
    }

    /// A filter from the words of one built by [`over`](Self::over); no
    /// words make a filter that holds nothing.
    pub fn from_words(mut words: Vec<u64>) -> Self {
        if words.is_empty() {
            words.push(0);
        }
        Self { words }
    }

    /// The filter's words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether a key of hash `hash` may be in the filter.
    #[inline]
    pub fn may_hold(&self, hash: u64) -> bool {
        let bits = bloom_bits(hash);
        self.words[slot_of(hash, self.words.len())] & bits == bits
    }
}

/// The three bits a key of hash `hash` sets in its filter word.
#[inline]
fn bloom_bits(hash: u64) -> u64 {
    1 << (hash & 63) | 1 << (hash >> 6 & 63) | 1 << (hash >> 12 & 63)
}

/// What a probing worker keeps from batch to batch: the result so far and
/// the vectors of the batch at hand.
struct ProbeState {
    out: Vec<Column>,
    hashes: Vec<u64>,
    probe_rows: Vec<u32>,
    build_rows: Vec<u32>,
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
/// result: every worker gathers its matches straight onto its own output
/// columns, and the workers' outputs are concatenated once (a single
/// worker's is the result as it stands). Each morsel is a cooperative
/// cancellation point when a token is supplied.
pub fn probe_join(
    probe: &Table,
    table: &JoinTable,
    probe_key_cols: &[usize],
    kind: JoinKind,
    driver: &MorselDriver,
    cancel: Option<&CancelToken>,
) -> Table {
    let out_schema = join_schema(probe.schema(), table.build.schema(), kind);
    let source = Morsels {
        table: probe,
        driver,
    };
    let states = source.drive(
        || ProbeState {
            out: out_schema
                .fields()
                .iter()
                .map(|f| Column::empty(f.dtype))
                .collect(),
            hashes: Vec::new(),
            probe_rows: Vec::new(),
            build_rows: Vec::new(),
        },
        |state, batch, rows| {
            check_cancel(cancel);
            table.probe_batch(state, batch, rows, probe_key_cols, kind);
        },
    );
    let pieces = states
        .into_iter()
        .map(|s| Table::new(out_schema.clone(), s.out))
        .collect();
    Table::concat(&out_schema, pieces)
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

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
        E: Fn(&mut S, &Table, Range<usize>) + Sync;
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
        E: Fn(&mut S, &Table, Range<usize>) + Sync,
    {
        self.driver.run(
            self.table.rows(),
            |_| init(),
            |state, _, m| each(state, self.table, m.range()),
        )
    }
}

/// Maps keys to dense group ids, in the order the keys are first seen. The
/// table owns its key values, a typed column per key part with a row per
/// group: the batch a key came in is overwritten by the next.
///
/// A *closed* table ([`seeded`](Self::seeded)) holds a fixed set of keys
/// and makes no group: a row whose key it does not hold is dropped, and it
/// records which of its groups a row reached.
#[derive(Clone)]
struct GroupTable {
    heads: Vec<u32>,
    /// Per group: the next group in its chain, its key's hash, its key.
    next: Vec<u32>,
    hashes: Vec<u64>,
    keys: Vec<Column>,
    /// The group of every row of the batch last assigned, and its hashes.
    gids: Vec<u32>,
    batch_hashes: Vec<u64>,
    /// A closed table's: per group, whether a row has reached it.
    hits: Option<Vec<bool>>,
    /// A closed table's: the rows of the batch last assigned that found
    /// their group, `gids` naming it.
    kept: Vec<u32>,
}

impl GroupTable {
    /// A table without groups over keys typed like the (empty) `keys`.
    fn new(keys: Vec<Column>) -> Self {
        Self {
            heads: vec![NIL; 16],
            next: Vec::new(),
            hashes: Vec::new(),
            keys,
            gids: Vec::new(),
            batch_hashes: Vec::new(),
            hits: None,
            kept: Vec::new(),
        }
    }

    /// A closed table over keys typed like the (empty) `keys`, holding the
    /// distinct keys of `seeds` (typed alike) that have no NULL part.
    fn seeded(keys: Vec<Column>, seeds: &[JoinKeyCol<'_>]) -> Self {
        let mut table = Self::new(keys);
        let rows = seeds.first().map_or(0, |(c, _)| c.len());
        let nullable = seeds.iter().any(|(c, _)| c.validity().is_some());
        let mut hashes = Vec::with_capacity(rows);
        hash_keys(seeds, 0..rows, &mut hashes);
        for (row, hash) in hashes.into_iter().enumerate() {
            if (!nullable || key_valid(seeds, row)) && table.find(hash, seeds, row) == NIL {
                table.insert(hash, seeds, row);
            }
        }
        table.hits = Some(vec![false; table.groups()]);
        table
    }

    fn groups(&self) -> usize {
        self.hashes.len()
    }

    /// Find or make the group of every row in `rows` of the key columns
    /// `cols` (none of them promoted: a group key is compared with keys of
    /// its own column only), leaving the ids in `self.gids` — or, if the
    /// table is closed, find the groups of the rows it holds a key for,
    /// leaving those rows in `self.kept`.
    fn assign(&mut self, cols: &[JoinKeyCol<'_>], rows: Range<usize>) {
        self.batch_hashes.clear();
        hash_keys(cols, rows.clone(), &mut self.batch_hashes);
        self.assign_hashed(cols, rows);
    }

    /// [`assign`](Self::assign), the hashes of `rows` being in
    /// `self.batch_hashes` (where a test puts hashes that collide).
    fn assign_hashed(&mut self, cols: &[JoinKeyCol<'_>], rows: Range<usize>) {
        self.gids.clear();
        match self.hits.take() {
            None => {
                for (i, row) in rows.enumerate() {
                    let hash = self.batch_hashes[i];
                    let mut gid = self.find(hash, cols, row);
                    if gid == NIL {
                        gid = self.insert(hash, cols, row);
                    }
                    self.gids.push(gid);
                }
            }
            Some(mut hits) => {
                self.kept.clear();
                for (i, row) in rows.enumerate() {
                    let gid = self.find(self.batch_hashes[i], cols, row);
                    if gid != NIL {
                        hits[gid as usize] = true;
                        self.kept.push(row as u32);
                        self.gids.push(gid);
                    }
                }
                self.hits = Some(hits);
            }
        }
    }

    /// The group of row `row` of `cols`, whose key hashes to `hash`, or
    /// `NIL`.
    fn find(&self, hash: u64, cols: &[JoinKeyCol<'_>], row: usize) -> u32 {
        let mut gid = self.heads[slot_of(hash, self.heads.len())];
        while gid != NIL {
            // The stored hash spares a key that merely shares the slot the
            // comparison of its parts.
            let keys = self.keys.iter().map(|k| (k, false));
            if self.hashes[gid as usize] == hash && keys_equal(cols, row, keys, gid as usize) {
                break;
            }
            gid = self.next[gid as usize];
        }
        gid
    }

    fn insert(&mut self, hash: u64, cols: &[JoinKeyCol<'_>], row: usize) -> u32 {
        let gid = u32::try_from(self.groups()).expect("fewer than 2^32 groups");
        assert!(gid != NIL && row < NIL as usize, "2^32 - 1 groups or rows");
        if self.groups() == self.heads.len() {
            let slots = self.heads.len() * 2;
            self.heads.clear();
            self.heads.resize(slots, NIL);
            for (g, &h) in self.hashes.iter().enumerate() {
                let head = &mut self.heads[slot_of(h, slots)];
                self.next[g] = *head;
                *head = g as u32;
            }
        }
        let slot = slot_of(hash, self.heads.len());
        let head = &mut self.heads[slot];
        self.next.push(*head);
        *head = gid;
        self.hashes.push(hash);
        for (key, &(c, _)) in self.keys.iter_mut().zip(cols) {
            key.extend_gather(c, &[row as u32]);
            // One canonical zero, so the key that is emitted is the key
            // that was hashed and compared (and that the exchange routed).
            if let Column::F64(v, _) = key {
                let last = v.last_mut().expect("just pushed");
                *last = f64::from_bits(canon_f64_bits(*last));
            }
        }
        gid
    }
}

/// Call `f(row, group)` for every row of a batch whose input is not NULL
/// (SQL aggregates skip NULLs).
fn each_valid(gids: &[u32], valid: Option<&Bitmap>, mut f: impl FnMut(usize, usize)) {
    let rows = gids.iter().enumerate();
    match valid {
        None => rows.for_each(|(row, &g)| f(row, g as usize)),
        Some(bm) => rows
            .filter(|&(row, _)| bm.get(row))
            .for_each(|(row, &g)| f(row, g as usize)),
    }
}

/// MIN or MAX over fixed-width values.
fn keep_best<T: PartialOrd + Copy>(
    (best, seen, max): (&mut [T], &mut Bitmap, bool),
    gids: &[u32],
    valid: Option<&Bitmap>,
    vals: &[T],
) {
    each_valid(gids, valid, |row, g| {
        let v = vals[row];
        if !seen.get(g) || if max { best[g] < v } else { v < best[g] } {
            best[g] = v;
            seen.set(g, true);
        }
    });
}

/// MIN/MAX slots, typed like the aggregate's input.
#[derive(Clone)]
enum Slots {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(Vec<String>),
}

impl Slots {
    fn into_column(self, valid: Option<Bitmap>) -> Column {
        match self {
            Slots::I64(v) => Column::I64(v, valid),
            Slots::F64(v) => Column::F64(v, valid),
            Slots::Str(v) => Column::Str(v.iter().map(String::as_str).collect(), valid),
        }
    }
}

/// The state of one aggregate, column-wise: a slot per group id.
#[derive(Clone)]
enum AggCol {
    /// SUM and AVG: the sum, and how many inputs went into it.
    Sum { sums: Vec<f64>, counts: Vec<i64> },
    /// COUNT.
    Count(Vec<i64>),
    /// MIN, or MAX when `max`: the best value so far and whether there is
    /// one yet.
    Best {
        best: Slots,
        seen: Bitmap,
        max: bool,
    },
    /// COUNT(DISTINCT): (group id, value) pairs.
    Distinct(DistinctPairs),
}

/// COUNT(DISTINCT)'s state: the (group id, value) pairs of the non-NULL
/// inputs, appended as they come, no pair hashed or looked up. Whenever
/// they hold more than twice what the last compaction kept plus one batch,
/// they are compacted: counting-sorted by group id (a histogram, its prefix
/// sum, one scatter of each value's word), then each group's run sorted and
/// one pair kept per value. So the pairs held never exceed twice the
/// distinct ones and a batch, however long the input.
#[derive(Clone)]
struct DistinctPairs {
    /// Per pair: its group and its value, which is never NULL.
    gids: Vec<u32>,
    vals: Column,
    /// Pairs the last compaction kept.
    kept: usize,
    /// Every group id lies below this.
    groups: usize,
}

impl DistinctPairs {
    /// No pairs, over values typed like `input` (no rows of it).
    fn new(input: &Column) -> Self {
        let mut vals = input.clone();
        vals.clear();
        Self {
            gids: Vec::new(),
            vals,
            kept: 0,
            groups: 0,
        }
    }

    /// Take in a batch: row `i` of `vals` belongs to group `gids[i]`. Runs
    /// of non-NULL rows are appended as slices.
    fn update(&mut self, gids: &[u32], vals: &Column) {
        match vals.validity() {
            None => self.push(gids.iter().copied(), vals, 0..gids.len()),
            Some(valid) => {
                let mut start = 0;
                for row in 0..=gids.len() {
                    if row == gids.len() || !valid.get(row) {
                        self.push(gids[start..row].iter().copied(), vals, start..row);
                        start = row + 1;
                    }
                }
            }
        }
        self.compact_if_doubled(gids.len());
    }

    /// Take in another worker's pairs, whose group `g` is `map[g]` here.
    fn merge(&mut self, other: DistinctPairs, map: &[u32]) {
        let gids = other.gids.iter().map(|&g| map[g as usize]);
        self.push(gids, &other.vals, 0..other.gids.len());
        self.compact_if_doubled(other.gids.len());
    }

    /// Append rows `rows` of `vals`, in the groups `gids`.
    fn push(&mut self, gids: impl Iterator<Item = u32>, vals: &Column, rows: Range<usize>) {
        self.gids.extend(gids);
        match (&mut self.vals, vals) {
            (Column::I64(a, _), Column::I64(b, _)) => a.extend_from_slice(&b[rows]),
            (Column::F64(a, _), Column::F64(b, _)) => a.extend_from_slice(&b[rows]),
            (Column::Str(a, _), Column::Str(b, _)) => a.extend_rows(b, rows),
            _ => panic!("COUNT(DISTINCT) input changed its type between batches"),
        }
    }

    fn compact_if_doubled(&mut self, batch: usize) {
        if self.gids.len() > 2 * self.kept + batch {
            self.compact();
        }
    }

    /// Keep one pair per distinct (group, value), in group order. Values
    /// are equal as `keys_equal` has two of one type: integers as they
    /// are, floats by their canonical bits (−0.0 is 0.0, a NaN is the
    /// same NaN), strings by their bytes.
    fn compact(&mut self) {
        // A number's word is the number; a string's is its row.
        let (gids, groups) = (&self.gids, self.groups);
        let (mut words, ends) = match &self.vals {
            Column::I64(v, _) => sort_by_group(gids, groups, |row| v[row] as u64),
            Column::F64(v, _) => sort_by_group(gids, groups, |row| canon_f64_bits(v[row])),
            Column::Str(..) => sort_by_group(gids, groups, |row| row as u64),
        };
        let kept = match &self.vals {
            Column::Str(s, _) => {
                let bytes = |w: u64| s.bytes(w as usize);
                dedup_runs(
                    (&mut words, &mut self.gids, &ends),
                    |run| run.sort_unstable_by(|&a, &b| bytes(a).cmp(bytes(b))),
                    |a, b| bytes(a) == bytes(b),
                )
            }
            _ => dedup_runs(
                (&mut words, &mut self.gids, &ends),
                <[u64]>::sort_unstable,
                |a, b| a == b,
            ),
        };
        let words = &words[..kept];
        match &mut self.vals {
            Column::I64(v, _) => {
                v.clear();
                v.extend(words.iter().map(|&w| w as i64));
            }
            Column::F64(v, _) => {
                v.clear();
                v.extend(words.iter().map(|&w| f64::from_bits(w)));
            }
            strings @ Column::Str(..) => {
                let rows: Vec<u32> = words.iter().map(|&w| w as u32).collect();
                let mut kept_strings = Column::empty(DataType::Utf8);
                kept_strings.extend_gather(strings, &rows);
                *strings = kept_strings;
            }
        }
        self.gids.truncate(kept);
        self.kept = kept;
    }

    /// The number of distinct values of every group.
    fn finish(mut self) -> Column {
        self.compact();
        let mut counts = vec![0i64; self.groups];
        self.gids.iter().for_each(|&g| counts[g as usize] += 1);
        Column::I64(counts, None)
    }
}

/// A counting sort of pairs by group id: the word of every pair (`word` of
/// its row), group by group, and where each group's run ends. One pass
/// counts the groups, one prefix sum places them, one scatters the words.
fn sort_by_group(gids: &[u32], groups: usize, word: impl Fn(usize) -> u64) -> (Vec<u64>, Vec<u32>) {
    assert!(gids.len() < u32::MAX as usize, "2^32 - 1 distinct pairs");
    // Each group's first slot, then — once its words are in — the slot
    // after its last.
    let mut ends = vec![0u32; groups];
    gids.iter().for_each(|&g| ends[g as usize] += 1);
    let mut start = 0;
    for end in &mut ends {
        (*end, start) = (start, start + *end);
    }
    let mut words = vec![0u64; gids.len()];
    for (row, &g) in gids.iter().enumerate() {
        let slot = &mut ends[g as usize];
        words[*slot as usize] = word(row);
        *slot += 1;
    }
    (words, ends)
}

/// Sort every group's run of `words` (group `g`'s ends at `ends[g]` and
/// starts where the one before it ends), keep one word of each set of
/// `same` ones, and move what is kept to the front, `gids` naming each
/// kept word's group. Returns how many were kept.
fn dedup_runs(
    (words, gids, ends): (&mut [u64], &mut [u32], &[u32]),
    sort: impl Fn(&mut [u64]),
    same: impl Fn(u64, u64) -> bool,
) -> usize {
    let (mut kept, mut start) = (0, 0);
    for (g, &end) in ends.iter().enumerate() {
        let end = end as usize;
        sort(&mut words[start..end]);
        let first = kept;
        for i in start..end {
            let w = words[i];
            if kept == first || !same(words[kept - 1], w) {
                words[kept] = w;
                gids[kept] = g as u32;
                kept += 1;
            }
        }
        start = end;
    }
    kept
}

impl AggCol {
    /// No groups yet; `input` (no rows of it) gives the input's type.
    fn new(func: AggFunc, input: &Column) -> Self {
        match func {
            AggFunc::Sum | AggFunc::Avg => AggCol::Sum {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            AggFunc::Count => AggCol::Count(Vec::new()),
            AggFunc::Min | AggFunc::Max => AggCol::Best {
                best: match input {
                    Column::I64(..) => Slots::I64(Vec::new()),
                    Column::F64(..) => Slots::F64(Vec::new()),
                    Column::Str(..) => Slots::Str(Vec::new()),
                },
                seen: Bitmap::new(),
                max: func == AggFunc::Max,
            },
            AggFunc::CountDistinct => AggCol::Distinct(DistinctPairs::new(input)),
        }
    }

    /// Make room for group ids below `groups`.
    fn resize(&mut self, groups: usize) {
        match self {
            AggCol::Sum { sums, counts } => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
            }
            AggCol::Count(counts) => counts.resize(groups, 0),
            AggCol::Best { best, seen, .. } => {
                match best {
                    Slots::I64(v) => v.resize(groups, 0),
                    Slots::F64(v) => v.resize(groups, 0.0),
                    Slots::Str(v) => v.resize_with(groups, String::new),
                }
                seen.extend_filled(groups - seen.len(), false);
            }
            AggCol::Distinct(pairs) => pairs.groups = groups,
        }
    }

    /// Take in a batch: row `i` of `vals` belongs to group `gids[i]` and
    /// stands for `weights[i]` input rows — for one, unless partial states
    /// are being merged.
    fn update(&mut self, gids: &[u32], vals: &Column, weights: Option<&Column>) {
        let valid = vals.validity();
        let weights = weights.map(Column::i64_values);
        let weight = |row: usize| weights.map_or(1, |w| w[row]);
        match (self, vals) {
            (AggCol::Sum { sums, counts }, Column::I64(v, _)) => {
                each_valid(gids, valid, |row, g| {
                    sums[g] += v[row] as f64;
                    counts[g] += weight(row);
                })
            }
            (AggCol::Sum { sums, counts }, Column::F64(v, _)) => {
                each_valid(gids, valid, |row, g| {
                    sums[g] += v[row];
                    counts[g] += weight(row);
                })
            }
            (AggCol::Sum { .. }, Column::Str(..)) => panic!("cannot sum strings"),
            (AggCol::Count(counts), _) => {
                each_valid(gids, valid, |row, g| counts[g] += weight(row))
            }
            (AggCol::Best { best, seen, max }, vals) => match (best, vals) {
                (Slots::I64(b), Column::I64(v, _)) => keep_best((b, seen, *max), gids, valid, v),
                (Slots::F64(b), Column::F64(v, _)) => keep_best((b, seen, *max), gids, valid, v),
                (Slots::Str(b), Column::Str(v, _)) => each_valid(gids, valid, |row, g| {
                    let (s, cur) = (v.get(row), &mut b[g]);
                    if !seen.get(g)
                        || if *max {
                            cur.as_str() < s
                        } else {
                            s < cur.as_str()
                        }
                    {
                        cur.clear();
                        cur.push_str(s);
                        seen.set(g, true);
                    }
                }),
                _ => panic!("MIN/MAX input changed its type between batches"),
            },
            (AggCol::Distinct(pairs), vals) => pairs.update(gids, vals),
        }
    }

    /// Take in another worker's state, whose group `g` is `map[g]` here.
    fn merge(&mut self, other: AggCol, map: &[u32]) {
        match (self, other) {
            (AggCol::Sum { sums, counts }, AggCol::Sum { sums: s, counts: c }) => {
                each_valid(map, None, |theirs, ours| {
                    sums[ours] += s[theirs];
                    counts[ours] += c[theirs];
                })
            }
            (AggCol::Count(counts), AggCol::Count(c)) => {
                each_valid(map, None, |theirs, ours| counts[ours] += c[theirs])
            }
            (this @ AggCol::Best { .. }, AggCol::Best { best, seen, .. }) => {
                this.update(map, &best.into_column(Some(seen)), None);
            }
            (AggCol::Distinct(pairs), AggCol::Distinct(theirs)) => pairs.merge(theirs, map),
            _ => panic!("mismatched aggregate states"),
        }
    }

    /// The result columns: the states themselves, moved.
    fn finish(self, func: AggFunc, phase: AggPhase) -> Vec<Column> {
        // A bitmap only where there is a NULL, as `Column::push_value` has it.
        let nullable = |valid: Bitmap| (!valid.all_set()).then_some(valid);
        let nonzero = |counts: &[i64]| nullable(counts.iter().map(|&c| c > 0).collect());
        match self {
            AggCol::Sum { sums, counts } if func == AggFunc::Sum => {
                vec![Column::F64(sums, nonzero(&counts))]
            }
            AggCol::Sum { sums, counts } if phase == AggPhase::Partial => {
                vec![Column::F64(sums, None), Column::I64(counts, None)]
            }
            AggCol::Sum { mut sums, counts } => {
                for (s, &c) in sums.iter_mut().zip(&counts) {
                    *s = if c > 0 { *s / c as f64 } else { 0.0 };
                }
                vec![Column::F64(sums, nonzero(&counts))]
            }
            AggCol::Count(counts) => vec![Column::I64(counts, None)],
            AggCol::Best { best, seen, .. } => vec![best.into_column(nullable(seen))],
            AggCol::Distinct(pairs) => vec![pairs.finish()],
        }
    }
}

/// Hash-aggregate `input`, morsel-parallel with per-worker tables merged at
/// the end.
///
/// * `Single` computes final results directly.
/// * `Partial` emits mergeable state columns (`name`, or `name__sum` +
///   `name__cnt` for AVG) — the pre-aggregation of Figure 6(c).
/// * `Final` merges state columns produced by `Partial`.
///
/// Groups come out in the order their keys were first seen (a worker at a
/// time when there are several).
///
/// # Panics
/// Panics when an aggregate's input expression does not compile against
/// `input`'s schema.
pub fn aggregate(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    driver: &MorselDriver,
    params: &[Value],
) -> Table {
    aggregate_seeded(input, group_by, aggs, phase, driver, params, None)
}

/// [`aggregate`], and with `seeds` — a column per group column, typed like
/// it — only over the groups whose key is a row of `seeds` with no NULL
/// part: an input row with any other key is dropped before its aggregate
/// inputs are read, and a seed no input row reaches is not emitted.
///
/// # Panics
/// As [`aggregate`]; and when `seeds` has not one column per group column.
pub fn aggregate_seeded(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    driver: &MorselDriver,
    params: &[Value],
    seeds: Option<&[&Column]>,
) -> Table {
    let programs: Vec<(String, ExprProgram)> = match phase {
        AggPhase::Final => Vec::new(),
        _ => aggs
            .iter()
            .map(|a| {
                let program = ExprProgram::compile(&a.expr, input.schema());
                (a.name.clone(), program.unwrap_or_else(|e| panic!("{e}")))
            })
            .collect(),
    };
    let input = Morsels {
        table: input,
        driver,
    };
    aggregate_with(
        &input, group_by, aggs, phase, params, &programs, seeds, None,
    )
    .0
}

/// [`aggregate_seeded`] over any [`BatchSource`], given the aggregates'
/// compiled input programs (one per aggregate, aligned by position; see
/// [`OpPrograms::aggs`](crate::vm::OpPrograms::aggs)), which are bound once
/// against the source's shape here. `Final`-phase merges read the
/// partial-state columns directly and take no programs. Returns the
/// result and the input rows the seeds dropped.
///
/// # Panics
/// Panics when a program does not bind against the source's shape (the
/// stage fails with the bind error), when a phase other than `Final` is
/// not given exactly one program per aggregate, or when `seeds` has not
/// one column per group column.
#[allow(clippy::too_many_arguments)]
pub fn aggregate_with<B: BatchSource>(
    input: &B,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    params: &[Value],
    programs: &[(String, ExprProgram)],
    seeds: Option<&[&Column]>,
    cancel: Option<&CancelToken>,
) -> (Table, u64) {
    assert!(
        phase != AggPhase::Partial || aggs.iter().all(|a| a.func != AggFunc::CountDistinct),
        "count(distinct) cannot be pre-aggregated"
    );
    assert!(
        phase == AggPhase::Final || programs.len() == aggs.len(),
        "{} input programs for {} aggregates",
        programs.len(),
        aggs.len()
    );
    assert!(
        seeds.is_none_or(|s| s.len() == group_by.len()),
        "one seed column per group column"
    );
    let shape = input.shape();

    // What each aggregate reads: its input, through its compiled program
    // bound once, or — in the Final phase — the partial-state columns.
    let state = |name: &str| shape.schema().index_of(name);
    let inputs: Vec<AggInput<'_>> = match phase {
        AggPhase::Final => aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Avg => AggInput::State(
                    state(&format!("{}__sum", a.name)),
                    Some(state(&format!("{}__cnt", a.name))),
                ),
                AggFunc::Count => AggInput::State(state(&a.name), Some(state(&a.name))),
                _ => AggInput::State(state(&a.name), None),
            })
            .collect(),
        _ => programs
            .iter()
            .map(|(_, p)| AggInput::Program(p.bind(shape).unwrap_or_else(|e| panic!("{e}"))))
            .collect(),
    };

    // Every state column is typed before the first row: MIN/MAX results
    // take the *static* type of their input (evaluated over zero rows), so
    // empty partials keep the same schema as populated ones. A seeded
    // table's state has a slot per seed before the first batch, so a
    // worker that gets none still merges.
    let keys: Vec<Column> = group_by
        .iter()
        .map(|&i| Column::empty(shape.schema().fields()[i].dtype))
        .collect();
    let table = match seeds {
        Some(seeds) => {
            let seeds: Vec<JoinKeyCol<'_>> = seeds.iter().map(|&c| (c, false)).collect();
            GroupTable::seeded(keys, &seeds)
        }
        None => GroupTable::new(keys),
    };
    let mut empty = Groups {
        aggs: (0..aggs.len())
            .map(|i| AggCol::new(aggs[i].func, &inputs[i].read(shape, 0..0, params).0))
            .collect(),
        batch: Vec::new(),
        dropped: 0,
        table,
    };
    for state in &mut empty.aggs {
        state.resize(empty.table.groups());
    }
    let mut workers = input
        .drive(
            || empty.clone(),
            |worker, batch, rows| {
                check_cancel(cancel);
                let keys: Vec<JoinKeyCol<'_>> =
                    group_by.iter().map(|&i| (batch.column(i), false)).collect();
                worker.table.assign(&keys, rows.clone());
                // A closed table keeps only the rows whose group it holds:
                // the inputs are read at those alone, gathered into the
                // worker's own batch.
                let kept = worker.table.kept.len();
                let (batch, rows) = match worker.table.hits {
                    Some(_) if kept < rows.len() => {
                        worker.dropped += (rows.len() - kept) as u64;
                        if kept == 0 {
                            return;
                        }
                        if worker.batch.is_empty() {
                            let fields = batch.schema().fields().iter();
                            worker.batch = fields.map(|f| Column::empty(f.dtype)).collect();
                        }
                        for (dst, src) in worker.batch.iter_mut().zip(batch.columns()) {
                            dst.clear();
                            dst.extend_gather(src, &worker.table.kept);
                        }
                        let columns = std::mem::take(&mut worker.batch);
                        (
                            Cow::Owned(Table::new(batch.schema().clone(), columns)),
                            0..kept,
                        )
                    }
                    _ => (Cow::Borrowed(batch), rows),
                };
                for (i, state) in worker.aggs.iter_mut().enumerate() {
                    let (vals, weights) = inputs[i].read(&batch, rows.clone(), params);
                    state.resize(worker.table.groups());
                    state.update(&worker.table.gids, &vals, weights.as_deref());
                }
                if let Cow::Owned(gathered) = batch {
                    worker.batch = gathered.into_columns();
                }
            },
        )
        .into_iter();

    // The first worker's groups stand; the others' are looked up in them —
    // except in a closed table, whose every clone has the same groups.
    let Groups {
        mut table,
        aggs: mut states,
        mut dropped,
        ..
    } = workers.next().unwrap_or(empty);
    let same: Vec<u32> = match table.hits {
        Some(_) => (0..table.groups() as u32).collect(),
        None => Vec::new(),
    };
    for other in workers {
        dropped += other.dropped;
        let map = match (&mut table.hits, &other.table.hits) {
            (Some(ours), Some(theirs)) => {
                ours.iter_mut().zip(theirs).for_each(|(a, b)| *a |= *b);
                &same
            }
            _ => {
                let keys: Vec<JoinKeyCol<'_>> =
                    other.table.keys.iter().map(|k| (k, false)).collect();
                table.assign(&keys, 0..other.table.groups());
                &table.gids
            }
        };
        for (ours, theirs) in states.iter_mut().zip(other.aggs) {
            ours.resize(table.groups());
            ours.merge(theirs, map);
        }
    }
    // Global aggregate over empty input still yields one row (Final/Single).
    if table.groups() == 0 && group_by.is_empty() && phase != AggPhase::Partial {
        table.assign(&[], 0..1);
    }

    // Output schema: group columns keep their input field definitions.
    let groups = table.groups();
    let mut fields: Vec<Field> = group_by
        .iter()
        .map(|&i| shape.schema().fields()[i].clone())
        .collect();
    let hits = table.hits.take();
    let mut columns = table.keys;
    for (a, mut state) in aggs.iter().zip(states) {
        state.resize(groups);
        let out = state.finish(a.func, phase);
        match (phase, a.func) {
            (AggPhase::Partial, AggFunc::Avg) => {
                fields.push(Field::new(format!("{}__sum", a.name), DataType::Float64));
                fields.push(Field::new(format!("{}__cnt", a.name), DataType::Int64));
            }
            (_, AggFunc::Sum | AggFunc::Avg) => {
                fields.push(Field::nullable(a.name.clone(), DataType::Float64));
            }
            (_, AggFunc::Count | AggFunc::CountDistinct) => {
                fields.push(Field::new(a.name.clone(), DataType::Int64));
            }
            (_, AggFunc::Min | AggFunc::Max) => {
                let dtype = match &out[0] {
                    Column::I64(..) => DataType::Int64,
                    Column::F64(..) => DataType::Float64,
                    Column::Str(..) => DataType::Utf8,
                };
                fields.push(Field::nullable(a.name.clone(), dtype));
            }
        }
        columns.extend(out);
    }
    let out = Table::new(Schema::new(fields), columns);
    // A seed no row reached is no group.
    match hits {
        Some(hits) if hits.contains(&false) => {
            let reached: Vec<usize> = (0..groups).filter(|&g| hits[g]).collect();
            (out.gather(&reached), dropped)
        }
        _ => (out, dropped),
    }
}

/// Where an aggregate reads its input.
enum AggInput<'p> {
    /// The input expression's program.
    Program(BoundProgram<'p>),
    /// A Final merge's partial-state columns: the values and, for COUNT and
    /// AVG, the counts.
    State(usize, Option<usize>),
}

impl AggInput<'_> {
    /// The input over rows `rows` of `batch`, and its weights. State columns
    /// are read as they are: without a copy when `rows` is all of `batch`,
    /// as it is for a batch an exchange hands on.
    fn read<'b>(
        &self,
        batch: &'b Table,
        rows: Range<usize>,
        params: &[Value],
    ) -> (Cow<'b, Column>, Option<Cow<'b, Column>>) {
        match self {
            AggInput::Program(p) => (
                Cow::Owned(p.eval(batch, rows, params).into_column().0),
                None,
            ),
            AggInput::State(vals, weights) => {
                let column = |c: usize| {
                    if rows == (0..batch.rows()) {
                        Cow::Borrowed(batch.column(c))
                    } else {
                        Cow::Owned(batch.column(c).gather(&rows.clone().collect::<Vec<_>>()))
                    }
                };
                (column(*vals), weights.map(column))
            }
        }
    }
}

/// One worker's aggregation state: its groups and, per aggregate, a column
/// of state with a slot per group; with a closed table, the rows a batch
/// kept and the count of those it dropped.
#[derive(Clone)]
struct Groups {
    table: GroupTable,
    aggs: Vec<AggCol>,
    batch: Vec<Column>,
    dropped: u64,
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// Sort a table by `keys`, optionally truncating to `limit` rows. NULLs
/// sort last (first under `desc`); rows with equal keys keep their input
/// order, with or without a limit.
pub fn sort_table(input: &Table, keys: &[SortKey], limit: Option<usize>) -> Table {
    // Two cells of one column, NULL greatest; a float that has no order
    // with another (a NaN) ties with it.
    fn cmp_cells(c: &Column, a: usize, b: usize) -> Ordering {
        match (c.is_valid(a), c.is_valid(b)) {
            (false, false) => Ordering::Equal,
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (true, true) => match c {
                Column::I64(v, _) => v[a].cmp(&v[b]),
                Column::F64(v, _) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
                Column::Str(v, _) => v.bytes(a).cmp(v.bytes(b)),
            },
        }
    }
    let key_cols: Vec<(&Column, bool)> = keys
        .iter()
        .map(|k| (input.column_by_name(&k.column), k.desc))
        .collect();
    // The row index breaks ties, which makes the order total: an unstable
    // sort, or a selection of the first `limit`, then yields exactly what a
    // stable sort of everything would.
    let by_keys = |a: &usize, b: &usize| {
        key_cols
            .iter()
            .map(|&(c, desc)| {
                let ord = cmp_cells(c, *a, *b);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|&ord| ord != Ordering::Equal)
            .unwrap_or_else(|| a.cmp(b))
    };
    let mut indices: Vec<usize> = (0..input.rows()).collect();
    if let Some(limit) = limit.filter(|&l| l < indices.len()) {
        if limit > 0 {
            indices.select_nth_unstable_by(limit - 1, by_keys);
        }
        indices.truncate(limit);
    }
    indices.sort_unstable_by(by_keys);
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

    fn int_key_table(name: &str, keys: impl Iterator<Item = i64>) -> Table {
        Table::new(
            Schema::new(vec![Field::new(name, DataType::Int64)]),
            vec![Column::I64(keys.collect(), None)],
        )
    }

    fn float_key_table(name: &str, keys: impl Iterator<Item = f64>) -> Table {
        Table::new(
            Schema::new(vec![Field::new(name, DataType::Float64)]),
            vec![Column::F64(keys.collect(), None)],
        )
    }

    /// A table over distinct keys costs what its chains say: a lookup of a
    /// build key walks under two entries on average and never more than 16.
    fn assert_short_chains(family: &str, build: Table) {
        let rows = build.rows();
        let jt = JoinTable::build(build, &[0]);
        assert_eq!(jt.distinct_keys(), rows, "{family}");
        let (steps, longest) = (jt.probe_steps(), jt.max_chain());
        assert!(
            steps <= 2 * rows as u64,
            "{family}: {steps} probe steps for {rows} keys"
        );
        assert!(longest <= 16, "{family}: a chain of {longest}");
    }

    #[test]
    fn hash_spreads_keys_whose_entropy_sits_in_the_high_bits() {
        const N: i64 = 1 << 16;
        // f64 bit patterns keep their entropy in the top ~28 bits; integral
        // floats hash as the integers they equal, the others by their bits.
        assert_short_chains(
            "integral Float64 keys",
            float_key_table("f", (1..=N).map(|i| i as f64)),
        );
        assert_short_chains(
            "fractional Float64 keys",
            float_key_table("f", (1..=N).map(|i| i as f64 + 0.5)),
        );
        assert_short_chains(
            "f64 bit patterns as Int64 keys",
            int_key_table("k", (1..=N).map(|i| (i as f64).to_bits() as i64)),
        );
        assert_short_chains(
            "Int64 keys differing only above bit 32",
            int_key_table("k", (1..=N).map(|i| i << 32)),
        );
        // Small integers (entropy at the bottom) must keep spreading too.
        assert_short_chains("small Int64 keys", int_key_table("k", 1..=N));
    }

    #[test]
    fn join_cost_scales_with_rows_not_their_square() {
        for n in [16_000, 160_000] {
            assert_short_chains(&format!("{n} Int64 keys"), int_key_table("b", 0..n));
            let jt = JoinTable::build(int_key_table("b", 0..n), &[0]);
            let probe = int_key_table("p", 0..n);
            let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
            assert_eq!(out.rows(), n as usize);
        }
        // Duplicates lengthen their own chain and no other: four rows per
        // key are found in (1 + 2 + 3 + 4) / 4 steps plus the same slack.
        let jt = JoinTable::build(int_key_table("b", (0..160_000).map(|i| i / 4)), &[0]);
        assert_eq!(jt.distinct_keys(), 40_000);
        assert!(jt.probe_steps() <= 4 * 160_000, "{}", jt.probe_steps());
        // One chain holds everything, which is what the equality tests use.
        let jt = JoinTable::build_in_one_chain(int_key_table("b", 0..100), &[0]);
        assert_eq!((jt.max_chain(), jt.distinct_keys()), (100, 100));
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
    fn groups_are_told_apart_by_their_keys_when_every_hash_collides() {
        let text = |s: &str| Value::Str(s.into());
        let shapes = [
            (
                DataType::Int64,
                vec![
                    Value::I64(1),
                    Value::Null,
                    Value::I64(2),
                    Value::I64(1),
                    Value::Null,
                ],
            ),
            (
                DataType::Float64,
                vec![
                    Value::F64(0.0),
                    Value::F64(1.5),
                    Value::F64(-0.0),
                    Value::Null,
                ],
            ),
            (
                DataType::Utf8,
                vec![
                    text("a"),
                    text(""),
                    Value::Null,
                    text("ab"),
                    text("a"),
                    text(""),
                ],
            ),
        ];
        for (dtype, values) in shapes {
            let mut keys = Column::empty(dtype);
            values.iter().for_each(|v| keys.push_value(v));
            let mut table = GroupTable::new(vec![Column::empty(dtype), Column::empty(dtype)]);
            table.batch_hashes = vec![0; values.len()];
            table.assign_hashed(&[(&keys, false), (&keys, false)], 0..values.len());
            // Ids in first-seen order; NULLs are one group, the zeros too.
            let first_seen: Vec<u32> = (0..values.len())
                .map(|row| {
                    let firsts: Vec<usize> = (0..=row)
                        .filter(|&r| (0..r).all(|e| values[e] != values[r]))
                        .collect();
                    firsts
                        .iter()
                        .position(|&f| values[f] == values[row])
                        .unwrap() as u32
                })
                .collect();
            assert_eq!(table.gids, first_seen, "{dtype:?}");
            assert_eq!(table.groups(), table.keys[1].len());
        }
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
    fn compacted_pairs_are_the_distinct_ones_and_compact_to_themselves() {
        use std::collections::BTreeSet;
        let text = |s: &str| Value::Str(s.into());
        let shapes = [
            (
                DataType::Int64,
                vec![
                    Value::I64(3),
                    Value::Null,
                    Value::I64(-1),
                    Value::I64(i64::MIN),
                    Value::I64(i64::MAX),
                ],
            ),
            (
                DataType::Float64,
                vec![
                    Value::F64(0.0),
                    Value::F64(-0.0),
                    Value::F64(f64::NAN),
                    Value::Null,
                    Value::F64(-f64::NAN),
                    Value::F64(1.5),
                ],
            ),
            (
                DataType::Utf8,
                vec![
                    text(""),
                    text("a"),
                    Value::Null,
                    text("abcdefghi"),
                    text("é"),
                ],
            ),
        ];
        // A value as COUNT(DISTINCT) tells values apart: a float by its
        // canonical bits (the zeros are one, each NaN is itself).
        let member = |c: &Column, row: usize| match c {
            Column::F64(v, _) => format!("{:x}", canon_f64_bits(v[row])),
            _ => format!("{:?}", c.value(row)),
        };
        const BATCH: usize = 40;
        for (dtype, values) in shapes {
            let mut pairs = DistinctPairs::new(&Column::empty(dtype));
            pairs.groups = 3;
            let mut want = BTreeSet::new();
            for batch in 0..25 {
                let mut vals = Column::empty(dtype);
                let gids: Vec<u32> = (0..BATCH as u32).map(|i| i % 3).collect();
                for i in 0..BATCH {
                    vals.push_value(&values[(i * 7 + batch) % values.len()]);
                    if vals.is_valid(i) {
                        want.insert((gids[i], member(&vals, i)));
                    }
                }
                pairs.update(&gids, &vals);
                assert!(pairs.gids.len() <= 2 * pairs.kept + BATCH, "{dtype:?}");
            }
            assert!(pairs.kept > 0, "{dtype:?}: the pairs were never compacted");
            let held = |p: &DistinctPairs| -> Vec<(u32, String)> {
                (0..p.gids.len())
                    .map(|k| (p.gids[k], member(&p.vals, k)))
                    .collect()
            };
            pairs.compact();
            let once = held(&pairs);
            assert_eq!(once.iter().cloned().collect::<BTreeSet<_>>(), want);
            assert_eq!(once.len(), want.len(), "{dtype:?}: a pair kept twice");
            assert_eq!(pairs.kept, once.len());
            pairs.compact();
            assert_eq!(held(&pairs), once, "{dtype:?}: compacting twice");
            let counts = pairs.finish();
            for g in 0..3 {
                let n = want.iter().filter(|(of, _)| *of == g as u32).count();
                assert_eq!(counts.value(g), Value::I64(n as i64), "{dtype:?} group {g}");
            }
        }
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
    fn sort_puts_nulls_last_and_keeps_ties_in_input_order() {
        let mut k = Column::empty(DataType::Float64);
        for v in [Some(2.0), None, Some(1.0), Some(2.0), None, Some(1.0)] {
            k.push_value(&v.map_or(Value::Null, Value::F64));
        }
        let t = Table::new(
            Schema::new(vec![
                Field::nullable("k", DataType::Float64),
                Field::new("row", DataType::Int64),
            ]),
            vec![k, Column::I64((0..6).collect(), None)],
        );
        let order = |keys: &[SortKey], limit| {
            let out = sort_table(&t, keys, limit);
            out.column(1).i64_values().to_vec()
        };
        assert_eq!(order(&[SortKey::asc("k")], None), [2, 5, 0, 3, 1, 4]);
        // Descending reverses the whole order of the key, NULLs included,
        // and still leaves ties as they came.
        assert_eq!(order(&[SortKey::desc("k")], None), [1, 4, 0, 3, 2, 5]);
        for limit in 0..=7 {
            let full = order(&[SortKey::asc("k")], None);
            assert_eq!(
                order(&[SortKey::asc("k")], Some(limit)),
                full[..limit.min(6)],
                "limit {limit}"
            );
        }
    }

    /// One nullable key column of `dtype` holding `keys`, NULL where `None`.
    fn key_table(dtype: DataType, keys: &[Option<i64>]) -> Table {
        let valid: Bitmap = keys.iter().map(Option::is_some).collect();
        let raw = keys.iter().map(|k| k.unwrap_or(0));
        let column = match dtype {
            DataType::Float64 => Column::F64(raw.map(|k| k as f64).collect(), Some(valid)),
            // Cents: the Decimal holding the number `k`.
            DataType::Decimal => Column::I64(raw.map(|k| k * 100).collect(), Some(valid)),
            _ => Column::I64(raw.collect(), Some(valid)),
        };
        Table::new(Schema::new(vec![Field::nullable("k", dtype)]), vec![column])
    }

    /// Whether row `row` of `t`'s only column may be in `filter`.
    fn may_hold(filter: &BloomFilter, t: &Table, row: usize) -> bool {
        let mut hashes = Vec::new();
        hash_keys(&join_key_cols(t, &[0]), row..row + 1, &mut hashes);
        filter.may_hold(hashes[0])
    }

    /// A filter holds every non-NULL key it was built over — as an Int64,
    /// a Float64 or a Decimal of the same number alike — is sized at ten
    /// bits a row or more, and passes few keys it was not built over. A
    /// NULL key is not inserted: the filter over keys with NULLs among
    /// them is the filter over the same keys without the NULLs.
    #[test]
    fn bloom_filters_hold_their_keys_and_no_nulls() {
        let keys: Vec<Option<i64>> = (0..3_000).map(|i| (i % 5 != 0).then_some(i * 7)).collect();
        let present: Vec<Option<i64>> = keys.iter().copied().filter(Option::is_some).collect();
        let absent: Vec<Option<i64>> = (0..3_000).map(|i| Some(i * 7 + 3)).collect();
        let types = [DataType::Int64, DataType::Float64, DataType::Decimal];
        for built in types {
            let filter = BloomFilter::over(&key_table(built, &keys), &[0]);
            assert!(filter.words().len() * 64 >= keys.len() * BLOOM_BITS_PER_KEY);
            assert!(filter.words().len().is_power_of_two());
            assert_eq!(
                filter,
                BloomFilter::over(&key_table(built, &present), &[0]),
                "a NULL key was inserted ({built:?})"
            );
            for tested in types {
                let held = key_table(tested, &present);
                assert!(
                    (0..present.len()).all(|row| may_hold(&filter, &held, row)),
                    "{tested:?} keys missing from a filter over {built:?} keys"
                );
                let others = key_table(tested, &absent);
                let passed = (0..absent.len())
                    .filter(|&row| may_hold(&filter, &others, row))
                    .count();
                assert!(passed < absent.len() / 20, "{passed} absent keys pass");
            }
        }
        assert_eq!(
            BloomFilter::over(&key_table(DataType::Int64, &[]), &[0]).words(),
            [0]
        );
        assert!(!BloomFilter::from_words(Vec::new()).may_hold(0));
    }
}
