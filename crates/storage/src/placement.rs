//! Data placement across the cluster, plus the CRC32 hash the engine
//! partitions by (§3.2: tuples are partitioned "according to the CRC32 hash
//! value of the join attributes").
//!
//! Placement consumes the relation it cuts, a column at a time: each
//! column is cut into its per-node parts and dropped before the next one
//! is cut, so a relation and its parts are resident together for one
//! column's worth only, and loading a database never holds a second copy
//! of it. A chunk is one contiguous copy of its range of every column
//! ([`Column::slice`]); a hash partition computes the part of every row
//! once from the key column and deals every column out in one pass
//! ([`Column::scatter`]). Either way the parts are, row for row, what
//! gathering their rows from the relation would give, and each column of
//! a part is allocated with exactly the room it takes.

use std::ops::Range;

use crate::column::Column;
use crate::table::Table;
use crate::types::Value;

/// CRC-32 (IEEE 802.3) lookup tables for slicing-by-8, computed at compile
/// time. `tables[0]` is the classic byte-at-a-time table; `tables[k][b]` is
/// the register after byte `b` and `k` zero bytes behind it, which is what
/// lets eight bytes be folded in with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Register value of a CRC-32 that has seen no bytes yet: feed it through
/// [`crc32_update`] and close it with [`crc32_finish`]. A key of several
/// attributes is hashed by updating one register per row with each
/// attribute's bytes in turn, which equals [`crc32`] of their concatenation.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Feed `data` into a running CRC-32 register: eight bytes per step while
/// they last (the whole of a canonical numeric key), then a byte at a time.
#[inline]
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The CRC-32 a register stands for.
#[inline]
pub fn crc32_finish(crc: u32) -> u32 {
    !crc
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, data))
}

/// Canonical bit pattern of an f64 join/partition key: `-0.0` folds onto
/// `+0.0` so the two zeros (equal under IEEE `==`) hash and compare as one
/// key. All other values — including NaNs — keep their raw bits.
#[inline]
pub fn canon_f64_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

/// `Some(x as f64)` iff the cast is exact, i.e. the f64 rounds back to
/// exactly `x`. `i64::MAX` is excluded explicitly: `i64::MAX as f64`
/// rounds *up* to 2⁶³ and the saturating cast back yields `i64::MAX`
/// again, making the naive round-trip test a false positive.
///
/// Every integer of magnitude up to 2⁵³ is an f64, which settles all but
/// the far ends of the domain with one comparison; only beyond does the
/// (saturating, hence slow) cast back have to tell.
#[inline]
pub fn i64_as_f64_exact(x: i64) -> Option<f64> {
    const ALWAYS_EXACT: i64 = 1 << 53;
    let f = x as f64;
    if (-ALWAYS_EXACT..=ALWAYS_EXACT).contains(&x) || (f as i64 == x && x != i64::MAX) {
        Some(f)
    } else {
        None
    }
}

/// CRC-32 of an integer key (the common case for join attributes).
///
/// Hashes the *canonical numeric* representation: an i64 that is exactly
/// representable as f64 hashes as its canonical f64 bits, so `I64(7)` and
/// `F64(7.0)` land in the same partition. Table placement and the engine's
/// exchange operators both route through this hash — they must agree, or
/// partitioned placement stops matching exchange buckets and every
/// partition-key repartition degrades into a full shuffle.
pub fn crc32_i64(key: i64) -> u32 {
    crc32(&canon_i64_bytes(key))
}

/// The bytes an integer key hashes as: its canonical f64 bits when it is
/// exactly representable as f64, its own bytes otherwise.
#[inline]
pub fn canon_i64_bytes(key: i64) -> [u8; 8] {
    match i64_as_f64_exact(key) {
        // An integer never converts to -0.0: the bits are canonical as
        // they are.
        Some(f) => f.to_bits().to_le_bytes(),
        None => key.to_le_bytes(),
    }
}

/// CRC-32 of a scalar value; NULL hashes to a fixed bucket. Numeric values
/// hash canonically (see [`crc32_i64`]), so equal logical values agree
/// across Int64/Float64 columns.
pub fn crc32_value(v: &Value) -> u32 {
    match v {
        Value::Null => 0,
        Value::I64(x) => crc32_i64(*x),
        Value::F64(x) => crc32(&canon_f64_bits(*x).to_le_bytes()),
        Value::Str(s) => crc32(s.as_bytes()),
    }
}

/// How base relations are distributed over the cluster (§4.1, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Chunks as generated by dbgen, no redistribution (the paper's default
    /// for HyPer). Joins then need network shuffles.
    #[default]
    Chunked,
    /// Hash-partitioned by the first primary-key attribute (the placement
    /// MemSQL/Vectorwise use). Enables partially-local joins.
    Partitioned,
}

/// The rows of chunk `i` when `rows` rows are cut into `n` contiguous
/// chunks of near-equal size: the first `rows % n` chunks hold one row
/// more than the others.
pub fn chunk_range(rows: usize, n: usize, i: usize) -> Range<usize> {
    assert!(i < n, "chunk {i} of {n}");
    let (base, extra) = (rows / n, rows % n);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// Split a table into `n` contiguous chunks of near-equal size ("as
/// generated by dbgen"), a column at a time.
pub fn chunk_split(table: Table, n: usize) -> Vec<Table> {
    assert!(n > 0, "need at least one chunk");
    let rows = table.rows();
    cut_columns(table, n, |column| {
        (0..n)
            .map(|i| column.slice(chunk_range(rows, n, i)))
            .collect()
    })
}

/// Chunk `i` of [`chunk_split`]`(table, n)`, without cutting the others: a
/// node that generates the whole relation keeps only its own rows.
pub fn own_chunk(table: Table, n: usize, i: usize) -> Table {
    let range = chunk_range(table.rows(), n, i);
    cut_columns(table, 1, |column| vec![column.slice(range.clone())])
        .pop()
        .expect("one part")
}

/// Hash-partition a table into `n` parts by the CRC32 of `key_col`: the
/// part of every row is computed once from the key column, then every
/// column is dealt out to the parts in one pass. Each part keeps its rows
/// in table order.
pub fn hash_partition(table: Table, key_col: usize, n: usize) -> Vec<Table> {
    assert!(n > 0, "need at least one partition");
    let part = |hash: u32| (hash as usize % n) as u32;
    let to: Vec<u32> = match table.column(key_col) {
        Column::I64(values, _) => values.iter().map(|&v| part(crc32_i64(v))).collect(),
        col => (0..table.rows())
            .map(|row| part(crc32_value(&col.value(row))))
            .collect(),
    };
    let mut counts = vec![0usize; n];
    for &p in &to {
        counts[p as usize] += 1;
    }
    cut_columns(table, n, |column| column.scatter(&to, &counts))
}

/// Cut `table` into `n` tables of its schema, a column at a time: `cut`
/// turns a column into its `n` parts, and the column is dropped before the
/// next is cut, so the relation and its parts are held at once only one
/// column's worth.
fn cut_columns(table: Table, n: usize, mut cut: impl FnMut(Column) -> Vec<Column>) -> Vec<Table> {
    let schema = table.schema().clone();
    let mut parts: Vec<Vec<Column>> = (0..n).map(|_| Vec::with_capacity(schema.len())).collect();
    for column in table.into_columns() {
        for (part, piece) in parts.iter_mut().zip(cut(column)) {
            part.push(piece);
        }
    }
    parts
        .into_iter()
        .map(|columns| Table::new(schema.clone(), columns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Field, Schema};
    use crate::types::DataType;

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        Table::new(schema, vec![Column::I64((0..n as i64).collect(), None)])
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_eight_equals_the_bytewise_loop() {
        fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
            for &b in data {
                crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            crc
        }
        // A fixed xorshift stream: every length 0..=64 at several starting
        // registers, so the 8-byte steps, the tail and their seam all run.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in 0..=64usize {
            for _ in 0..8 {
                let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let start = next() as u32;
                assert_eq!(
                    crc32_update(start, &data),
                    bytewise(start, &data),
                    "length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_in_pieces_equals_crc32_of_the_whole() {
        let data = b"the quick brown fox";
        for cut in 0..=data.len() {
            let crc = crc32_update(crc32_update(CRC32_INIT, &data[..cut]), &data[cut..]);
            assert_eq!(crc32_finish(crc), crc32(data), "cut at {cut}");
        }
    }

    #[test]
    fn crc32_i64_is_deterministic_and_spread() {
        let h1 = crc32_i64(42);
        assert_eq!(h1, crc32_i64(42));
        assert_ne!(crc32_i64(1), crc32_i64(2));
    }

    #[test]
    fn chunk_split_covers_everything() {
        let t = table(10);
        let chunks = chunk_split(t, 3);
        assert_eq!(chunks.len(), 3);
        let total: usize = chunks.iter().map(Table::rows).sum();
        assert_eq!(total, 10);
        // Near-equal: 4, 3, 3.
        assert_eq!(chunks[0].rows(), 4);
        assert_eq!(chunks[1].rows(), 3);
        // Contiguity: first chunk starts at key 0.
        assert_eq!(chunks[0].column(0).i64_values()[0], 0);
    }

    #[test]
    fn chunk_split_more_chunks_than_rows() {
        let t = table(2);
        let chunks = chunk_split(t, 5);
        assert_eq!(chunks.len(), 5);
        let total: usize = chunks.iter().map(Table::rows).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn hash_partition_is_disjoint_and_complete() {
        let t = table(1000);
        let parts = hash_partition(t, 0, 4);
        assert_eq!(parts.len(), 4);
        let mut seen: Vec<i64> = parts
            .iter()
            .flat_map(|p| p.column(0).i64_values().to_vec())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        // Rough balance: every bucket within 3x of fair share.
        for p in &parts {
            assert!(p.rows() > 250 / 3 && p.rows() < 750, "rows={}", p.rows());
        }
    }

    #[test]
    fn hash_partition_routes_by_key_consistently() {
        let t = table(100);
        let parts = hash_partition(t, 0, 3);
        for (i, p) in parts.iter().enumerate() {
            for &k in p.column(0).i64_values() {
                assert_eq!(crc32_i64(k) as usize % 3, i);
            }
        }
    }

    /// Three columns, one of each physical type, strings of several
    /// lengths and a NULL in every fifth row of the float column.
    fn mixed(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::nullable("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let mut f = Column::empty(DataType::Float64);
        for i in 0..n {
            f.push_value(&if i % 5 == 3 {
                Value::Null
            } else {
                Value::F64(i as f64 / 4.0)
            });
        }
        let s = (0..n).map(|i| "xyzé".repeat(i % 4)).collect();
        Table::new(
            schema,
            vec![
                Column::I64((0..n as i64).map(|k| k * 7 - 3).collect(), None),
                f,
                Column::Str(s, None),
            ],
        )
    }

    #[test]
    fn parts_are_the_gathered_rows() {
        for rows in [0, 1, 7, 130] {
            let t = mixed(rows);
            for n in 1..5 {
                let chunks = chunk_split(t.clone(), n);
                for (i, chunk) in chunks.iter().enumerate() {
                    let range: Vec<usize> = chunk_range(rows, n, i).collect();
                    assert_eq!(chunk, &t.gather(&range), "{rows} rows, chunk {i} of {n}");
                    assert_eq!(&own_chunk(t.clone(), n, i), chunk);
                }
                let parts = hash_partition(t.clone(), 0, n);
                for (i, part) in parts.iter().enumerate() {
                    let keys = t.column(0).i64_values();
                    let mine: Vec<usize> = (0..rows)
                        .filter(|&r| crc32_i64(keys[r]) as usize % n == i)
                        .collect();
                    assert_eq!(part, &t.gather(&mine), "{rows} rows, part {i} of {n}");
                }
                // A string key hashes its bytes.
                let parts = hash_partition(t.clone(), 2, n);
                for (i, part) in parts.iter().enumerate() {
                    let mine: Vec<usize> = (0..rows)
                        .filter(|&r| crc32_value(&t.value(r, 2)) as usize % n == i)
                        .collect();
                    assert_eq!(part, &t.gather(&mine), "by string, part {i} of {n}");
                }
            }
        }
    }

    #[test]
    fn chunks_tile_the_rows() {
        for rows in [0, 1, 9, 10, 11] {
            for n in 1..6 {
                let ranges: Vec<_> = (0..n).map(|i| chunk_range(rows, n, i)).collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[n - 1].end, rows);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(w[0].len() == w[1].len() || w[0].len() == w[1].len() + 1);
                }
            }
        }
    }

    #[test]
    fn numeric_hashes_agree_across_types() {
        // Int64 and Float64 carrying the same logical value must co-locate.
        assert_eq!(crc32_value(&Value::I64(7)), crc32_value(&Value::F64(7.0)));
        assert_eq!(
            crc32_value(&Value::F64(-0.0)),
            crc32_value(&Value::F64(0.0))
        );
        // Beyond 2^53 the i64 keeps its integer identity.
        let big = (1i64 << 53) + 1;
        assert_eq!(crc32_i64(big), crc32(&big.to_le_bytes()));
    }

    #[test]
    fn exactness_shortcut_agrees_with_the_round_trip() {
        let round_trip = |x: i64| (x as f64) as i64 == x && x != i64::MAX;
        let limit = 1i64 << 53;
        let edges = [
            0,
            1,
            -1,
            limit - 1,
            limit,
            limit + 1,
            limit + 2,
            i64::MAX,
            i64::MIN,
        ];
        for x in edges.into_iter().flat_map(|x| [x, x.wrapping_neg()]) {
            assert_eq!(i64_as_f64_exact(x).is_some(), round_trip(x), "{x}");
            if let Some(f) = i64_as_f64_exact(x) {
                assert_eq!(f as i64, x);
                assert_eq!(canon_i64_bytes(x), canon_f64_bits(f).to_le_bytes());
            }
        }
        assert_eq!(i64_as_f64_exact(limit + 1), None);
        assert_eq!(i64_as_f64_exact(limit + 2), Some((limit + 2) as f64));
    }

    #[test]
    fn crc32_value_handles_all_types() {
        assert_eq!(crc32_value(&Value::Null), 0);
        assert_eq!(crc32_value(&Value::I64(7)), crc32_i64(7));
        let s = crc32_value(&Value::Str("abc".into()));
        assert_eq!(s, crc32(b"abc"));
        let f = crc32_value(&Value::F64(1.5));
        assert_eq!(f, crc32(&1.5f64.to_le_bytes()));
    }
}
