//! Data placement across the cluster, plus the CRC32 hash the engine
//! partitions by (§3.2: tuples are partitioned "according to the CRC32 hash
//! value of the join attributes").

use crate::column::Column;
use crate::table::Table;
use crate::types::Value;

/// CRC-32 (IEEE 802.3) lookup table, computed at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Register value of a CRC-32 that has seen no bytes yet: feed it through
/// [`crc32_update`] and close it with [`crc32_finish`]. A key of several
/// attributes is hashed by updating one register per row with each
/// attribute's bytes in turn, which equals [`crc32`] of their concatenation.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Feed `data` into a running CRC-32 register.
#[inline]
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
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
#[inline]
pub fn i64_as_f64_exact(x: i64) -> Option<f64> {
    let f = x as f64;
    if f as i64 == x && x != i64::MAX {
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
        Some(f) => canon_f64_bits(f).to_le_bytes(),
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
    /// Fully replicated on every node (used for small dimension tables).
    Replicated,
}

/// Split a table into `n` contiguous chunks of near-equal size ("as
/// generated by dbgen").
pub fn chunk_split(table: &Table, n: usize) -> Vec<Table> {
    assert!(n > 0, "need at least one chunk");
    let rows = table.rows();
    let base = rows / n;
    let extra = rows % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        let indices: Vec<usize> = (start..start + len).collect();
        out.push(table.gather(&indices));
        start += len;
    }
    out
}

/// Hash-partition a table into `n` parts by the CRC32 of `key_col`.
pub fn hash_partition(table: &Table, key_col: usize, n: usize) -> Vec<Table> {
    assert!(n > 0, "need at least one partition");
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
    let col = table.column(key_col);
    match col {
        Column::I64(values, _) => {
            for (row, &v) in values.iter().enumerate() {
                buckets[crc32_i64(v) as usize % n].push(row);
            }
        }
        _ => {
            for row in 0..table.rows() {
                let v = col.value(row);
                buckets[crc32_value(&v) as usize % n].push(row);
            }
        }
    }
    buckets.into_iter().map(|idx| table.gather(&idx)).collect()
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
        let chunks = chunk_split(&t, 3);
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
        let chunks = chunk_split(&t, 5);
        assert_eq!(chunks.len(), 5);
        let total: usize = chunks.iter().map(Table::rows).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn hash_partition_is_disjoint_and_complete() {
        let t = table(1000);
        let parts = hash_partition(&t, 0, 4);
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
        let parts = hash_partition(&t, 0, 3);
        for (i, p) in parts.iter().enumerate() {
            for &k in p.column(0).i64_values() {
                assert_eq!(crc32_i64(k) as usize % 3, i);
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
    fn crc32_value_handles_all_types() {
        assert_eq!(crc32_value(&Value::Null), 0);
        assert_eq!(crc32_value(&Value::I64(7)), crc32_i64(7));
        let s = crc32_value(&Value::Str("abc".into()));
        assert_eq!(s, crc32(b"abc"));
        let f = crc32_value(&Value::F64(1.5));
        assert_eq!(f, crc32(&1.5f64.to_le_bytes()));
    }
}
