//! Result digests: what "the same answer" means to the benchmark.
//!
//! A digest is insensitive to row order (different node counts and plans
//! emit rows in different orders wherever the query leaves ties) and
//! tolerant of floating-point reassociation (partial sums merge in
//! another order on another cluster shape), yet catches a lost row, a
//! wrong aggregate or a mangled string.

use std::collections::BTreeMap;

use hsqp::storage::{Column, DataType, Table};
use hsqp::tpch::{TpchDb, TpchTable};

use crate::json::{num, obj, s, Json};

/// Relative tolerance on numeric column sums.
const REL_TOL: f64 = 1e-6;

/// Word-at-a-time multiplicative hash (FxHash's mixing step): far faster
/// than SipHash on the ~100 MB a data fingerprint covers, and collisions
/// only need to be unlikely, not adversarially hard.
#[derive(Clone, Copy)]
struct Mix(u64);

impl Mix {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }

    fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
        self.word(b.len() as u64);
    }

    fn finish(self) -> u64 {
        // One more round so short inputs still spread over all bits.
        let mut m = self;
        m.word(0x9e37_79b9_7f4a_7c15);
        m.0 ^ (m.0 >> 29)
    }
}

fn hash_str(text: &str) -> u64 {
    let mut m = Mix(0);
    m.bytes(text.as_bytes());
    m.finish()
}

/// One column of a result, reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct ColDigest {
    /// Column name.
    pub name: String,
    /// NULL cells.
    pub nulls: u64,
    /// Sum of the valid numeric cells (decimals in units, not cents).
    pub sum: f64,
    /// Sum of their absolute values: the scale the tolerance is taken
    /// from, so a signed column summing to ~0 still compares sensibly.
    pub abs_sum: f64,
    /// Wrapping sum of the valid string cells' hashes (a multiset hash).
    pub str_hash: u64,
}

/// A whole result, reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// Row count.
    pub rows: u64,
    /// Per-column reductions, in schema order.
    pub cols: Vec<ColDigest>,
}

impl Digest {
    /// Reduce `table`.
    pub fn of(table: &Table) -> Digest {
        let cols = table
            .schema()
            .fields()
            .iter()
            .zip(table.columns())
            .map(|(field, column)| {
                let mut d = ColDigest {
                    name: field.name.clone(),
                    nulls: 0,
                    sum: 0.0,
                    abs_sum: 0.0,
                    str_hash: 0,
                };
                let scale = if field.dtype == DataType::Decimal {
                    0.01
                } else {
                    1.0
                };
                for row in 0..column.len() {
                    if !column.is_valid(row) {
                        d.nulls += 1;
                        continue;
                    }
                    match column {
                        Column::I64(v, _) => {
                            let x = v[row] as f64 * scale;
                            d.sum += x;
                            d.abs_sum += x.abs();
                        }
                        Column::F64(v, _) => {
                            d.sum += v[row];
                            d.abs_sum += v[row].abs();
                        }
                        Column::Str(v, _) => {
                            d.str_hash = d.str_hash.wrapping_add(hash_str(v.get(row)));
                        }
                    }
                }
                d
            })
            .collect();
        Digest {
            rows: table.rows() as u64,
            cols,
        }
    }

    /// `Ok` when `other` is the same answer, else what differs.
    pub fn same_as(&self, other: &Digest) -> Result<(), String> {
        if self.rows != other.rows {
            return Err(format!("{} rows vs {}", self.rows, other.rows));
        }
        if self.cols.len() != other.cols.len() {
            return Err(format!(
                "{} columns vs {}",
                self.cols.len(),
                other.cols.len()
            ));
        }
        for (a, b) in self.cols.iter().zip(&other.cols) {
            if a.name != b.name {
                return Err(format!("column {:?} vs {:?}", a.name, b.name));
            }
            if a.nulls != b.nulls {
                return Err(format!("{}: {} NULLs vs {}", a.name, a.nulls, b.nulls));
            }
            if a.str_hash != b.str_hash {
                return Err(format!("{}: string contents differ", a.name));
            }
            let scale = a.abs_sum.max(b.abs_sum);
            if (a.sum - b.sum).abs() > REL_TOL * scale
                || (a.abs_sum - b.abs_sum).abs() > REL_TOL * scale
            {
                return Err(format!("{}: sum {} vs {}", a.name, a.sum, b.sum));
            }
        }
        Ok(())
    }

    /// JSON form (golden files, the reference child's reply).
    pub fn to_json(&self) -> Json {
        let cols = self
            .cols
            .iter()
            .map(|c| {
                obj([
                    ("name", s(&c.name)),
                    ("nulls", num(c.nulls as f64)),
                    ("sum", num(c.sum)),
                    ("abs_sum", num(c.abs_sum)),
                    // u64 does not fit a JSON number.
                    ("str_hash", s(&format!("{:016x}", c.str_hash))),
                ])
            })
            .collect();
        obj([("rows", num(self.rows as f64)), ("cols", Json::Arr(cols))])
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(value: &Json) -> Result<Digest, String> {
        let field = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("digest: missing number {key:?}"))
        };
        let cols = value
            .get("cols")
            .and_then(Json::as_arr)
            .ok_or("digest: missing \"cols\"")?
            .iter()
            .map(|c| {
                let text = |key: &str| {
                    c.get(key)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("digest: missing string {key:?}"))
                };
                Ok(ColDigest {
                    name: text("name")?.to_string(),
                    nulls: field(c, "nulls")? as u64,
                    sum: field(c, "sum")?,
                    abs_sum: field(c, "abs_sum")?,
                    str_hash: u64::from_str_radix(text("str_hash")?, 16)
                        .map_err(|e| format!("digest: str_hash: {e}"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Digest {
            rows: field(value, "rows")? as u64,
            cols,
        })
    }
}

/// Digests by template name, as JSON.
pub fn digests_to_json(digests: &BTreeMap<String, Digest>) -> Json {
    Json::Obj(
        digests
            .iter()
            .map(|(name, d)| (name.clone(), d.to_json()))
            .collect(),
    )
}

/// Inverse of [`digests_to_json`].
pub fn digests_from_json(value: &Json) -> Result<BTreeMap<String, Digest>, String> {
    match value {
        Json::Obj(members) => members
            .iter()
            .map(|(name, d)| Ok((name.clone(), Digest::from_json(d)?)))
            .collect(),
        _ => Err("digests: expected an object".into()),
    }
}

/// Fingerprint of every generated cell of `db`. Golden digests are keyed
/// by it, so a later fix to the generator (Q9's truncated colour list)
/// turns the goldens stale instead of turning every run red.
pub fn fingerprint(db: &TpchDb) -> String {
    let mut m = Mix(0);
    for kind in TpchTable::ALL {
        let table = db.table(kind);
        m.bytes(kind.name().as_bytes());
        m.word(table.rows() as u64);
        for (field, column) in table.schema().fields().iter().zip(table.columns()) {
            m.bytes(field.name.as_bytes());
            match column {
                Column::I64(v, _) => v.iter().for_each(|x| m.word(*x as u64)),
                Column::F64(v, _) => v.iter().for_each(|x| m.word(x.to_bits())),
                Column::Str(v, _) => v.iter().for_each(|x| m.bytes(x.as_bytes())),
            }
            if column.validity().is_some() {
                (0..column.len())
                    .filter(|&row| !column.is_valid(row))
                    .for_each(|row| m.word(row as u64));
            }
        }
    }
    format!("{:016x}", m.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsqp::storage::{Field, Schema, StringColumn};

    fn table(keys: &[i64], prices: &[f64], names: &[&str]) -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("p", DataType::Float64),
                Field::new("n", DataType::Utf8),
            ]),
            vec![
                Column::I64(keys.to_vec(), None),
                Column::F64(prices.to_vec(), None),
                Column::Str(names.iter().copied().collect::<StringColumn>(), None),
            ],
        )
    }

    #[test]
    fn row_order_does_not_matter() {
        let a = Digest::of(&table(&[1, 2, 3], &[0.5, 1.5, 2.5], &["x", "y", "z"]));
        let b = Digest::of(&table(&[3, 1, 2], &[2.5, 0.5, 1.5], &["z", "x", "y"]));
        assert_eq!(a.same_as(&b), Ok(()));
    }

    #[test]
    fn float_noise_is_tolerated_but_a_real_difference_is_not() {
        let a = Digest::of(&table(&[1, 2], &[1000.0, 2000.0], &["x", "y"]));
        let noisy = Digest::of(&table(&[1, 2], &[1000.0000001, 2000.0], &["x", "y"]));
        assert_eq!(a.same_as(&noisy), Ok(()));
        let wrong = Digest::of(&table(&[1, 2], &[1000.1, 2000.0], &["x", "y"]));
        assert!(a.same_as(&wrong).unwrap_err().contains("p: sum"));
    }

    #[test]
    fn cancelling_signs_still_compare() {
        // Sums to 0 either way; only the absolute sums tell them apart.
        let a = Digest::of(&table(&[1, 2], &[5.0, -5.0], &["x", "y"]));
        let b = Digest::of(&table(&[1, 2], &[7.0, -7.0], &["x", "y"]));
        assert!(a.same_as(&b).is_err());
        assert_eq!(a.same_as(&a.clone()), Ok(()));
    }

    #[test]
    fn rows_strings_and_multiplicity_are_checked() {
        let a = Digest::of(&table(&[1, 2], &[1.0, 2.0], &["x", "y"]));
        let fewer = Digest::of(&table(&[3], &[3.0], &["x"]));
        assert!(fewer.same_as(&a).unwrap_err().contains("rows"));
        let other = Digest::of(&table(&[1, 2], &[1.0, 2.0], &["x", "Y"]));
        assert!(a.same_as(&other).unwrap_err().contains("string"));
        // A multiset, not a set: "x","x" is not "x","y" minus a "y".
        let dup = Digest::of(&table(&[1, 2], &[1.0, 2.0], &["x", "x"]));
        assert!(a.same_as(&dup).is_err());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let a = Digest::of(&table(&[1, -2, 3], &[0.1, 0.2, 0.3], &["a", "bb", ""]));
        let text = crate::json::render(&a.to_json());
        let back = Digest::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn fingerprint_sees_every_cell() {
        let a = TpchDb::generate(0.001);
        assert_eq!(fingerprint(&a), fingerprint(&TpchDb::generate(0.001)));
        assert_ne!(
            fingerprint(&a),
            fingerprint(&TpchDb::generate_seeded(0.001, 7))
        );
    }
}
