//! Typed columns.

use std::ops::Range;

use crate::bitmap::Bitmap;
use crate::types::{DataType, Value};

/// Byte-packed UTF-8 string column (offsets + contiguous data), the layout
/// HyPer's columnar format and our wire format (Figure 8) both favour.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StringColumn {
    offsets: Vec<u32>,
    data: Vec<u8>,
}

impl StringColumn {
    /// An empty string column.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Pre-allocate for `rows` strings of `avg_len` average size.
    pub fn with_capacity(rows: usize, avg_len: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            data: Vec::with_capacity(rows * avg_len),
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no strings are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a string.
    ///
    /// # Panics
    /// Panics if total data exceeds `u32::MAX` bytes.
    pub fn push(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Append a string given as its bytes, which the caller took from a
    /// string column (so they are UTF-8, and are not checked again).
    fn push_bytes(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
        let end = u32::try_from(self.data.len()).expect("string column exceeds 4 GiB");
        self.offsets.push(end);
    }

    /// String at row `idx`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, idx: usize) -> &str {
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        // Safety: only `push` writes data, and it only appends whole strings.
        std::str::from_utf8(&self.data[start..end]).expect("column holds valid UTF-8")
    }

    /// Bytes of the string at row `idx` (no UTF-8 check: key kernels hash
    /// and compare them as they are).
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn bytes(&self, idx: usize) -> &[u8] {
        &self.data[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// Total bytes of string data.
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Row boundaries into [`data`](Self::data): string `i` occupies
    /// `offsets()[i]..offsets()[i + 1]`; `len() + 1` entries.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// All strings back to back (column kernels read runs of it without a
    /// UTF-8 check per string).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Append every string of `other`: one copy of its data, its offsets
    /// rebased.
    ///
    /// # Panics
    /// Panics if total data exceeds `u32::MAX` bytes.
    pub fn extend(&mut self, other: &StringColumn) {
        self.extend_rows(other, 0..other.len());
    }

    /// Append strings `rows` of `other`: one copy of their data, their
    /// offsets rebased.
    ///
    /// # Panics
    /// Panics when `rows` is out of bounds, or if total data exceeds
    /// `u32::MAX` bytes.
    pub fn extend_rows(&mut self, other: &StringColumn, rows: Range<usize>) {
        let offsets = &other.offsets[rows.start..=rows.end];
        let (from, to) = (offsets[0], offsets[offsets.len() - 1]);
        let base = self.end_after((to - from) as usize);
        self.data
            .extend_from_slice(&other.data[from as usize..to as usize]);
        self.offsets
            .extend(offsets[1..].iter().map(|&o| base + (o - from)));
    }

    /// Append `lens.len()` strings that lie back to back in `data`, the
    /// `i`-th being `lens[i]` bytes long. Fails, leaving the column as it
    /// was, when the lengths do not add up to `data.len()` or one of them
    /// ends inside a character.
    ///
    /// # Panics
    /// Panics if total data exceeds `u32::MAX` bytes.
    pub fn extend_from_run(
        &mut self,
        data: &str,
        lens: impl Iterator<Item = u32>,
    ) -> Result<(), SplitRun> {
        let base = self.end_after(data.len());
        let rows_before = self.offsets.len();
        let mut end = 0usize;
        let mut whole = true;
        self.offsets.extend(lens.map(|len| {
            end = end.saturating_add(len as usize);
            whole &= data.is_char_boundary(end);
            // A wrapped sum fails the boundary check (`end > data.len()`),
            // so the value stored here is never kept.
            base.wrapping_add(end as u32)
        }));
        if whole && end == data.len() {
            self.data.extend_from_slice(data.as_bytes());
            Ok(())
        } else {
            self.offsets.truncate(rows_before);
            Err(SplitRun)
        }
    }

    /// Strings `rows` as a column of their own: their bytes as one run,
    /// their offsets rebased, each allocated with exactly the room it
    /// takes.
    ///
    /// # Panics
    /// Panics when `rows` is out of bounds.
    pub fn slice(&self, rows: Range<usize>) -> StringColumn {
        let offsets = &self.offsets[rows.start..=rows.end];
        let (from, to) = (offsets[0], offsets[offsets.len() - 1]);
        StringColumn {
            offsets: offsets.iter().map(|&o| o - from).collect(),
            data: self.data[from as usize..to as usize].to_vec(),
        }
    }

    /// Current end offset, after checking that `more` bytes still fit.
    fn end_after(&self, more: usize) -> u32 {
        u32::try_from(self.data.len() + more).expect("string column exceeds 4 GiB");
        self.data.len() as u32
    }

    /// Iterate all strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A run of lengths handed to [`StringColumn::extend_from_run`] that does
/// not cut its data into whole strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRun;

impl FromIterator<String> for StringColumn {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        let mut col = StringColumn::new();
        for s in iter {
            col.push(&s);
        }
        col
    }
}

impl<'a> FromIterator<&'a str> for StringColumn {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        let mut col = StringColumn::new();
        for s in iter {
            col.push(s);
        }
        col
    }
}

/// A column of values, optionally with a validity bitmap.
///
/// Integer-backed logical types (Int64, Date, Decimal) all use the `I64`
/// physical representation; the logical type lives in the schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers (also dates and scaled decimals).
    I64(Vec<i64>, Option<Bitmap>),
    /// 64-bit floats.
    F64(Vec<f64>, Option<Bitmap>),
    /// UTF-8 strings.
    Str(StringColumn, Option<Bitmap>),
}

impl Column {
    /// The row index [`extend_gather`](Self::extend_gather) reads as "no
    /// row": the build side of a left-outer miss.
    pub const NULL_ROW: u32 = u32::MAX;

    /// An empty column of physical type matching `dtype`.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 | DataType::Date | DataType::Decimal => Column::I64(Vec::new(), None),
            DataType::Float64 => Column::F64(Vec::new(), None),
            DataType::Utf8 => Column::Str(StringColumn::new(), None),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v, _) => v.len(),
            Column::F64(v, _) => v.len(),
            Column::Str(v, _) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether row `idx` is valid (non-NULL).
    #[inline]
    pub fn is_valid(&self, idx: usize) -> bool {
        match self.validity() {
            Some(bm) => bm.get(idx),
            None => true,
        }
    }

    /// The validity bitmap, if any rows may be NULL.
    #[inline]
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::I64(_, v) | Column::F64(_, v) | Column::Str(_, v) => v.as_ref(),
        }
    }

    /// Scalar value at `idx` (NULL-aware).
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn value(&self, idx: usize) -> Value {
        if !self.is_valid(idx) {
            return Value::Null;
        }
        match self {
            Column::I64(v, _) => Value::I64(v[idx]),
            Column::F64(v, _) => Value::F64(v[idx]),
            Column::Str(v, _) => Value::Str(v.get(idx).to_owned()),
        }
    }

    /// Append a scalar value; `Value::Null` appends a NULL.
    ///
    /// # Panics
    /// Panics on a type mismatch.
    pub fn push_value(&mut self, value: &Value) {
        let valid = !value.is_null();
        match self {
            Column::I64(v, bm) => {
                v.push(if valid { value.as_i64() } else { 0 });
                push_validity(bm, v.len(), valid);
            }
            Column::F64(v, bm) => {
                v.push(if valid { value.as_f64() } else { 0.0 });
                push_validity(bm, v.len(), valid);
            }
            Column::Str(v, bm) => {
                v.push(if valid { value.as_str() } else { "" });
                push_validity(bm, v.len(), valid);
            }
        }
    }

    /// Borrow the integer payload.
    ///
    /// # Panics
    /// Panics when the column is not integer-backed.
    pub fn i64_values(&self) -> &[i64] {
        match self {
            Column::I64(v, _) => v,
            other => panic!("expected i64 column, found {:?}", other.physical_name()),
        }
    }

    /// Borrow the float payload.
    ///
    /// # Panics
    /// Panics when the column is not a float column.
    pub fn f64_values(&self) -> &[f64] {
        match self {
            Column::F64(v, _) => v,
            other => panic!("expected f64 column, found {:?}", other.physical_name()),
        }
    }

    /// Borrow the string payload.
    ///
    /// # Panics
    /// Panics when the column is not a string column.
    pub fn str_values(&self) -> &StringColumn {
        match self {
            Column::Str(v, _) => v,
            other => panic!("expected str column, found {:?}", other.physical_name()),
        }
    }

    /// Name of the physical representation (diagnostics).
    pub fn physical_name(&self) -> &'static str {
        match self {
            Column::I64(..) => "i64",
            Column::F64(..) => "f64",
            Column::Str(..) => "str",
        }
    }

    /// Approximate heap size in bytes (for shuffle-volume accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            Column::I64(v, _) => v.len() * 8,
            Column::F64(v, _) => v.len() * 8,
            Column::Str(v, _) => v.data_len() + (v.len() + 1) * 4,
        }
    }

    /// Copy the rows selected by `indices` into a new column.
    ///
    /// # Panics
    /// Panics when any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::I64(v, bm) => {
                let data: Vec<i64> = indices.iter().map(|&i| v[i]).collect();
                Column::I64(data, gather_validity(bm, indices))
            }
            Column::F64(v, bm) => {
                let data: Vec<f64> = indices.iter().map(|&i| v[i]).collect();
                Column::F64(data, gather_validity(bm, indices))
            }
            Column::Str(v, bm) => {
                let mut out = StringColumn::with_capacity(indices.len(), 16);
                for &i in indices {
                    out.push_bytes(v.bytes(i));
                }
                Column::Str(out, gather_validity(bm, indices))
            }
        }
    }

    /// Rows `range` as a new column: one contiguous copy, allocated with
    /// exactly the room it takes (strings as one run of bytes, their
    /// offsets rebased). A validity bitmap stays a bitmap.
    ///
    /// # Panics
    /// Panics when `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Column {
        let validity = |bm: &Option<Bitmap>| bm.as_ref().map(|b| b.slice(range.clone()));
        match self {
            Column::I64(v, bm) => Column::I64(v[range.clone()].to_vec(), validity(bm)),
            Column::F64(v, bm) => Column::F64(v[range.clone()].to_vec(), validity(bm)),
            Column::Str(v, bm) => Column::Str(v.slice(range.clone()), validity(bm)),
        }
    }

    /// Deal the rows out to `counts.len()` columns: row `i` goes to column
    /// `to[i]`, and the rows of each keep their order. `counts[p]` is how
    /// many rows go to column `p`, so each is allocated once with exactly
    /// the room it takes (a string column's bytes are counted first). A
    /// validity bitmap stays a bitmap in every part.
    ///
    /// # Panics
    /// Panics when `to` is not one entry per row, names a part past
    /// `counts`, or deals a part other than `counts` says.
    pub fn scatter(&self, to: &[u32], counts: &[usize]) -> Vec<Column> {
        fn values<T: Copy>(src: &[T], to: &[u32], counts: &[usize]) -> Vec<Vec<T>> {
            let mut parts: Vec<Vec<T>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
            for (&v, &p) in src.iter().zip(to) {
                parts[p as usize].push(v);
            }
            parts
        }
        assert_eq!(to.len(), self.len(), "a part for every row");
        let validity: Vec<Option<Bitmap>> = match self.validity() {
            None => vec![None; counts.len()],
            Some(bm) => {
                let mut parts = vec![Bitmap::new(); counts.len()];
                for (row, &p) in to.iter().enumerate() {
                    parts[p as usize].push(bm.get(row));
                }
                parts.into_iter().map(Some).collect()
            }
        };
        let parts: Vec<Column> = match self {
            Column::I64(v, _) => values(v, to, counts)
                .into_iter()
                .map(|v| Column::I64(v, None))
                .collect(),
            Column::F64(v, _) => values(v, to, counts)
                .into_iter()
                .map(|v| Column::F64(v, None))
                .collect(),
            Column::Str(v, _) => {
                let mut bytes = vec![0usize; counts.len()];
                for (row, &p) in to.iter().enumerate() {
                    bytes[p as usize] += v.bytes(row).len();
                }
                let mut parts: Vec<StringColumn> = counts
                    .iter()
                    .zip(bytes)
                    .map(|(&rows, bytes)| {
                        let mut offsets = Vec::with_capacity(rows + 1);
                        offsets.push(0);
                        StringColumn {
                            offsets,
                            data: Vec::with_capacity(bytes),
                        }
                    })
                    .collect();
                for (row, &p) in to.iter().enumerate() {
                    parts[p as usize].push_bytes(v.bytes(row));
                }
                parts.into_iter().map(|v| Column::Str(v, None)).collect()
            }
        };
        parts
            .into_iter()
            .zip(validity)
            .zip(counts)
            .map(|((mut part, bm), &rows)| {
                assert_eq!(part.len(), rows, "rows dealt to a part");
                match &mut part {
                    Column::I64(_, v) | Column::F64(_, v) | Column::Str(_, v) => *v = bm,
                }
                part
            })
            .collect()
    }

    /// Append `src[i]` for every `i` in `rows`, in that order; a row of
    /// [`Column::NULL_ROW`] appends a NULL. A run of at least 16
    /// consecutive rows is copied as one slice (a selection that keeps most
    /// of its input is a few long runs); other rows are copied one at a
    /// time. The validity bitmap stays absent until the first NULL arrives.
    ///
    /// # Panics
    /// Panics on physical type mismatch or when an index is out of bounds.
    pub fn extend_gather(&mut self, src: &Column, rows: &[u32]) {
        fn values<T: Copy + Default>(dst: &mut Vec<T>, src: &[T], rows: &[u32]) {
            dst.reserve(rows.len());
            for piece in (Pieces { rows }) {
                match piece {
                    Piece::Run(run) => dst.extend_from_slice(
                        src.get(run.clone())
                            .unwrap_or_else(|| panic!("rows {run:?} out of bounds")),
                    ),
                    Piece::Rows(rows) => {
                        dst.extend(rows.iter().map(|&i| match src.get(i as usize) {
                            Some(&v) => v,
                            None => {
                                assert_eq!(i, Column::NULL_ROW, "row {i} out of bounds");
                                T::default()
                            }
                        }))
                    }
                }
            }
        }
        let old_len = self.len();
        let validity = match (&mut *self, src) {
            (Column::I64(a, bm), Column::I64(b, _)) => {
                values(a, b, rows);
                bm
            }
            (Column::F64(a, bm), Column::F64(b, _)) => {
                values(a, b, rows);
                bm
            }
            (Column::Str(a, bm), Column::Str(b, _)) => {
                a.offsets.reserve(rows.len());
                for piece in (Pieces { rows }) {
                    match piece {
                        Piece::Run(run) => a.extend_rows(b, run),
                        Piece::Rows(rows) => {
                            for &i in rows {
                                a.push_bytes(if i == Column::NULL_ROW {
                                    &[]
                                } else {
                                    b.bytes(i as usize)
                                });
                            }
                        }
                    }
                }
                bm
            }
            (a, b) => panic!(
                "cannot gather {} column into {} column",
                b.physical_name(),
                a.physical_name()
            ),
        };
        if src.validity().is_none() && !rows.contains(&Column::NULL_ROW) {
            if let Some(bm) = validity {
                bm.extend_filled(rows.len(), true);
            }
        } else {
            for (n, &i) in rows.iter().enumerate() {
                let valid = i != Column::NULL_ROW && src.is_valid(i as usize);
                push_validity(validity, old_len + n + 1, valid);
            }
        }
    }

    /// Bytes of string data (0 for a column that is not a string column).
    pub fn str_bytes(&self) -> usize {
        match self {
            Column::Str(v, _) => v.data_len(),
            _ => 0,
        }
    }

    /// Make room for exactly `rows` more rows — holding `str_bytes` bytes
    /// of string data, if this is a string column — so that appending them
    /// does not regrow the column, and a column that already has the room
    /// is left as it is.
    pub fn reserve(&mut self, rows: usize, str_bytes: usize) {
        match self {
            Column::I64(v, _) => v.reserve_exact(rows),
            Column::F64(v, _) => v.reserve_exact(rows),
            Column::Str(v, _) => {
                v.offsets.reserve_exact(rows);
                v.data.reserve_exact(str_bytes);
            }
        }
    }

    /// Drop every row and keep the room they took, so that a column that
    /// is filled again and again is allocated once.
    pub fn clear(&mut self) {
        let validity = match self {
            Column::I64(v, bm) => {
                v.clear();
                bm
            }
            Column::F64(v, bm) => {
                v.clear();
                bm
            }
            Column::Str(v, bm) => {
                v.offsets.truncate(1);
                v.data.clear();
                bm
            }
        };
        *validity = None;
    }

    /// Append all rows of `other` onto `self`.
    ///
    /// # Panics
    /// Panics on physical type mismatch.
    pub fn append(&mut self, other: &Column) {
        let other_len = other.len();
        match (&mut *self, other) {
            (Column::I64(a, abm), Column::I64(b, bbm)) => {
                append_validity(abm, a.len(), bbm, other_len);
                a.extend_from_slice(b);
            }
            (Column::F64(a, abm), Column::F64(b, bbm)) => {
                append_validity(abm, a.len(), bbm, other_len);
                a.extend_from_slice(b);
            }
            (Column::Str(a, abm), Column::Str(b, bbm)) => {
                append_validity(abm, a.len(), bbm, other_len);
                a.extend(b);
            }
            (a, b) => panic!(
                "cannot append {} column to {} column",
                b.physical_name(),
                a.physical_name()
            ),
        }
    }
}

/// The shortest run of consecutive row ids [`Column::extend_gather`] copies
/// as one slice. Looking for one costs a comparison per row of a window
/// this wide, so rows that lie in no such run gather about as fast as a
/// plain loop does.
const RUN: usize = 16;

/// A piece of a row-id list.
enum Piece<'r> {
    /// At least [`RUN`] consecutive ids.
    Run(Range<usize>),
    /// Ids that start no such run.
    Rows(&'r [u32]),
}

/// `rows` cut into [`Piece`]s, in order. [`Column::NULL_ROW`] is never part
/// of a run: no row id comes before it.
struct Pieces<'r> {
    rows: &'r [u32],
}

impl<'r> Iterator for Pieces<'r> {
    type Item = Piece<'r>;

    #[inline]
    fn next(&mut self) -> Option<Piece<'r>> {
        let rows = self.rows;
        let first = *rows.first()? as usize;
        let window = &rows[..RUN.min(rows.len())];
        let (piece, len) = match window
            .windows(2)
            .rposition(|w| w[1] as usize != w[0] as usize + 1)
        {
            // Up to the window's last break: a run may start after it.
            Some(k) => (Piece::Rows(&rows[..=k]), k + 1),
            None if window.len() == RUN => {
                let len = (rows.iter().enumerate())
                    .take_while(|&(k, &r)| r as usize == first + k)
                    .count();
                (Piece::Run(first..first + len), len)
            }
            None => (Piece::Rows(rows), rows.len()),
        };
        self.rows = &rows[len..];
        Some(piece)
    }
}

fn push_validity(bm: &mut Option<Bitmap>, new_len: usize, valid: bool) {
    match bm {
        Some(b) => b.push(valid),
        None if valid => {} // stay dense
        None => {
            let mut b = Bitmap::filled(new_len - 1, true);
            b.push(false);
            *bm = Some(b);
        }
    }
}

fn gather_validity(bm: &Option<Bitmap>, indices: &[usize]) -> Option<Bitmap> {
    bm.as_ref()
        .map(|b| indices.iter().map(|&i| b.get(i)).collect())
}

fn append_validity(abm: &mut Option<Bitmap>, a_len: usize, bbm: &Option<Bitmap>, b_len: usize) {
    match (abm.as_mut(), bbm) {
        (None, None) => {}
        (Some(a), None) => a.extend_filled(b_len, true),
        (None, Some(b)) => {
            let mut bm = Bitmap::filled(a_len, true);
            bm.extend_from(b);
            *abm = Some(bm);
        }
        (Some(a), Some(b)) => a.extend_from(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_column_roundtrip() {
        let mut c = StringColumn::new();
        c.push("hello");
        c.push("");
        c.push("wörld");
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), "hello");
        assert_eq!(c.get(1), "");
        assert_eq!(c.get(2), "wörld");
        let all: Vec<_> = c.iter().collect();
        assert_eq!(all, vec!["hello", "", "wörld"]);
    }

    #[test]
    fn column_push_and_value() {
        let mut c = Column::empty(DataType::Int64);
        c.push_value(&Value::I64(5));
        c.push_value(&Value::Null);
        c.push_value(&Value::I64(-3));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::I64(5));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::I64(-3));
        assert!(!c.is_valid(1));
    }

    #[test]
    fn dense_column_has_no_bitmap() {
        let mut c = Column::empty(DataType::Float64);
        c.push_value(&Value::F64(1.0));
        c.push_value(&Value::F64(2.0));
        assert!(c.validity().is_none());
    }

    #[test]
    fn gather_selects_rows() {
        let c = Column::I64(vec![10, 20, 30, 40], None);
        let g = c.gather(&[3, 1, 1]);
        assert_eq!(g.i64_values(), &[40, 20, 20]);
    }

    #[test]
    fn extend_gather_equals_gather_and_fills_null_rows() {
        for dtype in [DataType::Int64, DataType::Float64, DataType::Utf8] {
            for null in [(|_| false) as fn(usize) -> bool, |i| i % 3 == 1] {
                let src = nullable_column(dtype, 0..20, null);
                let rows = [19u32, 0, 7, 7, 4];
                let mut dst = nullable_column(dtype, 20..23, null);
                let mut want = dst.clone();
                dst.extend_gather(&src, &rows);
                want.append(&src.gather(&rows.map(|r| r as usize)));
                for r in 0..want.len() {
                    assert_eq!(dst.value(r), want.value(r), "{dtype:?} row {r}");
                }
                // All-valid rows of an all-valid source leave no bitmap.
                assert_eq!(dst.validity().is_some(), (0..23).any(null));
                dst.extend_gather(&src, &[2, Column::NULL_ROW, 3]);
                assert_eq!(dst.len(), want.len() + 3);
                assert_eq!(dst.value(want.len()), src.value(2));
                assert_eq!(dst.value(want.len() + 1), Value::Null);
                assert_eq!(dst.value(want.len() + 2), src.value(3));
            }
        }
    }

    #[test]
    fn extend_gather_copies_runs_as_they_are() {
        const NULL: u32 = Column::NULL_ROW;
        let cat = |parts: &[&[u32]]| parts.concat();
        let run = |r: std::ops::Range<u32>| r.collect::<Vec<u32>>();
        for dtype in [DataType::Int64, DataType::Float64, DataType::Utf8] {
            for null in [(|_| false) as fn(usize) -> bool, |i| i % 3 == 1] {
                let src = nullable_column(dtype, 0..60, null);
                for rows in [
                    run(0..60),
                    run(0..16),
                    run(3..18),
                    cat(&[
                        &[3, 4, 5],
                        &run(9..30),
                        &[NULL],
                        &run(31..50),
                        &[12, 12, 0, 59],
                    ]),
                    cat(&[&[0], &run(2..20), &[21], &run(23..40), &[41, 43]]),
                    cat(&[&run(10..40), &run(10..40), &run(0..5)]),
                    cat(&[&[NULL, NULL], &run(40..60)]),
                    vec![3, 4, 5, 9, 10, NULL, 11, 12, 12, 13, 0, 19],
                    vec![],
                ] {
                    let mut dst = nullable_column(dtype, 20..22, null);
                    dst.extend_gather(&src, &rows);
                    assert_eq!(dst.len(), 2 + rows.len());
                    for (n, &r) in rows.iter().enumerate() {
                        let want = if r == NULL {
                            Value::Null
                        } else {
                            src.value(r as usize)
                        };
                        assert_eq!(dst.value(2 + n), want, "{dtype:?} {rows:?} at {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn extend_gather_refuses_rows_past_the_end() {
        let src = Column::I64((0..20).collect(), None);
        for rows in [vec![2, 20], (5..25).collect()] {
            let mut dst = Column::empty(DataType::Int64);
            let gather = std::panic::AssertUnwindSafe(|| dst.extend_gather(&src, &rows));
            let panic = std::panic::catch_unwind(gather).expect_err("rows past the end");
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("out of bounds"), "{msg}");
        }
    }

    #[test]
    fn gather_preserves_nulls() {
        let mut c = Column::empty(DataType::Utf8);
        c.push_value(&Value::Str("a".into()));
        c.push_value(&Value::Null);
        let g = c.gather(&[1, 0]);
        assert_eq!(g.value(0), Value::Null);
        assert_eq!(g.value(1), Value::Str("a".into()));
    }

    #[test]
    fn clear_empties_a_column_and_keeps_its_room() {
        for dtype in [DataType::Int64, DataType::Float64, DataType::Utf8] {
            let mut c = nullable_column(dtype, 0..50, |i| i % 3 == 1);
            let fresh = nullable_column(dtype, 50..60, |_| false);
            c.clear();
            assert_eq!(c, Column::empty(dtype));
            c.append(&fresh);
            assert_eq!(c, fresh);
        }
        let mut c = Column::I64(Vec::with_capacity(64), None);
        c.push_value(&Value::I64(1));
        c.clear();
        assert!(matches!(&c, Column::I64(v, None) if v.capacity() == 64));
    }

    #[test]
    fn append_merges_columns_and_validity() {
        let mut a = Column::I64(vec![1, 2], None);
        let mut b = Column::empty(DataType::Int64);
        b.push_value(&Value::Null);
        b.push_value(&Value::I64(9));
        a.append(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.value(0), Value::I64(1));
        assert_eq!(a.value(2), Value::Null);
        assert_eq!(a.value(3), Value::I64(9));
    }

    /// A nullable column of `dtype` whose row `i` is NULL when `null(i)`.
    fn nullable_column(
        dtype: DataType,
        rows: std::ops::Range<usize>,
        null: fn(usize) -> bool,
    ) -> Column {
        let mut c = Column::empty(dtype);
        for i in rows {
            c.push_value(&match dtype {
                _ if null(i) => Value::Null,
                DataType::Utf8 => Value::Str("é".repeat(i % 4) + &i.to_string()),
                DataType::Float64 => Value::F64(i as f64 / 4.0),
                _ => Value::I64(i as i64 - 60),
            });
        }
        c
    }

    /// The rows a column holds room for, and its string bytes.
    fn capacity(c: &Column) -> (usize, usize) {
        match c {
            Column::I64(v, _) => (v.capacity(), 0),
            Column::F64(v, _) => (v.capacity(), 0),
            Column::Str(v, _) => (v.offsets.capacity() - 1, v.data.capacity()),
        }
    }

    #[test]
    fn slices_are_gathered_ranges_in_exactly_their_room() {
        for dtype in [DataType::Int64, DataType::Float64, DataType::Utf8] {
            for null in [(|_| false) as fn(usize) -> bool, |i| i % 3 == 1] {
                let src = nullable_column(dtype, 0..150, null);
                for range in [0..0, 0..150, 3..70, 64..128, 149..150] {
                    let slice = src.slice(range.clone());
                    assert_eq!(slice, src.gather(&range.clone().collect::<Vec<_>>()));
                    assert_eq!(capacity(&slice), (range.len(), slice.str_bytes()));
                }
            }
        }
    }

    #[test]
    fn scatter_deals_rows_in_order_in_exactly_their_room() {
        for dtype in [DataType::Int64, DataType::Float64, DataType::Utf8] {
            for null in [(|_| false) as fn(usize) -> bool, |i| i % 3 == 1] {
                let src = nullable_column(dtype, 0..150, null);
                let to: Vec<u32> = (0..150u32).map(|i| i * 7 % 11 % 4).collect();
                let mut counts = vec![0; 5];
                to.iter().for_each(|&p| counts[p as usize] += 1);
                let parts = src.scatter(&to, &counts);
                assert_eq!(parts.len(), 5);
                for (p, part) in parts.iter().enumerate() {
                    let mine: Vec<usize> = (0..150).filter(|&r| to[r] as usize == p).collect();
                    assert_eq!(part, &src.gather(&mine), "{dtype:?} part {p}");
                    assert_eq!(capacity(part), (mine.len(), part.str_bytes()));
                }
            }
        }
    }

    #[test]
    fn bulk_append_equals_row_wise_push_at_every_bit_offset() {
        let patterns: [fn(usize) -> bool; 3] = [|_| false, |i| i % 3 == 1, |i| i >= 100];
        for dtype in [DataType::Int64, DataType::Float64, DataType::Utf8] {
            for null in patterns {
                let whole = nullable_column(dtype, 0..200, null);
                for offset in 0..=130 {
                    let mut joined = nullable_column(dtype, 0..offset, null);
                    joined.append(&nullable_column(dtype, offset..200, null));
                    assert_eq!(joined.len(), 200);
                    for row in 0..200 {
                        assert_eq!(joined.value(row), whole.value(row), "{dtype:?} at {offset}");
                    }
                }
            }
        }
    }

    #[test]
    fn string_runs_append_whole_strings_only() {
        let mut c: StringColumn = ["ab"].into_iter().collect();
        c.extend_from_run("héllo", [1u32, 0, 5].into_iter())
            .unwrap();
        assert_eq!(c.iter().collect::<Vec<_>>(), ["ab", "h", "", "éllo"]);
        let before = c.clone();
        // Inside the two-byte é, short of the data, past the data.
        assert_eq!(
            c.extend_from_run("héllo", [2u32, 4].into_iter()),
            Err(SplitRun)
        );
        assert_eq!(
            c.extend_from_run("héllo", [1u32, 2].into_iter()),
            Err(SplitRun)
        );
        assert_eq!(
            c.extend_from_run("héllo", [6u32, 1].into_iter()),
            Err(SplitRun)
        );
        assert_eq!(
            c.extend_from_run("héllo", [u32::MAX, u32::MAX].into_iter()),
            Err(SplitRun)
        );
        assert_eq!(c, before, "a refused run leaves the column as it was");

        let mut d = StringColumn::new();
        d.extend(&c);
        d.extend(&StringColumn::new());
        d.extend(&c);
        assert_eq!(d.len(), 8);
        assert_eq!(d.get(3), "éllo");
        assert_eq!(d.get(4), "ab");
        assert_eq!(d.get(7), "éllo");

        let mut e: StringColumn = ["x"].into_iter().collect();
        e.extend_rows(&d, 2..5);
        e.extend_rows(&d, 6..6);
        assert_eq!(e.iter().collect::<Vec<_>>(), ["x", "", "éllo", "ab"]);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn append_type_mismatch_panics() {
        let mut a = Column::I64(vec![1], None);
        a.append(&Column::F64(vec![1.0], None));
    }

    #[test]
    fn byte_size_accounts_strings() {
        let c: StringColumn = ["ab", "cde"].into_iter().collect();
        let col = Column::Str(c, None);
        assert_eq!(col.byte_size(), 5 + 3 * 4);
    }

    #[test]
    #[should_panic(expected = "expected i64")]
    fn typed_accessor_mismatch_panics() {
        Column::F64(vec![], None).i64_values();
    }
}
