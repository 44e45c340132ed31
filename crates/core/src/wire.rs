//! The densely-packed binary serialization format of Figure 8, laid out as
//! column runs.
//!
//! A message body is one or more self-delimiting **chunks**. A chunk is
//!
//! ```text
//! rows: u32                                   little-endian, like everything
//! then, per field in wire order:
//!   validity run    rows × u8, 1 = present    nullable fields only
//!   fixed-size      p × 8 bytes               Int64, Date, Decimal, Float64
//!   variable-size   p × u32 lengths, then the string bytes back to back
//! ```
//!
//! where `p` is the number of present values: `rows` for a NOT NULL field,
//! the number of 1s in the validity run for a nullable one — a NULL costs
//! its indicator byte and nothing else. Wire order is Figure 8's: all
//! fixed-size NOT NULL attributes first, then nullable fixed-size ones,
//! then variable-length NOT NULL, then nullable variable-length; within a
//! section by data type, then schema position.
//!
//! **Deviation from the paper.** Figure 8 lays these sections out once per
//! *tuple*; here they are laid out once per *chunk*, each field's values
//! forming one run. The fields, their order, their widths and the one-byte
//! null indicator are the paper's, and a chunk is exactly as long as its
//! tuples serialized one by one plus the four-byte row count. The reason is
//! where the data comes from: HyPer serializes tuples out of registers at
//! the end of a compiled pipeline, so row-major costs it nothing, whereas
//! this engine materializes columns — a run is copied out of one column
//! and appended to another with the type dispatched once per run instead
//! of once per value, and a string run is validated as UTF-8 once.
//!
//! The paper generates the (de)serialization code with LLVM for each
//! schema. We substitute a per-schema *plan* ([`RowSerializer`],
//! [`RowDeserializer`]) whose field classification and ordering are
//! resolved once at construction, and per-column-variant run kernels.
//!
//! The sender cuts a selection of rows into messages with
//! [`RowSerializer::row_sizes`]; the receiver appends every chunk of a
//! message straight onto its destination columns with
//! [`RowDeserializer::decode_into`], which trusts nothing in the bytes:
//! every declared length is checked against what is left of the buffer
//! before anything is reserved for it.

use std::fmt;
use std::ops::Range;

use hsqp_storage::{Bitmap, Column, DataType, Dictionary, Schema, StrForm, StringColumn, Table};

/// How one field travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldClass {
    /// 8-byte values, never NULL.
    FixedDense,
    /// Validity run, then the 8-byte values that are present.
    FixedNullable,
    /// u32 lengths + bytes.
    VarDense,
    /// Validity run, then u32 lengths + bytes of the strings present.
    VarNullable,
}

impl FieldClass {
    fn nullable(self) -> bool {
        matches!(self, FieldClass::FixedNullable | FieldClass::VarNullable)
    }

    fn var(self) -> bool {
        matches!(self, FieldClass::VarDense | FieldClass::VarNullable)
    }
}

fn classify(dtype: DataType, nullable: bool) -> FieldClass {
    match (dtype.is_fixed_size(), nullable) {
        (true, false) => FieldClass::FixedDense,
        (true, true) => FieldClass::FixedNullable,
        (false, false) => FieldClass::VarDense,
        (false, true) => FieldClass::VarNullable,
    }
}

fn wire_order(schema: &Schema) -> Vec<(usize, FieldClass)> {
    let mut plan: Vec<(usize, FieldClass)> = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| (i, classify(f.dtype, f.nullable)))
        .collect();
    // Section order: fixed-dense, fixed-nullable, var-dense, var-nullable;
    // within a section by data type, then schema position (Figure 8).
    let section = |c: FieldClass| match c {
        FieldClass::FixedDense => 0,
        FieldClass::FixedNullable => 1,
        FieldClass::VarDense => 2,
        FieldClass::VarNullable => 3,
    };
    let type_rank = |i: usize| match schema.fields()[i].dtype {
        DataType::Decimal => 0,
        DataType::Int64 => 1,
        DataType::Date => 2,
        DataType::Float64 => 3,
        DataType::Utf8 => 4,
    };
    plan.sort_by_key(|&(i, c)| (section(c), type_rank(i), i));
    plan
}

/// The rows of a table one chunk carries.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// The contiguous rows `start..end`.
    Span(usize, usize),
    /// The rows a selection vector names, in its order.
    Sel(&'a [usize]),
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Rows::Span(start, end) => end - start,
            Rows::Sel(sel) => sel.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `part`-th rows of this selection (positions, not row ids).
    pub fn slice(self, part: Range<usize>) -> Rows<'a> {
        match self {
            Rows::Span(start, end) => {
                assert!(part.end <= end - start, "slice past the span");
                Rows::Span(start + part.start, start + part.end)
            }
            Rows::Sel(sel) => Rows::Sel(&sel[part]),
        }
    }

    fn iter(self) -> impl Iterator<Item = usize> + Clone + 'a {
        let (span, sel) = match self {
            Rows::Span(start, end) => (start..end, &[][..]),
            Rows::Sel(sel) => (0..0, sel),
        };
        span.chain(sel.iter().copied())
    }
}

/// Schema-specialized serializer (sender side of Figure 8).
#[derive(Debug, Clone)]
pub struct RowSerializer {
    plan: Vec<(usize, FieldClass)>,
    /// Wire bytes of a row whose every value is present and whose strings
    /// are empty.
    base_row_bytes: usize,
}

impl RowSerializer {
    /// Compile the wire plan for `schema`.
    pub fn new(schema: &Schema) -> Self {
        let plan = wire_order(schema);
        let base_row_bytes = plan
            .iter()
            .map(|&(_, c)| usize::from(c.nullable()) + if c.var() { 4 } else { 8 })
            .sum();
        Self {
            plan,
            base_row_bytes,
        }
    }

    /// Append `rows` of `table` to `out` as one chunk (nothing for no rows).
    ///
    /// # Panics
    /// Panics if the table does not match the serializer's schema shape.
    pub fn serialize(&self, table: &Table, rows: Rows<'_>, out: &mut Vec<u8>) {
        if rows.is_empty() {
            return;
        }
        let n = u32::try_from(rows.len()).expect("a chunk holds at most u32::MAX rows");
        out.extend_from_slice(&n.to_le_bytes());
        for &(idx, class) in &self.plan {
            let column = table.column(idx);
            assert_eq!(
                matches!(column, Column::Str(..)),
                class.var(),
                "column {idx} does not have its field's physical type"
            );
            // With no NULL among the rows a nullable field's values form
            // the same run as a NOT NULL field's.
            let nulls = match column.validity() {
                _ if !class.nullable() => None,
                Some(bm) => put_validity(out, bm, rows).then_some(bm),
                None => {
                    out.resize(out.len() + rows.len(), 1);
                    None
                }
            };
            match column {
                Column::I64(v, _) => put_fixed(out, v, rows, nulls, i64::to_le_bytes),
                Column::F64(v, _) => put_fixed(out, v, rows, nulls, f64::to_le_bytes),
                Column::Str(v, _) => put_strings(out, v, rows, nulls),
            }
        }
    }

    /// Serialize a contiguous row range as one chunk.
    pub fn serialize_range(&self, table: &Table, rows: Range<usize>, out: &mut Vec<u8>) {
        self.serialize(table, Rows::Span(rows.start, rows.end.max(rows.start)), out);
    }

    /// The wire bytes each of `rows` adds to a chunk, into `out` (cleared
    /// first): a chunk of any of these rows is four bytes plus their sum,
    /// which is how a sender fills a message without outgrowing it.
    pub fn row_sizes(&self, table: &Table, rows: Rows<'_>, out: &mut Vec<usize>) {
        out.clear();
        out.resize(rows.len(), self.base_row_bytes);
        for &(idx, class) in &self.plan {
            let column = table.column(idx);
            // Every string's length first, then what NULL rows do not send.
            let form = match column {
                Column::Str(v, _) => Some(v.form()),
                _ => None,
            };
            match (form, rows) {
                (Some(StrForm::Plain { offsets, .. }), Rows::Span(start, end)) => {
                    for (size, w) in out.iter_mut().zip(offsets[start..=end].windows(2)) {
                        *size += (w[1] - w[0]) as usize;
                    }
                }
                (Some(StrForm::Plain { offsets, .. }), Rows::Sel(sel)) => {
                    for (size, &i) in out.iter_mut().zip(sel) {
                        *size += (offsets[i + 1] - offsets[i]) as usize;
                    }
                }
                (Some(StrForm::Coded { codes, dict }), rows) => {
                    let lens = dict.per_entry(<[u8]>::len);
                    for (size, i) in out.iter_mut().zip(rows.iter()) {
                        *size += lens[codes[i] as usize];
                    }
                }
                (None, _) => {}
            }
            if let Some(bm) = column.validity().filter(|_| class.nullable()) {
                let string = |i| column.str_values().bytes(i).len();
                for (size, i) in out.iter_mut().zip(rows.iter()) {
                    if !bm.get(i) {
                        *size -= form.map_or(8, |_| 4 + string(i));
                    }
                }
            }
        }
    }
}

/// How many rows the next chunk of a message with `room` bytes left can
/// take, given the rows' wire `sizes`: as many as fit behind the chunk's
/// row count — and one regardless when the message is still `empty`, so
/// that a row larger than any message travels, alone, in a message that
/// outgrows its buffer.
pub fn rows_that_fit(sizes: &[usize], room: usize, empty: bool) -> usize {
    let mut end = 4;
    let fit = sizes
        .iter()
        .take_while(|&&size| {
            end += size;
            end <= room
        })
        .count();
    if fit == 0 && empty {
        sizes.len().min(1)
    } else {
        fit
    }
}

/// Write the validity run of `rows`; true when one of them is NULL.
fn put_validity(out: &mut Vec<u8>, bm: &Bitmap, rows: Rows<'_>) -> bool {
    let at = out.len();
    out.extend(rows.iter().map(|i| u8::from(bm.get(i))));
    out[at..].contains(&0)
}

/// Write the values of `rows` that are present (all, without `nulls`).
fn put_fixed<T: Copy>(
    out: &mut Vec<u8>,
    vals: &[T],
    rows: Rows<'_>,
    nulls: Option<&Bitmap>,
    le: impl Fn(T) -> [u8; 8],
) {
    if let Some(bm) = nulls {
        for i in rows.iter().filter(|&i| bm.get(i)) {
            out.extend_from_slice(&le(vals[i]));
        }
        return;
    }
    let at = out.len();
    out.resize(at + rows.len() * 8, 0);
    let slots = out[at..].chunks_exact_mut(8);
    match rows {
        Rows::Span(start, end) => {
            for (slot, &v) in slots.zip(&vals[start..end]) {
                slot.copy_from_slice(&le(v));
            }
        }
        Rows::Sel(sel) => {
            for (slot, &i) in slots.zip(sel) {
                slot.copy_from_slice(&le(vals[i]));
            }
        }
    }
}

/// Write the lengths, then the bytes, of the strings of `rows` that are
/// present (all, without `nulls`). A coded column writes its entries'
/// bytes, their lengths read off a table per entry.
fn put_strings(out: &mut Vec<u8>, col: &StringColumn, rows: Rows<'_>, nulls: Option<&Bitmap>) {
    let (offs, data) = match col.form() {
        StrForm::Plain { offsets, data } => (offsets, data),
        StrForm::Coded { codes, dict } => return put_coded(out, codes, dict, rows, nulls),
    };
    let bytes_of = |i: usize| &data[offs[i] as usize..offs[i + 1] as usize];
    if let Some(bm) = nulls {
        let present = || rows.iter().filter(|&i| bm.get(i));
        for i in present() {
            out.extend_from_slice(&(offs[i + 1] - offs[i]).to_le_bytes());
        }
        for i in present() {
            out.extend_from_slice(bytes_of(i));
        }
        return;
    }
    let at = out.len();
    out.resize(at + rows.len() * 4, 0);
    let slots = out[at..].chunks_exact_mut(4);
    match rows {
        Rows::Span(start, end) => {
            for (slot, w) in slots.zip(offs[start..=end].windows(2)) {
                slot.copy_from_slice(&(w[1] - w[0]).to_le_bytes());
            }
            out.extend_from_slice(&data[offs[start] as usize..offs[end] as usize]);
        }
        Rows::Sel(sel) => {
            for (slot, &i) in slots.zip(sel) {
                slot.copy_from_slice(&(offs[i + 1] - offs[i]).to_le_bytes());
            }
            for &i in sel {
                out.extend_from_slice(bytes_of(i));
            }
        }
    }
}

/// [`put_strings`] of a coded column: the codes of the rows present.
fn put_coded(
    out: &mut Vec<u8>,
    codes: &[u8],
    dict: &Dictionary,
    rows: Rows<'_>,
    nulls: Option<&Bitmap>,
) {
    match (rows, nulls) {
        (Rows::Span(start, end), None) => put_entries(out, dict, codes[start..end].iter().copied()),
        (Rows::Sel(sel), None) => put_entries(out, dict, sel.iter().map(|&i| codes[i])),
        (rows, Some(bm)) => {
            let present = rows.iter().filter(|&i| bm.get(i));
            put_entries(out, dict, present.map(|i| codes[i]))
        }
    }
}

/// Write the lengths, then the bytes, of the dictionary entries `picked`
/// names, each length read off a table per entry: the lengths into one
/// run of slots, as [`put_strings`] writes a plain column's, then the bytes
/// into one run sized from those lengths.
fn put_entries(out: &mut Vec<u8>, dict: &Dictionary, picked: impl Iterator<Item = u8> + Clone) {
    let lens = dict.per_entry(|e| e.len() as u32);
    let at = out.len();
    out.resize(at + picked.clone().count() * 4, 0);
    let mut total = 0;
    for (slot, c) in out[at..].chunks_exact_mut(4).zip(picked.clone()) {
        let len = lens[c as usize];
        slot.copy_from_slice(&len.to_le_bytes());
        total += len as usize;
    }
    let at = out.len();
    out.resize(at + total, 0);
    let mut run = &mut out[at..];
    for c in picked {
        let bytes = dict.bytes(c);
        let (head, rest) = std::mem::take(&mut run).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        run = rest;
    }
}

/// Why a buffer is not a sequence of chunks of the deserializer's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends inside a chunk's row count.
    Truncated,
    /// A run (`rows × width`, or the bytes a string run's lengths add up
    /// to) needs more bytes than the buffer has left.
    RunPastEnd {
        /// Bytes the run declares.
        need: usize,
        /// Bytes left in the buffer.
        have: usize,
    },
    /// A validity byte that is neither 0 nor 1.
    BadValidity(u8),
    /// A string run that is not UTF-8.
    InvalidUtf8,
    /// A string length that ends inside a character.
    SplitCharacter,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated chunk header"),
            WireError::RunPastEnd { need, have } => {
                write!(f, "truncated run: {need} bytes declared, {have} left")
            }
            WireError::BadValidity(b) => write!(f, "validity byte {b} is neither 0 nor 1"),
            WireError::InvalidUtf8 => write!(f, "string run is not UTF-8"),
            WireError::SplitCharacter => write!(f, "string length ends inside a character"),
        }
    }
}

impl std::error::Error for WireError {}

/// Schema-specialized deserializer (receiver side of Figure 8).
#[derive(Debug, Clone)]
pub struct RowDeserializer {
    plan: Vec<(usize, FieldClass)>,
    schema: Schema,
}

impl RowDeserializer {
    /// Compile the wire plan for `schema`.
    pub fn new(schema: &Schema) -> Self {
        Self {
            plan: wire_order(schema),
            schema: schema.clone(),
        }
    }

    /// The schema this deserializer decodes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Empty destination columns for [`decode_into`](Self::decode_into).
    pub fn empty_columns(&self) -> Vec<Column> {
        self.schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect()
    }

    /// Append every chunk of a message body onto `cols` (one per schema
    /// field, of the field's physical type) and return the rows appended.
    /// Fixed-size runs land with one `extend`, string runs with one copy
    /// of their bytes.
    ///
    /// No declared count is trusted: each run is checked against the bytes
    /// left before anything is reserved for it, so nothing is allocated
    /// beyond eight bytes per row that the buffer has room to describe.
    /// After an error `cols` hold part of the message and are of unequal
    /// length; discard them.
    ///
    /// # Panics
    /// Panics when `cols` are not the schema's columns.
    pub fn decode_into(&self, mut bytes: &[u8], cols: &mut [Column]) -> Result<usize, WireError> {
        assert_eq!(cols.len(), self.schema.len(), "one column per field");
        let mut total = 0;
        while !bytes.is_empty() {
            let head = bytes.get(..4).ok_or(WireError::Truncated)?;
            let rows = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
            bytes = &bytes[4..];
            for &(idx, class) in &self.plan {
                let validity = if class.nullable() {
                    Some(take_validity(&mut bytes, rows)?)
                } else {
                    None
                };
                match &mut cols[idx] {
                    Column::I64(v, bm) if !class.var() => {
                        take_fixed(&mut bytes, rows, validity, v, bm, i64::from_le_bytes)?;
                    }
                    Column::F64(v, bm) if !class.var() => {
                        take_fixed(&mut bytes, rows, validity, v, bm, f64::from_le_bytes)?;
                    }
                    Column::Str(v, bm) if class.var() => {
                        take_strings(&mut bytes, rows, validity, v, bm)?;
                    }
                    other => panic!(
                        "destination column {idx} is {}, not its field's physical type",
                        other.physical_name()
                    ),
                }
            }
            total += rows;
        }
        Ok(total)
    }

    /// Decode a full message body into a table.
    pub fn decode(&self, bytes: &[u8]) -> Result<Table, WireError> {
        let mut cols = self.empty_columns();
        self.decode_into(bytes, &mut cols)?;
        Ok(Table::new(self.schema.clone(), cols))
    }

    /// [`decode`](Self::decode) for bytes this engine serialized itself.
    ///
    /// # Panics
    /// Panics on a malformed buffer.
    pub fn deserialize(&self, bytes: &[u8]) -> Table {
        self.decode(bytes)
            .unwrap_or_else(|e| panic!("malformed wire message: {e}"))
    }
}

/// Split `n` bytes off the front of `bytes`, if it has that many.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if n > bytes.len() {
        return Err(WireError::RunPastEnd {
            need: n,
            have: bytes.len(),
        });
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Ok(head)
}

/// A chunk's validity run for one field.
#[derive(Clone, Copy)]
struct Validity<'a> {
    flags: &'a [u8],
    /// Number of 1s among `flags`.
    present: usize,
}

fn take_validity<'a>(bytes: &mut &'a [u8], rows: usize) -> Result<Validity<'a>, WireError> {
    let flags = take(bytes, rows)?;
    if let Some(&bad) = flags.iter().find(|&&b| b > 1) {
        return Err(WireError::BadValidity(bad));
    }
    Ok(Validity {
        flags,
        present: flags.iter().map(|&b| usize::from(b)).sum(),
    })
}

/// Record `rows` appended rows in a column's validity, which covered
/// `before` rows so far; `validity` is `None` for a NOT NULL field.
fn append_validity(
    bm: &mut Option<Bitmap>,
    before: usize,
    rows: usize,
    validity: Option<Validity<'_>>,
) {
    match validity {
        Some(v) if v.present < rows => {
            let bm = bm.get_or_insert_with(|| Bitmap::filled(before, true));
            for &flag in v.flags {
                bm.push(flag == 1);
            }
        }
        // All present: a column without a bitmap stays dense.
        _ => {
            if let Some(bm) = bm {
                bm.extend_filled(rows, true);
            }
        }
    }
}

fn take_fixed<T: Copy + Default>(
    bytes: &mut &[u8],
    rows: usize,
    validity: Option<Validity<'_>>,
    vals: &mut Vec<T>,
    bm: &mut Option<Bitmap>,
    from_le: impl Fn([u8; 8]) -> T,
) -> Result<(), WireError> {
    let present = validity.map_or(rows, |v| v.present);
    let run = take(bytes, present.saturating_mul(8))?;
    let values = run
        .chunks_exact(8)
        .map(|c| from_le(c.try_into().expect("8 bytes")));
    let before = vals.len();
    match validity {
        Some(v) if present < rows => {
            let mut values = values;
            vals.extend(v.flags.iter().map(|&flag| match flag {
                1 => values.next().expect("one value per set flag"),
                _ => T::default(),
            }));
        }
        _ => vals.extend(values),
    }
    append_validity(bm, before, rows, validity);
    Ok(())
}

fn take_strings(
    bytes: &mut &[u8],
    rows: usize,
    validity: Option<Validity<'_>>,
    col: &mut StringColumn,
    bm: &mut Option<Bitmap>,
) -> Result<(), WireError> {
    let present = validity.map_or(rows, |v| v.present);
    let lens = take(bytes, present.saturating_mul(4))?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")));
    let total = lens
        .clone()
        .fold(0usize, |sum, len| sum.saturating_add(len as usize));
    let data = std::str::from_utf8(take(bytes, total)?).map_err(|_| WireError::InvalidUtf8)?;
    let before = col.len();
    match validity {
        // A NULL row is an empty string under a cleared validity bit.
        Some(v) if present < rows => {
            let mut lens = lens;
            col.extend_from_run(
                data,
                v.flags.iter().map(|&flag| match flag {
                    1 => lens.next().expect("one length per set flag"),
                    _ => 0,
                }),
            )
        }
        _ => col.extend_from_run(data, lens),
    }
    .map_err(|_| WireError::SplitCharacter)?;
    append_validity(bm, before, rows, validity);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsqp_storage::{Field, Value};

    fn partsupp_like_schema() -> Schema {
        // Mirrors Figure 8: decimal + integers (fixed, not null), a
        // nullable integer, and a varchar.
        Schema::new(vec![
            Field::new("supplycost", DataType::Decimal),
            Field::new("partkey", DataType::Int64),
            Field::new("suppkey", DataType::Int64),
            Field::nullable("availqty", DataType::Int64),
            Field::new("comment", DataType::Utf8),
        ])
    }

    fn partsupp_like_table() -> Table {
        let schema = partsupp_like_schema();
        let mut avail = Column::empty(DataType::Int64);
        avail.push_value(&Value::I64(7));
        avail.push_value(&Value::Null);
        avail.push_value(&Value::I64(9));
        Table::new(
            schema,
            vec![
                Column::I64(vec![199, 250, 301], None),
                Column::I64(vec![1, 2, 3], None),
                Column::I64(vec![10, 20, 30], None),
                avail,
                Column::Str(["fast", "", "réliable"].into_iter().collect(), None),
            ],
        )
    }

    /// A table of every field class with NULLs, empty and multi-byte
    /// strings: row `i` is NULL in `nf` when `i % 3 == 0` and in `ns` when
    /// `i % 4 == 1`.
    fn mixed_table(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::nullable("ns", DataType::Utf8),
            Field::new("i", DataType::Int64),
            Field::nullable("nf", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::new("d", DataType::Decimal),
            Field::nullable("ni", DataType::Int64),
        ]);
        let mut cols: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        let words = ["", "a", "zwölf", "日本語", "plain ascii text", "ß"];
        for i in 0..rows {
            let word = words[i % words.len()];
            cols[0].push_value(&match i % 4 {
                1 => Value::Null,
                _ => Value::Str(format!("{word}{i}")),
            });
            cols[1].push_value(&Value::I64(i as i64 * 7 - 3));
            cols[2].push_value(&match i % 3 {
                0 => Value::Null,
                _ => Value::F64(i as f64 / 8.0),
            });
            cols[3].push_value(&Value::Str(word.to_string()));
            cols[4].push_value(&Value::I64(100 * i as i64 + 5));
            // Nullable by schema, never NULL: the column stays dense.
            cols[5].push_value(&Value::I64(-(i as i64)));
        }
        Table::new(schema, cols)
    }

    /// The format written the slow way, a value at a time through the
    /// scalar accessors: what the run kernels must produce byte for byte.
    fn encode_by_value(schema: &Schema, table: &Table, rows: &[usize], out: &mut Vec<u8>) {
        if rows.is_empty() {
            return;
        }
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for (idx, class) in wire_order(schema) {
            let values: Vec<Value> = rows.iter().map(|&r| table.value(r, idx)).collect();
            if class.nullable() {
                out.extend(values.iter().map(|v| u8::from(!v.is_null())));
            }
            let present: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
            for v in &present {
                match v {
                    Value::I64(x) => out.extend_from_slice(&x.to_le_bytes()),
                    Value::F64(x) => out.extend_from_slice(&x.to_le_bytes()),
                    Value::Str(s) => out.extend_from_slice(&(s.len() as u32).to_le_bytes()),
                    Value::Null => unreachable!("filtered"),
                }
            }
            for v in present {
                if let Value::Str(s) = v {
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }

    fn assert_same_rows(back: &Table, t: &Table, rows: &[usize]) {
        assert_eq!(back.rows(), rows.len());
        for (at, &row) in rows.iter().enumerate() {
            assert_eq!(back.row(at), t.row(row), "row {row} at {at}");
        }
    }

    #[test]
    fn roundtrip_preserves_all_rows() {
        let t = partsupp_like_table();
        let ser = RowSerializer::new(t.schema());
        let de = RowDeserializer::new(t.schema());
        let mut buf = Vec::new();
        ser.serialize_range(&t, 0..t.rows(), &mut buf);
        assert_same_rows(&de.deserialize(&buf), &t, &[0, 1, 2]);
    }

    #[test]
    fn chunk_layout_is_figure_8_in_column_runs() {
        let t = partsupp_like_table();
        let ser = RowSerializer::new(t.schema());
        let mut buf = Vec::new();
        ser.serialize_range(&t, 0..3, &mut buf);
        let i64_at = |at: usize| i64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        assert_eq!(buf[..4], 3u32.to_le_bytes());
        // The decimal (type rank 0) comes first, as a run of three.
        assert_eq!([i64_at(4), i64_at(12), i64_at(20)], [199, 250, 301]);
        // Then partkey and suppkey, then the nullable availqty: three
        // indicator bytes and the two values present.
        assert_eq!(i64_at(28), 1);
        assert_eq!(i64_at(52), 10);
        assert_eq!(buf[76..79], [1, 0, 1]);
        assert_eq!([i64_at(79), i64_at(87)], [7, 9]);
        // The comment last: three lengths, then the bytes back to back.
        let len_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        assert_eq!([len_at(95), len_at(99), len_at(103)], [4, 0, 9]);
        assert_eq!(&buf[107..], "fastréliable".as_bytes());
    }

    #[test]
    fn chunk_is_its_rows_plus_four_bytes_and_nulls_are_compact() {
        let t = partsupp_like_table();
        let ser = RowSerializer::new(t.schema());
        let mut sizes = Vec::new();
        ser.row_sizes(&t, Rows::Span(0, 3), &mut sizes);
        // Row 1: availqty NULL, comment "" — 24 fixed, 1 indicator, 4 length.
        assert_eq!(sizes, [24 + 9 + 8, 24 + 1 + 4, 24 + 9 + 4 + 9]);
        let mut buf = Vec::new();
        ser.serialize_range(&t, 0..3, &mut buf);
        assert_eq!(buf.len(), 4 + sizes.iter().sum::<usize>());
    }

    #[test]
    fn kernels_match_the_value_at_a_time_encoder() {
        let t = mixed_table(131);
        let ser = RowSerializer::new(t.schema());
        let de = RowDeserializer::new(t.schema());
        let every_third: Vec<usize> = (0..t.rows()).step_by(3).collect(); // only NULLs in nf
        let no_nulls: Vec<usize> = (0..t.rows()).filter(|r| r % 12 == 2).collect();
        let backwards: Vec<usize> = (0..t.rows()).rev().collect();
        let repeated = vec![5, 5, 5, 0, 130, 0];
        for sel in [every_third, no_nulls, backwards, repeated, vec![]] {
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            ser.serialize(&t, Rows::Sel(&sel), &mut fast);
            encode_by_value(t.schema(), &t, &sel, &mut slow);
            assert_eq!(fast, slow, "selection {sel:?}");
            assert_same_rows(&de.deserialize(&fast), &t, &sel);
            let mut sizes = Vec::new();
            ser.row_sizes(&t, Rows::Sel(&sel), &mut sizes);
            let header = if sel.is_empty() { 0 } else { 4 };
            assert_eq!(fast.len(), header + sizes.iter().sum::<usize>());
        }
        for span in [0..131, 17..18, 3..3, 64..130] {
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            ser.serialize_range(&t, span.clone(), &mut fast);
            let rows: Vec<usize> = span.collect();
            encode_by_value(t.schema(), &t, &rows, &mut slow);
            assert_eq!(fast, slow, "span {rows:?}");
            assert_same_rows(&de.deserialize(&fast), &t, &rows);
        }
    }

    /// A coded column sends its strings, byte for byte what its plain form
    /// sends: short entries and a long one, NULLs among them, over spans
    /// and selections.
    #[test]
    fn coded_strings_travel_as_their_plain_form() {
        let t = mixed_table(131);
        let long = "a string longer than any other in the dictionary";
        let mut words = Column::empty(DataType::Utf8);
        for i in 0..131 {
            words.push_value(&match i % 7 {
                0 => Value::Str(long.into()),
                1 => Value::Null,
                _ => t.value(i, 0),
            });
        }
        let rest = t.columns().skip(1).cloned();
        let plain = Table::new(
            t.schema().clone(),
            [words].into_iter().chain(rest).collect(),
        );
        let coded = Table::new(
            plain.schema().clone(),
            plain.columns().cloned().map(Column::encode).collect(),
        );
        for c in [0, 3] {
            assert!(coded.column(c).str_values().dictionary().is_some());
        }
        let ser = RowSerializer::new(plain.schema());
        let every_third: Vec<usize> = (0..131).step_by(3).collect();
        let backwards: Vec<usize> = (0..131).rev().collect();
        for rows in [
            Rows::Span(0, 131),
            Rows::Span(5, 9),
            Rows::Sel(&every_third),
            Rows::Sel(&backwards),
        ] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            ser.serialize(&plain, rows, &mut a);
            ser.serialize(&coded, rows, &mut b);
            assert_eq!(a, b);
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            ser.row_sizes(&plain, rows, &mut sa);
            ser.row_sizes(&coded, rows, &mut sb);
            assert_eq!(sa, sb);
            assert_eq!(b.len(), 4 + sb.iter().sum::<usize>());
        }
    }

    /// A coded column writes its lengths and its bytes as one run each:
    /// with empty entries, rows picked twice, no row at all, and NULLs in
    /// some or every row, it sends what the plain column of the same
    /// strings sends.
    #[test]
    fn coded_and_plain_columns_of_the_same_strings_send_the_same_bytes() {
        let schema = Schema::new(vec![Field::nullable("s", DataType::Utf8)]);
        let words = ["", "x", "", "yz", "日本", ""];
        let column = |null: fn(usize) -> bool| {
            let mut c = Column::empty(DataType::Utf8);
            for i in 0..40 {
                c.push_value(&match null(i) {
                    true => Value::Null,
                    false => Value::Str(words[i % words.len()].into()),
                });
            }
            c
        };
        let ser = RowSerializer::new(&schema);
        let twice: Vec<usize> = (0..40).flat_map(|i| [i, i]).collect();
        let nulls: [fn(usize) -> bool; 3] = [|_| false, |i| i % 3 == 0, |_| true];
        for null in nulls {
            let plain = Table::new(schema.clone(), vec![column(null)]);
            let coded = Table::new(schema.clone(), vec![column(null).encode()]);
            assert!(coded.column(0).str_values().dictionary().is_some());
            for rows in [
                Rows::Span(0, 40),
                Rows::Span(7, 7),
                Rows::Sel(&twice),
                Rows::Sel(&[]),
            ] {
                let (mut a, mut b) = (vec![9], vec![9]);
                ser.serialize(&plain, rows, &mut a);
                ser.serialize(&coded, rows, &mut b);
                assert_eq!(a, b, "{rows:?}");
            }
        }
    }

    #[test]
    fn decode_into_appends_chunk_after_chunk() {
        let t = mixed_table(50);
        let ser = RowSerializer::new(t.schema());
        let de = RowDeserializer::new(t.schema());
        // First message: rows without a NULL in `ns`, so that column is
        // still dense when the second message brings NULLs.
        let first: Vec<usize> = (0..50).filter(|r| r % 4 != 1).collect();
        let mut msg1 = Vec::new();
        ser.serialize(&t, Rows::Sel(&first[..10]), &mut msg1);
        ser.serialize(&t, Rows::Sel(&first[10..]), &mut msg1);
        let mut msg2 = Vec::new();
        ser.serialize_range(&t, 0..50, &mut msg2);

        let mut cols = de.empty_columns();
        assert_eq!(de.decode_into(&msg1, &mut cols), Ok(first.len()));
        assert!(cols[0].validity().is_none(), "no NULL seen yet");
        assert_eq!(de.decode_into(&msg2, &mut cols), Ok(50));
        let back = Table::new(t.schema().clone(), cols);
        let expect: Vec<usize> = first.iter().copied().chain(0..50).collect();
        assert_same_rows(&back, &t, &expect);
        assert_eq!(back, t.gather(&expect));
    }

    #[test]
    fn empty_buffer_decodes_to_empty_table() {
        let de = RowDeserializer::new(&partsupp_like_schema());
        let t = de.deserialize(&[]);
        assert_eq!(t.rows(), 0);
        assert_eq!(t.schema().len(), 5);
        assert_eq!(de.schema(), &partsupp_like_schema());
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_buffer_panics() {
        let t = partsupp_like_table();
        let ser = RowSerializer::new(t.schema());
        let de = RowDeserializer::new(t.schema());
        let mut buf = Vec::new();
        ser.serialize_range(&t, 0..1, &mut buf);
        buf.pop();
        de.deserialize(&buf);
    }

    #[test]
    fn malformed_chunks_are_typed_errors() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::nullable("s", DataType::Utf8),
        ]);
        let de = RowDeserializer::new(&schema);
        let chunk = |rows: u32, rest: &[u8]| [&rows.to_le_bytes()[..], rest].concat();

        assert_eq!(de.decode(&[1, 0, 0]), Err(WireError::Truncated));
        // A forged row count is refused before anything is reserved.
        assert_eq!(
            de.decode(&chunk(u32::MAX, &[0; 16])),
            Err(WireError::RunPastEnd {
                need: u32::MAX as usize * 8,
                have: 16
            })
        );
        let row = |flag: u8, len: u32, s: &[u8]| {
            chunk(
                1,
                &[&7i64.to_le_bytes()[..], &[flag], &len.to_le_bytes(), s].concat(),
            )
        };
        assert!(de.decode(&row(1, 2, "é".as_bytes())).is_ok());
        assert_eq!(de.decode(&row(2, 0, b"")), Err(WireError::BadValidity(2)));
        assert_eq!(
            de.decode(&row(1, 3, "é".as_bytes())),
            Err(WireError::RunPastEnd { need: 3, have: 2 })
        );
        assert_eq!(
            de.decode(&row(1, 2, &[0xC3, 0x28])),
            Err(WireError::InvalidUtf8)
        );
        // Two strings of one byte each out of one two-byte character.
        let split = chunk(
            2,
            &[
                &[0u8; 16][..],
                &[1, 1],
                &1u32.to_le_bytes(),
                &1u32.to_le_bytes(),
                "é".as_bytes(),
            ]
            .concat(),
        );
        assert_eq!(de.decode(&split), Err(WireError::SplitCharacter));
    }
}
