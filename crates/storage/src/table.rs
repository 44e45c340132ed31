//! Schemas, tables, and morsel iteration.
//!
//! A [`Table`] holds each column behind an `Arc`. Cloning a table,
//! projecting it or passing one of its columns on into another table costs
//! a reference count per column and copies no data, so a scan reads a
//! relation's columns where they are stored and only the operators that
//! compute something allocate. Mutation is copy-on-write: [`Table::append`]
//! and [`Table::concat`] write into a column only it holds, and copy a
//! column that another table still shares first.

use std::sync::Arc;

use crate::column::Column;
use crate::types::{DataType, Value};

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (TPC-H style, e.g. `l_orderkey`).
    pub name: String,
    /// Logical type.
    pub dtype: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            nullable: true,
            ..Self::new(name, dtype)
        }
    }
}

/// An ordered set of fields. Cheap to clone (Arc-backed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Self {
            fields: Arc::new(fields),
        }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True for a schema without fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field called `name`.
    ///
    /// # Panics
    /// Panics when no field has that name (schema bugs should fail loudly).
    pub fn index_of(&self, name: &str) -> usize {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("no column named {name:?} in schema"))
    }

    /// The field called `name`.
    pub fn field(&self, name: &str) -> &Field {
        &self.fields[self.index_of(name)]
    }

    /// A new schema containing the fields at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }
}

/// A contiguous row range of a table: the unit of work stealing (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl Morsel {
    /// Rows covered by this morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the morsel covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The row indices as a range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Default morsel size: small enough for work stealing to balance load,
/// large enough to amortize scheduling (the paper uses constant-size
/// morsels; HyPer's are on the order of 10k–100k tuples).
pub const MORSEL_SIZE: usize = 16_384;

/// A columnar table: a schema plus equally-long columns, each shared
/// behind an `Arc` (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Table {
    /// Build a table; all columns must match the schema arity and length.
    ///
    /// # Panics
    /// Panics on arity or length mismatch.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Self {
        Self::shared(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Build a table of columns that other tables may share.
    ///
    /// # Panics
    /// Panics on arity or length mismatch.
    pub fn shared(schema: Schema, columns: Vec<Arc<Column>>) -> Self {
        assert_eq!(
            schema.len(),
            columns.len(),
            "schema arity {} != column count {}",
            schema.len(),
            columns.len()
        );
        let rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            assert_eq!(
                c.len(),
                rows,
                "column {:?} length {} != {}",
                f.name,
                c.len(),
                rows
            );
        }
        Self {
            schema,
            columns,
            rows,
        }
    }

    /// An empty table with `schema`.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        Self::new(schema, columns)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The columns in schema order.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = &Column> + '_ {
        self.columns.iter().map(|c| &**c)
    }

    /// The columns by value, in schema order: a column no other table
    /// shares is moved out, a shared one is copied.
    pub fn into_columns(self) -> Vec<Column> {
        self.columns.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// Column at position `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column at position `idx`, to share with another table.
    pub fn shared_column(&self, idx: usize) -> &Arc<Column> {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> &Column {
        &self.columns[self.schema.index_of(name)]
    }

    /// Scalar at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// A full row as values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns().map(Column::byte_size).sum()
    }

    /// Split the table into constant-size morsels.
    pub fn morsels(&self, morsel_size: usize) -> Vec<Morsel> {
        assert!(morsel_size > 0, "morsel size must be positive");
        (0..self.rows)
            .step_by(morsel_size)
            .map(|start| Morsel {
                start,
                end: (start + morsel_size).min(self.rows),
            })
            .collect()
    }

    /// Copy selected rows into a new table.
    pub fn gather(&self, indices: &[usize]) -> Table {
        let columns = self.columns().map(|c| c.gather(indices)).collect();
        Table::new(self.schema.clone(), columns)
    }

    /// Append all rows of `other`, first copying any column of this table
    /// that another table shares.
    ///
    /// # Panics
    /// Panics when schemas differ.
    pub fn append(&mut self, other: &Table) {
        assert_eq!(self.schema, other.schema, "schema mismatch on append");
        for (a, b) in self.columns.iter_mut().zip(other.columns()) {
            Arc::make_mut(a).append(b);
        }
        self.rows += other.rows;
    }

    /// The rows of `pieces`, in order, as one table. A lone non-empty
    /// piece is moved, not copied; several are copied once, into columns
    /// sized for all of them (a column the first piece shares with another
    /// table is copied as it is sized).
    ///
    /// # Panics
    /// Panics when a piece's schema is not `schema`.
    pub fn concat(schema: &Schema, pieces: Vec<Table>) -> Table {
        let mut pieces = pieces.into_iter().filter(|p| p.rows > 0);
        let Some(mut out) = pieces.next() else {
            return Table::empty(schema.clone());
        };
        assert_eq!(&out.schema, schema, "schema mismatch on concat");
        let rest: Vec<Table> = pieces.collect();
        if !rest.is_empty() {
            for (i, column) in out.columns.iter_mut().enumerate() {
                let parts = rest.iter().map(|p| p.column(i));
                Arc::make_mut(column).reserve(
                    parts.clone().map(Column::len).sum(),
                    parts.map(Column::str_bytes).sum(),
                );
            }
            for piece in &rest {
                out.append(piece);
            }
        }
        out
    }

    /// Keep only the columns at `indices` (projection pushdown), shared
    /// with this table.
    pub fn project(&self, indices: &[usize]) -> Table {
        let schema = self.schema.project(indices);
        let columns = indices
            .iter()
            .map(|&i| Arc::clone(&self.columns[i]))
            .collect();
        Table::shared(schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        let ids = Column::I64(vec![1, 2, 3], None);
        let names = Column::Str(["a", "b", "c"].into_iter().collect(), None);
        Table::new(schema, vec![ids, names])
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.value(1, 0), Value::I64(2));
        assert_eq!(t.value(2, 1), Value::Str("c".into()));
        assert_eq!(t.column_by_name("id").i64_values(), &[1, 2, 3]);
        assert_eq!(t.row(0), vec![Value::I64(1), Value::Str("a".into())]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
        Table::new(schema, vec![]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn length_mismatch_panics() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]);
        Table::new(
            schema,
            vec![Column::I64(vec![1], None), Column::I64(vec![1, 2], None)],
        );
    }

    #[test]
    fn morsels_cover_all_rows_without_overlap() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let t = Table::new(schema, vec![Column::I64((0..100).collect(), None)]);
        let morsels = t.morsels(33);
        assert_eq!(morsels.len(), 4);
        let covered: usize = morsels.iter().map(Morsel::len).sum();
        assert_eq!(covered, 100);
        assert_eq!(morsels[0].range(), 0..33);
        assert_eq!(morsels[3].range(), 99..100);
    }

    #[test]
    fn empty_table_has_no_morsels() {
        let t = Table::empty(Schema::new(vec![Field::new("x", DataType::Int64)]));
        assert!(t.morsels(MORSEL_SIZE).is_empty());
    }

    #[test]
    fn gather_and_append() {
        let t = sample();
        let g = t.gather(&[2, 0]);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.value(0, 0), Value::I64(3));
        let mut a = t.clone();
        a.append(&g);
        assert_eq!(a.rows(), 5);
        assert_eq!(a.value(3, 1), Value::Str("c".into()));
        // The table `a` was cloned from shares nothing it appended.
        assert_eq!(t, sample());
    }

    #[test]
    fn concat_moves_a_lone_piece_and_joins_several() {
        let t = sample();
        let empty = || Table::empty(t.schema().clone());
        assert_eq!(Table::concat(t.schema(), vec![]).rows(), 0);
        assert_eq!(Table::concat(t.schema(), vec![empty(), empty()]).rows(), 0);

        // A lone non-empty piece comes back as it is: same buffer.
        let piece = t.clone();
        let data = piece.column(0).i64_values().as_ptr();
        let alone = Table::concat(t.schema(), vec![empty(), piece, empty()]);
        assert_eq!(alone, t);
        assert_eq!(alone.column(0).i64_values().as_ptr(), data);

        let joined = Table::concat(t.schema(), vec![t.gather(&[2]), empty(), t.clone()]);
        assert_eq!(joined, t.gather(&[2, 0, 1, 2]));
        // A first piece that shares its columns is copied, not written.
        let joined = Table::concat(t.schema(), vec![t.clone(), t.gather(&[1])]);
        assert_eq!(joined, t.gather(&[0, 1, 2, 1]));
        assert_eq!(t, sample());
    }

    #[test]
    fn projection_keeps_selected_columns() {
        let t = sample();
        let p = t.project(&[1]);
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.schema().fields()[0].name, "name");
        assert_eq!(p.rows(), 3);
        // Shared, not copied.
        assert!(Arc::ptr_eq(p.shared_column(0), t.shared_column(1)));
        let ids = t.project(&[0]);
        assert_eq!(
            ids.column(0).i64_values().as_ptr(),
            t.column(0).i64_values().as_ptr()
        );
    }

    #[test]
    fn appending_to_a_table_alone_writes_in_place() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let mut t = Table::new(schema, vec![Column::I64(Vec::with_capacity(8), None)]);
        let data = t.column(0).i64_values().as_ptr();
        let more = Table::new(t.schema().clone(), vec![Column::I64(vec![1, 2, 3], None)]);
        t.append(&more);
        t.append(&more);
        assert_eq!(t.column(0).i64_values(), &[1, 2, 3, 1, 2, 3]);
        assert_eq!(t.column(0).i64_values().as_ptr(), data);
    }

    #[test]
    fn into_columns_moves_a_column_alone_and_copies_a_shared_one() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]);
        let t = Table::new(
            schema,
            vec![Column::I64(vec![1, 2], None), Column::I64(vec![3, 4], None)],
        );
        let (a, b) = (
            t.column(0).i64_values().as_ptr(),
            t.column(1).i64_values().as_ptr(),
        );
        let kept = t.project(&[1]);
        let columns = t.into_columns();
        assert_eq!(columns[0].i64_values().as_ptr(), a, "moved");
        assert_eq!(&columns[1], kept.column(0));
        assert_eq!(kept.column(0).i64_values().as_ptr(), b);
        assert_ne!(columns[1].i64_values().as_ptr(), b, "copied");
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        sample().column_by_name("nope");
    }
}
