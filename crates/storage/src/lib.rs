//! # hsqp-storage — columnar in-memory storage
//!
//! HyPer stores relations column-wise in main memory; query pipelines pull
//! *morsels* (constant-size work units, §3.2) from base relations or
//! intermediate results. This crate provides that substrate:
//!
//! * [`types`] — logical data types ([`DataType`]), scalar [`Value`]s,
//!   and proleptic-Gregorian date arithmetic (TPC-H dates are day numbers).
//! * [`bitmap`] — validity bitmaps for nullable columns.
//! * [`column`](mod@column) — typed columns: 64-bit integers (also carrying dates and
//!   fixed-point decimals), 64-bit floats, and UTF-8 strings — byte-packed,
//!   or one-byte codes into a shared dictionary when a column holds at
//!   most 256 distinct values.
//! * [`table`] — schemas, tables, row access, and morsel iteration.
//! * [`placement`] — chunked vs hash-partitioned data placement across the
//!   cluster (§4.1: "we assign relation chunks to servers as generated by
//!   dbgen without initial redistribution").

pub mod bitmap;
pub mod column;
pub mod placement;
pub mod table;
pub mod types;

pub use bitmap::Bitmap;
pub use column::{bytes_held, Column, Dictionary, StrForm, StringBuilder, StringColumn};
pub use table::{Field, Morsel, Schema, Table};
pub use types::{date_from_ymd, decimal_to_f64, year_of_date, DataType, Value};
