//! Typed columns.
//!
//! A string column has one of two forms, and the data chooses which. The
//! **plain** form packs the strings back to back with an offset per row.
//! The **coded** form holds one `u8` code per row into a [`Dictionary`] of
//! at most [`Dictionary::MAX`] strings, shared behind an `Arc` by every
//! column cut from the one that was coded (the operation on compressed
//! columns of Abadi, Madden and Ferreira, SIGMOD 2006). One rule codes: a
//! string column with at most 256 distinct values is coded, any other
//! stays plain — applied to a column that exists by [`Column::encode`],
//! and string by string, so that the column is never held plain, by a
//! [`StringBuilder`].
//!
//! Every reader works on either form through [`StringColumn::get`],
//! [`bytes`](StringColumn::bytes) and [`iter`](StringColumn::iter).
//! Kernels match on [`StringColumn::form`] once per column or batch and
//! then read the offsets and bytes, or the codes and a per-entry table.
//! `slice`, `scatter`, `gather`, `extend_gather` and `extend_rows` keep a
//! column coded while every row they take comes from its dictionary (the
//! same `Arc`); an empty column takes the dictionary of the first coded
//! rows it is given. Anything else decodes a coded column to plain, once.
//! A NULL row of a coded column holds some code: only its validity bit
//! says it is NULL.

use std::ops::Range;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::types::{DataType, Value};

/// The distinct strings of a coded [`StringColumn`], at most
/// [`MAX`](Self::MAX): the string with code `c` is entry `c`. The entries
/// lie back to back.
#[derive(Debug, PartialEq, Eq)]
pub struct Dictionary {
    offsets: Vec<u32>,
    data: Vec<u8>,
}

impl Dictionary {
    /// Most entries a dictionary holds: a code is one byte.
    pub const MAX: usize = 256;

    /// An empty dictionary.
    fn new() -> Self {
        Self {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Append an entry.
    fn push(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
        self.offsets
            .push(u32::try_from(self.data.len()).expect("a small dictionary"));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there is no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the entry with code `code`.
    ///
    /// # Panics
    /// Panics when there is no such entry.
    #[inline]
    pub fn bytes(&self, code: u8) -> &[u8] {
        let c = code as usize;
        &self.data[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// The entries' bytes, in code order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.data[w[0] as usize..w[1] as usize])
    }

    /// Bytes the dictionary holds: its strings and an offset per entry and
    /// one more.
    pub fn byte_size(&self) -> usize {
        self.data.len() + self.offsets.len() * 4
    }

    /// What `f` gives for every entry, in code order, in a table a code
    /// indexes without a bounds check; entries past the last are `T`'s
    /// default.
    pub fn per_entry<T: Copy + Default>(&self, f: impl Fn(&[u8]) -> T) -> [T; Self::MAX] {
        let mut table = [T::default(); Self::MAX];
        for (slot, entry) in table.iter_mut().zip(self.entries()) {
            *slot = f(entry);
        }
        table
    }
}

/// How a [`StringColumn`] holds its rows: what a kernel matches on, once.
#[derive(Debug, Clone, Copy)]
pub enum StrForm<'a> {
    /// String `i` is `data[offsets[i]..offsets[i + 1]]`.
    Plain {
        /// `len() + 1` row boundaries.
        offsets: &'a [u32],
        /// All strings back to back.
        data: &'a [u8],
    },
    /// String `i` is entry `codes[i]` of `dict`.
    Coded {
        /// One code per row.
        codes: &'a [u8],
        /// The entries.
        dict: &'a Arc<Dictionary>,
    },
}

#[derive(Debug, Clone)]
enum Form {
    Plain {
        offsets: Vec<u32>,
        data: Vec<u8>,
    },
    Coded {
        codes: Vec<u8>,
        dict: Arc<Dictionary>,
    },
}

/// A column of UTF-8 strings, plain (offsets and contiguous bytes, the
/// layout HyPer's columnar format and our wire format of Figure 8 both
/// favour) or coded (a byte per row into a shared [`Dictionary`]); see the
/// [module docs](self). Two columns are equal when they hold the same
/// strings, whatever their forms.
#[derive(Debug, Clone)]
pub struct StringColumn {
    form: Form,
}

impl Default for StringColumn {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for StringColumn {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.bytes(i) == other.bytes(i))
    }
}

/// Append one string to a plain column's parts.
#[inline]
fn push_plain(offsets: &mut Vec<u32>, data: &mut Vec<u8>, bytes: &[u8]) {
    data.extend_from_slice(bytes);
    offsets.push(u32::try_from(data.len()).expect("string column exceeds 4 GiB"));
}

/// The current end of a plain column's data, after checking that `more`
/// bytes still fit behind it.
fn end_after(data: &[u8], more: usize) -> u32 {
    u32::try_from(data.len() + more).expect("string column exceeds 4 GiB");
    data.len() as u32
}

impl StringColumn {
    /// An empty (plain) string column.
    pub fn new() -> Self {
        Self::plain(vec![0], Vec::new())
    }

    /// Pre-allocate a plain column for `rows` strings of `avg_len` average
    /// size.
    pub fn with_capacity(rows: usize, avg_len: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self::plain(offsets, Vec::with_capacity(rows * avg_len))
    }

    fn plain(offsets: Vec<u32>, data: Vec<u8>) -> Self {
        Self {
            form: Form::Plain { offsets, data },
        }
    }

    fn coded(codes: Vec<u8>, dict: &Arc<Dictionary>) -> Self {
        Self {
            form: Form::Coded {
                codes,
                dict: Arc::clone(dict),
            },
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        match &self.form {
            Form::Plain { offsets, .. } => offsets.len() - 1,
            Form::Coded { codes, .. } => codes.len(),
        }
    }

    /// True when no strings are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How the column holds its rows.
    #[inline]
    pub fn form(&self) -> StrForm<'_> {
        match &self.form {
            Form::Plain { offsets, data } => StrForm::Plain { offsets, data },
            Form::Coded { codes, dict } => StrForm::Coded { codes, dict },
        }
    }

    /// The dictionary, when the column is coded.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        match &self.form {
            Form::Plain { .. } => None,
            Form::Coded { dict, .. } => Some(dict),
        }
    }

    /// The plain form's parts, decoding a coded column first (once: it
    /// stays plain).
    fn plain_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<u8>) {
        if let Form::Coded { codes, dict } = &self.form {
            let mut offsets = Vec::with_capacity(codes.len() + 1);
            offsets.push(0);
            let lens = dict.per_entry(<[u8]>::len);
            let mut data = Vec::with_capacity(codes.iter().map(|&c| lens[c as usize]).sum());
            for &c in codes {
                push_plain(&mut offsets, &mut data, dict.bytes(c));
            }
            self.form = Form::Plain { offsets, data };
        }
        match &mut self.form {
            Form::Plain { offsets, data } => (offsets, data),
            Form::Coded { .. } => unreachable!("decoded above"),
        }
    }

    /// The codes of this column if it can take rows coded by `dict`: it is
    /// coded by `dict` already, or it is empty and takes `dict` on.
    fn codes_for(&mut self, dict: &Arc<Dictionary>) -> Option<&mut Vec<u8>> {
        let same = matches!(&self.form, Form::Coded { dict: d, .. } if Arc::ptr_eq(d, dict));
        if !same {
            if !self.is_empty() {
                return None;
            }
            *self = Self::coded(Vec::new(), dict);
        }
        match &mut self.form {
            Form::Coded { codes, .. } => Some(codes),
            Form::Plain { .. } => unreachable!("coded above"),
        }
    }

    /// Append a string (a coded column is decoded first).
    ///
    /// # Panics
    /// Panics if total data exceeds `u32::MAX` bytes.
    pub fn push(&mut self, s: &str) {
        let (offsets, data) = self.plain_mut();
        push_plain(offsets, data, s.as_bytes());
    }

    /// String at row `idx`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn get(&self, idx: usize) -> &str {
        // Safety: only `push` writes data, and it only appends whole strings.
        std::str::from_utf8(self.bytes(idx)).expect("column holds valid UTF-8")
    }

    /// Bytes of the string at row `idx` (no UTF-8 check: key kernels hash
    /// and compare them as they are).
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn bytes(&self, idx: usize) -> &[u8] {
        match &self.form {
            Form::Plain { offsets, data } => {
                &data[offsets[idx] as usize..offsets[idx + 1] as usize]
            }
            Form::Coded { codes, dict } => dict.bytes(codes[idx]),
        }
    }

    /// Bytes of string data held: the strings' in the plain form, the
    /// dictionary's in the coded form.
    pub fn data_len(&self) -> usize {
        match &self.form {
            Form::Plain { data, .. } => data.len(),
            Form::Coded { dict, .. } => dict.byte_size(),
        }
    }

    /// Bytes the strings take in the plain form: exact for a plain column;
    /// for a coded one its rows times the dictionary's mean entry, rounded
    /// up (what a column that decodes them reserves).
    pub fn plain_bytes(&self) -> usize {
        match &self.form {
            Form::Plain { data, .. } => data.len(),
            Form::Coded { codes, dict } => {
                (codes.len() * dict.data.len()).div_ceil(dict.len().max(1))
            }
        }
    }

    /// Bytes the column holds: its strings and an offset per row and one
    /// more when plain, a code per row and the dictionary when coded.
    pub fn byte_size(&self) -> usize {
        match &self.form {
            Form::Plain { offsets, data } => data.len() + offsets.len() * 4,
            Form::Coded { codes, dict } => codes.len() + dict.byte_size(),
        }
    }

    /// Append every string of `other`.
    ///
    /// # Panics
    /// Panics if total data exceeds `u32::MAX` bytes.
    pub fn extend(&mut self, other: &StringColumn) {
        self.extend_rows(other, 0..other.len());
    }

    /// Append strings `rows` of `other`: their codes when both columns
    /// are coded by one dictionary (or this one is empty), else one copy
    /// of their bytes, their offsets rebased.
    ///
    /// # Panics
    /// Panics when `rows` is out of bounds, or if total data exceeds
    /// `u32::MAX` bytes.
    pub fn extend_rows(&mut self, other: &StringColumn, rows: Range<usize>) {
        match other.form() {
            StrForm::Coded { codes, dict } => {
                let codes = &codes[rows];
                match self.codes_for(dict) {
                    Some(mine) => mine.extend_from_slice(codes),
                    None => {
                        let (offsets, data) = self.plain_mut();
                        offsets.reserve(codes.len());
                        for &c in codes {
                            push_plain(offsets, data, dict.bytes(c));
                        }
                    }
                }
            }
            StrForm::Plain {
                offsets: theirs,
                data: bytes,
            } => {
                let theirs = &theirs[rows.start..=rows.end];
                let (from, to) = (theirs[0], theirs[theirs.len() - 1]);
                let (offsets, data) = self.plain_mut();
                let base = end_after(data, (to - from) as usize);
                data.extend_from_slice(&bytes[from as usize..to as usize]);
                offsets.extend(theirs[1..].iter().map(|&o| base + (o - from)));
            }
        }
    }

    /// Append `lens.len()` strings that lie back to back in `data`, the
    /// `i`-th being `lens[i]` bytes long (a coded column is decoded
    /// first). Fails, leaving the column's strings as they were, when the
    /// lengths do not add up to `data.len()` or one of them ends inside a
    /// character.
    ///
    /// # Panics
    /// Panics if total data exceeds `u32::MAX` bytes.
    pub fn extend_from_run(
        &mut self,
        run: &str,
        lens: impl Iterator<Item = u32>,
    ) -> Result<(), SplitRun> {
        let (offsets, data) = self.plain_mut();
        let base = end_after(data, run.len());
        let rows_before = offsets.len();
        let mut end = 0usize;
        let mut whole = true;
        offsets.extend(lens.map(|len| {
            end = end.saturating_add(len as usize);
            whole &= run.is_char_boundary(end);
            // A wrapped sum fails the boundary check (`end > run.len()`),
            // so the value stored here is never kept.
            base.wrapping_add(end as u32)
        }));
        if whole && end == run.len() {
            data.extend_from_slice(run.as_bytes());
            Ok(())
        } else {
            offsets.truncate(rows_before);
            Err(SplitRun)
        }
    }

    /// Strings `rows` as a column of their own, in this column's form,
    /// allocated with exactly the room they take: their codes, or their
    /// bytes as one run with their offsets rebased.
    ///
    /// # Panics
    /// Panics when `rows` is out of bounds.
    pub fn slice(&self, rows: Range<usize>) -> StringColumn {
        match self.form() {
            StrForm::Coded { codes, dict } => Self::coded(codes[rows].to_vec(), dict),
            StrForm::Plain { offsets, data } => {
                let offsets = &offsets[rows.start..=rows.end];
                let (from, to) = (offsets[0], offsets[offsets.len() - 1]);
                Self::plain(
                    offsets.iter().map(|&o| o - from).collect(),
                    data[from as usize..to as usize].to_vec(),
                )
            }
        }
    }

    /// The column in the plain form: itself when it is plain, its strings
    /// decoded once when it is coded.
    pub fn decode(mut self) -> StringColumn {
        self.plain_mut();
        self
    }

    /// The column coded when it holds at least one string and at most
    /// [`Dictionary::MAX`] distinct ones, entries numbered in the order
    /// they first appear; otherwise the column as it is. A coded column is
    /// returned as it is.
    pub fn encode(self) -> StringColumn {
        if self.dictionary().is_some() {
            return self;
        }
        let mut coding = StringBuilder::with_capacity(self.len(), 0);
        for i in 0..self.len() {
            if !coding.code(self.bytes(i)) {
                return self;
            }
        }
        coding.finish()
    }

    /// Iterate all strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A dictionary being built, and the lookup that finds a string's code in
/// it: an open-addressing table of four slots per possible entry, by
/// [`StrKey`].
struct Coder {
    dict: Dictionary,
    slots: Vec<Option<(StrKey, u8)>>,
}

impl Coder {
    const SLOTS: usize = 4 * Dictionary::MAX;

    fn new() -> Self {
        Self {
            dict: Dictionary::new(),
            slots: vec![None; Self::SLOTS],
        }
    }

    /// The code of `bytes`, whose key is `key`: its entry's, made if there
    /// is none yet — unless the dictionary is full.
    #[inline]
    fn code(&mut self, key: StrKey, bytes: &[u8]) -> Option<u8> {
        let mut slot = key.slot(Self::SLOTS);
        loop {
            match self.slots[slot] {
                Some((k, code)) if k == key && (key.whole() || self.dict.bytes(code) == bytes) => {
                    return Some(code)
                }
                Some(_) => slot = (slot + 1) % Self::SLOTS,
                None if self.dict.len() == Dictionary::MAX => return None,
                None => {
                    let code = self.dict.len() as u8;
                    self.dict.push(bytes);
                    self.slots[slot] = Some((key, code));
                    return Some(code);
                }
            }
        }
    }

    /// The dictionary, in exactly its room.
    fn finish(mut self) -> Dictionary {
        self.dict.offsets.shrink_to_fit();
        self.dict.data.shrink_to_fit();
        self.dict
    }
}

/// Builds a string column a string at a time by [`StringColumn::encode`]'s
/// rule, so that a column with few values is never held plain: it codes
/// every string it is given until the 257th distinct one, which decodes
/// what it holds into a plain column, once; the rest is pushed plain.
pub struct StringBuilder {
    /// Rows and mean bytes a row the column is sized for.
    rows: usize,
    avg_len: usize,
    building: Building,
}

enum Building {
    Coding { codes: Vec<u8>, coder: Coder },
    Plain(StringColumn),
}

impl StringBuilder {
    /// A builder for `rows` strings of `avg_len` average size: room for
    /// their codes, or, once it turns plain, for their bytes.
    pub fn with_capacity(rows: usize, avg_len: usize) -> Self {
        Self {
            rows,
            avg_len,
            building: Building::Coding {
                codes: Vec::with_capacity(rows),
                coder: Coder::new(),
            },
        }
    }

    /// Append a string.
    ///
    /// # Panics
    /// Panics if a plain column's data exceeds `u32::MAX` bytes.
    pub fn push(&mut self, s: &str) {
        if !self.code(s.as_bytes()) {
            self.plain().push(s);
        }
    }

    /// Append the code of `bytes`, if the builder still codes and `bytes`
    /// is not the 257th distinct string; false, having done nothing, if not.
    fn code(&mut self, bytes: &[u8]) -> bool {
        let Building::Coding { codes, coder } = &mut self.building else {
            return false;
        };
        coder
            .code(StrKey::of(bytes), bytes)
            .map(|c| codes.push(c))
            .is_some()
    }

    /// The plain column, into which the strings coded so far are decoded
    /// the first time it is asked for.
    fn plain(&mut self) -> &mut StringColumn {
        if let Building::Coding { codes, coder } = &self.building {
            let rows = self.rows.max(codes.len() + 1);
            let mut plain = StringColumn::with_capacity(rows, self.avg_len);
            let (offsets, data) = plain.plain_mut();
            for &c in codes {
                push_plain(offsets, data, coder.dict.bytes(c));
            }
            self.building = Building::Plain(plain);
        }
        match &mut self.building {
            Building::Plain(plain) => plain,
            Building::Coding { .. } => unreachable!("decoded above"),
        }
    }

    /// The column: coded if it has rows and every string got a code.
    pub fn finish(self) -> StringColumn {
        match self.building {
            Building::Coding { codes, .. } if codes.is_empty() => StringColumn::new(),
            Building::Coding { mut codes, coder } => {
                codes.shrink_to_fit();
                StringColumn::coded(codes, &Arc::new(coder.finish()))
            }
            Building::Plain(plain) => plain,
        }
    }
}

impl<'a> FromIterator<&'a str> for StringBuilder {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        let mut builder = StringBuilder::with_capacity(0, 0);
        iter.into_iter().for_each(|s| builder.push(s));
        builder
    }
}

impl FromIterator<String> for StringBuilder {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        let mut builder = StringBuilder::with_capacity(0, 0);
        iter.into_iter().for_each(|s| builder.push(&s));
        builder
    }
}

/// A string's length and its first and last eight bytes (a string shorter
/// than eight bytes as one word, zero-filled): the whole string when it is
/// at most 16 bytes long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StrKey {
    len: usize,
    head: u64,
    tail: u64,
}

impl StrKey {
    #[inline]
    fn of(bytes: &[u8]) -> StrKey {
        let (head, tail) = match (bytes.first_chunk(), bytes.last_chunk()) {
            (Some(head), Some(tail)) => (u64::from_le_bytes(*head), u64::from_le_bytes(*tail)),
            _ => (bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)), 0),
        };
        StrKey {
            len: bytes.len(),
            head,
            tail,
        }
    }

    fn whole(&self) -> bool {
        self.len <= 16
    }

    /// Its slot among `slots`, a power of two: the top bits of a
    /// multiply-fold hash.
    #[inline]
    fn slot(&self, slots: usize) -> usize {
        const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
        let h = (self.head ^ self.len as u64).wrapping_mul(FOLD) ^ self.tail;
        (h.wrapping_mul(FOLD) >> (64 - slots.trailing_zeros())) as usize
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

/// Bytes `columns` hold ([`Column::byte_size`]), each dictionary counted
/// once however many of them share it.
pub fn bytes_held<'a>(columns: impl IntoIterator<Item = &'a Column>) -> usize {
    let mut dicts: Vec<*const Dictionary> = Vec::new();
    columns
        .into_iter()
        .map(|c| match c {
            Column::Str(v, _) => match v.form() {
                StrForm::Coded { codes, dict } => {
                    let seen = dicts.contains(&Arc::as_ptr(dict));
                    if !seen {
                        dicts.push(Arc::as_ptr(dict));
                    }
                    codes.len() + if seen { 0 } else { dict.byte_size() }
                }
                StrForm::Plain { .. } => c.byte_size(),
            },
            _ => c.byte_size(),
        })
        .sum()
}

/// A column of values, optionally with a validity bitmap.
///
/// Integer-backed logical types (Int64, Date, Decimal) all use the `I64`
/// physical representation; the logical type lives in the schema. Two
/// columns are equal when they hold the same values and the same validity
/// bitmaps; string columns whatever their forms, and only at valid rows (a
/// NULL row of a coded column holds some code, of a plain one `""`).
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers (also dates and scaled decimals).
    I64(Vec<i64>, Option<Bitmap>),
    /// 64-bit floats.
    F64(Vec<f64>, Option<Bitmap>),
    /// UTF-8 strings.
    Str(StringColumn, Option<Bitmap>),
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Column::I64(a, x), Column::I64(b, y)) => a == b && x == y,
            (Column::F64(a, x), Column::F64(b, y)) => a == b && x == y,
            (Column::Str(a, x), Column::Str(b, y)) => {
                x == y
                    && a.len() == b.len()
                    && (0..a.len()).all(|i| !self.is_valid(i) || a.bytes(i) == b.bytes(i))
            }
            _ => false,
        }
    }
}

impl Column {
    /// The row index [`extend_gather`](Self::extend_gather) reads as "no
    /// row": the build side of a left-outer miss.
    pub const NULL_ROW: u32 = u32::MAX;

    /// An empty column of physical type matching `dtype` (a string column
    /// is plain).
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 | DataType::Date | DataType::Decimal => Column::I64(Vec::new(), None),
            DataType::Float64 => Column::F64(Vec::new(), None),
            DataType::Utf8 => Column::Str(StringColumn::new(), None),
        }
    }

    /// An empty column of this one's physical type and form: a coded
    /// string column's shares its dictionary.
    pub fn empty_like(&self) -> Self {
        match self {
            Column::I64(..) => Column::I64(Vec::new(), None),
            Column::F64(..) => Column::F64(Vec::new(), None),
            Column::Str(v, _) => Column::Str(v.slice(0..0), None),
        }
    }

    /// Code a string column by [`StringColumn::encode`]'s rule; any other
    /// column is returned as it is.
    pub fn encode(self) -> Self {
        match self {
            Column::Str(v, bm) => Column::Str(v.encode(), bm),
            other => other,
        }
    }

    /// The column with its strings in the plain form (any other column as
    /// it is).
    pub fn decode(self) -> Self {
        match self {
            Column::Str(v, bm) => Column::Str(v.decode(), bm),
            other => other,
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

    /// Bytes the column's values take (its validity bitmap is not
    /// counted): eight per number, [`StringColumn::byte_size`] for strings.
    pub fn byte_size(&self) -> usize {
        match self {
            Column::I64(v, _) => v.len() * 8,
            Column::F64(v, _) => v.len() * 8,
            Column::Str(v, _) => v.byte_size(),
        }
    }

    /// Copy the rows selected by `indices` into a new column, in this
    /// column's form.
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
                let out = match v.form() {
                    StrForm::Coded { codes, dict } => {
                        StringColumn::coded(indices.iter().map(|&i| codes[i]).collect(), dict)
                    }
                    StrForm::Plain { .. } => {
                        let mut out = StringColumn::with_capacity(indices.len(), 16);
                        let (offsets, data) = out.plain_mut();
                        for &i in indices {
                            push_plain(offsets, data, v.bytes(i));
                        }
                        out
                    }
                };
                Column::Str(out, gather_validity(bm, indices))
            }
        }
    }

    /// Rows `range` as a new column: one contiguous copy, allocated with
    /// exactly the room it takes (strings in their column's form). A
    /// validity bitmap stays a bitmap.
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
            Column::Str(v, _) => match v.form() {
                StrForm::Coded { codes, dict } => values(codes, to, counts)
                    .into_iter()
                    .map(|codes| Column::Str(StringColumn::coded(codes, dict), None))
                    .collect(),
                StrForm::Plain { offsets, data } => {
                    let bytes_of =
                        |row: usize| &data[offsets[row] as usize..offsets[row + 1] as usize];
                    let mut bytes = vec![0usize; counts.len()];
                    for (row, &p) in to.iter().enumerate() {
                        bytes[p as usize] += bytes_of(row).len();
                    }
                    let mut parts: Vec<(Vec<u32>, Vec<u8>)> = counts
                        .iter()
                        .zip(bytes)
                        .map(|(&rows, bytes)| {
                            let mut offsets = Vec::with_capacity(rows + 1);
                            offsets.push(0);
                            (offsets, Vec::with_capacity(bytes))
                        })
                        .collect();
                    for (row, &p) in to.iter().enumerate() {
                        let (offsets, data) = &mut parts[p as usize];
                        push_plain(offsets, data, bytes_of(row));
                    }
                    parts
                        .into_iter()
                        .map(|(offsets, data)| {
                            Column::Str(StringColumn::plain(offsets, data), None)
                        })
                        .collect()
                }
            },
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
    /// time. Strings go as codes when `src` is coded and this column is
    /// coded by the same dictionary or empty, else as bytes. The validity
    /// bitmap stays absent until the first NULL arrives.
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
                match b.form() {
                    StrForm::Coded { codes, dict } => match a.codes_for(dict) {
                        Some(mine) => values(mine, codes, rows),
                        None => {
                            let (offsets, data) = a.plain_mut();
                            offsets.reserve(rows.len());
                            for &i in rows {
                                let bytes = match i {
                                    Column::NULL_ROW => &[][..],
                                    i => dict.bytes(codes[i as usize]),
                                };
                                push_plain(offsets, data, bytes);
                            }
                        }
                    },
                    StrForm::Plain { .. } => {
                        a.plain_mut().0.reserve(rows.len());
                        for piece in (Pieces { rows }) {
                            match piece {
                                Piece::Run(run) => a.extend_rows(b, run),
                                Piece::Rows(rows) => {
                                    let (offsets, data) = a.plain_mut();
                                    for &i in rows {
                                        let bytes = match i {
                                            Column::NULL_ROW => &[][..],
                                            i => b.bytes(i as usize),
                                        };
                                        push_plain(offsets, data, bytes);
                                    }
                                }
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

    /// Bytes the strings take in the plain form, what a plain column
    /// reserves for them ([`StringColumn::plain_bytes`]; 0 for a column
    /// that is not a string column).
    pub fn str_bytes(&self) -> usize {
        match self {
            Column::Str(v, _) => v.plain_bytes(),
            _ => 0,
        }
    }

    /// Make room for exactly `rows` more rows — holding `str_bytes` bytes
    /// of string data, if this is a plain string column; a coded one makes
    /// room for their codes — so that appending them does not regrow the
    /// column, and a column that already has the room is left as it is.
    pub fn reserve(&mut self, rows: usize, str_bytes: usize) {
        match self {
            Column::I64(v, _) => v.reserve_exact(rows),
            Column::F64(v, _) => v.reserve_exact(rows),
            Column::Str(v, _) => match &mut v.form {
                Form::Plain { offsets, data } => {
                    offsets.reserve_exact(rows);
                    data.reserve_exact(str_bytes);
                }
                Form::Coded { codes, .. } => codes.reserve_exact(rows),
            },
        }
    }

    /// Drop every row and keep the room they took, so that a column that
    /// is filled again and again is allocated once (a coded column keeps
    /// its dictionary).
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
                match &mut v.form {
                    Form::Plain { offsets, data } => {
                        offsets.truncate(1);
                        data.clear();
                    }
                    Form::Coded { codes, .. } => codes.clear(),
                }
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
            Column::Str(v, _) => match &v.form {
                Form::Plain { offsets, data } => (offsets.capacity() - 1, data.capacity()),
                Form::Coded { codes, .. } => (codes.capacity(), 0),
            },
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

    /// A string column whose row `i` is NULL when `null(i)`, else one of
    /// `words`, coded.
    fn coded_column(words: &[&str], rows: usize, null: fn(usize) -> bool) -> Column {
        let mut c = Column::empty(DataType::Utf8);
        for i in 0..rows {
            c.push_value(&match null(i) {
                true => Value::Null,
                false => Value::Str(words[i * 7 % words.len()].to_string()),
            });
        }
        let coded = c.encode();
        assert!(is_coded(&coded), "{} distinct words are coded", words.len());
        coded
    }

    fn is_coded(c: &Column) -> bool {
        matches!(c, Column::Str(v, _) if v.dictionary().is_some())
    }

    fn dict_of(c: &Column) -> &Arc<Dictionary> {
        c.str_values().dictionary().expect("a coded column")
    }

    const WORDS: [&str; 5] = ["MAIL", "", "REG AIR", "éclair", "SHIP"];

    #[test]
    fn coded_and_plain_forms_hold_the_same_strings() {
        for null in [(|_| false) as fn(usize) -> bool, |i| i % 3 == 1] {
            let coded = coded_column(&WORDS, 40, null);
            let plain = coded.clone().decode();
            assert!(!is_coded(&plain));
            assert_eq!(coded, plain, "equality compares strings, not forms");
            for r in 0..40 {
                assert_eq!(coded.value(r), plain.value(r));
            }
            let (c, p) = (coded.str_values(), plain.str_values());
            assert_eq!(dict_of(&coded).len(), WORDS.len());
            let valid: Vec<usize> = (0..40).filter(|&r| coded.is_valid(r)).collect();
            for &r in &valid {
                assert_eq!((c.get(r), c.bytes(r)), (p.get(r), p.bytes(r)));
            }
            // One byte a row and the dictionary (its entries and their
            // offsets), against four and the bytes.
            let entries: usize = WORDS.iter().map(|w| w.len()).sum();
            assert_eq!(coded.byte_size(), 40 + entries + (WORDS.len() + 1) * 4);
            let mut held: Vec<&[u8]> = dict_of(&coded).entries().collect();
            let mut words = WORDS.map(str::as_bytes);
            held.sort();
            words.sort();
            assert_eq!(held, words);
            assert_eq!(plain.byte_size(), p.data_len() + 41 * 4);
            let mut other = coded.clone();
            other.push_value(&Value::Str("x".into()));
            assert_ne!(other, plain);
        }
    }

    #[test]
    fn the_257th_distinct_value_keeps_a_column_plain() {
        let words: Vec<String> = (0..257).map(|i| format!("w{i}")).collect();
        let column = |n: usize| -> Column {
            let c: StringColumn = (0..600).map(|i| words[i % n].as_str()).collect();
            Column::Str(c, None).encode()
        };
        let at_most = column(256);
        assert_eq!(dict_of(&at_most).len(), 256);
        assert!(at_most
            .str_values()
            .iter()
            .eq((0..600).map(|i| words[i % 256].as_str())));
        let past = column(257);
        assert!(!is_coded(&past));
        assert_eq!(past, column(257).decode());
        // Nothing to code in an empty column.
        assert!(!is_coded(&Column::empty(DataType::Utf8).encode()));
        assert!(!is_coded(&Column::I64(vec![1], None).encode()));
    }

    #[test]
    fn a_builder_codes_as_encode_does_and_turns_plain_at_the_257th_value() {
        let words: Vec<String> = (0..300).map(|i| format!("word number {i}")).collect();
        for distinct in [1, 5, 256, 257, 300] {
            let strings = (0..700).map(|i| words[i * 7 % distinct].as_str());
            let mut builder = StringBuilder::with_capacity(500, 12);
            strings.clone().for_each(|s| builder.push(s));
            let built = builder.finish();
            let encoded = strings.collect::<StringColumn>().encode();
            assert_eq!(built, encoded, "{distinct} values");
            assert_eq!(built.dictionary().is_some(), distinct <= 256);
            assert_eq!(encoded.dictionary().is_some(), distinct <= 256);
            if let (Some(a), Some(b)) = (built.dictionary(), encoded.dictionary()) {
                assert_eq!(a, b, "entries in first-seen order");
            }
        }
        assert!(StringBuilder::with_capacity(0, 0).finish().is_empty());
        let few: StringBuilder = ["b", "a", "b"].into_iter().collect();
        assert_eq!(few.finish().iter().collect::<Vec<_>>(), ["b", "a", "b"]);
    }

    #[test]
    fn cutting_a_coded_column_keeps_its_dictionary() {
        for null in [(|_| false) as fn(usize) -> bool, |i| i % 3 == 1] {
            let src = coded_column(&WORDS, 150, null);
            let plain = src.clone().decode();
            let shares = |c: &Column| Arc::ptr_eq(dict_of(c), dict_of(&src));
            for range in [0..0, 0..150, 3..70, 149..150] {
                let slice = src.slice(range.clone());
                assert!(shares(&slice));
                assert_eq!(slice, plain.slice(range.clone()));
                assert_eq!(capacity(&slice), (range.len(), 0));
            }
            let picks = [149, 0, 7, 7, 64];
            assert!(shares(&src.gather(&picks)));
            assert_eq!(src.gather(&picks), plain.gather(&picks));
            let to: Vec<u32> = (0..150u32).map(|i| i * 7 % 11 % 4).collect();
            let mut counts = vec![0; 4];
            to.iter().for_each(|&p| counts[p as usize] += 1);
            for (c, p) in src
                .scatter(&to, &counts)
                .iter()
                .zip(plain.scatter(&to, &counts))
            {
                assert!(shares(c));
                assert_eq!(c, &p);
            }
            let rows: Vec<u32> =
                [&[3u32, Column::NULL_ROW][..], &(20..60).collect::<Vec<_>>()].concat();
            let mut coded = src.slice(0..10);
            coded.extend_gather(&src, &rows);
            assert!(
                shares(&coded),
                "gathered rows of its own dictionary stay codes"
            );
            let mut want = plain.slice(0..10);
            want.extend_gather(&plain, &rows);
            assert_eq!(coded, want);
            assert_eq!(coded.value(11), Value::Null, "NULL_ROW");
            // An empty column takes the dictionary of the first coded rows,
            // and keeps it when cleared.
            let mut empty = Column::empty(DataType::Utf8);
            empty.extend_gather(&src, &rows);
            assert!(shares(&empty));
            assert_eq!(empty, want.slice(10..want.len()));
            empty.clear();
            assert!(shares(&empty));
            let mut appended = Column::empty(DataType::Utf8);
            appended.append(&src);
            appended.append(&src.slice(5..9));
            assert!(shares(&appended));
            assert_eq!(appended.len(), 154);
        }
    }

    #[test]
    fn rows_of_another_dictionary_decode_a_column_once() {
        let a = coded_column(&WORDS, 30, |i| i % 4 == 2);
        let b = coded_column(&WORDS[1..], 30, |_| false);
        let plain = |c: &Column| c.clone().decode();
        // Two codings of like words are two dictionaries.
        assert!(!Arc::ptr_eq(dict_of(&a), dict_of(&b)));

        let mut rows = a.clone();
        let Column::Str(s, _) = &mut rows else {
            unreachable!()
        };
        s.extend_rows(b.str_values(), 4..20);
        let mut want = plain(&a);
        let Column::Str(w, _) = &mut want else {
            unreachable!()
        };
        w.extend_rows(plain(&b).str_values(), 4..20);
        assert!(rows.str_values().dictionary().is_none());
        assert_eq!(rows.str_values(), want.str_values());

        let picks = [0, Column::NULL_ROW, 29, 3];
        let mut gathered = a.clone();
        gathered.extend_gather(&b, &picks);
        let mut want = plain(&a);
        want.extend_gather(&plain(&b), &picks);
        assert!(!is_coded(&gathered));
        assert_eq!(gathered, want);

        let mut appended = a.clone();
        appended.append(&plain(&b));
        let mut want = plain(&a);
        want.append(&plain(&b));
        assert!(!is_coded(&appended));
        assert_eq!(appended, want);

        let mut pushed = a.clone();
        pushed.push_value(&Value::Str("new".into()));
        assert!(!is_coded(&pushed));
        assert_eq!(pushed.value(30), Value::Str("new".into()));
        assert_eq!(pushed.slice(0..30), a);
    }

    #[test]
    fn a_shared_dictionary_is_held_once() {
        let src = coded_column(&WORDS, 100, |_| false);
        let parts = [src.slice(0..60), src.slice(60..100)];
        let dict = dict_of(&src).byte_size();
        assert_eq!(bytes_held(&parts), 100 + dict);
        assert_eq!(
            parts.iter().map(Column::byte_size).sum::<usize>(),
            100 + 2 * dict
        );
        let ints = Column::I64(vec![1, 2], None);
        let other = coded_column(&WORDS, 10, |_| false);
        assert_eq!(
            bytes_held([&parts[0], &ints, &other, &parts[1]]),
            100 + dict + 16 + other.byte_size()
        );
    }
}
