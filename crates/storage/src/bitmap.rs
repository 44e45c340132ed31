//! Validity bitmaps for nullable columns.

/// A packed bitmap tracking which rows of a column are valid (non-NULL).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut bm = Self {
            words: vec![word; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, value: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if value {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    /// Append `n` bits, all set to `value`.
    pub fn extend_filled(&mut self, n: usize, value: bool) {
        let old = self.len;
        self.len += n;
        self.words
            .resize(self.len.div_ceil(64), if value { u64::MAX } else { 0 });
        if value && !old.is_multiple_of(64) {
            // The word the old tail lives in keeps its low bits and gets
            // every bit above them.
            self.words[old / 64] |= u64::MAX << (old % 64);
        }
        self.mask_tail();
    }

    /// Append all bits of `other`, a word at a time.
    pub fn extend_from(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        self.len += other.len;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // Bits past `len` are kept zero, so each source word ORs its
            // low part onto the open word and starts the next with the rest.
            self.words.reserve(other.words.len());
            for &w in &other.words {
                *self.words.last_mut().expect("open word") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
            self.words.truncate(self.len.div_ceil(64));
        }
    }

    /// Bits `range` as a bitmap of their own, a word at a time.
    ///
    /// # Panics
    /// Panics when `range` is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bitmap {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "bits {range:?} out of range {}",
            self.len
        );
        let (first, shift) = (range.start / 64, range.start % 64);
        let words = (first..first + range.len().div_ceil(64))
            .map(|w| {
                let high = match (shift, self.words.get(w + 1)) {
                    (0, _) | (_, None) => 0,
                    (_, Some(next)) => next << (64 - shift),
                };
                self.words[w] >> shift | high
            })
            .collect();
        let mut bm = Self {
            words,
            len: range.len(),
        };
        bm.mask_tail();
        bm
    }

    /// Bit at `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit {idx} out of range {}", self.len);
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Set bit `idx` to `value`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit {idx} out of range {}", self.len);
        if value {
            self.words[idx / 64] |= 1 << (idx % 64);
        } else {
            self.words[idx / 64] &= !(1 << (idx % 64));
        }
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every bit is set (vacuously true when empty).
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_set(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn filled_true_and_false() {
        let t = Bitmap::filled(100, true);
        assert_eq!(t.count_set(), 100);
        assert!(t.all_set());
        let f = Bitmap::filled(100, false);
        assert_eq!(f.count_set(), 0);
    }

    #[test]
    fn filled_true_masks_tail_bits() {
        // count_set must not count bits beyond len.
        let t = Bitmap::filled(65, true);
        assert_eq!(t.count_set(), 65);
    }

    #[test]
    fn bulk_appends_equal_bit_by_bit_pushes_at_every_offset() {
        let pattern = |i: usize| i % 3 == 1 || i % 7 == 2;
        for offset in 0..=130 {
            for extra in [0, 1, 63, 64, 65, 130] {
                let head: Bitmap = (0..offset).map(pattern).collect();
                let tail: Bitmap = (offset..offset + extra).map(pattern).collect();
                let mut joined = head.clone();
                joined.extend_from(&tail);
                let pushed: Bitmap = (0..offset + extra).map(pattern).collect();
                assert_eq!(joined, pushed, "extend_from at {offset} + {extra}");

                for value in [true, false] {
                    let mut filled = head.clone();
                    filled.extend_filled(extra, value);
                    let mut pushed = head.clone();
                    (0..extra).for_each(|_| pushed.push(value));
                    assert_eq!(
                        filled, pushed,
                        "extend_filled({value}) at {offset} + {extra}"
                    );
                    assert_eq!(
                        filled.count_set(),
                        head.count_set() + if value { extra } else { 0 }
                    );
                }
            }
        }
    }

    #[test]
    fn slices_equal_their_bits_at_every_offset() {
        let pattern = |i: usize| i % 3 == 1 || i % 7 == 2;
        let whole: Bitmap = (0..200).map(pattern).collect();
        for start in 0..=130 {
            for len in [0, 1, 63, 64, 65, 70] {
                let want: Bitmap = (start..start + len).map(pattern).collect();
                assert_eq!(whole.slice(start..start + len), want, "{start} + {len}");
            }
        }
    }

    #[test]
    fn set_flips_bits() {
        let mut bm = Bitmap::filled(10, false);
        bm.set(7, true);
        assert!(bm.get(7));
        bm.set(7, false);
        assert!(!bm.get(7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_bounds() {
        Bitmap::filled(4, true).get(4);
    }

    #[test]
    fn from_iterator() {
        let bm: Bitmap = [true, false, true].into_iter().collect();
        assert_eq!(bm.len(), 3);
        assert!(bm.get(0) && !bm.get(1) && bm.get(2));
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new();
        assert!(bm.is_empty());
        assert!(bm.all_set());
    }
}
