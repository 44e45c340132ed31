//! Offline shim for the `bytes` crate.
//!
//! Implements the subset of the real crate's API that this workspace uses:
//! [`Bytes`] as a cheaply cloneable, reference-counted, sliceable view of
//! an immutable byte buffer. Cloning and slicing never copy the data —
//! only the `Arc` refcount moves — which is exactly the "retain" behaviour
//! the exchange operators rely on for zero-copy broadcast. Neither does
//! building one: a `Vec<u8>`, or any other owner of bytes
//! ([`Bytes::from_owner`]), is moved behind the reference count as it is,
//! and dropped when the last view of it goes — which is how a pooled
//! message buffer finds its way back to its pool.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// What a [`Bytes`] is a view of.
#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Owned(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

/// A cheaply cloneable slice of a shared, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Self::from_static(&[])
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A view of a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self {
            data: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// A view of the bytes `owner` holds, without copying them. The owner
    /// is dropped when the last clone or slice of the result is. (The real
    /// crate asks for `Send` only; this shim has no `unsafe` to share a
    /// non-`Sync` owner with, so it asks for `Sync` as well.)
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Self {
            data: Storage::Owned(Arc::new(owner)),
            start: 0,
            end,
        }
    }

    /// Copy a slice into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of this buffer. Shares storage with `self`; no copy.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "slice {begin}..{end} out of range for Bytes of length {len}"
        );
        Self {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Copy this view out into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::from_owner(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let whole = match &self.data {
            Storage::Static(bytes) => bytes,
            Storage::Owned(owner) => (**owner).as_ref(),
        };
        &whole[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s, &[2u8, 3, 4][..]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(1..);
        assert_eq!(s2, &[3u8, 4][..]);
    }

    #[test]
    fn clone_is_equal() {
        let b = Bytes::from_static(b"abc");
        assert_eq!(b.clone(), b);
        assert_eq!(b.to_vec(), vec![b'a', b'b', b'c']);
    }

    #[test]
    fn conversions_do_not_copy() {
        let v = vec![7u8; 64];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.slice(8..).as_ptr(), at.wrapping_add(8));
        static S: [u8; 3] = *b"xyz";
        assert_eq!(Bytes::from_static(&S).as_ptr(), S.as_ptr());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn owner_is_dropped_with_the_last_view() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static DROPPED: AtomicBool = AtomicBool::new(false);
        struct Owner(Vec<u8>);
        impl AsRef<[u8]> for Owner {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Owner {
            fn drop(&mut self) {
                DROPPED.store(true, Ordering::SeqCst);
            }
        }
        let whole = Bytes::from_owner(Owner(vec![1, 2, 3, 4]));
        let tail = whole.slice(2..);
        let copy = whole.clone();
        drop(whole);
        drop(copy);
        assert!(!DROPPED.load(Ordering::SeqCst), "a slice is still alive");
        assert_eq!(tail, &[3u8, 4][..]);
        drop(tail);
        assert!(DROPPED.load(Ordering::SeqCst));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        Bytes::from(vec![1u8]).slice(0..2);
    }
}
