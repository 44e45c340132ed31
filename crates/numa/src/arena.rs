//! Per-socket buffer arenas.
//!
//! RDMA message buffers must be pinned and registered with the HCA, which is
//! expensive (§2.2.2), so the paper reuses buffers through a message pool.
//! The pool must additionally be NUMA-aware: a worker should always receive
//! a buffer that lives on its own socket (§3.2.2). [`SocketArena`] provides
//! exactly that: one free list per socket, with buffers that return to their
//! home free list on drop. A free list may be bounded: what comes back to a
//! full one is freed, so a burst does not stay resident for ever.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::topology::SocketId;

#[derive(Debug, Default)]
struct Shelf {
    free: Vec<Vec<u8>>,
}

#[derive(Debug)]
struct ArenaInner {
    shelves: Vec<Mutex<Shelf>>,
    buffer_capacity: usize,
    /// Most idle buffers a shelf keeps.
    idle_limit: usize,
    /// Buffers taken and not yet dropped.
    outstanding: AtomicUsize,
}

/// A NUMA-aware pool of fixed-capacity byte buffers.
///
/// Cloning is cheap; clones share the same free lists.
#[derive(Debug, Clone)]
pub struct SocketArena {
    inner: Arc<ArenaInner>,
}

impl SocketArena {
    /// Create an arena spanning `sockets` sockets handing out buffers of
    /// `buffer_capacity` bytes.
    ///
    /// # Panics
    /// Panics if `sockets` is zero or `buffer_capacity` is zero.
    pub fn new(sockets: u16, buffer_capacity: usize) -> Self {
        Self::bounded(sockets, buffer_capacity, usize::MAX)
    }

    /// [`new`](Self::new), with shelves that keep at most `idle_limit` idle
    /// buffers each and free whatever else is returned to them.
    ///
    /// # Panics
    /// Panics if `sockets` is zero or `buffer_capacity` is zero.
    pub fn bounded(sockets: u16, buffer_capacity: usize, idle_limit: usize) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(buffer_capacity > 0, "buffers must have non-zero capacity");
        let shelves = (0..sockets).map(|_| Mutex::new(Shelf::default())).collect();
        Self {
            inner: Arc::new(ArenaInner {
                shelves,
                buffer_capacity,
                idle_limit,
                outstanding: AtomicUsize::new(0),
            }),
        }
    }

    /// Capacity of every buffer handed out by this arena.
    pub fn buffer_capacity(&self) -> usize {
        self.inner.buffer_capacity
    }

    /// Number of sockets the arena spans.
    pub fn sockets(&self) -> u16 {
        self.inner.shelves.len() as u16
    }

    /// Number of currently pooled (idle) buffers on `socket`.
    pub fn idle_on(&self, socket: SocketId) -> usize {
        self.inner.shelves[socket.0 as usize].lock().free.len()
    }

    /// Buffers taken from this arena that have not been dropped yet.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Relaxed)
    }

    /// Take a buffer homed on `socket`, reusing a pooled one when available.
    ///
    /// Reuse corresponds to skipping memory-region registration in the
    /// paper; a fresh allocation corresponds to paying it.
    pub fn take(&self, socket: SocketId) -> PooledBuffer {
        let shelf = &self.inner.shelves[socket.0 as usize];
        let (data, reused) = match shelf.lock().free.pop() {
            Some(mut buf) => {
                buf.clear();
                (buf, true)
            }
            None => (Vec::with_capacity(self.inner.buffer_capacity), false),
        };
        self.inner.outstanding.fetch_add(1, Ordering::Relaxed);
        PooledBuffer {
            data,
            socket,
            reused,
            home: Arc::downgrade(&self.inner),
        }
    }
}

/// A byte buffer homed on a NUMA socket; returns to its arena on drop.
#[derive(Debug)]
pub struct PooledBuffer {
    data: Vec<u8>,
    socket: SocketId,
    reused: bool,
    home: std::sync::Weak<ArenaInner>,
}

impl PooledBuffer {
    /// Socket this buffer's memory lives on.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// Whether this buffer came from the pool (`true`) or was freshly
    /// allocated (`false`, i.e. had to pay "registration").
    pub fn was_reused(&self) -> bool {
        self.reused
    }

    /// Read access to the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the underlying vector.
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Detach the bytes from the pool, consuming the buffer. The memory will
    /// not be returned to the arena.
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.data)
    }
}

/// The bytes written so far — what lets a filled buffer travel as the owner
/// behind a shared, immutable view and come home when the last view goes.
impl AsRef<[u8]> for PooledBuffer {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PooledBuffer {
    fn drop(&mut self) {
        let Some(home) = self.home.upgrade() else {
            return;
        };
        home.outstanding.fetch_sub(1, Ordering::Relaxed);
        if self.data.capacity() == 0 {
            return; // detached via into_vec
        }
        let mut shelf = home.shelves[self.socket.0 as usize].lock();
        if shelf.free.len() < home.idle_limit {
            shelf.free.push(std::mem::take(&mut self.data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_reused() {
        let arena = SocketArena::new(2, 64);
        let b = arena.take(SocketId(1));
        assert!(!b.was_reused());
        assert_eq!(b.socket(), SocketId(1));
        drop(b);
        assert_eq!(arena.idle_on(SocketId(1)), 1);
        let b2 = arena.take(SocketId(1));
        assert!(b2.was_reused());
        assert_eq!(arena.idle_on(SocketId(1)), 0);
    }

    #[test]
    fn buffers_return_to_their_own_socket() {
        let arena = SocketArena::new(2, 64);
        let b0 = arena.take(SocketId(0));
        let b1 = arena.take(SocketId(1));
        drop(b0);
        drop(b1);
        assert_eq!(arena.idle_on(SocketId(0)), 1);
        assert_eq!(arena.idle_on(SocketId(1)), 1);
    }

    #[test]
    fn reused_buffer_is_cleared() {
        let arena = SocketArena::new(1, 16);
        let mut b = arena.take(SocketId(0));
        b.as_mut_vec().extend_from_slice(b"hello");
        drop(b);
        let b = arena.take(SocketId(0));
        assert!(b.is_empty());
    }

    #[test]
    fn into_vec_detaches_from_pool() {
        let arena = SocketArena::new(1, 16);
        let mut b = arena.take(SocketId(0));
        b.as_mut_vec().push(7);
        let v = b.into_vec();
        assert_eq!(v, vec![7]);
        assert_eq!(arena.idle_on(SocketId(0)), 0);
    }

    #[test]
    fn a_full_shelf_frees_what_comes_back() {
        let arena = SocketArena::bounded(1, 16, 2);
        let taken: Vec<_> = (0..5).map(|_| arena.take(SocketId(0))).collect();
        assert_eq!(arena.outstanding(), 5);
        drop(taken);
        assert_eq!(arena.outstanding(), 0);
        assert_eq!(arena.idle_on(SocketId(0)), 2);
        // Detaching a buffer ends its loan too.
        let detached = arena.take(SocketId(0)).into_vec();
        assert_eq!(detached.capacity(), 16);
        assert_eq!((arena.outstanding(), arena.idle_on(SocketId(0))), (0, 1));
    }

    #[test]
    fn drop_after_arena_gone_is_safe() {
        let arena = SocketArena::new(1, 16);
        let b = arena.take(SocketId(0));
        drop(arena);
        drop(b); // must not panic
    }

    #[test]
    fn clones_share_free_lists() {
        let a = SocketArena::new(1, 8);
        let b = a.clone();
        drop(a.take(SocketId(0)));
        assert_eq!(b.idle_on(SocketId(0)), 1);
    }
}
