//! The transport abstraction the communication multiplexer runs on.
//!
//! The engine's exchange layer is transport-agnostic: a multiplexer only
//! ever `send`s whole wire messages to a peer node, `try_recv`s whatever
//! arrived, and sleeps on the transport's [`Doorbell`] in between,
//! regardless of whether the bytes move through the calibrated in-process
//! fabric models ([`RdmaEndpoint`], [`TcpEndpoint`]) or through genuine OS
//! sockets between processes
//! ([`SocketTransport`](crate::socket::SocketTransport)).
//!
//! Real transports can additionally observe *peer death* — a TCP reset or
//! EOF from a crashed node — which the simulated fabric never produces.
//! That is surfaced as [`TransportEvent::PeerGone`] so the exchange layer
//! can abort in-flight queries instead of waiting forever for last-markers
//! that will never come.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::fabric::NodeId;
use crate::rdma::RdmaEndpoint;
use crate::tcp::TcpEndpoint;

/// Something a transport produced while polling.
#[derive(Debug)]
pub enum TransportEvent {
    /// A whole wire message arrived from `src`.
    Message {
        /// Sending node.
        src: NodeId,
        /// Full message bytes (header + tuples).
        payload: Bytes,
    },
    /// The connection to `peer` is gone (process died, socket reset).
    /// Simulated transports never emit this.
    PeerGone {
        /// The node whose connection broke.
        peer: NodeId,
        /// Human-readable cause (for logs and error messages).
        reason: String,
    },
}

/// What one thread sleeps on while others find it work: the completion
/// event of §2.2.4, shared by everything that can give a multiplexer
/// something to do.
///
/// A ringer first makes its item findable (pushes it on a queue), then
/// [`ring`](Self::ring)s. The sleeper [`clear`](Self::clear)s the bell (or
/// returns from [`wait`](Self::wait), which clears it) and only then looks
/// at the queues. So an item is either seen by that look or pushed after
/// the clear, and then its ring — after the push — leaves the bell rung and
/// the next `wait` returns at once: no order of the two loses a ring.
/// Rings do not count; any number of them before a look is one.
#[derive(Debug, Default)]
pub struct Doorbell {
    rung: AtomicBool,
    /// Whether the sleeper is (about to be) blocked on `wake`.
    asleep: Mutex<bool>,
    wake: Condvar,
}

impl Doorbell {
    /// A bell nobody has rung.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Wake the sleeper, now or — if it is not asleep — the next time it
    /// tries to sleep. Costs one atomic swap while the bell is still rung
    /// from before, and a system call only when someone is asleep.
    pub fn ring(&self) {
        if !self.rung.swap(true, Ordering::SeqCst) && *self.asleep.lock() {
            self.wake.notify_one();
        }
    }

    /// Forget the rings so far. The sleeper's call, before it looks.
    pub fn clear(&self) {
        self.rung.store(false, Ordering::SeqCst);
    }

    /// Block until the bell has been rung since it was last cleared, and
    /// clear it. One sleeper per bell.
    pub fn wait(&self) {
        let mut asleep = self.asleep.lock();
        *asleep = true;
        // A ringer that found the bell silent takes the lock before it
        // notifies, so it does that either before this check or after
        // `wait` has let go of the lock — never in between.
        while !self.rung.swap(false, Ordering::SeqCst) {
            self.wake.wait(&mut asleep);
        }
        *asleep = false;
    }
}

/// A node's connection to the rest of the cluster, as seen by its
/// multiplexer: fire-and-forget message sends, non-blocking receive
/// polling, and a bell to sleep on when polling finds nothing.
pub trait Transport: Send {
    /// Queue `payload` for delivery to `dst`. Must not block on the peer;
    /// delivery failures surface later as [`TransportEvent::PeerGone`].
    fn send(&self, dst: NodeId, payload: Bytes);

    /// Poll for the next received message or connectivity event; `None`
    /// when nothing is pending.
    fn try_recv(&self) -> Option<TransportEvent>;

    /// The bell this transport rings after every event it has made
    /// available to [`try_recv`](Self::try_recv).
    fn doorbell(&self) -> Arc<Doorbell>;
}

impl Transport for RdmaEndpoint {
    fn send(&self, dst: NodeId, payload: Bytes) {
        self.post_send_bytes(dst, payload);
    }

    fn try_recv(&self) -> Option<TransportEvent> {
        self.poll_completion().map(|c| TransportEvent::Message {
            src: c.src,
            payload: c.payload,
        })
    }

    fn doorbell(&self) -> Arc<Doorbell> {
        RdmaEndpoint::doorbell(self)
    }
}

impl Transport for TcpEndpoint {
    fn send(&self, dst: NodeId, payload: Bytes) {
        TcpEndpoint::send(self, dst, &payload);
    }

    fn try_recv(&self) -> Option<TransportEvent> {
        self.recv_timeout(std::time::Duration::ZERO)
            .map(|(src, data)| TransportEvent::Message {
                src,
                payload: Bytes::from(data),
            })
    }

    fn doorbell(&self) -> Arc<Doorbell> {
        TcpEndpoint::doorbell(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// The ringer posts item `i` as soon as the sleeper has taken `i − 1`,
    /// which is just when the sleeper heads back to sleep: every one of the
    /// rings races the window between its look and its sleep. A ring lost
    /// there leaves both threads waiting for each other.
    #[test]
    fn no_ring_is_lost_between_the_look_and_the_sleep() {
        const ITEMS: u64 = 200_000;
        let bell = Doorbell::new();
        let posted = Arc::new(AtomicU64::new(0));
        let taken = Arc::new(AtomicU64::new(0));
        let (done, finished) = std::sync::mpsc::channel();
        let sleeper = {
            let (bell, posted, taken) =
                (Arc::clone(&bell), Arc::clone(&posted), Arc::clone(&taken));
            std::thread::spawn(move || {
                let mut wakeups = 0u64;
                while taken.load(Ordering::SeqCst) < ITEMS {
                    bell.wait();
                    wakeups += 1;
                    taken.store(posted.load(Ordering::SeqCst), Ordering::SeqCst);
                }
                let _ = done.send(wakeups);
            })
        };
        let ringer = std::thread::spawn(move || {
            for item in 1..=ITEMS {
                posted.store(item, Ordering::SeqCst);
                bell.ring();
                while taken.load(Ordering::SeqCst) < item {
                    std::hint::spin_loop();
                }
            }
        });
        let wakeups = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("sleeper and ringer wait for each other: a ring was lost");
        assert_eq!(wakeups, ITEMS, "one ring, one wake-up");
        sleeper.join().unwrap();
        ringer.join().unwrap();
    }

    #[test]
    fn rings_before_a_look_are_one_and_a_cleared_bell_is_silent() {
        let bell = Doorbell::new();
        bell.ring();
        bell.ring();
        bell.wait(); // at once: rung before the wait
        bell.ring();
        bell.clear();
        let sleeper = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.wait())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!sleeper.is_finished(), "a cleared bell must not wake");
        bell.ring();
        sleeper.join().unwrap();
    }
}
