//! Offline shim for the `crossbeam` crate.
//!
//! Provides [`channel`]: an unbounded multi-producer multi-consumer
//! channel with `crossbeam-channel`'s API shape (cloneable `Sender` *and*
//! `Receiver`, `recv_timeout`, `try_recv`) built on a mutex-protected
//! queue and a condition variable. Disconnection semantics match the real
//! crate: `recv` fails once all senders are gone and the queue is drained;
//! `send` fails once all receivers are gone.

/// The `crossbeam-channel` facade: unbounded MPMC channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message, waking one blocked receiver.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.push_back(value);
            drop(q);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Pass through the queue lock before notifying. A receiver
                // reads `senders` and enters `wait` under that lock, so
                // without this the notification can fall between its read
                // (still 1) and its wait: a lost wakeup that parks it for
                // good, and with it whoever joins its thread.
                drop(self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()));
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue a message, blocking until one is available or all
        /// senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.shared.ready.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Dequeue a message, blocking for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, res) = self
                    .shared
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
                if res.timed_out() && q.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Dequeue a message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(7), Err(SendError(7)));
        }

        #[test]
        fn timeout_expires() {
            let (_tx, rx) = unbounded::<i32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        /// The last sender going away must wake a receiver that is just
        /// entering `recv` (a node's query worker looping back for its
        /// next stage while the control thread retires the query). The
        /// window is a few instructions wide, so one long-lived receiver
        /// works through many channels while the dropping side sweeps its
        /// delay across that window; a drop that notified without passing
        /// through the queue lock parked the receiver in about every
        /// third `--release` run of this test (and once per ~40 000
        /// queries on a two-node socket cluster).
        #[test]
        fn sender_drop_racing_recv_never_loses_the_wakeup() {
            const ROUNDS: usize = 200_000;
            let (hand_over, channels) = std::sync::mpsc::channel::<Receiver<i32>>();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let receiver = std::thread::spawn(move || {
                for rx in channels {
                    if done_tx.send(rx.recv()).is_err() {
                        return;
                    }
                }
            });
            for round in 0..ROUNDS {
                let (tx, rx) = unbounded::<i32>();
                hand_over.send(rx).unwrap();
                for _ in 0..round % 512 {
                    std::hint::spin_loop();
                }
                drop(tx);
                assert_eq!(
                    done_rx.recv_timeout(Duration::from_secs(10)),
                    Ok(Err(RecvError)),
                    "round {round}: receiver still parked after the last sender dropped"
                );
            }
            drop(hand_over);
            receiver.join().unwrap();
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv().unwrap());
            }
            h.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }
    }
}
