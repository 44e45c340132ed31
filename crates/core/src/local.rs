//! Morsel-driven parallelism inside one server (§3.2, \[20\]).
//!
//! Query pipelines are parallelized by splitting their input into
//! constant-size morsels that workers claim dynamically from a shared
//! dispenser — the same mechanism that gives HyPer its intra-server work
//! stealing: a fast worker simply claims more morsels, so load imbalances
//! never stall a pipeline. The classic-exchange baseline disables stealing
//! by assigning morsels to workers statically, which is what makes it skew-
//! sensitive (§3.1).

use std::sync::atomic::{AtomicUsize, Ordering};

use hsqp_numa::{SocketId, Topology};
use hsqp_storage::Morsel;

/// Identity of a worker thread inside one server.
#[derive(Debug, Clone, Copy)]
pub struct WorkerCtx {
    /// Worker index within the node, `0..workers`.
    pub id: u16,
    /// NUMA socket this worker is pinned to.
    pub socket: SocketId,
}

/// Per-node worker pool configuration for pipeline execution.
#[derive(Debug, Clone)]
pub struct MorselDriver {
    workers: u16,
    sockets: u16,
    cores_per_socket: u16,
    morsel_size: usize,
    /// Dynamic morsel dispatch (work stealing) vs static assignment.
    stealing: bool,
}

impl MorselDriver {
    /// Driver with `workers` workers spread over `topology`'s sockets.
    ///
    /// # Panics
    /// Panics if `workers` or `morsel_size` is zero.
    pub fn new(workers: u16, topology: &Topology, morsel_size: usize, stealing: bool) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(morsel_size > 0, "morsel size must be positive");
        Self {
            workers,
            sockets: topology.sockets(),
            cores_per_socket: topology.cores_per_socket(),
            morsel_size,
            stealing,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> u16 {
        self.workers
    }

    /// Configured morsel size.
    pub fn morsel_size(&self) -> usize {
        self.morsel_size
    }

    /// Whether morsels are dispatched dynamically.
    pub fn stealing(&self) -> bool {
        self.stealing
    }

    /// Socket a worker is pinned to (workers fill sockets round-robin by
    /// core, mirroring OS-level pinning of one thread per hardware context).
    pub fn worker_socket(&self, worker: u16) -> SocketId {
        let core = worker % (self.sockets * self.cores_per_socket);
        SocketId(core / self.cores_per_socket)
    }

    /// Run `work` over all morsels of `total_rows` rows in parallel and
    /// return each worker's state.
    ///
    /// Every worker gets a state from `init`; morsels are claimed from a
    /// shared atomic dispenser when stealing is on, or round-robin by
    /// worker id when off.
    pub fn run<S, I, W>(&self, total_rows: usize, init: I, work: W) -> Vec<S>
    where
        S: Send,
        I: Fn(WorkerCtx) -> S + Sync,
        W: Fn(&mut S, WorkerCtx, Morsel) + Sync,
    {
        self.run_then(total_rows, init, work, |_, _| {})
    }

    /// [`run`](Self::run), where every worker — still on its own thread,
    /// and while the others may still be working — calls `then` on its
    /// state once it finds no morsel left for it: what a pipeline does
    /// after its last row without waiting for the whole node (an exchange
    /// goes on receiving when it has nothing left to send).
    pub fn run_then<S, I, W, T>(&self, total_rows: usize, init: I, work: W, then: T) -> Vec<S>
    where
        S: Send,
        I: Fn(WorkerCtx) -> S + Sync,
        W: Fn(&mut S, WorkerCtx, Morsel) + Sync,
        T: Fn(&mut S, WorkerCtx) + Sync,
    {
        let n_morsels = total_rows.div_ceil(self.morsel_size);
        let morsel = |i: usize| Morsel {
            start: i * self.morsel_size,
            end: ((i + 1) * self.morsel_size).min(total_rows),
        };

        if self.workers == 1 {
            let ctx = WorkerCtx {
                id: 0,
                socket: self.worker_socket(0),
            };
            let mut state = init(ctx);
            for i in 0..n_morsels {
                work(&mut state, ctx, morsel(i));
            }
            then(&mut state, ctx);
            return vec![state];
        }

        let next = AtomicUsize::new(0);
        let mut states: Vec<Option<S>> = (0..self.workers).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers as usize);
            for w in 0..self.workers {
                let next = &next;
                let work = &work;
                let init = &init;
                let then = &then;
                let ctx = WorkerCtx {
                    id: w,
                    socket: self.worker_socket(w),
                };
                handles.push(scope.spawn(move || {
                    let mut state = init(ctx);
                    if self.stealing {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_morsels {
                                break;
                            }
                            work(&mut state, ctx, morsel(i));
                        }
                    } else {
                        let mut i = w as usize;
                        while i < n_morsels {
                            work(&mut state, ctx, morsel(i));
                            i += self.workers as usize;
                        }
                    }
                    then(&mut state, ctx);
                    state
                }));
            }
            for (slot, h) in states.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("worker panicked"));
            }
        });
        states.into_iter().map(|s| s.expect("joined")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn driver(workers: u16, stealing: bool) -> MorselDriver {
        MorselDriver::new(workers, &Topology::uniform(workers.max(1)), 100, stealing)
    }

    #[test]
    fn all_rows_processed_exactly_once() {
        let d = driver(4, true);
        let total = AtomicU64::new(0);
        let states = d.run(
            10_042,
            |_| 0u64,
            |s, _, m| {
                *s += m.len() as u64;
                total.fetch_add(m.len() as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(states.iter().sum::<u64>(), 10_042);
        assert_eq!(total.load(Ordering::Relaxed), 10_042);
    }

    #[test]
    fn single_worker_runs_inline() {
        let d = driver(1, true);
        let states = d.run(
            250,
            |_| Vec::new(),
            |s: &mut Vec<usize>, _, m| s.push(m.len()),
        );
        assert_eq!(states.len(), 1);
        assert_eq!(states[0], vec![100, 100, 50]);
    }

    #[test]
    fn static_assignment_is_deterministic() {
        let d = driver(2, false);
        // 5 morsels: worker 0 gets 0,2,4; worker 1 gets 1,3.
        let states = d.run(
            500,
            |_| Vec::new(),
            |s: &mut Vec<usize>, _, m| s.push(m.start),
        );
        assert_eq!(states[0], vec![0, 200, 400]);
        assert_eq!(states[1], vec![100, 300]);
    }

    #[test]
    fn stealing_balances_skewed_work() {
        // Morsel 0 does not finish until the other seven have run, so the
        // driver returns only if the other workers took all of them.
        use std::sync::{Condvar, Mutex};
        let d = MorselDriver::new(4, &Topology::uniform(4), 1, true);
        let others = (Mutex::new(0usize), Condvar::new());
        let states = d.run(
            8,
            |_| Vec::new(),
            |ran: &mut Vec<usize>, _, m| {
                let (done, bell) = &others;
                if m.start == 0 {
                    let (done, waited) = bell
                        .wait_timeout_while(done.lock().unwrap(), Duration::from_secs(10), |n| {
                            *n < 7
                        })
                        .unwrap();
                    assert!(
                        !waited.timed_out(),
                        "only {} other morsels ran in 10 s: nobody stole them",
                        *done
                    );
                } else {
                    *done.lock().unwrap() += 1;
                    bell.notify_all();
                }
                ran.push(m.start);
            },
        );
        let slow = states
            .iter()
            .find(|ran| ran.contains(&0))
            .expect("morsel 0 ran");
        assert_eq!(
            slow,
            &[0],
            "the worker held up by morsel 0 ran nothing else"
        );
        assert_eq!(states.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn every_worker_runs_its_epilogue_after_its_last_morsel() {
        for (workers, stealing) in [(1, true), (3, true), (3, false)] {
            let d = driver(workers, stealing);
            let states = d.run_then(
                1_000,
                |_| (0usize, None),
                |(rows, _), _, m| *rows += m.len(),
                |(rows, seen_at_end), w| *seen_at_end = Some((*rows, w.id)),
            );
            assert_eq!(states.iter().map(|s| s.0).sum::<usize>(), 1_000);
            for (id, (rows, seen_at_end)) in states.into_iter().enumerate() {
                assert_eq!(seen_at_end, Some((rows, id as u16)));
            }
        }
    }

    #[test]
    fn worker_sockets_follow_topology() {
        let topo = Topology::new(2, 2, hsqp_numa::CostModel::free());
        let d = MorselDriver::new(4, &topo, 10, true);
        assert_eq!(d.worker_socket(0), SocketId(0));
        assert_eq!(d.worker_socket(1), SocketId(0));
        assert_eq!(d.worker_socket(2), SocketId(1));
        assert_eq!(d.worker_socket(3), SocketId(1));
    }

    #[test]
    fn zero_rows_is_fine() {
        let d = driver(3, true);
        let states = d.run(0, |_| 1u32, |_, _, _| panic!("no morsels expected"));
        assert_eq!(states, vec![1, 1, 1]);
    }
}
