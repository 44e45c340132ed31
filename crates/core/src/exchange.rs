//! Decoupled exchange operators and the communication multiplexer (§3.2).
//!
//! The decoupled exchange operator only ever talks to its node-local
//! multiplexer: workers partition and serialize tuples into pooled message
//! buffers (Figure 7, steps 1–4); the multiplexer — one dedicated network
//! thread per server — ships full messages according to the round-robin
//! network schedule and routes incoming messages into per-NUMA-socket
//! receive queues (step 5); workers deserialize NUMA-local messages first
//! and steal from other sockets when idle (steps 5a/5b).
//!
//! The classic exchange operator model is supported as a baseline: `n·t`
//! parallel units, hash space split `n·t` ways, static unit↔partition
//! binding (no stealing), broadcast duplicated per *unit* rather than per
//! server, and no network scheduling.
//!
//! Message layout on the wire (after Figure 7's message header): the first
//! part of a message (RDMA key, NUMA node, retain count) never leaves the
//! machine; only the second part is transmitted — query id, exchange id,
//! last-message flag, partition bucket, used byte count ([`HEADER_LEN`]
//! bytes), then the tuples as one or more chunks of column runs, the
//! [`crate::wire`] format. The query id lets the multiplexers route the
//! traffic of several concurrently running queries over the same fabric.
//! What a query sends is counted once, by the node that hands it to its
//! multiplexer, into that query's [`TrafficCounter`] there.
//!
//! The data path is column-at-a-time at both ends. Sending, a worker turns
//! each morsel into a **bucket vector** (one CRC32 per row, computed a key
//! column at a time, [`crate::exec::bucket_vector`]), scatters the row ids
//! into one **selection vector** per destination, and hands each selection
//! to its [`MessageWriter`], which serializes it as **column runs** into
//! the destination's open message and cuts messages from a prefix sum of
//! row sizes, so that none outgrows its pooled buffer. Repartition,
//! broadcast and gather differ only in which destinations they write to.
//! Receiving is **decode-into**: a worker appends every chunk of every
//! message it pops straight onto columns of the consumer's choosing
//! ([`crate::wire::RowDeserializer::decode_into`]; see [`crate::exec`] for
//! the two consumers) — no table per message.
//!
//! **Who owns a message buffer.** The [`MessagePool`] does, always. A
//! writer borrows one ([`MessagePool::take`]), fills it, and passes it on
//! as a [`Bytes`] built *around* it ([`Bytes::from_owner`]): the local
//! receive hub, the multiplexer's send queues, every target of a broadcast
//! and the simulated fabric's receiver all hold clones of that one view,
//! and the buffer goes back on its socket's shelf when the last of them is
//! dropped — the paper's retain counter, kept by the reference count. No
//! one hands a buffer back by hand, so none is handed back twice, and a
//! writer that is dropped half-way (a cancelled query) returns what it had
//! open. A shelf keeps a bounded number of idle buffers and frees the
//! rest. Last-markers and abort frames are fifteen bytes and never come
//! from the pool.
//!
//! **One message loop.** Workers do not send everything and then receive
//! everything: between two morsels of its send phase a worker looks at
//! its receive queues without blocking ([`RecvHub::poll`]) and lands
//! whatever has arrived, and when its morsels are gone it blocks on them
//! ([`RecvHub::pop_cancellable`]) until the last-markers are in — one
//! from every node, its own included. The last worker of a node to run out
//! of morsels sends that node's last-markers. So the messages of an
//! exchange are never all resident at once, and a buffer is back in its
//! pool about a morsel after it left — as long as its receiver is running:
//! there is no flow control, and a peer that is descheduled for a time
//! slice finds a time slice's worth of messages waiting.
//!
//! **Who wakes the multiplexer.** With nothing queued to send it sleeps on
//! its transport's [`Doorbell`] — untimed — and three things end a sleep. A
//! worker queuing a [`MuxCmd`]: [`MuxSender::send`] is the only way to
//! queue one, and it rings. The transport completing a receive: the
//! simulated networks ring the destination's bell after the push onto its
//! inbox, a socket's reader threads after every message and after the
//! `PeerGone` of a dead peer. And, for one that is waiting inside a
//! scheduler round rather than on its bell, the [`NetScheduler`]'s barrier
//! opening. No ring is lost, because every ringer pushes first and rings
//! second while the multiplexer silences the bell first and looks second
//! (the argument is [`Doorbell`]'s); a hub abort or a shutdown reaches a
//! sleeping multiplexer as the command or the frame that carries it. A
//! multiplexer is a party to the scheduler's barrier only while it has
//! messages queued: it joins with the first, leaves with the last, and
//! takes its phase from the barrier's generation, so those present share
//! a phase, a phase is a permutation (§3.2.3), a lone sender's barrier is
//! a barrier of one, and a node that only receives turns no rounds at
//! all. [`MuxSender::wakeups`] and [`MuxSender::empty_wakeups`] count what
//! this costs: about one wake-up per message sent or received, next to
//! none of them for nothing.
//!
//! [`NetScheduler`]: hsqp_net::NetScheduler

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, SendError, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};

use hsqp_net::{
    Doorbell, Fabric, NodeId, QueryId, Schedule, Transport as NetTransport, TransportEvent,
};
use hsqp_numa::{AllocPolicy, PooledBuffer, SocketArena, SocketId, Topology};
use hsqp_storage::Table;

use crate::exec::NodeCtx;
use crate::wire::{rows_that_fit, RowSerializer, Rows};

/// Size of the wire header preceding serialized tuples.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 2 + 4;

/// Header flag: the sender's final message for this exchange.
pub const FLAG_LAST: u8 = 1;
/// Header flag: a classic-mode broadcast duplicate — it pays wire and
/// receive cost but its tuple data must not be consumed again.
pub const FLAG_DUP: u8 = 2;
/// Header flag: the sending node failed this query mid-exchange; receivers
/// abort the query's receive-hub state so blocked consumers unblock
/// instead of waiting for last-markers that will never come.
pub const FLAG_ABORT: u8 = 4;

/// Encode the transmitted message header.
pub fn encode_header(
    query: QueryId,
    exchange: u32,
    flags: u8,
    bucket: u16,
    used: u32,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&query.0.to_le_bytes());
    out.extend_from_slice(&exchange.to_le_bytes());
    out.push(flags);
    out.extend_from_slice(&bucket.to_le_bytes());
    out.extend_from_slice(&used.to_le_bytes());
}

/// Overwrite the header at the front of an already-built message.
pub fn patch_header(query: QueryId, exchange: u32, flags: u8, bucket: u16, buf: &mut [u8]) {
    let used = (buf.len() - HEADER_LEN) as u32;
    buf[0..4].copy_from_slice(&query.0.to_le_bytes());
    buf[4..8].copy_from_slice(&exchange.to_le_bytes());
    buf[8] = flags;
    buf[9..11].copy_from_slice(&bucket.to_le_bytes());
    buf[11..15].copy_from_slice(&used.to_le_bytes());
}

/// Decoded message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Query this message belongs to.
    pub query: QueryId,
    /// Logical exchange operator (unique within the query) this message
    /// belongs to.
    pub exchange: u32,
    /// Whether this is the sender's final message for this exchange.
    pub last: bool,
    /// Whether this is a classic-mode broadcast duplicate.
    pub dup: bool,
    /// Whether the sender aborted this query mid-exchange.
    pub abort: bool,
    /// Partition bucket (classic mode routes on it; 0 in hybrid mode).
    pub bucket: u16,
    /// Bytes of tuple data following the header.
    pub used: u32,
}

/// Decode a wire message header.
///
/// # Panics
/// Panics if the buffer is shorter than [`HEADER_LEN`].
pub fn decode_header(buf: &[u8]) -> Header {
    assert!(buf.len() >= HEADER_LEN, "message shorter than header");
    Header {
        query: QueryId(u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"))),
        exchange: u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")),
        last: buf[8] & FLAG_LAST != 0,
        dup: buf[8] & FLAG_DUP != 0,
        abort: buf[8] & FLAG_ABORT != 0,
        bucket: u16::from_le_bytes(buf[9..11].try_into().expect("2 bytes")),
        used: u32::from_le_bytes(buf[11..15].try_into().expect("4 bytes")),
    }
}

// ---------------------------------------------------------------------------
// Message pool
// ---------------------------------------------------------------------------

/// Bytes of idle buffers a pool shelf keeps, whatever the message size …
const SHELF_IDLE_BYTES: usize = 4 << 20;
/// … but never fewer buffers than this.
const SHELF_IDLE_MIN: usize = 4;

/// NUMA-aware message pool with memory-region registration accounting.
///
/// RDMA buffers must be pinned and registered with the HCA — expensive, so
/// the engine reuses buffers (§2.2.2, §3.2.2). The pool keeps the idle
/// buffers of each socket on a shelf; taking one off a shelf is free,
/// taking one when the shelf is empty allocates it and pays the
/// registration cost on the fabric's CPU accounting. A buffer returns to
/// its shelf by being dropped, wherever and in whatever wrapping that
/// happens (see the module docs); a shelf holding its fill of idle
/// buffers frees what else comes back.
pub struct MessagePool {
    fabric: Arc<Fabric>,
    node: NodeId,
    capacity: usize,
    arena: SocketArena,
    registrations: AtomicU64,
    reuses: AtomicU64,
    takes: AtomicU64,
    registration_cost: Duration,
}

impl MessagePool {
    /// Pool for `sockets` sockets handing out buffers of `capacity` bytes.
    pub fn new(fabric: Arc<Fabric>, node: NodeId, sockets: u16, capacity: usize) -> Self {
        let buffer = capacity + HEADER_LEN;
        Self {
            fabric,
            node,
            capacity,
            arena: SocketArena::bounded(
                sockets,
                buffer,
                (SHELF_IDLE_BYTES / buffer).max(SHELF_IDLE_MIN),
            ),
            registrations: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            takes: AtomicU64::new(0),
            registration_cost: Duration::from_micros(40),
        }
    }

    /// Buffer capacity (message size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Take an empty message buffer for a worker on `worker_socket` under
    /// `policy`; [`PooledBuffer::socket`] tells where its memory lives.
    /// Dropping the buffer — or the last [`Bytes`] built around it —
    /// returns it.
    pub fn take(
        &self,
        policy: AllocPolicy,
        worker_socket: SocketId,
        topology: &Topology,
    ) -> PooledBuffer {
        let seq = self.takes.fetch_add(1, Ordering::Relaxed);
        let buf = self
            .arena
            .take(topology.alloc_socket(policy, worker_socket, seq));
        if buf.was_reused() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.registrations.fetch_add(1, Ordering::Relaxed);
            // Pin + register the fresh region with the HCA.
            self.fabric
                .charge_send_cpu(self.node, self.registration_cost);
        }
        buf
    }

    /// Number of buffers taken so far: every one of them was either
    /// registered or reused.
    pub fn takes(&self) -> u64 {
        self.takes.load(Ordering::Relaxed)
    }

    /// Number of memory-region registrations paid so far.
    pub fn registrations(&self) -> u64 {
        self.registrations.load(Ordering::Relaxed)
    }

    /// Number of times a pooled registration was reused.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Buffers taken and not yet returned: open in a writer, queued, on
    /// the wire, or waiting to be decoded. Zero on an idle node.
    pub fn outstanding(&self) -> usize {
        self.arena.outstanding()
    }

    /// Buffers lying idle on the shelves.
    pub fn idle(&self) -> usize {
        (0..self.arena.sockets())
            .map(|s| self.arena.idle_on(SocketId(s)))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

/// Wire messages and their bytes, headers included.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes of the messages.
    pub bytes: u64,
    /// Number of messages.
    pub messages: u64,
}

impl Traffic {
    /// One header-only frame: a last-marker or an abort frame.
    pub const FRAME: Traffic = Traffic {
        bytes: HEADER_LEN as u64,
        messages: 1,
    };
}

impl std::ops::AddAssign for Traffic {
    fn add_assign(&mut self, other: Self) {
        self.bytes += other.bytes;
        self.messages += other.messages;
    }
}

/// What one query has handed one node's multiplexer so far: data
/// messages, broadcast copies, last-markers and abort frames. Kept with
/// the query's worker on the node, and read when the query retires.
#[derive(Debug, Default)]
pub struct TrafficCounter {
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl TrafficCounter {
    /// Count `sent`.
    pub fn add(&self, sent: Traffic) {
        self.bytes.fetch_add(sent.bytes, Ordering::Relaxed);
        self.messages.fetch_add(sent.messages, Ordering::Relaxed);
    }

    /// The totals so far.
    pub fn load(&self) -> Traffic {
        Traffic {
            bytes: self.bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Message writer
// ---------------------------------------------------------------------------

/// Sender side of one exchange operator on one worker (Figure 7, steps
/// 2–4): the open message of every destination, filled chunk by chunk with
/// the rows headed there and passed on when the next row no longer fits.
///
/// A destination is a partition bucket — node `dest / units`, parallel
/// unit `dest % units`, `units` being 1 outside classic mode — or, for a
/// broadcast writer, the single destination 0 that stands for every node.
/// The writer does everything that happens to a message between pool and
/// multiplexer: the NUMA charge for writing the buffer, the header, the
/// count of what goes to other nodes, the short cut through the receive
/// hub for this node's own share, and classic mode's duplicate per remote
/// unit.
pub struct MessageWriter<'a> {
    ctx: &'a NodeCtx,
    query: QueryId,
    exchange: u32,
    /// The query's traffic on this node, when it runs on a query worker.
    traffic: Option<&'a TrafficCounter>,
    /// What this writer passed on for other nodes.
    sent: Traffic,
    ser: &'a RowSerializer,
    worker_socket: SocketId,
    broadcast: bool,
    /// Per destination: the open message, in a buffer on loan from the pool.
    open: Vec<Option<PooledBuffer>>,
    /// Scratch: wire size of each row of the selection being written.
    sizes: Vec<usize>,
}

impl<'a> MessageWriter<'a> {
    /// Writer for a worker on `worker_socket` partitioning exchange
    /// `exchange` of `query` over `dests` buckets, counting what it passes
    /// on into `traffic`.
    pub fn partitioned(
        ctx: &'a NodeCtx,
        query: QueryId,
        exchange: u32,
        traffic: Option<&'a TrafficCounter>,
        ser: &'a RowSerializer,
        worker_socket: SocketId,
        dests: usize,
    ) -> Self {
        Self {
            ctx,
            query,
            exchange,
            traffic,
            sent: Traffic::default(),
            ser,
            worker_socket,
            broadcast: false,
            open: (0..dests).map(|_| None).collect(),
            sizes: Vec::new(),
        }
    }

    /// Writer whose destination 0 is every node, this one included. A
    /// message is serialized once and retained per target; classic mode
    /// ships one more copy per further remote unit, the (n·t−1)-copy cost
    /// the paper attributes to classic exchange operators.
    pub fn broadcast(
        ctx: &'a NodeCtx,
        query: QueryId,
        exchange: u32,
        traffic: Option<&'a TrafficCounter>,
        ser: &'a RowSerializer,
        worker_socket: SocketId,
    ) -> Self {
        Self {
            broadcast: true,
            ..Self::partitioned(ctx, query, exchange, traffic, ser, worker_socket, 1)
        }
    }

    /// Append `rows` of `table` to destination `dest`'s message, passing
    /// it on and opening the next whenever a row does not fit: a message
    /// body never exceeds the node's message capacity, except to carry a
    /// single row that is larger than that.
    pub fn write(&mut self, dest: usize, table: &Table, rows: Rows<'_>) {
        let (ctx, ser) = (self.ctx, self.ser);
        ser.row_sizes(table, rows, &mut self.sizes);
        let limit = HEADER_LEN + ctx.message_capacity;
        let mut done = 0;
        while done < rows.len() {
            let buf = self.open[dest]
                .get_or_insert_with(|| {
                    let mut buf =
                        ctx.pool
                            .take(ctx.alloc_policy, self.worker_socket, &ctx.topology);
                    buf.as_mut_vec().resize(HEADER_LEN, 0);
                    buf
                })
                .as_mut_vec();
            let room = limit.saturating_sub(buf.len());
            let fit = rows_that_fit(&self.sizes[done..], room, buf.len() == HEADER_LEN);
            ser.serialize(table, rows.slice(done..done + fit), buf);
            done += fit;
            if done < rows.len() {
                self.flush(dest);
            }
        }
    }

    /// Pass on every open message ("only the used part is sent").
    pub fn finish(&mut self) {
        for dest in 0..self.open.len() {
            self.flush(dest);
        }
    }

    /// The messages this writer passed on for other nodes, broadcast
    /// copies included, and their bytes.
    pub fn sent(&self) -> Traffic {
        self.sent
    }

    fn flush(&mut self, dest: usize) {
        let Some(mut buf) = self.open[dest].take() else {
            return;
        };
        let mem_socket = buf.socket();
        let ctx = self.ctx;
        let units = ctx.classic_units.unwrap_or(1);
        // Writing a remote buffer costs QPI time (Figure 9's effect).
        ctx.topology
            .charge_access(self.worker_socket, mem_socket, buf.len());
        let (target, unit) = if self.broadcast {
            (ctx.node, 0)
        } else {
            (
                NodeId((dest / units as usize) as u16),
                (dest % units as usize) as u16,
            )
        };
        patch_header(self.query, self.exchange, 0, unit, buf.as_mut_vec());
        // From here on the buffer is shared and immutable, and goes back to
        // the pool when the last holder of `bytes` lets go.
        let bytes = Bytes::from_owner(buf);
        if target != ctx.node {
            self.net_send(bytes.len(), 1);
            self.to_mux(MuxCmd::Send {
                target,
                payload: bytes,
            });
            return;
        }
        // This node's share never touches the network.
        let queue = match ctx.classic_units {
            Some(_) => unit as usize,
            None => mem_socket.0 as usize,
        };
        let data = bytes.slice(HEADER_LEN..);
        ctx.hub.deliver(
            self.query,
            self.exchange,
            queue,
            Some(RecvMsg { data, mem_socket }),
            false,
        );
        if self.broadcast && ctx.nodes > 1 {
            let copies = u64::from(ctx.nodes - 1) * u64::from(units);
            self.net_send(bytes.len() * copies as usize, copies);
            for unit in 0..units {
                let payload = if unit == 0 {
                    bytes.clone()
                } else {
                    let mut dup = bytes.to_vec();
                    patch_header(self.query, self.exchange, FLAG_DUP, unit, &mut dup);
                    Bytes::from(dup)
                };
                self.to_mux(MuxCmd::Broadcast {
                    payload,
                    copies_per_node: 1,
                });
            }
        }
    }

    fn net_send(&mut self, bytes: usize, messages: u64) {
        let sent = Traffic {
            bytes: bytes as u64,
            messages,
        };
        self.sent += sent;
        if let Some(traffic) = self.traffic {
            traffic.add(sent);
        }
    }

    fn to_mux(&self, cmd: MuxCmd) {
        self.ctx.to_mux.send(cmd).expect("multiplexer alive");
    }
}

// ---------------------------------------------------------------------------
// Receive hub
// ---------------------------------------------------------------------------

/// A received message awaiting deserialization.
#[derive(Debug)]
pub struct RecvMsg {
    /// Tuple bytes (header stripped).
    pub data: Bytes,
    /// NUMA socket the receive buffer lives on.
    pub mem_socket: SocketId,
}

/// What a look at an exchange's receive queues found ([`RecvHub::poll`]).
#[derive(Debug)]
pub enum Polled {
    /// The next message.
    Message(RecvMsg),
    /// Nothing yet, and last-markers are still to come.
    Pending,
    /// Nothing, and nothing will come: every last-marker is in.
    Drained,
}

struct ExchangeState {
    /// One queue per NUMA socket (hybrid) or per parallel unit (classic).
    queues: Vec<std::collections::VecDeque<RecvMsg>>,
    lasts_received: u32,
    expected_lasts: Option<u32>,
}

impl ExchangeState {
    fn new(queues: usize) -> Self {
        Self {
            queues: (0..queues).map(|_| Default::default()).collect(),
            lasts_received: 0,
            expected_lasts: None,
        }
    }

    fn done_receiving(&self) -> bool {
        self.expected_lasts
            .is_some_and(|e| self.lasts_received >= e)
    }
}

/// Composite hub key: query id in the high half, exchange id in the low —
/// two in-flight queries can use identical exchange sequence numbers
/// without their tuples ever mixing.
fn hub_key(query: QueryId, exchange: u32) -> u64 {
    (u64::from(query.0) << 32) | u64::from(exchange)
}

/// Mutable hub state under one lock: the per-exchange queues plus the
/// abort markers that unblock consumers when a query or the whole fabric
/// fails mid-exchange.
struct HubState {
    exchanges: HashMap<u64, ExchangeState>,
    /// Queries aborted mid-flight (cross-node abort frame, peer panic, or
    /// coordinator abort), with the first recorded reason.
    aborted: HashMap<u32, String>,
    /// Set when the node's connectivity is irrecoverably gone (a peer
    /// process died): every current and future consumer unblocks.
    dead: Option<String>,
    /// The queries finished here most recently, oldest first. A query that
    /// failed or was cancelled leaves messages behind in its peers' send
    /// queues and on the wire; they arrive after it has been cleaned up
    /// here, and must not set up state (and hold pooled buffers) that no
    /// one will ever come for. Query ids are never reused within a hub's
    /// lifetime, and stragglers are milliseconds late, not
    /// [`FINISHED_KEPT`] queries late.
    finished: std::collections::VecDeque<u32>,
}

/// How many finished queries a hub remembers to turn their stragglers away.
const FINISHED_KEPT: usize = 256;

/// Per-node routing point between the multiplexer and the exchange
/// operators: per-socket receive queues with cross-socket work stealing,
/// keyed by (query, exchange) so concurrent queries stay isolated.
pub struct RecvHub {
    state: Mutex<HubState>,
    wakeup: Condvar,
    queues: usize,
}

impl RecvHub {
    /// Hub with `queues` receive queues (sockets in hybrid mode, units in
    /// classic mode).
    pub fn new(queues: usize) -> Arc<Self> {
        assert!(queues > 0, "need at least one receive queue");
        Arc::new(Self {
            state: Mutex::new(HubState {
                exchanges: HashMap::new(),
                aborted: HashMap::new(),
                dead: None,
                finished: Default::default(),
            }),
            wakeup: Condvar::new(),
            queues,
        })
    }

    /// Number of receive queues.
    pub fn queue_count(&self) -> usize {
        self.queues
    }

    /// Announce how many last-markers exchange `id` of `query` will
    /// receive; consumers block until that many have arrived and all data
    /// is drained.
    pub fn expect_lasts(&self, query: QueryId, id: u32, expected: u32) {
        let mut st = self.state.lock();
        let ex = st
            .exchanges
            .entry(hub_key(query, id))
            .or_insert_with(|| ExchangeState::new(self.queues));
        ex.expected_lasts = Some(expected);
        drop(st);
        self.wakeup.notify_all();
    }

    /// Deliver a message (the multiplexer calls this; also used for
    /// node-local partitions that never touch the network).
    pub fn deliver(&self, query: QueryId, id: u32, queue: usize, msg: Option<RecvMsg>, last: bool) {
        use std::collections::hash_map::Entry;
        let mut st = self.state.lock();
        let HubState {
            exchanges,
            finished,
            ..
        } = &mut *st;
        let ex = match exchanges.entry(hub_key(query, id)) {
            Entry::Occupied(ex) => ex.into_mut(),
            // Nothing here knows the exchange: its query has not got to it
            // yet — or is over, and this is a straggler.
            Entry::Vacant(_) if finished.contains(&query.0) => return,
            Entry::Vacant(slot) => slot.insert(ExchangeState::new(self.queues)),
        };
        if let Some(m) = msg {
            ex.queues[queue % self.queues].push_back(m);
        }
        if last {
            ex.lasts_received += 1;
        }
        drop(st);
        self.wakeup.notify_all();
    }

    /// Pop the next message for exchange `id` of `query`, preferring `own`
    /// queue and stealing from others when `steal` is set. Returns `None`
    /// once the exchange is fully drained (all lasts received, queues
    /// empty).
    ///
    /// # Panics
    /// Panics when the query (or the whole hub) was aborted while the
    /// consumer was blocked — the panic unwinds the consumer out of the
    /// exchange and is contained at the SPMD scope, surfacing as
    /// [`EngineError::Execution`](crate::error::EngineError::Execution).
    pub fn pop(&self, query: QueryId, id: u32, own: usize, steal: bool) -> Option<RecvMsg> {
        self.pop_cancellable(query, id, own, steal, None)
    }

    /// [`pop`](Self::pop) that additionally polls a cooperative
    /// cancellation token while blocked: a cancel or deadline trip lands
    /// within one poll interval even when this consumer is starved
    /// waiting on peer nodes' messages.
    ///
    /// # Panics
    /// Panics (like [`pop`](Self::pop)'s abort path) when the token trips
    /// — the panic unwinds the consumer out of the exchange and is
    /// contained at the SPMD scope.
    pub fn pop_cancellable(
        &self,
        query: QueryId,
        id: u32,
        own: usize,
        steal: bool,
        cancel: Option<&crate::serve::CancelToken>,
    ) -> Option<RecvMsg> {
        // Bounds how long a blocked consumer can outlive a cancel.
        const CANCEL_POLL: std::time::Duration = std::time::Duration::from_millis(5);
        let mut st = self.state.lock();
        loop {
            match self.poll_locked(&mut st, query, id, own, steal, cancel) {
                Polled::Message(m) => return Some(m),
                Polled::Drained => return None,
                Polled::Pending => {}
            }
            match cancel {
                // A timed wait so the token is re-polled even when no
                // deliver/abort notification ever arrives.
                Some(_) => {
                    let _ = self.wakeup.wait_for(&mut st, CANCEL_POLL);
                }
                None => self.wakeup.wait(&mut st),
            }
        }
    }

    /// [`pop_cancellable`](Self::pop_cancellable) without the wait: what
    /// the queues hold for this consumer right now. A worker that still
    /// has tuples to send asks this between two morsels.
    ///
    /// # Panics
    /// Panics as [`pop_cancellable`](Self::pop_cancellable) does, when the
    /// query was aborted or `cancel` has tripped.
    pub fn poll(
        &self,
        query: QueryId,
        id: u32,
        own: usize,
        steal: bool,
        cancel: Option<&crate::serve::CancelToken>,
    ) -> Polled {
        self.poll_locked(&mut self.state.lock(), query, id, own, steal, cancel)
    }

    fn poll_locked(
        &self,
        st: &mut HubState,
        query: QueryId,
        id: u32,
        own: usize,
        steal: bool,
        cancel: Option<&crate::serve::CancelToken>,
    ) -> Polled {
        if let Some(reason) = &st.dead {
            panic!("query {query} aborted: {reason}");
        }
        if let Some(reason) = st.aborted.get(&query.0) {
            panic!("query {query} aborted: {reason}");
        }
        if let Some(token) = cancel {
            if let Some(reason) = token.should_stop() {
                panic!("query {query} stopped at exchange wait: {reason:?}");
            }
        }
        let ex = st
            .exchanges
            .get_mut(&hub_key(query, id))
            .expect("exchange must be registered before popping");
        // 5a: NUMA-local receive queue first.
        if let Some(m) = ex.queues[own % self.queues].pop_front() {
            return Polled::Message(m);
        }
        // 5b: steal work from other queues.
        if steal {
            for q in 0..self.queues {
                if q != own % self.queues {
                    if let Some(m) = ex.queues[q].pop_front() {
                        return Polled::Message(m);
                    }
                }
            }
        }
        // Every queue this consumer may take from is empty.
        if ex.done_receiving() {
            Polled::Drained
        } else {
            Polled::Pending
        }
    }

    /// Mark `query` aborted (first reason wins) and wake every blocked
    /// consumer; their `pop`s panic out of the exchange. Cleared by
    /// [`finish_query`](Self::finish_query).
    pub fn abort(&self, query: QueryId, reason: &str) {
        let mut st = self.state.lock();
        if st.finished.contains(&query.0) {
            return;
        }
        st.aborted
            .entry(query.0)
            .or_insert_with(|| reason.to_string());
        drop(st);
        self.wakeup.notify_all();
    }

    /// Mark the whole hub dead — a peer process disconnected, so *no*
    /// in-flight or future exchange on this node can complete. Every
    /// blocked and future `pop` panics with `reason`.
    pub fn abort_all(&self, reason: &str) {
        let mut st = self.state.lock();
        if st.dead.is_none() {
            st.dead = Some(reason.to_string());
        }
        drop(st);
        self.wakeup.notify_all();
    }

    /// Whether `query` is marked aborted (or the hub is dead).
    pub fn is_aborted(&self, query: QueryId) -> bool {
        let st = self.state.lock();
        st.dead.is_some() || st.aborted.contains_key(&query.0)
    }

    /// Remove a completed exchange's state.
    pub fn finish(&self, query: QueryId, id: u32) {
        self.state.lock().exchanges.remove(&hub_key(query, id));
    }

    /// Remove every residual exchange state and the abort marker of
    /// `query` (completion and cancellation cleanup: nothing of a finished
    /// query may linger in the hub, however its stages ended), and turn
    /// away whatever still arrives for it.
    pub fn finish_query(&self, query: QueryId) {
        let mut st = self.state.lock();
        st.exchanges.retain(|&k, _| (k >> 32) as u32 != query.0);
        st.aborted.remove(&query.0);
        if st.finished.len() == FINISHED_KEPT {
            st.finished.pop_front();
        }
        st.finished.push_back(query.0);
    }

    /// Number of exchange states currently held (tests and leak checks).
    pub fn active_exchanges(&self) -> usize {
        self.state.lock().exchanges.len()
    }
}

// ---------------------------------------------------------------------------
// Multiplexer
// ---------------------------------------------------------------------------

/// Commands from exchange operators to their multiplexer.
pub enum MuxCmd {
    /// Queue one message for `target`.
    Send {
        /// Destination node.
        target: NodeId,
        /// Full wire message (header + tuples).
        payload: Bytes,
    },
    /// Queue one message for every other node, serialized once and retained
    /// per target (the broadcast retain counter of §3.2).
    Broadcast {
        /// Full wire message.
        payload: Bytes,
        /// Copies to send to each remote node (1 in hybrid mode; `t` in
        /// classic mode, where every remote exchange unit gets its own).
        copies_per_node: u16,
    },
    /// Shut the multiplexer down.
    Shutdown,
}

/// Configuration of one node's multiplexer.
pub struct MuxConfig {
    /// This node.
    pub node: NodeId,
    /// Cluster size.
    pub nodes: u16,
    /// Messages sent to one target before re-synchronizing (the paper uses
    /// 8 per phase).
    pub batch_per_phase: usize,
    /// Receive queues (sockets in hybrid mode, units in classic mode).
    pub classic_units: Option<u16>,
    /// Sockets for round-robin receive-buffer placement.
    pub sockets: u16,
    /// Receive-buffer allocation policy (Figure 9).
    pub alloc_policy: AllocPolicy,
}

/// How often a multiplexer woke from its bell, and how often for nothing.
#[derive(Default)]
struct Wakeups {
    all: AtomicU64,
    empty: AtomicU64,
}

/// A node's line to its multiplexer: queues a command and rings the
/// multiplexer's bell, in that order, so no sender can forget the second
/// half. Also where the multiplexer's wake-up counts are read.
pub struct MuxSender {
    tx: Sender<MuxCmd>,
    bell: Arc<Doorbell>,
    wakeups: Arc<Wakeups>,
}

impl MuxSender {
    /// Queue `cmd`; fails once the multiplexer has exited.
    pub fn send(&self, cmd: MuxCmd) -> Result<(), SendError<MuxCmd>> {
        self.tx.send(cmd)?;
        self.bell.ring();
        Ok(())
    }

    /// Times the multiplexer has been woken from its bell.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.all.load(Ordering::Relaxed)
    }

    /// Those of them after which it found neither a command nor a
    /// completion: a ring for something an earlier look had already taken.
    pub fn empty_wakeups(&self) -> u64 {
        self.wakeups.empty.load(Ordering::Relaxed)
    }
}

/// Spawn the multiplexer thread for one node.
///
/// The multiplexer is transport-agnostic: `transport` may be a simulated
/// endpoint (RDMA or TCP cost model, in-process) or a
/// [`SocketTransport`](hsqp_net::SocketTransport) over genuine OS sockets
/// between processes. It ships messages as they come, without looking
/// into them: a query's traffic was counted when its node handed it over
/// ([`TrafficCounter`]). With a `scheduler` it sends in round-robin phases
/// (§3.2.3), without one to all targets at once.
///
/// Returns the command sender; the thread exits on [`MuxCmd::Shutdown`].
pub fn spawn_multiplexer(
    cfg: MuxConfig,
    transport: Box<dyn NetTransport>,
    hub: Arc<RecvHub>,
    scheduler: Option<Arc<hsqp_net::NetScheduler>>,
) -> (MuxSender, std::thread::JoinHandle<()>) {
    let (tx, rx) = unbounded();
    let to_mux = MuxSender {
        tx,
        bell: transport.doorbell(),
        wakeups: Arc::default(),
    };
    let wakeups = Arc::clone(&to_mux.wakeups);
    let handle = std::thread::Builder::new()
        .name(format!("mux-{}", cfg.node.0))
        .spawn(move || {
            mux_loop(
                &cfg,
                transport.as_ref(),
                &hub,
                &wakeups,
                scheduler.as_deref(),
                &rx,
            )
        })
        .expect("spawn multiplexer");
    (to_mux, handle)
}

fn mux_loop(
    cfg: &MuxConfig,
    endpoint: &dyn NetTransport,
    hub: &RecvHub,
    wakeups: &Wakeups,
    scheduler: Option<&hsqp_net::NetScheduler>,
    rx: &Receiver<MuxCmd>,
) {
    let n = cfg.nodes;
    let bell = endpoint.doorbell();
    let mut queues: Vec<std::collections::VecDeque<Bytes>> =
        (0..n).map(|_| Default::default()).collect();
    // Messages in `queues`. A single node never has any: last-markers,
    // broadcast copies and gathers are for other nodes.
    let mut queued = 0usize;
    let schedule = Schedule::new(n);
    // The scheduler generation this multiplexer is in while it takes part
    // in the rounds, which is while it has messages queued.
    let mut round: Option<u64> = None;
    let mut recv_rr: u64 = 0;
    let mut shutdown = false;
    // Whether the last look found a completion or a command.
    let mut found = false;

    loop {
        // Nothing to ship and the last look found nothing: sleep until a
        // worker or the transport rings. Either way the bell is silent
        // before the look that follows, so what that look misses rings it
        // again (see `Doorbell`). A look that found something may leave
        // the bell rung for what it took: one more look with a silent bell
        // then, instead of a wake-up for nothing. And once told to shut
        // down, ship what is queued and do not sleep again.
        let woken = queued == 0 && !found && !shutdown;
        if woken {
            bell.wait();
        } else {
            bell.clear();
        }

        // Route incoming completions to the receive queues, alternating
        // NUMA sockets ("receives messages for every NUMA region in turn").
        found = false;
        while let Some(ev) = endpoint.try_recv() {
            found = true;
            handle_event(cfg, hub, ev, &mut recv_rr);
        }

        // Accept new work from the exchange operators.
        loop {
            match rx.try_recv() {
                Ok(MuxCmd::Send { target, payload }) => {
                    queues[target.idx()].push_back(payload);
                    queued += 1;
                }
                Ok(MuxCmd::Broadcast {
                    payload,
                    copies_per_node,
                }) => {
                    for t in (0..n).filter(|&t| t != cfg.node.0) {
                        for _ in 0..copies_per_node {
                            // Retain: cheap Bytes clone, no data copy.
                            queues[t as usize].push_back(payload.clone());
                            queued += 1;
                        }
                    }
                }
                // No one left to take commands from is a shutdown too.
                Ok(MuxCmd::Shutdown) | Err(TryRecvError::Disconnected) => {
                    shutdown = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
            found = true;
        }
        if woken {
            wakeups.all.fetch_add(1, Ordering::Relaxed);
            if !found && !shutdown {
                wakeups.empty.fetch_add(1, Ordering::Relaxed);
            }
        }

        if queued == 0 {
            if shutdown {
                // Drain any final in-flight messages for receivers still alive.
                while let Some(ev) = endpoint.try_recv() {
                    handle_event(cfg, hub, ev, &mut recv_rr);
                }
                return;
            }
        } else if let Some(s) = scheduler {
            // Round-robin phases in lockstep with the other multiplexers
            // that have something queued: send a batch to this phase's
            // target, synchronize, advance — and step out of the rounds
            // with the last message, before sleeping.
            let generation = round.unwrap_or_else(|| s.join());
            let target = schedule.target(cfg.node, schedule.phase_of(generation));
            let queue = &mut queues[target.idx()];
            let batch = queue.len().min(cfg.batch_per_phase);
            for payload in queue.drain(..batch) {
                endpoint.send(target, payload);
            }
            queued -= batch;
            round = if queued > 0 {
                Some(s.arrive())
            } else {
                s.leave();
                None
            };
        } else {
            // Uncoordinated: ship whatever is queued, all targets at once.
            for t in 0..n {
                if let Some(payload) = queues[t as usize].pop_front() {
                    endpoint.send(NodeId(t), payload);
                    queued -= 1;
                }
            }
        }
    }
}

/// React to one transport event: route a message into the receive queues,
/// or — on a real transport reporting a dead peer — abort everything in
/// flight on this node (no exchange can complete without the peer).
fn handle_event(cfg: &MuxConfig, hub: &RecvHub, ev: TransportEvent, recv_rr: &mut u64) {
    match ev {
        TransportEvent::Message { payload, .. } => route_incoming(cfg, hub, payload, recv_rr),
        TransportEvent::PeerGone { reason, .. } => hub.abort_all(&reason),
    }
}

fn route_incoming(cfg: &MuxConfig, hub: &RecvHub, payload: Bytes, recv_rr: &mut u64) {
    let h = decode_header(&payload);
    if h.abort {
        // Cross-node abort frame: the sender failed this query; unblock
        // our consumers waiting on it.
        hub.abort(h.query, "aborted by a peer node");
        return;
    }
    let data = payload.slice(HEADER_LEN..HEADER_LEN + h.used as usize);
    let queue = match cfg.classic_units {
        // Classic: static unit binding — the bucket picks the queue.
        Some(units) => (h.bucket % units) as usize,
        // Hybrid: NUMA sockets in turn.
        None => {
            let q = (*recv_rr % u64::from(cfg.sockets)) as usize;
            *recv_rr += 1;
            q
        }
    };
    // Receive-buffer placement policy (Figure 9).
    let mem_socket = match cfg.alloc_policy {
        AllocPolicy::NumaAware => SocketId((queue as u16) % cfg.sockets),
        AllocPolicy::Interleaved => {
            let s = SocketId((*recv_rr % u64::from(cfg.sockets)) as u16);
            *recv_rr += 1;
            s
        }
        AllocPolicy::SingleSocket => SocketId(0),
    };
    let has_data = h.used > 0 && !h.dup;
    hub.deliver(
        h.query,
        h.exchange,
        queue,
        has_data.then_some(RecvMsg { data, mem_socket }),
        h.last,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsqp_net::{FabricConfig, RdmaConfig, RdmaNetwork};

    #[test]
    fn header_roundtrip() {
        let mut buf = Vec::new();
        encode_header(QueryId(9), 77, FLAG_LAST, 5, 1234, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let h = decode_header(&buf);
        assert_eq!(
            h,
            Header {
                query: QueryId(9),
                exchange: 77,
                last: true,
                dup: false,
                abort: false,
                bucket: 5,
                used: 1234
            }
        );
    }

    #[test]
    #[should_panic(expected = "shorter than header")]
    fn short_header_panics() {
        decode_header(&[1, 2, 3]);
    }

    #[test]
    fn pool_accounts_registrations_and_reuses() {
        let fabric = Arc::new(Fabric::new(1, FabricConfig::qdr()));
        let pool = MessagePool::new(fabric, NodeId(0), 2, 1024);
        let topo = Topology::uniform(2);
        let mut buf = pool.take(AllocPolicy::NumaAware, SocketId(0), &topo);
        assert_eq!((pool.registrations(), pool.reuses()), (1, 0));
        assert_eq!((pool.outstanding(), pool.idle()), (1, 0));
        buf.as_mut_vec().extend_from_slice(b"header+tuples");
        let at = buf.as_ref().as_ptr();

        // The message travels as views of the buffer itself, and the
        // buffer comes home with the last of them.
        let message = Bytes::from_owner(buf);
        assert_eq!(message.as_ptr(), at);
        let (body, retained) = (message.slice(7..), message.clone());
        drop(message);
        drop(retained);
        assert_eq!((pool.outstanding(), pool.idle()), (1, 0));
        assert_eq!(&body[..], b"tuples");
        drop(body);
        assert_eq!((pool.outstanding(), pool.idle()), (0, 1));

        let again = pool.take(AllocPolicy::NumaAware, SocketId(0), &topo);
        assert_eq!((pool.registrations(), pool.reuses()), (1, 1));
        assert_eq!(pool.takes(), 2);
        assert!(again.is_empty(), "a reused buffer comes back cleared");
        assert_eq!(again.as_ref().as_ptr(), at);
    }

    #[test]
    fn pool_shelves_are_bounded() {
        let fabric = Arc::new(Fabric::new(1, FabricConfig::qdr()));
        // 1 MiB messages: a shelf keeps SHELF_IDLE_MIN of them.
        let pool = MessagePool::new(fabric, NodeId(0), 1, 1 << 20);
        let topo = Topology::uniform(1);
        let burst: Vec<_> = (0..SHELF_IDLE_MIN + 3)
            .map(|_| pool.take(AllocPolicy::NumaAware, SocketId(0), &topo))
            .collect();
        drop(burst);
        assert_eq!((pool.outstanding(), pool.idle()), (0, SHELF_IDLE_MIN));
    }

    const Q: QueryId = QueryId(1);

    #[test]
    fn hub_delivers_and_drains() {
        let hub = RecvHub::new(2);
        hub.expect_lasts(Q, 1, 1);
        hub.deliver(
            Q,
            1,
            0,
            Some(RecvMsg {
                data: Bytes::from_static(b"abc"),
                mem_socket: SocketId(0),
            }),
            false,
        );
        hub.deliver(Q, 1, 0, None, true);
        let m = hub.pop(Q, 1, 0, true).unwrap();
        assert_eq!(&m.data[..], b"abc");
        assert!(hub.pop(Q, 1, 0, true).is_none());
        hub.finish(Q, 1);
        assert_eq!(hub.active_exchanges(), 0);
    }

    #[test]
    fn hub_isolates_queries_with_identical_exchange_ids() {
        let hub = RecvHub::new(1);
        let (qa, qb) = (QueryId(7), QueryId(8));
        hub.expect_lasts(qa, 1, 1);
        hub.expect_lasts(qb, 1, 1);
        hub.deliver(
            qa,
            1,
            0,
            Some(RecvMsg {
                data: Bytes::from_static(b"for-a"),
                mem_socket: SocketId(0),
            }),
            true,
        );
        hub.deliver(qb, 1, 0, None, true);
        // Query B's exchange 1 drains empty; A's holds its message.
        assert!(hub.pop(qb, 1, 0, true).is_none());
        assert_eq!(&hub.pop(qa, 1, 0, true).unwrap().data[..], b"for-a");
        assert!(hub.pop(qa, 1, 0, true).is_none());
        hub.finish_query(qa);
        hub.finish_query(qb);
        assert_eq!(hub.active_exchanges(), 0);
    }

    #[test]
    fn hub_steals_across_queues() {
        let hub = RecvHub::new(2);
        hub.expect_lasts(Q, 9, 1);
        hub.deliver(
            Q,
            9,
            1, // other queue
            Some(RecvMsg {
                data: Bytes::from_static(b"x"),
                mem_socket: SocketId(1),
            }),
            true,
        );
        // Worker on queue 0 with stealing finds it.
        assert!(hub.pop(Q, 9, 0, true).is_some());
        assert!(hub.pop(Q, 9, 0, true).is_none());
    }

    #[test]
    fn hub_without_stealing_ignores_other_queues() {
        let hub = RecvHub::new(2);
        hub.expect_lasts(Q, 3, 1);
        hub.deliver(
            Q,
            3,
            1,
            Some(RecvMsg {
                data: Bytes::from_static(b"y"),
                mem_socket: SocketId(1),
            }),
            true,
        );
        // Queue-0 consumer without stealing drains (sees none).
        assert!(hub.pop(Q, 3, 0, false).is_none());
        // Queue-1 consumer picks it up.
        assert!(hub.pop(Q, 3, 1, false).is_some());
    }

    #[test]
    fn hub_pop_blocks_until_last_arrives() {
        let hub = RecvHub::new(1);
        hub.expect_lasts(Q, 5, 1);
        let h2 = Arc::clone(&hub);
        let h = std::thread::spawn(move || h2.pop(Q, 5, 0, true));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!h.is_finished(), "pop returned before last marker");
        hub.deliver(Q, 5, 0, None, true);
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn poll_tells_pending_from_drained_without_blocking() {
        let hub = RecvHub::new(2);
        hub.expect_lasts(Q, 6, 1);
        assert!(matches!(hub.poll(Q, 6, 0, true, None), Polled::Pending));
        let msg = || RecvMsg {
            data: Bytes::from_static(b"z"),
            mem_socket: SocketId(1),
        };
        hub.deliver(Q, 6, 1, Some(msg()), true);
        // Not this consumer's queue and it may not steal: nothing for it,
        // and with the last-marker in nothing will come.
        assert!(matches!(hub.poll(Q, 6, 0, false, None), Polled::Drained));
        assert!(matches!(hub.poll(Q, 6, 0, true, None), Polled::Message(_)));
        assert!(matches!(hub.poll(Q, 6, 0, true, None), Polled::Drained));

        hub.abort(Q, "peer node failed");
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hub.poll(Q, 6, 0, true, None)
        }));
        assert!(polled.is_err(), "poll must panic out of an aborted query");
    }

    #[test]
    fn abort_unblocks_blocked_pop() {
        let hub = RecvHub::new(1);
        hub.expect_lasts(Q, 5, 1);
        let h2 = Arc::clone(&hub);
        let h = std::thread::spawn(move || {
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h2.pop(Q, 5, 0, true)));
            r.is_err()
        });
        std::thread::sleep(Duration::from_millis(20));
        hub.abort(Q, "peer node failed");
        assert!(h.join().unwrap(), "pop must panic out on abort");
        assert!(hub.is_aborted(Q));
        // finish_query clears the abort marker, and stragglers of the
        // finished query — a late abort frame, a late message — leave no
        // trace.
        hub.finish_query(Q);
        assert!(!hub.is_aborted(Q));
        hub.abort(Q, "late abort frame");
        hub.deliver(Q, 5, 0, None, true);
        assert!(!hub.is_aborted(Q));
        assert_eq!(hub.active_exchanges(), 0);
    }

    #[test]
    fn abort_all_kills_every_query() {
        let hub = RecvHub::new(1);
        let (qa, qb) = (QueryId(3), QueryId(4));
        hub.expect_lasts(qa, 1, 1);
        hub.expect_lasts(qb, 1, 1);
        hub.abort_all("node 1 connection lost");
        for q in [qa, qb] {
            let h2 = Arc::clone(&hub);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                h2.pop(q, 1, 0, true)
            }));
            assert!(r.is_err(), "pop must panic on a dead hub");
        }
    }

    #[test]
    fn abort_frame_routes_to_hub_abort() {
        let hub = RecvHub::new(1);
        hub.expect_lasts(Q, 2, 1);
        let cfg = mux_cfg(0, 2);
        let mut frame = Vec::new();
        encode_header(Q, 2, FLAG_ABORT, 0, 0, &mut frame);
        let mut rr = 0;
        route_incoming(&cfg, &hub, Bytes::from(frame), &mut rr);
        assert!(hub.is_aborted(Q));
    }

    fn mux_cfg(node: u16, nodes: u16) -> MuxConfig {
        MuxConfig {
            node: NodeId(node),
            nodes,
            batch_per_phase: 8,
            classic_units: None,
            sockets: 2,
            alloc_policy: AllocPolicy::NumaAware,
        }
    }

    #[test]
    fn single_node_multiplexer_sleeps_like_any_other() {
        let fabric = Arc::new(Fabric::new(1, FabricConfig::qdr()));
        let net = RdmaNetwork::new(Arc::clone(&fabric), RdmaConfig::default());
        let (to_mux, mux) = spawn_multiplexer(
            mux_cfg(0, 1),
            Box::new(net.endpoint(NodeId(0))),
            RecvHub::new(1),
            Some(hsqp_net::NetScheduler::new(0)),
        );
        // Two commands that queue nothing on a single node, then shutdown:
        // at most a wake-up each, none of them for nothing, and no round of
        // a schedule that has no phases.
        for _ in 0..2 {
            to_mux
                .send(MuxCmd::Broadcast {
                    payload: Bytes::new(),
                    copies_per_node: 1,
                })
                .unwrap();
        }
        to_mux.send(MuxCmd::Shutdown).unwrap();
        mux.join().unwrap();
        assert!((1..=3).contains(&to_mux.wakeups()), "{}", to_mux.wakeups());
        assert_eq!(to_mux.empty_wakeups(), 0);
        assert!(to_mux.send(MuxCmd::Shutdown).is_err(), "it has exited");
    }

    #[test]
    fn shutdown_ships_what_is_queued_first() {
        let fabric = Arc::new(Fabric::new(2, FabricConfig::qdr()));
        let net = RdmaNetwork::new(Arc::clone(&fabric), RdmaConfig::default());
        let ep = net.endpoint(NodeId(0));
        net.endpoint(NodeId(1)).post_recvs(1 << 20);
        let (to_mux, mux) = spawn_multiplexer(
            mux_cfg(0, 2),
            Box::new(ep),
            RecvHub::new(2),
            Some(hsqp_net::NetScheduler::new(0)),
        );
        // Three batches' worth, and the shutdown right behind them.
        let mut msg = Vec::new();
        encode_header(Q, 1, 0, 0, 0, &mut msg);
        for _ in 0..20 {
            to_mux
                .send(MuxCmd::Send {
                    target: NodeId(1),
                    payload: Bytes::from(msg.clone()),
                })
                .unwrap();
        }
        to_mux.send(MuxCmd::Shutdown).unwrap();
        mux.join().unwrap();
        assert_eq!(fabric.stats(NodeId(0)).messages_sent(), 20);
    }

    #[test]
    fn multiplexer_ships_messages_end_to_end() {
        let fabric = Arc::new(Fabric::new(2, FabricConfig::qdr()));
        let net = RdmaNetwork::new(Arc::clone(&fabric), RdmaConfig::default());
        let mut handles = Vec::new();
        let mut senders = Vec::new();
        let hubs: Vec<_> = (0..2).map(|_| RecvHub::new(2)).collect();
        let sched = hsqp_net::NetScheduler::new(0);
        for node in 0..2u16 {
            let ep = net.endpoint(NodeId(node));
            ep.post_recvs(1 << 20);
            let (tx, h) = spawn_multiplexer(
                mux_cfg(node, 2),
                Box::new(ep),
                Arc::clone(&hubs[node as usize]),
                Some(Arc::clone(&sched)),
            );
            senders.push(tx);
            handles.push(h);
        }

        // Node 0 sends one data message + last marker to node 1.
        let mut msg = Vec::new();
        encode_header(Q, 42, 0, 0, 5, &mut msg);
        msg.extend_from_slice(b"hello");
        let msg_len = msg.len() as u64;
        senders[0]
            .send(MuxCmd::Send {
                target: NodeId(1),
                payload: Bytes::from(msg),
            })
            .unwrap();
        let mut lastmsg = Vec::new();
        encode_header(Q, 42, FLAG_LAST, 0, 0, &mut lastmsg);
        senders[0]
            .send(MuxCmd::Send {
                target: NodeId(1),
                payload: Bytes::from(lastmsg),
            })
            .unwrap();

        hubs[1].expect_lasts(Q, 42, 1);
        let got = hubs[1].pop(Q, 42, 0, true).unwrap();
        assert_eq!(&got.data[..], b"hello");
        assert!(hubs[1].pop(Q, 42, 0, true).is_none());
        // Both wire messages went out, whole.
        let sent = fabric.stats(NodeId(0));
        assert_eq!(sent.messages_sent(), 2);
        assert_eq!(sent.bytes_sent(), msg_len + HEADER_LEN as u64);

        for tx in &senders {
            tx.send(MuxCmd::Shutdown).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        // Two commands and a shutdown woke the sender, two completions and
        // a shutdown the receiver, which never took part in a round; the
        // sender left the rounds with its last message.
        for tx in &senders {
            assert!((1..=3).contains(&tx.wakeups()), "{}", tx.wakeups());
        }
        assert!(sched.rounds() <= 1, "{}", sched.rounds());
        assert_eq!(sched.parties(), 0);
    }
}
