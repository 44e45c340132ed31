//! Span-based query profiler: per stage × node × operator timings.
//!
//! The paper's core claims are about *where time goes* — compute vs network
//! wait on a globally scheduled fabric — so the engine measures exactly
//! that. While a stage executes, every node's query worker records into its
//! own [`NodeRecorder`]: lock-free atomic cells, one per plan operator,
//! updated with relaxed ordering so the morsel workers and exchange
//! consumers of one node can share the recorder without contending on a
//! lock. The recorders come back in the nodes' replies to the stage, and
//! once every node has replied the cluster merges the cells into a
//! plain-data [`StageProfile`] and appends it to the query's
//! [`QueryProfile`] — the concurrent dispatcher never touches a hot lock.
//!
//! Spans are *inclusive*: an operator's wall time covers its children
//! (execution on a node is a depth-first walk on one thread), so the sum of
//! the children's wall times can never exceed the parent's. Exchange
//! operators additionally split their time into a send side (partition +
//! serialize + hand-off to the multiplexer) and a receive side, where the
//! time consumers spend blocked in the receive hub is the query's visible
//! *network wait*. One thing is taken out of an exchange's span: when its
//! consumer aggregates the decoded batches as they land instead of keeping
//! them, the time spent in that sink is the aggregate's, not the
//! exchange's ([`NodeRecorder::op_exclude`]) — so it shows as the parent's
//! self time, where it would be had the exchange materialized its result.
//!
//! [`QueryProfile::render`] produces the `EXPLAIN ANALYZE` tree and
//! [`chrome_trace`] serializes profiles as Chrome trace-event JSON
//! (`chrome://tracing` / Perfetto), one process per query, one lane per
//! node.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hsqp_net::QueryId;

use crate::plan::Plan;
use crate::vm::CompiledStage;

/// Number of operators in a plan tree (pre-order span cells are sized by
/// this; see [`plan_labels`] for the index order).
pub fn plan_node_count(plan: &Plan) -> usize {
    1 + plan
        .children()
        .iter()
        .map(|c| plan_node_count(c))
        .sum::<usize>()
}

/// Pre-order `(label, depth)` pairs for every operator of `plan`, derived
/// from the same renderer `--explain` uses so profile rows and explain
/// rows can never drift. Index `i` of this list is operator `i`'s span
/// cell: a node's first child is `i + 1`, its second child (joins) is
/// `i + 1 + plan_node_count(first_child)`.
pub fn plan_labels(plan: &Plan) -> Vec<(String, usize)> {
    labels_from(&plan.explain())
}

fn labels_from(explain: &str) -> Vec<(String, usize)> {
    explain
        .lines()
        .map(|line| {
            let trimmed = line.trim_start();
            let depth = (line.len() - trimmed.len()) / 2;
            (trimmed.to_string(), depth)
        })
        .collect()
}

const NS_UNSET: u64 = u64::MAX;

/// One operator's span cell: atomics so a node's morsel workers and
/// exchange consumers update it concurrently without locks.
#[derive(Debug)]
struct OpCell {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    batches: AtomicU64,
    bytes_sent: AtomicU64,
    messages_sent: AtomicU64,
    send_ns: AtomicU64,
    wait_ns: AtomicU64,
    wait_workers: AtomicU64,
    excluded_ns: AtomicU64,
}

impl OpCell {
    fn new() -> Self {
        Self {
            start_ns: AtomicU64::new(NS_UNSET),
            end_ns: AtomicU64::new(0),
            rows_in: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            messages_sent: AtomicU64::new(0),
            send_ns: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            wait_workers: AtomicU64::new(0),
            excluded_ns: AtomicU64::new(0),
        }
    }
}

/// One cluster node's recorder for one stage: a span cell per plan
/// operator, shared by reference with the node's worker threads.
#[derive(Debug)]
pub struct NodeRecorder {
    anchor: Instant,
    ops: Vec<OpCell>,
}

impl NodeRecorder {
    /// Recorder for a stage of `op_count` operators, timing everything
    /// relative to `anchor`.
    pub(crate) fn new(anchor: Instant, op_count: usize) -> Self {
        Self {
            anchor,
            ops: (0..op_count).map(|_| OpCell::new()).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Mark operator `idx` as entered (earliest entry wins).
    pub fn op_enter(&self, idx: usize) {
        let now = self.now_ns();
        self.ops[idx].start_ns.fetch_min(now, Ordering::Relaxed);
    }

    /// Mark operator `idx` as exited with its row counts (latest exit
    /// wins; counts accumulate).
    pub fn op_exit(&self, idx: usize, rows_in: u64, rows_out: u64) {
        let now = self.now_ns();
        let op = &self.ops[idx];
        op.end_ns.fetch_max(now, Ordering::Relaxed);
        op.rows_in.fetch_add(rows_in, Ordering::Relaxed);
        op.rows_out.fetch_add(rows_out, Ordering::Relaxed);
    }

    /// Take `elapsed` out of operator `idx`'s wall time: work that ran
    /// inside its span on behalf of its parent.
    pub fn op_exclude(&self, idx: usize, elapsed: Duration) {
        self.ops[idx]
            .excluded_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Attribute `count` wire messages totalling `bytes` payload bytes to
    /// exchange operator `idx`.
    pub fn net_send(&self, idx: usize, bytes: u64, count: u64) {
        let op = &self.ops[idx];
        op.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        op.messages_sent.fetch_add(count, Ordering::Relaxed);
    }

    /// Attribute send-side time (partition + serialize + hand-off; the
    /// average over the node's workers, who send side by side) to exchange
    /// operator `idx`.
    pub fn add_send_time(&self, idx: usize, elapsed: Duration) {
        self.ops[idx]
            .send_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// One consume worker's contribution to exchange operator `idx`:
    /// `wait` spent blocked on the receive hub and `batches` messages
    /// deserialized.
    pub fn add_consume(&self, idx: usize, wait: Duration, batches: u64) {
        let op = &self.ops[idx];
        op.wait_ns
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        op.batches.fetch_add(batches, Ordering::Relaxed);
        op.wait_workers.fetch_add(1, Ordering::Relaxed);
    }
}

/// Recorders for one stage: one [`NodeRecorder`] per cluster node, all
/// sharing an anchor instant (the query's submission time) so spans from
/// different nodes and stages land on one timeline.
#[derive(Debug)]
pub struct StageRecorder {
    nodes: Vec<NodeRecorder>,
}

impl StageRecorder {
    /// Recorder for a stage of `op_count` operators on `nodes` nodes,
    /// timing everything relative to `anchor`.
    pub fn new(anchor: Instant, nodes: u16, op_count: usize) -> Self {
        Self {
            nodes: (0..nodes)
                .map(|_| NodeRecorder::new(anchor, op_count))
                .collect(),
        }
    }

    /// The recorders the nodes filled, node 0 first.
    pub(crate) fn from_nodes(nodes: Vec<NodeRecorder>) -> Self {
        Self { nodes }
    }

    /// Node `node`'s recorder (shared with its execution thread).
    pub fn node(&self, node: usize) -> &NodeRecorder {
        &self.nodes[node]
    }

    /// Merge the recorded cells into a plain-data [`StageProfile`].
    pub fn finish(
        &self,
        plan: &Plan,
        programs: &CompiledStage,
        role: String,
        estimated_rows: Option<f64>,
    ) -> StageProfile {
        // Compiled-program ids woven into the labels: profile rows name the
        // same `p0`, `p1`, … programs `--explain` lists.
        let labels = labels_from(&programs.annotate(plan));
        debug_assert_eq!(labels.len(), self.nodes.first().map_or(0, |n| n.ops.len()));
        let ops: Vec<OpProfile> = labels
            .into_iter()
            .enumerate()
            .map(|(idx, (label, depth))| OpProfile {
                label,
                depth,
                nodes: self
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(node, rec)| {
                        let c = &rec.ops[idx];
                        let start = c.start_ns.load(Ordering::Relaxed);
                        let end = c.end_ns.load(Ordering::Relaxed);
                        let excluded = c.excluded_ns.load(Ordering::Relaxed);
                        let (start, wall) = if start == NS_UNSET {
                            (0, 0)
                        } else {
                            (start, end.saturating_sub(start).saturating_sub(excluded))
                        };
                        OpNodeProfile {
                            node: node as u16,
                            start: Duration::from_nanos(start),
                            wall: Duration::from_nanos(wall),
                            rows_in: c.rows_in.load(Ordering::Relaxed),
                            rows_out: c.rows_out.load(Ordering::Relaxed),
                            batches: c.batches.load(Ordering::Relaxed),
                            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
                            messages_sent: c.messages_sent.load(Ordering::Relaxed),
                            send: Duration::from_nanos(c.send_ns.load(Ordering::Relaxed)),
                            wait: Duration::from_nanos(c.wait_ns.load(Ordering::Relaxed)),
                            wait_workers: c.wait_workers.load(Ordering::Relaxed) as u32,
                        }
                    })
                    .collect(),
            })
            .collect();
        let start = ops
            .first()
            .map(|root| {
                root.nodes
                    .iter()
                    .map(|n| n.start)
                    .min()
                    .unwrap_or(Duration::ZERO)
            })
            .unwrap_or(Duration::ZERO);
        let end = ops
            .first()
            .map(|root| {
                root.nodes
                    .iter()
                    .map(|n| n.start + n.wall)
                    .max()
                    .unwrap_or(Duration::ZERO)
            })
            .unwrap_or(Duration::ZERO);
        StageProfile {
            role,
            estimated_rows,
            feedback_rows: None,
            start,
            wall: end.saturating_sub(start),
            ops,
        }
    }
}

/// One operator's span on one node.
#[derive(Debug, Clone)]
pub struct OpNodeProfile {
    /// Cluster node id.
    pub node: u16,
    /// Span start, measured from query submission.
    pub start: Duration,
    /// Inclusive wall time (covers the operator's children; less what an
    /// exchange spent in its parent's sink).
    pub wall: Duration,
    /// Rows consumed (for exchanges: rows this node fed into the shuffle).
    pub rows_in: u64,
    /// Rows produced (for exchanges: rows this node holds afterwards).
    pub rows_out: u64,
    /// Wire messages this node deserialized (exchanges only).
    pub batches: u64,
    /// Payload bytes this node handed to the multiplexer (exchanges only).
    pub bytes_sent: u64,
    /// Wire messages this node sent (exchanges only).
    pub messages_sent: u64,
    /// Send-side time: partition, serialize, hand-off, averaged over the
    /// node's workers (exchanges).
    pub send: Duration,
    /// Total time consume workers spent blocked on the receive hub,
    /// summed across workers (exchanges only).
    pub wait: Duration,
    /// Number of consume workers that contributed to `wait`.
    pub wait_workers: u32,
}

impl OpNodeProfile {
    /// Average per-worker network wait: the wall-clock share of this
    /// operator's span spent blocked on the fabric.
    pub fn net_wait(&self) -> Duration {
        if self.wait_workers == 0 {
            Duration::ZERO
        } else {
            self.wait / self.wait_workers
        }
    }

    /// Wall time minus the average network wait — the compute share of
    /// the span.
    pub fn compute(&self) -> Duration {
        self.wall.saturating_sub(self.net_wait())
    }
}

/// One operator's spans across all nodes.
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Operator label (same text `--explain` prints).
    pub label: String,
    /// Depth in the plan tree (root = 0).
    pub depth: usize,
    /// Per-node spans, indexed by node id.
    pub nodes: Vec<OpNodeProfile>,
}

impl OpProfile {
    /// Rows consumed, summed across nodes.
    pub fn rows_in(&self) -> u64 {
        self.nodes.iter().map(|n| n.rows_in).sum()
    }

    /// Rows produced, summed across nodes.
    pub fn rows_out(&self) -> u64 {
        self.nodes.iter().map(|n| n.rows_out).sum()
    }

    /// Payload bytes shuffled, summed across nodes.
    pub fn bytes_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Slowest node's inclusive wall time.
    pub fn wall_max(&self) -> Duration {
        self.nodes.iter().map(|n| n.wall).max().unwrap_or_default()
    }

    /// Slowest node's average network wait.
    pub fn net_wait_max(&self) -> Duration {
        self.nodes
            .iter()
            .map(|n| n.net_wait())
            .max()
            .unwrap_or_default()
    }

    /// Whether this operator is an exchange (has a network side).
    pub fn is_exchange(&self) -> bool {
        self.label.starts_with("Exchange")
    }
}

/// One stage's merged profile.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// What the stage's output was used for (`result`, `params`,
    /// `materialize "name"`).
    pub role: String,
    /// The planner's cardinality estimate for the stage result (None for
    /// a plan built by hand, which carries no estimates).
    pub estimated_rows: Option<f64>,
    /// Always `None`: no planner corrects its estimates any more.
    ///
    /// Kept only because hsqp_bench names it; ROADMAP item 1 removes that
    /// reference, then this goes.
    pub feedback_rows: Option<f64>,
    /// Stage start, measured from query submission (earliest node).
    pub start: Duration,
    /// Stage wall time (first node in → last node out).
    pub wall: Duration,
    /// Pre-order operator profiles (index 0 is the root).
    pub ops: Vec<OpProfile>,
}

impl StageProfile {
    /// Rows the stage produced. For `result` and `params` stages that is
    /// the coordinator's root output — SPMD execution runs the post-gather
    /// operators on every node, and a scalar aggregate emits its one row
    /// even over the empty input non-coordinators see, so summing across
    /// nodes would over-count. Materialize stages keep per-node output, so
    /// their actual cardinality is the sum.
    pub fn actual_rows(&self) -> u64 {
        let Some(root) = self.ops.first() else {
            return 0;
        };
        if self.role == "result" || self.role == "params" {
            root.nodes.first().map_or(0, |n| n.rows_out)
        } else {
            root.rows_out()
        }
    }

    /// Direct children of operator `idx`, by span-cell index.
    pub fn children_of(&self, idx: usize) -> Vec<usize> {
        let depth = self.ops[idx].depth;
        let mut out = Vec::new();
        for (j, op) in self.ops.iter().enumerate().skip(idx + 1) {
            if op.depth <= depth {
                break;
            }
            if op.depth == depth + 1 {
                out.push(j);
            }
        }
        out
    }
}

/// A query's complete profile: one [`StageProfile`] per executed stage,
/// in execution order. A cancelled query keeps the stages that finished
/// before the cancellation took effect.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Id the query ran under.
    pub query: QueryId,
    /// TPC-H query number (0 for ad-hoc queries).
    pub number: u32,
    /// Per-stage profiles, in execution order.
    pub stages: Vec<StageProfile>,
}

impl QueryProfile {
    /// Empty profile for a freshly admitted query.
    pub fn new(query: QueryId, number: u32) -> Self {
        Self {
            query,
            number,
            stages: Vec::new(),
        }
    }

    /// Total payload bytes shuffled across all stages.
    pub fn bytes_shuffled(&self) -> u64 {
        self.stages
            .iter()
            .flat_map(|s| &s.ops)
            .map(|o| o.bytes_sent())
            .sum()
    }

    /// The query's visible network wait: per stage, the slowest node's
    /// summed average wait across its exchanges; summed over stages.
    pub fn net_wait(&self) -> Duration {
        self.stages
            .iter()
            .map(|s| {
                let nodes = s.ops.first().map_or(0, |root| root.nodes.len());
                (0..nodes)
                    .map(|n| {
                        s.ops
                            .iter()
                            .map(|o| o.nodes[n].net_wait())
                            .sum::<Duration>()
                    })
                    .max()
                    .unwrap_or_default()
            })
            .sum()
    }

    /// Render the `EXPLAIN ANALYZE` tree: the plan annotated with actual
    /// rows, wall time, bytes shuffled, and the network-wait vs compute
    /// split, plus a per-node breakdown under each exchange.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.stages.len();
        for (i, stage) in self.stages.iter().enumerate() {
            let est = match stage.estimated_rows {
                Some(e) => format!("est ~{e:.0} rows, "),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "-- stage {}/{total}: {}  [{est}actual {} rows, wall {}]",
                i + 1,
                stage.role,
                stage.actual_rows(),
                fmt_dur(stage.wall),
            );
            for op in &stage.ops {
                for _ in 0..op.depth {
                    out.push_str("  ");
                }
                let _ = write!(
                    out,
                    "{}  [rows {} -> {}, wall {}",
                    op.label,
                    op.rows_in(),
                    op.rows_out(),
                    fmt_dur(op.wall_max()),
                );
                // A join that filters a side sends its summary round.
                if op.is_exchange() || op.bytes_sent() > 0 {
                    let _ = write!(
                        out,
                        ", net wait {}, {} sent",
                        fmt_dur(op.net_wait_max()),
                        fmt_bytes(op.bytes_sent()),
                    );
                }
                out.push_str("]\n");
                if op.is_exchange() {
                    for n in &op.nodes {
                        for _ in 0..op.depth + 2 {
                            out.push_str("  ");
                        }
                        let _ = writeln!(
                            out,
                            "node{}: {} rows out, wall {}, wait {}, compute {}, \
                             {} msgs in",
                            n.node,
                            n.rows_out,
                            fmt_dur(n.wall),
                            fmt_dur(n.net_wait()),
                            fmt_dur(n.compute()),
                            n.batches,
                        );
                    }
                }
            }
        }
        out
    }
}

/// Format a duration as milliseconds with adaptive precision.
fn fmt_dur(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0} ms")
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} us", ms * 1e3)
    }
}

/// Format a byte count with binary units.
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn trace_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize `profiles` as Chrome trace-event JSON, loadable in
/// `chrome://tracing` or Perfetto: one process per query, one lane (thread)
/// per node, complete (`"ph": "X"`) events for stages and operators with
/// row counts and network waits in `args`. Timestamps are microseconds
/// since each query's submission.
pub fn chrome_trace(profiles: &[QueryProfile]) -> String {
    let mut events: Vec<String> = Vec::new();
    for p in profiles {
        let pid = p.query.0;
        let pname = if p.number > 0 {
            format!("Q{} ({})", p.number, p.query)
        } else {
            format!("{}", p.query)
        };
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            trace_escape(&pname)
        ));
        let nodes = p
            .stages
            .iter()
            .flat_map(|s| &s.ops)
            .map(|o| o.nodes.len())
            .max()
            .unwrap_or(0);
        for n in 0..nodes {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{n},\
                 \"args\":{{\"name\":\"node {n}\"}}}}"
            ));
        }
        for (i, stage) in p.stages.iter().enumerate() {
            for op in &stage.ops {
                // The root operator's span per node doubles as the stage
                // lane header; deeper operators nest inside it visually.
                let cat = if op.depth == 0 { "stage" } else { "op" };
                let name = if op.depth == 0 {
                    format!("stage {}: {} | {}", i + 1, stage.role, op.label)
                } else {
                    op.label.clone()
                };
                for node in &op.nodes {
                    if node.wall.is_zero() && node.rows_out == 0 {
                        continue;
                    }
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                         \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\
                         \"args\":{{\"rows_in\":{},\"rows_out\":{},\
                         \"bytes_sent\":{},\"net_wait_us\":{:.3}}}}}",
                        trace_escape(&name),
                        node.start.as_secs_f64() * 1e6,
                        node.wall.as_secs_f64() * 1e6,
                        node.node,
                        node.rows_in,
                        node.rows_out,
                        node.bytes_sent,
                        node.net_wait().as_secs_f64() * 1e6,
                    ));
                }
            }
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::plan::{AggFunc, AggSpec};
    use hsqp_tpch::TpchTable;

    fn sample_plan() -> Plan {
        Plan::scan(TpchTable::Lineitem)
            .filter(col("l_quantity").lt(lit(10)))
            .repartition(&["l_orderkey"])
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
            .gather()
    }

    #[test]
    fn labels_match_node_count_and_preorder() {
        let plan = sample_plan();
        let labels = plan_labels(&plan);
        assert_eq!(labels.len(), plan_node_count(&plan));
        assert_eq!(labels[0].0, "Exchange Gather");
        assert_eq!(labels[0].1, 0);
        // Pre-order: each operator's depth is its tree depth.
        let depths: Vec<usize> = labels.iter().map(|(_, d)| *d).collect();
        assert_eq!(depths, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_children_index_arithmetic() {
        let plan = Plan::scan(TpchTable::Orders)
            .join(
                Plan::scan(TpchTable::Customer).filter(col("c_custkey").lt(lit(10))),
                &["o_custkey"],
                &["c_custkey"],
                crate::plan::JoinKind::Inner,
            )
            .gather();
        let labels = plan_labels(&plan);
        // gather(0) -> join(1) -> probe scan(2), build filter(3), build scan(4)
        assert_eq!(labels.len(), 5);
        assert!(labels[1].0.starts_with("HashJoin"));
        assert!(labels[2].0.starts_with("Scan orders"));
        assert!(labels[3].0.starts_with("Filter"));
        assert!(labels[4].0.starts_with("Scan customer"));
    }

    #[test]
    fn recorder_merges_spans() {
        let plan = sample_plan();
        let rec = StageRecorder::new(Instant::now(), 2, plan_node_count(&plan));
        rec.node(0).op_enter(0);
        rec.node(0).op_exit(0, 10, 5);
        rec.node(1).op_enter(0);
        rec.node(1).op_exit(0, 20, 7);
        rec.node(0).net_send(2, 1024, 2);
        rec.node(0).add_consume(2, Duration::from_micros(50), 3);
        rec.node(1).op_exclude(0, Duration::from_secs(3600));
        let sp = rec.finish(
            &plan,
            &CompiledStage::default(),
            "result".into(),
            Some(42.0),
        );
        assert_eq!(sp.ops.len(), 5);
        // Result stages count the coordinator's root output only; the raw
        // per-operator accessors still sum across nodes.
        assert_eq!(sp.actual_rows(), 5);
        assert_eq!(sp.ops[0].rows_out(), 12);
        assert_eq!(sp.ops[0].rows_in(), 30);
        assert_eq!(sp.ops[2].bytes_sent(), 1024);
        assert_eq!(sp.ops[2].nodes[0].batches, 3);
        assert_eq!(sp.ops[2].nodes[0].wait_workers, 1);
        assert_eq!(sp.estimated_rows, Some(42.0));
        // Excluded time comes out of the wall and never makes it negative.
        assert_eq!(sp.ops[0].nodes[1].wall, Duration::ZERO);
        // Unvisited operators report zero spans, not garbage.
        assert_eq!(sp.ops[4].wall_max(), Duration::ZERO);
    }

    #[test]
    fn children_of_follows_depths() {
        let plan = Plan::scan(TpchTable::Orders)
            .join(
                Plan::scan(TpchTable::Customer),
                &["o_custkey"],
                &["c_custkey"],
                crate::plan::JoinKind::Inner,
            )
            .gather();
        let rec = StageRecorder::new(Instant::now(), 1, plan_node_count(&plan));
        let sp = rec.finish(&plan, &CompiledStage::default(), "result".into(), None);
        assert_eq!(sp.children_of(0), vec![1]);
        assert_eq!(sp.children_of(1), vec![2, 3]);
        assert!(sp.children_of(2).is_empty());
    }

    #[test]
    fn render_and_trace_are_well_formed() {
        let plan = sample_plan();
        let rec = StageRecorder::new(Instant::now(), 1, plan_node_count(&plan));
        for i in 0..plan_node_count(&plan) {
            rec.node(0).op_enter(i);
            rec.node(0).op_exit(i, 1, 1);
        }
        let mut profile = QueryProfile::new(QueryId(7), 3);
        profile.stages.push(rec.finish(
            &plan,
            &CompiledStage::default(),
            "result".into(),
            Some(9.0),
        ));
        let text = profile.render();
        assert!(text.contains("stage 1/1: result"));
        assert!(text.contains("[est ~9 rows, actual 1 rows"));
        assert!(text.contains("Exchange Gather"));
        let trace = chrome_trace(std::slice::from_ref(&profile));
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"pid\":7"));
        // Balanced braces — cheap well-formedness check without a parser.
        let opens = trace.matches('{').count();
        let closes = trace.matches('}').count();
        assert_eq!(opens, closes);
    }
}
