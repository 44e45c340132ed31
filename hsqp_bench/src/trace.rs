//! Spans of the traced run: recorded by the harness around every call
//! into a layer, kept in memory, written out as Chrome-trace JSON on
//! request — plus the roll-up of the engine's own `QueryProfile` into
//! fixed per-layer self times.

use std::time::Instant;

use hsqp::engine::cluster::QueryResult;
use hsqp::engine::profile::{QueryProfile, StageProfile};

/// One recorded interval.
pub struct Span {
    pub name: String,
    /// Engine layer the time belongs to (`harness`, `planner`, `cluster`,
    /// `stage`, `ops`, `exchange`, ...).
    pub layer: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    /// 1-based; 0 is "no span".
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// Shared by every span of one query execution (0 outside any).
    pub request: u32,
    /// Trace lane: 0 is the client thread, `1 + n` is cluster node `n`.
    pub lane: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a client-thread span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, layer: &'static str, parent: u32, request: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: self.now_us(),
            dur_us: 0.0,
            id,
            parent,
            request,
            lane: 0,
        });
        id
    }

    /// Close span `id`; returns its duration in milliseconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id as usize - 1];
        span.dur_us = now - span.start_us;
        span.dur_us / 1e3
    }

    /// Start of span `id` in microseconds since the tracer's epoch.
    fn start_of(&self, id: u32) -> f64 {
        self.spans[id as usize - 1].start_us
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Hang the engine's per-stage, per-node operator spans of one query
    /// under the harness span `submit` that submitted it (profile times
    /// count from submission).
    pub fn add_profile(&mut self, profile: &QueryProfile, submit: u32, wait: u32, request: u32) {
        let origin = self.start_of(submit);
        for (k, stage) in profile.stages.iter().enumerate() {
            let stage_id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                name: format!("stage {} ({})", k + 1, stage.role),
                layer: "stage",
                start_us: origin + stage.start.as_secs_f64() * 1e6,
                dur_us: stage.wall.as_secs_f64() * 1e6,
                id: stage_id,
                parent: wait,
                request,
                lane: 0,
            });
            // Pre-order walk: the span of the operator one level up is the
            // last one pushed at `depth - 1`, per node.
            let mut open: Vec<Vec<u32>> = Vec::new();
            for op in &stage.ops {
                open.truncate(op.depth);
                let mut ids = Vec::with_capacity(op.nodes.len());
                for node in &op.nodes {
                    let id = self.spans.len() as u32 + 1;
                    let parent = match open.last() {
                        Some(above) => above[node.node as usize],
                        None => stage_id,
                    };
                    self.spans.push(Span {
                        name: op.label.clone(),
                        layer: op_class(&op.label).layer(),
                        start_us: origin + node.start.as_secs_f64() * 1e6,
                        dur_us: node.wall.as_secs_f64() * 1e6,
                        id,
                        parent,
                        request,
                        lane: 1 + u32::from(node.node),
                    });
                    ids.push(id);
                }
                open.push(ids);
            }
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events, one lane for the client and one per cluster node.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let lanes = self.spans.iter().map(|s| s.lane).max().unwrap_or(0);
        for lane in 0..=lanes {
            let name = match lane {
                0 => "client".to_string(),
                n => format!("node {}", n - 1),
            };
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
                 \"args\":{{\"name\":\"{name}\"}}}},\n"
            ));
        }
        for (i, span) in self.spans.iter().enumerate() {
            let name = crate::json::render(&crate::json::s(&span.name));
            out.push_str(&format!(
                "{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{}\n",
                span.layer,
                span.start_us,
                span.dur_us,
                span.lane,
                span.id,
                span.parent,
                span.request,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// The fixed operator classes profile self time is rolled up into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpClass {
    Scan,
    FilterMap,
    Join,
    Aggregate,
    Sort,
    Exchange,
    Other,
}

impl OpClass {
    fn layer(self) -> &'static str {
        match self {
            OpClass::Exchange => "exchange",
            OpClass::Other => "stage",
            _ => "ops",
        }
    }
}

/// Class of an operator from its `Plan::explain` label.
fn op_class(label: &str) -> OpClass {
    let head = label.split_whitespace().next().unwrap_or("");
    match head {
        "Scan" | "TempScan" => OpClass::Scan,
        "Filter" | "Map" => OpClass::FilterMap,
        "HashJoin" => OpClass::Join,
        "Aggregate" => OpClass::Aggregate,
        "Sort" => OpClass::Sort,
        "Exchange" => OpClass::Exchange,
        _ => OpClass::Other,
    }
}

/// Where one pass's time went, in milliseconds. The first three fields
/// are harness spans, the next two come from `QueryResult`, the rest from
/// the profile: operator *self* time (a span minus its children) on each
/// stage's slowest node, summed over the pass's stages.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    pub plan: f64,
    pub submit: f64,
    pub wait: f64,
    pub queue_wait: f64,
    pub exec: f64,
    pub scan: f64,
    pub filter_map: f64,
    pub join: f64,
    pub aggregate: f64,
    pub sort: f64,
    pub exchange_send: f64,
    pub net_wait: f64,
    pub exchange_recv: f64,
    pub stage_gap: f64,
    pub other: f64,
}

impl Breakdown {
    /// Account one finished execution.
    pub fn add_result(&mut self, result: &QueryResult) {
        let queue = result.queue_wait.as_secs_f64() * 1e3;
        let exec = (result.elapsed.as_secs_f64() * 1e3 - queue).max(0.0);
        self.queue_wait += queue;
        self.exec += exec;
        // A process cluster returns no profile: harness spans only.
        if let Some(profile) = &result.profile {
            let stages: f64 = profile.stages.iter().map(|s| self.add_stage(s)).sum();
            self.stage_gap += (exec - stages).max(0.0);
        }
    }

    /// Roll one stage up; returns the stage's wall milliseconds.
    fn add_stage(&mut self, stage: &StageProfile) -> f64 {
        let wall = stage.wall.as_secs_f64() * 1e3;
        let Some(root) = stage.ops.first() else {
            return wall;
        };
        let Some(slowest) = (0..root.nodes.len()).max_by_key(|&n| root.nodes[n].wall) else {
            return wall;
        };
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let mut covered = 0.0;
        for (i, op) in stage.ops.iter().enumerate() {
            let node = &op.nodes[slowest];
            let children: f64 = stage
                .children_of(i)
                .into_iter()
                .map(|c| ms(stage.ops[c].nodes[slowest].wall))
                .sum();
            let own = (ms(node.wall) - children).max(0.0);
            covered += own;
            match op_class(&op.label) {
                OpClass::Scan => self.scan += own,
                OpClass::FilterMap => self.filter_map += own,
                OpClass::Join => self.join += own,
                OpClass::Aggregate => self.aggregate += own,
                OpClass::Sort => self.sort += own,
                OpClass::Other => self.other += own,
                OpClass::Exchange => {
                    let send = ms(node.send).min(own);
                    let wait = ms(node.net_wait()).min(own - send);
                    self.exchange_send += send;
                    self.net_wait += wait;
                    self.exchange_recv += own - send - wait;
                }
            }
        }
        self.other += (wall - covered).max(0.0);
        wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsqp::engine::profile::{OpNodeProfile, OpProfile};
    use hsqp::engine::QueryId;
    use std::time::Duration;

    fn op(label: &str, depth: usize, wall_ms: [u64; 2], send_ms: u64, wait_ms: u64) -> OpProfile {
        let nodes = (0..2u16)
            .map(|n| OpNodeProfile {
                node: n,
                start: Duration::ZERO,
                wall: Duration::from_millis(wall_ms[n as usize]),
                rows_in: 0,
                rows_out: 0,
                batches: 0,
                bytes_sent: 0,
                messages_sent: 0,
                send: Duration::from_millis(send_ms),
                wait: Duration::from_millis(wait_ms),
                wait_workers: u32::from(wait_ms > 0),
            })
            .collect();
        OpProfile {
            label: label.to_string(),
            depth,
            nodes,
        }
    }

    fn stage() -> StageProfile {
        StageProfile {
            role: "result".into(),
            estimated_rows: None,
            feedback_rows: None,
            start: Duration::ZERO,
            wall: Duration::from_millis(110),
            // Node 1 is the slowest (root 100 ms vs 60 ms).
            ops: vec![
                op("Aggregate Final", 0, [60, 100], 0, 0),
                op("Exchange Gather", 1, [50, 90], 10, 20),
                op("HashJoin Inner on a = b", 2, [30, 50], 0, 0),
                op("Scan lineitem [a]", 3, [5, 10], 0, 0),
                op("Scan orders [b] (filtered)", 3, [5, 15], 0, 0),
            ],
        }
    }

    #[test]
    fn self_times_on_the_slowest_node_sum_to_the_stage_wall() {
        let mut b = Breakdown::default();
        assert_eq!(b.add_stage(&stage()), 110.0);
        assert_eq!(b.aggregate, 10.0); // 100 - 90
        assert_eq!(b.exchange_send, 10.0);
        assert_eq!(b.net_wait, 20.0);
        assert_eq!(b.exchange_recv, 10.0); // 90 - 50 - 10 - 20
        assert_eq!(b.join, 25.0); // 50 - 10 - 15
        assert_eq!(b.scan, 25.0);
        assert_eq!(b.other, 10.0); // 110 - 100
        let sum = b.aggregate
            + b.exchange_send
            + b.net_wait
            + b.exchange_recv
            + b.join
            + b.scan
            + b.other;
        assert_eq!(sum, 110.0);
    }

    #[test]
    fn operator_classes_come_from_explain_labels() {
        assert_eq!(op_class("TempScan \"t\" [a]"), OpClass::Scan);
        assert_eq!(op_class("Map [x] p0"), OpClass::FilterMap);
        assert_eq!(op_class("Sort [a desc] limit 10"), OpClass::Sort);
        assert_eq!(op_class("Exchange HashPartition [k]"), OpClass::Exchange);
        assert_eq!(op_class("Window"), OpClass::Other);
    }

    #[test]
    fn profile_spans_nest_under_the_submitting_span() {
        let mut t = Tracer::new();
        let exec = t.open("Q1", "harness", 0, 7);
        let submit = t.open("submit", "cluster", exec, 7);
        t.close(submit);
        let wait = t.open("wait", "cluster", exec, 7);
        t.close(wait);
        t.close(exec);
        let mut profile = QueryProfile::new(QueryId(1), 1);
        profile.stages.push(stage());
        t.add_profile(&profile, submit, wait, 7);
        // 3 harness spans + 1 stage + 5 operators x 2 nodes.
        assert_eq!(t.len(), 14);
        let stage_span = &t.spans[3];
        assert_eq!((stage_span.parent, stage_span.lane), (wait, 0));
        // The join on node 1 hangs under the exchange on node 1.
        let join_n1 = t
            .spans
            .iter()
            .find(|s| s.name.starts_with("HashJoin") && s.lane == 2);
        let exch_n1 = t
            .spans
            .iter()
            .find(|s| s.name.starts_with("Exchange") && s.lane == 2);
        assert_eq!(join_n1.unwrap().parent, exch_n1.unwrap().id);
        // Both scans hang under the join, not under each other.
        for scan in t
            .spans
            .iter()
            .filter(|s| s.name.starts_with("Scan") && s.lane == 2)
        {
            assert_eq!(scan.parent, join_n1.unwrap().id);
        }
        let json = crate::json::parse(&t.chrome_trace()).expect("valid trace JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 14 + 3, "spans plus three lane names");
    }
}
