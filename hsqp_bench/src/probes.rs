//! Kernel probes: each times calls into one layer's public functions on
//! fixed inputs, after the measured window. They say which layer moved
//! when an end-to-end metric moves; none of them is gated.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use hsqp::engine::cluster::Transport;
use hsqp::engine::exec::row_bucket;
use hsqp::engine::expr::{col, lit, litf, Expr};
use hsqp::engine::local::MorselDriver;
use hsqp::engine::logical::{LogicalPlan, LogicalQuery};
use hsqp::engine::ops::{aggregate, probe_join, sort_table, JoinTable};
use hsqp::engine::plan::{AggFunc, AggPhase, AggSpec, JoinKind, SortKey};
use hsqp::engine::queries::{Query, StageRole};
use hsqp::engine::serial::{decode_query, decode_table, encode_query, encode_table};
use hsqp::engine::vm::{compile_stage, ExprProgram};
use hsqp::engine::wire::{RowDeserializer, RowSerializer};
use hsqp::net::transport::{Transport as NetTransport, TransportEvent};
use hsqp::net::{
    Fabric, FabricConfig, NetScheduler, NodeId, RdmaConfig, RdmaNetwork, Schedule, SocketConfig,
    SocketTransport,
};
use hsqp::numa::Topology;
use hsqp::storage::table::MORSEL_SIZE;
use hsqp::storage::{date_from_ymd, Schema, Table};
use hsqp::tpch::{schema, TpchDb, TpchTable};

use crate::catalog::{Kind, QUICK_SF};
use crate::stats::median;
use crate::workload::{
    declared_planner, ms_since, sim_config, sim_session, templates, Backend, SetupTimes, Template,
    TemplateQuery, NODES,
};

type Values = BTreeMap<&'static str, f64>;

/// Median seconds of `reps` timed calls of `f`, after one untimed call.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

const REPS: usize = 3;

fn mrows_per_s(rows: usize, seconds: f64) -> f64 {
    rows as f64 / seconds / 1e6
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e6
}

/// The first `rows` rows of `table`.
fn head(table: &Table, rows: usize) -> Table {
    table.gather(&(0..rows.min(table.rows())).collect::<Vec<_>>())
}

/// A fixed single-thread kernel — a dependent multiply-xor chain over
/// 64 MB — that tells a slower host from a slower engine.
pub fn host_calibration_ms() -> f64 {
    static BUFFER: OnceLock<Vec<u64>> = OnceLock::new();
    let buffer = BUFFER.get_or_init(|| (0..8u64 << 20).collect());
    let t = Instant::now();
    let mut acc = 0u64;
    for &w in buffer {
        acc = (acc.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    black_box(acc);
    ms_since(t)
}

fn base_schema(table: TpchTable) -> Option<Schema> {
    Some(match table {
        TpchTable::Region => schema::region(),
        TpchTable::Nation => schema::nation(),
        TpchTable::Supplier => schema::supplier(),
        TpchTable::Customer => schema::customer(),
        TpchTable::Part => schema::part(),
        TpchTable::Partsupp => schema::partsupp(),
        TpchTable::Orders => schema::orders(),
        TpchTable::Lineitem => schema::lineitem(),
    })
}

/// Compile every stage of `query` the way the cluster does at submit time.
fn compile_query(query: &Query) -> usize {
    let mut temps: HashMap<String, Schema> = HashMap::new();
    let mut programs = 0;
    for stage in &query.stages {
        let (compiled, out) = compile_stage(&stage.plan, &base_schema, &temps);
        programs += compiled.program_count();
        if let (StageRole::Materialize(name), Some(s)) = (&stage.role, out) {
            temps.insert(name.clone(), s);
        }
    }
    programs
}

/// Planner and compiler cost and plan shape of one pass.
pub struct PlanStats {
    pub plan_us: f64,
    pub compile_us: f64,
    pub stages: usize,
    pub exchanges: usize,
}

/// Plan and compile every template of the workload on its own backend.
pub fn plan_stats(backend: &Backend, templates: &[Template]) -> Result<PlanStats, String> {
    let plan_all = || -> Result<Vec<Query>, String> {
        templates
            .iter()
            .map(|t| match &t.query {
                TemplateQuery::Logical(q) => {
                    backend.plan(q).map_err(|e| format!("plan {}: {e}", t.name))
                }
                TemplateQuery::Physical(p) => Ok(Query::single(0, p.clone())),
            })
            .collect()
    };
    let physical = plan_all()?;
    let logical = templates
        .iter()
        .filter(|t| matches!(t.query, TemplateQuery::Logical(_)))
        .count();
    // Physical templates are not planned: the planner's share is zero.
    let plan_us = if logical == 0 {
        0.0
    } else {
        time_median(REPS, || plan_all().map(|p| p.len())) * 1e6 / logical as f64
    };
    let compile_us = time_median(REPS, || physical.iter().map(compile_query).sum::<usize>()) * 1e6
        / physical.len() as f64;
    Ok(PlanStats {
        plan_us,
        compile_us,
        stages: physical.iter().map(|q| q.stages.len()).sum(),
        exchanges: physical
            .iter()
            .flat_map(|q| &q.stages)
            .map(|s| s.plan.exchange_count())
            .sum(),
    })
}

fn q6_predicate() -> Expr {
    col("l_shipdate")
        .ge(lit(date_from_ymd(1994, 1, 1)))
        .and(col("l_shipdate").lt(lit(date_from_ymd(1995, 1, 1))))
        .and(col("l_discount").between(litf(0.0499), litf(0.0701)))
        .and(col("l_quantity").lt(litf(24.0)))
}

fn morsels(rows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..rows)
        .step_by(MORSEL_SIZE)
        .map(move |s| s..(s + MORSEL_SIZE).min(rows))
}

fn vm_probes(lineitem: &Table, out: &mut Values) -> Result<(), String> {
    let rows = lineitem.rows();
    let filter = ExprProgram::compile(&q6_predicate(), lineitem.schema())
        .map_err(|e| format!("vm probe: {e}"))?;
    let s = time_median(REPS, || {
        let bound = filter.bind(lineitem).expect("lineitem has Q6's columns");
        morsels(rows)
            .map(|m| {
                bound
                    .eval_mask(lineitem, m, &[])
                    .iter()
                    .filter(|&&b| b)
                    .count()
            })
            .sum::<usize>()
    });
    out.insert("vm.filter_mrows_s", mrows_per_s(rows, s));
    let revenue = col("l_extendedprice").mul(litf(1.0).sub(col("l_discount")));
    let map =
        ExprProgram::compile(&revenue, lineitem.schema()).map_err(|e| format!("vm probe: {e}"))?;
    let s = time_median(REPS, || {
        let bound = map
            .bind(lineitem)
            .expect("lineitem has the revenue columns");
        morsels(rows).for_each(|m| {
            black_box(bound.eval(lineitem, m, &[]));
        });
    });
    out.insert("vm.map_mrows_s", mrows_per_s(rows, s));
    Ok(())
}

/// Build orders by `o_orderkey`, then probe lineitem into it.
fn build_and_probe(orders: &Arc<Table>, lineitem: &Table, driver: &MorselDriver) -> usize {
    let okey = orders.schema().index_of("o_orderkey");
    let lkey = lineitem.schema().index_of("l_orderkey");
    let table = JoinTable::build(Arc::clone(orders), &[okey]);
    probe_join(lineitem, &table, &[lkey], JoinKind::Inner, driver, None).rows()
}

fn ops_probes(orders: &Arc<Table>, lineitem: &Arc<Table>, out: &mut Values) {
    let one = MorselDriver::new(1, &Topology::uniform(1), MORSEL_SIZE, true);
    let two = MorselDriver::new(2, &Topology::uniform(2), MORSEL_SIZE, true);
    let okey = orders.schema().index_of("o_orderkey");
    let lkey = lineitem.schema().index_of("l_orderkey");

    let s = time_median(REPS, || JoinTable::build(Arc::clone(orders), &[okey]));
    out.insert("ops.join_build_mrows_s", mrows_per_s(orders.rows(), s));
    let s = time_median(REPS, || JoinTable::build(Arc::clone(lineitem), &[lkey]));
    out.insert(
        "ops.join_build_dup_mrows_s",
        mrows_per_s(lineitem.rows(), s),
    );

    let by_order = JoinTable::build(Arc::clone(orders), &[okey]);
    let probe = |driver: &MorselDriver| {
        time_median(REPS, || {
            probe_join(lineitem, &by_order, &[lkey], JoinKind::Inner, driver, None).rows()
        })
    };
    let probe_one = probe(&one);
    out.insert(
        "ops.join_probe_mrows_s",
        mrows_per_s(lineitem.rows(), probe_one),
    );
    out.insert("local.speedup_2w_x", probe_one / probe(&two));

    let by_line = JoinTable::build(Arc::clone(lineitem), &[lkey]);
    let s = time_median(REPS, || {
        probe_join(orders, &by_line, &[okey], JoinKind::LeftSemi, &one, None).rows()
    });
    out.insert("ops.semi_probe_mrows_s", mrows_per_s(orders.rows(), s));

    // Lineitem is generated in order-key order, so the first tenth of
    // both relations is a tenth-scale join with the same shape.
    let small_orders = Arc::new(head(orders, orders.rows() / 10));
    let small_lineitem = head(lineitem, lineitem.rows() / 10);
    let small = time_median(REPS, || {
        build_and_probe(&small_orders, &small_lineitem, &one)
    });
    let large = time_median(REPS, || build_and_probe(orders, lineitem, &one));
    out.insert("ops.join_scale_x", large / small);

    let flag = lineitem.schema().index_of("l_returnflag");
    let status = lineitem.schema().index_of("l_linestatus");
    let aggs = [
        AggSpec::new(AggFunc::Sum, col("l_quantity"), "sum_qty"),
        AggSpec::new(AggFunc::Count, lit(1), "cnt"),
    ];
    let s = time_median(REPS, || {
        aggregate(
            lineitem,
            &[flag, status],
            &aggs,
            AggPhase::Single,
            &one,
            &[],
        )
        .rows()
    });
    out.insert("ops.agg_lowcard_mrows_s", mrows_per_s(lineitem.rows(), s));
    let s = time_median(REPS, || {
        aggregate(lineitem, &[lkey], &aggs, AggPhase::Single, &one, &[]).rows()
    });
    out.insert("ops.agg_highcard_mrows_s", mrows_per_s(lineitem.rows(), s));

    let keys = [SortKey::desc("o_totalprice"), SortKey::asc("o_orderdate")];
    let s = time_median(REPS, || sort_table(orders, &keys, None).rows());
    out.insert("ops.sort_mrows_s", mrows_per_s(orders.rows(), s));

    // One worker, as every benchmarked node has: a million one-row morsels
    // of empty work leave the dispenser's cost per morsel.
    const MORSELS: usize = 1 << 20;
    let tiny = MorselDriver::new(1, &Topology::uniform(1), 1, true);
    let s = time_median(REPS, || {
        tiny.run(MORSELS, |_| 0usize, |n, _, m| *n += black_box(m.len()))
    });
    out.insert("local.morsel_overhead_ns", s * 1e9 / MORSELS as f64);
}

fn wire_probes(lineitem: &Table, out: &mut Values) {
    let rows = lineitem.rows();
    let ser = RowSerializer::new(lineitem.schema());
    let de = RowDeserializer::new(lineitem.schema());
    let mut bytes = Vec::new();
    ser.serialize_range(lineitem, 0..rows, &mut bytes);
    let s = time_median(REPS, || {
        let mut buf = Vec::with_capacity(bytes.len());
        ser.serialize_range(lineitem, 0..rows, &mut buf);
        buf.len()
    });
    out.insert("wire.serialize_mb_s", mb_per_s(bytes.len(), s));
    let s = time_median(REPS, || de.deserialize(&bytes).rows());
    out.insert("wire.deserialize_mb_s", mb_per_s(bytes.len(), s));
    out.insert("wire.bytes_per_row", bytes.len() as f64 / rows as f64);

    let key = [(lineitem.column_by_name("l_orderkey"), false)];
    let s = time_median(REPS, || {
        (0..lineitem.rows())
            .map(|row| row_bucket(&key, row, NODES as usize))
            .sum::<usize>()
    });
    out.insert("exchange.bucket_mrows_s", mrows_per_s(lineitem.rows(), s));
}

fn serial_probes(orders: &Table, out: &mut Values) -> Result<(), String> {
    let planner = declared_planner(0.01, |_| None);
    let queries = templates(Kind::TpchSocket)
        .iter()
        .map(|t| match &t.query {
            TemplateQuery::Logical(q) => planner
                .plan_query(q)
                .map_err(|e| format!("serial probe {}: {e}", t.name)),
            TemplateQuery::Physical(p) => Ok(Query::single(0, p.clone())),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let encoded: Vec<Vec<u8>> = queries.iter().map(encode_query).collect();
    let n = queries.len() as f64;
    let s = time_median(REPS, || {
        queries.iter().map(|q| encode_query(q).len()).sum::<usize>()
    });
    out.insert("serial.encode_query_us", s * 1e6 / n);
    let s = time_median(REPS, || {
        encoded
            .iter()
            .map(|b| decode_query(b).expect("own encoding decodes").stages.len())
            .sum::<usize>()
    });
    out.insert("serial.decode_query_us", s * 1e6 / n);
    out.insert(
        "serial.plan_bytes_per_pass",
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
    );

    let bytes = encode_table(orders);
    let s = time_median(REPS, || encode_table(orders).len());
    out.insert("serial.encode_table_mb_s", mb_per_s(bytes.len(), s));
    let s = time_median(REPS, || {
        decode_table(&bytes).expect("own encoding decodes").rows()
    });
    out.insert("serial.decode_table_mb_s", mb_per_s(bytes.len(), s));
    Ok(())
}

/// Figure 10(b): every node sends 512 KB messages to every other node,
/// uncoordinated or in round-robin phases. Per-node send throughput, MB/s.
fn all_to_all(scheduled: bool) -> f64 {
    const SIZE: usize = 512 * 1024;
    const PER_TARGET: usize = 32;
    const BATCH: usize = 8;
    const FABRIC_NODES: u16 = 3;
    let fabric = Arc::new(Fabric::new(FABRIC_NODES, FabricConfig::qdr()));
    let net = RdmaNetwork::new(Arc::clone(&fabric), RdmaConfig::default());
    let scheduler = NetScheduler::new(FABRIC_NODES as usize);
    let schedule = Schedule::new(FABRIC_NODES);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for node in 0..FABRIC_NODES {
            let ep = net.endpoint(NodeId(node));
            ep.post_recvs(1 << 20);
            let scheduler = Arc::clone(&scheduler);
            scope.spawn(move || {
                let me = NodeId(node);
                let region = ep.register(vec![node as u8; SIZE]);
                if scheduled {
                    for _ in 0..PER_TARGET / BATCH {
                        for phase in 1..FABRIC_NODES {
                            for _ in 0..BATCH {
                                ep.post_send_bytes(
                                    schedule.target(me, phase),
                                    region.bytes().clone(),
                                );
                            }
                            scheduler.sync();
                        }
                    }
                } else {
                    for _ in 0..PER_TARGET {
                        for phase in 1..FABRIC_NODES {
                            ep.post_send_bytes(schedule.target(me, phase), region.bytes().clone());
                        }
                    }
                }
                scheduler.leave();
                for _ in 0..PER_TARGET * (FABRIC_NODES as usize - 1) {
                    ep.wait_completion();
                }
            });
        }
    });
    mb_per_s(
        PER_TARGET * (FABRIC_NODES as usize - 1) * SIZE,
        started.elapsed().as_secs_f64(),
    )
}

fn net_probes(out: &mut Values) -> Result<(), String> {
    out.insert(
        "net.alltoall_sched_mb_s",
        median(&(0..3).map(|_| all_to_all(true)).collect::<Vec<_>>()),
    );
    out.insert(
        "net.alltoall_unsched_mb_s",
        median(&(0..3).map(|_| all_to_all(false)).collect::<Vec<_>>()),
    );

    const ROUNDS: usize = 20_000;
    let scheduler = NetScheduler::new(2);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let scheduler = Arc::clone(&scheduler);
            scope.spawn(move || (0..ROUNDS).for_each(|_| scheduler.sync()));
        }
    });
    out.insert(
        "net.sched_sync_us",
        started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
    );
    socket_probes(out)
}

/// Block until the next message arrives on `t`.
fn recv_message(t: &SocketTransport) -> Result<Bytes, String> {
    loop {
        match t.try_recv() {
            Some(TransportEvent::Message { payload, .. }) => return Ok(payload),
            Some(TransportEvent::PeerGone { reason, .. }) => {
                return Err(format!("socket probe: peer gone: {reason}"))
            }
            None => std::thread::yield_now(),
        }
    }
}

/// Two `SocketTransport` endpoints in this process over loopback TCP:
/// 64-byte ping-pong for the round trip, 512 KB frames one way for the
/// throughput.
fn socket_probes(out: &mut Values) -> Result<(), String> {
    const PINGS: usize = 2_000;
    const FRAMES: usize = 200;
    const FRAME: usize = 512 * 1024;
    let io = |e: std::io::Error| format!("socket probe: {e}");
    let listeners = [
        TcpListener::bind("127.0.0.1:0").map_err(io)?,
        TcpListener::bind("127.0.0.1:0").map_err(io)?,
    ];
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    let cfg = SocketConfig::default();
    let (rtt_us, mb_s) = std::thread::scope(|scope| {
        // Node 1 echoes the pings, then swallows the frames and
        // acknowledges the last one.
        let echo = scope.spawn(|| -> Result<(), String> {
            let t = SocketTransport::connect_mesh(NodeId(1), &addrs, &listeners[1], &cfg)
                .map_err(io)?;
            for _ in 0..PINGS {
                let ping = recv_message(&t)?;
                t.send(NodeId(0), ping);
            }
            for _ in 0..FRAMES {
                recv_message(&t)?;
            }
            t.send(NodeId(0), Bytes::from(vec![0u8; 64]));
            // Keep the mesh up until node 0 has read the acknowledgement
            // and hung up, which arrives here as a PeerGone.
            let _ = recv_message(&t);
            Ok(())
        });
        let drive = || -> Result<(f64, f64), String> {
            let t = SocketTransport::connect_mesh(NodeId(0), &addrs, &listeners[0], &cfg)
                .map_err(io)?;
            let ping = Bytes::from(vec![7u8; 64]);
            let started = Instant::now();
            for _ in 0..PINGS {
                t.send(NodeId(1), ping.clone());
                recv_message(&t)?;
            }
            let rtt_us = started.elapsed().as_secs_f64() * 1e6 / PINGS as f64;
            let frame = Bytes::from(vec![9u8; FRAME]);
            let started = Instant::now();
            for _ in 0..FRAMES {
                t.send(NodeId(1), frame.clone());
            }
            recv_message(&t)?;
            let mb_s = mb_per_s(FRAMES * FRAME, started.elapsed().as_secs_f64());
            Ok((rtt_us, mb_s))
        };
        let driven = drive();
        let echoed = echo
            .join()
            .map_err(|_| "socket probe: echo thread panicked".to_string());
        echoed.and_then(|e| e).and(driven)
    })?;
    out.insert("net.socket_rtt_us", rtt_us);
    out.insert("net.socket_mb_s", mb_s);
    Ok(())
}

fn count_rows(table: TpchTable) -> LogicalPlan {
    LogicalPlan::scan(table).aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
}

/// The cheapest query there is, with `extra` trivial parameter stages in
/// front of it.
fn trivial_query(extra: usize) -> LogicalQuery {
    let mut query = LogicalQuery::stage(count_rows(TpchTable::Region));
    for _ in 0..extra {
        query = query.then(count_rows(TpchTable::Region));
    }
    query
}

/// Median latency of the trivial query and the extra latency per added
/// trivial stage, through `backend`.
fn floor_latencies(backend: &Backend, reps: usize) -> Result<(f64, f64), String> {
    const EXTRA: usize = 3;
    let time = |extra: usize| -> Result<f64, String> {
        let template = Template {
            name: format!("trivial+{extra}"),
            query: TemplateQuery::Logical(trivial_query(extra)),
        };
        backend
            .execute(&template)
            .map_err(|e| format!("floor probe: {e}"))?;
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            backend
                .execute(&template)
                .map_err(|e| format!("floor probe: {e}"))?;
            samples.push(ms_since(t));
        }
        Ok(median(&samples))
    };
    let one = time(0)?;
    let many = time(EXTRA)?;
    Ok((one, (many - one) / EXTRA as f64))
}

/// Seconds one closed-loop client needs for a pass of the 22 templates
/// while `clients` of them run side by side.
fn concurrent_pass_s(
    backend: &Backend,
    templates: &[Template],
    clients: usize,
) -> Result<f64, String> {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    templates
                        .iter()
                        .try_for_each(|t| backend.execute(t).map(drop))
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "client thread panicked".to_string())?
                .map_err(|e| format!("two-client probe: {e}"))
        })
    })?;
    Ok(started.elapsed().as_secs_f64())
}

/// Names of the three set-up steps of a simulated and of a process cluster.
pub const SIM_STEPS: [&str; 3] = ["tpch.generate_ms", "cluster.start_ms", "storage.load_ms"];
pub const SOCKET_STEPS: [&str; 3] = ["remote.spawn_ms", "remote.connect_ms", "remote.load_ms"];

/// Record a probe cluster's set-up steps, unless the traced workload has
/// already recorded its own under these names.
fn set_up_steps(names: [&'static str; 3], setup: &SetupTimes, out: &mut Values) {
    for (name, ms) in names.into_iter().zip(setup.steps_ms) {
        out.entry(name).or_insert(ms);
    }
}

/// Probes that need a simulated cluster at the probe scale.
fn cluster_probes(sf: f64, out: &mut Values) -> Result<(), String> {
    let (backend, setup) = Backend::set_up(Kind::TpchSim, sf, false)?;
    set_up_steps(SIM_STEPS, &setup, out);
    let (query_ms, stage_ms) = floor_latencies(&backend, 51)?;
    out.insert("cluster.min_query_ms", query_ms);
    out.insert("cluster.min_stage_ms", stage_ms);
    drop(backend);

    // Two clients need two dispatcher slots; everything else as benchmarked.
    let mut cfg = sim_config(NODES, false);
    cfg.max_concurrent = 2;
    let (session, _) =
        sim_session(cfg, TpchDb::generate(sf)).map_err(|e| format!("probe cluster: {e}"))?;
    let backend = Backend::Sim(session);
    let templates = templates(Kind::TpchSim);
    concurrent_pass_s(&backend, &templates, 1)?;
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let one = concurrent_pass_s(&backend, &templates, 1)?;
        let two = concurrent_pass_s(&backend, &templates, 2)?;
        // Two clients finish two passes in `two` seconds.
        ratios.push(2.0 * one / two);
    }
    out.insert("cluster.two_client_speedup_x", median(&ratios));
    Ok(())
}

/// `wide_repart` on a fresh 2×1 cluster per transport: the paper's thesis
/// (scheduled RDMA beats uncoordinated RDMA beats TCP) as three numbers.
fn shuffle_probes(db: &TpchDb, out: &mut Values) -> Result<(), String> {
    let wide = &templates(Kind::Shuffle)[0];
    let transports = [
        (
            "exchange.shuffle_mb_s.rdma_sched",
            Transport::rdma_scheduled(),
        ),
        (
            "exchange.shuffle_mb_s.rdma_unsched",
            Transport::rdma_unscheduled(),
        ),
        ("exchange.shuffle_mb_s.tcp", Transport::tcp()),
    ];
    for (name, transport) in transports {
        let mut cfg = sim_config(NODES, false);
        cfg.transport = transport;
        let (session, _) =
            sim_session(cfg, db.clone()).map_err(|e| format!("shuffle probe: {e}"))?;
        let backend = Backend::Sim(session);
        let run = || {
            backend
                .execute(wide)
                .map_err(|e| format!("shuffle probe: {e}"))
        };
        run()?;
        let mut rates = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let result = run()?;
            rates.push(mb_per_s(
                result.bytes_shuffled as usize,
                t.elapsed().as_secs_f64(),
            ));
        }
        out.insert(name, median(&rates));
    }
    Ok(())
}

/// Probes over two node processes at the probe scale.
fn remote_probes(sf: f64, out: &mut Values) -> Result<(), String> {
    let (backend, setup) = Backend::set_up(Kind::TpchSocket, sf, false)?;
    set_up_steps(SOCKET_STEPS, &setup, out);
    // Timer-bound and quantised: three samples already agree to the step.
    let (query_ms, stage_ms) = floor_latencies(&backend, 3)?;
    out.insert("remote.min_query_ms", query_ms);
    out.insert("remote.min_stage_ms", stage_ms);
    let Backend::Socket(sc) = &backend else {
        return Err("remote probe: not a process cluster".into());
    };
    let sent = || {
        sc.cluster
            .net_stats()
            .map(|(bytes_sent, ..)| bytes_sent)
            .map_err(|e| format!("remote probe: {e}"))
    };
    let before = sent()?;
    for t in templates(Kind::TpchSocket) {
        backend
            .execute(&t)
            .map_err(|e| format!("remote probe {}: {e}", t.name))?;
    }
    out.insert("remote.wire_bytes_per_pass", (sent()? - before) as f64);
    Ok(())
}

/// Scale factor of every probe input: 15 000 orders, ~60 000 lineitems.
/// The join kernels are superlinear, so SF 0.02 inputs cost four times as
/// long and SF 0.05 ones minutes.
const PROBE_SF: f64 = 0.01;

/// Run every kernel probe into `out`. The probes do not depend on the
/// traced workload; every traced run repeats them because a traced run has
/// to report every per-layer metric.
pub fn run_all(quick: bool, out: &mut Values) -> Result<(), String> {
    let sf = if quick { QUICK_SF } else { PROBE_SF };
    let db = TpchDb::generate(sf);
    let orders = Arc::new(db.table(TpchTable::Orders).clone());
    let lineitem = Arc::new(db.table(TpchTable::Lineitem).clone());
    vm_probes(&lineitem, out)?;
    ops_probes(&orders, &lineitem, out);
    wire_probes(&lineitem, out);
    serial_probes(&orders, out)?;
    net_probes(out)?;
    shuffle_probes(&db, out)?;
    drop((orders, lineitem, db));
    cluster_probes(sf, out)?;
    remote_probes(sf, out)
}
