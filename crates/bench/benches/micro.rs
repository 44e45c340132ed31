//! Criterion micro benchmarks for the engine's main design choices:
//! the schema-specialized wire format, CRC32 partitioning, message-pool
//! reuse vs per-message memory-region registration, join probing,
//! aggregation, and LIKE matching.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use hsqp_engine::exchange::MessagePool;
use hsqp_engine::expr::{col, lit, LikeMatcher};
use hsqp_engine::local::MorselDriver;
use hsqp_engine::ops::{aggregate, probe_join, JoinTable};
use hsqp_engine::plan::{AggFunc, AggPhase, AggSpec, JoinKind};
use hsqp_engine::wire::{RowDeserializer, RowSerializer};
use hsqp_net::{Fabric, FabricConfig, NodeId, RdmaConfig, RdmaNetwork};
use hsqp_numa::{AllocPolicy, SocketId, Topology};
use hsqp_storage::placement::crc32_i64;
use hsqp_tpch::{TpchDb, TpchTable};

fn lineitem() -> hsqp_storage::Table {
    TpchDb::generate(0.01).table(TpchTable::Lineitem).clone()
}

fn bench_wire(c: &mut Criterion) {
    let t = lineitem();
    let ser = RowSerializer::new(t.schema());
    let de = RowDeserializer::new(t.schema());
    let rows = t.rows().min(10_000);
    let mut buf = Vec::new();
    ser.serialize_range(&t, 0..rows, &mut buf);

    let mut g = c.benchmark_group("wire_format");
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("serialize_10k_lineitems", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            ser.serialize_range(&t, 0..rows, &mut out);
            out
        })
    });
    g.bench_function("deserialize_10k_lineitems", |b| {
        b.iter(|| de.deserialize(&buf))
    });
    g.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let keys: Vec<i64> = (0..100_000).collect();
    let mut g = c.benchmark_group("partitioning");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("crc32_bucket_6way", |b| {
        b.iter(|| {
            keys.iter()
                .map(|&k| crc32_i64(k) as usize % 6)
                .fold(0usize, |a, b| a.wrapping_add(b))
        })
    });
    g.finish();
}

fn bench_message_pool(c: &mut Criterion) {
    let fabric = Arc::new(Fabric::new(1, FabricConfig::qdr()));
    let topo = Topology::uniform(2);
    let mut g = c.benchmark_group("message_pool");
    g.bench_function("pooled_reuse", |b| {
        let pool = MessagePool::new(Arc::clone(&fabric), NodeId(0), 1, 64 * 1024);
        // Warm the pool so every take is a reuse (no registration).
        drop(pool.take(AllocPolicy::NumaAware, SocketId(0), &topo));
        b.iter(|| pool.take(AllocPolicy::NumaAware, SocketId(0), &topo).len())
    });
    g.bench_function("fresh_registration", |b| {
        let net = RdmaNetwork::new(Arc::clone(&fabric), RdmaConfig::default());
        let ep = net.endpoint(NodeId(0));
        b.iter(|| ep.register(vec![0u8; 64 * 1024]))
    });
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let db = TpchDb::generate(0.01);
    let orders = db.table(TpchTable::Orders).clone();
    let li = db.table(TpchTable::Lineitem).clone();
    let driver = MorselDriver::new(1, &Topology::uniform(1), 16_384, true);
    let key = orders.schema().index_of("o_orderkey");
    let probe_key = li.schema().index_of("l_orderkey");

    let mut g = c.benchmark_group("hash_join");
    g.sample_size(20);
    g.throughput(Throughput::Elements(li.rows() as u64));
    g.bench_function("build_orders", |b| {
        b.iter_batched(
            || orders.clone(),
            |o| JoinTable::build(o, &[key]),
            BatchSize::LargeInput,
        )
    });
    let jt = JoinTable::build(orders, &[key]);
    g.bench_function("probe_lineitem", |b| {
        b.iter(|| probe_join(&li, &jt, &[probe_key], JoinKind::Inner, &driver, None))
    });
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let li = lineitem();
    let driver = MorselDriver::new(1, &Topology::uniform(1), 16_384, true);
    let rf = li.schema().index_of("l_returnflag");
    let ls = li.schema().index_of("l_linestatus");
    let aggs = vec![
        AggSpec::new(AggFunc::Sum, col("l_quantity"), "sum_qty"),
        AggSpec::new(AggFunc::Count, lit(1), "cnt"),
    ];
    let mut g = c.benchmark_group("aggregation");
    g.sample_size(20);
    g.throughput(Throughput::Elements(li.rows() as u64));
    g.bench_function("group_by_flag_status", |b| {
        b.iter(|| aggregate(&li, &[rf, ls], &aggs, AggPhase::Single, &driver, &[]))
    });
    // Pre-aggregation ablation: the partial phase over the same input.
    g.bench_function("partial_preaggregation", |b| {
        b.iter(|| aggregate(&li, &[rf, ls], &aggs, AggPhase::Partial, &driver, &[]))
    });
    g.finish();
}

fn bench_like(c: &mut Criterion) {
    let texts: Vec<String> = (0..10_000)
        .map(|i| format!("blithely special packages {i} sleep furious requests"))
        .collect();
    let m = LikeMatcher::new("%special%requests%");
    let mut g = c.benchmark_group("like");
    g.throughput(Throughput::Elements(texts.len() as u64));
    g.bench_function("contains_two_parts", |b| {
        b.iter(|| texts.iter().filter(|t| m.matches(t)).count())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_wire,
    bench_partitioning,
    bench_message_pool,
    bench_join,
    bench_aggregation,
    bench_like
);
criterion_main!(benches);
