//! Criterion micro-benchmarks for the simulator's hot paths and the core
//! CMAP data structures, plus an end-to-end simulation-rate benchmark.
//!
//! These don't reproduce paper figures (the `src/bin/*` binaries do); they
//! guard the performance the figure harness depends on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cmap_core::{CmapConfig, CmapMac};
use cmap_phy::{error_model, Rate};
use cmap_sim::event::{Event, Scheduler};
use cmap_sim::time::secs;
use cmap_sim::{MediumBuilder, PhyConfig, World};
use cmap_wire::{cmap, Frame, MacAddr};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("scheduler_10k_events", |b| {
        b.iter(|| {
            let mut s = Scheduler::new();
            for i in 0..10_000u64 {
                s.schedule(
                    (i * 7919) % 100_000,
                    Event::Timer {
                        node: 0.into(),
                        token: i,
                    },
                );
            }
            let mut last = 0;
            while let Some((t, _)) = s.pop() {
                last = t;
            }
            black_box(last)
        })
    });
    // The engine's real pattern: a MAC timer ~1 s out is staged as soon as
    // the queue drains to it, and every event handlers then schedule a few
    // ms past the last popped time takes the merge path ahead of it.
    c.bench_function("scheduler_far_anchor_interleaved", |b| {
        let timer = |token| Event::Timer {
            node: 0.into(),
            token,
        };
        let offset = |i: u64| (i * 7_919_003) % 10_000_000;
        b.iter(|| {
            let mut s = Scheduler::new();
            s.schedule(secs(1), timer(u64::MAX));
            for i in 0..256u64 {
                s.schedule(offset(i), timer(i));
            }
            for i in 256..10_256u64 {
                let (t, _) = s.pop().unwrap();
                s.schedule(t + offset(i), timer(i));
            }
            let mut last = 0;
            while let Some((t, _)) = s.pop() {
                last = t;
            }
            black_box(last)
        })
    });
}

fn bench_defer_table(c: &mut Criterion) {
    use cmap_core::defer_table::DeferTable;
    let mut table = DeferTable::new();
    for i in 0..100u16 {
        table.apply_rule1(
            MacAddr::from_node_index(i),
            MacAddr::from_node_index(i + 100),
            Rate::R6,
            1_000_000,
        );
        table.apply_rule2(
            MacAddr::from_node_index(i),
            MacAddr::from_node_index(i + 200),
            Rate::R6,
            1_000_000,
        );
    }
    c.bench_function("defer_table_lookup_200_entries", |b| {
        b.iter(|| {
            let mut hits = 0;
            for i in 0..100u16 {
                if table.must_defer(
                    MacAddr::from_node_index(i),
                    MacAddr::from_node_index(i + 100),
                    MacAddr::from_node_index(i + 300),
                    black_box(0),
                    None,
                ) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_per_model(c: &mut Criterion) {
    c.bench_function("per_1400B_sinr_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for db in 0..200 {
                let sinr = 10f64.powf(f64::from(db) / 100.0);
                acc += error_model::packet_success_prob(black_box(sinr), Rate::R6, 1400);
            }
            black_box(acc)
        })
    });
}

fn bench_wire_roundtrip(c: &mut Criterion) {
    let frame = Frame::CmapData(cmap::Data {
        src: MacAddr::from_node_index(1),
        dst: MacAddr::from_node_index(2),
        vpkt_seq: 7,
        index: 3,
        flow: 0,
        flow_seq: 1234,
        payload: vec![0xC5; 1400],
    });
    c.bench_function("wire_emit_parse_1400B", |b| {
        b.iter(|| {
            let bytes = frame.emit();
            black_box(Frame::parse(&bytes).expect("roundtrip"))
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    // One simulated second of an exposed-terminal pair under CMAP in a
    // 10-node world; reports wall time per simulated second.
    c.bench_function("sim_1s_exposed_cmap_10_nodes", |b| {
        b.iter(|| {
            let phy = PhyConfig::default();
            let n = 10;
            let mut gains = vec![-120.0; n * n];
            let mut set = |a: usize, bb: usize, rss: f64| {
                gains[a * n + bb] = rss - 15.0;
                gains[bb * n + a] = rss - 15.0;
            };
            set(0, 1, -60.0);
            set(2, 3, -60.0);
            set(0, 2, -75.0);
            set(0, 3, -93.0);
            set(2, 1, -93.0);
            for i in 0..n {
                gains[i * n + i] = f64::NEG_INFINITY;
            }
            let medium = MediumBuilder::new(&phy)
                .gains_db(n, &gains, &vec![100; n * n])
                .build();
            let mut w = World::builder().medium(medium).phy(phy).seed(1).build();
            w.add_flow(0, 1, 1400);
            w.add_flow(2, 3, 1400);
            for node in 0..n {
                w.set_mac(node, Box::new(CmapMac::new(CmapConfig::default())));
            }
            w.run_until(secs(1));
            black_box(w.events_processed())
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_defer_table,
    bench_per_model,
    bench_wire_roundtrip,
    bench_end_to_end
);
criterion_main!(benches);
