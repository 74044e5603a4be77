//! Decomposition equivalence: the benchmark's split sequence — build the
//! world, add flows, install MACs, `run_until` (whole or in traced
//! slices), measure — must produce what the experiment code produces for
//! the same inputs, so timing the layers from outside cannot drift from
//! the experiments.

use cmap_bench::figures::{Figure, ScaleSweep};
use cmap_bench::{Cli, Effort};
use cmap_experiments::{runner, Protocol, Spec};
use cmap_obs::MetricValue;
use cmap_perfbench::stats::Fnv;
use cmap_perfbench::trace::Tracer;
use cmap_perfbench::workload::{self, run_job, Kind, RunRecord, Setup, Stage, PAYLOAD};

fn testbed_ctx(setup: &Setup) -> &cmap_experiments::TestbedCtx {
    match &setup.stage {
        Stage::Testbed(ctx) => ctx,
        Stage::City { .. } => panic!("not a testbed workload"),
    }
}

#[test]
fn testbed_split_sequence_matches_run_links() {
    for kind in [Kind::TestbedExposed, Kind::TestbedAp] {
        let setup = workload::setup(kind, 7, &mut Tracer::off());
        assert_ne!(setup.order, (0..setup.jobs.len()).collect::<Vec<_>>());
        let ctx = testbed_ctx(&setup);
        // One configuration per workload: its first CMAP run, the path
        // whose decisions the benchmark exists to time.
        let job = setup
            .jobs
            .iter()
            .find(|j| matches!(j.protocol, Protocol::Cmap(_)))
            .expect("a CMAP run");
        let spec = Spec {
            duration: kind.duration(),
            warmup_frac: 0.4,
            payload: PAYLOAD,
            ..Spec::default()
        };
        assert_eq!(spec.measure_from(), kind.measure_from());

        let reference = runner::run_links(ctx, &job.links, &job.protocol, &spec, job.seed);
        let untraced = run_job(&setup, job, &mut Tracer::off());
        let mut tracer = Tracer::on(0, 1);
        let traced = run_job(&setup, job, &mut tracer);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&untraced.per_flow_mbps),
            bits(&reference.per_flow_mbps),
            "{kind:?}"
        );
        assert_eq!(untraced.counters.tx, reference.txs, "{kind:?}");
        assert_eq!(untraced.counters.cmap_defer, reference.defers, "{kind:?}");

        // The same sequence through the experiments' own world builder,
        // run in one `run_until`, gives the same snapshot digest.
        let mut world = runner::build_world(ctx, job.seed);
        for &(s, r) in &job.links {
            world.add_flow(s, r, PAYLOAD);
        }
        job.protocol.install(&mut world);
        world.run_until(kind.duration());
        let whole = Fnv::of(world.stats().snapshot().as_bytes());
        assert_eq!(untraced.snapshot_fnv, whole, "{kind:?}");
        // Slicing `run_until` for tracing changes nothing simulated.
        assert_eq!(traced.snapshot_fnv, whole, "{kind:?}");
        let slices = tracer.take().iter().filter(|s| s.name == "sim.run").count();
        assert_eq!(slices as u64, kind.duration() / workload::SLICE);
    }
}

fn scale_metric(out: &cmap_bench::figures::FigureOutput, key: &str) -> u64 {
    match out.metrics.iter().find(|(k, _)| k == key) {
        Some((_, MetricValue::Uint(v))) => *v,
        other => panic!("scale sweep metric {key}: {other:?}"),
    }
}

#[test]
fn city_runs_match_the_scale_sweep_cell() {
    // The scale sweep seeds layout and world with one seed.
    let seed = workload::CITY_WORLD_SEED;
    let setup = workload::setup_city(seed, seed, &mut Tracer::off());
    let runs: Vec<RunRecord> = setup
        .jobs
        .iter()
        .map(|j| run_job(&setup, j, &mut Tracer::off()))
        .collect();
    let cli = Cli {
        effort: Effort::Quick,
        seed,
        runs: Some(workload::CITY_NODES),
        ..Cli::default()
    };
    let sweep = ScaleSweep.run(&cli);
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    for (run, mac) in runs.iter().zip(["cmap", "dcf"]) {
        let key = |m: &str| format!("scale.n{}.{mac}.{m}", workload::CITY_NODES);
        assert_eq!(
            run.counters.events,
            scale_metric(&sweep, &key("events")),
            "{mac}"
        );
        assert_eq!(
            run.delivered,
            scale_metric(&sweep, &key("delivered")),
            "{mac}"
        );
    }
    // Traced slicing reproduces the untraced city result too.
    let traced = run_job(&setup, &setup.jobs[0], &mut Tracer::on(0, 1));
    assert_eq!(traced.snapshot_fnv, runs[0].snapshot_fnv);
}

#[test]
fn result_digest_is_identical_across_pool_widths_and_tracing() {
    // Job order serially; the seeded executor order at width 2.
    let serial = workload::run_pass(Kind::TestbedExposed, 3, 1, false, false);
    let wide = workload::run_pass(Kind::TestbedExposed, 3, 2, false, true);
    let traced = workload::run_pass(Kind::TestbedExposed, 3, 2, true, true);
    assert_eq!(serial.result_digest, wide.result_digest);
    assert_eq!(serial.result_digest, traced.result_digest);
    assert!(workload::violations(&serial).is_empty());
    assert!(!traced.spans.is_empty());
}
