//! The per-layer ledger of a traced workload: layer self times from the
//! spans, engine and MAC counts from the runs, executor utilisation, and
//! the layer replays' estimated shares of `run_until` time.

use cmap_phy::{dbm_to_mw, Rate};
use cmap_sim::NodeId;

use crate::replay::{self, FrameMix};
use crate::stats::{median, tail_percentile};
use crate::trace::{self_time_by_name, self_times, Span};
use crate::workload::{Family, Pass, RunRecord, Stage, PAYLOAD};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `sim.run_ms`.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Layers with a span of their own; each reports `<span>_ms`, its summed
/// self time per pass.
pub const LAYER_SPANS: [(&str, &str); 13] = [
    ("bench.pass", "bench.pass_ms"),
    ("topo.testbed", "topo.testbed_ms"),
    ("topo.measure", "topo.measure_ms"),
    ("topo.select", "topo.select_ms"),
    ("topo.citygen", "topo.citygen_ms"),
    ("medium.build", "medium.build_ms"),
    ("exec.map", "exec.map_ms"),
    ("sim.job", "sim.job_ms"),
    ("sim.world_build", "sim.world_build_ms"),
    ("sim.add_flow", "sim.add_flow_ms"),
    ("mac.install", "mac.install_ms"),
    ("sim.run", "sim.run_ms"),
    ("stats.measure", "stats.measure_ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Inputs to the ledger gathered by the measuring loop.
pub struct LedgerInput<'a> {
    /// Host-speed score.
    pub calib_ms: f64,
    /// The traced passes (identical in every simulated count).
    pub traced: &'a [Pass],
    /// Wall seconds of the untraced passes of the same process.
    pub untraced_wall_s: &'a [f64],
    /// Mean allocations per untraced pass.
    pub allocs_per_pass: f64,
}

/// Compute every per-layer metric. Times are per pass (mean over the
/// traced passes); counts are those of one pass.
pub fn per_layer(input: &LedgerInput<'_>) -> Vec<Metric> {
    let traced = input.traced;
    assert!(!traced.is_empty(), "the ledger needs a traced pass");
    let passes = traced.len() as f64;
    let spans: Vec<Span> = traced
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    let by_name = self_time_by_name(&spans);
    let ms_per_pass = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e6 / passes;

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        m.push(Metric { name, unit, value });
    };
    put("host.calib_ms", "ms", input.calib_ms);
    for (span, metric) in LAYER_SPANS {
        put(metric, "ms", ms_per_pass(span));
    }

    // Simulated counts: every pass runs the same inputs, so one suffices.
    let first = &traced[0];
    let runs = &first.runs;
    let sum = |f: &dyn Fn(&RunRecord) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let events = sum(&|r| r.counters.events);
    let kind = |i: usize| sum(&|r| r.counters.by_kind[i]);
    let (tx_end, frame_start, frame_end, timer) = (kind(0), kind(1), kind(2), kind(3));
    let sim_run_ms = ms_per_pass("sim.run");
    put("sim.events", "count", events);
    put("sim.events.tx_end", "count", tx_end);
    put("sim.events.frame_start", "count", frame_start);
    put("sim.events.frame_end", "count", frame_end);
    put("sim.events.timer", "count", timer);
    put(
        "sim.frame_event_share",
        "ratio",
        ratio(frame_start + frame_end, events),
    );
    put("sim.events_per_s", "1/s", ratio(events, sim_run_ms / 1e3));
    let cascades = sum(&|r| r.counters.cascades);
    put("sched.cascades", "count", cascades);
    put("sched.cascades_per_event", "ratio", ratio(cascades, events));
    let max_occupancy = runs
        .iter()
        .map(|r| r.counters.max_occupancy)
        .max()
        .unwrap_or(0);
    put("sched.max_occupancy", "count", max_occupancy as f64);
    let high_water = runs
        .iter()
        .map(|r| r.counters.pool_high_water)
        .max()
        .unwrap_or(0);
    put("pool.high_water", "count", high_water as f64);
    put("pool.recycled", "count", sum(&|r| r.counters.pool_recycled));
    put("alloc.count", "count", input.allocs_per_pass);
    put(
        "alloc.per_kevent",
        "ratio",
        ratio(input.allocs_per_pass, events / 1e3),
    );
    let (tx, rx_ok) = (sum(&|r| r.counters.tx), sum(&|r| r.counters.rx_ok));
    put("sim.tx", "count", tx);
    put("sim.rx_ok", "count", rx_ok);
    put("sim.rx_fail", "count", sum(&|r| r.counters.rx_fail));
    put("sim.rx_ok_per_tx", "ratio", ratio(rx_ok, tx));
    let ber_lookups = sum(&|r| r.counters.ber_lookups);
    put("phy.ber_lookups", "count", ber_lookups);
    put("phy.ber_per_event", "ratio", ratio(ber_lookups, events));

    // Per MAC family, over every traced pass.
    let all_runs = || traced.iter().flat_map(|p| p.runs.iter());
    let fam = |f: Family, get: &dyn Fn(&RunRecord) -> u64| {
        all_runs().filter(|r| r.family == f).map(get).sum::<u64>() as f64
    };
    let fam_one = |f: Family, get: &dyn Fn(&RunRecord) -> u64| {
        runs.iter().filter(|r| r.family == f).map(get).sum::<u64>() as f64
    };
    let c = Family::Cmap;
    put(
        "core.ns_per_event",
        "ns",
        ratio(fam(c, &|r| r.run_until_ns), fam(c, &|r| r.counters.events)),
    );
    let cmap_vpkt = fam_one(c, &|r| r.counters.cmap_vpkt);
    let cmap_ack_tx = fam_one(c, &|r| r.counters.cmap_ack_tx);
    let cmap_il = fam_one(c, &|r| r.counters.cmap_il);
    let cmap_data =
        (fam_one(c, &|r| r.counters.tx) - 2.0 * cmap_vpkt - cmap_ack_tx - cmap_il).max(0.0);
    put(
        "core.defer_per_vpkt",
        "ratio",
        ratio(fam_one(c, &|r| r.counters.cmap_defer), cmap_vpkt),
    );
    put(
        "core.rtx_pkt_frac",
        "ratio",
        ratio(fam_one(c, &|r| r.counters.cmap_rtx_pkt), cmap_data),
    );
    put(
        "core.ack_timeouts",
        "count",
        fam_one(c, &|r| r.counters.cmap_ack_timeout),
    );
    let d = Family::Dcf;
    put(
        "mac80211.ns_per_event",
        "ns",
        ratio(fam(d, &|r| r.run_until_ns), fam(d, &|r| r.counters.events)),
    );
    let dcf_data = fam_one(d, &|r| r.counters.dcf_data);
    put(
        "mac80211.retx_frac",
        "ratio",
        ratio(fam_one(d, &|r| r.counters.dcf_retx), dcf_data),
    );
    put(
        "mac80211.ack_timeouts",
        "count",
        fam_one(d, &|r| r.counters.dcf_ack_timeout),
    );

    // Executor: per-run wall times and pool utilisation.
    let exec = exec_stats(&spans, first.workers);
    put("exec.workers", "count", first.workers as f64);
    put("exec.busy_frac", "ratio", exec.busy_frac);
    put("exec.run_n", "count", exec.run_ms.len() as f64);
    put("exec.run_ms_p50", "ms", median(&exec.run_ms).unwrap_or(0.0));
    // The highest percentile with at least ten samples beyond it; with
    // fewer than 20 runs no percentile qualifies and the maximum stands in
    // (reported as the 100th percentile).
    let (pct, tail) = tail_percentile(&exec.run_ms)
        .unwrap_or((100.0, exec.run_ms.iter().copied().fold(0.0, f64::max)));
    put("exec.run_tail_pct", "%", pct);
    put("exec.run_ms_tail", "ms", tail);
    put(
        "exec.run_ms_max",
        "ms",
        exec.run_ms.iter().copied().fold(0.0, f64::max),
    );
    put("exec.tail_idle_ms", "ms", exec.tail_idle_ns / 1e6 / passes);

    // Tracing cost and coverage.
    let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    let overhead = match (median(&traced_wall), median(input.untraced_wall_s)) {
        (Some(t), Some(u)) => ratio(t, u) - 1.0,
        _ => 0.0,
    };
    put("trace.overhead_frac", "ratio", overhead);
    let own = self_times(&spans);
    let (root_own, root_dur) = spans
        .iter()
        .filter(|s| s.parent == 0)
        .fold((0u64, 0u64), |(o, d), s| (o + own[&s.id], d + s.dur_ns()));
    put(
        "trace.coverage",
        "ratio",
        1.0 - ratio(root_own as f64, root_dur as f64),
    );

    // Layer replays at this workload's operating point.
    let phy = first.setup.phy();
    let noise_mw = dbm_to_mw(phy.noise_floor_dbm);
    let sinrs = link_sinrs(first, noise_mw);
    let ber_ns = replay::ber_ns(&sinrs, Rate::R6);
    let mix = FrameMix {
        cmap_ht: (2.0 * cmap_vpkt) as u64,
        cmap_data: cmap_data as u64,
        cmap_ack: cmap_ack_tx as u64,
        cmap_il: cmap_il as u64,
        dot11_data: dcf_data as u64,
        dot11_ack: fam_one(d, &|r| r.counters.dcf_ack_tx) as u64,
    };
    let wire = replay::wire_cost(&mix, PAYLOAD);
    let sched_ns = replay::sched_op_ns(max_occupancy as usize);
    let run_ns = sim_run_ms * 1e6;
    let ber_total = ber_ns * ber_lookups;
    let wire_total = wire.compose_ns * tx + wire.parse_ns * rx_ok;
    let sched_total = sched_ns * events;
    put("phy.ber_ns", "ns", ber_ns);
    put("wire.frame_ns", "ns", wire.compose_ns + wire.parse_ns);
    put("sched.op_ns", "ns", sched_ns);
    put("phy.ber_share", "ratio", ratio(ber_total, run_ns));
    put("wire.frame_share", "ratio", ratio(wire_total, run_ns));
    put("sched.op_share", "ratio", ratio(sched_total, run_ns));
    put(
        "sim.residual_ms",
        "ms",
        sim_run_ms - (ber_total + wire_total + sched_total) / 1e6,
    );

    // Medium shape.
    let (links, pruned, bound) = medium_shape(first);
    put("medium.links", "count", links);
    put("medium.pruned", "count", pruned);
    put("medium.error_bound_db", "dB", bound);
    m
}

/// Executor figures derived from the spans.
struct ExecStats {
    run_ms: Vec<f64>,
    busy_frac: f64,
    tail_idle_ns: f64,
}

fn exec_stats(spans: &[Span], workers: usize) -> ExecStats {
    let maps: Vec<&Span> = spans.iter().filter(|s| s.name == "exec.map").collect();
    let mut run_ms = Vec::new();
    let (mut busy, mut capacity, mut tail_idle) = (0u64, 0u64, 0u64);
    for map in maps {
        let jobs: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == map.id && s.name == "sim.job")
            .collect();
        run_ms.extend(jobs.iter().map(|s| s.dur_ns() as f64 / 1e6));
        busy += jobs.iter().map(|s| s.dur_ns()).sum::<u64>();
        capacity += map.dur_ns() * workers as u64;
        // The pool runs below full width from the moment its first worker
        // runs out of jobs until the batch ends.
        let mut last_end: Vec<(u32, u64)> = Vec::new();
        for j in &jobs {
            match last_end.iter_mut().find(|(t, _)| *t == j.thread) {
                Some((_, e)) => *e = (*e).max(j.end_ns),
                None => last_end.push((j.thread, j.end_ns)),
            }
        }
        if let Some(first_idle) = last_end.iter().map(|&(_, e)| e).min() {
            tail_idle += map.end_ns.saturating_sub(first_idle);
        }
    }
    ExecStats {
        run_ms,
        busy_frac: ratio(busy as f64, capacity as f64),
        tail_idle_ns: tail_idle as f64,
    }
}

/// Linear SNRs of the workload's links above receiver sensitivity, from
/// its own link budgets (the testbed's gain matrix, or the city medium's
/// kept links from a sample of transmitters).
fn link_sinrs(pass: &Pass, noise_mw: f64) -> Vec<f64> {
    let phy = pass.setup.phy();
    let floor_mw = dbm_to_mw(phy.sensitivity_dbm);
    let mut out = Vec::new();
    match &pass.setup.stage {
        Stage::Testbed(ctx) => {
            for &g in &ctx.tb.gains_db {
                let rss_mw = dbm_to_mw(phy.tx_power_dbm + g);
                if g.is_finite() && rss_mw >= floor_mw {
                    out.push(rss_mw / noise_mw);
                }
            }
        }
        Stage::City { medium, .. } => {
            for tx in (0..medium.len()).step_by(97) {
                let tx = NodeId::new(tx);
                for &rx in medium.reachable(tx) {
                    let rss_mw = medium.rss_mw(tx, rx);
                    if rss_mw >= floor_mw {
                        out.push(rss_mw / noise_mw);
                    }
                }
            }
        }
    }
    if out.is_empty() {
        out.push(1.0);
    }
    out
}

/// Kept links, pruned links and the pruning error bound of the medium.
fn medium_shape(pass: &Pass) -> (f64, f64, f64) {
    match &pass.setup.stage {
        Stage::Testbed(ctx) => {
            let n = ctx.tb.len();
            let medium = cmap_sim::MediumBuilder::new(&ctx.phy)
                .gains_db(n, &ctx.tb.gains_db, &ctx.tb.delay_ns)
                .build();
            let links: usize = (0..n).map(|i| medium.reachable(NodeId::new(i)).len()).sum();
            (links as f64, 0.0, 0.0)
        }
        Stage::City { medium, .. } => {
            let s = medium
                .sparse_stats()
                .expect("the city builds a sparse medium");
            (s.links as f64, s.pruned as f64, s.error_bound_db)
        }
    }
}
