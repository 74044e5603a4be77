//! Benchmark entry point: `cmap-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Runs one workload in a closed loop — one pass after another from this
//! process, on an executor pool as wide as the machine — for `--seconds`,
//! checks every simulated result, and prints as its last stdout line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ledger, and the spans are written under `out/`.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cmap_perfbench::ledger::{self, LedgerInput, Metric};
use cmap_perfbench::replay;
use cmap_perfbench::stats::{median, spread};
use cmap_perfbench::sys;
use cmap_perfbench::trace::Tracer;
use cmap_perfbench::workload::{self, Kind, Pass, Violation};

// Counting allocator, so the ledger can report allocations per pass.
#[global_allocator]
static ALLOC: cmap_obs::alloc::CountingAlloc = cmap_obs::alloc::CountingAlloc;

const USAGE: &str = "usage: cmap-perfbench --workload <testbed_exposed|testbed_ap|city_grid> \
--seed <u64> --seconds <1..600> --trace <0|1>";

/// Fewest measured passes per mode, however long a pass takes.
const MIN_PASSES: usize = 3;

/// Standalone set-ups sampled before the passes, for `setup_s`: at least
/// the minimum, then more until the count or the time budget runs out.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Correctness bookkeeping over every pass of the process.
struct Checks {
    reference_digest: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn new(reference: &Pass) -> Checks {
        let mut c = Checks {
            reference_digest: reference.result_digest,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        };
        c.record(reference, "width-1 reference");
        c
    }

    /// Count a pass's runs; a run with a violation fails, and a pass whose
    /// digest differs from the reference (or whose gain check fails) fails
    /// every one of its runs.
    fn record(&mut self, pass: &Pass, what: &str) {
        let mut problems = workload::violations(pass);
        if pass.result_digest != self.reference_digest {
            problems.push(Violation {
                run: None,
                what: format!(
                    "result_digest {:#018x} differs from the width-1 reference {:#018x}",
                    pass.result_digest, self.reference_digest
                ),
            });
        }
        let runs = pass.runs.len();
        let mut bad: Vec<usize> = problems.iter().filter_map(|p| p.run).collect();
        bad.sort_unstable();
        bad.dedup();
        let failed = if problems.iter().any(|p| p.run.is_none()) {
            runs
        } else {
            bad.len()
        };
        self.attempted += runs as u64;
        self.failed += failed as u64;
        self.problems
            .extend(problems.into_iter().map(|p| format!("{what}: {}", p.what)));
    }
}

/// One measured pass with its host costs.
struct Sample {
    pass: Pass,
    cpu_s: f64,
    allocs: u64,
}

/// Run one pass at `width` and record its host costs.
fn sample(kind: Kind, seed: u64, width: usize, traced: bool) -> Sample {
    let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
    let a0 = cmap_obs::alloc::allocations();
    let pass = workload::run_pass(kind, seed, width, traced, true);
    let allocs = cmap_obs::alloc::allocations() - a0;
    let cpu_s = sys::cpu_seconds().unwrap_or(0.0) - cpu0;
    Sample {
        pass,
        cpu_s,
        allocs,
    }
}

/// Run untraced passes at `width` until `budget` is spent (at least
/// [`MIN_PASSES`]).
fn measure(kind: Kind, seed: u64, width: usize, budget: Duration) -> Vec<Sample> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed() < budget {
        out.push(sample(kind, seed, width, false));
    }
    out
}

/// Alternate untraced and traced passes until `budget` is spent (at least
/// [`MIN_PASSES`] of each), so host drift hits both alike and their
/// difference is the tracing overhead.
fn measure_paired(
    kind: Kind,
    seed: u64,
    width: usize,
    budget: Duration,
) -> (Vec<Sample>, Vec<Sample>) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < MIN_PASSES || start.elapsed() < budget {
        plain.push(sample(kind, seed, width, false));
        traced.push(sample(kind, seed, width, true));
    }
    (plain, traced)
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Host seconds for one standalone set-up of the workload's inputs.
fn setup_seconds(kind: Kind, seed: u64) -> f64 {
    let t0 = Instant::now();
    let setup = workload::setup(kind, seed, &mut Tracer::off());
    std::hint::black_box(&setup);
    t0.elapsed().as_secs_f64()
}

fn end_to_end(samples: &[Sample], setups: &[f64], peak_mib: f64, checks: &Checks) -> Vec<Metric> {
    let col = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let wall = col(&|s| s.pass.wall_ns as f64 / 1e9);
    let mut setup = col(&|s| s.pass.setup_ns as f64 / 1e9);
    setup.extend_from_slice(setups);
    let cpu = col(&|s| s.cpu_s);
    let med = |v: &[f64]| median(v).expect("at least one pass");
    for (name, v) in [("wall_s", &wall), ("setup_s", &setup), ("cpu_s", &cpu)] {
        println!(
            "{name}: median {:.6} over {} passes, IQR/median {:.4}",
            med(v),
            v.len(),
            spread(v).unwrap_or(0.0)
        );
    }
    let ok = checks.attempted - checks.failed;
    vec![
        metric("wall_s", "s", med(&wall)),
        metric("setup_s", "s", med(&setup)),
        metric("cpu_s", "s", med(&cpu)),
        metric("peak_rss_mib", "MiB", peak_mib),
        metric(
            "ok_frac",
            "ratio",
            ok as f64 / checks.attempted.max(1) as f64,
        ),
    ]
}

fn json_result(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the ledger and marks the result incorrect below.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// Write every span of the traced passes, one JSON object per line.
fn write_spans(kind: Kind, seed: u64, passes: &[&Pass]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{seed}.jsonl", kind.name()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for p in passes {
        for s in &p.spans {
            writeln!(w, "{}", s.to_json())?;
        }
    }
    w.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (kind, seed) = (args.kind, args.seed);
    let width = cmap_exec::default_jobs();
    let budget = Duration::from_secs(args.seconds);
    // Host-speed score first, on an idle process.
    let calib_ms = args.trace.then(replay::calib_ms);

    // A serial (width-1) reference pass in job order: it warms caches and
    // lazy tables and pins the result digest every later pass must
    // reproduce. The process's peak memory is read right after it, at a
    // fixed amount of work: resident memory keeps growing with every
    // further pass, so a reading at the end would grow with how many passes
    // fit the budget, and memory held per thread depends on run order.
    let reference = workload::run_pass(kind, seed, 1, false, false);
    let mut checks = Checks::new(&reference);
    let reference_peak_mib = sys::peak_rss_mib().unwrap_or(0.0);
    let reference_rss_mib = sys::current_rss_mib().unwrap_or(0.0);

    let metrics = if args.trace {
        let (untraced, traced) = measure_paired(kind, seed, width, budget);
        for s in untraced.iter().chain(&traced) {
            checks.record(&s.pass, "pass");
        }
        let passes = (untraced.len() + traced.len()) as f64;
        let untraced_wall: Vec<f64> = untraced
            .iter()
            .map(|s| s.pass.wall_ns as f64 / 1e9)
            .collect();
        let allocs = untraced.iter().map(|s| s.allocs as f64).sum::<f64>() / untraced.len() as f64;
        let traced_passes: Vec<Pass> = traced.into_iter().map(|s| s.pass).collect();
        let mut m = ledger::per_layer(&LedgerInput {
            calib_ms: calib_ms.unwrap_or(0.0),
            traced: &traced_passes,
            untraced_wall_s: &untraced_wall,
            allocs_per_pass: allocs,
        });
        let end_rss_mib = sys::current_rss_mib().unwrap_or(0.0);
        m.extend([
            metric("mem.reference_peak_mib", "MiB", reference_peak_mib),
            metric(
                "mem.end_peak_mib",
                "MiB",
                sys::peak_rss_mib().unwrap_or(0.0),
            ),
            metric(
                "mem.rss_growth_mib_per_pass",
                "MiB",
                (end_rss_mib - reference_rss_mib) / passes,
            ),
        ]);
        let refs: Vec<&Pass> = traced_passes.iter().collect();
        match write_spans(kind, seed, &refs) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => checks.problems.push(format!("writing spans: {e}")),
        }
        m
    } else {
        // Set-up is short and noisy next to a pass, so besides each pass's
        // own set-up it is sampled on its own before the loop.
        let t0 = Instant::now();
        let mut setups = Vec::new();
        while setups.len() < SETUP_MIN_REPS
            || (setups.len() < SETUP_MAX_REPS && t0.elapsed() < SETUP_BUDGET)
        {
            setups.push(setup_seconds(kind, seed));
        }
        let samples = measure(kind, seed, width, budget);
        for s in &samples {
            checks.record(&s.pass, "pass");
        }
        end_to_end(&samples, &setups, reference_peak_mib, &checks)
    };

    println!(
        "workload {} seed {seed}: {} runs per pass on {} worker(s)",
        kind.name(),
        reference.runs.len(),
        width.min(reference.runs.len())
    );
    println!(
        "result_digest {:#018x} ({})",
        checks.reference_digest,
        if checks.problems.is_empty() {
            "identical across every pass, pool widths 1 and nproc"
        } else {
            "MISMATCH"
        }
    );
    let gain = workload::cmap_gain(&reference);
    match workload::paper_gain(kind) {
        Some((paper, what)) => {
            println!("cmap_gain {gain:.3} (paper {paper:.1}x: {what}; not gated)")
        }
        None => println!("cmap_gain {gain:.3} (delivered packets, CMAP / DCF; no paper reference)"),
    }
    for p in &checks.problems {
        println!("violation: {p}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = checks.problems.is_empty() && checks.failed == 0 && finite;
    println!("{}", json_result(correct, &checks, &metrics));
    ExitCode::SUCCESS
}
