//! Medium correctness gates.
//!
//! The medium stores only the links that clear the pruning threshold, so
//! it is checked against a brute-force oracle over the *input matrix*,
//! never against another engine:
//!
//! 1. With `epsilon_db = 0`, the stored link set is exactly the pairs
//!    whose received power reaches the delivery floor, with gains
//!    bit-equal to the matrix entry's linear value and delays equal to
//!    the matrix delays (property-tested over random topologies up to 64
//!    nodes), and nothing is reported pruned.
//! 2. With `epsilon_db > 0`, a pair is kept exactly when it clears
//!    `floor + epsilon`, `pruned` counts exactly the pairs in
//!    `[floor, floor + epsilon)`, and the recorded error bound is the
//!    worst per-receiver sum of their power.
//! 3. The 50-node testbed path is pinned: the office-floor scenario's
//!    `Stats::snapshot()` must hash to the committed baseline in
//!    `tests/data/dense50_snapshot.fnv`. Any byte drift on the
//!    testbed-scale path — however the medium internals are refactored —
//!    fails here before it can silently invalidate published figures.

use proptest::prelude::*;

use cmap_suite::experiments::{runner, Protocol, Spec};
use cmap_suite::obs::fnv1a64;
use cmap_suite::phy::dbm_to_mw;
use cmap_suite::phy::units::db_to_ratio;
use cmap_suite::prelude::*;
use cmap_suite::sim::rng::stream_rng;
use cmap_suite::sim::time::secs;
use cmap_suite::topo::select;

/// A random directed gain/delay matrix: mostly disconnected, with a
/// band of plausible link gains where connected, plus a pruning margin
/// in `(0, 20]` dB. (Built on the vendored stub's `FnStrategy`, since
/// the matrix size depends on the drawn `n`.)
fn topology() -> impl Strategy<Value = (usize, Vec<f64>, Vec<u64>, f64)> {
    proptest::strategy::FnStrategy(|rng: &mut proptest::test_runner::TestRng| {
        let n = 2 + rng.below(63) as usize;
        let mut gains = Vec::with_capacity(n * n);
        let mut delays = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            // Draws below -120 dB stand in for "no link at all": roughly
            // half the pairs end up disconnected, like a real floor.
            let g = -200.0 + rng.unit_f64() * 160.0;
            gains.push(if g < -120.0 { f64::NEG_INFINITY } else { g });
            delays.push(rng.below(500));
        }
        for i in 0..n {
            gains[i * n + i] = f64::NEG_INFINITY;
            delays[i * n + i] = 0;
        }
        let epsilon_db = 20.0 * (1.0 - rng.unit_f64());
        (n, gains, delays, epsilon_db)
    })
}

/// What the medium must hold for a gain matrix, computed pair by pair:
/// the kept receivers per transmitter, the pruned-pair count and the
/// error bound (pruned power summed per receiver in transmitter order,
/// worst receiver against the noise floor).
struct Oracle {
    kept: Vec<Vec<NodeId>>,
    pruned: u64,
    error_bound_db: f64,
}

fn oracle(n: usize, gains: &[f64], epsilon_db: f64) -> Oracle {
    let phy = PhyConfig::default();
    let tx_power_mw = dbm_to_mw(phy.tx_power_dbm);
    let floor_mw = dbm_to_mw(phy.delivery_floor_dbm);
    let threshold_mw = floor_mw * db_to_ratio(epsilon_db);
    let mut kept = vec![Vec::new(); n];
    let mut pruned = 0;
    let mut dropped_mw = vec![0.0f64; n];
    for tx in 0..n {
        for rx in (0..n).filter(|&rx| rx != tx) {
            let rss = tx_power_mw * dbm_to_mw(gains[tx * n + rx]);
            if rss >= threshold_mw {
                kept[tx].push(NodeId::new(rx));
            } else if rss >= floor_mw {
                pruned += 1;
                dropped_mw[rx] += rss;
            }
        }
    }
    let worst = dropped_mw.iter().fold(0.0f64, |a, &b| a.max(b));
    Oracle {
        kept,
        pruned,
        error_bound_db: 10.0 * (1.0 + worst / phy.noise_mw()).log10(),
    }
}

fn build(n: usize, gains: &[f64], delays: &[u64], epsilon_db: f64) -> Medium {
    MediumBuilder::new(&PhyConfig::default())
        .epsilon_db(epsilon_db)
        .gains_db(n, gains, delays)
        .build()
}

/// Check `medium` against the oracle for the matrix it was built from.
fn check_against_matrix(
    medium: &Medium,
    n: usize,
    gains: &[f64],
    delays: &[u64],
    epsilon_db: f64,
) -> Result<(), TestCaseError> {
    let want = oracle(n, gains, epsilon_db);
    prop_assert_eq!(medium.len(), n);
    let mut links = 0u64;
    for tx in 0..n {
        let tx_id = NodeId::new(tx);
        prop_assert_eq!(
            medium.reachable(tx_id),
            &want.kept[tx][..],
            "reachable({})",
            tx
        );
        links += medium.reachable(tx_id).len() as u64;
        for &rx in medium.reachable(tx_id) {
            let i = tx * n + rx.index();
            prop_assert_eq!(
                medium.gain(tx_id, rx).to_bits(),
                dbm_to_mw(gains[i]).to_bits(),
                "gain({}, {})",
                tx,
                rx
            );
            prop_assert_eq!(
                medium.delay_ns(tx_id, rx),
                delays[i],
                "delay({}, {})",
                tx,
                rx
            );
        }
    }
    let st = medium
        .sparse_stats()
        .expect("every medium records its pruning");
    prop_assert_eq!(st.links, links);
    prop_assert_eq!(st.pruned, want.pruned);
    prop_assert_eq!(st.tail_pairs, 0);
    prop_assert_eq!(st.epsilon_db.to_bits(), epsilon_db.to_bits());
    prop_assert_eq!(st.error_bound_db.to_bits(), want.error_bound_db.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At epsilon 0 the medium is bitwise the input matrix's above-floor
    /// entries.
    #[test]
    fn sparse_epsilon_zero_is_bitwise_dense((n, gains, delays, _eps) in topology()) {
        let medium = build(n, &gains, &delays, 0.0);
        check_against_matrix(&medium, n, &gains, &delays, 0.0)?;
        let st = medium.sparse_stats().unwrap();
        prop_assert_eq!(st.pruned, 0);
        prop_assert_eq!(st.error_bound_db.to_bits(), 0.0f64.to_bits());
    }

    /// With a positive margin, exactly the `[floor, floor + epsilon)` band
    /// is pruned and accounted.
    #[test]
    fn epsilon_prunes_exactly_the_band_above_the_floor((n, gains, delays, eps) in topology()) {
        let medium = build(n, &gains, &delays, eps);
        check_against_matrix(&medium, n, &gains, &delays, eps)?;
    }
}

/// The 50-node office-floor scenario the committed baseline pins: the
/// same spec/seed/flows `determinism_snapshot.rs` exercises, run over
/// the testbed's gain-matrix medium.
fn dense50_snapshot() -> String {
    let spec = Spec {
        duration: secs(5),
        configs: 4,
        ..Spec::default()
    };
    let ctx = runner::testbed_ctx(&spec);
    let mut rng = stream_rng(spec.run_seed, 0x5e1ec7);
    let pairs = select::exposed_pairs(&ctx.lm, spec.configs, &mut rng);
    let pair = pairs.first().expect("an exposed-terminal pair exists");
    let mut world = runner::build_world(&ctx, 11);
    world.add_flow(pair.s1, pair.r1, spec.payload);
    world.add_flow(pair.s2, pair.r2, spec.payload);
    Protocol::cmap().install(&mut world);
    world.run_until(spec.duration);
    world.stats().snapshot()
}

#[test]
fn dense50_snapshot_matches_committed_baseline() {
    let snap = dense50_snapshot();
    let got = fnv1a64(snap.as_bytes());
    let committed = include_str!("data/dense50_snapshot.fnv");
    let want = u64::from_str_radix(
        committed
            .lines()
            .find(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .expect("baseline file holds a hash line")
            .trim()
            .trim_start_matches("0x"),
        16,
    )
    .expect("baseline hash parses as hex");
    assert_eq!(
        got, want,
        "50-node dense-path snapshot drifted from the committed baseline \
         (got {got:#018x}). If the change is an intentional behavior change, \
         regenerate tests/data/dense50_snapshot.fnv; otherwise this is a \
         medium-refactor regression."
    );
}
