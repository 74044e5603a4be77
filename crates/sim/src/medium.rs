//! The shared wireless medium: who hears whom, and how loudly.
//!
//! A [`Medium`] holds frozen large-scale link state (path loss +
//! shadowing, computed by `cmap-topo` or built directly in tests) as CSR
//! rows: for every transmitter, one contiguous run of links, each a
//! receiver, a linear power gain and a propagation delay. Only links whose
//! received power clears the delivery floor *plus a configurable epsilon
//! margin* are stored, and they are the only receivers that get frame
//! events. Memory and event fan-out therefore scale with the link count,
//! which is what makes 10k–100k-node deployments tractable.
//!
//! The pruning contract is stated against the input: at `epsilon_db = 0`
//! the stored links are exactly the input pairs whose received power
//! reaches the delivery floor, with gains and delays bit-identical to the
//! input matrix. With a positive epsilon, links in `[floor, floor + ε)`
//! are dropped, and the worst-case interference power dropped at any
//! receiver is recorded as an error bound ([`SparseStats`]) so run
//! artifacts state exactly how much physics the pruning discarded.
//!
//! The event path never looks a link up by `(tx, rx)`: the world walks
//! the transmitter's row when a frame starts, and each `FrameStart` event
//! carries the link's index, so the receiver and its received power are
//! array reads. [`Medium::gain`] and [`Medium::delay_ns`] binary-search a
//! row and are setup-time queries.
//!
//! Construction goes through [`MediumBuilder`].

use std::ops::Range;

use crate::config::PhyConfig;
use crate::node::NodeId;
use cmap_phy::units::db_to_ratio;
use cmap_phy::{dbm_to_mw, propagation};

/// Build-time accounting of what pruning discarded, recorded in run
/// artifacts so a pruned run states its own physics error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseStats {
    /// Directed links kept (above the pruning threshold).
    pub links: u64,
    /// Directed links evaluated and pruned although they reach the
    /// delivery floor (received power in `[delivery floor, threshold)`).
    pub pruned: u64,
    /// Directed pairs never evaluated (outside the spatial candidate
    /// range of a position-fed build); bounded by the tail gain.
    pub tail_pairs: u64,
    /// The configured pruning margin above the delivery floor, in dB.
    pub epsilon_db: f64,
    /// Worst-case accumulated interference power dropped at any single
    /// receiver, expressed as the SINR-denominator inflation it could
    /// cause: `10·log10(1 + max_rx dropped_mw / noise_mw)` dB. `0.0`
    /// when epsilon is zero and every pair was evaluated.
    pub error_bound_db: f64,
}

/// Uniform-grid spatial index over node positions (position builds only).
#[derive(Debug, Clone)]
struct Grid {
    cell_m: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// CSR buckets: cell `c`'s nodes are `nodes[off[c]..off[c + 1]]`,
    /// ascending.
    off: Vec<u32>,
    nodes: Vec<NodeId>,
    pos: Vec<(f64, f64)>,
}

impl Grid {
    fn build(pos: &[(f64, f64)], cell_m: f64) -> Grid {
        assert!(cell_m > 0.0, "grid cell must be positive");
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &(x, y) in pos {
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        if pos.is_empty() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let cols = (((max_x - min_x) / cell_m).floor() as usize + 1).max(1);
        let rows = (((max_y - min_y) / cell_m).floor() as usize + 1).max(1);
        // Counting sort into CSR buckets: two passes, no per-cell Vec.
        let cell_of = |x: f64, y: f64| {
            let cx = (((x - min_x) / cell_m).floor() as usize).min(cols - 1);
            let cy = (((y - min_y) / cell_m).floor() as usize).min(rows - 1);
            cy * cols + cx
        };
        let mut counts = vec![0u32; cols * rows + 1];
        for &(x, y) in pos {
            counts[cell_of(x, y) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let off = counts.clone();
        let mut cursor = counts;
        let mut nodes = vec![NodeId::default(); pos.len()];
        for (i, &(x, y)) in pos.iter().enumerate() {
            let c = cell_of(x, y);
            nodes[cursor[c] as usize] = NodeId::new(i);
            cursor[c] += 1;
        }
        Grid {
            cell_m,
            min_x,
            min_y,
            cols,
            rows,
            off,
            nodes,
            pos: pos.to_vec(),
        }
    }

    fn dist_m(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.pos[a.index()];
        let (bx, by) = self.pos[b.index()];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Nodes (other than `node`) within `radius_m`, written to `out` in
    /// ascending node order.
    fn neighbors_within(&self, node: NodeId, radius_m: f64, out: &mut Vec<NodeId>) {
        out.clear();
        let (x, y) = self.pos[node.index()];
        let reach = (radius_m / self.cell_m).ceil() as isize;
        let cx = (((x - self.min_x) / self.cell_m).floor() as usize).min(self.cols - 1) as isize;
        let cy = (((y - self.min_y) / self.cell_m).floor() as usize).min(self.rows - 1) as isize;
        let r2 = radius_m * radius_m;
        for gy in (cy - reach).max(0)..=(cy + reach).min(self.rows as isize - 1) {
            for gx in (cx - reach).max(0)..=(cx + reach).min(self.cols as isize - 1) {
                let c = gy as usize * self.cols + gx as usize;
                for &other in &self.nodes[self.off[c] as usize..self.off[c + 1] as usize] {
                    if other == node {
                        continue;
                    }
                    let (ox, oy) = self.pos[other.index()];
                    if (ox - x).powi(2) + (oy - y).powi(2) <= r2 {
                        out.push(other);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

/// The medium a [`World`](crate::World) runs over: epsilon-pruned CSR
/// link rows, one per transmitter. All power quantities are linear mW
/// (gains are linear power ratios); conversions to dB happen at the edges.
#[derive(Debug, Clone)]
pub struct Medium {
    n: usize,
    tx_power_mw: f64,
    /// CSR offsets: tx's links are index range `link_off[tx]..link_off[tx+1]`.
    link_off: Vec<u32>,
    /// Link receivers, ascending within each transmitter's row.
    link_rx: Vec<NodeId>,
    /// Linear power gain per link, parallel to `link_rx`.
    link_gain: Vec<f64>,
    /// Propagation delay per link in ns, parallel to `link_rx`.
    link_delay: Vec<u64>,
    stats: SparseStats,
}

/// Row-by-row accumulator shared by the matrix and position builds: keeps
/// each offered link above the threshold, counts and accounts the ones
/// between the floor and the threshold.
struct RowBuilder {
    tx_power_mw: f64,
    floor_mw: f64,
    threshold_mw: f64,
    link_off: Vec<u32>,
    link_rx: Vec<NodeId>,
    link_gain: Vec<f64>,
    link_delay: Vec<u64>,
    pruned: u64,
    /// Pruned power per receiver, in mW.
    dropped_mw: Vec<f64>,
}

impl RowBuilder {
    fn new(n: usize, phy: &PhyConfig, epsilon_db: f64) -> RowBuilder {
        assert!(epsilon_db >= 0.0, "epsilon is a margin above the floor");
        let floor_mw = dbm_to_mw(phy.delivery_floor_dbm);
        let mut link_off = Vec::with_capacity(n + 1);
        link_off.push(0);
        RowBuilder {
            tx_power_mw: dbm_to_mw(phy.tx_power_dbm),
            floor_mw,
            threshold_mw: floor_mw * db_to_ratio(epsilon_db),
            link_off,
            link_rx: Vec::new(),
            link_gain: Vec::new(),
            link_delay: Vec::new(),
            pruned: 0,
            dropped_mw: vec![0.0; n],
        }
    }

    /// Offer the current row's link to `rx` with linear `gain`; `delay_ns`
    /// is only evaluated for a kept link.
    fn offer(&mut self, rx: NodeId, gain: f64, delay_ns: impl FnOnce() -> u64) {
        let rss = self.tx_power_mw * gain;
        if rss >= self.threshold_mw {
            self.link_rx.push(rx);
            self.link_gain.push(gain);
            self.link_delay.push(delay_ns());
        } else if rss >= self.floor_mw {
            self.pruned += 1;
            self.dropped_mw[rx.index()] += rss;
        }
    }

    fn end_row(&mut self) {
        self.link_off
            .push(u32::try_from(self.link_rx.len()).expect("links fit u32"));
    }

    /// Fold the per-receiver dropped power into the recorded stats.
    fn finish(self, tail_pairs: u64, epsilon_db: f64, noise_mw: f64) -> Medium {
        let worst = self.dropped_mw.iter().fold(0.0f64, |a, &b| a.max(b));
        Medium {
            n: self.link_off.len() - 1,
            tx_power_mw: self.tx_power_mw,
            stats: SparseStats {
                links: self.link_rx.len() as u64,
                pruned: self.pruned,
                tail_pairs,
                epsilon_db,
                error_bound_db: 10.0 * (1.0 + worst / noise_mw).log10(),
            },
            link_off: self.link_off,
            link_rx: self.link_rx,
            link_gain: self.link_gain,
            link_delay: self.link_delay,
        }
    }
}

impl Medium {
    /// Build from a row-major `n × n` matrix of link gains in dB
    /// (negative = loss) and per-link delays in nanoseconds (test and
    /// testbed scale: the matrix is O(n²) to hand over in the first
    /// place). Diagonal entries are ignored.
    fn from_gains_db(
        n: usize,
        gains_db: &[f64],
        delay_ns: &[u64],
        phy: &PhyConfig,
        epsilon_db: f64,
    ) -> Medium {
        let mut rows = RowBuilder::new(n, phy, epsilon_db);
        for tx in 0..n {
            for rx in 0..n {
                if tx != rx {
                    let i = tx * n + rx;
                    rows.offer(NodeId::new(rx), dbm_to_mw(gains_db[i]), || delay_ns[i]);
                }
            }
            rows.end_row();
        }
        rows.finish(0, epsilon_db, phy.noise_mw())
    }

    /// Build from node positions and a link-gain model, evaluating only
    /// candidate pairs within `eval_range_m` of each other (via the grid
    /// index) — the path that never materialises an O(n²) matrix.
    ///
    /// `model(tx, rx, dist_m)` returns the frozen link gain in dB
    /// (negative = loss) and must be a pure function of its arguments so
    /// the build is deterministic and order-independent. Delays come
    /// from straight-line geometry. Pairs beyond `eval_range_m` are
    /// never evaluated; each is assumed to contribute at most
    /// `tail_gain_db` (the caller's bound on the model's gain at the
    /// evaluation range) to the recorded error bound.
    fn from_positions(
        positions: &[(f64, f64)],
        phy: &PhyConfig,
        epsilon_db: f64,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: &dyn Fn(usize, usize, f64) -> f64,
    ) -> Medium {
        assert!(eval_range_m > 0.0, "evaluation range must be positive");
        let n = positions.len();
        let mut rows = RowBuilder::new(n, phy, epsilon_db);
        // Cell size = evaluation range keeps the candidate scan to the
        // 3×3 cell neighborhood.
        let grid = Grid::build(positions, eval_range_m);
        let mut tail_pairs = 0u64;
        let mut evaluated = Vec::with_capacity(n);
        let mut candidates = Vec::new();
        for tx in 0..n {
            let tx_id = NodeId::new(tx);
            grid.neighbors_within(tx_id, eval_range_m, &mut candidates);
            for &rx in &candidates {
                let dist = grid.dist_m(tx_id, rx);
                let gain = dbm_to_mw(model(tx, rx.index(), dist));
                rows.offer(rx, gain, || propagation::propagation_delay_ns(dist));
            }
            rows.end_row();
            // Every never-evaluated pair is bounded by the tail gain.
            evaluated.push(candidates.len() as u64);
            tail_pairs += (n - 1 - candidates.len()) as u64;
        }
        // The tail bound is per *receiver*: a node can absorb at most
        // one tail contribution from each never-evaluated transmitter,
        // and the candidate relation is symmetric, so the per-tx count
        // mirrors the per-rx count.
        let tail_rss_mw = rows.tx_power_mw * dbm_to_mw(tail_gain_db);
        if tail_rss_mw > 0.0 {
            for (rx, &count) in evaluated.iter().enumerate() {
                let beyond = (n as u64 - 1).saturating_sub(count);
                // cmap-lint: allow(unit-cast) — `beyond` is a dimensionless pair count scaling the per-pair tail power
                rows.dropped_mw[rx] += beyond as f64 * tail_rss_mw;
            }
        }
        rows.finish(tail_pairs, epsilon_db, phy.noise_mw())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row slice of link indices for `tx`.
    fn row(&self, tx: NodeId) -> Range<usize> {
        self.link_off[tx.index()] as usize..self.link_off[tx.index() + 1] as usize
    }

    /// Index of the stored link `tx → rx`, if any. Panics (debug builds)
    /// naming the pair when either node is out of range.
    fn find(&self, tx: NodeId, rx: NodeId) -> Option<usize> {
        debug_assert!(
            tx.index() < self.n && rx.index() < self.n,
            "Medium link (tx {tx}, rx {rx}) out of bounds for {} nodes",
            self.n
        );
        let row = self.row(tx);
        self.link_rx[row.clone()]
            .binary_search(&rx)
            .ok()
            .map(|i| row.start + i)
    }

    /// Linear power gain from `tx` to `rx`; exactly `0.0` for a pair with
    /// no stored link (it contributes no energy). A setup-time query: it
    /// binary-searches `tx`'s row.
    pub fn gain(&self, tx: NodeId, rx: NodeId) -> f64 {
        self.find(tx, rx).map_or(0.0, |i| self.link_gain[i])
    }

    /// Propagation delay from `tx` to `rx` in nanoseconds; `0` for a pair
    /// with no stored link. A setup-time query, like [`Medium::gain`].
    pub fn delay_ns(&self, tx: NodeId, rx: NodeId) -> u64 {
        self.find(tx, rx).map_or(0, |i| self.link_delay[i])
    }

    /// Received power in linear mW at `rx` from `tx`, before fading.
    pub fn rss_mw(&self, tx: NodeId, rx: NodeId) -> f64 {
        self.tx_power_mw * self.gain(tx, rx)
    }

    /// Receivers that get events for transmissions from `tx`, in
    /// ascending node order (one contiguous CSR slice).
    pub fn reachable(&self, tx: NodeId) -> &[NodeId] {
        &self.link_rx[self.row(tx)]
    }

    /// Pruning accounting. Always `Some`: every medium records what its
    /// epsilon margin and evaluation range discarded.
    pub fn sparse_stats(&self) -> Option<&SparseStats> {
        Some(&self.stats)
    }

    /// Link indices of `tx`'s row, in ascending receiver order.
    pub(crate) fn links(&self, tx: NodeId) -> Range<u32> {
        self.link_off[tx.index()]..self.link_off[tx.index() + 1]
    }

    /// Receiver of link `link`.
    #[inline]
    pub(crate) fn link_rx(&self, link: u32) -> NodeId {
        self.link_rx[link as usize]
    }

    /// Propagation delay of link `link` in nanoseconds.
    #[inline]
    pub(crate) fn link_delay_ns(&self, link: u32) -> u64 {
        self.link_delay[link as usize]
    }

    /// Received power of link `link` in linear mW, before fading.
    #[inline]
    pub(crate) fn link_rss_mw(&self, link: u32) -> f64 {
        self.tx_power_mw * self.link_gain[link as usize]
    }
}

// ---- builder -------------------------------------------------------------

/// Where the builder's channel data comes from.
enum Source<'m> {
    None,
    GainsDb {
        n: usize,
        gains_db: Vec<f64>,
        delay_ns: Vec<u64>,
    },
    Positions {
        positions: Vec<(f64, f64)>,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: Box<dyn Fn(usize, usize, f64) -> f64 + 'm>,
    },
}

/// Builds a [`Medium`]: pick a source (gain matrix, uniform gain, or
/// positions + link model) and the pruning epsilon.
///
/// ```
/// use cmap_sim::{MediumBuilder, PhyConfig};
/// let phy = PhyConfig::default();
/// let medium = MediumBuilder::new(&phy).uniform(3, -70.0).build();
/// assert_eq!(medium.len(), 3);
/// assert_eq!(medium.sparse_stats().unwrap().links, 6);
/// ```
pub struct MediumBuilder<'m> {
    phy: PhyConfig,
    epsilon_db: f64,
    source: Source<'m>,
}

impl<'m> MediumBuilder<'m> {
    /// Start from a PHY configuration (transmit power, delivery floor
    /// and noise floor are taken from it).
    pub fn new(phy: &PhyConfig) -> MediumBuilder<'m> {
        MediumBuilder {
            phy: phy.clone(),
            epsilon_db: 0.0,
            source: Source::None,
        }
    }

    /// Pruning margin above the delivery floor, in dB (≥ 0). Links whose
    /// received power is below `delivery_floor + epsilon` are dropped;
    /// `0` keeps every link that reaches the floor, bit-exact.
    pub fn epsilon_db(mut self, db: f64) -> Self {
        assert!(db >= 0.0, "epsilon is a margin above the floor");
        self.epsilon_db = db;
        self
    }

    /// Source: a row-major `n × n` gain matrix in dB plus per-link
    /// delays in ns (diagonal ignored).
    pub fn gains_db(mut self, n: usize, gains_db: &[f64], delay_ns: &[u64]) -> Self {
        assert_eq!(gains_db.len(), n * n, "gain matrix must be n*n");
        assert_eq!(delay_ns.len(), n * n, "delay matrix must be n*n");
        self.source = Source::GainsDb {
            n,
            gains_db: gains_db.to_vec(),
            delay_ns: delay_ns.to_vec(),
        };
        self
    }

    /// Source: every distinct pair shares one gain (dB) and a 100 ns
    /// delay.
    pub fn uniform(mut self, n: usize, gain_db: f64) -> Self {
        let mut gains_db = vec![gain_db; n * n];
        for i in 0..n {
            gains_db[i * n + i] = f64::NEG_INFINITY;
        }
        self.source = Source::GainsDb {
            n,
            gains_db,
            delay_ns: vec![100; n * n],
        };
        self
    }

    /// Source: node coordinates (metres) plus a pure link-gain model
    /// `model(tx, rx, dist_m) -> gain dB`. Candidate pairs are
    /// enumerated within `eval_range_m` via a grid index;
    /// `tail_gain_db` bounds the model's gain at that range so
    /// never-evaluated pairs are accounted in the recorded error bound.
    pub fn positions(
        mut self,
        positions: Vec<(f64, f64)>,
        eval_range_m: f64,
        tail_gain_db: f64,
        model: impl Fn(usize, usize, f64) -> f64 + 'm,
    ) -> Self {
        self.source = Source::Positions {
            positions,
            eval_range_m,
            tail_gain_db,
            model: Box::new(model),
        };
        self
    }

    /// Build the medium. Panics when no source was given.
    pub fn build(self) -> Medium {
        match self.source {
            Source::None => {
                panic!("MediumBuilder: no source configured (gains_db/uniform/positions)")
            }
            Source::GainsDb {
                n,
                gains_db,
                delay_ns,
            } => Medium::from_gains_db(n, &gains_db, &delay_ns, &self.phy, self.epsilon_db),
            Source::Positions {
                positions,
                eval_range_m,
                tail_gain_db,
                model,
            } => Medium::from_positions(
                &positions,
                &self.phy,
                self.epsilon_db,
                eval_range_m,
                tail_gain_db,
                &model,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmap_phy::mw_to_dbm;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn uniform_medium_reaches_everyone() {
        let phy = PhyConfig::default();
        let m = MediumBuilder::new(&phy).uniform(4, -80.0).build();
        assert_eq!(m.len(), 4);
        for tx in 0..4 {
            let expect: Vec<NodeId> = (0..4).filter(|&x| x != tx).map(nid).collect();
            assert_eq!(m.reachable(nid(tx)), expect);
            // 15 dBm - 80 dB = -65 dBm at each receiver.
            for &rx in m.reachable(nid(tx)) {
                assert!((mw_to_dbm(m.rss_mw(nid(tx), rx)) + 65.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn weak_links_fall_below_delivery_floor() {
        let phy = PhyConfig::default();
        // 15 dBm - 125 dB = -110 dBm, below the -105 dBm delivery floor.
        let gains = vec![f64::NEG_INFINITY, -125.0, -80.0, f64::NEG_INFINITY];
        let m = MediumBuilder::new(&phy)
            .gains_db(2, &gains, &[0, 10, 10, 0])
            .build();
        assert!(m.reachable(nid(0)).is_empty());
        assert_eq!(m.reachable(nid(1)), &[nid(0)]);
        // A pair with no stored link carries no energy.
        assert_eq!(m.gain(nid(0), nid(1)).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn asymmetric_gains_are_respected() {
        let phy = PhyConfig::default();
        let gains = vec![f64::NEG_INFINITY, -70.0, -90.0, f64::NEG_INFINITY];
        let m = MediumBuilder::new(&phy)
            .gains_db(2, &gains, &[0, 33, 33, 0])
            .build();
        assert!(m.rss_mw(nid(0), nid(1)) > m.rss_mw(nid(1), nid(0)));
        assert_eq!(m.delay_ns(nid(0), nid(1)), 33);
    }

    #[test]
    fn delays_are_directional() {
        // A waveguide-ish link: the two directions carry different delays
        // (row-major [tx * n + rx]), and the accessor must not mix them up.
        let phy = PhyConfig::default();
        let gains = vec![f64::NEG_INFINITY, -70.0, -70.0, f64::NEG_INFINITY];
        let m = MediumBuilder::new(&phy)
            .gains_db(2, &gains, &[0, 120, 450, 0])
            .build();
        assert_eq!(m.delay_ns(nid(0), nid(1)), 120);
        assert_eq!(m.delay_ns(nid(1), nid(0)), 450);
        assert_eq!(m.delay_ns(nid(0), nid(0)), 0);
    }

    #[test]
    fn link_rows_match_the_pair_queries() {
        let phy = PhyConfig::default();
        let gains = vec![
            f64::NEG_INFINITY,
            -70.0,
            -125.0,
            -80.0,
            f64::NEG_INFINITY,
            -90.0,
            -60.0,
            -100.0,
            f64::NEG_INFINITY,
        ];
        let delays: Vec<u64> = (0..9).map(|i| 10 + i).collect();
        let m = MediumBuilder::new(&phy)
            .gains_db(3, &gains, &delays)
            .build();
        for tx in 0..3 {
            let rxs: Vec<NodeId> = m.links(nid(tx)).map(|l| m.link_rx(l)).collect();
            assert_eq!(rxs, m.reachable(nid(tx)));
            for l in m.links(nid(tx)) {
                let rx = m.link_rx(l);
                assert_eq!(m.link_rss_mw(l).to_bits(), m.rss_mw(nid(tx), rx).to_bits());
                assert_eq!(m.link_delay_ns(l), m.delay_ns(nid(tx), rx));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn out_of_bounds_delay_is_caught() {
        let phy = PhyConfig::default();
        let m = MediumBuilder::new(&phy).uniform(2, -70.0).build();
        let _ = m.delay_ns(nid(0), nid(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn bounds_panic_names_the_offending_pair() {
        let phy = PhyConfig::default();
        let m = MediumBuilder::new(&phy).uniform(3, -70.0).build();
        let err = std::panic::catch_unwind(|| m.gain(nid(1), nid(9))).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("tx 1") && msg.contains("rx 9") && msg.contains("3 nodes"),
            "panic message must name tx, rx and n: {msg}"
        );
    }

    #[test]
    fn epsilon_prunes_and_records_the_bound() {
        let phy = PhyConfig::default();
        let n = 3;
        // 0→1 strong; 2→1 sits between the floor (-105) and floor+15.
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        gains[1] = -60.0; // 0→1
        gains[2 * n + 1] = -117.0; // 2→1: rss = -102 dBm
        let delays = vec![50u64; n * n];
        let m = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .epsilon_db(15.0)
            .build();
        assert_eq!(m.reachable(nid(2)), &[] as &[NodeId]);
        assert_eq!(m.gain(nid(2), nid(1)).to_bits(), 0.0f64.to_bits());
        let st = m.sparse_stats().unwrap();
        assert_eq!(st.pruned, 1);
        assert_eq!(st.epsilon_db.to_bits(), 15.0f64.to_bits());
        // Dropped -102 dBm against the noise floor: a small but nonzero
        // SINR-denominator inflation.
        assert!(st.error_bound_db > 0.0, "{}", st.error_bound_db);
        assert!(st.error_bound_db < 3.0, "{}", st.error_bound_db);
    }

    #[test]
    fn positions_build_matches_the_materialised_matrix() {
        let phy = PhyConfig::default();
        // A 4-node square, 20 m sides; a pure path-loss model, evaluated
        // out past the diagonal so no pair is left to the tail.
        let pos = vec![(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)];
        let model = |_tx: usize, _rx: usize, dist: f64| -propagation::path_loss_db(dist, 3.3);
        let from_pos = MediumBuilder::new(&phy)
            .positions(pos.clone(), 100.0, -120.0, model)
            .build();
        let n = pos.len();
        let mut gains = vec![f64::NEG_INFINITY; n * n];
        let mut delays = vec![0u64; n * n];
        for tx in 0..n {
            for rx in (0..n).filter(|&rx| rx != tx) {
                let (ax, ay) = pos[tx];
                let (bx, by) = pos[rx];
                let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                gains[tx * n + rx] = model(tx, rx, dist);
                delays[tx * n + rx] = propagation::propagation_delay_ns(dist);
            }
        }
        let from_matrix = MediumBuilder::new(&phy)
            .gains_db(n, &gains, &delays)
            .build();
        assert_eq!(from_pos.sparse_stats().unwrap().tail_pairs, 0);
        for tx in 0..n {
            assert_eq!(from_matrix.reachable(nid(tx)), from_pos.reachable(nid(tx)));
            for &rx in from_matrix.reachable(nid(tx)) {
                assert_eq!(
                    from_matrix.gain(nid(tx), rx).to_bits(),
                    from_pos.gain(nid(tx), rx).to_bits()
                );
                assert_eq!(
                    from_matrix.delay_ns(nid(tx), rx),
                    from_pos.delay_ns(nid(tx), rx)
                );
            }
        }
    }

    #[test]
    fn grid_neighbors_match_brute_force() {
        // Deterministic pseudo-random scatter (LCG) over a 200×200 m box.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pos: Vec<(f64, f64)> = (0..80).map(|_| (next() * 200.0, next() * 200.0)).collect();
        let grid = Grid::build(&pos, 60.0);
        let mut out = Vec::new();
        for node in 0..pos.len() {
            for radius in [10.0, 35.0, 59.0, 130.0] {
                grid.neighbors_within(nid(node), radius, &mut out);
                let brute: Vec<NodeId> = (0..pos.len())
                    .filter(|&o| o != node)
                    .filter(|&o| {
                        let (ax, ay) = pos[node];
                        let (bx, by) = pos[o];
                        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() <= radius
                    })
                    .map(nid)
                    .collect();
                assert_eq!(out, brute, "node {node} radius {radius}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no source")]
    fn builder_without_source_panics() {
        let phy = PhyConfig::default();
        let _ = MediumBuilder::new(&phy).build();
    }
}
