//! Layer replays: the hot layers that `run_until` hides, timed in a loop
//! through their public calls at the workload's own operating point, plus
//! a fixed host-speed calibration loop.
//!
//! Each replay returns nanoseconds per operation as the median of
//! [`REPS`] timed repetitions; the ledger multiplies it by the traced op
//! count to estimate the layer's share of `run_until` time.

use std::hint::black_box;
use std::time::Instant;

use cmap_phy::{BerTable, Rate};
use cmap_sim::event::{Event, Scheduler};
use cmap_sim::NodeId;
use cmap_wire::addr::MacAddr;
use cmap_wire::cmap::InterfererEntry;
use cmap_wire::view::{compose, FrameView};
use cmap_wire::FrameKind;

use crate::stats::median;

/// Timed repetitions per replay.
pub const REPS: usize = 5;

fn median_of(mut once: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| once()).collect();
    median(&xs).expect("REPS > 0")
}

fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Deterministic xorshift64* stream for replay inputs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Host-speed score: milliseconds for a fixed std-only integer and float
/// loop, independent of the workspace. Numbers from different machines
/// compare after dividing by it.
pub fn calib_ms() -> f64 {
    median_of(|| {
        time_ns(|| {
            let mut r = XorShift(0x9E37_79B9_7F4A_7C15);
            let mut acc = 0.0f64;
            for _ in 0..black_box(20_000_000u64) {
                let x = r.next();
                acc = acc.mul_add(0.999_999, (x >> 40) as f64);
            }
            black_box(acc);
        }) / 1e6
    })
}

/// `BerTable::ber` lookups per repetition.
const BER_OPS: usize = 1 << 20;

/// Nanoseconds per `BerTable::ber` lookup over `sinrs` (linear SINRs from
/// the workload's link budgets), cycling through them at `rate`.
pub fn ber_ns(sinrs: &[f64], rate: Rate) -> f64 {
    assert!(!sinrs.is_empty(), "BER replay needs at least one SINR");
    let table = BerTable::shared();
    median_of(|| {
        time_ns(|| {
            let mut acc = 0.0;
            for i in 0..BER_OPS {
                acc += table.ber(black_box(sinrs[i % sinrs.len()]), rate);
            }
            black_box(acc);
        }) / BER_OPS as f64
    })
}

/// Frames the engine composes, in proportion to a traced run's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameMix {
    /// CMAP headers and trailers (two per virtual packet).
    pub cmap_ht: u64,
    /// CMAP data packets.
    pub cmap_data: u64,
    /// CMAP ACKs.
    pub cmap_ack: u64,
    /// CMAP interferer-list broadcasts.
    pub cmap_il: u64,
    /// 802.11 data frames.
    pub dot11_data: u64,
    /// 802.11 ACKs.
    pub dot11_ack: u64,
}

impl FrameMix {
    fn counts(&self) -> [u64; 6] {
        [
            self.cmap_ht,
            self.cmap_data,
            self.cmap_ack,
            self.cmap_il,
            self.dot11_data,
            self.dot11_ack,
        ]
    }

    /// Total frames.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }
}

/// Compose or parse repetitions per frame kind per timing.
const WIRE_OPS: usize = 20_000;

/// Compose frame kind `k` (the [`FrameMix`] order) into `buf`, with a
/// `payload`-byte payload for data frames.
fn compose_kind(k: usize, buf: &mut Vec<u8>, seq: u32, payload: usize) {
    let a = MacAddr::from_node_index(1);
    let b = MacAddr::from_node_index(2);
    let entries = [InterfererEntry {
        source: a,
        interferer: b,
        source_rate: Rate::R6,
    }; 2];
    match k {
        0 => compose::header_trailer(buf, FrameKind::CmapHeader, a, b, 2_000, seq, 8, Rate::R6),
        1 => compose::cmap_data(buf, a, b, seq, 0, 1, seq, payload, 0xC5),
        2 => compose::cmap_ack(buf, b, a, seq, &[seq, !seq], 3, &entries),
        3 => compose::interferer_list(buf, b, &entries),
        4 => compose::dot11_data(buf, a, b, seq as u16, false, 44_000, 1, seq, payload, 0xC5),
        _ => compose::dot11_ack(buf, a),
    }
}

/// Per-frame costs of the wire layer over a frame mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCost {
    /// Mix-weighted ns to compose one frame with its CRC.
    pub compose_ns: f64,
    /// Mix-weighted ns to open one frame as a `FrameView`.
    pub parse_ns: f64,
}

/// Time `compose` + CRC and `FrameView::parse` for each frame kind at the
/// workload's payload size, weighted by `mix`.
pub fn wire_cost(mix: &FrameMix, payload: usize) -> WireCost {
    let counts = mix.counts();
    let total = mix.total().max(1) as f64;
    let mut buf = Vec::with_capacity(payload + 64);
    let mut compose_ns = 0.0;
    let mut parse_ns = 0.0;
    for (k, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let w = count as f64 / total;
        compose_ns += w * median_of(|| {
            time_ns(|| {
                for i in 0..WIRE_OPS {
                    compose_kind(k, &mut buf, i as u32, payload);
                    black_box(&buf);
                }
            }) / WIRE_OPS as f64
        });
        compose_kind(k, &mut buf, 7, payload);
        parse_ns += w * median_of(|| {
            time_ns(|| {
                for _ in 0..WIRE_OPS {
                    let v = FrameView::parse(black_box(&buf)).expect("composed frame parses");
                    black_box(v.dst());
                }
            }) / WIRE_OPS as f64
        });
    }
    WireCost {
        compose_ns,
        parse_ns,
    }
}

/// Schedule+pop pairs per repetition.
const SCHED_OPS: usize = 1 << 20;

/// Nanoseconds per `Scheduler::pop` + `Scheduler::schedule` pair with
/// `occupancy` events pending — the traced peak. Each popped event is
/// rescheduled 1 ns to ~2 ms ahead (log-uniform, like propagation delays,
/// slot times and frame airtimes), so the queue holds its size.
pub fn sched_op_ns(occupancy: usize) -> f64 {
    let occupancy = occupancy.max(1);
    let mut r = XorShift(0xD1B5_4A32_D192_ED03);
    let mut delay = move || {
        let x = r.next();
        (1u64 << (x % 21)) + (x >> 44) % 1024
    };
    median_of(|| {
        let mut s = Scheduler::new();
        for i in 0..occupancy {
            let ev = Event::Timer {
                node: NodeId::new(i % 64),
                token: i as u64,
            };
            s.schedule(delay(), ev);
        }
        time_ns(|| {
            for _ in 0..SCHED_OPS {
                let (at, ev) = s.pop().expect("queue holds its size");
                s.schedule(at + delay(), ev);
            }
        }) / SCHED_OPS as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_report_positive_costs() {
        assert!(ber_ns(&[1.0, 10.0, 100.0], Rate::R6) > 0.0);
        let mix = FrameMix {
            cmap_ht: 2,
            cmap_data: 8,
            cmap_ack: 1,
            cmap_il: 1,
            dot11_data: 4,
            dot11_ack: 4,
        };
        let w = wire_cost(&mix, 1400);
        assert!(w.compose_ns > 0.0 && w.parse_ns > 0.0);
        assert!(sched_op_ns(100) > 0.0);
    }

    #[test]
    fn every_frame_kind_composes_a_parseable_frame() {
        let mut buf = Vec::new();
        for k in 0..6 {
            compose_kind(k, &mut buf, 3, 1400);
            assert!(FrameView::parse_checked(&buf).is_ok(), "kind {k}");
        }
    }
}
