//! Radio/PHY configuration shared by every node in a world.

use cmap_phy::dbm_to_mw;
use cmap_phy::units::db_to_ratio;

/// Physical-layer configuration for a simulated world.
///
/// Defaults are calibrated to a commodity 5 GHz 802.11a card (Atheros
/// AR5212-class, as in the paper's testbed).
#[derive(Debug, Clone)]
pub struct PhyConfig {
    /// Transmit power in dBm (fixed network-wide; the paper assumes all
    /// sources always transmit at the same power level, note 2).
    pub tx_power_dbm: f64,
    /// Receiver noise floor in dBm (thermal + noise figure).
    pub noise_floor_dbm: f64,
    /// Minimum RSS for a receiver to even attempt preamble lock.
    pub sensitivity_dbm: f64,
    /// Energy-detect carrier-sense threshold in dBm: the medium reads busy
    /// when total received energy exceeds this, even without a decodable
    /// preamble (802.11 CCA-ED; only DCF consults it).
    pub ed_threshold_dbm: f64,
    /// Preamble-detection carrier-sense threshold in dBm. Real CCA asserts
    /// busy on training-sequence correlation well below the level needed to
    /// *decode* a frame — this is why carrier sense reaches 1.5–3x the data
    /// range and is "too conservative" (the paper's premise). The radio
    /// reports busy when total in-band energy exceeds this even without a
    /// lock. Only DCF consults CCA; CMAP ignores it by design.
    pub cs_detect_dbm: f64,
    /// Preamble capture: a frame arriving while another frame's
    /// preamble/SIGNAL is still being received steals the lock if it is at
    /// least this many dB stronger.
    pub capture_margin_db: f64,
    /// Enable preamble capture at all.
    pub preamble_capture: bool,
    /// Message-in-message capture: a frame arriving *after* the locked
    /// frame's preamble window still steals the lock if it is at least
    /// `mim_margin_db` stronger (the OFDM receiver restarts on the louder
    /// preamble). Atheros-era hardware does this, and the paper's exposed
    /// terminals depend on it: the ACK from R must punch through at S while
    /// S's radio is chewing on ES's (much weaker) transmission.
    pub mim_capture: bool,
    /// Strength margin for message-in-message capture, in dB.
    pub mim_margin_db: f64,
    /// Standard deviation (dB) of the per-frame, per-receiver lognormal
    /// fading applied on top of the frozen link gain. Softens the otherwise
    /// knife-edge PER-vs-SINR curve the way real multipath does.
    pub fading_sigma_db: f64,
    /// Probability that a frame instead experiences an *upfade* burst:
    /// fading drawn as `N(fading_boost_db, fading_sigma_db)`. Models the
    /// occasional constructive multipath/temporal alignment that gives
    /// far-away pairs trace connectivity — the paper's testbed has a large
    /// population of links with PRR barely above zero (§5.1).
    pub fading_boost_prob: f64,
    /// Mean of the upfade component in dB.
    pub fading_boost_db: f64,
    /// If true (default, matching MadWifi with carrier sense disabled), a
    /// node that starts transmitting while mid-reception aborts that
    /// reception. If false, `transmit` fails while receiving.
    pub abort_rx_on_tx: bool,
    /// Frames arriving below this RSS are not even generated as events at
    /// the receiver (they would change the noise level by well under a dB).
    pub delivery_floor_dbm: f64,
}

impl Default for PhyConfig {
    fn default() -> PhyConfig {
        PhyConfig {
            tx_power_dbm: 15.0,
            noise_floor_dbm: cmap_phy::NOISE_FLOOR_DBM,
            sensitivity_dbm: -95.0,
            ed_threshold_dbm: -62.0,
            cs_detect_dbm: -98.0,
            capture_margin_db: 10.0,
            preamble_capture: true,
            mim_capture: true,
            mim_margin_db: 10.0,
            fading_sigma_db: 2.0,
            fading_boost_prob: 0.08,
            fading_boost_db: 18.0,
            abort_rx_on_tx: true,
            delivery_floor_dbm: -105.0,
        }
    }
}

impl PhyConfig {
    /// Noise floor in linear milliwatts.
    pub fn noise_mw(&self) -> f64 {
        cmap_phy::dbm_to_mw(self.noise_floor_dbm)
    }

    /// The linear-unit view the reception hot path reads, resolved once.
    pub(crate) fn levels(&self) -> PhyLevels {
        PhyLevels {
            noise_mw: self.noise_mw(),
            sensitivity_mw: dbm_to_mw(self.sensitivity_dbm),
            cca_busy_mw: dbm_to_mw(self.cs_detect_dbm.min(self.ed_threshold_dbm)),
            capture_ratio: db_to_ratio(self.capture_margin_db),
            mim_ratio: db_to_ratio(self.mim_margin_db),
            preamble_capture: self.preamble_capture,
            mim_capture: self.mim_capture,
        }
    }
}

/// A world's [`PhyConfig`] thresholds and margins in linear units: what the
/// per-arrival lock decision, carrier sense and grading compare against.
///
/// The config is fixed once a world is built, so the engine converts its
/// dBm fields here, once, instead of calling `powf` on every event. Each
/// field is the direct `dbm_to_mw`/`db_to_ratio` conversion of its config
/// field, so every comparison sees the same bits as converting at each use.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhyLevels {
    /// Noise floor in mW.
    pub noise_mw: f64,
    /// Minimum RSS for an idle radio to attempt preamble lock, in mW.
    pub sensitivity_mw: f64,
    /// In-band energy at or above which CCA reads busy, in mW: the lower of
    /// the preamble-detect and energy-detect thresholds.
    pub cca_busy_mw: f64,
    /// Power ratio a frame needs over the locked one to capture it while
    /// the lock is still in its preamble window.
    pub capture_ratio: f64,
    /// Power ratio a frame needs over the locked one to capture it after
    /// the preamble window (message-in-message).
    pub mim_ratio: f64,
    /// [`PhyConfig::preamble_capture`].
    pub preamble_capture: bool,
    /// [`PhyConfig::mim_capture`].
    pub mim_capture: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_internally_consistent() {
        let c = PhyConfig::default();
        assert!(c.delivery_floor_dbm < c.sensitivity_dbm);
        assert!(c.sensitivity_dbm < c.ed_threshold_dbm);
        assert!(c.cs_detect_dbm < c.sensitivity_dbm);
        assert!(c.delivery_floor_dbm < c.cs_detect_dbm);
        assert!(c.noise_floor_dbm < c.sensitivity_dbm + 5.0);
        assert!(c.capture_margin_db > 0.0);
    }

    /// Every level is bit-equal to the direct conversion of the config it
    /// came from — the default and one with every dBm/dB field moved.
    #[test]
    fn levels_are_the_configs_own_conversions() {
        let moved = PhyConfig {
            noise_floor_dbm: -91.5,
            sensitivity_dbm: -70.0,
            ed_threshold_dbm: -101.0,
            cs_detect_dbm: -85.0,
            capture_margin_db: 4.5,
            mim_margin_db: 13.0,
            preamble_capture: false,
            mim_capture: false,
            ..PhyConfig::default()
        };
        for c in [PhyConfig::default(), moved] {
            let l = c.levels();
            let bits = |x: f64| x.to_bits();
            assert_eq!(bits(l.noise_mw), bits(dbm_to_mw(c.noise_floor_dbm)));
            assert_eq!(bits(l.sensitivity_mw), bits(dbm_to_mw(c.sensitivity_dbm)));
            assert_eq!(
                bits(l.cca_busy_mw),
                bits(dbm_to_mw(c.cs_detect_dbm.min(c.ed_threshold_dbm)))
            );
            assert_eq!(
                bits(l.capture_ratio),
                bits(db_to_ratio(c.capture_margin_db))
            );
            assert_eq!(bits(l.mim_ratio), bits(db_to_ratio(c.mim_margin_db)));
            assert_eq!(l.preamble_capture, c.preamble_capture);
            assert_eq!(l.mim_capture, c.mim_capture);
        }
    }
}
