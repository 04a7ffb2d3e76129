//! The emulated two-channel bench rig (paper Fig. 6).
//!
//! Each channel is laser → RET network → SPAD → FPGA timestamp. The
//! emulation keeps the three imperfections that shape the prototype's
//! measured accuracy:
//!
//! * **8-bit laser power DAC** — a requested relative power lands on the
//!   nearest of 255 codes, so the weak channel of a large ratio suffers
//!   large relative quantization error;
//! * **systematic calibration error** — each DAC code's true output power
//!   deviates by a fixed (seeded) few-percent factor, as an imperfectly
//!   characterized bench supply would;
//! * **dark counts** — each SPAD fires spuriously at a small fraction of
//!   the full-scale detection rate, flooring how improbable the weak
//!   channel can get.
//!
//! First-to-fire between the two channels implements a Bernoulli draw with
//! the programmed relative probability — the operation the RSU-G2 performs
//! per pixel in the Figure 7 segmentation.

use mogs_gibbs::{LabelSampler, SweepKernel};
use mogs_mrf::Label;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of laser power codes (8-bit DAC; code 0 = off).
pub const DAC_CODES: u16 = 255;

/// FPGA timestamp resolution in seconds (250 ps, §7).
pub const FPGA_RESOLUTION_S: f64 = 250e-12;

/// Configuration of the emulated rig.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigConfig {
    /// Full-scale detected-photon rate of a channel at DAC code 255, in
    /// counts/s. Bench-top macro optics: ~10⁶ counts/s.
    pub full_scale_rate: f64,
    /// SPAD dark-count rate as a fraction of the full-scale rate.
    pub dark_fraction: f64,
    /// Standard deviation of the per-code systematic calibration error.
    pub calibration_sigma: f64,
    /// Seed for the (fixed) calibration table.
    pub calibration_seed: u64,
}

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            full_scale_rate: 1e6,
            dark_fraction: 1.2e-3,
            calibration_sigma: 0.03,
            calibration_seed: 0x38,
        }
    }
}

/// The emulated two-channel prototype.
#[derive(Debug, Clone)]
pub struct PrototypeRig {
    config: RigConfig,
    /// Systematic gain factor per DAC code (drawn once at "calibration").
    gain: Vec<f64>,
    /// Current DAC codes of the two channels.
    codes: [u16; 2],
}

impl PrototypeRig {
    /// Builds the rig and performs its one-time calibration draw.
    pub fn new(config: RigConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.calibration_seed);
        let gain = (0..=DAC_CODES)
            .map(|_| 1.0 + gaussian(&mut rng) * config.calibration_sigma)
            .collect();
        PrototypeRig {
            config,
            gain,
            codes: [DAC_CODES, DAC_CODES],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RigConfig {
        &self.config
    }

    /// Programs a target relative probability `ratio = P(ch0) / P(ch1)`:
    /// channel 0 runs at full scale, channel 1 at the nearest DAC code to
    /// `255 / ratio` (floored at code 1 — the laser cannot emit "a
    /// quarter of a code").
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1` (swap the channels instead) or is not finite.
    pub fn set_ratio(&mut self, ratio: f64) {
        assert!(
            ratio.is_finite() && ratio >= 1.0,
            "ratio must be at least 1"
        );
        self.codes[0] = DAC_CODES;
        let target = f64::from(DAC_CODES) / ratio;
        self.codes[1] = (target.round() as u16).clamp(1, DAC_CODES);
    }

    /// Programs both channels' DAC codes directly.
    ///
    /// # Panics
    ///
    /// Panics if a code exceeds 255.
    pub fn set_codes(&mut self, ch0: u16, ch1: u16) {
        assert!(ch0 <= DAC_CODES && ch1 <= DAC_CODES, "codes are 8-bit");
        self.codes = [ch0, ch1];
    }

    /// The currently programmed codes.
    pub fn codes(&self) -> [u16; 2] {
        self.codes
    }

    /// The actual detected-photon rate (counts/s) of a channel, including
    /// calibration error and dark counts.
    pub fn channel_rate(&self, channel: usize) -> f64 {
        let code = self.codes[channel];
        let optical = if code == 0 {
            0.0
        } else {
            self.config.full_scale_rate * f64::from(code) / f64::from(DAC_CODES)
                * self.gain[usize::from(code)]
        };
        optical + self.config.full_scale_rate * self.config.dark_fraction
    }

    /// One first-to-fire trial: returns the channel whose SPAD fired
    /// first (FPGA-quantized; exact 250 ps ties re-arm and repeat, which
    /// is what the bench procedure did).
    pub fn sample_winner<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        loop {
            let t0 = quantize(sample_exp(rng, self.channel_rate(0)));
            let t1 = quantize(sample_exp(rng, self.channel_rate(1)));
            if t0 < t1 {
                return 0;
            }
            if t1 < t0 {
                return 1;
            }
        }
    }

    /// Measures the achieved win ratio `wins(ch0) / wins(ch1)` over `n`
    /// trials.
    pub fn measured_ratio<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> f64 {
        let wins0 = (0..n).filter(|_| self.sample_winner(rng) == 0).count();
        let wins1 = n - wins0;
        wins0 as f64 / (wins1.max(1)) as f64
    }
}

impl Default for PrototypeRig {
    fn default() -> Self {
        PrototypeRig::new(RigConfig::default())
    }
}

/// Adapter exposing the two-channel rig as a [`LabelSampler`] for
/// two-label MRFs — the role it plays in the Figure 7 segmentation, where
/// the PC computes energies and the prototype samples the output label.
#[derive(Debug, Clone)]
pub struct RigSampler {
    rig: PrototypeRig,
}

impl RigSampler {
    /// Wraps a rig.
    pub fn new(rig: PrototypeRig) -> Self {
        RigSampler { rig }
    }
}

impl LabelSampler for RigSampler {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        _current: Label,
        rng: &mut R,
    ) -> Label {
        assert_eq!(energies.len(), 2, "the RSU-G2 prototype has two channels");
        // Software parameterization (done on the PC in §7): Boltzmann
        // weights → a ratio → laser codes. Channel 0 carries the more
        // probable label.
        let (lo, hi): (u8, u8) = if energies[0] <= energies[1] {
            (0, 1)
        } else {
            (1, 0)
        };
        let ratio = ((energies[usize::from(hi)] - energies[usize::from(lo)]) / temperature).exp();
        let mut rig = self.rig.clone();
        rig.set_ratio(ratio.clamp(1.0, 255.0));
        let winner = rig.sample_winner(rng);
        Label::new(if winner == 0 { lo } else { hi })
    }

    fn name(&self) -> &'static str {
        "rsu-g2-prototype"
    }
}

/// Chunks draw site by site through [`LabelSampler::sample_label`], so
/// Figure 7 runs on the engine like every other chain.
impl SweepKernel for RigSampler {}

fn quantize(t: f64) -> u64 {
    (t / FPGA_RESOLUTION_S) as u64
}

fn sample_exp<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln() / rate
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_codes_give_even_odds() {
        let rig = PrototypeRig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let r = rig.measured_ratio(40_000, &mut rng);
        assert!((r - 1.0).abs() < 0.1, "measured {r}");
    }

    #[test]
    fn small_ratios_are_accurate() {
        let mut rig = PrototypeRig::default();
        let mut rng = StdRng::seed_from_u64(2);
        for target in [2.0, 5.0, 10.0, 20.0] {
            rig.set_ratio(target);
            let measured = rig.measured_ratio(60_000, &mut rng);
            let err = (measured - target).abs() / target;
            assert!(err < 0.10, "ratio {target}: measured {measured} ({err:.3})");
        }
    }

    #[test]
    fn large_ratios_degrade() {
        // Target 150 lands between DAC codes (255/150 = 1.7 → code 2 ⇒
        // achieved ≈ 127) and rides the dark floor; the paper saw ~24%
        // error in this regime. (Individual targets can get lucky — e.g.
        // 200 rounds up to a ratio the dark floor pulls back down — so we
        // test a known-bad point, and the sweep test covers the band.)
        let mut rig = PrototypeRig::default();
        let mut rng = StdRng::seed_from_u64(3);
        rig.set_ratio(150.0);
        let measured = rig.measured_ratio(200_000, &mut rng);
        let err = (measured - 150.0_f64).abs() / 150.0;
        assert!(err > 0.10 && err < 0.5, "error {err}");
    }

    #[test]
    fn dac_quantization_is_the_high_ratio_error_source() {
        let mut rig = PrototypeRig::new(RigConfig {
            dark_fraction: 0.0,
            calibration_sigma: 0.0,
            ..RigConfig::default()
        });
        // Target 100 → code round(2.55) = 3 → achieved 85.
        rig.set_ratio(100.0);
        assert_eq!(rig.codes(), [255, 3]);
        let achieved = rig.channel_rate(0) / rig.channel_rate(1);
        assert!((achieved - 85.0).abs() < 1.0, "achieved {achieved}");
    }

    #[test]
    fn dark_counts_floor_the_weak_channel() {
        let rig_dark = {
            let mut r = PrototypeRig::new(RigConfig {
                dark_fraction: 0.01,
                calibration_sigma: 0.0,
                ..RigConfig::default()
            });
            r.set_codes(255, 1);
            r
        };
        let ideal = 255.0;
        let achieved = rig_dark.channel_rate(0) / rig_dark.channel_rate(1);
        assert!(
            achieved < 0.5 * ideal,
            "dark floor should compress the ratio, got {achieved}"
        );
    }

    #[test]
    fn rig_sampler_follows_boltzmann_for_two_labels() {
        use mogs_gibbs::SoftmaxGibbs;
        let mut sampler = RigSampler::new(PrototypeRig::default());
        let energies = [0.0, 1.2];
        let t = 1.0;
        let expect = SoftmaxGibbs::probabilities(&energies, t);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 40_000;
        let wins0 = (0..n)
            .filter(|_| {
                sampler.sample_label(&energies, t, Label::new(0), &mut rng) == Label::new(0)
            })
            .count();
        let p0 = wins0 as f64 / f64::from(n);
        assert!((p0 - expect[0]).abs() < 0.03, "p0 {p0} vs {}", expect[0]);
    }

    #[test]
    fn calibration_is_deterministic_per_seed() {
        let a = PrototypeRig::new(RigConfig::default());
        let b = PrototypeRig::new(RigConfig::default());
        assert_eq!(a.channel_rate(0), b.channel_rate(0));
    }

    #[test]
    #[should_panic(expected = "ratio must be at least 1")]
    fn sub_unity_ratio_rejected() {
        PrototypeRig::default().set_ratio(0.5);
    }
}
