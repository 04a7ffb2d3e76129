//! RET circuits: QD-LED excitation + chromophore network ensemble + SPAD.
//!
//! A **RET circuit** is the physical sampling element of an RSU (paper §2.3,
//! §5): four binary on/off quantum-dot LEDs provide 16 excitation intensity
//! levels (a 4-bit code), the light pumps an ensemble of identical RET
//! networks, and a single-photon avalanche detector timestamps the first
//! fluorescent photon. The elapsed **time to fluorescence (TTF)** is the
//! sample.
//!
//! In the excitation-limited regime the first-detection time is
//! (approximately) exponential with rate proportional to the LED intensity —
//! so the 4-bit code *is* the distribution parameter. This module models
//! that contract at two fidelities:
//!
//! * [`Fidelity::Ideal`] — draw TTF from the matched exponential directly.
//! * [`Fidelity::Physics`] — Poisson excitation arrivals, per-exciton
//!   Gillespie walks through the network, SPAD efficiency/jitter/dark
//!   counts. Slower, but exposes every non-ideality.

use crate::ctmc::simulate_exciton;
use crate::network::{Outcome, RetNetwork};
use crate::phase_type::sample_exp;
use rand::Rng;

/// Number of intensity levels a 4-bit LED code can select (including off).
pub const INTENSITY_LEVELS: u8 = 16;

/// Simulation fidelity for a RET circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Draw from the matched exponential directly (fast; used for
    /// application-scale runs).
    #[default]
    Ideal,
    /// Simulate excitation arrivals and exciton trajectories (slow; used for
    /// substrate validation and the hardware prototype).
    Physics,
}

/// Single-photon avalanche detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpadConfig {
    /// Photon detection efficiency in `[0, 1]`.
    pub efficiency: f64,
    /// Dark count rate in counts per ns (false detections with no photon).
    pub dark_rate_per_ns: f64,
    /// Gaussian timing jitter standard deviation in ns.
    pub jitter_sigma_ns: f64,
}

impl Default for SpadConfig {
    fn default() -> Self {
        // Representative of an integrated CMOS SPAD: ~40% PDE, ~100 dark
        // counts/s (negligible at ns scale), ~50 ps jitter.
        SpadConfig {
            efficiency: 0.4,
            dark_rate_per_ns: 1e-7,
            jitter_sigma_ns: 0.05,
        }
    }
}

/// A SPAD: turns emission events into (possibly missed, jittered)
/// detection timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spad {
    config: SpadConfig,
}

impl Spad {
    /// Creates a SPAD from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if efficiency is outside `[0, 1]` or rates/jitter are negative.
    pub fn new(config: SpadConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.efficiency),
            "SPAD efficiency must be in [0, 1]"
        );
        assert!(
            config.dark_rate_per_ns >= 0.0,
            "dark rate must be non-negative"
        );
        assert!(config.jitter_sigma_ns >= 0.0, "jitter must be non-negative");
        Spad { config }
    }

    /// The configuration this SPAD was built with.
    pub fn config(&self) -> &SpadConfig {
        &self.config
    }

    /// Attempts to detect a photon emitted at `emission_ns`. Returns the
    /// jittered detection timestamp, or `None` if the photon is missed.
    pub fn detect<R: Rng + ?Sized>(&self, emission_ns: f64, rng: &mut R) -> Option<f64> {
        if rng.gen::<f64>() >= self.config.efficiency {
            return None;
        }
        let jitter = gaussian(rng) * self.config.jitter_sigma_ns;
        Some((emission_ns + jitter).max(0.0))
    }

    /// Draws the time of the next dark count, or `None` if dark counts are
    /// disabled.
    pub fn next_dark_count<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        if self.config.dark_rate_per_ns <= 0.0 {
            None
        } else {
            Some(sample_exp(rng, self.config.dark_rate_per_ns))
        }
    }
}

/// Configuration of a RET circuit.
#[derive(Debug, Clone)]
pub struct RetCircuitConfig {
    /// The chromophore network replicated across the ensemble.
    pub network: RetNetwork,
    /// Number of identical networks in the ensemble.
    pub ensemble_size: usize,
    /// Ensemble excitation rate (excitons per ns) contributed by *one* LED
    /// intensity level at full ensemble health.
    pub excitation_rate_per_level: f64,
    /// Detector model.
    pub spad: SpadConfig,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// Observation window in ns; detections after this are reported as
    /// `None` (the TTF capture register has saturated).
    pub window_ns: f64,
    /// Time for the circuit to return to a quiescent state after a sampling
    /// operation (paper §5.3: four 1 ns cycles).
    pub quiescence_ns: f64,
}

impl Default for RetCircuitConfig {
    fn default() -> Self {
        RetCircuitConfig {
            network: RetNetwork::donor_acceptor(4.0),
            ensemble_size: 64,
            excitation_rate_per_level: 0.35,
            spad: SpadConfig::default(),
            fidelity: Fidelity::Ideal,
            // 8-bit TTF register clocked at 8 GHz: 256 × 125 ps = 32 ns.
            window_ns: 32.0,
            quiescence_ns: 4.0,
        }
    }
}

/// A RET circuit: intensity-parameterized TTF sampler.
#[derive(Debug, Clone)]
pub struct RetCircuit {
    config: RetCircuitConfig,
    intensity_code: u8,
    /// Fraction of the ensemble still photoactive (see [`crate::wearout`]).
    alive_fraction: f64,
    /// Probability an excitation yields a *detected* photon
    /// (emission probability × SPAD efficiency); cached at construction.
    detect_per_excitation: f64,
    /// Mean exciton transit time conditioned on emission, in ns; cached.
    mean_transit_ns: f64,
    /// Total excitations delivered over the circuit's lifetime.
    excitations_delivered: u64,
}

impl RetCircuit {
    /// Creates a circuit from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-physical parameters (zero ensemble, non-positive
    /// excitation rate or window, invalid SPAD settings).
    pub fn new(config: RetCircuitConfig) -> Self {
        assert!(
            config.ensemble_size > 0,
            "ensemble must contain at least one network"
        );
        assert!(
            config.excitation_rate_per_level > 0.0,
            "excitation rate must be positive"
        );
        assert!(
            config.window_ns > 0.0,
            "observation window must be positive"
        );
        assert!(
            config.quiescence_ns >= 0.0,
            "quiescence must be non-negative"
        );
        let _ = Spad::new(config.spad); // validates SPAD fields
        let emission = config
            .network
            .emission_probabilities(0)
            .expect("network has node 0 by construction");
        let mean_transit_ns = config
            .network
            .mean_emission_time(0)
            .expect("circuit networks must be able to emit");
        RetCircuit {
            detect_per_excitation: emission.total * config.spad.efficiency,
            mean_transit_ns,
            config,
            intensity_code: 0,
            alive_fraction: 1.0,
            excitations_delivered: 0,
        }
    }

    /// The configuration this circuit was built with.
    pub fn config(&self) -> &RetCircuitConfig {
        &self.config
    }

    /// Sets the 4-bit LED intensity code (0 = all LEDs off).
    ///
    /// # Panics
    ///
    /// Panics if `code >= 16` — the DAC physically has 4 bits.
    pub fn set_intensity_code(&mut self, code: u8) {
        assert!(
            code < INTENSITY_LEVELS,
            "intensity code {code} does not fit in 4 bits"
        );
        self.intensity_code = code;
    }

    /// The currently latched intensity code.
    pub fn intensity_code(&self) -> u8 {
        self.intensity_code
    }

    /// Fraction of the ensemble still photoactive.
    pub fn alive_fraction(&self) -> f64 {
        self.alive_fraction
    }

    /// Overrides the photoactive fraction (driven by
    /// [`crate::wearout::EnsembleWearout`]).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn set_alive_fraction(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "alive fraction must be in [0, 1]"
        );
        self.alive_fraction = fraction;
    }

    /// Total excitations delivered to the ensemble so far (wear-out input).
    pub fn excitations_delivered(&self) -> u64 {
        self.excitations_delivered
    }

    /// Time to return to quiescence after a sampling operation (ns).
    pub fn quiescence_ns(&self) -> f64 {
        self.config.quiescence_ns
    }

    /// The exponential rate (ns⁻¹) that [`Fidelity::Ideal`] sampling uses
    /// for a given intensity code, *excluding* dark counts.
    ///
    /// Matches the mean of the physical first-detection process: excitation
    /// inter-arrival stretched by the per-excitation detection probability,
    /// plus the exciton transit time.
    pub fn effective_rate(&self, code: u8) -> f64 {
        if code == 0 || self.detect_per_excitation <= 0.0 {
            return 0.0;
        }
        let exc_rate =
            f64::from(code) * self.config.excitation_rate_per_level * self.alive_fraction;
        if exc_rate <= 0.0 {
            return 0.0;
        }
        let mean_first_detection =
            1.0 / (exc_rate * self.detect_per_excitation) + self.mean_transit_ns;
        1.0 / mean_first_detection
    }

    /// Draws one TTF sample at the latched intensity, or `None` if no
    /// detection occurs within the observation window.
    pub fn sample_ttf<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        match self.config.fidelity {
            Fidelity::Ideal => self.sample_ideal(rng),
            Fidelity::Physics => self.sample_physics(rng),
        }
    }

    fn sample_ideal<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        let rate = self.effective_rate(self.intensity_code) + self.config.spad.dark_rate_per_ns;
        if rate <= 0.0 {
            return None;
        }
        // Bookkeeping for wear-out parity with the physics path.
        let exc_rate = f64::from(self.intensity_code)
            * self.config.excitation_rate_per_level
            * self.alive_fraction;
        let t = sample_exp(rng, rate);
        if t <= self.config.window_ns {
            self.excitations_delivered += (exc_rate * t).ceil() as u64;
            Some(t)
        } else {
            self.excitations_delivered += (exc_rate * self.config.window_ns) as u64;
            None
        }
    }

    fn sample_physics<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        let spad = Spad::new(self.config.spad);
        let exc_rate = f64::from(self.intensity_code)
            * self.config.excitation_rate_per_level
            * self.alive_fraction;
        let window = self.config.window_ns;
        let mut best: Option<f64> = spad.next_dark_count(rng).filter(|t| *t <= window);
        if exc_rate > 0.0 {
            let mut t_exc = 0.0;
            loop {
                t_exc += sample_exp(rng, exc_rate);
                if t_exc > window || best.is_some_and(|b| t_exc >= b) {
                    break;
                }
                self.excitations_delivered += 1;
                let traj = simulate_exciton(&self.config.network, 0, rng);
                if let Outcome::Emitted(_) = traj.outcome {
                    if let Some(det) = spad.detect(t_exc + traj.elapsed_ns, rng) {
                        if det <= window && best.is_none_or(|b| det < b) {
                            best = Some(det);
                        }
                    }
                }
            }
        }
        best
    }
}

impl crate::exponential::ExponentialSampler for RetCircuit {
    /// Samples with the intensity code whose effective rate is nearest the
    /// requested rate — the bridge that lets a physical circuit stand in
    /// for an ideal exponential sampler in first-to-fire compositions.
    ///
    /// Rates below half of code 1's effective rate select "off" (`None`);
    /// rates beyond code 15 clamp to code 15, so the realized distribution
    /// is the DAC-quantized approximation of the request.
    fn sample<R: Rng + ?Sized>(&mut self, rate: f64, rng: &mut R) -> Option<f64> {
        if rate <= 0.0 {
            return None;
        }
        let code = (1..INTENSITY_LEVELS)
            .min_by(|&a, &b| {
                let da = (self.effective_rate(a) - rate).abs();
                let db = (self.effective_rate(b) - rate).abs();
                da.total_cmp(&db)
            })
            // The code range 1..16 is never empty, so min_by always
            // yields a value.
            .expect("code range is non-empty");
        if rate < 0.5 * self.effective_rate(1) {
            return None;
        }
        self.set_intensity_code(code);
        self.sample_ttf(rng)
    }
}

/// Standard normal draw via the Box–Muller transform (avoids pulling a
/// distributions dependency into the substrate crate).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean(circuit: &mut RetCircuit, rng: &mut StdRng, n: usize) -> (f64, usize) {
        let mut total = 0.0;
        let mut hits = 0;
        for _ in 0..n {
            if let Some(t) = circuit.sample_ttf(rng) {
                total += t;
                hits += 1;
            }
        }
        (total / hits.max(1) as f64, hits)
    }

    #[test]
    fn zero_intensity_never_fires_without_dark_counts() {
        let config = RetCircuitConfig {
            spad: SpadConfig {
                dark_rate_per_ns: 0.0,
                ..SpadConfig::default()
            },
            ..RetCircuitConfig::default()
        };
        let mut c = RetCircuit::new(config);
        let mut rng = StdRng::seed_from_u64(0);
        c.set_intensity_code(0);
        for _ in 0..100 {
            assert_eq!(c.sample_ttf(&mut rng), None);
        }
    }

    #[test]
    fn higher_intensity_means_shorter_ttf() {
        let mut c = RetCircuit::new(RetCircuitConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        c.set_intensity_code(2);
        let (mean_low, _) = sample_mean(&mut c, &mut rng, 4000);
        c.set_intensity_code(15);
        let (mean_high, _) = sample_mean(&mut c, &mut rng, 4000);
        assert!(
            mean_high < mean_low,
            "intensity 15 mean {mean_high} should beat intensity 2 mean {mean_low}"
        );
    }

    #[test]
    fn ideal_mean_matches_effective_rate() {
        let mut c = RetCircuit::new(RetCircuitConfig {
            window_ns: 1e6, // effectively untruncated
            ..RetCircuitConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        c.set_intensity_code(8);
        let (mean, hits) = sample_mean(&mut c, &mut rng, 20_000);
        assert_eq!(hits, 20_000);
        let expect = 1.0 / c.effective_rate(8);
        assert!(
            (mean - expect).abs() / expect < 0.03,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn physics_and_ideal_agree_on_mean_ttf() {
        let mk = |fidelity| {
            RetCircuit::new(RetCircuitConfig {
                fidelity,
                window_ns: 1e4,
                spad: SpadConfig {
                    dark_rate_per_ns: 0.0,
                    ..SpadConfig::default()
                },
                ..RetCircuitConfig::default()
            })
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut ideal = mk(Fidelity::Ideal);
        let mut physics = mk(Fidelity::Physics);
        ideal.set_intensity_code(10);
        physics.set_intensity_code(10);
        let (mi, _) = sample_mean(&mut ideal, &mut rng, 12_000);
        let (mp, _) = sample_mean(&mut physics, &mut rng, 12_000);
        // The ideal rate folds the transit time into a single exponential.
        // The physics path takes the min over (arrival + transit) pairs,
        // which sits slightly below the renewal-mean approximation, so a
        // 10% band is the honest agreement claim.
        assert!((mi - mp).abs() / mp < 0.10, "ideal {mi} vs physics {mp}");
    }

    #[test]
    fn effective_rate_monotone_in_code() {
        let c = RetCircuit::new(RetCircuitConfig::default());
        let mut last = 0.0;
        for code in 0..INTENSITY_LEVELS {
            let r = c.effective_rate(code);
            assert!(r >= last, "rate must be non-decreasing in code");
            last = r;
        }
    }

    #[test]
    fn wearout_reduces_effective_rate() {
        let mut c = RetCircuit::new(RetCircuitConfig::default());
        let healthy = c.effective_rate(12);
        c.set_alive_fraction(0.5);
        let worn = c.effective_rate(12);
        assert!(worn < healthy);
    }

    #[test]
    fn window_truncates_samples() {
        let mut c = RetCircuit::new(RetCircuitConfig {
            window_ns: 0.5,
            ..RetCircuitConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        c.set_intensity_code(1);
        for _ in 0..200 {
            if let Some(t) = c.sample_ttf(&mut rng) {
                assert!(t <= 0.5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit in 4 bits")]
    fn intensity_code_must_fit_dac() {
        let mut c = RetCircuit::new(RetCircuitConfig::default());
        c.set_intensity_code(16);
    }

    #[test]
    fn circuit_serves_as_exponential_sampler() {
        use crate::exponential::{first_to_fire_with, ExponentialSampler};
        let mut circuit = RetCircuit::new(RetCircuitConfig {
            window_ns: 1e4,
            spad: SpadConfig {
                dark_rate_per_ns: 0.0,
                ..SpadConfig::default()
            },
            ..RetCircuitConfig::default()
        });
        // Request a rate near code 8's effective rate: the circuit should
        // realize approximately that mean.
        let target = circuit.effective_rate(8);
        let mut rng = StdRng::seed_from_u64(21);
        let n = 15_000;
        let mean: f64 = (0..n)
            .map(|_| circuit.sample(target, &mut rng).expect("fires"))
            .sum::<f64>()
            / f64::from(n);
        assert!(
            (mean - 1.0 / target).abs() / (1.0 / target) < 0.05,
            "mean {mean}"
        );
        // And it slots into first-to-fire: a 3:1 rate split wins ~3:1.
        let r1 = circuit.effective_rate(12);
        let r2 = circuit.effective_rate(4);
        let mut wins = [0usize; 2];
        for _ in 0..20_000 {
            if let Some((i, _)) = first_to_fire_with(&mut circuit, &[r1, r2], &mut rng) {
                wins[i] += 1;
            }
        }
        let p0 = wins[0] as f64 / (wins[0] + wins[1]) as f64;
        let expect = r1 / (r1 + r2);
        assert!((p0 - expect).abs() < 0.02, "p0 {p0} vs {expect}");
    }

    #[test]
    fn sampler_bridge_rejects_unreachable_rates() {
        use crate::exponential::ExponentialSampler;
        let mut circuit = RetCircuit::new(RetCircuitConfig::default());
        let mut rng = StdRng::seed_from_u64(22);
        assert_eq!(circuit.sample(0.0, &mut rng), None);
        let tiny = 0.01 * circuit.effective_rate(1);
        assert_eq!(circuit.sample(tiny, &mut rng), None);
    }

    #[test]
    fn physics_counts_excitations() {
        let mut c = RetCircuit::new(RetCircuitConfig {
            fidelity: Fidelity::Physics,
            ..RetCircuitConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        c.set_intensity_code(15);
        for _ in 0..50 {
            let _ = c.sample_ttf(&mut rng);
        }
        assert!(c.excitations_delivered() > 0);
    }
}
