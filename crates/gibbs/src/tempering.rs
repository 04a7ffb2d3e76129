//! Parallel tempering (replica exchange) over an MRF posterior.
//!
//! A single Gibbs chain at low temperature freezes in local minima; a
//! ladder of replicas at increasing temperatures, with Metropolis swaps of
//! neighbouring replicas' states, lets hot replicas ferry the cold one
//! across energy barriers. The swap acceptance
//! `min(1, exp((1/Tᵢ − 1/Tⱼ)(Eᵢ − Eⱼ)))` preserves each replica's target
//! distribution, so the coldest replica still samples its Boltzmann
//! posterior — with far better mixing on multimodal energy landscapes
//! than the paper's plain fixed-temperature chain.
//!
//! Each replica is swept with the serial reference [`colored_sweep`] at
//! [`CHUNKS`] chunks per colour group, on a stream derived from
//! `(config.seed, replica, iteration)`; the swap decisions draw from one
//! ladder RNG seeded with `config.seed`.

use crate::sampler::LabelSampler;
use crate::sweep::{colored_sweep, sweep_seed};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Label, MarkovRandomField};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a tempering ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperingConfig {
    /// Replica temperatures, coldest first, strictly increasing.
    pub temperatures: Vec<f64>,
    /// Swap attempts between each pair of adjacent replicas per iteration.
    pub swaps_per_iteration: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl TemperingConfig {
    /// A geometric ladder: `replicas` temperatures from `t_cold` to
    /// `t_hot`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas < 2` or the temperature bounds are not ordered
    /// and positive.
    pub fn geometric_ladder(t_cold: f64, t_hot: f64, replicas: usize) -> Self {
        assert!(replicas >= 2, "tempering needs at least two replicas");
        assert!(t_cold > 0.0 && t_hot > t_cold, "need 0 < t_cold < t_hot");
        let ratio = (t_hot / t_cold).powf(1.0 / (replicas - 1) as f64);
        let temperatures = (0..replicas)
            .map(|k| t_cold * ratio.powi(k as i32))
            .collect();
        TemperingConfig {
            temperatures,
            swaps_per_iteration: 1,
            seed: 0,
        }
    }
}

/// Deterministic chunks per colour group in every replica's sweep.
pub const CHUNKS: usize = 2;

/// A parallel-tempering run over a borrowed field.
#[derive(Debug)]
pub struct TemperedChains<'a, S, L> {
    mrf: &'a MarkovRandomField<S>,
    sampler: L,
    config: TemperingConfig,
    /// One labeling per replica, index-aligned with `temperatures`.
    replicas: Vec<Vec<Label>>,
    energies: Vec<f64>,
    swaps_attempted: usize,
    swaps_accepted: usize,
    iteration: usize,
    rng: StdRng,
}

impl<'a, S, L> TemperedChains<'a, S, L>
where
    S: SingletonPotential,
    L: LabelSampler + Clone,
{
    /// Creates the ladder with every replica at the all-zero labeling.
    ///
    /// # Panics
    ///
    /// Panics if the temperature ladder is not strictly increasing.
    pub fn new(mrf: &'a MarkovRandomField<S>, sampler: L, config: TemperingConfig) -> Self {
        assert!(
            config.temperatures.windows(2).all(|w| w[0] < w[1]),
            "temperatures must be strictly increasing"
        );
        assert!(
            config.temperatures.len() >= 2,
            "tempering needs at least two replicas"
        );
        let replicas: Vec<Vec<Label>> = (0..config.temperatures.len())
            .map(|_| mrf.uniform_labeling())
            .collect();
        let energies = replicas.iter().map(|r| mrf.total_energy(r)).collect();
        TemperedChains {
            mrf,
            sampler,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            replicas,
            energies,
            swaps_attempted: 0,
            swaps_accepted: 0,
            iteration: 0,
        }
    }

    /// The coldest replica's current labeling.
    pub fn coldest(&self) -> &[Label] {
        &self.replicas[0]
    }

    /// The coldest replica's current energy.
    pub fn coldest_energy(&self) -> f64 {
        self.energies[0]
    }

    /// Fraction of attempted swaps accepted so far (ladder-health
    /// indicator: healthy ladders sit around 20–60%).
    pub fn swap_acceptance(&self) -> f64 {
        if self.swaps_attempted == 0 {
            return 0.0;
        }
        self.swaps_accepted as f64 / self.swaps_attempted as f64
    }

    /// One tempering iteration: every replica performs a full Gibbs sweep
    /// at its own temperature, then adjacent replicas attempt state swaps.
    pub fn step(&mut self) {
        for (k, (replica, &t)) in self
            .replicas
            .iter_mut()
            .zip(&self.config.temperatures)
            .enumerate()
        {
            let seed = sweep_seed(self.config.seed.wrapping_add(k as u64), self.iteration);
            colored_sweep(self.mrf, replica, &self.sampler, t, CHUNKS, seed);
        }
        self.iteration += 1;
        for (i, e) in self.energies.iter_mut().enumerate() {
            *e = self.mrf.total_energy(&self.replicas[i]);
        }
        for _ in 0..self.config.swaps_per_iteration {
            for i in 0..self.replicas.len() - 1 {
                self.attempt_swap(i);
            }
        }
    }

    /// Runs `n` iterations.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    fn attempt_swap(&mut self, i: usize) {
        self.swaps_attempted += 1;
        let (ti, tj) = (self.config.temperatures[i], self.config.temperatures[i + 1]);
        let (ei, ej) = (self.energies[i], self.energies[i + 1]);
        let log_alpha = (1.0 / ti - 1.0 / tj) * (ei - ej);
        if log_alpha >= 0.0 || self.rng.gen::<f64>() < log_alpha.exp() {
            self.replicas.swap(i, i + 1);
            self.energies.swap(i, i + 1);
            self.swaps_accepted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SoftmaxGibbs;
    use mogs_mrf::energy::ZeroSingleton;
    use mogs_mrf::{Grid2D, LabelSpace, SmoothnessPrior};

    #[test]
    fn geometric_ladder_shape() {
        let c = TemperingConfig::geometric_ladder(0.5, 8.0, 5);
        assert_eq!(c.temperatures.len(), 5);
        assert!((c.temperatures[0] - 0.5).abs() < 1e-12);
        assert!((c.temperatures[4] - 8.0).abs() < 1e-9);
        let r1 = c.temperatures[1] / c.temperatures[0];
        let r2 = c.temperatures[2] / c.temperatures[1];
        assert!((r1 - r2).abs() < 1e-9, "geometric spacing");
    }

    #[test]
    fn tempering_beats_cold_chain_on_frustrated_model() {
        // Strong Potts coupling at a cold temperature: a single chain
        // freezes into domain walls; tempering melts them.
        let mrf = MarkovRandomField::builder(Grid2D::new(12, 12), LabelSpace::scalar(4))
            .prior(SmoothnessPrior::potts(2.0))
            .singleton(ZeroSingleton)
            .build();
        let iterations = 40;
        // Plain cold chain.
        let mut cold_labels = mrf.uniform_labeling();
        // Start from a frustrated random state.
        for (i, l) in cold_labels.iter_mut().enumerate() {
            *l = Label::new((i % 4) as u8);
        }
        for i in 0..iterations {
            let seed = sweep_seed(1, i);
            colored_sweep(
                &mrf,
                &mut cold_labels,
                &SoftmaxGibbs::new(),
                0.4,
                CHUNKS,
                seed,
            );
        }
        let cold_energy = mrf.total_energy(&cold_labels);
        // Tempered ladder with the same cold temperature.
        let config = TemperingConfig {
            seed: 1,
            ..TemperingConfig::geometric_ladder(0.4, 4.0, 5)
        };
        let mut ladder = TemperedChains::new(&mrf, SoftmaxGibbs::new(), config);
        // Give the ladder the same frustrated start on every replica.
        for replica in &mut ladder.replicas {
            for (i, l) in replica.iter_mut().enumerate() {
                *l = Label::new((i % 4) as u8);
            }
        }
        ladder.run(iterations);
        assert!(
            ladder.coldest_energy() <= cold_energy,
            "tempered {} vs plain {}",
            ladder.coldest_energy(),
            cold_energy
        );
    }

    #[test]
    fn swap_acceptance_is_healthy() {
        let mrf = MarkovRandomField::builder(Grid2D::new(8, 8), LabelSpace::scalar(3))
            .prior(SmoothnessPrior::potts(1.0))
            .singleton(ZeroSingleton)
            .build();
        let config = TemperingConfig {
            seed: 2,
            ..TemperingConfig::geometric_ladder(0.8, 3.0, 4)
        };
        let mut ladder = TemperedChains::new(&mrf, SoftmaxGibbs::new(), config);
        ladder.run(30);
        let acc = ladder.swap_acceptance();
        assert!(
            acc > 0.05,
            "swap acceptance {acc} too low — ladder too sparse"
        );
    }

    #[test]
    fn coldest_accessors_work() {
        let mrf = MarkovRandomField::builder(Grid2D::new(4, 4), LabelSpace::scalar(2))
            .singleton(ZeroSingleton)
            .build();
        let config = TemperingConfig::geometric_ladder(1.0, 2.0, 2);
        let mut ladder = TemperedChains::new(&mrf, SoftmaxGibbs::new(), config);
        ladder.step();
        assert_eq!(ladder.coldest().len(), 16);
        assert!(ladder.coldest_energy().is_finite());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_ladder_rejected() {
        let mrf = MarkovRandomField::builder(Grid2D::new(2, 2), LabelSpace::scalar(2))
            .singleton(ZeroSingleton)
            .build();
        let config = TemperingConfig {
            temperatures: vec![2.0, 1.0],
            swaps_per_iteration: 1,
            seed: 0,
        };
        TemperedChains::new(&mrf, SoftmaxGibbs::new(), config);
    }
}
