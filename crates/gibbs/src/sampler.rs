//! The label-sampling abstraction and its software implementations.
//!
//! A [`LabelSampler`] turns the `M` full conditional energies of one site
//! into a new label. The software Gibbs sampler computes the softmax
//! distribution exactly; Metropolis proposes and accepts. The RSU-G
//! hardware model in `mogs-core` implements this same trait via
//! first-to-fire TTF competition, which lets the rest of the stack (sweeps,
//! chains, applications) run identically on software or emulated hardware.

use mogs_mrf::Label;
use rand::Rng;

/// Draws a new label for a site from its full conditional energies.
pub trait LabelSampler {
    /// Given `energies[m]` = conditional energy of label `m` and the
    /// temperature `T`, draw the site's new label.
    ///
    /// `current` is the site's present label (used by Metropolis-style
    /// samplers as the "stay" fallback).
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Exact Gibbs sampling: normalize `exp(-E/T)` and draw by inverse CDF.
///
/// This is the reference against which hardware fidelity is measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoftmaxGibbs {
    _private: (),
}

impl SoftmaxGibbs {
    /// Creates the sampler.
    pub fn new() -> Self {
        SoftmaxGibbs { _private: () }
    }

    /// The exact conditional probabilities `softmax(-E/T)` (exposed for
    /// fidelity tests against hardware samplers).
    pub fn probabilities(energies: &[f64], temperature: f64) -> Vec<f64> {
        let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
        let weights: Vec<f64> = energies
            .iter()
            .map(|e| (-(e - min) / temperature).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// The inverse-CDF tail every softmax draw shares: one uniform scaled
    /// by `total` (the weights' in-order sum), walked down `weights`.
    /// A degenerate row — `total` zero, or NaN from an all-`+∞` row or a
    /// NaN energy — keeps `current` and consumes no randomness.
    pub(crate) fn draw_weighted<R: Rng + ?Sized>(
        weights: &[f64],
        total: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        if total.is_nan() || total <= 0.0 {
            return current;
        }
        let mut u = rng.gen::<f64>() * total;
        for (m, w) in weights.iter().enumerate() {
            if u < *w {
                return Label::new(m as u8);
            }
            u -= w;
        }
        Label::new((weights.len() - 1) as u8)
    }
}

impl LabelSampler for SoftmaxGibbs {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        debug_assert!(!energies.is_empty());
        let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
        // Subtracting the min keeps the exponentials in range; the
        // normalizer cancels it.
        let mut total = 0.0;
        let mut weights = [0.0f64; mogs_mrf::label::MAX_LABELS as usize];
        for (w, e) in weights.iter_mut().zip(energies) {
            *w = (-(e - min) / temperature).exp();
            total += *w;
        }
        SoftmaxGibbs::draw_weighted(&weights[..energies.len()], total, current, rng)
    }

    fn name(&self) -> &'static str {
        "softmax-gibbs"
    }
}

/// Metropolis sampling: propose a uniform random label, accept with
/// probability `min(1, exp(-(E_new - E_old)/T))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metropolis {
    _private: (),
}

impl Metropolis {
    /// Creates the sampler.
    pub fn new() -> Self {
        Metropolis { _private: () }
    }
}

impl LabelSampler for Metropolis {
    fn sample_label<R: Rng + ?Sized>(
        &mut self,
        energies: &[f64],
        temperature: f64,
        current: Label,
        rng: &mut R,
    ) -> Label {
        debug_assert!(!energies.is_empty());
        let m = energies.len();
        let proposal = rng.gen_range(0..m);
        let e_old = energies[usize::from(current.value())];
        let e_new = energies[proposal];
        if e_new <= e_old || rng.gen::<f64>() < ((e_old - e_new) / temperature).exp() {
            Label::new(proposal as u8)
        } else {
            current
        }
    }

    fn name(&self) -> &'static str {
        "metropolis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frequencies<S: LabelSampler>(
        sampler: &mut S,
        energies: &[f64],
        t: f64,
        n: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; energies.len()];
        let mut current = Label::new(0);
        for _ in 0..n {
            current = sampler.sample_label(energies, t, current, &mut rng);
            counts[usize::from(current.value())] += 1;
        }
        counts.into_iter().map(|c| c as f64 / n as f64).collect()
    }

    #[test]
    fn softmax_matches_boltzmann() {
        let energies = [0.0, 1.0, 2.0];
        let t = 1.0;
        let expect = SoftmaxGibbs::probabilities(&energies, t);
        let freq = frequencies(&mut SoftmaxGibbs::new(), &energies, t, 100_000, 1);
        for (f, e) in freq.iter().zip(&expect) {
            assert!((f - e).abs() < 0.005, "{f} vs {e}");
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let p = SoftmaxGibbs::probabilities(&[3.0, 5.0, 1.0, 1.0], 0.7);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn temperature_flattens_softmax() {
        let energies = [0.0, 4.0];
        let cold = SoftmaxGibbs::probabilities(&energies, 0.5);
        let hot = SoftmaxGibbs::probabilities(&energies, 10.0);
        assert!(cold[0] > hot[0], "low temperature sharpens the mode");
        assert!(hot[1] > cold[1]);
    }

    #[test]
    fn metropolis_converges_to_boltzmann() {
        // Metropolis is a valid MCMC kernel for the same stationary
        // distribution; after many steps the visit frequencies converge.
        let energies = [0.0, 1.5];
        let t = 1.0;
        let expect = SoftmaxGibbs::probabilities(&energies, t);
        let freq = frequencies(&mut Metropolis::new(), &energies, t, 200_000, 2);
        for (f, e) in freq.iter().zip(&expect) {
            assert!((f - e).abs() < 0.01, "{f} vs {e}");
        }
    }

    #[test]
    fn metropolis_always_accepts_downhill() {
        let mut m = Metropolis::new();
        let mut rng = StdRng::seed_from_u64(3);
        // From the high-energy label, any proposal is downhill or equal.
        let energies = [0.0, 100.0];
        for _ in 0..100 {
            let l = m.sample_label(&energies, 1.0, Label::new(1), &mut rng);
            // Proposal of label 1 keeps it (equal energy) — but label 0 must
            // always be accepted when proposed.
            if l.value() == 0 {
                return;
            }
        }
        panic!("label 0 was never reached in 100 downhill steps");
    }

    #[test]
    fn single_label_space_is_fixed_point() {
        let mut g = SoftmaxGibbs::new();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            g.sample_label(&[2.0], 1.0, Label::new(0), &mut rng),
            Label::new(0)
        );
    }

    #[test]
    fn extreme_energies_do_not_overflow() {
        let mut g = SoftmaxGibbs::new();
        let mut rng = StdRng::seed_from_u64(5);
        // Energies this large would overflow exp() without min-shifting.
        let energies = [1e6, 1e6 + 1.0];
        for _ in 0..100 {
            let l = g.sample_label(&energies, 1.0, Label::new(0), &mut rng);
            assert!(l.value() < 2);
        }
    }
}
