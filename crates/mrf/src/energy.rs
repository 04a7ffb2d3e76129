//! Clique potential energies: smoothness doubletons and data singletons.
//!
//! The paper's MRFs (Eq. 1) combine one **singleton** potential per site
//! (tying the variable to observed data) with four **doubleton** potentials
//! (penalizing label disagreement between neighbours). This module provides
//! the standard smoothness-prior doubleton family and the trait applications
//! implement for their singletons.

use crate::label::{Label, LabelSpace};

/// The family of smoothness doubleton potentials (Szeliski et al. 2008).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DoubletonKind {
    /// `w · d²(a, b)` — the paper's Eq. 2 squared-difference norm.
    SquaredDifference,
    /// `w · min(d²(a, b), cap)` — truncated quadratic, robust to
    /// discontinuities (object boundaries).
    TruncatedQuadratic {
        /// Cap applied to the squared distance before weighting.
        cap: f64,
    },
    /// `w · [a ≠ b]` — the Potts model: constant penalty for any mismatch.
    Potts,
}

/// A weighted smoothness prior over neighbouring labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothnessPrior {
    weight: f64,
    kind: DoubletonKind,
}

impl SmoothnessPrior {
    /// Squared-difference prior with the given weight (the paper's default).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn squared_difference(weight: f64) -> Self {
        Self::new(weight, DoubletonKind::SquaredDifference)
    }

    /// Truncated-quadratic prior.
    ///
    /// # Panics
    ///
    /// Panics if `weight` or `cap` is negative or non-finite.
    pub fn truncated_quadratic(weight: f64, cap: f64) -> Self {
        assert!(cap.is_finite() && cap >= 0.0, "cap must be non-negative");
        Self::new(weight, DoubletonKind::TruncatedQuadratic { cap })
    }

    /// Potts prior.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn potts(weight: f64) -> Self {
        Self::new(weight, DoubletonKind::Potts)
    }

    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    fn new(weight: f64, kind: DoubletonKind) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be non-negative"
        );
        SmoothnessPrior { weight, kind }
    }

    /// The prior's weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The doubleton family.
    pub fn kind(&self) -> DoubletonKind {
        self.kind
    }

    /// Doubleton energy between two labels under `space`'s interpretation.
    pub fn energy(&self, space: &LabelSpace, a: Label, b: Label) -> f64 {
        let d2 = f64::from(space.distance_sq(a, b));
        match self.kind {
            DoubletonKind::SquaredDifference => self.weight * d2,
            DoubletonKind::TruncatedQuadratic { cap } => self.weight * d2.min(cap),
            DoubletonKind::Potts => {
                if a == b {
                    0.0
                } else {
                    self.weight
                }
            }
        }
    }
}

/// A singleton clique potential: the application-specific energy tying a
/// site's label to the observed data.
///
/// Implemented for closures, so simple models need no new types:
///
/// ```
/// use mogs_mrf::energy::SingletonPotential;
/// use mogs_mrf::Label;
///
/// let flat = |_site: usize, _label: Label| 0.0;
/// assert_eq!(flat.energy(3, Label::new(1)), 0.0);
/// ```
pub trait SingletonPotential: Send + Sync {
    /// Energy of assigning `label` at `site` given the observed data the
    /// implementation captured.
    fn energy(&self, site: usize, label: Label) -> f64;
}

impl<F> SingletonPotential for F
where
    F: Fn(usize, Label) -> f64 + Send + Sync,
{
    fn energy(&self, site: usize, label: Label) -> f64 {
        self(site, label)
    }
}

/// A singleton that is zero everywhere: pure-prior fields (useful for
/// sampling from the prior and in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroSingleton;

impl SingletonPotential for ZeroSingleton {
    fn energy(&self, _site: usize, _label: Label) -> f64 {
        0.0
    }
}

/// The hardware singleton form of the RSU-G (paper §4.3): the squared
/// difference of two 6-bit data values, `(data1 - data2)²`, optionally
/// pre-weighted. Applications that fit this form map directly onto the
/// RSU-G datapath; others precompute their singleton externally.
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredDataSingleton {
    /// `data1[site]`: the per-site observation (6-bit range).
    pub data1: Vec<u8>,
    /// `data2[site][label]`: the comparison value per label
    /// (e.g. destination-frame intensity for motion estimation).
    pub data2: Vec<Vec<u8>>,
    /// Scalar weight pre-factored into the energy.
    pub weight: f64,
}

impl SingletonPotential for SquaredDataSingleton {
    fn energy(&self, site: usize, label: Label) -> f64 {
        let a = f64::from(self.data1[site]);
        let b = f64::from(self.data2[site][usize::from(label.value())]);
        let d = a - b;
        self.weight * d * d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_difference_energy() {
        let prior = SmoothnessPrior::squared_difference(2.0);
        let space = LabelSpace::scalar(8);
        let e = prior.energy(&space, Label::new(1), Label::new(4));
        assert_eq!(e, 2.0 * 9.0);
    }

    #[test]
    fn truncated_quadratic_caps() {
        let prior = SmoothnessPrior::truncated_quadratic(1.0, 4.0);
        let space = LabelSpace::scalar(8);
        assert_eq!(prior.energy(&space, Label::new(0), Label::new(1)), 1.0);
        assert_eq!(prior.energy(&space, Label::new(0), Label::new(7)), 4.0);
    }

    #[test]
    fn potts_is_binary() {
        let prior = SmoothnessPrior::potts(3.0);
        let space = LabelSpace::scalar(8);
        assert_eq!(prior.energy(&space, Label::new(2), Label::new(2)), 0.0);
        assert_eq!(prior.energy(&space, Label::new(2), Label::new(3)), 3.0);
        assert_eq!(prior.energy(&space, Label::new(2), Label::new(7)), 3.0);
    }

    #[test]
    fn identical_labels_cost_nothing() {
        let space = LabelSpace::window(7, 7);
        for prior in [
            SmoothnessPrior::squared_difference(1.5),
            SmoothnessPrior::truncated_quadratic(1.5, 9.0),
            SmoothnessPrior::potts(1.5),
        ] {
            for l in space.labels() {
                assert_eq!(prior.energy(&space, l, l), 0.0);
            }
        }
    }

    #[test]
    fn closure_singleton() {
        let data = [10u8, 200u8];
        let s = move |site: usize, label: Label| {
            (f64::from(data[site]) - f64::from(label.value()) * 40.0).abs()
        };
        assert_eq!(s.energy(0, Label::new(0)), 10.0);
        assert_eq!(s.energy(1, Label::new(5)), 0.0);
    }

    #[test]
    fn squared_data_singleton_matches_hardware_form() {
        let s = SquaredDataSingleton {
            data1: vec![10, 20],
            data2: vec![vec![10, 13], vec![25, 20]],
            weight: 0.5,
        };
        assert_eq!(s.energy(0, Label::new(0)), 0.0);
        assert_eq!(s.energy(0, Label::new(1)), 0.5 * 9.0);
        assert_eq!(s.energy(1, Label::new(0)), 0.5 * 25.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        SmoothnessPrior::squared_difference(-1.0);
    }
}
