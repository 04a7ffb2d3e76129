//! Limited-precision energy arithmetic (paper §4.4).
//!
//! The RSU-G datapath carries energies as **8-bit unsigned integers** (a
//! saturating sum of five clique potentials), labels as 6-bit values with
//! 3-bit components. The paper observes that beyond 8 bits the energies of
//! different labels overlap into equal selection probabilities, and
//! recommends *collapsing* redundant labels before execution. This module
//! provides the float→fixed quantizer and the collapsing analysis.

#![deny(clippy::as_conversions)]

use crate::label::Label;

/// Maximum representable quantized energy (8 bits).
pub const ENERGY_MAX: u8 = u8::MAX;

/// Quantizes model-level (f64) energies into the 8-bit hardware range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyQuantizer {
    scale: f64,
}

impl EnergyQuantizer {
    /// A quantizer mapping energy `e` to `round(e · scale)`, saturating at
    /// 255.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    pub fn new(scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        EnergyQuantizer { scale }
    }

    /// A quantizer that maps `max_energy` to the top of the 8-bit range, so
    /// the full dynamic range is used.
    ///
    /// # Panics
    ///
    /// Panics if `max_energy` is not strictly positive and finite.
    pub fn for_max_energy(max_energy: f64) -> Self {
        assert!(
            max_energy.is_finite() && max_energy > 0.0,
            "max energy must be positive"
        );
        EnergyQuantizer {
            scale: f64::from(ENERGY_MAX) / max_energy,
        }
    }

    /// The multiplicative scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Quantizes one energy: `energy · scale` rounded half away from zero,
    /// saturating at 255; negative energies and NaN read 0 (the hardware
    /// datapath is unsigned). Rounds inline because `f64::round` is a libm
    /// call on baseline x86-64, with the same result for every input.
    #[inline]
    pub fn quantize(&self, energy: f64) -> u8 {
        let v = energy * self.scale;
        if v >= f64::from(ENERGY_MAX) - 0.5 {
            ENERGY_MAX
        } else if v >= 0.5 {
            #[expect(
                clippy::as_conversions,
                reason = "float-to-int has no From path; the guards pin `v` inside \
                          [0.5, 254.5), so the cast truncates and `v - t` is exact \
                          (the low bits of `v` itself)"
            )]
            let t = v as u8;
            t + u8::from(v - f64::from(t) >= 0.5)
        } else {
            // Below one half, negative, or NaN.
            0
        }
    }

    /// Quantizes a slice of energies.
    pub fn quantize_all(&self, energies: &[f64]) -> Vec<u8> {
        energies.iter().map(|&e| self.quantize(e)).collect()
    }

    /// The model-level energy a quantized value represents (midpoint
    /// inverse).
    pub fn dequantize(&self, q: u8) -> f64 {
        f64::from(q) / self.scale
    }
}

/// Saturating 8-bit sum of clique potential energies — the exact operation
/// of the RSU-G energy stage (five terms: one singleton, four doubletons).
pub fn saturating_energy_sum(terms: &[u8]) -> u8 {
    terms.iter().fold(0u8, |acc, &t| acc.saturating_add(t))
}

/// Groups labels whose quantized energies are identical — the candidates
/// the paper recommends collapsing into a single label (§4.4).
///
/// Returns the groups in first-seen order; singleton groups mean no
/// redundancy at this precision.
pub fn redundant_label_groups(quantized: &[u8]) -> Vec<Vec<Label>> {
    let mut groups: Vec<(u8, Vec<Label>)> = Vec::new();
    for (i, &q) in quantized.iter().enumerate() {
        // Quantized slices hold at most MAX_LABELS (64) energies.
        let label = Label::new(u8::try_from(i).unwrap_or(u8::MAX));
        match groups.iter_mut().find(|(energy, _)| *energy == q) {
            Some((_, members)) => members.push(label),
            None => groups.push((q, vec![label])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_rounds_and_saturates() {
        let q = EnergyQuantizer::new(1.0);
        assert_eq!(q.quantize(0.4), 0);
        assert_eq!(q.quantize(0.6), 1);
        assert_eq!(q.quantize(254.7), 255);
        assert_eq!(q.quantize(1000.0), 255);
        assert_eq!(q.quantize(-5.0), 0);
    }

    #[test]
    fn for_max_energy_uses_full_range() {
        let q = EnergyQuantizer::for_max_energy(10.0);
        assert_eq!(q.quantize(10.0), 255);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(5.0), 128); // round(127.5) = 128
    }

    #[test]
    fn dequantize_inverts_within_half_step() {
        let q = EnergyQuantizer::for_max_energy(100.0);
        for e in [0.0, 12.5, 50.0, 99.0] {
            let round_trip = q.dequantize(q.quantize(e));
            assert!((round_trip - e).abs() <= 0.5 / q.scale() + 1e-12, "e={e}");
        }
    }

    #[test]
    fn saturating_sum_matches_paper_budget() {
        // Five max terms saturate rather than wrap.
        assert_eq!(saturating_energy_sum(&[200, 200, 200, 200, 200]), 255);
        assert_eq!(saturating_energy_sum(&[10, 20, 30, 40, 50]), 150);
        assert_eq!(saturating_energy_sum(&[]), 0);
    }

    #[test]
    fn redundant_groups_found() {
        // Labels 0 and 2 quantize identically.
        let groups = redundant_label_groups(&[7, 3, 7, 9]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![Label::new(0), Label::new(2)]);
        assert_eq!(groups[1], vec![Label::new(1)]);
        assert_eq!(groups[2], vec![Label::new(3)]);
    }

    #[test]
    fn no_redundancy_yields_singletons() {
        let groups = redundant_label_groups(&[1, 2, 3]);
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn quantize_all_maps_each() {
        let q = EnergyQuantizer::new(2.0);
        assert_eq!(q.quantize_all(&[1.0, 2.0, 200.0]), vec![2, 4, 255]);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        EnergyQuantizer::new(0.0);
    }
}
