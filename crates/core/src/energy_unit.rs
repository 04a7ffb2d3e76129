//! Bit-accurate energy datapath (pipeline stage 2, paper §5.2).
//!
//! Each cycle the unit computes the 8-bit clique-potential energy of one
//! candidate label:
//!
//! * four **doubleton** terms — squared differences between the candidate
//!   and each neighbour's current label, on 3-bit components (a 6-bit value
//!   is either a scalar in its low component or a `(lo, hi)` 2-vector);
//! * one **singleton** term — the squared difference of the two 6-bit data
//!   inputs (`DATA1`, `DATA2`), with any scalar weights pre-factored into
//!   the data by software.
//!
//! The five terms are summed with **saturating 8-bit arithmetic**; per-term
//! right-shifts stand in for the pre-factored weights so each term fits its
//! share of the 8-bit budget.

#![deny(clippy::as_conversions)]

use mogs_mrf::label::LabelKind;

/// Configuration of the energy datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyUnitConfig {
    /// Scalar or 2-vector label interpretation.
    pub kind: LabelKind,
    /// Right-shift applied to each doubleton term (weight = 2⁻ˢ).
    pub doubleton_shift: u8,
    /// Right-shift applied to the singleton term (weight = 2⁻ˢ).
    ///
    /// The raw singleton `(data1 − data2)²` peaks at 63² = 3969, so a shift
    /// of 4 (the default) maps the worst case to 248 — inside 8 bits.
    pub singleton_shift: u8,
}

impl Default for EnergyUnitConfig {
    fn default() -> Self {
        EnergyUnitConfig {
            kind: LabelKind::Scalar,
            doubleton_shift: 0,
            singleton_shift: 4,
        }
    }
}

/// The energy computation unit.
///
/// ```
/// use mogs_core::energy_unit::{EnergyUnit, EnergyUnitConfig};
///
/// let unit = EnergyUnit::new(EnergyUnitConfig::default());
/// // Candidate label 0 against two neighbours at 3: 2 × 3² = 18.
/// let e = unit.energy(0, [Some(3), Some(3), None, None], 0, 0);
/// assert_eq!(e, 18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyUnit {
    config: EnergyUnitConfig,
}

impl EnergyUnit {
    /// Creates the unit.
    pub fn new(config: EnergyUnitConfig) -> Self {
        EnergyUnit { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EnergyUnitConfig {
        &self.config
    }

    /// One doubleton term: squared component distance between two 6-bit
    /// labels under the configured interpretation, then shifted.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an input exceeds 6 bits.
    pub fn doubleton(&self, label: u8, neighbor: u8) -> u16 {
        debug_assert!(label < 64 && neighbor < 64, "labels are 6-bit");
        let d2 = match self.config.kind {
            LabelKind::Scalar => {
                let d = u16::from((label & 0b111).abs_diff(neighbor & 0b111));
                d * d
            }
            LabelKind::Vector2 => {
                let d0 = u16::from((label & 0b111).abs_diff(neighbor & 0b111));
                let d1 = u16::from((label >> 3).abs_diff(neighbor >> 3));
                d0 * d0 + d1 * d1
            }
        };
        d2 >> self.config.doubleton_shift
    }

    /// The singleton term: `(data1 − data2)²` on 6-bit data, shifted.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an input exceeds 6 bits.
    pub fn singleton(&self, data1: u8, data2: u8) -> u16 {
        debug_assert!(data1 < 64 && data2 < 64, "data inputs are 6-bit");
        let d = u16::from(data1.abs_diff(data2));
        (d * d) >> self.config.singleton_shift
    }

    /// The full 8-bit energy of one candidate label: saturating sum of the
    /// singleton and the four doubletons.
    ///
    /// Absent neighbours (image boundary) are passed as `None` and
    /// contribute zero, matching a hardware neighbour-valid mask.
    pub fn energy(&self, label: u8, neighbors: [Option<u8>; 4], data1: u8, data2: u8) -> u8 {
        let mut acc: u16 = self.singleton(data1, data2).min(255);
        for n in neighbors.into_iter().flatten() {
            acc = (acc + self.doubleton(label, n)).min(255);
        }
        // The running `.min(255)` clamps keep `acc` in u8 range.
        u8::try_from(acc).unwrap_or(u8::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_doubleton_uses_low_bits_only() {
        let u = EnergyUnit::new(EnergyUnitConfig::default());
        assert_eq!(u.doubleton(0b000_001, 0b111_001), 0); // same low component
        assert_eq!(u.doubleton(0, 7), 49);
    }

    #[test]
    fn vector_doubleton_sums_components() {
        let u = EnergyUnit::new(EnergyUnitConfig {
            kind: LabelKind::Vector2,
            ..EnergyUnitConfig::default()
        });
        // (1,2) vs (4,6): 9 + 16 = 25.
        let a = (2 << 3) | 1;
        let b = (6 << 3) | 4;
        assert_eq!(u.doubleton(a, b), 25);
    }

    #[test]
    fn singleton_shift_fits_budget() {
        let u = EnergyUnit::new(EnergyUnitConfig::default());
        // Worst case 63² = 3969 >> 4 = 248 ≤ 255.
        assert_eq!(u.singleton(63, 0), 248);
        assert_eq!(u.singleton(10, 10), 0);
    }

    #[test]
    fn energy_saturates_at_255() {
        let u = EnergyUnit::new(EnergyUnitConfig {
            kind: LabelKind::Scalar,
            doubleton_shift: 0,
            singleton_shift: 0,
        });
        // Four max doubletons (49 each) + max singleton (3969, clamped).
        let e = u.energy(0, [Some(7); 4], 63, 0);
        assert_eq!(e, 255);
    }

    #[test]
    fn boundary_neighbors_contribute_zero() {
        let u = EnergyUnit::new(EnergyUnitConfig::default());
        let interior = u.energy(0, [Some(3); 4], 0, 0);
        let corner = u.energy(0, [Some(3), Some(3), None, None], 0, 0);
        assert_eq!(interior, 4 * 9);
        assert_eq!(corner, 2 * 9);
    }

    #[test]
    fn doubleton_shift_halves_weight() {
        let base = EnergyUnit::new(EnergyUnitConfig::default());
        let shifted = EnergyUnit::new(EnergyUnitConfig {
            doubleton_shift: 1,
            ..EnergyUnitConfig::default()
        });
        assert_eq!(base.doubleton(0, 6), 36);
        assert_eq!(shifted.doubleton(0, 6), 18);
    }

    #[test]
    fn energy_matches_model_level_field() {
        // The hardware datapath must agree with mogs-mrf's model arithmetic
        // for the paper's squared-difference prior with power-of-two
        // weights.
        use mogs_mrf::{Label, LabelSpace, SmoothnessPrior};
        let space = LabelSpace::scalar(8);
        let prior = SmoothnessPrior::squared_difference(1.0);
        let u = EnergyUnit::new(EnergyUnitConfig {
            kind: LabelKind::Scalar,
            doubleton_shift: 0,
            singleton_shift: 0,
        });
        for cand in 0..8u8 {
            for nbr in 0..8u8 {
                let model = prior.energy(&space, Label::new(cand), Label::new(nbr));
                assert_eq!(f64::from(u.doubleton(cand, nbr)), model);
            }
        }
    }
}
