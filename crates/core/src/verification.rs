//! Bit-level verification vectors for the CMOS datapaths.
//!
//! The paper verified its synthesized Verilog in Modelsim; this module is
//! the equivalent artifact for the Rust models: explicit input→output
//! vectors for every CMOS block (energy datapath, intensity LUT, TTF
//! capture, neighbour packing, instruction encoding), written as data so a
//! future RTL implementation can consume the same tables.

use crate::energy_unit::{EnergyUnit, EnergyUnitConfig};
use crate::intensity::IntensityMap;
use crate::isa::pack_neighbors;
use crate::ttf::TtfRegister;
use mogs_mrf::label::LabelKind;

/// One energy-datapath vector: inputs and the expected 8-bit energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyVector {
    /// Candidate label (6-bit).
    pub label: u8,
    /// Neighbour labels (`None` = boundary).
    pub neighbors: [Option<u8>; 4],
    /// `DATA1` input.
    pub data1: u8,
    /// `DATA2` input.
    pub data2: u8,
    /// Expected output energy.
    pub expected: u8,
}

/// Golden vectors for the default scalar datapath (doubleton shift 0,
/// singleton shift 4).
pub const SCALAR_ENERGY_VECTORS: [EnergyVector; 8] = [
    // All-zero: zero energy.
    EnergyVector {
        label: 0,
        neighbors: [Some(0); 4],
        data1: 0,
        data2: 0,
        expected: 0,
    },
    // Pure singleton: (63-0)² >> 4 = 248.
    EnergyVector {
        label: 0,
        neighbors: [Some(0); 4],
        data1: 63,
        data2: 0,
        expected: 248,
    },
    // Pure doubletons: 4 × (7-0)² = 196.
    EnergyVector {
        label: 0,
        neighbors: [Some(7); 4],
        data1: 0,
        data2: 0,
        expected: 196,
    },
    // Saturation: 248 + 196 clamps to 255.
    EnergyVector {
        label: 0,
        neighbors: [Some(7); 4],
        data1: 63,
        data2: 0,
        expected: 255,
    },
    // Boundary mask: two valid neighbours only.
    EnergyVector {
        label: 0,
        neighbors: [Some(7), Some(7), None, None],
        data1: 0,
        data2: 0,
        expected: 98,
    },
    // Scalar interpretation ignores the high 3 bits: 9 ⊕ 1 share low bits.
    EnergyVector {
        label: 9,
        neighbors: [Some(1); 4],
        data1: 0,
        data2: 0,
        expected: 0,
    },
    // Mixed: singleton (20-10)²>>4 = 6, doubletons 4×(3-1)² = 16.
    EnergyVector {
        label: 3,
        neighbors: [Some(1); 4],
        data1: 20,
        data2: 10,
        expected: 22,
    },
    // Asymmetric neighbours: (2-0)²+(2-4)²+(2-7)²+(2-2)² = 4+4+25+0 = 33.
    EnergyVector {
        label: 2,
        neighbors: [Some(0), Some(4), Some(7), Some(2)],
        data1: 0,
        data2: 0,
        expected: 33,
    },
];

/// One vector-datapath vector (3+3-bit components).
pub const VECTOR_ENERGY_VECTORS: [EnergyVector; 3] = [
    // (1,2) candidate vs four (4,6) neighbours: 4 × (9+16) = 100.
    EnergyVector {
        label: 0b010_001,
        neighbors: [Some(0b110_100); 4],
        data1: 0,
        data2: 0,
        expected: 100,
    },
    // Identical vectors: zero.
    EnergyVector {
        label: 0b101_011,
        neighbors: [Some(0b101_011); 4],
        data1: 0,
        data2: 0,
        expected: 0,
    },
    // Max component distance: 4 × (49+49) = 392 → clamps to 255.
    EnergyVector {
        label: 0b000_000,
        neighbors: [Some(0b111_111); 4],
        data1: 0,
        data2: 0,
        expected: 255,
    },
];

/// Checks every scalar and vector energy vector against the model.
///
/// Returns the first failing vector, or `None` when all pass (the form an
/// RTL testbench would report).
pub fn check_energy_vectors() -> Option<EnergyVector> {
    let scalar = EnergyUnit::new(EnergyUnitConfig::default());
    for v in SCALAR_ENERGY_VECTORS {
        if scalar.energy(v.label, v.neighbors, v.data1, v.data2) != v.expected {
            return Some(v);
        }
    }
    let vector = EnergyUnit::new(EnergyUnitConfig {
        kind: LabelKind::Vector2,
        ..EnergyUnitConfig::default()
    });
    VECTOR_ENERGY_VECTORS
        .into_iter()
        .find(|&v| vector.energy(v.label, v.neighbors, v.data1, v.data2) != v.expected)
}

/// Golden LUT spot checks for the Boltzmann map at t8 = 32:
/// `(energy, expected 4-bit code)`.
pub const LUT_VECTORS_T32: [(u8, u8); 6] = [(0, 15), (8, 12), (16, 9), (32, 6), (64, 2), (128, 0)];

/// Checks the LUT vectors.
pub fn check_lut_vectors() -> Option<(u8, u8, u8)> {
    let map = IntensityMap::boltzmann(32.0);
    for (energy, expected) in LUT_VECTORS_T32 {
        let got = map.lookup(energy);
        if got != expected {
            return Some((energy, expected, got));
        }
    }
    None
}

/// Golden TTF capture vectors at 1 GHz: `(time ns, expected raw reading)`.
pub const TTF_VECTORS_1GHZ: [(f64, u8); 6] = [
    (0.0, 0),
    (0.124, 0),
    (0.125, 1),
    (1.0, 8),
    (31.7, 253),
    (32.0, 255), // saturation
];

/// Checks the TTF vectors.
pub fn check_ttf_vectors() -> Option<(f64, u8, u8)> {
    let reg = TtfRegister::at_1ghz();
    for (t, expected) in TTF_VECTORS_1GHZ {
        let got = reg.capture(Some(t)).raw();
        if got != expected {
            return Some((t, expected, got));
        }
    }
    None
}

/// Canonical energy row for online unit health probes.
///
/// An 8-label staircase spanning the quantizer's useful range: label 0
/// is the ground state, later labels step up by 4 model-energy units so
/// a healthy Boltzmann LUT yields a strongly ordered, far-from-uniform
/// firing distribution. The fault plane probes every RSU unit against
/// this row ([`RsuGSampler::probe_distribution`](crate::rsu_g::RsuGSampler::probe_distribution))
/// and compares the empirical marginals to the unit's pristine baseline;
/// a dead, stuck, or dark-count-swamped unit moves visibly on this row.
pub const HEALTH_PROBE_ENERGIES: [f64; 8] = [0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0];

/// Golden neighbour-packing vectors: `(neighbours, packed word)`.
pub fn check_packing_vectors() -> Option<u32> {
    let cases: [([Option<u8>; 4], u32); 3] = [
        ([None; 4], 0),
        ([Some(0); 4], 0x0F00_0000),
        (
            [Some(63), Some(1), None, Some(32)],
            // 63 | 1<<6 | 32<<18 + valid bits 0,1,3.
            (63) | (1 << 6) | (32 << 18) | (0b1011 << 24),
        ),
    ];
    for (neighbors, expected) in cases {
        let got = pack_neighbors(neighbors);
        if got != expected {
            return Some(got);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_energy_vectors_pass() {
        assert_eq!(check_energy_vectors(), None);
    }

    #[test]
    fn all_lut_vectors_pass() {
        assert_eq!(check_lut_vectors(), None);
    }

    #[test]
    fn all_ttf_vectors_pass() {
        assert_eq!(check_ttf_vectors(), None);
    }

    #[test]
    fn all_packing_vectors_pass() {
        assert_eq!(check_packing_vectors(), None);
    }

    #[test]
    fn health_probe_row_discriminates_on_a_pristine_unit() {
        use crate::rsu_g::RsuGSampler;
        use mogs_mrf::precision::EnergyQuantizer;
        let unit = RsuGSampler::new(EnergyQuantizer::new(8.0), 4.0);
        let dist = unit.probe_distribution(&HEALTH_PROBE_ENERGIES, 512, 0x5EED);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // The ground state must dominate and the distribution must not
        // be uniform — otherwise drift would be invisible on this row.
        let ground = dist[0];
        assert!(ground > 0.25, "ground-state mass too small: {ground}");
        assert!(dist[7] < ground, "probe row is not ordered");
        // Deterministic: same seed, same empirical marginals.
        assert_eq!(
            dist,
            unit.probe_distribution(&HEALTH_PROBE_ENERGIES, 512, 0x5EED)
        );
    }
}
