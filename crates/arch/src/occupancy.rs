//! SM-level occupancy and latency-hiding analysis (paper Fig. 2, §8.2).
//!
//! The paper attributes part of the RSU speedup to *secondary effects*:
//! "Fewer instructions take less time to execute, but also reduces
//! register pressure and increases processor occupancy." This module makes
//! that argument quantitative with the standard occupancy calculation
//! (warps resident per SM limited by the register file) and a
//! latency-hiding check for the RSU's multi-cycle evaluation: with enough
//! resident warps, the `M`-cycle RSU-G latency disappears behind other
//! warps' issue slots, exactly like a long-latency memory instruction.

#![deny(clippy::as_conversions)]

use crate::kernel::KernelVariant;
use crate::workload::VisionApp;

/// Titan-X-class streaming-multiprocessor limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmLimits {
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps: u32,
    /// Threads per warp.
    pub warp_size: u32,
}

impl Default for SmLimits {
    fn default() -> Self {
        // GM200 (GTX Titan X): 64K registers, 64 resident warps.
        SmLimits {
            registers_per_sm: 65_536,
            max_warps: 64,
            warp_size: 32,
        }
    }
}

/// Registers per thread a kernel variant needs for an application.
///
/// Estimates consistent with the kernel work model: the baseline keeps the
/// running CDF, per-label energies, RNG state, and addressing live
/// (motion adds displaced-address arithmetic); the RSU variant keeps only
/// addressing and the packed control values — the energy/CDF/RNG state
/// lives inside the unit.
pub fn registers_per_thread(app: VisionApp, variant: KernelVariant) -> u32 {
    match variant {
        KernelVariant::Baseline => match app {
            VisionApp::MotionEstimation => 56,
            VisionApp::Segmentation | VisionApp::StereoVision => 40,
        },
        KernelVariant::OptimizedSingleton => match app {
            VisionApp::MotionEstimation => 48,
            VisionApp::Segmentation | VisionApp::StereoVision => 36,
        },
        KernelVariant::Rsu { .. } => 24,
    }
}

/// Occupancy analysis for one (application, variant) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Warps resident per SM.
    pub resident_warps: u32,
    /// Fraction of the SM's warp capacity in use.
    pub fraction: f64,
}

/// Computes achievable occupancy from register pressure.
pub fn occupancy(limits: &SmLimits, app: VisionApp, variant: KernelVariant) -> Occupancy {
    let regs = registers_per_thread(app, variant);
    let warps_by_registers = limits.registers_per_sm / (regs * limits.warp_size);
    let resident = warps_by_registers.min(limits.max_warps).max(1);
    Occupancy {
        resident_warps: resident,
        fraction: f64::from(resident) / f64::from(limits.max_warps),
    }
}

/// Whether `resident_warps` hide an RSU evaluation of `m` labels: the unit
/// is busy `m` cycles per warp, so with at least `m / issue_width`-ish
/// other warps ready the scheduler never idles. We use the conservative
/// single-issue bound `resident_warps ≥ m`.
pub fn rsu_latency_hidden(resident_warps: u32, m: u8) -> bool {
    resident_warps >= u32::from(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsu_kernels_run_at_higher_occupancy() {
        let limits = SmLimits::default();
        for app in [VisionApp::Segmentation, VisionApp::MotionEstimation] {
            let base = occupancy(&limits, app, KernelVariant::Baseline);
            let rsu = occupancy(&limits, app, KernelVariant::rsu(1));
            assert!(
                rsu.resident_warps > base.resident_warps,
                "{app:?}: RSU {} vs baseline {}",
                rsu.resident_warps,
                base.resident_warps
            );
        }
    }

    #[test]
    fn motion_baseline_is_register_starved() {
        // 56 regs/thread × 32 = 1792 regs/warp → 36 warps of 64: the
        // occupancy loss the paper's secondary-effects remark points at.
        let o = occupancy(
            &SmLimits::default(),
            VisionApp::MotionEstimation,
            KernelVariant::Baseline,
        );
        assert!(o.fraction < 0.6, "baseline motion occupancy {}", o.fraction);
    }

    #[test]
    fn rsu_occupancy_hides_both_workloads_latency() {
        let limits = SmLimits::default();
        for (app, m) in [
            (VisionApp::Segmentation, 5u8),
            (VisionApp::MotionEstimation, 49),
        ] {
            let o = occupancy(&limits, app, KernelVariant::rsu(1));
            assert!(
                rsu_latency_hidden(o.resident_warps, m),
                "{app:?}: {} warps cannot hide M={m}",
                o.resident_warps
            );
        }
    }

    #[test]
    fn occupancy_is_monotone_in_register_budget() {
        let small = SmLimits {
            registers_per_sm: 32_768,
            ..SmLimits::default()
        };
        let large = SmLimits::default();
        let o_small = occupancy(&small, VisionApp::Segmentation, KernelVariant::Baseline);
        let o_large = occupancy(&large, VisionApp::Segmentation, KernelVariant::Baseline);
        assert!(o_large.resident_warps >= o_small.resident_warps);
    }

    #[test]
    fn occupancy_never_exceeds_hardware_cap() {
        let limits = SmLimits::default();
        for app in [VisionApp::Segmentation, VisionApp::MotionEstimation] {
            for variant in [
                KernelVariant::Baseline,
                KernelVariant::OptimizedSingleton,
                KernelVariant::rsu(1),
            ] {
                let o = occupancy(&limits, app, variant);
                assert!(o.resident_warps <= limits.max_warps);
                assert!(o.fraction <= 1.0);
            }
        }
    }
}
