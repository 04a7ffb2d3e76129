//! Deterministic device-fault plans and health policy for the RSU pool.
//!
//! The paper's RSU-G is a physical device: chromophores photobleach
//! (`mogs-ret::wearout`), SPADs fire dark counts, selection latches can
//! stick. This module describes *when* and *how* units fail — a
//! [`FaultPlan`] is a seeded, sorted schedule of [`FaultEvent`]s applied
//! at quiescent sweep boundaries — and *how hard* the engine should
//! watch for it: a [`HealthPolicy`] configures the between-sweep
//! calibration probe, the drift threshold that quarantines a unit, and
//! the live-unit floor below which the job fails over to the exact
//! softmax backend and completes [`Degraded`].
//!
//! Everything here is deterministic: plans built from the same wear-out
//! model and seed are identical, probes draw from their own seeded RNG
//! stream, and an empty plan with no policy is bit-identical to the
//! fault-free engine (asserted in `tests/fault_determinism.rs`).

use crate::error::EngineError;
use mogs_gibbs::kernel::UnitFault;
use mogs_ret::wearout::EnsembleWearout;
use serde::{Deserialize, Serialize};

/// One scheduled device fault: before sweep `sweep` begins, `fault` is
/// injected into pool unit `unit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Sweep boundary the fault lands on: it is applied after sweep
    /// `sweep - 1` completes and before sweep `sweep` starts (events at
    /// sweep 0 are applied before the first sweep).
    pub sweep: usize,
    /// Pool unit index the fault targets.
    pub unit: usize,
    /// The device fault to inject.
    pub fault: UnitFault,
}

/// A deterministic schedule of unit faults, sorted by sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: bit-identical to running with no plan at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events. Events are stably sorted by
    /// sweep; same-sweep events keep their given order.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.sweep);
        FaultPlan { events }
    }

    /// Derives a plan from the paper's photobleaching wear-out model.
    ///
    /// Each of `units` pool units gets an exponential excitation-budget
    /// lifetime from [`EnsembleWearout::sample_unit_lifetimes`] under
    /// `seed`. A unit absorbing `excitations_per_sweep` excitations per
    /// sweep dies at sweep `ceil(lifetime / excitations_per_sweep)`;
    /// units dying inside `horizon_sweeps` get a dark-count spike at
    /// three quarters of their life (the noisy end-of-life regime SPADs
    /// exhibit before going dark) followed by a dead fault at death.
    /// Units outliving the horizon contribute no events.
    ///
    /// # Panics
    ///
    /// Panics if `excitations_per_sweep` is not strictly positive.
    pub fn from_wearout(
        wearout: &EnsembleWearout,
        units: usize,
        excitations_per_sweep: f64,
        horizon_sweeps: usize,
        seed: u64,
    ) -> Self {
        assert!(
            excitations_per_sweep > 0.0,
            "excitations per sweep must be positive"
        );
        let lifetimes = wearout.sample_unit_lifetimes(units, seed);
        let mut events = Vec::new();
        for (unit, life) in lifetimes.into_iter().enumerate() {
            let death = (life / excitations_per_sweep).ceil().max(1.0) as usize;
            if death >= horizon_sweeps {
                continue;
            }
            let noisy = death * 3 / 4;
            if noisy > 0 && noisy < death {
                events.push(FaultEvent {
                    sweep: noisy,
                    unit,
                    fault: UnitFault::DarkCount { rate_per_ns: 0.05 },
                });
            }
            events.push(FaultEvent {
                sweep: death,
                unit,
                fault: UnitFault::Dead,
            });
        }
        FaultPlan::new(events)
    }

    /// The scheduled events, sorted by sweep.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Validates the plan against a `labels`-label space (part of
    /// [`InferenceJob::validate`](crate::InferenceJob::validate)).
    pub(crate) fn validate(&self, labels: usize) -> Result<(), EngineError> {
        check_stuck_labels(self.events.iter().map(|e| e.fault), labels, "fault_plan")
    }
}

/// Refuses a stuck unit whose latched label lies outside a `labels`-label
/// space: the unit would write that label into the job's label plane.
pub(crate) fn check_stuck_labels(
    faults: impl IntoIterator<Item = UnitFault>,
    labels: usize,
    field: &'static str,
) -> Result<(), EngineError> {
    for fault in faults {
        if let UnitFault::Stuck(label) = fault {
            if usize::from(label.value()) >= labels {
                return Err(EngineError::InvalidSpec {
                    field,
                    reason: format!(
                        "stuck unit latches label {} outside the {labels}-label space",
                        label.value()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// A job that survived backend failover: the RSU pool fell below the
/// health policy's live-unit floor mid-flight, and the job completed on
/// the exact softmax backend instead of dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Degraded {
    /// Sweep index at whose start the failover took effect (the first
    /// sweep sampled by the exact backend).
    pub failed_over_at: usize,
    /// Units quarantined over the job's lifetime when it failed over.
    pub units_lost: usize,
}

/// Configuration for the online unit health monitor.
///
/// Between sweeps, every live pool unit is probed with a fixed
/// known-distribution draw (`mogs_core::verification::HEALTH_PROBE_ENERGIES`)
/// on a dedicated seeded RNG, and its empirical label marginals are
/// compared to the unit's pristine baseline by total-variation distance.
/// Units drifting past `drift_threshold` are quarantined and the pool's
/// round-robin rotation rebalances over the survivors; when fewer than
/// `min_live_units` remain, the job fails over to the exact backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Probe every this many sweeps (1 = every sweep boundary).
    pub probe_every: usize,
    /// Tournament draws per probe; more draws, finer drift resolution.
    pub probe_draws: u32,
    /// Total-variation distance beyond which a unit is quarantined.
    /// Probes are deterministic, so a healthy unit sits at exactly 0.
    pub drift_threshold: f64,
    /// Minimum live units: falling below triggers failover.
    pub min_live_units: usize,
    /// Seed for the probe RNG stream (never the job's sampling stream).
    pub probe_seed: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            probe_every: 1,
            probe_draws: 128,
            drift_threshold: 0.2,
            min_live_units: 1,
            probe_seed: 0xCA11_B007,
        }
    }
}

impl HealthPolicy {
    /// Validates the policy (part of
    /// [`InferenceJob::validate`](crate::InferenceJob::validate)).
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.probe_every == 0 {
            return Err(EngineError::InvalidSpec {
                field: "health.probe_every",
                reason: "must be at least 1 sweep".to_owned(),
            });
        }
        if self.probe_draws == 0 {
            return Err(EngineError::InvalidSpec {
                field: "health.probe_draws",
                reason: "must draw at least once per probe".to_owned(),
            });
        }
        if !(self.drift_threshold > 0.0 && self.drift_threshold <= 1.0) {
            return Err(EngineError::InvalidSpec {
                field: "health.drift_threshold",
                reason: format!(
                    "total-variation threshold must be in (0, 1], got {}",
                    self.drift_threshold
                ),
            });
        }
        if self.min_live_units == 0 {
            return Err(EngineError::InvalidSpec {
                field: "health.min_live_units",
                reason: "live-unit floor must be at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_events_by_sweep() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                sweep: 9,
                unit: 0,
                fault: UnitFault::Dead,
            },
            FaultEvent {
                sweep: 2,
                unit: 1,
                fault: UnitFault::Dead,
            },
        ]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].sweep, 2);
        assert_eq!(plan.events()[1].sweep, 9);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn wearout_plans_are_seed_deterministic() {
        let w = EnsembleWearout::new(64, 2_000.0, 1.0);
        let a = FaultPlan::from_wearout(&w, 8, 100.0, 64, 0xFA11);
        let b = FaultPlan::from_wearout(&w, 8, 100.0, 64, 0xFA11);
        assert_eq!(a, b);
        // With a 20-sweep mean life and a 64-sweep horizon most units
        // die on schedule; the plan must not be empty.
        assert!(!a.is_empty());
        // Every death is preceded by a dark-count spike when there is
        // room for one, and all events land inside the horizon.
        assert!(a.events().iter().all(|e| e.sweep < 64));
        let c = FaultPlan::from_wearout(&w, 8, 100.0, 64, 0xFA12);
        assert_ne!(a, c, "different seeds must reshuffle lifetimes");
    }

    #[test]
    fn health_policy_validation_catches_bad_fields() {
        assert!(HealthPolicy::default().validate().is_ok());
        let bad = HealthPolicy {
            probe_every: 0,
            ..HealthPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = HealthPolicy {
            drift_threshold: 1.5,
            ..HealthPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = HealthPolicy {
            min_live_units: 0,
            ..HealthPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = HealthPolicy {
            probe_draws: 0,
            ..HealthPolicy::default()
        };
        assert!(bad.validate().is_err());
    }
}
