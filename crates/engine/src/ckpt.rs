//! Sweep-boundary checkpoint capture: policy, portable job state, and
//! the writer contract.
//!
//! A checkpoint is taken at the same quiescent sweep boundary the
//! [`DiagSink`](crate::DiagSink) observer uses: no chunks outstanding,
//! the label plane settled, the fault plane's boundary protocol already
//! run for the upcoming sweep. At that point the whole job is a pure
//! function of (spec, captured state), because the engine's RNG streams
//! are *derived*, not stateful — each (sweep, group, chunk) phase seeds
//! a fresh `StdRng` from the job seed and the sweep cursor (see the
//! `runner` module docs), and health probes seed fresh from the policy's
//! probe seed. So a [`JobState`] only needs:
//!
//! - the sweep cursor (`next_sweep`) from which the seed formula
//!   regenerates every later stream,
//! - the label plane,
//! - the scheduler-side accumulators (energy trace, mode histograms),
//! - the kernel's per-unit device-fault state and the fault runtime's
//!   cursor/quarantine/degradation record (baselines are re-probed from
//!   the pristine kernel at restore, exactly as at original admission),
//! - the diagnostics sink's exported [`SinkState`], opaque to the
//!   engine.
//!
//! The state is bound to its producing spec by a [`StateBinding`] —
//! dimensions, seed, budget, chunking, the sparse topology fingerprint
//! from the schedule certificate, and the kernel name — so a checkpoint
//! can never be seated under a different problem and silently diverge.
//!
//! Serialization, checksumming, atomic persistence, and retention live
//! in the `mogs-ckpt` crate; the engine only defines the in-memory state
//! and the [`CheckpointWriter`] sink it hands captures to. The boundary
//! only captures; the worker that runs the next sweep's first chunk
//! writes the capture before that chunk, while the sweep's other chunks
//! run, so a job's writes land in sweep order and before its output.

use std::sync::Arc;
use std::time::Instant;

use mogs_gibbs::kernel::UnitFault;
use serde::{Deserialize, Serialize};

use crate::fault::Degraded;
use crate::sink::SinkState;

/// When the engine captures a checkpoint for a job.
///
/// Captures happen only at quiescent sweep boundaries — the one point
/// where the label plane, bookkeeping, fault runtime, and diagnostics
/// sink are all consistent with "sweep `k` done, sweep `k+1` not
/// started". There is deliberately no capture-on-cancel: cancellation is
/// honoured at *phase* boundaries, where the plane may hold a partially
/// completed sweep that no bit-identical resume could continue from.
/// Engine shutdown drains admitted jobs to completion, so shutdown
/// durability is the periodic capture plus the early-stop hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    /// Capture after every `every_sweeps`-th completed sweep (that is,
    /// whenever the upcoming sweep index is a positive multiple of
    /// this). `0` — the default — disables periodic capture.
    pub every_sweeps: usize,
    /// Also capture at the boundary where a diagnostics sink stops the
    /// job early, so a converged-and-stopped job can still be resumed
    /// under a larger budget later. Off by default.
    pub on_early_stop: bool,
}

impl CheckpointPolicy {
    /// Periodic capture every `n` sweeps, nothing else.
    #[must_use]
    pub fn every(n: usize) -> Self {
        CheckpointPolicy {
            every_sweeps: n,
            on_early_stop: false,
        }
    }
}

/// The spec facts a [`JobState`] is bound to.
///
/// Restore refuses a state whose binding does not match the spec it is
/// being seated under: every field below either shapes a buffer the
/// state is copied into or feeds the derived RNG streams, so a mismatch
/// means the resumed run could not be bit-identical (or could corrupt
/// memory). The topology fingerprint is the same FNV-1a digest the
/// schedule certificates use, so "same grid dimensions, different
/// neighbourhood" is caught even though both parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBinding {
    /// Sites in the grid.
    pub sites: usize,
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Labels in the label space.
    pub labels: usize,
    /// Full sweep budget.
    pub iterations: usize,
    /// Burn-in prefix discarded before mode tracking.
    pub burn_in: usize,
    /// Deterministic chunk count (feeds the chunk RNG streams).
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// FNV-1a fingerprint of the sparse interference topology.
    pub fingerprint: u64,
    /// The sampler kernel's name at admission (pre-failover).
    pub kernel: String,
    /// Whether mode histograms are tracked.
    pub track_modes: bool,
    /// Whether the energy trace is recorded.
    pub record_energy: bool,
}

impl StateBinding {
    /// First mismatch between this (checkpoint-side) binding and the
    /// binding of the spec being resumed, as a human-readable reason;
    /// `Ok` when every field agrees.
    ///
    /// # Errors
    ///
    /// A string naming the first differing field, checkpoint value
    /// first.
    pub fn matches(&self, spec: &StateBinding) -> Result<(), String> {
        macro_rules! check {
            ($field:ident) => {
                if self.$field != spec.$field {
                    return Err(format!(
                        "checkpoint {} {:?} does not match spec {} {:?}",
                        stringify!($field),
                        self.$field,
                        stringify!($field),
                        spec.$field,
                    ));
                }
            };
        }
        check!(sites);
        check!(width);
        check!(height);
        check!(labels);
        check!(iterations);
        check!(burn_in);
        check!(threads);
        check!(seed);
        check!(fingerprint);
        check!(kernel);
        check!(track_modes);
        check!(record_energy);
        Ok(())
    }
}

/// The fault runtime's persisted record: everything `FaultRuntime`
/// cannot recompute from the spec's plan and policy alone.
///
/// Baselines are *not* here — they are re-probed from the pristine
/// kernel at restore, before any persisted fault is re-injected, which
/// reproduces exactly what `FaultRuntime::new` captured at the original
/// admission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultState {
    /// Plan events with index `< cursor` have been injected.
    pub cursor: usize,
    /// Per-unit quarantine mask.
    pub quarantined: Vec<bool>,
    /// Set once the pool collapsed below the floor and the job failed
    /// over to the exact backend.
    pub degraded: Option<Degraded>,
    /// Set once the pool collapsed with no fallback (the job was being
    /// failed when the checkpoint was cut; restore refuses it).
    pub poisoned: bool,
}

/// Everything needed to continue a job bit-identically from a sweep
/// boundary, plus the [`StateBinding`] tying it to its spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobState {
    /// The spec facts this state was captured under.
    pub binding: StateBinding,
    /// The first sweep the resumed job runs; sweeps `0..next_sweep` are
    /// already reflected in every field below.
    pub next_sweep: usize,
    /// Label plane, one raw label value per site.
    pub labels: Vec<u8>,
    /// Total energy after each completed sweep (empty when the spec does
    /// not record energy).
    pub energy_trace: Vec<f64>,
    /// Mode histograms, `site * labels + label`, when tracked.
    pub histograms: Option<Vec<u32>>,
    /// Per-unit device faults exported from the kernel; empty for
    /// kernels without addressable units (exact software samplers).
    pub kernel_faults: Vec<Option<UnitFault>>,
    /// Fault-runtime record, present exactly when the job carries a
    /// fault plan or health policy.
    pub fault: Option<FaultState>,
    /// The diagnostics sink's exported state, opaque to the engine.
    pub sink_state: Option<SinkState>,
}

/// Where the engine hands captured [`JobState`]s.
///
/// Implementations (the `mogs-ckpt` store) own serialization and
/// durability. The engine calls [`write`](Self::write) on a worker, one
/// job's states in sweep order, the next only after the last returned.
/// A write failure is reported but must not fail the job: the engine
/// treats it as "this boundary produced no checkpoint" and keeps
/// sweeping. A panicking write is a panicking chunk: its phase is
/// retried, and the state is not written.
pub trait CheckpointWriter: Send + Sync {
    /// Persists one captured state.
    ///
    /// # Errors
    ///
    /// A human-readable reason; the engine drops it on the floor beyond
    /// not counting the write.
    fn write(&self, state: &JobState) -> Result<(), String>;
}

/// A state captured at a checkpointing sweep boundary, on its way to
/// the worker that writes it.
pub(crate) struct Capture {
    /// The job's state at the boundary.
    pub(crate) state: JobState,
    /// The job's writer.
    pub(crate) writer: Arc<dyn CheckpointWriter>,
    /// When the boundary began the capture.
    pub(crate) started: Instant,
}

/// A checkpoint request attached to an
/// [`InferenceJob`](crate::InferenceJob): the policy saying *when* plus
/// the writer saying *where*.
#[derive(Clone)]
pub struct CheckpointSpec {
    /// When to capture.
    pub policy: CheckpointPolicy,
    /// Where captures go.
    pub writer: Arc<dyn CheckpointWriter>,
}

impl std::fmt::Debug for CheckpointSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSpec")
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding() -> StateBinding {
        StateBinding {
            sites: 12,
            width: 4,
            height: 3,
            labels: 3,
            iterations: 10,
            burn_in: 2,
            threads: 2,
            seed: 7,
            fingerprint: 0xDEAD_BEEF,
            kernel: "softmax-gibbs".to_string(),
            track_modes: true,
            record_energy: true,
        }
    }

    #[test]
    fn matching_bindings_agree() {
        assert!(binding().matches(&binding()).is_ok());
    }

    #[test]
    fn first_mismatch_is_named() {
        let mut other = binding();
        other.fingerprint = 1;
        let reason = binding().matches(&other).expect_err("must mismatch");
        assert!(reason.contains("fingerprint"), "reason: {reason}");
        let mut other = binding();
        other.seed = 8;
        let reason = binding().matches(&other).expect_err("must mismatch");
        assert!(reason.contains("seed"), "reason: {reason}");
    }

    #[test]
    fn default_policy_captures_nothing() {
        let policy = CheckpointPolicy::default();
        assert_eq!(policy.every_sweeps, 0);
        assert!(!policy.on_early_stop);
        assert_eq!(CheckpointPolicy::every(5).every_sweeps, 5);
    }
}
