//! The sweep-boundary observer contract for streaming diagnostics.
//!
//! A [`DiagSink`] attached to an [`InferenceJob`](crate::InferenceJob)
//! is called once per completed sweep, by the worker that drained the
//! sweep's last phase, at the same quiescent point where the energy
//! trace and mode histograms are updated. The contract is built for
//! bounded overhead:
//!
//! - the sink declares up front, via [`DiagSink::needs`], whether it
//!   wants the sweep energy and how often (if ever) it wants a label
//!   snapshot — the engine computes neither unless something asks;
//! - label snapshots are served from a buffer preallocated at job
//!   admission, so observation allocates nothing on the sweep path;
//! - the observation runs between phases, never inside the chunk hot
//!   loop.
//!
//! The sink's return value is how early stopping reaches the engine:
//! [`SweepDecision::Stop`] makes the engine set the job's shared
//! cancellation flag — the *existing* cancellation path, honoured at the
//! next phase boundary — and mark the output
//! [`early_stopped`](crate::JobOutput::early_stopped) so callers can
//! tell a convergence stop from a user cancel.
//!
//! [`NullSink`] is the do-nothing implementation used to measure the
//! observer plumbing itself; it must benchmark within noise of a job
//! with no sink at all (`repro diag-overhead` checks this).

use mogs_mrf::Label;

/// What a sink asks the engine to compute before each observation.
///
/// Declared once per job (cached at admission); the engine skips the
/// label-plane snapshot and the energy pass entirely when no
/// consumer needs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkNeeds {
    /// Compute the post-sweep total energy and pass it to `on_sweep`.
    pub energy: bool,
    /// Pass a label snapshot every this-many sweeps (`0` = never).
    /// Sweep `i` carries labels when `i % labels_stride == 0`.
    pub labels_stride: usize,
}

impl SinkNeeds {
    /// Requests nothing: the sink is called with an empty observation.
    pub const fn none() -> Self {
        SinkNeeds {
            energy: false,
            labels_stride: 0,
        }
    }

    /// Requests the sweep energy only.
    pub const fn energy_only() -> Self {
        SinkNeeds {
            energy: true,
            labels_stride: 0,
        }
    }
}

/// Immutable facts about a job, delivered once before its first sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStartInfo {
    /// Sites in the grid.
    pub sites: usize,
    /// Grid width (sites per row), for map-shaped consumers.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Labels in the job's label space.
    pub labels: usize,
    /// The job's full sweep budget.
    pub iterations: usize,
    /// Sweeps the job's own bookkeeping discards before mode tracking.
    pub burn_in: usize,
}

/// One per-sweep observation, served at the post-sweep quiescent point.
#[derive(Debug)]
pub struct SweepObservation<'a> {
    /// Zero-based index of the sweep that just completed.
    pub iteration: usize,
    /// Post-sweep total energy, when the sink's needs include it.
    pub energy: Option<f64>,
    /// Post-sweep labeling, on the sink's declared stride. Borrowed from
    /// the job's preallocated snapshot buffer — copy out what you keep.
    pub labels: Option<&'a [Label]>,
}

/// What the engine should do with the job after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDecision {
    /// Keep sweeping.
    Continue,
    /// Stop the job at this sweep boundary: the engine raises the
    /// job's shared cancellation flag and the output is finalized with
    /// `early_stopped = true`.
    Stop,
}

/// A streaming observer of one job's sweeps.
///
/// Implementations must be `Send + Sync`: observations arrive from the
/// worker that drains each sweep's last phase while the owner of the
/// sink may inspect it from another thread, so interior state wants a
/// lock or atomics. Calls are never concurrent *per job* (the job's
/// phase lock serializes sweep boundaries), but one sink value may be
/// shared across jobs. A slow `on_sweep` stalls only its own job.
pub trait DiagSink: Send + Sync {
    /// What to compute before each observation. Read once at admission.
    fn needs(&self) -> SinkNeeds {
        SinkNeeds::none()
    }

    /// Called once at admission, before the first sweep.
    fn on_start(&self, info: &JobStartInfo) {
        let _ = info;
    }

    /// Called after every completed sweep. Returning
    /// [`SweepDecision::Stop`] ends the job through the cancellation
    /// path with `early_stopped` set.
    fn on_sweep(&self, observation: &SweepObservation<'_>) -> SweepDecision {
        let _ = observation;
        SweepDecision::Continue
    }

    /// Called once with the finalized output (completed, early-stopped,
    /// or cancelled).
    fn on_finish(&self, output: &crate::JobOutput) {
        let _ = output;
    }

    /// Exports the sink's accumulated state for a checkpoint, as a
    /// [`SinkState`] the engine stores verbatim. Called at the same
    /// quiescent sweep boundary as `on_sweep`. The default — for sinks
    /// with no state worth persisting — returns `None`, and restore
    /// never calls `restore_state` for such checkpoints.
    fn export_state(&self) -> Option<SinkState> {
        None
    }

    /// Re-seats state previously returned by
    /// [`export_state`](DiagSink::export_state), called once at resume
    /// right after `on_start`. The default rejects: a checkpoint that
    /// carries sink state must not silently lose it under a sink that
    /// cannot take it back.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the state cannot be re-seated; the
    /// engine fails the resume with it rather than continuing with
    /// diverged diagnostics.
    fn restore_state(&self, state: &SinkState) -> Result<(), String> {
        let _ = state;
        Err("this sink does not support checkpoint restore".to_string())
    }
}

/// A sink's checkpointed state: three raw vectors whose layout belongs
/// to the sink (which checks it by position on restore), and which the
/// checkpoint codec writes as raw little-endian sections. Every `f64`
/// travels as its bit pattern, so a restore is bit-exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SinkState {
    /// Scalars and counters, a version word first by convention.
    pub words: Vec<u64>,
    /// Floating-point samples (an energy window, say).
    pub samples: Vec<f64>,
    /// Small counts (per-site label tallies, say).
    pub counts: Vec<u32>,
}

/// The do-nothing sink: every hook is a default no-op and
/// [`DiagSink::needs`] requests nothing. Exists to measure the observer
/// plumbing — a job with a `NullSink` must run within noise of a job
/// with no sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl DiagSink for NullSink {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_requests_nothing_and_continues() {
        let sink = NullSink;
        assert_eq!(sink.needs(), SinkNeeds::none());
        let obs = SweepObservation {
            iteration: 0,
            energy: None,
            labels: None,
        };
        assert_eq!(sink.on_sweep(&obs), SweepDecision::Continue);
    }

    #[test]
    fn needs_constructors() {
        assert!(!SinkNeeds::none().energy);
        assert_eq!(SinkNeeds::none().labels_stride, 0);
        assert!(SinkNeeds::energy_only().energy);
    }
}
