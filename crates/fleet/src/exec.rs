//! Shard construction from a fleet spec.
//!
//! The engine's job pipeline is generic over the singleton potential and
//! the sweep kernel; the fleet's wire protocol is not. This module is
//! the seam: [`build_shard`] turns a [`JobDescription`] plus a cell
//! list into a [`ShardRunner`] — the engine's one type-erased job, driven
//! identically by the worker loop and the coordinator's mirror — and
//! [`FleetStructure`] captures the job's phase decomposition (groups,
//! chunks, and the topology and certificate admission proved) so the
//! partitioner and the sharding audit agree with the engine about every
//! cell boundary.

use std::convert::Infallible;
use std::sync::Arc;

use mogs_audit::ScheduleCertificate;
use mogs_engine::{
    BackendSampler, Engine, EngineError, InferenceJob, JobHandle, JobOutput, Memo, ShardRunner,
};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Grid2D, Topology};
use mogs_vision::job::{stereo_field, JobDescription, JobVisitor, StereoScene};
use mogs_vision::stereo::StereoMatching;

use crate::error::FleetResult;
use crate::partition::{partition, Partition};

/// Entries each of this process's bring-up caches (scenes, partitions)
/// holds, oldest evicted first. A scene keeps its singleton table (2 MB
/// at 256×192, at most 32 MiB); four cover the scenes one coordinator runs.
pub const BRING_UP_CACHE_ENTRIES: usize = 4;

/// A synthetic scene's inputs: width, height, disparity, `noise_sigma`
/// bits and scene seed.
type Scene = (usize, usize, u8, u64, u64);

/// Stereo scenes keyed by all five inputs.
static SCENES: Memo<Scene, StereoMatching> = Memo::new(BRING_UP_CACHE_ENTRIES);

/// The engine's admission-cache key of a job: `(grid, neighbourhood,
/// threads)`, which determines its topology, schedule and cells.
type Shape = (Grid2D, mogs_mrf::Neighborhood, usize);

/// Verified partitions by admission shape and shard count.
static PARTITIONS: Memo<(Shape, usize), Arc<Partition>> = Memo::new(BRING_UP_CACHE_ENTRIES);

/// The stereo field of a synthetic scene (paper §8.1). A scene this
/// process built before comes from its bring-up cache, as a clone that
/// shares the singleton table the first admission filled.
#[must_use]
pub fn stereo_scene(
    width: usize,
    height: usize,
    disparity: u8,
    noise_sigma: f64,
    scene_seed: u64,
) -> StereoMatching {
    let scene = (width, height, disparity, noise_sigma, scene_seed);
    let key = (width, height, disparity, noise_sigma.to_bits(), scene_seed);
    let Ok((app, _)) = SCENES.fetch(key, || Ok::<_, Infallible>(stereo_field(scene)));
    app
}

/// Admits a built job as a shard pinned to `cells`, taking a stereo
/// scene from the bring-up cache.
struct Admit<'a> {
    cells: &'a [(usize, usize)],
}

impl JobVisitor for Admit<'_> {
    type Output = FleetResult<(ShardRunner, Shape)>;

    fn stereo(
        &mut self,
        (width, height, disparity, noise_sigma, scene_seed): StereoScene,
    ) -> StereoMatching {
        stereo_scene(width, height, disparity, noise_sigma, scene_seed)
    }

    fn visit<S: SingletonPotential + 'static>(
        self,
        job: InferenceJob<S, BackendSampler>,
    ) -> Self::Output {
        let shape = (*job.mrf.grid(), job.mrf.neighborhood(), job.threads);
        Ok((ShardRunner::try_new(job, self.cells)?, shape))
    }
}

/// Submits a built job to an engine, its stereo field built fresh.
struct Submit<'a>(&'a Engine);

impl JobVisitor for Submit<'_> {
    type Output = Result<JobHandle, EngineError>;

    fn visit<S: SingletonPotential + 'static>(
        self,
        job: InferenceJob<S, BackendSampler>,
    ) -> Self::Output {
        self.0.submit(job)
    }
}

/// Admits `spec` and pins the shard to `cells` — unpinned when `cells`
/// is empty, as a worker's runner is until its first `Assign` and the
/// coordinator's mirror always is.
///
/// # Errors
///
/// [`FleetError::Spec`](crate::FleetError::Spec) when the spec is
/// invalid or engine admission rejects it (which covers out-of-range
/// cells too).
pub fn build_shard(spec: &JobDescription, cells: &[(usize, usize)]) -> FleetResult<ShardRunner> {
    Ok(admit(spec, cells)?.0)
}

/// [`build_shard`], plus the shape the engine admitted the job under.
fn admit(spec: &JobDescription, cells: &[(usize, usize)]) -> FleetResult<(ShardRunner, Shape)> {
    spec.build(Admit { cells })?
}

/// A coordinator's unpinned mirror of `spec`, its structure, and its
/// verified partition into `shards`, reused from an earlier job of this
/// process with the same admission shape and shard count.
///
/// # Errors
///
/// What [`build_shard`] and [`partition`] report.
pub fn bring_up(
    spec: &JobDescription,
    shards: usize,
) -> FleetResult<(ShardRunner, FleetStructure, Arc<Partition>)> {
    let (mirror, shape) = admit(spec, &[])?;
    let structure = FleetStructure::read(&mirror);
    let (partition, _) = PARTITIONS.fetch((shape, shards), || {
        partition(&structure, shards).map(Arc::new)
    })?;
    Ok((mirror, structure, partition))
}

/// Runs `spec` to completion on an in-process engine — the reference a
/// fleet run must be bit-identical to. Its stereo field is built fresh,
/// never taken from the bring-up cache the fleet's processes share.
///
/// # Errors
///
/// [`FleetError::Spec`](crate::FleetError::Spec) on admission failure
/// or an engine-side error.
pub fn run_in_process(spec: &JobDescription) -> FleetResult<JobOutput> {
    let engine = Engine::with_default_config();
    let output = spec.build(Submit(&engine))??.wait_result()?;
    engine.shutdown();
    Ok(output)
}

/// The job's phase decomposition, as both the engine and the audit see
/// it: the sparse interference topology, the schedule certificate the
/// engine admits the job under, and every `(group, chunk)` cell with
/// its sites in reference order.
pub struct FleetStructure {
    /// Sparse interference topology of the workload's grid.
    pub topology: Topology,
    /// The certificate shards are verified against.
    pub certificate: ScheduleCertificate,
    /// `cells[group][chunk]` — the sites of one cell, in the order their
    /// draws consume the chunk RNG stream.
    pub cells: Vec<Vec<Vec<usize>>>,
    /// Total sites in the plane.
    pub sites: usize,
    /// Labels in the label space.
    pub labels: usize,
}

impl FleetStructure {
    /// Admits `spec` and reads its structure off the admission.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`](crate::FleetError::Spec) on admission failure.
    pub fn of(spec: &JobDescription) -> FleetResult<Self> {
        Ok(FleetStructure::read(&build_shard(spec, &[])?))
    }

    /// The structure read off a runner's admission — the field's own
    /// topology and verified certificate, nothing re-proved.
    fn read(runner: &ShardRunner) -> Self {
        let cells = (0..runner.group_count())
            .map(|g| {
                (0..runner.chunks_in_group(g))
                    .map(|c| runner.cell_sites(g, c).to_vec())
                    .collect()
            })
            .collect();
        FleetStructure {
            topology: runner.topology().clone(),
            certificate: runner.certificate().clone(),
            cells,
            sites: runner.site_count(),
            labels: runner.label_count(),
        }
    }

    /// Number of color groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.cells.len()
    }

    /// Cells across all groups.
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_engine::Backend;
    use mogs_mrf::Neighborhood;
    use mogs_vision::job::Workload;
    use mogs_vision::stereo::StereoConfig;
    use mogs_vision::synthetic;

    fn demo_spec() -> JobDescription {
        JobDescription {
            workload: Workload::Demo {
                width: 8,
                height: 6,
                labels: 3,
            },
            backend: Backend::Softmax,
            iterations: 4,
            threads: 3,
            seed: 0xABCD,
            burn_in: 1,
        }
    }

    #[test]
    fn structure_matches_engine_decomposition() {
        let spec = demo_spec();
        let structure = FleetStructure::of(&spec).expect("structure derives");
        assert_eq!(structure.sites, 48);
        assert_eq!(structure.labels, 3);
        // First-order grid: 2-color checkerboard.
        assert_eq!(structure.group_count(), 2);
        let covered: usize = structure
            .cells
            .iter()
            .flat_map(|g| g.iter().map(Vec::len))
            .sum();
        assert_eq!(covered, 48, "cells must cover the plane exactly");
        assert_eq!(structure.certificate.sites(), 48);
        // The admission's own topology (the demo field is first order).
        let expected = Topology::from_grid(Grid2D::new(8, 6), Neighborhood::FirstOrder);
        assert_eq!(structure.topology, expected);
        assert_eq!(structure.certificate.fingerprint(), expected.fingerprint());
    }

    #[test]
    fn erased_shard_matches_reference_engine() {
        let spec = demo_spec();
        let structure = FleetStructure::of(&spec).expect("structure derives");
        let all_cells: Vec<(usize, usize)> = (0..structure.group_count())
            .flat_map(|g| (0..structure.cells[g].len()).map(move |c| (g, c)))
            .collect();
        let mut exec = build_shard(&spec, &all_cells).expect("shard admits");
        for sweep in 0..spec.iterations {
            for group in 0..exec.group_count() {
                exec.run_phase(sweep, group);
            }
        }
        let reference = run_in_process(&spec).expect("engine runs");
        let reference_labels: Vec<u8> = reference.labels.iter().map(|l| l.value()).collect();
        assert_eq!(
            exec.snapshot(),
            reference_labels,
            "erased path must stay bit-identical"
        );
        let last = reference.energy_trace.last().expect("trace recorded");
        let priced = exec.price(&exec.snapshot()).expect("own plane fits");
        assert_eq!(priced.to_bits(), last.to_bits());
    }

    #[test]
    fn demo_workload_is_the_crash_harness_field() {
        use mogs_ckpt::harness::{self, DEMO_BURN_IN, DEMO_LABELS, DEMO_SEED, DEMO_SWEEPS};
        use mogs_ckpt::harness::{DEMO_HEIGHT, DEMO_THREADS, DEMO_WIDTH};
        let spec = JobDescription {
            workload: Workload::Demo {
                width: DEMO_WIDTH,
                height: DEMO_HEIGHT,
                labels: DEMO_LABELS,
            },
            backend: Backend::Softmax,
            iterations: DEMO_SWEEPS,
            threads: DEMO_THREADS,
            seed: DEMO_SEED,
            burn_in: DEMO_BURN_IN,
        };
        let fleet = run_in_process(&spec).expect("engine runs");
        let crash = harness::run_one(harness::demo_spec(
            mogs_engine::Backend::Softmax,
            false,
            None,
            None,
        ));
        assert_eq!(fleet.labels, crash.labels);
        let bits = |trace: &[f64]| trace.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fleet.energy_trace), bits(&crash.energy_trace));
    }

    #[test]
    fn stereo_workload_builds_and_runs() {
        let spec = JobDescription {
            workload: Workload::Stereo {
                width: 12,
                height: 10,
                disparity: 2,
                noise_sigma: 2.0,
                scene_seed: 17,
            },
            backend: Backend::RsuG { replicas: 2 },
            iterations: 3,
            threads: 2,
            seed: 7,
            burn_in: 1,
        };
        let structure = FleetStructure::of(&spec).expect("structure derives");
        assert_eq!(structure.sites, 120);
        assert_eq!(structure.labels, 5);
        let scene = synthetic::stereo_pair(12, 10, 2, 2.0, 17);
        let app = StereoMatching::new(&scene.left, &scene.right, StereoConfig::default());
        let expected = Topology::from_grid(*app.mrf().grid(), app.mrf().neighborhood());
        assert_eq!(structure.topology.fingerprint(), expected.fingerprint());
        assert_eq!(structure.certificate.fingerprint(), expected.fingerprint());
        let out = run_in_process(&spec).expect("engine runs stereo");
        assert_eq!(out.iterations_run, 3);
        assert_eq!(out.energy_trace.len(), 3);
    }
}
