//! Shard-scoped job execution for the `mogs-fleet` multi-process
//! runtime.
//!
//! A fleet worker process owns a *shard* of one job: a subset of the
//! job's deterministic `(group, chunk)` cells, with their original
//! global indices. [`ShardRunner`] holds the same type-erased job the
//! engine's scheduler drives — same admission (certificate-verified
//! schedule), same neighbour tables, same hot chunk loop — but exposes
//! phase execution one group at a time, restricted to the owned chunks,
//! plus label import/export at color-phase boundaries for the halo
//! exchange.
//!
//! # Why chunks, not sites
//!
//! The engine's chunk RNG stream is seeded per `(seed, sweep, group,
//! chunk)` and consumed in the chunk's site order. A partition that cut
//! groups at arbitrary site boundaries would renumber chunks and change
//! every draw. Shards are therefore unions of whole chunks under the
//! reference split (`len.div_ceil(threads).max(1)` sites per chunk);
//! a worker running chunk `(g, c)` reproduces, bit for bit, what any
//! engine worker would have produced for that cell — provided its plane
//! holds the right neighbour labels, which is exactly what the halo
//! protocol maintains between phases.
//!
//! # Safety
//!
//! The runner is single-owner: all plane access goes through `&mut self`
//! (or `&self` methods that only read), so the `unsafe` plane operations
//! cannot race — there is no second thread. The cross-*process* phase
//! discipline (no two neighbouring sites sampled in one phase anywhere
//! in the fleet) is the coordinator's obligation, proved by the same
//! schedule certificate that admits the job here plus the sharding
//! obligations of `mogs_audit::sharding`.

use mogs_audit::ScheduleCertificate;
use mogs_gibbs::kernel::{KernelArena, SweepKernel};
use mogs_mrf::energy::SingletonPotential;
use mogs_mrf::{Label, Topology};

use crate::error::EngineError;
use crate::job::InferenceJob;
use crate::runner::{ErasedJob, TypedJob};

/// The number of chunks the engine splits a group of `group_len` sites
/// into for a job with `threads` deterministic chunks. Exposed so the
/// fleet partitioner computes cell indices with the exact reference
/// arithmetic (an off-by-one here would silently reseed every stream).
#[must_use]
pub fn chunk_count(group_len: usize, threads: usize) -> usize {
    if group_len == 0 {
        return 0;
    }
    let size = group_len.div_ceil(threads).max(1);
    group_len.div_ceil(size)
}

/// One job shard, executable phase by phase in a worker process.
///
/// Two steps, so a fleet pays admission once per process: construction
/// runs engine admission (label-space check, then the shape's shared
/// schedule and neighbour tables, coloured and verified on the shape's
/// first admission in the process) and seats the plane; then
/// [`pin`](Self::pin) selects the owned `(group, chunk)` cells — and
/// may be called again, which is how an adopting worker takes on a
/// second shard without re-admitting the job. An unpinned runner owns
/// nothing: it phases no chunks but prices whole planes in place
/// ([`price`](Self::price), the fleet coordinator's mirror). The spec
/// must be *plain*: sinks, fault plans, health policies, and checkpoint
/// writers are sweep-boundary machinery owned by the fleet coordinator,
/// not by shards, and are rejected at construction.
pub struct ShardRunner {
    job: Box<dyn ErasedJob>,
    /// Owned chunk ids per group, sorted ascending.
    owned: Vec<Vec<usize>>,
    arena: KernelArena,
}

impl ShardRunner {
    /// Admits `spec` and, unless `chunks` is empty, [`pin`](Self::pin)s
    /// the shard to them.
    ///
    /// # Errors
    ///
    /// Everything [`Engine::submit`](crate::Engine::submit) admission
    /// reports, everything [`pin`](Self::pin) reports, plus
    /// [`EngineError::InvalidSpec`] (field `"spec"`) when an otherwise
    /// admissible spec carries a sink, fault plan, health policy, or
    /// checkpoint writer.
    pub fn try_new<S, L>(
        job: InferenceJob<S, L>,
        chunks: &[(usize, usize)],
    ) -> Result<Self, EngineError>
    where
        S: SingletonPotential + 'static,
        L: SweepKernel + Clone + Send + Sync + 'static,
    {
        let decorated = job.sink.is_some()
            || job.fault_plan.is_some()
            || job.health.is_some()
            || job.checkpoint.is_some();
        // Admission first, so a malformed spec is refused exactly as
        // every other door refuses it.
        let (job, _) = TypedJob::try_new(job, None)?;
        if decorated {
            return Err(EngineError::InvalidSpec {
                field: "spec",
                reason: "shard specs must be plain: sinks, fault plans, health policies, and \
                         checkpoints belong to the fleet coordinator"
                    .to_string(),
            });
        }
        let mut runner = ShardRunner {
            owned: vec![Vec::new(); job.group_count()],
            job: Box::new(job),
            arena: KernelArena::new(),
        };
        if !chunks.is_empty() {
            runner.pin(chunks)?;
        }
        Ok(runner)
    }

    /// Pins the shard to `chunks` (global `(group, chunk)` cells; order
    /// and duplicates are normalized), replacing whatever it owned. The
    /// plane is untouched: a re-pinned shard seats its new boundary.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] (field `"shard"`) for an
    /// out-of-range or empty cell list; the old pinning is kept.
    pub fn pin(&mut self, chunks: &[(usize, usize)]) -> Result<(), EngineError> {
        let invalid = |reason: String| EngineError::InvalidSpec {
            field: "shard",
            reason,
        };
        let mut owned = vec![Vec::new(); self.group_count()];
        for &(group, chunk) in chunks {
            if group >= self.group_count() || chunk >= self.chunks_in_group(group) {
                return Err(invalid(format!(
                    "cell ({group}, {chunk}) is outside the job's phase decomposition"
                )));
            }
            owned[group].push(chunk);
        }
        for list in &mut owned {
            list.sort_unstable();
            list.dedup();
        }
        if owned.iter().all(Vec::is_empty) {
            return Err(invalid("a shard must own at least one chunk".to_string()));
        }
        self.owned = owned;
        Ok(())
    }

    /// The interference topology the job was admitted under — the graph
    /// the fleet partitions and audits halos against.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.job.admission().topology
    }

    /// The schedule certificate admission verified against
    /// [`topology`](Self::topology).
    #[must_use]
    pub fn certificate(&self) -> &ScheduleCertificate {
        &self.job.admission().certificate
    }

    /// Number of color groups per sweep.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.job.group_count()
    }

    /// Number of chunks in one group under the reference split.
    #[must_use]
    pub fn chunks_in_group(&self, group: usize) -> usize {
        self.job.chunks_in_group(group)
    }

    /// Total sites in the job's plane (not just this shard).
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.job.site_count()
    }

    /// Labels in the job's label space.
    #[must_use]
    pub fn label_count(&self) -> usize {
        self.job.label_count()
    }

    /// The owned sites of one group, in chunk order (the order their
    /// draws consume the chunk RNG streams). This is the shard's export
    /// set for phase `group`: after [`run_phase`](Self::run_phase) these
    /// are exactly the sites whose labels changed hands.
    #[must_use]
    pub fn owned_sites(&self, group: usize) -> Vec<usize> {
        self.owned[group]
            .iter()
            .flat_map(|&chunk| self.job.chunk_sites(group, chunk).iter().copied())
            .collect()
    }

    /// The sites of one `(group, chunk)` cell under the reference split
    /// — owned or not. The fleet partitioner weighs and assigns cells
    /// through this exact arithmetic, so its shards can never disagree
    /// with the chunks [`run_phase`](Self::run_phase) walks.
    ///
    /// # Panics
    ///
    /// Panics if `group` or `chunk` is outside the decomposition.
    #[must_use]
    pub fn cell_sites(&self, group: usize, chunk: usize) -> &[usize] {
        assert!(
            group < self.group_count() && chunk < self.chunks_in_group(group),
            "cell ({group}, {chunk}) outside the decomposition"
        );
        self.job.chunk_sites(group, chunk)
    }

    /// Total field energy of a full raw plane (one label per site) —
    /// what the engine appends to the energy trace at each sweep
    /// boundary, from the same tables and bit for bit the field's
    /// `total_energy`. The fleet coordinator prices its mirror in place.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] (field `"plane"`) on a length or
    /// label-range mismatch, as [`seat`](Self::seat) reports it.
    pub fn price(&self, labels: &[u8]) -> Result<f64, EngineError> {
        self.check_plane(labels)?;
        Ok(self.job.price(labels))
    }

    /// Runs the owned chunks of `group` for sweep `iteration`, in
    /// ascending chunk order, through the engine's hot chunk loop.
    /// Draws are bit-identical to the full engine's for the same cells.
    pub fn run_phase(&mut self, iteration: usize, group: usize) {
        // Split borrows: the arena is scratch, the job is the phase.
        let arena = &mut self.arena;
        for &chunk in &self.owned[group] {
            self.job.run_chunk(iteration, group, chunk, arena);
        }
    }

    /// Seats a full plane (one raw label per site) — the boundary state
    /// a migrated or restarted shard resumes from.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] (field `"plane"`) on a length or
    /// label-range mismatch; the plane is untouched on error.
    pub fn seat(&mut self, labels: &[u8]) -> Result<(), EngineError> {
        self.check_plane(labels)?;
        let plane = self.job.plane();
        for (site, &value) in labels.iter().enumerate() {
            // SAFETY: `&mut self` — no other thread can touch the plane.
            unsafe { plane.write(site, Label::new(value)) };
        }
        Ok(())
    }

    /// Refuses a plane with a label count other than the site count or a
    /// label outside the space.
    fn check_plane(&self, labels: &[u8]) -> Result<(), EngineError> {
        let invalid = |reason: String| EngineError::InvalidSpec {
            field: "plane",
            reason,
        };
        if labels.len() != self.site_count() {
            return Err(invalid(format!(
                "plane has {} labels, the job has {} sites",
                labels.len(),
                self.site_count()
            )));
        }
        let m = self.label_count();
        if let Some(&bad) = labels.iter().find(|&&v| usize::from(v) >= m) {
            return Err(invalid(format!(
                "label {bad} is outside the job's {m}-label space"
            )));
        }
        Ok(())
    }

    /// Applies halo (or replay) updates: labels sampled by *other*
    /// shards this sweep, imported so the next phase's gathers read
    /// them. Sites this shard owns may appear (replay streams include
    /// them harmlessly); values are validated, positions trusted to the
    /// coordinator's audited partition.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] (field `"halo"`) for a site outside
    /// the plane or a label outside the space. Updates before the
    /// offending entry are already applied.
    pub fn apply_updates(&mut self, updates: &[(usize, u8)]) -> Result<(), EngineError> {
        let sites = self.site_count();
        let m = self.label_count();
        let plane = self.job.plane();
        for &(site, value) in updates {
            if site >= sites || usize::from(value) >= m {
                return Err(EngineError::InvalidSpec {
                    field: "halo",
                    reason: format!(
                        "update ({site}, {value}) is outside the plane ({sites} sites, {m} labels)"
                    ),
                });
            }
            // SAFETY: `&mut self` — no other thread can touch the plane.
            unsafe { plane.write(site, Label::new(value)) };
        }
        Ok(())
    }

    /// Reads the current labels of `sites` (the phase export path).
    ///
    /// # Panics
    ///
    /// Panics if a site is outside the plane — export sets come from
    /// [`owned_sites`](Self::owned_sites), so this is a runner bug, not
    /// an input error.
    #[must_use]
    pub fn read_labels(&self, sites: &[usize]) -> Vec<u8> {
        let (count, plane) = (self.site_count(), self.job.plane());
        sites
            .iter()
            .map(|&site| {
                assert!(site < count, "site {site} outside the plane");
                // SAFETY: `&self` with single ownership — reads cannot
                // race; the one writer path takes `&mut self`.
                unsafe { plane.read(site) }.value()
            })
            .collect()
    }

    /// Copies the whole plane out as raw labels.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        // SAFETY: `&self` with single ownership — quiescent by
        // construction.
        unsafe { self.job.plane().snapshot() }
            .iter()
            .map(|label| label.value())
            .collect()
    }
}

impl std::fmt::Debug for ShardRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRunner")
            .field("owned", &self.owned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_gibbs::SoftmaxGibbs;
    use mogs_mrf::{Grid2D, LabelSpace, MarkovRandomField, SmoothnessPrior};

    fn spec(threads: usize) -> InferenceJob<impl SingletonPotential + 'static, SoftmaxGibbs> {
        let mrf = MarkovRandomField::builder(Grid2D::new(6, 4), LabelSpace::scalar(3))
            .prior(SmoothnessPrior::potts(0.7))
            .singleton(|site: usize, label: Label| {
                ((site * 5 + usize::from(label.value())) % 7) as f64 * 0.21
            })
            .build();
        InferenceJob::new(mrf, SoftmaxGibbs::new())
            .iterations(6)
            .threads(threads)
            .seed(0xF1EE7)
            .build()
            .expect("spec is well-formed")
    }

    fn all_cells(runner: &ShardRunner) -> Vec<(usize, usize)> {
        (0..runner.group_count())
            .flat_map(|g| (0..runner.chunks_in_group(g)).map(move |c| (g, c)))
            .collect()
    }

    #[test]
    fn chunk_count_matches_typed_job_arithmetic() {
        let probe = ShardRunner::try_new(spec(3), &[(0, 0)]).expect("admits");
        for g in 0..probe.group_count() {
            // Reconstruct the group length from the runner's own split and
            // cross-check the free helper against the trait arithmetic.
            let group_len: usize = (0..probe.chunks_in_group(g))
                .map(|c| probe.job.chunk_sites(g, c).len())
                .sum();
            assert_eq!(chunk_count(group_len, 3), probe.chunks_in_group(g));
        }
        assert_eq!(chunk_count(0, 3), 0);
        assert_eq!(chunk_count(7, 3), 3);
        assert_eq!(chunk_count(7, 100), 7);
    }

    #[test]
    fn single_shard_run_matches_engine_output() {
        let reference = {
            let engine = crate::Engine::with_default_config();
            let out = engine.submit(spec(3)).expect("admits").wait();
            engine.shutdown();
            out
        };
        let probe = ShardRunner::try_new(spec(3), &[(0, 0)]).expect("admits");
        let cells = all_cells(&probe);
        let mut runner = ShardRunner::try_new(spec(3), &cells).expect("admits");
        for sweep in 0..6 {
            for group in 0..runner.group_count() {
                runner.run_phase(sweep, group);
            }
        }
        let labels: Vec<u8> = reference.labels.iter().map(|l| l.value()).collect();
        assert_eq!(
            runner.snapshot(),
            labels,
            "single shard must be bit-identical"
        );
    }

    #[test]
    fn two_shards_with_halo_exchange_match_engine_output() {
        let reference = {
            let engine = crate::Engine::with_default_config();
            let out = engine.submit(spec(3)).expect("admits").wait();
            engine.shutdown();
            out
        };
        let probe = ShardRunner::try_new(spec(3), &[(0, 0)]).expect("admits");
        let cells = all_cells(&probe);
        // Alternate cells between two shards — deliberately unbalanced
        // against grid geometry to stress the halo path.
        let (a_cells, b_cells): (Vec<_>, Vec<_>) =
            cells.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let a_cells: Vec<_> = a_cells.into_iter().map(|(_, &c)| c).collect();
        let b_cells: Vec<_> = b_cells.into_iter().map(|(_, &c)| c).collect();
        let mut a = ShardRunner::try_new(spec(3), &a_cells).expect("admits");
        let mut b = ShardRunner::try_new(spec(3), &b_cells).expect("admits");
        for sweep in 0..6 {
            for group in 0..a.group_count() {
                a.run_phase(sweep, group);
                b.run_phase(sweep, group);
                // Full halo exchange: each shard imports the other's
                // exports for this phase.
                let a_sites = a.owned_sites(group);
                let a_updates: Vec<(usize, u8)> = a_sites
                    .iter()
                    .copied()
                    .zip(a.read_labels(&a_sites))
                    .collect();
                let b_sites = b.owned_sites(group);
                let b_updates: Vec<(usize, u8)> = b_sites
                    .iter()
                    .copied()
                    .zip(b.read_labels(&b_sites))
                    .collect();
                a.apply_updates(&b_updates).expect("valid updates");
                b.apply_updates(&a_updates).expect("valid updates");
            }
        }
        let labels: Vec<u8> = reference.labels.iter().map(|l| l.value()).collect();
        assert_eq!(
            a.snapshot(),
            labels,
            "shard A plane must converge to reference"
        );
        assert_eq!(
            b.snapshot(),
            labels,
            "shard B plane must converge to reference"
        );
    }

    #[test]
    fn decorated_specs_are_rejected() {
        let mrf = MarkovRandomField::builder(Grid2D::new(4, 4), LabelSpace::scalar(2))
            .prior(SmoothnessPrior::potts(0.5))
            .singleton(|_s: usize, _l: Label| 0.0)
            .build();
        let decorated = InferenceJob::new(mrf, SoftmaxGibbs::new())
            .sink(std::sync::Arc::new(crate::sink::NullSink))
            .build()
            .expect("builds");
        let err = ShardRunner::try_new(decorated, &[(0, 0)]).expect_err("must reject");
        let EngineError::InvalidSpec { field, .. } = err else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(field, "spec");
    }

    #[test]
    fn out_of_range_cells_and_inputs_are_rejected() {
        let err = ShardRunner::try_new(spec(3), &[(99, 0)]).expect_err("bad group");
        assert_eq!(err.variant(), "invalid-spec");
        let mut runner = ShardRunner::try_new(spec(3), &[]).expect("admits unpinned");
        assert!(
            runner.owned_sites(0).is_empty(),
            "an unpinned runner owns nothing"
        );
        let err = runner.pin(&[]).expect_err("empty shard");
        assert_eq!(err.variant(), "invalid-spec");
        let err = runner.pin(&[(0, 99)]).expect_err("bad chunk");
        assert_eq!(err.variant(), "invalid-spec");
        runner.pin(&[(0, 0)]).expect("pins");
        assert!(runner.seat(&[0u8; 3]).is_err(), "short plane");
        assert!(runner.seat(&[9u8; 24]).is_err(), "label outside space");
        assert!(runner.apply_updates(&[(999, 0)]).is_err(), "site outside");
        assert!(runner.apply_updates(&[(0, 9)]).is_err(), "label outside");
        let plane = vec![1u8; 24];
        runner.seat(&plane).expect("valid plane");
        assert_eq!(runner.snapshot(), plane);
    }

    #[test]
    fn admission_carries_the_fields_own_topology() {
        // A second-order field: the diagonals must be in the topology the
        // certificate was proved against, not just in the gather tables.
        let grid = Grid2D::new(7, 5);
        let mrf = MarkovRandomField::builder(grid, LabelSpace::scalar(3))
            .neighborhood(mogs_mrf::Neighborhood::SecondOrder)
            .prior(SmoothnessPrior::potts(0.7))
            .singleton(|_s: usize, _l: Label| 0.0)
            .build();
        let neighborhood = mrf.neighborhood();
        let job = InferenceJob::new(mrf, SoftmaxGibbs::new())
            .threads(2)
            .build()
            .expect("builds");
        let runner = ShardRunner::try_new(job, &[]).expect("admits");
        let expected = Topology::from_grid(grid, neighborhood);
        assert_eq!(runner.topology(), &expected);
        assert_eq!(runner.topology().fingerprint(), expected.fingerprint());
        assert_eq!(runner.certificate().fingerprint(), expected.fingerprint());
        assert_eq!(runner.group_count(), 4, "second order is 4-colored");
    }

    #[test]
    fn repinning_matches_a_fresh_shard() {
        let probe = ShardRunner::try_new(spec(3), &[]).expect("admits");
        let cells = all_cells(&probe);
        let (first, rest) = cells.split_at(1);
        let mut runner = ShardRunner::try_new(spec(3), first).expect("admits");
        runner.run_phase(0, 0);
        // Adopt the rest: re-pin, seat the pristine plane, run again.
        runner.pin(&cells).expect("re-pins");
        runner.seat(&probe.snapshot()).expect("seats");
        let mut fresh = ShardRunner::try_new(spec(3), rest).expect("admits");
        fresh.pin(&cells).expect("pins");
        for sweep in 0..3 {
            for group in 0..runner.group_count() {
                runner.run_phase(sweep, group);
                fresh.run_phase(sweep, group);
            }
        }
        assert_eq!(runner.snapshot(), fresh.snapshot());
        let price = |r: &ShardRunner| r.price(&r.snapshot()).expect("own plane fits");
        assert_eq!(price(&runner).to_bits(), price(&fresh).to_bits());
    }
}
