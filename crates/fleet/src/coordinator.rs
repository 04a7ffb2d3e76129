//! The fleet coordinator: phase-barriered multi-process sweeps with
//! shard migration on worker death and durable, resumable cuts.
//!
//! # Execution model
//!
//! The coordinator drives all workers through one color phase at a
//! time: `Phase` out, `PhaseDone` (every owned site of the group) back,
//! written into the coordinator's **mirror plane**, then each worker is
//! sent, as `Halo`, the labels of exactly the sites of that color in
//! its shards' audited `halo_in` sets — read from the mirror — so every
//! shard's plane holds the labels the next phase's gathers read.
//! Phases are barriers; sweeps are sequences of phases; the mirror
//! after phase `g` equals, bit for bit, the engine's plane at the same
//! point.
//!
//! Bring-up pays admission once per process, all in parallel: workers
//! admit their launch spec as they connect while the coordinator admits
//! its unpinned mirror, reusing a scene and a verified partition it
//! built before ([`bring_up`]). Every `Assign` (digest + cells) goes
//! out before any `AssignOk` is awaited.
//!
//! # The bit-identity argument
//!
//! Three facts compose:
//! 1. shards are unions of whole `(group, chunk)` cells, so every chunk
//!    RNG stream `(seed, sweep, group, chunk)` is consumed by exactly
//!    one worker with the reference arithmetic (`mogs_engine::shard`);
//! 2. the sharding audit proves halos carry *exactly* the cross-shard
//!    adjacency, so a shard's plane holds the same neighbour labels the
//!    engine's plane would at every phase boundary;
//! 3. migration re-pins a shard as a pure function of (boundary plane,
//!    phase replay log) — both already bit-exact, the log read off the
//!    mirror — and re-runs the interrupted phase from its own streams.
//!
//! Draws depend on nothing else, so kill-and-migrate cannot change a
//! single label. `tests/fleet_e2e.rs` checks this end to end.
//!
//! # Failure handling
//!
//! Liveness is observed two ways: a failed send and a missed `PhaseDone`
//! deadline ([`FleetConfig::rpc_deadline`]). Either condemns the worker:
//! its stream is never resynchronized, its shard is
//! migrated — to a respawned process ([`FleetConfig::respawn`]) or,
//! with no spare capacity, *adopted* by the least-loaded survivor and
//! the job finishes [`Degraded`]. Each migration spends one unit of
//! [`FleetConfig::max_migrations`]; exhaustion is a typed
//! [`FleetError::FleetCollapse`], never a hang.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mogs_ckpt::{verify_binding, Checkpoint, CheckpointStore};
use mogs_engine::ckpt::{JobState, StateBinding};
use mogs_engine::{Degraded, ShardRunner};
use mogs_gibbs::sampler::LabelSampler;
use mogs_vision::job::JobDescription;

use crate::error::{FleetError, FleetResult};
use crate::exec::{bring_up, FleetStructure};
use crate::partition::Partition;
use crate::spec::check_launch;
use crate::wire::{recv_to_coordinator, send_to_worker, Conn, ToCoordinator, ToWorker, Traffic};
use crate::worker::{worker_main, SPEC_ENV, WORKER_ENV};

/// Checkpoint key of the coordinator's whole-plane state — the one
/// durable record of a fleet job.
pub const COORD_KEY: &str = "fleet-coord";

/// Retries of a worker's spawn-and-connect before its slot gives up.
const SPAWN_RETRIES: u32 = 5;

/// The first pause between spawn retries; each retry doubles it.
const SPAWN_BACKOFF: Duration = Duration::from_millis(50);

/// How worker processes are brought up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Launcher {
    /// Spawn this binary with the coordinator address as `argv[1]` and
    /// the spec as `argv[2]` (the `fleet-worker` helper, or anything
    /// speaking the protocol).
    Program(PathBuf),
    /// Re-exec the current executable with [`WORKER_ENV`] and
    /// [`SPEC_ENV`] set; the binary must call
    /// [`crate::maybe_run_worker`] first thing.
    SelfExec,
    /// A thread in this process speaking the same protocol over a real
    /// socket. No process isolation — chaos kills are unsupported.
    InProcess,
}

/// Which socket family carries the control plane. Loopback TCP is the
/// only one; the type and [`FleetConfig::transport`] remain because the
/// benchmark still assigns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Loopback TCP.
    Tcp,
}

/// One scripted worker kill, executed by the coordinator immediately
/// before dispatching `Phase{sweep, group}` — a death that surfaces in
/// that phase, deterministically, for the kill-ladder tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillAt {
    /// Sweep index of the kill.
    pub sweep: usize,
    /// Color group whose dispatch triggers it.
    pub group: usize,
    /// Slot index to SIGKILL.
    pub worker: usize,
}

/// Deterministic fault schedule for robustness tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Scripted kills.
    pub kills: Vec<KillAt>,
}

/// Durable checkpointing of the coordinator's sweep boundaries: each
/// cut is one whole-plane file under [`COORD_KEY`], read back only by a
/// restarted coordinator ([`FleetConfig::resume`]). Migration never
/// reads the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCheckpoint {
    /// Store directory.
    pub dir: PathBuf,
    /// Cut every `n` completed sweeps (0 disables periodic cuts).
    pub every_sweeps: usize,
    /// Cuts kept: older ones are deleted after each save.
    pub retain: usize,
}

/// Coordinator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker processes at launch (and shards in the partition).
    pub workers: usize,
    /// Socket family (loopback TCP, the only one).
    pub transport: TransportKind,
    /// How workers come up.
    pub launcher: Launcher,
    /// Migration budget; exceeding it is [`FleetError::FleetCollapse`].
    pub max_migrations: usize,
    /// Replace dead workers with fresh processes; `false` means
    /// survivors adopt the orphaned shard and the job completes
    /// [`Degraded`].
    pub respawn: bool,
    /// Per-RPC deadline (`AssignOk`, `PhaseDone`) — the one liveness
    /// deadline: a worker hung between phases or sweeps is condemned
    /// when its next `PhaseDone` misses it.
    pub rpc_deadline: Duration,
    /// Durable sweep-boundary checkpoints.
    pub checkpoint: Option<FleetCheckpoint>,
    /// Scripted failures.
    pub chaos: ChaosPlan,
    /// Pause after this many completed sweeps (requires checkpointing;
    /// the run returns `finished: false` and can be resumed).
    pub stop_after_sweep: Option<usize>,
    /// Resume from the newest intact coordinator checkpoint instead of
    /// sweep 0; it must have been cut for this very spec.
    pub resume: bool,
}

impl FleetConfig {
    /// A sane default configuration for `workers` in-process workers.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        FleetConfig {
            workers,
            transport: TransportKind::Tcp,
            launcher: Launcher::InProcess,
            max_migrations: 4,
            respawn: true,
            rpc_deadline: Duration::from_secs(20),
            checkpoint: None,
            chaos: ChaosPlan::default(),
            stop_after_sweep: None,
            resume: false,
        }
    }
}

/// The fleet's result: the same observables as the engine's
/// [`JobOutput`](mogs_engine::JobOutput), plus fleet provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutput {
    /// Final label plane, one raw label per site.
    pub labels: Vec<u8>,
    /// Marginal MAP estimate, when the run passed burn-in.
    pub map_estimate: Option<Vec<u8>>,
    /// Total energy after each completed sweep.
    pub energy_trace: Vec<f64>,
    /// Sweeps completed.
    pub iterations_run: usize,
    /// `false` when [`FleetConfig::stop_after_sweep`] paused the run.
    pub finished: bool,
    /// Set when a shard was adopted without replacement capacity.
    pub degraded: Option<Degraded>,
    /// Shard migrations performed.
    pub migrations: usize,
    /// Worker processes (or threads) launched over the run.
    pub workers_spawned: usize,
    /// Frames sent and received on every worker stream of the run.
    pub wire_frames: u64,
    /// Bytes the coordinator wrote to its workers, length prefixes
    /// included.
    pub wire_bytes_out: u64,
    /// Bytes the coordinator read from its workers.
    pub wire_bytes_in: u64,
}

impl FleetOutput {
    /// Bit-exact comparison against an engine run of the same spec:
    /// labels, MAP estimate, and every energy-trace entry compared as
    /// IEEE-754 bit patterns.
    #[must_use]
    pub fn bit_identical_to(&self, reference: &mogs_engine::JobOutput) -> bool {
        let ref_labels: Vec<u8> = reference.labels.iter().map(|l| l.value()).collect();
        let ref_map: Option<Vec<u8>> = reference
            .map_estimate
            .as_ref()
            .map(|m| m.iter().map(|l| l.value()).collect());
        self.labels == ref_labels
            && self.map_estimate == ref_map
            && self.energy_trace.len() == reference.energy_trace.len()
            && self
                .energy_trace
                .iter()
                .zip(&reference.energy_trace)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Runs `spec` across a fleet of worker processes.
///
/// # Errors
///
/// Typed [`FleetError`]s: `Spec`/`Partition` before anything launches,
/// `Spawn` when workers cannot come up, `FleetCollapse` when the
/// migration budget runs out, `Checkpoint` on store, spec or binding
/// failures, `Unsupported` for structurally impossible configurations.
pub fn run_fleet(spec: &JobDescription, config: &FleetConfig) -> FleetResult<FleetOutput> {
    // On any failure the coordinator is dropped here, and every slot
    // reaps its worker on drop.
    Coordinator::launch(spec, config)?.run()
}

/// Binds the non-blocking loopback listener one worker is launched
/// against and returns it with its address in
/// [`crate::worker::connect`]'s format. Every launch binds its own, so
/// the connection it accepts provably belongs to the process it spawned
/// — which lets a whole fleet boot concurrently.
fn listen() -> FleetResult<(TcpListener, String)> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| FleetError::io("binding loopback listener", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| FleetError::io("configuring listener", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| FleetError::io("reading listener address", e))?;
    Ok((listener, format!("tcp:{addr}")))
}

/// Accepts the worker's connection within `deadline`, polling with a
/// doubling back-off (100 µs up to 5 ms) so a worker that is already
/// there costs no sleep quantum.
fn accept(listener: &TcpListener, deadline: Duration) -> FleetResult<Conn> {
    let start = std::time::Instant::now();
    let mut pause = Duration::from_micros(100);
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(Conn::tcp(stream)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if start.elapsed() > deadline {
                    return Err(FleetError::Spawn {
                        reason: format!(
                            "worker did not connect within {} ms",
                            deadline.as_millis()
                        ),
                    });
                }
                std::thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_millis(5));
            }
            Err(e) => return Err(FleetError::io("accepting worker connection", e)),
        }
    }
}

struct Slot {
    conn: Option<Conn>,
    child: Option<Child>,
    thread: Option<JoinHandle<FleetResult<()>>>,
    shards: Vec<usize>,
    alive: bool,
}

impl Slot {
    /// Launches one worker for `spec` against a listener of its own; the
    /// slot has no connection until [`Slot::connect`] accepts it.
    fn start(
        config: &FleetConfig,
        spec: &JobDescription,
        shards: &[usize],
    ) -> FleetResult<(TcpListener, Slot)> {
        let (listener, addr) = listen()?;
        let spec = spec.encode();
        let failed = |e: std::io::Error| FleetError::Spawn {
            reason: format!("launching a {:?} worker: {e}", config.launcher),
        };
        let command = match &config.launcher {
            Launcher::Program(path) => {
                let mut command = Command::new(path);
                command.arg(&addr).arg(&spec);
                Some(command)
            }
            Launcher::SelfExec => {
                let mut command = Command::new(std::env::current_exe().map_err(failed)?);
                command.env(WORKER_ENV, &addr).env(SPEC_ENV, &spec);
                Some(command)
            }
            Launcher::InProcess => None,
        };
        let (child, thread) = match command {
            Some(mut command) => {
                let child = command.stdin(Stdio::null()).spawn().map_err(failed)?;
                (Some(child), None)
            }
            None => (
                None,
                Some(std::thread::spawn(move || worker_main(&addr, &spec))),
            ),
        };
        let slot = Slot {
            conn: None,
            child,
            thread,
            shards: shards.to_vec(),
            alive: true,
        };
        Ok((listener, slot))
    }

    /// Waits for the launched worker's connection.
    fn connect(mut self, listener: &TcpListener, deadline: Duration) -> FleetResult<Slot> {
        self.conn = Some(accept(listener, deadline)?);
        Ok(self)
    }

    /// Launches one worker and waits for its connection, retrying with
    /// exponential backoff.
    fn spawn(config: &FleetConfig, spec: &JobDescription, shards: &[usize]) -> FleetResult<Slot> {
        let mut attempt = 0u32;
        loop {
            let spawned = Slot::start(config, spec, shards)
                .and_then(|(listener, slot)| slot.connect(&listener, config.rpc_deadline));
            match spawned {
                Err(_) if attempt < SPAWN_RETRIES => {
                    std::thread::sleep(SPAWN_BACKOFF.saturating_mul(1 << attempt));
                    attempt += 1;
                }
                settled => return settled,
            }
        }
    }

    /// Closes the stream, kills and waits the child, joins the thread
    /// (a worker errors out promptly once its stream is gone).
    fn shut_down(&mut self) {
        self.alive = false;
        self.conn = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.shut_down();
    }
}

struct Coordinator {
    spec: JobDescription,
    config: FleetConfig,
    structure: FleetStructure,
    partition: Arc<Partition>,
    /// Unpinned mirror runner: never phases, only prices the mirror in
    /// place with the engine's own tables each sweep.
    reference: ShardRunner,
    mirror: Vec<u8>,
    energy_trace: Vec<f64>,
    hist: Vec<u32>,
    slots: Vec<Slot>,
    /// Owning slot per site (site → slot index), kept in sync with
    /// every (re)assignment; replies are checked against it.
    owner_slot: Vec<usize>,
    /// `halo_sites[slot][group]`: the sites of that color the slot's
    /// shards read but do not own — exactly what its `Halo` carries.
    halo_sites: Vec<Vec<Vec<usize>>>,
    store: Option<CheckpointStore>,
    migrations: usize,
    workers_spawned: usize,
    degraded: Option<Degraded>,
    start_sweep: usize,
    /// Traffic of streams already closed; live ones are added on reap.
    traffic: Traffic,
}

impl Coordinator {
    fn launch(spec: &JobDescription, config: &FleetConfig) -> FleetResult<Self> {
        check_launch(spec)?;
        if config.workers == 0 {
            return Err(FleetError::Spec {
                reason: "a fleet needs at least one worker".to_string(),
            });
        }
        if config.launcher == Launcher::InProcess && !config.chaos.kills.is_empty() {
            return Err(FleetError::Unsupported {
                reason: "chaos kills need worker processes; the in-process launcher has none"
                    .to_string(),
            });
        }
        if (config.stop_after_sweep.is_some() || config.resume) && config.checkpoint.is_none() {
            return Err(FleetError::Unsupported {
                reason: "stop/resume requires a checkpoint store".to_string(),
            });
        }
        let store = match &config.checkpoint {
            Some(ck) => Some(CheckpointStore::open(&ck.dir, ck.retain)?),
            None => None,
        };
        // A resume the store refuses is refused before any worker starts.
        let resume = match (&store, config.resume) {
            (Some(store), true) => Some(Coordinator::load_resume(store, spec)?),
            _ => None,
        };
        // Every worker admits the job while the coordinator does. An
        // early return drops the started slots, which reaps them.
        let started: Vec<FleetResult<(TcpListener, Slot)>> = (0..config.workers)
            .map(|shard| Slot::start(config, spec, &[shard]))
            .collect();
        let (reference, structure, partition) = bring_up(spec, config.workers)?;
        let mirror = reference.snapshot();
        let mut slots = Vec::with_capacity(config.workers);
        for (shard, started) in started.into_iter().enumerate() {
            let connected = started
                .and_then(|(listener, slot)| slot.connect(&listener, config.rpc_deadline))
                .or_else(|_| Slot::spawn(config, spec, &[shard]))?;
            slots.push(connected);
        }
        let sites = structure.sites;
        let labels = structure.labels;
        let mut coordinator = Coordinator {
            spec: spec.clone(),
            config: config.clone(),
            structure,
            partition,
            reference,
            mirror,
            energy_trace: Vec::new(),
            hist: vec![0u32; sites * labels],
            slots,
            owner_slot: vec![0; sites],
            halo_sites: Vec::new(),
            store,
            migrations: 0,
            workers_spawned: config.workers,
            degraded: None,
            start_sweep: 0,
            traffic: Traffic::default(),
        };
        if let Some(coord) = resume {
            verify_binding(&coord.state, &coordinator.binding()?)?;
            coordinator.start_sweep = coord.state.next_sweep;
            coordinator.mirror = coord.state.labels;
            coordinator.energy_trace = coord.state.energy_trace;
            if let Some(hist) = coord.state.histograms {
                coordinator.hist = hist;
            }
            // The decoder checks the label count, not the range: refuse
            // a cut holding a label outside the space before any Assign.
            coordinator.reference.price(&coordinator.mirror)?;
        }
        coordinator.rebuild_owner_map();
        // Every Assign goes out before any AssignOk is awaited. A fresh
        // job's workers already hold the admission plane.
        let start = coordinator.start_sweep;
        let plane = config.resume.then(|| coordinator.mirror.clone());
        for idx in 0..coordinator.slots.len() {
            coordinator.send_assign(idx, plane.as_deref(), start, &[])?;
        }
        for idx in 0..coordinator.slots.len() {
            coordinator.await_assign_ok(idx)?;
        }
        Ok(coordinator)
    }

    /// The binding of the coordinator's whole-plane checkpoint.
    fn binding(&self) -> FleetResult<StateBinding> {
        let (width, height) = self.spec.workload.dims();
        Ok(StateBinding {
            sites: self.structure.sites,
            width,
            height,
            labels: self.structure.labels,
            iterations: self.spec.iterations,
            burn_in: self.spec.burn_in,
            threads: self.spec.threads,
            seed: self.spec.seed,
            fingerprint: self.structure.topology.fingerprint(),
            kernel: self.spec.kernel()?.name().to_string(),
            track_modes: true,
            record_energy: true,
        })
    }

    /// Recomputes, from the slots' current shard lists, who owns each
    /// site and which halo sites each slot is sent per color.
    fn rebuild_owner_map(&mut self) {
        for (idx, slot) in self.slots.iter().enumerate() {
            for &shard in &slot.shards {
                for &site in &self.partition.shards[shard].owned {
                    self.owner_slot[site] = idx;
                }
            }
        }
        self.halo_sites = self
            .slots
            .iter()
            .map(|slot| self.partition.halo_by_group(&self.structure, &slot.shards))
            .collect();
    }

    fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].alive)
            .collect()
    }

    fn owned_by(&self, idx: usize) -> usize {
        let shards = &self.slots[idx].shards;
        shards
            .iter()
            .map(|&s| self.partition.shards[s].owned.len())
            .sum()
    }

    /// Sends a fresh `Assign` for everything slot `idx` owns.
    fn send_assign(
        &mut self,
        idx: usize,
        plane: Option<&[u8]>,
        resume_sweep: usize,
        replay: &[Vec<(usize, u8)>],
    ) -> FleetResult<()> {
        let cells: Vec<(usize, usize)> = self.slots[idx]
            .shards
            .iter()
            .flat_map(|&s| self.partition.shards[s].cells.iter().copied())
            .collect();
        let msg = ToWorker::Assign {
            digest: self.spec.digest(),
            cells,
            plane: plane.map(<[u8]>::to_vec),
            resume_sweep,
            replay: replay.to_vec(),
        };
        self.send_slot(idx, &msg)
    }

    /// Waits for the `AssignOk` of slot `idx`, discarding stale replies
    /// from a superseded exchange.
    fn await_assign_ok(&mut self, idx: usize) -> FleetResult<()> {
        let expected_owned = self.owned_by(idx);
        loop {
            match self.recv_slot(idx, "assign")? {
                ToCoordinator::AssignOk { owned } => {
                    if owned != expected_owned {
                        return Err(FleetError::Protocol {
                            reason: format!(
                                "slot {idx} admitted {owned} sites, expected {expected_owned}"
                            ),
                        });
                    }
                    return Ok(());
                }
                // Stale from a superseded phase exchange: the worker
                // sent these before it processed the Assign.
                ToCoordinator::PhaseDone { .. } => continue,
                ToCoordinator::Fault { reason } => {
                    return Err(FleetError::WorkerLost { slot: idx, reason })
                }
                other => {
                    return Err(FleetError::Protocol {
                        reason: format!("expected assign_ok, got {other:?}"),
                    })
                }
            }
        }
    }

    fn conn(&mut self, idx: usize) -> FleetResult<&mut Conn> {
        self.slots[idx]
            .conn
            .as_mut()
            .ok_or_else(|| FleetError::WorkerLost {
                slot: idx,
                reason: "connection already torn down".to_string(),
            })
    }

    fn send_slot(&mut self, idx: usize, msg: &ToWorker) -> FleetResult<()> {
        send_to_worker(self.conn(idx)?, msg).map_err(|e| match e {
            FleetError::Io { context, source } => FleetError::WorkerLost {
                slot: idx,
                reason: format!("send failed while {context}: {source}"),
            },
            other => other,
        })
    }

    fn recv_slot(&mut self, idx: usize, rpc: &'static str) -> FleetResult<ToCoordinator> {
        let deadline = self.config.rpc_deadline;
        recv_to_coordinator(self.conn(idx)?, Some(deadline), rpc)
    }

    /// Reaps a condemned (or finished) slot, keeping its traffic count,
    /// and returns the shards it held.
    fn reap(&mut self, idx: usize) -> Vec<usize> {
        let slot = &mut self.slots[idx];
        if let Some(conn) = &slot.conn {
            self.traffic.absorb(conn.traffic());
        }
        slot.shut_down();
        std::mem::take(&mut slot.shards)
    }

    /// The migration budget is spent; the caller fails the job, and the
    /// dropped coordinator reaps whoever is left.
    fn collapse(&self, reason: String) -> FleetError {
        FleetError::FleetCollapse {
            migrations: self.migrations,
            max_migrations: self.config.max_migrations,
            reason,
        }
    }

    /// Migrates everything `failed` owned to a respawned worker or an
    /// adopting survivor, catching the target up to `resume_sweep` with
    /// the replay of that sweep's first `completed` phases. Returns the
    /// target slot, ready for the next `Phase`.
    fn recover(
        &mut self,
        mut failed: usize,
        sweep: usize,
        boundary: &[u8],
        completed: usize,
    ) -> FleetResult<usize> {
        let replay = self.replay(completed);
        loop {
            self.migrations += 1;
            if self.migrations > self.config.max_migrations {
                return Err(self.collapse(format!(
                    "slot {failed} died at sweep {sweep} with the budget spent"
                )));
            }
            let shards = self.reap(failed);
            let target = if self.config.respawn {
                self.slots[failed] = Slot::spawn(&self.config, &self.spec, &shards)?;
                self.workers_spawned += 1;
                failed
            } else {
                let Some(target) = self
                    .live_slots()
                    .into_iter()
                    .min_by_key(|&i| (self.owned_by(i), i))
                else {
                    return Err(self.collapse(format!(
                        "slot {failed} died at sweep {sweep} with no survivors to adopt its shard"
                    )));
                };
                self.slots[target].shards.extend(shards);
                self.degraded = Some(Degraded {
                    failed_over_at: sweep,
                    units_lost: self.degraded.map_or(1, |d| d.units_lost + 1),
                });
                target
            };
            self.rebuild_owner_map();
            let assigned = self
                .send_assign(target, Some(boundary), sweep, &replay)
                .and_then(|()| self.await_assign_ok(target));
            match assigned {
                Ok(()) => return Ok(target),
                Err(e) if e.is_migratable() => {
                    failed = target;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The replay log of the current sweep's first `completed` phases,
    /// read off the mirror: every site of each completed group with its
    /// label, which that group's phase wrote exactly once and nothing
    /// has written since.
    fn replay(&self, completed: usize) -> Vec<Vec<(usize, u8)>> {
        self.structure.cells[..completed]
            .iter()
            .map(|cells| {
                cells
                    .iter()
                    .flatten()
                    .map(|&site| (site, self.mirror[site]))
                    .collect()
            })
            .collect()
    }

    /// Dispatches and collects one color phase across the fleet,
    /// surviving worker deaths mid-phase, and writes every site of the
    /// group into the mirror.
    fn run_group(&mut self, sweep: usize, group: usize, boundary: &[u8]) -> FleetResult<()> {
        // Scripted chaos: SIGKILL (and reap) before dispatch, so the
        // worker never answers this phase and its death surfaces in it,
        // however fast it would have replied.
        for kill in &self.config.chaos.kills {
            if (kill.sweep, kill.group) == (sweep, group) {
                if let Some(child) = self.slots[kill.worker].child.as_mut() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        let phase = ToWorker::Phase { sweep, group };
        let mut pending: VecDeque<usize> = VecDeque::new();
        let mut dead_on_send: Vec<usize> = Vec::new();
        for idx in self.live_slots() {
            match self.send_slot(idx, &phase) {
                Ok(()) => pending.push_back(idx),
                Err(e) if e.is_migratable() => dead_on_send.push(idx),
                Err(e) => return Err(e),
            }
        }
        for idx in dead_on_send {
            if !self.slots[idx].alive {
                continue; // already migrated as collateral of another recovery
            }
            let target = self.recover(idx, sweep, boundary, group)?;
            self.send_slot(target, &phase)?;
            pending.retain(|&x| x != target);
            pending.push_back(target);
        }
        // Every reply is the cells' deterministic draws, so a slot that
        // answered and was reaped afterwards wrote the same labels its
        // shards' new owner reports again.
        while let Some(idx) = pending.pop_front() {
            if !self.slots[idx].alive {
                continue;
            }
            match self.recv_phase_done(idx, sweep, group) {
                Ok(()) => {}
                Err(e) if e.is_migratable() => {
                    let target = self.recover(idx, sweep, boundary, group)?;
                    self.send_slot(target, &phase)?;
                    pending.retain(|&x| x != target);
                    pending.push_back(target);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Receives slot `idx`'s reply to `Phase{sweep, group}` into the
    /// mirror, checked against the plane: every site must be one the
    /// slot owns, every label inside the space.
    fn recv_phase_done(&mut self, idx: usize, sweep: usize, group: usize) -> FleetResult<()> {
        loop {
            match self.recv_slot(idx, "phase")? {
                ToCoordinator::PhaseDone {
                    sweep: s,
                    group: g,
                    updates,
                } if (s, g) == (sweep, group) => {
                    let labels = self.structure.labels;
                    for (site, label) in updates {
                        if self.owner_slot.get(site) != Some(&idx) || usize::from(label) >= labels {
                            return Err(FleetError::Protocol {
                                reason: format!(
                                    "slot {idx} reported ({site}, {label}), which is not a site \
                                     it owns or not a label of the {labels}-label space"
                                ),
                            });
                        }
                        self.mirror[site] = label;
                    }
                    return Ok(());
                }
                // Replies from a superseded exchange; drop them.
                ToCoordinator::PhaseDone { .. } => continue,
                ToCoordinator::Fault { reason } => {
                    return Err(FleetError::WorkerLost { slot: idx, reason })
                }
                other => {
                    return Err(FleetError::Protocol {
                        reason: format!("expected phase_done, got {other:?}"),
                    })
                }
            }
        }
    }

    /// Sends every live slot the freshly merged labels of its halo sites
    /// of color `group` — nothing at all when it has none. A failed send
    /// condemns the slot like any other death — its replacement is
    /// rebuilt from the boundary with the replay through this phase, so
    /// nothing is lost.
    fn send_halos(&mut self, sweep: usize, group: usize, boundary: &[u8]) -> FleetResult<()> {
        for idx in self.live_slots() {
            let updates: Vec<(usize, u8)> = self.halo_sites[idx][group]
                .iter()
                .map(|&site| (site, self.mirror[site]))
                .collect();
            if updates.is_empty() {
                continue;
            }
            match self.send_slot(idx, &ToWorker::Halo { updates }) {
                Ok(()) => {}
                Err(e) if e.is_migratable() => {
                    self.recover(idx, sweep, boundary, group + 1)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Cuts the durable sweep-boundary checkpoint: the whole plane plus
    /// the energy trace and mode histograms, under [`COORD_KEY`], with
    /// the spec's JSON as its meta.
    fn cut_checkpoint(&self, next_sweep: usize) -> FleetResult<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let state = JobState {
            binding: self.binding()?,
            next_sweep,
            labels: self.mirror.clone(),
            energy_trace: self.energy_trace.clone(),
            histograms: Some(self.hist.clone()),
            kernel_faults: Vec::new(),
            fault: None,
            sink_state: None,
        };
        let meta = self.spec.encode();
        store.save(COORD_KEY, &Checkpoint { meta, state })?;
        Ok(())
    }

    /// Loads the newest intact coordinator checkpoint and refuses it
    /// unless it was cut for `spec` (its meta is the spec's JSON, the
    /// input of the spec digest).
    fn load_resume(store: &CheckpointStore, spec: &JobDescription) -> FleetResult<Checkpoint> {
        let Some((path, coord)) = store.latest(COORD_KEY)? else {
            return Err(FleetError::Checkpoint {
                reason: "no coordinator checkpoint to resume from".to_string(),
            });
        };
        if coord.meta != spec.encode() {
            return Err(FleetError::Checkpoint {
                reason: format!(
                    "{} was cut for spec digest {:016x}, not this spec's {:016x}",
                    path.display(),
                    mogs_mrf::fnv1a(coord.meta.as_bytes()),
                    spec.digest()
                ),
            });
        }
        Ok(coord)
    }

    fn run(&mut self) -> FleetResult<FleetOutput> {
        let iterations = self.spec.iterations;
        let groups = self.structure.group_count();
        let mut finished = true;
        let mut completed = self.start_sweep;
        for sweep in self.start_sweep..iterations {
            let boundary = self.mirror.clone();
            for group in 0..groups {
                self.run_group(sweep, group, &boundary)?;
                self.send_halos(sweep, group, &boundary)?;
            }
            completed = sweep + 1;
            // The engine's sweep-boundary bookkeeping, replicated on the
            // mirror: energy trace, then mode histograms. Every live
            // slot's last `PhaseDone` proved it alive; one that dies
            // now is caught by the next sweep's `Phase` or its deadline.
            self.energy_trace.push(self.reference.price(&self.mirror)?);
            if completed > self.spec.burn_in {
                let m = self.structure.labels;
                for (site, &label) in self.mirror.iter().enumerate() {
                    self.hist[site * m + usize::from(label)] += 1;
                }
            }
            let due = match &self.config.checkpoint {
                Some(ck) => {
                    ck.every_sweeps > 0
                        && completed.is_multiple_of(ck.every_sweeps)
                        && completed < iterations
                }
                None => false,
            } || self.config.stop_after_sweep == Some(completed);
            if due {
                self.cut_checkpoint(completed)?;
            }
            if self.config.stop_after_sweep == Some(completed) {
                finished = false;
                break;
            }
        }
        self.finish_workers();
        let map_estimate = (finished && completed > self.spec.burn_in).then(|| {
            let m = self.structure.labels;
            (0..self.structure.sites)
                .map(|site| {
                    self.hist[site * m..(site + 1) * m]
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, count)| **count)
                        .map_or(0, |(label, _)| label as u8)
                })
                .collect()
        });
        Ok(FleetOutput {
            labels: self.mirror.clone(),
            map_estimate,
            energy_trace: self.energy_trace.clone(),
            iterations_run: completed,
            finished,
            degraded: self.degraded,
            migrations: self.migrations,
            workers_spawned: self.workers_spawned,
            wire_frames: self.traffic.frames,
            wire_bytes_out: self.traffic.bytes_out,
            wire_bytes_in: self.traffic.bytes_in,
        })
    }

    /// Orderly shutdown: `Finish` to every live worker, then each one's
    /// `Bye`, then reap. Failures here are ignored — the job's results
    /// are already on the coordinator.
    fn finish_workers(&mut self) {
        let live = self.live_slots();
        let told: Vec<bool> = live
            .iter()
            .map(|&idx| self.send_slot(idx, &ToWorker::Finish).is_ok())
            .collect();
        for (idx, told) in live.into_iter().zip(told) {
            if told {
                // Stale replies are skipped; any error ends the wait.
                while let Ok(reply) = self.recv_slot(idx, "finish") {
                    if reply == ToCoordinator::Bye {
                        break;
                    }
                }
            }
            self.reap(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_engine::Backend;
    use mogs_vision::job::Workload;

    fn spec() -> JobDescription {
        JobDescription {
            workload: Workload::Demo {
                width: 8,
                height: 6,
                labels: 3,
            },
            backend: Backend::Softmax,
            iterations: 6,
            threads: 3,
            seed: 0xC0FFEE,
            burn_in: 2,
        }
    }

    #[test]
    fn single_worker_fleet_matches_engine() {
        let output = run_fleet(&spec(), &FleetConfig::new(1)).expect("fleet runs");
        let reference = crate::exec::run_in_process(&spec()).expect("engine runs");
        assert!(output.finished);
        assert_eq!(output.iterations_run, 6);
        assert_eq!(output.migrations, 0);
        assert!(
            output.bit_identical_to(&reference),
            "single-worker fleet must be bit-identical to the engine"
        );
    }

    #[test]
    fn three_worker_fleet_matches_engine_over_tcp() {
        let reference = crate::exec::run_in_process(&spec()).expect("engine runs");
        let output = run_fleet(&spec(), &FleetConfig::new(3)).expect("fleet runs");
        assert_eq!(output.workers_spawned, 3);
        assert!(
            output.bit_identical_to(&reference),
            "3-worker fleet must be bit-identical to the engine"
        );
    }

    #[test]
    fn zero_workers_and_chaos_in_process_are_refused() {
        assert_eq!(
            run_fleet(&spec(), &FleetConfig::new(0))
                .expect_err("zero workers")
                .variant(),
            "spec"
        );
        let mut config = FleetConfig::new(2);
        config.chaos.kills.push(KillAt {
            sweep: 0,
            group: 0,
            worker: 0,
        });
        assert_eq!(
            run_fleet(&spec(), &config)
                .expect_err("chaos in-process")
                .variant(),
            "unsupported"
        );
    }

    #[test]
    fn stop_without_store_is_refused() {
        let mut config = FleetConfig::new(1);
        config.stop_after_sweep = Some(2);
        assert_eq!(
            run_fleet(&spec(), &config).expect_err("no store").variant(),
            "unsupported"
        );
    }
}
