//! The halo-only exchange, checked from outside the coordinator.
//!
//! - **Exactness**: for Demo and Stereo specs at 2–4 workers, the sites
//!   a worker is sent after phase `g` ([`Partition::halo_by_group`]) are
//!   a subset of its shards' audited `halo_in` ∩ color class `g`, and
//!   cover it — for one shard per worker and for workers that adopted a
//!   second shard.
//! - **Sufficiency**: shards that are only ever shown those sites still
//!   reproduce the in-process engine bit for bit.
//! - **Under faults**: a mid-sweep kill and the no-spare adoption path
//!   (`Degraded`, recomputed halo sets, non-empty replay) stay
//!   bit-identical over real worker processes.
//! - **On the socket**: a `fleet2`-shaped run moves at most 5 B per
//!   owned-or-halo site per phase plus 1 KB, and no `Halo` passes 4 KB.
//! - **Bring-up**: a worker admits the spec it was launched with; an
//!   `Assign` naming another spec's digest is a typed `Protocol` error,
//!   a launch spec the worker cannot admit is a typed error well inside
//!   `rpc_deadline`, and an adopting worker re-pins its live runner and
//!   stays bit-identical. `Topology` clones and equality are what they
//!   were before the fingerprint became a field.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mogs_engine::Backend;
use mogs_fleet::wire::{recv_to_coordinator, send_to_worker, Conn, ToCoordinator, ToWorker};
use mogs_fleet::{
    build_shard, partition, run_fleet, run_in_process, worker_main, ChaosPlan, FleetConfig,
    FleetResult, FleetStructure, KillAt, Launcher, Partition,
};
use mogs_mrf::{Grid2D, Neighborhood, Topology};
use mogs_vision::job::{JobDescription, Workload};

const PATIENT: Option<Duration> = Some(Duration::from_secs(10));

fn demo_spec() -> JobDescription {
    JobDescription {
        workload: Workload::Demo {
            width: 14,
            height: 9,
            labels: 4,
        },
        backend: Backend::Softmax,
        iterations: 6,
        threads: 4,
        seed: 0xE8C4_A46E,
        burn_in: 2,
    }
}

fn stereo_spec(width: usize, height: usize, iterations: usize) -> JobDescription {
    JobDescription {
        workload: Workload::Stereo {
            width,
            height,
            disparity: 3,
            noise_sigma: 4.0,
            scene_seed: 7,
        },
        backend: Backend::Softmax,
        iterations,
        threads: 4,
        seed: 0x5EED_F1EE,
        burn_in: iterations / 4,
    }
}

/// The worker layouts worth checking at `workers` shards: one shard
/// each, then shard 0's worker gone and its shard adopted by worker 1.
fn layouts(workers: usize) -> Vec<Vec<Vec<usize>>> {
    let solo: Vec<Vec<usize>> = (0..workers).map(|s| vec![s]).collect();
    let mut adopted = solo.clone();
    adopted[1].push(0);
    adopted[0].clear();
    vec![solo, adopted]
}

/// `halo_in` of a worker holding `shards`, from the partition's audited
/// per-shard sets: everything its shards read that none of them owns.
fn worker_halo(parts: &Partition, shards: &[usize]) -> BTreeSet<usize> {
    shards
        .iter()
        .flat_map(|&s| parts.shards[s].halo_in.iter().copied())
        .filter(|&site| !shards.contains(&parts.owner[site]))
        .collect()
}

#[test]
fn halo_sets_are_exactly_halo_in_by_color() {
    for spec in [demo_spec(), stereo_spec(24, 18, 4)] {
        let structure = FleetStructure::of(&spec).expect("structure");
        for workers in 2..=4 {
            let parts = partition(&structure, workers).expect("partition");
            for layout in layouts(workers) {
                for shards in &layout {
                    let halo = worker_halo(&parts, shards);
                    let sent = parts.halo_by_group(&structure, shards);
                    assert_eq!(sent.len(), structure.group_count());
                    for (group, sites) in sent.iter().enumerate() {
                        let class: BTreeSet<usize> =
                            structure.cells[group].iter().flatten().copied().collect();
                        let want: Vec<usize> = halo.intersection(&class).copied().collect();
                        assert_eq!(
                            sites, &want,
                            "{workers} workers, shards {shards:?}, group {group}"
                        );
                    }
                    let total: usize = sent.iter().map(Vec::len).sum();
                    assert_eq!(total, halo.len(), "every halo site has exactly one color");
                }
            }
        }
    }
}

/// Drives one shard per worker in this process, showing each only its
/// `halo_by_group` sites after every phase — the coordinator's exchange
/// without the sockets.
#[test]
fn halo_only_exchange_reproduces_the_engine() {
    for spec in [demo_spec(), stereo_spec(24, 18, 4)] {
        let structure = FleetStructure::of(&spec).expect("structure");
        let reference = run_in_process(&spec).expect("engine runs");
        let want: Vec<u8> = reference.labels.iter().map(|l| l.value()).collect();
        for workers in 2..=4 {
            let parts = partition(&structure, workers).expect("partition");
            let mut shards: Vec<_> = parts
                .shards
                .iter()
                .map(|s| build_shard(&spec, &s.cells).expect("shard admits"))
                .collect();
            let halos: Vec<_> = (0..workers)
                .map(|s| parts.halo_by_group(&structure, &[s]))
                .collect();
            let mut mirror = shards[0].snapshot();
            for sweep in 0..spec.iterations {
                for group in 0..structure.group_count() {
                    for shard in &mut shards {
                        shard.run_phase(sweep, group);
                        let sites = shard.owned_sites(group);
                        for (&site, label) in sites.iter().zip(shard.read_labels(&sites)) {
                            mirror[site] = label;
                        }
                    }
                    for (shard, halo) in shards.iter_mut().zip(&halos) {
                        let updates: Vec<(usize, u8)> =
                            halo[group].iter().map(|&s| (s, mirror[s])).collect();
                        shard.apply_updates(&updates).expect("halo applies");
                    }
                }
            }
            assert_eq!(mirror, want, "{workers} workers diverged from the engine");
        }
    }
}

fn process_config(workers: usize) -> FleetConfig {
    let mut config = FleetConfig::new(workers);
    config.launcher = Launcher::Program(PathBuf::from(env!("CARGO_BIN_EXE_fleet-worker")));
    config
}

#[test]
fn kill_and_adoption_stay_bit_identical_with_recomputed_halos() {
    let spec = stereo_spec(24, 18, 6);
    let reference = run_in_process(&spec).expect("engine runs");
    // Killed after group 0 was dispatched and after group 1: the second
    // recovery replays a non-empty phase log.
    for (group, respawn) in [(0, true), (1, true), (0, false), (1, false)] {
        let mut config = process_config(4);
        config.respawn = respawn;
        config.chaos = ChaosPlan {
            kills: vec![KillAt {
                sweep: 2,
                group,
                worker: 1,
            }],
        };
        let output = run_fleet(&spec, &config).expect("fleet survives");
        assert_eq!(output.migrations, 1);
        assert_eq!(output.degraded.is_some(), !respawn);
        assert!(
            output.bit_identical_to(&reference),
            "kill at group {group} (respawn {respawn}) diverged from the engine"
        );
    }
    // Two workers lost with no spares: a survivor ends up holding three
    // shards' worth of halo.
    let mut config = process_config(3);
    config.respawn = false;
    config.chaos = ChaosPlan {
        kills: vec![
            KillAt {
                sweep: 1,
                group: 1,
                worker: 0,
            },
            KillAt {
                sweep: 3,
                group: 0,
                worker: 2,
            },
        ],
    };
    let output = run_fleet(&spec, &config).expect("fleet degrades twice");
    assert_eq!(output.degraded.expect("degraded").units_lost, 2);
    assert!(
        output.bit_identical_to(&reference),
        "double adoption diverged"
    );
}

#[test]
fn socket_bytes_per_phase_track_owned_plus_halo_sites() {
    // The benchmark's `fleet2` shape: 256x192 stereo, 4 chunks, 2 workers.
    let structure = FleetStructure::of(&stereo_spec(256, 192, 1)).expect("structure");
    let parts = partition(&structure, 2).expect("partition");
    let groups = structure.group_count();
    let halos: Vec<_> = (0..2)
        .map(|s| parts.halo_by_group(&structure, &[s]))
        .collect();
    let largest = halos.iter().flatten().map(Vec::len).max().unwrap_or(0);
    let smallest = halos.iter().flatten().map(Vec::len).min().unwrap_or(0);
    assert!(
        smallest > 0,
        "striped shards border each other in every color"
    );
    assert!(5 * largest + 64 <= 4096, "a Halo of {largest} sites");
    let halo_sites: usize = halos.iter().flatten().map(Vec::len).sum();

    // Bring-up and teardown cost the same at any sweep budget, so the
    // difference of two runs is the steady-state exchange alone.
    let traffic = |sweeps: usize| {
        let spec = stereo_spec(256, 192, sweeps);
        let out = run_fleet(&spec, &FleetConfig::new(2)).expect("fleet runs");
        assert!(out.wire_frames > 0 && out.wire_bytes_out > 0 && out.wire_bytes_in > 0);
        (out.wire_frames, out.wire_bytes_out + out.wire_bytes_in)
    };
    let (short, long) = (2, 5);
    let ((frames_a, bytes_a), (frames_b, bytes_b)) = (traffic(short), traffic(long));
    let phases = ((long - short) * groups) as u64;
    let per_phase = (bytes_b - bytes_a) / phases;
    let bound = 5 * (structure.sites + halo_sites) / groups + 1024;
    assert!(
        per_phase <= bound as u64,
        "{per_phase} B per phase on the socket, bound {bound}"
    );
    // Per worker and phase: Phase out, PhaseDone back, at most one Halo;
    // nothing else crosses a sweep boundary.
    let per_sweep = (frames_b - frames_a) / (long - short) as u64;
    assert_eq!(per_sweep, (2 * 3 * groups) as u64);
}

/// A worker that answers `Phase` with a label outside the space, or a
/// site nobody owns, fails the job with a typed `Protocol` error — the
/// coordinator indexes its mirror and histograms by what a reply names.
#[test]
fn replies_naming_foreign_sites_or_labels_are_refused() {
    use mogs_fleet::wire::{recv_to_worker, send_to_coordinator, ToCoordinator, ToWorker};
    use std::os::unix::fs::PermissionsExt;

    let spec = demo_spec();
    for (case, bad) in [(14 * 9, 0u8), (u32::MAX as usize, 0), (0, 4), (0, 255)]
        .into_iter()
        .enumerate()
    {
        // The "worker program" only records where the coordinator
        // listens; this test then plays the worker itself.
        let dir =
            std::env::temp_dir().join(format!("mogs-fleet-fake-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (script, addr_file) = (dir.join("worker.sh"), dir.join("addr"));
        let body = format!(
            "#!/bin/sh\necho \"$1\" > {0}.tmp && mv {0}.tmp {0}\nexec sleep 60\n",
            addr_file.display()
        );
        std::fs::write(&script, body).expect("script");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        let mut config = FleetConfig::new(1);
        config.launcher = Launcher::Program(script);
        let fake = std::thread::spawn(move || {
            let addr = loop {
                match std::fs::read_to_string(&addr_file) {
                    Ok(addr) => break addr,
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
                }
            };
            let mut conn = mogs_fleet::worker::connect(addr.trim()).expect("connect");
            loop {
                let reply = match recv_to_worker(&mut conn, None) {
                    Ok(ToWorker::Assign { .. }) => ToCoordinator::AssignOk { owned: 14 * 9 },
                    Ok(ToWorker::Phase { sweep, group }) => ToCoordinator::PhaseDone {
                        sweep,
                        group,
                        updates: vec![(1, 1), bad],
                    },
                    _ => return,
                };
                if send_to_coordinator(&mut conn, &reply).is_err() {
                    return;
                }
            }
        });
        let err = run_fleet(&spec, &config).expect_err("a lying worker fails the job");
        assert_eq!(err.variant(), "protocol", "{bad:?}: {err}");
        fake.join()
            .expect("fake worker exits once the coordinator is gone");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A thread worker launched with `spec` text, and the coordinator end
/// of its stream.
fn launch(spec: &str) -> (Conn, JoinHandle<FleetResult<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = format!("tcp:{}", listener.local_addr().expect("addr"));
    let spec = spec.to_string();
    let worker = std::thread::spawn(move || worker_main(&addr, &spec));
    (Conn::tcp(listener.accept().expect("accept").0), worker)
}

fn assign(
    digest: u64,
    cells: &[(usize, usize)],
    plane: Option<Vec<u8>>,
    resume_sweep: usize,
    replay: Vec<Vec<(usize, u8)>>,
) -> ToWorker {
    ToWorker::Assign {
        digest,
        cells: cells.to_vec(),
        plane,
        resume_sweep,
        replay,
    }
}

/// One `Phase` through a live worker; returns its `PhaseDone` updates.
fn phase(conn: &mut Conn, sweep: usize, group: usize) -> Vec<(usize, u8)> {
    send_to_worker(conn, &ToWorker::Phase { sweep, group }).expect("phase");
    match recv_to_coordinator(conn, PATIENT, "phase").expect("phase done") {
        ToCoordinator::PhaseDone { updates, .. } => updates,
        other => panic!("expected phase_done, got {other:?}"),
    }
}

#[test]
fn assign_naming_another_spec_is_a_typed_protocol_error() {
    let spec = demo_spec();
    let mut other = spec.clone();
    other.seed += 1;
    assert_ne!(spec.digest(), other.digest());
    let (mut conn, worker) = launch(&spec.encode());
    send_to_worker(
        &mut conn,
        &assign(other.digest(), &[(0, 0)], None, 0, vec![]),
    )
    .expect("send");
    let reply = recv_to_coordinator(&mut conn, PATIENT, "assign").expect("fault");
    let ToCoordinator::Fault { reason } = reply else {
        panic!("expected a fault, got {reply:?}");
    };
    assert!(reason.contains("digest"), "{reason}");
    let err = worker.join().expect("join").expect_err("worker must fail");
    assert_eq!(err.variant(), "protocol", "{err}");
}

#[test]
fn unadmittable_launch_specs_fail_typed_within_the_deadline() {
    // A valid spec engine admission refuses (more chunks than a 2-site
    // field's groups have sites), one that fails validation (65 > 64
    // labels, which `LabelSpace` would panic on), JSON that is no spec,
    // and no spec at all.
    let mut tiny = demo_spec();
    tiny.workload = Workload::Demo {
        width: 2,
        height: 1,
        labels: 2,
    };
    let mut too_wide = demo_spec();
    too_wide.workload = Workload::Demo {
        width: 14,
        height: 9,
        labels: 65,
    };
    let texts = [
        tiny.encode(),
        too_wide.encode(),
        "{\"t\":1}".into(),
        String::new(),
    ];
    for text in texts {
        let started = Instant::now();
        let (mut conn, worker) = launch(&text);
        // The worker may already be gone; the reply is what counts.
        let _ = send_to_worker(&mut conn, &assign(0, &[(0, 0)], None, 0, vec![]));
        match recv_to_coordinator(&mut conn, PATIENT, "assign") {
            Ok(ToCoordinator::Fault { .. }) => {}
            Ok(other) => panic!("{text:?}: expected a fault, got {other:?}"),
            Err(e) => assert!(["io", "frame"].contains(&e.variant()), "{text:?}: {e}"),
        }
        let err = worker.join().expect("join").expect_err("worker must fail");
        assert!(["spec", "protocol"].contains(&err.variant()), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "{text:?} hung");
    }

    // Through the coordinator, over a real worker process handed a spec
    // it cannot parse: launch fails typed, well inside `rpc_deadline`.
    let dir = std::env::temp_dir().join(format!("mogs-fleet-badspec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("worker.sh");
    let body = format!(
        "#!/bin/sh\nexec {} \"$1\" not-a-spec\n",
        env!("CARGO_BIN_EXE_fleet-worker")
    );
    std::fs::write(&script, body).expect("script");
    use std::os::unix::fs::PermissionsExt;
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    let mut config = FleetConfig::new(2);
    config.launcher = Launcher::Program(script);
    let started = Instant::now();
    let err = run_fleet(&demo_spec(), &config).expect_err("workers cannot admit");
    assert!(started.elapsed() < config.rpc_deadline, "{err}");
    assert!(
        ["worker-lost", "io", "frame"].contains(&err.variant()),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard 1 dies mid-sweep and the worker holding shard 0 adopts it: a
/// second `Assign` re-pins the same live runner to both shards, seats
/// the sweep boundary and replays the completed phase.
#[test]
fn adoption_repins_a_live_worker_bit_identically() {
    let spec = demo_spec();
    let structure = FleetStructure::of(&spec).expect("structure");
    let parts = partition(&structure, 2).expect("partition");
    let want: Vec<u8> = run_in_process(&spec)
        .expect("engine runs")
        .labels
        .iter()
        .map(|l| l.value())
        .collect();
    let (mut conn, worker) = launch(&spec.encode());
    send_to_worker(
        &mut conn,
        &assign(spec.digest(), &parts.shards[0].cells, None, 0, vec![]),
    )
    .expect("assign");
    let owned = parts.shards[0].owned.len();
    assert_eq!(
        recv_to_coordinator(&mut conn, PATIENT, "assign").expect("assign ok"),
        ToCoordinator::AssignOk { owned }
    );
    let mut other = build_shard(&spec, &parts.shards[1].cells).expect("shard admits");
    let mut mirror = other.snapshot();
    let groups = structure.group_count();
    let (die_sweep, die_group) = (2, 1);
    let mut boundary = Vec::new();
    let mut log: Vec<Vec<(usize, u8)>> = Vec::new();
    for sweep in 0..=die_sweep {
        if sweep == die_sweep {
            boundary = mirror.clone();
        }
        for group in 0..groups {
            if (sweep, group) == (die_sweep, die_group) {
                break;
            }
            let mine = phase(&mut conn, sweep, group);
            other.run_phase(sweep, group);
            let sites = other.owned_sites(group);
            let theirs: Vec<(usize, u8)> = sites
                .iter()
                .copied()
                .zip(other.read_labels(&sites))
                .collect();
            for &(site, label) in mine.iter().chain(&theirs) {
                mirror[site] = label;
            }
            let halo = ToWorker::Halo {
                updates: theirs.clone(),
            };
            send_to_worker(&mut conn, &halo).expect("halo");
            other.apply_updates(&mine).expect("halo applies");
            if sweep == die_sweep {
                log.push(mine.into_iter().chain(theirs).collect());
            }
        }
    }
    let all: Vec<(usize, usize)> = parts.shards.iter().flat_map(|s| s.cells.clone()).collect();
    let adopt = assign(spec.digest(), &all, Some(boundary), die_sweep, log);
    send_to_worker(&mut conn, &adopt).expect("adopt");
    assert_eq!(
        recv_to_coordinator(&mut conn, PATIENT, "assign").expect("assign ok"),
        ToCoordinator::AssignOk {
            owned: structure.sites
        }
    );
    for sweep in die_sweep..spec.iterations {
        let first = if sweep == die_sweep { die_group } else { 0 };
        for group in first..groups {
            for (site, label) in phase(&mut conn, sweep, group) {
                mirror[site] = label;
            }
        }
    }
    assert_eq!(
        mirror, want,
        "the re-pinned worker diverged from the engine"
    );
    send_to_worker(&mut conn, &ToWorker::Finish).expect("finish");
    assert_eq!(
        recv_to_coordinator(&mut conn, PATIENT, "finish").expect("bye"),
        ToCoordinator::Bye
    );
    worker.join().expect("join").expect("worker exits cleanly");
}

#[test]
fn topology_clones_and_equality_are_unchanged() {
    let grid = Grid2D::new(7, 5);
    let first = Topology::from_grid(grid, Neighborhood::FirstOrder);
    let clone = first.clone();
    assert_eq!(clone, first);
    assert_eq!(clone.fingerprint(), first.fingerprint());
    assert_eq!(Topology::from_grid(grid, Neighborhood::FirstOrder), first);
    let second = Topology::from_grid(grid, Neighborhood::SecondOrder);
    assert_ne!(second, first);
    assert_ne!(second.fingerprint(), first.fingerprint());
    // The same graph from an edge list fingerprints equal, and — as
    // before — the lattice layout still takes part in equality.
    let edges: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|s| first.neighbors(s).iter().map(move |&n| (s, n)))
        .filter(|&(s, n)| n > s)
        .collect();
    let flat = Topology::from_edges(grid.len(), &edges).expect("grid edges");
    assert_eq!(flat.fingerprint(), first.fingerprint());
    assert_ne!(flat, first);
    // The fleet's structure holds a clone of the admission's topology.
    let structure = FleetStructure::of(&demo_spec()).expect("structure");
    let demo = Topology::from_grid(Grid2D::new(14, 9), Neighborhood::FirstOrder);
    assert_eq!(structure.topology, demo);
}
