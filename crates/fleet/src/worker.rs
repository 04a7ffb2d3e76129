//! The worker side of the fleet protocol.
//!
//! A worker is deliberately dumb: one runner, no recovery decisions.
//! Its job rides the launch (`fleet-worker`'s `argv[2]`, [`SPEC_ENV`], a
//! thread's closure), so it admits as it connects, while the coordinator
//! admits its mirror. An `Assign` names the job by digest (a mismatch is
//! a typed `Protocol` error), pins the runner to cells, seats the
//! boundary plane and replays the completed phases, so migration and
//! adoption (a re-pin) are the *same* code path as bring-up.
//!
//! Then `Phase` runs the owned chunks of one color and answers with its
//! owned sites of that color (listed once, at `Assign`); `Halo` imports
//! the foreign labels this shard's gathers read. A `Halo` site or label
//! out of range fails the worker with the engine's typed `apply_updates`
//! error.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use mogs_vision::job::JobDescription;

use crate::error::{FleetError, FleetResult};
use crate::exec::build_shard;
use crate::wire::{recv_to_worker, send_to_coordinator, Conn, ToCoordinator, ToWorker};

/// Environment variable the self-exec launcher sets: when present, the
/// process is a worker and must connect to its value (an address in
/// [`connect`]'s format) instead of running its own `main`.
pub const WORKER_ENV: &str = "MOGS_FLEET_WORKER";

/// The self-exec launcher's second variable: the job, as [`JobDescription::encode`] text.
pub const SPEC_ENV: &str = "MOGS_FLEET_SPEC";

/// How long a worker waits for the next coordinator message before
/// concluding the coordinator is gone and exiting. Generous: the
/// coordinator drives phases continuously, so minutes of silence means
/// an orphaned process, not a slow sweep.
pub const WORKER_IDLE: Duration = Duration::from_secs(120);

/// Connects to a coordinator address: `tcp:<host>:<port>`.
///
/// # Errors
///
/// [`FleetError::Protocol`] for an unrecognized scheme,
/// [`FleetError::Io`] when the connection fails.
pub fn connect(addr: &str) -> FleetResult<Conn> {
    let Some(tcp) = addr.strip_prefix("tcp:") else {
        return Err(FleetError::Protocol {
            reason: format!("worker address {addr:?} has no tcp: scheme"),
        });
    };
    TcpStream::connect(tcp)
        .map(Conn::tcp)
        .map_err(|e| FleetError::io(format!("connecting to {tcp}"), e))
}

/// Admits the job `spec` describes (its [`JobDescription::encode`] text),
/// then runs the worker protocol over an established connection until
/// the coordinator says `Finish` (or the stream dies).
///
/// # Errors
///
/// Any [`FleetError`] from the spec, from admission or from the wire; a
/// best-effort `Fault` message is sent before returning so the
/// coordinator can log *why*, though it never needs to trust it.
pub fn run_worker(conn: &mut Conn, spec: &str) -> FleetResult<()> {
    match drive(conn, spec) {
        Ok(()) => Ok(()),
        Err(err) => {
            // Best-effort courtesy; the coordinator treats the
            // subsequent EOF as the ground truth either way.
            let _ = send_to_coordinator(
                conn,
                &ToCoordinator::Fault {
                    reason: err.to_string(),
                },
            );
            Err(err)
        }
    }
}

fn drive(conn: &mut Conn, spec: &str) -> FleetResult<()> {
    let spec = JobDescription::parse(spec)?;
    let digest = spec.digest();
    let mut exec = build_shard(&spec, &[])?;
    // Owned sites per group, in chunk order; `None` until an `Assign`.
    let mut owned: Option<Vec<Vec<usize>>> = None;
    let unassigned = |what: &str| FleetError::Protocol {
        reason: format!("{what} before assign"),
    };
    loop {
        match recv_to_worker(conn, Some(WORKER_IDLE))? {
            ToWorker::Assign {
                digest: named,
                cells,
                plane,
                resume_sweep,
                replay,
            } => {
                if named != digest {
                    return Err(FleetError::Protocol {
                        reason: format!(
                            "assign names spec digest {named:016x}, this worker was launched \
                             with {digest:016x}"
                        ),
                    });
                }
                exec.pin(&cells)?;
                if let Some(plane) = plane {
                    exec.seat(&plane)?;
                }
                // Catch up through the completed phases of the resume
                // sweep: our own chunks re-run (same RNG streams, same
                // boundary plane — bit-identical), then the rest of the
                // group arrives from the log.
                for (group, updates) in replay.iter().enumerate() {
                    exec.run_phase(resume_sweep, group);
                    exec.apply_updates(updates)?;
                }
                let sites: Vec<Vec<usize>> = (0..exec.group_count())
                    .map(|g| exec.owned_sites(g))
                    .collect();
                let count = sites.iter().map(Vec::len).sum();
                owned = Some(sites);
                send_to_coordinator(conn, &ToCoordinator::AssignOk { owned: count })?;
            }
            ToWorker::Phase { sweep, group } => {
                let sites = owned.as_ref().ok_or_else(|| unassigned("phase"))?;
                let sites = sites.get(group).ok_or_else(|| FleetError::Protocol {
                    reason: format!("phase names group {group}, the job has {}", sites.len()),
                })?;
                exec.run_phase(sweep, group);
                let labels = exec.read_labels(sites);
                let updates: Vec<(usize, u8)> = sites.iter().copied().zip(labels).collect();
                send_to_coordinator(
                    conn,
                    &ToCoordinator::PhaseDone {
                        sweep,
                        group,
                        updates,
                    },
                )?;
            }
            ToWorker::Halo { updates } => {
                owned.as_ref().ok_or_else(|| unassigned("halo"))?;
                exec.apply_updates(&updates)?;
            }
            ToWorker::Finish => {
                send_to_coordinator(conn, &ToCoordinator::Bye)?;
                return Ok(());
            }
        }
    }
}

/// Full worker entry point: connect, admit `spec`, run, report.
///
/// # Errors
///
/// See [`connect`] and [`run_worker`].
pub fn worker_main(addr: &str, spec: &str) -> FleetResult<()> {
    let mut conn = connect(addr)?;
    run_worker(&mut conn, spec)
}

/// The self-exec hook: when [`WORKER_ENV`] is set, the current process
/// is a fleet worker for the job in [`SPEC_ENV`] — run the protocol and
/// return `true` (the caller must then exit without running its own
/// logic). Binaries that may act as self-exec fleet hosts call this
/// first thing in `main`.
///
/// # Errors
///
/// Worker-side failures, after the protocol ran. The variable being
/// unset is not an error (`Ok(false)`).
pub fn maybe_run_worker() -> FleetResult<bool> {
    let Ok(addr) = std::env::var(WORKER_ENV) else {
        return Ok(false);
    };
    // A missing spec faults after connecting: typed, not a no-show.
    let spec = std::env::var(SPEC_ENV).unwrap_or_default();
    match worker_main(&addr, &spec) {
        Ok(()) => Ok(true),
        Err(err) => {
            // Keep the diagnostic on the worker's stderr; the
            // coordinator only sees the socket close.
            let _ = writeln!(std::io::stderr(), "fleet worker failed: {err}");
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{recv_to_coordinator, send_to_worker};
    use mogs_engine::Backend;
    use mogs_vision::job::{JobDescription, Workload};
    use std::net::TcpListener;

    fn spec() -> JobDescription {
        JobDescription {
            workload: Workload::Demo {
                width: 6,
                height: 4,
                labels: 3,
            },
            backend: Backend::Softmax,
            iterations: 4,
            threads: 2,
            seed: 0xBEE,
            burn_in: 1,
        }
    }

    /// Drives a worker thread over loopback TCP through a full
    /// assign/phase/halo/finish conversation.
    #[test]
    fn worker_protocol_end_to_end() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = format!("tcp:{}", listener.local_addr().expect("addr"));
        let worker = std::thread::spawn(move || worker_main(&addr, &spec().encode()));
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = Conn::tcp(stream);
        let deadline = Some(Duration::from_secs(10));

        // Assign the whole job as one shard.
        let structure = crate::exec::FleetStructure::of(&spec()).expect("structure");
        let cells: Vec<(usize, usize)> = (0..structure.group_count())
            .flat_map(|g| (0..structure.cells[g].len()).map(move |c| (g, c)))
            .collect();
        send_to_worker(
            &mut conn,
            &ToWorker::Assign {
                digest: spec().digest(),
                cells: cells.clone(),
                plane: None,
                resume_sweep: 0,
                replay: vec![],
            },
        )
        .expect("assign");
        let reply = recv_to_coordinator(&mut conn, deadline, "assign").expect("assign ok");
        assert_eq!(reply, ToCoordinator::AssignOk { owned: 24 });

        // One full sweep of phases.
        let mut plane = vec![0u8; 24];
        for group in 0..structure.group_count() {
            send_to_worker(&mut conn, &ToWorker::Phase { sweep: 0, group }).expect("phase");
            let ToCoordinator::PhaseDone {
                sweep,
                group: g,
                updates,
            } = recv_to_coordinator(&mut conn, deadline, "phase").expect("phase done")
            else {
                panic!("expected phase done");
            };
            assert_eq!((sweep, g), (0, group));
            for (site, label) in updates {
                plane[site] = label;
            }
            send_to_worker(&mut conn, &ToWorker::Halo { updates: vec![] }).expect("halo");
        }

        // Match against the engine's state after one sweep: reuse the
        // shard path in-process for the expectation.
        let mut reference = build_shard(&spec(), &cells).expect("reference");
        for group in 0..reference.group_count() {
            reference.run_phase(0, group);
        }
        assert_eq!(
            plane,
            reference.snapshot(),
            "worker sweep must be bit-identical"
        );

        send_to_worker(&mut conn, &ToWorker::Finish).expect("finish");
        let bye = recv_to_coordinator(&mut conn, deadline, "finish").expect("bye");
        assert_eq!(bye, ToCoordinator::Bye);
        worker
            .join()
            .expect("worker thread")
            .expect("worker exits cleanly");
    }

    #[test]
    fn phase_before_assign_is_a_protocol_fault() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = format!("tcp:{}", listener.local_addr().expect("addr"));
        let worker = std::thread::spawn(move || worker_main(&addr, &spec().encode()));
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = Conn::tcp(stream);
        send_to_worker(&mut conn, &ToWorker::Phase { sweep: 0, group: 0 }).expect("phase");
        let reply =
            recv_to_coordinator(&mut conn, Some(Duration::from_secs(10)), "fault").expect("fault");
        let ToCoordinator::Fault { reason } = reply else {
            panic!("expected fault, got {reply:?}");
        };
        assert!(reason.contains("phase before assign"), "{reason}");
        assert!(worker.join().expect("join").is_err());
    }

    #[test]
    fn bad_addresses_are_typed() {
        assert_eq!(
            connect("carrier-pigeon:coop")
                .expect_err("scheme")
                .variant(),
            "protocol"
        );
        assert_eq!(
            connect("unix:/tmp/fleet.sock")
                .expect_err("a retired scheme")
                .variant(),
            "protocol"
        );
        assert_eq!(
            connect("tcp:not-an-address")
                .expect_err("no such host")
                .variant(),
            "io"
        );
    }
}
