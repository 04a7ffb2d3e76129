//! `fleet-worker <addr> <spec>`: connects to a coordinator (`tcp:host:port`),
//! admits `spec` (`JobDescription::encode` text) and speaks the shard protocol
//! until told to finish. Spawned by `Launcher::Program`; exits nonzero on any
//! protocol or shard failure so process supervisors see it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(addr) = args.next() else {
        let _ = writeln!(
            std::io::stderr(),
            "usage: fleet-worker <tcp:host:port> <spec>"
        );
        return ExitCode::from(2);
    };
    // A missing spec fails admission after connecting: the coordinator
    // gets a typed fault rather than a no-show.
    let spec = args.next().unwrap_or_default();
    match mogs_fleet::worker_main(&addr, &spec) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            let _ = writeln!(std::io::stderr(), "fleet worker failed: {err}");
            ExitCode::FAILURE
        }
    }
}
