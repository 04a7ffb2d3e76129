//! # mogs-bench — the experiment harness
//!
//! Shared implementation behind the `repro` binary (one subcommand per
//! table/figure of the paper — see DESIGN.md's experiment index) and the
//! workspace integration tests. Each experiment lives in
//! [`experiments`] and returns plain data structures; [`report`] renders
//! them as aligned text tables so `repro <id>` output can be diffed
//! against EXPERIMENTS.md.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::missing_panics_doc))]

pub mod experiments;
pub mod report;
