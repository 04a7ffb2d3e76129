//! Experiment implementations, one module per DESIGN.md experiment-index
//! entry.

pub mod ablation;
pub mod anneal;
pub mod audit;
pub mod convergence;
pub mod diag;
pub mod energy;
pub mod faults;
pub mod fig7;
pub mod paper_tables;
pub mod proto_ratio;
pub mod quality;
pub mod restore;
pub mod table1;
pub mod wearout;
