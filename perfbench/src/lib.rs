//! Two-clock benchmark of the CAF-over-OpenSHMEM simulator: host wall time
//! and simulated virtual time, end to end and per layer, on four workloads.
//! See `README.md` in this directory for why each workload exists and which
//! metric each layer should move.

pub mod host;
pub mod measure;
pub mod reference;
pub mod spans;
pub mod workloads;
