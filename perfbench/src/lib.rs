//! End-to-end and per-layer benchmark of the Cohmeleon reproduction.
//!
//! Four workloads, each in its own process: `paper-grid` (fig9's grid,
//! learning cells and the modeled headline), `dma-stream` (the simulator
//! with the cache hierarchy bypassed), `fleet-sweep` (tiny cells through
//! a loopback queen and worker) and `serve-decide` (batched decisions
//! from a loopback server). An untraced pass gives the end-to-end
//! metrics; a traced pass records spans around the calls into each
//! layer's public functions and gives the per-layer metrics. See
//! `README.md` beside this crate.

pub mod bench;
pub mod fleet;
pub mod metrics;
pub mod procfs;
pub mod serve;
pub mod sim;
pub mod timed;
pub mod trace;
