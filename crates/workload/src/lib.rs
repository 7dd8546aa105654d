//! # nbkv-workload — OSU-HiBD-style workload generation and measurement
//!
//! The benchmark substrate of the reproduction: web-scale key-value
//! workloads in the shape of the OSU HiBD Benchmark (OHB) used by the
//! paper — configurable key/value sizes, Zipf/uniform access, read:write
//! mixes, a bursty block-I/O mode, and a simulated backend database that
//! charges the miss penalty.
//!
//! - [`Zipf`] — exact table-based Zipf sampler.
//! - [`KeyChooser`]/[`ValuePool`] — key streams and reusable value buffers.
//! - [`OpMix`] — read:write ratios (read-only, write-heavy 50:50, ...).
//! - [`BackendDb`] — the database behind the cache tier (2 ms penalty).
//! - [`run_workload`]/[`WorkloadSpec`]/[`RunReport`] — drive a client and
//!   measure latency, throughput, six-stage breakdowns, and overlap%.
//! - [`run_bursty`]/[`BurstSpec`] — the Listing-2 block I/O pattern.

#![warn(missing_docs)]

pub mod backend;
pub mod bursty;
pub mod histogram;
pub mod keygen;
pub mod mix;
pub mod runner;
pub mod zipf;

pub use backend::BackendDb;
pub use bursty::{run_bursty, BurstReport, BurstSpec};
pub use histogram::{LatencyRecorder, StageAggregator, StageBreakdown};
pub use keygen::{AccessPattern, KeyChooser, KeySpace, ValuePool};
pub use mix::{OpKind, OpMix};
pub use runner::{preload, run_workload, RunReport, WorkloadSpec};
pub use zipf::Zipf;
