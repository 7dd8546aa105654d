//! # nbkv-obs — virtual-time observability
//!
//! The metrics layer threaded through the whole reproduction: because every
//! component runs on one virtual clock ([`nbkv_simrt`]'s discrete-event
//! simulation), every quantity recorded here is **bit-for-bit reproducible**
//! for a fixed configuration and seed. That determinism is what turns the
//! repo's CI regression gate (`scripts/regress.sh`) from a smoke test into
//! an exact-diff check.
//!
//! ## Pieces
//!
//! - [`Histogram`] — log-bucketed latency histogram with *exact integer*
//!   bucket bounds (power-of-two octaves, 8 sub-buckets), so quantiles are
//!   deterministic integers, never interpolated floats.
//! - [`Registry`] — a plain-data bag of named counters, gauges, and
//!   histograms with a sorted, deterministic JSON rendering.
//! - [`ReqTimeline`]/[`PhaseBreakdown`] — the request-lifecycle stamps
//!   (issue → NIC-out → server-recv → comm-done → store-done → complete)
//!   and the per-phase decomposition that sums exactly to end-to-end
//!   latency.
//! - [`PhaseRollup`] — per-phase histograms plus the eviction-overlap
//!   ratio (requests received while a slab flush was in flight).
//! - [`RunManifest`] — the machine-readable record every bench run emits
//!   under `results/manifest/<bench>.json`.
//!
//! This crate is dependency-free (std only). Its [`Json`] writer renders
//! every JSON file the workspace emits (manifests and figure tables), so
//! the golden files' bytes depend on no external serializer.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod trace;

pub use hist::Histogram;
pub use json::Json;
pub use manifest::RunManifest;
pub use metrics::Registry;
pub use trace::{PhaseBreakdown, PhaseRollup, ReqTimeline};
