//! # nbkv-fabric — simulated RDMA interconnect
//!
//! A virtual-time model of the paper's network substrate: 56 Gbps FDR
//! InfiniBand accessed either through native RDMA verbs or through the
//! kernel TCP stack (IPoIB). Built entirely on [`nbkv_simrt`]'s
//! discrete-event runtime, so a "2 microsecond" message costs 2
//! microseconds of *virtual* time and ~nothing of real time.
//!
//! ## Model
//!
//! - [`LatencyModel`]: `cost(bytes) = base + bytes/bandwidth` — pure math.
//! - [`Link`]: one direction of a connection; a busy cursor serializes
//!   back-to-back messages at link bandwidth, and `send` returns a
//!   [`SendTicket`] that resolves when the NIC has finished reading the
//!   buffer (local send completion — the thing `bset`/`bget` wait for).
//! - [`Transport`]: profile-aware endpoint that also charges host-side CPU
//!   costs (descriptor posts for RDMA; per-byte kernel copies for IPoIB).
//! - [`MrCache`]: memory-registration cost model with caching — the reason
//!   pre-registered bounce buffers (and hence the `b`-flavoured APIs) exist.
//! - [`QueuePair`]/[`CompletionQueue`]: an ibverbs-flavoured veneer for
//!   code that wants post/poll semantics.
//! - [`Fabric`]: factory tying a profile to a simulation.
//!
//! ## Calibration
//!
//! [`profiles::fdr_rdma`] and [`profiles::ipoib`] carry latency/bandwidth
//! numbers calibrated to the paper's era; [`FabricProfile::scaled`] lets
//! tests run the same code paths at zero cost.

#![warn(missing_docs)]

pub mod fabric;
mod fault;
mod latency;
mod link;
mod mr;
pub mod profiles;
mod transport;
pub mod verbs;

pub use fabric::Fabric;
pub use fault::{FaultPlan, FaultStats};
pub use latency::LatencyModel;
pub use link::{Disconnected, Link, LinkFaultHandle, LinkStats, SendTicket, FRAME_OVERHEAD};
pub use mr::{MrCache, MrKey, MrStats};
pub use profiles::FabricProfile;
pub use transport::{transport_pair, Transport, TransportRx, TransportTx};
pub use verbs::{
    CompletionQueue, NextFor, QueuePair, RemoteWindow, WcOpcode, WindowOutOfBounds, WorkCompletion,
};
