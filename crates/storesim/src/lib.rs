//! # nbkv-storesim — simulated SSDs and I/O schemes
//!
//! Virtual-time models of the storage substrate under the paper's hybrid
//! slab manager:
//!
//! - [`SsdDevice`]: a block device with calibrated access latency,
//!   bandwidth, and command-queue parallelism ([`profile::sata_ssd`] /
//!   [`profile::nvme_p3700`]). It is the only holder of stored bytes,
//!   sparsely in RAM.
//! - A write-back page cache with background writeback and kernel-style
//!   dirty throttling, one behind each buffered scheme: "cached"
//!   (OS-buffered) I/O pays a syscall per call, "mmap" I/O a soft fault
//!   per page miss. It tracks which pages are resident and dirty, not
//!   their bytes; [`PageCacheStats`] are its counters.
//! - [`SlabIo`]: one facade over all three schemes keyed by [`IoScheme`],
//!   used by the server's adaptive slab allocator (Figure 5 of the paper).
//!
//! The Figure 4 result — direct I/O worst everywhere, mmap best for small
//! evictions, cached best for large — is a property of these models and is
//! asserted in this crate's tests.

#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod lru;
mod pagecache;
pub mod profile;
pub mod scheme;

pub use device::{DeviceError, DeviceStats, SsdDevice};
pub use fault::{IoOp, SsdFaultPlan, SsdFaultStats};
pub use lru::LruMap;
pub use pagecache::PageCacheStats;
pub use profile::{instant_device, nvme_p3700, sata_ssd, DeviceProfile, HostModel};
pub use scheme::{IoScheme, SlabIo, SlabIoConfig, SlabIoStats};
