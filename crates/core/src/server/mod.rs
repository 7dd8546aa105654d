//! The hybrid Memcached-like server: slab storage, hash index, request
//! pipeline.

pub mod onesided;
pub mod runtime;
pub mod slab;
pub mod store;

pub use onesided::{Descriptor, OneSidedConfig, OneSidedIndex, OneSidedStats};
pub use runtime::{Server, ServerConfig, ServerStats, StatsSnapshot};
pub use store::{
    HybridStore, IoPolicy, OpOutcome, PromotePolicy, RecoveryReport, ReplHook, ReplUpdate,
    StoreConfig, StoreKind, StoreStats,
};
