//! The hybrid Memcached-like server: slab storage, hash index, request
//! pipeline.

/// Declares a counters struct whose field list is also its slice of the
/// `stats` wire payload: one big-endian `u64` word per field, in
/// declaration order (`usize` fields are widened on the wire). Encode and
/// decode both expand from that one list, so they cannot disagree.
macro_rules! stats_words {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// Words this struct takes in the `stats` payload.
            pub(crate) const WORDS: usize = [$(stringify!($field)),*].len();

            pub(crate) fn put_words(&self, b: &mut bytes::BytesMut) {
                $(bytes::BufMut::put_u64(b, self.$field as u64);)*
            }

            pub(crate) fn take_words(words: &mut impl Iterator<Item = u64>) -> Self {
                $name {
                    $($field: words.next().expect("payload length checked") as $ty,)*
                }
            }
        }
    };
}

pub mod hashtable;
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
