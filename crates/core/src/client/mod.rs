//! The client library (libmemcached equivalent) with the paper's
//! non-blocking API extensions.

pub mod batch;
pub mod onesided;
pub mod request;
pub mod resilience;
pub mod ring;
pub mod runtime;

pub use batch::BatchPolicy;
pub use onesided::DirectPolicy;
pub use request::{Completion, ReqHandle};
pub use resilience::{BackoffSchedule, ResiliencePolicy};
pub use ring::Ring;
pub use runtime::{Client, ClientConfig, ClientError, ClientStats};
