//! `kgpip-serve` — a concurrent, batched prediction service over
//! immutable KGpip artifacts.
//!
//! The core crate's [`TrainedModel`] is an immutable value: every
//! prediction entry point takes `&self`, so one `Arc<TrainedModel>` can
//! answer from any number of threads without locks. This crate supplies
//! the serving machinery around that artifact:
//!
//! * a worker pool draining a shared request queue in coalesced batches
//!   ([`ServeHandle`]); its width is also the parallelism of every served
//!   model, so one request's generation fans out over idle cores,
//! * a content-addressed result cache (table fingerprint + task + K +
//!   seed + model epoch) with stamp-LRU eviction,
//! * atomic model hot-swap: replace the served artifact behind traffic
//!   with [`ServeHandle::swap_model`], with epoch-tagged cache keys so
//!   stale entries are never replayed.
//!
//! The house invariant holds throughout: served predictions are
//! **bit-identical** to calling [`TrainedModel::predict_skeletons`]
//! directly, at any worker count and batch size — concurrency, batching,
//! and caching change cost, never answers.
//!
//! ```no_run
//! use kgpip_serve::prelude::*;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = TrainedModel::open("model.kgps")?;
//! let server = ServeHandle::start(model.share(), ServeConfig::default().with_workers(4));
//! # let table: DataFrame = todo!();
//! let response = server.predict(ServeRequest { table, task: Task::Binary, k: 3, seed: 0 })?;
//! println!("{} skeletons via {}", response.skeletons.len(), response.neighbour);
//! server.shutdown();
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod server;

pub use cache::CacheStats;
pub use server::{
    Pending, ServeConfig, ServeError, ServeHandle, ServeRequest, ServeResponse, ServeStats,
};

/// One-stop imports for serving: everything from [`kgpip::prelude`] plus
/// the serving types.
pub mod prelude {
    pub use crate::{
        CacheStats, Pending, ServeConfig, ServeError, ServeHandle, ServeRequest, ServeResponse,
        ServeStats,
    };
    pub use kgpip::prelude::*;
}

#[doc(no_inline)]
pub use kgpip::TrainedModel;
