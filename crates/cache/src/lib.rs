//! # geometa-cache — in-memory versioned cache tier
//!
//! A stand-in for the Azure Managed Cache service the paper builds its
//! metadata registry on (§V): an in-memory key-value store with
//!
//! * **versioned entries** and an **optimistic concurrency model** — writers
//!   never hold locks across an operation; a conditional put fails with
//!   [`CacheError::VersionMismatch`] if the entry changed underneath them
//!   (paper: "Optimistic Concurrency Model of Azure Cache, which does not
//!   pose locks on the registry object during a metadata operation");
//! * **sharded concurrent storage** — N shards each behind a
//!   `parking_lot::RwLock`, keyed by a fast non-cryptographic hash, so
//!   many clients can operate concurrently;
//! * **a primary/replica pair** ([`HaCache`]) with automatic promotion on
//!   primary failure and repopulation of a fresh replica (paper §III-B:
//!   "If a failure occurs with the primary cache, the replica cache is
//!   automatically promoted to primary and a new replica is created and
//!   populated");
//! * **batch operations**, because the registry's lazy update propagation
//!   ships *batches* of entries between datacenters (paper §III-D).
//!
//! The store is deliberately *not* a POSIX metadata store: the paper keeps
//! per-file metadata minimal ("we only store the information necessary to
//! locate files and we don't keep additional POSIX type metadata").
//!
//! ```
//! use geometa_cache::{ShardedStore, PutCondition};
//! use bytes::Bytes;
//!
//! let store = ShardedStore::with_default_shards();
//! let v1 = store.put("file1", Bytes::from_static(b"site0"), 100).unwrap();
//! assert_eq!(v1, 1);
//! // Optimistic concurrency: a stale conditional write is rejected.
//! let stale = store.put_if(
//!     "file1",
//!     PutCondition::VersionIs(99),
//!     Bytes::from_static(b"site1"),
//!     101,
//! );
//! assert!(stale.is_err());
//! let hit = store.get("file1").unwrap();
//! assert_eq!(hit.version, 1);
//! ```

mod entry;
pub mod hash;
mod key;
mod replica;
mod store;

pub use entry::{CacheEntry, CacheError, PutCondition};
pub use hash::{
    fx_hash_bytes, fx_hash_str, FxBuildHasher, FxHashMap, FxHashSet, FxHasher64,
    PrehashedBuildHasher,
};
pub use key::Key;
pub use replica::HaCache;
pub use store::{BatchError, ShardedStore};
