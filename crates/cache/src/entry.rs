//! Cache entries, write conditions and error types.

use bytes::Bytes;
use std::fmt;

/// A versioned cache entry.
///
/// The value is opaque bytes — the registry layer serializes its own
/// `RegistryEntry` into it, mirroring the paper's design where "an entry can
/// contain any metadata provided it is serializable and includes a unique
/// identifier".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Opaque serialized value.
    pub value: Bytes,
    /// Monotonically increasing per-key version; 1 on first write.
    pub version: u64,
    /// Caller-supplied logical timestamp of the first write.
    pub created_at: u64,
    /// Caller-supplied logical timestamp of the latest write.
    pub modified_at: u64,
}

/// Condition attached to a conditional put (optimistic concurrency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutCondition {
    /// Write unconditionally (create or overwrite).
    Always,
    /// Only create; fail with [`CacheError::AlreadyExists`] if present.
    Absent,
    /// Only overwrite if the current version matches exactly.
    VersionIs(u64),
}

/// Errors from cache operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// Conditional put with `VersionIs(expected)` found a different state.
    /// `actual` is `None` when the key does not exist at all.
    VersionMismatch {
        /// The version the caller expected.
        expected: u64,
        /// The version actually present (None = key absent).
        actual: Option<u64>,
    },
    /// Conditional put with `Absent` found the key already present.
    AlreadyExists {
        /// Version of the existing entry.
        version: u64,
    },
    /// A get/remove addressed a key that is not present.
    NotFound,
    /// The cache instance has been marked failed (for failure injection).
    Unavailable,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::VersionMismatch { expected, actual } => {
                write!(f, "version mismatch: expected {expected}, found {actual:?}")
            }
            CacheError::AlreadyExists { version } => {
                write!(f, "key already exists at version {version}")
            }
            CacheError::NotFound => write!(f, "key not found"),
            CacheError::Unavailable => write!(f, "cache instance unavailable"),
        }
    }
}

impl std::error::Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = CacheError::VersionMismatch {
            expected: 3,
            actual: Some(5),
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(CacheError::NotFound.to_string().contains("not found"));
        assert!(CacheError::AlreadyExists { version: 2 }
            .to_string()
            .contains("version 2"));
        assert!(CacheError::Unavailable.to_string().contains("unavailable"));
    }

    #[test]
    fn entry_clone_is_cheap_bytes_share() {
        let e = CacheEntry {
            value: Bytes::from(vec![1u8; 1024]),
            version: 1,
            created_at: 0,
            modified_at: 0,
        };
        let c = e.clone();
        // Bytes clones share the same backing buffer.
        assert_eq!(e.value.as_ptr(), c.value.as_ptr());
    }
}
