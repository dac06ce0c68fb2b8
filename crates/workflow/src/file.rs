//! Workflow files: the data passed between tasks.

/// A logical file produced by one task and consumed by others.
///
/// Workflow files are typically small — the paper's motivating datasets
/// average well under a megabyte (Sloan Sky Survey ≈ 1 MB images, genome
/// traces ≈ 190 KB) — and are written once, read many times.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WorkflowFile {
    /// Globally unique logical name (the metadata registry key).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
}

impl WorkflowFile {
    /// Create a file description.
    pub fn new(name: impl Into<String>, size: u64) -> WorkflowFile {
        WorkflowFile {
            name: name.into(),
            size,
        }
    }
}
