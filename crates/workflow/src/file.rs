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

    /// Whether this counts as a "small file" in the paper's sense: no
    /// point striping it (64 MB, the HDFS default block size, is the
    /// paper's cutoff).
    pub fn is_small(&self) -> bool {
        self.size < 64 * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_file_cutoff_is_hdfs_block_size() {
        assert!(WorkflowFile::new("tiny", 190 * 1024).is_small());
        assert!(WorkflowFile::new("edge", 64 * 1024 * 1024 - 1).is_small());
        assert!(!WorkflowFile::new("big", 64 * 1024 * 1024).is_small());
    }
}
