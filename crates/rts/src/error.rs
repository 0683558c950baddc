//! Error type for the run-time system interface.

use std::fmt;

/// Result alias used throughout the crate.
pub type RtsResult<T> = Result<T, RtsError>;

/// Errors raised by RTS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtsError {
    /// A rank argument was out of range for the domain.
    BadRank { rank: usize, size: usize },
    /// A peer endpoint was dropped while we were sending to or receiving
    /// from it (the parallel program is tearing down unevenly).
    Disconnected { peer: usize },
    /// Counts passed to a v-collective did not match the domain size.
    BadCounts { expected: usize, got: usize },
    /// Buffer lengths disagreed with the counts metadata.
    LengthMismatch { expected: usize, got: usize },
    /// The collective-consistency verifier detected that one computing
    /// thread issued a different collective call than the others: the
    /// divergence that would otherwise be a silent deadlock. `thread`
    /// is the first divergent rank; `mine`/`theirs` describe the two
    /// call sites (the reference rank's and the divergent rank's).
    CollectiveMismatch {
        thread: usize,
        mine: String,
        theirs: String,
    },
    /// A collective was asked to involve a rank the domain membership
    /// has confirmed dead — either the caller itself (it must stop
    /// participating) or the collective's root (its slot in the
    /// rendezvous round stays empty).
    DeadRank { rank: usize },
    /// An internal invariant failed (a bug in the RTS or its caller,
    /// surfaced as an error instead of a panic on library paths).
    Internal(String),
}

impl fmt::Display for RtsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtsError::BadRank { rank, size } => {
                write!(f, "rank {rank} out of range for domain of size {size}")
            }
            RtsError::Disconnected { peer } => {
                write!(f, "peer rank {peer} disconnected")
            }
            RtsError::BadCounts { expected, got } => {
                write!(f, "expected {expected} per-rank counts, got {got}")
            }
            RtsError::LengthMismatch { expected, got } => {
                write!(f, "buffer length {got} does not match expected {expected}")
            }
            RtsError::CollectiveMismatch {
                thread,
                mine,
                theirs,
            } => {
                write!(
                    f,
                    "collective mismatch: thread {thread} issued {theirs} while this \
                     thread issued {mine}; an SPMD invocation must be called by all \
                     computing threads in the same order"
                )
            }
            RtsError::DeadRank { rank } => {
                write!(
                    f,
                    "rank {rank} has been confirmed dead by the domain membership"
                )
            }
            RtsError::Internal(msg) => write!(f, "internal runtime error: {msg}"),
        }
    }
}

impl std::error::Error for RtsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_ranks() {
        let e = RtsError::BadRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("rank 9"));
        assert!(e.to_string().contains("size 4"));
    }
}
