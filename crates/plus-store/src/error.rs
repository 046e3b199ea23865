//! Store-level errors.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::record::RecordId;

/// Errors raised by the store, codec, and service.
///
/// `#[non_exhaustive]`: the service layer will keep growing variants
/// (stale-epoch rejection, per-consumer quotas, …) without a breaking
/// change; downstream matches need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A record id does not exist.
    UnknownRecord(RecordId),
    /// Graph-level rejection (duplicate edge, self-loop, …).
    Graph(surrogate_core::error::Error),
    /// The snapshot bytes are malformed.
    Codec(CodecError),
    /// Filesystem failure while persisting, loading, or logging. Carries
    /// the file or directory involved when known, so recovery tooling can
    /// report *which* snapshot or WAL segment failed.
    Io {
        /// The file or directory involved, when known.
        path: Option<PathBuf>,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A durable operation (checkpoint, WAL append) was requested of a
    /// purely in-memory store.
    NotDurable,
    /// An earlier write-ahead-log write failed, so the on-disk log may
    /// end in a torn frame; further durable appends are refused until the
    /// store is reopened (which truncates the torn tail).
    WalPoisoned,
    /// A store directory holds no decodable snapshot to recover from.
    NoSnapshot {
        /// The directory that was searched.
        dir: PathBuf,
    },
    /// An account was requested for a predicate the consumer does not
    /// satisfy.
    NotAuthorized {
        /// The consumer's name.
        consumer: String,
        /// The requested predicate's index.
        predicate: u16,
    },
    /// A protection setup cannot be represented as store policy.
    UnsupportedPolicy(&'static str),
    /// A predicate id outside the store's lattice was passed to an
    /// append or policy call.
    UnknownPredicate(u16),
    /// A replicated record or snapshot does not continue this store's
    /// history: it is stamped for a different clock than the local tail
    /// (an out-of-order stream, or a primary whose history diverged).
    ReplicationGap {
        /// The clock the next replicated record must carry.
        expected: u64,
        /// The clock the record actually carried.
        found: u64,
    },
    /// A replicated frame carried a fencing term lower than one this
    /// store has already observed: its sender was deposed by a promotion
    /// and must not be allowed to extend (and thereby fork) history.
    DeposedPrimary {
        /// The stale term the frame carried.
        term: u64,
        /// The fencing term this store has observed.
        current: u64,
    },
    /// A write was routed to the wrong shard of a partitioned
    /// deployment: the record id that determines its placement (`from`
    /// for edges, the governed `node` for policy) belongs to another
    /// shard's residue class. The client should retry against the
    /// owning shard.
    WrongShard {
        /// The id that routed the write.
        id: RecordId,
        /// The index of the shard that owns it.
        owner: u32,
    },
    /// A gather feed delivered data inconsistent with the merge: a
    /// snapshot stamped for the wrong partition, a lattice differing
    /// from the one the other shards declared, or a corrupt chunk.
    ShardMismatch {
        /// The shard slot of the offending feed.
        slot: u32,
        /// What was inconsistent.
        reason: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownRecord(id) => write!(f, "unknown record {id:?}"),
            StoreError::Graph(e) => write!(f, "graph error: {e}"),
            StoreError::Codec(e) => write!(f, "snapshot codec error: {e}"),
            StoreError::Io {
                path: Some(path),
                source,
            } => write!(f, "io error at {}: {source}", path.display()),
            StoreError::Io { path: None, source } => write!(f, "io error: {source}"),
            StoreError::NotDurable => {
                write!(f, "store is in-memory only (no write-ahead log attached)")
            }
            StoreError::WalPoisoned => write!(
                f,
                "write-ahead log poisoned by an earlier write failure; reopen the store to recover"
            ),
            StoreError::NoSnapshot { dir } => write!(
                f,
                "no decodable snapshot found in store directory {}",
                dir.display()
            ),
            StoreError::NotAuthorized {
                consumer,
                predicate,
            } => write!(
                f,
                "consumer {consumer:?} does not satisfy predicate #{predicate}"
            ),
            StoreError::UnsupportedPolicy(reason) => {
                write!(f, "unsupported policy: {reason}")
            }
            StoreError::UnknownPredicate(id) => {
                write!(f, "predicate #{id} does not exist in the store's lattice")
            }
            StoreError::ReplicationGap { expected, found } => write!(
                f,
                "replicated record for clock {found} does not continue local history at clock {expected}"
            ),
            StoreError::DeposedPrimary { term, current } => write!(
                f,
                "replicated frame carries fencing term {term}, but term {current} has already been observed: its sender was deposed"
            ),
            StoreError::WrongShard { id, owner } => write!(
                f,
                "record {} is owned by shard {owner}; retry the write there",
                id.0
            ),
            StoreError::ShardMismatch { slot, reason } => {
                write!(f, "shard feed {slot} is inconsistent: {reason}")
            }
        }
    }
}

impl StoreError {
    /// An I/O error with the file or directory it concerns.
    pub fn io_at(path: impl AsRef<Path>, source: std::io::Error) -> Self {
        StoreError::Io {
            path: Some(path.as_ref().to_path_buf()),
            source,
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Graph(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<surrogate_core::error::Error> for StoreError {
    fn from(e: surrogate_core::error::Error) -> Self {
        StoreError::Graph(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io {
            path: None,
            source: e,
        }
    }
}

/// Snapshot decoding failures.
///
/// `#[non_exhaustive]`: the snapshot format is versioned and decoding can
/// grow failure modes; downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The magic header is wrong — not a PLUS snapshot.
    BadMagic,
    /// Unsupported snapshot version.
    UnsupportedVersion(u16),
    /// Bytes ended before the structure did.
    Truncated,
    /// Checksum mismatch: corruption or tampering.
    ChecksumMismatch,
    /// An enum tag is out of range.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string is not valid UTF-8.
    InvalidUtf8,
    /// Snapshot references an out-of-range id.
    DanglingReference,
    /// A WAL frame declares a payload length beyond the sanity bound —
    /// corruption, not a real frame.
    FrameTooLarge(u32),
    /// An in-memory count exceeds what its wire field can carry, so the
    /// message cannot be encoded without silently truncating the count
    /// (and desynchronizing the stream for the peer decoding it).
    CountOverflow {
        /// What was being counted.
        what: &'static str,
        /// The actual count.
        count: usize,
        /// The largest count the wire field can carry.
        max: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a PLUS snapshot (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CodecError::Truncated => write!(f, "snapshot truncated"),
            CodecError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid {what} tag {tag}")
            }
            CodecError::InvalidUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            CodecError::DanglingReference => write!(f, "snapshot references a missing id"),
            CodecError::FrameTooLarge(len) => {
                write!(f, "wal frame declares an implausible {len}-byte payload")
            }
            CodecError::CountOverflow { what, count, max } => {
                write!(f, "{count} {what} exceed the wire field's maximum of {max}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(StoreError::UnknownRecord(RecordId(3))
            .to_string()
            .contains("unknown record"));
        assert!(CodecError::BadMagic.to_string().contains("magic"));
        assert!(CodecError::InvalidTag {
            what: "marking",
            tag: 9
        }
        .to_string()
        .contains("marking"));
    }

    #[test]
    fn conversions_wrap() {
        let e: StoreError = CodecError::Truncated.into();
        assert!(matches!(e, StoreError::Codec(_)));
        let e: StoreError = std::io::Error::other("x").into();
        assert!(matches!(e, StoreError::Io { path: None, .. }));
    }

    #[test]
    fn io_errors_carry_path_context() {
        let e = StoreError::io_at("/some/dir/wal-0.wal", std::io::Error::other("disk gone"));
        let text = e.to_string();
        assert!(text.contains("/some/dir/wal-0.wal"), "{text}");
        assert!(text.contains("disk gone"), "{text}");
        assert!(matches!(e, StoreError::Io { path: Some(_), .. }));
    }
}
