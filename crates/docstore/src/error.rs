//! Error types for the document store.

use std::fmt;

/// Errors produced by datastore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A query document was malformed (unknown operator, wrong operand type...).
    BadQuery(String),
    /// An update document was malformed.
    BadUpdate(String),
    /// A document violated a constraint (duplicate `_id`, unique index...).
    DuplicateKey(String),
    /// The referenced collection does not exist.
    NoSuchCollection(String),
    /// The referenced index does not exist.
    NoSuchIndex(String),
    /// Document rejected by validation (not an object, nesting too deep...).
    InvalidDocument(String),
    /// Persistence layer failure (I/O, corrupt journal...).
    Persistence(String),
    /// MapReduce job failed.
    MapReduce(String),
    /// A structure would pass what its offsets can address (an index run
    /// past 2^32 key bytes or ids).
    Capacity(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadQuery(m) => write!(f, "bad query: {m}"),
            StoreError::BadUpdate(m) => write!(f, "bad update: {m}"),
            StoreError::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            StoreError::NoSuchCollection(m) => write!(f, "no such collection: {m}"),
            StoreError::NoSuchIndex(m) => write!(f, "no such index: {m}"),
            StoreError::InvalidDocument(m) => write!(f, "invalid document: {m}"),
            StoreError::Persistence(m) => write!(f, "persistence error: {m}"),
            StoreError::MapReduce(m) => write!(f, "mapreduce error: {m}"),
            StoreError::Capacity(m) => write!(f, "capacity exceeded: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias used throughout the store.
pub type Result<T> = std::result::Result<T, StoreError>;
