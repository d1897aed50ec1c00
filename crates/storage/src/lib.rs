#![warn(missing_docs)]
//! In-memory storage layer: tables, declared keys, hash indexes,
//! per-column statistics and a catalog.
//!
//! A table is stored as one typed [`orthopt_common::Column`] per schema
//! column — the layout the executor's batches use, so a scan is a
//! window of the stored columns — and index postings are lane ids.
//!
//! This is the substrate under the optimizer and executor. Declared keys
//! feed the IR's key derivation (identities (7)–(9) of the paper require
//! a key on the outer relation); hash indexes enable the *re-introduction
//! of correlated execution* as index-lookup joins (§4); statistics feed
//! cardinality estimation in the cost-based optimizer (§4).

pub mod catalog;
pub mod index;
pub mod stats;
pub mod table;

pub use catalog::Catalog;
pub use index::{Index, Postings};
pub use stats::{ColumnStats, TableStats};
pub use table::{ColumnDef, Table, TableDef};
