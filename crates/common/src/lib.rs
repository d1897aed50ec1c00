#![warn(missing_docs)]
//! Shared foundation for the `orthopt` workspace.
//!
//! This crate defines the value system (SQL types, NULL, three-valued
//! logic), row representation, identifier newtypes and the error type used
//! across the whole stack. It re-exports the workspace's deterministic
//! PRNG (`synccheck::prng`) for the TPC-H data generator and the
//! property-test harnesses.
//!
//! Everything here is deliberately engine-agnostic: the IR, optimizer and
//! executor crates all speak in terms of these types.

pub mod column;
pub mod error;
pub mod governor;
pub mod hash;
pub mod ids;
pub mod row;
pub mod value;

pub use column::{
    cols_bytes, columns_to_rows, rows_to_columns, Bitmap, ColData, Column, ColumnData,
};
pub use error::{Error, Result};
pub use governor::{
    AdmissionController, AdmissionGuard, AdmissionStats, CancellationToken, MemoryPool,
    MemoryReservation, QueryContext,
};
pub use hash::GroupTable;
pub use ids::{ColId, ColIdGen, TableId};
pub use orthopt_synccheck::prng::{self, Prng};
pub use row::Row;
pub use value::{DataType, Value, ValueRef};
