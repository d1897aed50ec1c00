#![warn(missing_docs)]
//! Shared foundation for the `orthopt` workspace.
//!
//! This crate defines the value system (SQL types, NULL, three-valued
//! logic), row representation, identifier newtypes, the error type used
//! across the whole stack, and a small deterministic PRNG used by the
//! TPC-H data generator and the property-test harnesses.
//!
//! Everything here is deliberately engine-agnostic: the IR, optimizer and
//! executor crates all speak in terms of these types.

pub mod column;
pub mod error;
pub mod governor;
pub mod hash;
pub mod ids;
pub mod prng;
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
pub use prng::Prng;
pub use row::Row;
pub use value::{DataType, Value, ValueRef};
