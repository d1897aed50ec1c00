//! The one batch representation every operator consumes and produces:
//! columns and a lane count, over a layout shared by reference.

use std::rc::Rc;

use orthopt_common::column::{cols_bytes, columns_to_rows, Column};
use orthopt_common::{ColId, Error, Result, Row};

/// A bounded run of lanes flowing through the pipeline, column-major:
/// one [`Column`] per layout position, all `len` lanes long. The layout
/// is shared by reference with the producing operator. This is the one
/// representation every operator speaks; rows exist only at the result
/// edge ([`Batch::into_rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Column ids, positionally matching each column.
    pub cols: Rc<[ColId]>,
    /// Per-column data, positionally matching the layout.
    pub columns: Vec<Column>,
    /// Lane count, kept explicitly: it is the only place a zero-column
    /// batch's cardinality lives.
    pub len: usize,
}

impl Batch {
    /// Builds a batch, checking column count and lengths in debug
    /// builds.
    pub fn from_columns(cols: Rc<[ColId]>, columns: Vec<Column>, len: usize) -> Batch {
        debug_assert_eq!(
            columns.len(),
            cols.len(),
            "batch arity mismatch: layout has {} columns",
            cols.len()
        );
        debug_assert!(
            columns.iter().all(|c| c.len() == len),
            "batch column length mismatch: expected {len} lanes"
        );
        Batch { cols, columns, len }
    }

    /// Checks that the layout and the payload have exactly `width`
    /// columns, each `len` lanes long. Stateful operators call this
    /// before concatenating a batch into their buffers: `Batch`'s
    /// fields are public, so a malformed literal can bypass the
    /// constructor's arity checks and would otherwise corrupt buffered
    /// state silently. Unlike those `debug_assert`s, this runs in
    /// release builds too and reports through [`Error::Internal`] rather
    /// than panicking — a malformed batch aborts the query, not the
    /// process.
    pub fn check_width(&self, width: usize) -> Result<()> {
        if self.cols.len() != width {
            return Err(Error::internal(format!(
                "batch layout width mismatch: expected {width} columns, layout has {}",
                self.cols.len()
            )));
        }
        if self.columns.len() != width {
            return Err(Error::internal(format!(
                "batch column arity mismatch: expected {width} columns, got {}",
                self.columns.len()
            )));
        }
        if let Some(c) = self.columns.iter().find(|c| c.len() != self.len) {
            return Err(Error::internal(format!(
                "batch column length mismatch: expected {} lanes, column has {}",
                self.len,
                c.len()
            )));
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload: `(columns, lane count)`.
    pub fn columns(&self) -> (&[Column], usize) {
        (&self.columns, self.len)
    }

    /// Transposes the batch into rows — for row-oriented consumers at
    /// the edge (a result `Chunk`).
    pub fn into_rows(self) -> Vec<Row> {
        columns_to_rows(&self.columns, self.len)
    }

    /// Consumes the batch into `(columns, lane count)`.
    pub fn into_columns(self) -> (Vec<Column>, usize) {
        (self.columns, self.len)
    }

    /// Bytes charged against memory reservations for this batch:
    /// exactly what the equivalent rows would cost ([`cols_bytes`]
    /// mirrors `rows_bytes`), so budgets mean what they meant when rows
    /// flowed.
    pub fn mem_bytes(&self) -> u64 {
        cols_bytes(&self.columns, self.len)
    }
}

/// Column batches held outside a [`Batch`] — buffered by Sort and the
/// join build, carried across threads by the exchange — as
/// `(columns, lane count)`. [`Column`] is `Arc`-backed, so these are
/// `Send` and share storage with whatever they were sliced from.
pub(crate) type ColumnBatches = Vec<(Vec<Column>, usize)>;

/// Concatenates column batches of `width` columns into one dense batch.
pub(crate) fn concat_batches(
    batches: &[(Vec<Column>, usize)],
    width: usize,
) -> (Vec<Column>, usize) {
    let len = batches.iter().map(|(_, n)| n).sum();
    if let [(columns, _)] = batches {
        return (columns.clone(), len);
    }
    let columns = (0..width)
        .map(|j| {
            let parts: Vec<Column> = batches.iter().map(|(c, _)| c[j].clone()).collect();
            Column::concat(&parts)
        })
        .collect();
    (columns, len)
}

pub(crate) fn rc_cols(cols: &[ColId]) -> Rc<[ColId]> {
    cols.into()
}

pub(crate) fn pos_of(layout: &[ColId], id: ColId) -> Result<usize> {
    layout
        .iter()
        .position(|c| *c == id)
        .ok_or_else(|| Error::internal(format!("column {id} missing from operator layout")))
}

/// The positions of `ids` in `layout`.
pub(crate) fn positions(layout: &[ColId], ids: &[ColId]) -> Result<Vec<usize>> {
    ids.iter().map(|&c| pos_of(layout, c)).collect()
}
