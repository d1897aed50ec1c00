//! Parameter bindings for correlated (parameterized) execution.
//!
//! `Apply` evaluates its inner expression once per outer row with the
//! outer row's columns available as *parameters* (§1.3); `SegmentApply`
//! additionally exposes the current *segment* as a table-valued
//! parameter (§3.4). Both live here.

use std::collections::HashMap;
use std::rc::Rc;

use orthopt_common::{ColId, Value};

use crate::pipeline::Batch;

/// Scalar parameters plus a stack of table-valued segment parameters,
/// each segment's lanes as a [`Batch`].
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    params: HashMap<ColId, Value>,
    segments: Vec<Rc<Batch>>,
}

impl Bindings {
    /// Empty bindings.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Looks up a scalar parameter.
    pub fn get(&self, id: ColId) -> Option<&Value> {
        self.params.get(&id)
    }

    /// Sets a scalar parameter.
    pub fn set(&mut self, id: ColId, v: Value) {
        self.params.insert(id, v);
    }

    /// Returns a copy extended with the values of `ids` taken from `row`
    /// under `layout` — the per-outer-row step of `Apply`.
    pub fn extended(&self, layout: &[ColId], row: &[Value], ids: &[ColId]) -> Bindings {
        let mut out = self.clone();
        for id in ids {
            if let Some(pos) = layout.iter().position(|c| c == id) {
                out.params.insert(*id, row[pos].clone());
            }
        }
        out
    }

    /// Returns a copy with `segment` pushed as the innermost table-valued
    /// parameter.
    pub fn with_segment(&self, segment: Rc<Batch>) -> Bindings {
        let mut out = self.clone();
        out.segments.push(segment);
        out
    }

    /// Pushes `segment` as the innermost table-valued parameter in
    /// place — the streaming engine's counterpart of [`with_segment`]
    /// (no bindings clone per segment).
    ///
    /// [`with_segment`]: Bindings::with_segment
    pub fn push_segment(&mut self, segment: Rc<Batch>) {
        self.segments.push(segment);
    }

    /// Pops the innermost table-valued parameter.
    pub fn pop_segment(&mut self) -> Option<Rc<Batch>> {
        self.segments.pop()
    }

    /// The innermost segment, if executing under a `SegmentApply`.
    pub fn current_segment(&self) -> Option<&Rc<Batch>> {
        self.segments.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_binds_selected_columns() {
        let b = Bindings::new();
        let layout = [ColId(1), ColId(2)];
        let row = [Value::Int(10), Value::Int(20)];
        let e = b.extended(&layout, &row, &[ColId(2)]);
        assert_eq!(e.get(ColId(2)), Some(&Value::Int(20)));
        assert_eq!(e.get(ColId(1)), None);
        // Original untouched.
        assert_eq!(b.get(ColId(2)), None);
    }

    #[test]
    fn segments_nest() {
        let b = Bindings::new();
        let empty = |c: ColId| {
            let column = orthopt_common::column::Column::from_values(Vec::new());
            Rc::new(Batch::from_columns([c].into(), vec![column], 0))
        };
        let (s1, s2) = (empty(ColId(1)), empty(ColId(2)));
        let b1 = b.with_segment(s1);
        let b2 = b1.with_segment(s2);
        assert_eq!(*b2.current_segment().unwrap().cols, [ColId(2)]);
        assert_eq!(*b1.current_segment().unwrap().cols, [ColId(1)]);
        assert!(b.current_segment().is_none());
    }
}
