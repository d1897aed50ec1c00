//! Reference interpreter for logical plans — the semantics oracle.
//!
//! Executes a [`RelExpr`] exactly as written: scalar subqueries run per
//! row through mutual recursion with the scalar evaluator (§2.1),
//! `Apply` is a literal per-row loop (§1.3), joins are nested loops, and
//! `SegmentApply` partitions and re-executes. Nothing is rewritten or
//! optimized — which is precisely what makes it a trustworthy oracle for
//! the rewrite and optimizer crates, and a faithful model of the
//! "correlated execution" baseline strategy of §1.1.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use orthopt_common::column::{columns_to_rows, rows_to_columns};
use orthopt_common::{Error, Result, Row, Value};
use orthopt_ir::{AggDef, AggFunc, ApplyKind, GroupKind, JoinKind, RelExpr};
use orthopt_storage::Catalog;

use crate::bindings::Bindings;
use crate::chunk::Chunk;
use crate::eval::{eval, eval_predicate, EvalCtx, PosMap, SubqueryEval};
use crate::pipeline::{pos_of, Batch};

/// The reference interpreter.
pub struct Reference<'a> {
    catalog: &'a Catalog,
}

impl SubqueryEval for Reference<'_> {
    fn eval_rel(&self, rel: &RelExpr, binds: &Bindings) -> Result<Chunk> {
        self.eval(rel, binds)
    }
}

impl<'a> Reference<'a> {
    /// Creates an interpreter over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Reference { catalog }
    }

    /// Evaluates a plan with no outer parameters.
    pub fn run(&self, rel: &RelExpr) -> Result<Chunk> {
        self.eval(rel, &Bindings::new())
    }

    /// Context with the position map hoisted out of the per-row loop —
    /// column lookups are hash probes instead of linear scans.
    fn ctx<'b>(
        &'b self,
        cols: &'b [orthopt_common::ColId],
        pos: &'b PosMap,
        row: &'b [Value],
        binds: &'b Bindings,
    ) -> EvalCtx<'b> {
        EvalCtx {
            cols,
            row,
            binds,
            subq: Some(self),
            pos: Some(pos),
        }
    }

    /// Evaluates a plan under parameter bindings.
    pub fn eval(&self, rel: &RelExpr, binds: &Bindings) -> Result<Chunk> {
        let out_cols = rel.output_col_ids();
        match rel {
            RelExpr::Get(g) => {
                let table = self.catalog.table(g.table);
                let columns = table.columns();
                let rows = (0..table.row_count())
                    .map(|i| g.positions.iter().map(|&p| columns[p].value(i)).collect())
                    .collect();
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::ConstRel { rows, .. } => Ok(Chunk {
                cols: out_cols,
                rows: rows.clone(),
            }),
            RelExpr::Select { input, predicate } => {
                let inp = self.eval(input, binds)?;
                let pm = PosMap::new(&inp.cols);
                let mut rows = Vec::new();
                for r in inp.rows {
                    if eval_predicate(predicate, &self.ctx(&inp.cols, &pm, &r, binds))? {
                        rows.push(r);
                    }
                }
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::Map { input, defs } => {
                let inp = self.eval(input, binds)?;
                let pm = PosMap::new(&inp.cols);
                let mut rows = Vec::with_capacity(inp.len());
                for r in inp.rows {
                    let mut out = r.clone();
                    for d in defs {
                        out.push(eval(&d.expr, &self.ctx(&inp.cols, &pm, &r, binds))?);
                    }
                    rows.push(out);
                }
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::Project { input, cols } => {
                let inp = self.eval(input, binds)?;
                inp.project(cols)
            }
            RelExpr::Join {
                kind,
                left,
                right,
                predicate,
            } => {
                let l = self.eval(left, binds)?;
                let r = self.eval(right, binds)?;
                self.join_loop(*kind, &l, &r, |row, cols, pm| {
                    eval_predicate(predicate, &self.ctx(cols, pm, row, binds))
                })
            }
            RelExpr::Apply { kind, left, right } => {
                let l = self.eval(left, binds)?;
                let right_cols = right.output_col_ids();
                let mut rows = Vec::new();
                for lr in &l.rows {
                    // Bind every outer column — the parameterized
                    // expression picks up whichever it references.
                    let inner_binds = l.cols.iter().fold(binds.clone(), |mut b, c| {
                        let pos = l.col_pos(*c).expect("own layout");
                        b.set(*c, lr[pos].clone());
                        b
                    });
                    let inner = self.eval(right, &inner_binds)?;
                    match kind {
                        ApplyKind::Cross => {
                            for ir in inner.rows {
                                let mut row = lr.clone();
                                row.extend(ir);
                                rows.push(row);
                            }
                        }
                        ApplyKind::LeftOuter => {
                            if inner.is_empty() {
                                let mut row = lr.clone();
                                row.extend(std::iter::repeat_n(Value::Null, right_cols.len()));
                                rows.push(row);
                            } else {
                                for ir in inner.rows {
                                    let mut row = lr.clone();
                                    row.extend(ir);
                                    rows.push(row);
                                }
                            }
                        }
                        ApplyKind::Semi => {
                            if !inner.is_empty() {
                                rows.push(lr.clone());
                            }
                        }
                        ApplyKind::Anti => {
                            if inner.is_empty() {
                                rows.push(lr.clone());
                            }
                        }
                    }
                }
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::SegmentApply {
                input,
                segment_cols,
                inner,
            } => {
                let inp = self.eval(input, binds)?;
                // Partition preserving first-occurrence order.
                let mut order: Vec<Vec<Value>> = Vec::new();
                let mut segments: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
                for r in &inp.rows {
                    let key = inp.key_of(r, segment_cols)?;
                    segments
                        .entry(key.clone())
                        .or_insert_with(|| {
                            order.push(key);
                            Vec::new()
                        })
                        .push(r.clone());
                }
                let inner_cols = inner.output_col_ids();
                let mut rows = Vec::new();
                for key in order {
                    let seg_rows = segments.remove(&key).expect("segment present");
                    let segment = Rc::new(Batch::from_columns(
                        inp.cols.as_slice().into(),
                        rows_to_columns(&seg_rows, inp.cols.len()),
                        seg_rows.len(),
                    ));
                    let seg_binds = binds.with_segment(segment);
                    let result = self.eval(inner, &seg_binds)?;
                    for ir in result.rows {
                        // Output = segment key values ++ inner columns not
                        // already among the segmenting columns.
                        let mut row: Row = Vec::with_capacity(out_cols.len());
                        for oc in &out_cols {
                            if let Some(i) = segment_cols.iter().position(|c| c == oc) {
                                row.push(key[i].clone());
                            } else {
                                let pos = inner_cols
                                    .iter()
                                    .position(|c| c == oc)
                                    .ok_or_else(|| Error::internal("segment output column"))?;
                                row.push(ir[pos].clone());
                            }
                        }
                        rows.push(row);
                    }
                }
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::SegmentRef { cols } => {
                let segment = binds
                    .current_segment()
                    .ok_or_else(|| Error::internal("SegmentRef outside SegmentApply"))?
                    .clone();
                let columns = cols
                    .iter()
                    .map(|(_, src)| Ok(segment.columns[pos_of(&segment.cols, *src)?].clone()))
                    .collect::<Result<Vec<_>>>()?;
                let rows = columns_to_rows(&columns, segment.len);
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::GroupBy {
                kind,
                input,
                group_cols,
                aggs,
            } => {
                let inp = self.eval(input, binds)?;
                let pm = PosMap::new(&inp.cols);
                let mut feed = Vec::with_capacity(inp.len());
                for r in &inp.rows {
                    let key = inp.key_of(r, group_cols)?;
                    let args = aggs
                        .iter()
                        .map(|a| {
                            a.arg
                                .as_ref()
                                .map(|e| eval(e, &self.ctx(&inp.cols, &pm, r, binds)))
                                .transpose()
                        })
                        .collect::<Result<Vec<_>>>()?;
                    feed.push((key, args));
                }
                let rows = group_rows(*kind, aggs, feed)?;
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::UnionAll {
                left,
                right,
                left_map,
                right_map,
                ..
            } => {
                let l = self.eval(left, binds)?;
                let r = self.eval(right, binds)?;
                let mut rows = Vec::with_capacity(l.len() + r.len());
                let lpos: Vec<usize> = left_map
                    .iter()
                    .map(|c| l.require_pos(*c))
                    .collect::<Result<_>>()?;
                let rpos: Vec<usize> = right_map
                    .iter()
                    .map(|c| r.require_pos(*c))
                    .collect::<Result<_>>()?;
                for row in &l.rows {
                    rows.push(lpos.iter().map(|&p| row[p].clone()).collect());
                }
                for row in &r.rows {
                    rows.push(rpos.iter().map(|&p| row[p].clone()).collect());
                }
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::Except {
                left,
                right,
                right_map,
            } => {
                let l = self.eval(left, binds)?;
                let r = self.eval(right, binds)?;
                let rpos: Vec<usize> = right_map
                    .iter()
                    .map(|c| r.require_pos(*c))
                    .collect::<Result<_>>()?;
                let mut counts: HashMap<Row, usize> = HashMap::new();
                for row in &r.rows {
                    let key: Row = rpos.iter().map(|&p| row[p].clone()).collect();
                    *counts.entry(key).or_insert(0) += 1;
                }
                let mut rows = Vec::new();
                for row in l.rows {
                    match counts.get_mut(&row) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ => rows.push(row),
                    }
                }
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
            RelExpr::Max1Row { input } => {
                let inp = self.eval(input, binds)?;
                if inp.len() > 1 {
                    return Err(Error::SubqueryReturnedMoreThanOneRow);
                }
                Ok(inp)
            }
            RelExpr::Enumerate { input, .. } => {
                let inp = self.eval(input, binds)?;
                let rows = inp
                    .rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut r)| {
                        r.push(Value::Int(i as i64));
                        r
                    })
                    .collect();
                Ok(Chunk {
                    cols: out_cols,
                    rows,
                })
            }
        }
    }

    fn join_loop(
        &self,
        kind: JoinKind,
        l: &Chunk,
        r: &Chunk,
        mut pred: impl FnMut(&[Value], &[orthopt_common::ColId], &PosMap) -> Result<bool>,
    ) -> Result<Chunk> {
        let mut combined_cols = l.cols.clone();
        combined_cols.extend(r.cols.iter().copied());
        let pm = PosMap::new(&combined_cols);
        let mut rows = Vec::new();
        for lr in &l.rows {
            let mut matched = false;
            for rr in &r.rows {
                let mut row = lr.clone();
                row.extend(rr.iter().cloned());
                if pred(&row, &combined_cols, &pm)? {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => rows.push(row),
                        JoinKind::LeftSemi | JoinKind::LeftAnti => break,
                    }
                }
            }
            match kind {
                JoinKind::LeftOuter if !matched => {
                    let mut row = lr.clone();
                    row.extend(std::iter::repeat_n(Value::Null, r.cols.len()));
                    rows.push(row);
                }
                JoinKind::LeftSemi if matched => rows.push(lr.clone()),
                JoinKind::LeftAnti if !matched => rows.push(lr.clone()),
                _ => {}
            }
        }
        let cols = match kind {
            JoinKind::Inner | JoinKind::LeftOuter => combined_cols,
            JoinKind::LeftSemi | JoinKind::LeftAnti => l.cols.clone(),
        };
        Ok(Chunk { cols, rows })
    }
}

/// One aggregate's running value in one group.
struct Running {
    func: AggFunc,
    /// Rows (COUNT(*)) or non-NULL inputs seen.
    count: i64,
    /// SUM / MIN / MAX so far.
    value: Option<Value>,
    /// AVG's running sum.
    sum: f64,
}

impl Running {
    fn new(func: AggFunc) -> Running {
        Running {
            func,
            count: 0,
            value: None,
            sum: 0.0,
        }
    }

    /// Feeds one row's argument (`None`: COUNT(*)); NULLs are skipped.
    fn step(&mut self, arg: Option<&Value>) -> Result<()> {
        let Some(v) = arg else {
            self.count += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::CountStar | AggFunc::Count => {}
            AggFunc::Sum => {
                self.value = Some(match self.value.take() {
                    None => v.clone(),
                    Some(total) => total.add(v)?,
                });
            }
            AggFunc::Min | AggFunc::Max => {
                let wanted = if self.func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                if self
                    .value
                    .as_ref()
                    .is_none_or(|best| v.sql_cmp(best) == Some(wanted))
                {
                    self.value = Some(v.clone());
                }
            }
            AggFunc::Avg => match v {
                Value::Int(i) => self.sum += *i as f64,
                Value::Float(f) => self.sum += *f,
                other => {
                    return Err(Error::TypeMismatch(format!(
                        "avg over non-numeric {other:?}"
                    )))
                }
            },
        }
        Ok(())
    }

    fn result(self) -> Value {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Value::Int(self.count),
            AggFunc::Avg if self.count == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.sum / self.count as f64),
            _ => self.value.unwrap_or(Value::Null),
        }
    }
}

/// The oracle's own grouping, row at a time: a first-seen `HashMap`
/// from key row to group, one [`Running`] value per group and
/// aggregate, fed in input order — so the first error in row order is
/// the one raised. It shares nothing with the engine's group table.
/// `feed` is, per input row, its key and each aggregate's argument
/// (`None` for COUNT(*)); the result is one row per group, key values
/// then aggregate results.
fn group_rows(
    kind: GroupKind,
    aggs: &[AggDef],
    feed: Vec<(Row, Vec<Option<Value>>)>,
) -> Result<Vec<Row>> {
    type Group = (Row, Vec<Running>, Vec<HashSet<Value>>);
    let mut index: HashMap<Row, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (key, args) in feed {
        let g = match index.get(&key) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), groups.len());
                let running = aggs.iter().map(|a| Running::new(a.func)).collect();
                groups.push((key, running, vec![HashSet::new(); aggs.len()]));
                groups.len() - 1
            }
        };
        let (_, running, seen) = &mut groups[g];
        for (a, arg) in args.iter().enumerate() {
            let repeat = |v: &Value| !v.is_null() && !seen[a].insert(v.clone());
            if aggs[a].distinct && arg.as_ref().is_some_and(repeat) {
                continue;
            }
            running[a].step(arg.as_ref())?;
        }
    }
    if groups.is_empty() && kind == GroupKind::Scalar {
        return Ok(vec![aggs.iter().map(|a| a.func.on_empty()).collect()]);
    }
    Ok(groups
        .into_iter()
        .map(|(mut row, running, _)| {
            row.extend(running.into_iter().map(Running::result));
            row
        })
        .collect())
}
