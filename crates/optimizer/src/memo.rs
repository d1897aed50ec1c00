//! The memo: an AND-OR DAG of equivalence groups over interned logical
//! expressions, in which a [`Group`] is identified by *what it computes*,
//! not by the first spelling inserted (DESIGN §14). Expressions are
//! canonicalized and interned by structural hash; an inner-join group is
//! also keyed by its join signature (leaves, equality closure, remaining
//! conjuncts), so every association of one relation is one group; an
//! alternative that turns out to be another group's *merges* the two
//! (union-find, parents re-interned); logical properties ([`Props`]) are
//! derived once per group.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::rc::Rc;

use orthopt_common::{ColId, ColIdGen};
use orthopt_ir::props::{self, col_eq, EqClasses};
use orthopt_ir::{AggDef, ColumnMeta, GroupKind, JoinKind, RelExpr, ScalarExpr};

use crate::cardinality::Estimator;

/// Safety valve on total memo expressions: exploration stops for good
/// when the memo outgrows it. No corpus query comes near (Q2, the
/// largest, explores a few thousand); it bounds a pathological input.
pub(crate) const MAX_EXPRS: usize = 20_000;

/// Index of a group in the memo. Ids of merged groups stay valid: every
/// accessor resolves them to the surviving group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub usize);

/// Identity of an interned expression; stable across group merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub usize);

/// A logical expression in the memo.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct MExpr {
    /// Canonical operator with stubbed-out inputs.
    pub shell: RelExpr,
    /// Input groups, in `children()` order.
    pub children: Vec<GroupId>,
}

// `PartialEq` is only partial through `GetMeta::row_count`, which is
// never NaN.
impl Eq for MExpr {}

impl MExpr {
    /// The (left, right) readings of a two-input operator: both
    /// orientations of an inner join (stored once), the one of anything
    /// else.
    pub fn sides(&self) -> impl Iterator<Item = (GroupId, GroupId)> {
        let (l, r) = (self.children[0], self.children[1]);
        let inner = matches!(self.as_join(), Some((JoinKind::Inner, _)));
        [(l, r), (r, l)].into_iter().take(1 + usize::from(inner))
    }

    /// Kind and predicate, when this is a join.
    pub fn as_join(&self) -> Option<(JoinKind, &ScalarExpr)> {
        match &self.shell {
            RelExpr::Join {
                kind, predicate, ..
            } => Some((*kind, predicate)),
            _ => None,
        }
    }

    /// Grouping columns and aggregates, when this is a GroupBy of `kind`.
    pub fn as_groupby(&self, kind: GroupKind) -> Option<(&[ColId], &[AggDef])> {
        match &self.shell {
            RelExpr::GroupBy {
                kind: k,
                group_cols,
                aggs,
                ..
            } if *k == kind => Some((group_cols, aggs)),
            _ => None,
        }
    }
}

fn eq_ordered(a: ColId, b: ColId) -> ScalarExpr {
    ScalarExpr::eq(ScalarExpr::col(a.min(b)), ScalarExpr::col(a.max(b)))
}

/// Canonical conjunct list: equality operands ordered, sorted (by first
/// column, then structural hash), deduplicated.
fn canon_conjuncts(conjuncts: impl IntoIterator<Item = ScalarExpr>) -> Vec<ScalarExpr> {
    let mut out: Vec<ScalarExpr> = conjuncts
        .into_iter()
        .map(|c| col_eq(&c).map_or(c, |(a, b)| eq_ordered(a, b)))
        .collect();
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    out.sort_by_cached_key(|c| (c.cols().first().copied(), hasher.hash_one(c)));
    out.dedup();
    out
}

/// Logical properties of a group, derived once from its first expression.
#[derive(Debug, Clone)]
pub struct Props {
    /// Output columns (an alternative may produce a superset).
    pub cols: Vec<ColumnMeta>,
    /// Output column ids.
    pub out: BTreeSet<ColId>,
    /// Candidate keys ([`props::keys`]).
    pub keys: Vec<BTreeSet<ColId>>,
    /// Estimated output cardinality.
    pub card: f64,
    /// Column equalities that hold on every output row.
    pub eq: EqClasses,
}

/// What an inner-join group computes, however it is associated: the
/// non-join groups it joins, the column equalities in force (closed), and
/// the remaining conjuncts applied above the leaves.
#[derive(Debug, Clone, PartialEq, Hash)]
struct JoinSig {
    leaves: Vec<GroupId>,
    eq: EqClasses,
    others: Vec<ScalarExpr>,
}

// See `MExpr`: scalar expressions hold no NaN-comparable floats here.
impl Eq for JoinSig {}

/// One equivalence group.
#[derive(Debug)]
pub struct Group {
    /// Alternative logical expressions; the first one defines `props`.
    pub exprs: Vec<ExprId>,
    /// Logical properties.
    pub props: Props,
    sig: Option<JoinSig>,
    /// Expressions that have this group as an input.
    parents: Vec<ExprId>,
    /// Clock value when the group last gained an alternative.
    changed_at: usize,
}

/// A rule-output tree: new operators over existing groups.
#[derive(Debug, Clone)]
pub enum RTree {
    /// Reference to an existing group.
    Ref(GroupId),
    /// New operator (inputs stubbed in the shell) over subtrees.
    Op(Box<RelExpr>, Vec<RTree>),
}

/// Stands in for an input inside a shell; the real inputs are the
/// expression's child groups.
pub(crate) fn stub() -> Box<RelExpr> {
    Box::new(RelExpr::ConstRel {
        cols: vec![],
        rows: vec![],
    })
}

impl RTree {
    /// A new operator: `shell`'s inputs are overwritten by `children`.
    pub fn op(shell: RelExpr, children: Vec<RTree>) -> RTree {
        RTree::Op(Box::new(shell), children)
    }

    /// `left ⋈ right`.
    pub fn join(
        kind: JoinKind,
        predicate: ScalarExpr,
        left: impl Into<RTree>,
        right: impl Into<RTree>,
    ) -> RTree {
        let shell = RelExpr::Join {
            kind,
            left: stub(),
            right: stub(),
            predicate,
        };
        RTree::op(shell, vec![left.into(), right.into()])
    }

    /// `σ_predicate(input)`; the input itself under a TRUE predicate.
    pub fn select(predicate: ScalarExpr, input: impl Into<RTree>) -> RTree {
        if predicate.is_true() {
            return input.into();
        }
        let shell = RelExpr::Select {
            input: stub(),
            predicate,
        };
        RTree::op(shell, vec![input.into()])
    }

    /// A GroupBy of the given flavour over `input`; the grouping columns
    /// are a set.
    pub fn groupby(
        kind: GroupKind,
        mut group_cols: Vec<ColId>,
        aggs: &[AggDef],
        input: impl Into<RTree>,
    ) -> RTree {
        group_cols.sort();
        group_cols.dedup();
        let shell = RelExpr::GroupBy {
            kind,
            input: stub(),
            group_cols,
            aggs: aggs.to_vec(),
        };
        RTree::op(shell, vec![input.into()])
    }
}

impl From<GroupId> for RTree {
    fn from(gid: GroupId) -> RTree {
        RTree::Ref(gid)
    }
}

/// Decomposes a real tree into nested operators.
impl From<RelExpr> for RTree {
    fn from(mut rel: RelExpr) -> RTree {
        let inputs = rel.children_mut().into_iter();
        let children = inputs.map(|slot| std::mem::replace(slot, *stub()).into());
        let children = children.collect();
        RTree::op(rel, children)
    }
}

/// What the rules remember between firings.
///
/// Columns they introduce (local-aggregate partials, the pushed counts of
/// §3.2) are minted once per (aggregate, purpose): the partial of an
/// aggregate is one column wherever its LocalGroupBy ends up, so a rule
/// firing over another input names the same column and the memo can see
/// the outputs are one expression. And a join relation's orders are
/// enumerated into a group once, whichever of its expressions fires first.
#[derive(Debug)]
pub struct RuleState {
    first: ColId,
    gen: ColIdGen,
    minted: HashMap<(ColId, &'static str), ColId>,
    enumerated: HashSet<(GroupId, JoinSig)>,
    /// Set when a relation had more join orders than the memo has room
    /// for under [`MAX_EXPRS`]: the valve, tripped before the fact.
    pub(crate) overflowed: bool,
}

impl RuleState {
    /// State for a query whose own columns are `used`.
    pub fn after(used: impl IntoIterator<Item = ColId>) -> RuleState {
        let mut gen = ColIdGen::after(used);
        RuleState {
            first: gen.fresh(),
            gen,
            minted: HashMap::new(),
            enumerated: HashSet::new(),
            overflowed: false,
        }
    }

    /// The `purpose` column derived from aggregate output `of`.
    pub fn column(&mut self, of: ColId, purpose: &'static str) -> ColId {
        let fresh = || self.gen.fresh();
        *self.minted.entry((of, purpose)).or_insert_with(fresh)
    }

    /// Whether a rule minted `col` (the query's own columns are older).
    pub fn minted(&self, col: ColId) -> bool {
        col > self.first
    }
}

/// An interned expression and its standing in the memo.
#[derive(Debug)]
struct Slot {
    expr: Rc<MExpr>,
    /// Owning group (`None`: dropped as a duplicate).
    owner: Option<GroupId>,
    /// `None` for an expression producing exactly its group's columns:
    /// it has one owner memo-wide, so meeting it elsewhere is a merge. A
    /// column-superset alternative is only ever unique within the group
    /// it was added to, named here.
    scope: Option<GroupId>,
    /// Clock value when rules last fired on it (0: never).
    fired: usize,
}

/// The memo.
#[derive(Debug, Default)]
pub struct Memo {
    /// Statistics and selectivity arithmetic behind [`Props::card`].
    pub est: Estimator,
    groups: Vec<Group>,
    /// Union-find: `forward[g] == g` for a surviving group.
    forward: Vec<usize>,
    slots: Vec<Slot>,
    index: HashMap<(Option<GroupId>, Rc<MExpr>), ExprId>,
    joins: HashMap<JoinSig, GroupId>,
    live_groups: usize,
    live_exprs: usize,
    clock: usize,
}

impl Memo {
    /// Creates an empty memo estimating with `est`.
    pub fn new(est: Estimator) -> Self {
        Memo {
            est,
            ..Memo::default()
        }
    }

    /// Number of (surviving) groups.
    pub fn group_count(&self) -> usize {
        self.live_groups
    }

    /// Number of (live) logical expressions across groups.
    pub fn expr_count(&self) -> usize {
        self.live_exprs
    }

    /// Number of expression ids handed out so far; ids below it are
    /// valid arguments to [`Memo::expr`] and [`Memo::owner`].
    pub fn expr_ids(&self) -> usize {
        self.slots.len()
    }

    /// Claims an expression for a round of rule application: whether it
    /// is its first, or `None` when it has fired and no input group has
    /// gained an alternative since (the two-level rules match on those).
    /// Keyed on expression identity, so a merge moves expressions between
    /// groups without re-firing them.
    pub fn begin_firing(&mut self, id: ExprId) -> Option<bool> {
        let since = self.slots[id.0].fired;
        let changed = |&c: &GroupId| self.group(c).changed_at > since;
        if since != 0 && !self.expr(id).children.iter().any(changed) {
            return None;
        }
        self.clock += 1;
        self.slots[id.0].fired = self.clock;
        Some(since == 0)
    }

    /// The surviving group `id` now denotes.
    pub fn find(&self, id: GroupId) -> GroupId {
        let mut g = id.0;
        while self.forward[g] != g {
            g = self.forward[g];
        }
        GroupId(g)
    }

    /// Access a group.
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[self.find(id).0]
    }

    /// A group's logical properties.
    pub fn props(&self, id: GroupId) -> &Props {
        &self.group(id).props
    }

    /// A group's alternatives.
    pub fn exprs(&self, id: GroupId) -> impl Iterator<Item = &MExpr> + '_ {
        self.group(id).exprs.iter().map(|&e| self.expr(e))
    }

    /// A group's defining (first) expression.
    pub fn first(&self, id: GroupId) -> &MExpr {
        self.expr(self.group(id).exprs[0])
    }

    /// An interned expression.
    pub fn expr(&self, id: ExprId) -> &MExpr {
        &self.slots[id.0].expr
    }

    /// The group an expression belongs to; `None` once a merge has found
    /// it to duplicate another expression.
    pub fn owner(&self, id: ExprId) -> Option<GroupId> {
        self.slots[id.0].owner.map(|g| self.find(g))
    }

    /// Inserts a full logical tree, sharing identical subtrees, and
    /// returns its group.
    pub fn insert_tree(&mut self, rel: RelExpr) -> GroupId {
        self.intern(rel.into())
    }

    /// Adds an alternative expression (from a rule) into an existing
    /// group; returns true when it was new there. An alternative that is
    /// already another group's — under the same columns — merges the two
    /// groups instead.
    pub fn add_expr(&mut self, gid: GroupId, rtree: RTree) -> bool {
        let RTree::Op(shell, children) = rtree else {
            panic!("top of a rule output must be an operator");
        };
        let children = children.into_iter().map(|c| self.intern(c)).collect();
        let (expr, sig) = self.canonical(*shell, children);
        let gid = self.find(gid);
        // A column-superset alternative is valid here, where the extra
        // columns go unread, but says nothing about which relation the
        // group is: it is no reason to merge, nor a join signature.
        let wide = self.width(&expr) != self.props(gid).out.len();
        let expr = Rc::new(expr);
        if let Some(&known) = self.index.get(&(wide.then_some(gid), Rc::clone(&expr))) {
            let other = self.owner(known).expect("indexed expressions are live");
            self.merge(gid, other);
            return false;
        }
        if let Some(sig) = sig.filter(|_| !wide) {
            match self.joins.get(&sig) {
                Some(&other) => self.merge(gid, other),
                None => {
                    self.joins.insert(sig.clone(), gid);
                }
            }
            let gid = self.find(gid);
            let group = &mut self.groups[gid.0];
            if group.sig.is_none() {
                group.props.eq.absorb(&sig.eq);
                group.sig = Some(sig);
            }
        }
        self.push_expr(self.find(gid), expr, wide);
        true
    }

    /// Interns a rule-output subtree: an operator already known returns
    /// its group, an inner join of a known relation joins that group,
    /// anything else opens a group.
    fn intern(&mut self, rtree: RTree) -> GroupId {
        let (shell, children) = match rtree {
            RTree::Ref(gid) => return self.find(gid),
            RTree::Op(shell, children) => (shell, children),
        };
        let children = children.into_iter().map(|c| self.intern(c)).collect();
        let (expr, sig) = self.canonical(*shell, children);
        let expr = Rc::new(expr);
        if let Some(&known) = self.index.get(&(None, Rc::clone(&expr))) {
            return self.owner(known).expect("indexed expressions are live");
        }
        let known = sig.as_ref().and_then(|s| self.joins.get(s));
        let gid = match known {
            Some(&known) => self.find(known),
            None => {
                let gid = GroupId(self.groups.len());
                if let Some(sig) = &sig {
                    self.joins.insert(sig.clone(), gid);
                }
                self.groups.push(Group {
                    exprs: Vec::new(),
                    props: self.derive_props(&expr, sig.as_ref()),
                    sig,
                    parents: Vec::new(),
                    changed_at: 0,
                });
                self.forward.push(gid.0);
                self.live_groups += 1;
                gid
            }
        };
        self.push_expr(gid, expr, false);
        gid
    }

    fn push_expr(&mut self, gid: GroupId, expr: Rc<MExpr>, wide: bool) {
        let id = ExprId(self.slots.len());
        for &c in &expr.children {
            let c = self.find(c);
            self.groups[c.0].parents.push(id);
        }
        let scope = wide.then_some(gid);
        self.index.insert((scope, Rc::clone(&expr)), id);
        self.slots.push(Slot {
            expr,
            owner: Some(gid),
            scope,
            fired: 0,
        });
        self.live_exprs += 1;
        self.clock += 1;
        let group = &mut self.groups[gid.0];
        group.exprs.push(id);
        group.changed_at = self.clock;
    }

    /// Number of columns an expression produces; its group may expose
    /// fewer (a group's alternatives may produce a column superset, which
    /// the group's consumers ignore).
    fn width(&self, expr: &MExpr) -> usize {
        let kids = expr.children.iter().map(|&c| &self.props(c).out);
        expr.shell.op_width(&kids.collect::<Vec<_>>())
    }

    /// Unifies two groups found to compute the same relation, then
    /// re-interns the absorbed group's parents: a parent that now equals
    /// an expression of another group unifies those two in turn.
    fn merge(&mut self, a: GroupId, b: GroupId) {
        let mut work = vec![(a, b)];
        while let Some((a, b)) = work.pop() {
            let (a, b) = (self.find(a), self.find(b));
            if a == b {
                continue;
            }
            // The older group survives, so a group's defining expression
            // always has inputs older than itself.
            let (keep, gone) = (a.min(b), a.max(b));
            self.forward[gone.0] = keep.0;
            self.live_groups -= 1;
            self.clock += 1;
            let absorbed = &mut self.groups[gone.0];
            let exprs = std::mem::take(&mut absorbed.exprs);
            let parents = std::mem::take(&mut absorbed.parents);
            let sig = absorbed.sig.take();
            let group = &mut self.groups[keep.0];
            group.exprs.extend(exprs);
            group.changed_at = self.clock;
            group.sig = group.sig.take().or(sig);
            for p in parents {
                let Some(owner) = self.owner(p) else {
                    continue;
                };
                // All of the survivor's alternatives are news to this parent.
                self.slots[p.0].fired = 0;
                let old = Rc::clone(&self.slots[p.0].expr);
                let scope = self.slots[p.0].scope;
                if self.index.get(&(scope, Rc::clone(&old))) == Some(&p) {
                    self.index.remove(&(scope, Rc::clone(&old)));
                }
                let children = old.children.iter().map(|&c| self.find(c)).collect();
                let new = Rc::new(self.canonical(old.shell.clone(), children).0);
                let scope = scope.map(|_| owner);
                self.slots[p.0].expr = Rc::clone(&new);
                self.slots[p.0].scope = scope;
                self.groups[keep.0].parents.push(p);
                match self.index.get(&(scope, Rc::clone(&new))) {
                    None => {
                        self.index.insert((scope, new), p);
                    }
                    Some(&twin) => {
                        let other = self.owner(twin).expect("indexed expressions are live");
                        self.groups[owner.0].exprs.retain(|&e| e != p);
                        self.slots[p.0].owner = None;
                        self.live_exprs -= 1;
                        work.push((owner, other));
                    }
                }
            }
        }
    }

    /// Canonical form of one operator over input groups, plus the join
    /// signature when it is an inner join.
    fn canonical(
        &self,
        mut shell: RelExpr,
        mut children: Vec<GroupId>,
    ) -> (MExpr, Option<JoinSig>) {
        let mut sig = None;
        match &mut shell {
            RelExpr::Join {
                kind: JoinKind::Inner,
                predicate,
                ..
            } => {
                // An inner join is stored once, smaller group first; rules
                // and the planner read it in both orientations
                // ([`MExpr::sides`]).
                children.sort();
                let (l, r) = (self.group(children[0]), self.group(children[1]));
                let produced = |x: ColId| l.props.out.contains(&x) || r.props.out.contains(&x);
                let mut eq = l.props.eq.clone();
                eq.absorb(&r.props.eq);
                eq.add_predicate(predicate, produced);
                let is_edge =
                    |c: &ScalarExpr| col_eq(c).is_some_and(|(a, b)| produced(a) && produced(b));
                let mut others = predicate.conjuncts();
                others.retain(|c| !is_edge(c));
                let others = canon_conjuncts(others);
                let mut conjuncts = connecting_edges(&eq, &l.props, &r.props);
                conjuncts.extend(others.iter().cloned());
                *predicate = ScalarExpr::and(conjuncts);
                let mut leaves = self.leaves(children[0]);
                leaves.extend(self.leaves(children[1]));
                leaves.sort();
                let below = [l, r].into_iter().filter_map(|g| g.sig.as_ref());
                let below = below.flat_map(|s| s.others.iter().cloned());
                let others = canon_conjuncts(others.into_iter().chain(below));
                sig = Some(JoinSig { leaves, eq, others });
            }
            RelExpr::Select { predicate, .. } | RelExpr::Join { predicate, .. } => {
                *predicate = ScalarExpr::and(canon_conjuncts(predicate.conjuncts()));
            }
            // Grouping and segmenting columns are sets.
            RelExpr::GroupBy {
                group_cols: cols, ..
            }
            | RelExpr::SegmentApply {
                segment_cols: cols, ..
            } => {
                cols.sort();
                cols.dedup();
            }
            _ => {}
        }
        (MExpr { shell, children }, sig)
    }

    /// The non-join groups a group joins (itself when it is not a join).
    fn leaves(&self, gid: GroupId) -> Vec<GroupId> {
        match &self.group(gid).sig {
            Some(sig) => sig.leaves.iter().map(|&g| self.find(g)).collect(),
            None => vec![self.find(gid)],
        }
    }

    fn derive_props(&self, expr: &MExpr, sig: Option<&JoinSig>) -> Props {
        let kids: Vec<&Props> = expr.children.iter().map(|&c| self.props(c)).collect();
        let kid_cols = kids.iter().map(|k| k.cols.clone()).collect();
        let cols = expr.shell.op_output_cols(kid_cols);
        let out: BTreeSet<ColId> = cols.iter().map(|c| c.id).collect();
        let kid_keys = kids.iter().map(|k| k.keys.clone()).collect();
        let keys = props::op_keys(&expr.shell, kid_keys, &out);
        let card = if matches!(expr.shell, RelExpr::SegmentApply { .. }) {
            self.est.card(&self.expr_tree(expr))
        } else {
            let cards: Vec<f64> = kids.iter().map(|k| k.card).collect();
            self.est.op_card(&expr.shell, &cards, None).max(0.0)
        };
        // Equalities survive from the preserved input(s); a Select adds
        // its own.
        let mut eq = match (&expr.shell, sig) {
            (_, Some(sig)) => sig.eq.clone(),
            (RelExpr::UnionAll { .. }, _) => EqClasses::default(),
            _ => kids.first().map(|k| k.eq.clone()).unwrap_or_default(),
        };
        if let RelExpr::Select { predicate, .. } = &expr.shell {
            eq.add_predicate(predicate, |c| out.contains(&c));
        }
        let eq = eq.restrict(&out);
        Props {
            cols,
            out,
            keys,
            card,
            eq,
        }
    }

    /// Every other way to compute an inner join's relation as a join of
    /// two connected sub-relations — the whole join-order space of that
    /// relation, each order once, no cross product the join graph does
    /// not require. (A cross product in the query's own tree stays the
    /// alternative it is.) Empty for anything but an inner join, and for
    /// a relation already enumerated into this group.
    ///
    /// The relation is read off the expression as it is *now*: an input
    /// group that has since turned out to be a join is flattened, so a
    /// later firing may find a larger relation to enumerate.
    ///
    /// A relation of n leaves has up to 2^(n-1) such splits. One with
    /// more of them — or more operators in them — than the memo has room
    /// for below [`MAX_EXPRS`] yields none and sets
    /// [`RuleState::overflowed`]: every connected set of leaves would be
    /// a group of its own, so exploring it was going to trip the valve.
    pub fn join_orders(&self, gid: GroupId, expr: &MExpr, state: &mut RuleState) -> Vec<RTree> {
        let (_, Some(sig)) = self.canonical(expr.shell.clone(), expr.children.clone()) else {
            return vec![];
        };
        let n = sig.leaves.len();
        if !(3..=64).contains(&n) || !state.enumerated.insert((self.find(gid), sig.clone())) {
            return vec![];
        }
        let room = MAX_EXPRS.saturating_sub(self.live_exprs);
        let relation = Relation::new(self, &sig);
        let all = u64::MAX >> (64 - n);
        // A connected relation splits into two connected halves, one of
        // them holding leaf 0 so that every bipartition comes up once. One
        // in several components needs a cross product somewhere, and gets
        // it between a whole component and the rest.
        let mut sides = relation.components(all);
        if sides.len() == 1 {
            sides = vec![1];
            relation.connected_supersets(1, all & !1, room, &mut sides);
            if sides.len() > room {
                state.overflowed = true;
                return vec![];
            }
            sides.retain(|&side| relation.connected(all & !side));
        }
        let mut orders = Vec::new();
        for side in sides {
            if relation.built.get() > room {
                state.overflowed = true;
                return vec![];
            }
            orders.push(relation.join(side, all & !side));
        }
        orders
    }

    /// The group's representative tree (defining expressions all the way
    /// down), for the few whole-subtree analyses: SegmentApply's
    /// isomorphism test, free-column computation, plan verification.
    pub fn repr(&self, gid: GroupId) -> RelExpr {
        self.expr_tree(self.first(gid))
    }

    fn expr_tree(&self, expr: &MExpr) -> RelExpr {
        let children = expr.children.iter().map(|&c| RTree::Ref(c)).collect();
        self.materialize(&RTree::op(expr.shell.clone(), children))
    }

    /// Materializes a rule-output tree into a full logical tree,
    /// resolving group references to their representatives.
    pub fn materialize(&self, rtree: &RTree) -> RelExpr {
        match rtree {
            RTree::Ref(gid) => self.repr(*gid),
            RTree::Op(shell, children) => {
                let mut rel = (**shell).clone();
                for (slot, c) in rel.children_mut().into_iter().zip(children) {
                    *slot = self.materialize(c);
                }
                rel
            }
        }
    }
}

/// The column equalities an inner join must itself enforce so that every
/// class of `eq` holds above it: per class, one edge from the first block
/// on each side to every block on the other (a *block* being the columns
/// an input already holds equal), so every edge is a usable hash key. A
/// class split inside one input only is chained there.
fn connecting_edges(eq: &EqClasses, left: &Props, right: &Props) -> Vec<ScalarExpr> {
    let mut edges = Vec::new();
    for class in eq.classes() {
        let blocks = |side: &Props| -> Vec<ColId> {
            let reps: BTreeSet<ColId> = class
                .iter()
                .filter(|c| side.out.contains(c))
                .map(|&c| side.eq.rep(c))
                .collect();
            reps.into_iter().collect()
        };
        let (ls, rs) = (blocks(left), blocks(right));
        match (ls.first(), rs.first()) {
            (Some(&l0), Some(&r0)) => {
                edges.push(eq_ordered(l0, r0));
                edges.extend(ls[1..].iter().map(|&l| eq_ordered(l, r0)));
                edges.extend(rs[1..].iter().map(|&r| eq_ordered(l0, r)));
            }
            _ => {
                let side = if ls.is_empty() { rs } else { ls };
                edges.extend(side[1..].iter().map(|&c| eq_ordered(side[0], c)));
            }
        }
    }
    edges
}

/// An inner-join relation as a graph over its leaves (bit `i` of a mask
/// is leaf `i`): two leaves are adjacent when an equivalence class or a
/// two-leaf conjunct spans them.
struct Relation<'a> {
    memo: &'a Memo,
    sig: &'a JoinSig,
    cols: Vec<&'a BTreeSet<ColId>>,
    adjacency: Vec<u64>,
    /// Join operators built so far ([`Relation::join`]).
    built: Cell<usize>,
}

impl<'a> Relation<'a> {
    fn new(memo: &'a Memo, sig: &'a JoinSig) -> Self {
        let cols: Vec<&BTreeSet<ColId>> = sig.leaves.iter().map(|&g| &memo.props(g).out).collect();
        let touched = |used: &BTreeSet<ColId>| -> u64 {
            let hit = |leaf: &&BTreeSet<ColId>| !leaf.is_disjoint(used);
            let bits = cols.iter().enumerate().filter(|(_, leaf)| hit(leaf));
            bits.fold(0, |mask, (i, _)| mask | 1 << i)
        };
        let mut adjacency = vec![0u64; cols.len()];
        let classes = sig.eq.classes().iter().map(touched);
        let pairs = sig.others.iter().map(|c| touched(&c.cols()));
        for mask in classes.chain(pairs.filter(|m| m.count_ones() == 2)) {
            for (i, adj) in adjacency.iter_mut().enumerate() {
                if mask & 1 << i != 0 {
                    *adj |= mask & !(1 << i);
                }
            }
        }
        Relation {
            memo,
            sig,
            cols,
            adjacency,
            built: Cell::new(0),
        }
    }

    fn leaves(mask: u64) -> impl Iterator<Item = usize> {
        (0..64).filter(move |i| mask & 1 << i != 0)
    }

    /// Leaves adjacent to (and outside) a set.
    fn adjacent(&self, set: u64) -> u64 {
        Self::leaves(set).fold(0, |m, i| m | self.adjacency[i]) & !set
    }

    fn connected(&self, set: u64) -> bool {
        self.components(set).len() == 1
    }

    /// The connected components of a set, lowest leaf first.
    fn components(&self, mut set: u64) -> Vec<u64> {
        let mut parts = Vec::new();
        while set != 0 {
            let mut part = set & set.wrapping_neg();
            loop {
                let grown = part | (self.adjacent(part) & set);
                if grown == part {
                    break;
                }
                part = grown;
            }
            parts.push(part);
            set &= !part;
        }
        parts
    }

    /// Appends every connected superset of the connected `set` within
    /// `set | allowed`, `set` excluded, each once — until `out` holds
    /// more than `cap` of them.
    fn connected_supersets(&self, set: u64, allowed: u64, cap: usize, out: &mut Vec<u64>) {
        let frontier = self.adjacent(set) & allowed;
        // Each non-empty subset of the frontier, then on from there with
        // the frontier itself off limits.
        let mut pick = frontier;
        while pick != 0 && out.len() <= cap {
            out.push(set | pick);
            self.connected_supersets(set | pick, allowed & !frontier, cap, out);
            pick = (pick - 1) & frontier;
        }
    }

    fn columns(&self, set: u64) -> BTreeSet<ColId> {
        let cols = Self::leaves(set).flat_map(|i| self.cols[i].iter().copied());
        cols.collect()
    }

    /// The sub-relation over a set of leaves: its group when the memo has
    /// one, else some connected order of it (whose own firing enumerates
    /// the rest).
    fn input(&self, set: u64) -> RTree {
        if set.count_ones() == 1 {
            return RTree::Ref(self.sig.leaves[set.trailing_zeros() as usize]);
        }
        let cols = self.columns(set);
        let inside = |c: &&ScalarExpr| c.cols().is_subset(&cols);
        let sub = JoinSig {
            leaves: Self::leaves(set).map(|i| self.sig.leaves[i]).collect(),
            eq: self.sig.eq.restrict(&cols),
            others: self.sig.others.iter().filter(inside).cloned().collect(),
        };
        if let Some(&known) = self.memo.joins.get(&sub) {
            return RTree::Ref(known);
        }
        // Split off a whole component, or from a connected set a leaf
        // the rest stays connected without (a spanning tree has one).
        let parts = self.components(set);
        let spare = |&i: &usize| self.connected(set & !(1 << i));
        match Self::leaves(set).find(spare) {
            _ if parts.len() > 1 => self.join(set & !parts[0], parts[0]),
            Some(i) => self.join(set & !(1 << i), 1 << i),
            None => unreachable!("a connected graph has a non-cut vertex"),
        }
    }

    /// `left ⋈ right`, handed every equality of the relation (the memo
    /// keeps the edges the inputs do not enforce) and the conjuncts that
    /// fit neither input alone.
    fn join(&self, left: u64, right: u64) -> RTree {
        self.built.set(self.built.get() + 1);
        let (l, r) = (self.columns(left), self.columns(right));
        let both: BTreeSet<ColId> = l.union(&r).copied().collect();
        let mut conjuncts: Vec<ScalarExpr> = Vec::new();
        for class in self.sig.eq.restrict(&both).classes() {
            let members: Vec<ColId> = class.iter().copied().collect();
            conjuncts.extend(members.windows(2).map(|w| eq_ordered(w[0], w[1])));
        }
        // A conjunct sits at the lowest join that covers its columns (one
        // no input covers at all stays on the relation's top join).
        let top = left | right == u64::MAX >> (64 - self.cols.len());
        let sinks = |cols: &BTreeSet<ColId>, side: u64, has: &BTreeSet<ColId>| {
            side.count_ones() > 1 && cols.is_subset(has)
        };
        let here = |c: &&ScalarExpr| {
            let cols = c.cols();
            (top || cols.is_subset(&both)) && !sinks(&cols, left, &l) && !sinks(&cols, right, &r)
        };
        conjuncts.extend(self.sig.others.iter().filter(here).cloned());
        RTree::join(
            JoinKind::Inner,
            ScalarExpr::and(conjuncts),
            self.input(left),
            self.input(right),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthopt_common::{DataType, TableId};
    use orthopt_ir::builder::{self, t};

    fn memo() -> Memo {
        Memo::new(Estimator::new(&t::get_ab()))
    }

    fn eq(a: ColId, b: ColId) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::col(a), ScalarExpr::col(b))
    }

    fn inner(left: RelExpr, right: RelExpr, predicate: ScalarExpr) -> RelExpr {
        builder::join(JoinKind::Inner, left, right, predicate)
    }

    /// A third two-column table `ef(e int key, f int null)`.
    fn get_ef() -> RelExpr {
        let cols = [
            (COL_E, "e", DataType::Int, false),
            (ColId(11), "f", DataType::Int, true),
        ];
        builder::get(TableId(7), "ef", &cols, &[&[0]], 1000.0)
    }

    const COL_E: ColId = ColId(10);

    #[test]
    fn identical_subtrees_share_groups() {
        let mut memo = memo();
        let a = memo.insert_tree(t::get_ab());
        let b = memo.insert_tree(t::get_ab());
        assert_eq!(a, b);
        assert_ne!(a, memo.insert_tree(t::get_cd()));
    }

    #[test]
    fn join_children_become_groups() {
        let mut memo = memo();
        let gid = memo.insert_tree(inner(t::get_ab(), t::get_cd(), eq(t::COL_A, t::COL_C)));
        assert_eq!(memo.first(gid).children.len(), 2);
        assert_eq!((memo.group_count(), memo.expr_count()), (3, 3));
    }

    #[test]
    fn add_expr_deduplicates_spellings() {
        let mut memo = memo();
        let gid = memo.insert_tree(inner(t::get_ab(), t::get_cd(), eq(t::COL_A, t::COL_C)));
        let (l, r) = (memo.first(gid).children[0], memo.first(gid).children[1]);
        // The same join with the equality flipped and repeated is known.
        let respelled = ScalarExpr::and([eq(t::COL_C, t::COL_A), eq(t::COL_A, t::COL_C)]);
        let dup = RTree::join(JoinKind::Inner, respelled, RTree::Ref(l), RTree::Ref(r));
        assert!(!memo.add_expr(gid, dup));
        // So is the commuted join: an inner join is stored once.
        let commuted = RTree::join(
            JoinKind::Inner,
            eq(t::COL_A, t::COL_C),
            RTree::Ref(r),
            RTree::Ref(l),
        );
        assert!(!memo.add_expr(gid, commuted));
        assert_eq!(memo.group(gid).exprs.len(), 1);
        assert_eq!(memo.first(gid).sides().count(), 2);
    }

    #[test]
    fn one_relation_is_one_group_however_it_is_associated() {
        let (ab, cd, ef) = (t::get_ab(), t::get_cd(), get_ef());
        let (ac, ce, ae) = (
            eq(t::COL_A, t::COL_C),
            eq(t::COL_C, COL_E),
            eq(t::COL_A, COL_E),
        );
        let mut memo = memo();
        let left_deep = memo.insert_tree(inner(
            inner(ab.clone(), cd.clone(), ac.clone()),
            ef.clone(),
            ce.clone(),
        ));
        let groups = memo.group_count();
        // (ab ⋈ (cd ⋈ ef)), with the spanning tree of {a, c, e} spelled
        // through a = e instead of a = c.
        let right_deep = memo.insert_tree(inner(
            ab.clone(),
            inner(cd.clone(), ef.clone(), ce.clone()),
            ae.clone(),
        ));
        assert_eq!(left_deep, right_deep);
        assert_eq!(memo.group_count(), groups + 1, "only cd ⋈ ef is new");
        // Commuted at both levels.
        let commuted = memo.insert_tree(inner(ef, inner(cd, ab, ac), ae));
        assert_eq!(left_deep, commuted);
        assert_eq!(memo.group_count(), groups + 1);
        assert_eq!(
            memo.group(left_deep).exprs.len(),
            2,
            "(ab cd | ef), (ab | cd ef)"
        );
    }

    #[test]
    fn a_collision_merges_two_groups_and_their_parents() {
        // Two selects over two different-looking inputs; each select gets
        // a parent. Teaching the memo that the inputs are one relation
        // must unify the selects and then the parents.
        let mut memo = memo();
        let filter = |col| ScalarExpr::eq(ScalarExpr::col(col), ScalarExpr::lit(1i64));
        let x = builder::select(t::get_ab(), filter(t::COL_A));
        let y = builder::select(t::get_ab(), filter(t::COL_B));
        let over = |input: RelExpr| RelExpr::Max1Row {
            input: Box::new(builder::select(input, filter(t::COL_A))),
        };
        let (gx, gy) = (memo.insert_tree(x.clone()), memo.insert_tree(y.clone()));
        let (px, py) = (memo.insert_tree(over(x)), memo.insert_tree(over(y)));
        assert_ne!(memo.find(px), memo.find(py));
        let (groups, exprs) = (memo.group_count(), memo.expr_count());
        // "x is also computed by y's expression."
        let y_expr = memo.first(gy).clone();
        let y_tree = RTree::op(
            y_expr.shell,
            y_expr.children.into_iter().map(RTree::Ref).collect(),
        );
        assert!(!memo.add_expr(gx, y_tree));
        assert_eq!(memo.find(gx), memo.find(gy));
        assert_eq!(memo.find(px), memo.find(py), "parents re-interned");
        // gy, the select over it and its Max1Row are gone; so are the two
        // parent expressions that became duplicates.
        assert_eq!(memo.group_count(), groups - 3);
        assert_eq!(memo.expr_count(), exprs - 2);
        assert_eq!(memo.group(px).exprs.len(), 1);
    }

    #[test]
    fn join_props_are_derived_once() {
        let mut memo = memo();
        let gid = memo.insert_tree(inner(t::get_ab(), t::get_cd(), eq(t::COL_A, t::COL_C)));
        let props = memo.props(gid);
        assert_eq!(props.cols.len(), 4);
        assert!((props.card - 10_000.0).abs() < 1e-6);
        assert_eq!(
            props.eq.classes(),
            [[t::COL_A, t::COL_C].into_iter().collect()]
        );
        assert_eq!(
            memo.repr(gid),
            inner(t::get_ab(), t::get_cd(), eq(t::COL_A, t::COL_C))
        );
    }
}
