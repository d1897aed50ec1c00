//! Typed column vectors with null bitmaps — the columnar half of the
//! execution engine's batch representation.
//!
//! A [`Column`] is a shareable slice over typed value storage
//! ([`ColData`]) plus an Arrow-style validity [`Bitmap`] (bit set =
//! value present, bit clear = SQL NULL). Columns are cheap to slice
//! (`Arc` clone + offset arithmetic), so table scans hand out windows
//! over the stored column data without touching the values. What a
//! window shows never changes: the one mutation, [`Column::push`] (how
//! a stored table grows), is copy-on-write.
//!
//! The representation is deliberately lossless with respect to the
//! row engine: [`Column::value`] reconstructs exactly the [`Value`]
//! that a row pipeline would have carried, and [`cols_bytes`] charges
//! exactly what [`crate::row::rows_bytes`] charges for the equivalent
//! rows, so the memory governor's thresholds do not shift between the
//! row and columnar paths (see the parity test below).

use std::cmp::Ordering;
use std::sync::Arc;

use crate::row::Row;
use crate::value::{DataType, Value, ValueRef};

/// Validity bitmap: bit set ⇒ value present, bit clear ⇒ NULL.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    /// Number of clear (NULL) bits — lets `all_valid` answer in O(1).
    nulls: usize,
}

impl Bitmap {
    /// An all-valid bitmap of the given length. Bits past `len` stay
    /// clear, as [`push`](Bitmap::push) leaves them, so a later push of
    /// a NULL lands on a clear bit.
    pub fn new_valid(len: usize) -> Bitmap {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            words[len / 64] = (1u64 << (len % 64)) - 1;
        }
        Bitmap {
            words,
            len,
            nulls: 0,
        }
    }

    /// Builds a bitmap from per-position validity flags, a word at a
    /// time.
    pub fn from_flags(flags: impl IntoIterator<Item = bool>) -> Bitmap {
        let flags = flags.into_iter();
        let mut words = Vec::with_capacity(flags.size_hint().0.div_ceil(64));
        let (mut word, mut len, mut set) = (0u64, 0usize, 0usize);
        for f in flags {
            word |= u64::from(f) << (len % 64);
            set += usize::from(f);
            len += 1;
            if len.is_multiple_of(64) {
                words.push(word);
                word = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(word);
        }
        Bitmap {
            words,
            len,
            nulls: len - set,
        }
    }

    /// Appends one validity flag.
    #[inline]
    pub fn push(&mut self, valid: bool) {
        let (w, bit) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[w] |= 1u64 << bit;
        } else {
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// Whether position `i` holds a value (not NULL).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when no position is NULL — kernels use this to skip
    /// per-lane validity branches entirely.
    #[inline]
    pub fn all_valid(&self) -> bool {
        self.nulls == 0
    }

    /// Number of NULL positions.
    pub fn null_count(&self) -> usize {
        self.nulls
    }
}

/// Typed value storage for one column.
///
/// Each variant stores the non-NULL payload inline; NULL positions hold
/// an arbitrary placeholder and are masked by the validity bitmap. The
/// [`Val`](ColData::Val) fallback keeps untypeable columns (mixed
/// `Int`/`Float` arithmetic results, heterogeneous constants) exact —
/// it stores `Value`s verbatim so no information is lost relative to
/// the row representation.
#[derive(Debug, Clone, PartialEq)]
pub enum ColData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Strings (shared payloads).
    Str(Vec<Arc<str>>),
    /// Dates as days since the epoch.
    Date(Vec<i32>),
    /// Fallback: verbatim values (mixed or untypeable columns).
    Val(Vec<Value>),
}

/// Runs `$body` on the payload vector `$v` of whichever variant `$data` is.
macro_rules! on_payload {
    ($data:expr, $v:ident => $body:expr) => {
        match $data {
            ColData::Int($v) => $body,
            ColData::Float($v) => $body,
            ColData::Bool($v) => $body,
            ColData::Str($v) => $body,
            ColData::Date($v) => $body,
            ColData::Val($v) => $body,
        }
    };
}

impl ColData {
    /// Empty typed storage for a declared type.
    fn new(ty: DataType) -> ColData {
        match ty {
            DataType::Int => ColData::Int(Vec::new()),
            DataType::Float => ColData::Float(Vec::new()),
            DataType::Bool => ColData::Bool(Vec::new()),
            DataType::Str => ColData::Str(Vec::new()),
            DataType::Date => ColData::Date(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        on_payload!(self, v => v.len())
    }

    /// Whether a non-NULL value of type `ty` is stored as itself here.
    fn holds(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (ColData::Val(_), _)
                | (ColData::Int(_), DataType::Int)
                | (ColData::Float(_), DataType::Float)
                | (ColData::Bool(_), DataType::Bool)
                | (ColData::Str(_), DataType::Str)
                | (ColData::Date(_), DataType::Date)
        )
    }
}

/// Owned column storage: typed data plus validity.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnData {
    /// Typed payload.
    pub data: ColData,
    /// Validity bitmap (bit set = present).
    pub validity: Bitmap,
}

/// An immutable, shareable window over a [`ColumnData`].
///
/// Cloning and [slicing](Column::slice) are O(1) (`Arc` clone plus
/// offset arithmetic), which is what makes columnar scans zero-copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: Arc<ColumnData>,
    offset: usize,
    len: usize,
}

impl Column {
    /// Wraps owned column storage as a full-length column.
    pub fn from_data(data: ColumnData) -> Column {
        debug_assert_eq!(data.data.len(), data.validity.len());
        let len = data.validity.len();
        Column {
            data: Arc::new(data),
            offset: 0,
            len,
        }
    }

    /// An empty column of a declared type — what a stored table
    /// starts each of its columns as.
    pub fn new(ty: DataType) -> Column {
        Column::from_data(ColumnData {
            data: ColData::new(ty),
            validity: Bitmap::new_valid(0),
        })
    }

    /// Room for `additional` more [`push`](Column::push)es.
    pub fn reserve(&mut self, additional: usize) {
        let d = Arc::make_mut(&mut self.data);
        on_payload!(&mut d.data, v => v.reserve(additional));
        d.validity.words.reserve(additional.div_ceil(64));
    }

    /// Appends `v` as the last lane. Copy-on-write: the storage grows
    /// in place only while this column is its sole handle
    /// (`Arc::make_mut`), so a window somebody still holds keeps the
    /// length and the values it was taken with. A value of another
    /// type than the typed storage — or a push onto a window — rebuilds
    /// the column densely, as [`concat`](Column::concat) does for
    /// mixed parts.
    pub fn push(&mut self, v: Value) {
        let whole = self.len == self.data.validity.len();
        if !(whole && v.data_type().is_none_or(|t| self.data.data.holds(t))) {
            *self = Column::concat(&[self.clone(), Column::from_values(vec![v])]);
            return;
        }
        let d = Arc::make_mut(&mut self.data);
        d.validity.push(!v.is_null());
        match (&mut d.data, v) {
            (ColData::Int(c), v) => c.push(if let Value::Int(i) = v { i } else { 0 }),
            (ColData::Float(c), v) => c.push(if let Value::Float(f) = v { f } else { 0.0 }),
            (ColData::Bool(c), v) => c.push(matches!(v, Value::Bool(true))),
            (ColData::Str(c), Value::Str(s)) => c.push(s),
            (ColData::Str(c), _) => c.push(Arc::from("")),
            (ColData::Date(c), v) => c.push(if let Value::Date(d) = v { d } else { 0 }),
            (ColData::Val(c), v) => c.push(v),
        }
        self.len += 1;
    }

    /// Builds a column from values, choosing a typed representation
    /// when every non-NULL value shares one [`DataType`] and falling
    /// back to [`ColData::Val`] otherwise.
    pub fn from_values(vals: Vec<Value>) -> Column {
        let mut ty: Option<DataType> = None;
        let mut uniform = true;
        for v in &vals {
            if let Some(t) = v.data_type() {
                match ty {
                    None => ty = Some(t),
                    Some(prev) if prev != t => {
                        uniform = false;
                        break;
                    }
                    Some(_) => {}
                }
            }
        }
        let validity = Bitmap::from_flags(vals.iter().map(|v| !v.is_null()));
        let data = match (uniform, ty) {
            (true, Some(DataType::Int)) => ColData::Int(
                vals.iter()
                    .map(|v| if let Value::Int(i) = v { *i } else { 0 })
                    .collect(),
            ),
            (true, Some(DataType::Float)) => ColData::Float(
                vals.iter()
                    .map(|v| if let Value::Float(f) = v { *f } else { 0.0 })
                    .collect(),
            ),
            (true, Some(DataType::Bool)) => ColData::Bool(
                vals.iter()
                    .map(|v| matches!(v, Value::Bool(true)))
                    .collect(),
            ),
            (true, Some(DataType::Str)) => ColData::Str(
                vals.iter()
                    .map(|v| {
                        if let Value::Str(s) = v {
                            s.clone()
                        } else {
                            Arc::from("")
                        }
                    })
                    .collect(),
            ),
            (true, Some(DataType::Date)) => ColData::Date(
                vals.iter()
                    .map(|v| if let Value::Date(d) = v { *d } else { 0 })
                    .collect(),
            ),
            // All-NULL columns are typeless; keep them exact via the
            // fallback (every lane is masked anyway).
            _ => ColData::Val(vals),
        };
        Column::from_data(ColumnData { data, validity })
    }

    /// Number of values in this window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when no value in this window is NULL.
    pub fn all_valid(&self) -> bool {
        self.data.validity.all_valid()
            || (0..self.len).all(|i| self.data.validity.get(self.offset + i))
    }

    /// Whether position `i` holds a value (not NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.data.validity.get(self.offset + i)
    }

    /// Reconstructs the [`Value`] at position `i` — exactly the value
    /// the equivalent row would carry.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        debug_assert!(i < self.len);
        let j = self.offset + i;
        if !self.data.validity.get(j) {
            return Value::Null;
        }
        match &self.data.data {
            ColData::Int(v) => Value::Int(v[j]),
            ColData::Float(v) => Value::Float(v[j]),
            ColData::Bool(v) => Value::Bool(v[j]),
            ColData::Str(v) => Value::Str(v[j].clone()),
            ColData::Date(v) => Value::Date(v[j]),
            ColData::Val(v) => v[j].clone(),
        }
    }

    /// Borrows the value at position `i` without cloning string
    /// payloads — what the reply renderer writes lanes from.
    #[inline]
    pub fn value_ref(&self, i: usize) -> ValueRef<'_> {
        debug_assert!(i < self.len);
        let j = self.offset + i;
        if !self.data.validity.get(j) {
            return ValueRef::Null;
        }
        match &self.data.data {
            ColData::Int(v) => ValueRef::Int(v[j]),
            ColData::Float(v) => ValueRef::Float(v[j]),
            ColData::Bool(v) => ValueRef::Bool(v[j]),
            ColData::Str(v) => ValueRef::Str(&v[j]),
            ColData::Date(v) => ValueRef::Date(v[j]),
            ColData::Val(v) => v[j].as_value_ref(),
        }
    }

    /// Orders lane `i` of this column against lane `j` of `other`
    /// exactly as [`Value::total_cmp`] orders the two values (NULL
    /// first, floats by `f64::total_cmp`), comparing typed storage in
    /// place; only `Val` lanes and mixed representations materialize
    /// values.
    #[inline]
    pub fn cmp_lanes(&self, i: usize, other: &Column, j: usize) -> Ordering {
        let (a, b) = (self.offset + i, other.offset + j);
        let va = self.data.validity.all_valid() || self.data.validity.get(a);
        let vb = other.data.validity.all_valid() || other.data.validity.get(b);
        if !(va && vb) {
            return va.cmp(&vb);
        }
        match (&self.data.data, &other.data.data) {
            (ColData::Int(x), ColData::Int(y)) => x[a].cmp(&y[b]),
            (ColData::Float(x), ColData::Float(y)) => x[a].total_cmp(&y[b]),
            (ColData::Bool(x), ColData::Bool(y)) => x[a].cmp(&y[b]),
            (ColData::Str(x), ColData::Str(y)) => x[a].as_ref().cmp(y[b].as_ref()),
            (ColData::Date(x), ColData::Date(y)) => x[a].cmp(&y[b]),
            _ => self.value(i).total_cmp(&other.value(j)),
        }
    }

    /// How this column sorts as normalized key words: `(words, exact)`.
    /// A window with NULLs leads with a validity word (0 for NULL, 1
    /// for a value), then every typed lane has one value word. `exact`
    /// means equal words are equal lanes under
    /// [`cmp_lanes`](Column::cmp_lanes): true for `Int`, `Float`,
    /// `Date` and `Bool`, false for `Str` (its word is the first 8
    /// bytes) and for `Val`, which has no common encoding and so gives
    /// no word at all.
    pub fn sort_key_words(&self) -> (usize, bool) {
        let validity = usize::from(!self.all_valid());
        match &self.data.data {
            ColData::Val(_) => (0, false),
            ColData::Str(_) => (validity + 1, false),
            _ => (validity + 1, true),
        }
    }

    /// Writes the first `take` (≥ 1) of this column's
    /// [`sort_key_words`](Column::sort_key_words) for lane `i` into
    /// `rows[i][at..at + take]`, every bit inverted when `desc`, so
    /// rows compare as the lanes do under `cmp_lanes` — exactly for an
    /// exact key, monotonically (a smaller word is a smaller lane) for
    /// a string. A NULL lane's value word is 0, so NULLs tie.
    pub fn write_sort_words<const N: usize>(
        &self,
        desc: bool,
        rows: &mut [[u64; N]],
        at: usize,
        take: usize,
    ) {
        /// Lanes as their type's order-preserving `u64` image.
        fn put<const N: usize>(
            col: &Column,
            rows: &mut [[u64; N]],
            at: usize,
            take: usize,
            flip: u64,
            images: impl Iterator<Item = u64>,
        ) {
            debug_assert_eq!(rows.len(), col.len);
            if col.all_valid() {
                for (row, image) in rows.iter_mut().zip(images) {
                    row[at] = image ^ flip;
                }
                return;
            }
            for (i, (row, image)) in rows.iter_mut().zip(images).enumerate() {
                let valid = col.is_valid(i);
                row[at] = u64::from(valid) ^ flip;
                if take > 1 {
                    row[at + 1] = if valid { image } else { 0 } ^ flip;
                }
            }
        }
        const SIGN: u64 = 1 << 63;
        let flip = if desc { u64::MAX } else { 0 };
        let window = self.offset..self.offset + self.len;
        macro_rules! put_images {
            ($v:expr, $image:expr) => {
                put(self, rows, at, take, flip, $v[window].iter().map($image))
            };
        }
        match &self.data.data {
            ColData::Int(v) => put_images!(v, |&x| x as u64 ^ SIGN),
            // The bits of a float read as `total_cmp` orders them.
            ColData::Float(v) => put_images!(v, |x: &f64| match x.to_bits() {
                b if b & SIGN != 0 => !b,
                b => b | SIGN,
            }),
            ColData::Bool(v) => put_images!(v, |&b| u64::from(b)),
            ColData::Str(v) => put_images!(v, |s: &Arc<str>| {
                let mut head = [0u8; 8];
                let n = s.len().min(8);
                head[..n].copy_from_slice(&s.as_bytes()[..n]);
                u64::from_be_bytes(head)
            }),
            ColData::Date(v) => put_images!(v, |&d| i64::from(d) as u64 ^ SIGN),
            ColData::Val(_) => debug_assert!(false, "a Val key has no sort words"),
        }
    }

    /// Compares the value at position `i` against `v` under grouping
    /// equality (the derived `PartialEq` on [`Value`]) without
    /// materializing a `Value` for the lane.
    #[inline]
    pub fn lane_eq(&self, i: usize, v: &Value) -> bool {
        let j = self.offset + i;
        if !self.data.validity.get(j) {
            return v.is_null();
        }
        match (&self.data.data, v) {
            (ColData::Int(d), Value::Int(x)) => d[j] == *x,
            (ColData::Float(d), Value::Float(x)) => Value::Float(d[j]) == Value::Float(*x),
            (ColData::Int(d), Value::Float(_)) => Value::Int(d[j]) == *v,
            (ColData::Float(d), Value::Int(_)) => Value::Float(d[j]) == *v,
            (ColData::Bool(d), Value::Bool(x)) => d[j] == *x,
            (ColData::Str(d), Value::Str(x)) => d[j] == *x,
            (ColData::Date(d), Value::Date(x)) => d[j] == *x,
            (ColData::Val(d), _) => d[j] == *v,
            _ => false,
        }
    }

    /// Compares lane `i` of this column with lane `j` of `other` under
    /// grouping equality — exactly `self.value(i) == other.value(j)`
    /// (NULL equals NULL, `-0.0` equals `0.0`, NaN equals NaN, `3`
    /// equals `3.0`) — comparing typed storage in place; only `Val`
    /// lanes, NULLs and mixed representations materialize values.
    #[inline]
    pub fn lanes_eq(&self, i: usize, other: &Column, j: usize) -> bool {
        let (a, b) = (self.offset + i, other.offset + j);
        if !(self.data.validity.get(a) && other.data.validity.get(b)) {
            return self.value(i) == other.value(j);
        }
        match (&self.data.data, &other.data.data) {
            (ColData::Int(x), ColData::Int(y)) => x[a] == y[b],
            (ColData::Float(x), ColData::Float(y)) => {
                x[a] == y[b] || (x[a].is_nan() && y[b].is_nan())
            }
            (ColData::Str(x), ColData::Str(y)) => x[a] == y[b],
            (ColData::Date(x), ColData::Date(y)) => x[a] == y[b],
            (ColData::Bool(x), ColData::Bool(y)) => x[a] == y[b],
            _ => self.value(i) == other.value(j),
        }
    }

    /// A zero-copy window over `[offset, offset + len)` of this column.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        debug_assert!(offset + len <= self.len);
        Column {
            data: self.data.clone(),
            offset: self.offset + offset,
            len,
        }
    }

    /// Gathers the values at `idx` into a new dense column, preserving
    /// the typed representation.
    pub fn gather(&self, idx: &[usize]) -> Column {
        let validity = if self.data.validity.all_valid() {
            Bitmap::new_valid(idx.len())
        } else {
            Bitmap::from_flags(idx.iter().map(|&i| self.is_valid(i)))
        };
        let o = self.offset;
        let data = match &self.data.data {
            ColData::Int(v) => ColData::Int(idx.iter().map(|&i| v[o + i]).collect()),
            ColData::Float(v) => ColData::Float(idx.iter().map(|&i| v[o + i]).collect()),
            ColData::Bool(v) => ColData::Bool(idx.iter().map(|&i| v[o + i]).collect()),
            ColData::Str(v) => ColData::Str(idx.iter().map(|&i| v[o + i].clone()).collect()),
            ColData::Date(v) => ColData::Date(idx.iter().map(|&i| v[o + i]).collect()),
            ColData::Val(v) => ColData::Val(idx.iter().map(|&i| v[o + i].clone()).collect()),
        };
        Column::from_data(ColumnData { data, validity })
    }

    /// [`gather`](Column::gather) with holes: a `None` index yields a
    /// NULL lane, and the typed representation is preserved either way
    /// — what an outer join pads its unmatched lanes with.
    pub fn gather_opt(&self, idx: &[Option<usize>]) -> Column {
        let validity = Bitmap::from_flags(idx.iter().map(|i| i.is_some_and(|i| self.is_valid(i))));
        let o = self.offset;
        macro_rules! typed_gather {
            ($variant:ident, $v:expr, $hole:expr) => {
                ColData::$variant(
                    idx.iter()
                        .map(|i| i.map_or_else(|| $hole, |i| $v[o + i].clone()))
                        .collect(),
                )
            };
        }
        let data = match &self.data.data {
            ColData::Int(v) => typed_gather!(Int, v, 0),
            ColData::Float(v) => typed_gather!(Float, v, 0.0),
            ColData::Bool(v) => typed_gather!(Bool, v, false),
            ColData::Str(v) => typed_gather!(Str, v, Arc::from("")),
            ColData::Date(v) => typed_gather!(Date, v, 0),
            ColData::Val(v) => typed_gather!(Val, v, Value::Null),
        };
        Column::from_data(ColumnData { data, validity })
    }

    /// Concatenates columns into one dense column. Parts with the same
    /// typed representation are appended typed; mixed representations
    /// fall back to verbatim values.
    pub fn concat(parts: &[Column]) -> Column {
        let total: usize = parts.iter().map(Column::len).sum();
        let validity = if parts.iter().all(Column::all_valid) {
            Bitmap::new_valid(total)
        } else {
            Bitmap::from_flags(parts.iter().flat_map(|p| (0..p.len).map(|i| p.is_valid(i))))
        };
        let same_variant = parts.windows(2).all(|w| {
            std::mem::discriminant(&w[0].data.data) == std::mem::discriminant(&w[1].data.data)
        });
        if !same_variant || parts.is_empty() {
            let mut vals = Vec::with_capacity(total);
            for p in parts {
                for i in 0..p.len {
                    vals.push(p.value(i));
                }
            }
            return Column::from_values(vals);
        }
        macro_rules! typed_concat {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    if let ColData::$variant(v) = &p.data.data {
                        out.extend_from_slice(&v[p.offset..p.offset + p.len]);
                    }
                }
                ColData::$variant(out)
            }};
        }
        let data = match &parts[0].data.data {
            ColData::Int(_) => typed_concat!(Int),
            ColData::Float(_) => typed_concat!(Float),
            ColData::Bool(_) => typed_concat!(Bool),
            ColData::Str(_) => typed_concat!(Str),
            ColData::Date(_) => typed_concat!(Date),
            ColData::Val(_) => typed_concat!(Val),
        };
        Column::from_data(ColumnData { data, validity })
    }

    /// The typed payload and the window bounds, for kernels that want
    /// direct slice access: `(data, validity, offset)`. The window
    /// covers `[offset, offset + self.len())` of the returned storage.
    #[inline]
    pub fn parts(&self) -> (&ColData, &Bitmap, usize) {
        (&self.data.data, &self.data.validity, self.offset)
    }
}

/// Governor accounting for a columnar batch: charges exactly what
/// [`crate::row::rows_bytes`] charges for the equivalent rows — the
/// per-row `Vec` header, the inline `Value` slots, and the heap payload
/// of present string values — so ResourceExhausted thresholds are
/// identical on both paths. `len` is the batch's row count (columns may
/// be empty when the layout has zero columns).
pub fn cols_bytes(columns: &[Column], len: usize) -> u64 {
    let inline = len * (std::mem::size_of::<Row>() + columns.len() * std::mem::size_of::<Value>());
    let mut heap = 0usize;
    for c in columns {
        match &c.data.data {
            ColData::Str(v) => {
                for i in 0..c.len {
                    if c.data.validity.get(c.offset + i) {
                        heap += v[c.offset + i].len();
                    }
                }
            }
            ColData::Val(v) => {
                for i in 0..c.len {
                    if let Value::Str(s) = &v[c.offset + i] {
                        if c.data.validity.get(c.offset + i) {
                            heap += s.len();
                        }
                    }
                }
            }
            _ => {}
        }
    }
    (inline + heap) as u64
}

/// Transposes rows into columns (one per position of `width`).
pub fn rows_to_columns(rows: &[Row], width: usize) -> Vec<Column> {
    (0..width)
        .map(|j| Column::from_values(rows.iter().map(|r| r[j].clone()).collect()))
        .collect()
}

/// Transposes columns back into rows.
pub fn columns_to_rows(columns: &[Column], len: usize) -> Vec<Row> {
    (0..len)
        .map(|i| columns.iter().map(|c| c.value(i)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::rows_bytes;

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::str("alpha"), Value::Float(1.5)],
            vec![Value::Int(2), Value::Null, Value::Float(2.5)],
            vec![Value::Null, Value::str("g"), Value::Null],
        ]
    }

    #[test]
    fn roundtrip_preserves_values() {
        let rows = sample_rows();
        let cols = rows_to_columns(&rows, 3);
        assert_eq!(columns_to_rows(&cols, rows.len()), rows);
    }

    #[test]
    fn typed_representation_is_chosen() {
        let c = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(matches!(c.parts().0, ColData::Int(_)));
        assert!(!c.all_valid());
        assert_eq!(c.value(1), Value::Null);
        // Mixed numeric types fall back to verbatim storage.
        let m = Column::from_values(vec![Value::Int(1), Value::Float(2.0)]);
        assert!(matches!(m.parts().0, ColData::Val(_)));
        assert_eq!(m.value(1), Value::Float(2.0));
    }

    #[test]
    fn slice_and_gather_window_correctly() {
        let c = Column::from_values((0..10).map(Value::Int).collect());
        let s = c.slice(3, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.value(0), Value::Int(3));
        let g = s.gather(&[3, 0]);
        assert_eq!(g.value(0), Value::Int(6));
        assert_eq!(g.value(1), Value::Int(3));
    }

    /// `gather_opt` is `from_values` over the picked lanes with NULL in
    /// the holes — on every representation, with the typed payload kept.
    #[test]
    fn gather_opt_matches_from_values() {
        let sources: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Float(1.5), Value::Float(-0.0), Value::Null],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::str("a"), Value::Null, Value::str("")],
            vec![Value::Date(7), Value::Date(-1), Value::Null],
            vec![Value::Int(1), Value::Float(2.5), Value::Null],
        ];
        let picks: [&[Option<usize>]; 4] = [
            &[Some(2), None, Some(0), Some(0), None, Some(1)],
            &[None, None],
            &[],
            &[Some(1)],
        ];
        for vals in sources {
            let full = Column::from_values(vals.clone());
            // A window, so the offset arithmetic is exercised too.
            let padded = Column::from_values([vec![Value::Null], vals.clone()].concat());
            let window = padded.slice(1, vals.len());
            for col in [&full, &window] {
                for idx in picks {
                    let got = col.gather_opt(idx);
                    let want = Column::from_values(
                        idx.iter()
                            .map(|j| j.map_or(Value::Null, |j| col.value(j)))
                            .collect(),
                    );
                    assert_eq!(got.len(), idx.len());
                    for k in 0..idx.len() {
                        assert_eq!(got.value(k), want.value(k), "{vals:?} {idx:?} lane {k}");
                    }
                    assert_eq!(
                        std::mem::discriminant(got.parts().0),
                        std::mem::discriminant(col.parts().0),
                        "{vals:?} {idx:?}: typed payload kept"
                    );
                }
            }
        }
    }

    /// `push` appends in place on a sole handle, copies under a shared
    /// one, and rebuilds (never corrupts) on a window or a foreign type.
    #[test]
    fn push_appends_copy_on_write() {
        let lanes = |c: &Column| (0..c.len()).map(|i| c.value(i)).collect::<Vec<_>>();
        let mut c = Column::new(DataType::Str);
        c.reserve(4);
        c.push(Value::str("a"));
        c.push(Value::Null);
        let storage = std::ptr::from_ref(c.parts().0);
        c.push(Value::str("b"));
        assert_eq!(std::ptr::from_ref(c.parts().0), storage, "sole handle");
        assert!(matches!(c.parts().0, ColData::Str(_)));
        let held = c.clone();
        c.push(Value::str("c"));
        assert_eq!(
            lanes(&held),
            [Value::str("a"), Value::Null, Value::str("b")]
        );
        assert_eq!(c.len(), 4);
        assert_eq!(c.value(3), Value::str("c"));
        // A window grows into a dense column of its own lanes.
        let mut w = c.slice(1, 2);
        w.push(Value::str("d"));
        assert_eq!(lanes(&w), [Value::Null, Value::str("b"), Value::str("d")]);
        assert_eq!(c.len(), 4);
        // A value of another type falls back to verbatim storage.
        w.push(Value::Int(7));
        assert!(matches!(w.parts().0, ColData::Val(_)));
        assert_eq!(w.value(3), Value::Int(7));
        assert_eq!(w.value(0), Value::Null);
    }

    #[test]
    fn concat_keeps_typed_storage() {
        let a = Column::from_values(vec![Value::Int(1), Value::Null]);
        let b = Column::from_values(vec![Value::Int(3)]);
        let c = Column::concat(&[a, b]);
        assert!(matches!(c.parts().0, ColData::Int(_)));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(3));
    }

    #[test]
    fn lane_eq_matches_grouping_equality() {
        let c = Column::from_values(vec![Value::Int(3), Value::Null, Value::str("x")]);
        assert!(c.lane_eq(0, &Value::Int(3)));
        assert!(
            c.lane_eq(0, &Value::Float(3.0)),
            "int/float grouping equality"
        );
        assert!(c.lane_eq(1, &Value::Null));
        assert!(!c.lane_eq(1, &Value::Int(0)));
        let s = Column::from_values(vec![Value::str("x")]);
        assert!(s.lane_eq(0, &Value::str("x")));
    }

    /// `lanes_eq` is `Value`'s `==` on every pair of lanes, within one
    /// column and across representations, windows included.
    #[test]
    fn lanes_eq_matches_value_eq() {
        let columns: Vec<Column> = [
            vec![Value::Int(3), Value::Null, Value::Int(-7), Value::Int(0)],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Null,
                Value::Float(3.0),
                Value::Float(-f64::NAN),
            ],
            vec![
                Value::Int(3),
                Value::Float(3.0),
                Value::Null,
                Value::str("3"),
            ],
            vec![Value::str("a"), Value::Null, Value::str("")],
            vec![Value::Date(5), Value::Date(3), Value::Null],
            vec![Value::Bool(true), Value::Bool(false), Value::Null],
            vec![Value::Null, Value::Null],
        ]
        .into_iter()
        .map(Column::from_values)
        .collect();
        for a in &columns {
            for b in &columns {
                for i in 0..a.len() {
                    for j in 0..b.len() {
                        assert_eq!(
                            a.lanes_eq(i, b, j),
                            a.value(i) == b.value(j),
                            "{:?} vs {:?}",
                            a.value(i),
                            b.value(j)
                        );
                    }
                }
            }
        }
        let c = Column::from_values((0..6).map(Value::Int).collect());
        assert!(c.slice(3, 2).lanes_eq(0, &c.slice(1, 3), 2));
        assert!(!c.slice(4, 2).lanes_eq(0, &c.slice(1, 3), 2));
    }

    /// One formatter: a lane rendered off a typed column is the text
    /// the equivalent `Value` renders to, for every `DataType`, the
    /// `Val` fallback, and the awkward payloads.
    #[test]
    fn lanes_render_exactly_like_values() {
        let columns: Vec<Vec<Value>> = vec![
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::Int(i64::MIN), Value::Null, Value::Int(i64::MAX)],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Null,
                Value::Float(1e300),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(0.1 + 0.2),
            ],
            vec![
                Value::str("it's"),
                Value::str("tab\there"),
                Value::str("line\nbreak"),
                Value::Null,
                Value::str(""),
            ],
            vec![Value::Date(-719_162), Value::Null, Value::Date(19_000)],
            // Mixed → `Val` storage.
            vec![Value::Int(1), Value::Float(2.5), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        for vals in columns {
            let col = Column::from_values(vals.clone());
            for (i, v) in vals.iter().enumerate() {
                let mut lane = String::new();
                col.value_ref(i).write_to(&mut lane).unwrap();
                assert_eq!(lane, v.to_string(), "lane {i} of {vals:?}");
            }
        }
    }

    /// `cmp_lanes` is `Value::total_cmp` on every pair of lanes, within
    /// one column and across columns of different representations.
    #[test]
    fn cmp_lanes_matches_value_total_cmp() {
        let columns: Vec<Column> = [
            vec![Value::Int(3), Value::Null, Value::Int(-7), Value::Int(3)],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Null,
                Value::Float(-7.0),
            ],
            vec![
                Value::Int(2),
                Value::Float(2.5),
                Value::Null,
                Value::Int(-7),
            ],
            vec![
                Value::str("b"),
                Value::Null,
                Value::str("a"),
                Value::str(""),
            ],
            vec![Value::Date(5), Value::Date(-5), Value::Null],
            vec![Value::Bool(true), Value::Bool(false), Value::Null],
            vec![Value::Null, Value::Null],
        ]
        .into_iter()
        .map(Column::from_values)
        .collect();
        for a in &columns {
            for b in &columns {
                for i in 0..a.len() {
                    for j in 0..b.len() {
                        assert_eq!(
                            a.cmp_lanes(i, b, j),
                            a.value(i).total_cmp(&b.value(j)),
                            "{:?} vs {:?}",
                            a.value(i),
                            b.value(j)
                        );
                    }
                }
            }
        }
        // Windows compare by their own lane numbering.
        let c = Column::from_values((0..6).map(Value::Int).collect());
        assert_eq!(
            c.slice(4, 2).cmp_lanes(0, &c.slice(1, 3), 2),
            Ordering::Greater
        );
    }

    /// The sort words of an exact key order its lanes exactly as
    /// `cmp_lanes` does — ascending and inverted for `desc`, with and
    /// without the validity word — and a string's words order them
    /// monotonically, leaving equal 8-byte heads to the comparator.
    #[test]
    fn sort_words_order_exact_lanes_like_cmp_lanes() {
        let typed: Vec<Vec<Value>> = vec![
            vec![
                Value::Int(i64::MIN),
                Value::Null,
                Value::Int(-1),
                Value::Int(0),
                Value::Int(1),
                Value::Int(i64::MAX),
                // Ties: NULL with NULL, a value with itself.
                Value::Null,
                Value::Int(-1),
            ],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-f64::NAN),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Null,
                Value::Float(f64::MIN_POSITIVE),
                Value::Float(1.5),
                Value::Float(f64::INFINITY),
            ],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![
                Value::str(""),
                Value::Null,
                Value::str("a"),
                Value::str("a\0"),
                Value::str("abcdefgh"),
                Value::str("abcdefghi"),
                Value::str("abcdefgz"),
                Value::str("é"),
            ],
            vec![
                Value::Date(i32::MIN),
                Value::Date(-1),
                Value::Null,
                Value::Date(7),
            ],
        ];
        for vals in typed {
            let col = Column::from_values(vals.clone());
            let valid: Vec<usize> = (0..col.len()).filter(|&i| col.is_valid(i)).collect();
            // The whole column and a window of it (with NULLs: a
            // validity word first), and its valid lanes gathered into
            // an all-valid column (the value word alone).
            let window = col.slice(1, col.len() - 1);
            let dense = col.gather(&valid);
            for c in [&col, &window, &dense] {
                let (words, exact) = c.sort_key_words();
                assert_eq!(words, 1 + usize::from(!c.all_valid()), "{vals:?}");
                assert_eq!(exact, !matches!(c.parts().0, ColData::Str(_)), "{vals:?}");
                for desc in [false, true] {
                    let mut rows = vec![[7u64; 2]; c.len()];
                    c.write_sort_words(desc, &mut rows, 0, words);
                    for i in 0..c.len() {
                        for j in 0..c.len() {
                            let lanes = c.cmp_lanes(i, c, j);
                            let lanes = if desc { lanes.reverse() } else { lanes };
                            let rows = rows[i][..words].cmp(&rows[j][..words]);
                            // A string's equal heads decide nothing.
                            if exact || rows != Ordering::Equal {
                                assert_eq!(rows, lanes, "{vals:?} desc={desc}: {i} vs {j}");
                            }
                        }
                    }
                }
            }
        }
        let mixed = Column::from_values(vec![Value::Int(1), Value::Float(0.5)]);
        assert_eq!(
            mixed.sort_key_words(),
            (0, false),
            "a Val key gives no word"
        );
    }

    /// `concat` and `gather` take an all-valid bitmap wholesale when
    /// every source lane is valid, and otherwise build exactly what a
    /// per-lane push builds — at window offsets that are not a multiple
    /// of 64, with NULLs on both sides of the cut.
    #[test]
    fn bulk_validity_matches_per_lane_build() {
        let per_lane = |parts: &[Column]| {
            Bitmap::from_flags(
                parts
                    .iter()
                    .flat_map(|p| (0..p.len()).map(|i| p.is_valid(i))),
            )
        };
        let sparse = Column::from_values(
            (0..300)
                .map(|i| {
                    if i % 67 == 5 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    }
                })
                .collect(),
        );
        let full = Column::from_values((0..300).map(Value::Int).collect());
        let cases: Vec<Vec<Column>> = vec![
            vec![
                sparse.slice(3, 70),
                full.slice(65, 100),
                sparse.slice(71, 130),
            ],
            vec![full.slice(1, 63), full.slice(7, 129)],
            // All-valid windows of a column that has NULLs elsewhere.
            vec![sparse.slice(6, 60), sparse.slice(73, 60)],
            vec![sparse.slice(130, 0), sparse.slice(4, 2)],
            vec![full.slice(0, 64), full.slice(64, 64)],
        ];
        for parts in cases {
            let c = Column::concat(&parts);
            let (_, validity, _) = c.parts();
            let want = per_lane(&parts);
            assert_eq!(validity, &want, "concat of {} lanes", c.len());
            assert_eq!(validity.null_count(), want.null_count());
            for (k, p) in parts.iter().enumerate() {
                let idx: Vec<usize> = (0..p.len()).rev().chain((0..p.len()).step_by(3)).collect();
                let g = p.gather(&idx);
                let want = Bitmap::from_flags(idx.iter().map(|&i| p.is_valid(i)));
                assert_eq!(g.parts().1, &want, "gather of part {k}");
                assert_eq!(g.parts().1.null_count(), want.null_count());
            }
        }
        // A NULL pushed after a wholesale-valid tail lands on a clear bit.
        let mut c = Column::concat(&[full.slice(1, 70)]);
        c.push(Value::Null);
        assert_eq!(c.value(70), Value::Null);
        assert_eq!(
            c.parts().1,
            &per_lane(&[full.slice(1, 70), Column::from_values(vec![Value::Null])])
        );
    }

    /// Satellite: `cols_bytes` must charge the same logical totals as
    /// `rows_bytes` for the equivalent rows, so the governor's
    /// ResourceExhausted thresholds do not shift between paths.
    #[test]
    fn cols_bytes_matches_rows_bytes() {
        let cases: Vec<Vec<Row>> = vec![
            sample_rows(),
            vec![],
            vec![vec![Value::str("a long string payload"), Value::Date(42)]],
            vec![vec![Value::Null], vec![Value::Null]],
            (0..100)
                .map(|i| vec![Value::Int(i), Value::str(format!("s{i}"))])
                .collect(),
        ];
        for rows in cases {
            let width = rows.first().map_or(0, Vec::len);
            let cols = rows_to_columns(&rows, width);
            assert_eq!(
                cols_bytes(&cols, rows.len()),
                rows_bytes(&rows),
                "parity violated for {rows:?}"
            );
        }
    }

    /// Slices charge only their window — and still match the rows they
    /// logically contain.
    #[test]
    fn cols_bytes_respects_slices() {
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::str(format!("v{i}"))]).collect();
        let cols = rows_to_columns(&rows, 1);
        let sliced: Vec<Column> = cols.iter().map(|c| c.slice(2, 5)).collect();
        assert_eq!(cols_bytes(&sliced, 5), rows_bytes(&rows[2..7]));
    }
}
