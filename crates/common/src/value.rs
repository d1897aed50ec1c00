//! SQL values, types, and three-valued logic.
//!
//! The paper's semantics (§1.1) depend on precise NULL behaviour:
//! *scalar* aggregation returns one row even on empty input (NULL for
//! `SUM`, 0 for `COUNT`), comparisons against NULL are *unknown*, and
//! grouping treats NULLs as equal. We therefore keep two notions of
//! equality:
//!
//! * **Grouping equality** — the derived [`PartialEq`]/[`Hash`] on
//!   [`Value`]: total, NULL == NULL, used by hash joins on grouping keys,
//!   hash aggregation and duplicate elimination.
//! * **SQL comparison** — [`Value::sql_eq`] / [`Value::sql_cmp`]:
//!   three-valued, anything compared with NULL is unknown (`None`).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};

/// Data types supported by the engine (a pragmatic TPC-H-complete set).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    /// Boolean (`true`/`false`).
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (used for TPC-H decimals).
    Float,
    /// UTF-8 string.
    Str,
    /// Date as days since 1970-01-01.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// True when values of this type can participate in `+ - * /`.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

/// A single SQL value. `Null` is typeless, as in SQL.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
    /// Days since the epoch.
    Date(i32),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True iff this is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The type of a non-NULL value, `None` for NULL.
    #[inline]
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Extracts a bool under three-valued logic: NULL ↦ `None`.
    pub fn as_bool3(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(Error::TypeMismatch(format!(
                "expected bool, found {other:?}"
            ))),
        }
    }

    /// Numeric view as f64, for mixed int/float arithmetic.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Canonicalizes floats so that grouping equality and hashing agree:
    /// `-0.0` folds to `0.0` and every NaN folds to one canonical NaN.
    #[inline]
    pub(crate) fn canonical_f64(f: f64) -> u64 {
        if f == 0.0 {
            0f64.to_bits()
        } else if f.is_nan() {
            f64::NAN.to_bits()
        } else {
            f.to_bits()
        }
    }

    /// `i` as the float it equals exactly, if there is one: the float
    /// `i as f64` rounds to converts back to `i` (and is below 2^63,
    /// where the conversion back saturates). Grouping equality of an
    /// `Int` with a `Float` holds only through this float.
    #[inline]
    pub(crate) fn exact_f64(i: i64) -> Option<f64> {
        let f = i as f64;
        (f < 9_223_372_036_854_775_808.0 && f as i64 == i).then_some(f)
    }

    /// SQL equality under three-valued logic. `None` means *unknown*.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL ordering comparison under three-valued logic.
    ///
    /// Mixed `Int`/`Float` comparisons coerce to float. Comparing
    /// incompatible non-NULL types is a type error upstream; here it
    /// conservatively yields unknown.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                Some(x.total_cmp(&y))
            }
        }
    }

    /// Total ordering used for deterministic output sorting (ORDER BY and
    /// test normalization): NULL sorts first, then by grouping value.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Date(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => rank(a).cmp(&rank(b)),
            },
        }
    }

    /// `self + other` with NULL propagation.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.arith(other, "+", i64::checked_add, |a, b| a + b)
    }

    /// `self - other` with NULL propagation.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.arith(other, "-", i64::checked_sub, |a, b| a - b)
    }

    /// `self * other` with NULL propagation.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.arith(other, "*", i64::checked_mul, |a, b| a * b)
    }

    /// `self / other`: always produces a float (SQL Server style decimal
    /// division is approximated by float division). Division by zero is a
    /// run-time error; NULL operands propagate.
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let a = self.numeric_operand("/")?;
        let b = other.numeric_operand("/")?;
        if b == 0.0 {
            return Err(Error::DivideByZero);
        }
        Ok(Value::Float(a / b))
    }

    /// Negation with NULL propagation.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or(Error::NumericOverflow),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::TypeMismatch(format!("cannot negate {other:?}"))),
        }
    }

    fn numeric_operand(&self, op: &str) -> Result<f64> {
        self.as_f64()
            .ok_or_else(|| Error::TypeMismatch(format!("operand of {op} is not numeric: {self:?}")))
    }

    fn arith(
        &self,
        other: &Value,
        op: &str,
        int_op: fn(i64, i64) -> Option<i64>,
        float_op: fn(f64, f64) -> f64,
    ) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => {
                int_op(*a, *b).map(Value::Int).ok_or(Error::NumericOverflow)
            }
            (a, b) => {
                let (x, y) = (a.numeric_operand(op)?, b.numeric_operand(op)?);
                Ok(Value::Float(float_op(x, y)))
            }
        }
    }
}

impl PartialEq for Value {
    /// Grouping equality: total, NULL equals NULL, `-0.0 == 0.0`,
    /// NaN == NaN. An Int equals a Float exactly when the float is
    /// integral and converts back to the same integer, so `3 == 3.0`
    /// but `2^53 + 1` equals no float: the relation stays transitive,
    /// and agrees with the key hash.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                Value::canonical_f64(*a) == Value::canonical_f64(*b)
            }
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                Value::exact_f64(*a) == Some(*b)
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_value_ref().hash(state);
    }
}

impl Hash for ValueRef<'_> {
    /// Agrees with [`Value`]'s grouping equality, for std's hashed
    /// collections of values (a DISTINCT filter's set). The engine's key
    /// hash is [`hash_lanes`](crate::hash::hash_lanes), a function of its
    /// own that hashes a column lane and the equal `Value` alike.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            ValueRef::Null => 0u8.hash(state),
            ValueRef::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats must hash alike when numerically equal
            // (see PartialEq); hash every numeric through the canonical
            // float encoding unless the int is not exactly representable.
            ValueRef::Int(i) => match Value::exact_f64(i) {
                Some(f) => {
                    2u8.hash(state);
                    Value::canonical_f64(f).hash(state);
                }
                None => {
                    3u8.hash(state);
                    i.hash(state);
                }
            },
            ValueRef::Float(f) => {
                2u8.hash(state);
                Value::canonical_f64(f).hash(state);
            }
            ValueRef::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            ValueRef::Date(d) => {
                5u8.hash(state);
                d.hash(state);
            }
        }
    }
}

/// A borrowed view of one SQL scalar: what a [`Value`] and a lane of a
/// typed [`Column`](crate::column::Column) have in common. Its
/// [`write_to`](ValueRef::write_to) is the engine's one text rendering,
/// so rows and columns cannot print differently.
#[derive(Clone, Copy, Debug)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String payload.
    Str(&'a str),
    /// Days since the epoch.
    Date(i32),
}

impl ValueRef<'_> {
    /// Renders the scalar the way `Value`'s `Display` always has:
    /// `NULL`, bare numbers and booleans, `'quoted'` strings (payload
    /// verbatim, no escaping), `date(<days>)`. Integers and most floats
    /// are rendered without `core::fmt` ([`write_int`], [`write_float`]);
    /// the text is byte-identical to std's `Display`.
    pub fn write_to(self, w: &mut impl fmt::Write) -> fmt::Result {
        match self {
            ValueRef::Null => w.write_str("NULL"),
            ValueRef::Bool(b) => w.write_str(if b { "true" } else { "false" }),
            ValueRef::Int(i) => write_int(w, i),
            ValueRef::Float(x) => write_float(w, x),
            ValueRef::Str(s) => {
                w.write_str("'")?;
                w.write_str(s)?;
                w.write_str("'")
            }
            ValueRef::Date(d) => {
                w.write_str("date(")?;
                write_int(w, i64::from(d))?;
                w.write_str(")")
            }
        }
    }
}

/// `"00" "01" … "99"`: two decimal digits per table entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes the decimal digits of `n` right-aligned into `buf`, two at a
/// time, and returns where they start.
fn encode_digits(mut n: u64, buf: &mut [u8]) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Writes ASCII bytes as text.
fn write_ascii(w: &mut impl fmt::Write, bytes: &[u8]) -> fmt::Result {
    w.write_str(std::str::from_utf8(bytes).map_err(|_| fmt::Error)?)
}

/// Writes `i` as std's `Display` does: the digits, after a `-` when
/// negative.
fn write_int(w: &mut impl fmt::Write, i: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = encode_digits(i.unsigned_abs(), &mut buf);
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    write_ascii(w, &buf[at..])
}

/// `10^d` for every `d` whose power of ten is an exact `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Writes `x` as std's `Display` does (`{x}`: the shortest decimal that
/// reads back as `x`, positional, no exponent).
///
/// The fast path ([`short_decimal`]) looks for the decimal with the
/// fewest fraction digits that reads back as `a = |x|`: for
/// `d = 0, 1, …` while `a·10^d < 2^50`, take `c = round(a·10^d)` and
/// accept iff `c / 10^d == a` bit for bit. Why that prints std's
/// digits:
///
/// * *Acceptance means the text round-trips.* `c` (at most `2^50`) and
///   `10^d` (`d ≤ 22`) are exact doubles, so the IEEE division is the
///   correctly rounded value of the decimal `c·10^-d` — exactly what
///   parsing its text yields.
/// * *No round-tripping decimal with `d` fraction digits is missed, and
///   there is at most one.* The reals that round to a normal `a` span
///   at most `ulp(a) ≤ a·2^-52`, less than `2^50·2^-52 = 1/4` in units
///   of `10^-d`. A round-tripping `c` is therefore within 1/4 of the
///   exact `a·10^d` and the product's rounding adds at most 1/16, so
///   rounding the product finds it; two of them would be 1 apart.
/// * *The fewest fraction digits is the shortest.* Say std's shortest
///   decimal `V` had more fraction digits than the accepted `O`, but no
///   more significant digits: then `V`'s leading digit sits lower,
///   `V < 10^L ≤ O`. Both lie in the span, so `O − 10^L < 1/4` units of
///   `10^-d` and, `O`'s digits being an integer, `O = 10^L` — one
///   significant digit, while `V ≤ 0.9·10^L` lies `O/10` away, far
///   outside the span. So `V = O`, and std prints its digits, in
///   positional form, as here.
///
/// The sign comes from the sign bit, so `-0` keeps its `-`. Anything
/// else — NaN, the infinities, subnormals, magnitudes past `2^50`, more
/// than 22 fraction digits, decimals too long for `2^50` — falls back
/// to `{x}` itself.
fn write_float(w: &mut impl fmt::Write, x: f64) -> fmt::Result {
    let Some((c, d)) = short_decimal(x.abs()) else {
        return write!(w, "{x}");
    };
    // The digits of `c`, zero-padded to at least `d + 1`, then the last
    // `d` moved one place right to make room for the point: at most
    // 1 + 23 + 1 bytes with the sign.
    let mut buf = [0u8; 32];
    let mut end = buf.len() - 1;
    let mut at = encode_digits(c, &mut buf[..end]);
    if d > 0 {
        let int = end - d - 1;
        if at > int {
            buf[int..at].fill(b'0');
            at = int;
        }
        buf.copy_within(end - d..end, end - d + 1);
        buf[end - d] = b'.';
        end += 1;
    }
    if x.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    write_ascii(w, &buf[at..end])
}

/// `(c, d)` such that `c·10^-d` is the decimal with the fewest fraction
/// digits that reads back as `a ≥ 0`, when [`write_float`]'s search
/// finds one.
fn short_decimal(a: f64) -> Option<(u64, usize)> {
    for (d, &scale) in POW10.iter().enumerate() {
        let scaled = a * scale;
        if !scaled.is_finite() || scaled >= (1u64 << 50) as f64 {
            return None;
        }
        // The `c` sought is within 5/16 of `scaled`, and adding the
        // half rounds by at most 1/8, so truncation lands on it.
        let c = (scaled + 0.5) as u64;
        if c as f64 / scale == a {
            return Some((c, d));
        }
    }
    None
}

impl Value {
    /// Borrows this value as a [`ValueRef`].
    #[inline]
    pub fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(x) => ValueRef::Float(*x),
            Value::Str(s) => ValueRef::Str(s),
            Value::Date(d) => ValueRef::Date(*d),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_value_ref().write_to(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

/// Three-valued AND.
pub fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued OR.
pub fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Three-valued NOT.
pub fn not3(a: Option<bool>) -> Option<bool> {
    a.map(|b| !b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_grouping_equality() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn null_sql_comparison_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn float_zero_signs_group_together() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(h(&Value::Float(-0.0)), h(&Value::Float(0.0)));
    }

    #[test]
    fn nan_groups_with_itself() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(h(&Value::Float(f64::NAN)), h(&Value::Float(f64::NAN)));
    }

    #[test]
    fn int_float_numeric_equality_and_hash_agree() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn mixed_comparison_coerces() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn arithmetic_null_propagation() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
        assert!(Value::Null.div(&Value::Int(0)).unwrap().is_null());
    }

    #[test]
    fn division_by_zero_errors() {
        assert_eq!(Value::Int(1).div(&Value::Int(0)), Err(Error::DivideByZero));
    }

    #[test]
    fn division_produces_float() {
        assert_eq!(
            Value::Int(7).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert_eq!(
            Value::Int(i64::MAX).add(&Value::Int(1)),
            Err(Error::NumericOverflow)
        );
    }

    #[test]
    fn three_valued_logic_tables() {
        let t = Some(true);
        let f = Some(false);
        let u = None;
        assert_eq!(and3(t, u), u);
        assert_eq!(and3(f, u), f);
        assert_eq!(or3(t, u), t);
        assert_eq!(or3(f, u), u);
        assert_eq!(not3(u), u);
        assert_eq!(not3(t), f);
    }

    #[test]
    fn string_values_compare() {
        assert_eq!(
            Value::str("a").sql_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    fn rendered(v: ValueRef<'_>) -> String {
        let mut s = String::new();
        v.write_to(&mut s).unwrap();
        s
    }

    /// The digit-pair encoder prints every integer as std's `{}` does:
    /// zero, one, each power of ten and its neighbours, both extremes.
    #[test]
    fn ints_render_exactly_like_std_display() {
        let mut cases = vec![0, 1, -1, i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1];
        let mut p = 1i64;
        for _ in 0..=18 {
            for n in [p - 1, p, p + 1] {
                cases.extend([n, -n]);
            }
            p = p.saturating_mul(10);
        }
        let mut rng = crate::prng::Prng::new(24);
        cases.extend((0..10_000).map(|_| rng.next_u64() as i64 >> (rng.next_u64() % 64)));
        for i in cases {
            assert_eq!(rendered(ValueRef::Int(i)), format!("{i}"));
        }
        for d in [i32::MIN, -100, -1, 0, 9, 10, 19_000, i32::MAX] {
            assert_eq!(rendered(ValueRef::Date(d)), format!("date({d})"));
        }
    }

    /// The exact short-decimal path prints every float as std's `{}`
    /// does, over a million draws aimed at its edges: random bit
    /// patterns, short decimals of both signs, signed zeros, NaN, the
    /// infinities, subnormals, the exact powers of ten and their
    /// neighbours, and the neighbours of the `2^50 / 10^d` cut-offs.
    #[test]
    fn floats_render_exactly_like_std_display() {
        let mut cases = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        cases.extend([f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::EPSILON]);
        cases.extend([f64::from_bits(1), f64::from_bits(0x000F_FFFF_FFFF_FFFF)]);
        let around = |x: f64, cases: &mut Vec<f64>| {
            let (mut up, mut down) = (x, x);
            for _ in 0..4 {
                cases.extend([up, down, -up, -down]);
                (up, down) = (up.next_up(), down.next_down());
            }
        };
        for k in -22..=22 {
            around(format!("1e{k}").parse().unwrap(), &mut cases);
        }
        let cut = (1u64 << 50) as f64;
        for d in 0..=22 {
            around(cut / format!("1e{d}").parse::<f64>().unwrap(), &mut cases);
        }
        around(cut, &mut cases);
        let mut rng = crate::prng::Prng::new(24);
        for _ in 0..300_000 {
            cases.push(f64::from_bits(rng.next_u64()));
        }
        for _ in 0..10_000 {
            cases.push(f64::from_bits(rng.next_u64() >> 12));
        }
        // Short decimals: up to 12 digits with 0-6 of them after the
        // point, as text would parse them.
        for _ in 0..600_000 {
            let digits = rng.next_u64() % 10u64.pow(1 + (rng.next_u64() % 12) as u32);
            let d = rng.next_u64() % 7;
            let x: f64 = format!("{digits}e-{d}").parse().unwrap();
            assert!(
                short_decimal(x).is_some(),
                "{digits}e-{d} misses the fast path"
            );
            cases.push(if rng.chance(0.5) { -x } else { x });
        }
        // Floats of every scale around the fast path's reach.
        for _ in 0..100_000 {
            let e = rng.int_range(-30, 30) as i32;
            cases.push(rng.float_range(-1.0, 1.0) * 10f64.powi(e));
        }
        assert!(cases.len() >= 1_000_000, "{} draws", cases.len());
        for x in cases {
            assert_eq!(
                rendered(ValueRef::Float(x)),
                format!("{x}"),
                "bits {:#x}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn total_cmp_sorts_null_first() {
        let mut v = [Value::Int(2), Value::Null, Value::Int(1)];
        v.sort_by(super::Value::total_cmp);
        assert!(v[0].is_null());
        assert_eq!(v[1], Value::Int(1));
    }
}
