//! Key hashing and the flat group table.
//!
//! [`hash_lanes`] is the one key hash of the workspace: hash
//! aggregation groups on it, spill partitions route by it, and every
//! hash index — a join's build and a stored table's index alike — keys
//! on it. [`GroupTable`] gives each distinct key a dense id.
//!
//! The hash reads each key column once per batch as its typed slice and
//! mixes every lane's exact 64-bit image into a running word ([`mix`]);
//! one avalanche step ([`avalanche`]) ends each lane's hash, because
//! spill routing reads its lowest [`ROUTE_BITS`] three at a level and a
//! group table homes keys on the bits above those. Grouping-equal keys
//! have equal images, so a lane and the equal [`Value`]s hash alike
//! ([`hash_values`]) whatever the columns' representation.

use std::sync::Arc;

use crate::column::{ColData, Column};
use crate::value::{DataType, Value, ValueRef};

/// Where every lane's hash starts.
const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// The multiplier of [`mix`]: odd, so a lane's step is a bijection of
/// its image.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A NULL lane's image.
const NULL_IMAGE: u64 = 0x6E75_6C6C_6E75_6C6C;
/// Tags that set the other images apart: an `Int` with no exact float,
/// a `Bool`, a `Date` and a string's length word.
const INT_TAG: u64 = 0x696E_7400_0000_0000;
const BOOL_TAG: u64 = 0x626F_6F6C_0000_0000;
const DATE_TAG: u64 = 0x6461_7465_0000_0000;
const STR_TAG: u64 = 0x7374_7200_0000_0000;

/// The low hash bits spill routing reads: three a level, at levels 0
/// to 3 (the exec crate's `MAX_SPILL_DEPTH`, which a test ties to this
/// constant). A [`GroupTable`] homes keys on the bits above.
pub const ROUTE_BITS: u32 = 12;

/// One step of a lane's hash: folds the image `x` into the running
/// word `h`.
#[inline(always)]
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(MIX).rotate_left(29)
}

/// Ends a lane's hash: every input bit reaches every output bit, low
/// ones included.
#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// An `Int`: the bits of the float it equals exactly, so `3` and `3.0`
/// hash alike; an integer with no such float under its own tag.
#[inline(always)]
fn mix_int(h: u64, i: i64) -> u64 {
    // Every integer of magnitude up to 2^53 is a float exactly.
    if i.unsigned_abs() <= 1 << 53 {
        return mix(h, (i as f64).to_bits());
    }
    match Value::exact_f64(i) {
        Some(f) => mix(h, f.to_bits()),
        None => mix(mix(h, INT_TAG), i as u64),
    }
}

#[inline(always)]
fn mix_float(h: u64, f: f64) -> u64 {
    mix(h, Value::canonical_f64(f))
}

#[inline(always)]
fn mix_bool(h: u64, b: bool) -> u64 {
    mix(h, BOOL_TAG | u64::from(b))
}

#[inline(always)]
fn mix_date(h: u64, d: i32) -> u64 {
    mix(h, DATE_TAG | u64::from(d as u32))
}

/// A string: its length, then its bytes as 8-byte words, the last one
/// overlapping the one before when the length is not a multiple of 8.
/// Given the length, the words are the string. Up to 8 bytes are one
/// word read as two overlapping halves, with no copy.
#[inline(always)]
fn mix_str(h: u64, s: &[u8]) -> u64 {
    let n = s.len();
    let h = mix(h, STR_TAG | n as u64);
    if n <= 8 {
        return mix(h, short_word(s));
    }
    let mut chunks = s.chunks_exact(8);
    let mut h = chunks.by_ref().fold(h, |h, w| mix(h, word(w)));
    if !chunks.remainder().is_empty() {
        h = mix(h, word(&s[n - 8..]));
    }
    h
}

/// Eight bytes as a little-endian word.
#[inline(always)]
fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("8 bytes"))
}

/// Up to eight bytes as a word that, with their count, determines them.
#[inline(always)]
fn short_word(s: &[u8]) -> u64 {
    let n = s.len();
    if n >= 4 {
        let half = |at: usize| u64::from(u32::from_le_bytes(s[at..at + 4].try_into().expect("4")));
        half(0) | half(n - 4) << 32
    } else if n > 0 {
        u64::from(s[0]) | u64::from(s[n / 2]) << 8 | u64::from(s[n - 1]) << 16
    } else {
        0
    }
}

/// One lane's image of any representation: what a `Val` lane and
/// [`hash_values`] mix, and the same image a typed lane mixes.
#[inline]
fn mix_value(h: u64, v: ValueRef<'_>) -> u64 {
    match v {
        ValueRef::Null => mix(h, NULL_IMAGE),
        ValueRef::Bool(b) => mix_bool(h, b),
        ValueRef::Int(i) => mix_int(h, i),
        ValueRef::Float(f) => mix_float(h, f),
        ValueRef::Str(s) => mix_str(h, s.as_bytes()),
        ValueRef::Date(d) => mix_date(h, d),
    }
}

/// Hash of a key's values in order: what [`hash_lanes`] computes for a
/// lane holding them.
pub fn hash_values(key: &[Value]) -> u64 {
    avalanche(key.iter().fold(SEED, |h, v| mix_value(h, v.as_value_ref())))
}

/// Per-lane key hashes over the given key columns: each column is one
/// typed loop over its lanes.
pub fn hash_lanes(key_cols: &[&Column], len: usize) -> Vec<u64> {
    if key_cols.is_empty() {
        return vec![avalanche(SEED); len];
    }
    let mut hashes = vec![SEED; len];
    for c in key_cols {
        mix_column(&mut hashes, c);
    }
    for h in &mut hashes {
        *h = avalanche(*h);
    }
    hashes
}

/// Mixes every lane of `c` into its running hash in `hashes`.
fn mix_column(hashes: &mut [u64], c: &Column) {
    let (data, validity, off) = c.parts();
    let nulls = (!c.all_valid()).then_some(validity);
    let window = off..off + hashes.len();
    macro_rules! lanes {
        ($v:expr, $mix:expr) => {{
            let lanes = &$v[window];
            match nulls {
                None => {
                    for (h, x) in hashes.iter_mut().zip(lanes) {
                        *h = $mix(*h, x);
                    }
                }
                Some(b) => {
                    for (i, (h, x)) in hashes.iter_mut().zip(lanes).enumerate() {
                        *h = if b.get(off + i) {
                            $mix(*h, x)
                        } else {
                            mix(*h, NULL_IMAGE)
                        };
                    }
                }
            }
        }};
    }
    match data {
        ColData::Int(v) => lanes!(v, |h, &x| mix_int(h, x)),
        ColData::Float(v) => lanes!(v, |h, &x| mix_float(h, x)),
        ColData::Bool(v) => lanes!(v, |h, &x| mix_bool(h, x)),
        ColData::Str(v) => lanes!(v, |h, x: &Arc<str>| mix_str(h, x.as_bytes())),
        ColData::Date(v) => lanes!(v, |h, &x| mix_date(h, x)),
        ColData::Val(v) => lanes!(v, |h, x: &Value| mix_value(h, x.as_value_ref())),
    }
}

/// True when every key column is non-NULL at lane `i` (SQL join keys:
/// NULL never matches).
#[inline]
pub fn keys_valid(key_cols: &[&Column], i: usize) -> bool {
    key_cols.iter().all(|c| c.is_valid(i))
}

/// The top 32 bits of a key hash, kept in a slot beside the group id.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// A key's home slot among `mask + 1`: the hash bits above the ones
/// spill routing reads, so the keys one spill partition holds spread
/// over every slot.
#[inline(always)]
fn home(h: u64, mask: usize) -> usize {
    (h >> ROUTE_BITS) as usize & mask
}

/// Where a lane's key lives in a [`GroupTable`]: its group, or the free
/// slot a new group for it would take.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// The key's group id.
    Found(u32),
    /// The slot a new group for the key would take.
    Vacant(usize),
}

/// The hash side of a [`GroupTable`]: each group's key hash and the
/// linear-probing slots over them.
#[derive(Debug, Default)]
struct Slots {
    /// Each group's key hash.
    hashes: Vec<u64>,
    /// A power of two long and at most half full: 0 when empty, else
    /// the key hash's [`TAG`] bits over the group id + 1.
    slots: Vec<u64>,
}

impl Slots {
    /// Makes room for one more group.
    #[inline]
    fn reserve_one(&mut self) {
        if 2 * (self.hashes.len() + 1) > self.slots.len() {
            self.rehash((2 * self.slots.len()).max(16));
        }
    }

    /// Walks the slots from `h`'s home to the group `same` accepts or
    /// to the first free slot. There must be slots.
    #[inline]
    fn search(&self, h: u64, mut same: impl FnMut(usize) -> bool) -> Probe {
        let mask = self.slots.len() - 1;
        let mut s = home(h, mask);
        loop {
            let e = self.slots[s];
            if e == 0 {
                return Probe::Vacant(s);
            }
            let g = (e as u32 - 1) as usize;
            if (e ^ h) & TAG == 0 && same(g) {
                return Probe::Found(g as u32);
            }
            s = (s + 1) & mask;
        }
    }

    /// The next group, hash `h`, in the `Vacant` slot `s`.
    #[inline]
    fn insert(&mut self, s: usize, h: u64) -> u32 {
        let g = self.hashes.len() as u32;
        self.hashes.push(h);
        self.slots[s] = (h & TAG) | (u64::from(g) + 1);
        g
    }

    /// Re-slots every group into `cap` slots.
    fn rehash(&mut self, cap: usize) {
        let mask = cap - 1;
        self.slots = vec![0; cap];
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut s = home(h, mask);
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = (h & TAG) | (g as u64 + 1);
        }
    }
}

/// Open-addressing hash table from a group key to a dense group id.
///
/// Ids are `u32`s handed out in first-seen order. A key is hashed by
/// [`hash_lanes`] — the hash spill partitions route by — and compared
/// by grouping equality ([`Column::lanes_eq`]): `3` and `3.0` are one
/// group, NULL groups with NULL. Keys are
/// stored as one typed column per key position, grown by one lane per
/// new group. A new table allocates nothing until its first group.
#[derive(Debug, Default)]
pub struct GroupTable {
    /// Group keys: lane `g` of column `k` is key position `k` of group
    /// `g`. Empty until the first group (and for a zero-column key).
    keys: Vec<Column>,
    index: Slots,
}

impl GroupTable {
    /// An empty table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.index.hashes.len()
    }

    /// True before the first group.
    pub fn is_empty(&self) -> bool {
        self.index.hashes.is_empty()
    }

    /// The key columns: lane `g` is group `g`'s key. Empty when the
    /// table is (and when the key has no columns).
    pub fn keys(&self) -> &[Column] {
        &self.keys
    }

    /// The key columns, consumed.
    pub fn into_keys(self) -> Vec<Column> {
        self.keys
    }

    /// Each group's key hash, by group id.
    pub fn hashes(&self) -> &[u64] {
        &self.index.hashes
    }

    /// Group ids of lanes `0..hashes.len()` of `key_cols`, adding a
    /// group for every key not seen before. `hashes` are the lanes'
    /// [`hash_lanes`].
    pub fn assign(&mut self, key_cols: &[&Column], hashes: &[u64]) -> Vec<u32> {
        let mut ids = Vec::with_capacity(hashes.len());
        self.assign_while(key_cols, hashes, &mut ids, |_| true);
        ids
    }

    /// Appends to `ids` the group ids of lanes `0..hashes.len()` of
    /// `key_cols`, in lane order, adding a group for a key not seen
    /// before once `admit(lane)` agrees. Stops at the first new key
    /// `admit` refuses, the lanes before it having their ids.
    pub fn assign_while(
        &mut self,
        key_cols: &[&Column],
        hashes: &[u64],
        ids: &mut Vec<u32>,
        mut admit: impl FnMut(usize) -> bool,
    ) {
        if self.keys.len() != key_cols.len() {
            self.keys = key_cols.iter().map(|c| empty_like(c)).collect();
        }
        let GroupTable { keys, index } = self;
        for (i, &h) in hashes.iter().enumerate() {
            index.reserve_one();
            let same = |g: usize| keys.iter().zip(key_cols).all(|(k, c)| k.lanes_eq(g, c, i));
            let g = match index.search(h, same) {
                Probe::Found(g) => g,
                Probe::Vacant(s) => {
                    if !admit(i) {
                        return;
                    }
                    for (k, c) in keys.iter_mut().zip(key_cols) {
                        k.push(c.value(i));
                    }
                    index.insert(s, h)
                }
            };
            ids.push(g);
        }
    }

    /// The group id of lane `i` (hash `h`) of `key_cols`, adding a group
    /// if its key is new.
    #[inline]
    pub fn assign_lane(&mut self, key_cols: &[&Column], i: usize, h: u64) -> u32 {
        match self.probe(key_cols, i, h) {
            Probe::Found(g) => g,
            Probe::Vacant(s) => self.insert(s, key_cols, i, h),
        }
    }

    /// The group of lane `i` (hash `h`) of `key_cols`, if its key has
    /// one; adds nothing.
    #[inline]
    pub fn find(&self, key_cols: &[&Column], i: usize, h: u64) -> Option<u32> {
        self.find_by(h, |g| {
            self.keys
                .iter()
                .zip(key_cols)
                .all(|(k, c)| k.lanes_eq(g, c, i))
        })
    }

    /// The group of the key `key` (hash [`hash_values`]), if it has one.
    #[inline]
    pub fn find_values(&self, key: &[Value], h: u64) -> Option<u32> {
        self.find_by(h, |g| {
            self.keys.iter().zip(key).all(|(k, v)| k.lane_eq(g, v))
        })
    }

    #[inline]
    fn find_by(&self, h: u64, same: impl Fn(usize) -> bool) -> Option<u32> {
        if self.index.slots.is_empty() {
            return None;
        }
        match self.index.search(h, same) {
            Probe::Found(g) => Some(g),
            Probe::Vacant(_) => None,
        }
    }

    /// Looks lane `i` (hash `h`) up, first making room for one more
    /// group so a `Vacant` slot can be filled by [`insert`].
    ///
    /// [`insert`]: GroupTable::insert
    #[inline]
    pub fn probe(&mut self, key_cols: &[&Column], i: usize, h: u64) -> Probe {
        self.index.reserve_one();
        self.index.search(h, |g| {
            self.keys
                .iter()
                .zip(key_cols)
                .all(|(k, c)| k.lanes_eq(g, c, i))
        })
    }

    /// Adds lane `i` of `key_cols` as the next group, in the `Vacant`
    /// slot `s` a [`probe`](GroupTable::probe) just returned.
    #[inline]
    pub fn insert(&mut self, s: usize, key_cols: &[&Column], i: usize, h: u64) -> u32 {
        if self.keys.len() != key_cols.len() {
            self.keys = key_cols.iter().map(|c| empty_like(c)).collect();
        }
        for (k, c) in self.keys.iter_mut().zip(key_cols) {
            k.push(c.value(i));
        }
        self.index.insert(s, h)
    }

    /// The groups `ids`, renumbered `0..ids.len()` in that order.
    pub fn gather(&self, ids: &[usize]) -> GroupTable {
        let mut index = Slots {
            hashes: ids.iter().map(|&g| self.index.hashes[g]).collect(),
            slots: Vec::new(),
        };
        index.rehash((2 * ids.len()).next_power_of_two().max(16));
        GroupTable {
            keys: self.keys.iter().map(|c| c.gather(ids)).collect(),
            index,
        }
    }
}

/// An empty column with `c`'s storage type, for a key column to grow.
fn empty_like(c: &Column) -> Column {
    let ty = match c.parts().0 {
        ColData::Int(_) => DataType::Int,
        ColData::Float(_) => DataType::Float,
        ColData::Bool(_) => DataType::Bool,
        ColData::Str(_) => DataType::Str,
        ColData::Date(_) => DataType::Date,
        ColData::Val(_) => return Column::from_values(Vec::new()),
    };
    Column::new(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{rows_to_columns, Bitmap, ColumnData};
    use crate::prng::Prng;
    use crate::row::Row;

    const P53: i64 = 1 << 53;

    /// One key part of representation `kind` (0 `Int`, 1 `Float`,
    /// 2 `Bool`, 3 `Date`, 4 `Str`), at the corners of grouping
    /// equality: NULL, ±0.0, NaNs, integers around 2^53 and past 2^63
    /// as floats, strings of 0 to 17 characters, some not ASCII.
    fn corner(rng: &mut Prng, kind: usize) -> Value {
        if rng.chance(0.15) {
            return Value::Null;
        }
        match kind {
            0 => Value::Int(*rng.pick(&[
                0,
                -1,
                3,
                P53 - 1,
                P53,
                P53 + 1,
                -P53 - 1,
                i64::MIN,
                i64::MAX,
            ])),
            1 => Value::Float(*rng.pick(&[
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                3.0,
                1.5,
                P53 as f64,
                (P53 + 2) as f64,
                9_223_372_036_854_775_808.0,
                f64::NEG_INFINITY,
            ])),
            2 => Value::Bool(rng.chance(0.5)),
            3 => Value::Date(*rng.pick(&[0, -1, 3, 19_000, i32::MIN, i32::MAX])),
            _ => {
                let n = rng.int_range(0, 17) as usize;
                Value::str(
                    (0..n)
                        .map(|_| *rng.pick(&['a', 'b', 'é', '€', '\0']))
                        .collect::<String>(),
                )
            }
        }
    }

    /// `vals` as a `Val` column, whatever they hold.
    fn val_column(vals: Vec<Value>) -> Column {
        let validity = Bitmap::from_flags(vals.iter().map(|v| !v.is_null()));
        Column::from_data(ColumnData {
            data: ColData::Val(vals),
            validity,
        })
    }

    /// Over random keys of one to three parts of every representation:
    /// `hash_lanes` on typed columns, on the same keys as `Val` columns
    /// and on windows of either, and `hash_values` on the key, agree;
    /// and keys equal under grouping equality hash equally.
    #[test]
    fn typed_val_and_value_hashes_agree() {
        let mut rng = Prng::new(36);
        for case in 0..300 {
            let width = rng.int_range(1, 3) as usize;
            // A column of one representation, or (kind 5) of mixed ones.
            let kinds: Vec<usize> = (0..width).map(|_| rng.int_range(0, 5) as usize).collect();
            let rows: Vec<Row> = (0..rng.int_range(1, 40))
                .map(|_| {
                    kinds
                        .iter()
                        .map(|&k| {
                            let k = if k == 5 {
                                rng.int_range(0, 4) as usize
                            } else {
                                k
                            };
                            corner(&mut rng, k)
                        })
                        .collect()
                })
                .collect();
            let n = rows.len();
            let typed = rows_to_columns(&rows, width);
            let vals: Vec<Column> = (0..width)
                .map(|j| val_column(rows.iter().map(|r| r[j].clone()).collect()))
                .collect();
            let want: Vec<u64> = rows.iter().map(|r| hash_values(r)).collect();
            for cols in [&typed, &vals] {
                let refs: Vec<&Column> = cols.iter().collect();
                assert_eq!(hash_lanes(&refs, n), want, "case {case}: {rows:?}");
                let windows: Vec<Column> = cols.iter().map(|c| c.slice(1, n - 1)).collect();
                let refs: Vec<&Column> = windows.iter().collect();
                assert_eq!(hash_lanes(&refs, n - 1), want[1..], "case {case}: window");
            }
            for (i, a) in rows.iter().enumerate() {
                for (j, b) in rows.iter().enumerate() {
                    if a == b {
                        assert_eq!(want[i], want[j], "case {case}: {a:?} and {b:?}");
                    }
                }
            }
        }
    }

    /// Grouping equality of an `Int` with a `Float` is exact, so it is
    /// transitive and agrees with the hash: 2^53 + 1 rounds to the float
    /// 2^53 under `as f64`, yet equals neither it nor the integer 2^53.
    #[test]
    fn int_float_equality_is_exact() {
        let (odd, float, even) = (
            Value::Int(P53 + 1),
            Value::Float(P53 as f64),
            Value::Int(P53),
        );
        assert_ne!(odd, float);
        assert_eq!(float, even);
        assert_ne!(odd, even);
        assert_eq!(
            hash_values(std::slice::from_ref(&float)),
            hash_values(&[even])
        );
        // i64::MAX converts to 2^63 and back to itself only by saturation.
        assert_ne!(
            Value::Int(i64::MAX),
            Value::Float(9_223_372_036_854_775_808.0)
        );
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        let col = Column::from_values(vec![odd.clone()]);
        assert!(!col.lane_eq(0, &float));
        let floats = Column::from_values(vec![float]);
        assert!(!col.lanes_eq(0, &floats, 0));
    }

    /// The keys one spill partition holds share their routing bits at a
    /// level, yet a group table homes them on every residue mod 8 of
    /// its slots: home slots read the bits above [`ROUTE_BITS`].
    #[test]
    fn one_partition_spreads_over_every_home_residue() {
        let hashes: Vec<u64> = (0..4000).map(|i| hash_values(&[Value::Int(i)])).collect();
        for level in 0..(ROUTE_BITS / 3) {
            let mut residues = [0usize; 8];
            for &h in hashes.iter().filter(|&&h| (h >> (3 * level)) & 7 == 0) {
                residues[home(h, 1023) % 8] += 1;
            }
            assert!(
                residues.iter().all(|&n| n > 0),
                "level {level}: {residues:?}"
            );
        }
    }

    #[test]
    fn hash_lanes_agree_with_hash_values() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(3), Value::str("k")],
            vec![Value::Float(3.0), Value::Null],
        ];
        let cols = rows_to_columns(&rows, 2);
        let refs: Vec<&Column> = cols.iter().collect();
        let lanes = hash_lanes(&refs, rows.len());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(lanes[i], hash_values(r), "lane {i}");
        }
        // Int(3) and Float(3.0) are grouping-equal, so they must hash equal.
        assert_eq!(
            hash_values(&[Value::Int(3)]),
            hash_values(&[Value::Float(3.0)])
        );
    }

    /// `find` and `find_values` see exactly the groups `assign` made,
    /// under grouping equality, and add none.
    #[test]
    fn lookups_find_assigned_groups_only() {
        let cols = rows_to_columns(
            &[
                vec![Value::Int(3), Value::str("a")],
                vec![Value::Int(4), Value::Null],
            ],
            2,
        );
        let refs: Vec<&Column> = cols.iter().collect();
        let empty = GroupTable::new();
        assert_eq!(empty.find(&refs, 0, hash_lanes(&refs, 1)[0]), None);
        let mut table = GroupTable::new();
        assert_eq!(table.assign(&refs, &hash_lanes(&refs, 2)), [0, 1]);
        let key = [Value::Float(3.0), Value::str("a")];
        assert_eq!(table.find_values(&key, hash_values(&key)), Some(0));
        let key = [Value::Int(4), Value::Null];
        assert_eq!(table.find_values(&key, hash_values(&key)), Some(1));
        let key = [Value::Int(4), Value::str("a")];
        assert_eq!(table.find_values(&key, hash_values(&key)), None);
        let probe = rows_to_columns(&[vec![Value::Float(4.0), Value::Null]], 2);
        let probe: Vec<&Column> = probe.iter().collect();
        assert_eq!(table.find(&probe, 0, hash_lanes(&probe, 1)[0]), Some(1));
        assert_eq!(table.len(), 2);
    }
}
