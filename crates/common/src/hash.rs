//! Key hashing and the flat group table.
//!
//! [`hash_lanes`] is the one key hash of the workspace: hash
//! aggregation groups on it, spill partitions route by it, and every
//! hash index — a join's build and a stored table's index alike — keys
//! on it. [`GroupTable`] gives each distinct key a dense id.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::column::{ColData, Column};
use crate::value::{DataType, Value};

/// Hash of a key's values in order: what [`hash_lanes`] computes for a
/// lane holding them. Uses `Value`'s own `Hash` (which already
/// canonicalizes `Int`/`Float` so grouping-equal values hash equal).
pub fn hash_values(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Per-lane key hashes over the given key columns.
pub fn hash_lanes(key_cols: &[&Column], len: usize) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let mut h = DefaultHasher::new();
            for c in key_cols {
                c.value_ref(i).hash(&mut h);
            }
            h.finish()
        })
        .collect()
}

/// True when every key column is non-NULL at lane `i` (SQL join keys:
/// NULL never matches).
#[inline]
pub fn keys_valid(key_cols: &[&Column], i: usize) -> bool {
    key_cols.iter().all(|c| c.is_valid(i))
}

/// The top 32 bits of a key hash, kept in a slot beside the group id.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// Where a lane's key lives in a [`GroupTable`]: its group, or the free
/// slot a new group for it would take.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// The key's group id.
    Found(u32),
    /// The slot a new group for the key would take.
    Vacant(usize),
}

/// Open-addressing hash table from a group key to a dense group id.
///
/// Ids are `u32`s handed out in first-seen order. A key is hashed by
/// [`hash_lanes`] — the hash spill partitions route by — and compared
/// by [`Column::lanes_eq`], i.e. by `Value`'s grouping equality: `3`
/// and `3.0` are one group, NULL groups with NULL. Keys are stored as
/// one typed column per key position, grown by one lane per new group.
/// A new table allocates nothing until its first group.
#[derive(Debug, Default)]
pub struct GroupTable {
    /// Group keys: lane `g` of column `k` is key position `k` of group
    /// `g`. Empty until the first group (and for a zero-column key).
    keys: Vec<Column>,
    /// Each group's key hash.
    hashes: Vec<u64>,
    /// Linear-probing slots, a power of two long and at most half
    /// full: 0 when empty, else the key hash's [`TAG`] bits over the
    /// group id + 1.
    slots: Vec<u64>,
}

impl GroupTable {
    /// An empty table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True before the first group.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
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
        &self.hashes
    }

    /// Group ids of lanes `0..hashes.len()` of `key_cols`, adding a
    /// group for every key not seen before. `hashes` are the lanes'
    /// [`hash_lanes`].
    pub fn assign(&mut self, key_cols: &[&Column], hashes: &[u64]) -> Vec<u32> {
        hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| self.assign_lane(key_cols, i, h))
            .collect()
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
        if self.slots.is_empty() {
            return None;
        }
        match self.search(h, same) {
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
        if 2 * (self.len() + 1) > self.slots.len() {
            self.rehash((2 * self.slots.len()).max(16));
        }
        self.search(h, |g| {
            self.keys
                .iter()
                .zip(key_cols)
                .all(|(k, c)| k.lanes_eq(g, c, i))
        })
    }

    /// Walks the slots from `h`'s home to the group `same` accepts or
    /// to the first free slot. The table must have slots.
    #[inline]
    fn search(&self, h: u64, same: impl Fn(usize) -> bool) -> Probe {
        let mask = self.slots.len() - 1;
        let mut s = h as usize & mask;
        loop {
            let e = self.slots[s];
            if e == 0 {
                return Probe::Vacant(s);
            }
            let g = (e as u32 - 1) as usize;
            if (e ^ h) & TAG == 0 && self.hashes[g] == h && same(g) {
                return Probe::Found(g as u32);
            }
            s = (s + 1) & mask;
        }
    }

    /// Adds lane `i` of `key_cols` as the next group, in the `Vacant`
    /// slot `s` a [`probe`](GroupTable::probe) just returned.
    #[inline]
    pub fn insert(&mut self, s: usize, key_cols: &[&Column], i: usize, h: u64) -> u32 {
        let g = self.len() as u32;
        if self.keys.len() != key_cols.len() {
            self.keys = key_cols.iter().map(|c| empty_like(c)).collect();
        }
        for (k, c) in self.keys.iter_mut().zip(key_cols) {
            k.push(c.value(i));
        }
        self.hashes.push(h);
        self.slots[s] = (h & TAG) | (u64::from(g) + 1);
        g
    }

    /// Re-slots every group into `cap` slots.
    fn rehash(&mut self, cap: usize) {
        let mask = cap - 1;
        self.slots = vec![0; cap];
        for (g, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & mask;
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = (h & TAG) | (g as u64 + 1);
        }
    }

    /// The groups `ids`, renumbered `0..ids.len()` in that order.
    pub fn gather(&self, ids: &[usize]) -> GroupTable {
        let mut t = GroupTable {
            keys: self.keys.iter().map(|c| c.gather(ids)).collect(),
            hashes: ids.iter().map(|&g| self.hashes[g]).collect(),
            slots: Vec::new(),
        };
        t.rehash((2 * ids.len()).next_power_of_two().max(16));
        t
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
    use crate::column::rows_to_columns;
    use crate::row::Row;

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
