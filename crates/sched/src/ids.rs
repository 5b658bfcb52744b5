//! Typed entity indices over dense tables.
//!
//! Every hot structure in the executor is a struct-of-arrays table
//! indexed by some entity id — process tables by pid, shard tables by
//! shard, a shard's local slots by local index. Historically all three
//! were bare `usize`, which made it possible (and, during the shard
//! refactor, *easy*) to index a local table with a global pid and get a
//! silently wrong run. The [`crate::entity_id!`] macro mints one
//! newtype per index space and [`EntityVec`] is the dense table keyed
//! by exactly one of them, so the compiler rejects cross-space
//! indexing outright —
//! the `EntityId`/`EntityVec` idiom of interconnect/EDA codebases,
//! specialized to this executor's three spaces:
//!
//! * [`Pid`] — a process id, `0..n`, global within one execution.
//! * [`ShardId`] — one of the `S` shards of a sharded execution.
//! * [`LocalIdx`] — a process's slot *within* its shard's tables.
//!
//! [`ShardMap`] is the pure arithmetic tying them together: the
//! round-robin partition `Pid ↔ (ShardId, LocalIdx)` used by the
//! [`crate::shard`] engine. All ids are `u32`-backed: n = 2²⁶ pids fit
//! with room to spare, and the executor's `active` scan moves half the
//! bytes a `usize` vector would.

use std::marker::PhantomData;

/// Mints an index newtype (`u32`-backed) for one entity space.
///
/// Generated API: `new(usize)`, `index(self) -> usize`, `Display` as the
/// bare number, `From<usize>` / `Into<usize>`, and the usual derives
/// (`Copy`, `Ord`, `Hash`, …). Use one id type per table family and let
/// [`EntityVec`] enforce it.
#[macro_export]
macro_rules! entity_id {
    ($(#[$doc:meta])* $vis:vis struct $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(u32);

        impl $name {
            /// Wraps a raw table index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in the `u32` backing store.
            #[inline]
            pub const fn new(idx: usize) -> Self {
                assert!(idx <= u32::MAX as usize, "entity index exceeds u32 backing");
                Self(idx as u32)
            }

            /// The raw table index this id wraps.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<usize> for $name {
            fn from(idx: usize) -> Self {
                Self::new(idx)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

entity_id! {
    /// A process id: stable, `0..n`, global within one execution.
    pub struct Pid
}

entity_id! {
    /// One of the `S` shards of a sharded execution.
    pub struct ShardId
}

entity_id! {
    /// A process's slot within its shard's local tables.
    pub struct LocalIdx
}

/// The first `n` pids, in order — the standard way to enumerate a run's
/// process space (and to build test fixtures without sprinkling
/// `Pid::new` everywhere).
pub fn pids(n: usize) -> impl Iterator<Item = Pid> {
    (0..n).map(Pid::new)
}

/// A dense table keyed by exactly one entity id type.
///
/// The struct-of-arrays companion to [`crate::entity_id!`]: a `Vec<T>` whose
/// index is a typed id, so a [`Pid`]-keyed table cannot be read with a
/// [`LocalIdx`] (or a bare `usize`) by construction.
///
/// ```
/// use rr_sched::ids::{EntityVec, Pid};
///
/// let mut steps: EntityVec<Pid, u64> = rr_sched::entity_vec![0; 4];
/// steps[Pid::new(2)] += 1;
/// assert_eq!(steps[Pid::new(2)], 1);
/// assert_eq!(steps.len(), 4);
/// assert_eq!(steps.iter_enumerated().filter(|(_, &s)| s > 0).count(), 1);
/// ```
pub struct EntityVec<I, T> {
    raw: Vec<T>,
    _key: PhantomData<fn(I)>,
}

impl<I: Into<usize> + From<usize>, T> EntityVec<I, T> {
    /// An empty table.
    pub const fn new() -> Self {
        Self { raw: Vec::new(), _key: PhantomData }
    }

    /// Wraps an already-built dense vector whose position *is* the id.
    pub fn from_vec(raw: Vec<T>) -> Self {
        Self { raw, _key: PhantomData }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Appends a value, returning the id of its slot.
    pub fn push(&mut self, value: T) -> I {
        self.raw.push(value);
        I::from(self.raw.len() - 1)
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.raw.clear();
    }

    /// Resizes to `len` entries, filling new slots with `value`.
    pub fn resize(&mut self, len: usize, value: T)
    where
        T: Clone,
    {
        self.raw.resize(len, value);
    }

    /// Borrows the backing slice (positional, untyped — for bulk ops
    /// like sums and comparisons, not per-entity indexing).
    pub fn as_slice(&self) -> &[T] {
        &self.raw
    }

    /// Consumes the table into its backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.raw
    }

    /// Iterates values in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterates `(id, &value)` pairs in id order.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.raw.iter().enumerate().map(|(i, v)| (I::from(i), v))
    }

    /// The ids of the table, in order.
    pub fn ids(&self) -> impl Iterator<Item = I> + use<I, T> {
        (0..self.raw.len()).map(I::from)
    }

    /// Typed bounds-checked lookup.
    pub fn get(&self, id: I) -> Option<&T> {
        self.raw.get(id.into())
    }
}

impl<I: Into<usize> + From<usize>, T> std::ops::Index<I> for EntityVec<I, T> {
    type Output = T;

    fn index(&self, id: I) -> &T {
        &self.raw[id.into()]
    }
}

impl<I: Into<usize> + From<usize>, T> std::ops::IndexMut<I> for EntityVec<I, T> {
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.raw[id.into()]
    }
}

impl<I, T> From<Vec<T>> for EntityVec<I, T> {
    fn from(raw: Vec<T>) -> Self {
        Self { raw, _key: PhantomData }
    }
}

impl<I, T> FromIterator<T> for EntityVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        Self { raw: iter.into_iter().collect(), _key: PhantomData }
    }
}

impl<I, T> IntoIterator for EntityVec<I, T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.raw.into_iter()
    }
}

impl<'a, I, T> IntoIterator for &'a EntityVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

impl<I, T: Clone> Clone for EntityVec<I, T> {
    fn clone(&self) -> Self {
        Self { raw: self.raw.clone(), _key: PhantomData }
    }
}

impl<I, T: std::fmt::Debug> std::fmt::Debug for EntityVec<I, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.raw.fmt(f)
    }
}

impl<I, T> Default for EntityVec<I, T> {
    fn default() -> Self {
        Self { raw: Vec::new(), _key: PhantomData }
    }
}

impl<I, T: PartialEq> PartialEq for EntityVec<I, T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl<I, T: Eq> Eq for EntityVec<I, T> {}

/// `vec![…]`-style constructor for [`EntityVec`] — same two forms
/// (`entity_vec![value; count]` and `entity_vec![a, b, c]`).
#[macro_export]
macro_rules! entity_vec {
    ($value:expr; $count:expr) => {
        $crate::ids::EntityVec::from_vec(vec![$value; $count])
    };
    ($($item:expr),* $(,)?) => {
        $crate::ids::EntityVec::from_vec(vec![$($item),*])
    };
}

/// The round-robin partition of a run's pid space into `S` shards —
/// the pure index arithmetic behind the [`crate::shard`] engine's merge.
///
/// Pid `p` lives in shard `p mod S` at local slot `p div S`, so shard
/// sizes differ by at most one and low pids spread across all shards
/// (the paper's protocols key their coin-flip streams by pid; striping
/// keeps every shard's stream mix representative).
///
/// ```
/// use rr_sched::ids::{LocalIdx, Pid, ShardId, ShardMap};
///
/// let map = ShardMap::new(3);
/// let p = Pid::new(7);
/// assert_eq!(map.shard_of(p), ShardId::new(1));
/// assert_eq!(map.local_of(p), LocalIdx::new(2));
/// assert_eq!(map.global_of(ShardId::new(1), LocalIdx::new(2)), p);
/// assert_eq!(map.shard_len(ShardId::new(0), 8), 3); // pids 0, 3, 6
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A partition into `shards ≥ 1` shards.
    ///
    /// # Panics
    /// Panics on `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a shard map needs at least one shard");
        Self { shards }
    }

    /// Number of shards `S`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard pid `p` is partitioned into.
    pub fn shard_of(&self, p: Pid) -> ShardId {
        ShardId::new(p.index() % self.shards)
    }

    /// Pid `p`'s slot within its shard's local tables.
    pub fn local_of(&self, p: Pid) -> LocalIdx {
        LocalIdx::new(p.index() / self.shards)
    }

    /// The global pid at shard `s`, local slot `l` — inverse of
    /// [`ShardMap::shard_of`] + [`ShardMap::local_of`].
    pub fn global_of(&self, s: ShardId, l: LocalIdx) -> Pid {
        Pid::new(l.index() * self.shards + s.index())
    }

    /// Number of pids out of `0..n` that land in shard `s`.
    pub fn shard_len(&self, s: ShardId, n: usize) -> usize {
        if s.index() >= n {
            0
        } else {
            (n - s.index()).div_ceil(self.shards)
        }
    }

    /// The shard ids of the partition, in order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + use<> {
        (0..self.shards).map(ShardId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_render() {
        let p = Pid::new(42);
        assert_eq!(p.index(), 42);
        assert_eq!(usize::from(p), 42);
        assert_eq!(Pid::from(42usize), p);
        assert_eq!(format!("{p}"), "42");
        assert_eq!(format!("{p:?}"), "Pid(42)");
        assert!(Pid::new(1) < Pid::new(2));
        assert_eq!(ShardId::new(3).index(), 3);
        assert_eq!(LocalIdx::new(5).index(), 5);
    }

    #[test]
    fn pids_enumerates_in_order() {
        let v: Vec<Pid> = pids(3).collect();
        assert_eq!(v, vec![Pid::new(0), Pid::new(1), Pid::new(2)]);
    }

    #[test]
    fn entity_vec_push_index_iterate() {
        let mut table: EntityVec<Pid, &str> = EntityVec::new();
        assert!(table.is_empty());
        let a = table.push("a");
        let b = table.push("b");
        assert_eq!(a, Pid::new(0));
        assert_eq!(b, Pid::new(1));
        table[a] = "A";
        assert_eq!(table[a], "A");
        assert_eq!(table.get(b), Some(&"b"));
        assert_eq!(table.get(Pid::new(9)), None);
        assert_eq!(table.len(), 2);
        assert_eq!(table.iter().copied().collect::<Vec<_>>(), vec!["A", "b"]);
        let pairs: Vec<(Pid, &str)> = table.iter_enumerated().map(|(i, &v)| (i, v)).collect();
        assert_eq!(pairs, vec![(Pid::new(0), "A"), (Pid::new(1), "b")]);
        assert_eq!(table.ids().collect::<Vec<_>>(), vec![Pid::new(0), Pid::new(1)]);
        assert_eq!(table.clone().into_vec(), vec!["A", "b"]);
    }

    #[test]
    fn entity_vec_macro_and_bulk_ops() {
        let mut steps: EntityVec<Pid, u64> = crate::entity_vec![0; 3];
        steps[Pid::new(1)] = 7;
        assert_eq!(steps.as_slice(), &[0, 7, 0]);
        let listed: EntityVec<Pid, u64> = crate::entity_vec![0, 7, 0];
        assert_eq!(steps, listed);
        steps.clear();
        assert!(steps.is_empty());
        steps.resize(2, 9);
        assert_eq!(steps.as_slice(), &[9, 9]);
        let collected: EntityVec<Pid, u64> = (0..4).collect();
        assert_eq!(collected.as_slice(), &[0, 1, 2, 3]);
        assert_eq!((&collected).into_iter().sum::<u64>(), 6);
        assert_eq!(collected.into_iter().max(), Some(3));
    }

    #[test]
    fn shard_map_round_robin_partition() {
        let map = ShardMap::new(3);
        assert_eq!(map.shards(), 3);
        for n in [1usize, 2, 3, 7, 8, 16] {
            let mut seen = vec![false; n];
            let mut total = 0;
            for s in map.shard_ids() {
                let len = map.shard_len(s, n);
                total += len;
                for l in (0..len).map(LocalIdx::new) {
                    let p = map.global_of(s, l);
                    assert!(p.index() < n, "n={n} s={s} l={l}");
                    assert_eq!(map.shard_of(p), s);
                    assert_eq!(map.local_of(p), l);
                    assert!(!seen[p.index()], "pid {p} mapped twice at n={n}");
                    seen[p.index()] = true;
                }
            }
            assert_eq!(total, n, "partition must be exact at n={n}");
        }
    }

    #[test]
    fn single_map_is_identity() {
        let map = ShardMap::new(1);
        assert_eq!(map.shards(), 1);
        let p = Pid::new(9);
        assert_eq!(map.shard_of(p), ShardId::new(0));
        assert_eq!(map.local_of(p), LocalIdx::new(9));
        assert_eq!(map.shard_len(ShardId::new(0), 12), 12);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardMap::new(0);
    }
}
