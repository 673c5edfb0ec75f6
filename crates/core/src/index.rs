//! Indexed fact storage for repeated query evaluation.
//!
//! [`IndexedInstance`] wraps a [`FactStore`] with an extra
//! per-`(relation, first argument)` hash index, so a join that has
//! already bound the first argument of an atom probes a bucket instead of
//! scanning the whole relation. The [`FactLookup`] trait abstracts over
//! plain [`Interpretation`]s (which fall back to the per-relation index),
//! [`IndexedInstance`]s and [`DeltaView`]s (the tail of a store past a
//! frontier — a round's newly derived facts as an id range), letting
//! evaluation code be written once and run over any of them.

use crate::fact::{Fact, Term};
use crate::interpretation::Interpretation;
use crate::store::{FactId, FactRef, FactStore, StoreStats};
use crate::symbols::RelId;
use std::collections::HashMap;

/// Read access to a fact store for join evaluation.
///
/// The contract of [`FactLookup::candidate_ids`] is deliberately loose:
/// the returned ids must cover every fact of `rel` whose first argument
/// is `first` (when `Some`), but may include more — callers re-check the
/// arguments of every candidate. This lets unindexed stores return the
/// whole relation while indexed stores return an exact bucket.
pub trait FactLookup {
    /// Ids of a superset of the facts of `rel` (exactly the facts whose
    /// first argument equals `first` where an index is available). The
    /// returned slice is ascending in fact id.
    fn candidate_ids(&self, rel: RelId, first: Option<Term>) -> &[u32];

    /// Resolves a fact id returned by [`FactLookup::candidate_ids`].
    fn fact(&self, id: u32) -> FactRef<'_>;

    /// Whether the store contains exactly the fact `rel(args…)`.
    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool;

    /// Number of candidates a [`FactLookup::candidate_ids`] call would
    /// return; used by join planners to order atoms cheapest-first.
    fn candidate_count(&self, rel: RelId, first: Option<Term>) -> usize {
        self.candidate_ids(rel, first).len()
    }

    /// Whether the candidate `id` is live. Stores without retraction
    /// support report everything live; maintained stores
    /// ([`crate::FactStore::sub_support`]) report dead facts so join
    /// loops skip them.
    fn is_live(&self, _id: u32) -> bool {
        true
    }
}

impl FactLookup for Interpretation {
    fn candidate_ids(&self, rel: RelId, _first: Option<Term>) -> &[u32] {
        // No first-argument index on plain interpretations: return the
        // whole relation (a superset, as the contract allows).
        self.rel_fact_ids(rel)
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.fact_by_id(id)
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        self.contains_ref(rel, args)
    }
}

/// A fact store with per-relation and per-`(relation, first argument)`
/// hash indexes, built once and maintained incrementally on insert.
///
/// Since the columnar-fact-plane refactor this is a view over the same
/// [`FactStore`] representation as [`Interpretation`]: adopting an
/// interpretation via [`IndexedInstance::from_instance`] *moves* its
/// store (arena, dedup, relation index) and only builds the
/// first-argument index on top — no fact is copied.
#[derive(Clone, Default)]
pub struct IndexedInstance {
    store: FactStore,
    by_rel_first: HashMap<(RelId, Term), Vec<u32>>,
}

impl IndexedInstance {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts an interpretation's store zero-copy (the per-term index is
    /// dropped, the first-argument index is built in one pass).
    pub fn from_instance(d: Interpretation) -> Self {
        Self::from_store(d.into_store())
    }

    /// Builds the first-argument index over an existing store.
    pub fn from_store(store: FactStore) -> Self {
        let mut by_rel_first: HashMap<(RelId, Term), Vec<u32>> = HashMap::new();
        for (idx, f) in store.iter().enumerate() {
            if let Some(&first) = f.args.first() {
                by_rel_first
                    .entry((f.rel, first))
                    .or_default()
                    .push(idx as u32);
            }
        }
        IndexedInstance {
            store,
            by_rel_first,
        }
    }

    /// Builds the indexed form of a borrowed interpretation. The store is
    /// cloned wholesale (four flat memcpy-style column clones), not fact
    /// by fact; prefer [`IndexedInstance::from_instance`] when the
    /// interpretation is owned.
    pub fn from_interpretation(d: &Interpretation) -> Self {
        Self::from_store(d.store().clone())
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.insert_ref(fact.rel, &fact.args)
    }

    /// Inserts a fact given as a relation and an argument slice; returns
    /// `true` if it was new. No allocation on the duplicate path.
    pub fn insert_ref(&mut self, rel: RelId, args: &[Term]) -> bool {
        self.intern_ref(rel, args).1
    }

    /// Inserts a fact and returns its id together with whether it was
    /// new — the id-aware form incremental view maintenance needs to
    /// track support per fact.
    pub fn intern_ref(&mut self, rel: RelId, args: &[Term]) -> (FactId, bool) {
        let (id, new) = self.store.intern(rel, args);
        if new {
            if let Some(&first) = args.first() {
                self.by_rel_first
                    .entry((rel, first))
                    .or_default()
                    .push(id.0);
            }
        }
        (id, new)
    }

    /// Adds derivation support to a fact (see
    /// [`FactStore::add_support`]).
    pub fn add_support(&mut self, id: FactId, n: u32) {
        self.store.add_support(id, n);
    }

    /// Removes derivation support from a fact (see
    /// [`FactStore::sub_support`]).
    pub fn sub_support(&mut self, id: FactId, n: u32) {
        self.store.sub_support(id, n);
    }

    /// Overwrites a fact's support count (see
    /// [`FactStore::set_support`]).
    pub fn set_support(&mut self, id: FactId, n: u32) {
        self.store.set_support(id, n);
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether there are no facts.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Iterates over all facts in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = FactRef<'_>> {
        self.store.iter()
    }

    /// The backing columnar store.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Storage-pressure counters of the backing store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Copies the facts back into a plain [`Interpretation`] (the store
    /// is cloned wholesale; only the per-term index is recomputed).
    pub fn to_interpretation(&self) -> Interpretation {
        Interpretation::from_store(self.store.clone())
    }

    /// Rolls the instance back to its first `mark` facts, unhooking the
    /// first-argument index tails and truncating the backing store.
    /// The session layer pairs this with
    /// [`FactStore::truncate`]-style marks to implement rollback points.
    pub fn truncate(&mut self, mark: usize) {
        if mark >= self.store.len() {
            return;
        }
        for id in (mark as u32)..self.store.len() as u32 {
            let f = self.store.fact_ref(FactId(id));
            let (rel, first) = (f.rel, f.args.first().copied());
            if let Some(first) = first {
                if let Some(bucket) = self.by_rel_first.get_mut(&(rel, first)) {
                    // Buckets are ascending in fact id, so the doomed ids
                    // form the tail.
                    while bucket.last().is_some_and(|&i| i >= mark as u32) {
                        bucket.pop();
                    }
                    if bucket.is_empty() {
                        self.by_rel_first.remove(&(rel, first));
                    }
                }
            }
        }
        self.store.truncate(mark);
    }

    /// Number of facts of one relation.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.store.rel_ids(rel).len()
    }

    /// Iterates over the facts of one relation.
    pub fn facts_of(&self, rel: RelId) -> impl Iterator<Item = FactRef<'_>> {
        self.store
            .rel_ids(rel)
            .iter()
            .map(move |&i| self.store.fact_ref(FactId(i)))
    }
}

impl FactLookup for IndexedInstance {
    fn candidate_ids(&self, rel: RelId, first: Option<Term>) -> &[u32] {
        match first {
            Some(t) => self.by_rel_first.get(&(rel, t)).map_or(&[], Vec::as_slice),
            None => self.store.rel_ids(rel),
        }
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.store.fact_ref(FactId(id))
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        // Membership is live membership: a retracted (dead) fact is not
        // in the instance even though its id is still allocated.
        self.store
            .lookup(rel, args)
            .is_some_and(|id| self.store.is_live(id.0))
    }

    fn is_live(&self, id: u32) -> bool {
        self.store.is_live(id)
    }
}

impl std::fmt::Debug for IndexedInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.store.fmt(f)
    }
}

/// The tail of a base lookup past a fact-id frontier: the facts with id
/// `>= from`, i.e. exactly the facts derived since the frontier was
/// taken.
///
/// Because every index bucket is ascending in fact id, the view answers
/// [`FactLookup::candidate_ids`] with a suffix of the base's bucket found
/// by binary search — semi-naive evaluation passes rounds around as
/// `(base, frontier)` pairs instead of cloning delta sets.
///
/// [`FactLookup::contains_slice`] delegates to the *whole* base store:
/// the view narrows iteration, not membership (novelty checks must see
/// everything).
#[derive(Clone, Copy)]
pub struct DeltaView<'a, L: FactLookup> {
    base: &'a L,
    from: u32,
}

impl<'a, L: FactLookup> DeltaView<'a, L> {
    /// Views the facts of `base` with id at or above `from`.
    pub fn new(base: &'a L, from: u32) -> Self {
        DeltaView { base, from }
    }

    /// The frontier id the view starts at.
    pub fn from_id(&self) -> u32 {
        self.from
    }
}

impl<L: FactLookup> FactLookup for DeltaView<'_, L> {
    fn candidate_ids(&self, rel: RelId, first: Option<Term>) -> &[u32] {
        let ids = self.base.candidate_ids(rel, first);
        let cut = ids.partition_point(|&i| i < self.from);
        &ids[cut..]
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.base.fact(id)
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        self.base.contains_slice(rel, args)
    }

    fn is_live(&self, id: u32) -> bool {
        self.base.is_live(id)
    }
}

/// An explicit id-set delta over a base lookup: the *retraction /
/// revival* counterpart of [`DeltaView`].
///
/// A [`DeltaView`] can only express "everything past a frontier" — an
/// id *range* — which covers insertions (new facts always get tail
/// ids). Incremental view maintenance also needs deltas made of
/// arbitrary interior ids: the facts doomed by a rollback, or dead
/// facts revived by rederivation. `IdSetView` materializes its own
/// per-relation and per-`(relation, first)` buckets over the given ids
/// (O(|set|) to build), so [`FactLookup::candidate_ids`] can hand out
/// slices just like the indexed base.
///
/// Like [`DeltaView`], membership ([`FactLookup::contains_slice`]) and
/// liveness delegate to the whole base: the view narrows iteration, not
/// membership.
pub struct IdSetView<'a, L: FactLookup + ?Sized> {
    base: &'a L,
    by_rel: HashMap<RelId, Vec<u32>>,
    by_rel_first: HashMap<(RelId, Term), Vec<u32>>,
}

impl<'a, L: FactLookup + ?Sized> IdSetView<'a, L> {
    /// Builds the view over `ids` (ascending; duplicates are fine but
    /// wasteful). Each id must resolve in `base`.
    pub fn new(base: &'a L, ids: &[u32]) -> Self {
        let mut by_rel: HashMap<RelId, Vec<u32>> = HashMap::new();
        let mut by_rel_first: HashMap<(RelId, Term), Vec<u32>> = HashMap::new();
        for &id in ids {
            let f = base.fact(id);
            by_rel.entry(f.rel).or_default().push(id);
            if let Some(&first) = f.args.first() {
                by_rel_first.entry((f.rel, first)).or_default().push(id);
            }
        }
        // candidate_ids promises ascending ids; sort in case the caller's
        // set was not (revival order can interleave relations).
        for bucket in by_rel.values_mut().chain(by_rel_first.values_mut()) {
            bucket.sort_unstable();
        }
        IdSetView {
            base,
            by_rel,
            by_rel_first,
        }
    }

    /// Number of ids in the view (summed over relations).
    pub fn len(&self) -> usize {
        self.by_rel.values().map(Vec::len).sum()
    }

    /// Whether the view holds no ids.
    pub fn is_empty(&self) -> bool {
        self.by_rel.is_empty()
    }
}

impl<L: FactLookup + ?Sized> FactLookup for IdSetView<'_, L> {
    fn candidate_ids(&self, rel: RelId, first: Option<Term>) -> &[u32] {
        match first {
            Some(t) => self.by_rel_first.get(&(rel, t)).map_or(&[], Vec::as_slice),
            None => self.by_rel.get(&rel).map_or(&[], Vec::as_slice),
        }
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.base.fact(id)
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        self.base.contains_slice(rel, args)
    }

    fn is_live(&self, id: u32) -> bool {
        self.base.is_live(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocab;

    fn setup() -> (Vocab, IndexedInstance) {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let s = v.rel("S", 1);
        let a = v.constant("a");
        let b = v.constant("b");
        let c = v.constant("c");
        let mut d = IndexedInstance::new();
        d.insert(Fact::consts(r, &[a, b]));
        d.insert(Fact::consts(r, &[a, c]));
        d.insert(Fact::consts(r, &[b, c]));
        d.insert(Fact::consts(s, &[a]));
        (v, d)
    }

    #[test]
    fn first_arg_index_is_exact() {
        let (mut v, d) = setup();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        let b = Term::Const(v.constant("b"));
        let zz = Term::Const(v.constant("zz"));
        assert_eq!(d.candidate_ids(r, Some(a)).len(), 2);
        assert_eq!(d.candidate_ids(r, Some(b)).len(), 1);
        assert_eq!(d.candidate_ids(r, Some(zz)).len(), 0);
        assert_eq!(d.candidate_ids(r, None).len(), 3);
        for &id in d.candidate_ids(r, Some(a)) {
            assert_eq!(d.fact(id).args[0], a);
        }
    }

    #[test]
    fn insert_dedupes_and_counts() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let a = v.constant("a");
        let b = v.constant("b");
        assert!(!d.insert(Fact::consts(r, &[a, b])));
        assert_eq!(d.len(), 4);
        assert_eq!(d.rel_len(r), 3);
    }

    #[test]
    fn roundtrip_through_interpretation() {
        let (_, d) = setup();
        let plain = d.to_interpretation();
        assert_eq!(plain.len(), d.len());
        let back = IndexedInstance::from_interpretation(&plain);
        assert_eq!(back.len(), d.len());
        for f in d.iter() {
            assert!(back.contains_slice(f.rel, f.args));
            assert!(plain.contains_ref(f.rel, f.args));
        }
        // Adopting the owned interpretation preserves the same facts.
        let adopted = IndexedInstance::from_instance(plain);
        assert_eq!(adopted.len(), d.len());
    }

    #[test]
    fn interpretation_lookup_returns_superset() {
        let (mut v, d) = setup();
        let plain = d.to_interpretation();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        // The plain store ignores the bound first argument but must
        // still cover all matching facts.
        let ids = FactLookup::candidate_ids(&plain, r, Some(a));
        assert_eq!(ids.len(), 3);
        let matching = ids
            .iter()
            .filter(|&&i| FactLookup::fact(&plain, i).args[0] == a)
            .count();
        assert_eq!(matching, 2);
    }

    #[test]
    fn truncate_rolls_back_first_arg_index() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        let e = v.constant("e");
        let mark = d.len();
        d.insert(Fact::consts(r, &[v.constant("a"), e]));
        d.insert(Fact::consts(r, &[e, e]));
        assert_eq!(d.candidate_ids(r, Some(a)).len(), 3);
        d.truncate(mark);
        assert_eq!(d.len(), mark);
        assert_eq!(d.candidate_ids(r, Some(a)).len(), 2);
        assert_eq!(d.candidate_ids(r, Some(Term::Const(e))).len(), 0);
        assert!(!d.contains_slice(r, &[Term::Const(e), Term::Const(e)]));
        // Re-inserting after the rollback reindexes cleanly.
        assert!(d.insert(Fact::consts(r, &[e, e])));
        assert_eq!(d.candidate_ids(r, Some(Term::Const(e))).len(), 1);
        // Truncating past the end is a no-op.
        d.truncate(99);
        assert_eq!(d.len(), mark + 1);
    }

    #[test]
    fn id_set_view_buckets_interior_ids() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let s = v.rel("S", 1);
        let a = Term::Const(v.constant("a"));
        // Interior, non-contiguous ids: facts 1 (R(a,c)) and 3 (S(a)).
        let view = IdSetView::new(&d, &[1, 3]);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.candidate_ids(r, None), &[1]);
        assert_eq!(view.candidate_ids(r, Some(a)), &[1]);
        assert_eq!(view.candidate_ids(s, None), &[3]);
        let b = Term::Const(v.constant("b"));
        assert_eq!(view.candidate_ids(r, Some(b)), &[] as &[u32]);
        // Membership still sees the whole base.
        assert!(view.contains_slice(r, &[a, b]));
        assert_eq!(view.fact(1).rel, r);
        let empty = IdSetView::new(&d, &[]);
        assert!(empty.is_empty());
        // Liveness delegates to the base store's support column.
        d.sub_support(FactId(1), 1);
        let view = IdSetView::new(&d, &[1, 3]);
        assert!(!view.is_live(1));
        assert!(view.is_live(3));
        assert!(!d.contains_slice(r, &[a, Term::Const(v.constant("c"))]));
    }

    #[test]
    fn delta_view_is_a_tail() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let c = v.constant("c");
        let a = Term::Const(v.constant("a"));
        let frontier = d.len() as u32;
        d.insert(Fact::consts(r, &[c, v.constant("a")]));
        d.insert(Fact::consts(r, &[v.constant("a"), v.constant("d")]));
        let delta = DeltaView::new(&d, frontier);
        assert_eq!(delta.candidate_ids(r, None).len(), 2);
        assert_eq!(delta.candidate_ids(r, Some(a)).len(), 1);
        // Membership still sees pre-frontier facts.
        assert!(delta.contains_slice(r, &[a, Term::Const(v.constant("b"))]));
        // A frontier of zero sees everything.
        let all = DeltaView::new(&d, 0);
        assert_eq!(all.candidate_ids(r, None).len(), d.rel_len(r));
        assert_eq!(all.from_id(), 0);
    }
}
