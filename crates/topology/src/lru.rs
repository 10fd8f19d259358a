//! [`BoundedLru`]: the workspace's one bounded cache discipline.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Slab index meaning "no node" at either end of the recency list.
const NIL: usize = usize::MAX;

/// A bounded, thread-safe LRU map of at most `capacity` entries (`0`
/// stores nothing): the one cache behind every memo table in the
/// workspace — sparse distance rows here; routed plans, device
/// preprocessing, noise-weighted matrices and probe verdicts in `sabre`.
///
/// Entries live in a slab threaded by an intrusive recency list and are
/// found through a `HashMap<K, slot>`, so a touch and an eviction are
/// `O(1)`. Values are `Arc`s: an eviction never invalidates a value in
/// use. Hit, miss and eviction counters survive eviction and
/// [`BoundedLru::clear`], so they stay monotone, as Prometheus counters
/// must. A fingerprint key is never trusted alone: lookups take a
/// `matches` check, and a stored value that fails it (a collision)
/// counts as a miss and is served uncached, never aliased.
#[derive(Debug)]
pub struct BoundedLru<K, V: ?Sized> {
    capacity: usize,
    list: Mutex<List<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Counter snapshot from [`BoundedLru::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups answered by a stored value that passed `matches`.
    pub hits: u64,
    /// Lookups that found no entry, or one that failed `matches`.
    pub misses: u64,
    /// Entries dropped to make room for a new one.
    pub evictions: u64,
}

#[derive(Debug)]
struct Node<K, V: ?Sized> {
    key: K,
    value: Arc<V>,
    prev: usize,
    next: usize,
}

#[derive(Debug)]
struct List<K, V: ?Sized> {
    index: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most and least recently used slots; the tail is the next victim.
    head: usize,
    tail: usize,
    /// Bumped by `retain` (so by `clear`): a value computed before one is
    /// not inserted after it.
    epoch: u64,
}

impl<K: Eq + Hash + Clone, V: ?Sized> List<K, V> {
    fn new(epoch: u64) -> Self {
        List {
            index: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            epoch,
        }
    }

    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        (self.nodes[i].prev, self.nodes[i].next) = (NIL, self.head);
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let i = *self.index.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(Arc::clone(&self.nodes[i].value))
    }

    /// Links an absent `key` at the front, reusing the tail's slot once
    /// `capacity` (> 0) is reached; returns the evicted node.
    fn link(&mut self, key: K, value: Arc<V>, capacity: usize) -> Option<Node<K, V>> {
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let (i, evicted) = if self.nodes.len() < capacity {
            self.nodes.push(node);
            (self.nodes.len() - 1, None)
        } else {
            let i = self.tail;
            self.index.remove(&self.nodes[i].key);
            self.unlink(i);
            (i, Some(std::mem::replace(&mut self.nodes[i], node)))
        };
        self.index.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// `(key, value)` pairs from most to least recently used.
    fn pairs(&self) -> Vec<(K, Arc<V>)> {
        let mut pairs = Vec::with_capacity(self.nodes.len());
        let mut i = self.head;
        while let Some(node) = self.nodes.get(i) {
            pairs.push((node.key.clone(), Arc::clone(&node.value)));
            i = node.next;
        }
        pairs
    }
}

impl<K: Eq + Hash + Clone, V: ?Sized> BoundedLru<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        BoundedLru {
            capacity,
            list: Mutex::new(List::new(0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries (never more than the capacity).
    pub fn len(&self) -> usize {
        self.lock().nodes.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit, miss and eviction counters.
    pub fn stats(&self) -> LruStats {
        LruStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// The value under `key`, if one is stored and `matches` it (checked
    /// after unlocking); marks it most recently used. Counts a hit or a
    /// miss.
    pub fn get(&self, key: &K, matches: impl FnOnce(&V) -> bool) -> Option<Arc<V>> {
        let found = self.lock().touch(key);
        let found = found.filter(|value| matches(value));
        self.count_lookup(found.is_some());
        found
    }

    /// Stores `value` under `key` unless the key is already present (the
    /// first insert wins) and returns the stored value. Counts nothing.
    pub fn insert(&self, key: K, value: impl Into<Arc<V>>) -> Arc<V> {
        let admitted = self.admit(self.lock(), key, value.into());
        admitted.unwrap_or_else(|present| present)
    }

    /// The verified lookup: a stored value that `matches` is a hit.
    /// Otherwise `compute` runs outside the lock and counts a miss, and
    /// its value is inserted unless the stored value failed `matches` (a
    /// collision), a [`BoundedLru::retain`] landed meanwhile, or a racing
    /// insert came first (whose value is returned if it `matches`). A
    /// failed `compute` caches nothing.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_insert_with<T: Into<Arc<V>>, E>(
        &self,
        key: K,
        matches: impl Fn(&V) -> bool,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<V>, E> {
        let (found, epoch) = {
            let mut list = self.lock();
            (list.touch(&key), list.epoch)
        };
        let hit = found.as_ref().filter(|value| matches(value));
        self.count_lookup(hit.is_some());
        if let Some(value) = hit {
            return Ok(Arc::clone(value));
        }
        let value = compute()?.into();
        if found.is_some() {
            return Ok(value); // a collision: serve it uncached
        }
        let list = self.lock();
        if list.epoch != epoch {
            return Ok(value); // a `retain` landed meanwhile
        }
        Ok(match self.admit(list, key, Arc::clone(&value)) {
            Ok(stored) => stored,
            Err(raced) if matches(&raced) => raced,
            Err(_) => value,
        })
    }

    /// Lookup for exact keys whose `compute` runs *under* the lock, so
    /// concurrent misses on one key wait for a single computation instead
    /// of repeating it — the distance rows every restart of a routing
    /// pass reads. A panic in `compute` leaves the cache unchanged
    /// (poisoned, and still answering). Counts a hit or a miss.
    pub fn get_or_insert_locked<T: Into<Arc<V>>>(
        &self,
        key: K,
        compute: impl FnOnce() -> T,
    ) -> Arc<V> {
        let mut list = self.lock();
        let found = list.touch(&key);
        self.count_lookup(found.is_some());
        match found {
            Some(value) => value,
            None => self
                .admit(list, key, compute().into())
                .unwrap_or_else(|present| present),
        }
    }

    /// Drops every entry. Counters are kept; values still held by callers
    /// stay valid.
    pub fn clear(&self) {
        self.retain(|_, _| false);
    }

    /// Keeps only the entries `keep` accepts, in their recency order.
    /// `O(len)`: meant for rare invalidations, such as a calibration
    /// superseding a device's old ones.
    pub fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut list = self.lock();
        let mut kept = list.pairs();
        kept.retain(|(key, value)| keep(key, value));
        let fresh = List::new(list.epoch + 1);
        let old = std::mem::replace(&mut *list, fresh);
        for (key, value) in kept.into_iter().rev() {
            list.link(key, value, usize::MAX);
        }
        drop(list);
        drop(old);
    }

    /// `(key, value)` pairs from most to least recently used.
    pub fn snapshot(&self) -> Vec<(K, Arc<V>)> {
        self.lock().pairs()
    }

    /// Locks the list, recovering it if a thread panicked while holding
    /// it. No critical section can leave the list inconsistent: the only
    /// foreign code run under the lock — `K`'s `Clone`, `Hash` and `Eq`,
    /// `compute` in [`BoundedLru::get_or_insert_locked`] and the `keep`
    /// of [`BoundedLru::retain`] — runs before its section changes
    /// anything, except that relinking re-hashes keys that hashed fine
    /// before (hashing is deterministic, as `HashMap` requires). Evicted
    /// and dropped values are released after unlocking, so no `V`
    /// destructor runs under the lock either.
    fn lock(&self) -> MutexGuard<'_, List<K, V>> {
        self.list.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count_lookup(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Relaxed);
    }

    /// Links `key` unless it is present (whose value is the `Err`) and
    /// counts any eviction, dropping the victim after unlocking. A
    /// capacity of 0 stores nothing.
    fn admit(
        &self,
        mut list: MutexGuard<'_, List<K, V>>,
        key: K,
        value: Arc<V>,
    ) -> Result<Arc<V>, Arc<V>> {
        if let Some(&i) = list.index.get(&key) {
            return Err(Arc::clone(&list.nodes[i].value));
        }
        let capacity = self.capacity;
        let evicted = (capacity > 0)
            .then(|| list.link(key, Arc::clone(&value), capacity))
            .flatten();
        drop(list);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Relaxed);
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::convert::Infallible;
    use std::hash::Hasher;
    use std::thread;

    impl<K, V: ?Sized> BoundedLru<K, V> {
        /// Whether a thread once panicked inside a critical section.
        pub(crate) fn is_poisoned(&self) -> bool {
            self.list.is_poisoned()
        }
    }

    /// The naive reference LRU: a `Vec` ordered most → least recently
    /// used, with the same counting rules.
    struct Reference {
        capacity: usize,
        entries: Vec<(u32, u32)>,
        stats: LruStats,
    }

    impl Reference {
        fn touch(&mut self, key: u32) -> Option<u32> {
            let at = self.entries.iter().position(|&(k, _)| k == key)?;
            let entry = self.entries.remove(at);
            self.entries.insert(0, entry);
            Some(entry.1)
        }

        fn count(&mut self, hit: bool) {
            if hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
        }

        fn link(&mut self, key: u32, value: u32) -> u32 {
            if self.capacity > 0 {
                if self.entries.len() == self.capacity {
                    self.entries.pop();
                    self.stats.evictions += 1;
                }
                self.entries.insert(0, (key, value));
            }
            value
        }

        fn get(&mut self, key: u32) -> Option<u32> {
            let found = self.touch(key).filter(even);
            self.count(found.is_some());
            found
        }

        fn insert(&mut self, key: u32, value: u32) -> u32 {
            match self.entries.iter().find(|&&(k, _)| k == key) {
                Some(&(_, existing)) => existing,
                None => self.link(key, value),
            }
        }

        fn get_or_insert(&mut self, key: u32, value: u32, verified: bool) -> u32 {
            let found = self.touch(key);
            match found {
                Some(stored) if !verified || even(&stored) => {
                    self.count(true);
                    stored
                }
                Some(_) => {
                    self.count(false);
                    value
                }
                None => {
                    self.count(false);
                    self.link(key, value)
                }
            }
        }
    }

    /// The `matches` predicate of the model test: odd values play the
    /// part of fingerprint collisions.
    fn even(value: &u32) -> bool {
        value.is_multiple_of(2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_a_naive_reference_lru(
            capacity in 0usize..6,
            ops in proptest::collection::vec((0u8..9, 0u32..10, 0u32..100), 0..120),
        ) {
            let lru = BoundedLru::<u32, u32>::new(capacity);
            let mut reference = Reference {
                capacity,
                entries: Vec::new(),
                stats: LruStats::default(),
            };
            for (op, key, value) in ops {
                match op {
                    0 | 1 => prop_assert_eq!(
                        lru.get(&key, even).map(|v| *v),
                        reference.get(key)
                    ),
                    2 | 3 => prop_assert_eq!(*lru.insert(key, value), reference.insert(key, value)),
                    4 | 5 => {
                        let Ok(got) = lru.get_or_insert_with(key, even, || Ok::<_, Infallible>(value));
                        prop_assert_eq!(*got, reference.get_or_insert(key, value, true));
                    }
                    6 | 7 => prop_assert_eq!(
                        *lru.get_or_insert_locked(key, || value),
                        reference.get_or_insert(key, value, false)
                    ),
                    _ => {
                        lru.clear();
                        reference.entries.clear();
                    }
                }
                let resident: Vec<(u32, u32)> =
                    lru.snapshot().into_iter().map(|(k, v)| (k, *v)).collect();
                prop_assert_eq!(&resident, &reference.entries);
                prop_assert_eq!(lru.len(), reference.entries.len());
                prop_assert_eq!(lru.stats(), reference.stats);
            }
        }
    }

    #[test]
    fn retain_keeps_survivors_in_recency_order() {
        let lru = BoundedLru::<u32, u32>::new(4);
        for k in 0..4 {
            lru.insert(k, k * 10);
        }
        lru.get(&1, |_| true);
        lru.retain(|&k, _| k != 2);
        let keys: Vec<u32> = lru.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [1, 3, 0]);
        lru.insert(4, 40);
        lru.insert(5, 50);
        let keys: Vec<u32> = lru.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [5, 4, 1, 3], "0 was the least recently used");
        assert_eq!(lru.stats().evictions, 1);
    }

    #[test]
    fn a_value_computed_across_a_clear_is_not_inserted() {
        let lru = BoundedLru::<u32, u32>::new(4);
        let Ok(value) = lru.get_or_insert_with(
            7,
            |_| true,
            || {
                lru.clear();
                Ok::<_, Infallible>(70)
            },
        );
        assert_eq!(*value, 70);
        assert!(lru.is_empty());
        let Ok(value) = lru.get_or_insert_with(7, |_| true, || Ok::<_, Infallible>(70));
        assert_eq!((*value, lru.len()), (70, 1));
    }

    /// A key whose `Hash` panics on demand, to panic inside a critical
    /// section.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Touchy {
        id: u32,
        explode: bool,
    }

    impl Hash for Touchy {
        fn hash<H: Hasher>(&self, state: &mut H) {
            assert!(!self.explode, "hash exploded");
            self.id.hash(state);
        }
    }

    fn calm(id: u32) -> Touchy {
        Touchy { id, explode: false }
    }

    #[test]
    fn a_poisoned_lock_keeps_answering() {
        let lru = BoundedLru::<Touchy, u32>::new(3);
        for id in 0..3 {
            lru.insert(calm(id), id * 10);
        }
        let bomb = Touchy {
            id: 1,
            explode: true,
        };
        let panics = |f: &(dyn Fn() + Sync)| thread::scope(|s| s.spawn(f).join().is_err());
        assert!(panics(&|| drop(lru.get(&bomb, |_| true))));
        assert!(panics(&|| drop(lru.insert(bomb.clone(), 99))));
        assert!(panics(&|| {
            let _ = lru.get_or_insert_with(bomb.clone(), |_| true, || Ok::<_, Infallible>(99));
        }));
        assert!(panics(&|| drop(
            lru.get_or_insert_locked(bomb.clone(), || 99)
        )));
        assert!(panics(&|| {
            lru.get_or_insert_locked(calm(7), || -> u32 { panic!("compute exploded") });
        }));
        assert!(lru.is_poisoned());
        let keys = |lru: &BoundedLru<Touchy, u32>| -> Vec<u32> {
            lru.snapshot().into_iter().map(|(k, _)| k.id).collect()
        };
        assert_eq!(keys(&lru), [2, 1, 0], "no panic changed the list");
        for id in 0..3 {
            assert_eq!(lru.get(&calm(id), |_| true).as_deref(), Some(&(id * 10)));
        }
        assert_eq!(*lru.get_or_insert_locked(calm(3), || 30), 30);
        assert_eq!(keys(&lru), [3, 2, 1], "0 was evicted");
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn concurrent_callers_stay_bounded_and_get_their_own_values() {
        const CAPACITY: usize = 8;
        let lru = BoundedLru::<u64, (u64, u64)>::new(CAPACITY);
        let value = |key: u64| (key, key * key + 1);
        let counted_per_thread = 20_000 / 4 * 3;
        let start = std::sync::Barrier::new(8);
        thread::scope(|s| {
            for t in 0..8u64 {
                let (lru, start) = (&lru, &start);
                s.spawn(move || {
                    start.wait();
                    let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for i in 0..20_000u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 24;
                        let got = match i % 4 {
                            0 => lru
                                .get_or_insert_with(
                                    key,
                                    |v| v.0 == key,
                                    || Ok::<_, Infallible>(value(key)),
                                )
                                .unwrap(),
                            1 => lru.get_or_insert_locked(key, || value(key)),
                            2 => lru.insert(key, value(key)),
                            _ => match lru.get(&key, |v| v.0 == key) {
                                Some(got) => got,
                                None => Arc::new(value(key)),
                            },
                        };
                        assert_eq!(*got, value(key), "a value for another key");
                        assert!(lru.len() <= CAPACITY);
                        if i % 5000 == 4999 {
                            lru.retain(|&k, _| k % 2 == t % 2);
                        }
                    }
                });
            }
        });
        let stats = lru.stats();
        assert_eq!(stats.hits + stats.misses, 8 * counted_per_thread as u64);
        assert!(stats.evictions > 0 && stats.hits > 0);
        assert!(lru.len() <= CAPACITY);
        for (key, v) in lru.snapshot() {
            assert_eq!(*v, value(key));
        }
    }
}
