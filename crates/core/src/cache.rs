//! The membership-query cache: one mutex-guarded map from query strings to
//! oracle verdicts, with an optional residency cap.
//!
//! Both [`CachingOracle`](crate::CachingOracle) and the internal
//! `QueryRunner` memoize membership queries here, so no query is paid
//! twice. The runner, the chargen and phase-2 planners, and the session
//! all call into it from the calling thread; the mutex is there because a
//! `CachingOracle` is shared across engine worker threads.
//!
//! * **Keys carry their hash** — each key is stored as its [`key_hash`]
//!   plus its bytes (`Box<[u8]>`, so an entry is no larger than a
//!   `Vec<u8>` key was) under a pass-through hasher. A planned wave hashes
//!   each check once (`runner::Wave`) and hands that hash to
//!   [`QueryCache::get_hashed`] and [`QueryCache::insert_hashed`], so
//!   lookups, inserts and map resizes never re-hash the bytes. The hash is
//!   fixed and unkeyed, like the fixed-key SipHash it replaced: iteration
//!   (and so eviction) order is the same on every run.
//! * **Residency cap** — [`QueryCache::with_max_entries`] keeps at most
//!   `n` verdicts resident for long-lived campaigns, evicting with a
//!   second-chance (clock) sweep over the map's deterministic iteration
//!   order. Eviction can only cause a later re-query (same verdict —
//!   oracles are deterministic), never a changed answer, so grammars are
//!   unaffected.
//! * **Distinct-key ledger** — [`QueryCache::len`] counts *distinct keys
//!   ever inserted*, so `unique_queries` stays exact after evictions. Under
//!   a cap this takes one `u64` hash per distinct query in a `HashSet`
//!   that eviction never shrinks: the cap bounds resident verdicts, not
//!   memory.
//!
//! [`hash_query`] (SipHash with fixed keys) is kept only for the
//! `glade-cachebin` index, whose on-disk bytes depend on it.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// Hashes a query string for the `glade-cachebin` index (`persist.rs`
/// writes and probes the index with it, so its values are a file format).
pub(crate) fn hash_query(key: &[u8]) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
}

/// One folded multiply: the high and low halves of the 128-bit product.
fn fold(x: u64) -> u64 {
    let m = u128::from(x) * 0x9e37_79b9_7f4a_7c15;
    (m as u64) ^ (m >> 64) as u64
}

/// The in-memory key hash: fixed, unkeyed, and endian-independent (the
/// bytes are read as little-endian words), one folded multiply per 8
/// bytes. Keys are compared on their bytes after a hash match, so a
/// collision costs a comparison, never a wrong verdict.
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    let mut h = key.len() as u64;
    let mut words = key.chunks_exact(8);
    for w in &mut words {
        h = fold(h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    fold(fold(h ^ u64::from_le_bytes(tail)))
}

/// Hands a precomputed [`key_hash`] to the map unchanged.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only precomputed u64 hashes are hashed");
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

pub(crate) type PassThroughState = BuildHasherDefault<PassThrough>;

/// A stored key: its hash and its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Key {
    hash: u64,
    bytes: Box<[u8]>,
}

/// A key seen as `(hash, bytes)`, so a borrowed pair can look up an owned
/// [`Key`] without allocating.
trait HashedKey {
    fn parts(&self) -> (u64, &[u8]);
}

impl HashedKey for Key {
    fn parts(&self) -> (u64, &[u8]) {
        (self.hash, &self.bytes)
    }
}

impl HashedKey for (u64, &[u8]) {
    fn parts(&self) -> (u64, &[u8]) {
        *self
    }
}

impl<'a> Borrow<dyn HashedKey + 'a> for Key {
    fn borrow(&self) -> &(dyn HashedKey + 'a) {
        self
    }
}

impl Hash for dyn HashedKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.parts().0);
    }
}

impl PartialEq for dyn HashedKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn HashedKey + '_ {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One cached verdict plus its second-chance reference bit.
#[derive(Debug)]
struct Slot {
    verdict: bool,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Key, Slot, PassThroughState>,
    /// Hashes of every key ever inserted. Maintained only when a residency
    /// cap is set: it is what keeps distinct-key counting (and therefore
    /// `unique_queries`) exact after evictions.
    seen: HashSet<u64, PassThroughState>,
    evictions: usize,
}

/// A `Sync` map from query strings to oracle verdicts.
#[derive(Debug)]
pub(crate) struct QueryCache {
    shard: Mutex<Shard>,
    /// Resident-entry cap (`usize::MAX` = uncapped).
    cap: usize,
}

impl QueryCache {
    pub fn new() -> Self {
        QueryCache::with_max_entries(None)
    }

    /// A cache that keeps at most `max_entries` entries resident (`None`
    /// = unbounded). See the module docs for the eviction policy and its
    /// guarantees.
    pub fn with_max_entries(max_entries: Option<usize>) -> Self {
        QueryCache {
            shard: Mutex::new(Shard::default()),
            cap: max_entries.map_or(usize::MAX, |n| n.max(1)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shard> {
        self.shard.lock().expect("query cache poisoned")
    }

    /// Looks up a cached verdict.
    pub fn get(&self, key: &[u8]) -> Option<bool> {
        self.get_hashed(key_hash(key), key)
    }

    /// Looks up a cached verdict by `key` and its [`key_hash`].
    pub fn get_hashed(&self, hash: u64, key: &[u8]) -> Option<bool> {
        let mut shard = self.lock();
        let slot = shard.map.get_mut(&(hash, key) as &dyn HashedKey)?;
        slot.referenced = true;
        Some(slot.verdict)
    }

    /// Records a verdict; see [`QueryCache::insert_hashed`].
    pub fn insert(&self, key: Vec<u8>, verdict: bool) -> bool {
        self.insert_hashed(key_hash(&key), key.into_boxed_slice(), verdict)
    }

    /// Records a verdict for `key` and its [`key_hash`]; returns `true` if
    /// the key was never cached before (an evicted-and-reinserted key is
    /// *not* fresh — it was already counted). An already-resident key
    /// keeps its original verdict (oracles are deterministic, so both
    /// verdicts agree).
    pub fn insert_hashed(&self, hash: u64, key: Box<[u8]>, verdict: bool) -> bool {
        let mut guard = self.lock();
        let shard = &mut *guard;
        let key = Key { hash, bytes: key };
        if shard.map.contains_key(&key) {
            return false;
        }
        if shard.map.len() >= self.cap {
            Self::evict_one(shard);
        }
        let fresh = self.cap == usize::MAX || shard.seen.insert(hash);
        shard.map.insert(key, Slot { verdict, referenced: false });
        fresh
    }

    /// Evicts one entry from a full map: a second-chance sweep in the
    /// map's iteration order (deterministic — the hash is fixed) clears
    /// reference bits until it finds an unreferenced entry; if every
    /// entry had its second chance pending, the first entry goes (its bit
    /// was just cleared, making the next sweep a plain clock pass).
    fn evict_one(shard: &mut Shard) {
        let mut victim: Option<Key> = None;
        for (key, slot) in shard.map.iter_mut() {
            if slot.referenced {
                slot.referenced = false;
            } else {
                victim = Some(key.clone());
                break;
            }
        }
        let victim = match victim.or_else(|| shard.map.keys().next().cloned()) {
            Some(v) => v,
            None => return,
        };
        shard.map.remove(&victim);
        shard.evictions += 1;
    }

    /// Number of distinct cached queries ever inserted. Not decremented
    /// by eviction: this is the session's `unique_queries` ledger, and an
    /// evicted entry was still a distinct query.
    pub fn len(&self) -> usize {
        let shard = self.lock();
        if self.cap == usize::MAX {
            shard.map.len()
        } else {
            shard.seen.len()
        }
    }

    /// Number of entries currently resident (equals [`QueryCache::len`]
    /// for uncapped caches; at most the configured cap otherwise).
    pub fn resident(&self) -> usize {
        self.lock().map.len()
    }

    /// Entries evicted by the residency cap so far.
    pub fn evictions(&self) -> usize {
        self.lock().evictions
    }

    /// Copies every resident `(query, verdict)` entry out under one lock,
    /// in unspecified order (serialization via `persist::cache_to_text`
    /// sorts; sorting here too would be a redundant O(n log n) pass on
    /// every snapshot).
    pub fn snapshot(&self) -> Vec<(Vec<u8>, bool)> {
        self.lock().map.iter().map(|(k, slot)| (k.bytes.to_vec(), slot.verdict)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn get_insert_len() {
        let c = QueryCache::new();
        assert_eq!(c.get(b"x"), None);
        assert!(c.insert(b"x".to_vec(), true));
        assert!(!c.insert(b"x".to_vec(), false), "duplicate insert is not fresh");
        assert_eq!(c.get(b"x"), Some(true), "first verdict wins");
        assert!(c.insert(b"y".to_vec(), false));
        assert_eq!(c.len(), 2);
        assert_eq!(c.resident(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn concurrent_inserts_count_once_per_key() {
        let c = QueryCache::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..100u32 {
                        c.insert(i.to_le_bytes().to_vec(), t % 2 == 0);
                    }
                });
            }
        });
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn snapshot_is_complete() {
        let c = QueryCache::new();
        c.insert(b"zz".to_vec(), true);
        c.insert(b"a".to_vec(), false);
        c.insert(b"mm".to_vec(), true);
        let mut snap = c.snapshot();
        snap.sort();
        assert_eq!(
            snap,
            vec![(b"a".to_vec(), false), (b"mm".to_vec(), true), (b"zz".to_vec(), true)]
        );
    }

    #[test]
    fn snapshot_under_concurrent_inserts_is_well_formed() {
        // Snapshot while a writer inserts; every snapshotted key must
        // appear exactly once with a valid verdict.
        let c = QueryCache::new();
        std::thread::scope(|s| {
            let c = &c;
            s.spawn(move || {
                for i in 0..2000u32 {
                    c.insert(i.to_le_bytes().to_vec(), i % 2 == 0);
                }
            });
            for _ in 0..50 {
                let snap = c.snapshot();
                let mut keys: Vec<&Vec<u8>> = snap.iter().map(|(k, _)| k).collect();
                keys.sort();
                keys.dedup();
                assert_eq!(keys.len(), snap.len(), "a key appeared in two states");
            }
        });
        assert_eq!(c.snapshot().len(), 2000);
    }

    #[test]
    fn residency_cap_evicts_but_len_counts_distinct_ever() {
        let cap = 64;
        let c = QueryCache::with_max_entries(Some(cap));
        let n = 1000u32;
        for i in 0..n {
            c.insert(format!("key-{i:04}").into_bytes(), i % 2 == 0);
        }
        assert_eq!(c.len(), n as usize, "distinct-ever ledger ignores eviction");
        assert_eq!(c.resident(), cap, "the cap is exact");
        assert_eq!(c.evictions(), n as usize - cap);
        // Evicted keys read as absent; re-inserting one is not fresh and
        // does not grow the distinct count.
        assert!(!c.insert(b"key-0000".to_vec(), true), "reinsert of an evicted key is not fresh");
        assert_eq!(c.len(), n as usize);
        assert_eq!(c.resident(), cap);
        assert_eq!(c.get(b"key-0000"), Some(true), "reinserted key is resident again");
    }

    #[test]
    fn second_chance_prefers_unreferenced_victims() {
        // Keys that were `get`-referenced survive the next eviction
        // sweep; an untouched key goes first.
        let c = QueryCache::with_max_entries(Some(2));
        c.insert(b"a".to_vec(), true);
        c.insert(b"b".to_vec(), false);
        // Reference "a" so it has a second chance; "b" does not.
        assert_eq!(c.get(b"a"), Some(true));
        c.insert(b"c".to_vec(), true);
        assert_eq!(c.get(b"a"), Some(true), "referenced key survived");
        assert_eq!(c.get(b"b"), None, "unreferenced key was evicted");
        assert_eq!(c.get(b"c"), Some(true));
    }

    #[test]
    fn random_operations_match_a_map_model() {
        // Random insert/get sequences over a small key space, capped and
        // uncapped, against a plain map of the first verdict per key.
        // Uncapped, inserts carry random verdicts (the first must win).
        // Capped, an evicted key is re-stored by its next insert, so
        // verdicts come from a fixed per-key table, as from a
        // deterministic oracle.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAC4E);
        for cap in [None, Some(1), Some(3), Some(8)] {
            for _ in 0..20 {
                let c = QueryCache::with_max_entries(cap);
                let oracle: Vec<bool> = (0..16).map(|_| rng.gen_bool(0.5)).collect();
                let mut model: HashMap<Vec<u8>, bool> = HashMap::new();
                for _ in 0..400 {
                    let k = rng.gen_range(0u8..16);
                    let key = vec![b'k', k];
                    if rng.gen_bool(0.5) {
                        let verdict =
                            if cap.is_none() { rng.gen_bool(0.5) } else { oracle[k as usize] };
                        let fresh = !model.contains_key(&key);
                        model.entry(key.clone()).or_insert(verdict);
                        assert_eq!(c.insert(key, verdict), fresh, "fresh exactly once per key");
                    } else if let Some(got) = c.get(&key) {
                        assert_eq!(Some(&got), model.get(&key), "get returns the first verdict");
                    }
                    assert_eq!(c.len(), model.len());
                    assert!(c.resident() <= cap.unwrap_or(usize::MAX));
                }
                if cap.is_none() {
                    assert_eq!(c.resident(), model.len());
                    assert_eq!(c.evictions(), 0);
                }
            }
        }
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_query(b"abc"), hash_query(b"abc"));
        assert_ne!(hash_query(b"abc"), hash_query(b"abd"));
        assert_eq!(key_hash(b"abc"), key_hash(b"abc"));
        assert_ne!(key_hash(b"abc"), key_hash(b"abd"));
        // Zero padding of the tail word must not alias a shorter key.
        assert_ne!(key_hash(b"a"), key_hash(b"a\0"));
        assert_ne!(key_hash(b""), key_hash(b"\0"));
    }

    #[test]
    fn hash_query_values_are_a_file_format() {
        // The `glade-cachebin` index stores these hashes, so changing the
        // function makes every existing binary snapshot unreadable.
        assert_eq!(hash_query(b""), 0xbd60_acb6_58c7_9e45);
        assert_eq!(hash_query(b"a"), 0xbeb9_a6bb_f61b_58b4);
        assert_eq!(hash_query(b"<a>hi</a>"), 0x8da8_323a_287c_f40c);
        assert_eq!(hash_query(b"glade-cachebin"), 0xa517_2167_f8d5_9c57);
    }

    #[test]
    fn hashed_and_plain_calls_address_the_same_entries() {
        let c = QueryCache::new();
        let key = b"<a>hi</a>";
        assert!(c.insert_hashed(key_hash(key), Box::from(&key[..]), true));
        assert_eq!(c.get(key), Some(true));
        assert!(!c.insert(key.to_vec(), false), "same key through the plain path");
        assert_eq!(c.get_hashed(key_hash(b"<a></a>"), b"<a></a>"), None);
    }

    #[test]
    fn cache_is_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<QueryCache>();
    }
}
