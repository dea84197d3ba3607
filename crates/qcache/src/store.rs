//! In-memory, exactly-once stage store.
//!
//! Any pipeline stage can park a cloneable artifact under a
//! `(stage, key)` pair. The first thread to ask for a key computes it;
//! concurrent threads asking for the same key block on a condvar until
//! the value is ready (exactly-once semantics — important because a
//! stage compute can cost milliseconds of ILP solving and must not be
//! duplicated across an 8×4 matrix fan-out).
//!
//! Wait accounting is exact: a waiter increments the stage's wait
//! counter while it still holds the slot's state lock, immediately
//! before parking on the condvar. The previous implementation probed
//! contention with `Mutex::try_lock`, which undercounts — a second
//! waiter arriving after the computing thread released the lock (but
//! before the value was published) saw `WouldBlock` as a clean acquire
//! and was never counted.
//!
//! Panic safety mirrors the old cache: if a compute panics, the slot is
//! reset to vacant and all waiters are woken so one of them retakes the
//! computation. Poisoned mutexes are tolerated everywhere
//! (`unwrap_or_else(PoisonError::into_inner)`) so a fault-injected cell
//! cannot wedge unrelated cells.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::hash::Digest;

/// Outcome of a single [`Store::get_or_compute`] lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lookup {
    /// The value was already present (or became present while we waited).
    pub hit: bool,
    /// We blocked on another thread computing the same key.
    pub waited: bool,
    /// Nanoseconds spent blocked on the slot.
    pub wait_ns: u64,
}

/// Per-stage counters, snapshotted by [`Store::stage_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    pub hits: u64,
    pub misses: u64,
    pub waits: u64,
    pub wait_ns: u64,
    /// Ready values dropped by the byte-accounted LRU (capacity mode).
    pub evictions: u64,
}

#[derive(Default)]
struct StatCell {
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    wait_ns: AtomicU64,
    evictions: AtomicU64,
}

impl StatCell {
    fn snapshot(&self) -> StageStats {
        StageStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

enum SlotState {
    /// Nobody has computed this key yet (or the last computer panicked).
    Vacant,
    /// A thread is computing; waiters park on the condvar.
    Computing,
    /// Value published. Type-erased so one store serves every stage.
    Ready(Box<dyn Any + Send + Sync>),
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// The stage's counters, fetched once when the slot is created so a
    /// lookup never takes the store-wide `stats` lock.
    stats: Arc<StatCell>,
}

impl Slot {
    fn new(stats: Arc<StatCell>) -> Self {
        Slot { state: Mutex::new(SlotState::Vacant), cv: Condvar::new(), stats }
    }
}

/// Resets a slot to vacant if the compute closure unwinds, so waiters
/// are released and one of them retries instead of deadlocking.
struct ComputeGuard<'a> {
    slot: &'a Slot,
    armed: bool,
}

impl Drop for ComputeGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = self.slot.state.lock().unwrap_or_else(PoisonError::into_inner);
            *st = SlotState::Vacant;
            drop(st);
            self.slot.cv.notify_all();
        }
    }
}

/// Byte accounting for the optional LRU capacity mode: sized entries,
/// their recency clock, and the running total. Entries enter via
/// [`Store::get_or_compute_sized`]; plain `get_or_compute` values are
/// untracked (and never evicted).
#[derive(Default)]
struct LruState {
    /// Byte cap; `None` means unbounded (the default).
    cap: Option<u64>,
    /// Bytes currently held by tracked entries.
    total: u64,
    /// Monotone recency clock; bumped on every tracked touch.
    clock: u64,
    /// `(stage, key) -> (bytes, last_use)`.
    entries: HashMap<(&'static str, Digest), (u64, u64)>,
}

/// Content-keyed, exactly-once, stage-partitioned value store.
#[derive(Default)]
pub struct Store {
    slots: Mutex<HashMap<(&'static str, Digest), Arc<Slot>>>,
    stats: Mutex<BTreeMap<&'static str, Arc<StatCell>>>,
    lru: Mutex<LruState>,
}

impl Store {
    pub fn new() -> Self {
        Store::default()
    }

    /// A store whose *sized* entries are bounded to `cap_bytes` total; the
    /// least-recently-used entries are dropped when an insert overflows.
    pub fn with_capacity(cap_bytes: u64) -> Self {
        let store = Store::default();
        store.set_capacity(Some(cap_bytes));
        store
    }

    /// (Re)sets the byte cap for sized entries. `None` disables eviction.
    /// Lowering the cap evicts immediately.
    pub fn set_capacity(&self, cap_bytes: Option<u64>) {
        let mut lru = self.lru.lock().unwrap_or_else(PoisonError::into_inner);
        lru.cap = cap_bytes;
        self.evict_over_cap(&mut lru, None);
    }

    /// Bytes currently held by sized entries.
    pub fn tracked_bytes(&self) -> u64 {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner).total
    }

    fn slot(&self, stage: &'static str, key: Digest) -> Arc<Slot> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = slots
            .entry((stage, key))
            .or_insert_with(|| Arc::new(Slot::new(self.stat_cell(stage))));
        Arc::clone(slot)
    }

    fn stat_cell(&self, stage: &'static str) -> Arc<StatCell> {
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(stats.entry(stage).or_default())
    }

    /// Fetch the value under `(stage, key)`, computing it with `compute`
    /// if absent. Exactly one thread computes per key; the rest block.
    ///
    /// The stored value type `T` must match across all accesses of a key
    /// (a mismatch is a caller bug and panics on downcast).
    pub fn get_or_compute<T, F>(&self, stage: &'static str, key: Digest, compute: F) -> (T, Lookup)
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let slot = self.slot(stage, key);
        let stats = &slot.stats;
        let mut lookup = Lookup::default();
        let mut st = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*st {
                SlotState::Ready(v) => {
                    let value = v
                        .downcast_ref::<T>()
                        .expect("qcache: stage value type mismatch")
                        .clone();
                    stats.hits.fetch_add(1, Ordering::Relaxed);
                    if lookup.waited {
                        stats.wait_ns.fetch_add(lookup.wait_ns, Ordering::Relaxed);
                    }
                    lookup.hit = true;
                    return (value, lookup);
                }
                SlotState::Computing => {
                    // Counted under the lock, before parking: no probe race.
                    if !lookup.waited {
                        lookup.waited = true;
                        stats.waits.fetch_add(1, Ordering::Relaxed);
                    }
                    let t0 = Instant::now();
                    st = slot.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                    lookup.wait_ns += t0.elapsed().as_nanos() as u64;
                }
                SlotState::Vacant => break,
            }
        }
        *st = SlotState::Computing;
        drop(st);
        stats.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = ComputeGuard { slot: &slot, armed: true };
        let value = compute();
        let mut st = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        *st = SlotState::Ready(Box::new(value.clone()));
        guard.armed = false;
        drop(st);
        slot.cv.notify_all();
        if lookup.waited {
            stats.wait_ns.fetch_add(lookup.wait_ns, Ordering::Relaxed);
        }
        (value, lookup)
    }

    /// [`Store::get_or_compute`] plus byte accounting: the value's size
    /// (as reported by `size_of`) is charged against the store's capacity,
    /// and when the running total exceeds the cap the least-recently-used
    /// sized entries are evicted (their slots dropped, so a later lookup
    /// recomputes). Hits refresh the entry's recency. Without a capacity
    /// this behaves exactly like `get_or_compute`.
    pub fn get_or_compute_sized<T, F, S>(
        &self,
        stage: &'static str,
        key: Digest,
        compute: F,
        size_of: S,
    ) -> (T, Lookup)
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
        S: FnOnce(&T) -> u64,
    {
        let (value, lookup) = self.get_or_compute(stage, key, compute);
        let size = size_of(&value);
        let mut lru = self.lru.lock().unwrap_or_else(PoisonError::into_inner);
        lru.clock += 1;
        let now = lru.clock;
        match lru.entries.insert((stage, key), (size, now)) {
            Some((old, _)) => lru.total = lru.total - old + size,
            None => lru.total += size,
        }
        self.evict_over_cap(&mut lru, Some((stage, key)));
        (value, lookup)
    }

    /// Drops least-recently-used sized entries until the total fits the
    /// cap. `keep` (the entry just served) is never evicted, so a single
    /// over-cap value still round-trips to its caller.
    fn evict_over_cap(&self, lru: &mut LruState, keep: Option<(&'static str, Digest)>) {
        let Some(cap) = lru.cap else { return };
        while lru.total > cap {
            let victim = lru
                .entries
                .iter()
                .filter(|(k, v)| Some(**k) != keep && v.0 > 0)
                .min_by_key(|(_, v)| v.1)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let (size, _) = lru.entries.remove(&victim).expect("victim came from the map");
            lru.total -= size;
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            let stats = match slots.remove(&victim) {
                Some(slot) => Arc::clone(&slot.stats),
                None => self.stat_cell(victim.0),
            };
            drop(slots);
            stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Poison the slot's mutex (chaos hook): spawns a thread that panics
    /// while holding the state lock. Later accessors recover the lock via
    /// `PoisonError::into_inner` and proceed — the entry stays usable.
    pub fn poison(&self, stage: &'static str, key: Digest) {
        let slot = self.slot(stage, key);
        let _ = std::thread::spawn(move || {
            let _guard = slot.state.lock().unwrap();
            panic!("qcache: injected slot poisoning");
        })
        .join();
    }

    /// Number of keys ever inserted for `stage` (slots, not just values).
    pub fn len(&self, stage: &str) -> usize {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.keys().filter(|(s, _)| *s == stage).count()
    }

    pub fn is_empty(&self) -> bool {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.is_empty()
    }

    /// Snapshot the counters for one stage.
    pub fn stage_stats(&self, stage: &str) -> StageStats {
        let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        stats.get(stage).map(|c| c.snapshot()).unwrap_or_default()
    }

    /// Snapshot all stages, sorted by stage name.
    pub fn all_stats(&self) -> Vec<(&'static str, StageStats)> {
        let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        stats.iter().map(|(s, c)| (*s, c.snapshot())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::digest;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn miss_then_hit_returns_same_value() {
        let store = Store::new();
        let key = digest(b"k");
        let (v, l) = store.get_or_compute("solve", key, || 41u64 + 1);
        assert_eq!(v, 42);
        assert!(!l.hit && !l.waited);
        let (v, l) = store.get_or_compute::<u64, _>("solve", key, || unreachable!("must hit"));
        assert_eq!(v, 42u64);
        assert!(l.hit && !l.waited);
        let s = store.stage_stats("solve");
        assert_eq!((s.hits, s.misses, s.waits), (1, 1, 0));
        assert_eq!(store.len("solve"), 1);
        assert_eq!(store.len("rtl"), 0);
    }

    #[test]
    fn stages_partition_the_key_space() {
        let store = Store::new();
        let key = digest(b"same-key");
        let (a, _) = store.get_or_compute("problem", key, || 1u32);
        let (b, _) = store.get_or_compute("rtl", key, || 2u32);
        assert_eq!((a, b), (1, 2));
        assert_eq!(store.stage_stats("problem").misses, 1);
        assert_eq!(store.stage_stats("rtl").misses, 1);
    }

    /// Satellite-6 regression: N threads race one key; exactly one
    /// computes, the other N-1 are each counted as a wait. The compute
    /// closure spins until the wait counter shows every peer parked, so
    /// the assertion is deterministic — under the old try_lock probe a
    /// late-arriving waiter could slip through uncounted.
    #[test]
    fn contended_waits_are_counted_exactly() {
        const N: usize = 8;
        let store = Arc::new(Store::new());
        let key = digest(b"contended");
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let store = Arc::clone(&store);
                let computes = Arc::clone(&computes);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    store.get_or_compute("frontend", key, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the slot until every peer is provably
                        // parked in the wait counter.
                        while store.stage_stats("frontend").waits < (N - 1) as u64 {
                            std::thread::yield_now();
                        }
                        7u8
                    })
                })
            })
            .collect();
        let results: Vec<(u8, Lookup)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|(v, _)| *v == 7));
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly-once compute");
        let s = store.stage_stats("frontend");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, (N - 1) as u64);
        assert_eq!(s.waits, (N - 1) as u64, "every contended thread counted");
        let waited = results.iter().filter(|(_, l)| l.waited).count();
        assert_eq!(waited, N - 1);
        assert!(results
            .iter()
            .filter(|(_, l)| l.waited)
            .all(|(_, l)| l.wait_ns > 0));
    }

    #[test]
    fn panicking_compute_vacates_the_slot() {
        let store = Store::new();
        let key = digest(b"boom");
        let r = catch_unwind(AssertUnwindSafe(|| {
            store.get_or_compute::<u32, _>("rtl", key, || panic!("compute failed"));
        }));
        assert!(r.is_err());
        // Slot is vacant again: the next accessor recomputes.
        let (v, l) = store.get_or_compute("rtl", key, || 9u32);
        assert_eq!(v, 9);
        assert!(!l.hit);
        assert_eq!(store.stage_stats("rtl").misses, 2);
    }

    #[test]
    fn poisoned_slot_stays_usable() {
        let store = Store::new();
        let key = digest(b"poison");
        store.poison("frontend", key);
        let (v, _) = store.get_or_compute("frontend", key, || 3u16);
        assert_eq!(v, 3);
        let (v, l) = store.get_or_compute::<u16, _>("frontend", key, || unreachable!());
        assert_eq!(v, 3u16);
        assert!(l.hit);
    }

    /// Satellite regression: a capped store fed more bytes than the cap
    /// stays under it, still serves every value correctly (evicted keys
    /// recompute), and counts each eviction.
    #[test]
    fn capped_store_stays_under_the_cap() {
        let store = Store::with_capacity(4 * 64);
        // 10 entries of 64 bytes against a 4-entry budget.
        for round in 0..2 {
            for i in 0..10u64 {
                let (v, _) = store.get_or_compute_sized(
                    "rtl",
                    digest(&i.to_le_bytes()),
                    || vec![i; 8],
                    |v| (v.len() * 8) as u64,
                );
                assert_eq!(v, vec![i; 8], "round {round}");
                assert!(
                    store.tracked_bytes() <= 4 * 64,
                    "round {round} key {i}: {} bytes tracked",
                    store.tracked_bytes()
                );
            }
        }
        let s = store.stage_stats("rtl");
        assert!(s.evictions >= 12, "two over-filled rounds must evict: {s:?}");
        assert_eq!(s.hits + s.misses, 20);
        assert!(s.misses > 10, "evicted keys recompute");
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let store = Store::with_capacity(2 * 8);
        let hot = digest(b"hot");
        store.get_or_compute_sized("solve", hot, || 1u64, |_| 8);
        store.get_or_compute_sized("solve", digest(b"b"), || 2u64, |_| 8);
        // Touch `hot` so `b` is the LRU victim of the next insert.
        let (_, l) = store.get_or_compute_sized("solve", hot, || unreachable!(), |_: &u64| 8);
        assert!(l.hit);
        store.get_or_compute_sized("solve", digest(b"c"), || 3u64, |_| 8);
        let (v, l) = store.get_or_compute_sized("solve", hot, || 0u64, |_| 8);
        assert!(l.hit, "hot entry must survive");
        assert_eq!(v, 1);
        let (_, l) = store.get_or_compute_sized("solve", digest(b"b"), || 2u64, |_| 8);
        assert!(!l.hit, "cold entry was evicted");
        assert_eq!(store.stage_stats("solve").evictions, 2);
    }

    #[test]
    fn uncapped_sized_entries_never_evict() {
        let store = Store::new();
        for i in 0..100u64 {
            store.get_or_compute_sized("modes", digest(&i.to_le_bytes()), || i, |_| 1 << 20);
        }
        assert_eq!(store.stage_stats("modes").evictions, 0);
        assert_eq!(store.tracked_bytes(), 100 << 20);
        // Capping after the fact evicts immediately.
        store.set_capacity(Some(10 << 20));
        assert!(store.tracked_bytes() <= 10 << 20);
        assert_eq!(store.stage_stats("modes").evictions, 90);
    }

    /// Per-stage counters live with each slot: a warm run split across two
    /// threads counts exactly what the same lookups count serially.
    #[test]
    fn two_thread_warm_run_counts_like_a_serial_run() {
        const STAGES: [&str; 3] = ["problem", "solve", "rtl"];
        let key = |stage: &str, i: u64| digest(format!("{stage}/{i}").as_bytes());
        // Cold, serial: 36 sized entries of 8 bytes against a 24-entry cap
        // evict the 12 oldest (all of `problem`); `verilog` is unsized.
        let cold = |store: &Store| {
            for stage in STAGES {
                for i in 0..12u64 {
                    store.get_or_compute_sized(stage, key(stage, i), || i, |_| 8);
                }
            }
            for i in 0..12u64 {
                store.get_or_compute("verilog", key("verilog", i), || i);
            }
        };
        // Warm: every surviving key, each lookup a hit.
        let warm_keys: Vec<(&'static str, u64)> = ["solve", "rtl", "verilog"]
            .iter()
            .flat_map(|&stage| (0..12u64).map(move |i| (stage, i)))
            .collect();
        let lookup = |store: &Store, (stage, i): (&'static str, u64)| {
            let (v, l) = if stage == "verilog" {
                store.get_or_compute::<u64, _>(stage, key(stage, i), || unreachable!())
            } else {
                store.get_or_compute_sized::<u64, _, _>(stage, key(stage, i), || unreachable!(), |_| 8)
            };
            assert!(l.hit && v == i, "{stage}/{i}");
        };
        let serial = Store::with_capacity(24 * 8);
        cold(&serial);
        for &k in &warm_keys {
            lookup(&serial, k);
        }
        let parallel = Store::with_capacity(24 * 8);
        cold(&parallel);
        std::thread::scope(|s| {
            for half in warm_keys.chunks(warm_keys.len() / 2) {
                let parallel = &parallel;
                s.spawn(move || half.iter().for_each(|&k| lookup(parallel, k)));
            }
        });
        assert_eq!(parallel.all_stats(), serial.all_stats());
        let problem = serial.stage_stats("problem");
        assert_eq!((problem.misses, problem.hits, problem.evictions), (12, 0, 12));
        let rtl = serial.stage_stats("rtl");
        assert_eq!((rtl.misses, rtl.hits, rtl.waits, rtl.evictions), (12, 12, 0, 0));
    }

    #[test]
    fn all_stats_sorted_by_stage() {
        let store = Store::new();
        let key = digest(b"x");
        store.get_or_compute("verilog", key, || 0u8);
        store.get_or_compute("frontend", key, || 0u8);
        let names: Vec<_> = store.all_stats().iter().map(|(s, _)| *s).collect();
        assert_eq!(names, vec!["frontend", "verilog"]);
    }
}
