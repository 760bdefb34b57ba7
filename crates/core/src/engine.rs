//! The parallel prediction engine: a scoped-thread work pool, a shared fit
//! cache, and the [`BatchPredictor`] batch API.
//!
//! ESTIMA's core loop — fit every Table 1 kernel over every training prefix
//! and checkpoint count for every stall category, for every workload — is
//! embarrassingly parallel. This module supplies the three fan-out stages:
//!
//! 1. **Grid fan-out** — [`crate::fit::candidate_fits_with`] evaluates the
//!    (kernel × prefix × checkpoint-count) candidate grid on the pool.
//! 2. **Category fan-out** — [`crate::predictor::Estima::predict`] fits all
//!    stall categories of a [`MeasurementSet`] concurrently.
//! 3. **Workload fan-out** — [`BatchPredictor::predict_all`] runs many
//!    workloads' predictions in parallel, sharing fitted candidates through a
//!    [`FitCache`] keyed structurally by (series, [`FitOptions`]).
//!
//! # Determinism
//!
//! The pool guarantees *bit-identical* results versus the sequential path:
//! tasks are enumerated in a fixed order, each task's computation is
//! independent of every other task, and results are reassembled by task index
//! before any reduction runs. Candidate curves are therefore always compared
//! in the same order regardless of thread completion order, so
//! `parallelism = 1` and `parallelism = N` produce byte-identical
//! [`Prediction`]s.
//!
//! Nested fan-outs (a category fit inside a batch job, a grid fit inside a
//! category fit) run inline on the worker thread that reached them, so the
//! pool never multiplies threads beyond its configured width.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::{EstimaConfig, TargetSpec};
use crate::error::Result;
use crate::fit::{FitCandidate, FitOptions, GridFit, PrefixFits};
use crate::measurement::MeasurementSet;
use crate::predictor::{Estima, Prediction};
use crate::store::EstimaSession;

thread_local! {
    /// True while the current thread is a pool worker: nested [`Engine::run`]
    /// calls detect this and execute inline instead of spawning more threads.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A scoped-thread work pool with deterministic result ordering.
///
/// The pool is stateless between calls: every [`Engine::run`] opens a
/// [`std::thread::scope`], drains a shared queue of indexed tasks, and joins
/// before returning, so borrowed inputs need no `'static` lifetimes and no
/// threads outlive the call.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// Create an engine with the given parallelism. `0` means "auto": use
    /// [`std::thread::available_parallelism`]. `1` reproduces the sequential
    /// path exactly (no threads are spawned at all).
    pub fn new(parallelism: usize) -> Self {
        let workers = if parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            parallelism
        };
        Engine { workers }
    }

    /// An engine that always runs inline on the calling thread.
    pub fn sequential() -> Self {
        Engine { workers: 1 }
    }

    /// Number of worker threads a fan-out may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item, returning results in item order.
    ///
    /// With one worker (or one item, or when already running on a pool worker
    /// thread) this is exactly `items.into_iter().map(f).collect()`. Otherwise
    /// the items are processed by up to [`Engine::workers`] scoped threads
    /// pulling from a shared queue; the results are reassembled by item index,
    /// so the output is independent of scheduling.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.workers <= 1 || n <= 1 || IN_POOL_WORKER.with(Cell::get) {
            return items.into_iter().map(f).collect();
        }
        let queue: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        let workers = self.workers.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    IN_POOL_WORKER.with(|flag| flag.set(true));
                    loop {
                        let task = queue.lock().unwrap().pop_front();
                        match task {
                            Some((index, item)) => {
                                let result = f(item);
                                results.lock().unwrap().push((index, result));
                            }
                            None => break,
                        }
                    }
                });
            }
        });
        let mut indexed = results.into_inner().unwrap();
        indexed.sort_unstable_by_key(|(index, _)| *index);
        indexed.into_iter().map(|(_, result)| result).collect()
    }
}

/// Cache key for one fitted series: the full series (as `f64` bit patterns,
/// so `-0.0` and `0.0` differ and NaNs are stable) plus the full
/// [`FitOptions`] (rendered through [`FitOptions::cache_tag`], which covers
/// every field). The key is structural — two keys are equal only if the
/// series and options are exactly equal — so cache hits can never substitute
/// another series' fits.
///
/// Keys built through [`FitKey::scoped`] additionally carry a
/// `(series id, version)` component from the
/// [`MeasurementStore`](crate::store::MeasurementStore): entries cached on
/// behalf of a named series are tagged with the store version they were
/// fitted from, so an ingest can invalidate exactly that series' stale fits
/// ([`FitCache::invalidate_series`]) and nothing else. Scoped and unscoped
/// keys never collide (the scope participates in equality), and the
/// structural series bits stay in the key either way, so a hit can never
/// substitute another series' — or another version's — fits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FitKey {
    xs_bits: Vec<u64>,
    ys_bits: Vec<u64>,
    options: String,
    scope: Option<(String, u64)>,
}

impl FitKey {
    /// Build the key for a `(series, options)` pair.
    pub fn new(xs: &[f64], ys: &[f64], options: &FitOptions) -> Self {
        FitKey {
            xs_bits: xs.iter().map(|x| x.to_bits()).collect(),
            ys_bits: ys.iter().map(|y| y.to_bits()).collect(),
            options: options.cache_tag(),
            scope: None,
        }
    }

    /// Build a key tagged with the owning store series and its version.
    pub fn scoped(
        xs: &[f64],
        ys: &[f64],
        options: &FitOptions,
        series: &str,
        version: u64,
    ) -> Self {
        FitKey {
            scope: Some((series.to_string(), version)),
            ..FitKey::new(xs, ys, options)
        }
    }

    /// The `(series id, version)` tag of a scoped key, if any.
    pub fn scope(&self) -> Option<(&str, u64)> {
        self.scope.as_ref().map(|(id, v)| (id.as_str(), *v))
    }

    /// FNV-1a hash of the key, used to pick a [`FitCache`] shard. This is
    /// the same hash family the workspace already uses for deterministic
    /// seeding (see the proptest shim); it is independent of the std
    /// `Hash` randomness, so a key always lands on the same shard across
    /// processes and runs.
    fn shard_hash(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut eat = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        for bits in self.xs_bits.iter().chain(&self.ys_bits) {
            for byte in bits.to_le_bytes() {
                eat(byte);
            }
        }
        for byte in self.options.as_bytes() {
            eat(*byte);
        }
        if let Some((series, version)) = &self.scope {
            for byte in series.as_bytes() {
                eat(*byte);
            }
            for byte in version.to_le_bytes() {
                eat(byte);
            }
        }
        hash
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A borrowed `(series id, version)` tag identifying which
/// [`MeasurementStore`](crate::store::MeasurementStore) state a fit was
/// computed from. Threaded through the cached fitting entry points
/// ([`crate::fit::candidate_fits_scoped`]) to build [`FitKey::scoped`] keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheScope<'a> {
    /// The owning store series.
    pub series: &'a str,
    /// The series version the fitted data was snapshotted at.
    pub version: u64,
}

/// One cached candidate list plus its recency stamp (the shard's logical
/// clock value at the last hit or insert; smallest = least recently used)
/// and, for scoped entries, the per-prefix verdict table of the fit.
#[derive(Debug)]
struct ShardEntry {
    value: Arc<Vec<FitCandidate>>,
    last_used: u64,
    table: Option<Arc<PrefixFits>>,
}

/// One cache shard: its own map, logical clock, and series→keys index
/// behind its own lock, so lookups on different shards never contend.
///
/// Keys are stored as `Arc<FitKey>` so the series index can reference them
/// without cloning the (potentially large) series bit vectors: the map and
/// the index share one allocation per key. Invariant: a scoped key is in
/// `map` iff it is in `by_series[its series]` — insert, evict and
/// invalidate all maintain both sides under the shard lock.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Arc<FitKey>, ShardEntry>,
    /// Scoped keys grouped by their series id, so
    /// [`FitCache::invalidate_series`] removes exactly that series' entries
    /// instead of sweeping the whole shard.
    by_series: HashMap<String, Vec<Arc<FitKey>>>,
    /// Lineage slots of the series whose name hashes to this shard: the
    /// verdict tables of the entries the series' last invalidating version
    /// bump removed (see [`FitCache`]).
    lineage: HashMap<String, Vec<Arc<PrefixFits>>>,
    clock: u64,
}

impl Shard {
    /// Evict least-recently-used entries until the shard is within
    /// `capacity`, keeping the series index in sync. Returns how many
    /// entries were evicted.
    fn enforce_capacity(&mut self, capacity: usize) -> usize {
        let mut evicted = 0;
        while self.map.len() > capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| Arc::clone(key))
            else {
                break;
            };
            self.map.remove(&oldest);
            self.unindex(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Remove a scoped key from the series index (no-op for unscoped keys).
    /// Eviction-time bookkeeping: O(that series' keys), and rare.
    fn unindex(&mut self, key: &FitKey) {
        let Some((series, _)) = key.scope() else {
            return;
        };
        if let Some(keys) = self.by_series.get_mut(series) {
            if let Some(position) = keys.iter().position(|k| k.as_ref() == key) {
                keys.swap_remove(position);
            }
            if keys.is_empty() {
                self.by_series.remove(series);
            }
        }
    }
}

/// Default number of shards (a power of two; the shard index is the low bits
/// of the key's FNV hash).
const DEFAULT_SHARDS: usize = 16;

/// Default total capacity. A full `reproduce all` run caches a few hundred
/// series, so the default never evicts there; it exists to bound memory for
/// long-running servers seeing unbounded distinct series.
const DEFAULT_CAPACITY: usize = 4096;

/// A sharded, capacity-bounded, concurrency-safe cache of candidate-fit
/// lists keyed by [`FitKey`]. Shared by every job of a [`BatchPredictor`] so
/// that workloads measured on the same machine reuse each other's fits
/// (identical series — e.g. a zero-noise category or a repeated workload —
/// are fitted once), and by `estima-serve` so concurrent HTTP requests share
/// fitted candidates without serializing on a single lock.
///
/// # Sharding and eviction
///
/// Keys are distributed over N independent shards by an FNV-1a hash of the
/// series bits and options, each shard behind its own mutex, so concurrent
/// lookups of different series proceed in parallel. Every shard holds at
/// most `capacity / shards` entries and evicts its least-recently-used entry
/// on overflow (a hit refreshes recency). Eviction only ever costs a refit:
/// fits are deterministic, so a re-computed entry is bit-identical to the
/// evicted one and predictions are unaffected — pinned by
/// `crates/core/tests/fit_cache.rs`.
///
/// # Prefix-fit lineage
///
/// A scoped miss (a named store series, see [`FitKey::scoped`]) records the
/// grid's per-(kernel, prefix) verdict table in its entry. When a version
/// bump invalidates the series ([`FitCache::invalidate_series`]), the
/// removed entries' tables move into the series' single lineage slot,
/// replacing the previous one (a bump that removes no entries keeps the
/// slot). The next scoped miss for the series seeds its grid from the slot
/// table sharing the longest bit-identical prefix with its data, so an
/// append refits one new prefix per kernel instead of all of them.
/// [`FitCache::forget_series`] (a deleted or expired series) drops the
/// slot. Reuse is decided by exact data and LM-option equality alone — never
/// by series id or version — so a stale table can only cost a refit, and a
/// seeded grid is bit-identical to an unseeded one. Unscoped fits build no
/// tables.
#[derive(Debug)]
pub struct FitCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum entries per shard.
    shard_capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    invalidations: AtomicUsize,
    prefix_fits_reused: AtomicUsize,
    prefix_fits_computed: AtomicUsize,
}

impl Default for FitCache {
    fn default() -> Self {
        FitCache::new()
    }
}

impl FitCache {
    /// Create a cache with the default shard count and capacity.
    pub fn new() -> Self {
        FitCache::with_shards_and_capacity(DEFAULT_SHARDS, DEFAULT_CAPACITY)
    }

    /// Create a cache bounded to roughly `capacity` entries in total, with
    /// the default shard count.
    pub fn with_capacity(capacity: usize) -> Self {
        FitCache::with_shards_and_capacity(DEFAULT_SHARDS, capacity)
    }

    /// Create a cache with an explicit shard count and total capacity. The
    /// capacity is split evenly across shards (rounded up, minimum one entry
    /// per shard); a shard count of 0 is treated as 1.
    pub fn with_shards_and_capacity(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        FitCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            invalidations: AtomicUsize::new(0),
            prefix_fits_reused: AtomicUsize::new(0),
            prefix_fits_computed: AtomicUsize::new(0),
        }
    }

    /// The shard holding `key`.
    fn shard_for(&self, key: &FitKey) -> &Mutex<Shard> {
        let index = (key.shard_hash() as usize) % self.shards.len();
        &self.shards[index]
    }

    /// The shard holding `series`' lineage slot.
    fn lineage_shard(&self, series: &str) -> &Mutex<Shard> {
        let hash = series.bytes().fold(FNV_OFFSET, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        });
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Look up `key`, computing and inserting the candidate list on a miss.
    ///
    /// The computation runs outside every cache lock, so concurrent misses
    /// on the same key may compute twice — both produce identical results
    /// (the fit is deterministic) and the first insert wins, so callers
    /// always observe one consistent value. A hit refreshes the entry's LRU
    /// recency; an insert that overflows the shard evicts its
    /// least-recently-used entries.
    pub fn get_or_compute<F>(&self, key: FitKey, compute: F) -> Result<Arc<Vec<FitCandidate>>>
    where
        F: FnOnce() -> Result<Vec<FitCandidate>>,
    {
        self.get_or_fit(key, |_| {
            Ok(GridFit {
                candidates: compute()?,
                table: None,
                reused: 0,
                computed: 0,
            })
        })
    }

    /// [`FitCache::get_or_compute`] for the grid fitter: on a miss, `fit`
    /// receives the lineage slot of the key's series (empty for unscoped
    /// keys) to seed from, and the verdict table it returns is kept in the
    /// entry. Its reused/computed cell counts feed
    /// [`FitCache::prefix_fits`].
    pub(crate) fn get_or_fit<F>(&self, key: FitKey, fit: F) -> Result<Arc<Vec<FitCandidate>>>
    where
        F: FnOnce(&[Arc<PrefixFits>]) -> Result<GridFit>,
    {
        let shard = self.shard_for(&key);
        {
            let mut guard = shard.lock().unwrap();
            guard.clock += 1;
            let clock = guard.clock;
            if let Some(entry) = guard.map.get_mut(&key) {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.value));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let lineage = match key.scope() {
            Some((series, _)) => {
                let guard = self
                    .lineage_shard(series)
                    .lock()
                    .expect("fit-cache shard lock poisoned");
                guard.lineage.get(series).cloned().unwrap_or_default()
            }
            None => Vec::new(),
        };
        let GridFit {
            candidates,
            table,
            reused,
            computed,
        } = fit(&lineage)?;
        self.prefix_fits_reused.fetch_add(reused, Ordering::Relaxed);
        self.prefix_fits_computed
            .fetch_add(computed, Ordering::Relaxed);
        let mut guard = shard.lock().unwrap();
        guard.clock += 1;
        let clock = guard.clock;
        let key = Arc::new(key);
        let shard_mut = &mut *guard;
        let value = match shard_mut.map.entry(Arc::clone(&key)) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                // A concurrent miss inserted first; its (identical) value
                // wins, refreshed as just used. The key is already indexed.
                occupied.get_mut().last_used = clock;
                Arc::clone(&occupied.get().value)
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                if let Some((series, _)) = key.scope() {
                    shard_mut
                        .by_series
                        .entry(series.to_string())
                        .or_default()
                        .push(Arc::clone(&key));
                }
                Arc::clone(
                    &vacant
                        .insert(ShardEntry {
                            value: Arc::new(candidates),
                            last_used: clock,
                            table: table.map(Arc::new),
                        })
                        .value,
                )
            }
        };
        let evicted = guard.enforce_capacity(self.shard_capacity);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// Number of cached series across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap().map.len())
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| shard.lock().unwrap().map.is_empty())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity (entries) the cache is bounded to.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of entries evicted by the capacity bound since construction.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Drop every cached entry whose [`FitKey::scoped`] tag names `series`,
    /// regardless of version. Returns how many entries were removed.
    ///
    /// Called by [`EstimaSession`] whenever a
    /// series is mutated: the version bump already guarantees the
    /// next prediction cannot *hit* a stale entry (the version is part of the
    /// key), so this sweep exists to reclaim the now-unreachable entries
    /// immediately instead of waiting for LRU pressure. Unscoped entries and
    /// entries scoped to other series are untouched — structurally so: each
    /// shard keeps a series→keys index, and invalidation removes exactly the
    /// indexed keys, costing O(that series' entries) rather than a
    /// full-shard sweep. Entries it never owned are never even visited.
    ///
    /// The removed entries' verdict tables become the series' lineage slot
    /// (replacing the previous one; kept as is when nothing was removed), so
    /// the next fit of the grown series reuses every unchanged prefix.
    pub fn invalidate_series(&self, series: &str) -> usize {
        let (removed, tables) = self.remove_series_entries(series);
        if !tables.is_empty() {
            let mut guard = self
                .lineage_shard(series)
                .lock()
                .expect("fit-cache shard lock poisoned");
            guard.lineage.insert(series.to_string(), tables);
        }
        removed
    }

    /// [`FitCache::invalidate_series`] for a series that is gone (deleted
    /// or expired): also drops its lineage slot, so nothing it fitted is kept
    /// or can seed a later series under the same id. Returns how many
    /// entries were removed.
    pub fn forget_series(&self, series: &str) -> usize {
        let (removed, _) = self.remove_series_entries(series);
        self.lineage_shard(series)
            .lock()
            .expect("fit-cache shard lock poisoned")
            .lineage
            .remove(series);
        removed
    }

    /// Remove every entry scoped to `series`; returns how many, and the
    /// verdict tables they held.
    fn remove_series_entries(&self, series: &str) -> (usize, Vec<Arc<PrefixFits>>) {
        let mut removed = 0;
        let mut tables = Vec::new();
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap();
            if let Some(keys) = guard.by_series.remove(series) {
                for key in keys {
                    if let Some(entry) = guard.map.remove(&key) {
                        removed += 1;
                        tables.extend(entry.table);
                    }
                }
            }
        }
        if removed > 0 {
            self.invalidations.fetch_add(removed, Ordering::Relaxed);
        }
        (removed, tables)
    }

    /// `(reused, computed)` grid cells since construction: (kernel, prefix)
    /// verdicts copied from a lineage table versus fitted, over every miss
    /// that ran the grid fitter.
    pub fn prefix_fits(&self) -> (usize, usize) {
        (
            self.prefix_fits_reused.load(Ordering::Relaxed),
            self.prefix_fits_computed.load(Ordering::Relaxed),
        )
    }

    /// Number of entries removed by [`FitCache::invalidate_series`] and
    /// [`FitCache::forget_series`] since construction.
    pub fn invalidations(&self) -> usize {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Hit rate since construction: `hits / (hits + misses)`, or 0.0 before
    /// the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Batch prediction API: run many workloads' predictions in parallel with a
/// shared fit cache.
///
/// This is the README's "many workloads, one call" example, as a runnable
/// doc-test:
///
/// ```
/// use estima_core::prelude::*;
///
/// # fn measurement_sets() -> Vec<MeasurementSet> {
/// #     ["alpha", "beta"].iter().map(|app| {
/// #         let mut set = MeasurementSet::new(*app, 2.1);
/// #         for cores in 1..=8u32 {
/// #             let n = cores as f64;
/// #             set.push(Measurement::new(cores, 20.0 / n + 0.5).with_stall(
/// #                 StallCategory::backend("rob_full"), 1.0e9 * (1.0 + 0.1 * n * n)));
/// #         }
/// #         set
/// #     }).collect()
/// # }
/// # fn main() -> estima_core::Result<()> {
/// let sets: Vec<MeasurementSet> = measurement_sets();
///
/// // Many workloads, one call: parallel jobs + a shared fit cache, so
/// // repeated series are fitted once.
/// let config = EstimaConfig::default().with_parallelism(4);
/// let batch = BatchPredictor::new(config);
/// let jobs: Vec<(MeasurementSet, TargetSpec)> = sets
///     .into_iter()
///     .map(|set| (set, TargetSpec::cores(48)))
///     .collect();
/// for result in batch.predict_all(jobs) {
///     let prediction = result?;
///     println!(
///         "{}: limit {} cores",
///         prediction.app_name,
///         prediction.predicted_scaling_limit()
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BatchPredictor {
    session: EstimaSession,
}

impl BatchPredictor {
    /// Create a batch predictor with its own private fit cache. The
    /// `parallelism` knob of the configuration controls both the job fan-out
    /// and the per-job stage fan-outs.
    pub fn new(config: EstimaConfig) -> Self {
        BatchPredictor::with_cache(config, Arc::new(FitCache::new()))
    }

    /// Create a batch predictor sharing an externally owned [`FitCache`], so
    /// fitted candidates persist across predictors (e.g. across the
    /// experiments of a `reproduce` run, which refit the same workload series
    /// repeatedly).
    pub fn with_cache(config: EstimaConfig, cache: Arc<FitCache>) -> Self {
        BatchPredictor {
            session: EstimaSession::with_cache(config, cache),
        }
    }

    /// Create a batch predictor around a fully constructed
    /// [`EstimaSession`] — the route for sessions whose store is durable or
    /// resource-limited (see
    /// [`MeasurementStore::open`](crate::store::MeasurementStore::open)).
    pub fn with_session(session: EstimaSession) -> Self {
        BatchPredictor { session }
    }

    /// Borrow the underlying [`EstimaSession`]: the batch predictor is a
    /// thin fan-out wrapper over an (anonymous) session, and the session is
    /// where stateful series live. `estima-serve` routes its `/v1/series`
    /// endpoints through this accessor.
    pub fn session(&self) -> &EstimaSession {
        &self.session
    }

    /// Borrow the underlying predictor.
    pub fn estima(&self) -> &Estima {
        self.session.estima()
    }

    /// Borrow the shared fit cache (for statistics).
    pub fn cache(&self) -> &FitCache {
        self.session.cache()
    }

    /// Predict one measurement set, sharing the fit cache with every other
    /// call on this predictor.
    pub fn predict(&self, set: &MeasurementSet, target: &TargetSpec) -> Result<Prediction> {
        self.session.predict_set(set, target)
    }

    /// Run every `(measurements, target)` job, in parallel up to the
    /// configured parallelism, and return one result per job in job order.
    /// Results are bit-identical to calling [`Estima::predict`] per job.
    pub fn predict_all(&self, jobs: Vec<(MeasurementSet, TargetSpec)>) -> Vec<Result<Prediction>> {
        let engine = Engine::new(self.session.config().parallelism);
        engine.run(jobs, |(set, target)| self.predict(&set, &target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{Measurement, StallCategory};

    #[test]
    fn run_preserves_item_order() {
        let engine = Engine::new(4);
        let items: Vec<u64> = (0..100).collect();
        let doubled = engine.run(items.clone(), |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_engine_spawns_nothing_and_matches_parallel() {
        let items: Vec<u64> = (0..57).collect();
        let seq = Engine::sequential().run(items.clone(), |x| x.wrapping_mul(0x9e37));
        let par = Engine::new(8).run(items, |x| x.wrapping_mul(0x9e37));
        assert_eq!(seq, par);
    }

    #[test]
    fn auto_parallelism_resolves_to_at_least_one_worker() {
        assert!(Engine::new(0).workers() >= 1);
        assert_eq!(Engine::new(3).workers(), 3);
    }

    #[test]
    fn nested_runs_execute_inline() {
        let engine = Engine::new(4);
        let outer = engine.run(vec![10u64, 20, 30], |base| {
            // A nested fan-out from a worker thread must run inline (and
            // still produce ordered results).
            let inner = engine.run((0..5u64).collect(), move |i| base + i);
            inner.iter().sum::<u64>()
        });
        assert_eq!(outer, vec![60, 110, 160]);
    }

    #[test]
    fn cache_key_distinguishes_series_and_options() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.0, 4.0, 9.0];
        let options = FitOptions::default();
        let base = FitKey::new(&xs, &ys, &options);
        assert_eq!(base, FitKey::new(&xs, &ys, &options));
        assert_ne!(base, FitKey::new(&ys, &xs, &options));
        let narrowed = FitOptions {
            realism_horizon: 128,
            ..FitOptions::default()
        };
        assert_ne!(base, FitKey::new(&xs, &ys, &narrowed));
    }

    #[test]
    fn fit_cache_counts_hits_and_misses() {
        let cache = FitCache::new();
        let options = FitOptions::default();
        let key_a = FitKey::new(&[1.0, 2.0], &[1.0, 4.0], &options);
        let key_b = FitKey::new(&[1.0, 2.0], &[2.0, 8.0], &options);
        let make = || Ok(Vec::new());
        cache.get_or_compute(key_a.clone(), make).unwrap();
        cache.get_or_compute(key_a, make).unwrap();
        cache.get_or_compute(key_b, make).unwrap();
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    fn demo_set(name: &str) -> MeasurementSet {
        let mut set = MeasurementSet::new(name, 2.1);
        for cores in 1..=10u32 {
            let n = cores as f64;
            set.push(Measurement::new(cores, 30.0 / n + 1.0).with_stall(
                StallCategory::backend("rob_full"),
                2.0e9 * (1.0 + 0.08 * n * n),
            ));
        }
        set
    }

    #[test]
    fn batch_matches_individual_predictions_bit_for_bit() {
        // Parallelism 1 keeps the cache-hit counter deterministic: jobs run
        // in order, so the repeated series must hit (concurrent jobs may
        // both miss and compute identical results instead).
        let config = EstimaConfig::default().with_parallelism(1);
        let solo = Estima::new(config.clone())
            .predict(&demo_set("app"), &TargetSpec::cores(40))
            .unwrap();
        let batch = BatchPredictor::new(config);
        let results = batch.predict_all(vec![(demo_set("app"), TargetSpec::cores(40)); 3]);
        for result in results {
            let prediction = result.unwrap();
            for ((c1, t1), (c2, t2)) in solo.predicted_time.iter().zip(&prediction.predicted_time) {
                assert_eq!(c1, c2);
                assert_eq!(t1.to_bits(), t2.to_bits());
            }
        }
        // Identical series: the repeated jobs must hit the shared cache.
        let (hits, _) = batch.cache().stats();
        assert!(hits > 0, "repeated identical jobs produced no cache hits");
    }
}
