//! Behaviour of the sharded, capacity-bounded [`FitCache`]: LRU eviction
//! order, the capacity bound, and — most importantly — that caching (with or
//! without evictions, across any shard layout) never changes a prediction:
//! cached and cold results are byte-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use estima_core::engine::FitKey;
use estima_core::fit::{candidate_fits, candidate_fits_scoped, FitCandidate};
use estima_core::prelude::*;
use estima_core::{CacheScope, FitOptions};

/// A key for a synthetic series distinguished by `tag`.
fn key(tag: u64) -> FitKey {
    let xs = [1.0, 2.0, 3.0, tag as f64 + 10.0];
    let ys = [1.0, 4.0, 9.0, (tag as f64).powi(2)];
    FitKey::new(&xs, &ys, &FitOptions::default())
}

/// Populate-or-hit `key` in `cache`, counting how many times the compute
/// closure actually ran.
fn touch(cache: &FitCache, key: FitKey, computes: &AtomicUsize) {
    cache
        .get_or_compute(key, || {
            computes.fetch_add(1, Ordering::Relaxed);
            Ok(Vec::new())
        })
        .unwrap();
}

#[test]
fn lru_eviction_order_is_exact() {
    // One shard so all keys share one LRU queue; room for two entries.
    let cache = FitCache::with_shards_and_capacity(1, 2);
    let computes = AtomicUsize::new(0);

    touch(&cache, key(1), &computes); // miss: [1]
    touch(&cache, key(2), &computes); // miss: [1, 2]
    touch(&cache, key(1), &computes); // hit, refreshes 1: [2, 1]
    touch(&cache, key(3), &computes); // miss, evicts the LRU entry (2): [1, 3]
    assert_eq!(computes.load(Ordering::Relaxed), 3);
    assert_eq!(cache.evictions(), 1);

    // 1 was refreshed by its hit, so it survived the eviction...
    touch(&cache, key(1), &computes);
    assert_eq!(computes.load(Ordering::Relaxed), 3, "key 1 was evicted");
    // ...while 2 (the least recently used) was the one evicted.
    touch(&cache, key(2), &computes);
    assert_eq!(
        computes.load(Ordering::Relaxed),
        4,
        "key 2 survived eviction"
    );
    assert_eq!(cache.stats().0, 2, "expected exactly the two hits on key 1");
}

#[test]
fn capacity_bound_holds_across_shards() {
    let cache = FitCache::with_shards_and_capacity(4, 8);
    assert_eq!(cache.shards(), 4);
    assert_eq!(cache.capacity(), 8);
    let computes = AtomicUsize::new(0);
    for tag in 0..200 {
        touch(&cache, key(tag), &computes);
    }
    assert!(
        cache.len() <= cache.capacity(),
        "cache holds {} entries, capacity {}",
        cache.len(),
        cache.capacity()
    );
    assert_eq!(computes.load(Ordering::Relaxed), 200);
    assert!(cache.evictions() >= 200 - cache.capacity());
    // A fresh default cache reports its configured defaults.
    let default = FitCache::new();
    assert!(default.is_empty());
    assert_eq!(default.hit_rate(), 0.0);
}

#[test]
fn same_key_lands_on_same_shard_deterministically() {
    // The FNV shard hash depends only on the key contents, so repeated
    // lookups of one key touch one shard: with capacity 1 per shard, two
    // alternating keys on the *same* shard would evict each other (4
    // computes), while keys on different shards coexist. Either way the
    // replay below must behave identically run to run.
    let cache_a = FitCache::with_shards_and_capacity(8, 8);
    let cache_b = FitCache::with_shards_and_capacity(8, 8);
    let computes_a = AtomicUsize::new(0);
    let computes_b = AtomicUsize::new(0);
    for tag in [1, 2, 1, 2, 3, 1] {
        touch(&cache_a, key(tag), &computes_a);
        touch(&cache_b, key(tag), &computes_b);
    }
    assert_eq!(
        computes_a.load(Ordering::Relaxed),
        computes_b.load(Ordering::Relaxed),
        "identical lookup sequences must hit/miss identically"
    );
    assert_eq!(cache_a.stats(), cache_b.stats());
}

/// A scoped key for `series` at `version`, distinguished by `tag`.
fn scoped_key(series: &str, version: u64, tag: u64) -> FitKey {
    let xs = [1.0, 2.0, 3.0, tag as f64 + 10.0];
    let ys = [1.0, 4.0, 9.0, (tag as f64).powi(2)];
    FitKey::scoped(&xs, &ys, &FitOptions::default(), series, version)
}

#[test]
fn invalidate_series_never_touches_unrelated_entries() {
    // One shard so every series shares one map: a scan-based invalidation
    // would walk (and a buggy one could disturb) the unrelated entries.
    let cache = FitCache::with_shards_and_capacity(1, 64);
    let computes = AtomicUsize::new(0);

    // Three populations: series "a" (3 entries, across two versions),
    // series "b" (2 entries), and unscoped keys (2 entries).
    for tag in 0..2 {
        touch(&cache, scoped_key("a", 1, tag), &computes);
    }
    touch(&cache, scoped_key("a", 2, 0), &computes);
    for tag in 0..2 {
        touch(&cache, scoped_key("b", 1, tag), &computes);
    }
    for tag in 0..2 {
        touch(&cache, key(tag), &computes);
    }
    assert_eq!(computes.load(Ordering::Relaxed), 7);
    assert_eq!(cache.len(), 7);

    // Invalidating "a" removes exactly its three entries, nothing else.
    assert_eq!(cache.invalidate_series("a"), 3);
    assert_eq!(cache.invalidations(), 3);
    assert_eq!(cache.len(), 4);

    // Every unrelated entry is still resident: re-looking them up hits the
    // cache without recomputing.
    for tag in 0..2 {
        touch(&cache, scoped_key("b", 1, tag), &computes);
        touch(&cache, key(tag), &computes);
    }
    assert_eq!(
        computes.load(Ordering::Relaxed),
        7,
        "invalidate_series(\"a\") disturbed entries it does not own"
    );

    // The "a" entries really are gone — both versions recompute...
    for tag in 0..2 {
        touch(&cache, scoped_key("a", 1, tag), &computes);
    }
    touch(&cache, scoped_key("a", 2, 0), &computes);
    assert_eq!(computes.load(Ordering::Relaxed), 10);

    // ...and a second invalidation finds the reinserted entries again (the
    // series index is rebuilt on insert, not consumed once).
    assert_eq!(cache.invalidate_series("a"), 3);
    assert_eq!(cache.invalidate_series("a"), 0, "index left stale keys");
    assert_eq!(cache.invalidate_series("missing"), 0);
    assert_eq!(cache.invalidations(), 6);
}

fn demo_set(name: &str) -> MeasurementSet {
    let mut set = MeasurementSet::new(name, 2.1);
    for cores in 1..=10u32 {
        let n = cores as f64;
        set.push(
            Measurement::new(cores, 30.0 / n + 1.0)
                .with_stall(
                    StallCategory::backend("rob_full"),
                    2.0e9 * (1.0 + 0.08 * n * n),
                )
                .with_stall(StallCategory::backend("ls_full"), 1.0e9 * (1.0 + 0.3 * n)),
        );
    }
    set
}

fn assert_bit_identical(a: &Prediction, b: &Prediction) {
    assert_eq!(a.predicted_time.len(), b.predicted_time.len());
    for ((c1, t1), (c2, t2)) in a.predicted_time.iter().zip(&b.predicted_time) {
        assert_eq!(c1, c2);
        assert_eq!(t1.to_bits(), t2.to_bits());
    }
    for ((c1, s1), (c2, s2)) in a.stalls_per_core.iter().zip(&b.stalls_per_core) {
        assert_eq!(c1, c2);
        assert_eq!(s1.to_bits(), s2.to_bits());
    }
}

#[test]
fn cached_cold_and_evicting_predictions_are_byte_identical() {
    let config = EstimaConfig::default().with_parallelism(1);
    let target = TargetSpec::cores(40);
    let jobs: Vec<(MeasurementSet, TargetSpec)> = (0..4)
        .flat_map(|_| {
            vec![
                (demo_set("alpha"), target.clone()),
                (demo_set("beta"), target.clone()),
            ]
        })
        .collect();

    // Cold: no cache at all.
    let cold: Vec<Prediction> = jobs
        .iter()
        .map(|(set, target)| Estima::new(config.clone()).predict(set, target).unwrap())
        .collect();

    // Warm: ample capacity — repeated jobs are pure cache hits.
    let warm_batch = BatchPredictor::with_cache(config.clone(), Arc::new(FitCache::new()));
    let warm = warm_batch.predict_all(jobs.clone());
    let (warm_hits, _) = warm_batch.cache().stats();
    assert!(warm_hits > 0, "repeated jobs should hit the roomy cache");

    // Thrashing: a one-entry cache evicts constantly between the two
    // interleaved workloads.
    let tiny = Arc::new(FitCache::with_shards_and_capacity(1, 1));
    let tiny_batch = BatchPredictor::with_cache(config.clone(), Arc::clone(&tiny));
    let thrashed = tiny_batch.predict_all(jobs);
    assert!(tiny.evictions() > 0, "one-entry cache never evicted");
    assert!(tiny.len() <= 1);

    for ((cold, warm), thrashed) in cold.iter().zip(&warm).zip(&thrashed) {
        let warm = warm.as_ref().unwrap();
        let thrashed = thrashed.as_ref().unwrap();
        assert_bit_identical(cold, warm);
        assert_bit_identical(cold, thrashed);
    }
}

/// The 12-point test series, or its first `n` points.
fn campaign_series(n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (1..=n).map(|c| c as f64).collect();
    let ys = xs
        .iter()
        .map(|x| 1.0e9 + 2.0e7 * x + 5.0e5 * x * x)
        .collect();
    (xs, ys)
}

/// Fit the first `n` campaign points under `series`/`version` and check the
/// candidates bit for bit against a cold, uncached fit. Returns how many
/// prefix fits the call reused.
fn scoped_fit(cache: &FitCache, series: &str, version: u64, n: usize) -> usize {
    let (xs, ys) = campaign_series(n);
    let options = FitOptions::default();
    let engine = Engine::sequential();
    let scope = CacheScope { series, version };
    let before = cache.prefix_fits().0;
    let cached = candidate_fits_scoped(&xs, &ys, &options, &engine, cache, Some(scope)).unwrap();
    let cold = candidate_fits(&xs, &ys, &options).unwrap();
    let bits = |c: &FitCandidate| -> Vec<u64> {
        c.curve
            .params
            .iter()
            .chain([&c.curve.checkpoint_rmse, &c.curve.training_rmse])
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(cached.len(), cold.len());
    for (a, b) in cached.iter().zip(&cold) {
        assert_eq!(a.curve.kernel, b.curve.kernel);
        assert_eq!(bits(a), bits(b));
    }
    cache.prefix_fits().0 - before
}

#[test]
fn lineage_lives_from_invalidation_to_forget() {
    let cache = FitCache::new();
    // A cold series has no lineage.
    assert_eq!(scoped_fit(&cache, "a", 1, 10), 0);
    // An appended point bumps the version: the refit reuses.
    cache.invalidate_series("a");
    assert!(scoped_fit(&cache, "a", 2, 11) > 0);
    // A bump that removes nothing (no predict in between) keeps the slot.
    cache.invalidate_series("a");
    cache.invalidate_series("a");
    assert!(scoped_fit(&cache, "a", 4, 12) > 0);
    // Lineage slots are per series: "b" cannot seed from "a".
    assert_eq!(scoped_fit(&cache, "b", 1, 12), 0);
    // A forgotten (deleted or expired) series leaves nothing to seed from.
    cache.invalidate_series("a");
    cache.forget_series("a");
    assert_eq!(scoped_fit(&cache, "a", 1, 12), 0);
    let (reused, computed) = cache.prefix_fits();
    assert!(computed > reused, "{reused} reused, {computed} computed");
}
