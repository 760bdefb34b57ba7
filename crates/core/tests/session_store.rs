//! Session/store pinning tests:
//!
//! 1. Ingesting a series point-by-point through an [`EstimaSession`] yields
//!    **byte-identical** predictions to a fresh uncached [`Estima::predict`]
//!    of the same set after every ingest, over randomized workload shapes
//!    and ingestion orders (the store's ordering/dedup policy makes arrival
//!    order irrelevant) — through a middle-core insert, a content-changing
//!    re-ingest, and an evict followed by a re-create under the same id.
//!    Session refits seed from the fit cache's prefix-fit lineage, so this
//!    is the independent pin that seeding never changes a prediction.
//! 2. Interleaved ingest/predict traffic from N threads sharing one session
//!    never serves a fit from a stale version: every prediction matches a
//!    fresh uncached prediction of exactly the snapshot it was taken from.

use estima_core::prelude::*;
use proptest::prelude::*;

/// One synthetic measurement following simple analytic laws, parametrized
/// so different draws produce genuinely different series.
fn synthetic_point(cores: u32, serial: f64, quad: f64, spin: f64) -> Measurement {
    let n = cores as f64;
    let time = serial / n + 1.0;
    Measurement::new(cores, time)
        .with_stall(
            StallCategory::backend("rob_full"),
            1.0e9 * n * time * (0.5 + quad),
        )
        .with_stall(
            StallCategory::backend("ls_full"),
            1.0e9 * n * time * (0.5 - quad),
        )
        .with_stall(StallCategory::software("lock_spin"), spin * 1.0e7 * n * n)
}

/// Bitwise equality of two predictions' numeric outputs.
fn assert_bit_identical(a: &Prediction, b: &Prediction) {
    assert_eq!(a.app_name, b.app_name);
    assert_eq!(a.measured_cores, b.measured_cores);
    assert_eq!(a.target_cores, b.target_cores);
    assert_eq!(a.predicted_time.len(), b.predicted_time.len());
    for ((c1, t1), (c2, t2)) in a.predicted_time.iter().zip(&b.predicted_time) {
        assert_eq!(c1, c2);
        assert_eq!(t1.to_bits(), t2.to_bits(), "predicted_time at {c1} cores");
    }
    for ((c1, s1), (c2, s2)) in a.stalls_per_core.iter().zip(&b.stalls_per_core) {
        assert_eq!(c1, c2);
        assert_eq!(s1.to_bits(), s2.to_bits(), "stalls_per_core at {c1} cores");
    }
    assert_eq!(
        a.factor_correlation.to_bits(),
        b.factor_correlation.to_bits()
    );
    assert_curve_identical(&a.scaling_factor, &b.scaling_factor);
    assert_eq!(a.categories.len(), b.categories.len());
    for (x, y) in a.categories.iter().zip(&b.categories) {
        assert_eq!(x.category, y.category);
        assert_curve_identical(&x.curve, &y.curve);
    }
}

/// Bitwise equality of two fitted curves.
fn assert_curve_identical(a: &FittedCurve, b: &FittedCurve) {
    assert_eq!(a.kernel, b.kernel);
    assert_eq!(a.training_points, b.training_points);
    let bits = |c: &FittedCurve| -> Vec<u64> {
        c.params
            .iter()
            .chain([&c.checkpoint_rmse, &c.training_rmse])
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(bits(a), bits(b), "{:?} curve bits", a.kernel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_ingestion_matches_one_shot_predict(
        measured in 8u32..13,
        serial in 20.0f64..80.0,
        quad in 0.05f64..0.45,
        spin in 0.1f64..4.0,
        order_salt in 0u64..1000,
        gap_salt in 0u64..1000,
    ) {
        let config = EstimaConfig::default().with_parallelism(1);
        let estima = Estima::new(config.clone());
        let series = SeriesId::new("prop").unwrap();
        let target = TargetSpec::cores(measured * 4);
        let session = EstimaSession::new(config);
        // After every step: the session's (cached, seeded) prediction must
        // equal a fresh uncached prediction of the set it should now hold.
        let check = |expected: &MeasurementSet| {
            let one_shot = estima.predict(expected, &target);
            let incremental = session.predict(&series, &target);
            match (one_shot, incremental) {
                (Ok(a), Ok(b)) => assert_bit_identical(&a, &b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("one-shot {a:?} disagrees with incremental {b:?}"),
            }
        };
        let reused = || session.cache().prefix_fits().0;

        // Shuffled arrival, one middle core count held back for later.
        let gap = 2 + (gap_salt % u64::from(measured - 3)) as u32;
        let mut arrival: Vec<u32> = (1..=measured).filter(|c| *c != gap).collect();
        for i in (1..arrival.len()).rev() {
            arrival.swap(i, (order_salt as usize).wrapping_mul(i) % (i + 1));
        }
        session.ensure(&series, 2.1).unwrap();
        let mut expected = MeasurementSet::new("prop", 2.1);
        for cores in arrival {
            let point = synthetic_point(cores, serial, quad, spin);
            session.ingest(&series, point.clone()).unwrap();
            expected.push(point);
            check(&expected);
        }

        // A middle-core insert shifts every later point of the series.
        let point = synthetic_point(gap, serial, quad, spin);
        session.ingest(&series, point.clone()).unwrap();
        expected.push(point);
        check(&expected);

        // A re-ingest that changes a stored point's content.
        let changed = synthetic_point(measured - 1, serial * 1.5, quad, spin);
        session.ingest(&series, changed.clone()).unwrap();
        expected.push(changed);
        check(&expected);

        // Evict, then re-create the same id from the same law in order: the
        // eviction drops the series' lineage, so its first predict reuses
        // nothing; later appends reuse again.
        session.evict(&series).unwrap();
        session.ensure(&series, 2.1).unwrap();
        let mut expected = MeasurementSet::new("prop", 2.1);
        let mut predicted = false;
        for cores in 1..=measured {
            let point = synthetic_point(cores, serial, quad, spin);
            session.ingest(&series, point.clone()).unwrap();
            expected.push(point);
            let before = reused();
            check(&expected);
            if !predicted && session.predict(&series, &target).is_ok() {
                predicted = true;
                assert_eq!(reused(), before, "a re-created series seeded from its evicted lineage");
            }
        }
        assert!(reused() > 0, "no refit reused a prefix fit");
    }
}

#[test]
fn interleaved_threads_never_see_stale_fits() {
    // One shared session; each thread grows its own series and, after every
    // ingest, checks the session's (cached, scoped) prediction against a
    // fresh uncached prediction of the exact set it knows it has ingested.
    // Any stale fit — a hit keyed to an old version, an invalidation leaking
    // across series — produces a bitwise mismatch.
    let config = EstimaConfig::default().with_parallelism(1);
    let session = EstimaSession::new(config.clone());
    let threads = 3;
    let max_points = 10u32;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let session = &session;
            let config = config.clone();
            scope.spawn(move || {
                let name = format!("thread-{t}");
                let series = SeriesId::new(&name).unwrap();
                session.ensure(&series, 2.1).unwrap();
                let mut local = MeasurementSet::new(name, 2.1);
                let params = (30.0 + 10.0 * t as f64, 0.1 + 0.1 * t as f64, 1.0);
                for cores in 1..=max_points {
                    let point = synthetic_point(cores, params.0, params.1, params.2);
                    local.push(point.clone());
                    session.ingest(&series, point).unwrap();
                    if cores < 6 {
                        continue; // too thin to predict yet
                    }
                    let target = TargetSpec::cores(40);
                    let cached = session.predict(&series, &target).unwrap();
                    let fresh = Estima::new(config.clone())
                        .predict(&local, &target)
                        .unwrap();
                    assert_bit_identical(&cached, &fresh);
                }
            });
        }
    });
    // Every thread's final series is still intact in the store.
    assert_eq!(session.store().len(), threads);
    assert_eq!(
        session.store().total_points(),
        threads * max_points as usize
    );
}

#[test]
fn repredicting_between_thread_rounds_hits_the_cache() {
    // After the interleaved phase settles, an unchanged series must be a
    // pure cache hit — even when other series were mutated in between.
    let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
    let (a, b) = (
        SeriesId::new("hot").unwrap(),
        SeriesId::new("churn").unwrap(),
    );
    for series in [&a, &b] {
        session.ensure(series, 2.1).unwrap();
        for cores in 1..=10 {
            session
                .ingest(series, synthetic_point(cores, 50.0, 0.2, 1.0))
                .unwrap();
        }
    }
    let target = TargetSpec::cores(40);
    session.predict(&a, &target).unwrap();
    let misses_before = session.cache().stats().1;
    // Churn the other series from a second thread while re-predicting `hot`.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for cores in 11..=13 {
                session
                    .ingest(&b, synthetic_point(cores, 50.0, 0.2, 1.0))
                    .unwrap();
                let _ = session.predict(&b, &target);
            }
        });
        scope.spawn(|| {
            for _ in 0..3 {
                session.predict(&a, &target).unwrap();
            }
        });
    });
    let hot_extra_misses: usize = session.cache().stats().1 - misses_before;
    // All new misses belong to `churn`'s three new versions (at most 4 fits
    // each: 3 categories + the scaling factor); `hot` contributed none.
    assert!(
        hot_extra_misses <= 3 * 4,
        "re-predicting an unchanged series missed the cache ({hot_extra_misses} extra misses)"
    );
}
