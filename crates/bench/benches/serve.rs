//! Criterion bench: HTTP prediction round-trip latency over loopback.
//!
//! What does the serving layer add on top of the in-process pipeline? One
//! persistent keep-alive connection against an in-process `estima-serve`
//! instance, one `POST /v1/predict` per iteration. The warm case is
//! dominated by HTTP framing + JSON encode/decode (the fit comes from the
//! sharded cache); `series_predict_roundtrip_warm` asks for the same
//! prediction of a stored series, which the version memo answers with a
//! copy of the rendered body. The in-process baseline from `benches/pipeline.rs`
//! (`predict_12_to_48`) is the number to compare against. The sustained
//! multi-connection view (throughput, p99) comes from the `loadgen` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use estima_core::{Measurement, MeasurementSet, SeriesId, StallCategory, TargetSpec};
use estima_serve::{wire, Client, Server, ServerConfig};

/// The same quickstart-sized job `loadgen` uses, from the shared harness.
fn job() -> (MeasurementSet, TargetSpec) {
    estima_bench::harness::quickstart_sized_job("bench")
}

fn bench_http_roundtrip(c: &mut Criterion) {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind bench server")
    .spawn()
    .expect("spawn bench server");

    let (set, target) = job();
    let body = wire::predict_request_to_json(&set, &target).render();
    let mut client = Client::connect(handle.addr()).expect("connect bench client");
    // The same job stored as a series: every timed series predict after
    // the first is answered from its version memo.
    let series = SeriesId::new("bench").expect("valid series id");
    let ingest =
        wire::ingest_request_to_json(&series, Some(set.frequency_ghz), set.measurements()).render();
    let response = client
        .request("POST", "/v1/measurements", &ingest)
        .expect("bench ingest");
    assert_eq!(response.status, 200);
    let series_target = wire::target_spec_to_json(&target).render();

    let mut group = c.benchmark_group("serve");
    group.bench_function("predict_roundtrip_warm", |b| {
        b.iter(|| {
            let response = client
                .request("POST", "/v1/predict", &body)
                .expect("bench request");
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    group.bench_function("series_predict_roundtrip_warm", |b| {
        b.iter(|| {
            let response = client
                .request("POST", "/v1/series/bench/predict", &series_target)
                .expect("bench request");
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    group.bench_function("healthz_roundtrip", |b| {
        b.iter(|| {
            let response = client
                .request("GET", "/v1/healthz", "")
                .expect("bench request");
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    group.finish();

    drop(client);
    handle.shutdown();

    // A cold fit for contrast: request a fresh series every iteration by
    // perturbing one measurement, so the cache never hits.
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind bench server")
    .spawn()
    .expect("spawn bench server");
    let mut client = Client::connect(handle.addr()).expect("connect bench client");
    let mut group = c.benchmark_group("serve");
    let mut salt = 0u32;
    group.bench_function("predict_roundtrip_cold", |b| {
        b.iter(|| {
            salt += 1;
            let (mut set, target) = job();
            // A parts-per-billion nudge of the 12-core point: the series
            // stays consistent (stalls follow the same law) but its bit
            // pattern is new, so the fit cache can never hit.
            let n = 12.0;
            let time = (50.0 / n + 1.0) * (1.0 + f64::from(salt) * 1e-9);
            set.push(
                Measurement::new(12, time)
                    .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
                    .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
                    .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n),
            );
            let body = wire::predict_request_to_json(&set, &target).render();
            let response = client
                .request("POST", "/v1/predict", &body)
                .expect("bench request");
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    group.finish();
    drop(client);
    handle.shutdown();
}

criterion_group!(serve_benches, bench_http_roundtrip);
criterion_main!(serve_benches);
