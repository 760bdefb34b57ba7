//! The version memo over HTTP: a repeat series predict or plan of an
//! unchanged series is copied from the memo on the series' store record,
//! and every answer — memoized or not — must be byte-identical to a fresh,
//! uncached in-process computation on the series' current content. The
//! tests walk every way the content behind an id can change (ingest,
//! delete and re-create, TTL expiry, restart from the write-ahead log) and
//! every way two requests can differ (route, extras, suggestions, target).

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_core::SeriesSnapshot;
use estima_serve::wire;
use estima_serve::{Server, ServerConfig, ServerHandle};
use proptest::prelude::*;

struct Client(estima_serve::Client);

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        Client(estima_serve::Client::connect(handle.addr()).expect("connect to test server"))
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let response = self.0.request(method, path, body).expect("request failed");
        (response.status, response.body)
    }

    /// `(hits, misses)` of `/v1/stats` `cache.memo`.
    fn memo(&mut self) -> (u64, u64) {
        let (status, stats) = self.request("GET", "/v1/stats", "");
        assert_eq!(status, 200);
        let stats = Json::parse(&stats).unwrap();
        let memo = stats.get("cache").unwrap().get("memo").unwrap();
        (
            memo.get("hits").and_then(Json::as_u64).unwrap(),
            memo.get("misses").and_then(Json::as_u64).unwrap(),
        )
    }

    /// Ingest `points` into `series` (creating it at 2.1 GHz), returning
    /// the version the server reports.
    fn ingest(&mut self, series: &str, points: &[Measurement]) -> u64 {
        let id = SeriesId::new(series).unwrap();
        let body = wire::ingest_request_to_json(&id, Some(FREQUENCY_GHZ), points).render();
        let (status, response) = self.request("POST", "/v1/measurements", &body);
        assert_eq!(status, 200, "{response}");
        Json::parse(&response)
            .unwrap()
            .get("version")
            .and_then(Json::as_u64)
            .unwrap()
    }
}

const FREQUENCY_GHZ: f64 = 2.1;

fn spawn(config: ServerConfig) -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 2,
        ..config
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server reactors")
}

/// One run of a contended application; `scale` shifts its stall laws so
/// two scales give two different series contents.
fn point(cores: u32, scale: f64) -> Measurement {
    let n = f64::from(cores);
    let time = 50.0 / n + scale;
    Measurement::new(cores, time)
        .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
        .with_stall(
            StallCategory::backend("ls_full"),
            4.0e8 * n * time * 0.3 * scale,
        )
        .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n * scale)
}

fn points(cores: std::ops::RangeInclusive<u32>, scale: f64) -> Vec<Measurement> {
    cores.map(|cores| point(cores, scale)).collect()
}

/// A series read, as the server sees it after decoding.
#[derive(Debug, Clone, Copy)]
enum Read {
    Predict { confidence: bool, diagnosis: bool },
    Plan { suggestions: usize },
}

impl Read {
    const PLAIN: Read = Read::Predict {
        confidence: false,
        diagnosis: false,
    };

    fn path(self, series: &str) -> String {
        match self {
            Read::Predict { .. } => format!("/v1/series/{series}/predict"),
            Read::Plan { .. } => format!("/v1/series/{series}/plan"),
        }
    }

    /// The canonical request body for this read at `cores`.
    fn body(self, cores: u32) -> String {
        match self {
            Read::Predict {
                confidence,
                diagnosis,
            } => {
                format!(r#"{{"cores":{cores},"confidence":{confidence},"diagnosis":{diagnosis}}}"#)
            }
            Read::Plan { suggestions } => {
                format!(r#"{{"cores":{cores},"suggestions":{suggestions}}}"#)
            }
        }
    }
}

/// The response a correct server gives to `read` of `snapshot` (or of a
/// missing series), computed fresh: a new predictor with no fit cache.
fn expected(
    series: &str,
    snapshot: Option<&SeriesSnapshot>,
    read: Read,
    cores: u32,
) -> (u16, String) {
    let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
    let target = TargetSpec::cores(cores);
    let mut body = String::new();
    let error = |e: EstimaError, body: &mut String| {
        let (status, code) = wire::estima_error_status(&e);
        wire::write_error(code, &e.to_string(), body);
        status
    };
    let Some(snapshot) = snapshot else {
        let missing = EstimaError::SeriesNotFound {
            series: series.to_string(),
        };
        return (error(missing, &mut body), body);
    };
    let status = match read {
        Read::Predict {
            confidence,
            diagnosis,
        } => {
            let result = if confidence {
                Planner::new(&estima)
                    .confidence(&snapshot.set, &target)
                    .map(|(prediction, _)| prediction)
            } else {
                estima.predict(&snapshot.set, &target)
            };
            match result {
                Ok(prediction) => {
                    let report =
                        diagnosis.then(|| BottleneckReport::from_prediction(&prediction, cores));
                    wire::write_prediction_response(&prediction, report.as_ref(), &mut body);
                    200
                }
                Err(e) => error(e, &mut body),
            }
        }
        Read::Plan { suggestions } => {
            match Planner::new(&estima).plan(&snapshot.set, &target, suggestions) {
                Ok(plan) => {
                    wire::write_plan(&plan, &mut body);
                    200
                }
                Err(e) => error(e, &mut body),
            }
        }
    };
    (status, body)
}

/// The in-process twin of the served store: the same ingests and deletes,
/// no fit cache anywhere.
struct Mirror(MeasurementStore);

impl Mirror {
    fn new() -> Mirror {
        Mirror(MeasurementStore::new())
    }

    fn ingest(&self, series: &str, points: &[Measurement]) -> u64 {
        let mut set = MeasurementSet::new(series, FREQUENCY_GHZ);
        for point in points {
            set.push(point.clone());
        }
        self.0
            .ingest_set(&SeriesId::new(series).unwrap(), &set)
            .unwrap()
            .version
    }

    fn expected(&self, series: &str, read: Read, cores: u32) -> (u16, String) {
        let snapshot = self.0.snapshot(&SeriesId::new(series).unwrap());
        expected(series, snapshot.as_ref(), read, cores)
    }
}

/// Send `read` of `series` at `cores` and require the fresh bytes.
fn check(client: &mut Client, mirror: &Mirror, series: &str, read: Read, cores: u32) -> String {
    let served = client.request("POST", &read.path(series), &read.body(cores));
    assert_eq!(
        served,
        mirror.expected(series, read, cores),
        "{read:?} of {series} at {cores} cores served stale or foreign bytes"
    );
    served.1
}

#[test]
fn recreated_series_never_serves_the_old_body() {
    let handle = spawn(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let mirror = Mirror::new();

    // Created empty (version 1), then filled (version 2).
    assert_eq!(client.ingest("x", &[]), 1);
    assert_eq!(client.ingest("x", &points(1..=8, 1.0)), 2);
    mirror.ingest("x", &points(1..=8, 1.0));
    let old = check(&mut client, &mirror, "x", Read::PLAIN, 48);
    let (hits, _) = client.memo();
    check(&mut client, &mirror, "x", Read::PLAIN, 48);
    assert_eq!(client.memo().0, hits + 1, "a repeat read missed the memo");

    // Delete, then re-create the same id through the same versions with
    // different content: a memo keyed by (id, version) would now serve
    // the old body.
    let (status, _) = client.request("DELETE", "/v1/series/x", "");
    assert_eq!(status, 200);
    mirror.0.evict(&SeriesId::new("x").unwrap()).unwrap();
    assert_eq!(client.ingest("x", &[]), 1);
    assert_eq!(client.ingest("x", &points(1..=8, 1.5)), 2);
    mirror.ingest("x", &points(1..=8, 1.5));
    let (_, misses) = client.memo();
    let new = check(&mut client, &mirror, "x", Read::PLAIN, 48);
    assert_ne!(new, old);
    assert_eq!(client.memo().1, misses + 1, "the re-created series hit");

    handle.shutdown();
}

#[test]
fn content_changes_invalidate_and_idempotent_reingests_hit() {
    let handle = spawn(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let mirror = Mirror::new();

    let base = points(1..=8, 1.0);
    let version = client.ingest("y", &base);
    mirror.ingest("y", &base);
    let before = check(&mut client, &mirror, "y", Read::PLAIN, 48);

    // Re-pushing identical content keeps the version and the memo.
    assert_eq!(client.ingest("y", &base), version);
    let (hits, misses) = client.memo();
    check(&mut client, &mirror, "y", Read::PLAIN, 48);
    assert_eq!(client.memo(), (hits + 1, misses));

    // A changed point bumps the version and empties the memo; so does a
    // new one.
    for change in [point(8, 1.2), point(9, 1.0)] {
        assert!(client.ingest("y", std::slice::from_ref(&change)) > version);
        mirror.ingest("y", std::slice::from_ref(&change));
        let (hits, misses) = client.memo();
        let after = check(&mut client, &mirror, "y", Read::PLAIN, 48);
        assert_ne!(after, before);
        assert_eq!(client.memo(), (hits, misses + 1));
    }

    handle.shutdown();
}

#[test]
fn ttl_expiry_then_recreate_serves_the_new_content() {
    let handle = spawn(ServerConfig {
        ttl_secs: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle);
    let mirror = Mirror::new();

    client.ingest("t", &points(1..=8, 1.0));
    mirror.ingest("t", &points(1..=8, 1.0));
    let old = check(&mut client, &mirror, "t", Read::PLAIN, 48);

    // The next ingest sweeps the expired series before it re-creates it.
    std::thread::sleep(std::time::Duration::from_millis(1100));
    mirror.0.evict(&SeriesId::new("t").unwrap()).unwrap();
    assert_eq!(client.ingest("t", &points(1..=8, 1.5)), 2);
    mirror.ingest("t", &points(1..=8, 1.5));
    let (_, misses) = client.memo();
    let new = check(&mut client, &mirror, "t", Read::PLAIN, 48);
    assert_ne!(new, old);
    assert_eq!(client.memo().1, misses + 1);

    handle.shutdown();
}

#[test]
fn restart_from_the_wal_starts_with_an_empty_memo_and_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("estima-version-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || ServerConfig {
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let mirror = Mirror::new();
    mirror.ingest("w", &points(1..=8, 1.0));

    let handle = spawn(durable());
    let mut client = Client::connect(&handle);
    client.ingest("w", &points(1..=8, 1.0));
    let before = check(&mut client, &mirror, "w", Read::PLAIN, 48);
    check(&mut client, &mirror, "w", Read::PLAIN, 48);
    drop(client);
    handle.shutdown();

    let handle = spawn(durable());
    let mut client = Client::connect(&handle);
    assert_eq!(client.memo(), (0, 0));
    let after = check(&mut client, &mirror, "w", Read::PLAIN, 48);
    assert_eq!(after, before);
    check(&mut client, &mirror, "w", Read::PLAIN, 48);
    assert_eq!(client.memo(), (1, 1));
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn predict_and_plan_of_one_body_keep_their_own_bytes() {
    let handle = spawn(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let mirror = Mirror::new();
    client.ingest("p", &points(1..=8, 1.0));
    mirror.ingest("p", &points(1..=8, 1.0));

    let plan = Read::Plan {
        suggestions: estima_core::plan::DEFAULT_SUGGESTIONS,
    };
    let mut first = Vec::new();
    for read in [Read::PLAIN, plan] {
        let (status, body) = client.request("POST", &read.path("p"), r#"{"cores":48}"#);
        assert_eq!((status, body.clone()), mirror.expected("p", read, 48));
        first.push(body);
    }
    assert_ne!(first[0], first[1]);
    let (hits, misses) = client.memo();
    for (read, body) in [Read::PLAIN, plan].into_iter().zip(&first) {
        let (status, served) = client.request("POST", &read.path("p"), r#"{"cores":48}"#);
        assert_eq!(
            (status, &served),
            (200, body),
            "{read:?} served the other route's bytes"
        );
    }
    assert_eq!(client.memo(), (hits + 2, misses));

    handle.shutdown();
}

#[test]
fn extras_keep_their_own_bytes_and_spellings_of_one_request_share_them() {
    let handle = spawn(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let mirror = Mirror::new();
    client.ingest("e", &points(1..=8, 1.0));
    mirror.ingest("e", &points(1..=8, 1.0));

    let variants = [(false, false), (true, false), (false, true), (true, true)].map(
        |(confidence, diagnosis)| Read::Predict {
            confidence,
            diagnosis,
        },
    );
    let bodies: Vec<String> = variants
        .iter()
        .map(|&read| check(&mut client, &mirror, "e", read, 48))
        .collect();
    for (i, a) in bodies.iter().enumerate() {
        for b in &bodies[i + 1..] {
            assert_ne!(a, b, "two different extras served one body");
        }
    }

    // Spellings of the same decoded request hit the entry the canonical
    // body filled, and serve its bytes. Unknown fields are not part of the
    // key, so they cannot grow it either.
    let junk = format!(r#"{{"cores":48,"padding":"{}"}}"#, "x".repeat(64 * 1024));
    let spellings = [
        (0, r#"{"cores":48}"#.to_string()),
        (0, r#" { "cores" : 48.0 } "#.to_string()),
        (
            0,
            r#"{"diagnosis":false,"cores":48,"confidence":false}"#.to_string(),
        ),
        (0, junk),
        (1, r#"{ "confidence" : true , "cores" : 48 }"#.to_string()),
        (
            2,
            "{\n  \"diagnosis\": true,\n  \"cores\": 48\n}".to_string(),
        ),
        (
            3,
            r#"{"diagnosis":true,"confidence":true,"cores":48}"#.to_string(),
        ),
    ];
    let (hits, misses) = client.memo();
    for (variant, body) in &spellings {
        let (status, served) = client.request("POST", "/v1/series/e/predict", body);
        assert_eq!(status, 200);
        assert_eq!(&served, &bodies[*variant], "{body:?} served foreign bytes");
    }
    assert_eq!(client.memo(), (hits + spellings.len() as u64, misses));

    handle.shutdown();
}

#[test]
fn failed_reads_are_not_memoized() {
    let handle = spawn(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let mirror = Mirror::new();
    client.ingest("f", &points(1..=2, 1.0));
    mirror.ingest("f", &points(1..=2, 1.0));

    let (hits, misses) = client.memo();
    for _ in 0..2 {
        let (status, _) = client.request("POST", "/v1/series/f/predict", r#"{"cores":48}"#);
        assert_ne!(status, 200, "two points should be too few to predict from");
        check(&mut client, &mirror, "f", Read::PLAIN, 48);
    }
    assert_eq!(client.memo(), (hits, misses + 4));

    // A missing series answers 404 without touching the memo counters.
    check(&mut client, &mirror, "ghost", Read::PLAIN, 48);
    assert_eq!(client.memo(), (hits, misses + 4));

    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn random_sequences_serve_only_fresh_bytes(ops in proptest::collection::vec(0u64..u64::MAX, 24..32)) {
        let handle = spawn(ServerConfig::default());
        let mut client = Client::connect(&handle);
        let mirror = Mirror::new();
        let reads = [
            Read::PLAIN,
            Read::Predict { confidence: true, diagnosis: false },
            Read::Predict { confidence: false, diagnosis: true },
            Read::Plan { suggestions: 2 },
        ];
        for op in ops {
            let series = ["r0", "r1"][(op % 2) as usize];
            let arg = op >> 8;
            match (op >> 1) % 6 {
                // Create or overwrite with a whole base set.
                0 => {
                    let scale = [1.0, 1.5][(arg % 2) as usize];
                    let sent = points(1..=8, scale);
                    prop_assert_eq!(client.ingest(series, &sent), mirror.ingest(series, &sent));
                }
                // One point: new, changed, or identical to the stored one.
                1 => {
                    let sent = [point(1 + (arg % 10) as u32, [1.0, 1.5][((arg >> 4) % 2) as usize])];
                    prop_assert_eq!(client.ingest(series, &sent), mirror.ingest(series, &sent));
                }
                // Re-ingest the current content unchanged.
                2 => {
                    let id = SeriesId::new(series).unwrap();
                    if let Some(snapshot) = mirror.0.snapshot(&id) {
                        let sent = snapshot.set.measurements().to_vec();
                        prop_assert_eq!(client.ingest(series, &sent), snapshot.version);
                    }
                }
                3 => {
                    let (status, _) = client.request("DELETE", &format!("/v1/series/{series}"), "");
                    let existed = mirror.0.evict(&SeriesId::new(series).unwrap()).unwrap();
                    prop_assert_eq!(status, if existed.is_some() { 200 } else { 404 });
                }
                // Reads, twice as likely as each kind of write.
                _ => {
                    let read = reads[(arg % 4) as usize];
                    let cores = [24, 48][((arg >> 2) % 2) as usize];
                    check(&mut client, &mirror, series, read, cores);
                }
            }
        }
        handle.shutdown();
    }
}
