//! The traced run's in-process replays: a workload's seeded stream sent
//! through the public functions of each layer (HTTP parse, wire decode,
//! store, fit cache, predictor or planner, wire encode, HTTP render, and
//! the shard ring for `cluster`), plus the probes that measure the WAL, the
//! shard ring and the experiments.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use estima_core::json::Json;
use estima_core::DurabilityOptions;
use estima_core::{EstimaError, MeasurementSet, MeasurementStore, SeriesId, StoreLimits};
use estima_serve::http::{parse_request, ParseStatus, Request, ResponseBuf};
use estima_serve::{wire, ShardRing};

use crate::trace::Tracer;
use crate::workload::{Node, Route, Stream};

/// Counts a replay gathers next to its spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub requests: u64,
    pub items: u64,
    pub mismatches: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub ingests: u64,
    pub version_bumps: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub plans: u64,
    pub cold_plans: u64,
    pub cold_plan_misses: u64,
    pub plan_lookups: u64,
    /// Wall time of each replayed item, in item order.
    pub item_ns: Vec<u64>,
}

fn cache_numbers(nodes: &[Node]) -> (u64, u64, u64, u64) {
    let mut totals = (0, 0, 0, 0);
    for node in nodes {
        let cache = node.session().cache();
        let (hits, misses) = cache.stats();
        totals.0 += hits as u64;
        totals.1 += misses as u64;
        totals.2 += cache.evictions() as u64;
        totals.3 += cache.invalidations() as u64;
    }
    totals
}

/// The shard key the router hashes for a request: the series id, or the
/// stateless body's `app_name` (which takes the router a full parse).
fn shard_key(method: &str, path: &str, body: &str, t: &mut Tracer) -> String {
    if let Some(rest) = path.strip_prefix("/v1/series/") {
        return rest.split('/').next().unwrap_or("").to_string();
    }
    let s = t.begin();
    let parsed = Json::parse(body);
    t.end(s, "router.parse");
    let key = match (method, path) {
        ("POST", "/v1/predict") => parsed.ok().and_then(|b| {
            b.get("measurements")?
                .get("app_name")?
                .as_str()
                .map(str::to_string)
        }),
        _ => parsed
            .ok()
            .and_then(|b| b.get("series")?.as_str().map(str::to_string)),
    };
    key.unwrap_or_default()
}

/// Replay the stream's setup and then its items, in due order, through
/// `nodes` (one node, or three shards behind `ring`). Items stop once
/// `budget_s` of replay time has passed; `max_items` caps them as well.
/// Spans go to `t` under request ids starting at `first_request`.
pub fn replay(
    stream: &Stream,
    nodes: &[Node],
    ring: Option<&ShardRing>,
    t: &mut Tracer,
    first_request: u64,
    budget_s: f64,
    max_items: usize,
) -> Counts {
    let mut counts = Counts::default();
    let mut request = Request::new();
    let mut out = ResponseBuf::new();
    let mut wire_in = String::new();
    let mut wire_out = Vec::new();
    let mut versions: HashMap<String, f64> = HashMap::new();
    let started = Instant::now();
    let mut send = |index: u32,
                    t: &mut Tracer,
                    counts: &mut Counts,
                    versions: &mut HashMap<String, f64>,
                    timed: bool| {
        let req = &stream.pool[index as usize];
        wire_in.clear();
        let _ = write!(
            wire_in,
            "{} {} HTTP/1.1\r\nhost: loopback\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            req.method,
            req.path,
            req.body.len(),
            req.body
        );
        let (misses_before, hits_before) = {
            let c = cache_numbers(nodes);
            (c.1, c.0)
        };
        let s = t.begin();
        let parsed = parse_request(wire_in.as_bytes(), &mut request);
        t.end(s, "http.parse");
        assert!(
            matches!(parsed, Ok(ParseStatus::Complete { .. })),
            "replayed request parses"
        );
        let body = std::str::from_utf8(&request.body).expect("request bodies are UTF-8");
        let shard = match ring {
            Some(ring) => {
                let key = shard_key(&request.method, &request.path, body, t);
                let s = t.begin();
                let shard = ring.shard_for(&key);
                t.end(s, "router.shard_for");
                shard
            }
            None => 0,
        };
        out.reset();
        nodes[shard].handle(&request.method, &request.path, body, t, &mut out);
        wire_out.clear();
        let s = t.begin();
        out.render_into(&mut wire_out, false);
        t.end(s, "http.render");
        if out.status != 200 || out.body != req.expect {
            counts.mismatches += 1;
        }
        if !timed {
            return;
        }
        let c = cache_numbers(nodes);
        counts.requests += 1;
        counts.req_bytes += wire_in.len() as u64;
        counts.resp_bytes += wire_out.len() as u64;
        match req.route {
            Route::Ingest => {
                counts.ingests += 1;
                let answer = Json::parse(&out.body).ok();
                let series = answer
                    .as_ref()
                    .and_then(|a| a.get("series")?.as_str().map(str::to_string));
                let version = answer.as_ref().and_then(|a| a.get("version")?.as_f64());
                if let (Some(series), Some(version)) = (series, version) {
                    if versions.insert(series, version) != Some(version) {
                        counts.version_bumps += 1;
                    }
                }
            }
            Route::Delete => {
                if let Some(series) = request.path.strip_prefix("/v1/series/") {
                    versions.remove(series);
                }
            }
            Route::Plan => {
                counts.plans += 1;
                let misses = c.1 - misses_before;
                counts.plan_lookups += (c.0 - hits_before) + misses;
                if misses > 0 {
                    counts.cold_plans += 1;
                    counts.cold_plan_misses += misses;
                }
            }
            _ => {}
        }
    };
    // Setup is applied untraced: only the timed items are measured.
    for &index in &stream.setup {
        send(
            index,
            &mut Tracer::new(false),
            &mut counts,
            &mut versions,
            false,
        );
    }
    // Seed the version map from the setup state, so only timed ingests
    // that change a series count as bumps.
    for node in nodes {
        for info in node.session().list() {
            if let Some(snapshot) = node.session().snapshot(&info.id) {
                versions.insert(info.id.as_str().to_string(), snapshot.version as f64);
            }
        }
    }
    let after_setup = cache_numbers(nodes);
    for (k, item) in stream.items.iter().enumerate() {
        if k >= max_items || started.elapsed().as_secs_f64() > budget_s {
            break;
        }
        t.set_request(first_request + k as u64);
        let item_start = Instant::now();
        let s = t.begin();
        for &index in &item.reqs {
            send(index, t, &mut counts, &mut versions, true);
        }
        t.end(s, "item");
        counts.item_ns.push(item_start.elapsed().as_nanos() as u64);
        counts.items += 1;
    }
    let after = cache_numbers(nodes);
    counts.hits = after.0 - after_setup.0;
    counts.misses = after.1 - after_setup.1;
    counts.evictions = after.2 - after_setup.2;
    counts.invalidations = after.3 - after_setup.3;
    counts
}

/// WAL probe results.
#[derive(Debug, Default)]
pub struct WalProbe {
    pub append_us: f64,
    pub bytes_per_user_byte: f64,
    pub compactions: f64,
    pub compaction_ms: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    v[v.len() / 2]
}

/// Apply the campaign stream's ingests to a durable store (a log in `dir`,
/// no fsync, like the server under `campaign`) and to an in-memory one,
/// alternating, and time each `ingest_set`. The append cost is the
/// difference of the medians; byte and compaction counts are `WalStats`
/// deltas, and a final explicit compaction gives its duration.
pub fn wal_probe(stream: &Stream, dir: &Path, max_ingests: usize) -> Result<WalProbe, EstimaError> {
    let options = DurabilityOptions::new(dir).with_sync(false);
    let durable = MeasurementStore::open_with_limits(&options, StoreLimits::new())?;
    let memory = MeasurementStore::new();
    let before = durable.wal_stats().unwrap_or_default();
    let (mut durable_ns, mut memory_ns) = (Vec::new(), Vec::new());
    let mut user_bytes = 0u64;
    let ingests = stream
        .setup
        .iter()
        .chain(stream.items.iter().flat_map(|i| i.reqs.iter()))
        .map(|&i| &stream.pool[i as usize])
        .filter(|r| r.route == Route::Ingest || r.route == Route::Delete)
        .take(max_ingests);
    for req in ingests {
        if req.route == Route::Delete {
            let id = SeriesId::new(req.path.trim_start_matches("/v1/series/")).expect("valid id");
            durable.evict(&id)?;
            memory.evict(&id)?;
            continue;
        }
        let decoded = wire::decode_ingest_request(&req.body).expect("valid ingest body");
        let ghz = decoded
            .frequency_ghz
            .expect("workload ingests name their frequency");
        let mut set = MeasurementSet::new(decoded.series.as_str(), ghz);
        for p in decoded.points {
            set.push(p);
        }
        user_bytes += req.body.len() as u64;
        for (store, times) in [(&durable, &mut durable_ns), (&memory, &mut memory_ns)] {
            let start = Instant::now();
            store.ingest_set(&decoded.series, &set)?;
            times.push(start.elapsed().as_nanos() as f64);
        }
    }
    let mid = durable.wal_stats().unwrap_or_default();
    durable.compact()?;
    let after = durable.wal_stats().unwrap_or_default();
    Ok(WalProbe {
        append_us: (median(durable_ns) - median(memory_ns)) / 1e3,
        bytes_per_user_byte: (mid.bytes.saturating_sub(before.bytes)) as f64
            / user_bytes.max(1) as f64,
        compactions: (mid.snapshots - before.snapshots) as f64,
        compaction_ms: after.last_compaction_ms,
    })
}

/// Time the router's key extraction and the shard ring on a stream's
/// requests.
pub fn shard_ring_probe(stream: &Stream, t: &mut Tracer, first_request: u64) {
    let ring = ShardRing::new((0..3).map(|k| format!("127.0.0.1:{}", 7000 + k)).collect());
    for (k, item) in stream.items.iter().take(2000).enumerate() {
        t.set_request(first_request + k as u64);
        for &i in &item.reqs {
            let req = &stream.pool[i as usize];
            let key = shard_key(req.method, &req.path, &req.body, t);
            let s = t.begin();
            std::hint::black_box(ring.shard_for(&key));
            t.end(s, "router.shard_for");
        }
    }
}

/// Experiments probe: every experiment once, in process, timed.
#[derive(Debug, Default)]
pub struct ExperimentsProbe {
    pub table7_ms: f64,
    pub table4_ms: f64,
    pub rest_ms: f64,
    pub cache_hit_rate: f64,
    /// The summary lines, as `reproduce --json` prints them.
    pub summary: Vec<String>,
}

/// Run every experiment through `estima_bench::run`, with one span each.
pub fn experiments_probe(t: &mut Tracer, request: u64) -> ExperimentsProbe {
    let mut probe = ExperimentsProbe::default();
    let (hits0, misses0, _) = estima_bench::harness::shared_fit_cache_stats();
    t.set_request(request);
    for id in estima_bench::all_ids() {
        let start = Instant::now();
        let s = t.begin();
        let report = estima_bench::run(id).expect("every listed experiment runs");
        t.end(s, "experiments.run");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match id {
            "table7" => probe.table7_ms = ms,
            "table4" => probe.table4_ms = ms,
            _ => probe.rest_ms += ms,
        }
        probe.summary.push(report.to_json());
    }
    let (hits1, misses1, _) = estima_bench::harness::shared_fit_cache_stats();
    let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
    probe.cache_hit_rate = hits / (hits + misses).max(1.0);
    probe
}
