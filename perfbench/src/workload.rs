//! The serving workloads' seeded request streams, and the in-process node
//! that computes every expected response while the stream is built and
//! replays a stream layer by layer in the traced run.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use estima_core::json::Json;
use estima_core::store::EstimaSession;
use estima_core::{
    BatchPredictor, DurabilityOptions, EstimaConfig, FitCache, MeasurementSet, MeasurementStore,
    SeriesId, StoreLimits, TargetSpec,
};
use estima_serve::http::ResponseBuf;
use estima_serve::wire;

use crate::gen::{Fnv, Law, Rng, Zipf, FREQUENCY_GHZ};
use crate::trace::Tracer;

/// Core count every predict and plan extrapolates to.
pub const TARGET_CORES: u32 = 48;
/// Series seeded for `hot` (and `cluster`).
pub const HOT_SERIES: usize = 64;
/// Points per `hot` series (cores 1..=12).
const HOT_POINTS: u32 = 12;
/// Points of one `campaign` series (cores 1..=16).
const CAMPAIGN_POINTS: u32 = 16;
/// The first campaign point that is paired with a predict.
const CAMPAIGN_FIRST_PAIR: u32 = 4;
/// Points a planning series starts from (cores 1..=6).
const PLAN_INITIAL: u32 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Predict,
    SeriesPredict,
    Ingest,
    Plan,
    Delete,
}

/// One HTTP request and the body a correct server answers it with (status
/// 200 always: the workloads contain no request that should fail).
#[derive(Debug)]
pub struct Req {
    pub route: Route,
    pub method: &'static str,
    pub path: String,
    pub body: String,
    pub expect: String,
}

/// One scheduled unit of work on one connection: its requests go out back
/// to back from the due time on, and a sampled item's latency runs from its
/// due time to its last response.
#[derive(Debug)]
pub struct Item {
    pub due_ns: u64,
    pub conn: usize,
    pub reqs: Vec<u32>,
    pub sampled: bool,
    pub phase: usize,
}

/// A fixed offered rate (items per second) held over `[start_ns, end_ns)`.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate: f64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A workload's whole input: setup requests (seeding and warm-up, sent in
/// order on one connection), then the timed schedule.
#[derive(Debug)]
pub struct Stream {
    pub pool: Vec<Req>,
    pub setup: Vec<u32>,
    pub items: Vec<Item>,
    pub phases: Vec<Phase>,
}

impl Stream {
    /// FNV-1a over every request in order, with due times and connections.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        let req = |h: &mut Fnv, r: &Req| {
            h.bytes(r.method.as_bytes());
            h.bytes(r.path.as_bytes());
            h.bytes(r.body.as_bytes());
        };
        for &i in &self.setup {
            req(&mut h, &self.pool[i as usize]);
        }
        for item in &self.items {
            h.u64(item.due_ns);
            h.u64(item.conn as u64);
            h.u64(u64::from(item.sampled));
            for &i in &item.reqs {
                req(&mut h, &self.pool[i as usize]);
            }
        }
        h.0
    }

    /// HTTP requests in the timed schedule.
    pub fn timed_requests(&self) -> usize {
        self.items.iter().map(|i| i.reqs.len()).sum()
    }
}

fn target() -> TargetSpec {
    TargetSpec::cores(TARGET_CORES)
}

fn target_body() -> String {
    wire::target_spec_to_json(&target()).render()
}

fn ingest_body(id: &SeriesId, points: &[estima_core::Measurement]) -> String {
    wire::ingest_request_to_json(id, Some(FREQUENCY_GHZ), points).render()
}

/// An in-process node: the same session, cache and store configuration as
/// an `estima-serve` process, and the same handler logic for the routes the
/// workloads use, with a span around every call into a layer.
pub struct Node {
    batch: BatchPredictor,
}

impl Node {
    fn with_store(store: MeasurementStore) -> Node {
        let session = EstimaSession::with_store(
            EstimaConfig::default().with_parallelism(1),
            Arc::new(FitCache::with_capacity(4096)),
            store,
        );
        Node {
            batch: BatchPredictor::with_session(session),
        }
    }

    pub fn in_memory() -> Node {
        Node::with_store(MeasurementStore::new())
    }

    /// A node with a write-ahead log in `dir`, like `--data-dir` without
    /// `--wal-sync`.
    pub fn durable(dir: &Path) -> Node {
        let options = DurabilityOptions::new(dir).with_sync(false);
        let store = MeasurementStore::open_with_limits(&options, StoreLimits::new())
            .expect("a fresh data directory opens");
        Node::with_store(store)
    }

    pub fn session(&self) -> &EstimaSession {
        self.batch.session()
    }

    fn misses(&self) -> usize {
        self.batch.cache().stats().1
    }

    fn error(out: &mut ResponseBuf, status: u16, code: &str, message: &str) {
        out.status = status;
        wire::write_error(code, message, &mut out.body);
    }

    fn store_error(out: &mut ResponseBuf, error: &estima_core::EstimaError) {
        let (status, code) = wire::estima_error_status(error);
        Node::error(out, status, code, &error.to_string());
    }

    /// Answer one request into `out` (which the caller has reset).
    pub fn handle(
        &self,
        method: &str,
        path: &str,
        body: &str,
        t: &mut Tracer,
        out: &mut ResponseBuf,
    ) {
        if let Some(rest) = path.strip_prefix("/v1/series/") {
            let (raw, action) = match rest.split_once('/') {
                Some((raw, action)) => (raw, Some(action)),
                None => (rest, None),
            };
            let id = match SeriesId::new(raw) {
                Ok(id) => id,
                Err(e) => return Node::error(out, 400, "bad_request", &e.to_string()),
            };
            match (method, action) {
                ("POST", Some("predict")) => self.series_predict(&id, body, t, out),
                ("POST", Some("plan")) => self.series_plan(&id, body, t, out),
                ("DELETE", None) => self.series_delete(&id, t, out),
                _ => Node::error(out, 404, "not_found", path),
            }
            return;
        }
        match (method, path) {
            ("POST", "/v1/predict") => self.predict(body, t, out),
            ("POST", "/v1/measurements") => self.ingest(body, t, out),
            _ => Node::error(out, 404, "not_found", path),
        }
    }

    fn predict(&self, body: &str, t: &mut Tracer, out: &mut ResponseBuf) {
        let s = t.begin();
        let decoded = wire::decode_predict_request(body);
        t.end(s, "wire.decode.predict");
        let (set, target) = match decoded {
            Ok(d) => d,
            Err(e) => return Node::error(out, 400, "bad_request", &e.0),
        };
        let misses = self.misses();
        let s = t.begin();
        let result = self.batch.predict(&set, &target);
        let cold = self.misses() != misses;
        t.end(s, if cold { "predict.cold" } else { "predict.warm" });
        match result {
            Ok(prediction) => {
                out.status = 200;
                let s = t.begin();
                wire::write_prediction(&prediction, &mut out.body);
                t.end(s, "wire.encode.prediction");
            }
            Err(e) => Node::error(out, 422, "prediction_failed", &e.to_string()),
        }
    }

    fn series_predict(&self, id: &SeriesId, body: &str, t: &mut Tracer, out: &mut ResponseBuf) {
        let s = t.begin();
        let decoded = wire::decode_series_predict_request(body);
        t.end(s, "wire.decode.series_predict");
        let (target, _extras) = match decoded {
            Ok(d) => d,
            Err(e) => return Node::error(out, 400, "bad_request", &e.0),
        };
        // `session.predict` takes this snapshot again inside; the separate
        // call is what gives the store layer a span of its own.
        let s = t.begin();
        let snapshot = self.session().snapshot(id);
        t.end(s, "store.snapshot");
        drop(snapshot);
        let misses = self.misses();
        let s = t.begin();
        let result = self.session().predict(id, &target);
        let cold = self.misses() != misses;
        t.end(s, if cold { "predict.cold" } else { "predict.warm" });
        match result {
            Ok(prediction) => {
                out.status = 200;
                let s = t.begin();
                wire::write_prediction_response(&prediction, None, &mut out.body);
                t.end(s, "wire.encode.prediction");
            }
            Err(e) => Node::store_error(out, &e),
        }
    }

    fn series_plan(&self, id: &SeriesId, body: &str, t: &mut Tracer, out: &mut ResponseBuf) {
        let s = t.begin();
        let decoded = wire::decode_plan_request(body);
        t.end(s, "wire.decode.plan");
        let (target, suggestions) = match decoded {
            Ok(d) => d,
            Err(e) => return Node::error(out, 400, "bad_request", &e.0),
        };
        let misses = self.misses();
        let s = t.begin();
        let result = self.session().plan(id, &target, suggestions);
        let cold = self.misses() != misses;
        t.end(s, if cold { "plan.cold" } else { "plan.warm" });
        match result {
            Ok(plan) => {
                out.status = 200;
                let s = t.begin();
                wire::write_plan(&plan, &mut out.body);
                t.end(s, "wire.encode.plan");
            }
            Err(e) => Node::store_error(out, &e),
        }
    }

    fn ingest(&self, body: &str, t: &mut Tracer, out: &mut ResponseBuf) {
        let s = t.begin();
        let decoded = wire::decode_ingest_request(body);
        t.end(s, "wire.decode.ingest");
        let ingest = match decoded {
            Ok(d) => d,
            Err(e) => return Node::error(out, 400, "bad_request", &e.0),
        };
        let session = self.session();
        let frequency_ghz = match ingest.frequency_ghz {
            Some(ghz) => ghz,
            None => match session.snapshot(&ingest.series) {
                Some(snapshot) => snapshot.set.frequency_ghz,
                None => return Node::error(out, 404, "series_not_found", "no frequency"),
            },
        };
        let mut incoming = MeasurementSet::new(ingest.series.as_str(), frequency_ghz);
        for point in ingest.points {
            incoming.push(point);
        }
        let s = t.begin();
        let result = session.ingest_set(&ingest.series, &incoming);
        t.end(s, "store.ingest");
        match result {
            Ok(snapshot) => {
                out.status = 200;
                let s = t.begin();
                Json::Object(vec![
                    (
                        "series".to_string(),
                        Json::String(ingest.series.as_str().to_string()),
                    ),
                    ("version".to_string(), Json::Number(snapshot.version as f64)),
                    (
                        "points".to_string(),
                        Json::Number(snapshot.set.len() as f64),
                    ),
                ])
                .render_into(&mut out.body);
                t.end(s, "wire.encode.ingest");
            }
            Err(e) => Node::store_error(out, &e),
        }
    }

    fn series_delete(&self, id: &SeriesId, t: &mut Tracer, out: &mut ResponseBuf) {
        let s = t.begin();
        let result = self.session().evict(id);
        t.end(s, "store.evict");
        match result {
            Ok(Some(snapshot)) => {
                out.status = 200;
                Json::Object(vec![
                    (
                        "deleted".to_string(),
                        Json::String(snapshot.id.as_str().to_string()),
                    ),
                    ("version".to_string(), Json::Number(snapshot.version as f64)),
                    (
                        "points".to_string(),
                        Json::Number(snapshot.set.len() as f64),
                    ),
                ])
                .render_into(&mut out.body);
            }
            Ok(None) => Node::error(out, 404, "series_not_found", id.as_str()),
            Err(e) => Node::store_error(out, &e),
        }
    }
}

/// Builds a stream while a fresh node answers each new request, so every
/// expected body is the in-process answer at that point of the stream.
struct Builder {
    node: Node,
    tracer: Tracer,
    out: ResponseBuf,
    pool: Vec<Req>,
}

impl Builder {
    fn new(node: Node) -> Builder {
        Builder {
            node,
            tracer: Tracer::new(false),
            out: ResponseBuf::new(),
            pool: Vec::new(),
        }
    }

    /// Add a request, applying it to the node. Panics if the in-process
    /// answer is not a 200: the workloads are built to never fail.
    fn req(&mut self, route: Route, method: &'static str, path: String, body: String) -> u32 {
        self.out.reset();
        self.node
            .handle(method, &path, &body, &mut self.tracer, &mut self.out);
        assert_eq!(
            self.out.status, 200,
            "in-process reference failed for {method} {path}: {}",
            self.out.body
        );
        self.pool.push(Req {
            route,
            method,
            path,
            body,
            expect: self.out.body.clone(),
        });
        (self.pool.len() - 1) as u32
    }
}

/// What one connection sends next: requests and whether it is sampled.
type NextItem<'a> = dyn FnMut(&mut Builder, usize) -> (Vec<u32>, bool) + 'a;

/// Lay the phases out back to back: slot `k` of a phase is due at
/// `start + k / rate`, and connections take slots round robin. Returns
/// `(due_ns, connection, phase)` per slot, and the phases.
fn slots(rates: &[(f64, f64)], conns: usize) -> (Vec<(u64, usize, usize)>, Vec<Phase>) {
    let mut slots = Vec::new();
    let mut phases = Vec::new();
    let mut start_ns = 0u64;
    for (p, &(rate, seconds)) in rates.iter().enumerate() {
        let end_ns = start_ns + (seconds * 1e9) as u64;
        for k in 0..(rate * seconds).round() as u64 {
            slots.push((
                start_ns + (k as f64 * 1e9 / rate) as u64,
                slots.len() % conns,
                p,
            ));
        }
        phases.push(Phase {
            rate,
            start_ns,
            end_ns,
        });
        start_ns = end_ns;
    }
    (slots, phases)
}

/// Fill every slot with the item its connection sends next.
fn schedule(
    b: &mut Builder,
    rates: &[(f64, f64)],
    conns: usize,
    next: &mut NextItem<'_>,
) -> (Vec<Item>, Vec<Phase>) {
    let (slots, phases) = slots(rates, conns);
    let items = slots
        .into_iter()
        .map(|(due_ns, conn, phase)| {
            let (reqs, sampled) = next(b, conn);
            Item {
                due_ns,
                conn,
                reqs,
                sampled,
                phase,
            }
        })
        .collect();
    (items, phases)
}

/// `hot` (and `cluster`): 64 seeded series, then 70% series predicts
/// (Zipf s=1), 15% stateless predicts of a full set, 15% idempotent
/// re-ingests. Every answer after warm-up is a fit-cache hit.
pub fn build_hot(seed: u64, rates: &[(f64, f64)], conns: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let mut b = Builder::new(Node::in_memory());
    let laws: Vec<Law> = (0..HOT_SERIES).map(|_| Law::random(&mut rng)).collect();
    let ids: Vec<SeriesId> = (0..HOT_SERIES)
        .map(|k| SeriesId::new(format!("hot-{k}")).expect("valid id"))
        .collect();
    let sets: Vec<MeasurementSet> = laws
        .iter()
        .zip(&ids)
        .map(|(law, id)| law.set(id.as_str(), 1..=HOT_POINTS))
        .collect();
    let mut setup = Vec::new();
    for (id, set) in ids.iter().zip(&sets) {
        let body = ingest_body(id, set.measurements());
        setup.push(b.req(Route::Ingest, "POST", "/v1/measurements".into(), body));
    }
    let mut series_predict = Vec::new();
    let mut stateless = Vec::new();
    for (id, set) in ids.iter().zip(&sets) {
        let path = format!("/v1/series/{id}/predict");
        series_predict.push(b.req(Route::SeriesPredict, "POST", path, target_body()));
        let body = wire::predict_request_to_json(set, &target()).render();
        stateless.push(b.req(Route::Predict, "POST", "/v1/predict".into(), body));
    }
    setup.extend(&series_predict);
    setup.extend(&stateless);
    // Re-ingests are created on first use: the answer never changes, since
    // a bit-identical point bumps no version.
    let mut reingest: HashMap<(usize, u32), u32> = HashMap::new();
    let zipf = Zipf::new(HOT_SERIES, 1.0);
    let mut next = |b: &mut Builder, _conn: usize| {
        let roll = rng.unit();
        let k = zipf.sample(&mut rng);
        let req = if roll < 0.70 {
            series_predict[k]
        } else if roll < 0.85 {
            stateless[k]
        } else {
            let cores = 1 + rng.below(HOT_POINTS as usize) as u32;
            *reingest.entry((k, cores)).or_insert_with(|| {
                let body = ingest_body(&ids[k], &[laws[k].point(cores)]);
                b.req(Route::Ingest, "POST", "/v1/measurements".into(), body)
            })
        };
        (vec![req], true)
    };
    let (items, phases) = schedule(&mut b, rates, conns, &mut next);
    Stream {
        pool: b.pool,
        setup,
        items,
        phases,
    }
}

/// One connection's measurement campaign in progress.
struct Campaign {
    id: SeriesId,
    law: Law,
    next_point: u32,
}

/// `campaign`: each connection ingests a fresh series point by point at
/// 1..=16 cores; from point 4 on each ingest is paired with a predict (a
/// version bump, so a cold fit); a finished series is deleted. Connections
/// own disjoint series, so each connection's part, with its expected
/// answers, is built on a thread of its own and the parts are interleaved.
pub fn build_campaign(seed: u64, rates: &[(f64, f64)], conns: usize) -> Stream {
    let (slots, phases) = slots(rates, conns);
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let count = slots.iter().filter(|s| s.1 == conn).count();
                scope.spawn(move || campaign_part(seed, conn, count))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("builder thread panicked"))
            .collect()
    });
    let mut pool = Vec::new();
    let mut setup = Vec::new();
    let mut queues = Vec::new();
    for part in parts {
        let offset = pool.len() as u32;
        pool.extend(part.pool);
        setup.extend(part.setup.iter().map(|i| i + offset));
        queues.push(
            part.items
                .into_iter()
                .map(|(reqs, sampled)| {
                    (reqs.iter().map(|i| i + offset).collect::<Vec<_>>(), sampled)
                })
                .collect::<std::collections::VecDeque<_>>(),
        );
    }
    let items = slots
        .into_iter()
        .map(|(due_ns, conn, phase)| {
            let (reqs, sampled) = queues[conn].pop_front().expect("one item per slot");
            Item {
                due_ns,
                conn,
                reqs,
                sampled,
                phase,
            }
        })
        .collect();
    Stream {
        pool,
        setup,
        items,
        phases,
    }
}

/// One connection's share of a stream: its requests, its setup, and its
/// items in order.
struct Part {
    pool: Vec<Req>,
    setup: Vec<u32>,
    items: Vec<(Vec<u32>, bool)>,
}

/// One connection's campaigns: a whole warm-up campaign for setup, then
/// `count` items.
fn campaign_part(seed: u64, conn: usize, count: usize) -> Part {
    let mut rng = Rng::new(seed ^ (conn as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut b = Builder::new(Node::in_memory());
    let mut serial = 0usize;
    let mut fresh = |rng: &mut Rng, prefix: &str| {
        serial += 1;
        Campaign {
            id: SeriesId::new(format!("{prefix}-{conn}-{serial}")).expect("valid id"),
            law: Law::random(rng),
            next_point: 1,
        }
    };
    let mut setup = Vec::new();
    let mut warm = fresh(&mut rng, "warm");
    while let Some((reqs, _)) = campaign_step(&mut b, &mut warm) {
        setup.extend(reqs);
    }
    let mut current = fresh(&mut rng, "camp");
    let mut items = Vec::with_capacity(count);
    while items.len() < count {
        match campaign_step(&mut b, &mut current) {
            Some(item) => items.push(item),
            None => current = fresh(&mut rng, "camp"),
        }
    }
    Part {
        pool: b.pool,
        setup,
        items,
    }
}

/// One step of a campaign; `None` once the series has been deleted.
fn campaign_step(b: &mut Builder, c: &mut Campaign) -> Option<(Vec<u32>, bool)> {
    if c.next_point > CAMPAIGN_POINTS {
        if c.next_point > CAMPAIGN_POINTS + 1 {
            return None;
        }
        c.next_point += 1;
        let path = format!("/v1/series/{}", c.id);
        return Some((
            vec![b.req(Route::Delete, "DELETE", path, String::new())],
            false,
        ));
    }
    let cores = c.next_point;
    c.next_point += 1;
    let body = ingest_body(&c.id, &[c.law.point(cores)]);
    let ingest = b.req(Route::Ingest, "POST", "/v1/measurements".into(), body);
    if cores < CAMPAIGN_FIRST_PAIR {
        return Some((vec![ingest], false));
    }
    let path = format!("/v1/series/{}/predict", c.id);
    let predict = b.req(Route::SeriesPredict, "POST", path, target_body());
    Some((vec![ingest, predict], true))
}

/// The planning loop, replayed in process by the traced run: per
/// connection a series seeded at 1..=6 cores; three of every four steps
/// re-poll its plan unchanged (warm), the fourth ingests the next core
/// count from the series' law and plans again (cold).
pub fn build_plan(seed: u64, rates: &[(f64, f64)], conns: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let mut b = Builder::new(Node::in_memory());
    let plan = |b: &mut Builder, id: &SeriesId| {
        let path = format!("/v1/series/{id}/plan");
        b.req(Route::Plan, "POST", path, target_body())
    };
    let mut setup = Vec::new();
    // Per connection: series, law, next core count, steps taken, last plan.
    let mut series = Vec::new();
    for conn in 0..conns {
        let id = SeriesId::new(format!("plan-{conn}")).expect("valid id");
        let law = Law::random(&mut rng);
        let body = ingest_body(&id, law.set(id.as_str(), 1..=PLAN_INITIAL).measurements());
        setup.push(b.req(Route::Ingest, "POST", "/v1/measurements".into(), body));
        let last = plan(&mut b, &id);
        setup.push(last);
        series.push((id, law, PLAN_INITIAL + 1, 0usize, last));
    }
    let mut next = |b: &mut Builder, conn: usize| {
        let (id, law, cores, step, last) = &mut series[conn];
        *step += 1;
        if !step.is_multiple_of(4) {
            return (vec![*last], true);
        }
        let body = ingest_body(id, &[law.point(*cores)]);
        *cores += 1;
        let ingest = b.req(Route::Ingest, "POST", "/v1/measurements".into(), body);
        *last = plan(b, id);
        (vec![ingest, *last], true)
    };
    let (items, phases) = schedule(&mut b, rates, conns, &mut next);
    Stream {
        pool: b.pool,
        setup,
        items,
        phases,
    }
}
