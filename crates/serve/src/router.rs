//! Consistent-hash request routing: one stateless router in front of N
//! stateful shard nodes, answering byte-identically to a single node.
//!
//! The [`ShardRing`] maps a series id to its owning shard by rendezvous
//! (highest-random-weight) hashing over the same FNV-1a family the
//! [`FitCache`](estima_core::FitCache) uses for key sharding: every key
//! scores every shard and the highest score owns it. Rendezvous hashing
//! gives the three properties the ring proptests pin — the assignment is a
//! pure function of `(shard set, key)`, total over all keys, and removing
//! one shard remaps *only* the keys that shard owned (every other key's
//! argmax is untouched).
//!
//! Forwarding never blocks a reactor thread. The reactor classifies a
//! request, parks its connection, and hands a `ForwardJob` to a small
//! forwarder pool that drives blocking pooled keep-alive [`Client`]s (with
//! explicit connect/read timeouts, so a dead shard bounds the stall) and
//! posts the response into the owning reactor's `Mailbox` — an eventfd
//! doorbell plus a mutexed completion list — which resumes the parked
//! connection on the reactor thread. Single-shard requests forward the raw
//! body and return the upstream status/body verbatim; `/v1/batch` fans out
//! per-shard sub-batches and re-merges the per-job results in original
//! index order; `GET /v1/series` fans out to every shard and merge-sorts by
//! series id (shard stores are disjoint, so the merged listing reproduces
//! the single node's `BTreeMap` order byte-for-byte). An unreachable shard
//! degrades to a structured `503 shard_unavailable` with a
//! `retry_after_ms` hint — never a hang. See DESIGN.md § *Cluster serving*.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use estima_core::json::{Json, JsonReader};

use crate::client::Client;
use crate::http::{Request, ResponseBuf};
use crate::stats::ServerStats;
use crate::sys;
use crate::wire;

/// Connect deadline for an upstream shard connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Read deadline for an upstream shard response.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// `retry_after_ms` hint carried by a `503 shard_unavailable` response.
const RETRY_AFTER_MS: u64 = 1000;
/// Keep at most this many pooled keep-alive connections per shard.
const POOL_CAP: usize = 8;

/// The consistent-hash ring: shard addresses scored per key by rendezvous
/// hashing. Construction is cheap (no virtual nodes to place); lookup is
/// `O(shards)`, which at router scale (a handful of shards) beats
/// maintaining a sorted vnode ring.
#[derive(Debug, Clone)]
pub struct ShardRing {
    shards: Vec<String>,
}

/// FNV-1a offset basis (the `FitCache` key-sharding constant).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Rendezvous score of `(shard, key)`: one FNV-1a stream over the shard
/// address, a `0xFF` separator (cannot appear in either UTF-8 string's
/// bytes at a boundary ambiguity), then the key, finished through a 64-bit
/// avalanche mixer. The mixer is load-bearing: raw FNV-1a barely diffuses
/// a short key suffix, so without it the shard whose address-prefix hash
/// is largest out-scores the others for almost every key and the "ring"
/// degenerates to one hot shard.
fn rendezvous_score(shard: &str, key: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in shard.as_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash = (hash ^ 0xFF).wrapping_mul(FNV_PRIME);
    for &byte in key.as_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    // MurmurHash3 fmix64: full avalanche, bijective (no score collisions
    // introduced), and fixed constants — assignment stays a pure function
    // of (shard, key) across restarts.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

impl ShardRing {
    /// Build a ring over the given shard addresses.
    ///
    /// # Panics
    /// Panics when `shards` is empty — a router without shards cannot route.
    pub fn new(shards: Vec<String>) -> ShardRing {
        assert!(!shards.is_empty(), "a shard ring needs at least one shard");
        ShardRing { shards }
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `false` always (the constructor rejects empty rings); provided to
    /// satisfy the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Address of shard `index`.
    pub fn addr(&self, index: usize) -> &str {
        &self.shards[index]
    }

    /// The shard owning `key`: the index with the highest rendezvous score
    /// (ties — vanishingly rare at 64 bits — break to the lower index, kept
    /// deterministic so restarts agree). A pure function of the shard set
    /// and the key: no state, no history, stable across restarts.
    pub fn shard_for(&self, key: &str) -> usize {
        let mut best = 0usize;
        let mut best_score = rendezvous_score(&self.shards[0], key);
        for (index, shard) in self.shards.iter().enumerate().skip(1) {
            let score = rendezvous_score(shard, key);
            if score > best_score {
                best = index;
                best_score = score;
            }
        }
        best
    }
}

/// Identity of a parked connection: which reactor owns it, its slab slot,
/// and the slot's generation at park time. The generation guards slot
/// reuse — a completion for a connection that died while its job was in
/// flight must not resume whatever new connection recycled the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnToken {
    /// Index of the owning reactor (selects the mailbox).
    pub(crate) reactor: usize,
    /// Slab slot of the connection on that reactor.
    pub(crate) slot: usize,
    /// Generation of that slot when the connection parked.
    pub(crate) generation: u64,
}

/// A response produced by a forwarder, ready to render downstream.
#[derive(Debug)]
pub(crate) struct ForwardResponse {
    pub(crate) status: u16,
    pub(crate) body: String,
    /// `Retry-After` seconds to re-emit (shard 429s and router 503s).
    pub(crate) retry_after: Option<u64>,
    /// `Allow` header to re-emit (shard 405s), mapped back to the static
    /// strings [`ResponseBuf::allow`] carries.
    pub(crate) allow: Option<&'static str>,
}

/// A completed forward waiting for its reactor to resume the connection.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) token: ConnToken,
    pub(crate) response: ForwardResponse,
}

/// One reactor's completion inbox: a drainable eventfd doorbell plus the
/// pending completions. Forwarder threads deliver; the reactor drains.
#[derive(Debug)]
pub(crate) struct Mailbox {
    wake: sys::EventFd,
    completions: Mutex<Vec<Completion>>,
}

impl Mailbox {
    pub(crate) fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            wake: sys::EventFd::new()?,
            completions: Mutex::new(Vec::new()),
        })
    }

    /// The doorbell fd, for the reactor to register level-triggered.
    pub(crate) fn wake_fd(&self) -> RawFd {
        self.wake.raw_fd()
    }

    /// Deliver one completion and ring the doorbell.
    fn deliver(&self, completion: Completion) {
        if let Ok(mut pending) = self.completions.lock() {
            pending.push(completion);
        }
        let _ = self.wake.signal();
    }

    /// Drain the doorbell and take every pending completion (reactor side).
    pub(crate) fn drain(&self) -> Vec<Completion> {
        self.wake.drain();
        match self.completions.lock() {
            Ok(mut pending) => std::mem::take(&mut *pending),
            Err(_) => Vec::new(),
        }
    }
}

/// One per-job sub-batch of a fanned-out `/v1/batch` request.
#[derive(Debug)]
struct BatchSub {
    shard: usize,
    /// Original job indices, in sub-body order: `results[j]` of the shard
    /// response belongs at `indices[j]` of the merged response.
    indices: Vec<usize>,
    body: String,
}

/// What a forwarder must do for one parked connection.
#[derive(Debug)]
enum JobKind {
    /// Forward verbatim to one shard, answer with its status/body verbatim.
    Single {
        shard: usize,
        method: String,
        path: String,
        body: String,
    },
    /// Fan `/v1/batch` out per shard and merge results in index order.
    Batch { subs: Vec<BatchSub>, total: usize },
    /// Fan `GET /v1/series` to every shard and merge-sort by series id.
    ListSeries,
}

/// A queued forward: the work plus the connection to resume.
#[derive(Debug)]
struct ForwardJob {
    token: ConnToken,
    kind: JobKind,
}

/// Per-shard connection pool plus health counters.
#[derive(Debug)]
struct ShardPool {
    addr_text: String,
    addr: SocketAddr,
    idle: Mutex<Vec<Client>>,
    forwarded: AtomicU64,
    errors: AtomicU64,
    consecutive_failures: AtomicU64,
}

/// Status, body and re-emittable headers of one upstream exchange.
struct Upstream {
    status: u16,
    body: String,
    retry_after: Option<u64>,
    allow: Option<&'static str>,
}

/// Map an upstream `Allow` header back to the static strings the response
/// buffer carries. The service only ever emits these three sets.
fn static_allow(value: &str) -> Option<&'static str> {
    match value {
        "GET" => Some("GET"),
        "POST" => Some("POST"),
        "GET, DELETE" => Some("GET, DELETE"),
        _ => None,
    }
}

impl ShardPool {
    fn new(addr_text: &str) -> io::Result<ShardPool> {
        let addr = addr_text
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other(format!("shard `{addr_text}` resolves to nothing")))?;
        Ok(ShardPool {
            addr_text: addr_text.to_string(),
            addr,
            idle: Mutex::new(Vec::new()),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
        })
    }

    fn checkout(&self) -> Option<Client> {
        self.idle.lock().ok().and_then(|mut pool| pool.pop())
    }

    fn park(&self, client: Client) {
        if let Ok(mut pool) = self.idle.lock() {
            if pool.len() < POOL_CAP {
                pool.push(client);
            }
        }
    }

    /// One upstream round trip with bounded retry: a stale pooled
    /// connection (the shard restarted, the keep-alive died) gets exactly
    /// one fresh-connect retry; a fresh connection that fails is the
    /// shard's problem, reported immediately.
    fn request(&self, method: &str, path: &str, body: &str) -> io::Result<Upstream> {
        if let Some(mut client) = self.checkout() {
            if let Ok(response) = client.request(method, path, body) {
                let upstream = Upstream {
                    status: response.status,
                    body: response.body,
                    retry_after: client.last_retry_after(),
                    allow: client.last_allow().and_then(static_allow),
                };
                self.park(client);
                self.note_success();
                return Ok(upstream);
            }
            // Fall through: reconnect once on a fresh socket.
        }
        let result = (|| {
            let mut client = Client::with_timeouts(self.addr, CONNECT_TIMEOUT, READ_TIMEOUT)?;
            let response = client.request(method, path, body)?;
            let upstream = Upstream {
                status: response.status,
                body: response.body,
                retry_after: client.last_retry_after(),
                allow: client.last_allow().and_then(static_allow),
            };
            self.park(client);
            Ok(upstream)
        })();
        match &result {
            Ok(_) => self.note_success(),
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn note_success(&self) {
        self.forwarded.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.store(0, Ordering::Relaxed);
    }
}

/// Router-wide forwarding counters (the `router` object of `/v1/stats`).
#[derive(Debug, Default)]
struct RouterStats {
    forwarded: AtomicU64,
    fanouts: AtomicU64,
    upstream_errors: AtomicU64,
}

/// The routing tier: ring, per-shard pools, forwarder threads, counters.
#[derive(Debug)]
pub(crate) struct Router {
    ring: ShardRing,
    pools: Arc<Vec<ShardPool>>,
    stats: Arc<RouterStats>,
    sender: Mutex<Option<mpsc::Sender<ForwardJob>>>,
    forwarders: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Resolve the shard addresses, spawn the forwarder pool, and return
    /// the running router. `mailboxes` are the reactors' completion
    /// inboxes, indexed by reactor.
    pub(crate) fn start(shards: &[String], mailboxes: Arc<Vec<Mailbox>>) -> io::Result<Router> {
        let pools: Arc<Vec<ShardPool>> = Arc::new(
            shards
                .iter()
                .map(|addr| ShardPool::new(addr))
                .collect::<io::Result<Vec<_>>>()?,
        );
        let stats = Arc::new(RouterStats::default());
        let (sender, receiver) = mpsc::channel::<ForwardJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        // Enough forwarders that one slow shard cannot serialize the rest:
        // at least one per shard (a fan-out visits them all sequentially)
        // and never fewer than two.
        let forwarder_count = shards.len().max(2);
        let mut forwarders = Vec::with_capacity(forwarder_count);
        for _ in 0..forwarder_count {
            let receiver = Arc::clone(&receiver);
            let pools = Arc::clone(&pools);
            let stats = Arc::clone(&stats);
            let mailboxes = Arc::clone(&mailboxes);
            forwarders.push(std::thread::spawn(move || loop {
                let job = {
                    let Ok(guard) = receiver.lock() else { return };
                    guard.recv()
                };
                let Ok(job) = job else { return };
                let response = execute(&pools, &stats, job.kind);
                if let Some(mailbox) = mailboxes.get(job.token.reactor) {
                    mailbox.deliver(Completion {
                        token: job.token,
                        response,
                    });
                }
            }));
        }
        Ok(Router {
            ring: ShardRing::new(shards.to_vec()),
            pools,
            stats,
            sender: Mutex::new(Some(sender)),
            forwarders: Mutex::new(forwarders),
        })
    }

    /// Stop the forwarder pool: drop the job sender (forwarders exit when
    /// the channel drains) and join the threads. In-flight jobs complete;
    /// their completions land in mailboxes nobody will drain, which is
    /// fine — the reactors are already gone.
    pub(crate) fn shutdown(&self) {
        if let Ok(mut sender) = self.sender.lock() {
            sender.take();
        }
        if let Ok(mut forwarders) = self.forwarders.lock() {
            for handle in forwarders.drain(..) {
                let _ = handle.join();
            }
        }
    }

    /// The `router` object of `/v1/stats`: per-shard health plus the
    /// forwarding counters.
    pub(crate) fn stats_json(&self) -> Json {
        let shards = self
            .pools
            .iter()
            .map(|pool| {
                Json::Object(vec![
                    ("addr".to_string(), Json::String(pool.addr_text.clone())),
                    (
                        "forwarded".to_string(),
                        Json::Number(pool.forwarded.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "errors".to_string(),
                        Json::Number(pool.errors.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "healthy".to_string(),
                        Json::Bool(pool.consecutive_failures.load(Ordering::Relaxed) == 0),
                    ),
                ])
            })
            .collect();
        Json::Object(vec![
            ("shards".to_string(), Json::Array(shards)),
            (
                "forwarded".to_string(),
                Json::Number(self.stats.forwarded.load(Ordering::Relaxed) as f64),
            ),
            (
                "fanouts".to_string(),
                Json::Number(self.stats.fanouts.load(Ordering::Relaxed) as f64),
            ),
            (
                "upstream_errors".to_string(),
                Json::Number(self.stats.upstream_errors.load(Ordering::Relaxed) as f64),
            ),
        ])
    }

    /// Classify one request, mirroring the single-node route match (same
    /// request counters, same error precedence), and either answer locally
    /// into `out` (returning `false`) or enqueue a forward job and ask the
    /// caller to park the connection (returning `true`).
    pub(crate) fn dispatch(
        &self,
        request: &Request,
        stats: &ServerStats,
        token: ConnToken,
        out: &mut ResponseBuf,
    ) -> bool {
        let kind = match self.classify(request, stats, out) {
            Some(kind) => kind,
            None => return false, // answered locally (400-class)
        };
        match kind {
            JobKind::Single { .. } => {
                self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            JobKind::Batch { .. } | JobKind::ListSeries => {
                self.stats.fanouts.fetch_add(1, Ordering::Relaxed);
            }
        }
        let submitted = self
            .sender
            .lock()
            .ok()
            .and_then(|sender| sender.as_ref().map(|s| s.send(ForwardJob { token, kind })))
            .is_some_and(|sent| sent.is_ok());
        if !submitted {
            // Shutting down: the forwarder pool is gone.
            unavailable_into("router", out);
            return false;
        }
        true
    }

    /// Mirror of the single-node `route()` match, arm for arm, so the
    /// per-route request counters and any locally-answered 400 bytes match
    /// a single node exactly. Returns `None` when the request was answered
    /// into `out` without any upstream work.
    fn classify(
        &self,
        request: &Request,
        stats: &ServerStats,
        out: &mut ResponseBuf,
    ) -> Option<JobKind> {
        let path = request.path.split('?').next().unwrap_or("");
        let method = request.method.as_str();
        if let Some(rest) = path.strip_prefix("/v1/series/") {
            return match rest.split_once('/') {
                None => {
                    match method {
                        "GET" => {
                            stats.series_requests.fetch_add(1, Ordering::Relaxed);
                        }
                        "DELETE" => {
                            stats.series_delete_requests.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {}
                    }
                    // Wrong methods forward too: the shard's 405 carries
                    // the same bytes a single node would answer.
                    Some(self.single(rest, request, None))
                }
                Some((id, "predict")) => {
                    if method == "POST" {
                        stats
                            .series_predict_requests
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.forward_with_body(id, request, out)
                }
                Some((id, "plan")) => {
                    if method == "POST" {
                        stats.series_plan_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    self.forward_with_body(id, request, out)
                }
                // Deeper paths 404 identically on every shard.
                Some(_) => Some(self.single("", request, None)),
            };
        }
        match (method, path) {
            ("POST", "/v1/predict") => {
                stats.predict_requests.fetch_add(1, Ordering::Relaxed);
                let text = utf8_body(request, out)?;
                // Stateless predicts route by app name for fit-cache
                // affinity; an undecodable body goes to shard 0, whose
                // decoder produces the identical 400.
                let key = routing_key(text, &["measurements", "app_name"]);
                Some(self.single(&key, request, Some(text.to_string())))
            }
            ("POST", "/v1/batch") => {
                stats.batch_requests.fetch_add(1, Ordering::Relaxed);
                let text = utf8_body(request, out)?;
                Some(self.plan_batch(text, request))
            }
            ("POST", "/v1/measurements") => {
                stats.measurements_requests.fetch_add(1, Ordering::Relaxed);
                let text = utf8_body(request, out)?;
                let key = routing_key(text, &["series"]);
                Some(self.single(&key, request, Some(text.to_string())))
            }
            ("GET", "/v1/series") => {
                stats.series_requests.fetch_add(1, Ordering::Relaxed);
                Some(JobKind::ListSeries)
            }
            // Everything else — unknown paths, wrong methods on known
            // paths — forwards to shard 0, whose router-free code path
            // renders the identical 404/405 bytes.
            _ => Some(self.single("", request, None)),
        }
    }

    /// A single-shard forward of `request` keyed by `key`. `body` overrides
    /// the forwarded body (validated UTF-8); `None` forwards an empty body
    /// (GET/DELETE — their bodies are ignored server-side anyway).
    fn single(&self, key: &str, request: &Request, body: Option<String>) -> JobKind {
        JobKind::Single {
            shard: self.ring.shard_for(key),
            method: request.method.clone(),
            path: request.path.clone(),
            body: body.unwrap_or_default(),
        }
    }

    /// Series routes with bodies (`/v1/series/{id}/predict`): the body must
    /// cross the upstream hop as UTF-8. An invalid-UTF-8 body is answered
    /// locally with the shard's exact precedence: an invalid id still wins
    /// (the shard checks the id before touching the body).
    fn forward_with_body(
        &self,
        id: &str,
        request: &Request,
        out: &mut ResponseBuf,
    ) -> Option<JobKind> {
        match std::str::from_utf8(&request.body) {
            Ok(text) => Some(self.single(id, request, Some(text.to_string()))),
            Err(_) => {
                if let Err(error) = estima_core::SeriesId::new(id) {
                    let (status, code) = wire::estima_error_status(&error);
                    out.status = status;
                    wire::write_error(code, &error.to_string(), &mut out.body);
                } else {
                    out.status = 400;
                    wire::write_error("bad_request", "body is not valid UTF-8", &mut out.body);
                }
                None
            }
        }
    }

    /// Partition a `/v1/batch` body into per-shard sub-batches. A body the
    /// single node would reject goes to shard 0 verbatim so the 400 bytes
    /// come from the same decoder.
    fn plan_batch(&self, text: &str, request: &Request) -> JobKind {
        if wire::decode_batch_request(text).is_err() {
            return self.single("", request, Some(text.to_string()));
        }
        let Ok(body) = Json::parse(text) else {
            return self.single("", request, Some(text.to_string()));
        };
        let Some(jobs) = body.get("jobs").and_then(Json::as_array) else {
            return self.single("", request, Some(text.to_string()));
        };
        let total = jobs.len();
        let mut per_shard: Vec<Vec<(usize, &Json)>> = vec![Vec::new(); self.ring.len()];
        for (index, job) in jobs.iter().enumerate() {
            let key = job
                .get("measurements")
                .and_then(|set| set.get("app_name"))
                .and_then(Json::as_str)
                .unwrap_or_default();
            per_shard[self.ring.shard_for(key)].push((index, job));
        }
        let subs = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, jobs)| !jobs.is_empty())
            .map(|(shard, jobs)| {
                let indices = jobs.iter().map(|(index, _)| *index).collect();
                let body = Json::Object(vec![(
                    "jobs".to_string(),
                    Json::Array(jobs.into_iter().map(|(_, job)| job.clone()).collect()),
                )])
                .render();
                BatchSub {
                    shard,
                    indices,
                    body,
                }
            })
            .collect();
        JobKind::Batch { subs, total }
    }
}

/// Fill `out` with the structured `503 shard_unavailable` degradation
/// response (body hint in milliseconds, `Retry-After` header in seconds).
fn unavailable_into(what: &str, out: &mut ResponseBuf) {
    out.status = 503;
    out.retry_after = Some(RETRY_AFTER_MS.div_ceil(1000).max(1));
    wire::write_retry_error(
        "shard_unavailable",
        &format!("{what} is unavailable; retry shortly"),
        RETRY_AFTER_MS,
        &mut out.body,
    );
}

/// The `503 shard_unavailable` forward response for a dead shard.
fn unavailable(addr: &str) -> ForwardResponse {
    let mut body = String::new();
    wire::write_retry_error(
        "shard_unavailable",
        &format!("shard {addr} is unavailable; retry shortly"),
        RETRY_AFTER_MS,
        &mut body,
    );
    ForwardResponse {
        status: 503,
        body,
        retry_after: Some(RETRY_AFTER_MS.div_ceil(1000).max(1)),
        allow: None,
    }
}

/// A shard answered with bytes the router cannot interpret (a fan-out
/// merge needs to parse them). This is a router-side contract violation,
/// reported as a 500, not a retriable 503.
fn bad_upstream(addr: &str) -> ForwardResponse {
    let mut body = String::new();
    wire::write_error(
        "upstream_protocol_error",
        &format!("shard {addr} answered an unparseable response"),
        &mut body,
    );
    ForwardResponse {
        status: 500,
        body,
        retry_after: None,
        allow: None,
    }
}

/// Run one job on a forwarder thread: blocking upstream exchanges against
/// the pooled shard clients, producing the downstream response.
fn execute(pools: &[ShardPool], stats: &RouterStats, kind: JobKind) -> ForwardResponse {
    match kind {
        JobKind::Single {
            shard,
            method,
            path,
            body,
        } => match pools[shard].request(&method, &path, &body) {
            Ok(upstream) => ForwardResponse {
                status: upstream.status,
                body: upstream.body,
                retry_after: upstream.retry_after,
                allow: upstream.allow,
            },
            Err(_) => {
                stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
                unavailable(&pools[shard].addr_text)
            }
        },
        JobKind::Batch { subs, total } => execute_batch(pools, stats, subs, total),
        JobKind::ListSeries => execute_list(pools, stats),
    }
}

/// Fan a batch out shard by shard (deterministic shard order) and merge the
/// per-job results back into original index order — the router-side mirror
/// of the engine's index-ordered reduction contract. Any unreachable shard
/// fails the whole batch with a 503 (a partial batch would not be
/// byte-identical to anything a single node can say).
fn execute_batch(
    pools: &[ShardPool],
    stats: &RouterStats,
    subs: Vec<BatchSub>,
    total: usize,
) -> ForwardResponse {
    let mut merged: Vec<Option<Json>> = (0..total).map(|_| None).collect();
    for sub in subs {
        let upstream = match pools[sub.shard].request("POST", "/v1/batch", &sub.body) {
            Ok(upstream) => upstream,
            Err(_) => {
                stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
                return unavailable(&pools[sub.shard].addr_text);
            }
        };
        if upstream.status != 200 {
            // A shard rejected its sub-batch (it re-validates what the
            // router already validated, so this is unexpected): propagate
            // the first failure in shard order, deterministically.
            return ForwardResponse {
                status: upstream.status,
                body: upstream.body,
                retry_after: upstream.retry_after,
                allow: upstream.allow,
            };
        }
        let results = Json::parse(&upstream.body)
            .ok()
            .and_then(|body| match body {
                Json::Object(mut fields) => fields
                    .iter_mut()
                    .find(|(key, _)| key == "results")
                    .map(|(_, value)| std::mem::replace(value, Json::Null)),
                _ => None,
            });
        let Some(Json::Array(results)) = results else {
            return bad_upstream(&pools[sub.shard].addr_text);
        };
        if results.len() != sub.indices.len() {
            return bad_upstream(&pools[sub.shard].addr_text);
        }
        for (index, result) in sub.indices.iter().zip(results) {
            merged[*index] = Some(result);
        }
    }
    let results: Vec<Json> = merged
        .into_iter()
        .map(|r| r.unwrap_or(Json::Null))
        .collect();
    ForwardResponse {
        status: 200,
        body: Json::Object(vec![("results".to_string(), Json::Array(results))]).render(),
        retry_after: None,
        allow: None,
    }
}

/// Fan `GET /v1/series` to every shard and merge-sort the entries by id.
/// Shard stores are disjoint (each id owns exactly one shard), so the
/// sorted merge reproduces the single node's `BTreeMap` iteration order —
/// and therefore its exact bytes.
fn execute_list(pools: &[ShardPool], stats: &RouterStats) -> ForwardResponse {
    let mut entries: Vec<(String, Json)> = Vec::new();
    for pool in pools {
        let upstream = match pool.request("GET", "/v1/series", "") {
            Ok(upstream) => upstream,
            Err(_) => {
                stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
                return unavailable(&pool.addr_text);
            }
        };
        if upstream.status != 200 {
            return ForwardResponse {
                status: upstream.status,
                body: upstream.body,
                retry_after: upstream.retry_after,
                allow: upstream.allow,
            };
        }
        let series = Json::parse(&upstream.body)
            .ok()
            .and_then(|body| match body {
                Json::Object(mut fields) => fields
                    .iter_mut()
                    .find(|(key, _)| key == "series")
                    .map(|(_, value)| std::mem::replace(value, Json::Null)),
                _ => None,
            });
        let Some(Json::Array(series)) = series else {
            return bad_upstream(&pool.addr_text);
        };
        for entry in series {
            let id = entry
                .get("series")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            entries.push((id, entry));
        }
    }
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    let count = entries.len();
    let body = Json::Object(vec![
        (
            "series".to_string(),
            Json::Array(entries.into_iter().map(|(_, entry)| entry).collect()),
        ),
        ("count".to_string(), Json::Number(count as f64)),
    ])
    .render();
    ForwardResponse {
        status: 200,
        body,
        retry_after: None,
        allow: None,
    }
}

/// View a request body as UTF-8, answering the single node's exact `400`
/// locally on failure (the raw bytes cannot cross the text-typed upstream
/// hop).
fn utf8_body<'a>(request: &'a Request, out: &mut ResponseBuf) -> Option<&'a str> {
    match std::str::from_utf8(&request.body) {
        Ok(text) => Some(text),
        Err(_) => {
            out.status = 400;
            wire::write_error("bad_request", "body is not valid UTF-8", &mut out.body);
            None
        }
    }
}

/// The routing key of a request body: the string at `path` (object keys
/// from the top), found by a field scan instead of a full [`Json`] tree.
/// The scan still reads the whole document, so it answers exactly what
/// `Json::parse` followed by [`Json::get`] along `path` would: the first
/// occurrence of each key wins, and a decode error or a missing or
/// non-string field gives `""` (shard 0, whose decoder produces the single
/// node's 400 bytes).
fn routing_key(text: &str, path: &[&str]) -> String {
    let mut reader = JsonReader::new(text);
    let mut key = None;
    match scan_for_key(&mut reader, path, &mut key).and_then(|()| reader.finish()) {
        Ok(()) => key.unwrap_or_default(),
        Err(_) => String::new(),
    }
}

/// Read one value whole, setting `found` to the string at `path` below it.
/// Only the first occurrence of a key is descended into; every other value
/// is skipped (which still validates it).
fn scan_for_key(
    reader: &mut JsonReader<'_>,
    path: &[&str],
    found: &mut Option<String>,
) -> Result<(), String> {
    match (path.split_first(), reader.peek()) {
        (None, Some(b'"')) => {
            let mut value = String::new();
            reader.string_value(&mut value)?;
            *found = Some(value);
            Ok(())
        }
        (Some((field, rest)), Some(b'{')) => {
            reader.begin_object()?;
            let (mut first, mut key, mut seen) = (true, String::new(), false);
            while reader.next_key(&mut first, &mut key)? {
                if !seen && key == *field {
                    seen = true;
                    scan_for_key(reader, rest, found)?;
                } else {
                    reader.skip_value()?;
                }
            }
            Ok(())
        }
        _ => reader.skip_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree-walking definition the field scan must reproduce.
    fn tree_key(text: &str, path: &[&str]) -> String {
        Json::parse(text)
            .ok()
            .and_then(|mut value| {
                for field in path {
                    value = value.get(field)?.clone();
                }
                value.as_str().map(str::to_string)
            })
            .unwrap_or_default()
    }

    #[test]
    fn routing_key_scan_matches_the_tree_lookup() {
        let predict = ["measurements", "app_name"];
        let ingest = ["series"];
        let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        let deep_field = format!(
            r#"{{"series":"s","x":{}1{}}}"#,
            "[".repeat(130),
            "]".repeat(130)
        );
        let documents = [
            r#"{"measurements":{"app_name":"a","points":[]},"target":{"cores":4}}"#,
            r#" { "target" : {"cores":4} , "measurements" : { "points" : [1,{"app_name":"x"}], "app_name" : "b\u00e9\"" } } "#,
            r#"{"measurements":{"app_name":"first"},"measurements":{"app_name":"second"}}"#,
            r#"{"measurements":{"app_name":"one","app_name":"two"}}"#,
            r#"{"measurements":{"app_name":7,"app_name":"late"}}"#,
            r#"{"measurements":[],"measurements":{"app_name":"late"}}"#,
            r#"{"measurements":{"app_name":"trailing"}} x"#,
            r#"{"measurements":{"app_name":"unterminated"}"#,
            r#"{"measurements":{"app_name":"bad-number","n":01x}}"#,
            r#"{"series":"s1","points":[{"cores":1}]}"#,
            r#"{"points":[],"series":"s2","series":"s3"}"#,
            r#"{"series":null}"#,
            r#"{"series":{"series":"nested"}}"#,
            r#"["series","s"]"#,
            r#""series""#,
            "",
            "{}",
            "{",
            deep.as_str(),
            deep_field.as_str(),
        ];
        for text in documents {
            for path in [&predict[..], &ingest[..]] {
                assert_eq!(
                    routing_key(text, path),
                    tree_key(text, path),
                    "diverged on {text:?} at {path:?}"
                );
            }
        }
        assert_eq!(routing_key(documents[2], &predict), "first");
        assert_eq!(routing_key(documents[10], &ingest), "s2");
    }

    #[test]
    fn rendezvous_assignment_is_stable_and_total() {
        let ring = ShardRing::new(vec![
            "127.0.0.1:7121".to_string(),
            "127.0.0.1:7122".to_string(),
            "127.0.0.1:7123".to_string(),
        ]);
        for key in ["alpha.app", "beta.app", "", "load-17", "☃.app"] {
            let shard = ring.shard_for(key);
            assert!(shard < ring.len());
            assert_eq!(shard, ring.shard_for(key), "assignment must be stable");
        }
    }

    #[test]
    fn removing_a_shard_remaps_only_its_keys() {
        let shards = vec![
            "10.0.0.1:7117".to_string(),
            "10.0.0.2:7117".to_string(),
            "10.0.0.3:7117".to_string(),
            "10.0.0.4:7117".to_string(),
        ];
        let full = ShardRing::new(shards.clone());
        let removed = 2usize;
        let survivors: Vec<String> = shards
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != removed)
            .map(|(_, s)| s.clone())
            .collect();
        let reduced = ShardRing::new(survivors.clone());
        for i in 0..512 {
            let key = format!("tenant{}.app{}", i % 17, i);
            let before = full.shard_for(&key);
            let after = reduced.shard_for(&key);
            if before != removed {
                assert_eq!(
                    full.addr(before),
                    reduced.addr(after),
                    "key `{key}` moved although its shard survived"
                );
            }
        }
    }

    /// The property the byte-identity cluster test first caught missing:
    /// without the avalanche finisher, FNV-1a's weak diffusion let one
    /// shard's address-prefix hash dominate the argmax for nearly every
    /// key. Similar loopback addresses differing only in the port are the
    /// adversarial case, so pin the balance on exactly that shape.
    #[test]
    fn assignment_spreads_keys_across_similar_addresses() {
        let ring = ShardRing::new(vec![
            "127.0.0.1:7121".to_string(),
            "127.0.0.1:7122".to_string(),
            "127.0.0.1:7123".to_string(),
        ]);
        let mut counts = [0usize; 3];
        for i in 0..512 {
            counts[ring.shard_for(&format!("tenant.app-{i}"))] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            // Fair share is ~171; demand at least a third of it so the
            // test fails on degeneracy, not on honest hash variance.
            assert!(
                *count >= 57,
                "shard {shard} owns only {count}/512 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn allow_header_mapping_covers_the_service_sets() {
        assert_eq!(static_allow("GET, DELETE"), Some("GET, DELETE"));
        assert_eq!(static_allow("POST"), Some("POST"));
        assert_eq!(static_allow("GET"), Some("GET"));
        assert_eq!(static_allow("PATCH"), None);
    }
}
