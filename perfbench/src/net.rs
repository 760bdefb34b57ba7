//! The open-loop load generator, the server processes it drives, and what
//! is read from them: `/v1/stats`, CPU time and peak RSS from `/proc`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use estima_core::json::Json;
use estima_serve::Client;

use crate::workload::{Route, Stream};

/// Lower this thread's timer slack, so a sleep until a request's due time
/// ends within microseconds of it rather than the default 50 µs.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes only
    // the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Keep a CPU busy at the lowest priority until `stop` is set. A
/// SCHED_IDLE thread runs only when nothing else wants the CPU and gives it
/// up at once to any thread that wakes, so the virtual CPU never halts, and
/// a server or generator thread that wakes does not wait milliseconds for
/// the hypervisor to resume it. Without this, those waits dominate every
/// tail percentile on a virtual machine.
fn keep_awake(stop: &AtomicBool) {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` lives across the call, which only reads it; pid 0
    // names the calling thread.
    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
    while idle && !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

/// One running `estima-serve` process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start `estima-serve` with one reactor thread on a free loopback port
    /// and wait for it to print its address.
    pub fn spawn(bin: &Path, extra: &[String]) -> std::io::Result<ServerProc> {
        let mut child = Command::new(bin.join("estima-serve"))
            .args(["--addr", "127.0.0.1:0", "--reactor-threads", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("estima-serve listening on http://")
                .and_then(|rest| rest.trim_end_matches('/').parse().ok())
        });
        match addr {
            Some(addr) => Ok(ServerProc { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "unexpected first line {line:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// On-CPU time of every thread of the process (user plus system), in
    /// nanoseconds, from `/proc/<pid>/task/*/schedstat`.
    pub fn cpu_ns(&self) -> u64 {
        let dir = format!("/proc/{}/task", self.pid());
        let Ok(tasks) = std::fs::read_dir(dir) else {
            return 0;
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Client-side tallies per route plus wire bytes, to be matched exactly
/// against a server's `/v1/stats` counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub predict: u64,
    pub series_predict: u64,
    pub plan: u64,
    pub ingest: u64,
    pub delete: u64,
    pub stats: u64,
    pub healthz: u64,
    pub sent: u64,
    pub received: u64,
}

impl Tally {
    pub fn note(&mut self, route: Route) {
        match route {
            Route::Predict => self.predict += 1,
            Route::SeriesPredict => self.series_predict += 1,
            Route::Plan => self.plan += 1,
            Route::Ingest => self.ingest += 1,
            Route::Delete => self.delete += 1,
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.predict += o.predict;
        self.series_predict += o.series_predict;
        self.plan += o.plan;
        self.ingest += o.ingest;
        self.delete += o.delete;
        self.stats += o.stats;
        self.healthz += o.healthz;
        self.sent += o.sent;
        self.received += o.received;
    }

    pub fn absorb(&mut self, client: &Client) {
        self.sent += client.bytes_sent();
        self.received += client.bytes_received();
    }
}

/// Wait until a freshly spawned server answers `/v1/healthz`.
pub fn wait_ready(addr: SocketAddr, tally: &mut Tally) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut client) = Client::connect(addr) {
            tally.healthz += 1;
            let ok = matches!(client.request("GET", "/v1/healthz", ""), Ok(r) if r.status == 200);
            tally.absorb(&client);
            if ok {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} did not become ready"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Read a number at `path` inside a `/v1/stats` body.
pub fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut node = stats;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return f64::NAN,
        }
    }
    node.as_f64().unwrap_or(f64::NAN)
}

/// `GET /v1/stats`, tallied.
pub fn fetch_stats(client: &mut Client, tally: &mut Tally) -> Result<Json, String> {
    tally.stats += 1;
    let response = client
        .request("GET", "/v1/stats", "")
        .map_err(|e| format!("stats request failed: {e}"))?;
    Json::parse(&response.body).map_err(|e| format!("stats body: {e}"))
}

/// Compare a server's route and byte counters with the client tallies,
/// exactly. The server counts a response when it renders it, which may
/// lead the client by the stats response itself, so a mismatch is retried
/// with a fresh fetch a few times before it counts.
pub fn cross_check(client: &mut Client, tally: &mut Tally) -> (Json, Result<(), String>) {
    let mut last = String::new();
    let mut stats = Json::Null;
    for _ in 0..20 {
        // bytes_out is rendered before the stats response itself counts;
        // bytes_in after the stats request has been read.
        let received_before = tally.received + client.bytes_received();
        stats = match fetch_stats(client, tally) {
            Ok(stats) => stats,
            Err(e) => return (Json::Null, Err(e)),
        };
        let sent_after = tally.sent + client.bytes_sent();
        let checks = [
            (
                "requests.predict",
                stat(&stats, &["requests", "predict"]),
                tally.predict,
            ),
            (
                "requests.series_predict",
                stat(&stats, &["requests", "series_predict"]),
                tally.series_predict,
            ),
            (
                "requests.series_plan",
                stat(&stats, &["requests", "series_plan"]),
                tally.plan,
            ),
            (
                "requests.measurements",
                stat(&stats, &["requests", "measurements"]),
                tally.ingest,
            ),
            (
                "requests.series_delete",
                stat(&stats, &["requests", "series_delete"]),
                tally.delete,
            ),
            (
                "requests.stats",
                stat(&stats, &["requests", "stats"]),
                tally.stats,
            ),
            (
                "requests.healthz",
                stat(&stats, &["requests", "healthz"]),
                tally.healthz,
            ),
            (
                "requests.client_errors",
                stat(&stats, &["requests", "client_errors"]),
                0,
            ),
            (
                "requests.server_errors",
                stat(&stats, &["requests", "server_errors"]),
                0,
            ),
            ("bytes.in", stat(&stats, &["bytes", "in"]), sent_after),
            (
                "bytes.out",
                stat(&stats, &["bytes", "out"]),
                received_before,
            ),
        ];
        match checks
            .iter()
            .find(|(_, server, client)| *server != *client as f64)
        {
            None => return (stats, Ok(())),
            Some((name, server, client)) => {
                last = format!("{name}: server counted {server}, client counted {client}");
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    (stats, Err(last))
}

/// What happened to one scheduled item.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub item: u32,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    /// Still unsent at the cut-off: never attempted.
    pub dropped: bool,
}

/// Result of driving a schedule: one outcome per item, tallies, and the
/// first few failure descriptions.
#[derive(Default)]
pub struct Driven {
    pub outcomes: Vec<Outcome>,
    pub tally: Tally,
    pub requests_ok: u64,
    pub requests_failed: u64,
    pub errors: Vec<String>,
}

/// Send one request and check the answer against the expected bytes.
fn exchange(client: &mut Client, stream: &Stream, index: u32) -> Result<(), String> {
    let req = &stream.pool[index as usize];
    check(req, client.request_into(req.method, &req.path, &req.body))
}

fn check(req: &crate::workload::Req, answer: std::io::Result<(u16, &str)>) -> Result<(), String> {
    match answer {
        Ok((200, body)) if body == req.expect => Ok(()),
        Ok((200, _)) => Err(format!(
            "{} {}: body differs from the in-process reference",
            req.method, req.path
        )),
        Ok((status, body)) => Err(format!(
            "{} {}: status {status}: {body}",
            req.method, req.path
        )),
        Err(e) => Err(format!("{} {}: {e}", req.method, req.path)),
    }
}

/// Send the setup requests in order on one connection.
pub fn send_setup(addr: SocketAddr, stream: &Stream, tally: &mut Tally) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut result = Ok(());
    for &index in &stream.setup {
        tally.note(stream.pool[index as usize].route);
        if let Err(e) = exchange(&mut client, stream, index) {
            result = Err(format!("setup: {e}"));
            break;
        }
    }
    tally.absorb(&client);
    result
}

/// Drive the timed schedule open-loop: one thread per connection sends each
/// of its items when it falls due (or at once, if the connection is still
/// busy with an earlier one) and times it from the due time. The items in
/// `range` are sent, on a clock that starts at the first one's phase; an
/// item still unsent `cutoff_ns` after that start is dropped, so an
/// overloaded phase cannot run on unbounded.
pub fn drive(
    addr: SocketAddr,
    stream: &Stream,
    conns: usize,
    range: Range<usize>,
    cutoff_ns: Option<u64>,
) -> Driven {
    let mut clients: Vec<Option<Client>> = (0..conns).map(|_| Client::connect(addr).ok()).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let stop = AtomicBool::new(false);
    let results: Vec<Driven> = std::thread::scope(|scope| {
        let stop = &stop;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        for _ in 0..cpus {
            scope.spawn(move || keep_awake(stop));
        }
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let range = range.clone();
                scope.spawn(move || {
                    drive_connection(addr, stream, conn, range, cutoff_ns, start, client)
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        results
    });
    let mut driven = Driven::default();
    for part in results {
        driven.outcomes.extend(part.outcomes);
        driven.tally.merge(&part.tally);
        driven.requests_ok += part.requests_ok;
        driven.requests_failed += part.requests_failed;
        driven.errors.extend(part.errors);
    }
    driven.outcomes.sort_by_key(|o| o.item);
    driven.errors.truncate(5);
    driven
}

fn drive_connection(
    addr: SocketAddr,
    stream: &Stream,
    conn: usize,
    range: Range<usize>,
    cutoff_ns: Option<u64>,
    start: Instant,
    client: &mut Option<Client>,
) -> Driven {
    tight_timer_slack();
    let mut outcomes = Vec::new();
    let mut tally = Tally::default();
    let (mut ok_count, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let base_ns = stream
        .items
        .get(range.start)
        .map_or(0, |i| stream.phases[i.phase].start_ns);
    for index in range {
        let item = &stream.items[index];
        if item.conn != conn {
            continue;
        }
        let due = start + Duration::from_nanos(item.due_ns - base_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent_ns = start.elapsed().as_nanos() as u64 + base_ns;
        if cutoff_ns.is_some_and(|cut| sent_ns - base_ns > cut) {
            outcomes.push(Outcome {
                item: index as u32,
                sent_ns,
                done_ns: sent_ns,
                ok: false,
                dropped: true,
            });
            continue;
        }
        let mut ok = true;
        for &r in &item.reqs {
            tally.note(stream.pool[r as usize].route);
            if client.is_none() {
                *client = Client::connect(addr).ok();
            }
            let result = match client.as_mut() {
                Some(c) => exchange(c, stream, r),
                None => Err(format!("cannot connect to {addr}")),
            };
            match result {
                Ok(()) => ok_count += 1,
                Err(e) => {
                    ok = false;
                    failed += 1;
                    if errors.len() < 5 {
                        errors.push(e);
                    }
                    // A transport error leaves the connection unusable.
                    if let Some(dead) = client.take() {
                        tally.absorb(&dead);
                    }
                }
            }
        }
        outcomes.push(Outcome {
            item: index as u32,
            sent_ns,
            done_ns: start.elapsed().as_nanos() as u64 + base_ns,
            ok,
            dropped: false,
        });
    }
    if let Some(c) = client.as_ref() {
        tally.absorb(c);
    }
    Driven {
        outcomes,
        tally,
        requests_ok: ok_count,
        requests_failed: failed,
        errors,
    }
}

/// A fresh, empty directory under the benchmark's work area.
pub fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the work directory is writable");
    dir
}
