//! Open-loop benchmark of `estima-serve` and `reproduce`.
//!
//! ```text
//! perfbench --bin-dir DIR --workload hot|campaign|plan|cluster|reproduce
//!           --seed N --seconds N --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against real server
//! processes (one reactor thread each) or `reproduce` passes; `--trace 1`
//! replays the same seeded stream in process, layer by layer, and reports
//! the per-layer metrics. Human-readable lines come first; the last line of
//! stdout is the result JSON. See README.md in this directory for every
//! workload and metric.

mod gen;
mod net;
mod replay;
mod selftest;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use estima_core::json::Json;
use estima_serve::{Client, ShardRing};

use net::{ServerProc, Tally};
use stats::{median, percentile, phase_latencies, windowed_p99};
use trace::Tracer;
use workload::{Node, Stream};

/// How many times setup is repeated per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Share of `--seconds` spent at the nominal rate; the ladder shares the
/// rest evenly.
const NOMINAL_SHARE: f64 = 0.6;

/// A serving workload's fixed offered rates (items per second) and the
/// p99 limit that `sustained_rps` is judged by. These are constants of the
/// benchmark: they are never derived from a run.
struct Serving {
    name: &'static str,
    nominal: f64,
    ladder: &'static [f64],
    limit_ms: f64,
}

const HOT: Serving = Serving {
    name: "hot",
    nominal: 2000.0,
    ladder: &[4000.0, 6000.0, 16000.0],
    limit_ms: 25.0,
};
const CAMPAIGN: Serving = Serving {
    name: "campaign",
    nominal: 100.0,
    ladder: &[200.0, 300.0, 1000.0],
    limit_ms: 100.0,
};
const CLUSTER: Serving = Serving {
    name: "cluster",
    nominal: 2000.0,
    ladder: &[3000.0, 4000.0, 16000.0],
    limit_ms: 25.0,
};
/// The planning loop is replayed in process by every traced run, at this
/// rate (items per second) for this long.
const PLAN_PROBE: (f64, f64) = (6.0, 1.5);
/// The router hop is measured with the `hot` mix at this rate, against one
/// node and against the cluster.
const HOP_RATE: f64 = 500.0;
const HOP_SECONDS: f64 = 1.5;

struct Args {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --bin-dir DIR --workload hot|campaign|plan|cluster|reproduce \
         --seed N --seconds N --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        bin: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--bin-dir" => args.bin = PathBuf::from(value),
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if args.seconds <= 0.0 || args.bin.as_os_str().is_empty() {
        usage();
    }
    // Absolute, since `reproduce` runs in a directory of its own.
    args.bin = std::fs::canonicalize(&args.bin).unwrap_or_else(|e| {
        eprintln!("error: --bin-dir {}: {e}", args.bin.display());
        std::process::exit(1);
    });
    args
}

/// Metrics by name, with units, in output order. Only the ones listed in
/// `BENCHMARK.json` go into the result line; the others are printed.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

/// Printed and recorded, but not in the result line: the tail of a
/// sub-millisecond request on a shared virtual machine spreads far beyond
/// any bound a regression gate could use (see README.md).
const PRINTED_ONLY: [&str; 1] = ["p99_ms"];

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics as a JSON object: all of them, or only the listed ones.
    fn json(&self, all: bool) -> String {
        let mut out = String::from("{");
        let listed = self
            .0
            .iter()
            .filter(|(name, _, _)| all || !PRINTED_ONLY.contains(name));
        for (i, (name, value, unit)) in listed.enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push('}');
        out
    }

    fn print(&self, workload: &str) {
        for (name, value, unit) in &self.0 {
            println!("{workload}: {name} = {value:.6} {unit}");
        }
    }
}

/// The machine and build a result was measured on.
fn environment(args: &Args) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = command("git", &["rev-parse", "HEAD"]).unwrap_or_else(source_hash);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}, \"seconds\": {}}}",
        Json::String(cpu).render(),
        Json::String(read("/proc/sys/kernel/osrelease").trim().to_string()).render(),
        Json::String(command("rustc", &["--version"]).unwrap_or_default()).render(),
        Json::String(commit).render(),
        args.seed,
        args.seconds
    )
}

/// Outside a git checkout: a hash of the sources the binaries build from.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = gen::Fnv::default();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    format!("source-{:016x}", h.0)
}

/// The processes serving one workload: the last one takes the requests
/// (the node, or the router in front of the shards).
struct Topology {
    procs: Vec<ServerProc>,
    /// Tallies of everything sent to the front process.
    tally: Tally,
}

impl Topology {
    fn front(&self) -> &ServerProc {
        self.procs.last().expect("a topology has a front process")
    }

    fn cpu_ns(&self) -> u64 {
        self.procs.iter().map(ServerProc::cpu_ns).sum()
    }

    fn peak_rss_mib(&self) -> f64 {
        self.procs.iter().map(ServerProc::peak_rss_kib).sum::<u64>() as f64 / 1024.0
    }
}

/// Spawn the workload's processes, wait until each answers, and send the
/// stream's setup requests.
fn start(bin: &Path, workload: &str, stream: &Stream, work: &Path) -> Result<Topology, String> {
    let spawn = |extra: &[String]| {
        ServerProc::spawn(bin, extra).map_err(|e| format!("spawn estima-serve: {e}"))
    };
    let mut procs = Vec::new();
    match workload {
        "cluster" => {
            for _ in 0..3 {
                procs.push(spawn(&[])?);
            }
            let mut extra = vec!["--mode".to_string(), "router".to_string()];
            for shard in &procs {
                extra.push("--shard".to_string());
                extra.push(shard.addr.to_string());
            }
            procs.push(spawn(&extra)?);
        }
        "campaign" => {
            let dir = net::fresh_dir(work, "campaign-data");
            procs.push(spawn(&[
                "--data-dir".to_string(),
                dir.display().to_string(),
            ])?);
        }
        _ => procs.push(spawn(&[])?),
    }
    let mut tally = Tally::default();
    let last = procs.len() - 1;
    for (i, p) in procs.iter().enumerate() {
        let mut scratch = Tally::default();
        net::wait_ready(p.addr, if i == last { &mut tally } else { &mut scratch })?;
    }
    let front = procs[last].addr;
    net::send_setup(front, stream, &mut tally)?;
    Ok(Topology { procs, tally })
}

/// One measured pass of a stream against a started topology.
struct Measured {
    driven: net::Driven,
    cpu_ns: u64,
    /// `/v1/stats` of every process, front last, before and after.
    before: Vec<Json>,
    after: Vec<Json>,
    check: Result<(), String>,
}

/// `/v1/stats` of the processes behind the front (a router's shards), which
/// are read but not cross-checked.
fn back_stats(topo: &Topology) -> Result<Vec<Json>, String> {
    let back = &topo.procs[..topo.procs.len() - 1];
    back.iter()
        .map(|p| {
            let mut client = Client::connect(p.addr).map_err(|e| e.to_string())?;
            net::fetch_stats(&mut client, &mut Tally::default())
        })
        .collect()
}

/// Drive the items of `phases` (a range of phase indices) against a
/// started topology, with CPU and `/v1/stats` read around it and the exact
/// cross-check after it.
fn measure(
    topo: &mut Topology,
    stream: &Stream,
    conns: usize,
    phases: Range<usize>,
    limit_ms: f64,
) -> Result<Measured, String> {
    let front = topo.front().addr;
    let mut stats_client = Client::connect(front).map_err(|e| e.to_string())?;
    let mut before = back_stats(topo)?;
    before.push(net::fetch_stats(&mut stats_client, &mut topo.tally)?);
    let cpu0 = topo.cpu_ns();
    let span_ns = stream.phases[phases.end - 1].end_ns - stream.phases[phases.start].start_ns;
    let cutoff = span_ns + (limit_ms * 1e6) as u64 + 1_000_000_000;
    let first = stream.items.partition_point(|i| i.phase < phases.start);
    let last = stream.items.partition_point(|i| i.phase < phases.end);
    let driven = net::drive(front, stream, conns, first..last, Some(cutoff));
    let cpu_ns = topo.cpu_ns() - cpu0;
    topo.tally.merge(&driven.tally);
    let (front_after, check) = net::cross_check(&mut stats_client, &mut topo.tally);
    topo.tally.absorb(&stats_client);
    // The front's counters are checked exactly, so its last stats answer
    // is reused.
    let mut after = back_stats(topo)?;
    after.push(front_after);
    Ok(Measured {
        driven,
        cpu_ns,
        before,
        after,
        check,
    })
}

fn serving(name: &str) -> Option<&'static Serving> {
    [&HOT, &CAMPAIGN, &CLUSTER]
        .into_iter()
        .find(|s| s.name == name)
}

/// The workload's stream with its expected answers. The log behind a
/// durable store changes no answer, so references come from memory.
fn build(w: &Serving, seed: u64, rates: &[(f64, f64)], conns: usize) -> Stream {
    match w.name {
        "campaign" => workload::build_campaign(seed, rates, conns),
        _ => workload::build_hot(seed, rates, conns),
    }
}

/// The nominal phase, which each of the `SETUPS` process sets runs, then
/// the ladder, which the last set runs: together `seconds`.
fn phases(w: &Serving, seconds: f64) -> Vec<(f64, f64)> {
    let mut rates = vec![(w.nominal, seconds * NOMINAL_SHARE / SETUPS as f64)];
    let step = seconds * (1.0 - NOMINAL_SHARE) / w.ladder.len() as f64;
    rates.extend(w.ladder.iter().map(|&r| (r, step)));
    rates
}

/// The outcome every run reports besides its metrics.
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn run_serving(
    args: &Args,
    w: &Serving,
    conns: usize,
    work: &Path,
    record: &mut String,
) -> (Metrics, Verdict) {
    let rates = phases(w, args.seconds);
    let built = Instant::now();
    let stream = build(w, args.seed, &rates, conns);
    println!(
        "{}: stream {:016x}: {} setup + {} timed requests, references built in {:.2}s",
        w.name,
        stream.hash(),
        stream.setup.len(),
        stream.timed_requests(),
        built.elapsed().as_secs_f64()
    );
    // Each set of processes is set up and measured at the nominal rate;
    // the last one then climbs the ladder. Medians over the sets.
    let mut setups = Vec::new();
    let (mut p50s, mut p99s, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut runs: Vec<net::Driven> = Vec::new();
    let mut late = Vec::new();
    let mut verdict = Verdict {
        correct: true,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    for set in 0..SETUPS {
        let t = Instant::now();
        let mut topo = match start(&args.bin, w.name, &stream, work) {
            Ok(topo) => topo,
            Err(e) => return (Metrics::default(), failed_verdict(e)),
        };
        setups.push(t.elapsed().as_secs_f64());
        verdict.attempted += stream.setup.len() as u64;
        let ladder = (set + 1 == SETUPS).then_some(1..stream.phases.len());
        for part in std::iter::once(0..1).chain(ladder) {
            let m = match measure(&mut topo, &stream, conns, part.clone(), w.limit_ms) {
                Ok(m) => m,
                Err(e) => return (Metrics::default(), failed_verdict(e)),
            };
            let d = &m.driven;
            let requests = d.requests_ok + d.requests_failed;
            verdict.attempted += requests;
            verdict.failed += d.requests_failed;
            verdict.notes.extend(d.errors.iter().cloned());
            if let Err(e) = &m.check {
                verdict.correct = false;
                verdict.notes.push(format!("stats cross-check: {e}"));
            }
            if part.start == 0 {
                let (lat, late_0) = phase_latencies(&stream, &d.outcomes, 0);
                p50s.push(percentile(&lat, 0.5));
                p99s.push(windowed_p99(&stream, &d.outcomes, 0).0);
                cpus.push(m.cpu_ns as f64 / 1e3 / requests.max(1) as f64);
                late.extend(late_0);
                println!(
                    "{}: set {set}: nominal {} items/s: p50 {:.4} ms, p99 {:.4} ms over {} samples, {:.2} us CPU per request",
                    w.name,
                    w.nominal,
                    p50s[set],
                    p99s[set],
                    lat.len(),
                    cpus[set]
                );
            }
            runs.push(m.driven);
        }
        rss.push(topo.peak_rss_mib());
    }
    verdict.correct &= verdict.failed == 0;
    if verdict.correct {
        println!(
            "{}: every answer matched its reference; /v1/stats counts matched the client exactly",
            w.name
        );
    }
    let outcomes: Vec<net::Outcome> = runs[SETUPS - 1..]
        .iter()
        .flat_map(|d| d.outcomes.iter().copied())
        .collect();
    let mut sustained = 0.0;
    let _ = write!(record, "\"phases\": [");
    for (p, phase) in stream.phases.iter().enumerate() {
        let (lat_p, late_p) = phase_latencies(&stream, &outcomes, p);
        let (mut sent, mut ok, mut failed, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        let mut last_done = phase.start_ns;
        for o in outcomes
            .iter()
            .filter(|o| stream.items[o.item as usize].phase == p)
        {
            let n = stream.items[o.item as usize].reqs.len() as u64;
            if o.dropped {
                dropped += n;
            } else {
                sent += n;
                last_done = last_done.max(o.done_ns);
                if o.ok {
                    ok += n
                } else {
                    failed += 1
                }
            }
        }
        let (p99, windows) = windowed_p99(&stream, &outcomes, p);
        let pass = failed == 0 && dropped == 0 && p99 <= w.limit_ms;
        if pass {
            // Completed requests over the time from the phase's start to
            // its last answer: the rate actually served.
            sustained = ok as f64 / ((last_done - phase.start_ns) as f64 / 1e9);
        }
        println!(
            "{}: phase {p}: offered {:.0} items/s, sent {sent} ok {ok} failed {failed} dropped {dropped}, \
             p50 {:.3} ms p99 {:.3} ms (median of {windows} windows; whole phase {:.3} ms, n={}), late p99 {:.3} ms, {}",
            w.name,
            phase.rate,
            percentile(&lat_p, 0.5),
            p99,
            percentile(&lat_p, 0.99),
            lat_p.len(),
            percentile(&late_p, 0.99),
            if pass { "meets the limit" } else { "misses the limit" }
        );
        let _ = write!(
            record,
            "{}{{\"offered_per_s\": {}, \"seconds\": {}, \"sent\": {sent}, \"succeeded\": {ok}, \"failed\": {failed}, \"dropped\": {dropped}, \"p50_ms\": {}, \"p99_ms\": {}}}",
            if p == 0 { "" } else { ", " },
            phase.rate,
            (phase.end_ns - phase.start_ns) as f64 / 1e9,
            finite(percentile(&lat_p, 0.5)),
            finite(p99)
        );
    }
    let _ = write!(record, "], ");
    late.sort_by(f64::total_cmp);
    println!(
        "{}: failed_share = {:.6} ({} of {} requests); generator late p99 {:.3} ms at nominal",
        w.name,
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted,
        percentile(&late, 0.99)
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("p50_ms", median(&p50s), "ms");
    metrics.put("p99_ms", median(&p99s), "ms");
    metrics.put("sustained_rps", sustained, "1/s");
    metrics.put("cpu_us_per_req", median(&cpus), "us");
    metrics.put("rss_mib", median(&rss), "MiB");
    (metrics, verdict)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}

fn failed_verdict(e: String) -> Verdict {
    Verdict {
        correct: false,
        attempted: 1,
        failed: 1,
        notes: vec![e],
    }
}

/// Children's CPU time and peak RSS, from `getrusage(RUSAGE_CHILDREN)`.
fn children_usage() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly aligned, writable struct with the
    // layout of `struct rusage` on 64-bit Linux, which getrusage fills.
    unsafe {
        getrusage(RUSAGE_CHILDREN, &mut usage);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    (
        secs(&usage.utime) + secs(&usage.stime),
        usage.maxrss as f64 / 1024.0,
    )
}

/// One `reproduce --json all` pass, checked by `check_metrics` at 1e-9
/// against the in-process reference. Returns wall seconds, CPU seconds and
/// whether the check passed.
fn reproduce_pass(bin: &Path, dir: &Path, reference: &Path) -> (f64, f64, bool) {
    let (cpu0, _) = children_usage();
    let t = Instant::now();
    let status = Command::new(bin.join("reproduce"))
        .args(["--json", "all"])
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let wall = t.elapsed().as_secs_f64();
    let (cpu1, _) = children_usage();
    let summary = dir.join("target/experiments/summary.json");
    let checked = status.is_ok_and(|s| s.success())
        && Command::new(bin.join("check_metrics"))
            .arg(&summary)
            .arg(reference)
            .arg("1e-9")
            .stdout(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
    let _ = std::fs::remove_file(&summary);
    (wall, cpu1 - cpu0, checked)
}

/// The in-process reference summary, written where `check_metrics` reads it.
fn reproduce_reference(work: &Path, t: &mut Tracer) -> (PathBuf, replay::ExperimentsProbe) {
    let probe = replay::experiments_probe(t, 0);
    let path = work.join("reference-summary.json");
    std::fs::write(&path, format!("[{}]\n", probe.summary.join(",\n")))
        .expect("work directory is writable");
    (path, probe)
}

fn run_reproduce(args: &Args, work: &Path, record: &mut String) -> (Metrics, Verdict) {
    let (reference, _) = reproduce_reference(work, &mut Tracer::new(false));
    let dir = net::fresh_dir(work, "reproduce");
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (wall, _, ok) = reproduce_pass(&args.bin, &dir, &reference);
        setups.push(wall);
        attempted += 1;
        failed += u64::from(!ok);
    }
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while failed == 0 && (walls.len() < 3 || started.elapsed().as_secs_f64() < args.seconds) {
        let (wall, cpu, ok) = reproduce_pass(&args.bin, &dir, &reference);
        walls.push(wall);
        cpus.push(cpu);
        attempted += 1;
        failed += u64::from(!ok);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (_, rss) = children_usage();
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "reproduce: {} timed passes in {elapsed:.2}s, each checked by check_metrics at 1e-9: {} failed",
        walls.len(),
        failed
    );
    println!("reproduce: pass_s = {:.6} s", median(&walls));
    println!("reproduce: pass_cpu_s = {:.6} s", median(&cpus));
    println!(
        "reproduce: failed_share = {:.6}",
        failed as f64 / attempted as f64
    );
    let _ = write!(
        record,
        "\"phases\": [{{\"passes\": {}, \"succeeded\": {}, \"failed\": {failed}}}], ",
        walls.len(),
        attempted - failed
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("p50_ms", percentile(&sorted, 0.5) * 1e3, "ms");
    metrics.put("p99_ms", percentile(&sorted, 0.99) * 1e3, "ms");
    metrics.put("sustained_rps", walls.len() as f64 / elapsed, "1/s");
    metrics.put("cpu_us_per_req", median(&cpus) * 1e6, "us");
    metrics.put("rss_mib", rss, "MiB");
    let verdict = Verdict {
        correct: failed == 0,
        attempted,
        failed,
        notes: Vec::new(),
    };
    (metrics, verdict)
}

/// Network-side numbers the traced run takes from an untraced pass.
struct Untraced {
    p50_ms: f64,
    wakeups_per_req: f64,
    handler_p50_us: f64,
    late_p99_ms: f64,
    sent: u64,
    succeeded: u64,
    failed: u64,
    router: Option<(f64, f64, f64)>,
}

fn untraced_pass(
    bin: &Path,
    workload: &str,
    stream: &Stream,
    conns: usize,
    work: &Path,
) -> Result<Untraced, String> {
    let mut topo = start(bin, workload, stream, work)?;
    let m = measure(&mut topo, stream, conns, 0..stream.phases.len(), 1000.0)?;
    m.check.clone()?;
    let d = &m.driven;
    let (lat, late) = phase_latencies(stream, &d.outcomes, 0);
    let requests = (d.requests_ok + d.requests_failed).max(1) as f64;
    let wakeups = |stats: &[Json]| -> f64 {
        stats
            .iter()
            .map(|s| net::stat(s, &["reactor", "epoll_wakeups"]))
            .sum()
    };
    let handler: Vec<f64> = m
        .after
        .iter()
        .map(|s| net::stat(s, &["latency_us", "p50"]))
        .filter(|v| v.is_finite())
        .collect();
    let router = (workload == "cluster").then(|| {
        let after = m.after.last().expect("front stats");
        let before = m.before.last().expect("front stats");
        let forwarded = net::stat(after, &["router", "forwarded"])
            - net::stat(before, &["router", "forwarded"]);
        let errors = net::stat(after, &["router", "upstream_errors"])
            - net::stat(before, &["router", "upstream_errors"]);
        let per_shard: Vec<f64> = match (
            after.get("router").and_then(|r| r.get("shards")),
            before.get("router").and_then(|r| r.get("shards")),
        ) {
            (Some(Json::Array(a)), Some(Json::Array(b))) => a
                .iter()
                .zip(b)
                .map(|(a, b)| net::stat(a, &["forwarded"]) - net::stat(b, &["forwarded"]))
                .collect(),
            _ => Vec::new(),
        };
        let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        (forwarded / requests, max / mean.max(1.0), errors)
    });
    Ok(Untraced {
        p50_ms: percentile(&lat, 0.5),
        wakeups_per_req: (wakeups(&m.after) - wakeups(&m.before)) / requests,
        handler_p50_us: handler.iter().sum::<f64>() / handler.len().max(1) as f64,
        late_p99_ms: percentile(&late, 0.99),
        sent: d.requests_ok + d.requests_failed,
        succeeded: d.requests_ok,
        failed: d.requests_failed,
        router,
    })
}

/// Span-name medians of self time, in µs, looked up first in the
/// workload's own replay and then in the probes.
struct Selfs {
    own: BTreeMap<&'static str, Vec<u64>>,
    probes: BTreeMap<&'static str, Vec<u64>>,
}

impl Selfs {
    fn us(&self, name: &str) -> f64 {
        let values = self
            .own
            .get(name)
            .filter(|v| !v.is_empty())
            .or_else(|| self.probes.get(name));
        match values {
            Some(v) if !v.is_empty() => v[v.len() / 2] as f64 / 1e3,
            _ => f64::NAN,
        }
    }
}

fn run_traced(args: &Args, conns: usize, work: &Path, record: &mut String) -> (Metrics, Verdict) {
    let mut notes = Vec::new();
    let mut correct = true;
    let mut own = Tracer::new(true);
    let mut probes = Tracer::new(true);

    // The untraced side: the workload's own servers at the nominal rate.
    let w = serving(&args.workload);
    let stream = w.map(|w| build(w, args.seed, &phases(w, args.seconds)[..1], conns));
    let mut untraced = None;
    let mut reproduce_p50_ms = f64::NAN;
    let mut own_experiments = None;
    if let (Some(w), Some(stream)) = (w, &stream) {
        match untraced_pass(&args.bin, w.name, stream, conns, work) {
            Ok(u) => untraced = Some(u),
            Err(e) => {
                correct = false;
                notes.push(e);
            }
        }
    } else {
        // The reference computation is the first, cold, run of the
        // experiments in this process: it is the one traced.
        let (reference, probe) = reproduce_reference(work, &mut own);
        own_experiments = Some(probe);
        let dir = net::fresh_dir(work, "reproduce");
        let walls: Vec<f64> = (0..3)
            .map(|_| {
                let (wall, _, ok) = reproduce_pass(&args.bin, &dir, &reference);
                correct &= ok;
                wall
            })
            .collect();
        reproduce_p50_ms = median(&walls) * 1e3;
    }

    // The router hop: the hot mix at one rate, one node against the cluster.
    let hop_stream = workload::build_hot(args.seed, &[(HOP_RATE, HOP_SECONDS)], conns);
    let node = untraced_pass(&args.bin, "hot", &hop_stream, conns, work);
    let cluster = untraced_pass(&args.bin, "cluster", &hop_stream, conns, work);
    let (node, cluster) = match (node, cluster) {
        (Ok(n), Ok(c)) => (n, c),
        (n, c) => {
            for e in [n.err(), c.err()].into_iter().flatten() {
                notes.push(e);
            }
            return (
                Metrics::default(),
                Verdict {
                    correct: false,
                    attempted: 1,
                    failed: 1,
                    notes,
                },
            );
        }
    };
    let hop_ms = cluster.p50_ms - node.p50_ms;
    let gen_side = untraced.as_ref().unwrap_or(&node);

    // The workload's own stream, replayed in process with and without spans.
    let mut own_counts = None;
    let mut overhead_us = f64::NAN;
    let mut blocking_us = f64::NAN;
    let budget_s = 2.0;
    if let (Some(w), Some(stream)) = (w, &stream) {
        let nodes = |tag: &str| -> Vec<Node> {
            match w.name {
                "cluster" => (0..3).map(|_| Node::in_memory()).collect(),
                "campaign" => vec![Node::durable(&net::fresh_dir(work, tag))],
                _ => vec![Node::in_memory()],
            }
        };
        let ring = ShardRing::new((0..3).map(|k| format!("shard-{k}")).collect());
        let ring = (w.name == "cluster").then_some(&ring);
        let traced = replay::replay(
            stream,
            &nodes("replay-traced"),
            ring,
            &mut own,
            0,
            budget_s,
            usize::MAX,
        );
        let plain = replay::replay(
            stream,
            &nodes("replay-plain"),
            ring,
            &mut Tracer::new(false),
            0,
            budget_s,
            traced.items as usize,
        );
        if traced.mismatches + plain.mismatches > 0 {
            correct = false;
            notes.push(format!(
                "{} replayed answers differ from the references",
                traced.mismatches + plain.mismatches
            ));
        }
        let ns =
            |c: &replay::Counts| median(&c.item_ns.iter().map(|&n| n as f64).collect::<Vec<_>>());
        overhead_us = (ns(&traced) - ns(&plain)) / 1e3;
        let paths: Vec<f64> = own
            .blocking_path_ns()
            .into_iter()
            .map(|n| n as f64)
            .collect();
        blocking_us = median(&paths) / 1e3;
        println!(
            "{}: replayed {} items ({} requests) in process; {} untraced",
            w.name, traced.items, traced.requests, plain.items
        );
        own_counts = Some(traced);
    }

    // Probes for every layer the workload does not exercise.
    let hot_probe = workload::build_hot(args.seed, &[(HOT.nominal, 0.5)], conns);
    let hot_counts = replay::replay(
        &hot_probe,
        &[Node::in_memory()],
        None,
        &mut probes,
        1 << 32,
        budget_s,
        500,
    );
    let campaign_probe = workload::build_campaign(args.seed, &[(CAMPAIGN.nominal, 1.0)], conns);
    let _ = replay::replay(
        &campaign_probe,
        &[Node::in_memory()],
        None,
        &mut probes,
        2 << 32,
        budget_s,
        100,
    );
    let plan_probe = workload::build_plan(args.seed, &[PLAN_PROBE], conns);
    let plan_counts = replay::replay(
        &plan_probe,
        &[Node::in_memory()],
        None,
        &mut probes,
        3 << 32,
        budget_s,
        9,
    );
    replay::shard_ring_probe(&hot_probe, &mut probes, 4 << 32);
    let wal = replay::wal_probe(&campaign_probe, &net::fresh_dir(work, "wal-probe"), 400)
        .unwrap_or_else(|e| {
            correct = false;
            notes.push(format!("wal probe: {e}"));
            replay::WalProbe::default()
        });
    let experiments = if w.is_none() {
        blocking_us = own.blocking_path_ns().iter().sum::<u64>() as f64 / 1e3;
        // The overhead from warm runs, untraced on both sides of the
        // traced one, since each run warms the shared fit cache further.
        let timed = |t: &mut Tracer| {
            let start = Instant::now();
            let probe = replay::experiments_probe(t, 1);
            (start.elapsed().as_secs_f64() * 1e6, probe)
        };
        let (before, _) = timed(&mut Tracer::new(false));
        let (traced, _) = timed(&mut Tracer::new(true));
        let (after, _) = timed(&mut Tracer::new(false));
        overhead_us = traced - (before + after) / 2.0;
        own_experiments.expect("the reference run was traced")
    } else {
        replay::experiments_probe(&mut probes, 5 << 32)
    };
    if hot_counts.mismatches + plan_counts.mismatches > 0 {
        correct = false;
        notes.push("probe replays differ from their references".into());
    }

    let untraced_p50_ms = untraced.as_ref().map_or(reproduce_p50_ms, |u| u.p50_ms);
    let fits = blocking_us <= untraced_p50_ms * 1e3;
    println!(
        "{}: blocking-path self time p50 {:.2} us vs untraced p50 {:.2} us: {}",
        args.workload,
        blocking_us,
        untraced_p50_ms * 1e3,
        if fits { "fits" } else { "DOES NOT FIT" }
    );
    // A consistency check of the two measurements, not of the program's
    // answers: it is printed and recorded, and leaves `correct` alone.
    if !fits {
        notes.push("traced self times exceed the untraced p50".into());
    }
    println!(
        "{}: tracing overhead {overhead_us:.3} us per item (traced minus untraced replay)",
        args.workload
    );
    println!("{}: self time of the workload's own replay", args.workload);
    print!("{}", own.table());
    println!("{}: self time of the probes", args.workload);
    print!("{}", probes.table());
    let dump = format!("[{}, {}]", own.to_json(), probes.to_json());
    let spans =
        Path::new(".bench_results").join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = std::fs::write(&spans, dump) {
        notes.push(format!("cannot write {}: {e}", spans.display()));
    }

    let selfs = Selfs {
        own: own.self_by_name(),
        probes: probes.self_by_name(),
    };
    let counts = own_counts.as_ref().unwrap_or(&hot_counts);
    let plans = own_counts
        .as_ref()
        .filter(|c| c.cold_plans > 0)
        .unwrap_or(&plan_counts);
    let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let warm = selfs.us("predict.warm");
    let router = cluster.router.unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    let mut m = Metrics::default();
    m.put("http.parse_us", selfs.us("http.parse"), "us");
    m.put("http.render_us", selfs.us("http.render"), "us");
    m.put(
        "http.req_bytes",
        per(counts.req_bytes, counts.requests),
        "bytes",
    );
    m.put(
        "http.resp_bytes",
        per(counts.resp_bytes, counts.requests),
        "bytes",
    );
    m.put(
        "wire.decode_us.predict",
        selfs.us("wire.decode.predict"),
        "us",
    );
    m.put(
        "wire.decode_us.series_predict",
        selfs.us("wire.decode.series_predict"),
        "us",
    );
    m.put(
        "wire.decode_us.ingest",
        selfs.us("wire.decode.ingest"),
        "us",
    );
    m.put("wire.decode_us.plan", selfs.us("wire.decode.plan"), "us");
    m.put(
        "wire.encode_us.prediction",
        selfs.us("wire.encode.prediction"),
        "us",
    );
    m.put("wire.encode_us.plan", selfs.us("wire.encode.plan"), "us");
    m.put("store.snapshot_us", selfs.us("store.snapshot"), "us");
    m.put("store.ingest_us", selfs.us("store.ingest"), "us");
    m.put(
        "store.version_bumps_per_ingest",
        per(counts.version_bumps, counts.ingests),
        "ratio",
    );
    m.put(
        "cache.hit_rate",
        per(counts.hits, counts.hits + counts.misses),
        "ratio",
    );
    m.put(
        "cache.lookups_per_req",
        per(counts.hits + counts.misses, counts.requests),
        "count",
    );
    m.put(
        "cache.misses_per_req",
        per(counts.misses, counts.requests),
        "count",
    );
    m.put(
        "cache.invalidations_per_ingest",
        per(counts.invalidations, counts.ingests),
        "count",
    );
    m.put("cache.evictions", counts.evictions as f64, "count");
    m.put("predictor.warm_us", warm, "us");
    m.put("fit.cold_us", selfs.us("predict.cold") - warm, "us");
    m.put("plan.warm_us", selfs.us("plan.warm"), "us");
    m.put("plan.cold_us", selfs.us("plan.cold"), "us");
    m.put(
        "plan.refits_per_cold_plan",
        per(plans.cold_plan_misses, plans.cold_plans),
        "count",
    );
    m.put(
        "plan.lookups_per_plan",
        per(plans.plan_lookups, plans.plans),
        "count",
    );
    m.put("wal.append_us", wal.append_us, "us");
    m.put("wal.bytes_per_user_byte", wal.bytes_per_user_byte, "ratio");
    m.put("wal.compactions", wal.compactions, "count");
    m.put("wal.compaction_ms", wal.compaction_ms, "ms");
    m.put("router.parse_us", selfs.us("router.parse"), "us");
    m.put("router.shard_for_us", selfs.us("router.shard_for"), "us");
    m.put("router.hop_ms", hop_ms, "ms");
    m.put("router.forwarded_per_req", router.0, "count");
    m.put("router.shard_skew", router.1, "ratio");
    m.put("router.upstream_errors", router.2, "count");
    m.put("reactor.wakeups_per_req", gen_side.wakeups_per_req, "count");
    m.put("server.handler_p50_us", gen_side.handler_p50_us, "us");
    m.put("experiments.table7_ms", experiments.table7_ms, "ms");
    m.put("experiments.table4_ms", experiments.table4_ms, "ms");
    m.put("experiments.rest_ms", experiments.rest_ms, "ms");
    m.put(
        "experiments.cache_hit_rate",
        experiments.cache_hit_rate,
        "ratio",
    );
    m.put("gen.late_p99_ms", gen_side.late_p99_ms, "ms");
    m.put("gen.sent", gen_side.sent as f64, "count");
    m.put("gen.succeeded", gen_side.succeeded as f64, "count");
    m.put("gen.failed", gen_side.failed as f64, "count");
    m.put("trace.blocking_p50_us", blocking_us, "us");
    m.put("trace.overhead_us", overhead_us, "us");
    for (name, value, _) in &m.0 {
        if !value.is_finite() {
            notes.push(format!("{name} was not measured"));
            correct = false;
        }
    }
    let _ = write!(
        record,
        "\"untraced_p50_ms\": {}, \"blocking_fits_untraced_p50\": {fits}, \"hop_rate\": {HOP_RATE}, ",
        finite(untraced_p50_ms)
    );
    let attempted = gen_side.sent.max(1);
    let failed = gen_side.failed;
    (
        m,
        Verdict {
            correct,
            attempted,
            failed,
            notes,
        },
    )
}

fn main() {
    let args = parse_args();
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if std::fs::create_dir_all(&work).is_err() || std::fs::create_dir_all(".bench_results").is_err()
    {
        eprintln!("error: cannot create the work directories");
        std::process::exit(1);
    }
    if serving(&args.workload).is_none() && args.workload != "reproduce" {
        usage();
    }

    let mut checks = Vec::new();
    for (name, result) in [
        ("stub stall counted late", selftest::stall_is_counted()),
        (
            "stream hash follows the seed",
            selftest::streams_are_seeded(),
        ),
    ] {
        println!(
            "self-test: {name}: {}",
            if result.is_ok() { "ok" } else { "FAILED" }
        );
        if let Err(e) = result {
            checks.push(format!("self-test {name}: {e}"));
        }
    }

    let mut record = String::new();
    let (metrics, mut verdict) = match (args.trace, serving(&args.workload)) {
        (true, _) => run_traced(&args, conns, &work, &mut record),
        (false, Some(w)) => run_serving(&args, w, conns, &work, &mut record),
        (false, None) => run_reproduce(&args, &work, &mut record),
    };
    let _ = std::fs::remove_dir_all(&work);
    // After the measurement: `git` and `rustc` are children too, and must
    // not count in the children's peak RSS.
    let env = environment(&args);
    println!("{}: environment {env}", args.workload);
    if !checks.is_empty() {
        verdict.correct = false;
        verdict.notes.extend(checks);
    }
    if metrics.0.is_empty() {
        for note in &verdict.notes {
            eprintln!("error: {note}");
        }
        std::process::exit(1);
    }
    for note in &verdict.notes {
        println!("{}: note: {note}", args.workload);
    }
    metrics.print(&args.workload);
    let offered = serving(&args.workload).map_or_else(String::new, |w| {
        let rates: Vec<String> = std::iter::once(w.nominal)
            .chain(w.ladder.iter().copied())
            .map(|r| r.to_string())
            .collect();
        format!(
            "\"offered_per_s\": [{}], \"limit_ms\": {}, ",
            rates.join(", "),
            w.limit_ms
        )
    });
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        metrics.json(false)
    );
    let full = format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"connections\": {conns}, \"environment\": {env}, {offered}{record}\"metrics\": {}, \"result\": {result}}}\n",
        args.workload,
        args.trace,
        metrics.json(true)
    );
    let path = Path::new(".bench_results").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, full) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{result}");
}
