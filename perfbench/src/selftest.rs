//! Self-tests of the generator, run before every measurement and by
//! `cargo test`: lateness accounting against a stub server that stalls one
//! connection once, and the determinism of the seeded request streams.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use crate::net::drive;
use crate::stats::{percentile, phase_latencies};
use crate::workload::{build_campaign, build_hot, Item, Phase, Req, Route, Stream};

const STALL_MS: u64 = 200;
const STUB_RATE: f64 = 500.0;
const STUB_SECONDS: f64 = 0.8;
const STALL_AT_S: f64 = 0.3;

/// Answer `{}` to every request; the request for `/stall` is answered only
/// after a 200 ms pause.
fn stub_server(listener: TcpListener, conns: usize) {
    std::thread::scope(|scope| {
        for _ in 0..conns {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            scope.spawn(move || {
                let mut writer = stream.try_clone().expect("clone stub socket");
                let mut reader = BufReader::new(stream);
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    let stall = line.contains("/stall");
                    let mut length = 0usize;
                    loop {
                        let mut header = String::new();
                        if reader.read_line(&mut header).unwrap_or(0) == 0 {
                            return;
                        }
                        if header.trim().is_empty() {
                            break;
                        }
                        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                            length = v.trim().parse().unwrap_or(0);
                        }
                    }
                    let mut body = vec![0u8; length];
                    if reader.read_exact(&mut body).is_err() {
                        return;
                    }
                    if stall {
                        std::thread::sleep(Duration::from_millis(STALL_MS));
                    }
                    let response = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}";
                    if writer.write_all(response.as_bytes()).is_err() {
                        return;
                    }
                }
            });
        }
    });
}

fn stub_stream(conns: usize) -> (Stream, usize) {
    let req = |path: &str| Req {
        route: Route::Predict,
        method: "POST",
        path: path.to_string(),
        body: "{}".to_string(),
        expect: "{}".to_string(),
    };
    let count = (STUB_RATE * STUB_SECONDS) as u64;
    let stall_item = (STALL_AT_S * STUB_RATE) as usize / conns * conns;
    let items = (0..count)
        .map(|k| Item {
            due_ns: (k as f64 * 1e9 / STUB_RATE) as u64,
            conn: k as usize % conns,
            reqs: vec![u32::from(k as usize == stall_item)],
            sampled: true,
            phase: 0,
        })
        .collect();
    let stream = Stream {
        pool: vec![req("/ok"), req("/stall")],
        setup: Vec::new(),
        items,
        phases: vec![Phase {
            rate: STUB_RATE,
            start_ns: 0,
            end_ns: (STUB_SECONDS * 1e9) as u64,
        }],
    };
    (stream, stall_item)
}

/// Drive the stub open-loop and check that every request due on the
/// stalled connection while it was stalled is counted late, with a latency
/// that runs from its due time, and that the stall shows in the p99.
pub fn stall_is_counted() -> Result<(), String> {
    let conns = 2;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (stream, stall_item) = stub_stream(conns);
    let driven = std::thread::scope(|scope| {
        scope.spawn(|| stub_server(listener, conns));
        drive(addr, &stream, conns, 0..stream.items.len(), None)
    });
    if driven.requests_failed > 0 {
        return Err(format!("stub requests failed: {:?}", driven.errors));
    }
    let stall_due = stream.items[stall_item].due_ns;
    let stall_end = stall_due + STALL_MS * 1_000_000;
    let mut late = 0;
    for o in &driven.outcomes {
        let item = &stream.items[o.item as usize];
        if item.conn != stream.items[stall_item].conn
            || item.due_ns <= stall_due
            || item.due_ns >= stall_end
        {
            continue;
        }
        // Sent only once the stall ended; its latency covers the wait.
        let owed = stall_end - item.due_ns;
        let lateness = o.sent_ns.saturating_sub(item.due_ns);
        let latency = o.done_ns.saturating_sub(item.due_ns);
        if lateness + 1_000_000 < owed || latency + 1_000_000 < owed {
            return Err(format!(
                "item {} due during the stall was not counted late",
                o.item
            ));
        }
        late += 1;
    }
    let expected_late = (STALL_MS as f64 / 1e3 * STUB_RATE / conns as f64) as usize;
    if late + 2 < expected_late {
        return Err(format!(
            "only {late} of ~{expected_late} stalled items were seen late"
        ));
    }
    let (latencies, lateness) = phase_latencies(&stream, &driven.outcomes, 0);
    let p99 = percentile(&latencies, 0.99);
    if p99 < STALL_MS as f64 * 0.5 {
        return Err(format!(
            "p99 {p99:.2} ms does not show a {STALL_MS} ms stall"
        ));
    }
    let late_p99 = percentile(&lateness, 0.99);
    if late_p99 < STALL_MS as f64 * 0.5 {
        return Err(format!(
            "lateness p99 {late_p99:.2} ms does not show the stall"
        ));
    }
    Ok(())
}

/// The same seed gives the same request stream; another seed another one.
pub fn streams_are_seeded() -> Result<(), String> {
    let rates = [(50.0, 0.5)];
    let hot = |seed| build_hot(seed, &rates, 2).hash();
    let campaign = |seed| build_campaign(seed, &rates, 2).hash();
    for (name, hash) in [
        ("hot", &hot as &dyn Fn(u64) -> u64),
        ("campaign", &campaign),
    ] {
        let (a, b, c) = (hash(11), hash(11), hash(12));
        if a != b {
            return Err(format!("{name}: seed 11 gave two streams ({a:x} vs {b:x})"));
        }
        if a == c {
            return Err(format!("{name}: seeds 11 and 12 gave the same stream"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn stub_stall_shows_as_lateness_and_p99() {
        super::stall_is_counted().unwrap();
    }

    #[test]
    fn stream_hash_follows_the_seed() {
        super::streams_are_seeded().unwrap();
    }
}
