//! Percentiles and per-phase latency samples.

use crate::net::Outcome;
use crate::workload::Stream;

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency of one sampled item, from its due time to its last response,
/// in ms. An item that failed or was never sent has infinite latency: it
/// misses any limit.
fn latency_ms(stream: &Stream, o: &Outcome) -> f64 {
    if o.dropped || !o.ok {
        return f64::INFINITY;
    }
    o.done_ns
        .saturating_sub(stream.items[o.item as usize].due_ns) as f64
        / 1e6
}

fn sampled_in<'a>(
    stream: &'a Stream,
    outcomes: &'a [Outcome],
    phase: usize,
) -> impl Iterator<Item = &'a Outcome> + 'a {
    outcomes.iter().filter(move |o| {
        let item = &stream.items[o.item as usize];
        item.phase == phase && item.sampled
    })
}

/// For the sampled items of one phase: latency from due time to the last
/// response, and lateness from due time to the first send, both in ms and
/// ascending.
pub fn phase_latencies(
    stream: &Stream,
    outcomes: &[Outcome],
    phase: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    for o in sampled_in(stream, outcomes, phase) {
        latencies.push(latency_ms(stream, o));
        if !o.dropped {
            lateness.push(
                o.sent_ns
                    .saturating_sub(stream.items[o.item as usize].due_ns) as f64
                    / 1e6,
            );
        }
    }
    latencies.sort_by(f64::total_cmp);
    lateness.sort_by(f64::total_cmp);
    (latencies, lateness)
}

/// Fewest samples a window needs for its p99 to have one sample beyond it.
const WINDOW_SAMPLES: f64 = 100.0;

/// The phase's p99 as the median over consecutive windows of the p99
/// within each window, so that one stall of the machine moves one window
/// and not the result. Windows last half a second, or longer where the rate
/// gives fewer than 100 samples in that time. Returns the value and the
/// number of windows.
pub fn windowed_p99(stream: &Stream, outcomes: &[Outcome], phase: usize) -> (f64, usize) {
    let p = &stream.phases[phase];
    let window_ns = (0.5e9f64).max(WINDOW_SAMPLES / p.rate * 1e9) as u64;
    let count = ((p.end_ns - p.start_ns) / window_ns).max(1) as usize;
    let mut windows = vec![Vec::new(); count];
    for o in sampled_in(stream, outcomes, phase) {
        let due = stream.items[o.item as usize].due_ns - p.start_ns;
        windows[((due / window_ns) as usize).min(count - 1)].push(latency_ms(stream, o));
    }
    let p99s: Vec<f64> = windows
        .iter_mut()
        .map(|w| {
            w.sort_by(f64::total_cmp);
            percentile(w, 0.99)
        })
        .collect();
    (median(&p99s), count)
}
