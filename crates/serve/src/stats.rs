//! Lock-free request statistics for the `/v1/stats` endpoint.
//!
//! Counters are plain relaxed atomics; latencies go into a fixed log₂
//! histogram (one bucket per power of two of nanoseconds), so recording a
//! request is a handful of atomic increments — no lock is ever taken on the
//! request path. Percentiles read from the histogram are therefore
//! factor-of-two estimates (the bucket's upper bound is reported); exact
//! percentiles are the load generator's job, which times each request
//! client-side. See DESIGN.md § *Serving layer*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ latency buckets: bucket *i* holds requests with
/// `2^i <= nanos < 2^(i+1)`; 64 buckets cover every representable u64.
const BUCKETS: usize = 64;

/// Request counters and a latency histogram, shared across reactor threads.
#[derive(Debug)]
pub struct ServerStats {
    /// `POST /v1/predict` requests answered (any status).
    pub predict_requests: AtomicU64,
    /// `POST /v1/batch` requests answered (any status).
    pub batch_requests: AtomicU64,
    /// `GET /v1/healthz` requests answered.
    pub healthz_requests: AtomicU64,
    /// `GET /v1/stats` requests answered.
    pub stats_requests: AtomicU64,
    /// `POST /v1/measurements` ingest requests answered (any status).
    pub measurements_requests: AtomicU64,
    /// `GET /v1/series` and `GET /v1/series/{id}` requests answered.
    pub series_requests: AtomicU64,
    /// `POST /v1/series/{id}/predict` requests answered (any status).
    pub series_predict_requests: AtomicU64,
    /// `POST /v1/series/{id}/plan` requests answered (any status).
    pub series_plan_requests: AtomicU64,
    /// `DELETE /v1/series/{id}` requests answered (any status).
    pub series_delete_requests: AtomicU64,
    /// Requests answered with a 4xx status.
    pub client_errors: AtomicU64,
    /// Requests answered with a 5xx status.
    pub server_errors: AtomicU64,
    /// Individual predictions computed (batch jobs count one each).
    pub predictions: AtomicU64,
    /// Series predicts and plans answered from the version memo.
    pub memo_hits: AtomicU64,
    /// Series predicts and plans of an existing series that found no
    /// memoized answer and were computed.
    pub memo_misses: AtomicU64,
    /// Total request wire bytes read (request lines + headers + bodies) on
    /// successfully parsed requests.
    pub bytes_in: AtomicU64,
    /// Total response wire bytes written (heads + bodies).
    pub bytes_out: AtomicU64,
    /// Connections accepted across all reactor threads.
    pub accepts: AtomicU64,
    /// `epoll_wait` returns across all reactor threads — the syscall
    /// heartbeat of the reactor. Requests-per-wakeup (request counters over
    /// this) shows how well events batch under load.
    pub epoll_wakeups: AtomicU64,
    /// Latency histogram over prediction requests (predict + batch).
    latency_buckets: [AtomicU64; BUCKETS],
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            predict_requests: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            healthz_requests: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            measurements_requests: AtomicU64::new(0),
            series_requests: AtomicU64::new(0),
            series_predict_requests: AtomicU64::new(0),
            series_plan_requests: AtomicU64::new(0),
            series_delete_requests: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            epoll_wakeups: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServerStats {
    /// Record the wall-clock latency of one prediction request.
    pub fn record_latency(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX).max(1);
        let bucket = (63 - nanos.leading_zeros()) as usize;
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper-bound latency (in nanoseconds) of the bucket containing the
    /// `q`-quantile (`0.0..=1.0`) of recorded requests, or `None` before the
    /// first request.
    pub fn latency_quantile_ns(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(1u64 << (bucket + 1).min(63));
            }
        }
        Some(u64::MAX)
    }

    /// Total latency samples recorded.
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_the_histogram() {
        let stats = ServerStats::default();
        assert_eq!(stats.latency_quantile_ns(0.5), None);
        // 9 fast requests (~1µs) and one slow (~1ms).
        for _ in 0..9 {
            stats.record_latency(Duration::from_micros(1));
        }
        stats.record_latency(Duration::from_millis(1));
        assert_eq!(stats.latency_count(), 10);
        let p50 = stats.latency_quantile_ns(0.5).unwrap();
        let p99 = stats.latency_quantile_ns(0.99).unwrap();
        assert!(p50 <= 4_096, "p50 bucket {p50} should be ~1µs");
        assert!(
            p99 >= 1_000_000,
            "p99 bucket {p99} should cover the 1ms tail"
        );
        assert!(stats.latency_quantile_ns(0.0).unwrap() <= p50);
    }

    #[test]
    fn zero_duration_lands_in_the_first_bucket() {
        let stats = ServerStats::default();
        stats.record_latency(Duration::ZERO);
        assert_eq!(stats.latency_count(), 1);
        assert_eq!(stats.latency_quantile_ns(1.0), Some(2));
    }
}
