//! Metrics-driven admission control: token-bucket rate limiting per
//! client and predicted-cost load shedding.
//!
//! Instead of admitting blindly and letting a full queue answer `503`,
//! the service prices each routing request *before* queueing it:
//! [`estimate_steps`] predicts how many search steps the job will run
//! (two-qubit gates × restarts × traversals — the exact quantity
//! `metrics.rs` already meters ns-per-step against), and
//! [`modeled_wait_ns`] converts the work already queued + in flight into
//! a projected wait using the live `Metrics::avg_ns_per_step`. A request
//! whose projected wait exceeds the configured SLO gets a **priced 429**
//! carrying `projected_wait_ms`, so clients can back off intelligently;
//! the blind `503` remains only for a genuinely full queue or connection
//! table.
//!
//! Everything here is called from the single reactor thread, so the
//! rate limiter needs no internal locking.

use std::collections::HashMap;
use std::net::IpAddr;
use std::time::Instant;

/// One client's token bucket: `tokens` grows at `rate_per_sec` up to
/// `burst`, and each admitted request spends one token.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    fn try_acquire(&mut self, now: Instant, rate_per_sec: f64, burst: f64) -> bool {
        let elapsed = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.tokens = (self.tokens + elapsed * rate_per_sec).min(burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Per-peer-IP token-bucket rate limiter, owned by the reactor thread.
///
/// Disabled (every request allowed) when constructed with a zero rate —
/// the default, since loopback test clients share one IP.
pub struct RateLimiter {
    rate_per_sec: f64,
    burst: f64,
    buckets: HashMap<IpAddr, TokenBucket>,
}

impl RateLimiter {
    /// A limiter refilling `rate_per_sec` tokens/sec per peer up to
    /// `burst`; `rate_per_sec == 0` disables limiting entirely.
    pub fn new(rate_per_sec: u32, burst: u32) -> Self {
        RateLimiter {
            rate_per_sec: f64::from(rate_per_sec),
            // A zero burst would deadlock every client; floor at 1.
            burst: f64::from(burst.max(1)),
            buckets: HashMap::new(),
        }
    }

    /// Whether this limiter ever rejects anything.
    pub fn enabled(&self) -> bool {
        self.rate_per_sec > 0.0
    }

    /// Spends one token for `peer` at time `now`; `false` means the
    /// request should be rejected with `429`.
    pub fn allow(&mut self, peer: IpAddr, now: Instant) -> bool {
        if !self.enabled() {
            return true;
        }
        // Unbounded peer growth would be its own DoS vector; evict the
        // stalest buckets when the table gets large. Full buckets carry
        // no state worth keeping (a fresh bucket starts full too).
        if self.buckets.len() >= 4096 {
            let burst = self.burst;
            let rate = self.rate_per_sec;
            self.buckets.retain(|_, b| {
                let elapsed = now.saturating_duration_since(b.last_refill).as_secs_f64();
                b.tokens + elapsed * rate < burst
            });
        }
        self.buckets
            .entry(peer)
            .or_insert(TokenBucket {
                tokens: self.burst,
                last_refill: now,
            })
            .try_acquire(now, self.rate_per_sec, self.burst)
    }
}

/// Predicted search steps for a routing job: each of the
/// `restarts × traversals` passes walks the circuit's two-qubit gates
/// once (plus SWAP overhead the model deliberately ignores — the live
/// ns-per-step average already absorbs it, since it is measured against
/// this same step definition).
pub fn estimate_steps(two_qubit_gates: usize, num_restarts: usize, num_traversals: usize) -> u64 {
    (two_qubit_gates as u64)
        .saturating_mul(num_restarts.max(1) as u64)
        .saturating_mul(num_traversals.max(1) as u64)
}

/// Projected wait before a newly admitted job would *start*: the work
/// ahead of it (queued + in flight, in predicted steps) priced at the
/// live per-step rate and divided across the worker pool.
///
/// Returns 0 until the service has completed at least one routing job
/// (`avg_ns_per_step == 0`) — with no throughput observation there is
/// nothing to model, so admission stays open and the `Retry-After`
/// floor applies. This also keeps frozen-pool (`workers == 0`) test
/// setups on the legacy 503 path: a frozen pool never completes a job,
/// so the average never forms.
pub fn modeled_wait_ns(work_ahead_steps: u64, avg_ns_per_step: u64, workers: usize) -> u64 {
    work_ahead_steps
        .saturating_mul(avg_ns_per_step)
        .checked_div(workers.max(1) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const PEER: IpAddr = IpAddr::V4(std::net::Ipv4Addr::LOCALHOST);

    #[test]
    fn disabled_limiter_allows_everything() {
        let mut limiter = RateLimiter::new(0, 0);
        assert!(!limiter.enabled());
        let now = Instant::now();
        for _ in 0..10_000 {
            assert!(limiter.allow(PEER, now));
        }
    }

    #[test]
    fn burst_then_reject_then_refill() {
        let mut limiter = RateLimiter::new(2, 3);
        let start = Instant::now();
        // The full burst is available immediately...
        assert!(limiter.allow(PEER, start));
        assert!(limiter.allow(PEER, start));
        assert!(limiter.allow(PEER, start));
        // ...then the bucket is empty...
        assert!(!limiter.allow(PEER, start));
        // ...and refills at rate_per_sec: after 500ms one token exists.
        let later = start + Duration::from_millis(500);
        assert!(limiter.allow(PEER, later));
        assert!(!limiter.allow(PEER, later));
        // Refill caps at burst no matter how long the idle gap.
        let much_later = start + Duration::from_secs(3600);
        for _ in 0..3 {
            assert!(limiter.allow(PEER, much_later));
        }
        assert!(!limiter.allow(PEER, much_later));
    }

    #[test]
    fn peers_have_independent_buckets() {
        let mut limiter = RateLimiter::new(1, 1);
        let now = Instant::now();
        let other: IpAddr = IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 9));
        assert!(limiter.allow(PEER, now));
        assert!(!limiter.allow(PEER, now));
        assert!(limiter.allow(other, now), "second peer has its own bucket");
    }

    #[test]
    fn step_estimate_multiplies_gates_by_passes() {
        assert_eq!(estimate_steps(100, 5, 3), 1500);
        // Degenerate configs still price at one pass, and huge circuits
        // saturate instead of overflowing.
        assert_eq!(estimate_steps(7, 0, 0), 7);
        assert_eq!(estimate_steps(usize::MAX, 5, 3), u64::MAX);
    }

    #[test]
    fn modeled_wait_scales_with_backlog_and_pool() {
        // No throughput observation → no model → zero wait.
        assert_eq!(modeled_wait_ns(1_000_000, 0, 4), 0);
        // 1000 steps ahead at 2000 ns/step across 4 workers = 500µs.
        assert_eq!(modeled_wait_ns(1000, 2000, 4), 500_000);
        // A frozen pool is priced as one worker, not a divide-by-zero.
        assert_eq!(modeled_wait_ns(1000, 2000, 0), 2_000_000);
    }
}
