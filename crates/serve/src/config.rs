use sabre::{PlanCache, SabreConfig};
use sabre_trace::LogFormat;

/// Tunable knobs of the routing service. Start from
/// `ServeConfig::default()` and override; [`crate::start`] validates.
///
/// # Example
///
/// ```
/// use sabre_serve::ServeConfig;
///
/// let config = ServeConfig {
///     addr: "127.0.0.1:0".into(), // ephemeral port
///     workers: 2,
///     queue_capacity: 8,
///     ..ServeConfig::default()
/// };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`). Port `0` binds an ephemeral port;
    /// read the actual one from [`crate::ServerHandle::addr`].
    pub addr: String,
    /// Routing worker threads draining the job queue. `0` is accepted and
    /// freezes the pool — queued jobs are only ever completed (failed) by
    /// [`crate::ServerHandle::shutdown`] — which makes backpressure
    /// deterministic to test.
    pub workers: usize,
    /// Bounded job-queue capacity. When the queue is full, `POST /route`
    /// and `POST /transpile_batch` are rejected with `503` and a
    /// `Retry-After` header instead of queueing without bound.
    pub queue_capacity: usize,
    /// Seconds advertised in the `Retry-After` header of a `503`.
    pub retry_after_secs: u32,
    /// Maximum accepted request-body size; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Keep-alive bound: how many requests one connection may issue
    /// before the server answers `Connection: close` and hangs up. `1`
    /// disables connection reuse entirely (every response closes); the
    /// cap keeps a single chatty client from pinning a connection thread
    /// forever.
    pub max_requests_per_connection: usize,
    /// Connection-table capacity of the reactor. Accepted sockets beyond
    /// this bound receive a canned `503` and are closed immediately —
    /// the one case that still sheds blindly, because with no table slot
    /// there is nowhere to park the request while pricing it.
    pub max_connections: usize,
    /// Per-client token-bucket refill rate (requests/second per peer
    /// IP), applied to job-submitting endpoints. `0` disables rate
    /// limiting — the default, since loopback clients share one IP.
    pub rate_limit_per_sec: u32,
    /// Token-bucket burst: how many requests a client may issue
    /// back-to-back before the refill rate governs. Floored at 1.
    pub rate_limit_burst: u32,
    /// Admission SLO: when the projected queue wait (work queued + in
    /// flight, priced at the live avg ns-per-step) exceeds this, new
    /// jobs get `429` with a `projected_wait_ms` instead of queueing.
    /// `0` disables predicted-cost shedding.
    pub admission_slo_ms: u64,
    /// Read deadline: a connection must deliver a complete request
    /// within this budget of its first byte, or it is reaped (slowloris
    /// guard). The budget is absolute, not per-read — progress-based
    /// resets are exactly what a 1-byte-per-second client exploits.
    pub read_deadline_ms: u64,
    /// Write deadline: a connection whose peer stops reading our
    /// response is reaped after this long without write progress.
    pub write_deadline_ms: u64,
    /// How long a keep-alive connection may sit idle between requests
    /// before the reactor closes it.
    pub idle_timeout_ms: u64,
    /// Capacity (entries) of each of the two plan caches: the routed-plan
    /// cache behind `POST /route` and the sharded-plan cache behind
    /// `POST /route_sharded`. A request whose circuit *structure* was
    /// routed before on the same device (or fleet), noise fingerprints
    /// and objective skips the search entirely: the cached, proven plan
    /// is re-bound with the new gate parameters and answered inline on
    /// the reactor thread, bypassing admission pricing and the worker
    /// queue. `0` disables both caches — which also restores strict
    /// per-request seed sensitivity, since the plan keys deliberately
    /// ignore search-effort knobs (`seed`, `num_restarts`, …).
    pub plan_cache_capacity: usize,
    /// Capacity of the in-memory ring of completed request traces served
    /// by `GET /debug/traces` (newest first). Every request is traced —
    /// phase timings are a handful of monotonic clock reads — and the
    /// ring bounds retention. `0` disables retention entirely (the
    /// endpoint then reports an empty list).
    pub trace_capacity: usize,
    /// Format of the slow-request log emitted on stderr: human-readable
    /// `key=value` text or one JSON object per line.
    pub log_format: LogFormat,
    /// Requests whose total serving time reaches this many milliseconds
    /// are logged to stderr with their full phase breakdown. `0`
    /// disables slow-request logging (the default).
    pub slow_request_ms: u64,
    /// Baseline [`SabreConfig`] for every request; per-request `"config"`
    /// overrides are applied on top of this.
    pub default_config: SabreConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 128,
            retry_after_secs: 1,
            max_body_bytes: 4 << 20,
            max_requests_per_connection: 64,
            max_connections: 4096,
            rate_limit_per_sec: 0,
            rate_limit_burst: 8,
            admission_slo_ms: 5000,
            read_deadline_ms: 30_000,
            write_deadline_ms: 30_000,
            idle_timeout_ms: 5000,
            plan_cache_capacity: PlanCache::DEFAULT_CAPACITY,
            trace_capacity: 256,
            log_format: LogFormat::Text,
            slow_request_ms: 0,
            default_config: SabreConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates parameter ranges (including the embedded
    /// [`SabreConfig`]).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be ≥ 1".into());
        }
        if self.max_body_bytes == 0 {
            return Err("max_body_bytes must be ≥ 1".into());
        }
        if self.max_requests_per_connection == 0 {
            return Err("max_requests_per_connection must be ≥ 1".into());
        }
        if self.max_connections == 0 {
            return Err("max_connections must be ≥ 1".into());
        }
        if self.read_deadline_ms == 0 {
            return Err("read_deadline_ms must be ≥ 1".into());
        }
        if self.write_deadline_ms == 0 {
            return Err("write_deadline_ms must be ≥ 1".into());
        }
        if self.idle_timeout_ms == 0 {
            return Err("idle_timeout_ms must be ≥ 1".into());
        }
        self.default_config
            .validate()
            .map_err(|reason| format!("default_config: {reason}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::default().validate().is_ok());
        assert!(ServeConfig::default().workers >= 1);
    }

    #[test]
    fn zero_capacity_rejected() {
        let c = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("queue_capacity"));
    }

    #[test]
    fn zero_connection_table_rejected() {
        let c = ServeConfig {
            max_connections: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("max_connections"));
    }

    #[test]
    fn zero_deadlines_rejected() {
        for field in ["read_deadline_ms", "write_deadline_ms", "idle_timeout_ms"] {
            let mut c = ServeConfig::default();
            match field {
                "read_deadline_ms" => c.read_deadline_ms = 0,
                "write_deadline_ms" => c.write_deadline_ms = 0,
                _ => c.idle_timeout_ms = 0,
            }
            assert!(c.validate().unwrap_err().contains(field), "{field}");
        }
    }

    #[test]
    fn zero_requests_per_connection_rejected() {
        let c = ServeConfig {
            max_requests_per_connection: 0,
            ..ServeConfig::default()
        };
        assert!(c
            .validate()
            .unwrap_err()
            .contains("max_requests_per_connection"));
    }

    #[test]
    fn zero_plan_cache_capacity_is_valid() {
        // 0 is the documented off switch, not a misconfiguration.
        let c = ServeConfig {
            plan_cache_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_sabre_config_rejected() {
        let c = ServeConfig {
            default_config: SabreConfig {
                num_restarts: 0,
                ..SabreConfig::default()
            },
            ..ServeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("default_config"));
    }
}
