//! Server configuration: the batching, backpressure, and cache knobs.

/// Tunables for [`crate::Server`]. The defaults suit an interactive
/// deployment: each event loop runs the misses it parsed at the end of
/// the round, in model calls of up to 32 texts (a lone text never waits
/// for company), a backlog bound deep enough to absorb bursts, and a
/// cache sized for a few thousand distinct entity sets.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, benches).
    pub addr: String,
    /// Most texts one `locate_batch` call takes when an event loop runs
    /// its backlog. 1 runs every text in a call of its own.
    pub max_batch: usize,
    /// Per-shard backlog bound in texts: admitted texts not yet run,
    /// across every event loop. A `POST /predict` whose texts do not all
    /// fit on every shard it touches is rejected with `429` (explicit
    /// shedding) rather than admitted partially. It also bounds one
    /// round's work, and so how long a round holds the other connections
    /// on its loop.
    pub queue_capacity: usize,
    /// Total cached responses across all shards; 0 disables the cache.
    pub cache_capacity: usize,
    /// Shard count for the response cache (reduces lock contention).
    pub cache_shards: usize,
    /// Width (in bits, at most 64) of the SimHash entity-code signature
    /// used by the approximate cache tier. Only meaningful when
    /// `cache_hamming_max > 0`.
    pub cache_lsh_bits: u32,
    /// Largest Hamming distance between SimHash signatures the approximate
    /// cache tier accepts as a hit. 0 (the default) disables the LSH tier
    /// entirely — lookups are byte-identical to the exact cache.
    pub cache_hamming_max: u32,
    /// Server-side default for requests that do not set `fallback_prior`
    /// themselves: answer zero-entity tweets with the training-split prior
    /// instead of a typed abstention.
    pub fallback_prior: bool,
    /// Install SIGTERM/SIGINT handlers so the process drains gracefully.
    /// The CLI turns this on; in-process tests leave it off.
    pub handle_signals: bool,
    /// Hold a metrics lease for the server's lifetime so counters and
    /// histograms record. Off is the baseline leg of the overhead bench.
    pub enable_metrics: bool,
    /// Latency target the predict p99 must stay under (SLO), microseconds.
    pub slo_target_p99_us: u64,
    /// Highest acceptable 429-shed fraction before `/healthz` degrades.
    pub slo_max_shed_rate: f64,
    /// Rolling SLO window, seconds.
    pub slo_window_secs: u64,
    /// Capacity of the always-on `/debug/requests` ring.
    pub ring_capacity: usize,
    /// Log any request slower than this to stderr as JSONL; 0 disables.
    pub slow_request_us: u64,
    /// Deadline budget for requests that do not send `X-Deadline-Us`,
    /// microseconds; 0 leaves them unbounded.
    pub default_deadline_us: u64,
    /// Largest accepted request body; bigger declared bodies get 413.
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading one request once its first byte
    /// arrives (the slow-loris bound), microseconds; 0 disables.
    pub read_budget_us: u64,
    /// Socket write timeout so a stalled reader cannot pin a connection
    /// thread, microseconds; 0 disables.
    pub write_timeout_us: u64,
    /// Master switch for the brownout load controller.
    pub brownout_enabled: bool,
    /// Latency target driving brownout escalation, microseconds.
    /// Deliberately separate from `slo_target_p99_us` (alerting): a
    /// tightened alerting SLO must not self-inflict a brownout.
    pub brownout_p99_us: u64,
    /// Queue-shed (429) fraction driving brownout escalation.
    pub brownout_max_shed_rate: f64,
    /// Rolling window of the brownout controller, seconds (short so
    /// recovery is observed quickly).
    pub brownout_window_secs: u64,
    /// Consecutive unhealthy controller ticks before escalating a mode.
    pub brownout_escalate_ticks: u32,
    /// Consecutive healthy controller ticks before recovering a mode.
    pub brownout_recover_ticks: u32,
    /// Minimum spacing between controller ticks, microseconds; 0 ticks
    /// on every evaluation (tests).
    pub brownout_tick_us: u64,
    /// `Retry-After` seconds advertised on brownout 503 rejections.
    pub retry_after_secs: u64,
    /// Consecutive `/reload` failures before its circuit breaker opens;
    /// 0 disables the breaker.
    pub reload_breaker_threshold: u32,
    /// How long an open `/reload` breaker rejects attempts, seconds.
    pub reload_breaker_cooldown_secs: u64,
    /// Event-loop threads sharing the connection load. Connections are
    /// handed off round-robin at accept; each loop multiplexes thousands
    /// of keep-alive sockets over one `epoll` instance.
    pub event_loops: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            max_batch: 32,
            queue_capacity: 256,
            cache_capacity: 4096,
            cache_shards: 8,
            cache_lsh_bits: 16,
            cache_hamming_max: 0,
            fallback_prior: false,
            handle_signals: false,
            enable_metrics: true,
            slo_target_p99_us: 100_000,
            slo_max_shed_rate: 0.01,
            slo_window_secs: 60,
            ring_capacity: 1024,
            slow_request_us: 0,
            default_deadline_us: 30_000_000,
            max_body_bytes: 1 << 20,
            read_budget_us: 2_000_000,
            write_timeout_us: 5_000_000,
            brownout_enabled: true,
            brownout_p99_us: 100_000,
            brownout_max_shed_rate: 0.05,
            brownout_window_secs: 3,
            brownout_escalate_ticks: 2,
            brownout_recover_ticks: 3,
            brownout_tick_us: 500_000,
            retry_after_secs: 1,
            reload_breaker_threshold: 3,
            reload_breaker_cooldown_secs: 10,
            event_loops: 2,
        }
    }
}

impl ServeConfig {
    /// Validates invariants that would otherwise dead-lock or divide by
    /// zero deep inside the server.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.cache_shards == 0 {
            return Err("cache_shards must be at least 1".into());
        }
        if self.cache_hamming_max > 0 {
            if self.cache_lsh_bits == 0 || self.cache_lsh_bits > 64 {
                return Err("cache_lsh_bits must be within [1, 64] when the LSH tier is on".into());
            }
            if self.cache_hamming_max as u64 >= self.cache_lsh_bits as u64 {
                return Err("cache_hamming_max must be below cache_lsh_bits".into());
            }
        }
        if self.ring_capacity == 0 {
            return Err("ring_capacity must be at least 1".into());
        }
        if self.slo_window_secs == 0 {
            return Err("slo_window_secs must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.slo_max_shed_rate) {
            return Err("slo_max_shed_rate must be within [0, 1]".into());
        }
        if self.max_body_bytes == 0 {
            return Err("max_body_bytes must be at least 1".into());
        }
        if self.brownout_enabled {
            if self.brownout_window_secs == 0 {
                return Err("brownout_window_secs must be at least 1".into());
            }
            if self.brownout_escalate_ticks == 0 || self.brownout_recover_ticks == 0 {
                return Err("brownout escalate/recover ticks must be at least 1".into());
            }
            if !(0.0..=1.0).contains(&self.brownout_max_shed_rate) {
                return Err("brownout_max_shed_rate must be within [0, 1]".into());
            }
        }
        if self.retry_after_secs == 0 {
            return Err("retry_after_secs must be at least 1".into());
        }
        if self.event_loops == 0 {
            return Err("event_loops must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn degenerate_knobs_are_rejected() {
        let c = ServeConfig { max_batch: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { queue_capacity: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { cache_shards: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { cache_hamming_max: 2, cache_lsh_bits: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { cache_hamming_max: 2, cache_lsh_bits: 80, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { cache_hamming_max: 16, cache_lsh_bits: 16, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { cache_hamming_max: 0, cache_lsh_bits: 0, ..ServeConfig::default() };
        assert!(c.validate().is_ok(), "LSH knobs unchecked when the tier is off");
        let c = ServeConfig { ring_capacity: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { slo_window_secs: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { slo_max_shed_rate: 1.5, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { max_body_bytes: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { brownout_escalate_ticks: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            brownout_escalate_ticks: 0,
            brownout_enabled: false,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_ok(), "brownout knobs unchecked when disabled");
        let c = ServeConfig { retry_after_secs: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
        let c = ServeConfig { event_loops: 0, ..ServeConfig::default() };
        assert!(c.validate().is_err());
    }
}
