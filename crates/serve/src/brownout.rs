//! Brownout degradation: a load controller that steps the server through
//! an explicit quality ladder instead of falling off a cliff.
//!
//! ```text
//! Full → CacheOnly → PriorOnly → Shed
//! ```
//!
//! * **Full** — normal operation.
//! * **CacheOnly** — only response-cache hits (and inline abstentions) are
//!   served; a miss is rejected with `503 + Retry-After` before touching
//!   the model.
//! * **PriorOnly** — diffusion/attention inference is skipped; misses are
//!   answered from the fallback prior Gaussian, marked `"degraded":true`.
//! * **Shed** — every predict is rejected with `503 + Retry-After`.
//!
//! The controller owns its *own* short-window [`SloTracker`] fed by real
//! predict completions and 429 queue sheds — deliberately separate from
//! the `/healthz` alerting tracker, so tightening the alerting SLO (e.g.
//! `--slo-p99-us 1` in the obs smoke gate) observes degradation without
//! self-inflicting a brownout. Brownout rejections (503) are *not* fed
//! back into the controller's tracker: a mode must never sustain itself
//! on the load it sheds, or it would latch.
//!
//! Hysteresis: escalate one step after `escalate_ticks` consecutive
//! unhealthy ticks, recover one step after `recover_ticks` consecutive
//! healthy ones; counters reset on every transition, so flapping input
//! walks the ladder slowly instead of oscillating per tick.
//!
//! The failpoint `serve.mode.force` (err action) makes a tick report
//! unhealthy regardless of the tracker — the deterministic handle the
//! fault suite and the chaos harness use to walk the ladder.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use edge_obs::{SloConfig, SloStatus, SloTracker};

/// The degradation ladder, best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Mode {
    /// Normal operation.
    Full = 0,
    /// Cache hits only; misses get `503 + Retry-After`.
    CacheOnly = 1,
    /// Misses answered from the fallback prior, marked `degraded`.
    PriorOnly = 2,
    /// Every predict rejected with `503 + Retry-After`.
    Shed = 3,
}

impl Mode {
    /// Stable lower-snake name (metrics labels, healthz, logs).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::CacheOnly => "cache_only",
            Mode::PriorOnly => "prior_only",
            Mode::Shed => "shed",
        }
    }

    fn from_u8(v: u8) -> Mode {
        match v {
            1 => Mode::CacheOnly,
            2 => Mode::PriorOnly,
            3 => Mode::Shed,
            _ => Mode::Full,
        }
    }

    fn escalate(self) -> Mode {
        Mode::from_u8((self as u8 + 1).min(Mode::Shed as u8))
    }

    fn recover(self) -> Mode {
        Mode::from_u8((self as u8).saturating_sub(1))
    }
}

/// Controller tuning. Defaults live in [`crate::ServeConfig`].
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Master switch; disabled pins the mode at [`Mode::Full`].
    pub enabled: bool,
    /// Latency target driving escalation, microseconds.
    pub target_p99_us: u64,
    /// Queue-shed (429) fraction driving escalation.
    pub max_shed_rate: f64,
    /// Rolling window of the controller's tracker, seconds. Short on
    /// purpose: the controller must notice recovery fast.
    pub window_secs: u64,
    /// Consecutive unhealthy ticks before stepping down the ladder.
    pub escalate_ticks: u32,
    /// Consecutive healthy ticks before stepping back up.
    pub recover_ticks: u32,
    /// Minimum spacing between ticks; zero ticks on every call (tests).
    pub tick_interval: Duration,
}

struct TickState {
    last: Option<Instant>,
    bad: u32,
    good: u32,
}

/// One transition observed by [`LoadController::maybe_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    pub from: Mode,
    pub to: Mode,
}

/// The load controller: a mode atomic readable from any thread, advanced
/// by rate-limited ticks from the request handlers and every event-loop
/// wake.
pub struct LoadController {
    config: BrownoutConfig,
    tracker: SloTracker,
    mode: AtomicU8,
    tick: Mutex<TickState>,
}

impl LoadController {
    pub fn new(config: BrownoutConfig) -> Self {
        let tracker = SloTracker::new(SloConfig {
            target_p99_us: config.target_p99_us,
            max_shed_rate: config.max_shed_rate,
            window_secs: config.window_secs,
        });
        LoadController {
            config,
            tracker,
            mode: AtomicU8::new(Mode::Full as u8),
            tick: Mutex::new(TickState { last: None, bad: 0, good: 0 }),
        }
    }

    /// The mode right now (one relaxed load).
    pub fn mode(&self) -> Mode {
        Mode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Feeds one completed predict into the controller's window. Never
    /// call this for brownout rejections — see the module docs.
    pub fn record(&self, latency_us: u64) {
        if self.config.enabled {
            self.tracker.record(latency_us);
        }
    }

    /// Feeds one 429 queue shed into the controller's window.
    pub fn record_shed(&self) {
        if self.config.enabled {
            self.tracker.record_shed();
        }
    }

    /// The controller's own rollup (for healthz/debug, not alerting).
    pub fn status(&self) -> SloStatus {
        self.tracker.status()
    }

    /// Advances the hysteresis state machine if a tick is due. Returns
    /// the transition when the mode changed. Cheap when rate-limited out;
    /// concurrent callers skip instead of queueing on the lock.
    pub fn maybe_tick(&self) -> Option<Transition> {
        if !self.config.enabled {
            return None;
        }
        let mut t = self.tick.try_lock().ok()?;
        if let Some(last) = t.last {
            if !self.config.tick_interval.is_zero() && last.elapsed() < self.config.tick_interval {
                return None;
            }
        }
        t.last = Some(Instant::now());
        // Deterministic handle for the fault suite: while the failpoint
        // has err hits left, every tick reads as unhealthy.
        let forced = edge_faults::enabled() && edge_faults::fired("serve.mode.force");
        let unhealthy = forced || self.tracker.status().degraded;
        if unhealthy {
            t.bad += 1;
            t.good = 0;
        } else {
            t.good += 1;
            t.bad = 0;
        }
        let from = self.mode();
        let to = if unhealthy && t.bad >= self.config.escalate_ticks {
            from.escalate()
        } else if !unhealthy && t.good >= self.config.recover_ticks {
            from.recover()
        } else {
            from
        };
        if to == from {
            return None;
        }
        t.bad = 0;
        t.good = 0;
        self.mode.store(to as u8, Ordering::Release);
        Some(Transition { from, to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(escalate: u32, recover: u32) -> LoadController {
        LoadController::new(BrownoutConfig {
            enabled: true,
            target_p99_us: 1_000,
            max_shed_rate: 0.05,
            window_secs: 1,
            escalate_ticks: escalate,
            recover_ticks: recover,
            tick_interval: Duration::ZERO,
        })
    }

    #[test]
    fn ladder_order_and_names() {
        assert!(Mode::Full < Mode::CacheOnly && Mode::CacheOnly < Mode::Shed);
        assert_eq!(Mode::Full.escalate(), Mode::CacheOnly);
        assert_eq!(Mode::Shed.escalate(), Mode::Shed, "shed is the floor");
        assert_eq!(Mode::Full.recover(), Mode::Full, "full is the ceiling");
        assert_eq!(Mode::Shed.recover(), Mode::PriorOnly);
        assert_eq!(Mode::PriorOnly.name(), "prior_only");
    }

    #[test]
    fn healthy_traffic_stays_full() {
        let _s = edge_faults::FailScenario::setup();
        let c = controller(1, 1);
        for _ in 0..50 {
            c.record(10);
        }
        assert!(c.maybe_tick().is_none());
        assert_eq!(c.mode(), Mode::Full);
    }

    #[test]
    fn sustained_violations_escalate_with_hysteresis() {
        let _s = edge_faults::FailScenario::setup();
        let c = controller(2, 2);
        for _ in 0..20 {
            c.record(1_000_000); // way over the 1ms target
        }
        assert!(c.maybe_tick().is_none(), "one bad tick is not enough");
        let t = c.maybe_tick().expect("second consecutive bad tick escalates");
        assert_eq!((t.from, t.to), (Mode::Full, Mode::CacheOnly));
        assert_eq!(c.mode(), Mode::CacheOnly);
        // Counters reset on transition: two more bad ticks for the next step.
        assert!(c.maybe_tick().is_none());
        assert_eq!(c.maybe_tick().unwrap().to, Mode::PriorOnly);
    }

    #[test]
    fn recovery_steps_back_one_mode_at_a_time() {
        let _s = edge_faults::FailScenario::setup();
        let c = controller(1, 2);
        for _ in 0..10 {
            c.record(1_000_000);
        }
        assert_eq!(c.maybe_tick().unwrap().to, Mode::CacheOnly);
        assert_eq!(c.maybe_tick().unwrap().to, Mode::PriorOnly);
        // Wait out the 1s window so the violations age away.
        std::thread::sleep(Duration::from_millis(2_100));
        assert!(c.maybe_tick().is_none(), "one healthy tick is not enough");
        let t = c.maybe_tick().expect("second consecutive healthy tick recovers");
        assert_eq!((t.from, t.to), (Mode::PriorOnly, Mode::CacheOnly));
        assert!(c.maybe_tick().is_none());
        assert_eq!(c.maybe_tick().unwrap().to, Mode::Full);
        assert!(c.maybe_tick().is_none(), "full does not over-recover");
    }

    #[test]
    fn disabled_controller_is_inert() {
        let _s = edge_faults::FailScenario::setup();
        let c = LoadController::new(BrownoutConfig {
            enabled: false,
            target_p99_us: 1,
            max_shed_rate: 0.0,
            window_secs: 1,
            escalate_ticks: 1,
            recover_ticks: 1,
            tick_interval: Duration::ZERO,
        });
        c.record(1_000_000);
        c.record_shed();
        assert!(c.maybe_tick().is_none());
        assert_eq!(c.mode(), Mode::Full);
    }

    #[test]
    fn tick_interval_rate_limits() {
        let _s = edge_faults::FailScenario::setup();
        let c = LoadController::new(BrownoutConfig {
            enabled: true,
            target_p99_us: 1,
            max_shed_rate: 0.0,
            window_secs: 1,
            escalate_ticks: 1,
            recover_ticks: 1,
            tick_interval: Duration::from_secs(3600),
        });
        for _ in 0..10 {
            c.record(1_000_000);
        }
        assert!(c.maybe_tick().is_some(), "first tick evaluates immediately");
        assert!(c.maybe_tick().is_none(), "second call inside the interval is skipped");
        assert_eq!(c.mode(), Mode::CacheOnly, "the interval froze the ladder after one step");
    }

    #[test]
    fn forced_failpoint_escalates_deterministically() {
        let _s = edge_faults::FailScenario::setup();
        edge_faults::configure("serve.mode.force", "2*err").unwrap();
        let c = controller(1, 1);
        // No traffic at all: only the failpoint drives the ladder.
        assert_eq!(c.maybe_tick().unwrap().to, Mode::CacheOnly);
        assert_eq!(c.maybe_tick().unwrap().to, Mode::PriorOnly);
        // Failpoint exhausted: empty window is healthy, recovery begins.
        assert_eq!(c.maybe_tick().unwrap().to, Mode::CacheOnly);
    }
}
