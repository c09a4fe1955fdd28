//! Per-request deadline budgets.
//!
//! A [`Deadline`] is minted when the request line is parsed (from the
//! client's `X-Deadline-Us` header, falling back to the server's
//! `default_deadline_us`) and threaded through every stage: parse →
//! backlog admission → the loop's eviction sweep → inference. Each consults
//! [`Deadline::expired`] and bails with a typed `DeadlineExceeded` (HTTP
//! 504) instead of doing work whose answer nobody is waiting for.

use std::time::{Duration, Instant};

/// An absolute expiry instant, or `None` for an unbounded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No budget: the request may take as long as it takes.
    pub fn none() -> Self {
        Deadline(None)
    }

    /// A budget of `us` microseconds from now; `0` means unbounded (the
    /// CLI convention for "disable").
    pub fn after_us(us: u64) -> Self {
        if us == 0 {
            Deadline(None)
        } else {
            Deadline(Some(Instant::now() + Duration::from_micros(us)))
        }
    }

    /// The stricter of a client-supplied budget and the server default.
    pub fn resolve(client_us: Option<u64>, default_us: u64) -> Self {
        match client_us {
            Some(us) => Deadline::after_us(us),
            None => Deadline::after_us(default_us),
        }
    }

    /// True once the budget is spent.
    pub fn expired(&self) -> bool {
        matches!(self.0, Some(t) if Instant::now() >= t)
    }

    /// Time left, `None` when unbounded. Returns `Some(ZERO)` when
    /// already expired so callers can pass it to bounded waits directly.
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_none_are_unbounded() {
        assert_eq!(Deadline::after_us(0), Deadline::none());
        assert!(!Deadline::none().expired());
        assert_eq!(Deadline::none().remaining(), None);
        assert_eq!(Deadline::resolve(None, 0), Deadline::none());
    }

    #[test]
    fn tiny_budgets_expire() {
        let d = Deadline::after_us(1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budgets_do_not() {
        let d = Deadline::after_us(60_000_000);
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(1));
    }

    #[test]
    fn client_header_wins_over_default() {
        let d = Deadline::resolve(Some(1), 60_000_000);
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.expired(), "client's 1us budget applies, not the server default");
    }
}
