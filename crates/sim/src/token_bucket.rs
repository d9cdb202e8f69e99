//! Token-bucket rate limiter.
//!
//! This is the primitive behind the HTB qdisc model in `kollaps-netmodel`
//! and the application-side rate limiters in `kollaps-workloads`. Tokens are
//! accounted in *bytes* and refill continuously at the configured rate, up to
//! a burst ceiling.

use crate::time::{SimDuration, SimTime};
use crate::units::{Bandwidth, DataSize};

/// A continuous-refill token bucket measured in bytes.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Bandwidth,
    burst: DataSize,
    /// Available tokens in fractional bytes.
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate` with a maximum burst of `burst`
    /// bytes. The bucket starts full.
    pub fn new(rate: Bandwidth, burst: DataSize) -> Self {
        TokenBucket {
            rate,
            burst,
            tokens: burst.as_bytes() as f64,
            last_refill: SimTime::ZERO,
        }
    }

    /// The configured refill rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// The configured burst size.
    pub fn burst(&self) -> DataSize {
        self.burst
    }

    /// Changes the refill rate, keeping the accumulated tokens.
    pub fn set_rate(&mut self, now: SimTime, rate: Bandwidth) {
        self.refill(now);
        self.rate = rate;
    }

    /// Currently available whole tokens (bytes) at time `now`.
    pub fn available(&mut self, now: SimTime) -> DataSize {
        self.refill(now);
        DataSize::from_bytes(self.tokens as u64)
    }

    /// Attempts to consume `size` bytes at time `now`.
    ///
    /// Returns `true` (and debits the bucket) when enough tokens are
    /// available, `false` otherwise.
    pub fn try_consume(&mut self, now: SimTime, size: DataSize) -> bool {
        self.refill(now);
        let need = size.as_bytes() as f64;
        // The slack absorbs float accumulation error plus the sub-byte
        // shortfall of an availability time rounded to whole nanoseconds —
        // without it, a caller that asks `time_until_available` and then
        // consumes at exactly that instant could spin forever one fraction
        // of a byte short.
        if self.tokens + 1e-3 >= need {
            self.tokens -= need;
            true
        } else {
            false
        }
    }

    /// Consumes `size` bytes unconditionally, allowing the bucket to go
    /// negative (used to model the HTB behaviour of finishing an in-flight
    /// packet and paying for it afterwards).
    pub fn consume_debt(&mut self, now: SimTime, size: DataSize) {
        self.refill(now);
        self.tokens -= size.as_bytes() as f64;
    }

    /// Time until `size` bytes worth of tokens will be available, from `now`.
    ///
    /// Returns [`SimDuration::ZERO`] if they already are, and
    /// [`SimDuration::MAX`] if the rate is zero and the deficit can never be
    /// repaid.
    pub fn time_until_available(&mut self, now: SimTime, size: DataSize) -> SimDuration {
        self.refill(now);
        let need = size.as_bytes() as f64;
        let deficit = need - self.tokens;
        if deficit <= 0.0 {
            return SimDuration::ZERO;
        }
        if self.rate.is_zero() {
            return SimDuration::MAX;
        }
        let bytes_per_sec = self.rate.as_bps() as f64 / 8.0;
        // Round up to the next whole nanosecond so that consuming at
        // `now + wait` is guaranteed to succeed.
        let nanos = (deficit / bytes_per_sec * 1e9).ceil();
        SimDuration::from_nanos(nanos as u64)
    }

    fn refill(&mut self, now: SimTime) {
        if now <= self.last_refill {
            return;
        }
        let elapsed = now - self.last_refill;
        self.last_refill = now;
        if self.rate == Bandwidth::MAX {
            self.tokens = self.burst.as_bytes() as f64;
            return;
        }
        let added = self.rate.as_bps() as f64 / 8.0 * elapsed.as_secs_f64();
        self.tokens = (self.tokens + added).min(self.burst.as_bytes() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: u64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    #[test]
    fn starts_full_and_consumes() {
        let mut tb = TokenBucket::new(mbps(8), DataSize::from_bytes(10_000));
        assert!(tb.try_consume(SimTime::ZERO, DataSize::from_bytes(10_000)));
        assert!(!tb.try_consume(SimTime::ZERO, DataSize::from_bytes(1)));
    }

    #[test]
    fn refills_at_configured_rate() {
        // 8 Mb/s = 1 MB/s.
        let mut tb = TokenBucket::new(mbps(8), DataSize::from_bytes(1_000_000));
        assert!(tb.try_consume(SimTime::ZERO, DataSize::from_bytes(1_000_000)));
        // After 0.5 s, 500 KB of tokens should be back.
        let now = SimTime::from_millis(500);
        assert!(tb.try_consume(now, DataSize::from_bytes(499_000)));
        assert!(!tb.try_consume(now, DataSize::from_bytes(5_000)));
    }

    #[test]
    fn burst_is_a_ceiling() {
        let mut tb = TokenBucket::new(mbps(8), DataSize::from_bytes(1_000));
        // Even after a long idle period tokens cap at the burst size.
        let now = SimTime::from_secs(100);
        assert_eq!(tb.available(now).as_bytes(), 1_000);
    }

    #[test]
    fn time_until_available_matches_rate() {
        let mut tb = TokenBucket::new(mbps(8), DataSize::from_bytes(1_000_000));
        tb.consume_debt(SimTime::ZERO, DataSize::from_bytes(1_000_000));
        // Needs another 500 KB: at 1 MB/s that is 0.5 s.
        let wait = tb.time_until_available(SimTime::ZERO, DataSize::from_bytes(500_000));
        assert!((wait.as_secs_f64() - 0.5).abs() < 1e-6);
        // Zero-rate bucket never refills.
        let mut stalled = TokenBucket::new(Bandwidth::ZERO, DataSize::from_bytes(10));
        stalled.consume_debt(SimTime::ZERO, DataSize::from_bytes(100));
        assert_eq!(
            stalled.time_until_available(SimTime::ZERO, DataSize::from_bytes(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn debt_is_repaid_before_new_sends() {
        let mut tb = TokenBucket::new(mbps(8), DataSize::from_bytes(2_000));
        tb.consume_debt(SimTime::ZERO, DataSize::from_bytes(4_000));
        assert!(!tb.try_consume(SimTime::from_millis(1), DataSize::from_bytes(1)));
        // 1 MB/s * 3 ms = 3000 bytes, enough to clear the 2000-byte debt and
        // accumulate 1000 tokens.
        assert!(tb.try_consume(SimTime::from_millis(3), DataSize::from_bytes(900)));
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut tb = TokenBucket::new(mbps(8), DataSize::from_bytes(1_000_000));
        tb.consume_debt(SimTime::ZERO, DataSize::from_bytes(1_000_000));
        tb.set_rate(SimTime::ZERO, mbps(80));
        // At 10 MB/s, 100 ms restores 1 MB.
        assert!(tb.try_consume(SimTime::from_millis(100), DataSize::from_bytes(990_000)));
    }

    #[test]
    fn unlimited_rate_always_allows() {
        let mut tb = TokenBucket::new(Bandwidth::MAX, DataSize::from_bytes(1_500));
        for i in 0..100u64 {
            assert!(tb.try_consume(SimTime::from_nanos(i), DataSize::from_bytes(1_500)));
        }
    }
}
