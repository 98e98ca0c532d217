//! Per-user rate limiting (§IV-D1): "we also implement checks to limit
//! the number of queries from a given user to prevent denial-of-service
//! or data scraping attacks."
//!
//! Token-bucket per API key, driven by an explicit clock so tests and
//! simulations are deterministic.

use mp_sync::{LockRank, OrderedMutex};
use std::collections::HashMap;

/// Token-bucket configuration.
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// Bucket capacity (burst size).
    pub burst: f64,
    /// Refill rate, tokens per second.
    pub per_second: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        // Generous interactive use; hostile scraping throttled.
        RateLimitConfig {
            burst: 30.0,
            per_second: 5.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_refill: f64,
}

/// Deterministic-clock token-bucket limiter keyed by API key.
pub struct RateLimiter {
    config: RateLimitConfig,
    buckets: OrderedMutex<HashMap<String, Bucket>>,
}

impl RateLimiter {
    /// New limiter.
    pub fn new(config: RateLimitConfig) -> Self {
        RateLimiter {
            config,
            buckets: OrderedMutex::new(LockRank::RateLimit, HashMap::new()),
        }
    }

    /// Try to spend one token for `key` at time `now` (seconds).
    /// Returns true when the request is admitted. Only a key's first
    /// request allocates its bucket's name.
    pub fn admit(&self, key: &str, now: f64) -> bool {
        let mut buckets = self.buckets.lock();
        match buckets.get_mut(key) {
            Some(b) => self.spend(b, now),
            None => {
                let fresh = Bucket {
                    tokens: self.config.burst,
                    last_refill: now,
                };
                self.spend(buckets.entry(key.to_owned()).or_insert(fresh), now)
            }
        }
    }

    /// Refill `b` up to `now`, then take a token from it if it has one.
    fn spend(&self, b: &mut Bucket, now: f64) -> bool {
        let dt = (now - b.last_refill).max(0.0);
        b.tokens = (b.tokens + dt * self.config.per_second).min(self.config.burst);
        b.last_refill = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Remaining tokens for a key (for `X-RateLimit-Remaining` headers).
    pub fn remaining(&self, key: &str, now: f64) -> f64 {
        let mut buckets = self.buckets.lock();
        match buckets.get_mut(key) {
            None => self.config.burst,
            Some(b) => {
                let dt = (now - b.last_refill).max(0.0);
                (b.tokens + dt * self.config.per_second).min(self.config.burst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limiter(burst: f64, rate: f64) -> RateLimiter {
        RateLimiter::new(RateLimitConfig {
            burst,
            per_second: rate,
        })
    }

    #[test]
    fn burst_then_throttle() {
        let rl = limiter(3.0, 1.0);
        assert!(rl.admit("k", 0.0));
        assert!(rl.admit("k", 0.0));
        assert!(rl.admit("k", 0.0));
        assert!(!rl.admit("k", 0.0), "burst exhausted");
    }

    #[test]
    fn refills_over_time() {
        let rl = limiter(2.0, 1.0);
        assert!(rl.admit("k", 0.0));
        assert!(rl.admit("k", 0.0));
        assert!(!rl.admit("k", 0.1));
        assert!(rl.admit("k", 1.2), "one token refilled after ~1 s");
    }

    #[test]
    fn keys_are_independent() {
        let rl = limiter(1.0, 0.1);
        assert!(rl.admit("a", 0.0));
        assert!(!rl.admit("a", 0.0));
        assert!(rl.admit("b", 0.0), "different key has its own bucket");
    }

    #[test]
    fn refill_caps_at_burst() {
        let rl = limiter(2.0, 100.0);
        assert!(rl.admit("k", 0.0));
        // Long idle: tokens cap at burst, not unbounded.
        assert!((rl.remaining("k", 1000.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scraper_throughput_bounded() {
        // A scraper hammering every 10 ms gets ~rate requests/second.
        let rl = limiter(5.0, 2.0);
        let mut admitted = 0;
        let mut t = 0.0;
        while t < 60.0 {
            if rl.admit("scraper", t) {
                admitted += 1;
            }
            t += 0.01;
        }
        // 5 burst + 120 refill ≈ 125.
        assert!((120..=130).contains(&admitted), "{admitted}");
    }
}
