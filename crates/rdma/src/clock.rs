//! Precise latency injection.
//!
//! The bench host may have very few cores, so injected latency must *not*
//! busy-spin for its full duration: concurrent workers' waits need to
//! overlap, which only blocking sleeps give. OS sleeps overshoot by the
//! timer-slack (~60–150µs on this class of machine), so we sleep *short*
//! of the deadline and spin the remainder — the spin tail is bounded by
//! the compensation constant and usually zero because the overshoot eats
//! it.
//!
//! Benchmarks run with all latencies scaled up by a common factor (see
//! `LatencyConfig::scale`) so that even one-sided RDMA verbs land in the
//! sleepable range; ratios between op classes — which the paper's results
//! depend on — are preserved exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Process-wide latency kill switch: benchmark harnesses suspend charging
/// during bulk loads (administrative restores are not part of any measured
/// window) and resume it for measured runs.
static LATENCY_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable/disable latency injection (metering is unaffected).
pub fn set_latency_enabled(enabled: bool) {
    LATENCY_ENABLED.store(enabled, Ordering::Release);
}

pub fn latency_enabled() -> bool {
    LATENCY_ENABLED.load(Ordering::Acquire)
}

/// Below this, sleeping is pointless (slack exceeds the target): spin.
/// Sub-50µs waits only occur at small latency scales (micro-benchmarks,
/// which run single-threaded, or unit tests), so the burn is harmless.
const SPIN_ONLY_NS: u64 = 50_000;

/// Block the calling thread for approximately `ns` nanoseconds.
///
/// Sleepable waits take a plain `thread::sleep` with *no* compensation
/// spin: on a single-core host a spin tail would steal the CPU from other
/// workers' wakeups and serialize exactly the concurrency the benchmarks
/// measure. The cost is a uniform timer-slack overshoot (~0.1ms) on every
/// charged wait, identical for every system under test.
pub fn precise_wait_ns(ns: u64) {
    // Charge-point hook: every simulated RDMA/RPC/storage/fsync latency
    // funnels through here, so this one assertion proves "no engine lock is
    // held across simulated I/O" for the whole workspace. It runs before the
    // zero/disabled early-outs on purpose — latency-disabled test configs
    // still verify the invariant. No-op unless built with `sanitize`.
    pmp_common::sync::assert_charge_point();
    if ns == 0 || !latency_enabled() {
        return;
    }
    if ns >= SPIN_ONLY_NS {
        std::thread::sleep(Duration::from_nanos(ns));
        return;
    }
    let start = Instant::now();
    let target = Duration::from_nanos(ns);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_wait_returns_immediately() {
        let t = Instant::now();
        precise_wait_ns(0);
        assert!(t.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn short_wait_is_at_least_requested() {
        let t = Instant::now();
        precise_wait_ns(5_000);
        assert!(t.elapsed() >= Duration::from_nanos(5_000));
    }

    #[test]
    fn sleepable_wait_is_accurate() {
        let t = Instant::now();
        precise_wait_ns(500_000);
        let e = t.elapsed();
        assert!(e >= Duration::from_micros(500));
        assert!(e < Duration::from_millis(3), "overshoot too large: {e:?}");
    }

    #[test]
    fn concurrent_waits_overlap() {
        // Eight threads sleeping 2ms each should take about one wait of wall
        // time, not the sum of the eight, even on a single core — the
        // property the whole benchmark design rests on. Each thread measures
        // its own wait, so host load stretches both sides of the bound.
        let t = Instant::now();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let t = Instant::now();
                    precise_wait_ns(2_000_000);
                    t.elapsed()
                })
            })
            .collect();
        let waited: Duration = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let wall = t.elapsed();
        assert!(
            wall <= waited.mul_f64(0.75),
            "waits must overlap: {wall:?} wall for {waited:?} waited"
        );
    }
}
