//! Precise latency injection.
//!
//! Every simulated cost (fabric verb, RPC, storage I/O, fsync) is charged by
//! blocking the calling thread in [`precise_wait_ns`], and a charged wait
//! should cost what it charges. Two regimes:
//!
//! * **Below `SPIN_ONLY_NS`** (verbs, RPCs, page moves, the WAL collect
//!   window) the wait is a pure spin: an OS sleep cannot hit a target that
//!   short.
//! * **At or above it** (storage reads, fsyncs, scaled-up runs) the wait must
//!   *sleep*: the bench host may have very few cores, and only blocking
//!   sleeps let concurrent workers' waits overlap. A plain `thread::sleep`
//!   overshoots, though — by the thread's timer slack (50 µs by default on
//!   Linux) plus the timer-to-wake lag of the host (~20 µs on the VM class
//!   this runs on), which turned a 51 µs fsync into 124 µs. So the first
//!   sleepable wait on a thread sets that thread's timer slack to the
//!   minimum, and every sleepable wait sleeps *short* of its deadline by a
//!   per-thread estimate of the wake lag and spins the remainder, never
//!   returning early.
//!
//! The estimate follows the *floor* of the observed lag, not its mean, and
//! the compensation is capped (`WakeLag`). A spin tail steals the CPU from
//! other workers' wake-ups, so only the timer's own latency may be bought
//! back by spinning; a wake that is late because the CPU was busy must not
//! grow the estimate, or late wakes beget longer spins beget later wakes.

use std::cell::Cell;
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

/// Below this, sleeping is pointless (the wake lag is of the order of the
/// target): spin. Such waits are a few microseconds each, so the burn is
/// the simulated NIC's, not a scheduling hazard.
const SPIN_ONLY_NS: u64 = 50_000;

/// Most a sleep is ever shortened by. Bounds the spin tail of any one wait,
/// whatever the estimator has been fed.
const MAX_COMPENSATION_NS: u64 = 40_000;

/// A sleep shorter than this is not worth its two context switches.
const MIN_SLEEP_NS: u64 = 10_000;

/// Per-thread estimate of how late a timed sleep returns on this host.
///
/// It drops to any lower sample at once and creeps up by at most
/// `lag / 16 + 250 ns` per wait, so it sits at the floor of what the timer
/// delivers: one prompt wake-up resets it however many late ones came
/// before. Starts uncalibrated (`u64::MAX`): the first wait on a thread is
/// shortened by the cap, and its sample replaces the estimate whatever it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WakeLag(u64);

impl WakeLag {
    const UNCALIBRATED: WakeLag = WakeLag(u64::MAX);

    /// How much of a sleepable wait of `ns` to sleep; the caller spins the
    /// remaining `ns - sleep`. Short of `ns` by the (capped) estimate, or 0
    /// when too little sleep would be left.
    fn sleep_ns(self, ns: u64) -> u64 {
        let sleep = ns.saturating_sub(self.0.min(MAX_COMPENSATION_NS));
        if sleep < MIN_SLEEP_NS {
            0
        } else {
            sleep
        }
    }

    /// Fold in one observation: a sleep returned `sample` ns late.
    fn observe(self, sample: u64) -> WakeLag {
        if sample <= self.0 {
            WakeLag(sample)
        } else {
            WakeLag(self.0 + (sample - self.0).min(self.0 / 16 + 250))
        }
    }
}

thread_local! {
    static WAKE_LAG: Cell<WakeLag> = const { Cell::new(WakeLag::UNCALIBRATED) };
}

/// Set the calling thread's timer slack to the minimum, so a timed sleep is
/// not rounded up to the default 50 µs coalescing window. Best effort: on
/// failure, or on a platform without the knob, the wake-lag estimate simply
/// settles higher and the compensation cap does the rest.
fn minimize_timer_slack() {
    // `prctl(PR_SET_TIMERSLACK)` without `unsafe`: /proc/thread-self links
    // to `<pid>/task/<tid>`, and /proc/<tid>/timerslack_ns is writable by
    // the thread itself. Writing 0 would restore the default; 1 is the floor.
    #[cfg(target_os = "linux")]
    if let Ok(link) = std::fs::read_link("/proc/thread-self") {
        if let Some(tid) = link.file_name().and_then(|t| t.to_str()) {
            let _ = std::fs::write(format!("/proc/{tid}/timerslack_ns"), "1");
        }
    }
}

/// Block the calling thread for `ns` nanoseconds: never less, and as little
/// more as the host allows.
///
/// Waits below `SPIN_ONLY_NS` (50 µs) spin. Longer ones sleep for all but the
/// thread's estimated wake lag and spin out the rest (see the module docs),
/// so threads' waits overlap on a host with fewer cores than workers while
/// the spin tail stays a few microseconds, at most `MAX_COMPENSATION_NS`.
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
        return sleep_then_spin(ns);
    }
    spin_until(Instant::now(), ns);
}

/// Spin until `ns` have passed since `start`.
fn spin_until(start: Instant, ns: u64) {
    let target = Duration::from_nanos(ns);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// A sleepable wait: sleep for `ns` less the thread's wake-lag compensation,
/// fold how late the sleep returned into the estimate, spin out what is
/// left.
///
/// Out of line and `#[cold]` so the spin-only path, which every verb takes,
/// stays the fall-through it was: a 2 µs spin ends on a clock-read boundary,
/// so a few nanoseconds of extra prologue cost a whole iteration (inlined,
/// this body moved the benchmark's `rdma.read_u64_ns` probe from 2 070 to
/// 2 101 ns; out of line but not cold, to 2 087).
#[cold]
#[inline(never)]
fn sleep_then_spin(ns: u64) {
    let start = Instant::now();
    let lag = WAKE_LAG.get();
    if lag == WakeLag::UNCALIBRATED {
        minimize_timer_slack();
    }
    let sleep = Duration::from_nanos(lag.sleep_ns(ns));
    if !sleep.is_zero() {
        let due = start.elapsed() + sleep;
        std::thread::sleep(sleep);
        let late = start.elapsed().saturating_sub(due);
        WAKE_LAG.set(lag.observe(late.as_nanos() as u64));
    }
    spin_until(start, ns);
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

    /// `elapsed >= ns` on both sides of the sleep/spin boundary, on a fresh
    /// (uncalibrated) thread's first call and on every later one.
    #[test]
    fn wait_is_never_early() {
        const CHARGES: [u64; 6] = [1_000, 49_999, 50_000, 52_000, 116_000, 500_000];
        for first in CHARGES {
            std::thread::spawn(move || {
                for round in 0..20 {
                    for ns in std::iter::once(first).chain(CHARGES) {
                        let t = Instant::now();
                        precise_wait_ns(ns);
                        let e = t.elapsed();
                        assert!(
                            e >= Duration::from_nanos(ns),
                            "early: {e:?} for {ns} ns (round {round}, first charge {first})"
                        );
                    }
                }
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn sleep_is_short_by_at_most_the_cap() {
        let lags = [0, 9_999, 21_000, 40_000, 40_001, 5_000_000, u64::MAX];
        for lag in lags.map(WakeLag) {
            for ns in [SPIN_ONLY_NS, 52_000, 116_000, 1_000_000, u64::MAX] {
                let sleep = lag.sleep_ns(ns);
                // The spin tail is `ns - sleep`: the two add up by construction.
                assert!(sleep <= ns, "{lag:?} {ns}");
                assert!(
                    sleep == 0 || ns - sleep <= MAX_COMPENSATION_NS,
                    "{lag:?} {ns}"
                );
                assert!(sleep == 0 || sleep >= MIN_SLEEP_NS, "{lag:?} {ns}");
            }
        }
        assert_eq!(WakeLag(21_000).sleep_ns(116_000), 95_000);
        assert_eq!(WakeLag::UNCALIBRATED.sleep_ns(116_000), 76_000);
        // The shortest sleepable wait under the largest compensation still
        // sleeps; under 10 µs of sleep left, a wait is all spin.
        assert_eq!(WakeLag::UNCALIBRATED.sleep_ns(SPIN_ONLY_NS), MIN_SLEEP_NS);
        assert_eq!(WakeLag(21_000).sleep_ns(31_000), 10_000);
        assert_eq!(WakeLag(21_000).sleep_ns(30_999), 0);
    }

    /// The property the mean-tracking prototype lacked: late wake-ups (CPU
    /// contention) move the estimate only by the creep, and one prompt
    /// wake-up undoes all of it.
    #[test]
    fn lag_estimate_tracks_the_floor() {
        assert_eq!(WakeLag::UNCALIBRATED.observe(72_000), WakeLag(72_000));
        assert_eq!(WakeLag::UNCALIBRATED.observe(0), WakeLag(0));

        let mut lag = WakeLag(21_000);
        for _ in 0..40 {
            let next = lag.observe(900_000);
            assert!(next.0 > lag.0 && next.0 - lag.0 <= lag.0 / 16 + 250);
            assert!(next.sleep_ns(116_000) >= 116_000 - MAX_COMPENSATION_NS);
            lag = next;
        }
        assert!(lag.0 < 300_000, "after 40 late wake-ups in a row: {lag:?}");
        assert_eq!(
            lag.observe(20_500),
            WakeLag(20_500),
            "one low sample resets"
        );

        // The creep stops at the sample: it is never overshot.
        assert_eq!(WakeLag(21_000).observe(21_100), WakeLag(21_100));
        assert_eq!(WakeLag(0).observe(10_000), WakeLag(250));
    }

    /// Calibrated waits against plain sleeps taken turn and turn about on a
    /// thread that never entered `precise_wait_ns`: whatever the host is
    /// doing stretches both sides, so the comparison holds under load where
    /// an absolute upper bound would not.
    #[cfg(target_os = "linux")]
    #[test]
    fn calibrated_wait_is_no_longer_than_a_plain_sleep() {
        use std::sync::{Arc, Barrier};
        const NS: u64 = 116_000;
        const ROUNDS: usize = 200;
        let turn = Arc::new(Barrier::new(2));
        let plain = {
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || {
                let mut took = Vec::with_capacity(ROUNDS);
                for _ in 0..ROUNDS {
                    turn.wait();
                    let t = Instant::now();
                    std::thread::sleep(Duration::from_nanos(NS));
                    took.push(t.elapsed());
                    turn.wait();
                }
                took
            })
        };
        let mut calibrated = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            precise_wait_ns(NS);
            calibrated.push(t.elapsed());
            turn.wait();
            turn.wait();
        }
        let mut plain = plain.join().unwrap();
        calibrated.sort();
        plain.sort();
        assert!(calibrated[0] >= Duration::from_nanos(NS));
        assert!(
            calibrated[ROUNDS / 2] <= plain[ROUNDS / 2],
            "calibrated median {:?} vs plain sleep {:?}",
            calibrated[ROUNDS / 2],
            plain[ROUNDS / 2]
        );
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
