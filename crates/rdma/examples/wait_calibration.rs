//! The simulator's error bar: what a charged wait really costs on this host.
//!
//! Drives the real `pmp_rdma::precise_wait_ns` (no copy of its algorithm)
//! at the charges the storage model produces — 52 µs (log sync), 116 µs
//! (page read), 300 µs and 1 ms — and prints requested vs real time and how
//! much of each wait the thread spent on a CPU. Once on an idle process,
//! once beside `available_parallelism()` busy threads.
//!
//! ```text
//! cargo run --release -p pmp-rdma --example wait_calibration
//! ```
//!
//! `cpu` is the thread's run time from `/proc/thread-self/schedstat` (Linux;
//! "n/a" elsewhere) per wait, taken over the whole series because the kernel
//! only folds it in at a context switch. It is the spin tail plus what going
//! to sleep and waking up cost; the `plain sleep` row has no spin tail, so
//! `spin` is a row's `cpu` less that row's, and `spin%` its share of the mean
//! real wait.

use pmp_rdma::precise_wait_ns;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHARGES_NS: [u64; 4] = [52_000, 116_000, 300_000, 1_000_000];
const WARMUP: usize = 200;
const WAITS: usize = 2_000;

/// Nanoseconds the calling thread has run on a CPU.
fn on_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

struct Series {
    real_us: Vec<f64>,
    on_cpu_us_per_wait: Option<f64>,
}

fn series(wait: impl Fn()) -> Series {
    for _ in 0..WARMUP {
        wait();
    }
    let cpu_before = on_cpu_ns();
    let mut real_us: Vec<f64> = (0..WAITS)
        .map(|_| {
            let t = Instant::now();
            wait();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let cpu = on_cpu_ns()
        .zip(cpu_before)
        .map(|(after, before)| (after - before) as f64 / 1e3 / WAITS as f64);
    real_us.sort_by(f64::total_cmp);
    Series {
        real_us,
        on_cpu_us_per_wait: cpu,
    }
}

/// `sleep_cpu_us`: on-CPU time of a plain sleep, the part of a wait's that
/// is not spin.
fn row(label: &str, charge_ns: u64, s: &Series, sleep_cpu_us: Option<f64>) {
    let q = |p: f64| s.real_us[((WAITS - 1) as f64 * p) as usize];
    let charge_us = charge_ns as f64 / 1e3;
    let mean = s.real_us.iter().sum::<f64>() / WAITS as f64;
    let cpu = match (s.on_cpu_us_per_wait, sleep_cpu_us) {
        (Some(us), Some(sleep_us)) => {
            let spin = (us - sleep_us).max(0.0);
            format!("{us:>6.1} {spin:>6.1} {:>5.1}%", 100.0 * spin / mean)
        }
        _ => format!("{:>6} {:>6} {:>6}", "n/a", "n/a", "n/a"),
    };
    println!(
        "{label:<12} {charge_us:>7.0} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>6.3} {cpu}",
        s.real_us[0],
        q(0.10),
        q(0.50),
        q(0.90),
        q(0.99),
        q(0.50) / charge_us,
    );
}

fn table(title: &str) {
    println!("\n{title}");
    println!(
        "{:<12} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6}",
        "wait", "charge", "min", "p10", "p50", "p90", "p99", "p50/ch", "cpu", "spin", "spin%"
    );
    // On this (the main) thread, which never enters `precise_wait_ns`: the
    // default timer slack, as every charged sleep had it before.
    let ns = CHARGES_NS[1];
    let plain = series(|| std::thread::sleep(Duration::from_nanos(ns)));
    row("plain sleep", ns, &plain, plain.on_cpu_us_per_wait);
    for ns in CHARGES_NS {
        // A fresh thread per series: calibration starts from nothing.
        let s = std::thread::spawn(move || series(|| precise_wait_ns(ns)))
            .join()
            .expect("series thread");
        assert!(
            s.real_us[0] >= ns as f64 / 1e3,
            "early return: {} µs for {ns} ns",
            s.real_us[0]
        );
        row("precise_wait", ns, &s, plain.on_cpu_us_per_wait);
    }
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "precise_wait_ns calibration: {WAITS} waits per row after {WARMUP} warm-up, \
         available_parallelism = {cpus}; times in µs"
    );
    table("idle process");

    let stop = Arc::new(AtomicBool::new(false));
    let busy: Vec<_> = (0..cpus)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    table(&format!("beside {cpus} busy threads"));
    stop.store(true, Ordering::Relaxed);
    for b in busy {
        b.join().expect("busy thread");
    }
}
