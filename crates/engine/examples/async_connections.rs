//! Many async connections on a tiny scheduler pool, driven by one thread
//! that only ever polls.
//!
//! N sessions on one node (2 workers, 20 µs group-commit window, latency
//! scale 1) each run a closed loop of `begin` → update-own-key → `commit`,
//! queued as a triple; a single client thread polls the commit futures with
//! `try_take` and re-submits. The client holds no engine thread and must
//! never run engine code, so the concurrency the engine sees is what the
//! workers overlap by parking: `open_txns hwm` is the proof, and the row
//! with one connection is the single-connection guard.
//!
//! ```text
//! cargo run --release -p pmp-engine --example async_connections -- --seconds 3
//! ```
//!
//! Per row: commits per second over the measured window, the
//! open-transaction high-water mark, and the scheduler's traffic over the
//! whole row (warm-up, window and final drain) — parks, run-queue hand-offs
//! and deadline-timer fires per commit, and inline runs as a count (the
//! final drain `wait()`s once per connection; a polling client adds none).
//! Exits 1 if 64 connections never had more than one transaction open, or
//! if they took more than 0.05 timer fires per commit — a deadline that
//! outlives its wait must be dropped, not delivered as a wake.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmp_common::{ClusterConfig, NodeId, TableId};
use pmp_engine::{AsyncSession, NodeEngine, RowValue, Shared};

const CONNECTIONS: [usize; 3] = [1, 64, 256];
const WARMUP: Duration = Duration::from_millis(500);
/// Ceiling on deadline-timer fires per commit at 64 connections.
const TIMER_FIRES_PER_COMMIT_MAX: f64 = 0.05;

struct Row {
    conns: usize,
    tps: f64,
    aborts: u64,
    open_txns_hwm: u64,
    commits_total: u64,
    parks: u64,
    wakes: u64,
    inline_runs: u64,
    timer_fires: u64,
}

/// Seed one key, retrying the transient aborts a loaded engine can return.
fn seed_key(engine: &Arc<NodeEngine>, t: TableId, k: u64) {
    for _ in 0..1000 {
        let done = engine.begin().and_then(|mut txn| {
            txn.insert(t, k, RowValue::new(vec![k]))?;
            txn.commit()
        });
        if done.is_ok() {
            return;
        }
    }
    panic!("key {k} failed to commit after 1000 retries");
}

fn run(conns: usize, measure: Duration) -> Row {
    let mut config = ClusterConfig::bench(1, 1.0);
    config.engine.sched_workers = 2;
    config.engine.wal_group_window_us = 20;
    let shared = Shared::new(config);
    let engine = NodeEngine::start(Arc::clone(&shared), NodeId(0));
    let t = shared.create_table("t", 1, &[]).expect("create table").id;
    pmp_rdma::set_latency_enabled(false);
    for k in 0..conns as u64 {
        seed_key(&engine, t, k);
    }
    pmp_rdma::set_latency_enabled(true);

    let sessions: Vec<AsyncSession> = (0..conns).map(|_| AsyncSession::open(&engine)).collect();
    // One transaction per connection at a time: queue the whole triple and
    // keep only the commit future; its resolution restarts the loop.
    let submit = |i: usize| {
        let s = &sessions[i];
        let _ = s.begin();
        let _ = s.update(t, i as u64, RowValue::new(vec![i as u64]));
        s.commit()
    };
    let mut futs: Vec<_> = (0..conns).map(submit).collect();

    let start = Instant::now();
    let warm_end = start + WARMUP;
    let end = warm_end + measure;
    let mut measure_start = None;
    let (mut commits, mut aborts, mut commits_total) = (0u64, 0u64, 0u64);
    loop {
        let now = Instant::now();
        if measure_start.is_none() && now >= warm_end {
            measure_start = Some(now);
            commits = 0;
            aborts = 0;
        }
        if now >= end {
            break;
        }
        let mut progressed = false;
        for (i, slot) in futs.iter_mut().enumerate() {
            if let Some(res) = slot.try_take() {
                match res {
                    Ok(_) => {
                        commits += 1;
                        commits_total += 1;
                    }
                    Err(_) => aborts += 1,
                }
                *slot = submit(i);
                progressed = true;
            }
        }
        if !progressed {
            // Don't starve the (tiny) worker pool with the poll spin on
            // small hosts.
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let elapsed = measure_start
        .expect("window opened")
        .elapsed()
        .as_secs_f64();
    for fut in futs {
        if fut.wait().is_ok() {
            commits_total += 1;
        }
    }
    // Read the meters before closing: a close is one more `wait()` per
    // connection and no part of the workload.
    let sched = engine.sched.stats();
    let row = Row {
        conns,
        tps: commits as f64 / elapsed,
        aborts,
        open_txns_hwm: engine.stats.open_txns.hwm(),
        commits_total,
        parks: sched.parks.get(),
        wakes: sched.wakes.get(),
        inline_runs: sched.inline_runs.get(),
        timer_fires: sched.timer_fires.get(),
    };
    for s in &sessions {
        let _ = s.close().wait();
    }
    engine.stop_background();
    row
}

fn parse_seconds() -> Result<f64, String> {
    let mut args = std::env::args().skip(1);
    let mut seconds = 3.0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seconds" => {
                let v = args.next().ok_or("--seconds needs a value")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("--seconds: not a duration in (0, 3600]: {v}"))?;
            }
            other => return Err(format!("unknown argument {other} (usage: --seconds S)")),
        }
    }
    Ok(seconds)
}

fn main() -> ExitCode {
    let seconds = match parse_seconds() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "async_connections: 1 node, 2 workers, 20 us group window, one polling client thread, \
         {seconds} s per row ({} cpus)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:>5} {:>9} {:>7} {:>13} {:>13} {:>13} {:>11} {:>18}",
        "conns",
        "tps",
        "aborts",
        "open_txns_hwm",
        "parks/commit",
        "wakes/commit",
        "inline_runs",
        "timer_fires/commit"
    );
    let mut overlapped = true;
    let mut stale_timers = None;
    for conns in CONNECTIONS {
        let r = run(conns, Duration::from_secs_f64(seconds));
        let per_commit = |n: u64| n as f64 / r.commits_total.max(1) as f64;
        println!(
            "{:>5} {:>9.0} {:>7} {:>13} {:>13.2} {:>13.2} {:>11} {:>18.3}",
            r.conns,
            r.tps,
            r.aborts,
            r.open_txns_hwm,
            per_commit(r.parks),
            per_commit(r.wakes),
            r.inline_runs,
            per_commit(r.timer_fires)
        );
        if r.conns == 64 && r.open_txns_hwm <= 1 {
            overlapped = false;
        }
        if r.conns == 64 && per_commit(r.timer_fires) > TIMER_FIRES_PER_COMMIT_MAX {
            stale_timers = Some(per_commit(r.timer_fires));
        }
    }
    if let Some(fires) = stale_timers {
        eprintln!(
            "FAIL: {fires:.3} timer fires per commit at 64 connections \
             (limit {TIMER_FIRES_PER_COMMIT_MAX}): stale deadlines are being delivered as wakes"
        );
        return ExitCode::from(1);
    }
    if !overlapped {
        eprintln!("FAIL: 64 connections never had more than one transaction open");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
