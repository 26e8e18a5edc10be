//! Benchmark of record for the PolarDB-MP reproduction. See `README.md`.
//!
//! ```text
//! pmp-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON result line
//! pmp-perf run [--seed N] [--seconds S] [--trace]                     every workload, each in a child process
//! pmp-perf aa [--sets 2] [--runs N] [--seconds S] [--seed N]          A/A calibration of the bounds
//! ```

mod aa;
mod gen;
mod harness;
mod layers;
mod metrics;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{
    crash_and_recover, gated_slices, run_window, setup, verify_tables, SliceStat, SETUPS,
};
use layers::PER_LAYER;
use metrics::{END_TO_END, WORKLOADS};
use stats::{median, percentile_sorted, ratio};

/// The window length `BENCHMARK.json` asks the driver to pass.
pub const RUN_SECONDS: u64 = 20;

/// The value following `--name` in `args`, if present.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn flag_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} wants a whole number, got {v:?}")),
    }
}

struct RunArgs {
    workload: workload::WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seconds = flag_u64(args, "--seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace wants 0 or 1, got {v:?}")),
    };
    if trace && seconds < 2 {
        return Err("--trace 1 needs --seconds >= 2 (one untraced and one traced slice)".into());
    }
    Ok(RunArgs {
        workload,
        seed: flag_u64(args, "--seed", 1)?,
        seconds,
        trace,
    })
}

/// Format one result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_one(args: &RunArgs) -> Result<bool, String> {
    let def = &args.workload;
    let layout = def.layout;
    println!(
        "workload {} seed {} seconds {} trace {} | nproc/available_parallelism {} | {} nodes, {} closed-loop clients ({})",
        def.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, usize::from),
        workload::NODES,
        workload::NODES,
        if def.async_clients { "AsyncSession" } else { "Session" },
    );

    let timed_setup = || {
        let start = Instant::now();
        let loaded = setup(def).map_err(|e| format!("set-up failed: {e}"))?;
        let s = start.elapsed().as_secs_f64();
        println!("set-up: {s:.3} s");
        Ok::<_, String>((loaded, s))
    };
    let (loaded, first_setup_s) = timed_setup()?;
    let mut setup_s = vec![first_setup_s];
    let shared = loaded.cluster.shared();

    let mut problems: Vec<String> = Vec::new();
    // Page ids are handed out densely from 0, so the next id is the number
    // of pages the load created.
    let pages = shared.storage.page_store().allocate_page_id().0;
    let (lbp, dbp) = (
        def.config.engine.lbp_capacity as u64,
        def.config.dbp_capacity as u64,
    );
    println!(
        "sizes: {} tables x {} rows x {} columns = {} rows in {} pages | lbp_capacity {} pages/node, dbp_capacity {} pages, replicas {}, compression {:?}",
        layout.table_count(),
        layout.rows_per_table,
        def.columns,
        layout.table_count() as u64 * layout.rows_per_table,
        pages,
        lbp,
        dbp,
        def.config.replicas,
        def.config.compression.compression,
    );
    // A node works on its private group and, where there is one, the
    // shared group: its pages must fit the LBP on every workload, and the
    // cold workload's data must be at least four times the DBP.
    let node_pages = pages * (1 + layout.shared_group as u64) / layout.group_count() as u64;
    if node_pages > lbp {
        problems.push(format!(
            "{node_pages} pages per node do not fit lbp_capacity {lbp}"
        ));
    }
    if def.crash_recover && pages < 4 * dbp {
        problems.push(format!(
            "cold workload is not cold: {pages} pages against dbp_capacity {dbp}"
        ));
    }

    let mut window = run_window(def, &loaded, args.seed, args.seconds, args.trace);

    let recovery = if def.crash_recover {
        let r = crash_and_recover(&loaded, &mut window.clients[1])
            .map_err(|e| format!("recovery failed: {e}"))?;
        if r.tail_failed > 0 {
            problems.push(format!(
                "{} transactions of the crash tail failed",
                r.tail_failed
            ));
        }
        Some(r)
    } else {
        None
    };

    pmp_rdma::set_latency_enabled(false);
    let report = verify_tables(def, &loaded, &window.clients);
    pmp_rdma::set_latency_enabled(true);
    problems.extend(report.problems.iter().cloned());
    // A transaction whose acked write is gone has failed, and the run with it.
    let lost = report.private_mismatched + report.shared_mismatched;
    for m in &report.mismatches {
        println!("lost acked write: {m}");
    }
    if lost > 0 {
        problems.push(format!(
            "{} private and {} shared rows do not hold their last acked write",
            report.private_mismatched, report.shared_mismatched
        ));
    }

    let attempted = window.sum(|c| c.attempted);
    let committed = window.sum(|c| c.committed);
    let failed = window.sum(|c| c.failed) + lost;
    let wrong = window.sum(|c| c.wrong_outputs);
    let dropped = window.sum(|c| c.samples_dropped);
    if wrong > 0 {
        problems.push(format!(
            "{wrong} statements returned rows that contradict the loaded data"
        ));
    }
    if dropped > 0 {
        problems.push(format!(
            "{dropped} latency samples did not fit the pre-allocated buffers"
        ));
    }
    if committed == 0 {
        problems.push("no transaction committed inside the window".into());
    }
    for c in &window.clients {
        if let Some(e) = &c.first_error {
            println!("client {}: first failed transaction: {e}", c.id);
        }
    }
    println!(
        "window: attempted {attempted} committed {committed} failed {failed} retried executions {} | verified {} rows, {lost} lost acked writes",
        window.sum(|c| c.executions) - attempted,
        report.rows_checked,
    );
    let slices = window.slice_stats();
    println!("per {} s slice:", harness::SLICE.as_secs());
    println!(
        "  commits           {:?}",
        slices.iter().map(|s| s.commits).collect::<Vec<_>>()
    );
    println!(
        "  txn_p50_us        {:?}",
        slices.iter().map(|s| s.p50_us.round()).collect::<Vec<_>>()
    );
    println!(
        "  txn_p95_us        {:?}",
        slices.iter().map(|s| s.p95_us.round()).collect::<Vec<_>>()
    );
    println!(
        "  cpu_us_per_commit {:?}",
        slices
            .iter()
            .map(|s| s.cpu_us_per_commit.round())
            .collect::<Vec<_>>()
    );
    println!(
        "  host_steal_ms     {:?}",
        slices.iter().map(|s| s.steal_ms).collect::<Vec<_>>()
    );
    if let Some(r) = &recovery {
        println!(
            "recovery of node 1 after a tail of {} transactions: {:.3} ms, {} records scanned, {} acked writes missing",
            harness::CRASH_TAIL_TXNS, r.wall_ms, r.stats.records_scanned, report.node1_mismatched
        );
    }

    let lat = window.sorted_latencies();
    let cpu_ns = window.cpu_ns[window.plan.slices] - window.cpu_ns[0];
    println!(
        "whole window: {:.1} commits/s, p50 {:.3} us, p95 {:.3} us, {:.3} cpu us per commit",
        committed as f64 / args.seconds as f64,
        percentile_sorted(&lat, 0.50) as f64 / 1e3,
        percentile_sorted(&lat, 0.95) as f64 / 1e3,
        ratio(cpu_ns as f64 / 1e3, committed as f64),
    );
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let ctx = layers::Ctx::new(
            &loaded.cluster,
            &window,
            &slices,
            &lat,
            recovery.as_ref(),
            report.node1_mismatched,
        );
        let path = PathBuf::from("perf/out").join(format!("trace-{}.jsonl", def.name));
        match window.trace().write_jsonl(&path) {
            Ok(n) => println!("trace: {n} spans written to {}", path.display()),
            Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
        }
        PER_LAYER
            .iter()
            .map(|p| (p.name, p.unit, (p.value)(&ctx)))
            .collect()
    } else {
        // The other set-ups come after everything that used the measured
        // cluster, so `peak_rss_mb` (read when the window closed) is one
        // cluster's footprint and the set-ups are spread over the run.
        drop(loaded);
        for _ in 1..SETUPS {
            setup_s.push(timed_setup()?.1);
        }
        // Each timed metric is the median over the window's quiet
        // one-second slices of that slice's value: what a typical second on
        // an undisturbed host did, which a few bad seconds do not move and
        // any sustained change does. A second that committed nothing has a
        // rate of 0 and no times.
        let gated = gated_slices(&slices);
        println!(
            "the timed metrics are medians over {} of {} slices (the quiet ones; all, if fewer than {} are quiet)",
            gated.len(),
            slices.len(),
            harness::MIN_QUIET_SLICES
        );
        let busy: Vec<&SliceStat> = gated.iter().copied().filter(|s| s.commits > 0).collect();
        let typical = |value: fn(&SliceStat) -> f64| {
            median(&busy.iter().map(|s| value(s)).collect::<Vec<f64>>())
        };
        let end_to_end = [
            median(&gated.iter().map(|s| s.tps).collect::<Vec<f64>>()),
            typical(|s| s.p50_us),
            typical(|s| s.p95_us),
            typical(|s| s.cpu_us_per_commit),
            window.peak_rss_mb,
            median(&setup_s),
        ];
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(e, v)| (e.name, e.unit, v))
            .collect()
    };

    for (name, unit, value) in &metrics {
        println!("{name} {value} {unit}");
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    Ok(correct)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  pmp-perf --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>\n  pmp-perf run [--seed N] [--seconds S] [--trace]\n  pmp-perf aa [--sets 2] [--runs N] [--seconds S] [--seed N]",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => aa::run_all(&args[1..]),
        Some("aa") => aa::calibrate(&args[1..]),
        Some(a) if a.starts_with("--") && a != "--help" => {
            parse_run_args(&args).and_then(|a| run_one(&a))
        }
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
