//! `run`: every workload, each in a fresh child process. `aa`: the whole
//! benchmark in alternating sets on this same binary, to see whether two
//! sets of runs of identical code agree within the bounds.

use std::process::{Command, Stdio};

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::quartiles;
use crate::{flag_u64, RUN_SECONDS};

/// Run one workload in a child process; its report goes to our stdout as it
/// is produced. Returns the last line (the JSON result) on a zero exit.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        if !echo {
            print!("{stdout}");
        }
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_owned)
        .ok_or_else(|| format!("{workload} printed nothing"))
}

/// `"name": {"value": <number>` out of a result line this program printed.
fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `pmp-perf run [--seed N] [--seconds S] [--trace]`
pub fn run_all(args: &[String]) -> Result<bool, String> {
    let seed = flag_u64(args, "--seed", 1)?;
    let seconds = flag_u64(args, "--seconds", RUN_SECONDS)?;
    let trace = args.iter().any(|a| a == "--trace");
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            if let Err(e) = child_run(w.name, seed, seconds, traced, true) {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// `pmp-perf aa [--sets 2] [--runs N] [--seconds S] [--seed N]`
///
/// Run `r` of every set uses seed `seed + r`, and the sets take turns, so
/// drift of the host over the session lands on every set alike.
pub fn calibrate(args: &[String]) -> Result<bool, String> {
    let sets = flag_u64(args, "--sets", 2)? as usize;
    let runs = flag_u64(args, "--runs", 10)? as usize;
    let seconds = flag_u64(args, "--seconds", RUN_SECONDS)?;
    let seed = flag_u64(args, "--seed", 1)?;
    if sets < 2 || runs < 2 {
        return Err("aa needs --sets >= 2 and --runs >= 2".into());
    }
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()]; sets];
    let mut failed_runs = 0;
    for r in 0..runs {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (w, of_workload) in WORKLOADS.iter().zip(of_set.iter_mut()) {
                // A failed run is reported and left out; the session goes on.
                let line = match child_run(w.name, seed + r as u64, seconds, false, false) {
                    Ok(line) => line,
                    Err(e) => {
                        eprintln!("aa: {e}");
                        failed_runs += 1;
                        continue;
                    }
                };
                for (m, of_metric) in END_TO_END.iter().zip(of_workload.iter_mut()) {
                    let v = metric_value(&line, m.name)
                        .ok_or_else(|| format!("{}: no {} in {line}", w.name, m.name))?;
                    of_metric.push(v);
                }
                eprintln!("aa: run {}/{runs} set {set} {}: {line}", r + 1, w.name);
            }
        }
    }
    println!(
        "A/A: {sets} sets x {runs} runs x {seconds} s on one binary; spread = (q3 - q1) / median of a set, gap = worsening of the last set's median against the first's, both as a fraction of the bound. As in the acceptance rule, setup_s is held to its gap only, every other metric to both."
    );
    println!(
        "{:<16} {:<18} {:>6} {}  {:>11} {:>9}",
        "workload",
        "metric",
        "bound",
        (0..sets)
            .map(|s| format!("{:>34}", format!("set {s}: q1 / median / q3")))
            .collect::<String>(),
        "spread/bound",
        "gap/bound"
    );
    if failed_runs > 0 {
        println!("{failed_runs} runs failed and are missing from the table");
    }
    let mut within = failed_runs == 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let q: Vec<[f64; 3]> = values
                .iter()
                .map(|of_set| quartiles(&of_set[wi][mi]))
                .collect();
            let spread = q.iter().map(|q| (q[2] - q[0]) / q[1]).fold(0.0, f64::max);
            let (first, last) = (q[0][1], q[sets - 1][1]);
            let worse = if m.better == "lower" {
                last / first - 1.0
            } else {
                1.0 - last / first
            };
            // The acceptance rule exempts the spread of `setup_s`: it is one
            // number per run (a median of a few set-ups), not a median over
            // thousands of transactions.
            let spread_ok = m.name == "setup_s" || spread <= m.bound;
            within &= spread_ok && worse <= m.bound;
            println!(
                "{:<16} {:<18} {:>6} {}  {:>11.2} {:>9.2}{}",
                w.name,
                m.name,
                m.bound,
                q.iter()
                    .map(|q| format!("{:>34}", format!("{:.3} / {:.3} / {:.3}", q[0], q[1], q[2])))
                    .collect::<String>(),
                spread / m.bound,
                worse / m.bound,
                if spread_ok && worse <= m.bound {
                    ""
                } else {
                    "  <-- outside"
                }
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_parse_out_of_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"tps\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 2.25, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "tps"), Some(1234.5));
        assert_eq!(metric_value(line, "setup_s"), Some(2.25));
        assert_eq!(metric_value(line, "txn_p50_us"), None);
    }
}
