//! The benchmark's workload and end-to-end metric tables: the one place their
//! names, units, directions and bounds are written down (the per-layer table
//! is `layers::PER_LAYER`). A unit test holds `BENCHMARK.json` to them.

pub struct Workload {
    pub name: &'static str,
    /// Read by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rw_shared",
        why: "sysbench read-write, half the selects and updates on tables both nodes write, fits the LBP, 3 PMFS replicas: PLock hand-offs, DBP moves, fabric verbs and the replication fan-out do the work",
    },
    Workload {
        name: "ro_local",
        why: "sysbench read-only on private tables that fit the LBP: B-tree, LBP hit path and version store do all the work, so fabric, commit and storage changes must not move it",
    },
    Workload {
        name: "wo_cold",
        why: "sysbench write-only on compressed private tables 7x the DBP, whose evictions keep invalidating LBP frames: storage reads via the io ring, write-back, codec, WAL bytes; then node 1 crashes and recovers",
    },
    Workload {
        name: "rw_shared_async",
        why: "rw_shared with the same seed and sizes through AsyncSession futures: every wait goes through scheduler park and wake, so the gap to rw_shared is the scheduler and session cost",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// In the order `main` computes them.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "tps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_commit",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use std::collections::HashSet;

    /// What `BENCHMARK.json` at the root of the repository must hold.
    fn benchmark_json() -> String {
        let run_seconds = crate::RUN_SECONDS;
        // One JSON object per line, comma-separated, as the body of an array.
        fn rows(objects: Vec<String>) -> String {
            objects
                .iter()
                .map(|o| format!("    {o}"))
                .collect::<Vec<_>>()
                .join(",\n")
        }
        let workloads = rows(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect(),
        );
        let end_to_end = rows(
            END_TO_END
                .iter()
                .map(|e| {
                    format!(
                        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                        e.name, e.unit, e.better, e.bound
                    )
                })
                .collect(),
        );
        let per_layer = rows(
            PER_LAYER
                .iter()
                .map(|p| {
                    format!(
                        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                        p.name, p.unit, p.better
                    )
                })
                .collect(),
        );
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
        )
    }

    fn name_ok(n: &str) -> bool {
        let mut chars = n.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for e in &END_TO_END {
            assert!(name_ok(e.name) && unit_ok(e.unit) && seen.insert(e.name));
            assert!(e.bound > 0.0 && e.bound <= 0.25);
            assert!(matches!(e.better, "lower" | "higher"));
        }
        for p in &PER_LAYER {
            assert!(name_ok(p.name) && unit_ok(p.unit), "{}", p.name);
            assert!(seen.insert(p.name), "duplicate {}", p.name);
            assert!(matches!(p.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let max = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, max, "setup_s carries the largest bound");
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!((1..=60).contains(&crate::RUN_SECONDS));
        let expected = benchmark_json();
        assert!(
            committed == expected,
            "BENCHMARK.json does not match the tables; it must read:\n{expected}"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
