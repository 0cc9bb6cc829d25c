//! CLI differential suite: the `aggsky skyline` binary, on seeded CSV
//! files, must print exactly the skyline labels of `Algorithm::Naive` —
//! sequentially (`IN` on the exhaustive kernel) and through the parallel
//! scheduler on the blocked kernel at 1 and 2 workers, each with the AVX2
//! dispatch left to the CPU and with `AGGSKY_FORCE_SCALAR=1`. The summary
//! line must name the kernel that ran.

use aggsky::core::cpu;
use aggsky::datagen::{
    parse_grouped_csv, to_grouped_csv, CsvError, Distribution, GroupSizes, SyntheticConfig,
};
use aggsky::{Algorithm, Gamma};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seeded workloads: every distribution, uniform and Zipf group sizes.
fn workloads() -> Vec<(String, SyntheticConfig)> {
    let mut out = Vec::new();
    for (i, dist) in
        [Distribution::AntiCorrelated, Distribution::Independent, Distribution::Correlated]
            .into_iter()
            .enumerate()
    {
        for (sizes, tag) in [(GroupSizes::Uniform, "uniform"), (GroupSizes::Zipf(1.2), "zipf")] {
            let seed = 900 + i as u64;
            let cfg = SyntheticConfig {
                n_records: 1_200,
                n_groups: 24,
                dim: 3 + i,
                spread: 0.4,
                group_sizes: sizes,
                seed,
                ..SyntheticConfig::paper_default(dist)
            };
            out.push((format!("{dist:?}-{tag}-seed{seed}"), cfg));
        }
    }
    out
}

/// The labels printed under `aggregate skyline (…)` by a complete run.
fn printed_labels(out: &str) -> Vec<String> {
    out.lines()
        .skip_while(|l| !l.starts_with("aggregate skyline ("))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.trim().to_string())
        .collect()
}

fn run_cli(csv: &Path, gamma: f64, threads: Option<&str>, force_scalar: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_aggsky"));
    cmd.args(["skyline", "--csv"]).arg(csv).args(["--group", "class"]);
    cmd.args(["--gamma", &gamma.to_string()]);
    if let Some(t) = threads {
        cmd.args(["--threads", t]);
    }
    if force_scalar {
        cmd.env("AGGSKY_FORCE_SCALAR", "1");
    } else {
        cmd.env_remove("AGGSKY_FORCE_SCALAR");
    }
    let out = cmd.output().expect("the aggsky binary runs");
    assert!(out.status.success(), "aggsky failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggsky-cli-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn cli_skyline_matches_naive_on_every_kernel_path() -> Result<(), CsvError> {
    let dir = scratch_dir();
    for (name, cfg) in workloads() {
        let ds = cfg.generate();
        let columns: Vec<String> = (0..ds.dim()).map(|d| format!("d{d}")).collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        let text = to_grouped_csv(&ds, "class", &columns);
        let csv = dir.join(format!("{name}.csv"));
        std::fs::write(&csv, &text).expect("write CSV");
        // The oracle reads the same file the binary reads.
        let parsed = parse_grouped_csv(&text, "class", None)?;
        for gamma in [0.5, 0.7] {
            let oracle = parsed
                .sorted_labels(&Algorithm::Naive.run(&parsed, Gamma::new(gamma).unwrap()).skyline);
            for threads in [None, Some("1"), Some("2")] {
                for force_scalar in [false, true] {
                    let out = run_cli(&csv, gamma, threads, force_scalar);
                    let tag = format!("{name} γ={gamma} threads={threads:?} scalar={force_scalar}");
                    assert_eq!(printed_labels(&out), oracle, "{tag}\n{out}");
                    let first = out.lines().next().unwrap_or_default();
                    let kernel = match threads {
                        None => "exhaustive",
                        Some(_) if !force_scalar && cpu::avx2_available() => "blocked/avx2",
                        Some(_) => "blocked/scalar",
                    };
                    let algorithm = match threads {
                        None => format!("algorithm = IN({kernel})"),
                        Some(t) => format!("algorithm = PAR({t} threads, {kernel})"),
                    };
                    assert!(first.ends_with(&algorithm), "{tag}: {first}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
