//! `cli_parallel`: in-process `aggsky skyline --threads 2` over a CSV file.

use crate::gen;
use crate::oracle::{check, cli_algorithm, cli_labels, Counts};
use crate::report::{peak_rss_mb, timed, Kind, Run, Samples};
use crate::{for_seconds, Params};
use aggsky::cli::run_command;
use aggsky::core::obs::{Hist, Recorder, TraceRecorder};
use aggsky::core::{parallel_skyline_ctx, KernelConfig, PreparedDataset};
use aggsky::datagen::parse_grouped_csv;
use aggsky::{Direction, Gamma, GroupedDataset, RunContext, SkylineResult};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Workers of the CLI run (= `nproc` of the reference host).
const WORKERS: usize = 2;

fn cli_args(csv: &Path, metrics: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = ["skyline", "--csv", &csv.to_string_lossy(), "--group", "class"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(["--threads".to_string(), WORKERS.to_string()]);
    if let Some(m) = metrics {
        args.extend(["--metrics".to_string(), m.to_string_lossy().into_owned()]);
    }
    args
}

/// Checks one CLI reply against the oracle's skyline.
pub fn check_reply(reply: &Result<String, String>, want: &BTreeSet<String>) -> Result<(), String> {
    let out = reply.as_ref().map_err(|e| format!("error: {e}"))?;
    let labels = cli_labels(out).ok_or("no complete skyline in the output")?;
    check(&labels, want)
}

fn check_result(
    ds: &GroupedDataset,
    result: &SkylineResult,
    want: &BTreeSet<String>,
) -> Result<(), String> {
    let labels: Vec<String> =
        ds.sorted_labels(&result.skyline).iter().map(|s| s.to_string()).collect();
    check(&labels, want)
}

/// One counter of a Prometheus text export.
fn prom(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (key, value) = l.split_once(' ')?;
        if key == name {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

pub fn run(p: &Params) -> Run {
    let mut run = Run::default();
    let csv = p.file("cli.csv");
    let mut setup = Samples::default();
    let mut groups = Vec::new();
    for _ in 0..p.size.setups {
        let ((), ms) = timed(|| {
            groups = gen::dataset(p.size.cli_records, p.seed);
            std::fs::write(&csv, gen::csv_text(&groups)).expect("the CSV file can be written");
        });
        setup.push(ms);
    }
    let gamma = Gamma::DEFAULT;
    let want = Counts::exhaustive(&groups).skyline(gamma);
    let args = cli_args(&csv, None);

    let warm = run_command(&args);
    run.outcome("warm-up skyline", check_reply(&warm, &want));
    let algorithm = warm.as_ref().ok().and_then(|o| cli_algorithm(o)).unwrap_or_default();
    run.lines
        .push(format!("kernel cli algorithm=\"{algorithm}\" config={:?}", KernelConfig::blocked()));

    let mut lat = Samples::default();
    for_seconds(p.untraced_seconds(), p.size.min_ops, || {
        let (reply, ms) = timed(|| run_command(&args));
        lat.push(ms);
        run.outcome("skyline", check_reply(&reply, &want));
    });
    let rss = peak_rss_mb();

    let n = lat.len() as f64;
    run.e2e("setup_s", setup.p50() / 1e3, format!("median of {} set-ups", setup.len()));
    run.e2e("peak_rss_mb", rss, "VmHWM");
    run.e2e("ops_per_s", n / (lat.sum() / 1e3), format!("n={n}"));
    run.e2e("query_ms_p50", lat.p50(), format!("n={n}"));
    run.e2e("op_ms_p50", lat.p50(), format!("n={n}; every op is a query"));
    run.extra("queries_per_s", Some(n / (lat.sum() / 1e3)), "1/s", &format!("n={n}"));
    run.extra("query_ms_p50", Some(lat.p50()), "ms", &format!("n={n}"));
    run.extra("query_ms_p90", lat.p90(), "ms", &format!("n={n}; reported from 100 samples"));

    if p.trace {
        traced(p, &mut run, &csv, &want, &lat);
    }
    let _ = std::fs::remove_file(&csv);
    run
}

/// The traced half: the CLI with `--metrics`, then each layer called alone.
fn traced(p: &Params, run: &mut Run, csv: &Path, want: &BTreeSet<String>, untraced: &Samples) {
    let gamma = Gamma::DEFAULT;
    let metrics = p.file("cli.prom");
    let args = cli_args(csv, Some(&metrics));
    let dirs = vec![Direction::Max; gen::DIM];
    let unlimited = RunContext::unlimited();
    let [mut cli_ms, mut parse_ms, mut build_ms, mut run1, mut run2, mut pairs_2w] =
        std::array::from_fn(|_| Samples::default());
    let mut retries = 0.0;
    let mut stats_1w = Vec::new();
    let mut last_ds = None;
    for_seconds(p.seconds / 2.0, 1, || {
        let (reply, ms) = timed(|| run_command(&args));
        cli_ms.push(ms);
        run.outcome("traced skyline", check_reply(&reply, want));
        let text = std::fs::read_to_string(&metrics).unwrap_or_default();
        if let Some(v) = prom(&text, "aggsky_record_pairs_total") {
            pairs_2w.push(v);
        }
        retries += prom(&text, "aggsky_worker_retries_total").unwrap_or(0.0);

        let (ds, ms) = timed(|| {
            let text = std::fs::read_to_string(csv).expect("the CSV file is readable");
            parse_grouped_csv(&text, "class", Some(&dirs)).expect("the CSV file parses")
        });
        parse_ms.push(ms);
        let (_, ms) = timed(|| PreparedDataset::build(&ds, PreparedDataset::DEFAULT_BLOCK_SIZE));
        build_ms.push(ms);
        for (workers, samples) in [(WORKERS, &mut run2), (1, &mut run1)] {
            let (outcome, ms) = timed(|| {
                parallel_skyline_ctx(&ds, gamma, workers, KernelConfig::blocked(), &unlimited)
            });
            samples.push(ms);
            let result = outcome.map_err(|e| e.to_string()).map(|o| o.unwrap_or_partial());
            run.outcome(
                &format!("parallel_skyline_ctx({workers}w)"),
                result.as_ref().map_err(Clone::clone).and_then(|r| check_result(&ds, r, want)),
            );
            if let (1, Ok(r)) = (workers, &result) {
                stats_1w.push(r.stats);
            }
        }
        last_ds = Some(ds);
    });
    let _ = std::fs::remove_file(&metrics);

    // Block pairs visited, from the scheduler's own histogram: one more
    // 1-worker run with a recorder attached, outside every timing.
    let ds = last_ds.expect("at least one traced iteration ran");
    let rec = Arc::new(TraceRecorder::new());
    let ctx = RunContext::unlimited().with_recorder(rec.clone() as Arc<dyn Recorder>);
    let _ = parallel_skyline_ctx(&ds, gamma, 1, KernelConfig::blocked(), &ctx);
    let block_pairs = rec.snapshot().metrics.hist(Hist::BatchBlockPairs).sum as f64;

    let iters = format!("median of {} traced iterations", cli_ms.len());
    run.layer("cli.run_ms", cli_ms.p50(), Kind::Timing, format!("{iters}; with --metrics"));
    run.layer(
        "datagen.csv.parse_ms",
        parse_ms.p50(),
        Kind::Timing,
        "read_to_string + parse_grouped_csv",
    );
    run.layer("core.prepared.build_ms", build_ms.p50(), Kind::Timing, "PreparedDataset::build");
    let blocked = "parallel_skyline_ctx, blocked kernel";
    run.layer("core.parallel.run_ms_2w", run2.p50(), Kind::Timing, blocked);
    run.layer("core.parallel.run_ms_1w", run1.p50(), Kind::Timing, blocked);
    run.layer(
        "core.parallel.speedup_2w",
        run1.p50() / run2.p50(),
        Kind::Derived,
        "run_ms_1w / run_ms_2w",
    );
    run.layer(
        "cli.unattributed_ms",
        untraced.p50() - parse_ms.p50() - run2.p50(),
        Kind::Derived,
        "untraced cli p50 - parse_ms - run_ms_2w",
    );

    let s1 = stats_1w.first().copied().unwrap_or_default();
    let repeat = if stats_1w.iter().all(|s| *s == s1) { Kind::Exact } else { Kind::Varying };
    let pairs_1w = s1.record_pairs as f64;
    run.layer(
        "core.parallel.record_pairs_2w",
        pairs_2w.p50(),
        Kind::Varying,
        format!(
            "median of {} --metrics exports, range {}..{}",
            pairs_2w.len(),
            pairs_2w.min(),
            pairs_2w.max()
        ),
    );
    run.layer(
        "core.parallel.record_pairs_2w_spread",
        (pairs_2w.max() - pairs_2w.min()) / pairs_2w.p50(),
        Kind::Derived,
        "(max - min) / median",
    );
    run.layer(
        "core.parallel.pair_inflation_2w",
        pairs_2w.p50() / pairs_1w,
        Kind::Derived,
        "2w / 1w record pairs",
    );
    run.layer("core.parallel.worker_retries", retries, Kind::Exact, "sum over --metrics exports");
    run.layer("core.kernel.record_pairs", pairs_1w, repeat, "1 worker");
    run.layer("core.kernel.records_compared", s1.records_compared as f64, repeat, "1 worker");
    run.layer(
        "core.kernel.block_skip_ratio",
        s1.blocks_skipped as f64 / block_pairs,
        repeat,
        format!("{} skipped of {block_pairs} block pairs, 1 worker", s1.blocks_skipped),
    );
    run.layer(
        "core.kernel.ns_per_record_compared",
        run1.p50() * 1e6 / s1.records_compared as f64,
        Kind::Derived,
        "run_ms_1w / records_compared",
    );
    run.layer(
        "trace_overhead",
        cli_ms.p50() / untraced.p50(),
        Kind::Derived,
        "traced / untraced cli p50",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_label_counts_as_failed() {
        let dir = std::env::temp_dir().join(format!("perfbench-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let groups = gen::dataset(2_000, 4);
        let csv = dir.join("flip.csv");
        std::fs::write(&csv, gen::csv_text(&groups)).unwrap();
        let want = Counts::exhaustive(&groups).skyline(Gamma::DEFAULT);
        let reply = run_command(&cli_args(&csv, None));
        let _ = std::fs::remove_dir_all(&dir);

        let mut run = Run::default();
        run.outcome("real", check_reply(&reply, &want));
        let out = reply.unwrap();
        let member = want.iter().next().unwrap();
        let outsider = groups.iter().map(|g| &g.label).find(|l| !want.contains(*l)).unwrap();
        let flipped = out.replacen(&format!("  {member}\n"), &format!("  {outsider}\n"), 1);
        assert_ne!(flipped, out);
        run.outcome("flipped", check_reply(&Ok(flipped), &want));
        run.outcome("error", check_reply(&Err("boom".into()), &want));
        assert_eq!((run.attempted, run.failed), (3, 2));
    }
}
