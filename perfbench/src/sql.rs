//! `sql_skyline`: `GROUP BY … SKYLINE OF … GAMMA γ` on a static table.

use crate::gen;
use crate::oracle::{check, Counts};
use crate::report::{peak_rss_mb, timed, Kind, Run, Samples};
use crate::{for_seconds, Params};
use aggsky::sql::{QueryResult, SqlError};
use aggsky::{Database, Gamma};
use std::collections::BTreeSet;

/// Creates and loads `t` from the seed; exits on a load error, since no
/// workload can run without its table.
pub fn load(p: &Params) -> (Vec<gen::Group>, Database) {
    let groups = gen::dataset(p.size.table_rows, p.seed);
    let mut db = Database::new();
    for stmt in gen::sql_load_script(&groups) {
        if let Err(e) = db.execute(&stmt) {
            eprintln!("perfbench: loading the table failed: {e}");
            std::process::exit(1);
        }
    }
    (groups, db)
}

/// The labels of a one-column result.
pub fn labels(result: &QueryResult) -> Vec<String> {
    result.rows.iter().map(|row| row.first().map(ToString::to_string).unwrap_or_default()).collect()
}

/// Checks one reply against the oracle's skyline.
pub fn check_reply(
    reply: &Result<QueryResult, SqlError>,
    want: &BTreeSet<String>,
) -> Result<(), String> {
    let result = reply.as_ref().map_err(|e| format!("error: {e}"))?;
    if let Some(i) = &result.interrupted {
        return Err(format!("interrupted: {i:?}"));
    }
    check(&labels(result), want)
}

/// A seeded γ as SQL text and as the oracle's `Gamma`.
pub fn next_gamma(gammas: &mut gen::Gammas) -> (String, Gamma) {
    let text = gammas.next_text();
    let gamma = Gamma::new(text.parse().expect("gamma text is a number")).expect("gamma in range");
    (text, gamma)
}

/// Per-statement journal counts of the selects at `indices`.
pub struct JournalCounts {
    pub ticks: Samples,
    pub rows_scanned: f64,
    pub groups_built: f64,
    pub hit_ratio: f64,
    pub kernel: String,
    pub records: usize,
}

pub fn journal_counts(db: &Database, indices: &[usize]) -> JournalCounts {
    let records = db.journal().records();
    let picked: Vec<_> = indices.iter().filter_map(|&i| records.get(i)).collect();
    let hits: u64 = picked.iter().map(|r| r.cache_hits).sum();
    let lookups: u64 = picked.iter().map(|r| r.cache_hits + r.cache_misses).sum();
    let median = |f: &dyn Fn(&aggsky::core::obs::QueryRecord) -> u64| {
        Samples(picked.iter().map(|r| f(r) as f64).collect()).p50()
    };
    JournalCounts {
        ticks: Samples(picked.iter().map(|r| r.ticks as f64).collect()),
        rows_scanned: median(&|r| r.rows_scanned),
        groups_built: median(&|r| r.groups_built),
        hit_ratio: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        kernel: picked.first().map(|r| r.kernel.clone()).unwrap_or_default(),
        records: records.len(),
    }
}

pub fn run(p: &Params) -> Run {
    let mut run = Run::default();
    let mut setup = Samples::default();
    let mut loaded = None;
    for _ in 0..p.size.setups {
        let (state, ms) = timed(|| load(p));
        setup.push(ms);
        loaded = Some(state);
    }
    let (groups, mut db) = loaded.expect("at least one set-up ran");
    let counts = Counts::exhaustive(&groups);
    let mut gammas = gen::Gammas::new(p.seed);

    let (text, gamma) = next_gamma(&mut gammas);
    let at = db.journal().len();
    let warm = db.execute(&gen::skyline_sql(&text));
    run.outcome(&format!("warm-up GAMMA {text}"), check_reply(&warm, &counts.skyline(gamma)));
    let kernel = journal_counts(&db, &[at]).kernel;
    run.lines.push(format!("kernel sql journal_kernel=\"{kernel}\""));

    let mut lat = Samples::default();
    for_seconds(p.untraced_seconds(), p.size.min_ops, || {
        let (text, gamma) = next_gamma(&mut gammas);
        let stmt = gen::skyline_sql(&text);
        let (reply, ms) = timed(|| db.execute(&stmt));
        lat.push(ms);
        run.outcome(&stmt, check_reply(&reply, &counts.skyline(gamma)));
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
        traced(p, &mut run, &mut db, &counts, &mut gammas, &lat);
    }
    run
}

/// The traced half: parse, plan and scan+aggregate timed alone next to the
/// full statement, with journal wall times on.
fn traced(
    p: &Params,
    run: &mut Run,
    db: &mut Database,
    counts: &Counts,
    gammas: &mut gen::Gammas,
    untraced: &Samples,
) {
    db.set_record_wall_time(true);
    let present = counts.present();
    let [mut parse_us, mut plan_us, mut scan_ms, mut sky_ms, mut full_ms] =
        std::array::from_fn(|_| Samples::default());
    let mut selects = Vec::new();
    for_seconds(p.seconds / 2.0, 1, || {
        let (text, gamma) = next_gamma(gammas);
        let stmt = gen::skyline_sql(&text);
        let (parsed, t_parse) = timed(|| aggsky::sql::parse(&stmt));
        run.outcome("parse", parsed.map(|_| ()).map_err(|e| e.to_string()));
        let (plan, t_explain) = timed(|| db.explain(&stmt));
        run.outcome("explain", plan.map(|_| ()).map_err(|e| e.to_string()));
        let (scan, t_scan) = timed(|| db.execute(gen::SCAN_AGG_SQL));
        run.outcome(gen::SCAN_AGG_SQL, check_reply(&scan, &present));
        selects.push(db.journal().len());
        let (reply, t_full) = timed(|| db.execute(&stmt));
        run.outcome(&stmt, check_reply(&reply, &counts.skyline(gamma)));
        parse_us.push(t_parse * 1e3);
        plan_us.push((t_explain - t_parse) * 1e3);
        scan_ms.push(t_scan);
        sky_ms.push(t_full - t_scan);
        full_ms.push(t_full);
    });
    let j = journal_counts(db, &selects);
    read_layers(run, &scan_ms, &sky_ms, &j);
    run.layer("sql.parser.parse_us", parse_us.p50(), Kind::Timing, "aggsky_sql::parse");
    run.layer("sql.plan_us", plan_us.p50(), Kind::Derived, "Database::explain - parse");
    run.layer("obs.journal_records", j.records as f64, Kind::Exact, "statements journaled");
    run.layer(
        "trace_overhead",
        full_ms.p50() / untraced.p50(),
        Kind::Derived,
        "traced / untraced SELECT p50",
    );
}

/// The layers every traced skyline read reports, on either SQL workload.
pub fn read_layers(run: &mut Run, scan_ms: &Samples, sky_ms: &Samples, j: &JournalCounts) {
    let n = j.ticks.len();
    let per_pair = Samples(sky_ms.0.iter().zip(&j.ticks.0).map(|(ms, t)| ms * 1e6 / t).collect());
    run.layer(
        "sql.exec.scan_agg_ms",
        scan_ms.p50(),
        Kind::Timing,
        format!("{}; {n} reads", gen::SCAN_AGG_SQL),
    );
    run.layer("sql.exec.skyline_ms", sky_ms.p50(), Kind::Derived, "SELECT - scan_agg, per read");
    run.layer("sql.exec.rows_scanned", j.rows_scanned, Kind::Exact, "journal, median per read");
    run.layer("sql.exec.groups_built", j.groups_built, Kind::Exact, "journal, median per read");
    run.layer(
        "core.kernel.record_pairs",
        j.ticks.p50(),
        Kind::Exact,
        format!("journal ticks, median of {n} reads at seeded gamma; kernel={}", j.kernel),
    );
    run.layer(
        "core.kernel.ns_per_record_pair",
        per_pair.p50(),
        Kind::Derived,
        "skyline_ms / ticks, per read",
    );
    run.layer(
        "core.paircache.hit_ratio",
        j.hit_ratio,
        Kind::Exact,
        "journal hits / (hits + misses)",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggsky::sql::Value;

    #[test]
    fn a_flipped_label_counts_as_failed() {
        let want: BTreeSet<String> = ["class1", "class4"].iter().map(|s| s.to_string()).collect();
        let reply = |labels: &[&str]| -> Result<QueryResult, SqlError> {
            Ok(QueryResult {
                columns: vec!["g".into()],
                rows: labels.iter().map(|l| vec![Value::Str(l.to_string())]).collect(),
                interrupted: None,
            })
        };
        let mut run = Run::default();
        run.outcome("real", check_reply(&reply(&["class4", "class1"]), &want));
        run.outcome("flipped", check_reply(&reply(&["class4", "class2"]), &want));
        assert_eq!((run.attempted, run.failed), (2, 1));
    }
}
