//! End-to-end and per-layer benchmark of the aggsky CLI, SQL and
//! served-table paths. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli_parallel|sql_skyline|served_table --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod cli;
mod gen;
mod oracle;
mod report;
mod served;
mod sql;

use std::path::PathBuf;
use std::time::Instant;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Records in the CLI workload's CSV file.
    pub cli_records: usize,
    /// Rows of the SQL table `t`.
    pub table_rows: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Least number of measured operations per phase, however short.
    pub min_ops: usize,
}

impl Size {
    pub const FULL: Size = Size { cli_records: 30_000, table_rows: 12_000, setups: 5, min_ops: 5 };
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Directory for the files a run writes (created and removed by it).
    pub work_dir: PathBuf,
}

impl Params {
    /// Seconds of the untraced loop: all of them, or half in a traced run.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// A file for this run inside the work directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.work_dir.join(format!("{name}-{}-{}", self.seed, std::process::id()))
    }
}

/// Calls `op` until `seconds` have passed and at least `min_ops` calls ran.
pub fn for_seconds(seconds: f64, min_ops: usize, mut op: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_ops || start.elapsed().as_secs_f64() < seconds {
        op();
        n += 1;
    }
}

const WORKLOADS: &[&str] = &["cli_parallel", "sql_skyline", "served_table"];

fn parse_args(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {WORKLOADS:?})"));
    }
    let params = Params {
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        size: Size::FULL,
        work_dir: PathBuf::from(".perfbench_work"),
    };
    Ok((workload, params))
}

/// Runs one workload; the work directory is removed afterwards when empty.
pub fn run_workload(workload: &str, params: &Params) -> report::Run {
    std::fs::create_dir_all(&params.work_dir).expect("the work directory can be created");
    let mut run = match workload {
        "cli_parallel" => cli::run(params),
        "sql_skyline" => sql::run(params),
        "served_table" => served::run(params),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir(&params.work_dir);
    run.lines.insert(0, report::host_line(workload, params.seed));
    run
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, params) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for line in run_workload(&workload, &params).render(params.trace) {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, LAYERS};

    const TINY: Size = Size { cli_records: 2_000, table_rows: 1_200, setups: 2, min_ops: 3 };

    fn tiny(seed: u64, trace: bool, dir: &str) -> Params {
        Params {
            seed,
            seconds: 0.05,
            trace,
            size: TINY,
            work_dir: std::env::temp_dir()
                .join(format!("perfbench-test-{dir}-{}", std::process::id())),
        }
    }

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text.find(&format!("\"{section}\"")).expect("section exists");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key exists");
            obj[at..].split('"').nth(3).expect("string value").to_string()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            LAYERS.iter().map(|l| (l.name.to_string(), l.unit.to_string())).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn every_workload_reports_every_metric_correctly_at_a_tiny_size() {
        for (i, workload) in WORKLOADS.iter().enumerate() {
            for trace in [false, true] {
                let run = run_workload(workload, &tiny(11, trace, &format!("{i}{trace}")));
                assert_eq!(run.failed, 0, "{workload}: {:?}", run.lines);
                assert!(run.attempted >= 3);
                let lines = run.render(trace);
                let result = lines.last().unwrap();
                let names: Vec<(&str, &str)> = if trace {
                    LAYERS.iter().map(|l| (l.name, l.unit)).collect()
                } else {
                    END_TO_END.to_vec()
                };
                for (name, unit) in names {
                    let at = result
                        .find(&format!("\"{name}\": {{\"value\": "))
                        .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
                    let unit_at = result[at..].find("\"unit\": ").unwrap() + at;
                    assert!(
                        result[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"")),
                        "{name}"
                    );
                    assert!(lines.iter().any(|l| l.contains(name) && l.contains(unit)));
                }
                if !trace {
                    assert!(
                        run.end_to_end.iter().all(|v| v.value > 0.0),
                        "{workload}: {:?}",
                        run.end_to_end
                    );
                }
                for v in &run.layers {
                    assert!(
                        LAYERS.iter().any(|l| l.name == v.name),
                        "{workload}: unknown {}",
                        v.name
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let ok: Vec<String> =
            ["--workload", "sql_skyline", "--seed", "3", "--seconds", "10", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let (w, p) = parse_args(&ok).unwrap();
        assert_eq!((w.as_str(), p.seed, p.trace), ("sql_skyline", 3, true));
        let mut bad = ok.clone();
        bad[1] = "nope".into();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_ok());
        assert!(parse_args(&ok[..4]).is_err());
    }
}
