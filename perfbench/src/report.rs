//! Metric names, sample statistics, host metadata and the result line.

use std::time::Instant;

/// End-to-end metrics: every workload reports each of them with tracing off.
/// `(name, unit)`; mirrored in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("op_ms_p50", "ms"),
];

/// A per-layer metric: its unit and the end-to-end metric and workload it
/// should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const CLI: &str = "query_ms_p50, ops_per_s on cli_parallel; sql_skyline and served_table unchanged";
const KERNEL: &str =
    "query_ms_p50 on sql_skyline and served_table (reads), ops_per_s on sql_skyline; op_ms_p50 on served_table unchanged";
const WRITE: &str = "op_ms_p50, ops_per_s on served_table; cli_parallel and sql_skyline unchanged";

/// Per-layer metrics of the traced run; mirrored in `BENCHMARK.json`. A
/// layer a workload does not call reports 0 there.
pub const LAYERS: &[Layer] = &[
    Layer { name: "cli.run_ms", unit: "ms", moves: CLI },
    Layer { name: "cli.unattributed_ms", unit: "ms", moves: CLI },
    Layer { name: "datagen.csv.parse_ms", unit: "ms", moves: CLI },
    Layer { name: "core.prepared.build_ms", unit: "ms", moves: CLI },
    Layer { name: "core.parallel.run_ms_2w", unit: "ms", moves: CLI },
    Layer { name: "core.parallel.run_ms_1w", unit: "ms", moves: CLI },
    Layer { name: "core.parallel.speedup_2w", unit: "x", moves: CLI },
    Layer { name: "core.parallel.pair_inflation_2w", unit: "ratio", moves: CLI },
    Layer { name: "core.parallel.record_pairs_2w", unit: "count", moves: CLI },
    Layer { name: "core.parallel.record_pairs_2w_spread", unit: "ratio", moves: CLI },
    Layer { name: "core.parallel.worker_retries", unit: "count", moves: CLI },
    Layer {
        name: "core.kernel.record_pairs",
        unit: "count",
        moves: "query_ms_p50 on every workload (cli: 1 worker; sql and served: per read)",
    },
    Layer { name: "core.kernel.records_compared", unit: "count", moves: CLI },
    Layer { name: "core.kernel.block_skip_ratio", unit: "ratio", moves: CLI },
    Layer { name: "core.kernel.ns_per_record_compared", unit: "ns", moves: CLI },
    Layer { name: "core.kernel.ns_per_record_pair", unit: "ns", moves: KERNEL },
    Layer { name: "sql.parser.parse_us", unit: "us", moves: KERNEL },
    Layer { name: "sql.plan_us", unit: "us", moves: KERNEL },
    Layer { name: "sql.exec.scan_agg_ms", unit: "ms", moves: KERNEL },
    Layer { name: "sql.exec.skyline_ms", unit: "ms", moves: KERNEL },
    Layer { name: "sql.exec.rows_scanned", unit: "count", moves: KERNEL },
    Layer { name: "sql.exec.groups_built", unit: "count", moves: KERNEL },
    Layer {
        name: "core.paircache.hit_ratio",
        unit: "ratio",
        moves: "ops_per_s and query_ms_p50 on sql_skyline",
    },
    Layer { name: "core.service.apply_ms", unit: "ms", moves: WRITE },
    Layer { name: "sql.dml_ms", unit: "ms", moves: WRITE },
    Layer { name: "core.service.deferred_pairs", unit: "count", moves: WRITE },
    Layer { name: "core.service.flushed_pairs", unit: "count", moves: WRITE },
    Layer { name: "core.dynamic.flush_ratio", unit: "ratio", moves: WRITE },
    Layer { name: "core.service.epochs_published", unit: "count", moves: WRITE },
    Layer {
        name: "core.service.epoch_query_ms",
        unit: "ms",
        moves: "floor of query_ms_p50 on served_table once reads come from the epoch; sql_skyline unchanged",
    },
    Layer { name: "obs.journal_records", unit: "count", moves: "peak_rss_mb on served_table" },
    Layer { name: "trace_overhead", unit: "ratio", moves: "none: traced p50 / untraced p50" },
];

/// How far a per-layer value can be trusted to repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count that repeats exactly for the same seed.
    Exact,
    /// A count that differs between runs of the same seed.
    Varying,
    /// A median wall time.
    Timing,
    /// Computed from other metrics.
    Derived,
    /// The layer is not on this workload's path.
    Absent,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Varying => "varying",
            Kind::Timing => "timing",
            Kind::Derived => "derived",
            Kind::Absent => "not on this path",
        }
    }
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub kind: Kind,
    pub note: String,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Value>,
    pub layers: Vec<Value>,
    /// Lines printed before the result: metadata, extra metrics, failures.
    pub lines: Vec<String>,
}

impl Run {
    pub fn e2e(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.end_to_end.push(Value { name, value, kind: Kind::Timing, note: note.into() });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, kind: Kind, note: impl Into<String>) {
        debug_assert!(LAYERS.iter().any(|l| l.name == name), "unknown layer metric {name}");
        self.layers.push(Value { name, value, kind, note: note.into() });
    }

    /// Records a checked answer.
    pub fn outcome(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.lines.push(format!("FAILED {what}: {e}"));
        }
    }

    /// A labelled metric line that is not part of the result line.
    pub fn extra(&mut self, name: &str, value: Option<f64>, unit: &str, note: &str) {
        self.lines.push(match value {
            Some(v) => format!("metric {name} = {v:.4} {unit} ({note})"),
            None => format!("metric {name} omitted ({note})"),
        });
    }

    /// Every line, then the result object as the last line.
    pub fn render(&self, trace: bool) -> Vec<String> {
        let mut out = self.lines.clone();
        let failed_ratio = self.failed as f64 / self.attempted as f64;
        out.push(format!(
            "metric failed_ratio = {failed_ratio} ratio ({} of {})",
            self.failed, self.attempted
        ));
        let mut metrics = Vec::new();
        if trace {
            for layer in LAYERS {
                let v = self.layers.iter().find(|v| v.name == layer.name);
                let (value, kind, note) =
                    v.map_or((0.0, Kind::Absent, ""), |v| (v.value, v.kind, v.note.as_str()));
                out.push(format!(
                    "layer {} = {value} {} [{}{}{note}] moves: {}",
                    layer.name,
                    layer.unit,
                    kind.tag(),
                    if note.is_empty() { "" } else { "; " },
                    layer.moves
                ));
                metrics.push((layer.name, value, layer.unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = self
                    .end_to_end
                    .iter()
                    .find(|v| v.name == *name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                out.push(format!("metric {name} = {} {unit} ({})", v.value, v.note));
                metrics.push((name, v.value, unit));
            }
        }
        out.push(result_json(self.failed == 0, self.attempted, self.failed, &metrics));
        out
    }
}

/// The result object; non-finite values print as 0 so the line stays JSON.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Measured values of one kind: wall times in milliseconds, or counts.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolated quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The p90, only with at least 100 samples (ten beyond it).
    pub fn p90(&self) -> Option<f64> {
        (self.len() >= 100).then(|| self.quantile(0.9))
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The process's peak resident set (VmHWM) in MiB, 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host and build metadata printed with every run.
pub fn host_line(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = if !aggsky::core::cpu::avx2_available() {
        "scalar (no AVX2)"
    } else if aggsky::core::cpu::force_scalar() {
        "scalar (AVX2 detected, forced off)"
    } else {
        "avx2"
    };
    let commit = std::env::var("AGGSKY_COMMIT").unwrap_or_else(|_| "unset".to_string());
    format!(
        "host workload={workload} seed={seed} nproc={nproc} simd={simd} rustc=\"{}\" commit={commit}",
        env!("PERFBENCH_RUSTC")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Samples((1..=5).map(f64::from).collect());
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert!(s.p90().is_none());
        let s = Samples((0..100).map(f64::from).collect());
        assert!((s.p90().unwrap() - 89.1).abs() < 1e-9);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("a_ms", 1.5, "ms"), ("b", f64::NAN, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
