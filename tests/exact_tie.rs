//! An exact tie is not domination. Group `a` dominates 207 of the 300
//! record pairs against group `b`, so `p(a ≻ b) = 207/300`, which is the
//! `f64` nearest 0.69. Definition 3 asks for `p > γ`, so at `γ = 0.69` both
//! groups belong to the skyline, and at `γ = 0.689` `b` is dominated. Every
//! surface must decide the tie as `Gamma::dominated` does: each algorithm
//! on each kernel, the parallel scheduler, the γ sweep, a served epoch and
//! the SQL statement.

use aggsky::core::{gamma_sweep, parallel_skyline_ctx, KernelConfig};
use aggsky::{
    AlgoOptions, Algorithm, Database, Gamma, GroupedDataset, GroupedDatasetBuilder, RunContext,
    SkylineService,
};

const DIM: usize = 5;

/// Each `a` record dominates the 69 `b` records with `d0 ≤ 0.685`.
fn rows() -> [(&'static str, Vec<[f64; DIM]>); 2] {
    let a = vec![[0.685, 1.0, 1.0, 1.0, 1.0]; 3];
    let b = (0..100).map(|i| [f64::from(i) / 100.0, 0.0, 0.0, 0.0, 0.0]).collect();
    [("a", a), ("b", b)]
}

fn dataset() -> GroupedDataset {
    let mut builder = GroupedDatasetBuilder::new(DIM);
    for (label, records) in rows() {
        builder.push_group(label, &records).unwrap();
    }
    builder.build().unwrap()
}

/// `(γ, expected skyline labels)`: the tie keeps both groups; just below
/// it, `a` dominates `b`.
fn cases() -> [(Gamma, Vec<&'static str>); 2] {
    [(Gamma::new(0.69).unwrap(), vec!["a", "b"]), (Gamma::new(0.689).unwrap(), vec!["a"])]
}

#[test]
fn the_tie_is_exactly_gamma() {
    let ds = dataset();
    assert_eq!(aggsky::core::domination_count(&ds, 0, 1), 207);
    assert_eq!(aggsky::domination_probability(&ds, 0, 1), 0.69);
}

#[test]
fn every_algorithm_on_every_kernel_decides_the_tie_like_the_oracle() {
    let ds = dataset();
    let kernels =
        [KernelConfig::Exhaustive, KernelConfig::blocked(), KernelConfig::columnar_scalar()];
    for (gamma, want) in cases() {
        for kernel in kernels {
            for base in [AlgoOptions::paper(gamma), AlgoOptions::exact(gamma)] {
                let opts = AlgoOptions { kernel, ..base };
                for algo in [Algorithm::Naive].into_iter().chain(Algorithm::EVALUATED) {
                    let got = algo.run_with(&ds, opts).unwrap();
                    assert_eq!(
                        ds.sorted_labels(&got.skyline),
                        want,
                        "{algo:?} {kernel:?} {:?} γ={gamma}",
                        base.pruning
                    );
                }
            }
            for workers in [1, 2] {
                let got =
                    parallel_skyline_ctx(&ds, gamma, workers, kernel, &RunContext::unlimited())
                        .unwrap()
                        .unwrap_or_partial();
                assert_eq!(
                    ds.sorted_labels(&got.skyline),
                    want,
                    "PAR {workers} {kernel:?} γ={gamma}"
                );
            }
        }
    }
}

#[test]
fn gamma_sweep_and_served_epoch_decide_the_tie_like_the_oracle() {
    let ds = dataset();
    let gammas: Vec<Gamma> = cases().iter().map(|(g, _)| *g).collect();
    for algo in Algorithm::EVALUATED {
        let swept = gamma_sweep(&ds, algo, &gammas, AlgoOptions::exact(Gamma::DEFAULT)).unwrap();
        for ((gamma, result), (_, want)) in swept.iter().zip(cases()) {
            assert_eq!(ds.sorted_labels(&result.skyline), want, "sweep {algo:?} γ={gamma}");
        }
    }
    for (gamma, want) in cases() {
        let service = SkylineService::from_dataset(&ds, gamma).unwrap();
        let epoch = service.current();
        assert_eq!(epoch.skyline_labels(), want, "served skyline at γ={gamma}");
        // Service and snapshot group ids coincide: no group is empty.
        assert_eq!(ds.sorted_labels(&epoch.query(gamma)), want, "Epoch::query γ={gamma}");
    }
    let service = SkylineService::from_dataset(&ds, Gamma::DEFAULT).unwrap();
    for (gamma, want) in cases() {
        let got = service.current().query(gamma);
        assert_eq!(ds.sorted_labels(&got), want, "Epoch::query from γ=0.5, at γ={gamma}");
    }
}

#[test]
fn the_sql_statement_decides_the_tie_like_the_oracle() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (g TEXT, d0 FLOAT, d1 FLOAT, d2 FLOAT, d3 FLOAT, d4 FLOAT)")
        .unwrap();
    for (label, records) in rows() {
        for r in records {
            db.execute(&format!(
                "INSERT INTO t VALUES ('{label}', {}, {}, {}, {}, {})",
                r[0], r[1], r[2], r[3], r[4]
            ))
            .unwrap();
        }
    }
    for (gamma, want) in cases() {
        let sql = format!(
            "SELECT g FROM t GROUP BY g SKYLINE OF d0 MAX, d1 MAX, d2 MAX, d3 MAX, d4 MAX \
             GAMMA {gamma}"
        );
        let mut got: Vec<String> =
            db.execute(&sql).unwrap().rows.into_iter().map(|r| r[0].to_string()).collect();
        got.sort();
        assert_eq!(got, want, "{sql}");
    }
}
