//! The correctness oracle, always evaluated outside the timed region.
//!
//! Static tables get one exhaustive `domination_count` table per run; the
//! served table keeps a live count matrix exact per write with `dominates`.
//! Membership at any γ then follows `Gamma`'s own `p = 1 ∨ p > γ` rule.

use crate::gen::{Group, DIM};
use aggsky::core::{dominates, domination_count};
use aggsky::{Gamma, GroupedDatasetBuilder};
use std::collections::BTreeSet;

/// Threads of the exhaustive count; it runs before the measured loop.
const ORACLE_THREADS: usize = 2;

/// `dom[s][r] = |S ≻ R|`, with the group sizes it was counted over.
#[derive(Debug, Clone)]
pub struct Counts {
    labels: Vec<String>,
    sizes: Vec<u64>,
    dom: Vec<Vec<u64>>,
}

impl Counts {
    /// Every ordered group pair counted exhaustively, rows split over
    /// [`ORACLE_THREADS`] scoped threads.
    pub fn exhaustive(groups: &[Group]) -> Counts {
        let mut b = GroupedDatasetBuilder::new(DIM);
        for g in groups {
            b.push_group(g.label.as_str(), &g.records).expect("generated groups are valid");
        }
        let ds = b.build().expect("generated dataset is valid");
        let n = groups.len();
        let mut dom = vec![vec![0u64; n]; n];
        let per = n.div_ceil(ORACLE_THREADS);
        std::thread::scope(|scope| {
            for (chunk_no, rows) in dom.chunks_mut(per).enumerate() {
                let ds = &ds;
                scope.spawn(move || {
                    for (i, row) in rows.iter_mut().enumerate() {
                        let s = chunk_no * per + i;
                        for (r, cell) in row.iter_mut().enumerate() {
                            if r != s {
                                *cell = domination_count(ds, s, r);
                            }
                        }
                    }
                });
            }
        });
        Counts {
            labels: groups.iter().map(|g| g.label.clone()).collect(),
            sizes: groups.iter().map(|g| g.records.len() as u64).collect(),
            dom,
        }
    }

    /// Labels of the non-empty groups.
    pub fn present(&self) -> BTreeSet<String> {
        let groups = self.labels.iter().zip(&self.sizes);
        groups.filter(|(_, &n)| n > 0).map(|(l, _)| l.clone()).collect()
    }

    /// Labels of the aggregate skyline at `gamma` over the non-empty groups.
    pub fn skyline(&self, gamma: Gamma) -> BTreeSet<String> {
        let n = self.labels.len();
        (0..n)
            .filter(|&r| self.sizes[r] > 0)
            .filter(|&r| {
                !(0..n).any(|s| {
                    s != r
                        && self.sizes[s] > 0
                        && gamma.dominated(
                            self.dom[s][r] as f64 / (self.sizes[s] * self.sizes[r]) as f64,
                        )
                })
            })
            .map(|r| self.labels[r].clone())
            .collect()
    }
}

/// One live row of the served table.
#[derive(Debug, Clone)]
pub struct LiveRow {
    pub id: u64,
    pub group: usize,
    pub values: [f64; DIM],
}

/// The served table as the benchmark believes it to be, with its count
/// matrix kept exact per write.
#[derive(Debug, Clone)]
pub struct Live {
    pub counts: Counts,
    rows: Vec<LiveRow>,
    next_id: u64,
}

impl Live {
    /// The table as loaded: ids `0..n` in dataset order.
    pub fn new(groups: &[Group], counts: Counts) -> Live {
        let rows: Vec<LiveRow> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, grp)| grp.records.iter().map(move |r| (g, *r)))
            .enumerate()
            .map(|(id, (group, values))| LiveRow { id: id as u64, group, values })
            .collect();
        let next_id = rows.len() as u64;
        Live { counts, rows, next_id }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn row(&self, i: usize) -> &LiveRow {
        &self.rows[i]
    }

    pub fn label(&self, group: usize) -> &str {
        &self.counts.labels[group]
    }

    /// Adds (or removes) the dominating pairs between `values`, a record of
    /// `group`, and every live row of another group.
    fn account(&mut self, group: usize, values: &[f64; DIM], add: bool) {
        let dom = &mut self.counts.dom;
        for row in &self.rows {
            if row.group == group {
                continue;
            }
            if dominates(values, &row.values) {
                let c = &mut dom[group][row.group];
                *c = if add { *c + 1 } else { *c - 1 };
            }
            if dominates(&row.values, values) {
                let c = &mut dom[row.group][group];
                *c = if add { *c + 1 } else { *c - 1 };
            }
        }
    }

    /// The id the next inserted row gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Inserts a row with the next free id and returns that id.
    pub fn insert(&mut self, group: usize, values: [f64; DIM]) -> u64 {
        self.account(group, &values, true);
        self.counts.sizes[group] += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.rows.push(LiveRow { id, group, values });
        id
    }

    /// Removes the row at index `i` and returns it.
    pub fn delete(&mut self, i: usize) -> LiveRow {
        let row = self.rows.swap_remove(i);
        self.account(row.group, &row.values, false);
        self.counts.sizes[row.group] -= 1;
        row
    }

    /// The live rows grouped as a dataset (empty groups left out), in
    /// label order of first appearance.
    pub fn groups(&self) -> Vec<(String, Vec<[f64; DIM]>)> {
        let mut by_group: Vec<Vec<[f64; DIM]>> = vec![Vec::new(); self.counts.labels.len()];
        for row in &self.rows {
            by_group[row.group].push(row.values);
        }
        by_group
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(g, rows)| (self.counts.labels[g].clone(), rows))
            .collect()
    }
}

/// Compares an answer with the oracle's; `Err` describes the difference.
pub fn check(got: &[String], want: &BTreeSet<String>) -> Result<(), String> {
    let got_set: BTreeSet<String> = got.iter().cloned().collect();
    if got_set.len() == got.len() && &got_set == want {
        return Ok(());
    }
    let missing: Vec<&String> = want.difference(&got_set).collect();
    let extra: Vec<&String> = got_set.difference(want).collect();
    Err(format!("missing {missing:?}, unexpected {extra:?}, got {} labels", got.len()))
}

/// The skyline labels printed by `aggsky skyline` (a complete run).
pub fn cli_labels(out: &str) -> Option<Vec<String>> {
    let mut lines = out.lines().skip_while(|l| !l.starts_with("aggregate skyline ("));
    lines.next()?;
    Some(lines.take_while(|l| l.starts_with("  ")).map(|l| l.trim().to_string()).collect())
}

/// The `algorithm = …` field of the CLI's summary line.
pub fn cli_algorithm(out: &str) -> Option<String> {
    let first = out.lines().next()?;
    Some(first.split_once("algorithm = ")?.1.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{dataset, stream, Rng, WRITE_STREAM};

    #[test]
    fn live_updates_match_a_recount() {
        let groups = dataset(1_200, 5);
        let mut live = Live::new(&groups, Counts::exhaustive(&groups));
        let mut rng: Rng = stream(5, WRITE_STREAM);
        for step in 0..60 {
            if step % 3 == 0 {
                let i = rng.below(live.len());
                live.delete(i);
            } else {
                let g = live.row(rng.below(live.len())).group;
                let values = groups[g].draw(&mut rng);
                live.insert(g, values);
            }
        }
        let now: Vec<Group> = live
            .groups()
            .into_iter()
            .map(|(label, records)| Group { label, lo: [0.0; DIM], records })
            .collect();
        let recount = Counts::exhaustive(&now);
        for gamma in [0.5, 0.7, 0.9] {
            let gamma = Gamma::new(gamma).unwrap();
            assert_eq!(live.counts.skyline(gamma), recount.skyline(gamma));
        }
    }

    /// An exact tie, p = 207/300 = γ = 0.69, is not domination. The
    /// library's `Algorithm::Naive` agrees; its counting kernel, which tests
    /// `count > γ · total` in floating point, does not.
    #[test]
    fn an_exact_tie_is_not_domination() {
        let group = |label: &str, records: Vec<[f64; DIM]>| Group {
            label: label.to_string(),
            lo: [0.0; DIM],
            records,
        };
        // Each `a` record dominates the 69 `b` records with d0 ≤ 0.685.
        let a = group("a", vec![[0.685, 1.0, 1.0, 1.0, 1.0]; 3]);
        let b = group("b", (0..100).map(|i| [i as f64 / 100.0, 0.0, 0.0, 0.0, 0.0]).collect());
        let groups = [a, b];
        let counts = Counts::exhaustive(&groups);
        assert_eq!(counts.dom[0][1], 207);
        let both: BTreeSet<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let gamma = Gamma::new(0.69).unwrap();
        assert_eq!(counts.skyline(gamma), both);
        assert_eq!(counts.skyline(Gamma::new(0.689).unwrap()).len(), 1);

        let mut builder = GroupedDatasetBuilder::new(DIM);
        for g in &groups {
            builder.push_group(g.label.as_str(), &g.records).unwrap();
        }
        let ds = builder.build().unwrap();
        assert_eq!(aggsky::Algorithm::Naive.run(&ds, gamma).skyline.len(), 2);
    }

    #[test]
    fn check_reports_a_flipped_label() {
        let want: BTreeSet<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        assert!(check(&["b".into(), "a".into()], &want).is_ok());
        assert!(check(&["a".into(), "c".into()], &want).is_err());
        assert!(check(&["a".into(), "a".into(), "b".into()], &want).is_err());
    }
}
