//! Seeded inputs: the grouped dataset, its CSV text and its SQL load script.
//!
//! The benchmark owns its random numbers (SplitMix64, Zipf sizes) so that
//! its inputs stay byte-identical across versions of the program under test.
//!
//! Every record is drawn from `--seed`. The 60 group boxes are not: they are
//! drawn once from [`GEOMETRY_SEED`]. With Zipf(1.4) sizes a few groups hold
//! most records, and where their boxes fall sets the counting cost; with
//! seed-drawn boxes the 1-worker record-pair count spread by 0.47 of its
//! median (IQR over 12 seeds). Fixed boxes can still place a heavy group
//! pair's domination probability next to γ, where the stopping rule fires
//! for some record draws and not for others: with boxes from seed 42 the
//! 1-worker count at γ = 0.5 was either about 19.5 M or about 58 M.
//!
//! [`GEOMETRY_SEED`] is the first seed from 1 upward that meets three
//! conditions, checked over record seeds 1–8. The 1-worker CLI count
//! (30 000 records, γ = 0.5) varies by less than 5% (max − min over median).
//! The SQL count (12 000 rows, median over one γ per stratum) varies by less
//! than 5%. The 1-worker count is at least 30 M record pairs, so that
//! counting dominates the CLI run.

/// Number of groups in every workload.
pub const GROUPS: usize = 60;
/// Dimensions of every record.
pub const DIM: usize = 5;
/// Zipf exponent of the group sizes.
pub const ZIPF: f64 = 1.4;
/// Side of each group's box as a fraction of the unit cube.
pub const SPREAD: f64 = 0.2;
/// Seed of the fixed group boxes (see the module docs).
pub const GEOMETRY_SEED: u64 = 15;
/// Measure columns of the SQL table, in order.
pub const MEASURES: [&str; DIM] = ["d0", "d1", "d2", "d3", "d4"];

/// SplitMix64: small, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// An independent stream for one purpose (records, γ draws, writes) of a run.
pub fn stream(seed: u64, purpose: u64) -> Rng {
    let mut mix = Rng::new(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    Rng::new(mix.next_u64())
}

pub const RECORDS_STREAM: u64 = 1;
pub const GAMMA_STREAM: u64 = 2;
pub const WRITE_STREAM: u64 = 3;

/// Zipf group sizes, largest first; every group gets at least one record.
pub fn zipf_sizes(total: usize, parts: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=parts).map(|k| (k as f64).powf(-s)).collect();
    let wsum: f64 = weights.iter().sum();
    let spare = (total - parts) as f64;
    let mut sizes: Vec<usize> = weights.iter().map(|w| 1 + (w / wsum * spare) as usize).collect();
    let mut k = 0;
    while sizes.iter().sum::<usize>() < total {
        sizes[k % parts] += 1;
        k += 1;
    }
    sizes
}

/// One group: its label, the box its records are drawn from, its records.
#[derive(Debug, Clone)]
pub struct Group {
    pub label: String,
    pub lo: [f64; DIM],
    pub records: Vec<[f64; DIM]>,
}

impl Group {
    /// A fresh record drawn from this group's box.
    pub fn draw(&self, rng: &mut Rng) -> [f64; DIM] {
        let mut r = [0.0; DIM];
        for (v, lo) in r.iter_mut().zip(self.lo) {
            *v = lo + rng.f64() * SPREAD;
        }
        r
    }
}

/// Independent records in fixed Zipf-sized boxes (see the module docs).
pub fn dataset(records: usize, seed: u64) -> Vec<Group> {
    dataset_in(records, seed, GEOMETRY_SEED)
}

/// [`dataset`] with the group boxes drawn from `geometry_seed`.
pub fn dataset_in(records: usize, seed: u64, geometry_seed: u64) -> Vec<Group> {
    let mut geometry = Rng::new(geometry_seed);
    let mut rng = stream(seed, RECORDS_STREAM);
    zipf_sizes(records, GROUPS, ZIPF)
        .into_iter()
        .enumerate()
        .map(|(g, size)| {
            let mut lo = [0.0; DIM];
            for v in &mut lo {
                *v = (geometry.f64() - SPREAD / 2.0).clamp(0.0, 1.0 - SPREAD);
            }
            let mut group = Group { label: format!("class{g}"), lo, records: Vec::new() };
            group.records = (0..size).map(|_| group.draw(&mut rng)).collect();
            group
        })
        .collect()
}

/// The dataset as the CLI reads it: a `class` column, then `d0..d4`.
/// `{}` prints the shortest text that parses back to the same `f64`.
pub fn csv_text(groups: &[Group]) -> String {
    let mut out = String::from("class,d0,d1,d2,d3,d4\n");
    for g in groups {
        for r in &g.records {
            out.push_str(&g.label);
            for v in r {
                out.push(',');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
    }
    out
}

/// Rows per `INSERT` statement of the load script.
const LOAD_BATCH: usize = 500;

/// One `VALUES` tuple of table `t`.
pub fn row_tuple(id: u64, label: &str, r: &[f64; DIM]) -> String {
    let vals: Vec<String> = r.iter().map(f64::to_string).collect();
    format!("({id}, '{label}', {})", vals.join(", "))
}

/// The SQL that creates and loads `t(id INT, g TEXT, d0..d4 FLOAT)`. Row ids
/// run from 0 in dataset order.
pub fn sql_load_script(groups: &[Group]) -> Vec<String> {
    let mut stmts =
        vec!["CREATE TABLE t (id INT, g TEXT, d0 FLOAT, d1 FLOAT, d2 FLOAT, d3 FLOAT, d4 FLOAT)"
            .to_string()];
    let rows: Vec<(&str, &[f64; DIM])> =
        groups.iter().flat_map(|g| g.records.iter().map(|r| (g.label.as_str(), r))).collect();
    for (chunk_no, chunk) in rows.chunks(LOAD_BATCH).enumerate() {
        let base = (chunk_no * LOAD_BATCH) as u64;
        let tuples: Vec<String> = chunk
            .iter()
            .enumerate()
            .map(|(i, (label, r))| row_tuple(base + i as u64, label, r))
            .collect();
        stmts.push(format!("INSERT INTO t VALUES {}", tuples.join(", ")));
    }
    stmts
}

/// The aggregate-skyline statement at `gamma` (given as its SQL text).
pub fn skyline_sql(gamma: &str) -> String {
    let dims: Vec<String> = MEASURES.iter().map(|m| format!("{m} MAX")).collect();
    format!("SELECT g FROM t GROUP BY g SKYLINE OF {} GAMMA {gamma}", dims.join(", "))
}

/// The same statement without its `SKYLINE OF … GAMMA` clause: scan plus
/// hash aggregate only.
pub const SCAN_AGG_SQL: &str = "SELECT g FROM t GROUP BY g";

/// Slices of the γ range, each of `GAMMA_WIDTH` per-mille steps.
const GAMMA_STRATA: u64 = 10;
const GAMMA_WIDTH: u64 = 45;

/// Seeded γ draws on `[0.500, 0.950)` in steps of 0.001, stratified: every
/// `GAMMA_STRATA` consecutive draws take one value from each equal slice
/// of the range, in seeded order. A query's cost falls about fivefold
/// across the range, so with plain uniform draws a run's median latency
/// would move with the draws; stratified draws give every run the same mix.
#[derive(Debug, Clone)]
pub struct Gammas {
    rng: Rng,
    pending: Vec<u64>,
}

impl Gammas {
    pub fn new(seed: u64) -> Gammas {
        Gammas { rng: stream(seed, GAMMA_STREAM), pending: Vec::new() }
    }

    /// The next γ as SQL text.
    pub fn next_text(&mut self) -> String {
        if self.pending.is_empty() {
            self.pending = (0..GAMMA_STRATA).collect();
            for i in (1..self.pending.len()).rev() {
                let j = self.rng.below(i + 1);
                self.pending.swap(i, j);
            }
        }
        let stratum = self.pending.pop().expect("refilled above");
        let permille = 500 + stratum * GAMMA_WIDTH + self.rng.below(GAMMA_WIDTH as usize) as u64;
        format!("0.{permille:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let a = dataset(3_000, 7);
        let b = dataset(3_000, 7);
        assert_eq!(csv_text(&a), csv_text(&b));
        assert_eq!(sql_load_script(&a), sql_load_script(&b));
        assert_ne!(csv_text(&a), csv_text(&dataset(3_000, 8)));
        let (mut g1, mut g2) = (Gammas::new(7), Gammas::new(7));
        let s1: Vec<String> = (0..50).map(|_| g1.next_text()).collect();
        let s2: Vec<String> = (0..50).map(|_| g2.next_text()).collect();
        assert_eq!(s1, s2);
        let mut g3 = Gammas::new(8);
        assert_ne!(s1, (0..50).map(|_| g3.next_text()).collect::<Vec<_>>());
    }

    #[test]
    fn every_ten_gammas_cover_every_slice() {
        let mut g = Gammas::new(3);
        for _ in 0..5 {
            let mut slices: Vec<u64> =
                (0..10).map(|_| (g.next_text()[2..].parse::<u64>().unwrap() - 500) / 45).collect();
            slices.sort_unstable();
            assert_eq!(slices, (0..10).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn sizes_and_text_round_trip() {
        let sizes = zipf_sizes(30_000, GROUPS, ZIPF);
        assert_eq!(sizes.iter().sum::<usize>(), 30_000);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        let groups = dataset(1_000, 3);
        let text = csv_text(&groups);
        let first = text.lines().nth(1).unwrap();
        let v: f64 = first.split(',').nth(1).unwrap().parse().unwrap();
        assert_eq!(v.to_bits(), groups[0].records[0][0].to_bits());
    }
}
