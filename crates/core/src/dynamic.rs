//! Incremental aggregate-skyline maintenance (an extension beyond the
//! paper, motivated by its Property 2: small updates change domination
//! probabilities by bounded amounts, so recomputing everything from scratch
//! on every insert is wasteful).
//!
//! # Structure
//!
//! [`DynamicAggregateSkyline`] separates each group into a **base** record
//! set — whose exact pairwise tallies `|S ≻ R|` are memoized in a revisable
//! [`PairCache`] — and a small **pending** delta buffer of inserts and
//! deletes not yet folded into the base. Edits are O(1): they only grow the
//! buffer. The kernel cost is paid when a group's deltas are *folded*:
//! every touched pair is recounted through [`Kernel::compare_bounded`]
//! against a per-group mini lane-block preparation of the delta records, so
//! folding group `R` costs `O(|R_Δ| · Σ|S|)` kernel ticks — charged to
//! [`Stats`], pollable through [`RunContext`], and mirrored to the
//! observability counters.
//!
//! # The Property-2 defer-recompute rule
//!
//! Tallies are order-independent counts, so a pending buffer bounds how far
//! any `p(S ≻ R)` can have drifted from its memoized base value: with
//! `D`/`I` pending deletes/inserts the true dominating-pair count lies in
//! the closed interval
//!
//! ```text
//! [ n_base − D_S·|R_base| − D_R·|S_base| ,  n_base + I_S·|R_cur| + I_R·|S_cur| ]
//! ```
//!
//! clamped to `[0, |S_cur|·|R_cur|]` — exactly the paper's `γ(1±ε)`
//! stability envelope composed over the buffered edits. While both interval
//! endpoints fall on the same side of γ the pair's verdict is *provably*
//! unchanged and no recounting happens ([`Counter::DynDeferred`]); only a
//! pair whose interval straddles γ forces its groups to fold
//! ([`Counter::DynFlushedPairs`], plus a `dyn_forced_flush` flight-recorder
//! event). Queries stay exact: deferral skips work only when the skyline
//! verdict cannot depend on it.
//!
//! [`Counter::DynDeferred`]: aggsky_obs::Counter::DynDeferred
//! [`Counter::DynFlushedPairs`]: aggsky_obs::Counter::DynFlushedPairs

use crate::dataset::{GroupId, GroupedDataset, GroupedDatasetBuilder, MAX_GROUP_LEN};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::kernel::{BoundedCompare, Kernel, KernelConfig};
use crate::paircache::PairCache;
use crate::paircount::PairOptions;
use crate::prepared::{PreparedDataset, MAX_LANE_BLOCK};
use crate::runctx::{InterruptReason, RunContext};
use crate::stats::Stats;
use aggsky_obs::{Counter as ObsCounter, Stamp};

/// Full-count options for delta recounts: tallies must be complete, so the
/// stopping rule and the γ̄ refinements are irrelevant.
const COUNT_OPTS: PairOptions =
    PairOptions { stop_rule: false, need_bar: false, corrected_bar: false };

/// Outcome of one [`DynamicAggregateSkyline::skyline_ctx`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynSkyline {
    /// The aggregate skyline among currently non-empty groups, ascending by
    /// group id. Exact when `interrupted` is `None`; on an interrupt the
    /// result is the optimistic partial (undecidable groups stay in, the
    /// anytime convention), and must not be treated as certified.
    pub groups: Vec<GroupId>,
    /// Ordered pairs involving pending edits whose verdict was served from
    /// the Property-2 drift interval without recounting.
    pub deferred_pairs: u64,
    /// Unordered pair tallies recomputed through the kernel because a drift
    /// interval crossed γ.
    pub flushed_pairs: u64,
    /// `Some` when the context's budget or cancellation stopped folding
    /// before every pair could be decided.
    pub interrupted: Option<InterruptReason>,
}

/// Outcome of folding pending deltas (see
/// [`DynamicAggregateSkyline::flush_ctx`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushReport {
    /// Unordered pair tallies revised through the kernel.
    pub flushed_pairs: u64,
    /// `Some` when the fold stopped early; the interrupted group's deltas
    /// stay pending (folds are all-or-nothing per group, so tallies remain
    /// consistent and the fold is exactly resumable).
    pub interrupted: Option<InterruptReason>,
}

/// Result of one delta recount, separating real counts from an interrupt.
enum Counted {
    Done(u64, u64),
    Stopped(InterruptReason),
}

/// A mutable collection of groups with incrementally-maintained pairwise
/// domination tallies and Property-2 deferral of recomputation.
///
/// ```
/// use aggsky_core::dynamic::DynamicAggregateSkyline;
/// use aggsky_core::Gamma;
///
/// let mut dyn_sky = DynamicAggregateSkyline::new(2);
/// let t = dyn_sky.add_group("Tarantino");
/// let w = dyn_sky.add_group("Wiseau");
/// dyn_sky.insert(t, &[557.0, 9.0]).unwrap();
/// dyn_sky.insert(w, &[10.0, 3.2]).unwrap();
/// assert_eq!(dyn_sky.skyline(Gamma::DEFAULT).unwrap(), vec![t]);
/// // A surprise hit makes Wiseau incomparable-in-part...
/// dyn_sky.insert(w, &[600.0, 2.0]).unwrap();
/// assert_eq!(dyn_sky.skyline(Gamma::DEFAULT).unwrap(), vec![t, w]);
/// ```
#[derive(Debug)]
pub struct DynamicAggregateSkyline {
    dim: usize,
    /// Kernel strategy for delta recounts (never `Exhaustive`; a prepared
    /// kernel is what makes `compare_bounded` return complete tallies).
    kernel: KernelConfig,
    labels: Vec<String>,
    /// Folded per-group record storage (row-major); the sets the memoized
    /// tallies are exact over.
    base: Vec<Vec<f64>>,
    /// Pending inserts per group (row-major), not yet folded.
    pending_ins: Vec<Vec<f64>>,
    /// Base row indices pending deletion, ascending, not yet folded.
    pending_del: Vec<Vec<usize>>,
    /// Exact complete tallies over base×base in canonical orientation.
    /// Invariant: an entry exists for `{a, b}` iff both base sets are
    /// non-empty, and it is complete (`checked == total`).
    tallies: PairCache,
    /// Cumulative kernel work across all maintenance counting.
    stats: Stats,
}

impl DynamicAggregateSkyline {
    /// Creates an empty collection of `dim`-dimensional records (all
    /// dimensions MAX preference; negate values for MIN dimensions), using
    /// the default columnar kernel for delta recounts.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        DynamicAggregateSkyline {
            dim,
            kernel: KernelConfig::blocked(),
            labels: Vec::new(),
            base: Vec::new(),
            pending_ins: Vec::new(),
            pending_del: Vec::new(),
            tallies: PairCache::new(),
            stats: Stats::default(),
        }
    }

    /// Like [`DynamicAggregateSkyline::new`] with an explicit kernel
    /// strategy for delta recounts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for [`KernelConfig::Exhaustive`]
    /// (delta recounts need a preparation to produce resumable tallies), or
    /// a block size of zero or above [`MAX_LANE_BLOCK`].
    pub fn with_kernel(dim: usize, kernel: KernelConfig) -> Result<Self> {
        match kernel {
            KernelConfig::Exhaustive => {
                return Err(Error::InvalidArgument(
                    "dynamic maintenance requires a prepared kernel (blocked); \
                     Exhaustive produces no memoizable tally"
                        .into(),
                ));
            }
            KernelConfig::Blocked { block_size } | KernelConfig::ColumnarScalar { block_size } => {
                if block_size == 0 || block_size > MAX_LANE_BLOCK {
                    return Err(Error::InvalidArgument(format!(
                        "kernel block size {block_size} outside 1..={MAX_LANE_BLOCK}"
                    )));
                }
            }
        }
        let mut out = DynamicAggregateSkyline::new(dim);
        out.kernel = kernel;
        Ok(out)
    }

    /// Imports an existing dataset. Cheap — records land in the pending
    /// buffers and the first query folds them through the kernel (so the
    /// initial materialization is charged to that query's context).
    pub fn from_dataset(ds: &GroupedDataset) -> Result<Self> {
        let mut out = DynamicAggregateSkyline::new(ds.dim());
        for g in ds.group_ids() {
            let id = out.add_group(ds.label(g));
            for rec in ds.records(g) {
                out.insert(id, rec)?;
            }
        }
        Ok(out)
    }

    /// Imports a dataset **together with previously exported complete
    /// tallies** (e.g. recovered from a checkpoint), installing the records
    /// directly as folded base state — no kernel recounting. The entries
    /// are validated against a fresh preparation of `ds` and must cover
    /// every unordered group pair completely; anything less is rejected so
    /// a stale or truncated checkpoint can never masquerade as warm state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] when an entry fails validation
    /// (see [`PairCache::ingest`]) or when a group pair has no complete
    /// tally.
    pub fn from_dataset_with_tallies(
        ds: &GroupedDataset,
        entries: &[((GroupId, GroupId), crate::paircache::CachedTally)],
    ) -> Result<Self> {
        let mut out = DynamicAggregateSkyline::new(ds.dim());
        for g in ds.group_ids() {
            out.add_group(ds.label(g));
        }
        for g in ds.group_ids() {
            for rec in ds.records(g) {
                out.base[g].extend_from_slice(rec);
            }
        }
        let prep = PreparedDataset::build(ds, PreparedDataset::DEFAULT_BLOCK_SIZE)?;
        out.tallies.ingest(&prep, entries)?;
        for a in 0..ds.n_groups() {
            for b in a + 1..ds.n_groups() {
                match out.tallies.lookup(a, b) {
                    Some(t) if t.complete() => {}
                    _ => {
                        return Err(Error::CorruptCheckpoint(format!(
                            "warm restore requires a complete tally for every group pair; \
                             ({a}, {b}) is missing or partial"
                        )));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Number of groups (including empty ones).
    pub fn n_groups(&self) -> usize {
        self.labels.len()
    }

    /// Number of live records in group `g` (base minus pending deletes plus
    /// pending inserts).
    pub fn group_len(&self, g: GroupId) -> usize {
        self.base_len(g) - self.pending_del[g].len() + self.pending_ins[g].len() / self.dim
    }

    /// Total number of live records.
    pub fn n_records(&self) -> usize {
        (0..self.n_groups()).map(|g| self.group_len(g)).sum()
    }

    /// Label of group `g`.
    pub fn label(&self, g: GroupId) -> &str {
        &self.labels[g]
    }

    /// Pending (inserts, deletes) of group `g` awaiting a fold.
    pub fn pending_edits(&self, g: GroupId) -> (usize, usize) {
        (self.pending_ins[g].len() / self.dim, self.pending_del[g].len())
    }

    /// Whether any group has unfolded deltas.
    pub fn has_pending(&self) -> bool {
        (0..self.n_groups()).any(|g| self.pending_edits(g) != (0, 0))
    }

    /// Cumulative kernel work charged by maintenance counting so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Adds a new (empty) group and returns its id. Empty groups are
    /// excluded from skylines until they receive a record.
    pub fn add_group(&mut self, label: impl Into<String>) -> GroupId {
        self.labels.push(label.into());
        self.base.push(Vec::new());
        self.pending_ins.push(Vec::new());
        self.pending_del.push(Vec::new());
        self.labels.len() - 1
    }

    /// Inserts one record into group `g`. O(1): the record lands in the
    /// pending buffer; pair tallies are revised when the group next folds.
    pub fn insert(&mut self, g: GroupId, record: &[f64]) -> Result<()> {
        self.insert_ctx(g, record, &RunContext::unlimited())
    }

    /// [`DynamicAggregateSkyline::insert`] with observability: charges
    /// [`Counter::DynInserts`](aggsky_obs::Counter::DynInserts) to the
    /// context's recorder.
    pub fn insert_ctx(&mut self, g: GroupId, record: &[f64], ctx: &RunContext) -> Result<()> {
        if record.len() != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, got: record.len() });
        }
        if let Some(d) = record.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue { dimension: d });
        }
        if self.group_len(g) >= MAX_GROUP_LEN {
            return Err(Error::GroupTooLarge {
                group: self.labels[g].clone(),
                len: self.group_len(g) + 1,
            });
        }
        self.pending_ins[g].extend_from_slice(record);
        ctx.recorder().add(ObsCounter::DynInserts, 1);
        Ok(())
    }

    /// Removes the record at live index `idx` of group `g` (0-based over
    /// the current order: folded base records first, then pending inserts
    /// in arrival order) and returns it. O(group) — no counting: removing a
    /// pending insert cancels it outright, removing a base record marks it
    /// pending-deleted until the next fold.
    pub fn remove(&mut self, g: GroupId, idx: usize) -> Result<Vec<f64>> {
        let len = self.group_len(g);
        if idx >= len {
            return Err(Error::RecordIndexOutOfRange {
                group: self.labels[g].clone(),
                index: idx,
                len,
            });
        }
        let live_base = self.base_len(g) - self.pending_del[g].len();
        if idx < live_base {
            // The idx-th base row not already pending deletion.
            let mut live_seen = 0usize;
            let mut row = 0usize;
            for r in 0..self.base_len(g) {
                if self.pending_del[g].binary_search(&r).is_ok() {
                    continue;
                }
                if live_seen == idx {
                    row = r;
                    break;
                }
                live_seen += 1;
            }
            let pos = match self.pending_del[g].binary_search(&row) {
                Ok(_) => {
                    return Err(Error::InvalidArgument(format!(
                        "internal: base row {row} of group {g} already pending deletion"
                    )));
                }
                Err(p) => p,
            };
            self.pending_del[g].insert(pos, row);
            Ok(self.base[g][row * self.dim..(row + 1) * self.dim].to_vec())
        } else {
            let j = idx - live_base;
            let rec: Vec<f64> = self.pending_ins[g][j * self.dim..(j + 1) * self.dim].to_vec();
            self.pending_ins[g].drain(j * self.dim..(j + 1) * self.dim);
            Ok(rec)
        }
    }

    /// Live index of the first record of group `g` whose coordinates are
    /// bit-identical to `record` — the deterministic lookup the SQL
    /// delete-by-value path uses with [`DynamicAggregateSkyline::remove`].
    pub fn find_record(&self, g: GroupId, record: &[f64]) -> Option<usize> {
        if record.len() != self.dim || g >= self.n_groups() {
            return None;
        }
        let same =
            |row: &[f64]| row.iter().zip(record.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
        let mut idx = 0usize;
        for (r, row) in self.base[g].chunks_exact(self.dim).enumerate() {
            if self.pending_del[g].binary_search(&r).is_ok() {
                continue;
            }
            if same(row) {
                return Some(idx);
            }
            idx += 1;
        }
        for row in self.pending_ins[g].chunks_exact(self.dim) {
            if same(row) {
                return Some(idx);
            }
            idx += 1;
        }
        None
    }

    /// The exact current `p(S ≻ R)`; zero when either group is empty.
    /// Folds both groups' pending deltas first.
    pub fn domination_probability(&mut self, s: GroupId, r: GroupId) -> Result<f64> {
        let ctx = RunContext::unlimited();
        self.flush_group_ctx(s, &ctx)?;
        self.flush_group_ctx(r, &ctx)?;
        let (len_s, len_r) = (self.group_len(s), self.group_len(r));
        if len_s == 0 || len_r == 0 {
            return Ok(0.0);
        }
        let (n_sr, _) = self.base_counts(s, r);
        Ok(n_sr as f64 / crate::num::pair_product(len_s, len_r) as f64)
    }

    /// The conservative Property-2 drift interval for `p(S ≻ R)` under the
    /// pending edits: the true probability over the live sets is guaranteed
    /// inside `[lo, hi]`, with `lo == hi` exactly when neither group has
    /// pending deltas. Read-only — never counts.
    pub fn probability_bounds(&self, s: GroupId, r: GroupId) -> (f64, f64) {
        let (len_s, len_r) = (self.group_len(s), self.group_len(r));
        if len_s == 0 || len_r == 0 {
            return (0.0, 0.0);
        }
        let (n_lo, n_hi, total) = self.count_bounds(s, r);
        (n_lo as f64 / total as f64, n_hi as f64 / total as f64)
    }

    /// The aggregate skyline of the current state among non-empty groups,
    /// ascending by group id. Exact: folds exactly the groups whose drift
    /// intervals cross γ.
    pub fn skyline(&mut self, gamma: Gamma) -> Result<Vec<GroupId>> {
        self.skyline_ctx(gamma, &RunContext::unlimited()).map(|out| out.groups)
    }

    /// [`DynamicAggregateSkyline::skyline`] under a [`RunContext`]: folding
    /// is budgeted and cancellable, kernel work lands in the recorder, and
    /// the outcome reports deferred vs flushed pair counts.
    pub fn skyline_ctx(&mut self, gamma: Gamma, ctx: &RunContext) -> Result<DynSkyline> {
        let mut flushed_pairs = 0u64;
        let mut interrupted: Option<InterruptReason> = None;
        loop {
            let live: Vec<GroupId> =
                (0..self.n_groups()).filter(|&g| self.group_len(g) > 0).collect();
            let mut out = Vec::new();
            let mut deferred = 0u64;
            // Groups participating in a γ-straddling drift interval; must
            // fold before the skyline can be certified.
            let mut undecided: Vec<GroupId> = Vec::new();
            for &r in &live {
                let mut dominated = false;
                let mut open = false;
                for &s in &live {
                    if s == r {
                        continue;
                    }
                    let (n_lo, n_hi, total) = self.count_bounds(s, r);
                    let dom_lo = gamma.dominated(n_lo as f64 / total as f64);
                    let dom_hi = gamma.dominated(n_hi as f64 / total as f64);
                    if dom_lo == dom_hi {
                        if n_lo != n_hi {
                            deferred += 1;
                        }
                        if dom_lo {
                            dominated = true;
                        }
                    } else {
                        open = true;
                        for g in [s, r] {
                            if let Err(p) = undecided.binary_search(&g) {
                                undecided.insert(p, g);
                            }
                        }
                    }
                }
                // A certain dominator excludes r whatever the open pairs
                // resolve to; otherwise r stays in (optimistically so when
                // interrupted — the anytime convention).
                if !dominated && (!open || interrupted.is_some()) {
                    out.push(r);
                }
            }
            let open_groups = undecided.iter().any(|&g| self.pending_edits(g) != (0, 0));
            if interrupted.is_some() || !open_groups {
                ctx.recorder().add(ObsCounter::DynDeferred, deferred);
                return Ok(DynSkyline {
                    groups: out,
                    deferred_pairs: deferred,
                    flushed_pairs,
                    interrupted,
                });
            }
            for g in undecided {
                let report = self.flush_group_ctx(g, ctx)?;
                flushed_pairs += report.flushed_pairs;
                if report.interrupted.is_some() {
                    interrupted = report.interrupted;
                    break;
                }
            }
        }
    }

    /// Folds every group's pending deltas, leaving all tallies exact.
    pub fn flush_ctx(&mut self, ctx: &RunContext) -> Result<FlushReport> {
        let mut total = FlushReport::default();
        for g in 0..self.n_groups() {
            let report = self.flush_group_ctx(g, ctx)?;
            total.flushed_pairs += report.flushed_pairs;
            if report.interrupted.is_some() {
                total.interrupted = report.interrupted;
                return Ok(total);
            }
        }
        Ok(total)
    }

    /// Snapshots the current live state as an immutable [`GroupedDataset`]
    /// (empty groups are skipped; the mapping from snapshot ids to dynamic
    /// ids is returned alongside). Read-only — pending deltas are included
    /// without folding them.
    pub fn snapshot(&self) -> Result<(GroupedDataset, Vec<GroupId>)> {
        let mut b = GroupedDatasetBuilder::new(self.dim).trusted_labels();
        let mut mapping = Vec::new();
        for g in 0..self.n_groups() {
            if self.group_len(g) == 0 {
                continue;
            }
            let rows: Vec<&[f64]> = self.live_rows(g).collect();
            b.push_group(self.labels[g].clone(), &rows)?;
            mapping.push(g);
        }
        Ok((b.build()?, mapping))
    }

    /// Exported base tallies in canonical orientation (complete entries
    /// only), for checkpointing; see [`PairCache::export`]. Meaningful when
    /// nothing is pending (fold first), which the serving layer guarantees.
    pub fn export_tallies(&self) -> Vec<((GroupId, GroupId), crate::paircache::CachedTally)> {
        self.tallies.export()
    }

    /// Validates and installs checkpointed tallies against a preparation of
    /// the current (fully folded) state; see [`PairCache::ingest`].
    pub fn ingest_tallies(
        &mut self,
        prep: &PreparedDataset,
        entries: &[((GroupId, GroupId), crate::paircache::CachedTally)],
    ) -> Result<usize> {
        self.tallies.ingest(prep, entries)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn base_len(&self, g: GroupId) -> usize {
        self.base[g].len() / self.dim
    }

    /// Live rows of `g` in index order: base rows minus pending deletes,
    /// then pending inserts.
    fn live_rows(&self, g: GroupId) -> impl Iterator<Item = &[f64]> {
        self.base[g]
            .chunks_exact(self.dim)
            .enumerate()
            .filter(move |(r, _)| self.pending_del[g].binary_search(r).is_err())
            .map(|(_, row)| row)
            .chain(self.pending_ins[g].chunks_exact(self.dim))
    }

    /// Exact base tally of the ordered pair: `(|a ≻ b|, |b ≻ a|)` over the
    /// base sets; zeros when either base set is empty (no entry memoized).
    fn base_counts(&self, a: GroupId, b: GroupId) -> (u64, u64) {
        match self.tallies.lookup(a, b) {
            Some(t) if a <= b => (t.n12, t.n21),
            Some(t) => (t.n21, t.n12),
            None => (0, 0),
        }
    }

    /// Conservative bounds on the live dominating-pair count of the ordered
    /// pair `(s, r)`: `(n_lo, n_hi, |s_cur|·|r_cur|)`. Exact (`n_lo ==
    /// n_hi`) when neither side has pending deltas. Callers guarantee both
    /// groups are non-empty.
    fn count_bounds(&self, s: GroupId, r: GroupId) -> (u64, u64, u64) {
        let w = crate::num::wide;
        let (cur_s, cur_r) = (self.group_len(s), self.group_len(r));
        let total = crate::num::pair_product(cur_s, cur_r);
        let (n_base, _) = self.base_counts(s, r);
        let (ins_s, del_s) = self.pending_edits(s);
        let (ins_r, del_r) = self.pending_edits(r);
        let loss = w(del_s)
            .saturating_mul(w(self.base_len(r)))
            .saturating_add(w(del_r).saturating_mul(w(self.base_len(s))));
        let gain =
            w(ins_s).saturating_mul(w(cur_r)).saturating_add(w(ins_r).saturating_mul(w(cur_s)));
        let n_lo = n_base.saturating_sub(loss);
        let n_hi = n_base.saturating_add(gain).min(total);
        (n_lo, n_hi, total)
    }

    /// Folds group `g`'s pending deltas into its base, revising every
    /// touched pair tally through the kernel. All-or-nothing: an interrupt
    /// (or a chaos panic inside the counting) leaves base, buffers and
    /// tallies exactly as they were.
    fn flush_group_ctx(&mut self, g: GroupId, ctx: &RunContext) -> Result<FlushReport> {
        let (ins_cnt, del_cnt) = self.pending_edits(g);
        if ins_cnt == 0 && del_cnt == 0 {
            return Ok(FlushReport::default());
        }
        ctx.recorder().event(
            "dyn_forced_flush",
            0,
            Stamp::tick(self.stats.record_pairs),
            &[
                ("group", crate::num::wide(g)),
                ("ins", crate::num::wide(ins_cnt)),
                ("del", crate::num::wide(del_cnt)),
            ],
        );
        let ins_rows: Vec<f64> = self.pending_ins[g].clone();
        let del_rows: Vec<f64> = self.pending_del[g]
            .iter()
            .flat_map(|&r| self.base[g][r * self.dim..(r + 1) * self.dim].iter().copied())
            .collect();
        let new_b = self.base_len(g) - del_cnt + ins_cnt;
        // Stage every revision before committing anything: a panic or an
        // interrupt mid-count must not leave half-revised tallies.
        let mut staged: Vec<(GroupId, u64, u64, u64)> = Vec::new();
        for s in 0..self.n_groups() {
            if s == g || self.base_len(s) == 0 {
                continue;
            }
            let (mut n_gs, mut n_sg) = self.base_counts(g, s);
            if ins_cnt > 0 {
                match self.count_delta(&ins_rows, s, ctx)? {
                    Counted::Done(w, l) => {
                        n_gs = n_gs.saturating_add(w);
                        n_sg = n_sg.saturating_add(l);
                    }
                    Counted::Stopped(reason) => {
                        return Ok(FlushReport { flushed_pairs: 0, interrupted: Some(reason) });
                    }
                }
            }
            if del_cnt > 0 {
                match self.count_delta(&del_rows, s, ctx)? {
                    Counted::Done(w, l) => {
                        // Deleted pairs were part of the base tally, so the
                        // subtraction cannot underflow.
                        n_gs = n_gs.checked_sub(w).ok_or_else(|| tally_drift(g, s))?;
                        n_sg = n_sg.checked_sub(l).ok_or_else(|| tally_drift(g, s))?;
                    }
                    Counted::Stopped(reason) => {
                        return Ok(FlushReport { flushed_pairs: 0, interrupted: Some(reason) });
                    }
                }
            }
            let total = crate::num::pair_count(new_b, self.base_len(s))?;
            staged.push((s, n_gs, n_sg, total));
        }

        // Validate every staged tally before committing anything, so the
        // install loop below cannot fail halfway through.
        for &(s, n_gs, n_sg, total) in &staged {
            if n_gs.saturating_add(n_sg) > total {
                return Err(tally_drift(g, s));
            }
        }

        // Commit: rebuild the base row store, clear the buffers, install
        // the staged tallies.
        self.pending_ins[g].clear();
        for &r in self.pending_del[g].iter().rev() {
            self.base[g].drain(r * self.dim..(r + 1) * self.dim);
        }
        self.pending_del[g].clear();
        self.base[g].extend_from_slice(&ins_rows);
        debug_assert_eq!(self.base_len(g), new_b);
        if new_b == 0 {
            self.tallies.invalidate_group(g);
        } else {
            for &(s, n_gs, n_sg, total) in &staged {
                self.tallies.revise(g, s, n_gs, n_sg, total)?;
            }
        }
        let flushed = crate::num::wide(staged.len());
        ctx.recorder().add(ObsCounter::DynFlushedPairs, flushed);
        Ok(FlushReport { flushed_pairs: flushed, interrupted: None })
    }

    /// Counts `(|Δ ≻ S_base|, |S_base ≻ Δ|)` for a row-major delta buffer
    /// through [`Kernel::compare_bounded`] over a two-group mini
    /// preparation (the delta records become their own lane blocks). Work
    /// is charged to [`Stats`], mirrored to the context's recorder, and
    /// polled against the context's budget.
    fn count_delta(&mut self, delta: &[f64], s: GroupId, ctx: &RunContext) -> Result<Counted> {
        let delta_rows: Vec<&[f64]> = delta.chunks_exact(self.dim).collect();
        let base_rows: Vec<&[f64]> = self.base[s].chunks_exact(self.dim).collect();
        let mut b = GroupedDatasetBuilder::new(self.dim).trusted_labels();
        b.push_group("delta", &delta_rows)?;
        b.push_group("base", &base_rows)?;
        let mini = b.build()?;
        let kernel = Kernel::new(&mini, self.kernel)?;
        let mut stats = Stats::default();
        let bounded = kernel.compare_bounded(
            0,
            1,
            Gamma::DEFAULT,
            None,
            COUNT_OPTS,
            None,
            u64::MAX,
            None,
            &mut stats,
        );
        let ticks = stats.record_pairs;
        self.stats.merge(&stats);
        if let Some(rec) = ctx.obs() {
            stats.record_to(rec);
        }
        if let Some(reason) = ctx.poll(ticks) {
            return Ok(Counted::Stopped(reason));
        }
        match bounded {
            // Group 0 < group 1, so the canonical orientation is already
            // (Δ, S) and the tally is complete (no stop rule, no limit).
            BoundedCompare::Decided { tally: Some(t), .. } if t.complete() => {
                Ok(Counted::Done(t.n12, t.n21))
            }
            _ => Err(Error::InvalidArgument(
                "internal: unbounded full count did not produce a complete tally".into(),
            )),
        }
    }
}

fn tally_drift(g: GroupId, s: GroupId) -> Error {
    Error::InvalidArgument(format!(
        "internal: delete recount for pair ({g}, {s}) exceeds the memoized base tally"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive_skyline;
    use crate::testdata::lcg;

    /// Differential test: a random sequence of inserts/removes must always
    /// leave the dynamic structure consistent with a from-scratch recompute.
    #[test]
    fn random_update_sequences_match_recompute() {
        for seed in 0..10u64 {
            let mut next = lcg(100 + seed);
            let dim = 1 + (next() * 3.0) as usize;
            let mut dynamic = DynamicAggregateSkyline::new(dim);
            for g in 0..5 {
                dynamic.add_group(format!("g{g}"));
            }
            for step in 0..60 {
                let g = (next() * 5.0) as usize % 5;
                let remove = next() < 0.3 && dynamic.group_len(g) > 0;
                if remove {
                    let idx =
                        (next() * dynamic.group_len(g) as f64) as usize % dynamic.group_len(g);
                    dynamic.remove(g, idx).unwrap();
                } else {
                    let rec: Vec<f64> = (0..dim).map(|_| (next() * 6.0).floor()).collect();
                    dynamic.insert(g, &rec).unwrap();
                }
                // Cross-check against the oracle on the snapshot.
                if dynamic.n_records() == 0 {
                    continue;
                }
                let (snap, mapping) = dynamic.snapshot().unwrap();
                let oracle: Vec<GroupId> = naive_skyline(&snap, Gamma::DEFAULT)
                    .skyline
                    .into_iter()
                    .map(|g| mapping[g])
                    .collect();
                assert_eq!(
                    dynamic.skyline(Gamma::DEFAULT).unwrap(),
                    oracle,
                    "seed={seed} step={step}"
                );
                for s in 0..5 {
                    for r in 0..5 {
                        if s == r || dynamic.group_len(s) == 0 || dynamic.group_len(r) == 0 {
                            continue;
                        }
                        let si = mapping.iter().position(|&m| m == s).unwrap();
                        let ri = mapping.iter().position(|&m| m == r).unwrap();
                        let expect = crate::gamma::domination_probability(&snap, si, ri);
                        let got = dynamic.domination_probability(s, r).unwrap();
                        assert!((expect - got).abs() < 1e-12, "p({s},{r})");
                        // With everything folded the drift interval must
                        // collapse to the exact probability.
                        let (lo, hi) = dynamic.probability_bounds(s, r);
                        assert_eq!(lo, hi, "collapsed interval for ({s},{r})");
                        assert!((lo - got).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_groups_are_invisible() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![]);
        d.insert(a, &[1.0, 1.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        d.insert(b, &[2.0, 2.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![b]);
        // Remove b's only record: a rules again.
        d.remove(b, 0).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
    }

    #[test]
    fn late_group_addition_joins_the_tallies() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        d.insert(a, &[5.0, 5.0]).unwrap();
        let b = d.add_group("b");
        d.insert(b, &[1.0, 1.0]).unwrap();
        assert_eq!(d.domination_probability(a, b).unwrap(), 1.0);
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        let c = d.add_group("c");
        d.insert(c, &[9.0, 9.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![c]);
    }

    #[test]
    fn insert_validates_input() {
        let mut d = DynamicAggregateSkyline::new(2);
        let g = d.add_group("g");
        assert!(d.insert(g, &[1.0]).is_err());
        assert!(d.insert(g, &[1.0, f64::NAN]).is_err());
        assert!(d.remove(g, 0).is_err());
    }

    #[test]
    fn from_dataset_round_trips() {
        let ds = crate::testdata::movie_directors();
        let mut d = DynamicAggregateSkyline::from_dataset(&ds).unwrap();
        assert_eq!(d.n_records(), ds.n_records());
        let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), oracle);
    }

    /// The paper's motivating story: one bad movie from a great director
    /// nudges γ but, per Property 2, cannot swing it arbitrarily.
    #[test]
    fn single_insert_moves_gamma_boundedly() {
        let ds = crate::testdata::movie_directors();
        let mut d = DynamicAggregateSkyline::from_dataset(&ds).unwrap();
        let t = ds.group_by_label("Tarantino").unwrap();
        let w = ds.group_by_label("Wiseau").unwrap();
        let before = d.domination_probability(t, w).unwrap();
        assert_eq!(before, 1.0);
        // Tarantino releases a stinker. Before folding, the drift interval
        // must still contain the true probability.
        d.insert(t, &[1.0, 1.0]).unwrap();
        let (lo, hi) = d.probability_bounds(t, w);
        let after = d.domination_probability(t, w).unwrap();
        assert!(lo <= after + 1e-12 && after <= hi + 1e-12, "[{lo}, {hi}] ∌ {after}");
        // ε = 1/2 relative to the previous 2 records: γ(1−ε) = 0.5 ≤ γ'.
        assert!(after >= 1.0 / 1.5 - 1e-12, "after = {after}");
        assert!(after < 1.0);
    }

    /// The defer-recompute rule: an insert that cannot move any pair across
    /// γ is absorbed without kernel work; one that can forces a fold.
    #[test]
    fn deferral_skips_kernel_work_until_gamma_is_threatened() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        for i in 0..8 {
            d.insert(a, &[10.0 + i as f64, 10.0]).unwrap();
            d.insert(b, &[1.0 + i as f64, 1.0]).unwrap();
        }
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        let folded = d.stats().record_pairs;
        // One more dominated record for b: p(a ≻ b) can only stay above γ
        // (it was 1, and one edit moves it by at most 1/9 < 1 − γ̄ slack
        // with γ = 0.5 ... ), so the query is served from the interval.
        d.insert(b, &[2.0, 2.0]).unwrap();
        let out = d.skyline_ctx(Gamma::DEFAULT, &RunContext::unlimited()).unwrap();
        assert_eq!(out.groups, vec![a]);
        assert!(out.deferred_pairs > 0, "{out:?}");
        assert_eq!(out.flushed_pairs, 0, "{out:?}");
        assert_eq!(d.stats().record_pairs, folded, "no kernel work while deferred");
        assert!(d.has_pending());
        // Enough dominating records that p(b ≻ a) *could* cross γ = 0.5
        // (the drift interval's upper endpoint passes 1/2): forced fold.
        for _ in 0..10 {
            d.insert(b, &[99.0, 99.0]).unwrap();
        }
        let out = d.skyline_ctx(Gamma::DEFAULT, &RunContext::unlimited()).unwrap();
        assert!(out.flushed_pairs > 0, "{out:?}");
        assert!(d.stats().record_pairs > folded);
        assert!(!d.has_pending());
    }

    /// Budget interruption mid-fold leaves the structure consistent: the
    /// pending deltas survive, and an unlimited retry matches the oracle.
    #[test]
    fn interrupted_fold_is_resumable() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        for i in 0..20 {
            d.insert(a, &[i as f64, 20.0 - i as f64]).unwrap();
            d.insert(b, &[i as f64 + 0.5, 20.5 - i as f64]).unwrap();
        }
        let tiny = RunContext::with_budget(1);
        let out = d.skyline_ctx(Gamma::DEFAULT, &tiny).unwrap();
        assert_eq!(out.interrupted, Some(InterruptReason::BudgetExhausted));
        assert!(d.has_pending(), "interrupted fold must not half-commit");
        let (snap, mapping) = d.snapshot().unwrap();
        let oracle: Vec<GroupId> =
            naive_skyline(&snap, Gamma::DEFAULT).skyline.into_iter().map(|g| mapping[g]).collect();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), oracle);
        assert!(!d.has_pending());
    }

    /// Tallies are kernel-config independent: scalar-pinned and auto
    /// (AVX2 when available) maintenance produce bit-identical skylines,
    /// tallies and Stats on the same edit stream.
    #[test]
    fn kernel_configs_agree_bit_for_bit() {
        let configs = [
            KernelConfig::ColumnarScalar { block_size: 4 },
            KernelConfig::Blocked { block_size: 4 },
        ];
        let mut outcomes = Vec::new();
        for cfg in configs {
            let mut d = DynamicAggregateSkyline::with_kernel(2, cfg).unwrap();
            let mut next = lcg(7);
            for g in 0..4 {
                d.add_group(format!("g{g}"));
            }
            let mut skylines = Vec::new();
            for _ in 0..40 {
                let g = (next() * 4.0) as usize % 4;
                if next() < 0.25 && d.group_len(g) > 0 {
                    let idx = (next() * d.group_len(g) as f64) as usize % d.group_len(g);
                    d.remove(g, idx).unwrap();
                } else {
                    d.insert(g, &[(next() * 9.0).floor(), (next() * 9.0).floor()]).unwrap();
                }
                skylines.push(d.skyline(Gamma::DEFAULT).unwrap());
            }
            outcomes.push((skylines, d.export_tallies(), *d.stats()));
        }
        assert_eq!(outcomes[0], outcomes[1], "columnar-scalar vs blocked (auto)");
    }

    #[test]
    fn exhaustive_kernel_is_rejected() {
        let err = DynamicAggregateSkyline::with_kernel(2, KernelConfig::Exhaustive).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
    }

    /// Removing a record that was itself still pending cancels it without
    /// ever touching a tally.
    #[test]
    fn removing_a_pending_insert_is_free() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        d.insert(a, &[5.0, 5.0]).unwrap();
        d.insert(b, &[1.0, 1.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        let before = d.stats().record_pairs;
        d.insert(b, &[9.0, 9.0]).unwrap();
        assert_eq!(d.find_record(b, &[9.0, 9.0]), Some(1));
        let got = d.remove(b, 1).unwrap();
        assert_eq!(got, vec![9.0, 9.0]);
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        assert_eq!(d.stats().record_pairs, before, "cancelled insert must cost nothing");
    }
}
