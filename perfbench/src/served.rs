//! `served_table`: a table bound with `serve_skyline` and fed a stream of
//! 90% single-row writes and 10% skyline reads.

use crate::gen::{self, Group};
use crate::oracle::{check, Counts, Live};
use crate::report::{peak_rss_mb, timed, Kind, Run, Samples};
use crate::sql::{check_reply, journal_counts, load, next_gamma, read_layers};
use crate::{for_seconds, Params};
use aggsky::{Database, Gamma, GroupedDatasetBuilder, SkylineService, WriteBatch};

/// Share of reads in the statement stream.
const READ_SHARE: f64 = 0.1;
/// γ of the serving binding.
const SERVE_GAMMA: f64 = 0.5;

/// A write whose journal record is checked when the run ends.
struct Write {
    stmt: String,
    /// Index of its journal record; `None` when the statement failed.
    journal_index: Option<usize>,
    affected: Result<(), String>,
}

/// What the traced half measures on top of the plain stream.
struct Tracer {
    shadow: SkylineService,
    apply_ms: Samples,
    dml_ms: Samples,
    epoch_ms: Samples,
    scan_ms: Samples,
    sky_ms: Samples,
    all_ms: Samples,
    reads: Vec<usize>,
}

struct Stream {
    db: Database,
    live: Live,
    groups: Vec<Group>,
    ops: gen::Rng,
    gammas: gen::Gammas,
    read_ms: Samples,
    write_ms: Samples,
    all_ms: Samples,
    writes: Vec<Write>,
}

impl Stream {
    /// Draws and runs the next statement, checking it outside the timing.
    fn step(&mut self, run: &mut Run, tracer: Option<&mut Tracer>) {
        if self.ops.f64() < READ_SHARE {
            self.read(run, tracer);
            return;
        }
        let insert = self.ops.below(3) < 2;
        let (stmt, label, values, target) = if insert {
            let group = self.live.row(self.ops.below(self.live.len())).group;
            let values = self.groups[group].draw(&mut self.ops);
            let label = self.live.label(group).to_string();
            let tuple = gen::row_tuple(self.live.next_id(), &label, &values);
            (format!("INSERT INTO t VALUES {tuple}"), label, values, group)
        } else {
            let index = self.ops.below(self.live.len());
            let row = self.live.row(index).clone();
            let label = self.live.label(row.group).to_string();
            (format!("DELETE FROM t WHERE id = {}", row.id), label, row.values, index)
        };
        let at = self.db.journal().len();
        let (reply, ms) = timed(|| self.db.execute(&stmt));
        self.write_ms.push(ms);
        self.all_ms.push(ms);
        let affected = match &reply {
            Ok(r)
                if r.rows
                    .first()
                    .and_then(|row| row.first())
                    .map(ToString::to_string)
                    .as_deref()
                    == Some("1") =>
            {
                Ok(())
            }
            Ok(r) => Err(format!("rows_affected {:?}", r.rows)),
            Err(e) => Err(format!("error: {e}")),
        };
        if reply.is_ok() {
            if insert {
                self.live.insert(target, values);
            } else {
                self.live.delete(target);
            }
        }
        self.writes.push(Write { stmt, journal_index: reply.is_ok().then_some(at), affected });
        if let Some(t) = tracer {
            let batch = if insert {
                WriteBatch::new().insert(label, &values)
            } else {
                WriteBatch::new().delete(label, &values)
            };
            let (applied, apply_ms) = timed(|| t.shadow.apply(&batch));
            run.outcome(
                "shadow SkylineService::apply",
                applied.map(|_| ()).map_err(|e| e.to_string()),
            );
            t.apply_ms.push(apply_ms);
            t.dml_ms.push(ms - apply_ms);
            t.all_ms.push(ms);
        }
    }

    fn read(&mut self, run: &mut Run, tracer: Option<&mut Tracer>) {
        let (text, gamma) = next_gamma(&mut self.gammas);
        let stmt = gen::skyline_sql(&text);
        let want = self.live.counts.skyline(gamma);
        let scan = tracer.is_some().then(|| {
            let (reply, ms) = timed(|| self.db.execute(gen::SCAN_AGG_SQL));
            run.outcome(gen::SCAN_AGG_SQL, check_reply(&reply, &self.live.counts.present()));
            ms
        });
        let at = self.db.journal().len();
        let (reply, ms) = timed(|| self.db.execute(&stmt));
        self.read_ms.push(ms);
        self.all_ms.push(ms);
        run.outcome(&stmt, check_reply(&reply, &want));
        if let (Some(t), Some(scan_ms)) = (tracer, scan) {
            t.reads.push(at);
            t.scan_ms.push(scan_ms);
            t.sky_ms.push(ms - scan_ms);
            t.all_ms.push(ms);
            let ((epoch, ids), epoch_ms) = timed(|| {
                let epoch = self.db.serving_epoch("t").expect("t is bound");
                let ids = epoch.query(gamma);
                (epoch, ids)
            });
            t.epoch_ms.push(epoch_ms);
            let snap = epoch.dataset();
            let labels: Vec<String> = ids
                .iter()
                .filter_map(|&id| (0..snap.n_groups()).find(|&si| epoch.service_id(si) == id))
                .map(|si| snap.label(si).to_string())
                .collect();
            run.outcome(&format!("Epoch::query({text})"), check(&labels, &want));
        }
    }

    /// Checks every write's journal record: one row affected and the epoch
    /// advanced by exactly one. Returns (epochs published, deferred pairs,
    /// flushed pairs).
    fn finish_writes(&mut self, run: &mut Run, first_epoch: u64) -> (u64, u64, u64) {
        let records = self.db.journal().records();
        let mut epoch = first_epoch;
        let (mut published, mut deferred, mut flushed) = (0, 0, 0);
        for w in self.writes.drain(..) {
            let record = w.journal_index.and_then(|i| records.get(i));
            let result = w.affected.and_then(|()| {
                let record = record.ok_or("no journal record")?;
                deferred += record.deferred_pairs;
                flushed += record.flushed_pairs;
                match record.epoch {
                    Some(e) if e == epoch + 1 => {
                        epoch = e;
                        published += 1;
                        Ok(())
                    }
                    Some(e) => {
                        let msg = format!("epoch {e} after epoch {epoch}");
                        epoch = e;
                        Err(msg)
                    }
                    None => Err("no epoch in the journal record".to_string()),
                }
            });
            run.outcome(&w.stmt, result);
        }
        (published, deferred, flushed)
    }
}

pub fn run(p: &Params) -> Run {
    let mut run = Run::default();
    let mut setup = Samples::default();
    let mut loaded = None;
    for _ in 0..p.size.setups {
        let (state, ms) = timed(|| {
            let (groups, mut db) = load(p);
            if let Err(e) = db.serve_skyline("t", "g", &gen::MEASURES, SERVE_GAMMA) {
                eprintln!("perfbench: serve_skyline failed: {e}");
                std::process::exit(1);
            }
            (groups, db)
        });
        setup.push(ms);
        loaded = Some(state);
    }
    let (groups, db) = loaded.expect("at least one set-up ran");
    let first_epoch = db.serving_epoch("t").expect("t is bound").id();
    let live = Live::new(&groups, Counts::exhaustive(&groups));
    let mut s = Stream {
        db,
        live,
        groups,
        ops: gen::stream(p.seed, gen::WRITE_STREAM),
        gammas: gen::Gammas::new(p.seed),
        read_ms: Samples::default(),
        write_ms: Samples::default(),
        all_ms: Samples::default(),
        writes: Vec::new(),
    };

    // Warm-up: one read, then the measured stream.
    let at = s.db.journal().len();
    s.read(&mut run, None);
    let kernel = journal_counts(&s.db, &[at]).kernel;
    run.lines.push(format!("kernel sql journal_kernel=\"{kernel}\""));
    s.read_ms = Samples::default();
    s.all_ms = Samples::default();
    for_seconds(p.untraced_seconds(), p.size.min_ops, || s.step(&mut run, None));
    let rss = peak_rss_mb();
    let (reads, writes, all) = (s.read_ms.clone(), s.write_ms.clone(), s.all_ms.clone());

    let mut tracer = None;
    if p.trace {
        s.db.set_record_wall_time(true);
        let mut b = GroupedDatasetBuilder::new(gen::DIM);
        for (label, rows) in s.live.groups() {
            b.push_group(label, &rows).expect("live groups are valid");
        }
        let ds = b.build().expect("live dataset is valid");
        let gamma = Gamma::new(SERVE_GAMMA).expect("valid gamma");
        let mut t = Tracer {
            shadow: SkylineService::from_dataset(&ds, gamma).expect("the shadow service builds"),
            apply_ms: Samples::default(),
            dml_ms: Samples::default(),
            epoch_ms: Samples::default(),
            scan_ms: Samples::default(),
            sky_ms: Samples::default(),
            all_ms: Samples::default(),
            reads: Vec::new(),
        };
        for_seconds(p.seconds / 2.0, p.size.min_ops, || s.step(&mut run, Some(&mut t)));
        tracer = Some(t);
    }
    let n_writes = s.writes.len();
    let (published, deferred, flushed) = s.finish_writes(&mut run, first_epoch);

    let n = all.len() as f64;
    run.e2e("setup_s", setup.p50() / 1e3, format!("median of {} set-ups", setup.len()));
    run.e2e("peak_rss_mb", rss, "VmHWM; includes the query journal");
    run.e2e("ops_per_s", n / (all.sum() / 1e3), format!("n={n}"));
    run.e2e("query_ms_p50", reads.p50(), format!("reads, n={}", reads.len()));
    run.e2e("op_ms_p50", all.p50(), format!("all statements, n={n}"));
    run.extra("ops_per_s", Some(n / (all.sum() / 1e3)), "1/s", &format!("n={n}"));
    let w = format!("n={}", writes.len());
    run.extra("write_ms_p50", Some(writes.p50()), "ms", &w);
    run.extra("write_ms_p90", writes.p90(), "ms", &format!("{w}; reported from 100 samples"));
    let r = format!("n={}", reads.len());
    run.extra("read_ms_p50", Some(reads.p50()), "ms", &r);
    run.extra("read_ms_p90", reads.p90(), "ms", &format!("{r}; reported from 100 samples"));

    if let Some(t) = tracer {
        let writes = format!("over the run's {n_writes} writes");
        run.layer(
            "core.service.apply_ms",
            t.apply_ms.p50(),
            Kind::Timing,
            "shadow SkylineService::apply, one-op batch",
        );
        run.layer("sql.dml_ms", t.dml_ms.p50(), Kind::Derived, "write - apply, per write");
        run.layer(
            "core.service.deferred_pairs",
            deferred as f64,
            Kind::Exact,
            format!("journal, {writes}"),
        );
        run.layer(
            "core.service.flushed_pairs",
            flushed as f64,
            Kind::Exact,
            format!("journal, {writes}"),
        );
        let ratio = flushed as f64 / (flushed + deferred) as f64;
        run.layer(
            "core.dynamic.flush_ratio",
            ratio,
            Kind::Derived,
            "flushed / (flushed + deferred)",
        );
        run.layer(
            "core.service.epochs_published",
            published as f64,
            Kind::Exact,
            format!("journal, {writes}"),
        );
        run.layer(
            "core.service.epoch_query_ms",
            t.epoch_ms.p50(),
            Kind::Timing,
            "serving_epoch(t).query(gamma)",
        );
        let j = journal_counts(&s.db, &t.reads);
        read_layers(&mut run, &t.scan_ms, &t.sky_ms, &j);
        run.layer("obs.journal_records", j.records as f64, Kind::Exact, "statements journaled");
        run.layer(
            "trace_overhead",
            t.all_ms.p50() / all.p50(),
            Kind::Derived,
            "traced / untraced statement p50",
        );
    }
    run
}
