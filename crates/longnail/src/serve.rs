//! `lnc serve` — the compile daemon — plus the persistent cell-bundle
//! orchestration it shares with `lnc --matrix --cache-dir`.
//!
//! Serve mode reads line-delimited JSON compile jobs from stdin, fans
//! them over the worker pool with the same per-cell panic isolation as
//! a matrix batch, and writes one JSON result per job to stdout — in
//! input order, regardless of worker scheduling:
//!
//! ```text
//! {"id": "j1", "isax": "dotprod", "core": "ORCA"}
//! {"id": "j2", "unit": "MyIsax", "core": "Piccolo", "src": "InstructionSet MyIsax { ... }"}
//!   ──▶
//! {"id": "j1", "status": "ok", "exit": 0, "units": 1, "message": ""}
//! {"id": "j2", "status": "error", "exit": 1, "units": 0, "message": "..."}
//! ```
//!
//! A job either names a builtin evaluation ISAX (`isax`) or carries its
//! own CoreDSL source (`unit` + `src`); `core` is always one of the
//! evaluation cores. `status` is `ok` / `error` / `fault` with `exit`
//! mirroring the lnc exit-code convention (0 / 1 / 2); the daemon
//! process itself always exits 0 — per-job failure is data, not a crash.
//!
//! All jobs in one batch share a [`PipelineCache`], so ten jobs against
//! the same ISAX frontend pay for it once, and with `--cache-dir` the
//! whole-cell bundles persist across daemon restarts. [`run_cells`] is
//! that persistent-layer batch path; `lnc --matrix` runs it once per
//! matrix, serve once per optimization level.

use crate::diag::Severity;
use crate::driver::{
    builtin_datasheet, CompiledIsax, Longnail, MatrixCell, MatrixEntry, MatrixResult,
};
use crate::isax_lib;
use crate::pipeline::{cell_key, CellBundle, PipelineCache};
use qcache::DiskCache;
use rtl::opt::OptLevel;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::io::Write;
use telemetry::aggregate::{self, MatrixSummary, PoolWorkerSummary, StageCacheSummary};
use telemetry::json::{parse_flat_object, write_str, Scalar};
use telemetry::{metrics, Trace};

/// Bundle pseudo-file carrying the rendered warning diagnostics of the
/// compile that produced the bundle. Never written into the cell's
/// output directory; replayed to stderr when the bundle is served so a
/// warm run reports what a cold run would.
pub const DIAGNOSTICS_FILE: &str = "__diagnostics";

/// Builds the persistent artifact bundle for one cleanly compiled cell:
/// exactly the files `lnc --matrix` writes into the cell directory (the
/// per-unit SystemVerilog, the SCAIE-V YAML, the stripped trace), plus
/// the [`DIAGNOSTICS_FILE`] pseudo-file when warnings were reported.
pub fn cell_bundle(compiled: &CompiledIsax) -> CellBundle {
    let mut bundle = CellBundle::default();
    for g in &compiled.graphs {
        bundle.push(format!("{}_{}.sv", compiled.name, g.name), g.verilog.clone());
    }
    bundle.push(
        format!("{}.scaiev.yaml", compiled.name),
        compiled.config.to_yaml(),
    );
    bundle.push("trace.jsonl", compiled.trace.stripped().to_jsonl());
    if !compiled.diagnostics.is_empty() {
        bundle.push(DIAGNOSTICS_FILE, compiled.diagnostics.render());
    }
    bundle
}

/// Number of compiled units a bundle carries (its `.sv` files).
pub fn bundle_units(bundle: &CellBundle) -> usize {
    bundle.files.iter().filter(|(n, _)| n.ends_with(".sv")).count()
}

/// Whether any planned fault targets this cell. Targeted cells bypass
/// the persistent layer in both directions: an injected failure must
/// fire identically warm or cold, and its artifacts must never be
/// trusted by healthy runs.
pub fn fault_bypassed(ln: &Longnail, cell: &MatrixCell) -> bool {
    ln.fault_plan
        .as_ref()
        .is_some_and(|p| p.targets_cell(&cell.unit, &cell.datasheet.core))
}

/// Probes the persistent layer for a cell's whole-artifact bundle.
/// `None` on absence, checksum/schema mismatch, or a malformed payload —
/// all of which mean "recompute", never "fail".
pub fn probe_cell(disk: &DiskCache, ln: &Longnail, cell: &MatrixCell) -> Option<CellBundle> {
    CellBundle::from_bytes(&disk.load("cell", &bundle_key(ln, cell))?)
}

/// The content key of a cell's bundle in the persistent layer.
fn bundle_key(ln: &Longnail, cell: &MatrixCell) -> qcache::Digest {
    cell_key(
        &cell.unit,
        &cell.src,
        &cell.datasheet,
        ln.chain_depth,
        ln.work_limit,
        &ln.config_fingerprint(),
    )
}

/// Persists a freshly compiled cell's bundle if — and only if — the
/// compile was clean (warnings allowed, errors and faults not): a cell
/// that fails deterministically must keep failing warm, with the same
/// diagnostics, so failures are never served from disk.
///
/// # Errors
///
/// Propagates the I/O error from the atomic store; the cache stays
/// consistent (a failed store leaves no entry behind).
pub fn store_cell(
    disk: &DiskCache,
    ln: &Longnail,
    cell: &MatrixCell,
    compiled: &CompiledIsax,
) -> std::io::Result<bool> {
    if !matches!(
        compiled.diagnostics.worst(),
        None | Some(Severity::Warning)
    ) {
        return Ok(false);
    }
    disk.store(
        "cell",
        &bundle_key(ln, cell),
        &cell_bundle(compiled).to_bytes(),
    )?;
    Ok(true)
}

/// One input cell of a [`CellBatch`].
#[derive(Debug, Clone, Copy)]
pub enum CellRun<'a> {
    /// Served verbatim from the persistent layer.
    Served(&'a CellBundle),
    /// Compiled in this batch.
    Compiled(&'a MatrixEntry),
}

impl<'a> CellRun<'a> {
    /// The cell's trace: a served cell's stored stripped trace, re-parsed,
    /// or a compiled cell's live one; `None` for a failed cell. Both
    /// reduce to the same deterministic view, so warm summaries stay
    /// byte-identical to cold ones.
    fn trace(self) -> Option<Cow<'a, Trace>> {
        match self {
            CellRun::Served(bundle) => bundle
                .file("trace.jsonl")
                .and_then(|t| Trace::from_jsonl(t).ok())
                .map(Cow::Owned),
            CellRun::Compiled(entry) => {
                entry.outcome.as_ref().ok().map(|c| Cow::Borrowed(&c.trace))
            }
        }
    }
}

/// A batch of cells run through the persistent layer by [`run_cells`].
/// Each `None` in `served` has, in order, its entry in `matrix`.
#[derive(Debug)]
pub struct CellBatch {
    /// Per input cell: the bundle the persistent layer served, or `None`
    /// when the cell was compiled.
    served: Vec<Option<CellBundle>>,
    matrix: MatrixResult,
    probed: u64,
    /// `{isax}_{core}` per input cell.
    names: Vec<String>,
}

/// Runs `cells` through the persistent layer of `pipe`: probes the disk
/// for every cell no fault targets, compiles the misses across `jobs`
/// workers, and stores the clean fresh bundles. Without a disk layer
/// every cell is compiled.
pub fn run_cells(
    ln: &Longnail,
    cells: &[MatrixCell],
    jobs: usize,
    pipe: &PipelineCache,
) -> CellBatch {
    let disk = pipe.disk();
    let mut probed = 0;
    let served: Vec<Option<CellBundle>> = cells
        .iter()
        .map(|cell| {
            let disk = disk.filter(|_| !fault_bypassed(ln, cell))?;
            probed += 1;
            probe_cell(disk, ln, cell)
        })
        .collect();
    let misses: Vec<MatrixCell> = cells
        .iter()
        .zip(&served)
        .filter(|(_, s)| s.is_none())
        .map(|(c, _)| c.clone())
        .collect();
    let matrix = ln.compile_cells(&misses, jobs, pipe);
    if let Some(disk) = disk {
        for (cell, entry) in misses.iter().zip(&matrix.entries) {
            match &entry.outcome {
                Ok(compiled) if !fault_bypassed(ln, cell) => {
                    if let Err(e) = store_cell(disk, ln, cell, compiled) {
                        eprintln!("warning: cell cache store failed: {e}");
                    }
                }
                _ => {}
            }
        }
    }
    CellBatch {
        served,
        matrix,
        probed,
        names: cells
            .iter()
            .map(|c| format!("{}_{}", c.isax, c.datasheet.core))
            .collect(),
    }
}

impl CellBatch {
    /// Every cell in input order, served or compiled.
    pub fn runs(&self) -> impl Iterator<Item = CellRun<'_>> + '_ {
        let mut compiled = self.matrix.entries.iter();
        self.served.iter().map(move |s| match s {
            Some(bundle) => CellRun::Served(bundle),
            None => CellRun::Compiled(compiled.next().expect("every probe miss was compiled")),
        })
    }

    /// The compile of the cells that were not served, in input order.
    pub fn matrix(&self) -> &MatrixResult {
        &self.matrix
    }

    /// Cells probed against the persistent layer.
    pub fn probed(&self) -> u64 {
        self.probed
    }

    /// Cells the persistent layer served.
    pub fn served_count(&self) -> u64 {
        self.served.iter().flatten().count() as u64
    }

    /// Each cell's name, trace, and whether it was served; failed cells
    /// have no trace and are skipped.
    fn cell_traces(&self) -> Vec<(String, Cow<'_, Trace>, bool)> {
        self.names
            .iter()
            .zip(self.runs())
            .filter_map(|(name, run)| {
                Some((
                    name.clone(),
                    run.trace()?,
                    matches!(run, CellRun::Served(_)),
                ))
            })
            .collect()
    }

    /// The batch's [`MatrixSummary`]: the per-cell aggregation plus the
    /// batch fields, one `stage_cache` row per stage and a `cell` row for
    /// the persistent layer, and one pool row per worker.
    pub fn summary(&self) -> MatrixSummary {
        let traces = self.cell_traces();
        let named: Vec<(String, &Trace)> =
            traces.iter().map(|(n, t, _)| (n.clone(), &**t)).collect();
        let m = &self.matrix;
        let frontend = m.stage("frontend");
        let mut summary = aggregate::summarize(&named);
        // Batch-level fields come from the authoritative MatrixResult
        // (failed cells have no trace for the aggregator to see).
        summary.cells = self.served.len() as u64;
        summary.jobs = m.jobs as u64;
        summary.cache_hits = frontend.hits;
        summary.cache_misses = frontend.misses;
        summary.cell_faults = m.cell_faults;
        summary.errors_recovered = m.errors_recovered;
        summary.pool_wall_ns = m.pool_stats.wall_ns;
        // Per-stage cache attribution: the compile run's hit/miss deltas,
        // plus one credited hit per stage span a served bundle would have
        // recomputed. The `cell` row counts probes of the persistent layer.
        let row = |stage: &str, hits, misses, waits| StageCacheSummary {
            stage: stage.to_string(),
            hits,
            misses,
            waits,
        };
        for stage in telemetry::STAGES {
            let d = m.stage(stage);
            let served = traces.iter().filter(|(_, _, served)| *served);
            let credit: usize = served.map(|(_, t, _)| t.span_count(stage)).sum();
            let hits = d.hits + credit as u64;
            summary
                .stage_cache
                .push(row(stage, hits, d.misses, d.waits));
        }
        let served = self.served_count();
        summary
            .stage_cache
            .push(row("cell", served, self.probed - served, 0));
        for (w, ws) in m.pool_stats.per_worker.iter().enumerate() {
            summary.pool.push(PoolWorkerSummary {
                jobs: ws.jobs,
                busy_ns: ws.busy_ns,
                utilization: m.pool_stats.utilization(w),
            });
        }
        summary
    }

    /// The merged, unstripped matrix trace: every cell's spans under one
    /// root `matrix` span, plus the batch's cache and pool metrics.
    pub fn merged_trace(&self) -> Trace {
        let traces = self.cell_traces();
        let named: Vec<(String, &Trace)> =
            traces.iter().map(|(n, t, _)| (n.clone(), &**t)).collect();
        let frontend = self.matrix.stage("frontend");
        let pool = &self.matrix.pool_stats;
        let counters = [
            (metrics::CACHE_FRONTEND_HIT, frontend.hits),
            (metrics::CACHE_FRONTEND_MISS, frontend.misses),
            (metrics::POOL_QUEUE_WAIT_NS, pool.queue_wait_total_ns()),
            (metrics::POOL_RUN_NS, pool.run_total_ns()),
            (metrics::POOL_WALL_NS, pool.wall_ns),
        ]
        .map(|(name, v)| (name.to_string(), v));
        let gauges: Vec<(String, f64)> = (0..pool.per_worker.len())
            .map(|w| {
                (
                    metrics::POOL_WORKER_UTILIZATION.to_string(),
                    pool.utilization(w),
                )
            })
            .collect();
        aggregate::merge_traces(&named, &counters, &gauges, pool.wall_ns)
    }
}

/// One parsed serve job: a builtin ISAX by display name, or inline
/// CoreDSL source, targeted at one evaluation core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Job {
    /// Caller-chosen correlation id, echoed back in the result.
    pub id: String,
    /// Builtin ISAX display name (`dotprod`, `zol`, …).
    pub isax: Option<String>,
    /// CoreDSL unit name, for inline-source jobs.
    pub unit: Option<String>,
    /// Target core name.
    pub core: String,
    /// Inline CoreDSL source text.
    pub src: Option<String>,
    /// Per-job optimization level override (0, 1, or 2). Jobs without
    /// one compile at the daemon's `--opt-level`.
    pub opt_level: Option<u8>,
}

/// The fields a job line may carry.
const JOB_FIELDS: [&str; 6] = ["id", "isax", "unit", "core", "src", "opt_level"];

/// Parses one job line: a flat JSON object with string values, read by
/// the telemetry JSON codec. Anything else is rejected with a message.
pub fn parse_job(line: &str) -> Result<Job, String> {
    let fields =
        parse_flat_object(line).map_err(|e| format!("job line is not a JSON object: {e}"))?;
    // The codec returns a map; report the alphabetically first unknown
    // field so the message does not depend on hash order.
    if let Some(other) = fields
        .keys()
        .filter(|k| !JOB_FIELDS.contains(&k.as_str()))
        .min()
    {
        return Err(format!("unknown job field `{other}`"));
    }
    let field = |key: &str| match fields.get(key) {
        None => Ok(None),
        Some(Scalar::Str(v)) => Ok(Some(v.clone())),
        Some(_) => Err(format!(
            "field `{key}` must be a string (only string values are allowed)"
        )),
    };
    let opt_level = match field("opt_level")?.as_deref() {
        None => None,
        Some(v @ ("0" | "1" | "2")) => Some(v.as_bytes()[0] - b'0'),
        Some(other) => return Err(format!("opt_level `{other}` is not 0, 1, or 2")),
    };
    let job = Job {
        id: field("id")?.unwrap_or_default(),
        isax: field("isax")?,
        unit: field("unit")?,
        core: field("core")?.unwrap_or_default(),
        src: field("src")?,
        opt_level,
    };
    if job.core.is_empty() {
        return Err("job is missing `core`".into());
    }
    match (&job.isax, &job.src, &job.unit) {
        (Some(_), None, None) | (None, Some(_), Some(_)) => Ok(job),
        (Some(_), _, _) => Err("give either `isax` or `unit`+`src`, not both".into()),
        _ => Err("job needs `isax` (builtin) or `unit`+`src` (inline source)".into()),
    }
}

/// One job's outcome, in the lnc exit-code convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The job's correlation id, echoed back.
    pub id: String,
    /// `ok`, `error`, or `fault`.
    pub status: &'static str,
    /// 0 (clean), 1 (compile error), 2 (internal fault).
    pub exit: u8,
    /// Units compiled (instructions + always-blocks); 0 on failure.
    pub units: usize,
    /// First diagnostic, empty when ok.
    pub message: String,
}

impl JobResult {
    fn ok(id: &str, units: usize) -> JobResult {
        JobResult {
            id: id.to_string(),
            status: "ok",
            exit: 0,
            units,
            message: String::new(),
        }
    }

    fn failed(id: &str, status: &'static str, exit: u8, message: String) -> JobResult {
        JobResult {
            id: id.to_string(),
            status,
            exit,
            units: 0,
            message,
        }
    }

    /// The serialized result line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"id\": ");
        write_str(&mut out, &self.id);
        out.push_str(&format!(
            ", \"status\": \"{}\", \"exit\": {}, \"units\": {}, \"message\": ",
            self.status, self.exit, self.units
        ));
        write_str(&mut out, &self.message);
        out.push('}');
        out
    }

    /// The result of one cell of a serve batch.
    fn of_run(id: &str, run: CellRun) -> JobResult {
        let entry = match run {
            CellRun::Served(bundle) => return JobResult::ok(id, bundle_units(bundle)),
            CellRun::Compiled(entry) => entry,
        };
        match &entry.outcome {
            Ok(compiled) if !compiled.diagnostics.has_errors() => {
                JobResult::ok(id, compiled.graphs.len())
            }
            Ok(compiled) => {
                let first = compiled.diagnostics.of(Severity::Error).next();
                JobResult::failed(
                    id,
                    "error",
                    1,
                    first.map(|d| d.to_string()).unwrap_or_default(),
                )
            }
            Err(e) if e.severity == Severity::Fault => {
                JobResult::failed(id, "fault", 2, format!("[{}] {}", e.stage, e.message))
            }
            Err(e) => JobResult::failed(id, "error", 1, format!("[{}] {}", e.stage, e.message)),
        }
    }
}

/// Resolves a parsed job to a compilable matrix cell.
fn resolve(job: &Job) -> Result<MatrixCell, String> {
    let Some(datasheet) = builtin_datasheet(&job.core) else {
        return Err(format!(
            "unknown core `{}` (known: {})",
            job.core,
            crate::driver::EVAL_CORES.join(", ")
        ));
    };
    let (isax, unit, src) = match (&job.isax, &job.unit, &job.src) {
        (Some(name), _, _) => {
            let Some((_, unit, src)) = isax_lib::all_isaxes().into_iter().find(|(n, _, _)| n == name)
            else {
                return Err(format!("unknown builtin isax `{name}`"));
            };
            (name.clone(), unit, src)
        }
        (None, Some(unit), Some(src)) => (unit.clone(), unit.clone(), src.clone()),
        _ => unreachable!("parse_job validated the shape"),
    };
    Ok(MatrixCell {
        isax,
        unit,
        src,
        datasheet,
    })
}

/// Runs one serve batch: parses every input line, runs the jobs of each
/// optimization level through [`run_cells`] on the shared cache, and
/// writes one result line per job in input order.
///
/// # Errors
///
/// Only I/O errors writing `out`; job failures are result lines.
pub fn run_serve(
    ln: &Longnail,
    pipe: &PipelineCache,
    jobs: usize,
    input: &str,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let base = ln.opt_level.level();
    // Each line is a finished result (a bad job) or a cell at its level.
    let parsed: Vec<Result<(u8, String, MatrixCell), JobResult>> = input
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|line| {
            let job = parse_job(line)
                .map_err(|msg| JobResult::failed("", "error", 1, format!("bad job: {msg}")))?;
            let cell = resolve(&job).map_err(|msg| JobResult::failed(&job.id, "error", 1, msg))?;
            Ok((job.opt_level.unwrap_or(base), job.id, cell))
        })
        .collect();
    let mut results: Vec<Option<JobResult>> =
        parsed.iter().map(|p| p.as_ref().err().cloned()).collect();
    let levels: BTreeSet<u8> = parsed
        .iter()
        .flatten()
        .map(|(level, _, _)| *level)
        .collect();
    for level in levels {
        // Jobs that override the daemon's `--opt-level` run on a sibling
        // compiler. Each level's cache keys embed its config fingerprint,
        // so batches at different levels never cross-serve artifacts.
        let sibling;
        let lnl = if level == base {
            ln
        } else {
            sibling = ln.with_opt_level(
                OptLevel::from_level(level).expect("parse_job validated the level"),
            );
            &sibling
        };
        let (slots, cells): (Vec<(usize, &str)>, Vec<MatrixCell>) = parsed
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Ok((lv, id, cell)) if *lv == level => Some(((i, id.as_str()), cell.clone())),
                _ => None,
            })
            .unzip();
        let batch = run_cells(lnl, &cells, jobs, pipe);
        for ((i, id), run) in slots.into_iter().zip(batch.runs()) {
            results[i] = Some(JobResult::of_run(id, run));
        }
    }
    for r in results {
        writeln!(out, "{}", r.expect("every job line got a result").to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_builtin_and_inline_jobs() {
        let j = parse_job(r#"{"id": "a", "isax": "dotprod", "core": "ORCA"}"#).unwrap();
        assert_eq!(j.id, "a");
        assert_eq!(j.isax.as_deref(), Some("dotprod"));
        assert_eq!(j.core, "ORCA");
        let j = parse_job(r#"{"id":"b","unit":"U","core":"Piccolo","src":"x \"y\"\n"}"#).unwrap();
        assert_eq!(j.src.as_deref(), Some("x \"y\"\n"));
        assert_eq!(j.unit.as_deref(), Some("U"));
    }

    #[test]
    fn rejects_malformed_jobs_with_messages() {
        assert!(parse_job("not json").unwrap_err().contains("JSON object"));
        assert!(parse_job(r#"{"id": 3}"#).unwrap_err().contains("string"));
        assert!(parse_job(r#"{"id": "a"}"#).unwrap_err().contains("core"));
        assert!(parse_job(r#"{"core": "ORCA"}"#).unwrap_err().contains("isax"));
        assert!(parse_job(r#"{"core": "ORCA", "isax": "d", "src": "s", "unit": "u"}"#)
            .unwrap_err()
            .contains("not both"));
        assert!(parse_job(r#"{"core": "ORCA", "zzz": "1"}"#)
            .unwrap_err()
            .contains("zzz"));
        assert!(parse_job(r#"{"core": "ORCA"} trailing"#)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let j = parse_job(r#"{"id": "A\t", "isax": "d", "core": "ORCA"}"#).unwrap();
        assert_eq!(j.id, "A\t");
        let r = JobResult::failed("A\t\"x\"", "error", 1, "line\nbreak".into());
        assert_eq!(
            r.to_json(),
            r#"{"id": "A\t\"x\"", "status": "error", "exit": 1, "units": 0, "message": "line\nbreak"}"#
        );
    }

    #[test]
    fn serve_batch_reports_per_job_status_in_input_order() {
        let ln = Longnail::new();
        let pipe = PipelineCache::new();
        let input = concat!(
            r#"{"id": "good", "isax": "dotprod", "core": "ORCA"}"#,
            "\n",
            r#"{"id": "badcore", "isax": "dotprod", "core": "Z80"}"#,
            "\n",
            "this is not json\n",
            r#"{"id": "inline", "unit": "Broken", "core": "ORCA", "src": "InstructionSet Broken {"}"#,
            "\n",
        );
        let mut out = Vec::new();
        run_serve(&ln, &pipe, 2, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains(r#""id": "good", "status": "ok", "exit": 0"#), "{text}");
        assert!(lines[1].contains(r#""id": "badcore", "status": "error""#), "{text}");
        assert!(lines[2].contains(r#""status": "error""#), "{text}");
        assert!(lines[3].contains(r#""id": "inline", "status": "error", "exit": 1"#), "{text}");
    }

    #[test]
    fn parses_and_validates_the_opt_level_field() {
        let j = parse_job(r#"{"id": "a", "isax": "dotprod", "core": "ORCA", "opt_level": "2"}"#)
            .unwrap();
        assert_eq!(j.opt_level, Some(2));
        let j = parse_job(r#"{"id": "a", "isax": "dotprod", "core": "ORCA"}"#).unwrap();
        assert_eq!(j.opt_level, None);
        assert!(
            parse_job(r#"{"id": "a", "isax": "dotprod", "core": "ORCA", "opt_level": "3"}"#)
                .unwrap_err()
                .contains("not 0, 1, or 2")
        );
    }

    #[test]
    fn jobs_at_mixed_opt_levels_compile_in_one_batch() {
        let ln = Longnail::new();
        let pipe = PipelineCache::new();
        let input = concat!(
            r#"{"id": "plain", "isax": "dotprod", "core": "ORCA"}"#,
            "\n",
            r#"{"id": "opt", "isax": "dotprod", "core": "ORCA", "opt_level": "2"}"#,
            "\n",
        );
        let mut out = Vec::new();
        run_serve(&ln, &pipe, 1, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains(r#""id": "plain", "status": "ok", "exit": 0"#), "{text}");
        assert!(lines[1].contains(r#""id": "opt", "status": "ok", "exit": 0"#), "{text}");
        // The -O2 job ran the opt stage through the shared cache; the -O0
        // job did not (its key cone has no opt entry to look up).
        let stats: std::collections::HashMap<_, _> = pipe.stage_stats().into_iter().collect();
        let opt = stats.get("opt").copied().unwrap_or_default();
        assert_eq!(opt.misses, 1, "exactly the -O2 job's unit optimizes");
    }

    #[test]
    fn serve_shares_the_frontend_across_jobs() {
        let ln = Longnail::new();
        let pipe = PipelineCache::new();
        let input = concat!(
            r#"{"id": "1", "isax": "dotprod", "core": "ORCA"}"#,
            "\n",
            r#"{"id": "2", "isax": "dotprod", "core": "Piccolo"}"#,
            "\n",
        );
        let mut out = Vec::new();
        run_serve(&ln, &pipe, 1, input, &mut out).unwrap();
        let stats: std::collections::HashMap<_, _> = pipe.stage_stats().into_iter().collect();
        let fe = stats.get("frontend").copied().unwrap_or_default();
        assert_eq!((fe.misses, fe.hits), (1, 1), "one parse, one reuse");
    }
}
