//! `lnc` — the Longnail command-line compiler.
//!
//! `lnc --help` prints the synopsis, generated from the flag table
//! `FLAGS`: each flag's spelling, value, the modes it applies to, and how
//! its value is checked. A flag outside its modes, a repeated flag, and
//! the pairs in `CONFLICTS` are one-line `error:`s (exit 1) before any
//! compile. There are three modes.
//!
//! `lnc <file.core_desc> --core <core>` compiles one CoreDSL description
//! for one host core and writes one SystemVerilog file per
//! instruction/always-block plus the SCAIE-V configuration YAML into
//! --out (default: the current directory). --emit prints one
//! representation to stdout instead, --report prints the per-unit compile
//! report (schedule, hardware, and solver statistics); --out, --emit and
//! --report exclude each other. `--emit hir` and `--emit datasheet` print
//! before compiling, so they exclude --xcheck, --trace, --metrics-out and
//! --profile-folded.
//!
//! `lnc --matrix` compiles the full evaluation matrix (the eight Table 3
//! ISAXes for all four evaluation cores) through one shared pipeline
//! cache, fanning the 32 cells out across --jobs worker threads (default
//! 1). Artifacts land in `--out/<isax>_<core>/`: the SystemVerilog per
//! unit, the SCAIE-V YAML, and the stripped (timing-free) trace as JSONL,
//! plus --out/matrix_summary.json. Output is byte-identical for every
//! --jobs value. --summary prints the per-stage min/p50/p95/max table with
//! the critical-path cell, cache attribution, and pool utilization;
//! --verbose prints one progress line per cell to stderr. --keep-going
//! grades a batch by what survived: a partially successful batch exits 3
//! instead of 1/2.
//!
//! `lnc serve` runs the compile daemon: line-delimited JSON jobs on stdin
//! (`{"id": ..., "isax": <builtin>, "core": <core>}` or `{"id": ...,
//! "unit": ..., "core": ..., "src": <CoreDSL text>}`, optionally with an
//! `"opt_level"` override), one JSON result per job on stdout in input
//! order (`{"id", "status": "ok|error|fault", "exit": 0|1|2, "units",
//! "message"}`). The daemon exits 0; per-job failure is data.
//!
//! --xcheck (single and matrix) runs the differential X-propagation
//! oracle after compiling: every netlist is re-executed under four-state
//! IEEE-1800 semantics (`rtl::xsim`) against the two-valued interpreter,
//! and the static X-hazard lint is applied. Any finding is an internal
//! fault (exit 2). In matrix mode each cell's oracle telemetry lands in
//! `--out/<isax>_<core>/xcheck.jsonl`.
//!
//! --budget bounds the deterministic solver work per instruction; an
//! instruction that exhausts it degrades to the verified ASAP fallback
//! with a warning. --opt-level {0,1,2} selects the oracle-gated netlist
//! optimization (`rtl::opt`, default 0); the level is part of every cache
//! key. --fault-plan injects deterministic faults into the cells a plan
//! file names (see `longnail::faults`); chaos testing only.
//!
//! --cache-dir (matrix and serve) persists whole-cell artifact bundles
//! keyed by content. A warm rerun compiles nothing and writes every
//! bundle's bytes back verbatim, so the artifact tree is byte-identical to
//! the cold run's; per-stage attribution goes to stderr as `cache-stats:`
//! lines. Cells a fault plan targets bypass the cache in both directions,
//! and cells with errors are never stored. It excludes --xcheck, which
//! needs in-memory compilations. --cache-mem-bytes caps the in-memory
//! stage cache (LRU eviction).
//!
//! Observability (single and matrix): --trace prints the stage-span tree
//! with timings to stderr; --metrics-out writes the full telemetry event
//! stream as JSON lines (in matrix mode the merged, unstripped trace);
//! --profile-folded writes a flamegraph-compatible folded-stack profile.
//!
//! Diagnostics go to stderr. Exit codes: 0 — clean or warnings only;
//! 1 — a unit failed to compile (the other units are still written) or a
//! bad command line; 2 — an internal compiler fault; 3 — partial success
//! under --keep-going.

use longnail::driver::{builtin_datasheet, eval_datasheets, EVAL_CORES};
use longnail::serve::{bundle_units, cell_bundle, run_cells, CellRun, DIAGNOSTICS_FILE};
use longnail::{isax_lib, CellBundle, Longnail, MatrixCell, PipelineCache, Severity};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Args {
    input: Option<PathBuf>,
    core: Option<String>,
    unit: Option<String>,
    out: PathBuf,
    emit: Option<String>,
    budget: Option<u64>,
    trace: bool,
    metrics_out: Option<PathBuf>,
    report: bool,
    matrix: bool,
    jobs: usize,
    xcheck: bool,
    keep_going: bool,
    fault_plan: Option<PathBuf>,
    summary: bool,
    verbose: bool,
    profile_folded: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    serve: bool,
    opt_level: u8,
    cache_mem_bytes: Option<u64>,
    /// `--help`/`-h`: print the usage to stdout and exit 0.
    help: bool,
}

/// The representations `--emit` can print.
const EMIT_KINDS: [&str; 5] = ["hir", "lil", "sv", "config", "datasheet"];

/// Mode bits: the invocation forms a flag applies to, plus `REQUIRED`
/// for a flag every one of its modes needs.
const SINGLE: u8 = 1;
const MATRIX: u8 = 2;
const SERVE: u8 = 4;
const ALL: u8 = SINGLE | MATRIX | SERVE;
const REQUIRED: u8 = 8;

/// Each mode's bit, its name in messages, and its usage prefix.
const MODES: [(u8, &str, &str); 3] = [
    (SINGLE, "single-file", "lnc <file.core_desc>"),
    (MATRIX, "--matrix", "lnc"),
    (SERVE, "serve", "lnc serve"),
];

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// Value placeholder in the usage; empty for a switch.
    metavar: &'static str,
    /// The modes the flag applies to, and whether it is `REQUIRED`.
    modes: u8,
    /// Checks the value and stores it.
    set: fn(&mut Args, &str) -> Result<(), String>,
    /// Appended to the message that rejects the flag outside its modes.
    hint: &'static str,
}

const fn flag(
    name: &'static str,
    metavar: &'static str,
    modes: u8,
    set: fn(&mut Args, &str) -> Result<(), String>,
) -> Flag {
    Flag {
        name,
        metavar,
        modes,
        set,
        hint: "",
    }
}

impl Flag {
    const fn hint(self, hint: &'static str) -> Flag {
        Flag { hint, ..self }
    }
}

/// Stores a flag's value; the table's setters all end here.
fn store<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// Parses `v` as a number in `range`, or names what it should have been.
fn num<T: std::str::FromStr + PartialOrd>(
    v: &str,
    range: std::ops::RangeInclusive<T>,
    what: &str,
) -> Result<T, String> {
    v.parse()
        .ok()
        .filter(|n| range.contains(n))
        .ok_or_else(|| format!("`{v}` is not {what}"))
}

/// Every flag, in usage order.
#[rustfmt::skip]
static FLAGS: [Flag; 19] = [
    flag("--core", "ORCA|Piccolo|PicoRV32|VexRiscv", SINGLE | REQUIRED, |a, v| {
        store(&mut a.core, Some(v.into()))
    }),
    flag("--matrix", "", MATRIX | REQUIRED, |a, _| store(&mut a.matrix, true))
        .hint("serve reads jobs from stdin"),
    flag("--unit", "InstructionSet", SINGLE, |a, v| store(&mut a.unit, Some(v.into()))),
    flag("--out", "dir", SINGLE | MATRIX, |a, v| store(&mut a.out, v.into())),
    flag("--emit", "hir|lil|sv|config|datasheet", SINGLE, |a, v| match EMIT_KINDS.contains(&v) {
        true => store(&mut a.emit, Some(v.into())),
        false => Err(format!("`{v}` is not one of {}", EMIT_KINDS.join(", "))),
    }),
    flag("--report", "", SINGLE, |a, _| store(&mut a.report, true))
        .hint("use --summary for a matrix"),
    flag("--jobs", "N", MATRIX | SERVE, |a, v| {
        store(&mut a.jobs, num(v, 1..=usize::MAX, "a worker count >= 1")?)
    }),
    flag("--budget", "units", ALL, |a, v| {
        store(&mut a.budget, Some(num(v, 0..=u64::MAX, "a work-unit count")?))
    }),
    flag("--opt-level", "0|1|2", ALL, |a, v| store(&mut a.opt_level, num(v, 0..=2, "0, 1, or 2")?)),
    flag("--fault-plan", "path", ALL, |a, v| store(&mut a.fault_plan, Some(v.into()))),
    flag("--xcheck", "", SINGLE | MATRIX, |a, _| store(&mut a.xcheck, true)),
    flag("--keep-going", "", MATRIX, |a, _| store(&mut a.keep_going, true)),
    flag("--summary", "", MATRIX, |a, _| store(&mut a.summary, true))
        .hint("use --report for one compilation"),
    flag("--verbose", "", MATRIX, |a, _| store(&mut a.verbose, true)),
    flag("--trace", "", SINGLE | MATRIX, |a, _| store(&mut a.trace, true)),
    flag("--metrics-out", "path", SINGLE | MATRIX, |a, v| store(&mut a.metrics_out, Some(v.into()))),
    flag("--profile-folded", "path", SINGLE | MATRIX, |a, v| {
        store(&mut a.profile_folded, Some(v.into()))
    }),
    flag("--cache-dir", "dir", MATRIX | SERVE, |a, v| store(&mut a.cache_dir, Some(v.into()))),
    flag("--cache-mem-bytes", "N", MATRIX | SERVE, |a, v| {
        store(&mut a.cache_mem_bytes, Some(num(v, 1..=u64::MAX, "a byte count >= 1")?))
    }),
];

/// Flag pairs that exclude each other, with the reason.
#[rustfmt::skip]
const CONFLICTS: [(&str, &str, &str); 4] = [
    ("--cache-dir", "--xcheck", "a served cell has no compilation to check"),
    ("--out", "--emit", "--emit prints instead of writing artifacts"),
    ("--out", "--report", "--report prints instead of writing artifacts"),
    ("--emit", "--report", "both print to stdout"),
];

/// Flags that act on a compilation, which `--emit hir` and `--emit
/// datasheet` never run.
const COMPILE_ONLY: [&str; 4] = ["--xcheck", "--trace", "--metrics-out", "--profile-folded"];

fn parse_args_from(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        out: PathBuf::from("."),
        jobs: 1,
        ..Args::default()
    };
    let mut given: Vec<&Flag> = Vec::new();
    while let Some(arg) = argv.next() {
        if let Some(f) = FLAGS.iter().find(|f| f.name == arg) {
            if given.iter().any(|g| g.name == f.name) {
                return Err(format!("`{arg}` given more than once"));
            }
            let value = match f.metavar {
                "" => String::new(),
                _ => argv.next().ok_or_else(|| format!("{arg} needs a value"))?,
            };
            (f.set)(&mut a, &value).map_err(|e| format!("{arg}: {e}"))?;
            given.push(f);
        } else if arg == "--help" || arg == "-h" {
            return Ok(Args {
                help: true,
                ..Args::default()
            });
        } else if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        } else if arg == "serve" && !a.serve && a.input.is_none() {
            a.serve = true;
        } else if a.input.replace(PathBuf::from(arg)).is_some() {
            return Err("more than one input file".into());
        }
    }
    let (mode, mode_name, _) = MODES[if a.serve { 2 } else { usize::from(a.matrix) }];
    if a.input.is_some() && a.serve {
        return Err("serve reads jobs from stdin; drop the input file".into());
    }
    if a.input.is_some() && a.matrix {
        return Err("--matrix compiles the builtin evaluation matrix; drop the input file".into());
    }
    if let Some(f) = given.iter().find(|f| f.modes & mode == 0) {
        let only: Vec<&str> = MODES
            .iter()
            .filter(|m| f.modes & m.0 != 0)
            .map(|m| m.1)
            .collect();
        let (name, only) = (f.name, only.join(", "));
        let hint = match f.hint {
            "" => String::new(),
            hint => format!("; {hint}"),
        };
        return Err(format!(
            "`{name}` does not apply to {mode_name} mode (only {only}){hint}"
        ));
    }
    let has = |name: &str| given.iter().any(|f| f.name == name);
    if let Some((x, y, why)) = CONFLICTS.iter().find(|(x, y, _)| has(x) && has(y)) {
        return Err(format!("`{x}` and `{y}` exclude each other: {why}"));
    }
    if let Some(kind @ ("hir" | "datasheet")) = a.emit.as_deref() {
        if let Some(f) = given.iter().find(|f| COMPILE_ONLY.contains(&f.name)) {
            return Err(format!(
                "`--emit {kind}` prints before compiling; drop `{}`",
                f.name
            ));
        }
    }
    if mode == SINGLE && a.input.is_none() {
        return Err("missing input file".into());
    }
    let required = REQUIRED | mode;
    if let Some(f) = FLAGS
        .iter()
        .find(|f| f.modes & required == required && !has(f.name))
    {
        return Err(format!("missing {} <{}>", f.name, f.metavar));
    }
    Ok(a)
}

/// The usage synopsis, one line group per mode, generated from `FLAGS`.
fn usage() -> String {
    let mut text = String::new();
    for (i, (bit, _, prefix)) in MODES.iter().enumerate() {
        let mut line = format!("{}{prefix}", if i == 0 { "usage: " } else { "       " });
        for f in FLAGS.iter().filter(|f| f.modes & bit != 0) {
            let item = match f.metavar {
                "" => f.name.to_string(),
                m => format!("{} <{m}>", f.name),
            };
            let item = match f.modes & REQUIRED {
                0 => format!("[{item}]"),
                _ => item,
            };
            if line.len() + 1 + item.len() > 79 {
                text += &line;
                text.push('\n');
                line = " ".repeat(10);
            }
            line.push(' ');
            line += &item;
        }
        text += &line;
        text.push('\n');
    }
    text
}

fn main() -> ExitCode {
    let args = match parse_args_from(std::env::args().skip(1)) {
        Ok(a) if a.help => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(a) => a,
        Err(msg) => {
            eprint!("error: {msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(code) | Err(code) => code,
    }
}

/// Reports `msg` as an `error:` line and returns exit code 1.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    std::fs::write(path, contents)
        .map_err(|e| fail(format_args!("cannot write {}: {e}", path.display())))
}

fn create_dir(dir: &Path) -> Result<(), ExitCode> {
    std::fs::create_dir_all(dir)
        .map_err(|e| fail(format_args!("cannot create {}: {e}", dir.display())))
}

/// The exit code a diagnostic severity maps to: 2 for a fault, 1 for an
/// error, 0 otherwise.
fn grade(worst: Option<Severity>) -> u8 {
    match worst {
        Some(Severity::Fault) => 2,
        Some(Severity::Error) => 1,
        _ => 0,
    }
}

/// Runs the parsed command line; `Err` carries the exit code of an
/// early failure that was already reported.
fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let mut ln = Longnail::new();
    if let Some(b) = args.budget {
        ln.work_limit = b;
    }
    ln.opt_level = longnail::OptLevel::from_level(args.opt_level).expect("validated in parse_args");
    if let Some(path) = &args.fault_plan {
        let text = std::fs::read_to_string(path)
            .map_err(|e| fail(format_args!("cannot read {}: {e}", path.display())))?;
        let plan = longnail::FaultPlan::parse(&text)
            .map_err(|e| fail(format_args!("{}: {e}", path.display())))?;
        ln.fault_plan = Some(plan);
    }
    if args.serve {
        let pipe = build_cache(&ln, args)?;
        let mut input = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut input)
            .map_err(|e| fail(format_args!("cannot read jobs from stdin: {e}")))?;
        // Per-job failures are result lines; the daemon itself exits 0.
        longnail::serve::run_serve(&ln, &pipe, args.jobs, &input, &mut std::io::stdout().lock())
            .map_err(|e| fail(format_args!("cannot write results: {e}")))?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.matrix {
        return run_matrix(&ln, args);
    }
    run_single(&ln, args)
}

/// Builds the run's pipeline cache: in-memory only, or backed by the
/// persistent `--cache-dir` layer (whose schema fingerprint folds in the
/// compiler's config fingerprint), capped at `--cache-mem-bytes`.
fn build_cache(ln: &Longnail, args: &Args) -> Result<PipelineCache, ExitCode> {
    let pipe = match &args.cache_dir {
        Some(dir) => PipelineCache::with_disk(dir, &ln.config_fingerprint())
            .map_err(|e| fail(format_args!("cannot open cache dir {}: {e}", dir.display())))?,
        None => PipelineCache::new(),
    };
    pipe.store().set_capacity(args.cache_mem_bytes);
    Ok(pipe)
}

/// Compiles and writes the full evaluation matrix. With `--cache-dir`,
/// cells whose content key matches a stored bundle are served from disk
/// verbatim and only the rest are compiled.
fn run_matrix(ln: &Longnail, args: &Args) -> Result<ExitCode, ExitCode> {
    let cells = MatrixCell::grid(&isax_lib::all_isaxes(), &eval_datasheets());
    let pipe = build_cache(ln, args)?;
    let t0 = std::time::Instant::now();
    let batch = run_cells(ln, &cells, args.jobs, &pipe);
    let wall = t0.elapsed();
    let matrix = batch.matrix();
    let mut worst = 0u8;
    let (mut failed_cells, mut clean_cells) = (0usize, 0usize);
    for (cell, run) in cells.iter().zip(batch.runs()) {
        let (isax, core) = (&cell.isax, &cell.datasheet.core);
        let cell_dir = args.out.join(format!("{isax}_{core}"));
        create_dir(&cell_dir)?;
        let fresh: CellBundle;
        let (bundle, fresh_trace) = match run {
            CellRun::Served(bundle) => {
                clean_cells += 1;
                (bundle, None)
            }
            CellRun::Compiled(entry) => match &entry.outcome {
                Ok(compiled) => {
                    worst = worst.max(grade(compiled.diagnostics.worst()));
                    if compiled.diagnostics.has_errors() {
                        failed_cells += 1;
                    } else {
                        clean_cells += 1;
                    }
                    fresh = cell_bundle(compiled);
                    (&fresh, Some(&compiled.trace))
                }
                Err(e) => {
                    if e.frontend_errors.is_empty() {
                        eprintln!("{}: {isax}×{core}: {e}", e.severity);
                    }
                    for d in &e.frontend_errors {
                        eprintln!("error: {isax}×{core}: [frontend] {d}");
                    }
                    worst = worst.max(grade(Some(e.severity)));
                    failed_cells += 1;
                    if args.verbose {
                        eprintln!("cell {isax}_{core}: failed [{}] {}", e.stage, e.message);
                    }
                    continue;
                }
            },
        };
        // One writer for fresh and served cells: a served bundle holds the
        // bytes the cold run wrote, so byte-identity holds by construction.
        for (name, contents) in bundle.files.iter().filter(|(n, _)| !n.starts_with("__")) {
            write(&cell_dir.join(name), contents)?;
        }
        if let Some(diags) = bundle.file(DIAGNOSTICS_FILE) {
            eprint!(
                "{}",
                diags
                    .lines()
                    .map(|l| format!("{isax}×{core}: {l}\n"))
                    .collect::<String>()
            );
        }
        let units = bundle_units(bundle);
        println!("compiled {isax:<14} for {core:<9} -> {units} unit(s)");
        if args.verbose {
            match fresh_trace {
                None => eprintln!("cell {isax}_{core}: ok {units} unit(s), served from cell cache"),
                Some(trace) => eprintln!(
                    "cell {isax}_{core}: ok {units} unit(s), {} stage span(s), {} cache hit(s)",
                    telemetry::STAGES
                        .iter()
                        .map(|s| trace.span_count(s))
                        .sum::<usize>(),
                    trace.counter_total(telemetry::metrics::CACHE_FRONTEND_HIT)
                ),
            }
        }
    }
    if args.xcheck {
        // Fan the per-cell differential checks across the same worker
        // count as the compile; results come back in input order.
        let reports = pool::Pool::new(args.jobs).run(matrix.entries.len(), |i| {
            matrix.entries[i]
                .outcome
                .as_ref()
                .ok()
                .map(longnail::xcheck_compiled)
        });
        let (mut checked, mut mism, mut xbits, mut hazards) = (0u64, 0u64, 0u64, 0u64);
        for (entry, report) in matrix.entries.iter().zip(&reports) {
            let Some(report) = report else { continue };
            checked += 1;
            mism += report.mismatches();
            xbits += report.x_output_bits();
            hazards += report.lint_findings();
            for p in report.problems() {
                eprintln!("{}×{}: xcheck: {p}", entry.isax, entry.core);
            }
            let cell_dir = args.out.join(format!("{}_{}", entry.isax, entry.core));
            write(
                &cell_dir.join("xcheck.jsonl"),
                report.trace.stripped().to_jsonl(),
            )?;
            if !report.is_clean() {
                worst = 2;
            }
        }
        println!(
            "xcheck: {checked} cell(s), {mism} mismatch(es), {xbits} X output bit(s), \
             {hazards} hazard(s)"
        );
    }
    let summary = batch.summary();
    if args.cache_dir.is_some() {
        for r in &summary.stage_cache {
            eprintln!(
                "cache-stats: {} hits={} misses={}",
                r.stage, r.hits, r.misses
            );
        }
    }
    // matrix_summary.json is the deterministic projection — part of the
    // artifact tree ci.sh diffs across --jobs values.
    write(
        &args.out.join("matrix_summary.json"),
        summary.stripped().to_json(),
    )?;
    if args.summary {
        print!("{}", summary.render());
    }
    if args.trace || args.metrics_out.is_some() || args.profile_folded.is_some() {
        let merged = batch.merged_trace();
        if args.trace {
            eprint!("{}", telemetry::report::render_tree(&merged));
        }
        if let Some(path) = &args.metrics_out {
            write(path, merged.to_jsonl())?;
        }
        if let Some(path) = &args.profile_folded {
            write(path, telemetry::folded::render_folded(&merged))?;
        }
    }
    // Wall time is nondeterministic; keep it off stdout so stdout stays
    // comparable across runs.
    let frontend = matrix.stage("frontend");
    eprintln!(
        "matrix: {} cell(s), {} job(s), frontend cache {} hit(s) / {} miss(es), {:.1} ms",
        cells.len(),
        matrix.jobs,
        frontend.hits,
        frontend.misses,
        wall.as_secs_f64() * 1e3
    );
    if args.cache_dir.is_some() {
        eprintln!(
            "cell cache: {} served, {} compiled",
            batch.served_count(),
            matrix.entries.len()
        );
    }
    if matrix.cell_faults > 0 || matrix.errors_recovered > 0 {
        eprintln!(
            "degraded: {} = {}, {} = {}",
            telemetry::metrics::DEGRADE_CELL_FAULTS,
            matrix.cell_faults,
            telemetry::metrics::DEGRADE_ERRORS_RECOVERED,
            matrix.errors_recovered
        );
    }
    // --keep-going grades the batch by what survived: a partial success
    // exits 3, and the hard failure codes mean *nothing* compiled.
    if args.keep_going && worst > 0 && failed_cells > 0 && clean_cells > 0 {
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::from(worst))
}

/// Compiles one CoreDSL file for one core.
fn run_single(ln: &Longnail, args: &Args) -> Result<ExitCode, ExitCode> {
    let core = args.core.as_deref().expect("validated in parse_args");
    let input = args.input.as_deref().expect("validated in parse_args");
    let datasheet = builtin_datasheet(core).ok_or_else(|| {
        fail(format_args!(
            "unknown core `{core}` (known: {})",
            EVAL_CORES.join(", ")
        ))
    })?;
    let src = std::fs::read_to_string(input)
        .map_err(|e| fail(format_args!("cannot read {}: {e}", input.display())))?;
    let unit = args.unit.clone().unwrap_or_else(|| {
        input
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default()
    });
    match args.emit.as_deref() {
        // --emit hir needs the typed module before HLS.
        Some("hir") => {
            let module = coredsl::Frontend::new().compile_str(&src, &unit).map_err(fail)?;
            print!("{}", ir::hirprint::print_module(&module));
            return Ok(ExitCode::SUCCESS);
        }
        Some("datasheet") => {
            print!("{}", datasheet.to_yaml());
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    // A panic anywhere in the flow is an internal fault (exit 2), not a
    // crash: report it like any other diagnostic.
    let compiled = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ln.compile(&src, &unit, &datasheet)
    })) {
        Ok(Ok(c)) => c,
        Ok(Err(e)) => {
            // A frontend failure carries every accumulated coded
            // diagnostic — report them all, not just the first.
            if e.frontend_errors.len() > 1 {
                for d in &e.frontend_errors {
                    eprintln!("error: [frontend] {d}");
                }
            } else {
                eprintln!("error: {e}");
            }
            return Ok(ExitCode::from(grade(Some(e.severity))));
        }
        Err(payload) => {
            eprintln!(
                "internal fault: compiler panicked: {}",
                pool::panic_message(payload.as_ref())
            );
            return Ok(ExitCode::from(2));
        }
    };
    if !compiled.diagnostics.is_empty() {
        eprint!("{}", compiled.diagnostics.render());
    }
    if args.trace {
        eprint!("{}", telemetry::report::render_tree(&compiled.trace));
    }
    if let Some(path) = &args.metrics_out {
        write(path, compiled.trace.to_jsonl())?;
    }
    if let Some(path) = &args.profile_folded {
        write(path, telemetry::folded::render_folded(&compiled.trace))?;
    }
    if args.xcheck {
        let report = longnail::xcheck_compiled(&compiled);
        for p in report.problems() {
            eprintln!("xcheck: {p}");
        }
        if args.trace {
            eprint!("{}", telemetry::report::render_tree(&report.trace));
        }
        println!("{}", report.summary());
        if !report.is_clean() {
            // A divergence between the emitted SystemVerilog's semantics
            // and the interpreter is a compiler fault, not a user error.
            return Ok(ExitCode::from(2));
        }
    }
    if args.report {
        print!("{}", telemetry::report::render_report(&compiled.trace));
    }
    match args.emit.as_deref() {
        Some("lil") => compiled.graphs.iter().for_each(|g| print!("{}", g.graph)),
        Some("sv") => compiled.graphs.iter().for_each(|g| print!("{}", g.verilog)),
        Some("config") => print!("{}", compiled.config.to_yaml()),
        Some(_) => unreachable!("--emit validated in parse_args"),
        None if args.report => {}
        None => {
            create_dir(&args.out)?;
            for g in &compiled.graphs {
                let path = args.out.join(format!("{}_{}.sv", compiled.name, g.name));
                write(&path, &g.verilog)?;
                println!(
                    "wrote {:<40} {:>6} stages, mode {}",
                    path.display(),
                    g.max_stage,
                    g.mode
                );
            }
            let config_path = args.out.join(format!("{}.scaiev.yaml", compiled.name));
            write(&config_path, compiled.config.to_yaml())?;
            println!("wrote {}", config_path.display());
            println!(
                "\n{}: {} instruction(s), {} always-block(s) compiled for {core}",
                compiled.name,
                compiled.instructions().count(),
                compiled.always_blocks().count()
            );
        }
    }
    Ok(ExitCode::from(grade(compiled.diagnostics.worst())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn single_file_mode_requires_input_and_core() {
        let a = parse(&["x.core_desc", "--core", "ORCA", "--unit", "X"]).unwrap();
        assert_eq!(a.input.as_deref(), Some(std::path::Path::new("x.core_desc")));
        assert_eq!(a.core.as_deref(), Some("ORCA"));
        assert_eq!(a.jobs, 1);
        assert!(!a.matrix);
        assert!(parse(&["--core", "ORCA"]).unwrap_err().contains("input"));
        assert!(parse(&["x.core_desc"]).unwrap_err().contains("--core"));
    }

    #[test]
    fn matrix_mode_parses_jobs_and_rejects_single_file_flags() {
        let a = parse(&["--matrix", "--jobs", "4", "--out", "o"]).unwrap();
        assert!(a.matrix);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.out, PathBuf::from("o"));
        assert!(parse(&["--matrix", "x.core_desc"]).unwrap_err().contains("--matrix"));
        assert!(parse(&["--matrix", "--core", "ORCA"]).unwrap_err().contains("--core"));
    }

    #[test]
    fn jobs_must_be_a_positive_count() {
        assert!(parse(&["--matrix", "--jobs", "0"]).is_err());
        assert!(parse(&["--matrix", "--jobs", "many"]).is_err());
        assert!(parse(&["--matrix", "--jobs"]).is_err());
        assert_eq!(parse(&["--matrix", "--jobs", "16"]).unwrap().jobs, 16);
    }

    #[test]
    fn xcheck_flag_parses_in_both_modes() {
        assert!(parse(&["x.core_desc", "--core", "ORCA", "--xcheck"])
            .unwrap()
            .xcheck);
        assert!(parse(&["--matrix", "--xcheck", "--jobs", "2"]).unwrap().xcheck);
        assert!(!parse(&["--matrix"]).unwrap().xcheck);
    }

    #[test]
    fn keep_going_and_fault_plan_parse_in_matrix_mode() {
        let a = parse(&["--matrix", "--keep-going", "--fault-plan", "plan.txt"]).unwrap();
        assert!(a.keep_going);
        assert_eq!(a.fault_plan, Some(PathBuf::from("plan.txt")));
        assert!(!parse(&["--matrix"]).unwrap().keep_going);
        assert!(parse(&["x.core_desc", "--core", "ORCA", "--keep-going"])
            .unwrap_err()
            .contains("--matrix"));
        assert!(parse(&["--matrix", "--fault-plan"]).is_err());
    }

    #[test]
    fn summary_and_verbose_are_matrix_only() {
        let a = parse(&["--matrix", "--summary", "--verbose"]).unwrap();
        assert!(a.summary && a.verbose);
        assert!(parse(&["x", "--core", "ORCA", "--summary"])
            .unwrap_err()
            .contains("--report"));
        assert!(parse(&["x", "--core", "ORCA", "--verbose"])
            .unwrap_err()
            .contains("--matrix"));
    }

    #[test]
    fn matrix_rejects_single_compilation_flags() {
        assert!(parse(&["--matrix", "--emit", "sv"])
            .unwrap_err()
            .contains("--emit"));
        assert!(parse(&["--matrix", "--report"])
            .unwrap_err()
            .contains("--summary"));
        assert!(parse(&["--matrix", "--unit", "X"])
            .unwrap_err()
            .contains("--unit"));
    }

    #[test]
    fn profile_folded_parses_in_both_modes() {
        let a = parse(&["x", "--core", "ORCA", "--profile-folded", "p.folded"]).unwrap();
        assert_eq!(a.profile_folded, Some(PathBuf::from("p.folded")));
        let m = parse(&["--matrix", "--profile-folded", "m.folded", "--metrics-out", "m.jsonl"])
            .unwrap();
        assert_eq!(m.profile_folded, Some(PathBuf::from("m.folded")));
        assert_eq!(m.metrics_out, Some(PathBuf::from("m.jsonl")));
        assert!(parse(&["--matrix", "--profile-folded"]).is_err());
    }

    #[test]
    fn opt_level_parses_in_every_mode_and_validates_its_range() {
        assert_eq!(parse(&["x", "--core", "ORCA"]).unwrap().opt_level, 0);
        assert_eq!(
            parse(&["x", "--core", "ORCA", "--opt-level", "2"]).unwrap().opt_level,
            2
        );
        assert_eq!(parse(&["--matrix", "--opt-level", "1"]).unwrap().opt_level, 1);
        assert_eq!(parse(&["serve", "--opt-level", "2"]).unwrap().opt_level, 2);
        assert!(parse(&["--matrix", "--opt-level", "3"])
            .unwrap_err()
            .contains("not 0, 1, or 2"));
        assert!(parse(&["--matrix", "--opt-level", "fast"]).is_err());
        assert!(parse(&["--matrix", "--opt-level"]).is_err());
    }

    #[test]
    fn cache_mem_bytes_applies_to_matrix_and_serve_only() {
        let a = parse(&["--matrix", "--cache-mem-bytes", "1048576"]).unwrap();
        assert_eq!(a.cache_mem_bytes, Some(1 << 20));
        let s = parse(&["serve", "--cache-mem-bytes", "4096"]).unwrap();
        assert_eq!(s.cache_mem_bytes, Some(4096));
        assert_eq!(parse(&["--matrix"]).unwrap().cache_mem_bytes, None);
        assert!(parse(&["--matrix", "--cache-mem-bytes", "0"]).is_err());
        assert!(parse(&["--matrix", "--cache-mem-bytes", "lots"]).is_err());
        assert!(parse(&["x", "--core", "ORCA", "--cache-mem-bytes", "4096"])
            .unwrap_err()
            .contains("--matrix"));
    }

    #[test]
    fn cache_dir_applies_to_matrix_and_serve_only() {
        let a = parse(&["--matrix", "--cache-dir", "c"]).unwrap();
        assert_eq!(a.cache_dir, Some(PathBuf::from("c")));
        assert!(parse(&["--matrix", "--cache-dir"]).is_err());
        assert!(parse(&["x", "--core", "ORCA", "--cache-dir", "c"])
            .unwrap_err()
            .contains("--matrix"));
        assert!(parse(&["--matrix", "--cache-dir", "c", "--xcheck"])
            .unwrap_err()
            .contains("--xcheck"));
    }

    #[test]
    fn serve_mode_allows_only_daemon_flags() {
        let a = parse(&["serve", "--jobs", "4", "--budget", "100", "--fault-plan", "p",
                        "--cache-dir", "c"])
            .unwrap();
        assert!(a.serve && !a.matrix);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.budget, Some(100));
        assert_eq!(a.cache_dir, Some(PathBuf::from("c")));
        assert!(parse(&["serve", "--matrix"]).unwrap_err().contains("stdin"));
        assert!(parse(&["serve", "x.core_desc"]).unwrap_err().contains("stdin"));
        for flag in ["--summary", "--xcheck", "--trace", "--keep-going", "--report"] {
            assert!(parse(&["serve", flag]).unwrap_err().contains(flag), "{flag}");
        }
        assert!(parse(&["serve", "--core", "ORCA"]).unwrap_err().contains("--core"));
        // Only the *first* positional `serve` selects the daemon.
        assert!(!parse(&["serve.core_desc", "--core", "ORCA"]).unwrap().serve);
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(parse(&["x", "--core", "ORCA", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&["a", "b", "--core", "ORCA"])
            .unwrap_err()
            .contains("more than one"));
        assert!(parse(&["x", "--core", "ORCA", "--emit", "bogus", "--report"])
            .unwrap_err()
            .contains("`bogus` is not one of hir, lil, sv, config, datasheet"));
    }

    #[test]
    fn budget_and_observability_flags_parse() {
        let a = parse(&[
            "x.core_desc",
            "--core",
            "Piccolo",
            "--budget",
            "5000",
            "--trace",
            "--metrics-out",
            "m.jsonl",
            "--report",
        ])
        .unwrap();
        assert_eq!(a.budget, Some(5000));
        assert!(a.trace && a.report);
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.jsonl")));
        assert!(parse(&["x", "--core", "ORCA", "--budget", "lots"]).is_err());
    }

    /// A value for `f` that passes its own check: the first listed
    /// choice, else a count (which also names a path).
    fn sample(f: &Flag) -> Option<&'static str> {
        match f.metavar {
            "" => None,
            m if m.contains('|') => m.split('|').next(),
            _ => Some("4"),
        }
    }

    #[test]
    fn every_flag_is_rejected_in_every_mode_it_does_not_list() {
        let bases: [(u8, &[&str]); 3] = [
            (SINGLE, &["x.core_desc", "--core", "ORCA"]),
            (MATRIX, &["--matrix"]),
            (SERVE, &["serve"]),
        ];
        for f in &FLAGS {
            for (bit, base) in bases.iter().filter(|(_, base)| !base.contains(&f.name)) {
                let mut argv: Vec<&str> = base.to_vec();
                argv.push(f.name);
                argv.extend(sample(f));
                match parse(&argv) {
                    Ok(_) => assert!(f.modes & bit != 0, "{argv:?} accepted"),
                    Err(e) => assert!(f.modes & bit == 0 && e.contains(f.name), "{argv:?}: {e}"),
                }
            }
        }
    }

    #[test]
    fn formerly_ignored_invocations_are_rejected_naming_the_flag() {
        for (argv, flag) in [
            (&["serve", "--out", "d"][..], "--out"),
            (&["f", "--core", "ORCA", "--jobs", "8"], "--jobs"),
            (&["f", "--core", "ORCA", "--emit", "sv", "--report"], "--report"),
            (&["f", "--core", "ORCA", "--emit", "sv", "--out", "d"], "--out"),
            (&["f", "--core", "ORCA", "--report", "--out", "d"], "--report"),
            (&["f", "--core", "ORCA", "--emit", "hir", "--xcheck", "--trace"], "--xcheck"),
            (&["f", "--core", "ORCA", "--emit", "datasheet", "--metrics-out", "m"], "--metrics-out"),
            (&["f", "--core", "ORCA", "--core", "Piccolo"], "--core"),
            (&["--matrix", "--matrix"], "--matrix"),
        ] {
            let e = parse(argv).unwrap_err();
            assert!(e.contains(flag) && !e.contains('\n'), "{argv:?}: {e}");
        }
        // The compile-free emit kinds still combine with the flags that
        // apply to them, and the compiling kinds keep every flag.
        assert!(parse(&["f", "--core", "ORCA", "--emit", "hir", "--budget", "5"]).is_ok());
        assert!(parse(&["f", "--core", "ORCA", "--emit", "sv", "--xcheck", "--trace"]).is_ok());
    }

    #[test]
    fn help_is_a_request_not_an_error() {
        for argv in [&["--help"][..], &["-h"], &["x", "--core", "ORCA", "-h"], &["serve", "--help"]] {
            assert!(parse(argv).unwrap().help, "{argv:?}");
        }
        assert!(!parse(&["x", "--core", "ORCA"]).unwrap().help);
        // Errors before the request still win.
        assert!(parse(&["--frobnicate", "--help"]).is_err());
    }

    #[test]
    fn usage_names_every_flag_and_matches_the_value_lists() {
        let text = usage();
        assert!(text.starts_with("usage: lnc <file.core_desc> --core <"));
        for f in &FLAGS {
            assert!(text.contains(f.name), "usage lacks {}", f.name);
        }
        assert!(text.lines().all(|l| l.len() <= 79), "{text}");
        let metavar = |name: &str| FLAGS.iter().find(|f| f.name == name).unwrap().metavar;
        assert_eq!(metavar("--core"), EVAL_CORES.join("|"));
        assert_eq!(metavar("--emit"), EMIT_KINDS.join("|"));
    }
}
