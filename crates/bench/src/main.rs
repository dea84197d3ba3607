//! `cargo run -p bench` — the deterministic perf-regression gate.
//!
//! Compiles the full 8×4 evaluation matrix (through one shared pipeline
//! cache per run, serially and with 4 workers) and writes `BENCH_compile.json` at
//! the workspace root with two sections:
//!
//! * `deterministic` — work counters that are a pure function of the
//!   input and the algorithms: solver lifts / augmenting paths / repair
//!   rounds, cache hit/miss totals, degradation counters, the
//!   per-stage op counters summed across the matrix, a per-cell
//!   solver-work breakdown, and the `incremental` per-stage hit/miss
//!   profile of a cold → warm no-change → warm one-edit recompile
//!   sequence through one shared pipeline cache, and the `opt` profile of
//!   a full -O2 matrix (per-pass rewrite totals plus modeled area and
//!   critical path against -O0, with the strict area win asserted), and
//!   `sim_cycles`, the cycles the xcheck oracle simulates over the -O0
//!   matrix. Byte-identical on every run of the same code.
//! * `wall` — wall-clock timings and the cache/pool/incremental
//!   speedups, with the machine's available parallelism (`cpus`) and the
//!   parallel runs' worker count (`workers`) needed to read them; the
//!   -O2 matrix (`o2_wall_ns`, and `o2_over_o0` against the -O0
//!   `parallel_wall_ns` run with the same workers) and the serial xcheck
//!   of the -O0 matrix (`xcheck_wall_ns`).
//!   Machine- and load-dependent, informational only (except
//!   the warm no-change replay, which ci.sh requires to be at least 4×
//!   faster than the cold compile — a regression there means the warm
//!   path silently recomputes).
//!
//! With `--check <baseline>` the freshly measured `deterministic` section
//! is compared **textually** against the checked-in `BENCH_baseline.json`:
//! any divergence (a solver change, a cache regression, a new fallback) is
//! a hard failure naming the first differing line, with the update command
//! to run when the change is intentional. Wall-time drift beyond
//! ±[`WALL_TOLERANCE`] only warns — timings are not gate-worthy.

use longnail::driver::{eval_datasheets, MatrixResult};
use longnail::{isax_lib, Longnail, MatrixCell, PipelineCache};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use telemetry::aggregate;

/// Allowed relative wall-time drift against the baseline before the
/// (non-fatal) drift warning fires.
const WALL_TOLERANCE: f64 = 0.5;

/// Worker count of the parallel matrix runs.
const WORKERS: usize = 4;

/// Workspace-root path of the freshly written benchmark result.
const BENCH_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile.json");

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Renders one run's per-stage cache profile as `"stage": "Mm/Hh"`
/// fields in pipeline order. Hit/miss totals are deterministic (the
/// store's exactly-once slots make the miss count a function of the key
/// set, not of scheduling), so this belongs in the gated section.
fn stage_mix(m: &MatrixResult) -> String {
    telemetry::STAGES
        .iter()
        .map(|s| {
            let d = m.stage(s);
            format!("\"{s}\": \"{}m/{}h\"", d.misses, d.hits)
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every cell's artifacts must be byte-identical between two runs — the
/// warm replay is only correct if it reproduces the cold bytes exactly.
fn assert_artifacts_identical(cold: &MatrixResult, warm: &MatrixResult, what: &str) {
    assert_eq!(cold.entries.len(), warm.entries.len());
    for (c, w) in cold.entries.iter().zip(&warm.entries) {
        let (Ok(cc), Ok(wc)) = (&c.outcome, &w.outcome) else {
            panic!("{what}: cell {}_{} failed", c.isax, c.core);
        };
        let cell = format!("{}_{}", c.isax, c.core);
        assert_eq!(cc.config.to_yaml(), wc.config.to_yaml(), "{what}: {cell} config");
        assert_eq!(cc.graphs.len(), wc.graphs.len(), "{what}: {cell} unit count");
        for (cg, wg) in cc.graphs.iter().zip(&wc.graphs) {
            assert_eq!(cg.verilog, wg.verilog, "{what}: {cell} verilog {}", cg.name);
        }
        assert_eq!(
            cc.trace.stripped().to_jsonl(),
            wc.trace.stripped().to_jsonl(),
            "{what}: {cell} stripped trace"
        );
    }
}

/// Runs the matrix benchmark and renders `BENCH_compile.json`.
fn bench_json() -> String {
    let isaxes = isax_lib::all_isaxes();
    let cores = eval_datasheets();
    let cells = MatrixCell::grid(&isaxes, &cores);
    let ln = Longnail::new();
    let t0 = Instant::now();
    let serial = ln.compile_cells(&cells, 1, &PipelineCache::new());
    let serial_ns = elapsed_ns(t0);
    let t0 = Instant::now();
    let parallel = ln.compile_cells(&cells, WORKERS, &PipelineCache::new());
    let parallel_ns = elapsed_ns(t0);
    // The cache totals are part of the determinism contract: identical
    // for every worker count.
    let (frontend, fe4) = (serial.stage("frontend"), parallel.stage("frontend"));
    assert_eq!((frontend.hits, frontend.misses), (fe4.hits, fe4.misses));

    // The incremental profile: cold, warm no-change, warm one-edit — all
    // through one shared pipeline cache, the way `lnc serve` and warm
    // matrix recompiles run.
    let pipe = PipelineCache::new();
    let t0 = Instant::now();
    let cold = ln.compile_cells(&cells, WORKERS, &pipe);
    let cold_ns = elapsed_ns(t0);
    let t0 = Instant::now();
    let warm = ln.compile_cells(&cells, WORKERS, &pipe);
    let warm_ns = elapsed_ns(t0);
    let warm_misses: u64 = warm.stage_stats.iter().map(|s| s.misses).sum();
    assert_eq!(warm_misses, 0, "warm no-change recompile must be pure replay");
    assert_artifacts_identical(&cold, &warm, "warm no-change");
    // The "edit": append a comment to one ISAX — semantics unchanged,
    // content key changed, so exactly that ISAX's cone recomputes.
    let mut edited = isaxes.clone();
    edited[0].2.push_str("\n// incremental bench edit\n");
    let t0 = Instant::now();
    let edit = ln.compile_cells(&MatrixCell::grid(&edited, &cores), WORKERS, &pipe);
    let edit_ns = elapsed_ns(t0);
    assert_eq!(
        edit.stage("frontend").misses,
        1,
        "one edited source, one frontend recompute"
    );
    assert_artifacts_identical(&cold, &edit, "warm one-edit");

    // Optimized matrix: the same 8×4 matrix at -O2 through the netlist
    // optimizer. Everything recorded here is deterministic — the rewrite
    // totals are a pure function of the netlists and the pass order, and
    // the 22 nm area/timing model is a pure function of the optimized
    // netlists — so the section sits inside the gated `deterministic`
    // block. The strict area win is also asserted outright: -O2 exists to
    // shrink the matrix, and a build where it stops doing so is a
    // regression even if every counter still matches some stale baseline.
    let t0 = Instant::now();
    let o2 =
        ln.with_opt_level(longnail::OptLevel::O2)
            .compile_cells(&cells, WORKERS, &PipelineCache::new());
    let o2_ns = elapsed_ns(t0);

    // The xcheck oracle over the serial -O0 matrix: its simulated cycles
    // are deterministic, its wall time is not.
    let t0 = Instant::now();
    let mut sim_cycles = 0u64;
    for (entry, compiled) in serial.compiled() {
        let report = longnail::xcheck_compiled(compiled);
        assert!(report.is_clean(), "xcheck {}_{}: {}", entry.isax, entry.core, report.summary());
        sim_cycles += report.units.iter().map(|u| u.cycles).sum::<u64>();
    }
    let xcheck_ns = elapsed_ns(t0);
    let lib = eda::TechLibrary::new();
    let estimate = |m: &MatrixResult| {
        let (mut area, mut crit) = (0.0f64, 0.0f64);
        for entry in &m.entries {
            let Ok(cell) = &entry.outcome else {
                panic!("opt bench: cell {}_{} failed", entry.isax, entry.core);
            };
            for g in &cell.graphs {
                let est = eda::estimate_module(&lib, &g.built.module);
                area += est.area.total();
                crit = crit.max(est.timing.critical_path_ns);
            }
        }
        (area, crit)
    };
    let (area_o0, crit_o0) = estimate(&serial);
    let (area_o2, crit_o2) = estimate(&o2);
    assert!(
        area_o2 < area_o0,
        "-O2 must strictly reduce total matrix area ({area_o2:.1} vs {area_o0:.1} µm²)"
    );
    let o2_traces: Vec<&telemetry::Trace> = o2
        .entries
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok().map(|c| &c.trace))
        .collect();
    let opt_total = |name: &str| -> u64 { o2_traces.iter().map(|t| t.counter_total(name)).sum() };

    let cell_traces: Vec<(String, &telemetry::Trace)> = serial
        .entries
        .iter()
        .filter_map(|e| {
            e.outcome
                .as_ref()
                .ok()
                .map(|c| (format!("{}_{}", e.isax, e.core), &c.trace))
        })
        .collect();
    let summary = aggregate::summarize(&cell_traces);

    let mut json = String::from("{\n  \"schema\": \"longnail-bench/2\",\n");
    json.push_str("  \"deterministic\": {\n");
    let _ = writeln!(json, "    \"cells\": {},", serial.entries.len());
    let _ = writeln!(json, "    \"cache_hits\": {},", frontend.hits);
    let _ = writeln!(json, "    \"cache_misses\": {},", frontend.misses);
    let _ = writeln!(json, "    \"cell_faults\": {},", serial.cell_faults);
    let _ = writeln!(json, "    \"errors_recovered\": {},", serial.errors_recovered);
    let _ = writeln!(json, "    \"sim_cycles\": {sim_cycles},");
    json.push_str("    \"counters\": {\n");
    for (i, (name, value)) in summary.counters.iter().enumerate() {
        let _ = write!(json, "      \"{name}\": {value}");
        json.push_str(if i + 1 == summary.counters.len() { "\n" } else { ",\n" });
    }
    json.push_str("    },\n    \"per_cell\": [\n");
    for (i, (cell, trace)) in cell_traces.iter().enumerate() {
        use telemetry::metrics as m;
        let _ = write!(
            json,
            "      {{\"cell\": \"{cell}\", \"lifts\": {}, \"augments\": {}, \"rounds\": {}, \
             \"fallbacks\": {}, \"ops\": {}, \"verilog_bytes\": {}}}",
            trace.counter_total(m::SOLVER_LIFTS),
            trace.counter_total(m::SOLVER_AUGMENTS),
            trace.counter_total(m::SOLVER_ROUNDS),
            trace.counter_total(m::SCHED_FALLBACK),
            trace.counter_total(m::PROBLEM_OPS),
            trace.counter_total(m::VERILOG_BYTES),
        );
        json.push_str(if i + 1 == cell_traces.len() { "\n" } else { ",\n" });
    }
    json.push_str("    ],\n    \"incremental\": {\n");
    let _ = writeln!(json, "      \"cold\": {{{}}},", stage_mix(&cold));
    let _ = writeln!(json, "      \"warm_no_change\": {{{}}},", stage_mix(&warm));
    let _ = writeln!(json, "      \"warm_one_edit\": {{{}}}", stage_mix(&edit));
    json.push_str("    },\n    \"opt\": {\n");
    let _ = writeln!(json, "      \"area_o0_um2\": {area_o0:.1},");
    let _ = writeln!(json, "      \"area_o2_um2\": {area_o2:.1},");
    let _ = writeln!(
        json,
        "      \"area_reduction_pct\": {:.2},",
        (area_o0 - area_o2) / area_o0 * 100.0
    );
    let _ = writeln!(json, "      \"critical_path_o0_ns\": {crit_o0:.3},");
    let _ = writeln!(json, "      \"critical_path_o2_ns\": {crit_o2:.3},");
    {
        use telemetry::metrics as m;
        let _ = writeln!(json, "      \"iterations\": {},", opt_total(m::OPT_ITERATIONS));
        let _ = writeln!(json, "      \"nets_before\": {},", opt_total(m::OPT_NETS_BEFORE));
        let _ = writeln!(json, "      \"nets_after\": {},", opt_total(m::OPT_NETS_AFTER));
        let rewrites = [
            ("fold", m::OPT_REWRITES_FOLD),
            ("cse", m::OPT_REWRITES_CSE),
            ("mux", m::OPT_REWRITES_MUX),
            ("strength", m::OPT_REWRITES_STRENGTH),
            ("narrow", m::OPT_REWRITES_NARROW),
            ("dce", m::OPT_REWRITES_DCE),
        ];
        json.push_str("      \"rewrites\": {");
        for (i, (name, metric)) in rewrites.iter().enumerate() {
            let _ = write!(json, "\"{name}\": {}", opt_total(metric));
            json.push_str(if i + 1 == rewrites.len() { "}\n" } else { ", " });
        }
    }
    json.push_str("    }\n  },\n");
    let speedup = serial_ns as f64 / parallel_ns.max(1) as f64;
    let warm_speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    let edit_speedup = cold_ns as f64 / edit_ns.max(1) as f64;
    let o2_over_o0 = o2_ns as f64 / parallel_ns.max(1) as f64;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = write!(
        json,
        "  \"wall\": {{\"cpus\": {cpus}, \"workers\": {WORKERS},\n           \
         \"serial_wall_ns\": {serial_ns}, \"parallel_wall_ns\": {parallel_ns}, \
         \"speedup\": {speedup:.3},\n           \"cold_wall_ns\": {cold_ns}, \
         \"warm_wall_ns\": {warm_ns}, \"warm_speedup\": {warm_speedup:.3},\n           \
         \"edit_wall_ns\": {edit_ns}, \"edit_speedup\": {edit_speedup:.3},\n           \
         \"o2_wall_ns\": {o2_ns}, \"o2_over_o0\": {o2_over_o0:.3}, \
         \"xcheck_wall_ns\": {xcheck_ns}}}\n}}\n"
    );
    json
}

/// Extracts the `"key": {{...}}` object (balanced braces) from `json`.
fn extract_section(json: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":");
    let start = json.find(&marker)?;
    let open = start + json[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the first `"key": <u64>` scalar from `json`.
fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = json.find(&marker)? + marker.len();
    let digits: String = json[start..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// First line where the two texts differ, as `(line_no, got, want)`.
fn first_diff(got: &str, want: &str) -> Option<(usize, String, String)> {
    let mut g = got.lines();
    let mut w = want.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (g.next(), w.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => {
                return Some((
                    line,
                    a.unwrap_or("<end of file>").to_string(),
                    b.unwrap_or("<end of file>").to_string(),
                ))
            }
        }
    }
}

fn check_against(current: &str, baseline_path: &str) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench gate: cannot read baseline {baseline_path}: {e}");
            eprintln!("bench gate: create it with: cp BENCH_compile.json BENCH_baseline.json");
            return ExitCode::FAILURE;
        }
    };
    let (Some(got), Some(want)) = (
        extract_section(current, "deterministic"),
        extract_section(&baseline, "deterministic"),
    ) else {
        eprintln!("bench gate: missing `deterministic` section (schema mismatch?)");
        eprintln!("bench gate: regenerate with: cp BENCH_compile.json BENCH_baseline.json");
        return ExitCode::FAILURE;
    };
    if got != want {
        let (line, g, w) = first_diff(&got, &want).expect("sections differ");
        eprintln!("bench gate: FAIL — deterministic work counters diverge from baseline");
        eprintln!("bench gate: first difference (line {line} of the section):");
        eprintln!("bench gate:   measured: {}", g.trim());
        eprintln!("bench gate:   baseline: {}", w.trim());
        eprintln!(
            "bench gate: if this perf/work change is intentional, update the baseline with:"
        );
        eprintln!("bench gate:   cp BENCH_compile.json BENCH_baseline.json");
        return ExitCode::FAILURE;
    }
    println!("bench gate: deterministic counters match the baseline");
    // Wall drift: machine-dependent, warn-only.
    if let (Some(cur), Some(base)) = (
        extract_u64(current, "parallel_wall_ns"),
        extract_u64(&baseline, "parallel_wall_ns"),
    ) {
        if base > 0 {
            let drift = (cur as f64 - base as f64) / base as f64;
            if drift.abs() > WALL_TOLERANCE {
                eprintln!(
                    "bench gate: warning: parallel wall time drifted {:+.0}% vs baseline \
                     ({cur} ns vs {base} ns) — informational, not a failure",
                    drift * 100.0
                );
            } else {
                println!(
                    "bench gate: wall time within tolerance ({:+.0}% vs baseline)",
                    drift * 100.0
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--check" => Some(path.clone()),
        _ => {
            eprintln!("usage: cargo run -p bench [-- --check <BENCH_baseline.json>]");
            return ExitCode::FAILURE;
        }
    };
    let json = bench_json();
    if let Err(e) = std::fs::write(BENCH_OUT, &json) {
        eprintln!("error: cannot write {BENCH_OUT}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote BENCH_compile.json");
    match baseline {
        Some(path) => check_against(&json, &path),
        None => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "{\n  \"deterministic\": {\n    \"cells\": 32,\n    \
         \"counters\": {\n      \"a\": 1\n    }\n  },\n  \
         \"wall\": {\"parallel_wall_ns\": 1200, \"speedup\": 2.5}\n}\n";

    #[test]
    fn extract_section_balances_nested_braces() {
        let det = extract_section(SAMPLE, "deterministic").unwrap();
        assert!(det.starts_with('{') && det.ends_with('}'));
        assert!(det.contains("\"cells\": 32"));
        assert!(det.contains("\"a\": 1"));
        assert!(!det.contains("wall"));
        assert!(extract_section(SAMPLE, "missing").is_none());
    }

    #[test]
    fn extract_u64_reads_scalars() {
        assert_eq!(extract_u64(SAMPLE, "parallel_wall_ns"), Some(1200));
        assert_eq!(extract_u64(SAMPLE, "cells"), Some(32));
        assert_eq!(extract_u64(SAMPLE, "speedup"), Some(2)); // integer prefix
        assert_eq!(extract_u64(SAMPLE, "nope"), None);
    }

    #[test]
    fn first_diff_names_the_line() {
        assert_eq!(first_diff("a\nb\nc", "a\nb\nc"), None);
        let (line, g, w) = first_diff("a\nX\nc", "a\nb\nc").unwrap();
        assert_eq!((line, g.as_str(), w.as_str()), (2, "X", "b"));
        let (line, g, _) = first_diff("a\nb\nextra", "a\nb").unwrap();
        assert_eq!((line, g.as_str()), (3, "extra"));
    }
}
