//! `lnbench` — the Longnail benchmark: one command that runs a workload,
//! checks every output, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path lnbench/Cargo.toml -- \
//!     --workload <matrix_cold|matrix_checked|serve_stream> \
//!     [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of an untraced run (`--trace 0`), or the per-layer metrics of a traced
//! run (`--trace 1`). Gated times are scaled to a reference host speed
//! measured by a fixed kernel (see `calib`). The lines before the result
//! are a readable report that also gives the workload-specific figures
//! (`matrix_s`, `check_s`, `job_p50_ms`, `job_p99_ms`, `jobs_per_s`, the
//! serve hit share and `fail_ratio`) and the machine and settings. The same report is written
//! as JSON to `lnbench/results/`, with the traced run's spans as folded
//! stacks beside it. Any failed cell, job or check makes the exit code 1.

mod calib;
mod checks;
mod layers;
mod spans;
mod stats;
mod stream;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use longnail::CompiledIsax;
use stats::{beyond, percentile, ratio, valid_metric_name, MIN_BEYOND};
use workloads::{Measured, Workload, SETUP_REPS, WORKERS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 30;

/// Where reports and folded stacks go.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        Metric { name, unit, value }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: lnbench --workload <matrix_cold|matrix_checked|serve_stream> \
                     [--seed <n>] [--seconds <1..=600>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds: `{v}` is not in 1..=600"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Total modeled area, best clock frequency (from the worst critical path)
/// and total pipeline stages of every emitted unit.
fn hardware(outputs: &[CompiledIsax]) -> (f64, f64, f64) {
    let lib = eda::TechLibrary::new();
    let (mut area, mut crit, mut stages) = (0.0, 0.0f64, 0u64);
    for g in outputs.iter().flat_map(|c| &c.graphs) {
        let est = eda::estimate_module(&lib, &g.built.module);
        area += est.area.total();
        crit = crit.max(est.timing.critical_path_ns);
        stages += u64::from(g.max_stage);
    }
    (area, ratio(1000.0, crit), stages as f64)
}

fn ms(ns: &[u64]) -> Vec<f64> {
    sorted(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Workload-specific figures (raw wall times, the host speed, the
    /// memory peak), reported but not gated.
    figures: Vec<Metric>,
    settings: Vec<(&'static str, String)>,
}

/// Share of the machine's CPU time stolen by its hypervisor between two
/// [`stats::host_steal_ticks`] readings, in percent.
fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => {
            100.0 * ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    }
}

fn report(args: &Args, m: &Measured, host_steal_pct: f64) -> Report {
    let latency = ms(&m.latency_ns);
    let at = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
    let p50 = |v: &[f64]| at(v, 50.0);
    let tail_p = args.workload.tail_percentile();
    let (area, fmax, stages) = hardware(&m.outputs);
    // Gated times are scaled to the reference host (see `calib`).
    let setup_scale = m.setup_calibration.cpu_factor();
    let wall_scale = m.calibration.wall_factor();
    let cpu_scale = m.calibration.cpu_factor();
    let end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            p50(&ms(&m.setup_cpu_ns)) / 1e3 * setup_scale,
        ),
        Metric::new("latency_p50_ms", "ms", p50(&latency) * wall_scale),
        Metric::new("latency_tail_ms", "ms", at(&latency, tail_p) * wall_scale),
        Metric::new(
            "cells_per_cpu_s",
            "1/s",
            ratio(m.cells as f64, m.cpu_ns as f64 / 1e9 * cpu_scale),
        ),
        Metric::new("rss_mb", "MiB", p50(&sorted(&m.rss_mb))),
        Metric::new("hw_area_um2", "um2", area),
        Metric::new("hw_fmax_mhz", "MHz", fmax),
        Metric::new("hw_stages", "count", stages),
        Metric::new("sec55_cycles", "cycles", m.checks.sec55_cycles as f64),
    ];
    let traced = ms(&m.traced_latency_ns);
    let overhead = if latency.is_empty() || traced.is_empty() {
        0.0
    } else {
        (p50(&traced) / p50(&latency) - 1.0) * 100.0
    };
    let per_layer = if args.trace {
        m.layers.metrics(overhead)
    } else {
        Vec::new()
    };

    let mut figures = vec![
        Metric::new(
            "fail_ratio",
            "ratio",
            ratio(m.failed as f64, m.attempted as f64),
        ),
        Metric::new("host_speed", "ratio", wall_scale),
        Metric::new("peak_rss_mb", "MiB", m.peak_rss_mb),
        Metric::new("setup_cpu_s", "s", p50(&ms(&m.setup_cpu_ns)) / 1e3),
    ];
    match args.workload {
        Workload::MatrixCold | Workload::MatrixChecked => {
            figures.push(Metric::new("matrix_s", "s", p50(&ms(&m.compile_ns)) / 1e3));
            if args.workload == Workload::MatrixChecked {
                figures.push(Metric::new("check_s", "s", p50(&ms(&m.check_ns)) / 1e3));
            }
        }
        Workload::ServeStream => {
            figures.push(Metric::new("job_p50_ms", "ms", p50(&latency)));
            figures.push(Metric::new("job_p99_ms", "ms", at(&latency, 99.0)));
            figures.push(Metric::new("jobs_per_s", "1/s", m.jobs_per_s));
            let jobs = m.latency_ns.len() + m.traced_latency_ns.len();
            figures.push(Metric::new(
                "hit_share",
                "ratio",
                ratio(m.hit_jobs as f64, jobs as f64),
            ));
        }
    }
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let (workers, clients) = match args.workload {
        Workload::ServeStream => (1, WORKERS),
        _ => (WORKERS, 1),
    };
    let settings = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cpus", cpus.to_string()),
        ("workers", workers.to_string()),
        ("clients", clients.to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("calibration_samples", m.calibration.samples().to_string()),
        ("samples", latency.len().to_string()),
        ("tail_percentile", tail_p.to_string()),
        (
            "tail_samples_beyond",
            beyond(tail_p, latency.len()).to_string(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("commit", commit()),
        ("host_steal_pct", format!("{host_steal_pct:.1}")),
    ];
    Report {
        end_to_end,
        per_layer,
        figures,
        settings,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`; a non-finite value is
/// reported as 0 and counted as a failure.
fn metrics_json(metrics: &[Metric], failed: &mut u64) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                *failed += 1;
                0.0
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let steal_before = stats::host_steal_ticks();
    let measured = match args.workload {
        Workload::MatrixCold => workloads::matrix(args.seed, seconds, args.trace, false),
        Workload::MatrixChecked => workloads::matrix(args.seed, seconds, args.trace, true),
        Workload::ServeStream => workloads::serve(args.seed, seconds, args.trace),
    };
    let report = report(
        &args,
        &measured,
        steal_pct(steal_before, stats::host_steal_ticks()),
    );
    let mut failed = measured.failed;
    let attempted = measured.attempted.max(1);

    println!(
        "lnbench {}",
        report
            .settings
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (title, list) in [
        ("end-to-end", &report.end_to_end),
        ("workload figures", &report.figures),
        ("per-layer", &report.per_layer),
    ] {
        if list.is_empty() {
            continue;
        }
        println!("{title}:");
        for m in list.iter() {
            println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    let tail_p = args.workload.tail_percentile();
    if !args.trace && beyond(tail_p, measured.latency_ns.len()) < MIN_BEYOND {
        println!(
            "note: fewer than {MIN_BEYOND} samples beyond p{tail_p}; latency_tail_ms is not a reliable tail"
        );
    }
    println!("attempted {attempted}, failed {}", measured.failed);
    for p in &measured.problems {
        println!("FAILED: {p}");
    }

    let gated = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics = metrics_json(gated, &mut failed);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut saved = String::from("{\n");
    for (k, v) in &report.settings {
        let _ = writeln!(saved, "  {}: {},", json_str(k), json_str(v));
    }
    let mut ignored = 0;
    let _ = writeln!(
        saved,
        "  \"end_to_end\": {},",
        metrics_json(&report.end_to_end, &mut ignored)
    );
    let _ = writeln!(
        saved,
        "  \"figures\": {},",
        metrics_json(&report.figures, &mut ignored)
    );
    let _ = writeln!(
        saved,
        "  \"per_layer\": {},",
        metrics_json(&report.per_layer, &mut ignored)
    );
    let problems: Vec<String> = measured.problems.iter().map(|p| json_str(p)).collect();
    let _ = writeln!(
        saved,
        "  \"attempted\": {attempted},\n  \"failed\": {failed},\n  \"problems\": [{}]\n}}",
        problems.join(", ")
    );
    let written = std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(format!("{RESULTS_DIR}/{stem}.json"), saved))
        .and_then(|()| match args.trace {
            true => std::fs::write(
                format!("{RESULTS_DIR}/{stem}.folded"),
                measured.recorder.folded(),
            ),
            false => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("lnbench: cannot write results to {RESULTS_DIR}: {e}");
    }

    let correct = failed == 0;
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve_stream",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::ServeStream);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10, true));
        let d = args(&["--workload", "matrix_cold"]).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "matrix_cold", "--trace", "2"],
            &["--workload", "matrix_cold", "--seconds", "0"],
            &["--workload", "matrix_cold", "--seed"],
            &["--workload", "matrix_cold", "--extra"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = spec
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let m = Measured::default();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let a = Args {
                workload: Workload::MatrixCold,
                seed: 1,
                seconds: 1,
                trace,
            };
            let r = report(&a, &m, 0.0);
            let list = if trace { r.per_layer } else { r.end_to_end };
            let produced: Vec<String> = list.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(produced, names(section), "{section}");
        }
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn metrics_json_escapes_and_counts_non_finite_values() {
        let mut failed = 0;
        let out = metrics_json(
            &[
                Metric::new("a", "ms", 1.5),
                Metric::new("b", "ms", f64::NAN),
            ],
            &mut failed,
        );
        assert_eq!(
            out,
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}"
        );
        assert_eq!(failed, 1);
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
