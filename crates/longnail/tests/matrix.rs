//! Parallel compile-matrix integration tests: the shared pipeline cache
//! must not change any observable output, and the worker count must not
//! change anything at all — Verilog, YAML configs, diagnostics, and
//! stripped traces are byte-identical for every `jobs` value.

use longnail::driver::{builtin_datasheet, eval_datasheets};
use longnail::{isax_lib, Longnail, MatrixCell, MatrixResult, PipelineCache};

/// A small but representative slice of the Table 3 matrix: a plain
/// instruction, an always-block ISAX with custom registers, and the
/// long-schedule sqrt.
fn small_isaxes() -> Vec<(String, String, String)> {
    isax_lib::all_isaxes()
        .into_iter()
        .filter(|(name, _, _)| matches!(name.as_str(), "dotprod" | "zol" | "sqrt_tightly"))
        .collect()
}

fn compile_grid(
    ln: &Longnail,
    isaxes: &[(String, String, String)],
    cores: &[scaiev::datasheet::VirtualDatasheet],
    jobs: usize,
) -> MatrixResult {
    ln.compile_cells(
        &MatrixCell::grid(isaxes, cores),
        jobs,
        &PipelineCache::new(),
    )
}

#[test]
fn fresh_cache_compile_matches_shared_cache_compile() {
    let ln = Longnail::new();
    let pipe = PipelineCache::new();
    let (unit, src) = isax_lib::isax_source("dotprod").unwrap();
    for ds in eval_datasheets() {
        let cold = ln.compile(&src, &unit, &ds).unwrap();
        let warm = ln.compile_cell(&src, &unit, &ds, &pipe).unwrap();
        assert_eq!(
            cold.trace.stripped(),
            warm.trace.stripped(),
            "trace diverges on {}",
            ds.core
        );
        let cold_sv: Vec<&str> = cold.graphs.iter().map(|g| g.verilog.as_str()).collect();
        let warm_sv: Vec<&str> = warm.graphs.iter().map(|g| g.verilog.as_str()).collect();
        assert_eq!(cold_sv, warm_sv);
        assert_eq!(cold.config.to_yaml(), warm.config.to_yaml());
        assert_eq!(cold.diagnostics.events, warm.diagnostics.events);
    }
    // One source, four cores: one miss, three hits.
    let frontend = pipe.store().stage_stats("frontend");
    assert_eq!((frontend.misses, frontend.hits), (1, 3));
    assert_eq!(pipe.store().len("frontend"), 1);
}

#[test]
fn matrix_is_deterministic_across_worker_counts() {
    let ln = Longnail::new();
    let isaxes = small_isaxes();
    let cores: Vec<_> = ["ORCA", "Piccolo"]
        .iter()
        .map(|c| builtin_datasheet(c).unwrap())
        .collect();
    let serial = compile_grid(&ln, &isaxes, &cores, 1);
    let parallel = compile_grid(&ln, &isaxes, &cores, 4);
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 4);
    assert_eq!(serial.entries.len(), isaxes.len() * cores.len());
    assert_eq!(parallel.entries.len(), serial.entries.len());
    // Cache totals are deterministic: one miss per ISAX, the rest hits.
    for m in [&serial, &parallel] {
        assert_eq!(m.stage("frontend").misses, isaxes.len() as u64);
        assert_eq!(
            m.stage("frontend").hits,
            (isaxes.len() * (cores.len() - 1)) as u64,
            "jobs = {}",
            m.jobs
        );
    }
    for (a, b) in serial.entries.iter().zip(&parallel.entries) {
        // Same cell in the same position.
        assert_eq!((a.isax.as_str(), a.core.as_str()), (b.isax.as_str(), b.core.as_str()));
        let (ca, cb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(
            ca.trace.stripped().to_jsonl(),
            cb.trace.stripped().to_jsonl(),
            "stripped trace diverges for {}×{}",
            a.isax,
            a.core
        );
        for (ga, gb) in ca.graphs.iter().zip(&cb.graphs) {
            assert_eq!(ga.verilog, gb.verilog, "{}×{}/{}", a.isax, a.core, ga.name);
        }
        assert_eq!(ca.config.to_yaml(), cb.config.to_yaml());
        assert_eq!(ca.diagnostics.events, cb.diagnostics.events);
    }
}

#[test]
fn frontend_failures_are_cached_and_reported_per_cell() {
    let ln = Longnail::new();
    let isaxes = vec![(
        "broken".to_string(),
        "broken".to_string(),
        "InstructionSet broken { this is not CoreDSL }".to_string(),
    )];
    let cores = eval_datasheets();
    let matrix = compile_grid(&ln, &isaxes, &cores, 2);
    assert_eq!(matrix.entries.len(), cores.len());
    for e in &matrix.entries {
        let err = e.outcome.as_ref().unwrap_err();
        assert_eq!(err.stage, "frontend", "{}×{}", e.isax, e.core);
    }
    // The frontend ran once; every other cell reused the cached failure.
    let frontend = matrix.stage("frontend");
    assert_eq!(
        (frontend.misses, frontend.hits),
        (1, cores.len() as u64 - 1)
    );
    assert_eq!(matrix.compiled().count(), 0);
}

#[test]
fn matrix_lookup_finds_cells_by_name() {
    let ln = Longnail::new();
    let isaxes = small_isaxes();
    let cores: Vec<_> = ["PicoRV32"]
        .iter()
        .map(|c| builtin_datasheet(c).unwrap())
        .collect();
    let matrix = compile_grid(&ln, &isaxes, &cores, 2);
    let cell = matrix.entry("zol", "PicoRV32").expect("cell exists");
    let compiled = cell.outcome.as_ref().unwrap();
    assert_eq!(compiled.core, "PicoRV32");
    assert!(matrix.entry("zol", "ORCA").is_none());
}
