//! Integration tests for the incremental pipeline: the whole-pipeline stage
//! cache must make warm recompiles pure replay, invalidate exactly the
//! edited source's cone, and reproduce the cold artifacts byte for byte
//! — and the persistent layer must detect (and silently recompute past)
//! corrupted or truncated entries instead of trusting them.

use longnail::driver::builtin_datasheet;
use longnail::serve::{probe_cell, store_cell};
use longnail::{isax_lib, Longnail, MatrixCell, PipelineCache};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// Same representative slice as `tests/matrix.rs` — small enough to
/// recompile repeatedly under proptest.
fn small_isaxes() -> Vec<(String, String, String)> {
    isax_lib::all_isaxes()
        .into_iter()
        .filter(|(name, _, _)| matches!(name.as_str(), "dotprod" | "zol" | "sqrt_tightly"))
        .collect()
}

fn small_cores() -> Vec<scaiev::datasheet::VirtualDatasheet> {
    ["ORCA", "Piccolo"]
        .iter()
        .map(|c| builtin_datasheet(c).unwrap())
        .collect()
}

/// Per-stage `(misses, hits)` of one run (deltas, via the fresh-pipe or
/// stage_stats contract of `compile_cells`).
fn mix(m: &longnail::MatrixResult) -> HashMap<String, (u64, u64)> {
    m.stage_stats
        .iter()
        .map(|s| (s.stage.clone(), (s.misses, s.hits)))
        .collect()
}

/// Asserts both runs produced byte-identical deterministic artifacts:
/// Verilog, SCAIE-V YAML, and the stripped telemetry trace per cell.
fn assert_byte_identical(a: &longnail::MatrixResult, b: &longnail::MatrixResult) {
    assert_eq!(a.entries.len(), b.entries.len());
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        let cell = format!("{}_{}", ea.isax, ea.core);
        let (ca, cb) = (ea.outcome.as_ref().unwrap(), eb.outcome.as_ref().unwrap());
        assert_eq!(ca.config.to_yaml(), cb.config.to_yaml(), "{cell} yaml");
        assert_eq!(ca.graphs.len(), cb.graphs.len(), "{cell} units");
        for (ga, gb) in ca.graphs.iter().zip(&cb.graphs) {
            assert_eq!(ga.verilog, gb.verilog, "{cell} verilog {}", ga.name);
        }
        assert_eq!(
            ca.trace.stripped().to_jsonl(),
            cb.trace.stripped().to_jsonl(),
            "{cell} stripped trace"
        );
    }
}

#[test]
fn warm_no_change_recompile_is_pure_replay() {
    let ln = Longnail::new();
    let (isaxes, cores) = (small_isaxes(), small_cores());
    let pipe = PipelineCache::new();
    let cold = ln.compile_cells(&MatrixCell::grid(&isaxes, &cores), 2, &pipe);
    let warm = ln.compile_cells(&MatrixCell::grid(&isaxes, &cores), 2, &pipe);
    let warm_mix = mix(&warm);
    for stage in telemetry::STAGES {
        if stage == "opt" {
            // The opt stage only exists at --opt-level >= 1; this matrix
            // compiles at the default -O0, where it is skipped entirely.
            continue;
        }
        let &(misses, hits) = warm_mix.get(stage).unwrap_or(&(0, 0));
        assert_eq!(misses, 0, "warm `{stage}` recomputed");
        assert!(hits > 0, "warm `{stage}` saw no lookups");
    }
    assert_byte_identical(&cold, &warm);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Editing exactly one ISAX source (appending a comment — key
    /// changes, semantics don't) must recompute exactly that ISAX's
    /// cells: one frontend miss, per-unit backend misses scoped to the
    /// edited source, every other lookup a hit — and the artifacts stay
    /// byte-identical to the cold run for *all* cells.
    #[test]
    fn one_edit_invalidates_exactly_one_source(edit_idx in 0usize..3, seed: u64) {
        let ln = Longnail::new();
        let (isaxes, cores) = (small_isaxes(), small_cores());
        let pipe = PipelineCache::new();
        let cold = ln.compile_cells(&MatrixCell::grid(&isaxes, &cores), 2, &pipe);
        let mut edited = isaxes.clone();
        edited[edit_idx].2.push_str(&format!("\n// edit {seed:016x}\n"));
        let warm = ln.compile_cells(&MatrixCell::grid(&edited, &cores), 2, &pipe);
        let cells = isaxes.len() * cores.len();
        let units = cold
            .entry(&isaxes[edit_idx].0, "ORCA")
            .and_then(|e| e.outcome.as_ref().ok())
            .map(|c| c.graphs.len())
            .unwrap() as u64;
        let warm_mix = mix(&warm);
        // Frontend: one miss (the edited source), a hit per other lookup.
        prop_assert_eq!(warm_mix["frontend"], (1, cells as u64 - 1));
        prop_assert_eq!(warm_mix["lower"], (1, cells as u64 - 1));
        // Backend: only the edited ISAX's units, on every core.
        let unit_lookups: u64 = cold
            .entries
            .iter()
            .filter_map(|e| e.outcome.as_ref().ok())
            .map(|c| c.graphs.len() as u64)
            .sum();
        for stage in ["problem", "solve", "modes", "rtl", "verilog"] {
            let expect = (units * cores.len() as u64, unit_lookups - units * cores.len() as u64);
            prop_assert_eq!(warm_mix[stage], expect, "stage {}", stage);
        }
        prop_assert_eq!(
            warm_mix["config"],
            (cores.len() as u64, (cells - cores.len()) as u64)
        );
        assert_byte_identical(&cold, &warm);
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("longnail-inc-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corrupted_or_truncated_disk_entries_are_recomputed() {
    let root = tmp_root("corrupt");
    let ln = Longnail::new();
    let (name, unit, src) = isax_lib::all_isaxes()
        .into_iter()
        .find(|(n, _, _)| n == "dotprod")
        .unwrap();
    let cell = MatrixCell {
        isax: name,
        unit,
        src,
        datasheet: builtin_datasheet("ORCA").unwrap(),
    };
    let pipe = PipelineCache::with_disk(&root, &ln.config_fingerprint()).unwrap();
    let disk = pipe.disk().unwrap();
    let compiled = ln
        .compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe)
        .unwrap();
    assert!(store_cell(disk, &ln, &cell, &compiled).unwrap());
    let clean = probe_cell(disk, &ln, &cell).expect("stored bundle probes back");
    assert!(clean.files.iter().any(|(n, _)| n.ends_with(".sv")));

    let entry_path = {
        let mut found = None;
        for f in std::fs::read_dir(root.join("cell")).unwrap() {
            let p = f.unwrap().path();
            if p.extension().is_some_and(|e| e == "bin") {
                found = Some(p);
            }
        }
        found.expect("one stored cell entry")
    };
    let pristine = std::fs::read(&entry_path).unwrap();

    // Flip one payload byte: the checksum must reject the entry.
    let mut mangled = pristine.clone();
    let mid = pristine.len() / 2;
    mangled[mid] ^= 0x40;
    std::fs::write(&entry_path, &mangled).unwrap();
    assert!(probe_cell(disk, &ln, &cell).is_none(), "bit flip trusted");

    // Truncate mid-payload: rejected too.
    std::fs::write(&entry_path, &pristine[..mid]).unwrap();
    assert!(probe_cell(disk, &ln, &cell).is_none(), "truncation trusted");
    assert!(disk.stage_stats("cell").invalid >= 2, "defects not counted");

    // Recompute-and-store heals the entry with identical contents.
    assert!(store_cell(disk, &ln, &cell, &compiled).unwrap());
    assert_eq!(probe_cell(disk, &ln, &cell), Some(clean));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn failed_compiles_are_never_served_from_disk() {
    let root = tmp_root("failures");
    let ln = Longnail::new();
    let cell = MatrixCell {
        isax: "broken".into(),
        unit: "Broken".into(),
        src: "InstructionSet Broken { instructions { bad { encoding: 7'd0; } } }".into(),
        datasheet: builtin_datasheet("ORCA").unwrap(),
    };
    let pipe = PipelineCache::with_disk(&root, &ln.config_fingerprint()).unwrap();
    let disk = pipe.disk().unwrap();
    match ln.compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe) {
        Err(_) => {}
        Ok(compiled) => {
            // Unit-level failure path: diagnostics carry the errors; the
            // bundle must still be refused.
            assert!(compiled.diagnostics.has_errors());
            assert!(!store_cell(disk, &ln, &cell, &compiled).unwrap());
        }
    }
    assert!(probe_cell(disk, &ln, &cell).is_none());
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression for the cache-key completeness bug: the optimization level
/// must be part of both the content key and the persistent schema
/// fingerprint. Compiling -O0 into a cache dir and then -O2 against the
/// *same* dir must not serve the -O0 bundle to the -O2 run — and both
/// levels' bundles must coexist, each probing back its own bytes.
#[test]
fn opt_level_is_part_of_the_cell_cache_key() {
    let root = tmp_root("optlevel");
    let ln0 = Longnail::new();
    let mut ln2 = Longnail::new();
    ln2.opt_level = longnail::OptLevel::O2;
    assert_ne!(ln0.config_fingerprint(), ln2.config_fingerprint());
    let (name, unit, src) = isax_lib::all_isaxes()
        .into_iter()
        .find(|(n, _, _)| n == "dotprod")
        .unwrap();
    let cell = MatrixCell {
        isax: name,
        unit,
        src,
        datasheet: builtin_datasheet("ORCA").unwrap(),
    };
    // The content keys themselves must already differ.
    let key0 = longnail::cell_key(
        &cell.unit, &cell.src, &cell.datasheet,
        ln0.chain_depth, ln0.work_limit, &ln0.config_fingerprint(),
    );
    let key2 = longnail::cell_key(
        &cell.unit, &cell.src, &cell.datasheet,
        ln2.chain_depth, ln2.work_limit, &ln2.config_fingerprint(),
    );
    assert_ne!(key0, key2, "opt level not folded into the cell key");

    // -O0 run populates the shared dir.
    let pipe0 = PipelineCache::with_disk(&root, &ln0.config_fingerprint()).unwrap();
    let c0 = ln0
        .compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe0)
        .unwrap();
    assert!(store_cell(pipe0.disk().unwrap(), &ln0, &cell, &c0).unwrap());

    // The -O2 run against the same dir must MISS (compile, not serve).
    let pipe2 = PipelineCache::with_disk(&root, &ln2.config_fingerprint()).unwrap();
    assert!(
        probe_cell(pipe2.disk().unwrap(), &ln2, &cell).is_none(),
        "-O2 probe served a -O0 bundle"
    );
    let c2 = ln2
        .compile_cell(&cell.src, &cell.unit, &cell.datasheet, &pipe2)
        .unwrap();
    assert!(store_cell(pipe2.disk().unwrap(), &ln2, &cell, &c2).unwrap());

    // Both levels now coexist: each probes back exactly its own bytes.
    let b0 = probe_cell(pipe0.disk().unwrap(), &ln0, &cell).expect("-O0 bundle still present");
    let b2 = probe_cell(pipe2.disk().unwrap(), &ln2, &cell).expect("-O2 bundle present");
    assert_eq!(b0, longnail::serve::cell_bundle(&c0), "-O0 bytes");
    assert_eq!(b2, longnail::serve::cell_bundle(&c2), "-O2 bytes");
    let _ = std::fs::remove_dir_all(&root);
}
