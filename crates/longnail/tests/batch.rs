//! The persistent-cell batch path (`serve::run_cells`) that `lnc --matrix`
//! and `lnc serve` share: a cold run stores exactly the bundle of every
//! clean compile, a warm run serves every cell and compiles none, and a
//! cell a fault plan targets bypasses the disk in both directions.

use longnail::driver::eval_datasheets;
use longnail::serve::{cell_bundle, probe_cell, run_cells, run_serve, CellRun};
use longnail::{isax_lib, FaultKind, FaultPlan, FaultSpec, Longnail, MatrixCell, PipelineCache};
use std::path::PathBuf;

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("longnail-batch-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid() -> Vec<MatrixCell> {
    MatrixCell::grid(&isax_lib::all_isaxes(), &eval_datasheets())
}

fn disk_pipe(dir: &std::path::Path, ln: &Longnail) -> PipelineCache {
    PipelineCache::with_disk(dir, &ln.config_fingerprint()).unwrap()
}

/// A plan that targets `X_DOTP@ORCA` with a panic at a boundary no
/// compile crosses: the cell compiles cleanly, yet it is fault-targeted.
fn dormant_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![FaultSpec {
            unit: "X_DOTP".into(),
            core: "ORCA".into(),
            stage: "never",
            kind: FaultKind::Panic,
        }],
    }
}

#[test]
fn cold_run_stores_every_bundle_and_warm_run_serves_them_all() {
    let root = tmp_root("matrix");
    let ln = Longnail::new();
    let cells = grid();
    assert_eq!(cells.len(), 32);

    let pipe = disk_pipe(&root, &ln);
    let cold = run_cells(&ln, &cells, 2, &pipe);
    assert_eq!((cold.probed(), cold.served_count()), (32, 0));
    assert_eq!(cold.matrix().entries.len(), 32);
    let disk = pipe.disk().unwrap();
    for (cell, run) in cells.iter().zip(cold.runs()) {
        let CellRun::Compiled(entry) = run else {
            panic!("{}×{} served from an empty cache", cell.isax, cell.datasheet.core);
        };
        let compiled = entry.outcome.as_ref().unwrap();
        assert_eq!(
            probe_cell(disk, &ln, cell),
            Some(cell_bundle(compiled)),
            "{}×{} stored bundle",
            cell.isax,
            cell.datasheet.core
        );
    }

    // A fresh cache over the same directory: nothing left to compile.
    let warm_pipe = disk_pipe(&root, &ln);
    let warm = run_cells(&ln, &cells, 2, &warm_pipe);
    assert_eq!((warm.probed(), warm.served_count()), (32, 32));
    assert!(warm.matrix().entries.is_empty());
    assert!(warm.runs().all(|r| matches!(r, CellRun::Served(_))));
    assert!(warm_pipe.stage_stats().iter().all(|(_, s)| s.misses == 0));
    // The summary credits every stage span the served cells skipped and
    // stays byte-identical to the cold one in its stripped projection.
    let (cs, ws) = (cold.summary(), warm.summary());
    assert_eq!(cs.stripped().stages, ws.stripped().stages);
    let cell_row = ws.stage_cache.iter().find(|r| r.stage == "cell").unwrap();
    assert_eq!((cell_row.hits, cell_row.misses), (32, 0));
    let solve = ws.stage_cache.iter().find(|r| r.stage == "solve").unwrap();
    let cold_solve = cs.stage_cache.iter().find(|r| r.stage == "solve").unwrap();
    assert_eq!((solve.hits, solve.misses), (cold_solve.misses, 0));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fault_targeted_cells_bypass_the_disk_both_ways() {
    let cells = grid();
    let target = |c: &MatrixCell| c.unit == "X_DOTP" && c.datasheet.core == "ORCA";
    let mut faulty = Longnail::new();
    faulty.fault_plan = Some(dormant_plan());

    // Store direction: the targeted cell compiles cleanly but is not kept.
    let root = tmp_root("fault-store");
    let plain = Longnail::new();
    let pipe = disk_pipe(&root, &faulty);
    let cold = run_cells(&faulty, &cells, 2, &pipe);
    assert_eq!(cold.probed(), 31);
    assert_eq!(cold.matrix().compiled().count(), 32, "the dormant fault never fires");
    for cell in &cells {
        let stored = probe_cell(pipe.disk().unwrap(), &plain, cell).is_some();
        assert_eq!(stored, !target(cell), "{}×{}", cell.isax, cell.datasheet.core);
    }
    let _ = std::fs::remove_dir_all(&root);

    // Probe direction: a full cache never serves the targeted cell.
    let root = tmp_root("fault-probe");
    run_cells(&plain, &cells, 2, &disk_pipe(&root, &plain));
    let warm = run_cells(&faulty, &cells, 2, &disk_pipe(&root, &faulty));
    assert_eq!((warm.probed(), warm.served_count()), (31, 31));
    assert_eq!(warm.matrix().entries.len(), 1);
    assert_eq!(warm.matrix().entries[0].unit, "X_DOTP");
    assert_eq!(warm.matrix().entries[0].core, "ORCA");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn serve_stores_cold_and_replays_warm_through_the_same_path() {
    let root = tmp_root("serve");
    let ln = Longnail::new();
    let cells = grid();
    let input: String = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!(
                "{{\"id\": \"{i}\", \"isax\": \"{}\", \"core\": \"{}\"}}\n",
                c.isax, c.datasheet.core
            )
        })
        .collect();
    let serve = |pipe: &PipelineCache| {
        let mut out = Vec::new();
        run_serve(&ln, pipe, 2, &input, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    let cold_pipe = disk_pipe(&root, &ln);
    let cold = serve(&cold_pipe);
    assert_eq!(cold.lines().count(), 32);
    assert!(cold.lines().all(|l| l.contains(r#""status": "ok""#)), "{cold}");
    // Every bundle serve stored is the one lnc --matrix would write.
    let compiled = ln.compile_cells(&cells, 2, &PipelineCache::new());
    for (cell, entry) in cells.iter().zip(&compiled.entries) {
        let bundle = probe_cell(cold_pipe.disk().unwrap(), &ln, cell).expect("stored");
        assert_eq!(bundle, cell_bundle(entry.outcome.as_ref().unwrap()));
    }

    let warm_pipe = disk_pipe(&root, &ln);
    assert_eq!(serve(&warm_pipe), cold);
    assert!(warm_pipe.stage_stats().iter().all(|(_, s)| s.misses == 0 && s.hits == 0));
    let _ = std::fs::remove_dir_all(&root);
}
