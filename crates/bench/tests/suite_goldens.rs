//! Golden per-cell structural hashes and run totals of the tracked suites.
//!
//! The soc1 × quick and soc6 × large/extra-large grids of
//! `cohmeleon_bench::tracked` are pinned cell by cell, so hot-path work —
//! the flat-state sense path, equal-timestamp event draining, cache
//! layout changes — fails loudly if it moves modeled behaviour by a
//! single bit. Beside the hashes, each suite's summed (events,
//! invocations, simulated cycles) is pinned too: `structural_hash` does
//! not cover the event count, so a change that schedules more or fewer
//! events for the same outcome shows only there. The constants were
//! recorded from the per-pop, map-shaped reference implementation (print
//! them with `--nocapture` after an *intentional* model change to
//! regenerate).

use cohmeleon_bench::tracked::{soc6_params, suite_grid, TRAIN_ITERATIONS};
use cohmeleon_exp::{CellResult, Serial, SweepGrid};
use cohmeleon_soc::config::{soc1, soc6};
use cohmeleon_workloads::generator::GeneratorParams;

/// Every cell's structural hash in dense order, and the grid's summed
/// `(total_events, invocations, total_duration)`.
fn hashes(grid: &SweepGrid) -> (Vec<u64>, (u64, u64, u64)) {
    let mut out = vec![0u64; grid.num_cells()];
    let mut totals = (0u64, 0u64, 0u64);
    grid.execute(&Serial, &mut |result: CellResult| {
        out[grid.cell_index(result.cell)] = result.result.structural_hash();
        totals.0 += result.result.total_events();
        totals.1 += result.result.invocations().count() as u64;
        totals.2 += result.result.total_duration();
    });
    (out, totals)
}

/// soc1 × quick, [fixed-non-coh-dma, manual, cohmeleon]. The cohmeleon
/// cell's hash equals the agent-stack golden in `tests/learning.rs` —
/// the same protocol through a different entry point.
#[test]
fn soc1_quick_suite_hashes_are_golden() {
    let grid = suite_grid(soc1(), &GeneratorParams::quick(), TRAIN_ITERATIONS);
    let (got, totals) = hashes(&grid);
    for h in &got {
        println!("soc1 {h:#018x}");
    }
    println!("soc1 totals {totals:?}");
    assert_eq!(
        got,
        vec![0x987c_ae79_cfe3_cc73, 0xe235_0979_6cec_0fca, 0x49cb_7da5_f241_9441],
        "soc1 suite moved — modeled behaviour changed"
    );
    assert_eq!(
        totals,
        (11_099, 27, 4_022_452),
        "soc1 suite (events, invocations, cycles) moved — modeled behaviour changed"
    );
}

/// soc6 × large/extra-large (the cache-thrashing regime: recalls,
/// evictions and DRAM bursts), same policy order.
#[test]
fn soc6_large_suite_hashes_are_golden() {
    let grid = suite_grid(soc6(), &soc6_params(), TRAIN_ITERATIONS);
    let (got, totals) = hashes(&grid);
    for h in &got {
        println!("soc6 {h:#018x}");
    }
    println!("soc6 totals {totals:?}");
    assert_eq!(
        got,
        vec![0x66a6_1b52_9cb7_62f2, 0x193c_f5ec_ba4b_191c, 0x7708_82f6_7f86_feb9],
        "soc6 suite moved — modeled behaviour changed"
    );
    assert_eq!(
        totals,
        (66_866, 27, 23_134_848),
        "soc6 suite (events, invocations, cycles) moved — modeled behaviour changed"
    );
}
