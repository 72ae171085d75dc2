//! Golden per-cell structural hashes of the tracked perf suites.
//!
//! `perf_baseline` times the soc1 × quick and soc6 × large/extra-large
//! grids; these tests pin every cell's structural hash so hot-path work —
//! the flat-state sense path, equal-timestamp event draining, cache
//! layout changes — fails loudly if it moves modeled behaviour by a
//! single bit. The constants were recorded from the per-pop, map-shaped
//! reference implementation (print them with `--nocapture` after an
//! *intentional* model change to regenerate).

use cohmeleon_bench::tracked::{soc6_params, suite_grid, TRAIN_ITERATIONS};
use cohmeleon_exp::{CellResult, Serial, SweepGrid};
use cohmeleon_soc::config::{soc1, soc6};
use cohmeleon_workloads::generator::GeneratorParams;

fn hashes(grid: &SweepGrid) -> Vec<u64> {
    let mut out = vec![0u64; grid.num_cells()];
    grid.execute(&Serial, &mut |result: CellResult| {
        out[grid.cell_index(result.cell)] = result.result.structural_hash();
    });
    out
}

/// soc1 × quick, [fixed-non-coh-dma, manual, cohmeleon]. The cohmeleon
/// cell's hash equals the agent-stack golden in `tests/learning.rs` —
/// the same protocol through a different entry point.
#[test]
fn soc1_quick_suite_hashes_are_golden() {
    let got = hashes(&suite_grid(soc1(), &GeneratorParams::quick(), TRAIN_ITERATIONS));
    for h in &got {
        println!("soc1 {h:#018x}");
    }
    assert_eq!(
        got,
        vec![0x987c_ae79_cfe3_cc73, 0xe235_0979_6cec_0fca, 0x49cb_7da5_f241_9441],
        "soc1 suite moved — modeled behaviour changed"
    );
}

/// soc6 × large/extra-large (the cache-thrashing regime whose throughput
/// `perf_baseline` tracks as `soc6_scale`), same policy order.
#[test]
fn soc6_large_suite_hashes_are_golden() {
    let got = hashes(&suite_grid(soc6(), &soc6_params(), TRAIN_ITERATIONS));
    for h in &got {
        println!("soc6 {h:#018x}");
    }
    assert_eq!(
        got,
        vec![0x66a6_1b52_9cb7_62f2, 0x193c_f5ec_ba4b_191c, 0x7708_82f6_7f86_feb9],
        "soc6 suite moved — modeled behaviour changed"
    );
}
