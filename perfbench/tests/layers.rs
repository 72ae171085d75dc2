//! The traced path is the same program as the grid's own, and the
//! workloads split the simulator's layers as the benchmark claims.

use std::time::Duration;

use cohmeleon_bench::figures::fig9;
use cohmeleon_bench::Scale;
use cohmeleon_exp::{Experiment, PolicyKind, Serial, SweepGrid};
use cohmeleon_perfbench::sim;
use cohmeleon_perfbench::trace::Tracer;
use cohmeleon_soc::config::soc1;
use cohmeleon_soc::AppResult;
use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

fn serial_results(grid: &SweepGrid) -> Vec<AppResult> {
    grid.collect(&Serial)
        .iter()
        .map(|c| c.result.clone())
        .collect()
}

fn hashes(results: &[AppResult]) -> Vec<u64> {
    results.iter().map(AppResult::structural_hash).collect()
}

/// Tag scans per simulated event over one traced round, after checking
/// the round hash-for-hash against the grid's own Serial run.
fn scans_per_event(grid: &SweepGrid) -> f64 {
    let reference = hashes(&serial_results(grid));
    let (counts, mismatches) = sim::traced_round(grid, &reference, &mut Tracer::default());
    assert_eq!(mismatches, 0);
    counts.tags.scans as f64 / counts.events as f64
}

#[test]
fn timed_policies_are_hash_identical_to_bare_policies() {
    let config = soc1();
    let params = GeneratorParams::quick();
    let grid = Experiment::train_test(
        config.clone(),
        generate_app(&config, &params, 1),
        generate_app(&config, &params, 2),
    )
    .policy_kinds([
        PolicyKind::FixedNonCoh,
        PolicyKind::FixedFullCoh,
        PolicyKind::Manual,
        PolicyKind::Cohmeleon,
    ])
    .seeds([3, 4])
    .train_iterations(2)
    .build()
    .expect("grid");
    let reference = hashes(&serial_results(&grid));
    let mut tracer = Tracer::default();
    let t = sim::traced(&grid, Duration::ZERO, &reference, &mut tracer);
    assert_eq!(t.mismatches, 0);
    assert_eq!(t.cells, (grid.num_cells() * sim::MIN_ROUNDS) as u64);
    let decides = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.decide")
        .count() as u64;
    // Cohmeleon's cells also decide through two training runs.
    assert!(decides > t.counts.events.min(1), "decide spans recorded");
    assert!(t.counts.cohmeleon_modes.iter().sum::<u64>() > 0);
}

#[test]
fn dma_stream_bypasses_the_tag_walk() {
    let spe = scans_per_event(&sim::dma_stream_grid(1));
    assert!(spe <= 1.5, "dma-stream: {spe} tag scans per event");
}

#[test]
fn paper_grid_is_dominated_by_the_tag_walk() {
    let spe = scans_per_event(&sim::paper_grid(1));
    assert!(spe >= 5.0, "paper-grid: {spe} tag scans per event");
}

#[test]
fn default_seed_reproduces_the_fig9_headline() {
    let grid = sim::paper_grid(sim::DEFAULT_SEED);
    let (speedup, reduction) = sim::headline(&grid, &serial_results(&grid));
    let fig = fig9::run(Scale::Fast);
    assert_eq!(speedup, fig.headline_speedup);
    assert_eq!(reduction, fig.headline_mem_reduction);
}
