//! Sweeping the learner design space as a grid axis.
//!
//! The agent redesign made the learning subsystem composable (state space
//! × exploration × value store × update rule); a `LearnerSpec` names one
//! composition as plain data, and `Experiment::learners` puts a whole
//! sweep of them on the policy axis — here every exploration strategy
//! over two state spaces, raced on SoC1 and streamed to a JSONL record
//! as cells complete.
//!
//! Run with: `cargo run --release --example learner_sweep`

use cohmeleon_repro::exp::{
    AgentScope, Experiment, JsonlSink, LearnerSpec, StateSpaceKind, StoreKind, UpdateKind,
    WeightPreset, WorkStealing,
};
use cohmeleon_repro::soc::config::soc1;
use cohmeleon_repro::workloads::generator::{generate_app, GeneratorParams};

fn main() {
    let config = soc1();
    // The coverage preset visits a far wider state set than `quick` —
    // the right workload for comparing discretizations.
    let params = GeneratorParams::coverage();
    let train_app = generate_app(&config, &params, 21);
    let test_app = generate_app(&config, &params, 22);

    // Every exploration strategy × {table3, extended} over a sparse store,
    // with the paper composition (exactly `CohmeleonPolicy`) as cell 0.
    let mut specs = vec![LearnerSpec::paper()];
    specs.extend(
        LearnerSpec::grid(
            &[StateSpaceKind::Table3, StateSpaceKind::Extended],
            &cohmeleon_repro::exp::ExplorationKind::ALL,
            &[UpdateKind::Blend],
            StoreKind::Sparse,
        )
        .into_iter()
        .filter(|s| {
            *s != LearnerSpec {
                store: StoreKind::Sparse,
                ..LearnerSpec::paper()
            }
        }),
    );
    // The orchestration axes ride the same grid: the paper composition
    // with one agent per accelerator kind, and with a memory-leaning
    // reward — each its own resumable cell, leasable to a fleet worker.
    specs.push(LearnerSpec::paper().with_scope(AgentScope::PerKind));
    specs.push(LearnerSpec::paper().with_weights(WeightPreset::MemHeavy));

    let grid = Experiment::train_test(config, train_app, test_app)
        .learners(specs.iter().copied())
        .seed(5)
        .train_iterations(8)
        .build()
        .expect("experiment axes are non-empty");

    // Stream a durable record while the sweep runs, then reload it.
    let mut sink = JsonlSink::new(Vec::new());
    grid.execute(&WorkStealing::new(), &mut sink);
    let jsonl = String::from_utf8(sink.into_inner()).unwrap();
    let records = cohmeleon_repro::exp::read_jsonl(&jsonl).expect("own JSONL parses");

    println!(
        "{:<40} {:>14} {:>12} {:>8}",
        "learner", "cycles", "off-chip", "vs paper"
    );
    let baseline = records
        .iter()
        .find(|r| r.policy_index == 0)
        .expect("baseline cell present")
        .total_cycles as f64;
    let mut sorted = records.clone();
    sorted.sort_by_key(|r| r.policy_index);
    for r in &sorted {
        println!(
            "{:<40} {:>14} {:>12} {:>7.2}x",
            r.policy,
            r.total_cycles,
            r.total_offchip,
            r.total_cycles as f64 / baseline
        );
    }
    println!("\n({} cells; the full 18-cell sweep is `cargo run -p cohmeleon-bench --bin learner_ablation`)", records.len());
}
