//! Ablation of the allocation strategies (experiment E6): windowed best fit
//! (the default, matching the paper's cost structure), exhaustive best fit,
//! first fit and the random-window variant, each timed over one full
//! allocation pass on `s1238` from the same biasless selection.
//!
//! `cargo bench -p bench --bench allocation_ablation` prints the median of
//! [`SAMPLES`] timed passes per strategy.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::allocation::{allocate_all, AllocScratch, AllocationConfig, AllocationStrategy};
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_core::profile::ProfileReport;
use sime_core::selection::{select, SelectionScheme};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vlsi_netlist::bench_suite::{paper_circuit, PaperCircuit};
use vlsi_place::cost::Objectives;

/// Timed allocation passes per strategy.
const SAMPLES: usize = 15;

fn main() {
    let circuit = PaperCircuit::S1238;
    let netlist = Arc::new(paper_circuit(circuit));
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), 1);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let placement = engine.initial_placement(&mut rng);
    let mut profile = ProfileReport::new();
    let (_lengths, goodness) = engine.evaluate(&placement, &mut profile);

    println!("allocation strategies on s1238, median of {SAMPLES} passes:");
    for (name, strategy) in [
        ("windowed_best_fit", AllocationStrategy::WindowedBestFit),
        ("exhaustive_best_fit", AllocationStrategy::SortedBestFit),
        ("first_fit", AllocationStrategy::FirstFit),
        ("random_window", AllocationStrategy::RandomWindow),
    ] {
        let alloc_config = AllocationConfig {
            strategy,
            ..Default::default()
        };
        let mut samples: Vec<Duration> = (0..SAMPLES)
            .map(|_| {
                let mut r = ChaCha8Rng::seed_from_u64(11);
                let mut selected = select(&goodness, SelectionScheme::Biasless, &mut r, &[]);
                let mut scratch = AllocScratch::for_evaluator(engine.evaluator());
                let mut p = placement.clone();
                let t0 = Instant::now();
                black_box(allocate_all(
                    engine.evaluator(),
                    &mut scratch,
                    &mut p,
                    &mut selected,
                    &goodness,
                    &alloc_config,
                    &[],
                    &mut r,
                ));
                t0.elapsed()
            })
            .collect();
        samples.sort_unstable();
        println!(
            "  {name:<20} {:>10.3} ms",
            samples[SAMPLES / 2].as_secs_f64() * 1e3
        );
    }
}
