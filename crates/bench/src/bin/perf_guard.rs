//! `perf_guard` — the perf gate. It measures the guarded quantities in this
//! process and checks each against its bound in [`GATES`]; it takes no flags
//! and writes no files:
//!
//! ```text
//! cargo run --release -p bench --bin perf_guard
//! ```
//!
//! Three groups of gates, each measured on every host (the metric names
//! continue the checked-in `BENCH_*.json` snapshots):
//!
//! * **head-to-head** (`BENCH_PR2.json`, pinned in `BENCH_BASELINE.json`) —
//!   kernel against naive implementation on `s1196`, on the placement ten
//!   seeded SimE iterations reach: trial scoring of the highest-degree cell
//!   over 48 slots, a full net-length evaluation, and the per-cell goodness
//!   pass against that naive evaluation, 200 reps each; each ratio is the
//!   median of five such rounds. Both sides of each ratio are timed in the
//!   same process, so the ratios are machine-relative and must stay within
//!   25 % of their pinned baselines.
//! * **bound-pruning** (`BENCH_PR7.json`) — the serial windowed iteration on
//!   `s15850`, the default engine (bound-pruned trial scoring + incremental
//!   goodness) against the legacy exhaustive arm, best of 3 reps of 2
//!   iterations from identical seeded starts. It must reach 1.3× and the two
//!   arms must agree bit for bit. Both arms are serial, so the floor applies
//!   on every core count.
//! * **row-edit** — the per-edit cost of a fixed, seeded `move_cell` mix
//!   inside a row of 4,096 cells against the same mix inside a row of 256
//!   cells, median of five rounds, both placements in this process. Blocked
//!   row packing keeps an edit's cost nearly independent of the row length;
//!   an eager suffix re-pack makes the ratio grow with it (~16×). The ratio
//!   must stay at or below its ceiling on every core count.
//!
//! Exits 1 when any gate fails. Every bound lives in [`GATES`]; re-pinning
//! one means editing the table in a reviewed change, and
//! `tests::gate_table_is_pinned` turns every such edit into a test diff.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_core::profile::ProfileReport;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vlsi_netlist::bench_suite::{paper_circuit, ExtendedCircuit, PaperCircuit, SuiteCircuit};
use vlsi_place::cost::Objectives;
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::{Placement, Slot};

/// A set of gates measured together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Group {
    HeadToHead,
    BoundPruning,
    RowEdit,
}

impl Group {
    fn label(self) -> &'static str {
        match self {
            Group::HeadToHead => "head-to-head",
            Group::BoundPruning => "bound-pruning",
            Group::RowEdit => "row-edit",
        }
    }

    fn measure(self) -> Measured {
        match self {
            Group::HeadToHead => measure_head_to_head(),
            Group::BoundPruning => measure_bound_pruning(),
            Group::RowEdit => measure_row_edit(),
        }
    }
}

/// What a gated metric must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Bound {
    /// Higher is better: at least the baseline less [`BASELINE_TOLERANCE`].
    AtLeastBaseline(f64),
    /// Lower is better: at most the baseline plus [`BASELINE_TOLERANCE`].
    AtMostBaseline(f64),
    /// A speedup of at least this factor.
    Floor(f64),
    /// A cost ratio of at most this factor.
    Ceiling(f64),
}

/// Relative tolerance of a baseline bound.
const BASELINE_TOLERANCE: f64 = 0.25;

/// One gated metric.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Gate {
    group: Group,
    metric: &'static str,
    /// The measured configuration, named in every line so a red run is
    /// diagnosable from the log alone.
    config: &'static str,
    bound: Bound,
}

const TRIAL_SCORING: &str = "head_to_head.trial_scoring_48slots.speedup";
const FULL_NET_LENGTHS: &str = "head_to_head.full_net_lengths.speedup";
const GOODNESS_PASS: &str = "head_to_head.goodness_pass.ratio_vs_naive_eval";
const PRUNED_VS_LEGACY: &str = "windowed_serial_speedup_vs_legacy";
const ROW_EDIT_SCALING: &str = "row_edit.per_edit_ratio_4096_vs_256";

/// Ceiling of the row-edit scaling ratio: twice the highest ratio blocked
/// row packing measured on a 2-core host (1.9–2.5×); an eager suffix
/// re-pack measures 16–22× there (see `measure_row_edit`).
const ROW_EDIT_CEILING: f64 = 5.0;

/// Every gate, in the order it is checked and printed.
const GATES: [Gate; 5] = [
    Gate {
        group: Group::HeadToHead,
        metric: TRIAL_SCORING,
        config: "s1196, 48 slots, 200 reps",
        bound: Bound::AtLeastBaseline(5.13),
    },
    Gate {
        group: Group::HeadToHead,
        metric: FULL_NET_LENGTHS,
        config: "s1196, 200 reps",
        bound: Bound::AtLeastBaseline(1.79),
    },
    Gate {
        group: Group::HeadToHead,
        metric: GOODNESS_PASS,
        config: "s1196, 200 reps",
        bound: Bound::AtMostBaseline(0.200),
    },
    Gate {
        group: Group::BoundPruning,
        metric: PRUNED_VS_LEGACY,
        config: "serial windowed iteration; machine-relative, gated on every core count",
        bound: Bound::Floor(1.3),
    },
    Gate {
        group: Group::RowEdit,
        metric: ROW_EDIT_SCALING,
        config: "seeded move_cell mix, 4,096- vs 256-cell row; gated on every core count",
        bound: Bound::Ceiling(ROW_EDIT_CEILING),
    },
];

/// What one group's measurement produced.
struct Measured {
    group: Group,
    /// The gated metrics, by name.
    values: Vec<(&'static str, f64)>,
    /// Whether the compared arms agreed bit for bit; `None` when the group
    /// compares no arms.
    bitwise_identical: Option<bool>,
}

/// The outcome of a gate evaluation: every line to print (PASS and FAIL
/// alike, in order) plus the counts the exit code derives from.
struct GateOutcome {
    lines: Vec<String>,
    checked: usize,
    failures: usize,
}

impl GateOutcome {
    fn pass(&mut self, line: String) {
        self.checked += 1;
        self.lines.push(format!("  PASS {line}"));
    }

    fn fail(&mut self, line: String) {
        self.failures += 1;
        self.lines.push(format!("  FAIL {line}"));
    }
}

/// Checks `measured` against `gates` on a host with `host` cores. Groups
/// are visited in table order, and a gated metric absent from its
/// measurement fails, so the gate cannot silently shrink.
fn evaluate(gates: &[Gate], measured: &[Measured], host: usize) -> GateOutcome {
    let mut outcome = GateOutcome {
        lines: Vec::new(),
        checked: 0,
        failures: 0,
    };
    let mut groups: Vec<Group> = Vec::new();
    for gate in gates {
        if !groups.contains(&gate.group) {
            groups.push(gate.group);
        }
    }
    for group in groups {
        let label = group.label();
        let measurement = measured.iter().find(|m| m.group == group);
        if measurement.and_then(|m| m.bitwise_identical) == Some(false) {
            outcome.fail(format!(
                "bitwise_identical_across_configs: the {label} arms disagreed \
                 on host_parallelism={host} — determinism before speed, fix \
                 this first"
            ));
        }
        for gate in gates.iter().filter(|g| g.group == group) {
            let (metric, config) = (gate.metric, gate.config);
            let value = measurement
                .and_then(|m| m.values.iter().find(|(name, _)| *name == metric))
                .map(|&(_, value)| value);
            let Some(value) = value else {
                outcome.fail(format!(
                    "{metric}: missing from the {label} measurement \
                     (host_parallelism={host}, {config})"
                ));
                continue;
            };
            let (ok, shown, required) = match gate.bound {
                Bound::AtLeastBaseline(baseline) => {
                    let bound = baseline * (1.0 - BASELINE_TOLERANCE);
                    let required = format!("min allowed {bound:.3}, baseline {baseline:.3}");
                    (value >= bound, format!("{value:.3}"), required)
                }
                Bound::AtMostBaseline(baseline) => {
                    let bound = baseline * (1.0 + BASELINE_TOLERANCE);
                    let required = format!("max allowed {bound:.3}, baseline {baseline:.3}");
                    (value <= bound, format!("{value:.3}"), required)
                }
                Bound::Floor(floor) => (
                    value >= floor,
                    format!("{value:.2}x"),
                    format!("the {floor:.2}x floor"),
                ),
                Bound::Ceiling(ceiling) => (
                    value <= ceiling,
                    format!("{value:.2}x"),
                    format!("the {ceiling:.2}x ceiling"),
                ),
            };
            let line =
                format!("{metric}: {shown} against {required} (host_parallelism={host}, {config})");
            if ok {
                outcome.pass(line);
            } else {
                outcome.fail(line);
            }
        }
    }
    outcome
}

/// Times `f` over `reps` repetitions and returns total nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos()
}

/// Kernel-versus-naive ratios on `s1196`, each side timed over 200 reps,
/// median of five rounds.
fn measure_head_to_head() -> Measured {
    const ITERS: usize = 10;
    const REPS: usize = 200;
    const ROUNDS: usize = 5;
    let circuit = PaperCircuit::S1196;
    let netlist = Arc::new(paper_circuit(circuit));
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), ITERS);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);

    // The head-to-heads run on the placement ten seeded iterations reach.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut placement = engine.initial_placement(&mut rng);
    let mut scratch = engine.new_scratch();
    let mut profile = ProfileReport::new();
    for _ in 0..ITERS {
        black_box(engine.iterate(
            &mut placement,
            &mut scratch,
            &mut rng,
            &mut profile,
            &[],
            &[],
        ));
    }

    // Trial scoring: the highest-degree cell, ripped up, over 48 slots.
    let evaluator = engine.evaluator().clone();
    let cell = netlist
        .cell_ids()
        .max_by_key(|&c| netlist.nets_of_cell(c).len())
        .unwrap();
    let mut ripped = placement.clone();
    ripped.remove_cell(cell);
    let slots: Vec<Slot> = (0..48)
        .map(|i| {
            let row = i % circuit.num_rows();
            Slot {
                row,
                index: (i * 7) % (ripped.row(row).len() + 1),
            }
        })
        .collect();
    let mut scorer = TrialScorer::for_evaluator(&evaluator);
    let mut cache = NetLengthCache::new();
    let goodness_lengths = evaluator.net_lengths(&placement);
    let mut goodness_buf = Vec::new();

    // One round times every side once; each ratio is the median over the
    // rounds, so one preempted timing window cannot flip the gate.
    let mut rounds: [Vec<f64>; 3] = Default::default();
    for _ in 0..ROUNDS {
        let naive_trial_ns = time_ns(REPS, || {
            for &slot in &slots {
                let pos = ripped.trial_position(cell, slot);
                black_box(evaluator.cell_cost_at(&ripped, cell, pos));
            }
        });
        let kernel_trial_ns = time_ns(REPS, || {
            scorer.prepare_cell(&evaluator, &ripped, cell);
            for &slot in &slots {
                let pos = ripped.trial_position(cell, slot);
                black_box(scorer.prepared_cost_at(pos));
            }
        });
        // Full evaluation: the kernel is forced onto its full-recompute path.
        let naive_eval_ns = time_ns(REPS, || {
            black_box(evaluator.net_lengths(&placement));
        });
        let kernel_eval_ns = time_ns(REPS, || {
            cache.invalidate();
            black_box(cache.refresh(&evaluator, &mut scorer, &placement).len());
        });
        // The per-cell goodness pass, relative to the naive full evaluation.
        let goodness_ns = time_ns(REPS, || {
            engine
                .goodness()
                .all_goodness_into(&goodness_lengths, &mut goodness_buf);
            black_box(goodness_buf.len());
        });
        let ratio = |num: u128, den: u128| num as f64 / den.max(1) as f64;
        rounds[0].push(ratio(naive_trial_ns, kernel_trial_ns));
        rounds[1].push(ratio(naive_eval_ns, kernel_eval_ns));
        rounds[2].push(ratio(goodness_ns, naive_eval_ns));
    }
    let [trial, full, goodness] = rounds.map(|mut ratios| {
        ratios.sort_by(f64::total_cmp);
        ratios[ROUNDS / 2]
    });
    Measured {
        group: Group::HeadToHead,
        values: vec![
            (TRIAL_SCORING, trial),
            (FULL_NET_LENGTHS, full),
            (GOODNESS_PASS, goodness),
        ],
        bitwise_identical: None,
    }
}

/// The extended-tier `s15850` circuit the iteration-level groups run on,
/// with a paper-default single-iteration config for it.
fn s15850() -> (Arc<vlsi_netlist::Netlist>, SimEConfig) {
    let circuit = SuiteCircuit::Extended(ExtendedCircuit::S15850);
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), 1);
    (Arc::new(circuit.generate()), config)
}

/// Best-of-`reps` wall time of `iters` SimE iterations, each rep replaying
/// the same start (`initial`, RNG seed 7), plus the bits of the
/// trajectory: every iteration's average goodness and selection size, then
/// the final µ, wirelength and power.
fn timed_run(
    engine: &SimEEngine,
    initial: &Placement,
    iters: usize,
    reps: usize,
) -> (u128, Vec<u64>) {
    let mut best_ns = u128::MAX;
    let mut bits = Vec::new();
    for _ in 0..reps {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut placement = initial.clone();
        let mut scratch = engine.new_scratch();
        let mut profile = ProfileReport::new();
        bits.clear();
        let t0 = Instant::now();
        for _ in 0..iters {
            let (avg, selected, _stats) = black_box(engine.iterate(
                &mut placement,
                &mut scratch,
                &mut rng,
                &mut profile,
                &[],
                &[],
            ));
            bits.push(avg.to_bits());
            bits.push(selected as u64);
        }
        best_ns = best_ns.min(t0.elapsed().as_nanos());
        let cost = engine.cost_with(&placement, &mut scratch);
        bits.extend([cost.mu, cost.wirelength, cost.power].map(f64::to_bits));
    }
    (best_ns, bits)
}

/// The default (bound-pruned, incremental-goodness) serial windowed
/// iteration against the legacy exhaustive arm, best of 3 reps of 2
/// iterations — the second iteration exercises the carried goodness cache.
fn measure_bound_pruning() -> Measured {
    const REPS: usize = 3;
    const ITERS: usize = 2;
    let (netlist, pruned) = s15850();
    assert!(
        pruned.allocation.bound_pruning && pruned.incremental_goodness,
        "the pruned arm must be the default engine"
    );
    let mut legacy = pruned;
    legacy.allocation.bound_pruning = false;
    legacy.incremental_goodness = false;
    let [(pruned_ns, pruned_bits), (legacy_ns, legacy_bits)] = [pruned, legacy].map(|config| {
        let engine = SimEEngine::new(Arc::clone(&netlist), config);
        let initial = engine.initial_placement(&mut ChaCha8Rng::seed_from_u64(1));
        let (ns, bits) = timed_run(&engine, &initial, ITERS, REPS);
        (ns / ITERS as u128, bits)
    });
    Measured {
        group: Group::BoundPruning,
        values: vec![(PRUNED_VS_LEGACY, legacy_ns as f64 / pruned_ns.max(1) as f64)],
        bitwise_identical: Some(pruned_bits == legacy_bits),
    }
}

/// Per-edit cost of a seeded `move_cell` mix inside a 4,096-cell row over
/// the same mix inside a 256-cell row, median of five rounds. Both
/// placements hold the same 8,192-cell circuit; every move takes a random
/// cell of the hot row and re-inserts it at a random slot of the same row,
/// so the row keeps its length.
fn measure_row_edit() -> Measured {
    const CELLS: usize = 8192;
    const SHORT: usize = 256;
    const LONG: usize = 4096;
    const EDITS: usize = 20_000;
    const ROUNDS: usize = 5;
    let netlist = vlsi_netlist::generator::CircuitGenerator::new(
        vlsi_netlist::generator::GeneratorConfig::sized("row_edit", CELLS, 1),
    )
    .generate();
    let cells: Vec<_> = netlist.cell_ids().collect();
    // The hot row 0 takes the first `hot` cells, the rest fill 256-cell rows.
    let layout = |hot: usize| {
        let rows = std::iter::once(cells[..hot].to_vec())
            .chain(cells[hot..].chunks(SHORT).map(<[_]>::to_vec))
            .collect();
        Placement::from_rows(&netlist, rows)
    };
    let mut placements = [layout(SHORT), layout(LONG)];
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let [short_ns, long_ns] = placements.each_mut().map(|p| {
            let mut rng = ChaCha8Rng::seed_from_u64(round as u64);
            let len = p.row(0).len();
            let moves: Vec<(usize, usize)> = (0..EDITS)
                .map(|_| (rng.gen_range(0..len), rng.gen_range(0..len)))
                .collect();
            time_ns(1, || {
                for &(from, to) in &moves {
                    let cell = p.row(0)[from];
                    p.move_cell(cell, Slot { row: 0, index: to });
                }
                black_box(p.row_extent(0));
            })
        });
        rounds.push(long_ns as f64 / short_ns.max(1) as f64);
    }
    rounds.sort_by(f64::total_cmp);
    Measured {
        group: Group::RowEdit,
        values: vec![(ROW_EDIT_SCALING, rounds[ROUNDS / 2])],
        bitwise_identical: None,
    }
}

fn main() {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    println!("perf guard: {} gates, host_parallelism={host}", GATES.len());
    let measured: Vec<Measured> = [Group::HeadToHead, Group::BoundPruning, Group::RowEdit]
        .map(Group::measure)
        .into();
    let outcome = evaluate(&GATES, &measured, host);
    for line in &outcome.lines {
        if line.trim_start().starts_with("FAIL") {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    if outcome.failures > 0 {
        eprintln!(
            "perf_guard: {} gate(s) failed; bounds are pinned in GATES — \
             investigate the regression before re-running",
            outcome.failures
        );
        std::process::exit(1);
    }
    println!(
        "perf guard passed: {} gate(s) within bounds",
        outcome.checked
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gates(group: Group) -> Vec<Gate> {
        GATES.into_iter().filter(|g| g.group == group).collect()
    }

    fn pruning(speedup: f64) -> Measured {
        Measured {
            group: Group::BoundPruning,
            values: vec![(PRUNED_VS_LEGACY, speedup)],
            bitwise_identical: Some(true),
        }
    }

    #[test]
    fn gate_table_is_pinned() {
        let bounds: Vec<(&str, Bound)> = GATES.iter().map(|g| (g.metric, g.bound)).collect();
        assert_eq!(
            bounds,
            [
                (TRIAL_SCORING, Bound::AtLeastBaseline(5.13)),
                (FULL_NET_LENGTHS, Bound::AtLeastBaseline(1.79)),
                (GOODNESS_PASS, Bound::AtMostBaseline(0.200)),
                (PRUNED_VS_LEGACY, Bound::Floor(1.3)),
                (ROW_EDIT_SCALING, Bound::Ceiling(ROW_EDIT_CEILING)),
            ]
        );
        assert_eq!(ROW_EDIT_CEILING, 5.0);
        assert_eq!(BASELINE_TOLERANCE, 0.25);
    }

    fn row_edit(ratio: f64) -> Measured {
        Measured {
            group: Group::RowEdit,
            values: vec![(ROW_EDIT_SCALING, ratio)],
            bitwise_identical: None,
        }
    }

    #[test]
    fn row_edit_gate_fails_when_edits_pay_for_the_row_length() {
        let ok = evaluate(&gates(Group::RowEdit), &[row_edit(1.6)], 1);
        assert_eq!((ok.failures, ok.checked), (0, 1), "{:?}", ok.lines);
        // An eager suffix re-pack: cost proportional to the row length.
        let eager = evaluate(&gates(Group::RowEdit), &[row_edit(15.8)], 2);
        assert_eq!(eager.failures, 1);
        let fail = &eager.lines[0];
        assert!(
            fail.contains("FAIL")
                && fail.contains(ROW_EDIT_SCALING)
                && fail.contains("15.80x")
                && fail.contains("5.00x ceiling"),
            "{fail}"
        );
    }

    #[test]
    fn pr7_gate_passes_on_a_fast_report() {
        let outcome = evaluate(&gates(Group::BoundPruning), &[pruning(1.65)], 8);
        assert_eq!(outcome.failures, 0);
        assert_eq!(outcome.checked, 1);
        assert!(outcome.lines.iter().all(|l| l.contains("PASS")));
    }

    #[test]
    fn pr7_gate_has_no_low_core_skip() {
        // Machine-relative A/B: a single-core host is gated like any other —
        // passing when above the floor, failing when below, never skipping.
        let fast = evaluate(&gates(Group::BoundPruning), &[pruning(1.62)], 1);
        assert_eq!(fast.failures, 0, "a 1-core host above the floor passes");
        assert_eq!(fast.checked, 1, "a 1-core host must still be checked");
        let slow = evaluate(&gates(Group::BoundPruning), &[pruning(1.04)], 1);
        assert_eq!(slow.failures, 1, "a 1-core host below the floor fails");
        assert!(
            !slow.lines.iter().any(|l| l.contains("SKIP")),
            "the pr7 gate must never skip: {:?}",
            slow.lines
        );
    }

    #[test]
    fn pr7_failure_messages_name_host_floor_and_ratio() {
        let outcome = evaluate(&gates(Group::BoundPruning), &[pruning(1.12)], 2);
        assert_eq!(outcome.failures, 1);
        let fail = outcome.lines.iter().find(|l| l.contains("FAIL")).unwrap();
        assert!(
            fail.contains(PRUNED_VS_LEGACY)
                && fail.contains("host_parallelism=2")
                && fail.contains("1.12x")
                && fail.contains("1.30x"),
            "failure must name the host and the achieved-vs-required pair: {fail}"
        );
    }

    #[test]
    fn pr7_gate_fails_on_a_bitwise_mismatch() {
        let mut measured = pruning(1.65);
        measured.bitwise_identical = Some(false);
        let outcome = evaluate(&gates(Group::BoundPruning), &[measured], 8);
        assert_eq!(outcome.failures, 1);
        let line = outcome
            .lines
            .iter()
            .find(|l| l.contains("bitwise_identical_across_configs"))
            .unwrap();
        assert!(
            line.contains("FAIL") && line.contains("determinism"),
            "{line}"
        );
    }

    #[test]
    fn pr7_gate_fails_on_a_missing_headline() {
        let mut measured = pruning(1.65);
        measured.values.clear();
        let outcome = evaluate(&gates(Group::BoundPruning), &[measured], 4);
        assert_eq!(outcome.failures, 1, "a shrunken measurement must not pass");
        assert!(outcome.lines[0].contains("missing"), "{:?}", outcome.lines);
        // An unmeasured group fails the same way.
        let outcome = evaluate(&gates(Group::BoundPruning), &[], 4);
        assert_eq!(outcome.failures, 1);
    }

    #[test]
    fn baseline_gate_messages_show_bound_and_baseline() {
        let table = [
            Gate {
                bound: Bound::AtLeastBaseline(6.0),
                ..GATES[0]
            },
            Gate {
                bound: Bound::AtLeastBaseline(2.0),
                ..GATES[1]
            },
            Gate {
                bound: Bound::AtMostBaseline(0.5),
                ..GATES[2]
            },
        ];
        let measured = Measured {
            group: Group::HeadToHead,
            values: vec![
                (TRIAL_SCORING, 4.0),
                (FULL_NET_LENGTHS, 1.9),
                (GOODNESS_PASS, 0.52),
            ],
            bitwise_identical: None,
        };
        let outcome = evaluate(&table, &[measured], 2);
        assert_eq!(outcome.failures, 1, "only trial scoring fell past 25 %");
        assert_eq!(outcome.checked, 2);
        let fail = outcome.lines.iter().find(|l| l.contains("FAIL")).unwrap();
        assert!(
            fail.contains("trial_scoring_48slots")
                && fail.contains("4.000")
                && fail.contains("4.500")
                && fail.contains("baseline 6.000"),
            "failure must show current, bound and baseline: {fail}"
        );
    }
}
