//! Property-based tests for the placement model and cost functions.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
use vlsi_netlist::Netlist;
use vlsi_place::prelude::*;
use vlsi_place::wirelength::{hpwl, single_trunk_steiner};
use vlsi_place::FuzzyConfig;

fn arb_netlist() -> impl Strategy<Value = (Arc<Netlist>, u64)> {
    (80usize..260, any::<u64>()).prop_map(|(cells, seed)| {
        let cfg = GeneratorConfig::sized(format!("prop_{seed}"), cells, seed);
        (Arc::new(CircuitGenerator::new(cfg).generate()), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random placements are always legal and survive a random sequence of
    /// remove/insert/move/swap operations.
    #[test]
    fn placement_operations_preserve_legality(
        (netlist, seed) in arb_netlist(),
        rows in 4usize..12,
        ops in prop::collection::vec((0u8..4, any::<u64>()), 1..60),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut p = Placement::random(&netlist, rows, &mut rng);
        p.validate(&netlist).unwrap();
        let n = netlist.num_cells();
        for (op, r) in ops {
            let cell = vlsi_netlist::CellId::from((r as usize) % n);
            let row = (r as usize / n) % rows;
            let index = (r as usize / n / rows) % (p.row(row).len() + 1);
            match op {
                0 => {
                    let slot = p.remove_cell(cell);
                    p.insert_cell(cell, slot);
                }
                1 => p.move_cell(cell, Slot { row, index }),
                2 => {
                    let other = vlsi_netlist::CellId::from((r as usize / 7) % n);
                    p.swap_cells(cell, other);
                }
                _ => {
                    let slot = p.remove_cell(cell);
                    p.insert_cell(cell, Slot { row: slot.row, index: index.min(p.row(slot.row).len()) });
                }
            }
            p.validate(&netlist).unwrap();
        }
        // Total width is invariant under all operations.
        let total: u64 = (0..rows).map(|r| p.row_width(r)).sum();
        let expected: u64 = netlist.cells().iter().map(|c| c.width as u64).sum();
        prop_assert_eq!(total, expected);
    }

    /// The Steiner estimate is always at least the horizontal span and at
    /// least half the HPWL, and both estimators are translation invariant.
    #[test]
    fn wirelength_estimator_invariants(
        pins in prop::collection::vec((0.0f64..500.0, 0.0f64..200.0), 2..12),
        dx in -100.0f64..100.0,
        dy in -100.0f64..100.0,
    ) {
        let st = single_trunk_steiner(&pins);
        let hp = hpwl(&pins);
        prop_assert!(st >= 0.0 && hp >= 0.0);
        prop_assert!(st + 1e-9 >= hp / 2.0);
        // A tree connecting all pins can never be shorter than the bounding
        // box half-perimeter divided by 2; in fact single-trunk >= max span.
        let span_x = pins.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max)
            - pins.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        prop_assert!(st + 1e-9 >= span_x);
        let shifted: Vec<_> = pins.iter().map(|&(x, y)| (x + dx, y + dy)).collect();
        prop_assert!((single_trunk_steiner(&shifted) - st).abs() < 1e-6);
        prop_assert!((hpwl(&shifted) - hp).abs() < 1e-6);
    }

    /// Cost evaluation produces finite, bound-respecting values and a quality
    /// measure in [0, 1] for arbitrary circuits and placements.
    #[test]
    fn evaluation_respects_bounds((netlist, seed) in arb_netlist(), rows in 4usize..12) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let placement = Placement::random(&netlist, rows, &mut rng);
        for objectives in [Objectives::WirelengthPower, Objectives::WirelengthPowerDelay] {
            let eval = CostEvaluator::new(Arc::clone(&netlist), objectives);
            let b = eval.evaluate(&placement);
            prop_assert!(b.wirelength.is_finite() && b.wirelength >= 0.0);
            prop_assert!(b.power >= 0.0 && b.power <= b.wirelength + 1e-9);
            prop_assert!(b.wirelength + 1e-9 >= eval.bounds().wirelength_lower);
            prop_assert!((0.0..=1.0).contains(&b.mu));
            if objectives.includes_delay() && !eval.paths().is_empty() {
                prop_assert!(b.delay + 1e-9 >= eval.bounds().delay_lower);
            }
        }
    }

    /// Per-cell goodness is always within [0, 1] and the average goodness of
    /// an ideal (lower-bound) length vector is 1.
    #[test]
    fn goodness_is_bounded((netlist, seed) in arb_netlist(), rows in 4usize..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1234);
        let placement = Placement::random(&netlist, rows, &mut rng);
        let eval = CostEvaluator::new(Arc::clone(&netlist), Objectives::WirelengthPowerDelay);
        let ge = GoodnessEvaluator::new(eval);
        let all = ge.all_goodness(&placement);
        prop_assert_eq!(all.len(), netlist.num_cells());
        for &g in &all {
            prop_assert!((0.0..=1.0).contains(&g));
        }
        let ideal = ge.evaluator().bounds().net_lower.clone();
        let ideal_goodness = ge.all_goodness_from_lengths(&ideal);
        for &g in &ideal_goodness {
            prop_assert!(g > 0.99, "goodness at the lower bound must be ~1, got {g}");
        }
    }

    /// Fuzzy membership is monotone non-increasing in cost and the aggregate
    /// never exceeds the best individual membership by more than the mean
    /// component allows.
    #[test]
    fn fuzzy_membership_monotone(lb in 1.0f64..1000.0, goal in 1.1f64..4.0, steps in 2usize..40) {
        let mut last = 1.0;
        for i in 0..steps {
            let cost = lb * (1.0 + i as f64 * 0.2);
            let m = FuzzyConfig::membership(cost, lb, goal);
            prop_assert!(m <= last + 1e-12);
            prop_assert!((0.0..=1.0).contains(&m));
            last = m;
        }
    }

    /// Trial positions predicted by the layout agree with actually performing
    /// the insertion, for arbitrary target slots.
    #[test]
    fn trial_position_is_exact((netlist, seed) in arb_netlist(), rows in 3usize..9, pick in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFEED);
        let mut p = Placement::random(&netlist, rows, &mut rng);
        let cell = vlsi_netlist::CellId::from((pick as usize) % netlist.num_cells());
        p.remove_cell(cell);
        let row = (pick as usize / 3) % rows;
        let index = (pick as usize / 17) % (p.row(row).len() + 1);
        let slot = Slot { row, index };
        let predicted = p.trial_position(cell, slot);
        p.insert_cell(cell, slot);
        let actual = p.position(cell);
        prop_assert!((predicted.0 - actual.0).abs() < 1e-9);
        prop_assert!((predicted.1 - actual.1).abs() < 1e-9);
        p.validate(&netlist).unwrap();
    }
}

/// Differential harness for blocked row packing: drives a placement through
/// seeded edits and, after every step, compares it bit for bit against
/// `Placement::from_rows` of the same row lists, checks that ripped-up cells
/// keep their coordinates, and that exactly the mutated rows' epochs moved.
mod blocked_packing {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig, MixedSizeSpec};
    use vlsi_netlist::{CellId, Netlist};
    use vlsi_place::layout::{Placement, PlacementError, Slot};

    struct Harness<'a> {
        nl: &'a Netlist,
        p: Placement,
        /// Ripped-up cells and their x at removal.
        ripped: Vec<(CellId, f64)>,
        rng: ChaCha8Rng,
    }

    impl<'a> Harness<'a> {
        fn new(nl: &'a Netlist, rows: usize, seed: u64) -> Self {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p = Placement::random(nl, rows, &mut rng);
            let h = Harness {
                nl,
                p,
                ripped: Vec::new(),
                rng,
            };
            h.check(&h.epochs(), &[]);
            h
        }

        fn epochs(&self) -> Vec<u64> {
            (0..self.p.num_rows())
                .map(|r| self.p.row_epoch(r))
                .collect()
        }

        fn placed_cell(&mut self) -> CellId {
            loop {
                let c = CellId::from(self.rng.gen_range(0..self.nl.num_cells()));
                if !self.p.is_fixed(c) && !self.ripped.iter().any(|&(r, _)| r == c) {
                    return c;
                }
            }
        }

        fn slot_in(&mut self, row: usize) -> Slot {
            let index = self.rng.gen_range(0..self.p.slots_in_row(row));
            Slot { row, index }
        }

        fn random_slot(&mut self) -> Slot {
            let row = self.rng.gen_range(0..self.p.num_rows());
            self.slot_in(row)
        }

        /// Runs `edit`, then checks the result; `edit` returns the rows it
        /// mutated.
        fn step(&mut self, edit: impl FnOnce(&mut Self) -> Vec<usize>) {
            let before = self.epochs();
            let mutated = edit(self);
            self.check(&before, &mutated);
        }

        fn rip(&mut self, cell: CellId) -> Vec<usize> {
            let x = self.p.x_of(cell);
            let slot = self.p.remove_cell(cell);
            self.ripped.push((cell, x));
            vec![slot.row]
        }

        fn reinsert(&mut self, pick: usize, slot: Slot) -> Vec<usize> {
            let (cell, _) = self.ripped.swap_remove(pick);
            self.p.insert_cell(cell, slot);
            vec![slot.row]
        }

        fn move_to(&mut self, cell: CellId, slot: Slot) -> Vec<usize> {
            let from = self.p.row_of(cell);
            self.p.move_cell(cell, slot);
            vec![from, slot.row]
        }

        fn swap(&mut self, a: CellId, b: CellId) -> Vec<usize> {
            let rows = vec![self.p.row_of(a), self.p.row_of(b)];
            self.p.swap_cells(a, b);
            if a == b {
                Vec::new()
            } else {
                rows
            }
        }

        /// One random edit: rip-up, re-insert, move or swap.
        fn random_edit(&mut self) {
            match self.rng.gen_range(0..4) {
                0 => self.step(|h| {
                    let c = h.placed_cell();
                    h.rip(c)
                }),
                1 if !self.ripped.is_empty() => self.step(|h| {
                    let pick = h.rng.gen_range(0..h.ripped.len());
                    let slot = h.random_slot();
                    h.reinsert(pick, slot)
                }),
                2 => self.step(|h| {
                    let c = h.placed_cell();
                    let slot = h.random_slot();
                    h.move_to(c, slot)
                }),
                _ => self.step(|h| {
                    let a = h.placed_cell();
                    let b = h.placed_cell();
                    h.swap(a, b)
                }),
            }
        }

        fn check(&self, before: &[u64], mutated: &[usize]) {
            let (nl, p) = (self.nl, &self.p);
            let rows: Vec<Vec<CellId>> = (0..p.num_rows()).map(|r| p.row(r).to_vec()).collect();
            let q = Placement::from_rows(nl, rows);
            for (r, &epoch_before) in before.iter().enumerate() {
                assert_eq!(p.row_width(r), q.row_width(r), "row {r} width");
                assert_eq!(
                    p.row_extent(r).to_bits(),
                    q.row_extent(r).to_bits(),
                    "row {r} extent"
                );
                for (i, &c) in p.row(r).iter().enumerate() {
                    assert_eq!(p.index_in_row(c), i, "cell {c} ordinal");
                    assert_eq!(p.x_of(c).to_bits(), q.x_of(c).to_bits(), "cell {c} x");
                    let (pp, qp) = (p.position(c), q.position(c));
                    assert_eq!(pp.0.to_bits(), qp.0.to_bits());
                    assert_eq!(pp.1.to_bits(), qp.1.to_bits());
                }
                let advanced = p.row_epoch(r) > epoch_before;
                assert_eq!(
                    advanced,
                    mutated.contains(&r),
                    "row {r} epoch advanced = {advanced}, mutated rows {mutated:?}"
                );
            }
            for c in nl.cell_ids().filter(|&c| p.is_fixed(c)) {
                assert_eq!(p.position(c), q.position(c), "fixed cell {c}");
            }
            for &(c, x) in &self.ripped {
                assert_eq!(p.x_of(c).to_bits(), x.to_bits(), "ripped-up cell {c} moved");
            }
            match (p.validate(nl), self.ripped.first()) {
                (Ok(()), None) => {}
                (Err(PlacementError::MissingCell(c)), Some(_)) => {
                    assert!(self.ripped.iter().any(|&(r, _)| r == c))
                }
                (other, _) => panic!("validate: {other:?} with {} ripped", self.ripped.len()),
            }
        }
    }

    fn gap_free(cells: usize, seed: u64) -> Netlist {
        CircuitGenerator::new(GeneratorConfig::sized(
            format!("blocked_{seed}"),
            cells,
            seed,
        ))
        .generate()
    }

    #[test]
    fn random_edits_match_a_from_scratch_repack() {
        for seed in 0..4 {
            let nl = gap_free(400 + 150 * seed as usize, seed);
            // Few rows, so rows span several blocks from the start.
            let mut h = Harness::new(&nl, 3, seed);
            for _ in 0..400 {
                h.random_edit();
            }
        }
    }

    #[test]
    fn random_edits_match_on_rows_with_blocked_spans() {
        let cfg = GeneratorConfig::sized("blocked_mixed", 600, 11).with_mixed(MixedSizeSpec {
            num_macros: 4,
            macro_height: 2,
            pad_ring: true,
        });
        let nl = CircuitGenerator::new(cfg).generate();
        let mut h = Harness::new(&nl, 5, 11);
        assert!((0..5).any(|r| !h.p.blocked_spans(r).is_empty()));
        for _ in 0..500 {
            h.random_edit();
        }
    }

    #[test]
    fn a_row_grown_past_the_split_threshold_and_drained_stays_exact() {
        let nl = gap_free(2400, 5);
        let mut h = Harness::new(&nl, 6, 5);
        // Push row 0 past 2,000 cells, with a random edit every few steps.
        let mut step = 0;
        while h.p.row(0).len() <= 2000 {
            step += 1;
            if step % 5 == 0 {
                h.random_edit();
                continue;
            }
            h.step(|h| {
                let row = h.rng.gen_range(1..h.p.num_rows());
                if h.p.row(row).is_empty() {
                    return Vec::new();
                }
                let cell = h.p.row(row)[h.rng.gen_range(0..h.p.row(row).len())];
                let slot = h.slot_in(0);
                h.move_to(cell, slot)
            });
        }
        // Drain it: rip cells out of row 0 — from the front, the back and
        // random slots, so blocks at either end empty out — leaving them out
        // for a while before re-inserting them elsewhere.
        let mut step = 0;
        while !h.p.row(0).is_empty() {
            step += 1;
            h.step(|h| {
                let len = h.p.row(0).len();
                let index = match step % 3 {
                    0 => 0,
                    1 => len - 1,
                    _ => h.rng.gen_range(0..len),
                };
                let cell = h.p.row(0)[index];
                h.rip(cell)
            });
            if h.ripped.len() > 8 {
                h.step(|h| {
                    let row = h.rng.gen_range(1..h.p.num_rows());
                    let slot = h.slot_in(row);
                    h.reinsert(0, slot)
                });
            }
        }
        // Refill the empty row through its (now sole) block.
        for _ in 0..200 {
            h.random_edit();
        }
    }

    #[test]
    fn clones_edit_independently_and_stay_exact() {
        let nl = gap_free(900, 21);
        let mut h = Harness::new(&nl, 2, 21);
        for round in 0..6 {
            for _ in 0..40 {
                h.random_edit();
            }
            let original = h.p.clone();
            assert_ne!(original.uid(), h.p.uid());
            let xs: Vec<u64> = nl.cell_ids().map(|c| original.x_of(c).to_bits()).collect();
            // Keep editing the clone (the old object stays untouched), and
            // continue from the clone in the next round.
            h.p = if round % 2 == 0 {
                original.clone()
            } else {
                h.p
            };
            for _ in 0..40 {
                h.random_edit();
            }
            let after: Vec<u64> = nl.cell_ids().map(|c| original.x_of(c).to_bits()).collect();
            assert_eq!(xs, after, "editing a clone moved the original");
        }
    }
}
