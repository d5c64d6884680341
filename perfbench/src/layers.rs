//! The traced run's per-layer probes: calls into each crate's public
//! functions, timed from the benchmark's own code on the workload's own
//! circuits, jobs and mid-run placement snapshots. Layer names are the
//! workspace crate names.

use crate::stats::{median, percentile, JobEnd, Report, Tally};
use crate::traffic::{check_outcome, service_config, timed_run, Traffic};
use crate::workloads::{submit_line, Workload, S15850_ITERATIONS, WORKERS};
use cluster_sim::comm::WorkerPool;
use metaheuristics::{GaConfig, GaIsland, Optimizer, SaConfig, SaIsland, TabuConfig, TabuIsland};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::allocation::allocate_all_on;
use sime_core::{select, AllocScratch, EvalContext, Phase, ProfileReport, SimEEngine};
use sime_parallel::batch::{StrategyKind, TrajectoryFingerprint};
use sime_parallel::{JobRunner, JobSpec, Modeled};
use sime_server::{Event, Request, Server, Session};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vlsi_netlist::bench_suite::SuiteCircuit;
use vlsi_netlist::CellId;
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::{Placement, Slot};

/// Every strategy label, for `sime-parallel.run_ms.<label>`.
pub const STRATEGY_LABELS: [&str; 6] = [
    "type1",
    "type2_fixed",
    "type2_random",
    "type3",
    "portfolio_mixed",
    "portfolio_baselines",
];

/// Jobs the s15850 workloads push through an in-process server to measure
/// the server layer (enough for a median with ten samples beyond it).
const SERVER_PROBE_JOBS: usize = 20;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` `reps` times and returns the median, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&times).expect("reps > 0")
}

/// Median over `batches` of the mean time of one of `per_batch` calls, in
/// microseconds: for calls too short to time one by one.
fn batched_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&times).expect("batches > 0")
}

/// Runs every probe for `workload` and records the per-layer metrics.
pub fn probe(
    workload: Workload,
    seed: u64,
    list: &[JobSpec],
    runner: &JobRunner,
    traffic: &Traffic,
    report: &mut Report,
    tally: &mut Tally,
) {
    netlist_layer(workload, report);
    let replay_jobs = replay_jobs(list);
    core_and_place_layers(runner, &replay_jobs, seed, report, tally);
    cluster_layer(traffic, report);
    parallel_layer(workload, runner, list, traffic, report, tally);
    metaheuristics_layer(workload, runner, seed, report);
    server_layer(workload, list, traffic, report, tally);
    report.push(
        "trace.jobs_per_s",
        traffic.jobs_done as f64 / traffic.wall_s,
        "1/s",
        traffic.jobs_done,
    );
    // Windowed as in the untraced run, so the two compare.
    report.push_windowed_percentile(
        "trace.job_latency_p50_ms",
        &traffic.latency_ms,
        50.0,
        list.len(),
        "ms",
    );
    report.push(
        "trace.iters_per_s",
        traffic.iterations_done as f64 / traffic.wall_s,
        "1/s",
        traffic.iterations_done,
    );
}

/// `vlsi-netlist`: generation and content digest of the workload's
/// circuits (summed over circuits, median of three).
fn netlist_layer(workload: Workload, report: &mut Report) {
    let circuits: Vec<SuiteCircuit> = workload
        .circuits()
        .iter()
        .map(|c| SuiteCircuit::from_name(c).expect("suite circuit"))
        .collect();
    let netlists: Vec<_> = circuits.iter().map(|c| c.generate()).collect();
    let generate = median_ms(3, || {
        for c in &circuits {
            black_box(c.generate());
        }
    });
    let digest = median_ms(3, || {
        for n in &netlists {
            black_box(sime_parallel::jobs::bookshelf_digest(n));
        }
    });
    report.push("vlsi-netlist.generate_ms", generate, "ms", 3);
    report.push("vlsi-netlist.digest_ms", digest, "ms", 3);
}

/// The jobs the engine replay runs: the first job of each circuit in the
/// list (one on s15850, six on the service mix).
fn replay_jobs(list: &[JobSpec]) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    for job in list {
        if !jobs
            .iter()
            .any(|j| j.scenario.circuit == job.scenario.circuit)
        {
            jobs.push(job.clone());
        }
    }
    jobs
}

/// What one engine replay measured.
#[derive(Default)]
struct Replay {
    iterate_ms: Vec<f64>,
    profile: ProfileReport,
    selected: usize,
    movable: usize,
    moved: usize,
    cells_allocated: usize,
    trial_positions: usize,
    goodness_recomputes: u64,
}

/// `sime-core` and `vlsi-place`: replays each job's circuit through
/// `SimEEngine::iterate_on` with a caller-owned `ProfileReport` (chunked
/// over a two-worker pool when the job asks for intra-rank chunks), then
/// times kernel calls on the placement snapshot taken halfway through.
fn core_and_place_layers(
    runner: &JobRunner,
    jobs: &[JobSpec],
    seed: u64,
    report: &mut Report,
    tally: &mut Tally,
) {
    let pool = WorkerPool::new(WORKERS);
    let mut total = Replay::default();
    let mut kernel = KernelProbe::default();
    for job in jobs {
        let s = &job.scenario;
        let engine = runner
            .engine_for(&s.circuit, s.objectives, job.seed)
            .expect("workload circuits resolve");
        let ctx = EvalContext::from_pool(Some(&pool), s.eval_chunks);
        let iterations = s.iterations.min(S15850_ITERATIONS);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut placement = engine.initial_placement(&mut rng);
        let mut scratch = engine.new_scratch();
        let netlist = engine.evaluator().netlist();
        total.movable += iterations * netlist.cells().iter().filter(|c| !c.fixed).count();
        let mut snapshot = None;
        for i in 0..iterations {
            let before: Vec<(f64, f64)> =
                netlist.cell_ids().map(|c| placement.position(c)).collect();
            let t = Instant::now();
            let (_avg, selected, stats) = engine.iterate_on(
                &mut placement,
                &mut scratch,
                &mut rng,
                &mut total.profile,
                &[],
                &[],
                &ctx,
            );
            total.iterate_ms.push(ms(t.elapsed()));
            total.selected += selected;
            total.moved += netlist
                .cell_ids()
                .zip(&before)
                .filter(|&(c, &p)| placement.position(c) != p)
                .count();
            total.cells_allocated += stats.cells_allocated;
            total.trial_positions += stats.trial_positions;
            if i + 1 == iterations.div_ceil(2) {
                snapshot = Some((placement.clone(), rng.clone()));
            }
        }
        total.goodness_recomputes += scratch.goodness_delta_recomputes();
        let (snap, snap_rng) = snapshot.expect("at least one iteration");
        kernel.run(
            &engine,
            &snap,
            &snap_rng,
            &pool,
            s.eval_chunks.max(2),
            tally,
        );
    }
    let iters = total.iterate_ms.len() as f64;
    let p = &total.profile;
    let phase_ms = |phases: &[Phase]| phases.iter().map(|&ph| ms(p.time(ph))).sum::<f64>() / iters;
    let n = total.iterate_ms.len();
    report.push(
        "sime-core.iterate_ms",
        total.iterate_ms.iter().sum::<f64>() / iters,
        "ms",
        n,
    );
    report.push(
        "sime-core.evaluation_ms",
        phase_ms(&[
            Phase::CostCalculation,
            Phase::GoodnessEvaluation,
            Phase::DelayCalculation,
        ]),
        "ms",
        n,
    );
    report.push(
        "sime-core.selection_ms",
        phase_ms(&[Phase::Selection]),
        "ms",
        n,
    );
    report.push(
        "sime-core.allocation_ms",
        phase_ms(&[Phase::Allocation]),
        "ms",
        n,
    );
    report.push(
        "sime-core.allocation_share",
        p.time_fraction(Phase::Allocation),
        "ratio",
        n,
    );
    report.push(
        "sime-core.selected_frac",
        total.selected as f64 / total.movable as f64,
        "ratio",
        n,
    );
    report.push(
        "sime-core.moved_frac",
        total.moved as f64 / total.cells_allocated.max(1) as f64,
        "ratio",
        n,
    );
    report.push(
        "sime-core.trial_positions_per_cell",
        total.trial_positions as f64 / total.cells_allocated.max(1) as f64,
        "count",
        n,
    );
    report.push(
        "sime-core.net_evals_per_iter",
        p.total_net_evals() as f64 / iters,
        "count",
        n,
    );
    report.push(
        "sime-core.goodness_recomputes_per_iter",
        total.goodness_recomputes as f64 / iters,
        "count",
        n,
    );
    kernel.report(report);
}

/// Kernel timings on mid-run snapshots, accumulated over the replayed jobs.
#[derive(Default)]
struct KernelProbe {
    prepare_us: Vec<f64>,
    score_ns: Vec<f64>,
    refresh_us: Vec<f64>,
    nets_recomputed: Vec<f64>,
    goodness_ms: Vec<f64>,
    alloc_serial_ms: Vec<f64>,
    alloc_chunked_ms: Vec<f64>,
}

impl KernelProbe {
    fn run(
        &mut self,
        engine: &SimEEngine,
        snap: &Placement,
        snap_rng: &ChaCha8Rng,
        pool: &WorkerPool,
        chunks: usize,
        tally: &mut Tally,
    ) {
        let ev = engine.evaluator();
        let netlist = ev.netlist();
        let cells: Vec<CellId> = netlist
            .cell_ids()
            .filter(|&c| !netlist.cell(c).fixed)
            .collect();
        let sample: Vec<CellId> = cells
            .iter()
            .step_by((cells.len() / 128).max(1))
            .copied()
            .collect();

        // prepare_cell: summary pass over a cell's nets.
        let mut scorer = TrialScorer::for_evaluator(ev);
        let per_call = median_ms(21, || {
            for &c in &sample {
                scorer.prepare_cell(ev, snap, c);
            }
        }) * 1e3
            / sample.len() as f64;
        self.prepare_us.push(per_call);

        // prepared_cost_at: every slot of the cell's own row.
        let mut total_ns = 0.0;
        let mut calls = 0usize;
        for &c in sample.iter().take(32) {
            scorer.prepare_cell(ev, snap, c);
            let row = snap.row_of(c);
            let positions: Vec<(f64, f64)> = (0..snap.slots_in_row(row))
                .map(|index| snap.trial_position(c, Slot { row, index }))
                .collect();
            let t = Instant::now();
            for &pos in &positions {
                black_box(scorer.prepared_cost_at(black_box(pos)));
            }
            total_ns += t.elapsed().as_secs_f64() * 1e9;
            calls += positions.len();
        }
        self.score_ns.push(total_ns / calls.max(1) as f64);

        // NetLengthCache::refresh: the delta after one more iteration.
        let mut placement = snap.clone();
        let mut cache = NetLengthCache::new();
        cache.refresh(ev, &mut scorer, &placement);
        let mut rng = snap_rng.clone();
        let mut scratch = engine.new_scratch();
        let mut profile = ProfileReport::new();
        engine.iterate(
            &mut placement,
            &mut scratch,
            &mut rng,
            &mut profile,
            &[],
            &[],
        );
        let before = cache.nets_recomputed();
        let t = Instant::now();
        cache.refresh(ev, &mut scorer, &placement);
        self.refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.nets_recomputed
            .push((cache.nets_recomputed() - before) as f64);

        // GoodnessEvaluator::all_goodness_into on the snapshot's lengths.
        let mut snap_cache = NetLengthCache::new();
        let lengths = snap_cache.refresh(ev, &mut scorer, snap).to_vec();
        let mut goodness = Vec::new();
        self.goodness_ms.push(median_ms(5, || {
            engine
                .goodness()
                .all_goodness_into(black_box(&lengths), &mut goodness);
        }));

        // allocate_all_on from one snapshot: serial vs chunked over the pool.
        let mut rng = snap_rng.clone();
        // Fixed cells never enter a selection (the engine masks them too).
        let frozen: Vec<bool> = if netlist.has_fixed_cells() {
            netlist.cells().iter().map(|c| c.fixed).collect()
        } else {
            Vec::new()
        };
        let selected = select(&goodness, engine.config().selection, &mut rng, &frozen);
        let mut results: Vec<Option<Placement>> = vec![None, None];
        let mut times = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            for (mode, ctx) in [EvalContext::serial(), EvalContext::chunked(pool, chunks)]
                .into_iter()
                .enumerate()
            {
                let mut p = snap.clone();
                let mut sel = selected.clone();
                let mut r = rng.clone();
                let mut alloc = AllocScratch::for_evaluator(ev);
                let t = Instant::now();
                allocate_all_on(
                    ev,
                    &mut alloc,
                    &mut p,
                    &mut sel,
                    &goodness,
                    &engine.config().allocation,
                    &[],
                    &mut r,
                    &ctx,
                );
                times[mode].push(ms(t.elapsed()));
                results[mode] = Some(p);
            }
        }
        let rows = |p: &Placement| {
            (0..p.num_rows())
                .map(|r| p.row(r).to_vec())
                .collect::<Vec<_>>()
        };
        let identical =
            rows(results[0].as_ref().expect("ran")) == rows(results[1].as_ref().expect("ran"));
        if !identical {
            tally.record(
                &format!("{} allocation", netlist.name()),
                JobEnd::CheckFailed("chunked allocation differs from serial".into()),
            );
        }
        self.alloc_serial_ms.push(median(&times[0]).expect("ran"));
        self.alloc_chunked_ms.push(median(&times[1]).expect("ran"));
    }

    fn report(&self, report: &mut Report) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let n = self.prepare_us.len();
        report.push(
            "vlsi-place.prepare_cell_us",
            mean(&self.prepare_us),
            "us",
            n,
        );
        report.push("vlsi-place.trial_score_ns", mean(&self.score_ns), "ns", n);
        report.push("vlsi-place.refresh_us", mean(&self.refresh_us), "us", n);
        report.push(
            "vlsi-place.nets_recomputed",
            mean(&self.nets_recomputed),
            "count",
            n,
        );
        report.push(
            "vlsi-place.goodness_pass_ms",
            mean(&self.goodness_ms),
            "ms",
            n,
        );
        let serial: f64 = self.alloc_serial_ms.iter().sum();
        let chunked: f64 = self.alloc_chunked_ms.iter().sum();
        report.push(
            "sime-core.alloc_serial_ms",
            mean(&self.alloc_serial_ms),
            "ms",
            n,
        );
        report.push(
            "sime-core.alloc_chunked_ms",
            mean(&self.alloc_chunked_ms),
            "ms",
            n,
        );
        report.push(
            "sime-core.alloc_chunked_speedup",
            serial / chunked,
            "ratio",
            n,
        );
    }
}

/// `cluster-sim`: empty epochs on a two-worker pool, and the modeled
/// cluster's traffic per iteration of the workload's jobs.
fn cluster_layer(traffic: &Traffic, report: &mut Report) {
    let pool = WorkerPool::new(WORKERS);
    for (name, tasks) in [
        ("cluster-sim.run_tasks_us", 2),
        ("cluster-sim.run_tasks_us.4", 4),
    ] {
        let us = batched_us(21, 200, || {
            let batch: Vec<Box<dyn FnOnce() + Send>> = (0..tasks)
                .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
                .collect();
            black_box(pool.run_tasks(batch));
        });
        report.push(name, us, "us", 21);
    }
    let local = [1u64, 2];
    let us = batched_us(21, 200, || {
        let batch: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = local
            .iter()
            .map(|x| Box::new(move || *x) as Box<dyn FnOnce() -> u64 + Send + '_>)
            .collect();
        black_box(pool.run_scoped_tasks(batch));
    });
    report.push("cluster-sim.scoped_tasks_us", us, "us", 21);
    let iterations: usize = traffic.pass.iter().map(|p| p.iterations).sum();
    let msgs: u64 = traffic.pass.iter().map(|p| p.comm.0).sum();
    let bytes: u64 = traffic.pass.iter().map(|p| p.comm.1).sum();
    let n = traffic.pass.len();
    report.push(
        "cluster-sim.comm_msgs_per_iter",
        msgs as f64 / iterations as f64,
        "count",
        n,
    );
    report.push(
        "cluster-sim.comm_bytes_per_iter",
        bytes as f64 / iterations as f64,
        "bytes",
        n,
    );
}

/// The job a probe of `label` runs on an s15850 workload: the workload's
/// own job with the strategy swapped and the ranks at a valid count.
fn strategy_probe_job(base: &JobSpec, label: &str) -> JobSpec {
    let mut job = base.clone();
    let strategy = StrategyKind::from_label(label).expect("known label");
    job.scenario.strategy = strategy;
    job.scenario.ranks = match strategy {
        StrategyKind::Type2(_) => 4,
        other => other.min_ranks(),
    };
    job
}

/// `sime-parallel`: `run_job` wall per strategy, time outside iterations,
/// threaded against modeled, the runner's cache counters and the cost of a
/// fingerprint.
fn parallel_layer(
    workload: Workload,
    runner: &JobRunner,
    list: &[JobSpec],
    traffic: &Traffic,
    report: &mut Report,
    tally: &mut Tally,
) {
    let mut walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (label, run) in &traffic.runs {
        walls.entry(label.clone()).or_default().push(run.wall_ms);
    }
    // s15850 runs only its own strategy in the traffic; the others run once
    // here on the same circuit, seed and iteration budget.
    for label in STRATEGY_LABELS {
        if walls.contains_key(label) {
            continue;
        }
        let job = strategy_probe_job(&list[0], label);
        let (result, timed) = timed_run(runner, &job, &Workload::backend(&job));
        match result.and_then(|out| check_outcome(runner, &out)) {
            Ok(()) => walls
                .entry(label.to_string())
                .or_default()
                .push(timed.wall_ms),
            Err(e) => tally.record(&format!("{label} probe"), JobEnd::CheckFailed(e)),
        }
    }
    for label in STRATEGY_LABELS {
        let v = walls.get(label).cloned().unwrap_or_default();
        if let Some(m) = median(&v) {
            report.push(&format!("sime-parallel.run_ms.{label}"), m, "ms", v.len());
        }
    }
    let outside: f64 = traffic.runs.iter().map(|(_, r)| r.outside_gaps_ms()).sum();
    let wall: f64 = traffic.runs.iter().map(|(_, r)| r.wall_ms).sum();
    report.push(
        "sime-parallel.loop_overhead_frac",
        outside / wall,
        "ratio",
        traffic.runs.len(),
    );

    // Threaded (the workload's backend) against Modeled on the same jobs,
    // alternating, best of two passes each.
    let jobs: Vec<&JobSpec> = match workload {
        Workload::ServiceMix => list.iter().collect(),
        _ => vec![&list[0]],
    };
    let pass = |modeled: bool| -> f64 {
        jobs.iter()
            .map(|job| {
                let (result, timed) = if modeled {
                    timed_run(runner, job, &Modeled)
                } else {
                    timed_run(runner, job, &Workload::backend(job))
                };
                result.expect("validated job runs");
                timed.wall_ms
            })
            .sum()
    };
    let mut threaded = Vec::new();
    let mut modeled = Vec::new();
    for _ in 0..2 {
        threaded.push(pass(false));
        modeled.push(pass(true));
    }
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    report.push(
        "sime-parallel.threaded_vs_modeled",
        best(&modeled) / best(&threaded),
        "ratio",
        2,
    );

    let stats = traffic.runner_stats;
    report.push(
        "sime-parallel.engine_hits",
        stats.engine_hits as f64,
        "count",
        1,
    );
    report.push(
        "sime-parallel.engines_reseeded",
        stats.engines_reseeded as f64,
        "count",
        1,
    );
    report.push(
        "sime-parallel.engines_cached",
        stats.engines as f64,
        "count",
        1,
    );
    let outcome = &traffic
        .sample_outcome
        .as_ref()
        .expect("a job finished")
        .outcome;
    let us = batched_us(11, 50, || {
        black_box(TrajectoryFingerprint::from_outcome(black_box(outcome)));
    });
    report.push("sime-parallel.fingerprint_us", us, "us", 11);
}

/// `metaheuristics`: one `Optimizer::step` of each island kind, configured
/// as the portfolio configures its islands, on the workload's largest
/// circuit without fixed cells.
fn metaheuristics_layer(workload: Workload, runner: &JobRunner, seed: u64, report: &mut Report) {
    let circuit = match workload {
        Workload::ServiceMix => "s3330",
        _ => "s15850",
    };
    let engine = runner
        .engine_for(
            circuit,
            vlsi_place::cost::Objectives::WirelengthPower,
            Some(seed),
        )
        .expect("suite circuit");
    let rows = engine.config().num_rows;
    let initial = engine.initial_placement(&mut ChaCha8Rng::seed_from_u64(seed));
    let ev = engine.evaluator().clone();
    let mut islands: Vec<(&str, Box<dyn Optimizer>)> = vec![
        (
            "metaheuristics.step_ms.ga",
            Box::new(GaIsland::new(
                ev.clone(),
                GaConfig {
                    population: 16,
                    num_rows: rows,
                    seed,
                    ..GaConfig::default()
                },
                initial.clone(),
            )),
        ),
        (
            "metaheuristics.step_ms.sa",
            Box::new(SaIsland::new(
                ev.clone(),
                SaConfig {
                    moves_per_temperature: 120,
                    seed,
                    ..SaConfig::default()
                },
                initial.clone(),
            )),
        ),
        (
            "metaheuristics.step_ms.tabu",
            Box::new(TabuIsland::new(
                ev,
                TabuConfig {
                    seed,
                    ..TabuConfig::default()
                },
                initial,
            )),
        ),
    ];
    for (name, island) in islands.iter_mut() {
        let step = median_ms(3, || {
            black_box(island.step());
        });
        report.push(name, step, "ms", 3);
    }
}

/// `sime-server`: protocol parse and render costs, and admission waiting.
/// The service mix measures waiting on its own traffic; the s15850
/// workloads push their job through a server with two sessions keeping two
/// jobs outstanding each, so half the submissions queue.
fn server_layer(
    workload: Workload,
    list: &[JobSpec],
    traffic: &Traffic,
    report: &mut Report,
    tally: &mut Tally,
) {
    let lines: Vec<String> = list
        .iter()
        .enumerate()
        .map(|(k, job)| submit_line(&format!("j{k}"), job))
        .collect();
    let us = batched_us(11, 20, || {
        for line in &lines {
            black_box(Request::parse_line(black_box(line), 1 << 16).expect("valid line"));
        }
    }) / lines.len() as f64;
    report.push("sime-server.parse_submit_us", us, "us", 11);
    let out = traffic.sample_outcome.as_ref().expect("a job finished");
    let done = Event::Done {
        id: "j0".into(),
        scenario: out.spec.scenario.id(),
        seed: out.spec.seed,
        iterations: out.outcome.iterations,
        final_mu: out.outcome.best_mu(),
        fingerprint: out.fingerprint.to_text(&out.spec.scenario),
    };
    let us = batched_us(11, 100, || {
        black_box(black_box(&done).render());
    });
    report.push("sime-server.render_done_us", us, "us", 11);

    let (queued_frac, waits) = match workload {
        Workload::ServiceMix => (
            traffic.accepted.1 as f64 / traffic.accepted.0.max(1) as f64,
            traffic.wait_ms.clone(),
        ),
        _ => {
            let standalone = median(&traffic.latency_ms).expect("jobs ran");
            server_probe(&list[0], standalone, tally)
        }
    };
    report.push(
        "sime-server.queued_frac",
        queued_frac,
        "ratio",
        traffic.accepted.0.max(SERVER_PROBE_JOBS),
    );
    match percentile(&waits, 50.0) {
        Some(w) => report.push("sime-server.wait_ms_p50", w, "ms", waits.len()),
        None => tally.record_run_check("too few samples for sime-server.wait_ms_p50", false),
    }
}

/// Pushes [`SERVER_PROBE_JOBS`] copies of `job` through an in-process
/// server from two client threads, each keeping two jobs outstanding on its
/// own session, and returns the share of submissions that queued and each
/// job's latency minus `standalone_ms`.
fn server_probe(job: &JobSpec, standalone_ms: f64, tally: &mut Tally) -> (f64, Vec<f64>) {
    let server = Server::new(service_config());
    let s = &job.scenario;
    server
        .runner()
        .engine_for(&s.circuit, s.objectives, job.seed)
        .expect("workload circuit");
    let per_client = SERVER_PROBE_JOBS / 2;
    let ends: Vec<(usize, usize, Vec<f64>, Vec<JobEnd>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let session = Session::new(Arc::clone(server));
                    let mut live: HashMap<String, Instant> = HashMap::new();
                    let (mut sent, mut accepted, mut queued) = (0, 0, 0);
                    let mut waits = Vec::new();
                    let mut failures = Vec::new();
                    while sent < per_client || !live.is_empty() {
                        while live.len() < 2 && sent < per_client {
                            let id = format!("c{c}j{sent}");
                            sent += 1;
                            live.insert(id.clone(), Instant::now());
                            session.handle_line(&submit_line(&id, job));
                        }
                        let Some(event) = session.next_event(Duration::from_secs(60)) else {
                            failures.extend(live.drain().map(|_| JobEnd::Timeout));
                            break;
                        };
                        match event {
                            Event::Accepted { queued_ahead, .. } => {
                                accepted += 1;
                                queued += usize::from(queued_ahead > 0);
                            }
                            Event::Done { id, .. } => {
                                if let Some(t) = live.remove(&id) {
                                    waits.push(ms(t.elapsed()) - standalone_ms);
                                }
                            }
                            Event::Progress { .. } => {}
                            other => {
                                if let Event::Error { id: Some(id), .. }
                                | Event::Cancelled { id, .. } = &other
                                {
                                    live.remove(id);
                                }
                                failures.push(JobEnd::Failed(format!("{other:?}")));
                            }
                        }
                    }
                    (accepted, queued, waits, failures)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("probe client panicked"))
            .collect()
    });
    server.drain();
    let (mut accepted, mut queued, mut waits) = (0, 0, Vec::new());
    for (a, q, w, failures) in ends {
        accepted += a;
        queued += q;
        waits.extend(w);
        for end in failures {
            tally.record("server probe", end);
        }
    }
    (queued as f64 / accepted.max(1) as f64, waits)
}
