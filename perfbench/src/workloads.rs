//! The benchmark's workloads and the job lists they generate from a seed.
//!
//! Every job list is a pure function of the workload seed, and the seed also
//! becomes each job's `JobSpec.seed`, so the program under test receives
//! only generated inputs and two runs with one seed submit identical jobs.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_parallel::batch::{ScenarioSpec, StrategyKind};
use sime_parallel::exec::Threaded;
use sime_parallel::portfolio::PortfolioMix;
use sime_parallel::type2::RowPattern;
use sime_parallel::JobSpec;
use vlsi_netlist::bench_suite::SuiteCircuit;
use vlsi_place::cost::Objectives;

/// Largest accepted workload seed. Seeds travel through the JSON protocol
/// as numbers (`f64`), so every job seed `seed + k` must stay exact there.
pub const MAX_SEED: u64 = 1 << 40;

/// Iterations of one s15850 job. Short jobs give enough whole jobs per run
/// for a tail latency percentile while every iteration still runs the full
/// 10,306-cell kernel.
pub const S15850_ITERATIONS: usize = 3;

/// Jobs in one pass of an s15850 job list. Each runs with its own seed;
/// averaging over a pass keeps the seed-to-seed spread of the quality
/// metrics (µ of a three-iteration run varies by ~20 % between seeds) small.
/// Iteration times vary by seed too (random rows give the ranks unequal
/// work), so the p90s rest on the slowest few jobs of a pass; fifty jobs
/// make that tail depend less on the workload seed. A pass also holds the
/// 100 iteration gaps a p90 window needs.
pub const S15850_JOBS: usize = 50;

/// Iterations of one service-mix job (jobs then take tens of milliseconds,
/// so per-job fixed costs are a visible share of latency).
pub const SERVICE_ITERATIONS: usize = 12;

/// The circuits the service mix draws from: the paper tier plus the
/// smallest mixed-size circuit.
pub const SERVICE_CIRCUITS: [&str; 6] = ["s1196", "s1238", "s1488", "s1494", "s3330", "mix600"];

/// Seed of the service mix's fixed job order.
const SERVICE_ORDER_SEED: u64 = 0x5eed;

/// Worker threads of every pool the benchmark starts (the benchmark host
/// this was sized on has two cores).
pub const WORKERS: usize = 2;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// s15850, Type I at 2 ranks, threaded with intra-rank chunking 2;
    /// one closed-loop caller of `JobRunner::run_job`.
    S15850Type1,
    /// s15850, Type II (random rows) at 4 ranks, threaded, no intra-rank
    /// chunking; one closed-loop caller of `JobRunner::run_job`.
    S15850Type2,
    /// In-process server, two sessions with two jobs outstanding each, over
    /// a mix of small circuits and every strategy.
    ServiceMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::S15850Type1,
        Workload::S15850Type2,
        Workload::ServiceMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::S15850Type1 => "s15850_type1",
            Workload::S15850Type2 => "s15850_type2",
            Workload::ServiceMix => "service_mix",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The circuits this workload runs on.
    pub fn circuits(self) -> Vec<&'static str> {
        match self {
            Workload::S15850Type1 | Workload::S15850Type2 => vec!["s15850"],
            Workload::ServiceMix => SERVICE_CIRCUITS.to_vec(),
        }
    }

    /// One pass of the workload's job list. The timed loop cycles through
    /// it; see [`job_at`] for the jobs beyond the first pass.
    pub fn job_list(self, seed: u64) -> Vec<JobSpec> {
        match self {
            Workload::S15850Type1 => s15850_list(StrategyKind::Type1, 2, 2, seed),
            Workload::S15850Type2 => {
                s15850_list(StrategyKind::Type2(RowPattern::Random), 4, 1, seed)
            }
            Workload::ServiceMix => service_list(seed),
        }
    }

    /// The backend a standalone `run_job` of `spec` uses on this workload
    /// (the server workloads run on the server's shared pool instead).
    pub fn backend(spec: &JobSpec) -> Threaded {
        Threaded::new(WORKERS).with_eval_chunks(spec.scenario.eval_chunks)
    }
}

/// Job `k` of the endless stream a workload submits: the list entry
/// `k mod len`. On the s15850 workloads the passes repeat the list (so every
/// result must repeat its first pass bit for bit); on the service mix job
/// `k` runs with seed `seed + k`, so every job has a distinct seed and the
/// server's engine cache takes its reseed path.
pub fn job_at(workload: Workload, list: &[JobSpec], seed: u64, k: usize) -> JobSpec {
    let mut job = list[k % list.len()].clone();
    if workload == Workload::ServiceMix {
        job.seed = Some(seed + k as u64);
    }
    job
}

/// [`S15850_JOBS`] copies of one s15850 job; copy `k` runs with seed
/// `seed + k`.
fn s15850_list(
    strategy: StrategyKind,
    ranks: usize,
    eval_chunks: usize,
    seed: u64,
) -> Vec<JobSpec> {
    (0..S15850_JOBS as u64)
        .map(|k| s15850_job(strategy, ranks, eval_chunks, seed + k))
        .collect()
}

fn s15850_job(strategy: StrategyKind, ranks: usize, eval_chunks: usize, seed: u64) -> JobSpec {
    JobSpec {
        scenario: ScenarioSpec {
            circuit: "s15850".into(),
            strategy,
            ranks,
            iterations: S15850_ITERATIONS,
            objectives: Objectives::WirelengthPower,
            workers: Some(WORKERS),
            eval_chunks,
            warm_start: None,
        },
        seed: Some(seed),
    }
}

/// The inclusive rank range a service job of `strategy` draws from on a
/// circuit with `rows` rows. Type II needs a row per rank.
fn rank_range(strategy: StrategyKind, rows: usize) -> (usize, usize) {
    let lo = strategy.min_ranks();
    let hi = match strategy {
        StrategyKind::Type2(_) => 4.min(rows),
        _ => 4,
    };
    (lo, hi.max(lo))
}

/// Every valid (circuit, strategy) pair once — portfolios cannot host the
/// fixed cells of the mixed-size circuit — with ranks and objective mix
/// rotating over the pairs, in one fixed shuffled order. The workload seed
/// sets every job's seed and so every trajectory, but not the composition or
/// the order: which jobs queue behind which stays the same, so runs with
/// different seeds compare.
fn service_list(seed: u64) -> Vec<JobSpec> {
    let strategies = [
        StrategyKind::Type1,
        StrategyKind::Type2(RowPattern::Fixed),
        StrategyKind::Type2(RowPattern::Random),
        StrategyKind::Type3,
        StrategyKind::Portfolio(PortfolioMix::Mixed),
        StrategyKind::Portfolio(PortfolioMix::Baselines),
    ];
    let mut jobs = Vec::new();
    for (si, &strategy) in strategies.iter().enumerate() {
        for (ci, &circuit) in SERVICE_CIRCUITS.iter().enumerate() {
            let suite = SuiteCircuit::from_name(circuit).expect("service circuit is in the suite");
            if suite.is_mixed() && matches!(strategy, StrategyKind::Portfolio(_)) {
                continue;
            }
            let (lo, hi) = rank_range(strategy, suite.num_rows());
            let turn = ci + si;
            let objectives = if turn % 2 == 0 {
                Objectives::WirelengthPower
            } else {
                Objectives::WirelengthPowerDelay
            };
            jobs.push(JobSpec {
                scenario: ScenarioSpec {
                    circuit: circuit.into(),
                    strategy,
                    ranks: lo + turn % (hi - lo + 1),
                    iterations: SERVICE_ITERATIONS,
                    objectives,
                    workers: None,
                    eval_chunks: 1,
                    warm_start: None,
                },
                seed: None,
            });
        }
    }
    jobs.shuffle(&mut ChaCha8Rng::seed_from_u64(SERVICE_ORDER_SEED));
    for (k, job) in jobs.iter_mut().enumerate() {
        job.seed = Some(seed + k as u64);
    }
    jobs
}

/// The submit line a client sends for job `id`.
pub fn submit_line(id: &str, spec: &JobSpec) -> String {
    sime_server::Request::Submit(sime_server::SubmitRequest {
        id: id.to_string(),
        spec: spec.clone(),
    })
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sime_parallel::JobRunner;

    #[test]
    fn job_lists_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            for seed in [0, 1, 7, 12345] {
                assert_eq!(w.job_list(seed), w.job_list(seed), "{}", w.name());
                let list = w.job_list(seed);
                for k in 0..3 * list.len() {
                    assert_eq!(job_at(w, &list, seed, k), job_at(w, &list, seed, k));
                }
            }
            assert_ne!(w.job_list(1), w.job_list(2), "{}", w.name());
        }
    }

    #[test]
    fn the_seed_becomes_every_job_seed() {
        for w in [Workload::S15850Type1, Workload::S15850Type2] {
            let list = w.job_list(42);
            assert_eq!(list.len(), S15850_JOBS);
            for k in 0..3 * S15850_JOBS {
                let job = job_at(w, &list, 42, k);
                assert_eq!(job.seed, Some(42 + (k % S15850_JOBS) as u64));
                assert_eq!(job, list[k % S15850_JOBS], "passes repeat the list");
            }
        }
        let list = Workload::ServiceMix.job_list(42);
        let seeds: Vec<u64> = (0..3 * list.len())
            .map(|k| job_at(Workload::ServiceMix, &list, 42, k).seed.unwrap())
            .collect();
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            seeds.len(),
            "service jobs need distinct seeds"
        );
        assert_eq!(seeds[0], 42);
    }

    #[test]
    fn service_mix_covers_every_strategy_with_valid_specs() {
        for seed in 0..20 {
            let list = Workload::ServiceMix.job_list(seed);
            assert_eq!(list.len(), 6 * 6 - 2);
            for job in &list {
                let s = &job.scenario;
                JobRunner::validate(s).expect("only valid traffic");
                let rows = SuiteCircuit::from_name(&s.circuit).unwrap().num_rows();
                if let StrategyKind::Type2(_) = s.strategy {
                    assert!(s.ranks <= rows, "Type II needs a row per rank");
                }
                assert!(s.ranks <= 4);
                let mixed = SuiteCircuit::from_name(&s.circuit).unwrap().is_mixed();
                assert!(!(mixed && matches!(s.strategy, StrategyKind::Portfolio(_))));
            }
            for label in [
                "type1",
                "type2_fixed",
                "type2_random",
                "type3",
                "portfolio_mixed",
                "portfolio_baselines",
            ] {
                assert!(list.iter().any(|j| j.scenario.strategy.label() == label));
            }
        }
    }

    #[test]
    fn submit_lines_round_trip_through_the_protocol() {
        let list = Workload::ServiceMix.job_list(MAX_SEED - 100);
        for (k, job) in list.iter().enumerate() {
            let line = submit_line(&format!("j{k}"), job);
            match sime_server::Request::parse_line(&line, 1 << 16).unwrap() {
                sime_server::Request::Submit(submit) => assert_eq!(&submit.spec, job),
                other => panic!("not a submit: {other:?}"),
            }
        }
    }
}
