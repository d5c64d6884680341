//! Set-up and the timed traffic of each workload, with the correctness
//! checks on every result.

use crate::stats::{median, min_samples_for, JobEnd, Tally};
use crate::workloads::{job_at, submit_line, Workload, WORKERS};
use sime_parallel::batch::TrajectoryFingerprint;
use sime_parallel::control::RunControl;
use sime_parallel::{ExecBackend, JobOutcome, JobRunner, JobSpec, SharedPool};
use sime_server::{Event, Server, ServerConfig, Session};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vlsi_place::cost::CostBreakdown;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// A job that has not ended this long after its last event counts as a
/// timeout, and the run stops submitting.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper limit on a run's traffic phase, whatever the sample counts: the
/// benchmark must end well inside its time limit even on a slow host.
const TRAFFIC_CAP: Duration = Duration::from_secs(110);

/// Jobs every run completes at least, so that the p90 job latency has ten
/// samples beyond it.
fn min_jobs() -> usize {
    min_samples_for(90.0)
}

/// A [`RunControl`] that timestamps every iteration boundary and never
/// cancels.
#[derive(Default)]
pub struct Clock {
    marks: Mutex<Vec<Instant>>,
}

impl RunControl for Clock {
    fn keep_going(&self, _iteration: usize, _mu: f64, _best_mu: f64) -> bool {
        self.marks
            .lock()
            .expect("clock lock poisoned by a panicking iteration")
            .push(Instant::now());
        true
    }
}

impl Clock {
    /// The recorded iteration boundaries.
    pub fn marks(&self) -> Vec<Instant> {
        self.marks
            .lock()
            .expect("clock lock poisoned by a panicking iteration")
            .clone()
    }
}

/// Timings of one job run through `JobRunner::run_job` by the benchmark.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Call to return.
    pub wall_ms: f64,
    /// Call to the first iteration boundary.
    pub first_ms: f64,
    /// Gaps between consecutive iteration boundaries.
    pub gaps_ms: Vec<f64>,
}

impl TimedRun {
    /// Wall time not covered by the gaps between iteration boundaries: the
    /// run's set-up and wrap-up plus iteration 0, which has no boundary
    /// before it.
    pub fn outside_gaps_ms(&self) -> f64 {
        self.wall_ms - self.gaps_ms.iter().sum::<f64>()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `spec` standalone on `backend`, timing the call and its iteration
/// boundaries.
pub fn timed_run(
    runner: &JobRunner,
    spec: &JobSpec,
    backend: &dyn ExecBackend,
) -> (Result<JobOutcome, String>, TimedRun) {
    let clock = Clock::default();
    let t0 = Instant::now();
    let result = runner.run_job(spec, backend, &clock);
    let t1 = Instant::now();
    let marks = clock.marks();
    let timed = TimedRun {
        wall_ms: ms(t1 - t0),
        first_ms: marks.first().map_or(ms(t1 - t0), |&m| ms(m - t0)),
        gaps_ms: marks.windows(2).map(|w| ms(w[1] - w[0])).collect(),
    };
    (result.map_err(|e| e.to_string()), timed)
}

/// Bitwise comparison of every scalar of two cost breakdowns.
fn same_cost(a: &CostBreakdown, b: &CostBreakdown) -> bool {
    let bits =
        |c: &CostBreakdown| [c.wirelength, c.power, c.delay, c.width, c.mu].map(f64::to_bits);
    bits(a) == bits(b)
}

/// The correctness checks on a finished job: it ran every requested
/// iteration, `Placement::validate` accepts its placement, the job's own
/// evaluator prices that placement bitwise equal to the reported cost, and
/// the fingerprint matches the outcome.
pub fn check_outcome(runner: &JobRunner, out: &JobOutcome) -> Result<(), String> {
    let scenario = &out.spec.scenario;
    if !out.completed() {
        return Err(format!(
            "ran {} of {} iterations",
            out.outcome.iterations, scenario.iterations
        ));
    }
    let (netlist, _) = runner
        .netlist(&scenario.circuit)
        .map_err(|e| e.to_string())?;
    out.outcome
        .best_placement
        .validate(&netlist)
        .map_err(|e| format!("invalid placement: {e:?}"))?;
    let engine = runner
        .engine_for(&scenario.circuit, scenario.objectives, out.spec.seed)
        .map_err(|e| e.to_string())?;
    let cost = engine.evaluator().evaluate(&out.outcome.best_placement);
    if !same_cost(&cost, &out.outcome.best_cost) {
        return Err(format!(
            "reported cost {:?} but the placement evaluates to {:?}",
            out.outcome.best_cost, cost
        ));
    }
    if TrajectoryFingerprint::from_outcome(&out.outcome) != out.fingerprint {
        return Err("fingerprint does not match the outcome".into());
    }
    Ok(())
}

/// FNV-1a over the fingerprint texts of one pass of the job list: equal
/// digests mean bitwise-equal trajectories for every job of the pass.
fn digest_texts<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for byte in text.bytes().chain(std::iter::once(0)) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One pass-0 job's deterministic results.
#[derive(Debug, Clone)]
pub struct PassJob {
    /// Its fingerprint text (the digest input).
    pub fingerprint: String,
    /// Best µ of the run.
    pub best_mu: f64,
    /// µ of the run's last iteration.
    pub final_mu: f64,
    /// Modeled cluster seconds.
    pub modeled_s: f64,
    /// Messages and bytes the modeled cluster moved.
    pub comm: (u64, u64),
    /// Iterations run.
    pub iterations: usize,
}

impl PassJob {
    fn from_outcome(out: &JobOutcome) -> PassJob {
        PassJob {
            fingerprint: out.fingerprint.to_text(&out.spec.scenario),
            best_mu: out.outcome.best_mu(),
            final_mu: *out.outcome.mu_history.last().unwrap_or(&0.0),
            modeled_s: out.outcome.modeled_seconds,
            comm: (out.outcome.comm.messages, out.outcome.comm.bytes),
            iterations: out.outcome.iterations,
        }
    }
}

/// Everything the timed traffic of one run produced.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Wall time of the traffic phase.
    pub wall_s: f64,
    /// Jobs that ended correct.
    pub jobs_done: usize,
    /// Iterations those jobs ran.
    pub iterations_done: usize,
    /// Iteration-time samples, ms.
    pub iter_ms: Vec<f64>,
    /// Job latency samples (call or submit → result), ms.
    pub latency_ms: Vec<f64>,
    /// Call or submit → first iteration boundary or progress event, ms.
    pub first_progress_ms: Vec<f64>,
    /// One pass of the job list, in list order, from the first pass run.
    pub pass: Vec<PassJob>,
    /// Standalone timings of the pass-0 jobs (s15850: every timed job).
    pub runs: Vec<(String, TimedRun)>,
    /// Service mix: served latency minus standalone wall of the same job.
    pub wait_ms: Vec<f64>,
    /// Service mix: accepted jobs, and those that had jobs queued ahead.
    pub accepted: (usize, usize),
    /// Runner cache counters right after the traffic.
    pub runner_stats: sime_parallel::jobs::RunnerStats,
    /// A finished outcome of the workload's first job, for layer probes.
    pub sample_outcome: Option<JobOutcome>,
}

impl Traffic {
    /// FNV-1a digest of the pass-0 fingerprints.
    pub fn digest(&self) -> u64 {
        digest_texts(self.pass.iter().map(|p| p.fingerprint.as_str()))
    }
}

/// The set-up a run measures and then uses.
pub enum Prepared {
    /// A warm job runner (s15850 workloads).
    Runner(Box<JobRunner>),
    /// A started server with warm caches (service mix).
    Server(Arc<Server>),
}

fn prepare_once(workload: Workload, list: &[JobSpec]) -> Result<Prepared, String> {
    match workload {
        Workload::S15850Type1 | Workload::S15850Type2 => {
            let runner = JobRunner::new();
            for job in list {
                let s = &job.scenario;
                runner.netlist(&s.circuit).map_err(|e| e.to_string())?;
                runner
                    .engine_for(&s.circuit, s.objectives, job.seed)
                    .map_err(|e| e.to_string())?;
            }
            Ok(Prepared::Runner(Box::new(runner)))
        }
        Workload::ServiceMix => {
            let server = Server::new(service_config());
            let mut seen = Vec::new();
            for job in list {
                let s = &job.scenario;
                if !seen.contains(&(&s.circuit, s.objectives)) {
                    seen.push((&s.circuit, s.objectives));
                    server
                        .runner()
                        .engine_for(&s.circuit, s.objectives, None)
                        .map_err(|e| e.to_string())?;
                }
            }
            Ok(Prepared::Server(server))
        }
    }
}

/// The in-process server configuration every server the benchmark starts
/// uses.
pub fn service_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_active: 2,
        ..ServerConfig::default()
    }
}

/// Builds the workload's state [`SETUP_REPS`] times (netlist generation and
/// digest, engine calibration, and for the service mix the server with its
/// pool) and returns the last build with the median build time.
pub fn prepare(workload: Workload, list: &[JobSpec]) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let prepared = prepare_once(workload, list)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(prepared);
    }
    let setup_s = median(&times).expect("SETUP_REPS > 0");
    Ok((last.expect("SETUP_REPS > 0"), setup_s))
}

/// Whether job `next` of the stream should still be submitted: until
/// `seconds` have passed and [`min_jobs`] jobs finished, and then up to the
/// end of the current pass, so every run submits whole passes and each list
/// entry weighs the same in every run's statistics. [`TRAFFIC_CAP`] stops
/// submission regardless.
fn keep_submitting(
    start: Instant,
    seconds: f64,
    completed: usize,
    next: usize,
    pass: usize,
) -> bool {
    let elapsed = start.elapsed();
    elapsed < TRAFFIC_CAP
        && (elapsed.as_secs_f64() < seconds || completed < min_jobs() || !next.is_multiple_of(pass))
}

/// s15850 workloads: one closed-loop caller runs the job list through
/// `JobRunner::run_job`, once untimed and then timed until `seconds` have
/// passed and enough jobs ran.
pub fn run_closed_loop(
    workload: Workload,
    runner: &JobRunner,
    list: &[JobSpec],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Traffic {
    let mut traffic = Traffic::default();
    // Pass 0 runs untimed: it warms up the runner and the host, its outcomes
    // get the full checks, and their fingerprints are the references every
    // timed pass must reproduce.
    let mut reference = Vec::with_capacity(list.len());
    for (slot, spec) in list.iter().enumerate() {
        let backend = Workload::backend(spec);
        let id = format!("{}#{slot} warm-up", spec.scenario.id());
        let out = match timed_run(runner, spec, &backend).0 {
            Ok(out) => out,
            Err(e) => {
                tally.record(&id, JobEnd::Failed(e));
                reference.push(None);
                continue;
            }
        };
        match check_outcome(runner, &out) {
            Ok(()) => tally.record(&id, JobEnd::Correct),
            Err(e) => tally.record(&id, JobEnd::CheckFailed(e)),
        }
        traffic.pass.push(PassJob::from_outcome(&out));
        reference.push(Some(out.fingerprint.clone()));
        if slot == 0 {
            traffic.sample_outcome = Some(out);
        }
    }
    let start = Instant::now();
    let mut k = list.len();
    while keep_submitting(start, seconds, traffic.jobs_done, k, list.len()) {
        let spec = job_at(workload, list, seed, k);
        let backend = Workload::backend(&spec);
        let (result, timed) = timed_run(runner, &spec, &backend);
        let id = format!("{}#{k}", spec.scenario.id());
        let slot = k % list.len();
        k += 1;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                tally.record(&id, JobEnd::Failed(e));
                continue;
            }
        };
        // Repeats of a list entry must reproduce its warm-up run bit for bit.
        let end = match &reference[slot] {
            Some(first) if *first == out.fingerprint && out.completed() => JobEnd::Correct,
            Some(_) => JobEnd::CheckFailed("repeat diverged".into()),
            None => JobEnd::CheckFailed("warm-up run failed".into()),
        };
        if end != JobEnd::Correct {
            tally.record(&id, end);
            continue;
        }
        traffic.jobs_done += 1;
        traffic.iterations_done += out.outcome.iterations;
        traffic.iter_ms.extend(&timed.gaps_ms);
        traffic.latency_ms.push(timed.wall_ms);
        traffic.first_progress_ms.push(timed.first_ms);
        traffic
            .runs
            .push((spec.scenario.strategy.label().to_string(), timed));
        tally.record(&id, JobEnd::Correct);
    }
    traffic.wall_s = start.elapsed().as_secs_f64();
    traffic.runner_stats = runner.stats();
    traffic
}

/// One job's life as one session saw it.
struct Served {
    k: usize,
    spec: JobSpec,
    submitted: Instant,
    queued_ahead: Option<usize>,
    first_progress: Option<(Instant, usize)>,
    last_progress: Option<(Instant, usize)>,
}

/// What a client thread reports for a finished job.
struct ServedResult {
    k: usize,
    spec: JobSpec,
    end: JobEnd,
    latency_ms: f64,
    first_ms: Option<f64>,
    iter_ms: Option<f64>,
    queued_ahead: Option<usize>,
    fingerprint: Option<String>,
    best_mu: f64,
    final_mu: f64,
}

/// Checks a `done` event against the job that was submitted; returns the
/// µ of the last iteration on success.
fn check_done(
    spec: &JobSpec,
    scenario: &str,
    seed: Option<u64>,
    iterations: usize,
    final_mu: f64,
    fingerprint: &str,
) -> Result<f64, String> {
    if scenario != spec.scenario.id() || seed != spec.seed {
        return Err(format!(
            "done for {scenario}/{seed:?}, submitted {}",
            spec.scenario.id()
        ));
    }
    if iterations != spec.scenario.iterations {
        return Err(format!(
            "ran {iterations} of {} iterations",
            spec.scenario.iterations
        ));
    }
    let (parsed, fp) = TrajectoryFingerprint::parse_text(fingerprint)?;
    if parsed.id() != spec.scenario.id() || fp.final_mu_bits != final_mu.to_bits() {
        return Err("fingerprint disagrees with the done event".into());
    }
    match fp.mu_checkpoints.last() {
        Some(&(i, bits)) if i + 1 == iterations => Ok(f64::from_bits(bits)),
        _ => Err("fingerprint lacks the final iteration".into()),
    }
}

/// One client: keeps `outstanding` jobs in flight on its own session until
/// the shared job counter says stop, and reports every job it submitted.
fn client(
    server: &Arc<Server>,
    list: &[JobSpec],
    seed: u64,
    seconds: f64,
    start: Instant,
    next: &AtomicUsize,
    completed: &AtomicUsize,
) -> Vec<ServedResult> {
    const OUTSTANDING: usize = 2;
    let session = Session::new(Arc::clone(server));
    let mut live: HashMap<String, Served> = HashMap::new();
    let mut results = Vec::new();
    loop {
        while live.len() < OUTSTANDING {
            // Claim job `k` only while the stream should go on, so both
            // clients stop at the same pass boundary.
            let k = next.load(Ordering::SeqCst);
            if !keep_submitting(
                start,
                seconds,
                completed.load(Ordering::SeqCst),
                k,
                list.len(),
            ) {
                break;
            }
            if next
                .compare_exchange(k, k + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            let spec = job_at(Workload::ServiceMix, list, seed, k);
            let id = format!("j{k}");
            let line = submit_line(&id, &spec);
            let submitted = Instant::now();
            session.handle_line(&line);
            live.insert(
                id,
                Served {
                    k,
                    spec,
                    submitted,
                    queued_ahead: None,
                    first_progress: None,
                    last_progress: None,
                },
            );
        }
        if live.is_empty() {
            return results;
        }
        let Some(event) = session.next_event(JOB_TIMEOUT) else {
            for (_, job) in live.drain() {
                results.push(ServedResult::ended(
                    job,
                    JobEnd::Timeout,
                    None,
                    Instant::now(),
                ));
            }
            return results;
        };
        let now = Instant::now();
        match event {
            Event::Accepted { id, queued_ahead } => {
                if let Some(job) = live.get_mut(&id) {
                    job.queued_ahead = Some(queued_ahead);
                }
            }
            Event::Progress { id, iteration, .. } => {
                if let Some(job) = live.get_mut(&id) {
                    job.first_progress.get_or_insert((now, iteration));
                    job.last_progress = Some((now, iteration));
                }
            }
            Event::Done {
                id,
                scenario,
                seed,
                iterations,
                final_mu,
                fingerprint,
            } => {
                if let Some(job) = live.remove(&id) {
                    let checked = check_done(
                        &job.spec,
                        &scenario,
                        seed,
                        iterations,
                        final_mu,
                        &fingerprint,
                    );
                    results.push(match checked {
                        Ok(last_mu) => {
                            completed.fetch_add(1, Ordering::SeqCst);
                            let mut r =
                                ServedResult::ended(job, JobEnd::Correct, Some(fingerprint), now);
                            r.best_mu = final_mu;
                            r.final_mu = last_mu;
                            r
                        }
                        Err(e) => ServedResult::ended(job, JobEnd::CheckFailed(e), None, now),
                    });
                }
            }
            Event::Cancelled { id, .. } => {
                if let Some(job) = live.remove(&id) {
                    results.push(ServedResult::ended(job, JobEnd::Cancelled, None, now));
                }
            }
            Event::Error { id, code, .. } => match id.and_then(|id| live.remove(&id)) {
                Some(job) => {
                    let end = if job.queued_ahead.is_some() {
                        JobEnd::Failed(code)
                    } else {
                        JobEnd::Error(code)
                    };
                    results.push(ServedResult::ended(job, end, None, now));
                }
                None => {
                    // An error no job owns: the protocol layer rejected a
                    // line the benchmark generated. Count it against the run.
                    results.push(ServedResult {
                        k: usize::MAX,
                        spec: list[0].clone(),
                        end: JobEnd::Error(code),
                        latency_ms: 0.0,
                        first_ms: None,
                        iter_ms: None,
                        queued_ahead: None,
                        fingerprint: None,
                        best_mu: 0.0,
                        final_mu: 0.0,
                    });
                }
            },
            Event::Registered { .. } | Event::Status { .. } | Event::Bye => {}
        }
    }
}

impl ServedResult {
    fn ended(job: Served, end: JobEnd, fingerprint: Option<String>, now: Instant) -> ServedResult {
        let first_ms = job.first_progress.map(|(t, _)| ms(t - job.submitted));
        let iter_ms = match (job.first_progress, job.last_progress) {
            (Some((t0, i0)), Some((t1, i1))) if i1 > i0 => Some(ms(t1 - t0) / (i1 - i0) as f64),
            _ => None,
        };
        ServedResult {
            k: job.k,
            spec: job.spec,
            end,
            latency_ms: ms(now - job.submitted),
            first_ms,
            iter_ms,
            queued_ahead: job.queued_ahead,
            fingerprint,
            best_mu: 0.0,
            final_mu: 0.0,
        }
    }
}

/// Service mix: two sessions on one in-process server, each keeping two
/// jobs outstanding, submit the endless job stream until `seconds` have
/// passed and enough jobs finished. Afterwards the first pass of the list is
/// replayed standalone on the server's runner and pool: the replay must
/// reproduce every served fingerprint, and its placements get the full
/// checks (the protocol returns a fingerprint, not a placement).
pub fn run_service(
    server: &Arc<Server>,
    list: &[JobSpec],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Traffic {
    let mut traffic = Traffic::default();
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let start = Instant::now();
    let mut results: Vec<ServedResult> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| client(server, list, seed, seconds, start, &next, &completed)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    traffic.wall_s = start.elapsed().as_secs_f64();
    traffic.runner_stats = server.runner().stats();
    results.sort_by_key(|r| r.k);
    let mut served_pass: Vec<Option<ServedResult>> = (0..list.len()).map(|_| None).collect();
    for r in results {
        if let Some(q) = r.queued_ahead {
            traffic.accepted.0 += 1;
            if q > 0 {
                traffic.accepted.1 += 1;
            }
        }
        tally.record(&format!("j{} {}", r.k, r.spec.scenario.id()), r.end.clone());
        if r.end != JobEnd::Correct {
            continue;
        }
        traffic.jobs_done += 1;
        traffic.iterations_done += r.spec.scenario.iterations;
        traffic.latency_ms.push(r.latency_ms);
        traffic.first_progress_ms.extend(r.first_ms);
        traffic.iter_ms.extend(r.iter_ms);
        if r.k < list.len() {
            let k = r.k;
            served_pass[k] = Some(r);
        }
    }
    // Standalone replay of the first pass, on the server's own runner and
    // pool (the traffic has ended, so the pool is idle).
    for (k, served) in served_pass.into_iter().enumerate() {
        let Some(served) = served else {
            tally.record_run_check(&format!("pass-0 job j{k} did not finish"), false);
            continue;
        };
        let spec = &list[k];
        let backend =
            SharedPool::new(Arc::clone(server.pool())).with_eval_chunks(spec.scenario.eval_chunks);
        let (result, timed) = timed_run(server.runner(), spec, &backend);
        let id = format!("j{k} replay");
        let checked = result.and_then(|out| {
            check_outcome(server.runner(), &out)?;
            let text = out.fingerprint.to_text(&spec.scenario);
            if Some(&text) != served.fingerprint.as_ref() {
                return Err("served fingerprint differs from the standalone run".into());
            }
            Ok(out)
        });
        match checked {
            Ok(out) => {
                traffic.wait_ms.push(served.latency_ms - timed.wall_ms);
                traffic
                    .runs
                    .push((spec.scenario.strategy.label().to_string(), timed));
                let mut pass = PassJob::from_outcome(&out);
                pass.best_mu = served.best_mu;
                pass.final_mu = served.final_mu;
                traffic.pass.push(pass);
                if traffic.sample_outcome.is_none() {
                    traffic.sample_outcome = Some(out);
                }
            }
            Err(e) => tally.record(&id, JobEnd::CheckFailed(e)),
        }
    }
    traffic
}
