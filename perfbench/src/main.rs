//! The placement system's benchmark: one workload per run, end-to-end
//! metrics untraced, per-layer metrics traced. See `README.md` for the
//! workloads, every metric's definition and the recorded baseline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <s15850_type1|s15850_type2|service_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when any
//! job failed or any correctness check did not hold.

mod layers;
mod stats;
mod traffic;
mod workloads;

use stats::{Report, Tally};
use traffic::{peak_rss_mb, prepare, run_closed_loop, run_service, Prepared, Traffic};
use workloads::{Workload, MAX_SEED};

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("first_progress_p50_ms", "ms"),
    ("modeled_s", "s"),
    ("best_mu", "mu"),
    ("final_mu", "mu"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run, with their units.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("vlsi-netlist.generate_ms", "ms"),
    ("vlsi-netlist.digest_ms", "ms"),
    ("vlsi-place.prepare_cell_us", "us"),
    ("vlsi-place.trial_score_ns", "ns"),
    ("vlsi-place.refresh_us", "us"),
    ("vlsi-place.nets_recomputed", "count"),
    ("vlsi-place.goodness_pass_ms", "ms"),
    ("sime-core.iterate_ms", "ms"),
    ("sime-core.evaluation_ms", "ms"),
    ("sime-core.selection_ms", "ms"),
    ("sime-core.allocation_ms", "ms"),
    ("sime-core.allocation_share", "ratio"),
    ("sime-core.selected_frac", "ratio"),
    ("sime-core.moved_frac", "ratio"),
    ("sime-core.trial_positions_per_cell", "count"),
    ("sime-core.net_evals_per_iter", "count"),
    ("sime-core.goodness_recomputes_per_iter", "count"),
    ("sime-core.alloc_serial_ms", "ms"),
    ("sime-core.alloc_chunked_ms", "ms"),
    ("sime-core.alloc_chunked_speedup", "ratio"),
    ("cluster-sim.run_tasks_us", "us"),
    ("cluster-sim.run_tasks_us.4", "us"),
    ("cluster-sim.scoped_tasks_us", "us"),
    ("cluster-sim.comm_msgs_per_iter", "count"),
    ("cluster-sim.comm_bytes_per_iter", "bytes"),
    ("sime-parallel.run_ms.type1", "ms"),
    ("sime-parallel.run_ms.type2_fixed", "ms"),
    ("sime-parallel.run_ms.type2_random", "ms"),
    ("sime-parallel.run_ms.type3", "ms"),
    ("sime-parallel.run_ms.portfolio_mixed", "ms"),
    ("sime-parallel.run_ms.portfolio_baselines", "ms"),
    ("sime-parallel.loop_overhead_frac", "ratio"),
    ("sime-parallel.threaded_vs_modeled", "ratio"),
    ("sime-parallel.engine_hits", "count"),
    ("sime-parallel.engines_reseeded", "count"),
    ("sime-parallel.engines_cached", "count"),
    ("sime-parallel.fingerprint_us", "us"),
    ("metaheuristics.step_ms.ga", "ms"),
    ("metaheuristics.step_ms.sa", "ms"),
    ("metaheuristics.step_ms.tabu", "ms"),
    ("sime-server.parse_submit_us", "us"),
    ("sime-server.render_done_us", "us"),
    ("sime-server.queued_frac", "ratio"),
    ("sime-server.wait_ms_p50", "ms"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.iters_per_s", "1/s"),
    ("trace.job_latency_p50_ms", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <s15850_type1|s15850_type2|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seed {value}"))?;
                if s >= MAX_SEED {
                    return Err(format!("seed must be below {MAX_SEED}"));
                }
                seed = Some(s);
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end metrics of one run's traffic.
fn end_to_end(traffic: &Traffic, pass_jobs: usize, setup_s: f64, report: &mut Report) {
    let wall = traffic.wall_s;
    // Percentiles are medians over windows of whole passes through the job
    // list; every correct job adds the same number of samples to a series.
    let block = |samples: &[f64]| pass_jobs * (samples.len() / traffic.jobs_done.max(1)).max(1);
    let percentile = |report: &mut Report, name: &str, samples: &[f64], p: f64| {
        report.push_windowed_percentile(name, samples, p, block(samples), "ms")
    };
    report.push("setup_s", setup_s, "s", traffic::SETUP_REPS);
    report.push(
        "iters_per_s",
        traffic.iterations_done as f64 / wall,
        "1/s",
        traffic.iterations_done,
    );
    percentile(report, "iter_ms_p50", &traffic.iter_ms, 50.0);
    percentile(report, "iter_ms_p90", &traffic.iter_ms, 90.0);
    report.push(
        "jobs_per_s",
        traffic.jobs_done as f64 / wall,
        "1/s",
        traffic.jobs_done,
    );
    percentile(report, "job_latency_p50_ms", &traffic.latency_ms, 50.0);
    percentile(report, "job_latency_p90_ms", &traffic.latency_ms, 90.0);
    percentile(
        report,
        "first_progress_p50_ms",
        &traffic.first_progress_ms,
        50.0,
    );
    let n = traffic.pass.len();
    let mean =
        |f: &dyn Fn(&traffic::PassJob) -> f64| traffic.pass.iter().map(f).sum::<f64>() / n as f64;
    report.push(
        "modeled_s",
        traffic.pass.iter().map(|p| p.modeled_s).sum(),
        "s",
        n,
    );
    report.push("best_mu", mean(&|p| p.best_mu), "mu", n);
    report.push("final_mu", mean(&|p| p.final_mu), "mu", n);
    if let Some(rss) = peak_rss_mb() {
        report.push("peak_rss_mb", rss, "MiB", 1);
    }
}

fn run(args: &Args) -> Result<(Tally, Report, Traffic), String> {
    let list = args.workload.job_list(args.seed);
    let (prepared, setup_s) = prepare(args.workload, &list)?;
    let mut tally = Tally::default();
    let mut report = Report::default();
    let traffic = match &prepared {
        Prepared::Runner(runner) => run_closed_loop(
            args.workload,
            runner,
            &list,
            args.seed,
            args.seconds,
            &mut tally,
        ),
        Prepared::Server(server) => run_service(server, &list, args.seed, args.seconds, &mut tally),
    };
    if args.trace {
        let runner = match &prepared {
            Prepared::Runner(runner) => runner.as_ref(),
            Prepared::Server(server) => server.runner().as_ref(),
        };
        layers::probe(
            args.workload,
            args.seed,
            &list,
            runner,
            &traffic,
            &mut report,
            &mut tally,
        );
    } else {
        end_to_end(&traffic, list.len(), setup_s, &mut report);
    }
    if let Prepared::Server(server) = &prepared {
        server.drain();
    }
    Ok((tally, report, traffic))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (mut tally, report, traffic) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    for name in &names {
        if report.get(name).is_none() {
            tally.record_run_check(
                &format!("metric {name} not measured (too few samples?)"),
                false,
            );
        }
    }
    print!("{}", report.to_table());
    println!(
        "  {:<40} {:>16} {:<8} n={}",
        "failed_frac",
        format!("{:.4}", tally.failed_frac()),
        "ratio",
        tally.attempted
    );
    println!(
        "fingerprint_digest workload={} seed={} {:016x} (first pass of {} jobs)",
        args.workload.name(),
        args.seed,
        traffic.digest(),
        traffic.pass.len()
    );
    for reason in &tally.reasons {
        println!("FAILED {reason}");
    }
    let present: Vec<&str> = names
        .into_iter()
        .filter(|n| report.get(n).is_some())
        .collect();
    println!("{}", stats::result_json(&tally, &report, &present));
    if !tally.all_correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = benchmark_json();
        let quoted = |s: &str| format!("\"name\": \"{s}\"");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{}, \"unit\": \"{unit}\"", quoted(name));
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // s15850_type1 stays runnable but is not gated: on the two-core host
        // its run-to-run spread exceeds the largest allowed bound (README).
        let gated: Vec<Workload> = Workload::ALL
            .into_iter()
            .filter(|w| json.contains(&quoted(w.name())))
            .collect();
        assert_eq!(gated, [Workload::S15850Type2, Workload::ServiceMix]);
        let listed = json.matches("\"name\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + gated.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload service_mix --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ServiceMix, 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload service_mix --seed -1 --seconds 10 --trace 0",
            "--workload service_mix --seed 3 --seconds 0 --trace 0",
            "--workload service_mix --seed 3 --seconds 10 --trace 2",
            "--workload service_mix --seed 3 --seconds 10",
            "--workload service_mix --seed 1099511627776 --seconds 10 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
