//! The GeST benchmark: runs one workload for a fixed time and prints its
//! end-to-end metrics (`--trace 0`) or its per-layer ledger (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_didt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs every workload untraced and then traced and prints
//! every metric. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Output checks that fail
//! make the result incorrect and the exit code 1.

mod probe;
mod search;
mod workloads;

use gest_core::GestError;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{quantile, Round, Workload, WORKLOADS};

/// End-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("candidates_per_s", "1/s"),
    ("best_fitness", "fitness"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("run_latency_p50_s", "s"),
];

/// Per-layer metrics, from the traced rounds.
const PER_LAYER: [(&str, &str); 40] = [
    ("ga.breed_s", "s"),
    ("isa.materialize_s", "s"),
    ("sim.busy_s", "s"),
    ("sim.runs", "count"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.ns_per_instr", "ns"),
    ("sim.steady_hits", "count"),
    ("sim.extrapolated_iterations", "count"),
    ("eval.calls", "count"),
    ("eval.busy_s", "s"),
    ("eval.slot_utilization", "ratio"),
    ("eval.candidate_p50_ms", "ms"),
    ("eval.candidate_p99_ms", "ms"),
    ("evalcache.hits", "count"),
    ("evalcache.misses", "count"),
    ("evalcache.hit_ratio", "ratio"),
    ("evalcache.evictions", "count"),
    ("runner.step_s", "s"),
    ("runner.self_s", "s"),
    ("output.save_s", "s"),
    ("output.files", "count"),
    ("output.bytes", "B"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.resumes", "count"),
    ("surrogate.screened", "count"),
    ("surrogate.simulated", "count"),
    ("surrogate.screen_ratio", "ratio"),
    ("surrogate.spearman", "ratio"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.poll_p50_ms", "ms"),
    ("serve.activations", "count"),
    ("serve.evictions", "count"),
    ("serve.restarts", "count"),
    ("serve.registry_writes", "count"),
    ("serve.registry_write_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.trace_bytes", "B"),
];

/// Rounds each arm needs at least, even past `--seconds`.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (want 0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The outcome of measuring one workload in one mode.
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    /// Failed operations, out of `attempted`.
    failed: u64,
    failures: Vec<String>,
}

/// Compares every round with the first: outputs, best fitness and the
/// exact work counts must repeat bit for bit. A round that does not has
/// every one of its operations counted as failed.
fn check_rounds(rounds: &mut [(bool, Round)], schedule_dependent: &[&str]) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(((_, reference), rest)) = rounds.split_first_mut() else {
        return failures;
    };
    for (index, (traced, round)) in rest.iter_mut().enumerate() {
        let index = index + 1;
        let arm = if *traced { "traced" } else { "untraced" };
        let before = failures.len();
        if round.digest != reference.digest
            || round.best_fitness.to_bits() != reference.best_fitness.to_bits()
        {
            failures.push(format!(
                "round {index} ({arm}) outputs differ from round 0: best fitness {} vs {}",
                round.best_fitness, reference.best_fitness
            ));
        }
        for (name, value) in &round.work {
            if schedule_dependent.contains(name) {
                continue;
            }
            let expected = reference.work.get(name).copied().unwrap_or(0);
            if *value != expected {
                failures.push(format!(
                    "round {index} ({arm}) work count {name} = {value}, round 0 had {expected}"
                ));
            }
        }
        if failures.len() > before {
            round.failed = round.attempted;
        }
    }
    failures
}

fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Report, GestError> {
    std::fs::create_dir_all(work)?;
    let mut workload: Box<dyn Workload> = workloads::by_name(name, seed, work)
        .ok_or_else(|| GestError::Config(format!("unknown workload {name:?}")))?;
    // An untimed warm-up round: lazy set-up and allocator growth happen
    // here, and its outputs join the cross-round checks.
    let mut rounds = vec![(false, workload.round(work, 0, false)?)];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut timed: Vec<(bool, Round)> = Vec::new();
    loop {
        // Traced mode alternates the arms, so both see the same host.
        let traced = trace && timed.len() % 2 == 1;
        let round = workload.round(work, rounds.len() + timed.len(), traced)?;
        timed.push((traced, round));
        let arm_rounds = |arm: bool| timed.iter().filter(|(t, _)| *t == arm).count();
        let enough = arm_rounds(false) >= MIN_ROUNDS && (!trace || arm_rounds(true) >= MIN_ROUNDS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    rounds.extend(timed);
    let mut failures = check_rounds(&mut rounds, workload.schedule_dependent());
    let (mut attempted, mut failed) = (0, 0);
    for (_, round) in &rounds {
        attempted += round.attempted;
        failed += round.failed.min(round.attempted);
        failures.extend(round.failures.iter().cloned());
    }
    let timed = &rounds[1..];
    let untraced: Vec<&Round> = timed.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = timed.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let metrics = if trace {
        let wall = |rounds: &[&Round]| median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let overhead = wall(&traced) / wall(&untraced) - 1.0;
        PER_LAYER
            .iter()
            .map(|&(metric, unit)| {
                let value = if metric == "telemetry.overhead_ratio" {
                    overhead
                } else {
                    let values: Vec<f64> = traced
                        .iter()
                        .map(|r| r.layers.get(metric).copied().unwrap_or(0.0))
                        .collect();
                    median(&values)
                };
                (metric, unit, value)
            })
            .collect()
    } else {
        let setups: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
        let throughput: Vec<f64> = untraced
            .iter()
            .map(|r| r.candidates as f64 / r.wall_s)
            .collect();
        let latencies: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.latencies_s.iter().copied())
            .collect();
        END_TO_END
            .iter()
            .map(|&(metric, unit)| {
                let value = match metric {
                    "candidates_per_s" => median(&throughput),
                    "best_fitness" => rounds[0].1.best_fitness,
                    "setup_s" => median(&setups),
                    "peak_rss_mb" => {
                        median(&untraced.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>())
                    }
                    "ok_ratio" => 1.0 - failed as f64 / attempted.max(1) as f64,
                    "run_latency_p50_s" => median(&latencies),
                    _ => unreachable!("every end-to-end metric is computed"),
                };
                (metric, unit, value)
            })
            .collect()
    };
    if trace {
        purpose_checks(name, &traced);
    }
    eprintln!(
        "perfbench: {name} seed {seed}: {} timed round(s) ({} traced) after 1 warm-up",
        timed.len(),
        traced.len()
    );
    Ok(Report {
        metrics,
        attempted,
        failed,
        failures,
    })
}

/// Prints whether the traced rounds show what the workload was chosen
/// for (informational; the metrics are reported either way).
fn purpose_checks(name: &str, traced: &[&Round]) {
    let layer = |metric: &str| {
        median(
            &traced
                .iter()
                .map(|r| r.layers.get(metric).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let slots = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let sim_wall = layer("sim.busy_s") / slots;
    let (claim, holds) = match name {
        "cold_didt" => {
            let others = [
                layer("ga.breed_s"),
                layer("isa.materialize_s") / slots,
                layer("output.save_s"),
                layer("checkpoint.write_s"),
                layer("runner.self_s"),
            ];
            (
                "simulator time is the largest share of step time",
                others.iter().all(|&other| sim_wall > other),
            )
        }
        "serve_tenants" => ("the scheduler evicts runs", layer("serve.evictions") > 0.0),
        "screened_mix" => (
            "the surrogate screens candidates",
            layer("surrogate.screen_ratio") > 0.0,
        ),
        _ => return,
    };
    println!(
        "purpose {name}: {claim}: {}",
        if holds { "holds" } else { "DOES NOT HOLD" }
    );
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args, work: &Path) -> Result<bool, GestError> {
    let modes: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|&name| [(name, false), (name, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    let prefix = args.workload == "all";
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for (name, trace) in modes {
        let mode = if trace { "traced" } else { "untraced" };
        let report = measure(
            name,
            args.seed,
            args.seconds,
            trace,
            &work.join(name).join(mode),
        )?;
        for failure in &report.failures {
            eprintln!("perfbench: {name}: FAILED CHECK: {failure}");
        }
        for &(metric, unit, value) in &report.metrics {
            println!("{name:<20} {metric:<30} {value:>16.6} {unit}");
            let key = if prefix {
                format!("{name}/{metric}")
            } else {
                metric.to_string()
            };
            metrics.push((key, unit, value));
        }
        attempted += report.attempted;
        failed += report.failed;
        correct &= report.failures.is_empty();
    }
    let correct = correct && failed == 0;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    let root = Path::new(".perfbench_work");
    let work: PathBuf = root.join(std::process::id().to_string());
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Fails while another run still has its directory there.
    let _ = std::fs::remove_dir(root);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_telemetry::json::Value;

    /// The metric lists above are what `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Value::parse(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|metric| {
                    let field = |name: &str| {
                        metric
                            .get(name)
                            .and_then(Value::as_str)
                            .expect("metric field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(name, unit)| (name.to_string(), unit.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn quantiles_interpolate_between_neighbours() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert!((quantile(&[1.0, 2.0], 0.99) - 1.99).abs() < 1e-12);
    }
}
