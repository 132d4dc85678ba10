//! `ladder` — the cost-ladder benchmark: five taxonomist workloads end to
//! end, every layer priced from outside. See `bench/README.md`.
//!
//! ```text
//! ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload; last line is the driver's JSON
//! ladder [--seed n] [--seconds s] [--trace 1]                       all five workloads, a process each
//! ladder --smoke [--trace 1]                                        all five at tiny size, asserted correct
//! ladder --repeat N --workload <name> [...]                         N runs; median, quartiles and spread per metric
//! ladder --workload <name> --out file.json                          also write the full record as JSON
//! ```

mod flora;
mod harness;
mod json;
mod ladder;
mod measure;
mod queries;
mod report;
mod rng;
mod spans;
mod stats;
mod wire;
mod workloads;

use json::Json;
use report::{Config, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Default length of a time-bound measured phase; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    cfg: Config,
    repeat: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: Config {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
        },
        repeat: 1,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.cfg.seed = value("a number")?.parse().map_err(harness::err)?,
            "--seconds" => args.cfg.seconds = value("a number")?.parse().map_err(harness::err)?,
            "--trace" => args.cfg.traced = value("0 or 1")? == "1",
            "--repeat" => args.repeat = value("a count")?.parse().map_err(harness::err)?,
            "--out" => args.out = Some(value("a file")?),
            "--smoke" => args.cfg.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload '{name}' (one of {WORKLOADS:?})"));
        }
    }
    if args.cfg.smoke {
        args.cfg.seconds = args.cfg.seconds.min(0.3);
    }
    if args.workload.is_none() && (args.repeat > 1 || args.out.is_some()) {
        return Err("--repeat and --out need --workload".into());
    }
    Ok(args)
}

/// The conditions a run was made under, recorded with every result.
fn conditions(cfg: &Config) -> Json {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    Json::obj()
        .field(
            "cores",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .field("commit", env("LADDER_COMMIT"))
        .field("rustc", env("LADDER_RUSTC"))
        .field("seed", cfg.seed)
        .field("seconds", cfg.seconds)
        .field("traced", cfg.traced)
        .field("smoke", cfg.smoke)
        .field("sync_on_commit", harness::SYNC_ON_COMMIT)
        .field("clients_max", harness::CLIENTS)
        .field(
            "server_config",
            "default (blocking transport, 1 shard, recorder on)",
        )
}

/// This executable, asked for one workload. Every workload runs in a
/// process of its own — as the driver runs them — because `rss_peak_mb` is the
/// process' high-water mark and would carry over from one workload to the
/// next.
fn one_workload(name: &str, cfg: &Config) -> Result<std::process::Command, String> {
    let mut run = std::process::Command::new(std::env::current_exe().map_err(harness::err)?);
    run.args(["--workload", name, "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.traced { "1" } else { "0" }]);
    if cfg.smoke {
        run.arg("--smoke");
    }
    Ok(run)
}

/// One metric line of a report, as [`Report::print`] writes it: two spaces,
/// the name, the value, the unit.
fn parse_metric_line(line: &str) -> Option<(String, f64)> {
    let mut words = line.strip_prefix("  ")?.split_whitespace();
    let name = words.next()?;
    let value = words.next()?.parse().ok()?;
    words.next()?;
    Some((name.to_string(), value))
}

/// `--repeat`: the same workload N times on the same build, each run a
/// process of its own (as the driver runs them) with the next seed; per
/// metric the median, the quartiles and the spread (interquartile range over
/// median) that the acceptance check compares with the metric's bound.
fn repeat(name: &str, args: &Args) -> Result<bool, String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut order = Vec::new();
    let mut correct = true;
    for i in 0..args.repeat {
        let seed = args.cfg.seed + i as u64;
        let run = one_workload(name, &Config { seed, ..args.cfg })?
            .output()
            .map_err(harness::err)?;
        let text = String::from_utf8_lossy(&run.stdout);
        for line in text.lines().filter(|l| l.contains("PROBLEM")) {
            println!("run {i}: {}", line.trim());
        }
        correct &= run.status.success();
        for (metric, value) in text.lines().filter_map(parse_metric_line) {
            if !values.contains_key(&metric) {
                order.push(metric.clone());
            }
            values.entry(metric).or_default().push(value);
        }
        println!("run {i} (seed {seed}): {}", run.status);
    }
    println!(
        "== {name}: {} runs, seeds {}.. ==",
        args.repeat, args.cfg.seed
    );
    println!(
        "  {:<44} {:>14} {:>14} {:>14} {:>9}",
        "metric", "q1", "median", "q3", "spread"
    );
    let mut rows = Vec::new();
    for metric in order {
        let mut v = values.remove(&metric).unwrap_or_default();
        stats::sort(&mut v);
        let Some([q1, q2, q3]) = stats::quartiles(&v) else {
            continue;
        };
        let spread = stats::spread(&v).unwrap_or(0.0);
        println!("  {metric:<44} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>9.4}");
        rows.push(
            Json::obj()
                .field("metric", metric)
                .field("q1", q1)
                .field("median", q2)
                .field("q3", q3)
                .field("spread", spread)
                .field("values", v.into_iter().map(Json::Num).collect::<Vec<_>>()),
        );
    }
    if let Some(out) = &args.out {
        let doc = Json::obj()
            .field("conditions", conditions(&args.cfg))
            .field("workload", name)
            .field("runs", args.repeat)
            .field("metrics", rows);
        std::fs::write(out, doc.render() + "\n").map_err(harness::err)?;
    }
    Ok(correct)
}

fn main_inner() -> Result<bool, String> {
    let args = parse_args()?;
    println!("conditions: {}", conditions(&args.cfg).render());
    if args.repeat > 1 {
        let name = args.workload.as_deref().expect("checked by parse_args");
        return repeat(name, &args);
    }
    let Some(name) = &args.workload else {
        // All five, one process each; their reports go straight to our output.
        let mut correct = true;
        for name in WORKLOADS {
            let status = one_workload(name, &args.cfg)?
                .status()
                .map_err(harness::err)?;
            correct &= status.success();
        }
        println!("{}", if correct { "all correct" } else { "INCORRECT" });
        return Ok(correct);
    };
    let report = workloads::run(name, &args.cfg)?;
    report.print();
    if let Some(out) = &args.out {
        let doc = Json::obj()
            .field("conditions", conditions(&args.cfg))
            .field("report", report.to_json());
        std::fs::write(out, doc.render() + "\n").map_err(harness::err)?;
    }
    // The last line is the driver's.
    println!("{}", report.driver_line(args.cfg.traced).render());
    Ok(report.correct())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ladder: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` size: every workload, traced, correct, in seconds.
    #[test]
    fn smoke_runs_every_workload_correctly() {
        let cfg = Config {
            seed: 7,
            seconds: 0.3,
            traced: true,
            smoke: true,
        };
        for name in WORKLOADS {
            let began = std::time::Instant::now();
            let report = workloads::run(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.correct(), "{name}: {:?}", report.problems);
            assert!(report.attempted > 0, "{name} attempted nothing");
            for (metric, _) in report::END_TO_END {
                let m = report
                    .end_to_end
                    .iter()
                    .find(|m| m.name == metric)
                    .unwrap_or_else(|| panic!("{name} lacks {metric}"));
                assert!(m.value > 0.0, "{name}: {metric} is {}", m.value);
            }
            for m in &report.per_layer {
                assert!(
                    report::PER_LAYER.iter().any(|(n, _)| *n == m.name),
                    "{name} reports unlisted {}",
                    m.name
                );
            }
            assert!(
                began.elapsed().as_secs_f64() < 10.0,
                "{name} smoke took {:?}",
                began.elapsed()
            );
        }
    }
}
