//! Benchmark runner. One workload per process:
//!
//! ```text
//! perfbench --workload fl_mix|forest_churn|geo_gossip --seed N --seconds S
//!           --trace 0|1 [--out DIR]
//! ```
//!
//! Repeats set-up plus the workload's fixed simulated work until `S`
//! seconds have passed, checks every iteration's outputs, and prints a
//! metric table followed by one JSON result line. `--trace 1` spends half
//! the budget untraced and half traced, and reports per-layer metrics.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use totoro_perfbench::report::{
    median, peak_rss_mb, percentile, Iteration, END_TO_END, LAYERS, RESULT_E2E,
};
use totoro_perfbench::trace::Tracer;
use totoro_perfbench::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

const USAGE: &str = "usage: perfbench --workload fl_mix|forest_churn|geo_gossip --seed N \
--seconds S --trace 0|1 [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = "perfbench/out".to_string();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--out" => out = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// What a measurement loop produced.
struct Measured {
    iters: Vec<Iteration>,
    /// The tracer of the last iteration, for the trace file.
    tracer: Tracer,
    /// Peak RSS after the first iteration: one set-up plus run in a fresh
    /// process, before later iterations add allocator fragmentation.
    first_peak_rss_mb: f64,
}

/// Iterations until `budget` has passed (at least `min`).
fn measure(args: &Args, traced: bool, budget: Duration, min: usize) -> Measured {
    let start = Instant::now();
    let mut iters = Vec::new();
    let mut first_peak_rss_mb = 0.0;
    loop {
        let mut tracer = Tracer::new(traced);
        let it = tracer.span("iteration", |t| args.workload.iterate(args.seed, false, t));
        if iters.is_empty() {
            first_peak_rss_mb = peak_rss_mb();
        }
        iters.push(it);
        if iters.len() >= min && start.elapsed() >= budget {
            return Measured {
                iters,
                tracer,
                first_peak_rss_mb,
            };
        }
    }
}

/// Every gate passed and every iteration repeated the first one's
/// simulated outcome exactly.
fn check(iters: &[Iteration]) -> Result<(), String> {
    let first = &iters[0];
    let keys: Vec<&str> = first.layers.keys().copied().collect();
    let want = first.fingerprint(&keys);
    for (i, it) in iters.iter().enumerate() {
        if let Some(problem) = &it.problem {
            return Err(format!("iteration {i}: {problem}"));
        }
        if it.fingerprint(&keys) != want {
            return Err(format!(
                "iteration {i} differs from iteration 0 for one seed:\n  {}\n  {want}",
                it.fingerprint(&keys)
            ));
        }
    }
    Ok(())
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn result_line(ok: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let (untraced, traced) = if args.trace {
        let u = measure(&args, false, budget / 2, 2);
        let t = measure(&args, true, budget / 2, 2);
        (u, Some((t.iters, t.tracer)))
    } else {
        (measure(&args, false, budget, 3), None)
    };
    let peak_rss = untraced.first_peak_rss_mb;
    let untraced = untraced.iters;

    let mut all: Vec<Iteration> = untraced.clone();
    if let Some((t, _)) = &traced {
        all.extend(t.iter().cloned());
    }
    let attempted: u64 = all.iter().map(|i| i.attempted).sum();
    let failed: u64 = all.iter().map(|i| i.failed).sum();
    let w = args.workload;
    println!(
        "# perfbench {} seed={} ({}), closed batch job, one main thread{}",
        w.name(),
        args.seed,
        w.describe(),
        if w == Workload::GeoGossip {
            " + 2 shard workers"
        } else {
            ""
        },
    );
    println!(
        "# host parallelism {}, {} untraced iterations{}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        untraced.len(),
        traced
            .as_ref()
            .map_or(String::new(), |(t, _)| format!(", {} traced", t.len())),
    );
    if let Err(e) = check(&all) {
        eprintln!("perfbench: {} failed its correctness check: {e}", w.name());
        println!("{}", result_line(false, attempted, failed, &[]));
        return ExitCode::from(1);
    }

    // End-to-end metrics, host ones from untraced iterations only.
    let setup: Vec<f64> = untraced.iter().map(|i| i.setup_s).collect();
    let run: Vec<f64> = untraced.iter().map(|i| i.run_s).collect();
    // Slice percentiles per iteration, then the median over iterations:
    // a burst of host contention then moves one iteration's value, not
    // the whole pooled tail.
    let slice_pct = |p: f64| -> Vec<f64> {
        untraced
            .iter()
            .map(|i| percentile(&i.slices_ms, p))
            .collect()
    };
    let (slice_p50, slice_p90) = (slice_pct(50.0), slice_pct(90.0));
    let slices_per_iteration = untraced[0].slices_ms.len();
    let first = &untraced[0];
    let host = |name: &str| -> Option<(f64, String)> {
        let n = untraced.len();
        Some(match name {
            "setup_s" => (median(&setup), format!("median of {n} iterations")),
            "run_s" => (median(&run), format!("median of {n} iterations")),
            "slice_ms_p50" | "slice_ms_p90" => (
                median(if name == "slice_ms_p50" {
                    &slice_p50
                } else {
                    &slice_p90
                }),
                format!(
                    "median of {n} iterations of {slices_per_iteration} slices of {}",
                    w.slice()
                ),
            ),
            "peak_rss_mb" => (peak_rss, "VmHWM after the first iteration".to_string()),
            "fail_share" => (
                failed as f64 / attempted.max(1) as f64,
                format!("{failed} of {attempted} operations"),
            ),
            _ => return None,
        })
    };
    println!(
        "{:<20} {:>16} {:<6} {:<7} source",
        "metric", "value", "unit", "better"
    );
    for m in END_TO_END {
        let (value, source) = match host(m.name) {
            Some((v, s)) => (format!("{v:.6}"), format!("host: {s}")),
            None => match first.modelled.get(m.name) {
                Some(v) => (
                    format!("{v:.6}"),
                    "modelled, exact for the seed".to_string(),
                ),
                None => (
                    "n/a".to_string(),
                    "not defined for this workload".to_string(),
                ),
            },
        };
        println!(
            "{:<20} {value:>16} {:<6} {:<7} {source}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    println!("{:<20} {:>16x}", "digest", first.digest);
    let listed: Vec<String> = untraced
        .iter()
        .map(|i| format!("{:.4}/{:.4}", i.setup_s, i.run_s))
        .collect();
    println!(
        "# setup_s/run_s per untraced iteration: {}",
        listed.join(" ")
    );

    let Some((traced, tracer)) = traced else {
        let metrics: Vec<(&str, &str, f64)> = RESULT_E2E
            .iter()
            .map(|name| {
                let m = END_TO_END
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("catalogued");
                (m.name, m.unit, host(name).expect("host metric").0)
            })
            .collect();
        println!("{}", result_line(true, attempted, failed, &metrics));
        return ExitCode::SUCCESS;
    };

    // Per-layer metrics from the traced iterations.
    let traced_run: Vec<f64> = traced.iter().map(|i| i.run_s).collect();
    let overhead = (median(&traced_run) - median(&run)) / median(&run);
    let layer = |name: &str| -> Option<f64> {
        if name == "trace.overhead" {
            return Some(overhead);
        }
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|i| i.layers.get(name).copied())
            .collect();
        (!values.is_empty()).then(|| median(&values))
    };
    println!();
    println!(
        "{:<28} {:>16} {:<6} should move",
        "per-layer metric", "value", "unit"
    );
    for m in LAYERS {
        let value = layer(m.name).map_or("bypassed".to_string(), |v| format!("{v:.6}"));
        println!("{:<28} {value:>16} {:<6} {}", m.name, m.unit, m.moves);
    }
    println!("# ml.probe_share is derived: probe time x calls over run_s, until spans exist inside the program");

    let path = format!("{}/trace-{}-seed{}.json", args.out, w.name(), args.seed);
    let mut body = String::from("{\"per_layer\":{");
    for (i, m) in LAYERS.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{}\":{}",
            m.name,
            json_number(layer(m.name).unwrap_or(0.0))
        );
    }
    let _ = write!(body, "}},\"last_iteration\":{}}}", tracer.to_json());
    match std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("# spans and counter snapshots: {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }

    let metrics: Vec<(&str, &str, f64)> = LAYERS
        .iter()
        .filter(|m| m.result)
        .map(|m| (m.name, m.unit, layer(m.name).unwrap_or(0.0)))
        .collect();
    println!("{}", result_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
