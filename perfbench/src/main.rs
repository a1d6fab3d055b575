//! End-to-end and per-layer benchmark of the TensorDIMM serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <node_warm|cluster_faults|cluster_cold> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload from fresh state until `--seconds`
//! have passed (at least [`MIN_REPS`] times) and reports the end-to-end
//! metrics: host times as the median over repetitions, modeled metrics
//! (which must repeat bit for bit) as measured. `--trace 1` repeats a
//! traced repetition instead and reports the per-layer metrics; it writes
//! the last repetition's spans and per-layer self times to
//! `.bench_traces/<workload>-seed<seed>.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `attempted` counts
//! repetitions; one whose simulation errors or fails a check is `failed`,
//! makes `correct` false and the exit code 1. See
//! `perfbench/WORKLOADS.md` for why each workload exists.

mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use traced::{Nature, TracedRep, PER_LAYER};
use workloads::{median, Kind, Modeled, Rep};

/// Fewest repetitions a run makes, however long they take: the reported
/// host times are medians, and a median of fewer is one sample.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Process high-water resident set size, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Repeat `rep` until `seconds` have passed and at least [`MIN_REPS`]
/// repetitions ran. `attempted` counts repetitions started.
fn repeat<T>(
    seconds: u64,
    attempted: &mut u64,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < budget {
        *attempted += 1;
        out.push(rep()?);
    }
    Ok(out)
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn end_to_end(args: &Args, attempted: &mut u64) -> Result<Metrics, String> {
    let reps: Vec<Rep> = repeat(args.seconds, attempted, || {
        workloads::run_rep(args.kind, args.seed)
    })?;
    let first: Modeled = reps[0].modeled;
    if let Some(i) = reps.iter().position(|r| !r.modeled.bit_identical(&first)) {
        return Err(format!(
            "repetition {i} modeled {:?}, repetition 0 modeled {first:?}",
            reps[i].modeled
        ));
    }
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    eprintln!("setup_s per repetition: {setup:?}");
    eprintln!("run_s per repetition:   {run:?}");
    println!(
        "{} seed {}: {} repetitions; p99 over {} completed of {} arrived requests",
        args.kind.name(),
        args.seed,
        reps.len(),
        first.completed,
        first.arrived
    );
    Ok(vec![
        ("setup_s", "s", median(&setup)),
        ("run_s", "s", median(&run)),
        ("peak_rss_mb", "MB", peak_rss_mb()?),
        ("sim_p50_us", "us", first.p50_us),
        ("sim_p99_us", "us", first.p99_us),
        ("availability", "fraction", first.availability),
        ("goodput_qps", "1/s", first.goodput_qps),
    ])
}

fn per_layer(args: &Args, attempted: &mut u64) -> Result<Metrics, String> {
    let reps: Vec<TracedRep> = repeat(args.seconds, attempted, || {
        traced::traced_rep(args.kind, args.seed)
    })?;
    let mut metrics = Vec::new();
    for &(name, unit, nature) in PER_LAYER {
        let values: Vec<f64> = reps
            .iter()
            .map(|r| {
                r.layers
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("no value for {name}"))
            })
            .collect::<Result<_, _>>()?;
        let value = match nature {
            Nature::Host => median(&values),
            Nature::Exact => {
                if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    return Err(format!("{name} differs between repetitions: {values:?}"));
                }
                values[0]
            }
        };
        metrics.push((name, unit, value));
    }
    let untraced: Vec<f64> = reps.iter().map(|r| r.untraced_run_s).collect();
    let traced: Vec<f64> = reps.iter().map(|r| r.traced_run_s).collect();
    println!(
        "{} seed {}: {} traced repetitions; median run_s untraced {:.4} s, traced {:.4} s \
         (trace.overhead_s is their per-repetition difference)",
        args.kind.name(),
        args.seed,
        reps.len(),
        median(&untraced),
        median(&traced)
    );
    let last = reps.last().expect("at least one repetition");
    println!("self time per span name (last repetition):");
    for (name, s) in &last.self_times_s {
        println!("  {name:<24} {s:.6} s");
    }
    write_trace(args, last, &metrics)?;
    Ok(metrics)
}

/// JSON number: every finite `f64` prints in its shortest round-trip form.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("metric value {v} is not finite"))
    }
}

fn metrics_json(metrics: &Metrics) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = json_number(*value)?;
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push('}');
    Ok(out)
}

/// Write the last traced repetition's spans, self times and the per-layer
/// metrics under `.bench_traces/` in the working directory.
fn write_trace(args: &Args, rep: &TracedRep, metrics: &Metrics) -> Result<(), String> {
    let mut out = String::new();
    writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {},",
        args.kind.name(),
        args.seed
    )
    .expect("writing to a String cannot fail");
    out.push_str("\"spans\": [\n");
    for (i, s) in rep.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 < rep.spans.len() { "," } else { "" };
        writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
            s.name, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("],\n\"self_s\": {");
    for (i, (name, s)) in rep.self_times_s.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(out, "{sep}\"{name}\": {}", json_number(*s)?)
            .expect("writing to a String cannot fail");
    }
    writeln!(out, "}},\n\"metrics\": {}}}", metrics_json(metrics)?)
        .expect("writing to a String cannot fail");
    let dir = std::path::Path::new(".bench_traces");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.kind.name(), args.seed));
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut attempted = 0u64;
    let result = if args.trace {
        per_layer(&args, &mut attempted)
    } else {
        end_to_end(&args, &mut attempted)
    }
    .and_then(|m| {
        for (name, unit, value) in &m {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        metrics_json(&m)
    });
    match result {
        Ok(json) => println!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {json}}}"
        ),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": 1, \"metrics\": {{}}}}",
                attempted.max(1)
            );
            std::process::exit(1);
        }
    }
}
