//! `perfbench --workload <browse|navigate|checkout> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Before it come a run
//! stamp and the run's seed-exact counts; per-class latencies (and, traced,
//! the per-layer self-time table) go to stderr.
//! A traced run also writes the spans of its first actions to
//! `perfbench/out/spans-<workload>-<seed>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, Config, Report};
use perfbench::workload::Workload;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <browse|navigate|checkout> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

/// The commit the checkout was made from, if it carries git metadata.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// A JSON number with every digit the measurement has (non-finite → 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let mut cfg = Config::new(workload, seed);
    cfg.seconds = seconds;
    cfg.trace = trace;
    if trace {
        cfg.spans_out = Some(PathBuf::from(format!(
            "perfbench/out/spans-{}-{seed}.tsv",
            workload.name()
        )));
    }

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("perfbench: WRONG OUTPUT: {e}");
    }
    for (class, (n, [p10, p50, p90])) in &report.classes {
        eprintln!(
            "perfbench: class {class:<12} n={n:<7} p10={p10:.1}us p50={p50:.1}us p90={p90:.1}us"
        );
    }
    if !report.layers.is_empty() {
        let total: f64 = report.layers.iter().map(|(_, v)| v).sum();
        for (span, us) in &report.layers {
            eprintln!(
                "perfbench: layer {span:<20} {us:>10.2} us/action {:>6.2}%",
                100.0 * us / total.max(1e-12)
            );
        }
    }
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    println!(
        "# perfbench rev={} nproc={nproc} workload={} seed={seed} trace={} rounds={} round_actions={} attempted={} failed={}",
        git_rev(),
        workload.name(),
        u8::from(trace),
        report.rounds,
        report.round_len,
        report.attempted,
        report.failed
    );
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    println!("# counts {{{}}}", counts.join(", "));
    println!("{}", json_result(&report));
    ExitCode::SUCCESS
}
