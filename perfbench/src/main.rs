//! `perfbench --workload <so-adhoc|synth-wide|serve-mixed> --seed <n>
//! --seconds <s> --trace <0|1> [--spans-out <path>]`
//!
//! Runs one workload in this process and prints, one per line, the host
//! and build metadata, every metric by name with its unit, context notes
//! and any failed check; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Exits 1 when any check failed, 2 on
//! bad arguments.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use perfbench::{run, Metric, Options, Scale, Workload};

struct Args {
    opts: Options,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans-out" => spans_out = Some(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        opts: Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            scale: Scale::Full,
        },
        spans_out,
    })
}

/// First line of a command's standard output, or `unknown`. Git does not
/// look for a repository above the working directory, so a checkout that
/// is not a repository reports `unknown` rather than an enclosing one.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let above = cwd.parent().unwrap_or(&cwd).as_os_str().to_owned();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", causumx::json_escape(s))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"clients\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rows\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}}}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.workload.clients(),
        opts.seconds,
        opts.trace,
        opts.workload.size(opts.scale).rows,
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    );

    let mut outcome = run(opts);

    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let bad: Vec<&'static str> = outcome
        .end_to_end
        .iter()
        .chain(&outcome.per_layer)
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in bad {
        outcome.failed += 1;
        outcome
            .failures
            .push(format!("metric {name} is not finite"));
    }
    println!(
        "metric failed_frac {} ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for note in &outcome.notes {
        println!("note {note}");
    }
    for failure in &outcome.failures {
        println!("failure {failure}");
    }
    if let Some(path) = &args.spans_out {
        if opts.trace {
            match std::fs::write(path, &outcome.spans_jsonl) {
                Ok(()) => println!("note spans written to {path}"),
                Err(e) => eprintln!("perfbench: writing {path}: {e}"),
            }
        }
    }

    let correct = outcome.correct();
    let reported = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
