//! `ledger`: run one benchmark workload and print its metrics, or compare
//! two sets of runs.
//!
//! ```text
//! ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ledger trace --workload <name> [--seed N] [--seconds S]
//! ledger compare <old> <new>
//! ```
//!
//! `run` prints every end-to-end metric as `name value unit`, then a
//! one-line JSON summary; `trace` (or `run --trace 1`) does the same for
//! the per-layer metrics and writes its spans. Exit status: 0 when every
//! check passed, 1 when one failed or the run could not finish, 2 for a
//! usage error. Scratch files live under `$CARGO_TARGET_DIR/ledger`
//! (default `target/ledger`) and are removed at exit, except the spans.

use rampage_ledger::measure::{self, Options, Outcome};
use rampage_ledger::report::{compare, render, BENCHMARK_JSON};
use rampage_ledger::workload::{Kind, Size, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       ledger trace --workload <name> [--seed N] [--seconds S]
       ledger compare <old> <new>
workloads: grid_synth, solo_corpus, paging_switch, sweep_journaled";

/// Seconds of measured repetitions when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

fn usage(why: &str) -> ExitCode {
    eprintln!("ledger: {why}\n{USAGE}");
    ExitCode::from(2)
}

struct RunArgs {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut kind = None;
    let mut parsed = RunArgs {
        kind: Kind::GridSynth,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" if !trace => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.kind = kind.ok_or("--workload is required")?;
    Ok(parsed)
}

fn ledger_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("ledger")
}

fn report(outcome: &Outcome) -> ExitCode {
    print!(
        "{}",
        render(&outcome.checks, &outcome.metrics, &outcome.counts)
    );
    for note in &outcome.checks.notes {
        eprintln!("ledger: check failed: {note}");
    }
    if outcome.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run(args: RunArgs) -> Result<ExitCode, String> {
    let base = ledger_dir();
    let opts = Options {
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds,
        size: Size::Full,
        scratch: base.join(format!("tmp-{}", std::process::id())),
    };
    println!(
        "# ledger run: workload {}, seed {}, {} s, trace {}, nproc {}",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let result = if args.trace {
        measure::trace(&opts).and_then(|traced| {
            let spans = base.join(format!("{}-spans.json", opts.kind.name()));
            let doc = traced.tracer.to_json(opts.kind.name(), opts.seed).compact();
            std::fs::write(&spans, doc).map_err(|e| format!("{}: {e}", spans.display()))?;
            if let Some(table) = &traced.programs {
                let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
                let path = dir.join("programs.md");
                std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, table))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            Ok(traced.outcome)
        })
    } else {
        measure::run(&opts)
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    Ok(report(&result?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..], false) {
            Ok(a) => run(a),
            Err(e) => return usage(&e),
        },
        Some("trace") => match parse_run(&args[1..], true) {
            Ok(a) => run(a),
            Err(e) => return usage(&e),
        },
        Some("compare") => match &args[1..] {
            [old, new] => {
                let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
                read(old).and_then(|o| {
                    let (table, regressed) = compare(&o, &read(new)?, BENCHMARK_JSON)?;
                    print!("{table}");
                    Ok(ExitCode::from(u8::from(regressed)))
                })
            }
            _ => return usage("compare takes two files"),
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => return usage("expected run, trace or compare"),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(1)
    })
}
