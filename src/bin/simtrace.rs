//! Simulate externally supplied trace files (Dinero `.din` text or `.rct`
//! corpus shards) on any of the paper's systems — one process per file.
//!
//! ```text
//! simtrace [--system dm|2way|rampage|rampage-switch] [--unit BYTES]
//!          [--mhz N] [--quantum N] <trace-file>...
//! ```
//!
//! This closes the loop with the paper's methodology: where the original
//! Tracebase `.din` traces (or any other Dinero traces) are available,
//! they can drive this simulator directly in place of the synthetic
//! workload. A file that cannot be read to its end (a malformed `.din`
//! line, a quarantined corpus block) fails the run with exit code 1; a
//! bad flag exits 2.

use rampage_core::prelude::*;
use rampage_trace::corpus::CorpusReader;
use rampage_trace::io::DinReader;
use rampage_trace::TraceSource;
use std::fs::File;
use std::io::BufReader;
use std::str::FromStr;

const USAGE: &str = "usage: simtrace [--system dm|2way|rampage|rampage-switch] \
[--unit BYTES] [--mhz N] [--quantum N] <trace-file>...";

/// One trace file as a source named after it: a `.rct` corpus shard, or
/// Dinero `.din` text otherwise.
fn open(path: &str) -> Result<Box<dyn TraceSource + Send>, Box<dyn std::error::Error>> {
    let name = path.rsplit('/').next().unwrap_or(path);
    Ok(if path.ends_with(".rct") {
        Box::new(CorpusReader::open(path)?.with_name(name))
    } else {
        Box::new(DinReader::new(BufReader::new(File::open(path)?)).with_name(name))
    })
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Report a bad command line and exit 2 (1 is for a failed run).
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("simtrace: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value of flag `name` parsed as `T`, or `default` when absent.
fn parsed_flag<T: FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(format_args!("bad {name} value {v:?}"))),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("simtrace: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let system = flag(&args, "--system").unwrap_or_else(|| "rampage".into());
    let unit: u64 = parsed_flag(&args, "--unit", 1024);
    let mhz: u32 = parsed_flag(&args, "--mhz", 1000);
    let quantum: u64 = parsed_flag(&args, "--quantum", 500_000);

    // Positional arguments = trace files (skip flags and their values).
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            files.push(args[i].clone());
            i += 1;
        }
    }
    if files.is_empty() {
        usage_error("no trace files");
    }

    let issue = IssueRate::try_from_mhz(mhz).unwrap_or_else(|e| usage_error(e));
    // The RAMpage presets panic on a bad page size; screen it first.
    let page = |unit| match RampageConfig::try_paper(unit) {
        Ok(_) => unit,
        Err(e) => usage_error(e),
    };
    let mut cfg = match system.as_str() {
        "dm" => SystemConfig::baseline(issue, unit),
        "2way" => SystemConfig::two_way(issue, unit),
        "rampage" => SystemConfig::rampage(issue, page(unit)),
        "rampage-switch" => SystemConfig::rampage_switching(issue, page(unit)),
        other => usage_error(format_args!("unknown system {other:?}")),
    };
    cfg.quantum = quantum;
    // The same gate the sweep runner applies to every cell.
    if let Err(e) = cfg.validate() {
        usage_error(e);
    }

    let sources = files
        .iter()
        .map(|path| open(path).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;

    eprintln!(
        "# {} on {} trace file(s), {} B unit, {}",
        cfg.label(),
        files.len(),
        unit,
        issue
    );
    let out = Engine::new(&cfg, sources).run();

    // A file that could not be read to its end fails the run: its
    // numbers would describe a different trace.
    let mut failed = false;
    for (path, p) in files.iter().zip(&out.per_process) {
        for problem in &p.problems {
            eprintln!("simtrace: {path}: {problem}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }

    println!("simulated time : {:.6} s", out.seconds);
    println!("metrics        : {}", out.metrics);
    for p in &out.per_process {
        println!(
            "  {:<16} {:>10} refs  {:>12} stall cycles  {} blocked faults",
            p.name, p.refs, p.stall_cycles, p.faults_blocked
        );
    }
    Ok(())
}
