//! Generate synthetic Table 2 traces as Dinero `.din` files, and inspect
//! existing `.din` files.
//!
//! ```text
//! tracegen gen  <program|all> <out-dir> [--refs N] [--seed S]
//! tracegen info <file.din> [--limit N]
//! ```
//!
//! The `.din` output is the classic Dinero format the paper's Tracebase
//! traces used, so generated workloads can drive other cache simulators.
//! For the compact binary form, record a corpus with `repro trace record`.

use rampage_trace::io::{DinReader, DinWriter};
use rampage_trace::{profiles, TraceStats};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::str::FromStr;

const USAGE: &str = "usage:
  tracegen gen  <program|all> <out-dir> [--refs N] [--seed S]
  tracegen info <file.din> [--limit N]";

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Report a bad command line and exit 2 (1 is for a failed run).
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("tracegen: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Reject any `--flag` not in `known`.
fn check_flags(args: &[String], known: &[&str]) {
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        usage_error(format_args!("unknown flag {bad}"));
    }
}

/// The value of flag `name` parsed as `T`, or `default` when absent.
fn parsed_flag<T: FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(format_args!("bad {name} value {v:?}"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("tracegen: {e}");
        std::process::exit(1);
    }
}

fn cmd_gen(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (Some(program), Some(out_dir)) = (args.first(), args.get(1)) else {
        usage_error("gen needs a program and an output directory")
    };
    check_flags(args, &["--refs", "--seed"]);
    let refs: u64 = parsed_flag(args, "--refs", 1_000_000);
    let seed: u64 = parsed_flag(args, "--seed", 0x7a9e);
    if refs == 0 {
        usage_error("--refs must be at least 1");
    }

    let selected: Vec<_> = profiles::TABLE2
        .iter()
        .filter(|p| program == "all" || p.name == *program)
        .collect();
    if selected.is_empty() {
        usage_error(format_args!(
            "unknown program {program:?}; expected one of: all, {}",
            profiles::TABLE2
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    std::fs::create_dir_all(out_dir)?;

    for p in selected {
        // Scale each program so it contributes ~`refs` references.
        let scale = (((p.refs_millions * 1e6) as u64) / refs).max(1);
        let mut src = p.source(scale, seed);
        let path = format!("{out_dir}/{}.din", p.name);
        let mut w = DinWriter::new(BufWriter::new(File::create(&path)?));
        let written = rampage_trace::io::copy_din(&mut src, &mut w)?;
        w.finish()?;
        println!("{path}: {written} references");
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.first() else {
        usage_error("info needs a .din file")
    };
    check_flags(args, &["--limit"]);
    let limit: u64 = parsed_flag(args, "--limit", u64::MAX);

    let mut r = DinReader::new(BufReader::new(File::open(path)?));
    let stats = TraceStats::collect(&mut r, limit, 32, 4096);
    if let Some(e) = r.error() {
        return Err(format!("{e}").into());
    }

    let mix = stats.mix();
    println!("{path}:");
    println!("  references : {}", stats.total);
    println!(
        "  mix        : {:.1}% ifetch, {:.1}% read, {:.1}% write",
        100.0 * mix.ifetch,
        100.0 * mix.read,
        100.0 * mix.write
    );
    println!(
        "  footprint  : {} x 32 B blocks, {} x 4 KiB pages ({} KiB)",
        stats.unique_blocks,
        stats.unique_pages,
        stats.page_footprint_bytes(4096) / 1024
    );
    Ok(())
}
