//! `davix-simfuzz` — run seeded whole-federation fault-injection scenarios.
//!
//! ```text
//! davix-simfuzz --seed 42                        # one seed
//! davix-simfuzz --seeds-file crates/sim-fuzz/seeds.txt --fresh 4 --base 12345
//! davix-simfuzz --seed 7 --canary eager-commit   # prove the harness catches bugs
//! davix-simfuzz --seed 7 --canary unsync-metric  # ditto for the race-detect sanitizer
//! davix-simfuzz --seeds-file crates/sim-fuzz/seeds.txt --trace out.jsonl
//! ```
//!
//! Every failure prints `FAIL seed=<u64> plan=<fingerprint> ...` — feeding
//! that seed back via `--seed` replays the run bit-identically.
//!
//! `--trace PATH` writes the virtual-time event trace of every seed run,
//! passing or failing, to one JSONL file (one event per line, tagged with
//! its `"seed"`). Traces are a pure function of the seed and the code, so
//! diffing the corpus traces of two builds shows whether a change altered
//! any exchange on the simulated wire.

use sim_fuzz::{run_one, Canary, FuzzConfig};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

struct Args {
    seeds: Vec<u64>,
    seeds_file: Option<String>,
    fresh: usize,
    base: Option<u64>,
    ops: Option<usize>,
    canary: Canary,
    trace: Option<String>,
    github_annotations: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: davix-simfuzz [--seed N]... [--seeds-file F] [--fresh N [--base B]]\n\
         \x20                    [--ops N] [--canary eager-commit|unsync-metric] [--trace PATH]\n\
         \x20                    [--github-annotations]\n\n\
         \x20 --trace PATH  write the virtual-time event trace of every seed, passing\n\
         \x20               or failing, to PATH as JSONL (each line tagged \"seed\")"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: Vec::new(),
        seeds_file: None,
        fresh: 0,
        base: None,
        ops: None,
        canary: Canary::None,
        trace: None,
        github_annotations: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--seed" => match val("--seed").parse() {
                Ok(s) => args.seeds.push(s),
                Err(_) => usage(),
            },
            "--seeds-file" => args.seeds_file = Some(val("--seeds-file")),
            "--fresh" => args.fresh = val("--fresh").parse().unwrap_or_else(|_| usage()),
            "--base" => args.base = Some(val("--base").parse().unwrap_or_else(|_| usage())),
            "--ops" => args.ops = Some(val("--ops").parse().unwrap_or_else(|_| usage())),
            "--canary" => match val("--canary").as_str() {
                "eager-commit" => args.canary = Canary::EagerSegmentCommit,
                "unsync-metric" => {
                    if !netsim::race::enabled() {
                        eprintln!(
                            "--canary unsync-metric needs the race detector: rebuild with \
                             --features davix-repro/race-detect"
                        );
                        std::process::exit(2);
                    }
                    args.canary = Canary::UnsyncMetric;
                }
                "none" => args.canary = Canary::None,
                other => {
                    eprintln!("unknown canary {other:?} (try: eager-commit, unsync-metric)");
                    usage()
                }
            },
            "--trace" => args.trace = Some(val("--trace")),
            "--github-annotations" => args.github_annotations = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    args
}

fn read_seeds_file(path: &str) -> Vec<u64> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read seeds file {path}: {e}");
        std::process::exit(2);
    });
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.parse().unwrap_or_else(|_| {
                eprintln!("bad seed line in {path}: {l:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// Derive `n` fresh seeds from a base (e.g. the CI run id), through the same
/// splittable stream construction the engine uses, so CI explores new
/// schedules every run while remaining reproducible from the printed seeds.
fn fresh_seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| netsim::SplitRng::at(base, 0x5eed, i).next_u64()).collect()
}

fn write_trace(
    out: &mut impl Write,
    seed: u64,
    trace: &[(std::time::Duration, String)],
) -> std::io::Result<()> {
    for (t, ev) in trace {
        writeln!(out, "{{\"seed\":{seed},\"t_ns\":{},\"event\":{:?}}}", t.as_nanos(), ev)?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut seeds = args.seeds.clone();
    if let Some(f) = &args.seeds_file {
        seeds.extend(read_seeds_file(f));
    }
    if args.fresh > 0 {
        let base = args.base.unwrap_or_else(|| {
            // The ONE sanctioned wall-clock read in the workspace's
            // determinism story: entropy for fresh seeds at the CLI entry
            // point. Everything downstream is a pure function of the seed.
            // davix-lint: allow(determinism) — fresh-seed entropy at the CLI seed entry point
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xdeadbeef)
        });
        seeds.extend(fresh_seeds(base, args.fresh));
    }
    if seeds.is_empty() {
        eprintln!("no seeds given (use --seed, --seeds-file or --fresh)");
        usage();
    }

    let mut trace_out = args.trace.as_ref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {path}: {e}");
            std::process::exit(2);
        });
        std::io::BufWriter::new(file)
    });
    let mut failures = 0usize;
    for seed in seeds {
        let mut cfg = FuzzConfig { seed, canary: args.canary, ..Default::default() };
        if let Some(ops) = args.ops {
            cfg.ops = ops;
        }
        let fingerprint = cfg.plan.fingerprint(seed);
        match catch_unwind(AssertUnwindSafe(|| run_one(&cfg))) {
            Ok(report) => {
                if let (Some(out), Some(path)) = (trace_out.as_mut(), &args.trace) {
                    if let Err(e) = write_trace(out, report.seed, &report.trace) {
                        eprintln!("cannot write trace {path}: {e}");
                    }
                }
                if report.passed() {
                    println!("ok   {}", report.summary());
                } else {
                    failures += 1;
                    for v in &report.violations {
                        println!(
                            "FAIL seed={} plan={:016x} invariant={} — {}",
                            report.seed, report.fingerprint, v.invariant, v.detail
                        );
                        if args.github_annotations {
                            println!(
                                "::error title=sim-fuzz failure::seed={} plan={:016x} \
                                 invariant={} — {} (repro: davix-simfuzz --seed {})",
                                report.seed, report.fingerprint, v.invariant, v.detail, report.seed
                            );
                        }
                    }
                    println!("     repro: davix-simfuzz --seed {}", report.seed);
                    if let Some(path) = &args.trace {
                        println!(
                            "     trace: {path} (seed={}, {} events)",
                            report.seed,
                            report.trace.len()
                        );
                    }
                }
            }
            Err(_) => {
                failures += 1;
                println!(
                    "FAIL seed={seed} plan={fingerprint:016x} invariant=panic — scenario panicked"
                );
                if args.github_annotations {
                    println!(
                        "::error title=sim-fuzz panic::seed={seed} plan={fingerprint:016x} \
                         (repro: davix-simfuzz --seed {seed})"
                    );
                }
                println!("     repro: davix-simfuzz --seed {seed}");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} failing seed(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
