//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <paper_sweep|optimize_batch|validate_campaign>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on one thread for about `--seconds`, checks the
//! program's outputs, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. Every time is
//! normalized against a calibration kernel run just before and after each
//! timed chunk (see `meter`), so host drift cancels. NOTES.md explains the
//! workloads, the metrics and the evidence behind the kernels.

mod calib;
mod campaign;
mod meter;
mod optimize;
mod report;
mod stats;
mod sweep;

use std::process::{Command, ExitCode};

use cpa_experiments::runner::derive_seed;
use report::{Metrics, Part, END_TO_END, PER_LAYER};

/// Seconds each measuring process runs for. An untraced run splits its
/// window over several processes run one after another: each process
/// carries a speed offset of its own that calibration does not cancel
/// (about 2% standard deviation on a 2-vCPU cloud host), and averaging
/// over processes shrinks it.
const PROCESS_SECONDS: f64 = 5.0;
/// Keeps the per-process input streams apart from other derived streams.
const PROCESS_STREAM: u64 = 0xC41D;
/// Prefix of the line a measuring process reports its part on.
const PART_PREFIX: &str = "PART ";

/// Parsed command line.
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Print per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Which measuring process of the run this is; each draws its own
    /// inputs from the seed.
    pub process: Option<u64>,
}

impl Opts {
    /// The seed of this process's inputs.
    pub fn stream_seed(&self) -> u64 {
        derive_seed(self.seed, PROCESS_STREAM, self.process.unwrap_or(0))
    }
}

const USAGE: &str = "usage: perfbench --workload <paper_sweep|optimize_batch|validate_campaign> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        process: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--process" => opts.process = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn run_workload(workload: &str, opts: &Opts) -> Result<(Part, Metrics), String> {
    Ok(match workload {
        "paper_sweep" => sweep::run(opts),
        "optimize_batch" => optimize::run(opts),
        "validate_campaign" => campaign::run(opts),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Runs the measuring processes of an untraced run one after another and
/// merges their parts.
fn run_processes(workload: &str, opts: &Opts) -> Result<Part, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let processes = (opts.seconds / PROCESS_SECONDS).ceil().max(1.0);
    let seconds = (opts.seconds / processes).to_string();
    let mut total = Part::default();
    for process in 0..processes as u64 {
        let seed = opts.seed.to_string();
        let index = process.to_string();
        let out = Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
            ])
            .args(["--trace", "0", "--process", &index])
            .output()
            .map_err(|e| format!("start measuring process {process}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix(PART_PREFIX))
            .ok_or_else(|| {
                format!(
                    "measuring process {process} ({}) reported nothing: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        let part: Part = serde_json::from_str(line)
            .map_err(|e| format!("measuring process {process}: bad report: {e}"))?;
        total.merge(part);
    }
    Ok(total)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let measured = if opts.process.is_some() {
        // A measuring process of an untraced run: report the part to the
        // parent and stop.
        return match run_workload(&workload, &opts) {
            Ok((part, _)) => {
                let json = serde_json::to_string(&part).expect("parts serialize");
                println!("{PART_PREFIX}{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    } else if opts.trace {
        run_workload(&workload, &opts)
    } else {
        run_processes(&workload, &opts).map(|mut part| {
            let metrics = part.end_to_end();
            (part, metrics)
        })
    };
    let (part, metrics) = match measured {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for note in &part.notes {
        println!("# {note}");
    }
    for (name, unit) in names {
        let value = metrics.iter().find(|(n, _)| n == name);
        println!("{name} = {} {unit}", value.map_or(0.0, |m| m.1));
    }
    println!("{}", report::result_line(&part, &metrics, names));
    if part.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, o) = parse(&args(
            "--workload paper_sweep --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid command line");
        assert_eq!(w, "paper_sweep");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.process),
            (7, 12.0, true, None)
        );
    }

    #[test]
    fn rejects_bad_values() {
        for bad in [
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seed -1",
            "--seed 1",
            "--workload",
            "--workload x --bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
