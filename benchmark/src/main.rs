//! `df-benchmark` — the repo benchmark. See `README.md`.
//!
//! ```text
//! df-benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>
//! df-benchmark selfcheck [--seeds 1,2] [--seconds <s>] [--noise]
//! df-benchmark compare <a.json> <b.json>
//! df-benchmark describe
//! ```

mod check;
mod clock;
mod corpus;
mod layers;
mod probes;
mod run;
mod selfcheck;
mod spec;
mod stats;
mod tracer;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage:
  df-benchmark --workload <bookinfo_e2e|wire_ingest|query_preloaded|mixed_live> --seed <n> --seconds <s> --trace <0|1>
  df-benchmark selfcheck [--seeds 1,2] [--seconds <s>] [--noise]
  df-benchmark compare <a.json> <b.json>
  df-benchmark describe";

/// The value following `flag`, if the flag is present.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("describe") => {
            let body =
                serde_json::to_string_pretty(&spec::describe()).map_err(|e| e.to_string())?;
            println!("{body}");
            Ok(true)
        }
        Some("compare") => match args {
            [_, a, b] => selfcheck::compare(a, b),
            _ => Err("compare takes two files".to_string()),
        },
        Some("selfcheck") => {
            let seeds = value(args, "--seeds")
                .unwrap_or("1,2")
                .split(',')
                .map(|s| s.parse::<u64>().map_err(|_| format!("bad seed: {s}")))
                .collect::<Result<Vec<u64>, String>>()?;
            if seeds.is_empty() {
                return Err("selfcheck needs at least one seed".to_string());
            }
            let seconds = parse(args, "--seconds", spec::RUN_SECONDS)?;
            selfcheck::selfcheck(&seeds, seconds, args.iter().any(|a| a == "--noise"))
        }
        Some(flag) if flag.starts_with("--") => {
            let name = value(args, "--workload").ok_or("missing --workload")?;
            let run = run::RunArgs {
                workload: Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload: {name}"))?,
                seed: parse(args, "--seed", 1)?,
                seconds: parse(args, "--seconds", spec::RUN_SECONDS)?,
                traced: match parse(args, "--trace", 0u8)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                },
            };
            let result = run::run(&run);
            println!(
                "{}",
                serde_json::to_string(&result).map_err(|e| e.to_string())?
            );
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    clock::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("df-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
