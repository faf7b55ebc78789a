//! `e2e-harness` — the compiled half of the relmax end-to-end benchmark.
//!
//! The benchmark script (`e2ebench/run.py`) calls it for two jobs:
//!
//! - seeded input generation the `relmax` binary cannot do itself:
//!   `partitioned` (the partitioned certain-edge snapshot), `pairs` (s-t
//!   pairs by hop distance, the paper's draw) and `updates` (the
//!   `POST /update` stream);
//! - traced in-process replays (`trace-query`, `trace-select`,
//!   `trace-serve`) that time every call into a crate and print the
//!   per-layer metrics as one JSON object.
//!
//! Usage: `e2e-harness <command> [--flag value]...`; see `run.py` for the
//! exact invocations.

mod inputs;
mod replay;
mod spans;

use std::collections::HashMap;
use std::process::ExitCode;

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = it.next().ok_or_else(|| format!("{a} requires a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn str(&self, key: &str) -> Result<String, String> {
        self.0
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} is not a valid number"))
    }
}

fn read_pairs(path: &str) -> Result<Vec<(u32, u32)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace().map(str::parse::<u32>);
            match (it.next(), it.next()) {
                (Some(Ok(s)), Some(Ok(t))) => Ok((s, t)),
                _ => Err(format!("{path}: bad pair line {l:?}")),
            }
        })
        .collect()
}

/// Length-prefixed records: `<byte count>\n<bytes>` repeated.
fn read_records(path: &str) -> Result<Vec<Vec<u8>>, String> {
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    let mut at = 0;
    while at < data.len() {
        let nl = data[at..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| format!("{path}: truncated record header"))?;
        let len: usize = std::str::from_utf8(&data[at..at + nl])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{path}: bad record length"))?;
        let start = at + nl + 1;
        let end = start + len;
        if end > data.len() {
            return Err(format!("{path}: truncated record"));
        }
        out.push(data[start..end].to_vec());
        at = end;
    }
    Ok(out)
}

fn print_metrics(m: &replay::Metrics) {
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{{}}}", body.join(","));
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    let f = Flags::parse(rest)?;
    let tracer = spans::Tracer::new();
    match cmd.as_str() {
        "partitioned" => {
            let summary = inputs::partitioned(
                f.num("islands")?,
                f.num("island-nodes")?,
                f.num("k")?,
                f.num("seed")?,
                &f.str("out")?,
            )?;
            println!("{summary}");
        }
        "pairs" => print!(
            "{}",
            inputs::pairs(
                &f.str("graph")?,
                f.num("count")?,
                f.num("min-hops")?,
                f.num("max-hops")?,
                f.num("seed")?,
            )?
        ),
        "updates" => inputs::updates(
            &f.str("graph")?,
            f.num("island-nodes")?,
            f.num("batches")?,
            f.num("reprobes")?,
            f.num("seed")?,
            &f.str("out")?,
        )?,
        "trace-query" => {
            let m = replay::query(
                &tracer,
                &f.str("graph")?,
                &f.str("queries")?,
                f.num("threads")?,
                f.num("seed")?,
                f.num("samples")?,
                &f.str("out")?,
            )?;
            tracer
                .write_spans(&f.str("spans")?)
                .map_err(|e| e.to_string())?;
            print_metrics(&m);
        }
        "trace-select" => {
            let args = replay::SelectArgs {
                k: f.num("k")?,
                zeta: f.num("zeta")?,
                r: f.num("r")?,
                l: f.num("l")?,
                hops: f.num("hops")?,
                samples: f.num("samples")?,
                seed: f.num("seed")?,
                threads: f.num("threads")?,
            };
            let pairs = read_pairs(&f.str("pairs")?)?;
            let m = replay::select(&tracer, &f.str("graph")?, &pairs, &args, &f.str("out")?)?;
            tracer
                .write_spans(&f.str("spans")?)
                .map_err(|e| e.to_string())?;
            print_metrics(&m);
        }
        "trace-serve" => {
            let args = replay::ServeArgs {
                seed: f.num("seed")?,
                samples: f.num("samples")?,
                update_every: f.num("update-every")?,
                compact_after: f.num("compact-after")?,
                scratch: f.str("scratch")?,
            };
            let bodies = read_records(&f.str("bodies")?)?;
            let updates = match f.0.get("updates") {
                Some(p) => read_records(p)?,
                None => Vec::new(),
            };
            let m = replay::serve(
                &tracer,
                &f.str("graph")?,
                &bodies,
                &updates,
                &args,
                &f.str("out")?,
            )?;
            tracer
                .write_spans(&f.str("spans")?)
                .map_err(|e| e.to_string())?;
            print_metrics(&m);
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e-harness: {e}");
            ExitCode::FAILURE
        }
    }
}
