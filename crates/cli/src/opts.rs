//! Minimal flag-parsing helpers shared by the subcommands.
//!
//! The CLI deliberately has no argument-parsing dependency: each command
//! owns one `while let` loop over its raw arguments and uses these helpers
//! for the repetitive parts (value flags, typed parses, usage errors).

use std::fmt;

/// A CLI failure, split by exit code: usage errors exit 2, runtime errors
/// exit 1.
#[derive(Debug)]
pub enum CliError {
    /// The invocation itself is wrong (unknown flag, missing value, …).
    Usage(String),
    /// The invocation is fine but the work failed (I/O, bad data, …).
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Run(m) => write!(f, "{m}"),
        }
    }
}

/// Shorthand constructors.
pub fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Runtime-error constructor (exit code 1).
pub fn run_err(msg: impl fmt::Display) -> CliError {
    CliError::Run(msg.to_string())
}

/// Pull the value of a `--flag VALUE` pair out of the argument iterator.
pub fn take_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| usage(format!("{flag} requires a value")))
}

/// Parse a flag's value with a typed `FromStr`, with a usage error naming
/// the flag on failure.
pub fn parse_value<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| usage(format!("{flag} value {raw:?} is not valid")))
}

/// `take_value` + `parse_value` in one step.
pub fn take_parsed<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError> {
    parse_value(&take_value(it, flag)?, flag)
}

/// Reject an unrecognized argument (or collect it as the one positional).
pub fn positional(slot: &mut Option<String>, arg: &str, what: &str) -> Result<(), CliError> {
    if arg.starts_with('-') {
        return Err(usage(format!("unknown flag {arg:?}")));
    }
    if slot.is_some() {
        return Err(usage(format!(
            "unexpected extra argument {arg:?} (already have a {what})"
        )));
    }
    *slot = Some(arg.to_string());
    Ok(())
}

/// Require the positional argument to have been supplied.
pub fn required(slot: Option<String>, what: &str) -> Result<String, CliError> {
    slot.ok_or_else(|| usage(format!("missing required {what}")))
}

/// The `--eps` / `--delta` / `--max-samples` accuracy flags, parsed but
/// not yet resolved against `--samples` into a concrete budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct BudgetFlags {
    /// `--eps`: target confidence-interval half-width.
    pub eps: Option<f64>,
    /// `--delta`: interval failure probability (default 0.05).
    pub delta: Option<f64>,
    /// `--max-samples`: cap on worlds per adaptive estimate.
    pub max_samples: Option<usize>,
}

impl BudgetFlags {
    /// Resolve against `--samples` (and an optional workload-file
    /// accuracy directive) into a concrete [`relmax_sampling::Budget`].
    /// An accuracy budget applies when either `--eps` or a file
    /// directive supplies `eps`; each of `eps`/`delta`/`max_samples`
    /// resolves per-field as CLI flag, then file directive, then default
    /// (0.05 / [`relmax_sampling::convergence::DEFAULT_MAX_SAMPLES`]).
    pub fn resolve(
        &self,
        samples: usize,
        file_accuracy: Option<relmax_gen::workload::AccuracyDirective>,
    ) -> Result<relmax_sampling::Budget, CliError> {
        let Some(eps) = self.eps.or(file_accuracy.map(|a| a.eps)) else {
            if self.delta.is_some() || self.max_samples.is_some() {
                return Err(usage(
                    "--delta/--max-samples only make sense together with --eps \
                     (or a query file carrying a `% accuracy` directive)",
                ));
            }
            return Ok(relmax_sampling::Budget::FixedSamples(samples));
        };
        let delta = self
            .delta
            .or(file_accuracy.map(|a| a.delta))
            .unwrap_or(0.05);
        let max_samples = self
            .max_samples
            .or(file_accuracy.and_then(|a| a.max_samples))
            .unwrap_or(relmax_sampling::convergence::DEFAULT_MAX_SAMPLES);
        if !(eps > 0.0 && eps < 1.0) {
            return Err(usage(format!("--eps must lie in (0, 1), got {eps}")));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(usage(format!("--delta must lie in (0, 1), got {delta}")));
        }
        if max_samples == 0 {
            return Err(usage("--max-samples must be at least 1"));
        }
        Ok(relmax_sampling::Budget::Accuracy {
            eps,
            delta,
            max_samples,
        })
    }
}

/// Output format for `query` and `select`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned markdown-style table (human-first).
    Table,
    /// JSON object (machine-first, full precision).
    Json,
}

impl Format {
    /// Parse `--format`.
    pub fn parse(raw: &str) -> Result<Format, CliError> {
        match raw {
            "table" => Ok(Format::Table),
            "json" => Ok(Format::Json),
            other => Err(usage(format!(
                "--format must be `table` or `json`, got {other:?}"
            ))),
        }
    }
}

/// Tell the user when text-only flags (`--undirected`, `--nodes`) were
/// passed but the input sniffed as a snapshot (`format_version` is 0 only
/// for text), where orientation and node count are baked in — otherwise
/// the flags would be dropped silently.
pub fn note_ignored_text_flags(format_version: u32, text_flags: &[&str], path: &str) {
    if !text_flags.is_empty() && format_version != 0 {
        eprintln!(
            "note: {} only apply to text edge lists; {path} is a .rgs snapshot whose orientation and node count are fixed at ingest",
            text_flags.join("/"),
        );
    }
}
