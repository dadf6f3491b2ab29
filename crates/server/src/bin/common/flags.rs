//! Command-line flags shared by `entropydb-serve`, `entropydb-cluster` and
//! the `entropydb` CLI, which each include this file with `#[path]`. A flag is `--name VALUE`
//! or a bare switch; every error is a message the caller prints before its
//! usage text and exit code 2.

use std::str::FromStr;
use std::time::Duration;

/// The value that follows `name`, when the flag is given.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Refuses the first `--flag` that is neither one of `values` (flags that
/// take a value, which is skipped: `--addr --x` names no unknown flag) nor
/// one of `switches`.
pub fn check_known(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if values.contains(&arg) {
            rest.next();
        } else if arg.starts_with("--") && !switches.contains(&arg) {
            return Err(format!("unknown flag {arg}"));
        }
    }
    Ok(())
}

/// Parses the value of `name`; `None` when the flag is absent. An
/// unparseable value is an error, never a silent default.
pub fn value<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("cannot parse {name} value {raw:?}"))
        })
        .transpose()
}

/// Parses the value of `name` as a positive duration in (possibly
/// fractional) seconds; `None` when the flag is absent. A value that is
/// not a number, not positive, or too large for a `Duration` (`inf`,
/// `1e300`) is an error.
pub fn duration(args: &[String], name: &str) -> Result<Option<Duration>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            .filter(|d| !d.is_zero())
            .map(Some)
            .ok_or_else(|| format!("cannot parse {name} value {raw:?}")),
    }
}
