//! Tiny argument helpers shared by the `geometa-server` and
//! `geometa-load` binaries (one strategy vocabulary, one flag syntax —
//! the two processes of the CI smoke flow must never diverge).

use geometa_core::strategy::StrategyKind;

/// Parse the kebab-case strategy names the binaries accept.
pub(crate) fn parse_strategy(s: &str) -> Option<StrategyKind> {
    match s {
        "centralized" => Some(StrategyKind::Centralized),
        "replicated" => Some(StrategyKind::Replicated),
        "dht" | "dht-non-replicated" => Some(StrategyKind::DhtNonReplicated),
        "dht-local-replica" | "dr" => Some(StrategyKind::DhtLocalReplica),
        _ => None,
    }
}

/// Print a usage error and exit 2. A malformed flag is an operator
/// mistake, not a program bug: it gets a one-line message on stderr,
/// not a panic with a backtrace.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse `value` as `T`, exiting with `what` as the usage message on
/// failure.
pub fn parse_or_die<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{what}, got '{value}'")))
}

/// [`parse_or_die`] for a count that must be at least 1: zero exits 2
/// with the same message instead of panicking or running nothing.
pub fn positive_or_die(value: &str, what: &str) -> usize {
    match parse_or_die(value, what) {
        0 => die(&format!("{what}, got '{value}'")),
        n => n,
    }
}

/// Parse `--strategy NAME` from `args`, defaulting when absent and
/// exiting with the accepted vocabulary on an unknown name.
pub fn strategy_flag(args: &[String], default: StrategyKind) -> StrategyKind {
    match flag_value(args, "--strategy") {
        None => default,
        Some(v) => parse_strategy(&v).unwrap_or_else(|| {
            die(&format!(
                "--strategy: unknown strategy '{v}' (expected centralized, replicated, \
                 dht-non-replicated or dht-local-replica)"
            ))
        }),
    }
}

/// Exit 2 naming the first argument that is neither a flag in `known`
/// (`--flag` or `--flag=value`) nor the value following one. A mistyped
/// or removed flag must not be silently ignored.
pub fn reject_unknown(args: &[String], known: &[&str]) {
    if let Some(bad) = first_unknown(args, known) {
        die(&format!("unknown argument '{bad}'"));
    }
}

fn first_unknown<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    let mut value_ok = false;
    for arg in args {
        if arg.starts_with("--") {
            let (name, inline_value) = match arg.split_once('=') {
                Some((name, _)) => (name, true),
                None => (arg.as_str(), false),
            };
            if !known.contains(&name) {
                return Some(name);
            }
            value_ok = !inline_value;
        } else if value_ok {
            value_ok = false;
        } else {
            return Some(arg);
        }
    }
    None
}

/// True when the bare switch `--name` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value of `--name VALUE` or `--name=VALUE`, if the flag is present.
/// A present flag without a value (the last argument, followed by another
/// `--flag`, or an empty `--name=`) exits 2 naming it: it must not fall
/// back to the default or take the next flag as its value.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    let value = match args.iter().position(|a| a == name) {
        Some(i) => args.get(i + 1).map_or("", String::as_str),
        None => args
            .iter()
            .find_map(|a| a.strip_prefix(name)?.strip_prefix('='))?,
    };
    if value.is_empty() || value.starts_with("--") {
        die(&format!("flag '{name}' needs a value"));
    }
    Some(value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_flag_syntaxes_parse() {
        let args: Vec<String> = ["--sites", "4", "--strategy=dr"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--sites").as_deref(), Some("4"));
        assert_eq!(flag_value(&args, "--strategy").as_deref(), Some("dr"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn bare_switches_are_detected() {
        let args: Vec<String> = ["--recover", "--sites", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(has_flag(&args, "--recover"));
        assert!(!has_flag(&args, "--data-dir"));
    }

    #[test]
    fn unknown_flags_and_stray_values_are_found() {
        let known = ["--sites", "--quick"];
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            first_unknown(&args(&["--quick", "--sites", "4"]), &known),
            None
        );
        assert_eq!(first_unknown(&args(&["--sites=4"]), &known), None);
        assert_eq!(
            first_unknown(&args(&["--site", "4"]), &known),
            Some("--site")
        );
        assert_eq!(
            first_unknown(&args(&["--out=x.json"]), &known),
            Some("--out")
        );
        assert_eq!(
            first_unknown(&args(&["--sites", "4", "5"]), &known),
            Some("5")
        );
    }

    #[test]
    fn every_strategy_has_a_name() {
        for (name, kind) in [
            ("centralized", StrategyKind::Centralized),
            ("replicated", StrategyKind::Replicated),
            ("dht-non-replicated", StrategyKind::DhtNonReplicated),
            ("dht-local-replica", StrategyKind::DhtLocalReplica),
        ] {
            assert_eq!(parse_strategy(name), Some(kind));
        }
        assert_eq!(parse_strategy("bogus"), None);
    }
}
