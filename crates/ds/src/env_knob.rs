//! Shared warn-once parsing for the `SMC_*` environment knobs.
//!
//! Two knobs steer the stack from the environment — `SMC_SCALE`
//! (bench instance sizes) and `SMC_TRACE` (span collection) — and both
//! follow the same contract:
//!
//! * the variable is read once per call site (callers cache the result
//!   in a `OnceLock` when process-wide stability matters);
//! * matching is ASCII case-insensitive;
//! * an unset or empty variable silently selects the default;
//! * an unrecognized value warns to stderr **once per knob per
//!   process** — `warning: unrecognized <NAME> value <v> (expected
//!   <choices>); using <fallback>` — and then selects the default, so a
//!   typo'd knob cannot silently burn a full-scale bench session *and*
//!   cannot spam a per-solve loop.

use std::sync::{Mutex, OnceLock};

/// Knob names that have already warned about an unrecognized value.
fn warned() -> &'static Mutex<Vec<String>> {
    static WARNED: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Reads the environment knob `name` and parses it with `parse`, which
/// receives the value lowercased and returns `None` for unrecognized
/// spellings. Unset, empty, or non-UTF-8 values yield `default`
/// silently; unrecognized values warn once per knob (naming `expected`,
/// the accepted spellings, and `fallback`, the human name of the
/// default) and yield `default`.
pub fn env_knob<T>(
    name: &str,
    expected: &str,
    fallback: &str,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    if raw.is_empty() {
        return default;
    }
    match parse(&raw.to_ascii_lowercase()) {
        Some(v) => v,
        None => {
            let mut seen = warned().lock().unwrap_or_else(|p| p.into_inner());
            if !seen.iter().any(|n| n == name) {
                seen.push(name.to_string());
                eprintln!(
                    "warning: unrecognized {name} value {raw:?} (expected {expected}); \
                     using {fallback}"
                );
            }
            default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; keep the knob tests in one #[test]
    // so the harness cannot interleave them.
    #[test]
    fn knob_contract() {
        // Unset → default, parse not consulted.
        std::env::remove_var("SMC_TEST_KNOB");
        assert_eq!(
            env_knob("SMC_TEST_KNOB", "a|b", "a", 0, |_| panic!("consulted")),
            0
        );

        // Empty → default, silently.
        std::env::set_var("SMC_TEST_KNOB", "");
        assert_eq!(
            env_knob("SMC_TEST_KNOB", "a|b", "a", 0, |_| panic!("consulted")),
            0
        );

        // Recognized values arrive lowercased.
        std::env::set_var("SMC_TEST_KNOB", "B");
        let got = env_knob("SMC_TEST_KNOB", "a|b", "a", 0, |v| {
            assert_eq!(v, "b");
            Some(2)
        });
        assert_eq!(got, 2);

        // Unrecognized → default (the warning is once-per-knob and goes
        // to stderr; repeated calls stay silent and still default).
        std::env::set_var("SMC_TEST_KNOB", "bogus");
        for _ in 0..3 {
            assert_eq!(env_knob("SMC_TEST_KNOB", "a|b", "a", 7, |_| None), 7);
        }

        std::env::remove_var("SMC_TEST_KNOB");
    }
}
