//! Environment knobs for the serving layer's tail tolerance, all read by
//! [`HedgeConfig::derived`](crate::HedgeConfig::derived) and all under one
//! warn-once contract: a pure `parse_*` function returns `None` for
//! malformed values so callers can distinguish "unset" from "misspelled",
//! and the env-reading accessor warns exactly once (via `OnceLock`) before
//! falling back to the built-in default.
//!
//! * `CENTAUR_SERVE_HEDGE_MS` — the stall watchdog's hedge timeout in
//!   milliseconds, overriding the SLO/service-estimate-derived default;
//! * `CENTAUR_SERVE_QUARANTINE_STRIKES` — health strikes before a replica
//!   is quarantined (default 3);
//! * `CENTAUR_SERVE_QUARANTINE_BACKOFF_MS` — the first quarantine backoff
//!   in milliseconds, doubled per repeat offence (default 25).

use std::sync::OnceLock;

/// Parses a `CENTAUR_SERVE_HEDGE_MS` value. Returns `None` for anything
/// that is not a strictly positive finite number (see
/// [`SERVE_HEDGE_MS_VALUES`]).
pub fn parse_serve_hedge_ms(value: &str) -> Option<f64> {
    value
        .parse::<f64>()
        .ok()
        .filter(|&ms| ms.is_finite() && ms > 0.0)
}

/// Accepted `CENTAUR_SERVE_HEDGE_MS` values, for error messages.
pub const SERVE_HEDGE_MS_VALUES: &str = "a positive number of milliseconds (e.g. 1, 2.5)";

/// Parses a `CENTAUR_SERVE_QUARANTINE_STRIKES` value. Returns `None` for
/// anything that is not a strictly positive integer (see
/// [`SERVE_QUARANTINE_STRIKES_VALUES`]) — zero strikes would quarantine a
/// replica that never misbehaved.
pub fn parse_serve_quarantine_strikes(value: &str) -> Option<u32> {
    value.parse::<u32>().ok().filter(|&strikes| strikes > 0)
}

/// Accepted `CENTAUR_SERVE_QUARANTINE_STRIKES` values, for error messages.
pub const SERVE_QUARANTINE_STRIKES_VALUES: &str = "a positive integer (e.g. 2, 3)";

/// Parses a `CENTAUR_SERVE_QUARANTINE_BACKOFF_MS` value. Returns `None`
/// for anything that is not a strictly positive finite number (see
/// [`SERVE_QUARANTINE_BACKOFF_MS_VALUES`]).
pub fn parse_serve_quarantine_backoff_ms(value: &str) -> Option<f64> {
    value
        .parse::<f64>()
        .ok()
        .filter(|&ms| ms.is_finite() && ms > 0.0)
}

/// Accepted `CENTAUR_SERVE_QUARANTINE_BACKOFF_MS` values, for error
/// messages.
pub const SERVE_QUARANTINE_BACKOFF_MS_VALUES: &str =
    "a positive number of milliseconds (e.g. 25, 12.5)";

/// Built-in strike limit before a struck replica is quarantined: one
/// overdue batch is noise, three in a row is a slow node.
pub const DEFAULT_SERVE_QUARANTINE_STRIKES: u32 = 3;

/// Built-in first quarantine backoff, in milliseconds; each repeat offence
/// doubles it.
pub const DEFAULT_SERVE_QUARANTINE_BACKOFF_MS: f64 = 25.0;

static ENV_HEDGE_MS: OnceLock<Option<f64>> = OnceLock::new();
static ENV_QUARANTINE_STRIKES: OnceLock<u32> = OnceLock::new();
static ENV_QUARANTINE_BACKOFF_MS: OnceLock<f64> = OnceLock::new();

/// The stall watchdog's hedge timeout override (milliseconds):
/// `CENTAUR_SERVE_HEDGE_MS` if set and valid, else `None` (the timeout is
/// derived from the SLO and the policy's service estimate). Malformed
/// values warn once and fall back.
pub fn serve_hedge_ms() -> Option<f64> {
    *ENV_HEDGE_MS.get_or_init(|| match std::env::var("CENTAUR_SERVE_HEDGE_MS") {
        Ok(value) => match parse_serve_hedge_ms(&value) {
            Some(ms) => Some(ms),
            None => {
                eprintln!(
                    "warning: invalid CENTAUR_SERVE_HEDGE_MS value {value:?}, \
                     expected {SERVE_HEDGE_MS_VALUES}; \
                     deriving the timeout from the SLO and service estimate"
                );
                None
            }
        },
        Err(_) => None,
    })
}

/// Health strikes before a replica is quarantined:
/// `CENTAUR_SERVE_QUARANTINE_STRIKES` if set and valid, else
/// [`DEFAULT_SERVE_QUARANTINE_STRIKES`]. Malformed values warn once and
/// fall back.
pub fn serve_quarantine_strikes() -> u32 {
    *ENV_QUARANTINE_STRIKES.get_or_init(|| {
        match std::env::var("CENTAUR_SERVE_QUARANTINE_STRIKES") {
            Ok(value) => parse_serve_quarantine_strikes(&value).unwrap_or_else(|| {
                eprintln!(
                    "warning: invalid CENTAUR_SERVE_QUARANTINE_STRIKES value {value:?}, \
                     expected {SERVE_QUARANTINE_STRIKES_VALUES}; \
                     using the built-in default ({DEFAULT_SERVE_QUARANTINE_STRIKES})"
                );
                DEFAULT_SERVE_QUARANTINE_STRIKES
            }),
            Err(_) => DEFAULT_SERVE_QUARANTINE_STRIKES,
        }
    })
}

/// The first quarantine backoff (milliseconds), doubled per repeat
/// offence: `CENTAUR_SERVE_QUARANTINE_BACKOFF_MS` if set and valid, else
/// [`DEFAULT_SERVE_QUARANTINE_BACKOFF_MS`]. Malformed values warn once and
/// fall back.
pub fn serve_quarantine_backoff_ms() -> f64 {
    *ENV_QUARANTINE_BACKOFF_MS.get_or_init(|| {
        match std::env::var("CENTAUR_SERVE_QUARANTINE_BACKOFF_MS") {
            Ok(value) => parse_serve_quarantine_backoff_ms(&value).unwrap_or_else(|| {
                eprintln!(
                    "warning: invalid CENTAUR_SERVE_QUARANTINE_BACKOFF_MS value {value:?}, \
                     expected {SERVE_QUARANTINE_BACKOFF_MS_VALUES}; \
                     using the built-in default ({DEFAULT_SERVE_QUARANTINE_BACKOFF_MS} ms)"
                );
                DEFAULT_SERVE_QUARANTINE_BACKOFF_MS
            }),
            Err(_) => DEFAULT_SERVE_QUARANTINE_BACKOFF_MS,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hedge_timeout_parser_accepts_positive_finite_milliseconds_only() {
        assert_eq!(parse_serve_hedge_ms("1"), Some(1.0));
        assert_eq!(parse_serve_hedge_ms("2.5"), Some(2.5));
        assert_eq!(parse_serve_hedge_ms("0"), None);
        assert_eq!(parse_serve_hedge_ms("-1"), None);
        assert_eq!(parse_serve_hedge_ms("inf"), None);
        assert_eq!(parse_serve_hedge_ms("soon"), None);
    }

    #[test]
    fn quarantine_strike_parser_rejects_zero() {
        assert_eq!(parse_serve_quarantine_strikes("1"), Some(1));
        assert_eq!(parse_serve_quarantine_strikes("3"), Some(3));
        assert_eq!(parse_serve_quarantine_strikes("0"), None);
        assert_eq!(parse_serve_quarantine_strikes("-2"), None);
        assert_eq!(parse_serve_quarantine_strikes("2.5"), None);
        assert_eq!(parse_serve_quarantine_strikes("lots"), None);
    }

    #[test]
    fn quarantine_backoff_parser_accepts_positive_finite_milliseconds_only() {
        assert_eq!(parse_serve_quarantine_backoff_ms("25"), Some(25.0));
        assert_eq!(parse_serve_quarantine_backoff_ms("12.5"), Some(12.5));
        assert_eq!(parse_serve_quarantine_backoff_ms("0"), None);
        assert_eq!(parse_serve_quarantine_backoff_ms("-5"), None);
        assert_eq!(parse_serve_quarantine_backoff_ms("NaN"), None);
        assert_eq!(parse_serve_quarantine_backoff_ms(""), None);
    }

    #[test]
    fn accessors_fall_back_to_the_builtin_defaults() {
        // The OnceLocks read the env at most once per process; in the test
        // suite the variables are unset, so the accessors must return the
        // documented defaults (and keep returning them).
        assert_eq!(serve_hedge_ms(), None);
        assert_eq!(serve_hedge_ms(), None);
        assert_eq!(serve_quarantine_strikes(), DEFAULT_SERVE_QUARANTINE_STRIKES);
        assert_eq!(
            serve_quarantine_backoff_ms(),
            DEFAULT_SERVE_QUARANTINE_BACKOFF_MS
        );
    }
}
