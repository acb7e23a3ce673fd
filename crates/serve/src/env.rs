//! Environment knobs for the serving layer, all under one warn-once
//! contract: a pure `parse_*` function returns
//! `None` for malformed values so callers can distinguish "unset" from
//! "misspelled", and the env-reading accessor warns exactly once (via
//! `OnceLock`) before falling back to the built-in default.
//!
//! * `CENTAUR_SERVE_SLO_MS` — the per-request latency SLO in milliseconds
//!   used by overload sweeps when no explicit SLO is passed (default 5 ms);
//! * `CENTAUR_SERVE_QUEUE_DEPTH` — the admission gate's depth bound
//!   (default: unbounded; overload sweeps size it from capacity × SLO);
//! * `CENTAUR_SERVE_RETRY_LIMIT` — per-request retry budget under
//!   supervision (default 2; `0` = fail on the first error);
//! * `CENTAUR_SERVE_RESTART_BUDGET` — pool-wide replica-restart budget
//!   under supervision (default 2; `0` = crashed replicas stay dead);
//! * `CENTAUR_SERVE_FAULT_PLAN` — an explicit fault schedule overriding a
//!   faulted sweep cell's seeded plan (format: comma-separated
//!   `crash:replica:at_ms`, `transient:replica:at_ms`,
//!   `stall:replica:at_ms:stall_ms`);
//! * `CENTAUR_SERVE_MIX` — the tenant mix the isolation sweep serves
//!   (format: comma-separated `model:share`, e.g. `dlrm1:0.7,dlrm6:0.3`;
//!   shares must sum to 1);
//! * `CENTAUR_SERVE_MIX_SLO_MS` — per-tenant SLOs for the mix, one positive
//!   millisecond value per tenant in mix order (e.g. `2,10`);
//! * `CENTAUR_SERVE_HEDGE_MS` — the stall watchdog's hedge timeout in
//!   milliseconds, overriding the SLO/service-estimate-derived default;
//! * `CENTAUR_SERVE_QUARANTINE_STRIKES` — health strikes before a replica
//!   is quarantined (default 3);
//! * `CENTAUR_SERVE_QUARANTINE_BACKOFF_MS` — the first quarantine backoff
//!   in milliseconds, doubled per repeat offence (default 25).

use crate::fault::FaultPlan;
use centaur_dlrm::PaperModel;
use std::sync::OnceLock;

/// Parses a `CENTAUR_SERVE_SLO_MS` value. Returns `None` for anything that
/// is not a strictly positive finite number (see [`SERVE_SLO_MS_VALUES`]).
pub fn parse_serve_slo_ms(value: &str) -> Option<f64> {
    value
        .parse::<f64>()
        .ok()
        .filter(|&ms| ms.is_finite() && ms > 0.0)
}

/// Accepted `CENTAUR_SERVE_SLO_MS` values, for error messages.
pub const SERVE_SLO_MS_VALUES: &str = "a positive number of milliseconds (e.g. 5, 2.5)";

/// Parses a `CENTAUR_SERVE_QUEUE_DEPTH` value. Returns `None` for anything
/// that is not a positive integer (see [`SERVE_QUEUE_DEPTH_VALUES`]).
pub fn parse_serve_queue_depth(value: &str) -> Option<usize> {
    value.parse::<usize>().ok().filter(|&depth| depth > 0)
}

/// Accepted `CENTAUR_SERVE_QUEUE_DEPTH` values, for error messages.
pub const SERVE_QUEUE_DEPTH_VALUES: &str = "a positive integer (e.g. 512, 4096)";

/// Parses a `CENTAUR_SERVE_RETRY_LIMIT` value. Returns `None` for anything
/// that is not a non-negative integer (see [`SERVE_RETRY_LIMIT_VALUES`]).
/// Zero is valid: fail a request on its first error, no retries.
pub fn parse_serve_retry_limit(value: &str) -> Option<u32> {
    value.parse::<u32>().ok()
}

/// Accepted `CENTAUR_SERVE_RETRY_LIMIT` values, for error messages.
pub const SERVE_RETRY_LIMIT_VALUES: &str = "a non-negative integer (e.g. 0, 2)";

/// Parses a `CENTAUR_SERVE_RESTART_BUDGET` value. Returns `None` for
/// anything that is not a non-negative integer (see
/// [`SERVE_RESTART_BUDGET_VALUES`]). Zero is valid: crashed replicas stay
/// dead.
pub fn parse_serve_restart_budget(value: &str) -> Option<usize> {
    value.parse::<usize>().ok()
}

/// Accepted `CENTAUR_SERVE_RESTART_BUDGET` values, for error messages.
pub const SERVE_RESTART_BUDGET_VALUES: &str = "a non-negative integer (e.g. 0, 2)";

/// Parses a `CENTAUR_SERVE_FAULT_PLAN` value (see
/// [`SERVE_FAULT_PLAN_VALUES`]); delegates to [`FaultPlan::parse`].
pub fn parse_serve_fault_plan(value: &str) -> Option<FaultPlan> {
    FaultPlan::parse(value)
}

/// Accepted `CENTAUR_SERVE_FAULT_PLAN` values, for error messages.
pub const SERVE_FAULT_PLAN_VALUES: &str = "comma-separated events: \
     crash:<replica>:<at_ms>, transient:<replica>:<at_ms>, or \
     stall:<replica>:<at_ms>:<stall_ms> (e.g. \"crash:0:50,transient:1:120\")";

/// Parses a `CENTAUR_SERVE_MIX` value: comma-separated `model:share`
/// tenants whose shares sum to 1 (see [`SERVE_MIX_VALUES`]). Model names
/// are the paper's six, case-insensitive (`dlrm1` … `dlrm6`). Returns
/// `None` for unknown models, non-positive or non-finite shares, shares
/// that do not sum to 1, or an empty list.
pub fn parse_serve_mix(value: &str) -> Option<Vec<(PaperModel, f64)>> {
    let mut tenants = Vec::new();
    for part in value.split(',') {
        let (model, share) = part.trim().split_once(':')?;
        let model = match model.to_ascii_lowercase().as_str() {
            "dlrm1" => PaperModel::Dlrm1,
            "dlrm2" => PaperModel::Dlrm2,
            "dlrm3" => PaperModel::Dlrm3,
            "dlrm4" => PaperModel::Dlrm4,
            "dlrm5" => PaperModel::Dlrm5,
            "dlrm6" => PaperModel::Dlrm6,
            _ => return None,
        };
        let share = share
            .parse::<f64>()
            .ok()
            .filter(|&s| s.is_finite() && s > 0.0 && s <= 1.0)?;
        tenants.push((model, share));
    }
    if tenants.is_empty() {
        return None;
    }
    let total: f64 = tenants.iter().map(|(_, share)| share).sum();
    if (total - 1.0).abs() > 1e-6 {
        return None;
    }
    Some(tenants)
}

/// Accepted `CENTAUR_SERVE_MIX` values, for error messages.
pub const SERVE_MIX_VALUES: &str = "comma-separated model:share tenants with \
     shares summing to 1, models dlrm1..dlrm6 (e.g. \"dlrm1:0.7,dlrm6:0.3\")";

/// Parses a `CENTAUR_SERVE_MIX_SLO_MS` value: a comma-separated list of
/// strictly positive finite millisecond values, one per tenant in mix order
/// (see [`SERVE_MIX_SLO_MS_VALUES`]).
pub fn parse_serve_mix_slo_ms(value: &str) -> Option<Vec<f64>> {
    let slos: Option<Vec<f64>> = value
        .split(',')
        .map(|part| parse_serve_slo_ms(part.trim()))
        .collect();
    slos.filter(|slos| !slos.is_empty())
}

/// Accepted `CENTAUR_SERVE_MIX_SLO_MS` values, for error messages.
pub const SERVE_MIX_SLO_MS_VALUES: &str =
    "a comma-separated list of positive milliseconds, one per tenant (e.g. \"2,10\")";

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

/// Built-in default SLO for overload sweeps, in milliseconds — tight enough
/// that an unshedded backlog past the knee blows straight through it.
pub const DEFAULT_SERVE_SLO_MS: f64 = 5.0;

/// Built-in strike limit before a struck replica is quarantined: one
/// overdue batch is noise, three in a row is a slow node.
pub const DEFAULT_SERVE_QUARANTINE_STRIKES: u32 = 3;

/// Built-in first quarantine backoff, in milliseconds; each repeat offence
/// doubles it.
pub const DEFAULT_SERVE_QUARANTINE_BACKOFF_MS: f64 = 25.0;

/// Built-in per-request retry budget under supervision: enough to ride out
/// a crash plus one unlucky rebatch without letting a poison request spin.
pub const DEFAULT_SERVE_RETRY_LIMIT: u32 = 2;

/// Built-in pool-wide replica-restart budget under supervision.
pub const DEFAULT_SERVE_RESTART_BUDGET: usize = 2;

static ENV_SLO_MS: OnceLock<f64> = OnceLock::new();
static ENV_QUEUE_DEPTH: OnceLock<Option<usize>> = OnceLock::new();
static ENV_RETRY_LIMIT: OnceLock<u32> = OnceLock::new();
static ENV_RESTART_BUDGET: OnceLock<usize> = OnceLock::new();
static ENV_FAULT_PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
static ENV_MIX: OnceLock<Option<Vec<(PaperModel, f64)>>> = OnceLock::new();
static ENV_MIX_SLO_MS: OnceLock<Option<Vec<f64>>> = OnceLock::new();
static ENV_HEDGE_MS: OnceLock<Option<f64>> = OnceLock::new();
static ENV_QUARANTINE_STRIKES: OnceLock<u32> = OnceLock::new();
static ENV_QUARANTINE_BACKOFF_MS: OnceLock<f64> = OnceLock::new();

/// The SLO (milliseconds) overload sweeps use when the caller does not pass
/// one explicitly: `CENTAUR_SERVE_SLO_MS` if set and valid, else
/// [`DEFAULT_SERVE_SLO_MS`]. Malformed values warn once and fall back.
pub fn serve_slo_ms() -> f64 {
    *ENV_SLO_MS.get_or_init(|| match std::env::var("CENTAUR_SERVE_SLO_MS") {
        Ok(value) => parse_serve_slo_ms(&value).unwrap_or_else(|| {
            // One-time by construction: the OnceLock runs this closure once.
            eprintln!(
                "warning: invalid CENTAUR_SERVE_SLO_MS value {value:?}, \
                 expected {SERVE_SLO_MS_VALUES}; \
                 using the built-in default ({DEFAULT_SERVE_SLO_MS} ms)"
            );
            DEFAULT_SERVE_SLO_MS
        }),
        Err(_) => DEFAULT_SERVE_SLO_MS,
    })
}

/// The admission-gate depth bound overload sweeps use when the caller does
/// not pass one explicitly: `CENTAUR_SERVE_QUEUE_DEPTH` if set and valid,
/// else `None` (the sweep sizes the bound from capacity × SLO). Malformed
/// values warn once and fall back.
pub fn serve_queue_depth() -> Option<usize> {
    *ENV_QUEUE_DEPTH.get_or_init(|| match std::env::var("CENTAUR_SERVE_QUEUE_DEPTH") {
        Ok(value) => match parse_serve_queue_depth(&value) {
            Some(depth) => Some(depth),
            None => {
                eprintln!(
                    "warning: invalid CENTAUR_SERVE_QUEUE_DEPTH value {value:?}, \
                     expected {SERVE_QUEUE_DEPTH_VALUES}; leaving the depth unbounded"
                );
                None
            }
        },
        Err(_) => None,
    })
}

/// The per-request retry budget supervised sweeps use when the caller does
/// not pass one explicitly: `CENTAUR_SERVE_RETRY_LIMIT` if set and valid,
/// else [`DEFAULT_SERVE_RETRY_LIMIT`]. Malformed values warn once and fall
/// back.
pub fn serve_retry_limit() -> u32 {
    *ENV_RETRY_LIMIT.get_or_init(|| match std::env::var("CENTAUR_SERVE_RETRY_LIMIT") {
        Ok(value) => parse_serve_retry_limit(&value).unwrap_or_else(|| {
            eprintln!(
                "warning: invalid CENTAUR_SERVE_RETRY_LIMIT value {value:?}, \
                 expected {SERVE_RETRY_LIMIT_VALUES}; \
                 using the built-in default ({DEFAULT_SERVE_RETRY_LIMIT})"
            );
            DEFAULT_SERVE_RETRY_LIMIT
        }),
        Err(_) => DEFAULT_SERVE_RETRY_LIMIT,
    })
}

/// The pool-wide restart budget supervised sweeps use when the caller does
/// not pass one explicitly: `CENTAUR_SERVE_RESTART_BUDGET` if set and
/// valid, else [`DEFAULT_SERVE_RESTART_BUDGET`]. Malformed values warn once
/// and fall back.
pub fn serve_restart_budget() -> usize {
    *ENV_RESTART_BUDGET.get_or_init(|| match std::env::var("CENTAUR_SERVE_RESTART_BUDGET") {
        Ok(value) => parse_serve_restart_budget(&value).unwrap_or_else(|| {
            eprintln!(
                "warning: invalid CENTAUR_SERVE_RESTART_BUDGET value {value:?}, \
                     expected {SERVE_RESTART_BUDGET_VALUES}; \
                     using the built-in default ({DEFAULT_SERVE_RESTART_BUDGET})"
            );
            DEFAULT_SERVE_RESTART_BUDGET
        }),
        Err(_) => DEFAULT_SERVE_RESTART_BUDGET,
    })
}

/// The explicit fault plan overriding faulted sweep cells' seeded
/// schedules: `CENTAUR_SERVE_FAULT_PLAN` if set and valid, else `None`
/// (each faulted cell samples its own seeded plan). Malformed values warn
/// once and fall back. Cloned per call — the plan is consumed per run.
pub fn serve_fault_plan() -> Option<FaultPlan> {
    ENV_FAULT_PLAN
        .get_or_init(|| match std::env::var("CENTAUR_SERVE_FAULT_PLAN") {
            Ok(value) => match parse_serve_fault_plan(&value) {
                Some(plan) => Some(plan),
                None => {
                    eprintln!(
                        "warning: invalid CENTAUR_SERVE_FAULT_PLAN value {value:?}, \
                         expected {SERVE_FAULT_PLAN_VALUES}; \
                         using each cell's seeded fault schedule"
                    );
                    None
                }
            },
            Err(_) => None,
        })
        .clone()
}

/// The tenant mix the isolation sweep serves when `CENTAUR_SERVE_MIX` is
/// set and valid, else `None` (the sweep uses its built-in light/heavy
/// mix). Malformed values warn once and fall back. Cloned per call.
pub fn serve_mix() -> Option<Vec<(PaperModel, f64)>> {
    ENV_MIX
        .get_or_init(|| match std::env::var("CENTAUR_SERVE_MIX") {
            Ok(value) => match parse_serve_mix(&value) {
                Some(mix) => Some(mix),
                None => {
                    eprintln!(
                        "warning: invalid CENTAUR_SERVE_MIX value {value:?}, \
                         expected {SERVE_MIX_VALUES}; using the built-in mix"
                    );
                    None
                }
            },
            Err(_) => None,
        })
        .clone()
}

/// Per-tenant SLOs (milliseconds, mix order) when `CENTAUR_SERVE_MIX_SLO_MS`
/// is set and valid, else `None` (the sweep uses its built-in per-tenant
/// SLOs). Malformed values warn once and fall back. Cloned per call.
pub fn serve_mix_slo_ms() -> Option<Vec<f64>> {
    ENV_MIX_SLO_MS
        .get_or_init(|| match std::env::var("CENTAUR_SERVE_MIX_SLO_MS") {
            Ok(value) => match parse_serve_mix_slo_ms(&value) {
                Some(slos) => Some(slos),
                None => {
                    eprintln!(
                        "warning: invalid CENTAUR_SERVE_MIX_SLO_MS value {value:?}, \
                         expected {SERVE_MIX_SLO_MS_VALUES}; \
                         using the built-in per-tenant SLOs"
                    );
                    None
                }
            },
            Err(_) => None,
        })
        .clone()
}

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
    fn slo_parser_accepts_positive_finite_numbers_only() {
        assert_eq!(parse_serve_slo_ms("5"), Some(5.0));
        assert_eq!(parse_serve_slo_ms("2.5"), Some(2.5));
        assert_eq!(parse_serve_slo_ms("0"), None);
        assert_eq!(parse_serve_slo_ms("-1"), None);
        assert_eq!(parse_serve_slo_ms("inf"), None);
        assert_eq!(parse_serve_slo_ms("NaN"), None);
        assert_eq!(parse_serve_slo_ms("fast"), None);
        assert_eq!(parse_serve_slo_ms(""), None);
    }

    #[test]
    fn depth_parser_accepts_positive_integers_only() {
        assert_eq!(parse_serve_queue_depth("512"), Some(512));
        assert_eq!(parse_serve_queue_depth("1"), Some(1));
        assert_eq!(parse_serve_queue_depth("0"), None);
        assert_eq!(parse_serve_queue_depth("-3"), None);
        assert_eq!(parse_serve_queue_depth("4.5"), None);
        assert_eq!(parse_serve_queue_depth("lots"), None);
    }

    #[test]
    fn retry_limit_parser_accepts_non_negative_integers_only() {
        assert_eq!(parse_serve_retry_limit("0"), Some(0), "0 = no retries");
        assert_eq!(parse_serve_retry_limit("2"), Some(2));
        assert_eq!(parse_serve_retry_limit("-1"), None);
        assert_eq!(parse_serve_retry_limit("2.5"), None);
        assert_eq!(parse_serve_retry_limit("forever"), None);
        assert_eq!(parse_serve_retry_limit(""), None);
    }

    #[test]
    fn restart_budget_parser_accepts_non_negative_integers_only() {
        assert_eq!(
            parse_serve_restart_budget("0"),
            Some(0),
            "0 = crashed replicas stay dead"
        );
        assert_eq!(parse_serve_restart_budget("3"), Some(3));
        assert_eq!(parse_serve_restart_budget("-2"), None);
        assert_eq!(parse_serve_restart_budget("1.5"), None);
        assert_eq!(parse_serve_restart_budget("many"), None);
    }

    #[test]
    fn fault_plan_parser_delegates_to_the_documented_format() {
        let plan = parse_serve_fault_plan("crash:0:50,transient:1:120").unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.label(), "c1t1");
        assert!(parse_serve_fault_plan("stall:0:10:5").is_some());
        assert!(parse_serve_fault_plan("reboot:0:50").is_none());
        assert!(parse_serve_fault_plan("crash:0").is_none());
        assert!(parse_serve_fault_plan("").is_none());
    }

    #[test]
    fn mix_parser_accepts_complete_known_model_mixes_only() {
        assert_eq!(
            parse_serve_mix("dlrm1:0.7,dlrm6:0.3"),
            Some(vec![(PaperModel::Dlrm1, 0.7), (PaperModel::Dlrm6, 0.3)])
        );
        assert_eq!(
            parse_serve_mix(" DLRM2:0.5 , dlrm4:0.5 "),
            Some(vec![(PaperModel::Dlrm2, 0.5), (PaperModel::Dlrm4, 0.5)]),
            "case-insensitive names, whitespace tolerated"
        );
        assert_eq!(
            parse_serve_mix("dlrm1:1"),
            Some(vec![(PaperModel::Dlrm1, 1.0)]),
            "a single full-share tenant is a valid mix"
        );
        for bad in [
            "",
            "dlrm1",
            "dlrm1:0.5",            // shares must sum to 1
            "dlrm1:0.7,dlrm6:0.4",  // over 1
            "dlrm7:1",              // unknown model
            "dlrm1:0,dlrm6:1",      // zero share
            "dlrm1:-0.5,dlrm6:1.5", // negative / over-1 shares
            "dlrm1:inf",
            "dlrm1:0.5,:0.5",
        ] {
            assert_eq!(parse_serve_mix(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn mix_slo_parser_accepts_positive_millisecond_lists_only() {
        assert_eq!(parse_serve_mix_slo_ms("2,10"), Some(vec![2.0, 10.0]));
        assert_eq!(parse_serve_mix_slo_ms("5"), Some(vec![5.0]));
        assert_eq!(
            parse_serve_mix_slo_ms(" 2.5 , 7 "),
            Some(vec![2.5, 7.0]),
            "whitespace tolerated"
        );
        for bad in ["", "2,", "2,0", "2,-1", "2,inf", "fast,10"] {
            assert_eq!(parse_serve_mix_slo_ms(bad), None, "{bad:?} must not parse");
        }
    }

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
        assert_eq!(serve_slo_ms(), DEFAULT_SERVE_SLO_MS);
        assert_eq!(serve_slo_ms(), DEFAULT_SERVE_SLO_MS);
        assert_eq!(serve_queue_depth(), None);
        assert_eq!(serve_retry_limit(), DEFAULT_SERVE_RETRY_LIMIT);
        assert_eq!(serve_restart_budget(), DEFAULT_SERVE_RESTART_BUDGET);
        assert_eq!(serve_fault_plan(), None);
        assert_eq!(serve_mix(), None);
        assert_eq!(serve_mix_slo_ms(), None);
        assert_eq!(serve_hedge_ms(), None);
        assert_eq!(serve_quarantine_strikes(), DEFAULT_SERVE_QUARANTINE_STRIKES);
        assert_eq!(
            serve_quarantine_backoff_ms(),
            DEFAULT_SERVE_QUARANTINE_BACKOFF_MS
        );
    }
}
