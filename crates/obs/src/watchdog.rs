//! The SLO watchdog: threshold rules evaluated over sampled windows that
//! flip `/health` to degraded and journal `watchdog.fired` /
//! `watchdog.cleared` events into the flight recorder, so "the service got
//! slow at 14:02" is on the record even if nobody was scraping.
//!
//! [`Watchdog::standard`] holds the three rules the live telemetry plane
//! runs:
//!
//! | rule            | fires when                                              | threshold |
//! |-----------------|---------------------------------------------------------|-----------|
//! | `ingest_stall`  | `service.batches` has moved before but not recently      | 30 s      |
//! | `fsync_p99`     | `vfs.fsync.nanos` p99 over the lookback above threshold | 2 s       |
//! | `degraded_dwell`| the service has sat degraded too long                   | 10 s      |
//!
//! Other thresholds are another rule set passed to [`Watchdog::new`].  The
//! sampler thread calls [`Watchdog::evaluate`] after every sample; tests
//! drive it directly with an injected clock.

use std::sync::Mutex;
use std::time::Duration;

use crate::recorder::FlightRecorder;
use crate::registry::json_string;
use crate::series::TimeSeries;

/// How far back windowed rules look.
const LOOKBACK: Duration = Duration::from_secs(10);

/// One threshold rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable rule name, e.g. `"fsync_p99"` — the `/health` verdict key.
    pub name: &'static str,
    /// What the rule checks.
    pub kind: RuleKind,
}

/// The rule families the watchdog knows how to evaluate.
#[derive(Debug, Clone)]
pub enum RuleKind {
    /// Fires when `metric`'s windowed quantile `q` exceeds
    /// `threshold_nanos` over the lookback.
    QuantileAbove {
        metric: &'static str,
        q: f64,
        threshold_nanos: u64,
    },
    /// Fires when `metric` has moved at least once but not within
    /// `max_age_nanos` — progress stopped, not "never started".
    Stall {
        metric: &'static str,
        max_age_nanos: u64,
    },
    /// Fires when the service has been degraded (per
    /// [`crate::health::degraded_since_nanos`]) longer than `max_nanos`.
    DegradedDwell { max_nanos: u64 },
}

#[derive(Debug, Default, Clone)]
struct RuleState {
    fired: bool,
    detail: String,
}

/// One rule's current verdict, as served on `/health`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The rule name.
    pub rule: String,
    /// Whether the rule is currently firing.
    pub fired: bool,
    /// Human-readable evidence for the current state.
    pub detail: String,
}

impl Verdict {
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"fired\":{},\"detail\":{}}}",
            json_string(&self.rule),
            self.fired,
            json_string(&self.detail)
        )
    }
}

/// The rule engine.  See the [module docs](self).
pub struct Watchdog {
    rules: Vec<Rule>,
    state: Mutex<Vec<RuleState>>,
}

impl Watchdog {
    /// A watchdog over an explicit rule set.
    pub fn new(rules: Vec<Rule>) -> Watchdog {
        let state = vec![RuleState::default(); rules.len()];
        Watchdog {
            rules,
            state: Mutex::new(state),
        }
    }

    /// The standard rule set of the [module docs](self).
    pub fn standard() -> Watchdog {
        const MS: u64 = 1_000_000;
        Watchdog::new(vec![
            Rule {
                name: "ingest_stall",
                kind: RuleKind::Stall {
                    metric: crate::health::BATCHES_COUNTER,
                    max_age_nanos: 30_000 * MS,
                },
            },
            Rule {
                name: "fsync_p99",
                kind: RuleKind::QuantileAbove {
                    metric: "vfs.fsync.nanos",
                    q: 0.99,
                    threshold_nanos: 2_000 * MS,
                },
            },
            Rule {
                name: "degraded_dwell",
                kind: RuleKind::DegradedDwell {
                    max_nanos: 10_000 * MS,
                },
            },
        ])
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<RuleState>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Evaluates every rule against the sampled windows at `now_nanos`,
    /// journalling fire/clear transitions into `recorder`.
    pub fn evaluate(&self, series: &TimeSeries, now_nanos: u64, recorder: &FlightRecorder) {
        let mut state = self.lock();
        for (rule, state) in self.rules.iter().zip(state.iter_mut()) {
            let (firing, detail) = match &rule.kind {
                RuleKind::QuantileAbove {
                    metric,
                    q,
                    threshold_nanos,
                } => {
                    let quantile = series
                        .histogram_over(metric, LOOKBACK, now_nanos)
                        .filter(|h| h.count > 0)
                        .map(|h| h.quantile(*q));
                    match quantile {
                        Some(value) if value > *threshold_nanos => (
                            true,
                            format!(
                                "{metric} p{:02.0} {:.3}ms > {:.3}ms over last {}s",
                                q * 100.0,
                                value as f64 / 1e6,
                                *threshold_nanos as f64 / 1e6,
                                LOOKBACK.as_secs()
                            ),
                        ),
                        Some(value) => (
                            false,
                            format!(
                                "{metric} p{:02.0} {:.3}ms within budget",
                                q * 100.0,
                                value as f64 / 1e6
                            ),
                        ),
                        None => (false, format!("{metric}: no samples in window")),
                    }
                }
                RuleKind::Stall {
                    metric,
                    max_age_nanos,
                } => match series.age_of_last_change(metric, now_nanos) {
                    Some(age) if age > *max_age_nanos => (
                        true,
                        format!(
                            "{metric} stalled for {:.1}s (limit {:.1}s)",
                            age as f64 / 1e9,
                            *max_age_nanos as f64 / 1e9
                        ),
                    ),
                    Some(age) => (
                        false,
                        format!("{metric} moved {:.1}s ago", age as f64 / 1e9),
                    ),
                    None => (false, format!("{metric}: no progress recorded yet")),
                },
                RuleKind::DegradedDwell { max_nanos } => {
                    match crate::health::degraded_since_nanos() {
                        Some(since) => {
                            let dwell = now_nanos.saturating_sub(since);
                            if dwell > *max_nanos {
                                (
                                    true,
                                    format!(
                                        "degraded for {:.1}s (limit {:.1}s)",
                                        dwell as f64 / 1e9,
                                        *max_nanos as f64 / 1e9
                                    ),
                                )
                            } else {
                                (false, format!("degraded for {:.1}s", dwell as f64 / 1e9))
                            }
                        }
                        None => (false, "not degraded".to_string()),
                    }
                }
            };
            if firing && !state.fired {
                recorder.record("watchdog.fired", None, format!("{}: {detail}", rule.name));
                crate::counter!("obs.watchdog.fired").inc();
            } else if !firing && state.fired {
                recorder.record("watchdog.cleared", None, format!("{}: {detail}", rule.name));
                crate::counter!("obs.watchdog.cleared").inc();
            }
            state.fired = firing;
            state.detail = detail;
        }
    }

    /// The current verdict of every rule, in rule order.
    pub fn verdicts(&self) -> Vec<Verdict> {
        self.rules
            .iter()
            .zip(self.lock().iter())
            .map(|(rule, state)| Verdict {
                rule: rule.name.to_string(),
                fired: state.fired,
                detail: state.detail.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn stall_and_quantile_rules_fire_and_clear_in_causal_order() {
        let _guard = crate::gate_test_lock();
        crate::set_enabled(true);
        let r = Registry::default();
        let rec = FlightRecorder::with_capacity(64);
        let wd = Watchdog::new(vec![
            Rule {
                name: "ingest_stall",
                kind: RuleKind::Stall {
                    metric: "service.batches",
                    max_age_nanos: 3 * SEC,
                },
            },
            Rule {
                name: "fsync_p99",
                kind: RuleKind::QuantileAbove {
                    metric: "vfs.fsync.nanos",
                    q: 0.99,
                    threshold_nanos: 2_000_000,
                },
            },
        ]);
        let mut series = TimeSeries::with_capacity(64);

        // t=1s: progress, fast fsyncs — nothing fires.
        r.counter("service.batches").inc();
        r.histogram("vfs.fsync.nanos").record(100_000);
        series.sample(SEC, &r.snapshot());
        wd.evaluate(&series, SEC, &rec);
        assert!(wd.verdicts().iter().all(|v| !v.fired));
        assert_eq!(rec.recorded(), 0, "quiet rules journal nothing");

        // t=2s: a slow fsync arrives -> fsync_p99 fires.
        r.histogram("vfs.fsync.nanos").record(50_000_000);
        series.sample(2 * SEC, &r.snapshot());
        wd.evaluate(&series, 2 * SEC, &rec);
        let verdicts = wd.verdicts();
        assert!(!verdicts[0].fired);
        assert!(verdicts[1].fired, "{:?}", verdicts[1]);

        // t=6s: no batches since t=1s -> the stall rule joins in.
        series.sample(6 * SEC, &r.snapshot());
        wd.evaluate(&series, 6 * SEC, &rec);
        assert!(wd.verdicts()[0].fired);

        // t=14s: progress resumes and the slow fsync ages out of the 10s
        // lookback -> both rules clear.
        r.counter("service.batches").inc();
        series.sample(14 * SEC, &r.snapshot());
        wd.evaluate(&series, 14 * SEC, &rec);
        assert!(wd.verdicts().iter().all(|v| !v.fired));

        // The journal shows fire -> fire -> clear -> clear, causally ordered
        // by seq, one transition each.
        let events = rec.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                "watchdog.fired",
                "watchdog.fired",
                "watchdog.cleared",
                "watchdog.cleared"
            ]
        );
        assert!(
            events[0].detail.starts_with("fsync_p99:"),
            "{:?}",
            events[0]
        );
        assert!(events[1].detail.starts_with("ingest_stall:"));
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn degraded_dwell_tracks_global_health() {
        let _guard = crate::gate_test_lock();
        crate::set_enabled(true);
        crate::health::reset_for_tests();
        let rec = FlightRecorder::with_capacity(8);
        let wd = Watchdog::new(vec![Rule {
            name: "degraded_dwell",
            kind: RuleKind::DegradedDwell { max_nanos: SEC },
        }]);
        let series = TimeSeries::with_capacity(4);

        crate::health::set_degraded(3, "injected");
        let since = crate::health::degraded_since_nanos().unwrap();
        wd.evaluate(&series, since + SEC / 2, &rec);
        assert!(!wd.verdicts()[0].fired, "short dwell stays quiet");
        wd.evaluate(&series, since + 2 * SEC, &rec);
        assert!(wd.verdicts()[0].fired);
        crate::health::set_recovered();
        wd.evaluate(&series, since + 3 * SEC, &rec);
        assert!(!wd.verdicts()[0].fired);
        let kinds: Vec<&str> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["watchdog.fired", "watchdog.cleared"]);
        crate::health::reset_for_tests();
    }

    #[test]
    fn standard_builds_the_default_rule_set() {
        let wd = Watchdog::standard();
        let names: Vec<&str> = wd.rules.iter().map(|r| r.name).collect();
        assert_eq!(names, ["ingest_stall", "fsync_p99", "degraded_dwell"]);
    }
}
