//! Aggregation of rounds into reported values, the results document, the
//! printed tables, and `--compare`.

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, MIGRATION, PER_LAYER};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-slice sample counts below this leave fewer than ten samples beyond
/// the slice's p99.
pub const MIN_SLICE_SAMPLES: f64 = 1_000.0;

/// One round as handed from the child process to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDoc {
    /// Wall time of every set-up the round made.
    pub setups_s: Vec<f64>,
    /// The round's warm-up window.
    pub warmup_s: f64,
    /// Peak resident set of the round's process.
    pub peak_rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// A violated invariant or failed operation.
    pub error: Option<String>,
    /// Per slice, the value of every timed metric that had a sample.
    pub rows: Vec<BTreeMap<String, f64>>,
}

impl RoundDoc {
    /// The hand-over document.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("setups_s", Json::from(self.setups_s.clone())),
            ("warmup_s", Json::from(self.warmup_s)),
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "error",
                self.error.as_deref().map_or(Json::Null, Json::from),
            ),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|row| {
                            Json::object(row.iter().map(|(k, v)| (k.clone(), Json::from(*v))))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a hand-over document back.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let number = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("round document lacks {key}"))
        };
        let rows = doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("round document lacks rows")?
            .iter()
            .map(|row| {
                row.as_object()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .collect();
        Ok(Self {
            setups_s: doc
                .get("setups_s")
                .and_then(Json::as_array)
                .ok_or("round document lacks setups_s")?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            warmup_s: number("warmup_s")?,
            peak_rss_mb: number("peak_rss_mb")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
            rows,
        })
    }
}

/// The reported value of one metric and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// The metric.
    pub metric: Metric,
    /// The reported value, see [`reported`].
    pub value: f64,
    /// Quartiles and samples.
    pub summary: Summary,
}

/// The end-to-end result of one workload over all its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations failed over all rounds.
    pub failed: u64,
    /// Every problem found: failed operations, violated invariants,
    /// metrics without a sample.
    pub errors: Vec<String>,
    /// Reported metrics, in table order.
    pub metrics: Vec<Reported>,
    /// Smallest per-slice sample count.
    pub min_slice_samples: f64,
}

/// The value reported for `metric` from its samples: the median — over the
/// slices for a timed metric, over the run's set-ups for `setup_s` and
/// `deploy_s` — and the maximum over the rounds for `peak_rss_mb`.
pub fn reported(metric: &Metric, summary: &Summary) -> f64 {
    match metric.name {
        "peak_rss_mb" => summary.max(),
        _ => summary.median,
    }
}

/// `value` with four significant digits, or all its integer digits.
fn cell(value: f64) -> String {
    let decimals = if value == 0.0 {
        0
    } else {
        (3 - value.abs().log10().floor() as i32).clamp(0, 9) as usize
    };
    format!("{value:.decimals$}")
}

/// How the timed metric `name` read over `rows`, one row per slice; `None`
/// when no slice has a sample of it.  Its median is the value every
/// client-observed figure is reported as, end to end and as `client.*`.
pub fn over_slices<'a>(
    rows: impl Iterator<Item = &'a BTreeMap<String, f64>>,
    name: &str,
) -> Option<Summary> {
    Summary::of(rows.filter_map(|row| row.get(name).copied()).collect())
}

/// Folds the rounds of one workload into one [`Reported`] per metric.
pub fn aggregate(rounds: &[RoundDoc]) -> EndToEnd {
    let mut out = EndToEnd {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        errors: rounds.iter().filter_map(|r| r.error.clone()).collect(),
        metrics: Vec::new(),
        min_slice_samples: f64::INFINITY,
    };
    let rows = || rounds.iter().flat_map(|r| r.rows.iter());
    for count in rows().filter_map(|row| row.get("samples")) {
        out.min_slice_samples = out.min_slice_samples.min(*count);
    }
    for metric in END_TO_END.iter().chain([&MIGRATION]) {
        let setups = |plus_warmup: bool| {
            let samples = rounds.iter().flat_map(|r| {
                let warmup = if plus_warmup { r.warmup_s } else { 0.0 };
                r.setups_s.iter().map(move |setup| setup + warmup)
            });
            Summary::of(samples.collect())
        };
        let summary = match metric.name {
            "setup_s" => setups(true),
            "deploy_s" => setups(false),
            "peak_rss_mb" => Summary::of(rounds.iter().map(|r| r.peak_rss_mb).collect()),
            name => over_slices(rows(), name),
        };
        match summary {
            Some(summary) => out.metrics.push(Reported {
                metric: *metric,
                value: reported(metric, &summary),
                summary,
            }),
            None if metric.name == MIGRATION.name => {}
            None => out.errors.push(format!("no sample of {}", metric.name)),
        }
    }
    if out.failed > 0 && out.errors.is_empty() {
        out.errors.push(format!("{} operations failed", out.failed));
    }
    out
}

impl EndToEnd {
    /// No operation failed, every invariant held, every metric has a value.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result as a member of the results document.
    pub fn to_json(&self) -> Json {
        Json::object(self.metrics.iter().map(|r| {
            (
                r.metric.name,
                Json::object([
                    ("value", Json::from(r.value)),
                    ("unit", Json::from(r.metric.unit)),
                    ("q1", Json::from(r.summary.q1)),
                    ("q3", Json::from(r.summary.q3)),
                    ("samples", Json::from(r.summary.samples.clone())),
                ]),
            )
        }))
    }

    /// The printed table.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "== {workload}: end to end (tracing off; * = gate in BENCHMARK.json) ==\n{:<24} {:>14} {:<5} {:>14} {:>14} {:>4}  {}\n",
            "metric", "value", "unit", "q1", "q3", "n", "iqr/median"
        );
        for r in &self.metrics {
            let _ = writeln!(
                out,
                "{:<24} {:>14} {:<5} {:>14} {:>14} {:>4}  {:.3}",
                format!("{}{}", r.metric.name, if r.metric.gate { " *" } else { "" }),
                cell(r.value),
                r.metric.unit,
                cell(r.summary.q1),
                cell(r.summary.q3),
                r.summary.samples.len(),
                r.summary.iqr_share()
            );
        }
        let _ = writeln!(
            out,
            "attempted {}  failed {}  failed_share {:.6}  smallest slice {} samples{}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.min_slice_samples,
            if self.min_slice_samples < MIN_SLICE_SAMPLES {
                "  (under 1000: fewer than ten samples beyond p99)"
            } else {
                ""
            }
        );
        for error in &self.errors {
            let _ = writeln!(out, "ERROR: {error}");
        }
        out
    }
}

/// The per-layer result of one workload's traced run, as handed from the
/// child process to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDoc {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// A violated invariant, failed operation or failed probe.
    pub error: Option<String>,
    /// Every per-layer metric by name.
    pub values: BTreeMap<String, f64>,
    /// Per span name: count, total ms, self ms.
    pub spans: BTreeMap<String, (f64, f64, f64)>,
}

impl LayerDoc {
    /// No operation failed, every invariant held, every metric is there.
    pub fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0 && self.missing().is_empty()
    }

    /// Per-layer metrics the run did not report.
    pub fn missing(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|name| !self.values.contains_key(*name))
            .collect()
    }

    /// The hand-over document (also a member of the results document).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "error",
                self.error.as_deref().map_or(Json::Null, Json::from),
            ),
            (
                "values",
                Json::object(self.values.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
            (
                "spans",
                Json::object(self.spans.iter().map(|(name, (count, total, own))| {
                    (
                        name.clone(),
                        Json::object([
                            ("count", Json::from(*count)),
                            ("total_ms", Json::from(*total)),
                            ("self_ms", Json::from(*own)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Reads a hand-over document back.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let number = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("traced document lacks {key}"))
        };
        let members = |key: &str| doc.get(key).and_then(Json::as_object).unwrap_or(&[]);
        Ok(Self {
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
            values: members("values")
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            spans: members("spans")
                .iter()
                .filter_map(|(name, span)| {
                    let field = |key: &str| span.get(key).and_then(Json::as_f64);
                    Some((
                        name.clone(),
                        (field("count")?, field("total_ms")?, field("self_ms")?),
                    ))
                })
                .collect(),
        })
    }

    /// The printed tables.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "== {workload}: per layer (traced run, fixed op count) ==\n{:<36} {:>16} {}\n",
            "metric", "value", "unit"
        );
        for metric in PER_LAYER {
            if let Some(value) = self.values.get(metric.name) {
                let _ = writeln!(
                    out,
                    "{:<36} {:>16} {}",
                    metric.name,
                    cell(*value),
                    metric.unit
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>14} {:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (name, (count, total, own)) in &self.spans {
            let _ = writeln!(out, "{name:<24} {count:>10} {total:>14.3} {own:>14.3}");
        }
        let _ = writeln!(out, "attempted {}  failed {}", self.attempted, self.failed);
        if let Some(error) = &self.error {
            let _ = writeln!(out, "ERROR: {error}");
        }
        for name in self.missing() {
            let _ = writeln!(out, "ERROR: metric {name} missing");
        }
        out
    }
}

/// The verdict of `--compare` for one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the run-to-run spread.
    Better,
    /// Neither better nor worse.
    Same,
    /// B is worse than A by more than the metric's bound.
    Worse,
    /// The spread of the samples exceeds the bound: no call can be made.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the samples `a` (the base) and `b` of one metric.
pub fn judge(metric: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let (value_a, value_b) = (reported(metric, a), reported(metric, b));
    // Positive `worse_by`: B is worse than A by that share of A.
    let signed = match metric.better {
        Better::Lower => value_b - value_a,
        Better::Higher => value_a - value_b,
    };
    let worse_by = if value_a == 0.0 {
        0.0
    } else {
        signed / value_a.abs()
    };
    let spread = a.iqr_share().max(b.iqr_share());
    if spread > metric.bound {
        // Too noisy for the bound — unless the two sets do not even overlap.
        let (a_lo, a_hi) = (a.samples[0], a.max());
        let (b_lo, b_hi) = (b.samples[0], b.max());
        let b_all_better = match metric.better {
            Better::Lower => b_hi < a_lo,
            Better::Higher => b_lo > a_hi,
        };
        return if b_all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summaries_of(doc: &Json, workload: &str) -> BTreeMap<String, Summary> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(Json::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, metric)| {
            let samples = metric
                .get("samples")?
                .as_array()?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            Some((name.clone(), Summary::of(samples)?))
        })
        .collect()
}

/// The `--compare` table of two results documents, `a` being the base.
pub fn compare(a: &Json, b: &Json) -> String {
    let mut out = format!(
        "{:<22} {:<22} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6} {:>9}  {}\n",
        "workload",
        "metric",
        "A value",
        "A q1",
        "A q3",
        "B value",
        "B q1",
        "B q3",
        "bound",
        "B/A",
        "verdict"
    );
    let workloads = a.get("workloads").and_then(Json::as_object).unwrap_or(&[]);
    for (workload, _) in workloads {
        let (in_a, in_b) = (summaries_of(a, workload), summaries_of(b, workload));
        for metric in END_TO_END.iter().chain([&MIGRATION]) {
            let (Some(sa), Some(sb)) = (in_a.get(metric.name), in_b.get(metric.name)) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<22} {:<22} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6.2} {:>9.4}  {}",
                workload,
                metric.name,
                cell(reported(metric, sa)),
                cell(sa.q1),
                cell(sa.q3),
                cell(reported(metric, sb)),
                cell(sb.q1),
                cell(sb.q3),
                metric.bound,
                reported(metric, sb) / reported(metric, sa),
                judge(metric, sa, sb).as_str()
            );
        }
    }
    out.push_str(
        "value: median of the slices (setup_s, deploy_s: of the set-ups; peak_rss_mb: maximum of \
         the rounds).  B/A is B's value over A's (base: A).  unresolved: the quartile spread of A \
         or B exceeds the bound.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup_s: f64, peak: f64, throughput: &[f64]) -> RoundDoc {
        RoundDoc {
            setups_s: vec![setup_s, setup_s + 0.5],
            warmup_s: 0.25,
            peak_rss_mb: peak,
            attempted: 10,
            failed: 0,
            error: None,
            rows: throughput
                .iter()
                .map(|t| {
                    END_TO_END
                        .iter()
                        .map(|m| (m.name.to_string(), *t))
                        .chain([("samples".to_string(), 2_000.0)])
                        .collect()
                })
                .collect(),
        }
    }

    #[test]
    fn timed_metrics_are_medians_over_the_slices_of_all_rounds() {
        let rounds = [
            round(0.5, 30.0, &[100.0, 110.0]),
            round(0.7, 50.0, &[90.0, 1.0]),
            round(0.6, 40.0, &[105.0, 95.0]),
        ];
        let result = aggregate(&rounds);
        assert!(result.correct(), "{:?}", result.errors);
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|r| r.metric.name == name)
                .map(|r| (r.value, r.summary.samples.len()))
        };
        // Median of [1, 90, 95, 100, 105, 110]; the stalled slice does not
        // drag it the way it drags the mean (83.5).
        assert_eq!(value("throughput_eps"), Some((97.5, 6)));
        // Median of the set-ups [0.5, 0.6, 0.7, 1.0, 1.1, 1.2], and with the
        // warm-up window of 0.25 s behind each.
        assert_eq!(value("deploy_s"), Some((0.85, 6)));
        assert_eq!(value("setup_s"), Some((1.1, 6)));
        assert_eq!(value("peak_rss_mb"), Some((50.0, 3)));
        assert_eq!(value("migration_ms_p50"), None);
        assert_eq!(result.attempted, 30);
        assert_eq!(result.min_slice_samples, 2_000.0);
    }

    #[test]
    fn cells_keep_four_significant_digits() {
        assert_eq!(cell(0.0), "0");
        assert_eq!(cell(0.006_912_3), "0.006912");
        assert_eq!(cell(0.226), "0.2260");
        assert_eq!(cell(11.4375), "11.44");
        assert_eq!(cell(-0.8589), "-0.8589");
        assert_eq!(cell(104_643.2), "104643");
    }

    #[test]
    fn failures_and_missing_metrics_make_a_result_incorrect() {
        let mut failed = round(0.5, 30.0, &[100.0]);
        failed.failed = 1;
        assert!(!aggregate(&[failed]).correct());
        let mut violated = round(0.5, 30.0, &[100.0]);
        violated.error = Some("invariant violated: gold".into());
        assert!(!aggregate(&[violated]).correct());
        let mut partial = round(0.5, 30.0, &[100.0]);
        partial.rows[0].remove("read_latency_p50_us");
        let result = aggregate(&[partial]);
        assert!(result
            .errors
            .iter()
            .any(|e| e.contains("read_latency_p50_us")));
    }

    #[test]
    fn documents_survive_the_hand_over() {
        let doc = round(0.5, 30.0, &[100.0, 101.5]);
        let text = doc.to_json().to_string();
        assert_eq!(
            RoundDoc::from_json(&Json::parse(&text).unwrap()).unwrap(),
            doc
        );
        let layers = LayerDoc {
            attempted: 5,
            failed: 0,
            error: Some("probe failed".into()),
            values: [("api.submit_us_p50".to_string(), 1.25)].into(),
            spans: [("op".to_string(), (5.0, 2.5, 0.5))].into(),
        };
        let text = layers.to_json().to_string();
        assert_eq!(
            LayerDoc::from_json(&Json::parse(&text).unwrap()).unwrap(),
            layers
        );
        assert!(!layers.correct());
        assert!(layers.missing().contains(&"net.tcp.rtt_us"));
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = END_TO_END
            .iter()
            .find(|m| m.name == "latency_p50_us")
            .unwrap();
        let higher = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_eps")
            .unwrap();
        let tight = |mid: f64| Summary::of(vec![mid * 0.99, mid, mid * 1.01]).unwrap();
        let noisy = |mid: f64| Summary::of(vec![mid * 0.5, mid, mid * 1.5]).unwrap();
        assert_eq!(judge(lower, &tight(100.0), &tight(100.5)), Verdict::Same);
        assert_eq!(judge(lower, &tight(100.0), &tight(120.0)), Verdict::Worse);
        assert_eq!(judge(lower, &tight(100.0), &tight(80.0)), Verdict::Better);
        assert_eq!(judge(higher, &tight(100.0), &tight(80.0)), Verdict::Worse);
        assert_eq!(judge(higher, &tight(100.0), &tight(120.0)), Verdict::Better);
        assert_eq!(
            judge(lower, &noisy(100.0), &tight(100.0)),
            Verdict::Unresolved
        );
        // Noisy, but every sample of B beats every sample of A.
        assert_eq!(judge(lower, &noisy(100.0), &tight(10.0)), Verdict::Better);
    }
}
