//! What one workload run produces: named readings with their sample
//! counts, and the tally of operations attempted and failed.

use crate::check::Tally;
use crate::json::Value;
use crate::spec::{self, MetricSpec, Workload};
use crate::stats::{median, median_ns, quantile};

/// One metric as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    /// How many samples the value summarises.
    pub n: u64,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub readings: Vec<Reading>,
    pub tally: Tally,
}

impl Report {
    pub fn new(workload: Workload) -> Report {
        Report {
            workload,
            readings: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Records a reading under a catalogued name; a later reading of the
    /// same name replaces the earlier one.
    pub fn put(&mut self, name: &'static str, value: f64, n: u64) {
        assert!(spec::find(name).is_some(), "{name} is not in the catalogue");
        self.readings.retain(|r| r.name != name);
        self.readings.push(Reading { name, value, n });
    }

    /// Records the `q`-quantile of nanosecond samples, divided by
    /// `per_unit` (1e3 for microseconds, 1e6 for milliseconds). Nothing
    /// is recorded for an empty sample.
    pub fn put_quantile(&mut self, name: &'static str, samples: &mut [u64], q: f64, per_unit: f64) {
        if let Some(ns) = quantile(samples, q) {
            self.put(name, ns as f64 / per_unit, samples.len() as u64);
        }
    }

    /// Records the median of nanosecond durations, divided by
    /// `per_unit`. Nothing is recorded for an empty log.
    pub fn put_median(&mut self, name: &'static str, nanos: &[u64], per_unit: f64) {
        if let Some(ns) = median_ns(nanos) {
            self.put(name, ns as f64 / per_unit, nanos.len() as u64);
        }
    }

    /// The rounds of one run (see `Plan::rounds`) as one report: each
    /// metric is the median of its rounds' readings, and the sample
    /// counts and tallies add up. The quality measures are the
    /// dataset's, so a round that disagrees with the first on one is a
    /// failed check.
    pub fn of_rounds(rounds: Vec<Report>) -> Report {
        let mut rounds = rounds.into_iter();
        let mut run = rounds.next().expect("at least one round");
        let mut series: Vec<Vec<f64>> = run.readings.iter().map(|r| vec![r.value]).collect();
        for round in rounds {
            for r in round.readings {
                let Some(at) = run.readings.iter().position(|mine| mine.name == r.name) else {
                    series.push(vec![r.value]);
                    run.readings.push(r);
                    continue;
                };
                if matches!(r.name, "path_utility" | "opacity") {
                    run.tally.attempt(1);
                    if (series[at][0] - r.value).abs() > 1e-9 {
                        run.tally.fail(format!(
                            "{} is {} in one round and {} in another",
                            r.name, series[at][0], r.value
                        ));
                    }
                } else {
                    series[at].push(r.value);
                }
                run.readings[at].n += r.n;
            }
            run.tally.merge(round.tally);
        }
        for (reading, values) in run.readings.iter_mut().zip(&series) {
            reading.value = median(values).expect("a reading has a value");
        }
        run
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// One line per reading: `workload metric value unit n=<samples>`.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for r in &self.readings {
            let unit = spec::find(r.name).expect("checked in put").unit;
            out.push_str(&format!(
                "{} {} {} {} n={}\n",
                self.workload.name(),
                r.name,
                r.value,
                unit,
                r.n
            ));
        }
        out
    }

    /// The driver's result object over the listed metrics; the name of
    /// the first one this run has no reading for, if any.
    pub fn driver_result(&self, metrics: &[MetricSpec]) -> Result<Value, String> {
        let mut fields = Vec::with_capacity(metrics.len());
        for m in metrics {
            let value = self.get(m.name).ok_or_else(|| {
                format!("{} produced no reading of {}", self.workload.name(), m.name)
            })?;
            fields.push((
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".to_string(), Value::Num(value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            ));
        }
        Ok(Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.tally.failed == 0)),
            (
                "attempted".to_string(),
                Value::Num(self.tally.attempted as f64),
            ),
            ("failed".to_string(), Value::Num(self.tally.failed as f64)),
            ("metrics".to_string(), Value::Obj(fields)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(p50: f64, rate: f64, rss: f64, utility: f64) -> Report {
        let mut report = Report::new(Workload::ReadHot);
        report.put("read_p50_us", p50, 100);
        report.put("reads_per_s", rate, 100);
        report.put("peak_rss_mb", rss, 1);
        report.put("path_utility", utility, 1);
        report.tally.attempt(100);
        report
    }

    #[test]
    fn a_run_is_the_median_of_its_rounds_not_the_best() {
        let run = Report::of_rounds(vec![
            round(10.0, 100.0, 5.0, 0.7),
            round(30.0, 50.0, 7.0, 0.7),
            round(12.0, 90.0, 6.0, 0.7),
        ]);
        assert_eq!(run.get("read_p50_us"), Some(12.0));
        assert_eq!(run.get("reads_per_s"), Some(90.0));
        assert_eq!(run.get("peak_rss_mb"), Some(6.0));
        assert_eq!(run.get("path_utility"), Some(0.7));
        assert_eq!(run.readings[0].n, 300);
        assert_eq!((run.tally.attempted, run.tally.failed), (302, 0));
        // An even count takes the mean of the middle pair.
        let even = Report::of_rounds(vec![round(10.0, 1.0, 1.0, 0.7), round(20.0, 1.0, 1.0, 0.7)]);
        assert_eq!(even.get("read_p50_us"), Some(15.0));
    }

    #[test]
    fn rounds_that_disagree_on_a_quality_measure_fail_a_check() {
        let run = Report::of_rounds(vec![
            round(10.0, 100.0, 5.0, 0.7),
            round(10.0, 100.0, 5.0, 0.6),
        ]);
        assert_eq!(run.tally.failed, 1);
        assert_eq!(run.get("path_utility"), Some(0.7));
    }

    #[test]
    fn a_median_is_recorded_with_its_sample_count() {
        let mut report = Report::new(Workload::Churn);
        report.put_median("fresh_read_p50_ms", &[3_000_000, 1_000_000, 2_000_000], 1e6);
        assert_eq!(report.get("fresh_read_p50_ms"), Some(2.0));
        assert_eq!(report.readings[0].n, 3);
        report.put_median("recovery_p50_ms", &[], 1e6);
        assert_eq!(report.get("recovery_p50_ms"), None);
    }
}
