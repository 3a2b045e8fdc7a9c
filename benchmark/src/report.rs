//! What one workload run produces, how it is printed, and how two results
//! files are compared (`agree`).

use crate::spans::Recorder;
use crate::spec::{self, Better};
use genbase_util::Json;
use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seeds the per-pass cell shuffle and the request sampler (the corpus
    /// is fixed by [`spec::DATA_SEED`]).
    pub seed: u64,
    /// Measured window after set-up.
    pub window: Duration,
    /// Kernel thread budget, `min(nproc, 4)`.
    pub host_threads: usize,
    /// Smoke mode: Small data, low sample floors.
    pub quick: bool,
    /// Record spans and per-layer metrics instead of end-to-end metrics.
    pub traced: bool,
    /// Where result files and spill files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Params {
    /// Fewest passes a cell workload must finish.
    pub fn min_passes(&self) -> usize {
        if self.quick {
            2
        } else {
            8
        }
    }

    /// Fewest requests each front of `serve_mix` must finish (p99 needs ten
    /// samples beyond it).
    pub fn min_requests(&self) -> usize {
        if self.quick {
            40
        } else {
            1000
        }
    }

    /// The window may stretch this far to reach the sample floor on a slow
    /// host; past it the run fails.
    pub fn hard_cap(&self) -> Duration {
        self.window * 4 + Duration::from_secs(10)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// An end-to-end metric (unit from the protocol table).
    pub fn end_to_end(name: &str, value: f64, n: usize) -> Metric {
        let spec = spec::end_to_end(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        Metric {
            name: name.to_string(),
            value,
            unit: spec.unit,
            n,
        }
    }

    /// A per-layer metric (unit from the protocol table).
    pub fn per_layer(name: &str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: spec::per_layer_unit(name),
            n,
        }
    }
}

/// Result of one workload run.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: &'static str,
    /// Timed ops plus output checks attempted.
    pub attempted: u64,
    /// Ops that did not complete, were refused, errored or returned the
    /// wrong output.
    pub failed: u64,
    /// Passes finished (cell workloads) or requests on the slower front.
    pub samples: usize,
    /// The metrics, end-to-end or per-layer by mode.
    pub metrics: Vec<Metric>,
    /// Traced vs untraced `pass_s` (traced runs).
    pub trace_overhead_pct: Option<f64>,
    /// Recorded spans (traced runs).
    pub spans: Option<Recorder>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl WorkloadReport {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> WorkloadReport {
        WorkloadReport {
            workload,
            attempted: 0,
            failed: 0,
            samples: 0,
            metrics: Vec::new(),
            trace_overhead_pct: None,
            spans: None,
            errors: Vec::new(),
        }
    }

    /// Note a failed op, keeping the first few descriptions.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what());
        }
    }

    /// `workload metric value unit n` lines, one per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                self.workload, m.name, m.value, m.unit, m.n
            ));
        }
        if let Some(pct) = self.trace_overhead_pct {
            out.push_str(&format!(
                "{} trace_overhead_pct {pct} % {}\n",
                self.workload, self.samples
            ));
        }
        out
    }

    /// The builder contract's result object: `correct`, `attempted`,
    /// `failed`, and exactly the metrics `BENCHMARK.json` lists for this
    /// mode (its `end_to_end`, or its `per_layer`).
    pub fn contract_json(&self, traced: bool) -> Json {
        let wanted: Vec<&str> = if traced {
            spec::PER_LAYER
                .iter()
                .map(|(n, _, _)| *n)
                .filter(|n| spec::per_layer_in_contract(n))
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .filter(|m| m.contract.is_some())
                .map(|m| m.name)
                .collect()
        };
        let mut metrics = Json::obj();
        for name in wanted {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{} did not report {name}", self.workload));
            let mut o = Json::obj();
            o.set("value", Json::Num(m.value));
            o.set("unit", Json::from(m.unit));
            metrics.set(name, o);
        }
        let mut out = Json::obj();
        out.set("correct", Json::Bool(self.failed == 0));
        out.set("attempted", Json::from(self.attempted));
        out.set("failed", Json::from(self.failed));
        out.set("metrics", metrics);
        out
    }

    /// Everything, for `results.json` / `trace.json`.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        out.set("attempted", Json::from(self.attempted));
        out.set("failed", Json::from(self.failed));
        out.set("samples", Json::from(self.samples));
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut o = Json::obj();
            o.set("value", Json::Num(m.value));
            o.set("unit", Json::from(m.unit));
            o.set("n", Json::from(m.n));
            metrics.set(&m.name, o);
        }
        out.set("metrics", metrics);
        if let Some(pct) = self.trace_overhead_pct {
            out.set("trace_overhead_pct", Json::Num(pct));
        }
        out.set(
            "errors",
            Json::Arr(self.errors.iter().map(|e| Json::from(e.as_str())).collect()),
        );
        if let Some(spans) = &self.spans {
            out.set("spans", spans.to_json());
        }
        out
    }
}

/// Compare two results documents (as written by `run`): every end-to-end
/// metric present in both must agree within its bound — exactly, for the
/// counts. Returns one line per comparison and whether all agreed. The
/// comparison is symmetric (neither file is "the baseline"): the relative
/// difference is taken against the better of the two values.
pub fn agree(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(|pairs| pairs.to_vec())
            .ok_or_else(|| "results file has no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut all_ok = true;
    for (workload, doc_a) in &wa {
        let Some((_, doc_b)) = wb.iter().find(|(w, _)| w == workload) else {
            return Err(format!("workload {workload} missing from the second file"));
        };
        for m in &spec::END_TO_END {
            let value = |doc: &Json| {
                doc.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|o| o.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(doc_a), value(doc_b)) else {
                continue;
            };
            let (ok, diff) = if m.exact {
                (va == vb, (va - vb).abs())
            } else {
                let (better, worse) = match m.better {
                    Better::Lower => (va.min(vb), va.max(vb)),
                    Better::Higher => (va.max(vb), va.min(vb)),
                };
                let rel = (worse - better).abs() / better.abs();
                (rel <= m.bound, rel)
            };
            all_ok &= ok;
            out.push_str(&format!(
                "{workload} {} {va} {vb} {} diff {diff:.4} bound {} {}\n",
                m.name,
                m.unit,
                if m.exact {
                    "exact".to_string()
                } else {
                    m.bound.to_string()
                },
                if ok { "ok" } else { "DISAGREE" }
            ));
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pass_s: f64, peak: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"sql_mat": {{"metrics": {{
                "pass_s": {{"value": {pass_s}, "unit": "s", "n": 9}},
                "peak_alloc_mb": {{"value": {peak}, "unit": "MB", "n": 9}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn agree_applies_bounds_and_exact_counts() {
        // 9 % apart: inside pass_s's 10 % bound, in either order.
        assert!(agree(&doc(1.0, 25.6), &doc(1.09, 25.6)).unwrap().1);
        assert!(agree(&doc(1.09, 25.6), &doc(1.0, 25.6)).unwrap().1);
        // 11 % apart: outside.
        let (text, ok) = agree(&doc(1.0, 25.6), &doc(1.11, 25.6)).unwrap();
        assert!(!ok);
        assert!(text.contains("pass_s") && text.contains("DISAGREE"));
        // A count must repeat exactly.
        assert!(!agree(&doc(1.0, 25.6), &doc(1.0, 25.7)).unwrap().1);
        // A workload missing from one file is an error, not agreement.
        let empty = Json::parse(r#"{"workloads": {}}"#).unwrap();
        assert!(agree(&doc(1.0, 1.0), &empty).is_err());
    }

    #[test]
    fn contract_json_lists_exactly_the_benchmark_json_metrics() {
        let names = [
            "setup_s",
            "pass_s",
            "cell_geomean_ms",
            "peak_alloc_mb",
            "rss_peak_mb",
        ];
        let mut report = WorkloadReport {
            workload: "serve_mix",
            attempted: 10,
            failed: 0,
            samples: 5,
            metrics: names
                .iter()
                .map(|n| Metric::end_to_end(n, 1.5, 5))
                .collect(),
            trace_overhead_pct: None,
            spans: None,
            errors: Vec::new(),
        };
        // Metrics outside BENCHMARK.json must not leak into the contract object.
        report
            .metrics
            .push(Metric::end_to_end("req_per_s", 165.0, 5));
        report
            .metrics
            .push(Metric::end_to_end("http_p99_ms", 9.0, 5));
        let json = report.contract_json(false);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let listed: Vec<&str> = json
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(listed, names);
    }
}
