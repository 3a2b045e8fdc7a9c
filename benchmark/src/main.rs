//! `genbase-benchmark`: the repository's benchmark (see `README.md`).
//!
//! ```text
//! genbase-benchmark run [--seed S] [--seconds T] [--traced] [--repeat 2] [--quick]
//! genbase-benchmark run --workload W [--seed S] [--seconds T] [--traced] [--quick]
//! genbase-benchmark ladder [--quick]
//! genbase-benchmark contract --workload W --seed S --seconds T --trace 0|1
//! genbase-benchmark agree A.json B.json
//! ```
//!
//! `run` executes every workload, each in a fresh child process of this
//! binary (`run --workload W`, so `rss_peak_mb` is per workload), and writes
//! `out/results.json`; with `--traced` it also runs the ladder once, in a
//! child of its own, and writes `out/trace.json` instead. `contract` is the
//! build driver's form: one workload in this process — plus the ladder when
//! traced, since the driver wants every per-layer metric from every traced
//! run — ending with the contract's one-line JSON result.

mod cells;
mod host;
mod ladder;
mod report;
mod sample;
mod serve;
mod spans;
mod spec;
mod stats;

use genbase_util::Json;
use report::{Params, WorkloadReport};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  genbase-benchmark run [--workload W] [--seed S] [--seconds T] [--traced]
                        [--repeat N] [--quick]
  genbase-benchmark ladder [--quick]
  genbase-benchmark contract --workload W --seed S --seconds T --trace 0|1
  genbase-benchmark agree A.json B.json";

/// Default measured window per workload, seconds.
const WINDOW_SECS: u64 = 24;

/// Results schema tag.
const SCHEMA: &str = "genbase-benchmark-v1";

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    repeat: usize,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        repeat: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = Some(number(value()?)?),
            "--trace" => out.traced = number(value()?)? != 0,
            "--traced" => out.traced = true,
            "--repeat" => out.repeat = number(value()?)?.max(1) as usize,
            "--quick" => out.quick = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    // Quick mode is the smoke path `cargo test` exercises in a debug build;
    // a measurement from an unoptimized build is not one.
    if cfg!(debug_assertions) && !out.quick {
        return Err("built with debug_assertions; run with --release".to_string());
    }
    Ok(out)
}

impl RunArgs {
    fn params(&self) -> Params {
        let seconds = self
            .seconds
            .unwrap_or(if self.quick { 2 } else { WINDOW_SECS });
        Params {
            seed: self.seed,
            window: Duration::from_secs(seconds),
            host_threads: host::host_threads(),
            quick: self.quick,
            traced: self.traced,
            out_dir: out_dir(),
        }
    }
}

/// Run one workload in this process: its end-to-end metrics, or traced its
/// spans and own per-layer metrics.
fn run_workload(name: &str, p: &Params, process_start: Instant) -> Result<WorkloadReport, String> {
    match cells::workload(name) {
        Some(workload) => cells::run(&workload, p, process_start),
        None if name == "serve_mix" && p.traced => serve::run_traced(p),
        None if name == "serve_mix" => serve::run(p, process_start),
        None => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            Err(format!(
                "unknown workload {name:?}; the workloads are {known:?}"
            ))
        }
    }
}

/// File a child process leaves for the orchestrating parent (`part` is a
/// workload name or `ladder`).
fn part_file(p: &Params, part: &str) -> PathBuf {
    let mode = if p.traced { "trace" } else { "results" };
    p.out_dir.join(format!("{mode}.{part}.json"))
}

/// The settings block of every results file.
fn settings(p: &Params) -> Json {
    let mut out = Json::obj();
    out.set("schema", Json::from(SCHEMA));
    out.set(
        "mode",
        Json::from(if p.traced { "traced" } else { "end_to_end" }),
    );
    out.set("provenance", host::provenance());
    out.set("seed", Json::from(p.seed));
    out.set("data_seed", Json::from(spec::DATA_SEED));
    out.set("window_s", Json::from(p.window.as_secs()));
    out.set("quick", Json::Bool(p.quick));
    out
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(path.parent().expect("file in a directory"))
        .and_then(|_| std::fs::write(path, doc.render() + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn print_report(report: &WorkloadReport) {
    print!("{}", report.lines());
    for error in &report.errors {
        println!("{} FAILED {error}", report.workload);
    }
}

/// `run --workload W`: one workload here; its report goes to the part file.
fn run_single(name: &str, p: &Params, process_start: Instant) -> Result<i32, String> {
    let report = run_workload(name, p, process_start)?;
    print_report(&report);
    write_json(&part_file(p, name), &report.to_json())?;
    Ok(0)
}

/// `ladder`: the ladder alone; its metrics go to the part file.
fn run_ladder(p: &Params) -> Result<i32, String> {
    let mut report = WorkloadReport::new("ladder");
    report.metrics = ladder::run(p)?;
    print_report(&report);
    write_json(&part_file(p, "ladder"), &report.to_json())?;
    Ok(0)
}

/// `contract`: the build driver's form. One workload here — and the ladder
/// when traced, because the driver wants every per-layer metric from every
/// traced run — ending in the contract's one-line result.
fn run_contract(name: &str, p: &Params, process_start: Instant) -> Result<i32, String> {
    let mut report = run_workload(name, p, process_start)?;
    if p.traced {
        report.metrics.extend(ladder::run(p)?);
    }
    print_report(&report);
    println!("{}", report.contract_json(p.traced).render());
    Ok(0)
}

/// Run one part (`run --workload W ..` or `ladder ..`) in a child process of
/// this binary and collect the file it leaves.
fn run_part(p: &Params, part: &str, args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(&exe)
        .args(args)
        .status()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("{part} exited with {status}"));
    }
    let path = part_file(p, part);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let _ = std::fs::remove_file(&path);
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run` without `--workload`: every workload in a child process each,
/// `repeat` sets interleaved per workload so that both sets see the same
/// machine state; with two or more sets the first two must agree. A traced
/// run adds the ladder, once.
fn run_all(args: &RunArgs, p: &Params) -> Result<i32, String> {
    let mut common: Vec<String> = Vec::new();
    if p.quick {
        common.push("--quick".to_string());
    }
    let mut sets: Vec<Json> = (0..args.repeat).map(|_| Json::obj()).collect();
    let mut failed_ops = 0u64;
    for workload in &spec::WORKLOADS {
        for (set, docs) in sets.iter_mut().enumerate() {
            let set_name = (b'A' + set as u8) as char;
            eprintln!("== {} (set {set_name}): {}", workload.name, workload.why);
            let mut child = vec!["run".to_string()];
            for (flag, value) in [
                ("--workload", workload.name.to_string()),
                ("--seed", p.seed.to_string()),
                ("--seconds", p.window.as_secs().to_string()),
                ("--trace", u8::from(p.traced).to_string()),
            ] {
                child.extend([flag.to_string(), value]);
            }
            child.extend(common.iter().cloned());
            let result = run_part(p, workload.name, &child)?;
            failed_ops += result.get("failed").and_then(Json::as_u64).unwrap_or(1);
            docs.set(workload.name, result);
        }
    }
    let ladder = if p.traced {
        eprintln!("== ladder: each layer's public functions, called directly");
        let mut child = vec!["ladder".to_string()];
        child.extend(common);
        Some(run_part(p, "ladder", &child)?)
    } else {
        None
    };
    let mut files = Vec::new();
    for (set, workloads) in sets.into_iter().enumerate() {
        let mut doc = settings(p);
        doc.set("workloads", workloads);
        if let Some(ladder) = &ladder {
            doc.set("ladder", ladder.clone());
        }
        let stem = if p.traced { "trace" } else { "results" };
        let name = match set {
            0 => format!("{stem}.json"),
            n => format!("{stem}.{}.json", (b'A' + n as u8) as char),
        };
        let path = p.out_dir.join(name);
        write_json(&path, &doc)?;
        eprintln!("wrote {}", path.display());
        files.push(doc);
    }
    let mut code = 0;
    if failed_ops > 0 {
        eprintln!("{failed_ops} ops failed");
        code = 1;
    }
    if let [a, b, ..] = files.as_slice() {
        let (text, ok) = report::agree(a, b)?;
        print!("{text}");
        if !ok {
            eprintln!("the two sets disagree beyond the bounds");
            code = 1;
        }
    }
    Ok(code)
}

fn agree_files(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err(format!("agree takes two results files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, ok) = report::agree(&load(a)?, &load(b)?)?;
    print!("{text}");
    Ok(if ok { 0 } else { 1 })
}

fn dispatch(argv: &[String], process_start: Instant) -> Result<i32, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(USAGE.to_string());
    };
    if cmd == "agree" {
        return agree_files(rest);
    }
    let args = parse_run(rest)?;
    let mut p = args.params();
    match (cmd.as_str(), &args.workload) {
        ("run", Some(name)) => run_single(name, &p, process_start),
        ("run", None) => run_all(&args, &p),
        ("ladder", None) => {
            p.traced = true;
            run_ladder(&p)
        }
        ("contract", Some(name)) => run_contract(name, &p, process_start),
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match host::single_malloc_arena().and_then(|()| dispatch(&argv, process_start)) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("genbase-benchmark: {message}");
            std::process::exit(2);
        }
    }
}

/// Quick-mode parameters writing under `out/test-<tag>` (tests run in
/// parallel and must not share spill directories).
#[cfg(test)]
pub(crate) fn test_params(tag: &str) -> Params {
    Params {
        seed: 1,
        window: Duration::from_secs(2),
        host_threads: host::host_threads(),
        quick: true,
        traced: false,
        out_dir: out_dir().join(format!("test-{tag}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// protocol tables of `spec`.
    #[test]
    fn benchmark_json_mirrors_the_protocol_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |o: &Json, key: &str| o.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = spec::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(spec::WORKLOADS.iter().all(|w| w.why.len() <= 200));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = spec::END_TO_END
            .iter()
            .filter_map(|m| {
                Some((
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.contract?,
                ))
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = spec::PER_LAYER
            .iter()
            .filter(|(name, _, _)| spec::per_layer_in_contract(name))
            .map(|(name, unit, better)| {
                (
                    name.to_string(),
                    unit.to_string(),
                    better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);
    }

    fn metric_names(report: &WorkloadReport) -> Vec<&str> {
        report.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    /// Smoke: every workload runs end to end in quick mode, verifies its
    /// outputs and reports every end-to-end metric the contract lists.
    #[test]
    fn quick_smoke_runs_every_workload() {
        for workload in &spec::WORKLOADS {
            let p = test_params(workload.name);
            let report = run_workload(workload.name, &p, Instant::now()).unwrap();
            assert_eq!(report.failed, 0, "{}: {:?}", workload.name, report.errors);
            assert!(report.attempted > 0);
            let json = report.contract_json(false);
            for m in spec::END_TO_END.iter().filter(|m| m.contract.is_some()) {
                let value = json
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|o| o.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap();
                assert!(value > 0.0, "{} {} = {value}", workload.name, m.name);
            }
            let _ = std::fs::remove_dir_all(&p.out_dir);
        }
    }

    /// Smoke: the traced run of a cell workload and of `serve_mix` reports
    /// the workload's own per-layer metrics and records well-formed spans;
    /// the ladder reports all the others; together (the `contract` form)
    /// they are every per-layer metric exactly once.
    #[test]
    fn quick_smoke_traced_runs_and_ladder_report_every_layer() {
        let sorted = |mut names: Vec<&'static str>| {
            names.sort_unstable();
            names
        };
        let (own, laddered): (Vec<&str>, Vec<&str>) = spec::PER_LAYER
            .iter()
            .map(|(n, _, _)| *n)
            .partition(|n| spec::per_layer_is_workloads_own(n));
        for name in ["sql_stream", "serve_mix"] {
            let mut p = test_params(&format!("traced-{name}"));
            p.traced = true;
            let report = run_workload(name, &p, Instant::now()).unwrap();
            assert_eq!(report.failed, 0, "{name}: {:?}", report.errors);
            let mut names = metric_names(&report);
            names.sort_unstable();
            assert_eq!(names, sorted(own.clone()), "{name}");
            assert!(report.trace_overhead_pct.unwrap() >= 0.0);
            let spans = report.spans.as_ref().unwrap().spans();
            assert!(!spans.is_empty());
            for (i, span) in spans.iter().enumerate() {
                assert!(span.end_us >= span.start_us, "{name}: {span:?}");
                if let Some(parent) = span.parent {
                    assert!(parent < spans.len() && parent != i);
                }
            }
            let _ = std::fs::remove_dir_all(&p.out_dir);
        }
        let mut p = test_params("ladder");
        p.traced = true;
        let mut report = WorkloadReport::new("ladder");
        report.metrics = ladder::run(&p).unwrap();
        let mut names = metric_names(&report);
        names.sort_unstable();
        assert_eq!(names, sorted(laddered));
        let _ = std::fs::remove_dir_all(&p.out_dir);
    }
}
