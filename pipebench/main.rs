//! Pipeline benchmark of the T-UGAL reproduction: four workloads that drive
//! topology build, path tables, the LP model, Algorithm 1 and the cycle
//! engine through their public functions (see README.md).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--seed <n>] [--seconds <s>] [--reps <r>] [--trace <0|1>]
//! ```
//!
//! With `--workload`, one run.  The last line of stdout is a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace 1` the per-layer ones.  Without `--workload`,
//! every workload runs `--reps` times, each run in a fresh child process,
//! plus one traced run each with `--trace 1`.  That prints one median line
//! per metric and writes every run to `target/benchmark/suite-seed<S>.json`.
//!
//! Exit codes: 0 when every check passed, 1 when a check failed, 2 on a
//! set-up error (bad arguments, a `TUGAL_*` variable set, an invalid
//! configuration).

mod host;
mod trace;
mod workloads;

use serde::Value;
use std::process::{Command, ExitCode, Stdio};
use workloads::{quartiles, Outcome, Workload};

/// End-to-end metrics (`--trace 0`), as BENCHMARK.json declares them.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`), as BENCHMARK.json declares them.  A
/// layer that a workload does not run reads 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("netsim.alloc_ms", "ms"),
    ("netsim.advance_ms", "ms"),
    ("netsim.inject_ms", "ms"),
    ("netsim.transmit_ms", "ms"),
    ("netsim.stop_ms", "ms"),
    ("netsim.cycles", "cycles"),
    ("netsim.attributed_frac", "ratio"),
    ("netsim.runner.job_p50_ms", "ms"),
    ("netsim.runner.job_max_ms", "ms"),
    ("netsim.runner.busy_frac", "ratio"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.refactorizations", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.solve_ms", "ms"),
    ("model.pair_stats_ms", "ms"),
    ("model.pairs", "count"),
    ("core.step1_ms", "ms"),
    ("core.step2_ms", "ms"),
    ("core.candidates", "count"),
    ("core.balance_ms", "ms"),
    ("host.cpu_util", "ratio"),
    ("routing.table_build_ms", "ms"),
    ("routing.intern_ms", "ms"),
    ("routing.vlb_paths", "count"),
    ("topology.build_ms", "ms"),
    ("traffic.demands_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The committed seed-1 outputs, keyed by workload name.
const EXPECTED: &str = include_str!("expected.json");

/// Default `--seconds`: BENCHMARK.json's `run_seconds`.
const RUN_SECONDS: f64 = 25.0;

/// Where traces and suite summaries go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";

const USAGE: &str = "usage: benchmark --workload <sim_ur|sim_adv|algo1|step1_max> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     benchmark [--seed <n>] [--seconds <s>] [--reps <r>] [--trace <0|1>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        reps: 3,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--reps" => {
                args.reps = value
                    .parse()
                    .ok()
                    .filter(|&r: &usize| r >= 1)
                    .ok_or_else(bad)?
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let vars = host::tugal_vars();
    if !vars.is_empty() {
        eprintln!(
            "benchmark: {} set; the benchmark runs only its own pinned configuration",
            vars.join(", ")
        );
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => suite(&args),
    }
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

/// A JSON object with the fields in the given order.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One run of one workload, in this process.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let expected: Value = serde_json::from_str(EXPECTED).expect("expected.json is valid JSON");
    let expected = expected.get(w.name()).filter(|_| args.seed == 1);
    eprintln!(
        "# {} seed {} trace {} env {}",
        w.name(),
        args.seed,
        args.trace as u8,
        json(&host::env_json())
    );
    let spec = w.spec(args.seed);
    let result = if args.trace {
        workloads::trace_run(&spec, expected).map(|traced| {
            print_self_times(&traced.tracer);
            write_trace(w, args.seed, &traced.tracer);
            (traced.outcome, &PER_LAYER[..])
        })
    } else {
        workloads::measure(&spec, args.seconds, expected).map(|o| (o, &END_TO_END[..]))
    };
    let (mut outcome, declared) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, v) in &outcome.metrics {
        if !v.is_finite() {
            outcome.problems.push(format!("{name} is {v}"));
        }
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", result_line(&outcome, declared));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The result object: every declared metric, in declaration order.
fn result_line(outcome: &Outcome, declared: &[(&str, &str)]) -> String {
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name.to_string(),
                obj(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    json(&obj(vec![
        ("correct", Value::Bool(outcome.problems.is_empty())),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ]))
}

fn print_self_times(tracer: &trace::Tracer) {
    eprintln!("# self time per span (ms)");
    for (name, ms) in tracer.self_ms_by_name() {
        eprintln!("#   {name:<24} {ms:>12.1}");
    }
}

/// Writes the spans to `target/benchmark/trace-<workload>-seed<S>.json`.
/// A trace that cannot be written is reported, not fatal.
fn write_trace(w: Workload, seed: u64, tracer: &trace::Tracer) {
    let path = format!("{OUT_DIR}/trace-{}-seed{seed}.json", w.name());
    let mut doc = vec![
        ("workload".to_string(), Value::Str(w.name().into())),
        ("seed".to_string(), Value::UInt(seed)),
        ("env".to_string(), host::env_json()),
    ];
    if let Value::Object(fields) = tracer.to_json() {
        doc.extend(fields);
    }
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(&path, json(&Value::Object(doc))));
    match written {
        Ok(()) => eprintln!("# wrote {path}"),
        Err(e) => eprintln!("benchmark: cannot write {path}: {e}"),
    }
}

/// A JSON number as `f64`.
fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Every workload `--reps` times (plus one traced run with `--trace 1`),
/// each run a child process of this binary, so that no run inherits
/// another's heap or warm caches.
fn suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    let mut summary = Vec::new();
    for w in Workload::ALL {
        let plan = (0..args.reps)
            .map(|_| false)
            .chain(args.trace.then_some(true));
        let mut runs = Vec::new();
        for traced in plan {
            let out = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("benchmark: cannot run {}: {e}", exe.display());
                    return ExitCode::from(2);
                }
            };
            worst = worst.max(match out.status.code() {
                Some(0) => 0,
                Some(2) => 2,
                _ => 1,
            });
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last().map(serde_json::from_str::<Value>) {
                Some(Ok(v)) => runs.push((traced, v)),
                _ => worst = worst.max(1),
            }
        }
        summary.push((w.name(), summarize(w, &runs)));
    }
    let doc = obj(vec![
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("reps", Value::UInt(args.reps as u64)),
        ("env", host::env_json()),
        ("workloads", obj(summary)),
    ]);
    let path = format!("{OUT_DIR}/suite-seed{}.json", args.seed);
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, json(&doc))) {
        Ok(()) => eprintln!("# wrote {path}"),
        Err(e) => eprintln!("benchmark: cannot write {path}: {e}"),
    }
    ExitCode::from(worst)
}

/// Five significant digits, in exponent form outside [0.001, 1e6).
fn readable(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if (1e-3..1e6).contains(&v.abs()) {
        let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.4e}")
    }
}

/// Prints `<workload> <metric> <median> <unit> (q1 q3, n=runs)` per
/// metric and returns the runs with those summaries.
fn summarize(w: Workload, runs: &[(bool, Value)]) -> Value {
    let mut fields = Vec::new();
    for (traced, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let lines: Vec<&Value> = runs
            .iter()
            .filter(|r| r.0 == traced)
            .map(|r| &r.1)
            .collect();
        if lines.is_empty() {
            continue;
        }
        for &(name, unit) in declared {
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|v| number(v.get("metrics")?.get(name)?.get("value")?))
                .collect();
            if values.is_empty() {
                continue;
            }
            let (q1, median, q3) = quartiles(&values);
            println!(
                "{} {name} {} {unit} ({} {}, n={})",
                w.name(),
                readable(median),
                readable(q1),
                readable(q3),
                values.len()
            );
            fields.push((
                name,
                obj(vec![
                    ("unit", Value::Str(unit.into())),
                    ("median", Value::Float(median)),
                    ("q1", Value::Float(q1)),
                    ("q3", Value::Float(q3)),
                    (
                        "values",
                        Value::Array(values.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            ));
        }
    }
    let correct = runs
        .iter()
        .all(|(_, v)| v.get("correct") == Some(&Value::Bool(true)));
    obj(vec![
        ("correct", Value::Bool(correct)),
        ("metrics", obj(fields)),
        (
            "runs",
            Value::Array(runs.iter().map(|(_, v)| v.clone()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use workloads::tests::tiny;

    const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let Some(Value::Array(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed {section} entry"),
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metrics_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let Some(Value::Array(ws)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&Value> = ws.iter().filter_map(|w| w.get("name")).collect();
        let want: Vec<Value> = Workload::ALL
            .iter()
            .map(|w| Value::Str(w.name().into()))
            .collect();
        assert_eq!(names, want.iter().collect::<Vec<_>>());
        assert_eq!(doc.get("run_seconds").and_then(number), Some(RUN_SECONDS));
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && !name.is_empty(), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn expected_values_cover_every_workload() {
        let expected: Value = serde_json::from_str(EXPECTED).unwrap();
        for w in Workload::ALL {
            let entry = expected.get(w.name());
            assert!(entry.is_some_and(|v| *v != Value::Null), "{}", w.name());
        }
    }

    fn printed_names(outcome: &Outcome, declared: &[(&str, &str)]) -> BTreeSet<String> {
        let line: Value = serde_json::from_str(&result_line(outcome, declared)).unwrap();
        match line.get("metrics") {
            Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("result line without metrics"),
        }
    }

    /// Runs every workload on tiny inputs, untraced and traced: both pass
    /// their checks and print exactly the declared metrics.
    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let names = |list: &[(&str, &str)]| -> BTreeSet<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        let mut layers_seen = BTreeSet::new();
        for w in Workload::ALL {
            let spec = tiny(w);
            let measured = workloads::measure(&spec, 0.0, None).unwrap();
            assert!(measured.problems.is_empty(), "{:?}", measured.problems);
            let computed: BTreeSet<String> =
                measured.metrics.keys().map(|k| k.to_string()).collect();
            assert_eq!(computed, names(&END_TO_END), "{}", w.name());
            assert!(measured.metrics.values().all(|&v| v > 0.0), "{}", w.name());
            assert_eq!(printed_names(&measured, &END_TO_END), names(&END_TO_END));

            let traced = workloads::trace_run(&spec, None).unwrap();
            traced.tracer.check().unwrap();
            let traced = traced.outcome;
            assert!(traced.problems.is_empty(), "{:?}", traced.problems);
            for k in traced.metrics.keys() {
                assert!(names(&PER_LAYER).contains(*k), "{k} is not declared");
                layers_seen.insert(k.to_string());
            }
            assert_eq!(printed_names(&traced, &PER_LAYER), names(&PER_LAYER));
        }
        assert_eq!(
            layers_seen,
            names(&PER_LAYER),
            "declared but never computed"
        );
    }

    #[test]
    fn summary_numbers_keep_five_significant_digits() {
        assert_eq!(readable(2.667458), "2.6675");
        assert_eq!(readable(48000.0), "48000");
        assert_eq!(readable(-0.0796943), "-0.079694");
        assert_eq!(readable(1.0729e-5), "1.0729e-5");
        assert_eq!(readable(0.0), "0");
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload algo1 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Algo1));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--reps 0").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
