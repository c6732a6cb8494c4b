//! `pathbench` — the repository benchmark for the path-slicing checker.
//!
//! ```text
//! pathbench [--workload <name>[,<name>…]] [--seed <n>] [--seconds <s>]
//!           [--trace 0|1] [--out <result.json>] [--scratch <dir>] [--smoke]
//! pathbench --compare <a.json> <b.json>
//! ```
//!
//! Runs each selected workload (default: all four) in a child process of
//! its own — this binary re-executed with `--child <name>` — so peak
//! memory, allocator state and the process-wide `obs` registries belong
//! to one workload. Prints every end-to-end metric as
//! `workload metric value unit n`, checks every verdict against the
//! generator's ground truth, and ends with one JSON line: `correct`,
//! `attempted`, `failed`, and the metrics (end-to-end ones, or with
//! `--trace 1` the per-layer ones; keyed `workload.metric` when several
//! workloads ran). Exits 1 on any wrong output, 64 on a usage error.
//!
//! `--trace 1` spends the first half of each window untraced and the
//! second half with `obs` on, writes `<scratch>/trace/<workload>.spans.json`
//! and `<scratch>/trace/layers.json`, and prints the per-layer metrics,
//! a self-time table, and the tracing overhead. `--smoke` runs tiny
//! inputs with half-second windows. `--compare` applies the bounds in
//! `./BENCHMARK.json` to two `--out` documents.

mod batch;
mod harness;
mod layers;
mod oracle;
mod report;
mod serve;
mod serve_edit;
mod serve_mixed;
mod slice;
mod stats;

use harness::Config;
use obs::json::Json;
use report::Metric;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: &[&str] = &["batch-suite", "slice-long", "serve-mixed", "serve-edit"];

/// Window length of a `--smoke` run, seconds.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    scratch: PathBuf,
    smoke: bool,
    compare: Option<(String, String)>,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 0,
        seconds: 25.0,
        trace: false,
        out: None,
        scratch: PathBuf::from("pathbench/out"),
        smoke: false,
        compare: None,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                args.workloads = value()?.split(',').map(str::to_owned).collect();
                if let Some(bad) = args
                    .workloads
                    .iter()
                    .find(|w| !WORKLOADS.contains(&w.as_str()))
                {
                    return Err(format!(
                        "unknown workload `{bad}` (have {})",
                        WORKLOADS.join(", ")
                    ));
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--scratch" => args.scratch = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = value()?;
                args.compare = Some((a, value()?));
            }
            "--child" => args.child = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.smoke {
        args.seconds = SMOKE_SECONDS;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(64);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b, "BENCHMARK.json") {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(64)
            }
        };
    }
    match &args.child {
        Some(name) => child(&args, name),
        None => parent(&args),
    }
}

/// Runs one workload in this process and prints its result document as
/// the last line of standard output.
fn child(args: &Args, name: &str) -> ExitCode {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        scratch: args.scratch.clone(),
    };
    let doc = match name {
        "batch-suite" => harness::run_child::<batch::BatchSuite>(name, &cfg, args.trace),
        "slice-long" => harness::run_child::<slice::SliceLong>(name, &cfg, args.trace),
        "serve-mixed" => harness::run_child::<serve_mixed::ServeMixed>(name, &cfg, args.trace),
        "serve-edit" => harness::run_child::<serve_edit::ServeEdit>(name, &cfg, args.trace),
        other => Err(format!("unknown workload `{other}`")),
    };
    match doc {
        Ok(doc) => {
            println!("{}", doc.to_text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs `name` in a child process and returns its result document.
fn spawn(args: &Args, name: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&args.scratch)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    match Json::parse(last) {
        Ok(doc) if output.status.success() => Ok(doc),
        _ => Err(format!("the {name} child failed ({})", output.status)),
    }
}

fn num(doc: &Json, field: &str) -> i64 {
    doc.field(field).and_then(Json::as_i64).unwrap_or(0)
}

fn print_metrics(workload: &str, list: &[Metric]) {
    for m in list {
        println!("{workload} {} {:.4} {} {}", m.name, m.value, m.unit, m.n);
    }
}

fn parent(args: &Args) -> ExitCode {
    println!(
        "# pathbench seed {} seconds {} trace {}{}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    let mut docs: Vec<(String, Json)> = Vec::new();
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut result_metrics: Vec<(String, Metric)> = Vec::new();
    for name in &args.workloads {
        let doc = match spawn(args, name) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{e}");
                correct = false;
                continue;
            }
        };
        let fingerprint = doc
            .field("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("");
        println!("{name} fingerprint {fingerprint}");
        let metrics = Metric::list_from_json(doc.field("metrics"));
        print_metrics(name, &metrics);
        print_metrics(name, &Metric::list_from_json(doc.field("info")));
        let (a, f) = (num(&doc, "attempted"), num(&doc, "failed"));
        let error_rate = f as f64 / a.max(1) as f64;
        println!("{name} error_rate {error_rate:.4} fraction {a}");
        for failure in doc.field("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            println!("{name} FAILED {}", failure.as_str().unwrap_or(""));
        }
        attempted += a;
        failed += f;
        correct &= f == 0 && a > 0;
        let reported = match doc.field("layers") {
            Some(layers) => {
                let list = Metric::list_from_json(layers.field("metrics"));
                print_metrics(name, &list);
                print_layers(name, layers);
                list
            }
            None => metrics,
        };
        result_metrics.extend(reported.into_iter().map(|m| (name.clone(), m)));
        docs.push((name.clone(), doc));
    }

    if let Err(e) = write_outputs(args, &docs) {
        eprintln!("{e}");
        correct = false;
    }
    let single = args.workloads.len() == 1;
    let metrics = Json::Obj(
        result_metrics
            .into_iter()
            .map(|(w, m)| {
                let key = if single {
                    m.name
                } else {
                    format!("{w}.{}", m.name)
                };
                (
                    key,
                    Json::Obj(vec![
                        ("value".into(), Json::Float(m.value)),
                        ("unit".into(), Json::Str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted)),
        ("failed".into(), Json::Num(failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", line.to_text());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The traced run's self-time table and tracing overhead.
fn print_layers(name: &str, layers: &Json) {
    println!(
        "# {name} self time per span over {} op(s): span count total_ms self_ms self_ms/op",
        num(layers, "ops")
    );
    for row in layers
        .field("self_time")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let f = |k: &str| row.field(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "#   {:<20} {:>8} {:>12.3} {:>12.3} {:>12.6}",
            row.field("span").and_then(Json::as_str).unwrap_or(""),
            num(row, "count"),
            f("total_ms"),
            f("self_ms"),
            f("self_ms_per_op")
        );
    }
    if let Some(Json::Obj(overhead)) = layers.field("overhead") {
        for (metric, o) in overhead {
            let f = |k: &str| o.field(k).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "# {name} tracing overhead {metric}: untraced {:.4} traced {:.4} ({:+.1}%)",
                f("untraced"),
                f("traced"),
                f("delta_pct")
            );
        }
    }
}

/// `--out` and, for traced runs, `layers.json`.
fn write_outputs(args: &Args, docs: &[(String, Json)]) -> Result<(), String> {
    let write = |path: PathBuf, doc: Json| {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, doc.to_text() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    if let Some(out) = &args.out {
        write(
            PathBuf::from(out),
            Json::Obj(vec![
                ("schema".into(), Json::Str("pathbench-result/v1".into())),
                ("seed".into(), Json::Num(args.seed as i64)),
                ("seconds".into(), Json::Float(args.seconds)),
                ("trace".into(), Json::Bool(args.trace)),
                ("smoke".into(), Json::Bool(args.smoke)),
                ("workloads".into(), Json::Obj(docs.to_vec())),
            ]),
        )?;
    }
    if args.trace {
        let layers = docs
            .iter()
            .filter_map(|(n, d)| d.field("layers").map(|l| (n.clone(), l.clone())))
            .collect();
        write(
            args.scratch.join("trace").join("layers.json"),
            Json::Obj(vec![
                ("schema".into(), Json::Str("pathbench-layers/v1".into())),
                ("workloads".into(), Json::Obj(layers)),
            ]),
        )?;
    }
    Ok(())
}
