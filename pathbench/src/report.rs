//! Metric values, the result document, and `--compare`.

use obs::json::Json;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as written in `BENCHMARK.json`.
    pub unit: String,
    /// Samples behind the value.
    pub n: u64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &str, n: u64) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            n,
        }
    }

    /// `{"name": {"value": …, "unit": …, "n": …}, …}`.
    pub fn list_json(list: &[Metric]) -> Json {
        Json::Obj(
            list.iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Float(m.value)),
                            ("unit".into(), Json::Str(m.unit.clone())),
                            ("n".into(), Json::Num(m.n as i64)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Parses [`Metric::list_json`] output back.
    pub fn list_from_json(doc: Option<&Json>) -> Vec<Metric> {
        let Some(Json::Obj(fields)) = doc else {
            return Vec::new();
        };
        fields
            .iter()
            .map(|(name, m)| Metric {
                name: name.clone(),
                value: m.field("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                unit: m
                    .field("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                n: m.field("n").and_then(Json::as_i64).unwrap_or(0) as u64,
            })
            .collect()
    }
}

/// Reads a JSON file.
fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// One end-to-end metric's gate, from `BENCHMARK.json`.
struct Gate {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn gates(bench: &Json) -> Result<Vec<Gate>, String> {
    bench
        .field("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m
                    .field("name")
                    .and_then(Json::as_str)
                    .ok_or("end_to_end entry without a name")?
                    .to_owned(),
                lower_is_better: m.field("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .field("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// `--compare a.json b.json`: applies each end-to-end metric's bound to
/// the change from `a` to `b`, per workload. A failed operation that `a`
/// did not have also fails the comparison. Returns whether every metric
/// held.
pub fn compare(a_path: &str, b_path: &str, bench_path: &str) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let gates = gates(&read_json(bench_path)?)?;
    let workloads = |doc: &Json| match doc.field("workloads") {
        Some(Json::Obj(list)) => list.clone(),
        _ => Vec::new(),
    };
    let b_workloads = workloads(&b);
    let mut ok = true;
    let mut compared = 0;
    println!(
        "{:<12} {:<17} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (name, wa) in workloads(&a) {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            println!("{name:<12} missing from {b_path}");
            ok = false;
            continue;
        };
        let (ma, mb) = (
            Metric::list_from_json(wa.field("metrics")),
            Metric::list_from_json(wb.field("metrics")),
        );
        for g in &gates {
            let (Some(x), Some(y)) = (
                ma.iter().find(|m| m.name == g.name),
                mb.iter().find(|m| m.name == g.name),
            ) else {
                println!("{name:<12} {:<17} missing", g.name);
                ok = false;
                continue;
            };
            let change = (y.value - x.value) / x.value;
            let worse = if g.lower_is_better { change } else { -change };
            let held = worse <= g.bound;
            ok &= held;
            compared += 1;
            println!(
                "{name:<12} {:<17} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
                g.name,
                x.value,
                y.value,
                worse * 100.0,
                g.bound * 100.0,
                if held { "ok" } else { "WORSE" }
            );
        }
        let failed = |w: &Json| w.field("failed").and_then(Json::as_i64).unwrap_or(-1);
        let (fa, fb) = (failed(&wa), failed(wb));
        let held = fb >= 0 && fb <= fa.max(0);
        ok &= held;
        println!(
            "{name:<12} {:<17} {:>12} {:>12} {:>8} {:>6}  {}",
            "failed",
            fa,
            fb,
            "",
            "+0",
            if held { "ok" } else { "WORSE" }
        );
    }
    if compared == 0 {
        return Err("no workload appears in both documents".into());
    }
    Ok(ok)
}
