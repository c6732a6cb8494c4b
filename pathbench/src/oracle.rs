//! Ground truth and pinned inputs.
//!
//! Every expected verdict comes from the generator's specification,
//! never from the checker: a generated program's check clusters are
//! `m{i}_read` and `m{i}_close` for each module `i`; `m{i}_read` is a
//! planted bug exactly when `i` is listed in `buggy_modules`, and every
//! other cluster is safe.
//!
//! Each workload also fingerprints its inputs. `pins.json` holds the
//! seed-0 fingerprints of the full-size workloads plus one `generator`
//! fingerprint of a fixed set of seed-0 programs, which every run
//! recomputes: a drifting generator (`workloads`, the `rand` shim)
//! fails the run instead of silently changing what is measured.

use crate::stats::Fnv;
use obs::json::Json;
use workloads::WorkloadSpec;

/// Seed `n` moves every generator seed by `n` times this prime, so the
/// program shapes stay the same while the program text is new, and the
/// seed ranges of nearby benchmark seeds never overlap.
const SEED_STRIDE: u64 = 1_000_003;

/// The generator seed for `base` under benchmark seed `seed`.
pub fn shifted(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(SEED_STRIDE))
}

/// The verdict the generator planted for cluster `func`, or `None` when
/// `func` is not one of `spec`'s check clusters.
pub fn expected(spec: &WorkloadSpec, func: &str) -> Option<&'static str> {
    let (index, kind) = func.strip_prefix('m')?.split_once('_')?;
    let i: usize = index.parse().ok()?;
    if i >= spec.modules {
        return None;
    }
    match kind {
        "read" if spec.buggy_modules.contains(&i) => Some("BUG"),
        "read" | "close" => Some("SAFE"),
        _ => None,
    }
}

/// Checks one program's `(cluster, verdict label)` answers against the
/// ground truth and returns one message per wrong, unexpected, or
/// missing cluster verdict (empty when every check cluster answered
/// once with its planted verdict).
pub fn mismatches<'a>(
    spec: &WorkloadSpec,
    answers: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut right = 0usize;
    for (func, verdict) in answers {
        match expected(spec, func) {
            Some(want) if want == verdict => right += 1,
            Some(want) => wrong.push(format!(
                "{}: cluster {func} answered {verdict}, expected {want}",
                spec.name
            )),
            None => wrong.push(format!("{}: unexpected cluster {func}", spec.name)),
        }
    }
    let missing = (2 * spec.modules).saturating_sub(right + wrong.len());
    for _ in 0..missing {
        wrong.push(format!("{}: a cluster verdict is missing", spec.name));
    }
    wrong
}

/// The verdict label the server and `pathslice check` print.
pub fn label(outcome: &blastlite::CheckOutcome) -> String {
    match outcome {
        blastlite::CheckOutcome::Safe => "SAFE".into(),
        blastlite::CheckOutcome::Bug { .. } => "BUG".into(),
        other => other.kind_label(),
    }
}

/// The programs whose seed-0 text the drift guard hashes: every Table 1
/// program and the gcc-like program at small scale.
fn generator_fingerprint() -> String {
    let mut h = Fnv::default();
    let specs = workloads::suite(workloads::Scale::Small)
        .into_iter()
        .chain([workloads::gcc_like(workloads::Scale::Small)]);
    for spec in specs {
        h.str(&workloads::gen::generate(&spec).source);
    }
    h.hex()
}

const PINS: &str = include_str!("../pins.json");

/// The pinned seed-0 fingerprint named `key`.
fn pin(key: &str) -> Result<String, String> {
    let doc = Json::parse(PINS).map_err(|e| format!("pins.json: {e:?}"))?;
    doc.field(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("pins.json has no `{key}` entry"))
}

/// Checks the generator against its pin, and — for a full-size seed-0
/// run — the workload's own fingerprint against its pin.
pub fn check_pins(workload: &str, fingerprint: &str, seed: u64, smoke: bool) -> Result<(), String> {
    let generator = generator_fingerprint();
    let pinned = pin("generator")?;
    if generator != pinned {
        return Err(format!(
            "generator drift: seed-0 programs hash to {generator}, pinned {pinned}"
        ));
    }
    if seed == 0 && !smoke {
        let pinned = pin(workload)?;
        if fingerprint != pinned {
            return Err(format!(
                "{workload}: seed-0 inputs hash to {fingerprint}, pinned {pinned}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_follows_the_spec() {
        let spec = workloads::suite(workloads::Scale::Small)[3].clone(); // privoxy
        assert_eq!(expected(&spec, "m0_read"), Some("BUG"));
        assert_eq!(expected(&spec, "m4_read"), Some("BUG"));
        assert_eq!(expected(&spec, "m1_read"), Some("SAFE"));
        assert_eq!(expected(&spec, "m4_close"), Some("SAFE"));
        assert_eq!(expected(&spec, "m4_h0"), None);
        assert_eq!(expected(&spec, "m99_read"), None);
        let bugs = (0..spec.modules)
            .filter(|i| expected(&spec, &format!("m{i}_read")) == Some("BUG"))
            .count();
        assert_eq!(bugs, 2);
    }

    #[test]
    fn check_rejects_wrong_and_missing_verdicts() {
        let mut spec = workloads::suite(workloads::Scale::Small)[2].clone(); // make
        spec.modules = 3;
        let good = [
            ("m0_read", "SAFE"),
            ("m0_close", "SAFE"),
            ("m1_read", "SAFE"),
            ("m1_close", "SAFE"),
            ("m2_read", "BUG"),
            ("m2_close", "SAFE"),
        ];
        assert!(mismatches(&spec, good).is_empty());
        assert_eq!(mismatches(&spec, good[..5].iter().copied()).len(), 1);
        let mut wrong = good;
        wrong[4].1 = "SAFE";
        assert_eq!(mismatches(&spec, wrong).len(), 1);
    }
}
