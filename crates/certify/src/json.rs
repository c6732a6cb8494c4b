//! Portable trace files: a hand-rolled JSON emitter/parser for
//! certificates (the workspace builds offline, so no serde).
//!
//! A trace file embeds the *source program* alongside the certificates:
//! `pathslice validate <trace.json>` recompiles the source, rebuilds the
//! analyses, and revalidates every certificate against them — the file
//! is self-contained evidence, not a pointer into someone's checkout.

use crate::{
    BugCertificate, Certificate, DegradedCertificate, LedgerEntry, RoundEvidence, SafeCertificate,
};
use cfa::{EdgeId, FuncId, VarId};
use obs::json::Json;
pub use obs::json::JsonError;

/// One cluster's claimed verdict plus its certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCert {
    /// The cluster (function) name.
    pub func_name: String,
    /// The verdict label the certificate supports.
    pub claimed: String,
    /// The evidence.
    pub certificate: Certificate,
}

/// A self-contained certificate file: source program + per-cluster
/// certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// The program source the verdicts are about.
    pub source: String,
    /// One entry per checked cluster.
    pub clusters: Vec<ClusterCert>,
}

// ---------------------------------------------------------------------
// Certificate <-> Json
// ---------------------------------------------------------------------

fn edge_json(e: EdgeId) -> Json {
    Json::Arr(vec![Json::Num(e.func.0 as i64), Json::Num(e.idx as i64)])
}

fn edges_json(es: &[EdgeId]) -> Json {
    Json::Arr(es.iter().map(|&e| edge_json(e)).collect())
}

fn cert_json(cert: &Certificate) -> Json {
    match cert {
        Certificate::Bug(b) => Json::Obj(vec![
            ("kind".into(), Json::Str("bug".into())),
            ("path".into(), edges_json(&b.path)),
            ("slice".into(), edges_json(&b.slice)),
            (
                "initial".into(),
                Json::Arr(
                    b.initial
                        .iter()
                        .map(|&(v, val)| Json::Arr(vec![Json::Num(v.0 as i64), Json::Num(val)]))
                        .collect(),
                ),
            ),
            (
                "havoc".into(),
                Json::Arr(
                    b.havoc
                        .iter()
                        .map(|&(e, val)| {
                            Json::Arr(vec![
                                Json::Num(e.func.0 as i64),
                                Json::Num(e.idx as i64),
                                Json::Num(val),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Certificate::Safe(s) => Json::Obj(vec![
            ("kind".into(), Json::Str("safe".into())),
            (
                "rounds".into(),
                Json::Arr(
                    s.rounds
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("slice".into(), edges_json(&r.slice)),
                                (
                                    "core".into(),
                                    Json::Arr(
                                        r.core.iter().map(|&i| Json::Num(i as i64)).collect(),
                                    ),
                                ),
                                ("complete".into(), Json::Bool(r.complete)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Certificate::Degraded(d) => Json::Obj(vec![
            ("kind".into(), Json::Str("degraded".into())),
            ("verdict".into(), Json::Str(d.verdict.clone())),
            (
                "ledger".into(),
                Json::Arr(
                    d.ledger
                        .iter()
                        .map(|l| {
                            Json::Obj(vec![
                                ("attempt".into(), Json::Num(l.attempt as i64)),
                                ("budget_ms".into(), Json::Num(l.budget_ms as i64)),
                                ("reducer".into(), Json::Str(l.reducer.clone())),
                                ("outcome".into(), Json::Str(l.outcome.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Renders a trace file as JSON.
pub fn to_json(file: &TraceFile) -> String {
    let doc = Json::Obj(vec![
        ("version".into(), Json::Num(1)),
        ("source".into(), Json::Str(file.source.clone())),
        (
            "clusters".into(),
            Json::Arr(
                file.clusters
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("func".into(), Json::Str(c.func_name.clone())),
                            ("claimed".into(), Json::Str(c.claimed.clone())),
                            ("certificate".into(), cert_json(&c.certificate)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = String::new();
    doc.emit(&mut out);
    out.push('\n');
    out
}

fn want_str(j: Option<&Json>, what: &str) -> Result<String, JsonError> {
    match j {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(JsonError {
            message: format!("expected string field `{what}`"),
            at: 0,
        }),
    }
}

fn want_num(j: &Json, what: &str) -> Result<i64, JsonError> {
    match j {
        Json::Num(n) => Ok(*n),
        _ => Err(JsonError {
            message: format!("expected number in `{what}`"),
            at: 0,
        }),
    }
}

fn want_arr<'a>(j: Option<&'a Json>, what: &str) -> Result<&'a [Json], JsonError> {
    match j {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(JsonError {
            message: format!("expected array field `{what}`"),
            at: 0,
        }),
    }
}

fn edge_from(j: &Json, what: &str) -> Result<EdgeId, JsonError> {
    match j {
        Json::Arr(pair) if pair.len() == 2 => Ok(EdgeId {
            func: FuncId(want_num(&pair[0], what)? as u32),
            idx: want_num(&pair[1], what)? as u32,
        }),
        _ => Err(JsonError {
            message: format!("expected [func, idx] pair in `{what}`"),
            at: 0,
        }),
    }
}

fn edges_from(j: Option<&Json>, what: &str) -> Result<Vec<EdgeId>, JsonError> {
    want_arr(j, what)?
        .iter()
        .map(|e| edge_from(e, what))
        .collect()
}

fn cert_from(j: &Json) -> Result<Certificate, JsonError> {
    let kind = want_str(j.field("kind"), "kind")?;
    match kind.as_str() {
        "bug" => {
            let initial = want_arr(j.field("initial"), "initial")?
                .iter()
                .map(|p| match p {
                    Json::Arr(kv) if kv.len() == 2 => Ok((
                        VarId(want_num(&kv[0], "initial")? as u32),
                        want_num(&kv[1], "initial")?,
                    )),
                    _ => Err(JsonError {
                        message: "expected [var, value] pair in `initial`".into(),
                        at: 0,
                    }),
                })
                .collect::<Result<_, _>>()?;
            let havoc = want_arr(j.field("havoc"), "havoc")?
                .iter()
                .map(|t| match t {
                    Json::Arr(kv) if kv.len() == 3 => Ok((
                        EdgeId {
                            func: FuncId(want_num(&kv[0], "havoc")? as u32),
                            idx: want_num(&kv[1], "havoc")? as u32,
                        },
                        want_num(&kv[2], "havoc")?,
                    )),
                    _ => Err(JsonError {
                        message: "expected [func, idx, value] triple in `havoc`".into(),
                        at: 0,
                    }),
                })
                .collect::<Result<_, _>>()?;
            Ok(Certificate::Bug(BugCertificate {
                func_name: String::new(), // patched by the caller
                path: edges_from(j.field("path"), "path")?,
                slice: edges_from(j.field("slice"), "slice")?,
                initial,
                havoc,
            }))
        }
        "safe" => {
            let rounds = want_arr(j.field("rounds"), "rounds")?
                .iter()
                .map(|r| {
                    let core = want_arr(r.field("core"), "core")?
                        .iter()
                        .map(|n| want_num(n, "core").map(|n| n as usize))
                        .collect::<Result<_, _>>()?;
                    let complete = match r.field("complete") {
                        Some(Json::Bool(b)) => *b,
                        _ => {
                            return Err(JsonError {
                                message: "expected bool field `complete`".into(),
                                at: 0,
                            })
                        }
                    };
                    Ok(RoundEvidence {
                        slice: edges_from(r.field("slice"), "slice")?,
                        core,
                        complete,
                    })
                })
                .collect::<Result<_, _>>()?;
            Ok(Certificate::Safe(SafeCertificate {
                func_name: String::new(),
                rounds,
            }))
        }
        "degraded" => {
            let ledger = want_arr(j.field("ledger"), "ledger")?
                .iter()
                .map(|l| {
                    Ok(LedgerEntry {
                        attempt: want_num(l.field("attempt").unwrap_or(&Json::Num(-1)), "attempt")?
                            as usize,
                        budget_ms: want_num(
                            l.field("budget_ms").unwrap_or(&Json::Num(-1)),
                            "budget_ms",
                        )? as u64,
                        reducer: want_str(l.field("reducer"), "reducer")?,
                        outcome: want_str(l.field("outcome"), "outcome")?,
                    })
                })
                .collect::<Result<_, _>>()?;
            Ok(Certificate::Degraded(DegradedCertificate {
                func_name: String::new(),
                verdict: want_str(j.field("verdict"), "verdict")?,
                ledger,
            }))
        }
        other => Err(JsonError {
            message: format!("unknown certificate kind `{other}`"),
            at: 0,
        }),
    }
}

/// Parses a trace file.
///
/// # Errors
///
/// [`JsonError`] on malformed JSON or a document that does not match
/// the trace-file schema (unknown version, missing fields, wrong
/// types).
pub fn from_json(text: &str) -> Result<TraceFile, JsonError> {
    let doc = Json::parse(text)?;
    match doc.field("version") {
        Some(Json::Num(1)) => {}
        _ => {
            return Err(JsonError {
                message: "unsupported trace file version".into(),
                at: 0,
            })
        }
    }
    let source = want_str(doc.field("source"), "source")?;
    let clusters = want_arr(doc.field("clusters"), "clusters")?
        .iter()
        .map(|c| {
            let func_name = want_str(c.field("func"), "func")?;
            let claimed = want_str(c.field("claimed"), "claimed")?;
            let mut certificate = cert_from(c.field("certificate").ok_or_else(|| JsonError {
                message: "missing field `certificate`".into(),
                at: 0,
            })?)?;
            match &mut certificate {
                Certificate::Bug(b) => b.func_name = func_name.clone(),
                Certificate::Safe(s) => s.func_name = func_name.clone(),
                Certificate::Degraded(d) => d.func_name = func_name.clone(),
            }
            Ok(ClusterCert {
                func_name,
                claimed,
                certificate,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(TraceFile { source, clusters })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceFile {
        TraceFile {
            source: "global x;\nfn main() { x = 1; }\n\"quoted\"\t".to_owned(),
            clusters: vec![
                ClusterCert {
                    func_name: "main".into(),
                    claimed: "Bug".into(),
                    certificate: Certificate::Bug(BugCertificate {
                        func_name: "main".into(),
                        path: vec![EdgeId {
                            func: FuncId(0),
                            idx: 3,
                        }],
                        slice: vec![EdgeId {
                            func: FuncId(0),
                            idx: 3,
                        }],
                        initial: vec![(VarId(2), -7)],
                        havoc: vec![(
                            EdgeId {
                                func: FuncId(0),
                                idx: 1,
                            },
                            42,
                        )],
                    }),
                },
                ClusterCert {
                    func_name: "aux".into(),
                    claimed: "Safe".into(),
                    certificate: Certificate::Safe(SafeCertificate {
                        func_name: "aux".into(),
                        rounds: vec![RoundEvidence {
                            slice: vec![EdgeId {
                                func: FuncId(1),
                                idx: 0,
                            }],
                            core: vec![0],
                            complete: true,
                        }],
                    }),
                },
                ClusterCert {
                    func_name: "slow".into(),
                    claimed: "Timeout(WallClock)".into(),
                    certificate: Certificate::Degraded(DegradedCertificate {
                        func_name: "slow".into(),
                        verdict: "Timeout(WallClock)".into(),
                        ledger: vec![LedgerEntry {
                            attempt: 0,
                            budget_ms: 1000,
                            reducer: "PathSlice(..)".into(),
                            outcome: "Timeout(WallClock)".into(),
                        }],
                    }),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let file = sample();
        let text = to_json(&file);
        let back = from_json(&text).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "nope",
            "{\"version\":2,\"source\":\"\",\"clusters\":[]}",
            "{\"version\":1,\"source\":\"\",\"clusters\":[{\"func\":\"f\"}]}",
            "{\"version\":1,\"source\":\"\",\"clusters\":[]}trailing",
            "{\"version\":1,\"source\":\"\\q\",\"clusters\":[]}",
            "{\"version\":1,\"source\":\"\",\"clusters\":[{\"func\":\"f\",\"claimed\":\"Bug\",\
             \"certificate\":{\"kind\":\"mystery\"}}]}",
        ] {
            assert!(from_json(bad).is_err(), "{bad:?}");
        }
    }

    /// Random byte damage never panics the parser: every mutant of an
    /// honest trace parses or fails with a typed error. Deterministic
    /// (a fixed xorshift seed), so a failure names a reproducible input.
    #[test]
    fn random_byte_mutations_never_panic() {
        let honest = to_json(&sample()).into_bytes();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move |bound: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % bound.max(1)
        };
        const NOISE: &[u8] = b"{}[]\",:-0123456789 truefalsenull\\";
        let mut rejected = 0;
        for case in 0..2000 {
            let mut bytes = honest.clone();
            for _ in 0..=rand(3) {
                let at = rand(bytes.len());
                match rand(4) {
                    0 => bytes[at] = NOISE[rand(NOISE.len())],
                    1 => {
                        let end = (at + 1 + rand(16)).min(bytes.len());
                        bytes.drain(at..end);
                    }
                    2 => bytes.insert(at, NOISE[rand(NOISE.len())]),
                    _ => bytes.truncate(at),
                }
                if bytes.is_empty() {
                    break;
                }
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let parsed = std::panic::catch_unwind(|| from_json(&text).is_ok());
            match parsed {
                Ok(true) => {}
                Ok(false) => rejected += 1,
                Err(_) => panic!("case {case}: from_json panicked on {text:?}"),
            }
        }
        assert!(rejected > 1000, "the mutants must mostly be damaged");
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let mut file = sample();
        file.source = "π ≈ 3.14159 \\ \"quote\" \u{1}".to_owned();
        let back = from_json(&to_json(&file)).unwrap();
        assert_eq!(back.source, file.source);
    }
}
