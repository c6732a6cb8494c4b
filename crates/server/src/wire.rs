//! `pathslice-wire` — the daemon's request/response format, v1 and v2.
//!
//! **The normative protocol specification lives in
//! [`docs/WIRE.md`](https://github.com/path-slicing/path-slicing/blob/main/docs/WIRE.md)**
//! (framing grammar, every op and response shape, pipelining and
//! version-negotiation rules, error/overload semantics, worked
//! byte-level sessions). This module is the reference implementation;
//! its doc comments describe the Rust surface only and defer protocol
//! semantics to the spec.
//!
//! In brief: framing is newline-delimited JSON over TCP. Both directions
//! are plain [`obs::json::Json`] documents (the workspace builds
//! offline; there is no serde), with a `schema` marker checked on parse
//! so foreign traffic is rejected with an error response instead of
//! undefined behaviour. `pathslice-wire/v1` is strictly sequential per
//! connection (one request, one response, in order);
//! `pathslice-wire/v2` is the same vocabulary plus mandatory per-request
//! ids, which lets one connection pipeline many in-flight checks and
//! receive completions out of order. The version is negotiated per
//! *frame* — each response is serialized under the schema its request
//! arrived with — so v1 and v2 traffic can share a connection.

use obs::json::{Json, JsonError};

/// v1 schema marker (sequential per-connection protocol).
pub const WIRE_SCHEMA: &str = "pathslice-wire/v1";

/// v2 schema marker (pipelined protocol with mandatory request ids).
pub const WIRE_SCHEMA_V2: &str = "pathslice-wire/v2";

/// Every wire op name this module implements, exactly as spelled on the
/// wire (plus the implicit `check` default). The spec cross-check test
/// asserts each of these appears in `docs/WIRE.md`, so adding an op
/// without documenting it fails CI.
pub const SPEC_OPS: &[&str] = &["check", "metrics", "slow_traces", "ping", "health"];

/// Which protocol revision a frame was parsed under (see `docs/WIRE.md`
/// §versioning). Responses must echo the requester's revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireVersion {
    /// `pathslice-wire/v1`: sequential, ids optional.
    V1,
    /// `pathslice-wire/v2`: pipelined, non-empty ids mandatory.
    V2,
}

impl WireVersion {
    /// The `schema` marker string for this revision.
    pub fn schema(self) -> &'static str {
        match self {
            WireVersion::V1 => WIRE_SCHEMA,
            WireVersion::V2 => WIRE_SCHEMA_V2,
        }
    }

    fn of(doc: &Json) -> Option<WireVersion> {
        match doc.field("schema").and_then(Json::as_str) {
            Some(s) if s == WIRE_SCHEMA => Some(WireVersion::V1),
            Some(s) if s == WIRE_SCHEMA_V2 => Some(WireVersion::V2),
            _ => None,
        }
    }
}

/// Any parsed request frame: a verification check or one of the
/// telemetry operations. Dispatch happens on the optional `op` field —
/// absent (or `"check"`) means [`Incoming::Check`], so pre-telemetry
/// clients are still speaking valid `pathslice-wire/v1`.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A verification request (the admission queue path).
    Check(Request),
    /// Ask for the metrics exposition + time series (answered inline).
    Metrics {
        /// Client-chosen correlation id.
        id: String,
    },
    /// Ask for the tail-sampled slow-request ring (answered inline).
    SlowTraces {
        /// Client-chosen correlation id.
        id: String,
    },
    /// Readiness probe (`op: "ping"`, alias `"health"`; answered
    /// inline). Ready means the journal (if any) has been replayed and
    /// at least one worker is alive.
    Ping {
        /// Client-chosen correlation id.
        id: String,
    },
}

impl Incoming {
    /// Parses one wire line, dispatching on `op` and accepting either
    /// protocol revision (see [`Incoming::parse`] to learn which one).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, a wrong/missing `schema`
    /// marker, an unknown `op`, or (for checks) the [`Request`] errors.
    pub fn from_json(text: &str) -> Result<Incoming, JsonError> {
        Incoming::parse(text).map(|(incoming, _)| incoming)
    }

    /// Parses one wire line and reports which revision it spoke, so the
    /// response can be serialized under the same schema
    /// ([`Response::to_json_versioned`]).
    ///
    /// # Errors
    ///
    /// Everything [`Incoming::from_json`] rejects, plus v2 frames whose
    /// `id` is missing or empty (pipelining needs the tag to correlate
    /// out-of-order completions — see `docs/WIRE.md`).
    pub fn parse(text: &str) -> Result<(Incoming, WireVersion), JsonError> {
        let bad = |m: &str| JsonError {
            message: m.to_owned(),
            at: 0,
        };
        let doc = Json::parse(text)?;
        let version =
            WireVersion::of(&doc).ok_or_else(|| bad("not a pathslice-wire/v1 or /v2 request"))?;
        let id = doc
            .field("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        if version == WireVersion::V2 && id.is_empty() {
            return Err(bad("pathslice-wire/v2 frames require a non-empty `id`"));
        }
        let incoming = match doc.field("op").and_then(Json::as_str) {
            None | Some("check") => Request::from_json(text).map(Incoming::Check),
            Some("metrics") => Ok(Incoming::Metrics { id }),
            Some("slow_traces") => Ok(Incoming::SlowTraces { id }),
            Some("ping" | "health") => Ok(Incoming::Ping { id }),
            Some(other) => Err(bad(&format!("unknown `op` `{other}`"))),
        }?;
        Ok((incoming, version))
    }
}

fn op_request_frame(op: &str, id: &str, version: WireVersion) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(version.schema().into())),
        ("op".into(), Json::Str(op.into())),
        ("id".into(), Json::Str(id.to_owned())),
    ])
    .to_text()
}

/// The frame a [`Incoming::Metrics`] request serializes to (v1).
pub fn metrics_request_json(id: &str) -> String {
    op_request_frame("metrics", id, WireVersion::V1)
}

/// The frame a [`Incoming::SlowTraces`] request serializes to (v1).
pub fn slow_traces_request_json(id: &str) -> String {
    op_request_frame("slow_traces", id, WireVersion::V1)
}

/// The frame a [`Incoming::Ping`] request serializes to (v1).
pub fn ping_request_json(id: &str) -> String {
    op_request_frame("ping", id, WireVersion::V1)
}

/// The frame a [`Incoming::Ping`] request serializes to under the given
/// revision (a pipelining client probes readiness with a v2 ping).
pub fn ping_request_json_versioned(id: &str, version: WireVersion) -> String {
    op_request_frame("ping", id, version)
}

/// One verification request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// IMP source text to check.
    pub source: String,
    /// Per-cluster wall-clock budget in seconds (`pathslice check
    /// --timeout`); the server default applies when absent.
    pub timeout_s: Option<f64>,
    /// Whole-request deadline in milliseconds, measured from admission —
    /// queue wait counts against it. Wired through [`rt::Budget`].
    pub deadline_ms: Option<u64>,
    /// Disable path slicing (`--no-slicing`).
    pub no_slicing: bool,
    /// Depth-first abstract search (`--dfs`).
    pub dfs: bool,
    /// Retry-ladder depth (`--retries`).
    pub retries: usize,
    /// Independently validate every verdict's certificate
    /// (`--validate`).
    pub validate: bool,
    /// Include the certificate trace (`pathslice-trace/v1` document) in
    /// the response.
    pub want_certificate: bool,
    /// Include the counter/cache stats snapshot in the response.
    pub want_stats: bool,
}

impl Request {
    /// A request for `source` with every knob at its default.
    pub fn new(source: &str) -> Request {
        Request {
            id: String::new(),
            source: source.to_owned(),
            timeout_s: None,
            deadline_ms: None,
            no_slicing: false,
            dfs: false,
            retries: 0,
            validate: false,
            want_certificate: false,
            want_stats: false,
        }
    }

    /// Serializes to one v1 wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_versioned(WireVersion::V1)
    }

    /// Serializes to one wire line under the given revision. The field
    /// set is identical across revisions; only the `schema` marker
    /// differs (v2 requesters must set a non-empty [`Request::id`]).
    pub fn to_json_versioned(&self, version: WireVersion) -> String {
        let mut fields = vec![
            ("schema".into(), Json::Str(version.schema().into())),
            ("id".into(), Json::Str(self.id.clone())),
            ("source".into(), Json::Str(self.source.clone())),
        ];
        if let Some(t) = self.timeout_s {
            fields.push(("timeout_s".into(), Json::Float(t)));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Json::Num(d as i64)));
        }
        if self.no_slicing {
            fields.push(("no_slicing".into(), Json::Bool(true)));
        }
        if self.dfs {
            fields.push(("dfs".into(), Json::Bool(true)));
        }
        if self.retries > 0 {
            fields.push(("retries".into(), Json::Num(self.retries as i64)));
        }
        if self.validate {
            fields.push(("validate".into(), Json::Bool(true)));
        }
        if self.want_certificate {
            fields.push(("certificate".into(), Json::Bool(true)));
        }
        if self.want_stats {
            fields.push(("stats".into(), Json::Bool(true)));
        }
        Json::Obj(fields).to_text()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, a wrong/missing `schema` marker,
    /// a missing `source`, or an ill-typed field.
    pub fn from_json(text: &str) -> Result<Request, JsonError> {
        let bad = |m: &str| JsonError {
            message: m.to_owned(),
            at: 0,
        };
        let doc = Json::parse(text)?;
        if WireVersion::of(&doc).is_none() {
            return Err(bad("not a pathslice-wire/v1 or /v2 request"));
        }
        let source = doc
            .field("source")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field `source`"))?
            .to_owned();
        let flag = |name: &str| -> Result<bool, JsonError> {
            match doc.field(name) {
                None | Some(Json::Null) => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(bad(&format!("`{name}` is not a boolean"))),
            }
        };
        let unsigned = |name: &str| -> Result<Option<u64>, JsonError> {
            match doc.field(name) {
                None | Some(Json::Null) => Ok(None),
                Some(j) => match j.as_i64() {
                    Some(n) if n >= 0 => Ok(Some(n as u64)),
                    _ => Err(bad(&format!("`{name}` is not a non-negative integer"))),
                },
            }
        };
        let timeout_s = match doc.field("timeout_s") {
            None | Some(Json::Null) => None,
            Some(j) => match j.as_f64() {
                Some(f) if f.is_finite() && f >= 0.0 => Some(f),
                _ => return Err(bad("`timeout_s` is not a non-negative number")),
            },
        };
        Ok(Request {
            id: doc
                .field("id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            source,
            timeout_s,
            deadline_ms: unsigned("deadline_ms")?,
            no_slicing: flag("no_slicing")?,
            dfs: flag("dfs")?,
            retries: unsigned("retries")?.unwrap_or(0) as usize,
            validate: flag("validate")?,
            want_certificate: flag("certificate")?,
            want_stats: flag("stats")?,
        })
    }
}

/// One cluster's verdict, structured (the `render` field carries the
/// same information formatted exactly as `pathslice check` prints it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterVerdict {
    /// Function name (the cluster key).
    pub func: String,
    /// Error sites in the cluster.
    pub sites: u64,
    /// Verdict label: `SAFE`, `BUG`, `TIMEOUT(..)`, `INTERNAL(..)`,
    /// `MISMATCH(..)`.
    pub verdict: String,
    /// CEGAR refinement rounds used.
    pub refinements: u64,
    /// Check wall time, microseconds.
    pub wall_us: u64,
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request was processed.
    Ok {
        /// Echoed request id.
        id: String,
        /// Whether the analysis cache already held the program.
        cache_hit: bool,
        /// Whether every cluster was served from the verdict store (the
        /// analysis cache held the program and no cluster was
        /// re-checked) — possibly recovered from the journal across a
        /// restart. Stored verdicts are certificate-validated before
        /// they are served.
        warm: bool,
        /// `pathslice check` exit code for these verdicts.
        exit: i32,
        /// Verdicts rendered byte-identically to `pathslice check`.
        render: String,
        /// Structured per-cluster verdicts.
        clusters: Vec<ClusterVerdict>,
        /// Check wall time (admission to completion), microseconds.
        wall_us: u64,
        /// Time spent queued before a worker picked the request up,
        /// microseconds.
        queue_us: u64,
        /// `pathslice-trace/v1` certificate document, when requested.
        certificate: Option<Json>,
        /// Counter/cache snapshot, when requested.
        stats: Option<Json>,
    },
    /// Admission control shed the request; it was not processed.
    Overloaded {
        /// Echoed request id.
        id: String,
    },
    /// The request failed; the daemon is still healthy.
    Error {
        /// Echoed request id (empty when the frame didn't parse).
        id: String,
        /// What went wrong.
        error: String,
    },
    /// Telemetry: text exposition plus the JSON time series.
    Metrics {
        /// Echoed request id.
        id: String,
        /// Prometheus text exposition format.
        exposition: String,
        /// `pathslice-metrics/v1` document (snapshots + deltas).
        series: Json,
    },
    /// Telemetry: the slow-request ring.
    SlowTraces {
        /// Echoed request id.
        id: String,
        /// `pathslice-slowtraces/v1` document.
        traces: Json,
    },
    /// Readiness probe answer.
    Health {
        /// Echoed request id.
        id: String,
        /// Journal replayed (or no journal) *and* at least one worker
        /// alive — the daemon will actually answer check requests.
        ready: bool,
        /// Worker threads currently alive (supervision restarts panicked
        /// ones, so this normally equals `--jobs`).
        workers_alive: u64,
        /// Journal accounting (`appended`/`recovered`/`rejected`/
        /// `torn`/…), when a journal is attached.
        journal: Option<Json>,
    },
}

impl Response {
    /// Echoed request id.
    pub fn id(&self) -> &str {
        match self {
            Response::Ok { id, .. }
            | Response::Overloaded { id }
            | Response::Error { id, .. }
            | Response::Metrics { id, .. }
            | Response::SlowTraces { id, .. }
            | Response::Health { id, .. } => id,
        }
    }

    /// Serializes to one v1 wire line (no trailing newline). Byte-stable
    /// (docs/WIRE.md §7): clients and the serve drills compare answers
    /// byte for byte, so this emission must never change shape for a
    /// given response.
    pub fn to_json(&self) -> String {
        self.to_json_versioned(WireVersion::V1)
    }

    /// Serializes under the given revision: identical field order and
    /// content, only the `schema` marker differs. Servers answer each
    /// frame under the revision it arrived with.
    pub fn to_json_versioned(&self, version: WireVersion) -> String {
        let schema = || Json::Str(version.schema().into());
        let doc = match self {
            Response::Ok {
                id,
                cache_hit,
                warm,
                exit,
                render,
                clusters,
                wall_us,
                queue_us,
                certificate,
                stats,
            } => {
                let mut fields = vec![
                    ("schema".into(), schema()),
                    ("id".into(), Json::Str(id.clone())),
                    ("status".into(), Json::Str("ok".into())),
                    (
                        "cache".into(),
                        Json::Str(if *cache_hit { "hit" } else { "miss" }.into()),
                    ),
                    ("exit".into(), Json::Num(*exit as i64)),
                    ("render".into(), Json::Str(render.clone())),
                    ("clusters".into(), clusters_to_json(clusters)),
                    ("wall_us".into(), Json::Num(*wall_us as i64)),
                    ("queue_us".into(), Json::Num(*queue_us as i64)),
                ];
                if *warm {
                    // Emitted only when set: pre-journal frames parse
                    // identically and stay byte-identical.
                    fields.insert(4, ("warm".into(), Json::Bool(true)));
                }
                if let Some(cert) = certificate {
                    fields.push(("certificate".into(), cert.clone()));
                }
                if let Some(stats) = stats {
                    fields.push(("stats".into(), stats.clone()));
                }
                Json::Obj(fields)
            }
            Response::Overloaded { id } => Json::Obj(vec![
                ("schema".into(), schema()),
                ("id".into(), Json::Str(id.clone())),
                ("status".into(), Json::Str("overloaded".into())),
            ]),
            Response::Error { id, error } => Json::Obj(vec![
                ("schema".into(), schema()),
                ("id".into(), Json::Str(id.clone())),
                ("status".into(), Json::Str("error".into())),
                ("error".into(), Json::Str(error.clone())),
            ]),
            Response::Metrics {
                id,
                exposition,
                series,
            } => Json::Obj(vec![
                ("schema".into(), schema()),
                ("id".into(), Json::Str(id.clone())),
                ("status".into(), Json::Str("metrics".into())),
                ("exposition".into(), Json::Str(exposition.clone())),
                ("series".into(), series.clone()),
            ]),
            Response::SlowTraces { id, traces } => Json::Obj(vec![
                ("schema".into(), schema()),
                ("id".into(), Json::Str(id.clone())),
                ("status".into(), Json::Str("slow_traces".into())),
                ("traces".into(), traces.clone()),
            ]),
            Response::Health {
                id,
                ready,
                workers_alive,
                journal,
            } => {
                let mut fields = vec![
                    ("schema".into(), schema()),
                    ("id".into(), Json::Str(id.clone())),
                    ("status".into(), Json::Str("health".into())),
                    ("ready".into(), Json::Bool(*ready)),
                    ("workers_alive".into(), Json::Num(*workers_alive as i64)),
                ];
                if let Some(j) = journal {
                    fields.push(("journal".into(), j.clone()));
                }
                Json::Obj(fields)
            }
        };
        doc.to_text()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, a wrong `schema` marker, or an
    /// unknown `status`.
    pub fn from_json(text: &str) -> Result<Response, JsonError> {
        let bad = |m: &str| JsonError {
            message: m.to_owned(),
            at: 0,
        };
        let doc = Json::parse(text)?;
        if WireVersion::of(&doc).is_none() {
            return Err(bad("not a pathslice-wire/v1 or /v2 response"));
        }
        let id = doc
            .field("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        match doc.field("status").and_then(Json::as_str) {
            Some("overloaded") => Ok(Response::Overloaded { id }),
            Some("metrics") => Ok(Response::Metrics {
                id,
                exposition: doc
                    .field("exposition")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing `exposition`"))?
                    .to_owned(),
                series: doc
                    .field("series")
                    .cloned()
                    .ok_or_else(|| bad("missing `series`"))?,
            }),
            Some("slow_traces") => Ok(Response::SlowTraces {
                id,
                traces: doc
                    .field("traces")
                    .cloned()
                    .ok_or_else(|| bad("missing `traces`"))?,
            }),
            Some("health") => Ok(Response::Health {
                id,
                ready: matches!(doc.field("ready"), Some(Json::Bool(true))),
                workers_alive: doc
                    .field("workers_alive")
                    .and_then(Json::as_i64)
                    .filter(|n| *n >= 0)
                    .ok_or_else(|| bad("missing `workers_alive`"))?
                    as u64,
                journal: doc.field("journal").cloned(),
            }),
            Some("error") => Ok(Response::Error {
                id,
                error: doc
                    .field("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_owned(),
            }),
            Some("ok") => {
                let num = |name: &str| -> Result<i64, JsonError> {
                    doc.field(name)
                        .and_then(Json::as_i64)
                        .ok_or_else(|| bad(&format!("missing numeric field `{name}`")))
                };
                let clusters = clusters_from_json(&doc)?;
                Ok(Response::Ok {
                    id,
                    cache_hit: match doc.field("cache").and_then(Json::as_str) {
                        Some("hit") => true,
                        Some("miss") => false,
                        _ => return Err(bad("missing `cache` disposition")),
                    },
                    warm: matches!(doc.field("warm"), Some(Json::Bool(true))),
                    exit: num("exit")? as i32,
                    render: doc
                        .field("render")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("missing `render`"))?
                        .to_owned(),
                    clusters,
                    wall_us: num("wall_us")? as u64,
                    queue_us: num("queue_us")? as u64,
                    certificate: doc.field("certificate").cloned(),
                    stats: doc.field("stats").cloned(),
                })
            }
            _ => Err(bad("unknown response `status`")),
        }
    }
}

/// Serializes structured cluster verdicts (shared by `ok` frames and
/// journal records, which must agree byte-for-byte on this shape).
pub(crate) fn clusters_to_json(clusters: &[ClusterVerdict]) -> Json {
    Json::Arr(
        clusters
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("func".into(), Json::Str(c.func.clone())),
                    ("sites".into(), Json::Num(c.sites as i64)),
                    ("verdict".into(), Json::Str(c.verdict.clone())),
                    ("refinements".into(), Json::Num(c.refinements as i64)),
                    ("wall_us".into(), Json::Num(c.wall_us as i64)),
                ])
            })
            .collect(),
    )
}

/// Parses the `clusters` array out of a response document or journal
/// record.
pub(crate) fn clusters_from_json(doc: &Json) -> Result<Vec<ClusterVerdict>, JsonError> {
    let bad = |m: String| JsonError { message: m, at: 0 };
    let mut clusters = Vec::new();
    for c in doc
        .field("clusters")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing `clusters` array".into()))?
    {
        let cstr = |name: &str| -> Result<String, JsonError> {
            c.field(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| bad(format!("cluster missing `{name}`")))
        };
        let cnum = |name: &str| -> Result<u64, JsonError> {
            match c.field(name).and_then(Json::as_i64) {
                Some(n) if n >= 0 => Ok(n as u64),
                _ => Err(bad(format!("cluster missing `{name}`"))),
            }
        };
        clusters.push(ClusterVerdict {
            func: cstr("func")?,
            sites: cnum("sites")?,
            verdict: cstr("verdict")?,
            refinements: cnum("refinements")?,
            wall_us: cnum("wall_us")?,
        });
    }
    Ok(clusters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_with_all_fields() {
        let req = Request {
            id: "req-7".into(),
            source: "fn main() { }\n\"quoted\"".into(),
            timeout_s: Some(2.5),
            deadline_ms: Some(1500),
            no_slicing: true,
            dfs: true,
            retries: 3,
            validate: true,
            want_certificate: true,
            want_stats: true,
        };
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn request_defaults_roundtrip() {
        let req = Request::new("global x; fn main() { }");
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.retries, 0);
        assert!(!back.validate);
    }

    #[test]
    fn request_rejects_bad_frames() {
        for bad in [
            "",
            "{",
            "{\"schema\":\"other/v1\",\"source\":\"x\"}",
            "{\"schema\":\"pathslice-wire/v1\"}",
            "{\"schema\":\"pathslice-wire/v1\",\"source\":5}",
            "{\"schema\":\"pathslice-wire/v1\",\"source\":\"x\",\"retries\":-1}",
            "{\"schema\":\"pathslice-wire/v1\",\"source\":\"x\",\"timeout_s\":\"soon\"}",
        ] {
            assert!(Request::from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_variants_roundtrip() {
        let ok = Response::Ok {
            id: "a".into(),
            cache_hit: true,
            warm: true,
            exit: 1,
            render: "main  BUG\n".into(),
            clusters: vec![ClusterVerdict {
                func: "main".into(),
                sites: 2,
                verdict: "BUG".into(),
                refinements: 4,
                wall_us: 1234,
            }],
            wall_us: 2000,
            queue_us: 17,
            certificate: Some(Json::Obj(vec![("version".into(), Json::Num(1))])),
            stats: None,
        };
        for resp in [
            ok,
            Response::Overloaded { id: "b".into() },
            Response::Error {
                id: String::new(),
                error: "bad frame".into(),
            },
        ] {
            assert_eq!(
                Response::from_json(&resp.to_json()).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn incoming_dispatches_on_op_and_defaults_to_check() {
        let check = Incoming::from_json(&Request::new("fn main() { }").to_json()).unwrap();
        assert!(matches!(check, Incoming::Check(_)), "no `op` means check");
        assert_eq!(
            Incoming::from_json(&metrics_request_json("m1")).unwrap(),
            Incoming::Metrics { id: "m1".into() }
        );
        assert_eq!(
            Incoming::from_json(&slow_traces_request_json("s1")).unwrap(),
            Incoming::SlowTraces { id: "s1".into() }
        );
        assert_eq!(
            Incoming::from_json(&ping_request_json("p1")).unwrap(),
            Incoming::Ping { id: "p1".into() }
        );
        assert_eq!(
            Incoming::from_json(
                "{\"schema\":\"pathslice-wire/v1\",\"op\":\"health\",\"id\":\"h\"}"
            )
            .unwrap(),
            Incoming::Ping { id: "h".into() },
            "`health` is an alias for `ping`"
        );
        assert!(
            Incoming::from_json("{\"schema\":\"pathslice-wire/v1\",\"op\":\"selfdestruct\"}")
                .is_err()
        );
    }

    #[test]
    fn telemetry_responses_roundtrip() {
        for resp in [
            Response::Metrics {
                id: "m".into(),
                exposition: "# TYPE pathslice_server_requests counter\n".into(),
                series: Json::Obj(vec![(
                    "schema".into(),
                    Json::Str("pathslice-metrics/v1".into()),
                )]),
            },
            Response::SlowTraces {
                id: "s".into(),
                traces: Json::Obj(vec![("traces".into(), Json::Arr(Vec::new()))]),
            },
        ] {
            assert_eq!(
                Response::from_json(&resp.to_json()).unwrap(),
                resp,
                "{resp:?}"
            );
            assert!(!resp.to_json().contains('\n'), "frames stay single-line");
        }
    }

    #[test]
    fn health_responses_roundtrip_and_warm_defaults_false() {
        for resp in [
            Response::Health {
                id: "h1".into(),
                ready: true,
                workers_alive: 4,
                journal: Some(Json::Obj(vec![("recovered".into(), Json::Num(7))])),
            },
            Response::Health {
                id: "h2".into(),
                ready: false,
                workers_alive: 0,
                journal: None,
            },
        ] {
            assert_eq!(
                Response::from_json(&resp.to_json()).unwrap(),
                resp,
                "{resp:?}"
            );
        }
        // A pre-journal `ok` frame (no `warm` field) parses with
        // warm=false: the field is backwards-compatible.
        let cold = Response::Ok {
            id: "c".into(),
            cache_hit: false,
            warm: false,
            exit: 0,
            render: String::new(),
            clusters: Vec::new(),
            wall_us: 1,
            queue_us: 1,
            certificate: None,
            stats: None,
        };
        let frame = cold.to_json();
        assert!(!frame.contains("warm"), "cold frames omit the field");
        assert_eq!(Response::from_json(&frame).unwrap(), cold);
    }

    #[test]
    fn v2_frames_parse_with_version_and_require_ids() {
        let mut req = Request::new("fn main() { }");
        req.id = "r1".into();
        let (incoming, version) = Incoming::parse(&req.to_json_versioned(WireVersion::V2)).unwrap();
        assert_eq!(version, WireVersion::V2);
        assert!(matches!(incoming, Incoming::Check(r) if r.id == "r1"));

        // The same frame under v1 parses as v1.
        let (_, version) = Incoming::parse(&req.to_json()).unwrap();
        assert_eq!(version, WireVersion::V1);

        // v2 without an id is rejected; v1 without an id is fine.
        let anon = Request::new("fn main() { }");
        assert!(Incoming::parse(&anon.to_json_versioned(WireVersion::V2)).is_err());
        assert!(Incoming::parse(&anon.to_json()).is_ok());
        assert!(
            Incoming::parse("{\"schema\":\"pathslice-wire/v2\",\"op\":\"ping\"}").is_err(),
            "ops need ids under v2 too"
        );
        let (ping, version) =
            Incoming::parse(&ping_request_json_versioned("p", WireVersion::V2)).unwrap();
        assert_eq!(ping, Incoming::Ping { id: "p".into() });
        assert_eq!(version, WireVersion::V2);
    }

    #[test]
    fn v2_serialization_differs_only_in_schema_marker() {
        let resp = Response::Ok {
            id: "x".into(),
            cache_hit: true,
            warm: true,
            exit: 0,
            render: "main  SAFE\n".into(),
            clusters: vec![ClusterVerdict {
                func: "main".into(),
                sites: 1,
                verdict: "SAFE".into(),
                refinements: 0,
                wall_us: 42,
            }],
            wall_us: 99,
            queue_us: 3,
            certificate: None,
            stats: None,
        };
        let v1 = resp.to_json();
        let v2 = resp.to_json_versioned(WireVersion::V2);
        assert_eq!(
            v1.replace(WIRE_SCHEMA, WIRE_SCHEMA_V2),
            v2,
            "identical bytes modulo the schema marker"
        );
        assert_eq!(Response::from_json(&v2).unwrap(), resp, "v2 parses too");

        let mut req = Request::new("x");
        req.id = "q".into();
        assert_eq!(
            req.to_json().replace(WIRE_SCHEMA, WIRE_SCHEMA_V2),
            req.to_json_versioned(WireVersion::V2)
        );
        assert_eq!(
            Request::from_json(&req.to_json_versioned(WireVersion::V2)).unwrap(),
            req
        );
    }

    #[test]
    fn spec_ops_cover_every_dispatch_arm() {
        // Every op the parser accepts must be listed in SPEC_OPS (the
        // docs/WIRE.md cross-check builds on this list).
        for op in SPEC_OPS {
            let frame = format!(
                "{{\"schema\":\"pathslice-wire/v1\",\"op\":\"{op}\",\"id\":\"i\",\
                 \"source\":\"fn main() {{ }}\"}}"
            );
            assert!(Incoming::from_json(&frame).is_ok(), "op `{op}` must parse");
        }
        assert!(
            Incoming::from_json("{\"schema\":\"pathslice-wire/v1\",\"op\":\"bogus\",\"id\":\"i\"}")
                .is_err(),
            "unknown ops stay rejected"
        );
    }

    #[test]
    fn response_rejects_foreign_documents() {
        assert!(Response::from_json("{\"schema\":\"pathslice-bench/v1\"}").is_err());
        assert!(
            Response::from_json("{\"schema\":\"pathslice-wire/v1\",\"status\":\"nope\"}").is_err()
        );
    }

    #[test]
    fn frames_are_single_line() {
        // Newline-delimited framing requires emitted frames to never
        // contain a raw newline, whatever the payload.
        let req = Request::new("line1\nline2\r\n");
        assert!(!req.to_json().contains('\n'));
        let resp = Response::Error {
            id: "x\ny".into(),
            error: "multi\nline".into(),
        };
        assert!(!resp.to_json().contains('\n'));
    }
}
