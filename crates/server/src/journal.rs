//! The durable verdict journal (`pathslice-journal/v1`).
//!
//! A `kill -9` used to erase every warm verdict: the content-addressed
//! caches live in memory only. This module gives `pathslice serve` a
//! crash-tolerant backing store — an **append-only, checksummed,
//! content-addressed journal** of finished verdicts that the daemon
//! appends to, and that a restarted daemon replays.
//!
//! The trust story is deliberately *not* "read it back and believe it".
//! Every record embeds the verdict's certificate trace; on replay the
//! server recompiles the embedded source and re-validates every
//! cluster certificate through `crates/certify` before the verdict
//! enters the recompiled session's verdict memo. A record that fails
//! its checksum is *torn*; a record whose certificate does not
//! re-validate is *rejected*; both downgrade to a plain cache miss.
//! **No unvalidated verdict is ever served from a recovered journal.**
//!
//! # On-disk format
//!
//! A journal is a directory of segment files `seg-<n>.psj`. Each
//! segment starts with a header line naming the format
//! (`pathslice-journal/v1`) and then holds one record per line:
//!
//! ```text
//! pathslice-journal/v1
//! J1 <fnv64-hex> <record-json>
//! J1 <fnv64-hex> <record-json>
//! ```
//!
//! The 16-hex-digit FNV-1a checksum covers exactly the JSON payload
//! bytes, so a torn tail (a crash mid-`write(2)`), a truncated line, or
//! any flipped byte fails closed. Records are single-line JSON (the
//! workspace's newline-discipline), so the reader can resynchronize at
//! the next `\n` and recover every undamaged record around a torn one.
//! Each line is decoded on its own, so a byte that is not UTF-8 (say, a
//! crash inside a multi-byte character of the embedded source) tears
//! only its line.
//!
//! # Write path
//!
//! Appends go straight to the segment file (no userspace buffering — a
//! crash loses nothing that `write(2)` accepted) and are fsynced in
//! batches: every [`JournalConfig::fsync_every`] records, on segment
//! rotation, and on graceful shutdown. Segments rotate at
//! [`JournalConfig::segment_max_bytes`]; startup compacts the survivors
//! of a replay into a single fresh segment and deletes the rest, so
//! journal size tracks the *live* verdict set, not serving history.
//!
//! # Fault injection
//!
//! [`FaultSite::JournalAppend`] and [`FaultSite::JournalReplay`] thread
//! the PR-1 chaos machinery through both paths, keyed by the record's
//! content key (hex), so a chaos test can predict exactly which records
//! are damaged: `TornWrite` writes half the record and rotates (a crash
//! mid-write never writes again to that segment), `IoError` drops the
//! append or makes the record unreadable on replay, and
//! `CorruptCertificate` damages the embedded certificate so the
//! recovery gate must reject it.

use crate::wire::{clusters_from_json, clusters_to_json, ClusterVerdict};
use obs::json::{Json, JsonError};
use rt::{FaultKind, FaultPlan, FaultSite};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format marker: first line of every segment file.
pub const JOURNAL_SCHEMA: &str = "pathslice-journal/v1";

/// Record-line prefix (bumped with the schema).
const RECORD_TAG: &str = "J1";

/// Journal tuning; defaults are production-shaped, tests shrink them.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// fsync after this many appended records (and always on rotation
    /// and graceful shutdown). 1 = fsync every record.
    pub fsync_every: usize,
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes.
    pub segment_max_bytes: u64,
    /// Deterministic fault injection for the append and replay paths.
    pub faults: FaultPlan,
}

impl JournalConfig {
    /// Production-shaped defaults for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync_every: 8,
            segment_max_bytes: 8 << 20,
            faults: FaultPlan::default(),
        }
    }
}

/// Point-in-time journal accounting. `recovered`/`rejected`/`torn`
/// describe the most recent replay; `appended`/`append_faults` the
/// current serving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Records appended (and fully written) this session.
    pub appended: u64,
    /// Appends lost to injected or real I/O failures (the verdict was
    /// still served; only durability degraded).
    pub append_faults: u64,
    /// Replayed records whose certificates re-validated — admitted to
    /// the warm cache.
    pub recovered: u64,
    /// Replayed records whose certificates did *not* re-validate —
    /// downgraded to a miss.
    pub rejected: u64,
    /// Lines that failed the checksum/framing gate (torn tails,
    /// corrupted or unreadable records).
    pub torn: u64,
    /// Segment files currently on disk.
    pub segments: u64,
}

/// One complete, certificate-backed verdict, exactly as it was served:
/// a journal record's payload.
///
/// Entries exist only for *stable* results — every cluster `SAFE` or
/// `BUG` (exit ≤ 1). Timeouts, internal errors, and mismatches are
/// re-checked every time: they are properties of a particular run, not
/// of the program, and they carry no validatable certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictEntry {
    /// `pathslice check` exit code (0 or 1 by construction).
    pub exit: i32,
    /// Verdicts rendered exactly as they were first served.
    pub render: String,
    /// Structured per-cluster verdicts.
    pub clusters: Vec<ClusterVerdict>,
    /// The `pathslice-trace/v1` certificate document the recovery gate
    /// re-validates.
    pub trace_json: String,
}

/// One journaled verdict: the served [`VerdictEntry`] under its program
/// key and configuration fingerprint. The entry's trace is what the
/// recovery gate re-validates.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Content key of the resolved program ([`blastlite::Session::key`]).
    pub key: u64,
    /// [`blastlite::config_fingerprint`] of the configuration the
    /// verdict was produced under.
    pub fingerprint: u64,
    /// The verdict.
    pub entry: VerdictEntry,
}

impl JournalRecord {
    fn to_json(&self) -> Result<String, JsonError> {
        // The trace is embedded as a JSON object, not a double-encoded
        // string: records stay greppable and the checksum still covers
        // every byte of it.
        let trace = Json::parse(&self.entry.trace_json)?;
        Ok(Json::Obj(vec![
            ("key".into(), Json::Str(format!("{:016x}", self.key))),
            ("fp".into(), Json::Str(format!("{:016x}", self.fingerprint))),
            ("exit".into(), Json::Num(self.entry.exit as i64)),
            ("render".into(), Json::Str(self.entry.render.clone())),
            ("clusters".into(), clusters_to_json(&self.entry.clusters)),
            ("trace".into(), trace),
        ])
        .to_text())
    }

    fn from_json(text: &str) -> Result<JournalRecord, String> {
        let doc = Json::parse(text).map_err(|e| format!("record JSON: {e}"))?;
        let hex = |name: &str| -> Result<u64, String> {
            doc.field(name)
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("missing hex field `{name}`"))
        };
        Ok(JournalRecord {
            key: hex("key")?,
            fingerprint: hex("fp")?,
            entry: VerdictEntry {
                exit: doc
                    .field("exit")
                    .and_then(Json::as_i64)
                    .ok_or("missing `exit`")? as i32,
                render: doc
                    .field("render")
                    .and_then(Json::as_str)
                    .ok_or("missing `render`")?
                    .to_owned(),
                clusters: clusters_from_json(&doc).map_err(|e| e.message)?,
                trace_json: doc.field("trace").ok_or("missing `trace`")?.to_text(),
            },
        })
    }
}

/// The outcome of reading one line back from disk.
#[derive(Debug)]
pub enum ReplayItem {
    /// Checksum and framing held; the certificate gate decides next.
    Intact(JournalRecord),
    /// The line failed the checksum/framing gate (torn write, flipped
    /// byte, unreadable record). Carries a human-readable reason.
    Torn(String),
}

/// An open, appendable verdict journal.
pub struct Journal {
    config: JournalConfig,
    /// Current append segment (index, handle, bytes written).
    seg_index: u64,
    seg_file: File,
    seg_bytes: u64,
    /// Appends since the last fsync.
    unsynced: usize,
    /// Whether this `Journal` still holds the directory's `LOCK` file.
    locked: bool,
    appended: AtomicU64,
    append_faults: AtomicU64,
    torn: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Journal({}, seg {}, {} byte(s))",
            self.config.dir.display(),
            self.seg_index,
            self.seg_bytes
        )
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.psj"))
}

fn lock_path(dir: &Path) -> PathBuf {
    dir.join("LOCK")
}

/// Whether `pid` names a live process on this machine.
fn pid_alive(pid: u32) -> bool {
    pid == std::process::id() || Path::new(&format!("/proc/{pid}")).exists()
}

/// Takes the journal directory's exclusivity lock: a `LOCK` file created
/// with `O_EXCL`, holding the owner's pid. Two writers interleaving
/// segments in one directory would corrupt each other's compactions, so
/// a *live* holder fails this open fast with an error naming the pid. A
/// lock whose pid is dead (the holder was SIGKILLed — its `Drop` never
/// ran) is stale and is reclaimed, which is what lets a restarted daemon
/// reopen its own journal after a crash.
fn acquire_lock(dir: &Path) -> std::io::Result<()> {
    let path = lock_path(dir);
    for _ in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                let _ = writeln!(file, "{}", std::process::id());
                let _ = file.sync_data();
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if !pid_alive(pid) => {
                        // Stale: reclaim and retry the O_EXCL create (a
                        // racing claimant may still beat us — then the
                        // second iteration reports *that* holder).
                        let _ = std::fs::remove_file(&path);
                    }
                    _ => {
                        let holder = holder
                            .map(|pid| format!("process {pid}"))
                            .unwrap_or_else(|| "an unidentified process".into());
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            format!(
                                "journal directory {} is already open by {holder} \
                                 (remove {} if that process is gone)",
                                dir.display(),
                                path.display()
                            ),
                        ));
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::WouldBlock,
        format!(
            "journal directory {} lock contended during stale-lock reclaim",
            dir.display()
        ),
    ))
}

/// Segment indices present in `dir`, ascending.
fn segment_indices(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".psj"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            indices.push(idx);
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

impl Journal {
    /// Opens (creating the directory if needed) and positions the
    /// journal on a *fresh* segment after any existing ones. Appending
    /// never touches a segment an earlier process wrote — a crashed
    /// writer's torn tail stays exactly as the crash left it for the
    /// replayer to diagnose.
    ///
    /// The directory is exclusively locked (`LOCK` file holding the
    /// owner's pid) for the lifetime of the `Journal`: a second opener
    /// fails fast instead of interleaving segments with a live writer. A
    /// stale lock left by a killed process is reclaimed automatically.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or the segment file, or
    /// [`std::io::ErrorKind::WouldBlock`] when another live process
    /// holds the directory's lock.
    pub fn open(config: JournalConfig) -> std::io::Result<Journal> {
        std::fs::create_dir_all(&config.dir)?;
        acquire_lock(&config.dir)?;
        let opened = segment_indices(&config.dir).and_then(|indices| {
            let next = indices.last().map_or(0, |last| last + 1);
            let (seg_file, seg_bytes) = Journal::create_segment(&config.dir, next)?;
            Ok((next, seg_file, seg_bytes))
        });
        let (next, seg_file, seg_bytes) = match opened {
            Ok(parts) => parts,
            Err(e) => {
                let _ = std::fs::remove_file(lock_path(&config.dir));
                return Err(e);
            }
        };
        Ok(Journal {
            config,
            seg_index: next,
            seg_file,
            seg_bytes,
            unsynced: 0,
            locked: true,
            appended: AtomicU64::new(0),
            append_faults: AtomicU64::new(0),
            torn: AtomicU64::new(0),
        })
    }

    /// Releases the directory lock without closing the journal. Normal
    /// shutdown never needs this ([`Drop`] unlocks); it exists for the
    /// simulated-crash path, where the `Journal` is deliberately leaked
    /// (so buffered state dies exactly as `kill -9` would lose it) but
    /// the lock must still disappear the way the OS reaps it with the
    /// process.
    pub fn unlock(&mut self) {
        if self.locked {
            self.locked = false;
            let _ = std::fs::remove_file(lock_path(&self.config.dir));
        }
    }

    fn create_segment(dir: &Path, index: u64) -> std::io::Result<(File, u64)> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, index))?;
        let header = format!("{JOURNAL_SCHEMA}\n");
        file.write_all(header.as_bytes())?;
        Ok((file, header.len() as u64))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Appends one record, honouring the fault plan, the fsync batch,
    /// and segment rotation. An injected `IoError` (or a real write
    /// failure) loses only this record — serving already happened; the
    /// fault is counted and the daemon moves on.
    ///
    /// # Errors
    ///
    /// The record could not be serialized (a malformed trace — a bug,
    /// not an I/O condition). Real and injected I/O failures are
    /// *absorbed* into `append_faults`, not returned: durability
    /// degrades, serving never does.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), String> {
        let payload = record
            .to_json()
            .map_err(|e| format!("unserializable journal record: {e}"))?;
        let line = format!(
            "{RECORD_TAG} {:016x} {payload}\n",
            fnv64(payload.as_bytes())
        );
        let key = format!("{:016x}", record.key);
        match self.config.faults.fire(FaultSite::JournalAppend, &key) {
            Some(FaultKind::IoError) => {
                self.append_faults.fetch_add(1, Ordering::Relaxed);
                obs::counter("journal.append_faults").inc();
                return Ok(());
            }
            Some(FaultKind::TornWrite) => {
                // A crash mid-write(2): half the line lands, nothing is
                // ever written to this segment again (rotate), and the
                // replayer must fail the checksum on the half-line.
                let half = &line.as_bytes()[..line.len() / 2];
                let _ = self.seg_file.write_all(half);
                let _ = self.seg_file.sync_data();
                self.append_faults.fetch_add(1, Ordering::Relaxed);
                obs::counter("journal.append_faults").inc();
                self.rotate();
                return Ok(());
            }
            _ => {}
        }
        if self.seg_file.write_all(line.as_bytes()).is_err() {
            self.append_faults.fetch_add(1, Ordering::Relaxed);
            obs::counter("journal.append_faults").inc();
            return Ok(());
        }
        self.seg_bytes += line.len() as u64;
        self.unsynced += 1;
        self.appended.fetch_add(1, Ordering::Relaxed);
        obs::counter("journal.appended").inc();
        if self.unsynced >= self.config.fsync_every.max(1) {
            self.flush();
        }
        if self.seg_bytes > self.config.segment_max_bytes {
            self.rotate();
        }
        Ok(())
    }

    /// fsyncs any unsynced appends (batch boundary, graceful shutdown).
    pub fn flush(&mut self) {
        if self.unsynced > 0 {
            let _ = self.seg_file.sync_data();
            self.unsynced = 0;
        }
    }

    fn rotate(&mut self) {
        self.flush();
        let next = self.seg_index + 1;
        if let Ok((file, bytes)) = Journal::create_segment(&self.config.dir, next) {
            self.seg_index = next;
            self.seg_file = file;
            self.seg_bytes = bytes;
        }
    }

    /// Reads every record line out of every segment *older than the
    /// current append segment*, oldest first, applying the checksum and
    /// the replay fault plan. Certificate validation is the caller's
    /// job (it needs the compile pipeline); this layer only decides
    /// intact-vs-torn.
    pub fn replay(&self) -> Vec<ReplayItem> {
        let mut items = Vec::new();
        let Ok(indices) = segment_indices(&self.config.dir) else {
            return items;
        };
        for index in indices {
            if index >= self.seg_index {
                continue; // the fresh append segment: ours, empty
            }
            let path = segment_path(&self.config.dir, index);
            let Ok(bytes) = std::fs::read(&path) else {
                self.torn.fetch_add(1, Ordering::Relaxed);
                obs::counter("journal.torn").inc();
                items.push(ReplayItem::Torn(format!("unreadable segment {index}")));
                continue;
            };
            // Split on raw `\n` and decode each line on its own: a byte
            // that is not UTF-8 tears only the line it sits in.
            let mut lines = bytes.split_inclusive(|&b| b == b'\n');
            match lines
                .next()
                .and_then(|l| std::str::from_utf8(l).ok())
                .map(str::trim_end)
            {
                Some(JOURNAL_SCHEMA) => {}
                _ => {
                    self.torn.fetch_add(1, Ordering::Relaxed);
                    obs::counter("journal.torn").inc();
                    items.push(ReplayItem::Torn(format!(
                        "segment {index} has a foreign or damaged header"
                    )));
                    continue;
                }
            }
            for line in lines {
                match self.replay_line(line) {
                    Ok(None) => {} // blank line
                    Ok(Some(record)) => items.push(ReplayItem::Intact(record)),
                    Err(reason) => {
                        self.torn.fetch_add(1, Ordering::Relaxed);
                        obs::counter("journal.torn").inc();
                        items.push(ReplayItem::Torn(reason));
                    }
                }
            }
        }
        items
    }

    /// Checksum-gates one record line. `Ok(None)` for ignorable blanks.
    fn replay_line(&self, line: &[u8]) -> Result<Option<JournalRecord>, String> {
        let Ok(line) = std::str::from_utf8(line) else {
            return Err("record line is not UTF-8".into());
        };
        if line.trim().is_empty() {
            return Ok(None);
        }
        // A torn tail is a line the crash never finished: no newline.
        let Some(line) = line.strip_suffix('\n') else {
            return Err("torn tail (record without terminator)".into());
        };
        let parts: Option<(&str, &str, &str)> = line
            .strip_prefix(RECORD_TAG)
            .and_then(|r| r.strip_prefix(' '))
            .and_then(|r| r.split_once(' '))
            .map(|(sum, payload)| (RECORD_TAG, sum, payload));
        let Some((_, sum_hex, payload)) = parts else {
            return Err(format!("unframed record line `{}`", truncate(line, 40)));
        };
        let Ok(expected) = u64::from_str_radix(sum_hex, 16) else {
            return Err("unparseable checksum".into());
        };
        if fnv64(payload.as_bytes()) != expected {
            return Err(format!(
                "checksum mismatch on record `{}`",
                truncate(payload, 40)
            ));
        }
        let record = JournalRecord::from_json(payload)
            .map_err(|e| format!("checksummed but unparseable record: {e}"))?;
        // Injected replay faults, keyed by the record's content key so
        // chaos tests can predict the damage set exactly.
        match self
            .config
            .faults
            .fire(FaultSite::JournalReplay, &format!("{:016x}", record.key))
        {
            Some(FaultKind::IoError) => Err(format!(
                "injected read failure on record {:016x}",
                record.key
            )),
            _ => Ok(Some(record)),
            // CorruptCertificate is applied by the *recovery gate* (it
            // needs the parsed certificates), not here.
        }
    }

    /// Whether the replay fault plan injects certificate corruption for
    /// this record (the recovery gate consults this before validating).
    pub fn replay_corrupts(&self, key: u64) -> bool {
        self.config
            .faults
            .decide(FaultSite::JournalReplay, &format!("{key:016x}"))
            == Some(FaultKind::CorruptCertificate)
    }

    /// Rewrites `live` (the records that survived recovery) into the
    /// current append segment and deletes every older segment: replay
    /// cost and disk usage track the live verdict set. Torn tails and
    /// rejected records are *not* carried forward — compaction is the
    /// garbage collector for damage.
    pub fn compact(&mut self, live: &[JournalRecord]) {
        for record in live {
            // Re-appending runs the normal fault plan; a chaos plan
            // that damages appends damages compaction too, which is the
            // honest behaviour.
            let _ = self.append(record);
        }
        self.flush();
        if let Ok(indices) = segment_indices(&self.config.dir) {
            for index in indices {
                if index < self.seg_index {
                    let _ = std::fs::remove_file(segment_path(&self.config.dir, index));
                }
            }
        }
        obs::counter("journal.compactions").inc();
    }

    /// Current accounting (replay counters cover torn only; the
    /// recovery gate owns recovered/rejected).
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.appended.load(Ordering::Relaxed),
            append_faults: self.append_faults.load(Ordering::Relaxed),
            recovered: 0,
            rejected: 0,
            torn: self.torn.load(Ordering::Relaxed),
            segments: segment_indices(&self.config.dir)
                .map(|v| v.len() as u64)
                .unwrap_or(0),
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.flush();
        self.unlock();
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// 64-bit FNV-1a over the payload bytes — the workspace's shared
/// content hash ([`incr::hash::fnv64`]), so the on-disk checksum, the
/// session content key, and the per-function derivation-graph keys are
/// all one construction. Also used by the server to remember raw
/// request text.
pub(crate) fn content_hash(bytes: &[u8]) -> u64 {
    fnv64(bytes)
}

use incr::hash::fnv64;

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pathslice-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cluster() -> ClusterVerdict {
        ClusterVerdict {
            func: "main".into(),
            sites: 1,
            verdict: "BUG".into(),
            refinements: 2,
            wall_us: 1234,
        }
    }

    fn record(key: u64) -> JournalRecord {
        JournalRecord {
            key,
            fingerprint: 0xF00D,
            entry: VerdictEntry {
                exit: 1,
                render: format!("main BUG {key}\n"),
                clusters: vec![cluster()],
                trace_json: "{\"schema\":\"pathslice-trace/v1\",\"source\":\"\",\"clusters\":[]}"
                    .into(),
            },
        }
    }

    fn intact(items: &[ReplayItem]) -> Vec<&JournalRecord> {
        items
            .iter()
            .filter_map(|i| match i {
                ReplayItem::Intact(r) => Some(r),
                ReplayItem::Torn(_) => None,
            })
            .collect()
    }

    /// `pathslice-journal/v1` bytes are a compatibility surface: a
    /// journal written by an older daemon must replay under a newer one.
    /// This line is what the format's first release wrote for this record.
    #[test]
    fn record_bytes_are_pinned() {
        const LINE: &str = r#"J1 aed74ce695c153eb {"key":"0123456789abcdef","fp":"000000000000f00d","exit":1,"render":"main                        1 site(s)  BUG                  2 refinement(s)  1.2ms\n    main             error()\n","clusters":[{"func":"main","sites":1,"verdict":"BUG","refinements":2,"wall_us":1234}],"trace":{"version":1,"source":"global a; fn main() { if (a > 0) { error(); } }","clusters":[{"func":"main","claimed":"Bug","certificate":{"kind":"bug","path":[[0,0]],"slice":[[0,0]],"initial":[[0,1]],"havoc":[]}}]}}"#;
        let dir = temp_dir("golden");
        let mut journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let trace =
            "{\"version\":1,\"source\":\"global a; fn main() { if (a > 0) { error(); } }\",\
                     \"clusters\":[{\"func\":\"main\",\"claimed\":\"Bug\",\"certificate\":\
                     {\"kind\":\"bug\",\"path\":[[0,0]],\"slice\":[[0,0]],\"initial\":[[0,1]],\
                     \"havoc\":[]}}]}";
        let record = JournalRecord {
            key: 0x0123_4567_89ab_cdef,
            fingerprint: 0xF00D,
            entry: VerdictEntry {
                exit: 1,
                render: "main                        1 site(s)  BUG                  \
                         2 refinement(s)  1.2ms\n    main             error()\n"
                    .into(),
                clusters: vec![cluster()],
                trace_json: trace.into(),
            },
        };
        journal.append(&record).unwrap();
        drop(journal);
        let text = std::fs::read_to_string(segment_path(&dir, 0)).unwrap();
        assert_eq!(text, format!("{JOURNAL_SCHEMA}\n{LINE}\n"));
        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(*intact(&reopened.replay())[0], record);
    }

    #[test]
    fn records_roundtrip_across_a_reopen() {
        let dir = temp_dir("roundtrip");
        let mut journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        for k in 0..5 {
            journal.append(&record(k)).unwrap();
        }
        drop(journal);
        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = reopened.replay();
        let live = intact(&items);
        assert_eq!(live.len(), 5);
        for (k, r) in live.iter().enumerate() {
            assert_eq!(**r, record(k as u64));
        }
        assert_eq!(reopened.stats().torn, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_the_rest_recovers() {
        let dir = temp_dir("torn");
        let mut journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        for k in 0..4 {
            journal.append(&record(k)).unwrap();
        }
        let seg = segment_path(&dir, 0);
        drop(journal);
        // Chop the last record mid-line: a crash mid-write(2).
        let text = std::fs::read_to_string(&seg).unwrap();
        std::fs::write(&seg, &text[..text.len() - 20]).unwrap();

        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = reopened.replay();
        assert_eq!(intact(&items).len(), 3, "undamaged records recover");
        assert_eq!(reopened.stats().torn, 1, "exactly the torn tail counted");
    }

    #[test]
    fn flipped_byte_fails_the_checksum_but_not_its_neighbours() {
        let dir = temp_dir("flip");
        let mut journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        for k in 0..3 {
            journal.append(&record(k)).unwrap();
        }
        let seg = segment_path(&dir, 0);
        drop(journal);
        let mut text = std::fs::read_to_string(&seg).unwrap();
        // Flip one byte inside the *second* record's payload.
        let second = text.lines().nth(2).unwrap().to_owned();
        let damaged = second.replace("BUG 1", "BUG 9");
        assert_ne!(second, damaged, "the flip must land");
        text = text.replace(&second, &damaged);
        std::fs::write(&seg, text).unwrap();

        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = reopened.replay();
        let live = intact(&items);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].key, 0);
        assert_eq!(live[1].key, 2);
        assert_eq!(reopened.stats().torn, 1);
    }

    /// Three records whose payloads carry a two-byte `é`, as a
    /// commented IMP source does, and the segment bytes they make.
    fn accented_segment(dir: &Path) -> (Vec<JournalRecord>, Vec<u8>) {
        let mut journal = Journal::open(JournalConfig::new(dir)).unwrap();
        let records: Vec<JournalRecord> = (0..3)
            .map(|k| {
                let mut r = record(k);
                r.entry.render = format!("main BUG {k} // café\n");
                r
            })
            .collect();
        for r in &records {
            journal.append(r).unwrap();
        }
        drop(journal);
        let bytes = std::fs::read(segment_path(dir, 0)).unwrap();
        (records, bytes)
    }

    #[test]
    fn a_non_utf8_byte_tears_only_its_own_line() {
        let dir = temp_dir("non-utf8");
        let (records, mut bytes) = accented_segment(&dir);
        // Flip the high bit of one payload byte in the middle record:
        // `B` becomes a UTF-8 lead byte with no continuation after it.
        let at = bytes
            .windows(5)
            .position(|w| w == b"BUG 1")
            .expect("middle record");
        bytes[at] ^= 0x80;
        std::fs::write(segment_path(&dir, 0), &bytes).unwrap();

        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = reopened.replay();
        assert_eq!(intact(&items), vec![&records[0], &records[2]]);
        assert_eq!(reopened.stats().torn, 1);
    }

    #[test]
    fn a_torn_tail_inside_a_multibyte_character_keeps_the_complete_records() {
        let dir = temp_dir("torn-utf8");
        let (records, bytes) = accented_segment(&dir);
        // A crash mid-write(2) that stops after the first byte of the
        // last record's `é`.
        let last_e = bytes
            .windows(2)
            .rposition(|w| w == "é".as_bytes())
            .expect("accented payload");
        std::fs::write(segment_path(&dir, 0), &bytes[..=last_e]).unwrap();

        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = reopened.replay();
        assert_eq!(intact(&items), vec![&records[0], &records[1]]);
        assert_eq!(reopened.stats().torn, 1);
    }

    /// Byte-level fuzz of a segment the journal wrote itself: flips,
    /// insertions and deletions in the tag, the checksum, the payload
    /// and the newline of random record lines. Replay never panics,
    /// returns no record that was not written, and returns every record
    /// more than one line away from every mutation (deleting a newline
    /// merges a line with the next; inserting one splits it).
    #[test]
    fn byte_mutations_never_take_distant_records_with_them() {
        let dir = temp_dir("fuzz");
        let mut journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let records: Vec<JournalRecord> = (0..8)
            .map(|k| {
                let mut r = record(k);
                r.entry.render = format!("main BUG {k} // naïve café ✓\n");
                r
            })
            .collect();
        for r in &records {
            journal.append(r).unwrap();
        }
        drop(journal);
        let original = std::fs::read(segment_path(&dir, 0)).unwrap();
        // Byte span of each record line, newline included.
        let header_len = JOURNAL_SCHEMA.len() + 1;
        let mut lines = Vec::new();
        let mut start = header_len;
        for (i, &b) in original.iter().enumerate().skip(header_len) {
            if b == b'\n' {
                lines.push(start..i + 1);
                start = i + 1;
            }
        }
        assert_eq!(lines.len(), records.len());

        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move |bound: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % bound
        };
        for round in 0..400 {
            let mut edits: Vec<(usize, usize)> = Vec::new(); // (offset, line)
            for _ in 0..1 + rand(3) {
                let line = rand(lines.len());
                let span = &lines[line];
                // A line is the tag `J1 `, 16 hex digits of checksum, a
                // space, the payload, and the newline.
                let offset = match rand(4) {
                    0 => span.start + rand(3),
                    1 => span.start + 3 + rand(16),
                    2 => span.start + 20 + rand(span.len() - 21),
                    _ => span.end - 1,
                };
                edits.push((offset, line));
            }
            // Apply back to front so earlier offsets stay valid.
            edits.sort_unstable_by(|a, b| b.cmp(a));
            let mut bytes = original.clone();
            for &(offset, _) in &edits {
                match rand(3) {
                    0 => bytes[offset] ^= 1 << rand(8),
                    1 => bytes.insert(offset, [b'\n', 0xC3, 0x80, b' '][rand(4)]),
                    _ => {
                        bytes.remove(offset);
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(segment_path(&dir, 0), &bytes).unwrap();

            let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
            let items = reopened.replay();
            let live = intact(&items);
            for r in &live {
                assert!(records.contains(r), "round {round}: invented record {r:?}");
            }
            for (j, r) in records.iter().enumerate() {
                if edits.iter().all(|&(_, line)| line.abs_diff(j) > 1) {
                    assert!(
                        live.contains(&r),
                        "round {round}: record {j} lost to edits {edits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn segments_rotate_and_compaction_collapses_them() {
        let dir = temp_dir("rotate");
        let mut config = JournalConfig::new(&dir);
        config.segment_max_bytes = 256; // force rotation almost every append
        let mut journal = Journal::open(config).unwrap();
        for k in 0..6 {
            journal.append(&record(k)).unwrap();
        }
        assert!(journal.stats().segments >= 3, "{:?}", journal.stats());
        drop(journal);

        let mut reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = reopened.replay();
        let live: Vec<JournalRecord> = intact(&items).into_iter().cloned().collect();
        assert_eq!(live.len(), 6);
        reopened.compact(&live);
        assert_eq!(reopened.stats().segments, 1, "old segments deleted");
        // Everything survives one more reopen+replay.
        drop(reopened);
        let again = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(intact(&again.replay()).len(), 6);
    }

    #[test]
    fn injected_torn_write_loses_exactly_the_faulted_record() {
        let dir = temp_dir("fault-torn");
        let mut config = JournalConfig::new(&dir);
        // Key 2's hex is deterministic; fault exactly that record.
        config.faults =
            FaultPlan::new(0xBEEF).inject(FaultSite::JournalAppend, FaultKind::TornWrite, 1.0);
        let plan = config.faults.clone();
        let keys: Vec<String> = (0..4u64).map(|k| format!("{k:016x}")).collect();
        let faulted = plan.faulted_keys(FaultSite::JournalAppend, keys.iter().map(String::as_str));
        assert_eq!(faulted.len(), 4, "rate 1.0 faults every key");

        let mut journal = Journal::open(config).unwrap();
        for k in 0..4 {
            journal.append(&record(k)).unwrap();
        }
        assert_eq!(journal.stats().append_faults, 4);
        drop(journal);

        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = reopened.replay();
        assert_eq!(intact(&items).len(), 0, "every record torn");
        assert_eq!(reopened.stats().torn, 4, "one torn line per faulted append");
    }

    #[test]
    fn injected_append_io_error_drops_the_record_silently() {
        let dir = temp_dir("fault-io");
        let mut config = JournalConfig::new(&dir);
        config.faults = FaultPlan::new(1).inject(FaultSite::JournalAppend, FaultKind::IoError, 1.0);
        let mut journal = Journal::open(config).unwrap();
        journal.append(&record(7)).unwrap();
        assert_eq!(journal.stats().appended, 0);
        assert_eq!(journal.stats().append_faults, 1);
        drop(journal);
        let reopened = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(intact(&reopened.replay()).len(), 0);
        assert_eq!(reopened.stats().torn, 0, "a dropped append tears nothing");
    }

    #[test]
    fn second_opener_fails_fast_while_the_lock_is_held() {
        let dir = temp_dir("lock-held");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let err = Journal::open(JournalConfig::new(&dir)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("process {}", std::process::id())),
            "error names the holder: {msg}"
        );
        assert!(msg.contains("LOCK"), "error names the lock file: {msg}");
        drop(journal);
        assert!(!lock_path(&dir).exists(), "drop releases the lock");
        // And the directory is reopenable afterwards.
        Journal::open(JournalConfig::new(&dir)).unwrap();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = temp_dir("lock-stale");
        std::fs::create_dir_all(&dir).unwrap();
        // Pid u32::MAX is far above any real pid_max: a dead holder.
        std::fs::write(lock_path(&dir), format!("{}\n", u32::MAX)).unwrap();
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let text = std::fs::read_to_string(lock_path(&dir)).unwrap();
        assert_eq!(
            text.trim().parse::<u32>().unwrap(),
            std::process::id(),
            "reclaimed lock names the new holder"
        );
        drop(journal);
    }

    #[test]
    fn unreadable_lock_is_treated_as_held() {
        let dir = temp_dir("lock-garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(lock_path(&dir), "not-a-pid\n").unwrap();
        let err = Journal::open(JournalConfig::new(&dir)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains("unidentified"), "{err}");
    }

    #[test]
    fn foreign_header_segment_is_quarantined_not_trusted() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), "some-other-format/v9\nJ1 0 {}\n").unwrap();
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let items = journal.replay();
        assert_eq!(intact(&items).len(), 0);
        assert_eq!(journal.stats().torn, 1);
    }
}
