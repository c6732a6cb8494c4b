//! `rt` — the shared runtime layer for fault-tolerant verification runs.
//!
//! The paper's Table-1 experiment is a *batch* protocol: hundreds of
//! per-function checks under a wall-clock cap where individual timeouts
//! are tolerated and reported, never fatal. This crate provides the
//! pieces every layer of such a batch driver needs:
//!
//! * [`Budget`] — one checked deadline/cancellation abstraction that
//!   replaces scattered raw `Instant::now() > deadline` polls. A budget
//!   combines an optional deadline with an optional shared
//!   [`CancelToken`], and is threaded by reference through solver inner
//!   loops, abstract-reachability expansion, and the slicer's backward
//!   pass.
//! * [`CancelToken`] — cooperative cancellation shared across worker
//!   threads.
//! * [`catch_unwind_silent`] — panic isolation for per-cluster checks
//!   that keeps intentional (injected or isolated) panics from spamming
//!   stderr, without disturbing the global panic hook for anyone else.
//! * [`FaultPlan`] — deterministic, seeded fault injection used by the
//!   chaos test-suite to prove the driver's invariant that *no injected
//!   fault can turn a non-Safe verdict into Safe*.
//! * [`reactor`] — readiness primitives (level-triggered poller + waker)
//!   for the server's event loop.
//!
//! Budget interrupts are counted into the `obs` metrics registry
//! (`rt.interrupts_deadline` / `rt.interrupts_cancelled`), so an `obs`
//! span that ends early shows *why* in the same report.
//!
//! # Worked example
//!
//! A cancellable, deadline-bounded loop — the pattern every solver and
//! exploration loop in the workspace follows:
//!
//! ```
//! use rt::{Budget, CancelToken, Interrupt};
//! use std::time::Duration;
//!
//! let token = CancelToken::new();
//! let budget = Budget::lasting(Duration::from_secs(30)).with_token(token.clone());
//!
//! // A worker polls the budget in its hot loop (strided: the clock is
//! // read only every few polls) …
//! let mut processed = 0;
//! let outcome = loop {
//!     if let Err(i) = budget.poll() {
//!         break Err(i);
//!     }
//!     processed += 1;
//!     if processed == 10_000 {
//!         break Ok(processed);
//!     }
//!     // … meanwhile any thread may cancel cooperatively:
//!     if processed == 5_000 {
//!         token.cancel();
//!     }
//! };
//! assert_eq!(outcome, Err(Interrupt::Cancelled));
//! ```

pub mod reactor;

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// Why a cooperative computation was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The shared [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::DeadlineExpired => f.write_str("deadline expired"),
            Interrupt::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// A shared flag for cooperative cancellation across threads.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every [`Budget`] carrying this token
    /// reports [`Interrupt::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// How many [`Budget::poll`] calls elapse between clock reads.
const POLL_STRIDE: u32 = 128;

/// A deadline plus an optional cancellation token: the single checked
/// abstraction every cancellable loop consults.
///
/// `Budget` is cheap to clone (each clone gets its own poll counter) and
/// deliberately **not** `Sync`: clone one per worker.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    token: Option<CancelToken>,
    /// Strided polling: only read the clock every `POLL_STRIDE` polls.
    polls: Cell<u32>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no deadline and no token: never interrupts.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            token: None,
            polls: Cell::new(0),
        }
    }

    /// A budget expiring at `deadline`.
    pub fn until(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Budget::unlimited()
        }
    }

    /// A budget expiring `d` from now.
    pub fn lasting(d: Duration) -> Self {
        Budget::until(Instant::now() + d)
    }

    /// Attaches a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` when unbounded, zero when
    /// already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// A child budget capped at `min(own deadline, now + d)`, carrying
    /// the same token. Used to give sub-phases (one solver call, one
    /// core minimization) a slice of the whole check's budget.
    pub fn child(&self, d: Duration) -> Budget {
        let child_deadline = Instant::now() + d;
        Budget {
            deadline: Some(match self.deadline {
                Some(own) => own.min(child_deadline),
                None => child_deadline,
            }),
            token: self.token.clone(),
            polls: Cell::new(0),
        }
    }

    /// Unconditionally checks deadline and token.
    pub fn check(&self) -> Result<(), Interrupt> {
        if let Some(t) = &self.token {
            if t.is_cancelled() {
                obs::counter("rt.interrupts_cancelled").inc();
                return Err(Interrupt::Cancelled);
            }
        }
        if matches!(self.deadline, Some(d) if Instant::now() > d) {
            obs::counter("rt.interrupts_deadline").inc();
            return Err(Interrupt::DeadlineExpired);
        }
        Ok(())
    }

    /// Strided check for hot loops: consults the token every call but
    /// reads the clock only every `POLL_STRIDE` calls.
    pub fn poll(&self) -> Result<(), Interrupt> {
        if let Some(t) = &self.token {
            if t.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        let n = self.polls.get().wrapping_add(1);
        self.polls.set(n);
        if n.is_multiple_of(POLL_STRIDE) {
            self.check()
        } else {
            Ok(())
        }
    }

    /// Whether the budget is currently exceeded (unconditional check).
    pub fn exceeded(&self) -> bool {
        self.check().is_err()
    }
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

thread_local! {
    static SILENCED: Cell<u32> = const { Cell::new(0) };
}

static HOOK_INIT: Once = Once::new();

/// Runs `f`, catching panics. While `f` runs on this thread, the global
/// panic hook's output is suppressed (the hook chain is preserved for
/// all other threads and for panics outside this scope).
pub fn catch_unwind_silent<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    HOOK_INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SILENCED.with(|s| s.get()) == 0 {
                prev(info);
            }
        }));
    });
    SILENCED.with(|s| s.set(s.get() + 1));
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    SILENCED.with(|s| s.set(s.get() - 1));
    r
}

/// Renders a panic payload (from [`catch_unwind_silent`]) as text.
pub fn panic_payload(e: &(dyn Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

// ---------------------------------------------------------------------
// Graceful shutdown (SIGINT → the process-wide cancellation token)
// ---------------------------------------------------------------------

static SHUTDOWN: OnceLock<CancelToken> = OnceLock::new();

/// The process-wide shutdown token. Long-running entry points (the
/// `pathslice` CLI's `check` run, the `serve` daemon) attach this token
/// to their budgets; [`install_sigint_handler`] cancels it on SIGINT, so
/// interrupted runs unwind through the normal cancellation path — spans
/// flush, partial results report, nothing is left wedged.
pub fn shutdown_token() -> CancelToken {
    SHUTDOWN.get_or_init(CancelToken::new).clone()
}

/// Whether a process shutdown has been requested (SIGINT received or
/// [`request_shutdown`] called).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.get().is_some_and(CancelToken::is_cancelled)
}

/// Programmatic equivalent of SIGINT: cancels the shutdown token. Used
/// by tests and by in-process embedders; idempotent.
pub fn request_shutdown() {
    shutdown_token().cancel();
}

#[cfg(unix)]
extern "C" fn shutdown_signal_handler(_sig: i32) {
    // Async-signal-safe: `OnceLock::get` is a lock-free read (the token
    // is created before the handler is installed) and `cancel` is one
    // relaxed atomic store. No allocation, no locks.
    if let Some(token) = SHUTDOWN.get() {
        token.flag.store(true, Ordering::Relaxed);
    }
}

/// Installs a SIGINT handler that cancels [`shutdown_token`]. Idempotent;
/// a no-op on non-Unix targets. Call once from a long-running binary's
/// entry point *before* blocking work starts.
///
/// Interactive commands keep the SIGINT-only surface; daemons should
/// call [`install_shutdown_handlers`] so orchestrators' SIGTERM drains
/// them too.
pub fn install_sigint_handler() {
    install_signal(2 /* SIGINT */);
}

/// Installs SIGINT *and* SIGTERM handlers that cancel
/// [`shutdown_token`]: the daemon entry point. `kill <pid>` (the default
/// SIGTERM, what init systems and container runtimes send) then takes
/// the same graceful-drain path Ctrl-C does — finish admitted work,
/// flush the journal, join every thread — instead of killing the
/// process mid-write. Idempotent; a no-op on non-Unix targets.
pub fn install_shutdown_handlers() {
    install_signal(2 /* SIGINT */);
    install_signal(15 /* SIGTERM */);
}

#[cfg_attr(not(unix), allow(unused_variables))]
fn install_signal(signum: i32) {
    // Create the token first so the handler's lock-free `get` succeeds.
    let _ = shutdown_token();
    #[cfg(unix)]
    {
        extern "C" {
            // POSIX `signal(2)`; std links libc on every Unix
            // target, so no external crate is needed.
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // Idempotent by construction: re-installing the same handler
        // for the same signal is a no-op observably, so no `Once` per
        // signal is needed.
        unsafe {
            signal(signum, shutdown_signal_handler);
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Before a cluster's check starts (driver level).
    ClusterStart,
    /// At a feasibility-solver call.
    SolverCheck,
    /// During abstract-reachability expansion.
    ReachStep,
    /// During the slicer's backward pass.
    SlicePass,
    /// While building a bug certificate: the concretized witness is
    /// truncated (last slice edge dropped). Models a lost tail of the
    /// evidence; the validator must notice the slice no longer ends at
    /// an error location.
    CertWitness,
    /// While building a safety certificate: one atom is dropped from an
    /// unsat core. Models a corrupted refutation; the remaining core is
    /// satisfiable (deletion-minimized cores are 1-minimal), so the
    /// validator's fresh solver context must notice.
    CertCore,
    /// While building a bug certificate: the slice's operation order is
    /// permuted (reversed). Models evidence reassembled in the wrong
    /// order; the slice stops being a subsequence of the abstract path
    /// that reaches the target.
    CertSlice,
    /// While appending a record to the verdict journal. A
    /// [`FaultKind::TornWrite`] here models a crash mid-`write(2)` (the
    /// record's tail never reaches the disk); [`FaultKind::IoError`]
    /// models a full disk or a failing device (the record is lost but
    /// the daemon keeps serving).
    JournalAppend,
    /// While replaying a journal record at startup.
    /// [`FaultKind::IoError`] makes the record unreadable;
    /// [`FaultKind::CorruptCertificate`] damages the record's embedded
    /// certificate so the certificate-gated recovery must reject it.
    JournalReplay,
    /// While reading a request frame off a connection.
    /// [`FaultKind::TornWrite`] truncates the frame mid-line (the parse
    /// must fail and be counted); [`FaultKind::IoError`] drops the
    /// connection as a failed `read(2)` would.
    WireRead,
    /// While writing a response frame to a connection.
    /// [`FaultKind::TornWrite`] emits only a prefix of the frame before
    /// the connection drops; [`FaultKind::IoError`] drops it without
    /// writing anything. Either way the *daemon* must shrug it off —
    /// only that one connection is affected.
    WireWrite,
    /// While reusing a memoized cluster verdict from the incremental
    /// derivation graph (keyed by the cluster's function name).
    /// [`FaultKind::CorruptCertificate`] damages the stored evidence so
    /// the certificate gate must reject the entry and downgrade that
    /// cluster to a cold re-check — warmth lost, correctness kept.
    IncrReuse,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::ClusterStart => 0x11,
            FaultSite::SolverCheck => 0x22,
            FaultSite::ReachStep => 0x33,
            FaultSite::SlicePass => 0x44,
            FaultSite::CertWitness => 0x55,
            FaultSite::CertCore => 0x66,
            FaultSite::CertSlice => 0x77,
            FaultSite::JournalAppend => 0x88,
            FaultSite::JournalReplay => 0x99,
            FaultSite::WireRead => 0xAA,
            FaultSite::WireWrite => 0xBB,
            FaultSite::IncrReuse => 0xEE,
        }
    }
}

/// What kind of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The decision procedure pretends to give up (`Unknown`).
    SolverUnknown,
    /// The budget pretends to be exhausted.
    BudgetExhaust,
    /// A hard panic (exercises panic isolation).
    Panic,
    /// The certificate under construction is silently corrupted (only
    /// meaningful at the `Cert*` sites; applied by `certify`, not by
    /// [`FaultPlan::fire`]).
    CorruptCertificate,
    /// The phase stalls for the plan's configured duration
    /// ([`FaultPlan::with_stall_ms`]) and then proceeds normally. The
    /// verdict is unaffected — only latency moves — which is exactly
    /// what tail-sampled slow-request tracing needs exercised.
    Stall,
    /// A write is cut short partway through (a crash mid-`write(2)`, a
    /// connection dropped mid-frame). The consumer of the data — the
    /// journal replayer, the frame parser — must detect the damage via
    /// its checksum or framing and account for it, never trust it.
    TornWrite,
    /// The I/O operation fails outright (full disk, failing device,
    /// reset connection). The affected record/connection is lost; the
    /// daemon must degrade, count, and keep serving.
    IoError,
}

/// One injection rule: at `site`, inject `kind` for roughly
/// `rate_permille`/1000 of keys.
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    site: FaultSite,
    kind: FaultKind,
    rate_permille: u32,
}

/// A deterministic, seeded fault plan.
///
/// Whether a fault fires depends only on `(seed, site, key)` — never on
/// thread scheduling, wall-clock, or iteration order — so a faulted run
/// is exactly reproducible, sequentially or with any `--jobs` count.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    /// How long a [`FaultKind::Stall`] firing sleeps, in milliseconds.
    stall_ms: u64,
    /// Count of faults actually fired (observability for chaos tests).
    fired: Arc<AtomicU32>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            stall_ms: 50,
            ..FaultPlan::default()
        }
    }

    /// Sets how long each [`FaultKind::Stall`] firing sleeps
    /// (default 50 ms).
    pub fn with_stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    /// Adds a rule injecting `kind` at `site` for a `rate` fraction of
    /// keys (`0.0..=1.0`).
    pub fn inject(mut self, site: FaultSite, kind: FaultKind, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.rules.push(FaultRule {
            site,
            kind,
            rate_permille: (rate * 1000.0).round() as u32,
        });
        self
    }

    /// Decides whether a fault fires at `site` for `key` (pure —
    /// repeated calls agree).
    pub fn decide(&self, site: FaultSite, key: &str) -> Option<FaultKind> {
        for (ri, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let h = mix(self.seed, site.tag().wrapping_add(ri as u64), key);
            if h % 1000 < rule.rate_permille as u64 {
                return Some(rule.kind);
            }
        }
        None
    }

    /// Like [`FaultPlan::decide`], but records the firing and, for
    /// [`FaultKind::Panic`], panics with a recognizable payload (call
    /// inside a [`catch_unwind_silent`] region).
    pub fn fire(&self, site: FaultSite, key: &str) -> Option<FaultKind> {
        let kind = self.decide(site, key)?;
        self.fired.fetch_add(1, Ordering::Relaxed);
        obs::counter("rt.faults_fired").inc();
        if kind == FaultKind::Panic {
            panic!("injected fault: panic at {site:?} for `{key}`");
        }
        if kind == FaultKind::Stall {
            std::thread::sleep(std::time::Duration::from_millis(self.stall_ms));
        }
        Some(kind)
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> u32 {
        self.fired.load(Ordering::Relaxed)
    }

    /// The keys from `keys` that would fault at `site` (chaos-test
    /// oracle for "exactly the faulted clusters").
    pub fn faulted_keys<'k>(
        &self,
        site: FaultSite,
        keys: impl Iterator<Item = &'k str>,
    ) -> Vec<String> {
        keys.filter(|k| self.decide(site, k).is_some())
            .map(str::to_owned)
            .collect()
    }
}

fn mix(seed: u64, tag: u64, key: &str) -> u64 {
    let mut h = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in key.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    // Final avalanche.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.poll().is_ok());
        }
        assert!(b.check().is_ok());
        assert!(!b.exceeded());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn expired_deadline_interrupts() {
        let b = Budget::until(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check(), Err(Interrupt::DeadlineExpired));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        // poll is strided but must trip within one stride.
        let mut tripped = false;
        for _ in 0..=POLL_STRIDE {
            if b.poll().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn cancellation_is_immediate_and_shared() {
        let token = CancelToken::new();
        let a = Budget::unlimited().with_token(token.clone());
        let b = Budget::lasting(Duration::from_secs(3600)).with_token(token.clone());
        assert!(a.poll().is_ok());
        token.cancel();
        assert_eq!(a.poll(), Err(Interrupt::Cancelled));
        assert_eq!(b.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn child_budget_caps_at_parent_deadline() {
        let parent = Budget::lasting(Duration::from_millis(5));
        let child = parent.child(Duration::from_secs(3600));
        assert!(child.deadline().unwrap() <= parent.deadline().unwrap());
        let child2 = Budget::unlimited().child(Duration::from_millis(1));
        assert!(child2.deadline().is_some());
    }

    #[test]
    fn catch_unwind_silent_isolates_and_renders_payload() {
        let ok: Result<i32, _> = catch_unwind_silent(|| 41 + 1);
        assert_eq!(ok.unwrap(), 42);
        let err = catch_unwind_silent(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_payload(&*err), "boom 7");
        let err2 = catch_unwind_silent(|| std::panic::panic_any(3usize)).unwrap_err();
        assert_eq!(panic_payload(&*err2), "<non-string panic payload>");
    }

    #[test]
    fn fault_plan_is_deterministic_and_rate_shaped() {
        let plan = FaultPlan::new(0xC0FFEE).inject(FaultSite::ClusterStart, FaultKind::Panic, 0.1);
        let keys: Vec<String> = (0..1000).map(|i| format!("cluster_{i}")).collect();
        let hits: Vec<&String> = keys
            .iter()
            .filter(|k| plan.decide(FaultSite::ClusterStart, k).is_some())
            .collect();
        // ~10% of 1000, generously bounded.
        assert!((50..200).contains(&hits.len()), "{}", hits.len());
        // Determinism: same plan, same answers.
        let plan2 = FaultPlan::new(0xC0FFEE).inject(FaultSite::ClusterStart, FaultKind::Panic, 0.1);
        for k in &keys {
            assert_eq!(
                plan.decide(FaultSite::ClusterStart, k),
                plan2.decide(FaultSite::ClusterStart, k)
            );
        }
        // Other sites are unaffected.
        assert!(keys
            .iter()
            .all(|k| plan.decide(FaultSite::SolverCheck, k).is_none()));
    }

    #[test]
    fn fault_plan_fire_panics_on_panic_kind() {
        let plan = FaultPlan::new(1).inject(FaultSite::ClusterStart, FaultKind::Panic, 1.0);
        let r = catch_unwind_silent(|| {
            plan.fire(FaultSite::ClusterStart, "any");
        });
        let payload = panic_payload(&*r.unwrap_err());
        assert!(payload.contains("injected fault"), "{payload}");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn certificate_sites_are_independent_of_check_sites() {
        let plan = FaultPlan::new(9)
            .inject(FaultSite::CertWitness, FaultKind::CorruptCertificate, 1.0)
            .inject(FaultSite::CertCore, FaultKind::CorruptCertificate, 0.5);
        assert_eq!(
            plan.decide(FaultSite::CertWitness, "k"),
            Some(FaultKind::CorruptCertificate)
        );
        assert!(plan.decide(FaultSite::ClusterStart, "k").is_none());
        assert!(plan.decide(FaultSite::CertSlice, "k").is_none());
        // `fire` records but never panics for corruption faults.
        assert_eq!(
            plan.fire(FaultSite::CertWitness, "k"),
            Some(FaultKind::CorruptCertificate)
        );
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn shutdown_token_cancels_attached_budgets() {
        // The global token is process-wide and sticky once cancelled, so
        // this is the only test allowed to trip it.
        install_sigint_handler(); // exercised for coverage; must not unhook the default flow here
        assert!(!shutdown_requested());
        let budget = Budget::unlimited().with_token(shutdown_token());
        assert!(budget.poll().is_ok());
        request_shutdown();
        assert!(shutdown_requested());
        assert_eq!(budget.poll(), Err(Interrupt::Cancelled));
        // Later registrants observe the shutdown too.
        assert!(shutdown_token().is_cancelled());
    }

    #[test]
    fn faulted_keys_matches_decide() {
        let plan = FaultPlan::new(7).inject(FaultSite::ClusterStart, FaultKind::SolverUnknown, 0.5);
        let keys = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let faulted = plan.faulted_keys(FaultSite::ClusterStart, keys.iter().copied());
        for k in keys {
            assert_eq!(
                faulted.contains(&k.to_owned()),
                plan.decide(FaultSite::ClusterStart, k).is_some()
            );
        }
    }
}
