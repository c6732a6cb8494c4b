//! The per-workload run: repeated set-up, the measured window (and, when
//! tracing, a second traced window), correctness, and the result
//! document the child process hands back to its parent.

use crate::layers;
use crate::oracle;
use crate::report::Metric;
use crate::stats::{median, peak_rss_mb, quantile};
use obs::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// What every workload is told.
#[derive(Debug, Clone)]
pub struct Config {
    /// Benchmark seed; 0 is the Table 1 program seeds.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Tiny inputs for the test suite.
    pub smoke: bool,
    /// Scratch directory inside the checkout (journals, traces).
    pub scratch: PathBuf,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each operation, ms, grouped by the interval (a round,
    /// or a fraction of a second) it ran in. p50 and p90 are medians over the
    /// intervals of each interval's percentile, so a burst of machine
    /// noise moves one interval, not the reported tail.
    pub latency_ms: Vec<Vec<f64>>,
    /// `(work done, seconds)` per round; throughput is the median rate.
    pub rounds: Vec<(f64, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a wrong verdict, an error or `overloaded`
    /// response, a timeout, or a transport failure.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Workload-specific end-to-end numbers that are printed and
    /// recorded but not gated.
    pub info: Vec<Metric>,
    /// Per-layer numbers the workload measures itself (server and load
    /// generator side).
    pub layers: Vec<(&'static str, f64)>,
}

impl Window {
    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs and brings the system to its measured state.
    fn setup(cfg: &Config) -> Result<Self, String>;
    /// FNV-1a over the inputs (and, where the workload derives them,
    /// trace lengths and slice sizes).
    fn fingerprint(&self) -> String;
    /// Measures for about `seconds`, in whole rounds.
    fn run(&mut self, seconds: f64) -> Window;
    /// Traced runs only: times single calls into layers the window does
    /// not call directly (the caller records the spans).
    fn probe(&mut self) -> Vec<(&'static str, f64)>;
    /// Stops whatever `setup` started.
    fn finish(self);
}

/// Times one program through each front-end layer, each call in its own
/// span: `imp::parse`, `cfa::lower` plus `cfa::validate`,
/// `Analyses::build`, and the whole `Session::compile`.
pub fn frontend_probe(source: &str) {
    let ast = {
        let _s = obs::span!("imp.parse");
        imp::parse(source)
    };
    let Ok(ast) = ast else { return };
    let program = {
        let _s = obs::span!("cfa.lower");
        cfa::lower(&ast).ok().filter(|p| cfa::validate(p).is_ok())
    };
    if let Some(program) = program {
        let _s = obs::span!("dataflow.build");
        std::hint::black_box(dataflow::Analyses::build(&program));
    }
    let _s = obs::span!("session.compile");
    let _ = std::hint::black_box(blastlite::Session::compile(source, "<probe>"));
}

/// Times `W::setup` again until at least three set-ups and 0.3 s are
/// recorded in `times` (at most 25, for set-ups of a few milliseconds).
/// Runs after the measured window, so that the memory the extra set-ups
/// leave behind does not count in the window's peak.
fn more_setups<W: Workload>(cfg: &Config, times: &mut Vec<f64>) -> Result<(), String> {
    while times.len() < 25 && (times.len() < 3 || times.iter().sum::<f64>() < 0.3) {
        let t = Instant::now();
        let w = W::setup(cfg)?;
        times.push(t.elapsed().as_secs_f64());
        w.finish();
    }
    Ok(())
}

/// The gated end-to-end metrics of one window.
fn end_to_end(w: &Window, setup: &[f64], rss_mb: f64) -> Vec<Metric> {
    let rates: Vec<f64> = w.rounds.iter().map(|&(work, s)| work / s).collect();
    let n = w.latency_ms.iter().map(Vec::len).sum::<usize>() as u64;
    let percentile = |q: f64| {
        let per_interval: Vec<f64> = w
            .latency_ms
            .iter()
            .filter(|i| !i.is_empty())
            .map(|i| quantile(i, q))
            .collect();
        median(&per_interval)
    };
    vec![
        Metric::new("setup_s", median(setup), "s", setup.len() as u64),
        Metric::new(
            "throughput_ops_s",
            median(&rates),
            "op/s",
            rates.len() as u64,
        ),
        Metric::new("p50_ms", percentile(0.5), "ms", n),
        Metric::new("p90_ms", percentile(0.9), "ms", n),
        Metric::new("peak_rss_mb", rss_mb, "MB", 1),
    ]
}

/// Runs workload `W` in this process and returns its result document.
pub fn run_child<W: Workload>(name: &str, cfg: &Config, trace: bool) -> Result<Json, String> {
    let t = Instant::now();
    let mut w = W::setup(cfg)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let fingerprint = w.fingerprint();
    let pins = oracle::check_pins(name, &fingerprint, cfg.seed, cfg.smoke);

    // End-to-end numbers come from a window with tracing off. A traced
    // run splits its time: the first half untraced, the second traced,
    // so the difference between the two is the tracing overhead.
    obs::set_enabled(false);
    let window_s = if trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut window = w.run(window_s);
    let mut traced = None;
    if trace {
        obs::reset();
        obs::set_enabled(true);
        let tw = w.run(window_s);
        let counters = obs::counters();
        let window_spans = obs::take_spans();
        let probed = w.probe();
        let probe_spans = obs::take_spans();
        obs::set_enabled(false);
        traced = Some((tw, counters, window_spans, probe_spans, probed));
    }
    w.finish();
    let rss = peak_rss_mb()?;
    more_setups::<W>(cfg, &mut setup)?;

    let metrics = end_to_end(&window, &setup, rss);
    let mut doc = vec![
        ("workload".to_owned(), Json::Str(name.to_owned())),
        ("seed".to_owned(), Json::Num(cfg.seed as i64)),
        ("fingerprint".to_owned(), Json::Str(fingerprint)),
    ];
    if let Err(e) = pins {
        window.fail(e);
    }
    if let Some((tw, counters, window_spans, probe_spans, probed)) = traced {
        let traced_metrics = end_to_end(&tw, &setup, rss);
        let layer = layers::collect(
            &tw,
            &counters,
            &window_spans,
            &probe_spans,
            &probed,
            &metrics,
            &traced_metrics,
        );
        let mut spans = window_spans;
        spans.extend(probe_spans);
        let path = cfg.scratch.join("trace").join(format!("{name}.spans.json"));
        std::fs::create_dir_all(path.parent().expect("trace file has a directory"))
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        obs::write_spans_to(&path.to_string_lossy(), &spans)?;
        window.attempted += tw.attempted;
        window.failed += tw.failed;
        window.failures.extend(tw.failures);
        doc.push(("layers".to_owned(), layer));
    }
    doc.push(("attempted".to_owned(), Json::Num(window.attempted as i64)));
    doc.push(("failed".to_owned(), Json::Num(window.failed as i64)));
    doc.push((
        "failures".to_owned(),
        Json::Arr(window.failures.iter().cloned().map(Json::Str).collect()),
    ));
    doc.push(("metrics".to_owned(), Metric::list_json(&metrics)));
    doc.push(("info".to_owned(), Metric::list_json(&window.info)));
    Ok(Json::Obj(doc))
}
