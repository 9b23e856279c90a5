//! The benchmark's traced run: calls each layer's public function in the
//! order `run_flow_on_network` calls them, once per design, and records a
//! span around every call plus deterministic counters at the same
//! boundaries.
//!
//! ```text
//! perfbench-tracer --mode flow|verify --workers N <design>...
//! ```
//!
//! Designs run in the order given (the benchmark orders them by seed). Each
//! of the [`PASSES`] passes traces every design once. After the mirrored
//! stages the design also runs through `run_flow_supervised`, and the
//! mirrored report must equal the supervised one (`t1_used`, `dffs`, `area`,
//! `depth`) — a mismatch, like any failed stage, is listed under `problems`
//! and makes the process exit 1. In `verify` mode the pulse-level
//! equivalence sweep and margin analysis follow, as `sfqt1 verify` runs them.
//!
//! Spans stay in memory and are written out as one JSON document on stdout
//! when the run ends.

use sfq_core::{
    detect_t1_with_threshold, run_flow_supervised, FlowConfig, FlowOutcome, Limits, PhaseEngine,
    TimingEngine,
};
use sfq_netlist::{enumerate_cuts, map_aig, Design, DesignFormat};
use sfq_sim::{analyze_margins, check_against_aig, EquivConfig, MarginConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench-tracer --mode flow|verify --workers N <design>...";

/// Traced passes over the design set; the benchmark takes the median.
const PASSES: usize = 3;

/// One recorded span. Times are microseconds since the tracer started.
struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// One traced design: a request id groups its spans and counters.
struct Request {
    pass: usize,
    design: String,
}

/// In-memory trace: spans, counters and the requests they belong to.
struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<(usize, &'static str, f64)>,
    requests: Vec<Request>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
            requests: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its index; close it with [`Trace::close`].
    fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    fn span<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        self.close(s);
        out
    }

    fn count(&mut self, request: usize, name: &'static str, value: f64) {
        self.counters.push((request, name, value));
    }

    fn to_json(&self, problems: &[String]) -> String {
        let mut s = format!("{{\"passes\":{PASSES},\"requests\":[");
        for (i, r) in self.requests.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"id\":{i},\"pass\":{},\"design\":{}}}",
                r.pass,
                json_str(&r.design)
            );
        }
        s.push_str("],\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                sp.name, sp.request, sp.start_us, sp.end_us
            );
        }
        s.push_str("],\"counters\":[");
        for (i, (req, name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"request\":{req},\"name\":\"{name}\",\"value\":{value}}}"
            );
        }
        s.push_str("],\"problems\":[");
        for (i, d) in problems.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}{}", json_str(d));
        }
        s.push_str("]}");
        s
    }
}

fn json_str(v: &str) -> String {
    let mut s = String::from("\"");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Flow,
    Verify,
}

struct Options {
    mode: Mode,
    workers: usize,
    designs: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let (mut mode, mut workers) = (None, None);
    let mut designs = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--mode" => {
                mode = Some(match value()?.as_str() {
                    "flow" => Mode::Flow,
                    "verify" => Mode::Verify,
                    other => return Err(format!("--mode: unknown mode `{other}`")),
                })
            }
            "--workers" => workers = Some(sfq_netlist::par::parse_workers(value()?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            path => designs.push(PathBuf::from(path)),
        }
    }
    let opts = Options {
        mode: mode.ok_or("--mode is required")?,
        workers: workers.ok_or("--workers is required")?,
        designs,
    };
    if opts.designs.is_empty() {
        return Err("need at least one design".to_string());
    }
    Ok(opts)
}

/// The report fields the mirror must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Key {
    t1_used: usize,
    dffs: usize,
    area: u64,
    depth: u32,
}

/// Traces one design: parse, then the flow's stages in
/// `run_flow_on_network`'s order, then the supervised flow it mirrors.
/// Returns the timed netlist (for the verification stages) or a drift or
/// failure message.
fn trace_design(
    trace: &mut Trace,
    request: usize,
    root: usize,
    path: &Path,
    config: &FlowConfig,
) -> Result<(Design, sfq_core::TimedNetwork), String> {
    let name = path.display().to_string();
    let content = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
    trace.count(request, "design.bytes", content.len() as f64);
    let format = DesignFormat::detect(Some(path), &content).map_err(|e| format!("{name}: {e}"))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    let design = trace
        .span("design.parse", request, Some(root), || {
            Design::parse(&content, format, stem)
        })
        .map_err(|e| format!("{name}: {e}"))?;

    let mapped = trace.span("mapper.map", request, Some(root), || {
        map_aig(&design.aig, &config.library)
    });
    trace.count(request, "mapper.cells", mapped.num_gates() as f64);
    mapped
        .validate()
        .map_err(|e| format!("{name}: invalid mapped network: {e}"))?;
    let (clean, _) = trace.span("network.clean", request, Some(root), || mapped.cleaned());

    // Probe: detect enumerates cuts internally; this call beside it
    // measures that share on its own.
    let cuts = trace.span("cuts.enumerate", request, Some(root), || {
        enumerate_cuts(&clean, &config.cut_config)
    });
    trace.count(request, "cuts.total", cuts.total() as f64);
    drop(cuts);

    let det = trace.span("detect.detect", request, Some(root), || {
        detect_t1_with_threshold(
            &clean,
            &config.library,
            &config.cut_config,
            config.gain_threshold,
        )
    });
    trace.count(request, "detect.t1_found", det.found as f64);
    let (subject, t1_used) = if config.phases >= 4 {
        (det.network, det.used)
    } else {
        (clean.clone(), 0)
    };
    trace.count(request, "detect.t1_used", t1_used as f64);

    let phase = trace.open("phase.assign", request, Some(root));
    let mut engine =
        TimingEngine::new(&subject, config.phases).map_err(|e| format!("{name}: {e}"))?;
    engine
        .assign(config.engine, config.restarts)
        .map_err(|e| format!("{name}: {e}"))?;
    trace.close(phase);

    // Probe: the heuristic descent alone, one restart, on the same subject;
    // assign minus this is the MILP (or the restart fan-out).
    let descent = trace.open("phase.descent", request, Some(root));
    let mut probe =
        TimingEngine::new(&subject, config.phases).map_err(|e| format!("{name}: {e}"))?;
    probe
        .assign(PhaseEngine::Heuristic, 1)
        .map_err(|e| format!("{name}: {e}"))?;
    std::hint::black_box(&probe);
    trace.close(descent);
    drop(probe);

    let timed = trace.span("dff.emit", request, Some(root), || engine.emit());
    trace.count(request, "dff.dffs", timed.num_dffs() as f64);
    trace
        .span("timed.audit", request, Some(root), || timed.audit())
        .map_err(|e| format!("{name}: audit: {e}"))?;
    let mirrored = Key {
        t1_used,
        dffs: timed.num_dffs(),
        area: timed.area(&config.library),
        depth: timed.depth_cycles(),
    };

    let outcome = trace.span("flow.supervised", request, Some(root), || {
        run_flow_supervised(&design, config, &Limits::NONE)
    });
    let report = match &outcome {
        FlowOutcome::Ok(res) => &res.report,
        other => {
            let reason = other.failure().unwrap_or_default();
            return Err(format!("{name}: supervised flow failed: {reason}"));
        }
    };
    let supervised = Key {
        t1_used: report.t1_used,
        dffs: report.num_dffs,
        area: report.area,
        depth: report.depth_cycles,
    };
    if mirrored != supervised {
        return Err(format!(
            "{name}: mirror drift: mirrored {mirrored:?} != supervised {supervised:?}"
        ));
    }
    Ok((design, timed))
}

/// Traces the pulse-level verification of one design's timed netlist.
fn trace_verify(
    trace: &mut Trace,
    request: usize,
    root: usize,
    design: &Design,
    timed: &sfq_core::TimedNetwork,
) -> Result<(), String> {
    let equiv = trace
        .span("equiv.check", request, Some(root), || {
            check_against_aig(&design.aig, timed, &EquivConfig::default())
        })
        .map_err(|e| format!("equivalence: {e}"))?;
    trace.count(request, "equiv.waves", equiv.waves as f64);
    let margin = trace.span("margin.analyze", request, Some(root), || {
        analyze_margins(timed, &MarginConfig::default())
    });
    trace.count(request, "margin.trials", f64::from(margin.trials));
    Ok(())
}

fn run(opts: &Options) -> (Trace, Vec<String>) {
    // Worker count first: the flow config's restart count is read from it.
    sfq_netlist::par::force_workers(opts.workers);
    let config = FlowConfig::t1(4);
    let mut trace = Trace::new();
    let mut problems = Vec::new();
    for pass in 0..PASSES {
        let pass_span = trace.open("pass", usize::MAX, None);
        for path in &opts.designs {
            let request = trace.requests.len();
            trace.requests.push(Request {
                pass,
                design: path.display().to_string(),
            });
            let root = trace.open("design", request, Some(pass_span));
            match trace_design(&mut trace, request, root, path, &config) {
                Ok((design, timed)) => {
                    if opts.mode == Mode::Verify {
                        if let Err(e) = trace_verify(&mut trace, request, root, &design, &timed) {
                            problems.push(format!("{}: {e}", path.display()));
                        }
                    }
                }
                Err(e) => problems.push(e),
            }
            trace.close(root);
        }
        trace.close(pass_span);
    }
    (trace, problems)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (trace, problems) = run(&opts);
    println!("{}", trace.to_json(&problems));
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench-tracer: {p}");
        }
        ExitCode::from(1)
    }
}
