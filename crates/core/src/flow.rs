//! End-to-end synthesis flows and their Table I-style reports.
//!
//! Three configurations reproduce the paper's comparison:
//!
//! * [`FlowConfig::single_phase`] — classic 1φ SFQ with full path balancing;
//! * [`FlowConfig::multiphase`]   — `n`-phase clocking, no T1 cells (the 4φ
//!   baseline);
//! * [`FlowConfig::t1`]           — `n`-phase clocking with T1 detection (the
//!   paper's contribution).
//!
//! Every flow ends with a structural timing audit and a functional
//! equivalence check (bit-parallel simulation against the input network), so
//! a [`FlowResult`] is a verified artifact, not just numbers.

use crate::detect::detect_t1_with_threshold;
use crate::engine::TimingEngine;
use crate::phase::{PhaseEngine, PhaseError};
use crate::timed::{TimedNetwork, TimingError};
use sfq_netlist::{map_aig, Aig, CutConfig, Design, Library, Network};

/// Configuration of one synthesis flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Number of clock phases per period (`n`).
    pub phases: u8,
    /// Whether T1 detection runs.
    pub use_t1: bool,
    /// Phase-assignment engine selection.
    pub engine: PhaseEngine,
    /// JJ area model.
    pub library: Library,
    /// Cut enumeration parameters for T1 detection.
    pub cut_config: CutConfig,
    /// T1 commit cutoff: only groups with `ΔA > gain_threshold` JJs are
    /// considered (the paper uses 0).
    pub gain_threshold: i64,
    /// Number of 64-vector random pattern words for the equivalence check
    /// (0 disables the check).
    pub equivalence_words: usize,
    /// Phase-assignment descent restarts (heuristic paths only; see
    /// [`TimingEngine::optimize`]). The default is `1`, the single ASAP
    /// descent, so a flow's result never depends on the host: extra
    /// perturbed restarts left DFFs and area unchanged on every Table I
    /// and corpus configuration at φ1–8, 4φ and T1.
    pub restarts: usize,
}

impl FlowConfig {
    /// The paper's 1φ baseline: single-phase clocking, no T1 cells.
    pub fn single_phase() -> Self {
        FlowConfig {
            phases: 1,
            use_t1: false,
            engine: PhaseEngine::Auto,
            library: Library::default(),
            cut_config: CutConfig::default(),
            gain_threshold: 0,
            equivalence_words: 4,
            restarts: 1,
        }
    }

    /// The paper's multiphase baseline (e.g. 4φ): no T1 cells.
    pub fn multiphase(phases: u8) -> Self {
        FlowConfig {
            phases,
            ..Self::single_phase()
        }
    }

    /// The paper's T1 flow: multiphase clocking plus T1 detection.
    pub fn t1(phases: u8) -> Self {
        FlowConfig {
            phases,
            use_t1: true,
            ..Self::single_phase()
        }
    }
}

/// Table I-style metrics of a finished flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowReport {
    /// Design name.
    pub name: String,
    /// Number of clock phases.
    pub phases: u8,
    /// Positive-gain T1 candidates ("T1 cells found").
    pub t1_found: usize,
    /// Committed T1 cells ("T1 cells used").
    pub t1_used: usize,
    /// Logic cells after mapping/detection (gates + T1 macro-cells).
    pub num_gates: usize,
    /// Inserted path-balancing DFFs ("#DFF").
    pub num_dffs: usize,
    /// Total area in JJs ("Area").
    pub area: u64,
    /// Logic depth in clock cycles ("Depth").
    pub depth_cycles: u32,
}

/// A finished flow: the timed netlist plus its report.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The audited, retimed netlist.
    pub timed: TimedNetwork,
    /// Table I-style metrics.
    pub report: FlowReport,
}

/// Errors from running a flow.
#[derive(Debug)]
pub enum FlowError {
    /// Phase assignment failed.
    Phase(PhaseError),
    /// The final audit failed (always a bug in the flow, never user error).
    Audit(TimingError),
    /// The retimed network is not functionally equivalent to the input
    /// (always a bug in the flow, never user error).
    NotEquivalent {
        /// Index of the first differing primary output.
        output: usize,
    },
    /// The input network failed validation.
    BadInput(String),
    /// An armed `err`-action fault point fired (`fault-injection` feature
    /// only — see [`sfq_netlist::faultpt`]). Never produced in production
    /// builds.
    Fault(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Phase(e) => write!(f, "phase assignment: {e}"),
            FlowError::Audit(e) => write!(f, "timing audit failed: {e}"),
            FlowError::NotEquivalent { output } => {
                write!(f, "flow broke functional equivalence at output {output}")
            }
            FlowError::BadInput(e) => write!(f, "invalid input network: {e}"),
            FlowError::Fault(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PhaseError> for FlowError {
    fn from(e: PhaseError) -> Self {
        FlowError::Phase(e)
    }
}

/// Stage boundary of a supervised flow: deadline checkpoint plus a named
/// fault point (context = design/network name). Both are no-ops outside
/// supervised/fault-injected runs; the checkpoint is what lets a deadline
/// fire between hot loops rather than only inside them.
fn stage_gate(site: &'static str, name: &str) -> Result<(), FlowError> {
    sfq_netlist::budget::checkpoint();
    if sfq_netlist::faultpt::hit(site, name) {
        return Err(FlowError::Fault(site.to_string()));
    }
    Ok(())
}

/// Runs a flow starting from an AIG (technology mapping included).
///
/// # Errors
/// See [`FlowError`].
pub fn run_flow(aig: &Aig, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    stage_gate("flow.map", aig.name())?;
    let mapped = map_aig(aig, &config.library);
    run_flow_on_network(&mapped, config)
}

/// Runs a flow on an externally ingested [`Design`] (AIGER or BLIF file
/// loaded through `sfq_netlist::design`) — the entry point of the batched
/// external-benchmark drivers.
///
/// # Errors
/// See [`FlowError`].
pub fn run_flow_on_design(design: &Design, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    run_flow(&design.aig, config)
}

/// Runs a flow starting from an already-mapped network.
///
/// # Errors
/// See [`FlowError`].
pub fn run_flow_on_network(net: &Network, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    net.validate()
        .map_err(|e| FlowError::BadInput(e.to_string()))?;
    let (clean, _) = net.cleaned();

    // Stage 1: T1 detection. A T1 cell needs three pairwise-distinct
    // arrival slots inside its input window of n−1 stages, so with n < 4
    // candidates are still *found* (reported) but none can commit.
    stage_gate("flow.detect", clean.name())?;
    let (subject, t1_found, t1_used) = if config.use_t1 {
        let det = detect_t1_with_threshold(
            &clean,
            &config.library,
            &config.cut_config,
            config.gain_threshold,
        );
        if config.phases >= 4 {
            (det.network, det.found, det.used)
        } else {
            (clean.clone(), det.found, 0)
        }
    } else {
        (clean.clone(), 0, 0)
    };

    // Stages 2 + 3: phase assignment and DFF insertion share one
    // incremental timing engine — the winning descent state's arrivals and
    // memoized chain plans feed the emission pass directly, so nothing is
    // derived twice.
    stage_gate("flow.phase", clean.name())?;
    let mut engine = TimingEngine::new(&subject, config.phases)?;
    engine.assign(config.engine, config.restarts)?;
    stage_gate("flow.dff", clean.name())?;
    let timed = engine.emit();

    // Verification: audit + functional equivalence against the input.
    stage_gate("flow.verify", clean.name())?;
    timed.audit().map_err(FlowError::Audit)?;
    if config.equivalence_words > 0 {
        check_equivalence(&clean, &timed.network, config.equivalence_words)?;
    }

    let report = FlowReport {
        name: clean.name().to_string(),
        phases: config.phases,
        t1_found,
        t1_used,
        num_gates: timed.network.num_gates(),
        num_dffs: timed.num_dffs(),
        area: timed.area(&config.library),
        depth_cycles: timed.depth_cycles(),
    };
    Ok(FlowResult { timed, report })
}

/// Bit-parallel equivalence check on deterministic pseudo-random patterns.
fn check_equivalence(a: &Network, b: &Network, words: usize) -> Result<(), FlowError> {
    assert_eq!(
        a.num_inputs(),
        b.num_inputs(),
        "flows preserve the interface"
    );
    assert_eq!(
        a.num_outputs(),
        b.num_outputs(),
        "flows preserve the interface"
    );
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift* — deterministic, dependency-free pattern source.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    for _ in 0..words {
        let pats: Vec<u64> = (0..a.num_inputs()).map(|_| next()).collect();
        let ra = a.simulate(&pats);
        let rb = b.simulate(&pats);
        for (k, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
            if x != y {
                return Err(FlowError::NotEquivalent { output: k });
            }
        }
    }
    Ok(())
}
