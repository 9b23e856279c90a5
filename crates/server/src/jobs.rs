//! Shared job execution: supervised flows fanned over workers, result rows
//! **streamed back in input order**.
//!
//! This is the one engine behind both `sfqt1 flow --batch` (local) and the
//! `sfqt1d` daemon's `FLOW` requests: the same row rendering, the same
//! containment policy, the same ordering guarantee — so daemon responses are
//! byte-identical to local batch rows by construction, not by convention.
//!
//! Rows are emitted through [`sfq_netlist::par::map_ordered_streamed`]: row
//! `k` is handed to the sink as soon as designs `0..=k` have finished, while
//! later designs are still running. That replaces the old batch driver's
//! buffer-everything-then-print shape — a terminal user (or a daemon
//! client) sees the first rows of a long batch immediately.

use crate::state::OutcomeKind;
use sfq_core::{
    run_flow_on_design, run_flow_supervised, FlowConfig, FlowError, FlowOutcome, FlowReport,
    Limits, TaskOutcome,
};
use sfq_netlist::{par, Design};
use sfq_sim::margin::{analyze_margins, MarginConfig, MarginReport};
use sfq_sim::{check_against_aig, EquivConfig, EquivError, EquivReport};
use std::fmt;

/// One job: a display name plus its ingested design (ingest failures carry
/// their rendered reason and become `FAILED(...)` rows).
pub struct JobEntry {
    /// Display name — first column of the row.
    pub name: String,
    /// The parsed design, or the ingest failure reason.
    pub design: Result<Design, String>,
}

/// One finished job's rendered row plus its outcome class.
pub struct JobRow {
    /// Zero-based input index of the job.
    pub index: usize,
    /// The rendered table row.
    pub line: String,
    /// Outcome class, for summaries and daemon counters.
    pub kind: OutcomeKind,
}

impl JobRow {
    /// True when the job finished and verified.
    pub fn is_ok(&self) -> bool {
        self.kind == OutcomeKind::Ok
    }
}

/// The batch table header row (shared by the local batch driver and the
/// daemon client, so their tables stay identical below the preamble).
pub fn table_header() -> String {
    format!(
        "{:<16} {:>4} | {:>4} {:>4} | {:>6} {:>5} | {:>6} {:>6} {:>8} {:>6}",
        "design", "fmt", "in", "out", "found", "used", "cells", "dffs", "area JJ", "depth"
    )
}

/// Formats one successful row's columns.
fn report_row(name: &str, design: &Design, r: &FlowReport) -> String {
    format!(
        "{:<16} {:>4} | {:>4} {:>4} | {:>6} {:>5} | {:>6} {:>6} {:>8} {:>6}",
        name,
        design.format.extension(),
        design.aig.num_inputs(),
        design.aig.num_outputs(),
        r.t1_found,
        r.t1_used,
        r.num_gates,
        r.num_dffs,
        r.area,
        r.depth_cycles
    )
}

/// Runs one job supervised and renders its row.
///
/// Containment policy (applied *before* the row is emitted, since streamed
/// rows cannot be amended): every failure — including a panic — renders as
/// `FAILED(<reason>)` with a deterministic reason. A design runs on one
/// thread, so its outcome, and the output, is the same at every worker
/// count.
fn run_job(index: usize, entry: &JobEntry, config: &FlowConfig, limits: &Limits) -> JobRow {
    let name = &entry.name;
    let failed = |reason: String, kind: OutcomeKind| JobRow {
        index,
        line: format!("{name:<16} FAILED({reason})"),
        kind,
    };
    let design = match &entry.design {
        Err(reason) => return failed(reason.clone(), OutcomeKind::Failed),
        Ok(design) => design,
    };
    let outcome = run_flow_supervised(design, config, limits);
    match outcome {
        FlowOutcome::Ok(res) => JobRow {
            index,
            line: report_row(name, design, &res.report),
            kind: OutcomeKind::Ok,
        },
        // `failure()` is Some for every non-Ok outcome; the fallback reason
        // keeps the daemon's request path panic-free if that ever drifts.
        FlowOutcome::Panicked { .. } => failed(
            outcome
                .failure()
                .unwrap_or_else(|| "unclassified panic".to_string()),
            OutcomeKind::Panicked,
        ),
        FlowOutcome::TimedOut => failed(
            outcome
                .failure()
                .unwrap_or_else(|| "unclassified timeout".to_string()),
            OutcomeKind::TimedOut,
        ),
        outcome => failed(
            outcome
                .failure()
                .unwrap_or_else(|| "unclassified failure".to_string()),
            OutcomeKind::Failed,
        ),
    }
}

/// Runs every job supervised, fanned over [`par::workers`] scoped threads,
/// and hands each rendered row to `emit` **in input order, as soon as it is
/// unblocked** — row `k` arrives while jobs `> k` may still be running.
/// Returns the `(ok, failed)` totals.
///
/// `emit` runs under the streaming lock: keep it to a write+flush.
pub fn run_jobs_streamed(
    entries: &[JobEntry],
    config: &FlowConfig,
    limits: &Limits,
    mut emit: impl FnMut(JobRow) + Send,
) -> (usize, usize) {
    let indices: Vec<usize> = (0..entries.len()).collect();
    let (mut ok, mut failed) = (0usize, 0usize);
    par::map_ordered_streamed(
        indices,
        |i| run_job(i, &entries[i], config, limits),
        |k, row| {
            // Worker bodies never panic (run_job contains everything), so
            // an Err here is unreachable; render it defensively anyway
            // rather than poisoning the daemon.
            let row = row.unwrap_or_else(|p| JobRow {
                index: k,
                line: format!("{:<16} FAILED(panicked: {})", entries[k].name, p.message()),
                kind: OutcomeKind::Panicked,
            });
            if row.is_ok() {
                ok += 1;
            } else {
                failed += 1;
            }
            emit(row);
        },
    );
    (ok, failed)
}

/// Sweep and margin knobs of one verification batch. The daemon always
/// runs the defaults (the wire protocol carries only `verify=0|1`); the
/// local `sfqt1 verify` driver may override them — with the defaults, both
/// entry points render byte-identical rows.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Equivalence-sweep parameters (exhaustive/sampled thresholds, seeds,
    /// shrink budget).
    pub equiv: EquivConfig,
    /// Monte-Carlo margin-analysis parameters (period, jitter, trials).
    pub margin: MarginConfig,
}

/// The verify table header row (shared by `sfqt1 verify --batch` and the
/// daemon's `verify=1` mode).
pub fn verify_table_header() -> String {
    format!(
        "{:<16} {:>4} | {:>4} {:>4} | {:>10} {:>6} | {:>4} {:>7} {:>9}",
        "design", "fmt", "in", "out", "sweep", "waves", "t1", "hazard", "worst ps"
    )
}

/// What one verification job produces when every gate passes.
struct VerifySuccess {
    equiv: EquivReport,
    margin: MarginReport,
}

/// Why one verification job failed — each variant renders the same
/// deterministic one-line reason the flow rows use, so `FAILED(...)` rows
/// stay byte-identical across runs and worker counts.
enum VerifyFailure {
    /// The mapping flow itself failed.
    Flow(FlowError),
    /// The flow finished but the pulse-level check did not pass (hazards,
    /// or a mismatch with its shrunk counterexample).
    Equiv(EquivError),
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyFailure::Flow(e) => write!(f, "{e}"),
            VerifyFailure::Equiv(e) => write!(f, "{e}"),
        }
    }
}

/// Formats one successful verify row's columns. Floating-point columns use
/// fixed precision (and `worst ps` renders `inf` for T1-free designs), so
/// rows are byte-deterministic.
fn verify_row(name: &str, design: &Design, s: &VerifySuccess) -> String {
    format!(
        "{:<16} {:>4} | {:>4} {:>4} | {:>10} {:>6} | {:>4} {:>7.4} {:>9.3}",
        name,
        design.format.extension(),
        design.aig.num_inputs(),
        design.aig.num_outputs(),
        s.equiv.mode.to_string(),
        s.equiv.waves,
        s.margin.t1_cells,
        s.margin.hazard_rate(),
        s.margin.worst_separation_ps,
    )
}

/// The whole verification of one design as a single supervised task: map,
/// then co-simulate the timed artifact against the **original** AIG, then
/// Monte-Carlo the analog margins. One envelope contains all three, so a
/// panic or deadline in any stage yields one classified outcome.
fn verify_task(
    design: &Design,
    config: &FlowConfig,
    vopts: &VerifyOptions,
) -> impl FnOnce() -> Result<VerifySuccess, VerifyFailure> {
    let design = design.clone();
    let config = config.clone();
    let vopts = vopts.clone();
    move || {
        let flow = run_flow_on_design(&design, &config).map_err(VerifyFailure::Flow)?;
        let equiv = check_against_aig(&design.aig, &flow.timed, &vopts.equiv)
            .map_err(VerifyFailure::Equiv)?;
        let margin = analyze_margins(&flow.timed, &vopts.margin);
        Ok(VerifySuccess { equiv, margin })
    }
}

/// Runs one verification job supervised and renders its row — the verify
/// sibling of [`run_job`], with the same containment policy.
fn run_verify_job(
    index: usize,
    entry: &JobEntry,
    config: &FlowConfig,
    limits: &Limits,
    vopts: &VerifyOptions,
) -> JobRow {
    let name = &entry.name;
    let failed = |reason: String, kind: OutcomeKind| JobRow {
        index,
        line: format!("{name:<16} FAILED({reason})"),
        kind,
    };
    let design = match &entry.design {
        Err(reason) => return failed(reason.clone(), OutcomeKind::Failed),
        Ok(design) => design,
    };
    let outcome = sfq_core::supervise_task(limits, verify_task(design, config, vopts));
    match outcome {
        TaskOutcome::Ok(success) => JobRow {
            index,
            line: verify_row(name, design, &success),
            kind: OutcomeKind::Ok,
        },
        TaskOutcome::Failed(e) => failed(e.to_string(), OutcomeKind::Failed),
        TaskOutcome::Panicked { message } => {
            failed(format!("panicked: {message}"), OutcomeKind::Panicked)
        }
        TaskOutcome::TimedOut => failed(
            sfq_netlist::budget::BudgetExceeded::Deadline.to_string(),
            OutcomeKind::TimedOut,
        ),
        TaskOutcome::OverBudget => failed(
            sfq_netlist::budget::BudgetExceeded::Nodes.to_string(),
            OutcomeKind::Failed,
        ),
    }
}

/// [`run_jobs_streamed`] with pulse-level verification after every flow:
/// same fan-out, same input-order streaming, same `(ok, failed)` totals —
/// rows use the [`verify_table_header`] layout instead.
pub fn run_verify_jobs_streamed(
    entries: &[JobEntry],
    config: &FlowConfig,
    limits: &Limits,
    vopts: &VerifyOptions,
    mut emit: impl FnMut(JobRow) + Send,
) -> (usize, usize) {
    let indices: Vec<usize> = (0..entries.len()).collect();
    let (mut ok, mut failed) = (0usize, 0usize);
    par::map_ordered_streamed(
        indices,
        |i| run_verify_job(i, &entries[i], config, limits, vopts),
        |k, row| {
            let row = row.unwrap_or_else(|p| JobRow {
                index: k,
                line: format!("{:<16} FAILED(panicked: {})", entries[k].name, p.message()),
                kind: OutcomeKind::Panicked,
            });
            if row.is_ok() {
                ok += 1;
            } else {
                failed += 1;
            }
            emit(row);
        },
    );
    (ok, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_entry(name: &str) -> JobEntry {
        let content = format!(".model {name}\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
        let mut cache = sfq_netlist::DesignCache::with_capacity(4);
        let design = cache
            .parse_cached(&content, Some(name))
            .expect("toy design parses")
            .clone();
        JobEntry {
            name: format!("{name}.blif"),
            design: Ok(design),
        }
    }

    #[test]
    fn rows_stream_in_input_order_with_failures_contained() {
        let entries = vec![
            toy_entry("a"),
            JobEntry {
                name: "broken.aag".into(),
                design: Err("aag: truncated header".into()),
            },
            toy_entry("b"),
        ];
        let config = FlowConfig::t1(4);
        let mut rows = Vec::new();
        let (ok, failed) =
            run_jobs_streamed(&entries, &config, &Limits::NONE, |row| rows.push(row));
        assert_eq!((ok, failed), (2, 1));
        assert_eq!(
            rows.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(rows[1].line.contains("FAILED(aag: truncated header)"));
        assert_eq!(rows[1].kind, OutcomeKind::Failed);
        assert!(rows[0].is_ok() && rows[2].is_ok());
        assert!(rows[0].line.starts_with("a.blif"));
    }

    #[test]
    fn deadline_rows_classify_as_timed_out() {
        let entries = vec![toy_entry("t")];
        let config = FlowConfig::multiphase(4);
        let limits = Limits {
            deadline: Some(std::time::Duration::ZERO),
            max_nodes: None,
        };
        let mut rows = Vec::new();
        run_jobs_streamed(&entries, &config, &limits, |row| rows.push(row));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kind, OutcomeKind::TimedOut);
        assert!(rows[0].line.contains("FAILED("), "{}", rows[0].line);
    }

    #[test]
    fn verify_rows_stream_with_failures_contained() {
        let entries = vec![
            toy_entry("v"),
            JobEntry {
                name: "broken.aag".into(),
                design: Err("aag: truncated header".into()),
            },
        ];
        let config = FlowConfig::t1(4);
        let mut rows = Vec::new();
        let (ok, failed) = run_verify_jobs_streamed(
            &entries,
            &config,
            &Limits::NONE,
            &VerifyOptions::default(),
            |row| rows.push(row),
        );
        assert_eq!((ok, failed), (1, 1));
        // A 2-input design sweeps exhaustively: 2^2 waves.
        assert!(rows[0].is_ok());
        assert!(
            rows[0].line.contains("exhaustive") && rows[0].line.contains(" 4 "),
            "{}",
            rows[0].line
        );
        assert!(rows[1].line.contains("FAILED(aag: truncated header)"));
    }

    #[test]
    fn verify_header_and_rows_share_column_layout() {
        let header = verify_table_header();
        let entries = vec![toy_entry("w")];
        let config = FlowConfig::t1(4);
        let mut rows = Vec::new();
        run_verify_jobs_streamed(
            &entries,
            &config,
            &Limits::NONE,
            &VerifyOptions::default(),
            |row| rows.push(row),
        );
        let row = &rows[0].line;
        let bars = |s: &str| s.match_indices('|').map(|(i, _)| i).collect::<Vec<_>>();
        assert_eq!(bars(&header), bars(row), "{header}\n{row}");
    }

    #[test]
    fn verify_deadline_rows_classify_as_timed_out() {
        let entries = vec![toy_entry("t")];
        let config = FlowConfig::t1(4);
        let limits = Limits {
            deadline: Some(std::time::Duration::ZERO),
            max_nodes: None,
        };
        let mut rows = Vec::new();
        run_verify_jobs_streamed(
            &entries,
            &config,
            &limits,
            &VerifyOptions::default(),
            |row| rows.push(row),
        );
        assert_eq!(rows[0].kind, OutcomeKind::TimedOut);
    }

    #[test]
    fn header_and_rows_share_column_layout() {
        let header = table_header();
        let entries = vec![toy_entry("w")];
        let config = FlowConfig::multiphase(4);
        let mut rows = Vec::new();
        run_jobs_streamed(&entries, &config, &Limits::NONE, |row| rows.push(row));
        let row = &rows[0].line;
        // The `|` column separators line up between header and data rows.
        let bars = |s: &str| s.match_indices('|').map(|(i, _)| i).collect::<Vec<_>>();
        assert_eq!(bars(&header), bars(row), "{header}\n{row}");
    }
}
