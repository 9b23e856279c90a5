//! Node-budget determinism across worker counts: budgets are thread-local
//! and a design's flow runs entirely on the supervising thread, so an
//! `OverBudget` abort must be **identical** — same outcome class, same
//! rendered reason, same point of refusal — whether 1, 4 or 8 batch
//! workers are in force.
//!
//! Everything lives in one test fn: the worker override is process-global,
//! and a single owner needs no locking against parallel test threads.

use sfq_core::{run_flow, supervise, FlowConfig, FlowOutcome, Limits};
use sfq_netlist::{par, Aig};

fn ripple_adder_aig(bits: usize) -> Aig {
    let mut aig = Aig::new(format!("add{bits}"));
    let a = aig.input_word("a", bits);
    let b = aig.input_word("b", bits);
    let mut carry = aig.const_false();
    let mut sums = Vec::new();
    for i in 0..bits {
        let (s, c) = aig.full_adder(a[i], b[i], carry);
        sums.push(s);
        carry = c;
    }
    sums.push(carry);
    aig.output_word("s", &sums);
    aig
}

#[test]
fn over_budget_outcome_is_identical_at_1_4_and_8_workers() {
    let aig = ripple_adder_aig(8);
    let config = FlowConfig::t1(4);
    let starved = Limits {
        deadline: None,
        max_nodes: Some(1),
    };
    let mut aborted_reasons = Vec::new();
    let mut clean_reports = Vec::new();
    for w in [1usize, 4, 8] {
        par::force_workers(w);
        // A one-node ceiling aborts at the first budget checkpoint.
        let aborted = supervise(&starved, || run_flow(&aig, &config));
        assert!(
            matches!(aborted, FlowOutcome::OverBudget),
            "{w} workers: {aborted:?}"
        );
        aborted_reasons.push(aborted.failure());
        // The exhausted budget must not infect the next (unlimited) run —
        // and that run's report must also be worker-count independent.
        let clean = supervise(&Limits::NONE, || run_flow(&aig, &config));
        let FlowOutcome::Ok(res) = clean else {
            panic!("{w} workers: unlimited run failed: {clean:?}");
        };
        let r = &res.report;
        clean_reports.push((
            r.t1_found,
            r.t1_used,
            r.num_gates,
            r.num_dffs,
            r.area,
            r.depth_cycles,
        ));
        par::force_workers(0);
    }
    assert_eq!(
        aborted_reasons[0], aborted_reasons[1],
        "abort reason drifts between 1 and 4 workers"
    );
    assert_eq!(
        aborted_reasons[1], aborted_reasons[2],
        "abort reason drifts between 4 and 8 workers"
    );
    assert_eq!(
        aborted_reasons[0].as_deref(),
        Some("node budget exceeded"),
        "the rendered reason is the node-budget one"
    );
    assert_eq!(
        clean_reports[0], clean_reports[1],
        "flow report drifts between 1 and 4 workers"
    );
    assert_eq!(
        clean_reports[1], clean_reports[2],
        "flow report drifts between 4 and 8 workers"
    );
}
