//! Exhaustive schedule exploration of the crate's parallel protocol,
//! running the **production** code (not a copy) against the `chk` model
//! checker's shims via `crate::sync`.
//!
//! Compiled only under the `chk` cargo feature:
//!
//! ```text
//! cargo test --release -p sfq-netlist --features chk --test chk_models
//! ```
//!
//! The models are deliberately tiny (a handful of items, 2 workers) so the
//! DFS over schedules with the default preemption bound completes in
//! seconds; the protocol itself is the real
//! [`sfq_netlist::par::map_ordered_streamed`] body.
#![cfg(feature = "chk")]

use sfq_netlist::par;

/// `map_ordered_streamed` emits the contiguous prefix in input order under
/// every out-of-order completion schedule: whichever worker finishes the
/// unblocking item drains the pending map, and emissions never reorder,
/// duplicate or drop an index.
#[test]
fn streamed_emits_contiguous_prefix_in_order() {
    par::force_workers(2);
    let report = chk::Model::new().preemptions(2).check(|| {
        let mut emitted: Vec<(usize, u32)> = Vec::new();
        par::map_ordered_streamed(
            vec![10u32, 20, 30],
            |x| x * 2,
            |k, r| emitted.push((k, r.expect("no panics in this model"))),
        );
        assert_eq!(
            emitted,
            vec![(0, 20), (1, 40), (2, 60)],
            "in-order contiguous emission"
        );
    });
    report.assert_ok("streamed in-order emission (2 workers)");
    assert!(
        report.executions > 10,
        "exploration actually branched: {} executions",
        report.executions
    );
}

/// A panicking item is contained under every schedule: its index emits
/// `Err`, every other item emits `Ok`, and emission order is unaffected —
/// the worker survives and keeps claiming.
#[test]
fn streamed_contains_panicking_item_under_all_schedules() {
    par::force_workers(2);
    let report = chk::Model::new().preemptions(2).check(|| {
        let mut emitted: Vec<(usize, Result<u32, String>)> = Vec::new();
        par::map_ordered_streamed(
            vec![0u32, 1, 2],
            |x| {
                assert!(x != 1, "injected item failure");
                x + 100
            },
            |k, r| emitted.push((k, r.map_err(|p| p.message()))),
        );
        assert_eq!(emitted.len(), 3, "every item emits exactly once");
        for (pos, (k, r)) in emitted.iter().enumerate() {
            assert_eq!(pos, *k, "emission stays in input order");
            match k {
                1 => assert!(
                    r.as_ref()
                        .is_err_and(|m| m.contains("injected item failure")),
                    "poisoned item surfaces its payload: {r:?}"
                ),
                _ => assert_eq!(*r, Ok(*k as u32 + 100), "healthy items unaffected"),
            }
        }
    });
    report.assert_ok("streamed panic containment (2 workers)");
    assert!(
        report.executions > 10,
        "exploration actually branched: {} executions",
        report.executions
    );
}
