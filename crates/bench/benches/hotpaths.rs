//! Focused criterion benches for the flow's two hottest layers — the
//! regression gates of the hot-path overhaul (see ISSUE 1 / ROADMAP):
//!
//! * `assign_phases/*` — heuristic coordinate descent, T1-detected subjects;
//! * `enumerate_cuts/*` — 3-feasible cut enumeration on mapped networks;
//! * `milp/c7552_mini_auto` — the exact phase MILP `PhaseEngine::Auto` runs
//!   on the corpus's `c7552_mini` (500 branch-and-bound nodes, the bulk of
//!   a corpus `verify --batch`).
//!
//! The IDs deliberately match `substrates.rs` (`assign_phases/adder32_t1`,
//! `enumerate_cuts/adder32`) so historical numbers stay comparable, with
//! additional sizes to expose scaling behaviour rather than a single point.

use criterion::{criterion_group, criterion_main, Criterion};
use sfq_bench::corpus::corpus_dir;
use sfq_circuits as circuits;
use sfq_core::{assign_phases, detect_t1, insert_dffs, PhaseEngine};
use sfq_netlist::{enumerate_cuts, map_aig, CutConfig, Design, Library};

fn bench_hotpaths(c: &mut Criterion) {
    let lib = Library::default();
    let cut_config = CutConfig::default();

    for bits in [32usize, 64] {
        let aig = circuits::adder(bits);
        c.bench_function(format!("map_aig/adder{bits}"), |b| {
            b.iter(|| map_aig(&aig, &lib))
        });
        let mapped = map_aig(&aig, &lib);
        c.bench_function(format!("enumerate_cuts/adder{bits}"), |b| {
            b.iter(|| enumerate_cuts(&mapped, &cut_config))
        });
        c.bench_function(format!("detect_t1/adder{bits}"), |b| {
            b.iter(|| detect_t1(&mapped, &lib, &cut_config))
        });

        let detected = detect_t1(&mapped, &lib, &cut_config).network;
        c.bench_function(format!("assign_phases/adder{bits}_t1"), |b| {
            b.iter(|| assign_phases(&detected, 4, PhaseEngine::Heuristic).expect("feasible"))
        });
    }

    // A multiplier is the cut-enumeration stress case: reconvergent
    // carry-save structure yields far more cut merges per node than the
    // linear adder chain.
    let mult_aig = circuits::multiplier(12);
    c.bench_function("map_aig/multiplier12", |b| {
        b.iter(|| map_aig(&mult_aig, &lib))
    });
    let mult = map_aig(&mult_aig, &lib);
    c.bench_function("enumerate_cuts/multiplier12", |b| {
        b.iter(|| enumerate_cuts(&mult, &cut_config))
    });
    c.bench_function("detect_t1/multiplier12", |b| {
        b.iter(|| detect_t1(&mult, &lib, &cut_config))
    });
    c.bench_function("cleaned/multiplier12", |b| b.iter(|| mult.cleaned()));
    let mult_det = detect_t1(&mult, &lib, &cut_config).network;
    c.bench_function("assign_phases/multiplier12_t1", |b| {
        b.iter(|| assign_phases(&mult_det, 4, PhaseEngine::Heuristic).expect("feasible"))
    });
    let mult_asg = assign_phases(&mult_det, 4, PhaseEngine::Heuristic).expect("feasible");
    c.bench_function("insert_dffs/multiplier12", |b| {
        b.iter(|| insert_dffs(&mult_det, &mult_asg, 4).expect("insertable"))
    });

    // Paper-scale log2: the Table I row where the back three stages are
    // nearly balanced (ROADMAP's perf targets). `enumerate_cuts`/`detect_t1`
    // gate the cut-pruning work; `assign_phases/log2_t1` and
    // `insert_dffs/log2` gate the timing-engine refactor of the phase/dff
    // stages.
    let log2_aig = circuits::log2_shift_add(32);
    let (log2, _) = map_aig(&log2_aig, &lib).cleaned();
    c.bench_function("enumerate_cuts/log2", |b| {
        b.iter(|| enumerate_cuts(&log2, &cut_config))
    });
    c.bench_function("detect_t1/log2", |b| {
        b.iter(|| detect_t1(&log2, &lib, &cut_config))
    });
    let log2_det = detect_t1(&log2, &lib, &cut_config).network;
    c.bench_function("assign_phases/log2_t1", |b| {
        b.iter(|| assign_phases(&log2_det, 4, PhaseEngine::Heuristic).expect("feasible"))
    });
    let log2_asg = assign_phases(&log2_det, 4, PhaseEngine::Heuristic).expect("feasible");
    c.bench_function("insert_dffs/log2", |b| {
        b.iter(|| insert_dffs(&log2_det, &log2_asg, 4).expect("insertable"))
    });

    // The corpus design whose auto MILP hits the node limit: the subject is
    // prepared as the T1 flow does (map, clean, detect) and phase assignment
    // at 4 phases runs the descent seed plus the exact search.
    let c7552 = Design::read(&corpus_dir().join("c7552_mini.aag")).expect("corpus design");
    let (c7552, _) = map_aig(&c7552.aig, &lib).cleaned();
    let c7552_det = detect_t1(&c7552, &lib, &cut_config).network;
    c.bench_function("milp/c7552_mini_auto", |b| {
        b.iter(|| assign_phases(&c7552_det, 4, PhaseEngine::Auto).expect("feasible"))
    });
}

criterion_group!(benches, bench_hotpaths);
criterion_main!(benches);
