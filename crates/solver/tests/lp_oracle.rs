//! Differential tests of the tableau engine against the dense-tableau
//! oracle: random LPs, and every node LP of random MILPs, must come out bit
//! for bit identical — same objective, values, status and pivot count.

mod dense_oracle;

use proptest::prelude::*;
use sfq_solver::{Cmp, LpProblem, MilpProblem, SolverError, VarId};

/// Mostly inequalities, one row in seven an equality.
fn cmp_of(k: u8) -> Cmp {
    match k {
        0..=2 => Cmp::Le,
        3..=5 => Cmp::Ge,
        _ => Cmp::Eq,
    }
}

/// A generated row: `(variable index, coefficient)` terms, a comparison
/// selector for [`cmp_of`] and a slack.
type Row = (Vec<(usize, i32)>, u8, i32);

/// Builds an LP from generated integers. Each row's right-hand side is set
/// from an integer point `x0` inside the bounds (`lb + pick`, clamped), so
/// most problems are feasible and the pivots get exercised; `slack` loosens
/// an inequality. Dividing by `denom` makes most coefficients non-integral,
/// so rounding is exercised, not just exact integer arithmetic. A span of 7
/// means "no upper bound".
fn build_lp(vars: &[(i32, i32, i32, i32)], rows: &[Row], denom: i32) -> LpProblem {
    let d = f64::from(denom);
    let mut lp = LpProblem::new();
    let mut x0 = Vec::new();
    for &(lb, span, obj, pick) in vars {
        let ub = if span == 7 {
            f64::INFINITY
        } else {
            f64::from(lb + span)
        };
        lp.add_var(f64::from(lb), ub, f64::from(obj) / d);
        x0.push(f64::from(lb + pick.min(span)));
    }
    for (terms, cmp, slack) in rows {
        // Repeated variables are kept: the engine must sum them like the
        // oracle does.
        let terms: Vec<(usize, f64)> = terms
            .iter()
            .map(|&(v, a)| (v % vars.len(), f64::from(a) / d))
            .collect();
        let at_x0: f64 = terms.iter().map(|&(v, a)| a * x0[v]).sum();
        let cmp = cmp_of(*cmp);
        let rhs = match cmp {
            Cmp::Le => at_x0 + f64::from(*slack) / d,
            Cmp::Ge => at_x0 - f64::from(*slack) / d,
            Cmp::Eq => at_x0,
        };
        lp.add_constraint(&terms, cmp, rhs);
    }
    lp
}

#[test]
fn textbook_lps_match_the_oracle() {
    // Infeasible, unbounded, bad bounds, degenerate (Beale) and equality
    // cases: the error paths must agree too.
    let mut infeasible = LpProblem::new();
    let x = infeasible.add_var(0.0, 10.0, 1.0);
    infeasible.add_constraint(&[(x, 1.0)], Cmp::Ge, 5.0);
    infeasible.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
    assert_eq!(
        dense_oracle::solve(&infeasible).0.unwrap_err(),
        SolverError::Infeasible
    );

    let mut unbounded = LpProblem::new();
    unbounded.add_var(0.0, f64::INFINITY, -1.0);
    let mut bad = LpProblem::new();
    bad.add_var(2.0, 1.0, 1.0);

    let mut beale = LpProblem::new();
    let x = beale.add_var(0.0, f64::INFINITY, -0.75);
    let y = beale.add_var(0.0, f64::INFINITY, 150.0);
    let z = beale.add_var(0.0, f64::INFINITY, -0.02);
    let w = beale.add_var(0.0, f64::INFINITY, 6.0);
    beale.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Cmp::Le, 0.0);
    beale.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Cmp::Le, 0.0);
    beale.add_constraint(&[(z, 1.0)], Cmp::Le, 1.0);

    let mut eq = LpProblem::new();
    let x = eq.add_var(-5.0, 5.0, 1.0);
    let y = eq.add_var(0.0, f64::INFINITY, 1.0);
    eq.add_constraint(&[(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
    eq.add_constraint(&[(x, 1.0), (y, -1.0), (x, 0.5)], Cmp::Eq, 1.0);

    for lp in [&infeasible, &unbounded, &bad, &beale, &eq] {
        dense_oracle::assert_matches(lp);
    }
    assert!(dense_oracle::assert_matches(&beale) > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_lps_match_the_oracle(
        vars in proptest::collection::vec((-3i32..4, 0i32..8, -6i32..7, 0i32..6), 1..9),
        rows in proptest::collection::vec(
            (proptest::collection::vec((0usize..9, -6i32..7), 1..6), 0u8..7, -2i32..9),
            0..13,
        ),
        denom in 1i32..4,
    ) {
        dense_oracle::assert_matches(&build_lp(&vars, &rows, denom));
    }

    /// Every node LP of a random MILP matches the oracle, and the MILP's
    /// pivot total (one reused tableau for all nodes) is the oracle's sum.
    #[test]
    fn random_milp_node_lps_match_the_oracle(
        vars in proptest::collection::vec((0i32..3, 1i32..6, -5i32..6, 0i32..6, 0u8..4), 2..9),
        rows in proptest::collection::vec(
            (proptest::collection::vec((0usize..9, -4i32..5), 1..5), 0u8..6, 0i32..5),
            1..9,
        ),
    ) {
        // Rows hold at the integer point x0 (`lb + pick`, clamped), so the
        // MILP is feasible and branch & bound has work to do.
        let mut p = MilpProblem::new();
        let mut x0 = Vec::new();
        let ids: Vec<VarId> = vars
            .iter()
            .map(|&(lb, span, obj, pick, kind)| {
                x0.push(f64::from(lb + pick.min(span)));
                let (lb, ub, obj) = (f64::from(lb), f64::from(lb + span), f64::from(obj));
                // One variable in four is continuous.
                if kind == 0 {
                    p.add_var(lb, ub, obj / 2.0, "c")
                } else {
                    p.add_int_var(lb, ub, obj, "i")
                }
            })
            .collect();
        for (terms, cmp, slack) in &rows {
            let terms: Vec<(VarId, f64)> =
                terms.iter().map(|&(v, a)| (ids[v % ids.len()], f64::from(a))).collect();
            let at_x0: f64 = terms.iter().map(|&(v, a)| a * x0[v.0]).sum();
            let (cmp, rhs) = match cmp_of(*cmp) {
                Cmp::Le => (Cmp::Le, at_x0 + f64::from(*slack)),
                _ => (Cmp::Ge, at_x0 - f64::from(*slack)),
            };
            p.add_constraint(&terms, cmp, rhs);
        }
        p.set_node_limit(200);
        let mut oracle_pivots = 0;
        let sol = p.solve_with(|lp| oracle_pivots += dense_oracle::assert_matches(lp));
        prop_assert!(sol.is_ok(), "x0 is feasible: {:?}", sol.err());
        prop_assert_eq!(sol.map(|s| s.pivots).ok(), Some(oracle_pivots));
    }
}
