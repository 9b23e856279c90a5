//! The dense two-phase primal simplex that `sfq_solver`'s tableau engine
//! replaced, kept as the differential oracle: a `Vec<Vec<f64>>` tableau,
//! rebuilt per solve, every pivot updating every entry, pricing over every
//! row. The engine must take the same pivots and return the same bits.
//!
//! It is the old solver with two changes: it counts its pivots, and it sums
//! each row's lower-bound shift in ascending variable order (the old code
//! summed in hash-map order, which made the rounding of a non-integral
//! shift vary from run to run).
//!
//! Shared by `crates/solver/tests/lp_oracle.rs` and the `sfq-core` unit
//! tests that replay the corpus MILPs.

use sfq_solver::{Cmp, LpProblem, LpSolution, LpStatus, SolverError};
use std::collections::{HashMap, HashSet};

const TOL: f64 = 1e-7;

/// Solves `lp` with the dense tableau: the outcome and the pivots taken
/// (counted on failure too).
pub fn solve(lp: &LpProblem) -> (Result<LpSolution, SolverError>, usize) {
    let mut pivots = 0;
    let result = solve_counted(lp, &mut pivots);
    (result, pivots)
}

/// Solves `lp` with `lp.solve()` and with the oracle, asserts the two agree
/// bit for bit (objective, values, status, pivots; or the same error), and
/// returns the oracle's pivot count.
pub fn assert_matches(lp: &LpProblem) -> usize {
    let (expected, pivots) = solve(lp);
    match (lp.solve(), expected) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.status, want.status, "status");
            assert_eq!(got.pivots, want.pivots, "pivot count");
            assert_eq!(
                got.objective.to_bits(),
                want.objective.to_bits(),
                "objective {} vs {}",
                got.objective,
                want.objective
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.values), bits(&want.values), "values");
        }
        (got, want) => assert_eq!(got.err(), want.err(), "outcome"),
    }
    pivots
}

fn solve_counted(lp: &LpProblem, pivots: &mut usize) -> Result<LpSolution, SolverError> {
    let n = lp.num_vars();
    let lower: Vec<f64> = (0..n).map(|v| lp.bounds(v).0).collect();
    let upper: Vec<f64> = (0..n).map(|v| lp.bounds(v).1).collect();
    let objective: Vec<f64> = (0..n).map(|v| lp.objective_coef(v)).collect();
    for v in 0..n {
        if !lower[v].is_finite() || lower[v] > upper[v] + TOL {
            return Err(SolverError::BadBounds { var: v });
        }
    }

    // Shift x = lb + x', x' ≥ 0; collect rows (including ub rows).
    #[derive(Clone)]
    struct Row {
        coefs: Vec<(usize, f64)>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(lp.num_constraints() + n);
    for i in 0..lp.num_constraints() {
        let (terms, cmp, rhs) = lp.constraint(i);
        let mut dense: HashMap<usize, f64> = HashMap::new();
        for &(v, a) in terms {
            *dense.entry(v).or_insert(0.0) += a;
        }
        let mut coefs: Vec<(usize, f64)> = Vec::with_capacity(dense.len());
        for (&v, &a) in &dense {
            if a.abs() > 0.0 {
                coefs.push((v, a));
            }
        }
        coefs.sort_by_key(|&(v, _)| v);
        let mut shift = 0.0;
        for &(v, a) in &coefs {
            shift += a * lower[v];
        }
        rows.push(Row {
            coefs,
            cmp,
            rhs: rhs - shift,
        });
    }
    for v in 0..n {
        if upper[v].is_finite() {
            let span = upper[v] - lower[v];
            rows.push(Row {
                coefs: vec![(v, 1.0)],
                cmp: Cmp::Le,
                rhs: span,
            });
        }
    }

    // Normalize RHS ≥ 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            for t in r.coefs.iter_mut() {
                t.1 = -t.1;
            }
            r.rhs = -r.rhs;
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = rows.len();
    // Columns: structural (n) + slacks + artificials.
    let num_slacks = rows.iter().filter(|r| r.cmp != Cmp::Eq).count();
    let num_artificials = rows.iter().filter(|r| r.cmp != Cmp::Le).count();
    let total = n + num_slacks + num_artificials;

    let mut tab = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut artificial_cols: Vec<usize> = Vec::new();
    let mut slack_idx = n;
    let mut art_idx = n + num_slacks;
    for (i, r) in rows.iter().enumerate() {
        for &(v, a) in &r.coefs {
            tab[i][v] = a;
        }
        tab[i][total] = r.rhs;
        match r.cmp {
            Cmp::Le => {
                tab[i][slack_idx] = 1.0;
                basis[i] = slack_idx;
                slack_idx += 1;
            }
            Cmp::Ge => {
                tab[i][slack_idx] = -1.0;
                slack_idx += 1;
                tab[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
            Cmp::Eq => {
                tab[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }

    let max_iter = 2000 + 200 * (m + total);

    // ---- phase 1 ----
    if !artificial_cols.is_empty() {
        let mut cost = vec![0.0f64; total];
        for &c in &artificial_cols {
            cost[c] = 1.0;
        }
        let obj = run_simplex(&mut tab, &mut basis, &cost, total, max_iter, None, pivots)?;
        if obj > 1e-6 {
            return Err(SolverError::Infeasible);
        }
        // Drive remaining artificials out of the basis.
        let art_set: HashSet<usize> = artificial_cols.iter().copied().collect();
        for i in 0..m {
            if art_set.contains(&basis[i]) {
                for j in 0..n + num_slacks {
                    if tab[i][j].abs() > TOL {
                        pivot(&mut tab, &mut basis, i, j);
                        *pivots += 1;
                        break;
                    }
                }
            }
        }
    }

    // ---- phase 2 ----
    let mut cost = vec![0.0f64; total];
    cost[..n].copy_from_slice(&objective);
    let banned: HashSet<usize> = artificial_cols.iter().copied().collect();
    let obj = run_simplex(
        &mut tab,
        &mut basis,
        &cost,
        total,
        max_iter,
        Some(&banned),
        pivots,
    )?;

    // Read out structural values (undo the shift).
    let mut values = vec![0.0f64; n];
    for i in 0..m {
        if basis[i] < n {
            values[basis[i]] = tab[i][total];
        }
    }
    for (v, value) in values.iter_mut().enumerate() {
        *value += lower[v];
    }
    let shift_obj: f64 = (0..n).map(|v| objective[v] * lower[v]).sum();
    Ok(LpSolution {
        objective: obj + shift_obj,
        values,
        status: LpStatus::Optimal,
        pivots: *pivots,
    })
}

/// Primal simplex with Bland's rule on the dense tableau; returns the final
/// objective value of `cost` over the basic solution.
fn run_simplex(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    total: usize,
    max_iter: usize,
    banned: Option<&HashSet<usize>>,
    pivots: &mut usize,
) -> Result<f64, SolverError> {
    let m = tab.len();
    for _iter in 0..max_iter {
        // Reduced costs: d_j = c_j - c_B · column_j.
        let cb: Vec<f64> = basis.iter().map(|&b| cost[b]).collect();
        let in_basis: Vec<bool> = {
            let mut v = vec![false; total];
            for &b in basis.iter() {
                if b < total {
                    v[b] = true;
                }
            }
            v
        };
        let mut entering: Option<usize> = None;
        for j in 0..total {
            if in_basis[j] || banned.is_some_and(|s| s.contains(&j)) {
                continue;
            }
            let mut d = cost[j];
            for i in 0..m {
                if cb[i] != 0.0 {
                    d -= cb[i] * tab[i][j];
                }
            }
            if d < -TOL {
                entering = Some(j); // Bland: first improving column
                break;
            }
        }
        let Some(j) = entering else {
            // Optimal: compute objective.
            let mut obj = 0.0;
            for i in 0..m {
                obj += cost[basis[i]] * tab[i][total];
            }
            return Ok(obj);
        };
        // Ratio test (Bland tie-break on smallest basis column).
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            if tab[i][j] > TOL {
                let ratio = tab[i][total] / tab[i][j];
                match leave {
                    None => leave = Some((i, ratio)),
                    Some((li, lr)) => {
                        if ratio < lr - TOL || (ratio < lr + TOL && basis[i] < basis[li]) {
                            leave = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((i, _)) = leave else {
            return Err(SolverError::Unbounded);
        };
        pivot(tab, basis, i, j);
        *pivots += 1;
    }
    Err(SolverError::IterationLimit)
}

fn pivot(tab: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize) {
    let width = tab[0].len();
    let p = tab[row][col];
    for x in tab[row].iter_mut() {
        *x /= p;
    }
    let (before, rest) = tab.split_at_mut(row);
    let (pivot_row, after) = rest.split_first_mut().expect("row index in range");
    for r in before.iter_mut().chain(after.iter_mut()) {
        let f = r[col];
        if f != 0.0 {
            for (x, &p) in r.iter_mut().zip(pivot_row.iter()).take(width) {
                *x -= f * p;
            }
        }
    }
    basis[row] = col;
}
