//! Two-phase primal simplex for linear programs.
//!
//! Variables carry finite lower bounds (shifted to zero internally) and
//! optional finite upper bounds (added as explicit rows). Bland's rule makes
//! the iteration finite; a generous iteration cap guards against numerical
//! pathologies.
//!
//! The MILP layer above solves one LP per branch-and-bound node, all with
//! the same constraint rows under different bounds, so the engine is built
//! for re-solving: constraint terms are merged once per problem, the flat
//! row-major tableau and its bookkeeping stay allocated across solves, and
//! a pivot does only the work that can change a value:
//!
//! * it updates only the columns where the pivot row is non-zero;
//! * phase 2 stops updating the artificial columns, which it may not enter
//!   and never reads again;
//! * pricing sums only over the rows whose basic variable has a non-zero
//!   cost, in ascending row order.
//!
//! A skipped update is an `x -= f * 0.0` or a write that is never read, and
//! every sum keeps its terms in the same order, so the engine takes exactly
//! the pivots, and computes exactly the values, of the textbook dense
//! tableau — the differential oracle in `tests/dense_oracle/` holds it to
//! that bit for bit. (A skipped `x -= f * 0.0` can keep a `-0.0` where the
//! dense update writes `+0.0`; no comparison, ratio or non-zero sum can tell
//! the two apart.)

use std::fmt;

const TOL: f64 = 1e-7;

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// Errors from LP construction or solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration cap was hit (numerical trouble).
    IterationLimit,
    /// A variable was declared with `lb > ub` or a non-finite bound.
    BadBounds {
        /// Index of the offending variable.
        var: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Infeasible => write!(f, "problem is infeasible"),
            SolverError::Unbounded => write!(f, "objective is unbounded"),
            SolverError::IterationLimit => write!(f, "simplex iteration limit reached"),
            SolverError::BadBounds { var } => write!(f, "variable {var} has invalid bounds"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Outcome classification of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
}

/// A solved LP: objective value and a value per structural variable.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Objective at the optimum.
    pub objective: f64,
    /// Variable values in declaration order.
    pub values: Vec<f64>,
    /// Solve status (always [`LpStatus::Optimal`] when returned as `Ok`).
    pub status: LpStatus,
    /// Simplex pivots taken, both phases, including those that drive
    /// artificial variables out of the basis after phase 1.
    pub pivots: usize,
}

#[derive(Debug, Clone)]
struct Constraint {
    terms: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
}

/// A linear program: minimize `c·x` subject to linear constraints and
/// variable bounds.
///
/// # Example
///
/// ```
/// use sfq_solver::{Cmp, LpProblem};
/// let mut lp = LpProblem::new();
/// let x = lp.add_var(0.0, f64::INFINITY, -1.0); // maximize x
/// lp.add_constraint(&[(x, 2.0)], Cmp::Le, 5.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.values[x] - 2.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    lower: Vec<f64>,
    upper: Vec<f64>,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty LP.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lb, ub]` (`ub` may be `f64::INFINITY`)
    /// and objective coefficient `obj`. Returns its column index.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> usize {
        self.lower.push(lb);
        self.upper.push(ub);
        self.objective.push(obj);
        self.lower.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lower.len()
    }

    /// Number of constraints (upper-bound rows not included).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a linear constraint `Σ coef·var  cmp  rhs`.
    ///
    /// Terms may repeat a variable; coefficients accumulate.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.to_vec(),
            cmp,
            rhs,
        });
    }

    /// Overrides the bounds of an existing variable (used by branch & bound).
    pub fn set_bounds(&mut self, var: usize, lb: f64, ub: f64) {
        self.lower[var] = lb;
        self.upper[var] = ub;
    }

    /// Bounds of a variable.
    pub fn bounds(&self, var: usize) -> (f64, f64) {
        (self.lower[var], self.upper[var])
    }

    /// Objective coefficient of a variable.
    pub fn objective_coef(&self, var: usize) -> f64 {
        self.objective[var]
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        x.iter().zip(&self.objective).map(|(a, c)| a * c).sum()
    }

    /// Checks a point against all bounds and constraints (within `1e-6`).
    pub fn is_feasible(&self, x: &[f64]) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        const FEAS_TOL: f64 = 1e-6;
        for (v, &xv) in x.iter().enumerate() {
            if xv < self.lower[v] - FEAS_TOL || xv > self.upper[v] + FEAS_TOL {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + FEAS_TOL,
                Cmp::Ge => lhs >= c.rhs - FEAS_TOL,
                Cmp::Eq => (lhs - c.rhs).abs() <= FEAS_TOL,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// The `i`-th constraint as added: its terms, comparison and
    /// right-hand side.
    pub fn constraint(&self, i: usize) -> (&[(usize, f64)], Cmp, f64) {
        let c = &self.constraints[i];
        (&c.terms, c.cmp, c.rhs)
    }

    /// Solves the LP.
    ///
    /// # Errors
    /// [`SolverError::Infeasible`], [`SolverError::Unbounded`],
    /// [`SolverError::IterationLimit`] or [`SolverError::BadBounds`].
    pub fn solve(&self) -> Result<LpSolution, SolverError> {
        Tableau::new(self).solve(self)
    }
}

/// A constraint's terms with repeated variables summed (in insertion
/// order), zero coefficients dropped, sorted by variable.
fn merge_terms(terms: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut sorted = terms.to_vec();
    sorted.sort_by_key(|&(v, _)| v); // stable: keeps insertion order per variable
    let mut merged: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
    for (v, a) in sorted {
        match merged.last_mut() {
            Some((last, sum)) if *last == v => *sum += a,
            _ => merged.push((v, a)),
        }
    }
    merged.retain(|&(_, a)| a.abs() > 0.0);
    merged
}

/// A tableau row's comparison and right-hand side after the lower-bound
/// shift, and whether its coefficients were negated to make `rhs ≥ 0`.
#[derive(Debug, Clone, Copy)]
struct RowHead {
    cmp: Cmp,
    rhs: f64,
    negate: bool,
}

impl RowHead {
    fn new(cmp: Cmp, rhs: f64) -> Self {
        if rhs < 0.0 {
            let cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
            RowHead {
                cmp,
                rhs: -rhs,
                negate: true,
            }
        } else {
            RowHead {
                cmp,
                rhs,
                negate: false,
            }
        }
    }
}

/// The simplex engine for one LP's constraint rows, re-solvable under
/// changing bounds and objective (one solve per branch-and-bound node).
///
/// Columns are the structural variables, then one slack per inequality row,
/// then one artificial per `≥`/`=` row; rows are the constraints, then one
/// `x ≤ ub − lb` row per finite upper bound. Buffers persist across solves.
#[derive(Debug)]
pub(crate) struct Tableau {
    /// Each constraint's merged terms.
    terms: Vec<Vec<(usize, f64)>>,
    heads: Vec<RowHead>,
    /// Row-major `m × width` coefficients; right-hand sides live in `rhs`.
    tab: Vec<f64>,
    width: usize,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    cost: Vec<f64>,
    /// Rows whose basic variable has a non-zero cost, ascending, with that
    /// cost: the only terms of a reduced cost or objective that are not 0.
    priced: Vec<(usize, f64)>,
    /// Columns where the current pivot row is non-zero.
    nonzero: Vec<usize>,
    pivots: usize,
}

impl Tableau {
    /// Merges `lp`'s constraint rows; [`Tableau::solve`] must then be given
    /// problems with exactly these constraints.
    pub(crate) fn new(lp: &LpProblem) -> Self {
        Tableau {
            terms: lp
                .constraints
                .iter()
                .map(|c| merge_terms(&c.terms))
                .collect(),
            heads: Vec::new(),
            tab: Vec::new(),
            width: 0,
            rhs: Vec::new(),
            basis: Vec::new(),
            in_basis: Vec::new(),
            cost: Vec::new(),
            priced: Vec::new(),
            nonzero: Vec::new(),
            pivots: 0,
        }
    }

    /// Pivots taken by every solve so far.
    pub(crate) fn pivots(&self) -> usize {
        self.pivots
    }

    /// Solves `lp` (bounds and objective as given, constraints as merged by
    /// [`Tableau::new`]).
    pub(crate) fn solve(&mut self, lp: &LpProblem) -> Result<LpSolution, SolverError> {
        debug_assert_eq!(lp.constraints.len(), self.terms.len());
        let n = lp.num_vars();
        for v in 0..n {
            if !lp.lower[v].is_finite() || lp.lower[v] > lp.upper[v] + TOL {
                return Err(SolverError::BadBounds { var: v });
            }
        }
        let start = self.pivots;
        let (live, total) = self.load(lp);
        let m = self.basis.len();
        let max_iter = 2000 + 200 * (m + total);

        // ---- phase 1 ----  (columns `live..total` are the artificials)
        if live < total {
            self.cost.clear();
            self.cost.resize(live, 0.0);
            self.cost.resize(total, 1.0);
            let obj = self.run(total, max_iter)?;
            if obj > 1e-6 {
                return Err(SolverError::Infeasible);
            }
            // Drive remaining artificials out of the basis. From here on no
            // artificial column is read again, so pivots leave them stale.
            for i in 0..m {
                if self.basis[i] >= live {
                    let row = &self.tab[i * total..i * total + live];
                    if let Some(j) = row.iter().position(|a| a.abs() > TOL) {
                        self.pivot(i, j, live);
                    } // else a redundant row: its artificial stays basic at 0.
                }
            }
        }

        // ---- phase 2 ----  (artificials are banned: only `0..live` price)
        self.cost.clear();
        self.cost.extend_from_slice(&lp.objective);
        self.cost.resize(total, 0.0);
        let obj = self.run(live, max_iter)?;

        // Read out structural values (undo the shift).
        let mut values = vec![0.0f64; n];
        for (&b, &x) in self.basis.iter().zip(&self.rhs) {
            if b < n {
                values[b] = x;
            }
        }
        for (v, value) in values.iter_mut().enumerate() {
            *value += lp.lower[v];
        }
        let shift_obj: f64 = (0..n).map(|v| lp.objective[v] * lp.lower[v]).sum();
        Ok(LpSolution {
            objective: obj + shift_obj,
            values,
            status: LpStatus::Optimal,
            pivots: self.pivots - start,
        })
    }

    /// Builds the initial tableau for `lp`'s bounds: shifts `x = lb + x'`,
    /// adds the upper-bound rows, makes every right-hand side non-negative
    /// and starts from the slack/artificial basis. Returns the number of
    /// structural plus slack columns and the total column count.
    fn load(&mut self, lp: &LpProblem) -> (usize, usize) {
        let n = lp.num_vars();
        self.heads.clear();
        for (c, terms) in lp.constraints.iter().zip(&self.terms) {
            let mut shift = 0.0;
            for &(v, a) in terms {
                shift += a * lp.lower[v];
            }
            self.heads.push(RowHead::new(c.cmp, c.rhs - shift));
        }
        for v in 0..n {
            if lp.upper[v].is_finite() {
                self.heads
                    .push(RowHead::new(Cmp::Le, lp.upper[v] - lp.lower[v]));
            }
        }

        let m = self.heads.len();
        let num_slacks = self.heads.iter().filter(|h| h.cmp != Cmp::Eq).count();
        let num_artificials = self.heads.iter().filter(|h| h.cmp != Cmp::Le).count();
        let total = n + num_slacks + num_artificials;
        self.width = total;
        self.tab.clear();
        self.tab.resize(m * total, 0.0);
        self.rhs.clear();
        self.basis.clear();
        let mut bounded = (0..n).filter(|&v| lp.upper[v].is_finite());
        let mut slack_idx = n;
        let mut art_idx = n + num_slacks;
        for (i, h) in self.heads.iter().enumerate() {
            let row = &mut self.tab[i * total..(i + 1) * total];
            let sign = |a: f64| if h.negate { -a } else { a };
            match self.terms.get(i) {
                Some(terms) => {
                    for &(v, a) in terms {
                        row[v] = sign(a);
                    }
                }
                None => {
                    let v = bounded.next().expect("one upper-bound row per bounded var");
                    row[v] = sign(1.0);
                }
            }
            self.rhs.push(h.rhs);
            match h.cmp {
                Cmp::Le => {
                    row[slack_idx] = 1.0;
                    self.basis.push(slack_idx);
                    slack_idx += 1;
                }
                Cmp::Ge => {
                    row[slack_idx] = -1.0;
                    slack_idx += 1;
                    row[art_idx] = 1.0;
                    self.basis.push(art_idx);
                    art_idx += 1;
                }
                Cmp::Eq => {
                    row[art_idx] = 1.0;
                    self.basis.push(art_idx);
                    art_idx += 1;
                }
            }
        }
        self.in_basis.clear();
        self.in_basis.resize(total, false);
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        (n + num_slacks, total)
    }

    /// Runs primal simplex with Bland's rule over the columns `0..live`,
    /// minimizing `self.cost`.
    ///
    /// Bland's first-improving-column rule needs more pivots than steeper
    /// pricing on paper, but it is cycle-free and — measured on this crate's
    /// branch-and-bound workloads — beats Dantzig pricing, whose steepest
    /// columns thrash on the highly degenerate scheduling polytopes the flow
    /// produces.
    ///
    /// Returns the final objective value of `cost` over the basic solution.
    fn run(&mut self, live: usize, max_iter: usize) -> Result<f64, SolverError> {
        let w = self.width;
        for _iter in 0..max_iter {
            // Reduced costs: d_j = c_j - c_B · column_j, summed over the
            // rows with a non-zero basic cost in ascending order.
            let cost = &self.cost;
            self.priced.clear();
            self.priced.extend(
                self.basis
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (i, cost[b]))
                    .filter(|&(_, c)| c != 0.0),
            );
            let (tab, priced, in_basis) = (&self.tab, &self.priced, &self.in_basis);
            let entering = (0..live).find(|&j| {
                if in_basis[j] {
                    return false;
                }
                let mut d = cost[j];
                for &(i, cb) in priced {
                    d -= cb * tab[i * w + j];
                }
                d < -TOL // Bland: first improving column
            });
            let Some(j) = entering else {
                // Optimal: compute objective.
                let mut obj = 0.0;
                for &(i, cb) in priced {
                    obj += cb * self.rhs[i];
                }
                return Ok(obj);
            };
            // Ratio test (Bland tie-break on smallest basis column).
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.basis.len() {
                let a = tab[i * w + j];
                if a > TOL {
                    let ratio = self.rhs[i] / a;
                    match leave {
                        None => leave = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < lr - TOL
                                || (ratio < lr + TOL && self.basis[i] < self.basis[li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((i, _)) = leave else {
                return Err(SolverError::Unbounded);
            };
            self.pivot(i, j, live);
        }
        Err(SolverError::IterationLimit)
    }

    /// Pivots on `(row, col)`, updating the columns `0..live` and the
    /// right-hand sides. Only the columns where the (normalized) pivot row
    /// is non-zero change: everywhere else the update is `x -= f * 0.0`.
    fn pivot(&mut self, row: usize, col: usize, live: usize) {
        let w = self.width;
        let p = self.tab[row * w + col];
        let (before, rest) = self.tab.split_at_mut(row * w);
        let (pivot_row, after) = rest.split_at_mut(w);
        let pivot_row = &mut pivot_row[..live];
        for x in pivot_row.iter_mut() {
            *x /= p;
        }
        self.rhs[row] /= p;
        let pivot_rhs = self.rhs[row];
        self.nonzero.clear();
        self.nonzero
            .extend((0..live).filter(|&k| pivot_row[k] != 0.0));
        let others = before.chunks_exact_mut(w).enumerate().chain(
            after
                .chunks_exact_mut(w)
                .enumerate()
                .map(|(r, x)| (row + 1 + r, x)),
        );
        for (r, other) in others {
            let f = other[col];
            if f != 0.0 {
                for &k in &self.nonzero {
                    other[k] -= f * pivot_row[k];
                }
                if pivot_rhs != 0.0 {
                    self.rhs[r] -= f * pivot_rhs;
                }
            }
        }
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        self.pivots += 1;
    }
}
