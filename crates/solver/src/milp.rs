//! Mixed-integer linear programming by branch & bound.
//!
//! LP relaxations are solved by the [`crate::simplex`] module; branching is
//! most-fractional-variable with depth-first search and incumbent pruning.
//! Exactness is what the flow needs from this layer (the paper reports
//! optimally retimed DFF counts); scale is handled upstream by only sending
//! compact formulations here.

use crate::simplex::{Cmp, LpProblem, SolverError, Tableau};

/// Handle to a MILP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Termination status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal.
    Optimal,
    /// A feasible incumbent was returned but the node limit stopped the
    /// proof of optimality.
    FeasibleLimit,
}

/// A MILP solution.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Objective value of the incumbent.
    pub objective: f64,
    /// Values per variable (integer variables are integral within 1e-6).
    pub values: Vec<f64>,
    /// Whether optimality was proven.
    pub status: MilpStatus,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Simplex pivots over all node LPs, infeasible ones included.
    pub pivots: usize,
}

impl MilpSolution {
    /// Value of a variable.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Value of an integer variable, rounded.
    pub fn int_value(&self, v: VarId) -> i64 {
        self.values[v.0].round() as i64
    }
}

/// A mixed-integer linear program (minimization).
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, Default)]
pub struct MilpProblem {
    lp: LpProblem,
    integer: Vec<bool>,
    names: Vec<String>,
    node_limit: usize,
    warm_start: Option<Vec<f64>>,
    branch_priority: Vec<i32>,
}

const INT_TOL: f64 = 1e-6;

impl MilpProblem {
    /// Creates an empty problem with the default node limit (200 000).
    pub fn new() -> Self {
        MilpProblem {
            lp: LpProblem::new(),
            integer: Vec::new(),
            names: Vec::new(),
            node_limit: 200_000,
            warm_start: None,
            branch_priority: Vec::new(),
        }
    }

    /// Sets the branch-and-bound node limit.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// Provides a candidate solution as the initial incumbent.
    ///
    /// Branch & bound prunes every node whose LP bound cannot beat the
    /// incumbent, so a good warm start (e.g. from a heuristic) shrinks the
    /// search enormously. The point is validated at solve time; an
    /// infeasible or non-integral warm start is silently ignored.
    pub fn set_warm_start(&mut self, values: Vec<f64>) {
        self.warm_start = Some(values);
    }

    /// Provides the initial incumbent by variable id — the order-independent
    /// handoff API for callers that build their warm start while creating
    /// variables (e.g. the phase-assignment engine seeding branch & bound
    /// from a heuristic incumbent). Variables not mentioned default to their
    /// lower bound; like [`set_warm_start`](Self::set_warm_start), the point
    /// is validated at solve time and silently ignored if infeasible.
    pub fn set_warm_start_pairs(&mut self, pairs: &[(VarId, f64)]) {
        let mut values: Vec<f64> = (0..self.num_vars()).map(|v| self.lp.bounds(v).0).collect();
        for &(v, x) in pairs {
            values[v.0] = x;
        }
        self.warm_start = Some(values);
    }

    /// Adds a continuous variable with bounds and objective coefficient.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64, name: impl Into<String>) -> VarId {
        let v = self.lp.add_var(lb, ub, obj);
        self.integer.push(false);
        self.names.push(name.into());
        self.branch_priority.push(0);
        VarId(v)
    }

    /// Adds an integer variable with bounds and objective coefficient.
    pub fn add_int_var(&mut self, lb: f64, ub: f64, obj: f64, name: impl Into<String>) -> VarId {
        let v = self.lp.add_var(lb, ub, obj);
        self.integer.push(true);
        self.names.push(name.into());
        self.branch_priority.push(0);
        VarId(v)
    }

    /// Sets the branch priority of a variable (default 0). When several
    /// integer variables are fractional, branching picks the highest
    /// priority first — put structural decisions (e.g. schedule stages)
    /// above derived counters whose value follows from them.
    pub fn set_branch_priority(&mut self, v: VarId, priority: i32) {
        self.branch_priority[v.0] = priority;
    }

    /// Adds a binary (0/1) variable.
    pub fn add_bool_var(&mut self, obj: f64, name: impl Into<String>) -> VarId {
        self.add_int_var(0.0, 1.0, obj, name)
    }

    /// Adds a linear constraint `Σ coef·var  cmp  rhs`.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        let raw: Vec<(usize, f64)> = terms.iter().map(|&(v, c)| (v.0, c)).collect();
        self.lp.add_constraint(&raw, cmp, rhs);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.integer.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.lp.num_constraints()
    }

    /// Name of a variable (diagnostics).
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.0]
    }

    /// Solves the problem to optimality (or best incumbent at node limit).
    ///
    /// # Errors
    /// [`SolverError::Infeasible`] if no integer-feasible point exists;
    /// [`SolverError::Unbounded`] / [`SolverError::IterationLimit`] from the
    /// LP layer.
    pub fn solve(&self) -> Result<MilpSolution, SolverError> {
        self.solve_with(|_| {})
    }

    /// [`solve`](Self::solve), calling `on_node` with each node's LP (this
    /// problem's relaxation under the node's bounds) just before solving it.
    ///
    /// The hook is how a caller bounds or observes the search without this
    /// crate knowing about it: a deadline check that unwinds stops the solve
    /// within one node LP, and tests replay the node LPs against an oracle.
    ///
    /// # Errors
    /// As [`solve`](Self::solve).
    pub fn solve_with(
        &self,
        mut on_node: impl FnMut(&LpProblem),
    ) -> Result<MilpSolution, SolverError> {
        #[derive(Clone)]
        struct Node {
            bounds: Vec<(f64, f64)>,
            lower_bound: f64,
        }
        let root_bounds: Vec<(f64, f64)> =
            (0..self.num_vars()).map(|v| self.lp.bounds(v)).collect();

        // When the objective is an integer combination of integer variables,
        // every attainable value is integral, so LP bounds can be rounded up
        // before pruning — the single cheapest cut there is.
        let integral_objective = (0..self.num_vars()).all(|v| {
            let c = self.lp.objective_coef(v);
            c == 0.0 || (self.integer[v] && c.fract() == 0.0)
        });
        let sharpen = |bound: f64| -> f64 {
            if integral_objective {
                (bound - 1e-6).ceil()
            } else {
                bound
            }
        };

        let mut stack = vec![Node {
            bounds: root_bounds,
            lower_bound: f64::NEG_INFINITY,
        }];
        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        if let Some(ws) = &self.warm_start {
            let integral = ws
                .iter()
                .zip(&self.integer)
                .all(|(&x, &int)| !int || (x - x.round()).abs() <= INT_TOL);
            if integral && self.lp.is_feasible(ws) {
                incumbent = Some((self.lp.objective_value(ws), ws.clone()));
            }
        }
        let mut nodes = 0usize;
        let mut hit_limit = false;
        let mut lp = self.lp.clone();
        let mut tableau = Tableau::new(&self.lp);

        while let Some(node) = stack.pop() {
            if nodes >= self.node_limit {
                hit_limit = true;
                break;
            }
            nodes += 1;
            if let Some((best, _)) = &incumbent {
                if node.lower_bound >= *best - 1e-9 {
                    continue; // pruned by bound
                }
            }
            if node.bounds.iter().any(|&(lb, ub)| lb > ub + INT_TOL) {
                continue; // empty box
            }
            for (v, &(lb, ub)) in node.bounds.iter().enumerate() {
                lp.set_bounds(v, lb, ub);
            }
            on_node(&lp);
            let sol = match tableau.solve(&lp) {
                Ok(s) => s,
                Err(SolverError::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            let node_bound = sharpen(sol.objective);
            if let Some((best, _)) = &incumbent {
                if node_bound >= *best - 1e-9 {
                    continue;
                }
            }
            // Branch variable: highest priority, then most fractional.
            let mut branch_var: Option<(usize, i32, f64)> = None;
            for v in 0..self.num_vars() {
                if !self.integer[v] {
                    continue;
                }
                let x = sol.values[v];
                let frac = (x - x.round()).abs();
                if frac > INT_TOL {
                    let prio = self.branch_priority[v];
                    let dist = (x - x.floor() - 0.5).abs(); // closeness to .5
                    let better = match branch_var {
                        None => true,
                        Some((_, bp, bd)) => prio > bp || (prio == bp && dist < bd),
                    };
                    if better {
                        branch_var = Some((v, prio, dist));
                    }
                }
            }
            let branch_var = branch_var.map(|(v, _, d)| (v, d));
            match branch_var {
                None => {
                    // Integer feasible.
                    let better = incumbent
                        .as_ref()
                        .map(|(best, _)| sol.objective < *best - 1e-9)
                        .unwrap_or(true);
                    if better {
                        incumbent = Some((sol.objective, sol.values.clone()));
                    }
                }
                Some((v, _)) => {
                    let x = sol.values[v];
                    let (lb, ub) = node.bounds[v];
                    // Down branch: x ≤ floor.
                    let mut down = node.bounds.clone();
                    down[v] = (lb, x.floor());
                    // Up branch: x ≥ ceil.
                    let mut up = node.bounds.clone();
                    up[v] = (x.ceil(), ub);
                    // Explore the branch closer to the LP optimum first
                    // (pushed last → popped first).
                    let frac = x - x.floor();
                    let d = Node {
                        bounds: down,
                        lower_bound: node_bound,
                    };
                    let u = Node {
                        bounds: up,
                        lower_bound: node_bound,
                    };
                    if frac > 0.5 {
                        stack.push(d);
                        stack.push(u);
                    } else {
                        stack.push(u);
                        stack.push(d);
                    }
                }
            }
        }

        match incumbent {
            Some((objective, values)) => Ok(MilpSolution {
                objective,
                values,
                status: if hit_limit {
                    MilpStatus::FeasibleLimit
                } else {
                    MilpStatus::Optimal
                },
                nodes,
                pivots: tableau.pivots(),
            }),
            None => {
                if hit_limit {
                    Err(SolverError::IterationLimit)
                } else {
                    Err(SolverError::Infeasible)
                }
            }
        }
    }
}
