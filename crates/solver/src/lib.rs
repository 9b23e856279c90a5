//! Exact optimization substrates for SFQ retiming: a mixed-integer linear
//! programming solver and a small CP-SAT-style constraint solver.
//!
//! The paper implements phase assignment as an ILP and DFF insertion as a
//! CP-SAT model, both through Google OR-Tools. This crate provides the same
//! two capabilities from scratch:
//!
//! * [`MilpProblem`] — minimize a linear objective over continuous and
//!   integer variables with linear constraints. Solved by branch & bound
//!   over a two-phase primal [`simplex`] with Bland's rule, whose flat
//!   tableau is re-solved in place at every node and pivots sparsely.
//! * [`CpModel`] — bounded integer variables, linear constraints,
//!   `all_different`, and branch-and-bound minimization with bounds
//!   propagation.
//!
//! Both solvers are *exact* on the sizes the flow hands them (the paper's
//! formulations per-benchmark are compact; our harness additionally falls
//! back to a heuristic engine above a size threshold — see `sfq-core`).
//!
//! # Example
//!
//! ```
//! use sfq_solver::{MilpProblem, Cmp};
//!
//! // minimize x + 2y  s.t.  x + y ≥ 3, x - y ≤ 1, x,y ∈ [0,10] integer
//! let mut p = MilpProblem::new();
//! let x = p.add_int_var(0.0, 10.0, 1.0, "x");
//! let y = p.add_int_var(0.0, 10.0, 2.0, "y");
//! p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
//! p.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.value(x).round() as i64, 2);
//! assert_eq!(sol.value(y).round() as i64, 1);
//! assert!((sol.objective - 4.0).abs() < 1e-6);
//! ```

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

pub mod cp;
pub mod milp;
pub mod simplex;

pub use cp::{CpModel, CpSolution, CpStatus, CpVar};
pub use milp::{MilpProblem, MilpSolution, MilpStatus, VarId};
pub use simplex::{Cmp, LpProblem, LpSolution, LpStatus, SolverError};

#[cfg(test)]
mod tests;
