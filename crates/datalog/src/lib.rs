//! # gomq-datalog
//!
//! A Datalog / Datalog≠ engine (appendix B of the paper).
//!
//! A Datalog≠ rule is `S(x̄) ← R₁(x̄₁) ∧ … ∧ R_m(x̄_m)` where each `Rᵢ` is a
//! relation symbol or the built-in inequality `≠`; every head variable must
//! occur in a positive body atom. A program has a designated `goal`
//! relation that may not occur in rule bodies. `D ⊨ Π(ā)` iff `goal(ā)`
//! holds in every model of `D` and `Π` — equivalently, in the least
//! fixpoint, which [`Program::eval`] computes by semi-naive bottom-up
//! iteration.
//!
//! The engine is the target of the paper's Theorem-5 rewriting: for
//! unravelling-tolerant ontologies, certain answers of an OMQ are exactly
//! the answers of a Datalog≠ program, giving PTIME data complexity.

#![warn(missing_docs)]

pub mod eval;
pub mod ir;
pub mod ivm;
pub mod program;

pub use eval::{
    derive_all, derive_all_traced, derive_round, derive_round_traced, eval_naive, fixpoint_traced,
    Budget, BudgetExceeded, Derivation, Emitter, EvalStats, LimitKind, TracedBuf,
};
pub use ir::{PlanIr, Rewritability, StratumIr};
pub use ivm::Materialization;
pub use program::{DAtom, DTerm, Literal, Program, Rule};
