//! The native backend: plain requests answered by the plan's bitset
//! type kernel.
//!
//! Theorem 5's rewriting is type elimination — one `elim_θ` predicate
//! per surviving element type — and every compiled plan carries that
//! same computation as the bit-parallel AC-3 kernel of its
//! [`ElementTypeSystem`](gomq_rewriting::ElementTypeSystem) (DESIGN.md
//! §7). The kernel propagates surviving-type rows over the ABox's
//! signature domain and reads the certain answers off them, without
//! materializing a single fact, so it answers every plain request:
//! one-shot queries, `"aboxes"` batches and session reads with view
//! maintenance off.
//!
//! The Datalog≠ program stays the reference: certified answers run its
//! traced fixpoint (a certificate cites derivations), maintained views
//! run incremental maintenance over it, and the SQL backend runs its
//! emitted SQL. `tests/engine_props.rs` checks that served kernel
//! answers equal [`Program::eval`](gomq_datalog::Program::eval) on
//! random OMQs, and `tests/sql_crosscheck.rs` that they equal the SQL
//! backend's.

use crate::plan::OmqPlan;
use gomq_core::{FactStore, IndexedInstance, Term};
use gomq_datalog::{Budget, BudgetExceeded};
use gomq_rewriting::TypeStats;
use std::collections::BTreeSet;

/// An answer set paired with the counters of the kernel run.
pub type KernelOutcome = (BTreeSet<Vec<Term>>, TypeStats);

/// Answers `plan` over the live facts of `d` under a cooperative
/// resource [`Budget`]: kernel passes count as rounds and (element,
/// type) eliminations as derived facts.
pub fn eval_kernel(
    plan: &OmqPlan,
    d: &FactStore,
    budget: &Budget,
) -> Result<KernelOutcome, BudgetExceeded> {
    let (elements, stats) = plan.types.certain_unary_budgeted(d, plan.query, budget)?;
    Ok((elements.into_iter().map(|t| vec![t]).collect(), stats))
}

/// Answers `plan` over a batch of ABoxes on up to `threads` scoped
/// workers, each taking one contiguous run of the batch. Round and
/// elimination budgets apply per ABox; the deadline is shared wall
/// clock. Outcomes come back in input order, and the first blown budget
/// in input order fails the whole batch.
pub fn eval_batch(
    plan: &OmqPlan,
    aboxes: &[IndexedInstance],
    threads: usize,
    budget: &Budget,
) -> Result<Vec<KernelOutcome>, BudgetExceeded> {
    let run = |d: &IndexedInstance| eval_kernel(plan, d.store(), budget);
    let workers = threads.min(aboxes.len()).max(1);
    if workers == 1 {
        return aboxes.iter().map(run).collect();
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = aboxes
            .chunks(aboxes.len().div_ceil(workers))
            .map(|part| scope.spawn(move || part.iter().map(run).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            // Re-raise worker panics on the calling thread so the
            // serving layer's catch_unwind isolates them per request.
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::parse::parse_instance;
    use gomq_core::Vocab;
    use gomq_dl::parser::parse_ontology;
    use gomq_dl::translate::to_gf;

    #[test]
    fn batch_matches_individual_evaluation() {
        let mut v = Vocab::new();
        let dl = parse_ontology("A sub ex R.B\nex R.B sub C\nC sub D\n", &mut v).unwrap();
        let d_rel = v.find_rel("D").unwrap();
        let plan = OmqPlan::compile(&to_gf(&dl), d_rel, &mut v).unwrap();
        let aboxes: Vec<IndexedInstance> = (0..7)
            .map(|n| {
                let text: String = (0..n)
                    .map(|i| format!("R(c{i},c{})\nB(c{})\n", i + 1, i + 1))
                    .collect();
                IndexedInstance::from_instance(parse_instance(&text, &mut v).unwrap())
            })
            .collect();
        let batch = eval_batch(&plan, &aboxes, 4, &Budget::UNLIMITED).unwrap();
        assert_eq!(batch.len(), aboxes.len());
        for (i, d) in aboxes.iter().enumerate() {
            let (individual, _) = eval_kernel(&plan, d.store(), &Budget::UNLIMITED).unwrap();
            assert_eq!(batch[i].0, individual, "abox {i}");
            assert_eq!(individual, plan.program.eval(&d.to_interpretation()));
            assert_eq!(individual.len(), i, "every R-source is certainly D");
        }
    }
}
