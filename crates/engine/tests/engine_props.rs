//! Property tests: served answers — the plan's bitset type kernel, one
//! ABox at a time and in batches — equal the reference `Program::eval`
//! of the plan's Datalog≠ rewriting on random OMQs, blown budgets come
//! back as `Overloaded` naming the limit that ran out, and the full
//! cached OMQ path is answer-equivalent to the one-shot
//! classify-emit-eval pipeline, including across cache-hit
//! re-evaluation.

use gomq_core::{FactId, IndexedInstance, Instance, Vocab};
use gomq_datalog::{Budget, LimitKind};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{Engine, EngineError};
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::ElementTypeSystem;
use proptest::prelude::*;
use std::time::Instant;

/// Renders one random ontology over concepts `A0..A3` and roles `R`,
/// `S` (either may be inverted): inclusions, existential and universal
/// restrictions, disjointness, counting, functionality and role
/// inclusions.
fn rich_ontology_text(axioms: &[(u8, u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(kind, i, j, r) in axioms {
        let (a, b) = (i % 4, j % 4);
        let role = ["R", "S", "R-", "S-"][r as usize % 4];
        let other = ["S", "R", "S-", "R-"][r as usize % 4];
        text.push_str(&match kind % 10 {
            0 => format!("A{a} sub A{b}"),
            1 => format!("A{a} sub ex {role}.A{b}"),
            2 => format!("ex {role}.A{a} sub A{b}"),
            3 => format!("A{a} sub all {role}.A{b}"),
            4 => format!("A{a} sub not A{b}"),
            5 => format!("A{a} sub >=2 {role}.A{b}"),
            6 => format!("A{a} sub <=1 {role}.A{b}"),
            7 => format!("func({role})"),
            8 => format!("role {role} sub {other}"),
            _ => format!("A{a} and A{b} sub not ex {role}.Top"),
        });
        text.push('\n');
    }
    text
}

/// Renders one random ABox over the ontology's relations plus `A4` and
/// `T`, which no ontology mentions (out-of-signature facts). Equal
/// constants in a role fact make a self-loop.
fn rich_abox_text(facts: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(r, c1, c2) in facts {
        let (c1, c2) = (c1 % 5, c2 % 5);
        match r % 8 {
            5 => text.push_str(&format!("R(c{c1},c{c2})\n")),
            6 => text.push_str(&format!("S(c{c1},c{c2})\n")),
            7 => text.push_str(&format!("T(c{c1},c{c2})\n")),
            a => text.push_str(&format!("A{a}(c{c1})\n")),
        }
    }
    text
}

/// The limit an `Overloaded` error names (panics on anything else).
fn overloaded_limit<T: std::fmt::Debug>(r: Result<T, EngineError>) -> LimitKind {
    match r {
        Err(EngineError::Overloaded(e)) => e.limit,
        other => panic!("expected an overloaded error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Served answers equal `Program::eval` of the plan's rewriting, on
    /// one ABox and across a batch, with dead (retracted) facts skipped;
    /// the served run's own rounds and eliminations are exactly the
    /// budget it needs.
    #[test]
    fn executor_matches_reference_eval(
        axioms in proptest::collection::vec(
            (0u8..10, 0u8..4, 0u8..4, 0u8..4),
            1..6,
        ),
        aboxes in proptest::collection::vec(
            proptest::collection::vec((proptest::arbitrary::any::<u8>(), 0u8..5, 0u8..5), 0..14),
            1..4,
        ),
        dead in proptest::collection::vec(0usize..14, 0..3),
        query_choice in 0u8..7,
    ) {
        let mut v = Vocab::new();
        let dl = parse_ontology(&rich_ontology_text(&axioms), &mut v)
            .expect("generated ontology must parse");
        let o = to_gf(&dl);
        let parsed: Vec<Instance> = aboxes
            .iter()
            .map(|facts| {
                gomq_core::parse::parse_instance(&rich_abox_text(facts), &mut v)
                    .expect("generated abox must parse")
            })
            .collect();
        let query_name = ["A0", "A1", "A2", "A3", "A4", "R", "T"][query_choice as usize];
        let Some(query) = v.find_rel(query_name) else {
            return Ok(()); // the relation occurs in no draw
        };
        let engine = Engine::with_threads(2);
        let (plan, _, _) = engine.plan(&o, query, &mut v);
        let Ok(plan) = plan else {
            // The engine may only reject what the rewriter rejects.
            prop_assert!(ElementTypeSystem::build(&o, &v).is_err());
            return Ok(());
        };
        // Retract a few facts of the first ABox the way a maintained
        // store does (support 0, kept in place): the reference sees the
        // live facts only.
        let mut indexed: Vec<IndexedInstance> =
            parsed.iter().map(IndexedInstance::from_interpretation).collect();
        let mut live = parsed.clone();
        let first = &mut indexed[0];
        for &i in &dead {
            if i < first.len() {
                first.set_support(FactId(i as u32), 0);
            }
        }
        live[0] = Instance::from_facts(
            first
                .iter()
                .enumerate()
                .filter(|&(i, _)| first.store().is_live(i as u32))
                .map(|(_, f)| f.to_fact()),
        );
        let unlimited = Budget::UNLIMITED;
        let (batch, batch_stats) = engine
            .answer_batch_budgeted(&plan, &indexed, &unlimited)
            .expect("unlimited");
        let mut rounds = 0;
        for (i, d) in indexed.iter().enumerate() {
            let expected = plan.program.eval(&live[i]);
            let (answers, stats) = engine
                .answer_indexed_budgeted(&plan, d, &unlimited)
                .expect("unlimited");
            prop_assert_eq!(&answers, &expected, "abox {}", i);
            prop_assert_eq!(&batch[i], &expected, "batch abox {}", i);
            prop_assert!(stats.typed && stats.rounds >= 1);
            rounds += stats.rounds;
            // The run's own counts are exactly the budget it needs.
            let exact = Budget {
                max_rounds: Some(stats.rounds),
                max_derived: Some(stats.derived),
                deadline: None,
            };
            let (again, _) = engine.answer_indexed_budgeted(&plan, d, &exact).expect("fits");
            prop_assert_eq!(&again, &expected);
            let fewer_rounds = Budget { max_rounds: Some(stats.rounds - 1), ..unlimited };
            prop_assert_eq!(
                overloaded_limit(engine.answer_indexed_budgeted(&plan, d, &fewer_rounds)),
                LimitKind::Rounds
            );
            if stats.derived > 0 {
                let fewer_derived = Budget { max_derived: Some(stats.derived - 1), ..unlimited };
                prop_assert_eq!(
                    overloaded_limit(engine.answer_indexed_budgeted(&plan, d, &fewer_derived)),
                    LimitKind::Derived
                );
                prop_assert_eq!(
                    overloaded_limit(engine.answer_batch_budgeted(&plan, &indexed, &fewer_derived)),
                    LimitKind::Derived
                );
            }
            let expired = Budget { deadline: Some(Instant::now()), ..unlimited };
            prop_assert_eq!(
                overloaded_limit(engine.answer_indexed_budgeted(&plan, d, &expired)),
                LimitKind::Deadline
            );
        }
        prop_assert_eq!(batch_stats.rounds, rounds);
    }
}

/// Renders one random Horn ontology text from axiom specs.
fn ontology_text(axioms: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(i, j, kind) in axioms {
        let (a, b) = (i % 4, j % 4);
        match kind % 3 {
            0 => text.push_str(&format!("A{a} sub A{b}\n")),
            1 => text.push_str(&format!("A{a} sub ex R.A{b}\n")),
            _ => text.push_str(&format!("ex R.A{a} sub A{b}\n")),
        }
    }
    text
}

/// Renders one random ABox text (concept and role assertions).
fn abox_text(facts: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(r, c1, c2) in facts {
        match r % 5 {
            4 => text.push_str(&format!("R(c{},c{})\n", c1 % 6, c2 % 6)),
            a => text.push_str(&format!("A{a}(c{})\n", c1 % 6)),
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full engine path (plan cache + kernel) answers random Horn
    /// OMQs exactly like the one-shot build-emit-eval pipeline, and the
    /// second, cache-hit evaluation returns the same answers.
    #[test]
    fn cached_omq_path_matches_one_shot_pipeline(
        axioms in proptest::collection::vec(
            (0u8..4, 0u8..4, 0u8..3),
            1..6,
        ),
        facts in proptest::collection::vec(
            (proptest::arbitrary::any::<u8>(), 0u8..6, 0u8..6),
            0..15,
        ),
        query_choice in 0u8..4,
    ) {
        let mut v = Vocab::new();
        let dl = parse_ontology(&ontology_text(&axioms), &mut v)
            .expect("generated ontology must parse");
        let o = to_gf(&dl);
        let query = match v.find_rel(&format!("A{}", query_choice % 4)) {
            Some(r) => r,
            // The queried concept does not occur in this ontology draw.
            None => return Ok(()),
        };
        let abox = gomq_core::parse::parse_instance(&abox_text(&facts), &mut v)
            .expect("generated abox must parse");

        let engine = Engine::with_threads(4);
        let (plan1, hit1, _) = engine.plan(&o, query, &mut v);
        match plan1 {
            Ok(plan) => {
                prop_assert!(!hit1);
                // Reference: one-shot pipeline on the same vocabulary.
                let sys = ElementTypeSystem::build(&o, &v)
                    .expect("engine compiled, so the one-shot build must succeed");
                let reference = emit_datalog(&sys, query, &mut v).eval(&abox);
                let (answers, _) = engine.answer(&plan, &abox);
                prop_assert_eq!(&answers, &reference);
                // Cache hit: same plan object, same answers.
                let (plan2, hit2, _) = engine.plan(&o, query, &mut v);
                prop_assert!(hit2);
                let (answers2, _) = engine.answer(&plan2.unwrap(), &abox);
                prop_assert_eq!(&answers2, &reference);
            }
            Err(_) => {
                // The engine may only reject what the rewriter rejects.
                prop_assert!(ElementTypeSystem::build(&o, &v).is_err());
            }
        }
    }
}
