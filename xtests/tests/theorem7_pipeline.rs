//! Theorem 7 end-to-end: for dichotomy-fragment ontologies, the three
//! characterisations line up on concrete instances —
//!
//! * materializable (disjunction property holds) ⇒ the type-elimination
//!   Datalog rewriting computes exactly the certain answers,
//! * non-materializable ⇒ a disjunction witness exists (coNP-hard side).

use gomq_core::{Fact, Instance, Term, Vocab};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_reasoning::materialize::{find_disjunction_witness, standard_candidates};
use gomq_reasoning::CertainEngine;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::types::ElementTypeSystem;

/// Builds a pseudo-random instance over the parsed signature.
fn random_instance(
    unary: &[gomq_core::RelId],
    binary: &[gomq_core::RelId],
    n_elems: usize,
    seed: u64,
    vocab: &mut Vocab,
) -> Instance {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let elems: Vec<_> = (0..n_elems)
        .map(|i| vocab.constant(&format!("ri{seed}_{i}")))
        .collect();
    let mut d = Instance::new();
    for &e in &elems {
        if !unary.is_empty() && next() % 2 == 0 {
            let u = unary[(next() % unary.len() as u64) as usize];
            d.insert(Fact::consts(u, &[e]));
        }
    }
    for _ in 0..n_elems {
        if binary.is_empty() {
            break;
        }
        let r = binary[(next() % binary.len() as u64) as usize];
        let a = elems[(next() % elems.len() as u64) as usize];
        let b = elems[(next() % elems.len() as u64) as usize];
        if a != b {
            d.insert(Fact::consts(r, &[a, b]));
        }
    }
    if d.is_empty() {
        d.insert(Fact::consts(unary[0], &[elems[0]]));
    }
    d
}

#[test]
fn horn_rewriting_agrees_with_engine_on_random_instances() {
    let mut v = Vocab::new();
    let text = "\
A sub ex R.B
B sub C
C sub all R.A
D sub not C
";
    let dl = parse_ontology(text, &mut v).expect("parses");
    let onto = to_gf(&dl);
    let sys = ElementTypeSystem::build(&onto, &v).expect("supported");
    let unary: Vec<_> = ["A", "B", "C", "D"]
        .iter()
        .map(|n| v.find_rel(n).expect("exists"))
        .collect();
    let binary = vec![v.find_rel("R").expect("exists")];
    let engine = CertainEngine::new(2);
    let c_rel = unary[2];
    let program = emit_datalog(&sys, c_rel, &mut v);
    for seed in 0..5u64 {
        let d = random_instance(&unary, &binary, 4, seed, &mut v);
        // Only compare on instances where the ontology is materializable
        // (it is Horn except for the ¬C part, which cannot introduce
        // disjunctions): check consistency first.
        let consistent = engine.consistency(&onto, &d, &mut v).is_consistent();
        let from_types = sys.certain_unary(d.store(), c_rel);
        let from_program: std::collections::BTreeSet<Term> =
            program.eval(&d).into_iter().map(|t| t[0]).collect();
        assert_eq!(from_types, from_program, "seed {seed}");
        if consistent {
            // Cross-check against the model-theoretic certain answers.
            let mut b = gomq_core::query::CqBuilder::new();
            let x = b.var("x");
            b.atom(c_rel, &[x]);
            let q = gomq_core::Ucq::from_cq(b.build(vec![x]));
            let from_engine = engine.certain_answers(&onto, &d, &q, &mut v);
            let from_types_vec: std::collections::BTreeSet<Vec<Term>> =
                from_types.iter().map(|&t| vec![t]).collect();
            assert_eq!(from_types_vec, from_engine, "seed {seed}");
        }
    }
}

#[test]
fn non_materializable_side_finds_witnesses() {
    let mut v = Vocab::new();
    let dl = parse_ontology("P sub Q or S\n", &mut v).expect("parses");
    let onto = to_gf(&dl);
    let p = v.find_rel("P").expect("exists");
    let c = v.constant("w");
    let d = Instance::from_facts(vec![Fact::consts(p, &[c])]);
    let engine = CertainEngine::new(1);
    let candidates = standard_candidates(&onto, &d, &v);
    assert!(
        find_disjunction_witness(&onto, &d, &candidates, &engine, &mut v).is_some(),
        "the disjunctive ontology fails the disjunction property"
    );
}

#[test]
fn inconsistent_instances_are_all_answers_in_both_routes() {
    let mut v = Vocab::new();
    let dl = parse_ontology("A sub B\nA sub not B\n", &mut v).expect("parses");
    let onto = to_gf(&dl);
    let sys = ElementTypeSystem::build(&onto, &v).expect("supported");
    let a_rel = v.find_rel("A").expect("exists");
    let b_rel = v.find_rel("B").expect("exists");
    let c = v.constant("z");
    let d = Instance::from_facts(vec![Fact::consts(a_rel, &[c])]);
    let engine = CertainEngine::new(1);
    assert!(!engine.consistency(&onto, &d, &mut v).is_consistent());
    // Both routes report B certain at c (ex falso).
    assert!(sys
        .certain_unary(d.store(), b_rel)
        .contains(&Term::Const(c)));
    let program = emit_datalog(&sys, b_rel, &mut v);
    assert!(program.holds(&d, &[Term::Const(c)]));
}
