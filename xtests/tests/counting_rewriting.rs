//! The PTIME side of the hand–finger example, end-to-end: O₁ (exactly-n
//! fingers) lies in uGC⁻₂(1,=) and is materializable, so by Theorem 7 it
//! is Datalog≠-rewritable — and the emitted counting rules agree with the
//! model-theoretic engine.

use gomq_bench::{hand_instance, hand_ontologies};
use gomq_core::query::CqBuilder;
use gomq_core::{Fact, Term, Ucq, Vocab};
use gomq_reasoning::CertainEngine;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::types::ElementTypeSystem;

#[test]
fn o1_is_type_rewritable_and_routes_agree() {
    let mut v = Vocab::new();
    let (o1, _, _, hand, thumb, hf) = hand_ontologies(3, &mut v);
    let sys = ElementTypeSystem::build(&o1, &v).expect("uGC⁻₂(1,=) supported");
    assert!(sys.uses_counting());
    let program = emit_datalog(&sys, thumb, &mut v);
    assert!(!program.is_pure_datalog(), "counting rewriting uses ≠");
    let engine = CertainEngine::new(2);
    // On hands with 2, 3 and 4 explicit fingers the Datalog≠ route and the
    // engine agree on the atomic query Thumb(x) (3 fingers: consistent and
    // nothing certain; 4 fingers: inconsistency fires everywhere).
    for n in [2usize, 3, 4] {
        let mut v2 = Vocab::new();
        let (o1n, _, _, handn, thumbn, hfn) = hand_ontologies(3, &mut v2);
        let sysn = ElementTypeSystem::build(&o1n, &v2).expect("supported");
        let programn = emit_datalog(&sysn, thumbn, &mut v2);
        let d = hand_instance(n, handn, hfn, &mut v2);
        let from_program: std::collections::BTreeSet<Term> =
            programn.eval(&d).into_iter().map(|t| t[0]).collect();
        let from_types = sysn.certain_unary(d.store(), thumbn);
        assert_eq!(from_types, from_program, "n = {n}");
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom(thumbn, &[x]);
        let q = Ucq::from_cq(b.build(vec![x]));
        let from_engine: std::collections::BTreeSet<Term> = engine
            .certain_answers(&o1n, &d, &q, &mut v2)
            .into_iter()
            .map(|t| t[0])
            .collect();
        assert_eq!(from_types, from_engine, "n = {n}");
        if n <= 3 {
            assert!(from_engine.is_empty(), "no thumb is certain under O1 alone");
        } else {
            // 4 explicit fingers on an exactly-3 hand: inconsistent.
            assert_eq!(from_engine.len(), d.dom().len());
        }
    }
    let _ = (hand, hf, program, o1, sys);
}

#[test]
fn counting_certainty_at_the_boundary() {
    // Hand ⊑ (= 2 hasFinger): with two explicit fingers and the axiom
    // Hand ⊑ ∃hasFinger.Thumb (O₂), the thumb must be one of them — the
    // *union* is beyond the rewriter's soundness domain for UCQs, but the
    // per-atomic-query answers still agree with the engine (no single
    // finger is certainly the thumb).
    let mut v = Vocab::new();
    let (o1, _, union, hand, thumb, hf) = hand_ontologies(2, &mut v);
    let _ = o1;
    let sys = ElementTypeSystem::build(&union, &v).expect("supported");
    let d = hand_instance(2, hand, hf, &mut v);
    let engine = CertainEngine::new(2);
    let from_types = sys.certain_unary(d.store(), thumb);
    let mut b = CqBuilder::new();
    let x = b.var("x");
    b.atom(thumb, &[x]);
    let q = Ucq::from_cq(b.build(vec![x]));
    let from_engine: std::collections::BTreeSet<Term> = engine
        .certain_answers(&union, &d, &q, &mut v)
        .into_iter()
        .map(|t| t[0])
        .collect();
    assert_eq!(from_types, from_engine);
    assert!(from_engine.is_empty());
    // The non-materializability of the union lives at the UCQ level
    // (Thumb(f0) ∨ Thumb(f1) is certain) — outside atomic queries, as the
    // paper's dichotomy analysis predicts.
    let fingers: Vec<Term> = d
        .dom()
        .into_iter()
        .filter(|t| d.facts_of(hf).any(|f| f.args.len() == 2 && f.args[1] == *t))
        .collect();
    let queries: Vec<(Ucq, Vec<Term>)> = fingers.iter().map(|&f| (q.clone(), vec![f])).collect();
    assert!(engine
        .certain_disjunction(&union, &d, &queries, &mut v)
        .is_certain());
}

#[test]
fn functional_role_pipeline() {
    // func(hasMother) + Person ⊑ ∃hasMother.Person: consistent data with a
    // single mother; two mothers clash — all three routes agree.
    use gomq_dl::concept::{Concept, Role};
    use gomq_dl::translate::to_gf;
    use gomq_dl::DlOntology;
    let mut v = Vocab::new();
    let person = v.rel("Person", 1);
    let hm = v.rel("hasMother", 2);
    let mut dl = DlOntology::new();
    dl.functional(Role::new(hm));
    dl.sub(
        Concept::Name(person),
        Concept::Exists(Role::new(hm), Box::new(Concept::Name(person))),
    );
    let o = to_gf(&dl);
    let sys = ElementTypeSystem::build(&o, &v).expect("supported");
    let engine = CertainEngine::new(2);
    let alice = v.constant("alice");
    let m1 = v.constant("m1");
    let m2 = v.constant("m2");
    let mut ok = gomq_core::Instance::new();
    ok.insert(Fact::consts(person, &[alice]));
    ok.insert(Fact::consts(hm, &[alice, m1]));
    assert!(!sys.instance_types(ok.store()).inconsistent);
    assert!(engine.consistency(&o, &ok, &mut v).is_consistent());
    // The named mother of a Person must be a Person (the ∃-witness cannot
    // be anyone else under functionality): Person(m1) is certain.
    let from_types = sys.certain_unary(ok.store(), person);
    assert!(from_types.contains(&Term::Const(m1)));
    let mut b = CqBuilder::new();
    let x = b.var("x");
    b.atom(person, &[x]);
    let q = Ucq::from_cq(b.build(vec![x]));
    assert!(engine
        .certain(&o, &ok, &q, &[Term::Const(m1)], &mut v)
        .is_certain());
    let mut bad = ok.clone();
    bad.insert(Fact::consts(hm, &[alice, m2]));
    assert!(sys.instance_types(bad.store()).inconsistent);
    assert!(!engine.consistency(&o, &bad, &mut v).is_consistent());
}
