//! Example 6 and §4: unravelling tolerance, demonstrated end-to-end.
//!
//! The odd-cycle ontology entails `E(a)` on a triangle (every model
//! 2-colours the cycle with `A`, and an odd cycle forces a monochromatic
//! edge). Its uGF-unravelling consists of three chains — there `E` is
//! refutable, so the ontology is **not** unravelling tolerant, which by
//! the contrapositive of Theorem 6 means it is not materializable for
//! cg-tree decomposable instances (and indeed it is coNP-hard: it encodes
//! 2-colouring).

use gomq_core::query::CqBuilder;
use gomq_core::{Term, Ucq, Vocab};
use gomq_logic::{Formula, GfOntology, Guard, LVar, UgfSentence};
use gomq_reasoning::unravel::{unravel, UnravelKind};
use gomq_reasoning::CertainEngine;
use gomq_xtests::{odd_cycle_ontology, r_cycle};

#[test]
fn odd_cycle_entails_e_on_triangle() {
    let mut v = Vocab::new();
    let odd = odd_cycle_ontology(&mut v);
    let (r, _, e) = odd.rels;
    let d = r_cycle(r, 3, "tri", &mut v);
    let engine = CertainEngine::new(1);
    let mut b = CqBuilder::new();
    let x = b.var("x");
    b.atom(e, &[x]);
    let q = Ucq::from_cq(b.build(vec![x]));
    for elem in d.dom() {
        assert!(
            engine
                .certain(&odd.onto, &d, &q, &[elem], &mut v)
                .is_certain(),
            "E is certain at every element of an odd cycle"
        );
    }
}

#[test]
fn even_cycle_does_not_entail_e() {
    let mut v = Vocab::new();
    let odd = odd_cycle_ontology(&mut v);
    let (r, _, e) = odd.rels;
    let d = r_cycle(r, 4, "sq", &mut v);
    let engine = CertainEngine::new(1);
    let mut b = CqBuilder::new();
    let x = b.var("x");
    b.atom(e, &[x]);
    let q = Ucq::from_cq(b.build(vec![x]));
    let elem = *d.dom().iter().next().expect("non-empty");
    assert!(
        !engine
            .certain(&odd.onto, &d, &q, &[elem], &mut v)
            .is_certain(),
        "an even cycle is 2-colourable, so E is refutable"
    );
}

#[test]
fn e_is_refutable_on_the_unravelling() {
    // The failure of implication (1) ⇒ (2) of Definition 3.
    let mut v = Vocab::new();
    let odd = odd_cycle_ontology(&mut v);
    let (r, _, e) = odd.rels;
    let d = r_cycle(r, 3, "tri", &mut v);
    let u = unravel(&d, UnravelKind::Ugf, 3, &mut v);
    // The unravelling is acyclic, hence 2-colourable by A: E refutable at
    // the copy of any element.
    let engine = CertainEngine::new(1);
    let mut b = CqBuilder::new();
    let x = b.var("x");
    b.atom(e, &[x]);
    let q = Ucq::from_cq(b.build(vec![x]));
    let original = Term::Const(v.constant("tri0"));
    let g_idx = u
        .guarded_set_of(&[original])
        .expect("tri0 lies in a maximal guarded set");
    let copy = u.root_copy(g_idx, original).expect("copy exists");
    assert!(
        !engine
            .certain(&odd.onto, &u.interp, &q, &[copy], &mut v)
            .is_certain(),
        "O,Dᵘ ⊭ E(b): the ontology is not unravelling tolerant"
    );
}

#[test]
fn counting_entailment_differs_between_unravellings() {
    // §4's point made with certain answers: O = {∀x(∃≥4y R(x,y) → A(x))}
    // entails A at an inflated root copy of the uGF-unravelling of the
    // 3-child star, but nowhere on the uGC₂-unravelling — so only the
    // uGC₂-unravelling is sound for counting ontologies. (The per-instance
    // computation uses the exact-on-trees type elimination.)
    use gomq_rewriting::types::ElementTypeSystem;
    let mut v = Vocab::new();
    let r = v.rel("Rstar2", 2);
    let a_rel = v.rel("Astar2", 1);
    let (x, y) = (LVar(0), LVar(1));
    let onto = GfOntology::from_ugf(vec![UgfSentence::forall_one(
        x,
        Formula::implies(
            Formula::CountExists {
                n: 4,
                qvar: y,
                guard: Guard::Atom {
                    rel: r,
                    args: vec![x, y],
                },
                body: Box::new(Formula::True),
            },
            Formula::unary(a_rel, x),
        ),
        vec!["x".into(), "y".into()],
    )]);
    let root = v.constant("st2_root");
    let mut d = gomq_core::Instance::new();
    for i in 0..3 {
        let c = v.constant(&format!("st2_c{i}"));
        d.insert(gomq_core::Fact::consts(r, &[root, c]));
    }
    let sys = ElementTypeSystem::build(&onto, &v).expect("counting supported");
    // On D itself: nothing certain.
    assert!(sys.certain_unary(d.store(), a_rel).is_empty());
    // uGF-unravelling: some copy of the root accumulates ≥ 4 successors,
    // so A becomes certain there — the unsoundness the paper fixes with
    // condition (c′).
    let ugf = unravel(&d, UnravelKind::Ugf, 4, &mut v);
    let certain_ugf = sys.certain_unary(ugf.interp.store(), a_rel);
    assert!(
        !certain_ugf.is_empty(),
        "the uGF-unravelling entails A at an inflated copy"
    );
    let root_term = Term::Const(root);
    assert!(certain_ugf.iter().all(|t| ugf.up[t] == root_term));
    // uGC₂-unravelling: counts preserved, nothing certain.
    let ugc = unravel(&d, UnravelKind::Ugc2, 4, &mut v);
    assert!(sys.certain_unary(ugc.interp.store(), a_rel).is_empty());
}

#[test]
fn counting_needs_the_ugc2_unravelling() {
    // §4's counting example: O = { ∀x(∃≥3y R(x,y) → A(x)) } on the star.
    // The uGF-unravelling inflates successor counts (entailing A at a copy
    // of the root), the uGC₂-unravelling does not.
    let mut v = Vocab::new();
    let r = v.rel("Rstar", 2);
    let a_rel = v.rel("Astar", 1);
    let (x, y) = (LVar(0), LVar(1));
    let onto = GfOntology::from_ugf(vec![UgfSentence::forall_one(
        x,
        Formula::implies(
            Formula::CountExists {
                n: 4,
                qvar: y,
                guard: Guard::Atom {
                    rel: r,
                    args: vec![x, y],
                },
                body: Box::new(Formula::True),
            },
            Formula::unary(a_rel, x),
        ),
        vec!["x".into(), "y".into()],
    )]);
    // Star with 3 children: no element has 4 successors in D.
    let root = v.constant("st_root");
    let mut d = gomq_core::Instance::new();
    for i in 0..3 {
        let c = v.constant(&format!("st_c{i}"));
        d.insert(gomq_core::Fact::consts(r, &[root, c]));
    }
    let engine = CertainEngine::new(1);
    let mut b = CqBuilder::new();
    let qx = b.var("x");
    b.atom(a_rel, &[qx]);
    let q = Ucq::from_cq(b.build(vec![qx]));
    // Not certain on D itself.
    assert!(!engine
        .certain(&onto, &d, &q, &[Term::Const(root)], &mut v)
        .is_certain());
    // The uGF-unravelling can inflate a root copy to ≥3 successors.
    let ugf = unravel(&d, UnravelKind::Ugf, 4, &mut v);
    let root_term = Term::Const(root);
    let max_ugf = ugf
        .up
        .iter()
        .filter(|(_, &orig)| orig == root_term)
        .map(|(&c, _)| ugf.interp.facts_of(r).filter(|f| f.args[0] == c).count())
        .max()
        .unwrap_or(0);
    assert!(max_ugf >= 4, "uGF-unravelling inflates counts: {max_ugf}");
    // The uGC₂-unravelling preserves counts.
    let ugc = unravel(&d, UnravelKind::Ugc2, 4, &mut v);
    let max_ugc = ugc
        .up
        .iter()
        .filter(|(_, &orig)| orig == root_term)
        .map(|(&c, _)| ugc.interp.facts_of(r).filter(|f| f.args[0] == c).count())
        .max()
        .unwrap_or(0);
    assert!(max_ugc <= 3, "uGC₂-unravelling preserves counts: {max_ugc}");
}
