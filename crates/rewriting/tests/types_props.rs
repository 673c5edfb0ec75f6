//! Property test: the bitset AC-3 kernel (`instance_types`) computes
//! exactly the same per-instance fixpoint as the retained reference
//! implementation (`instance_types_reference`) — surviving sets,
//! inconsistency verdict and certain answers — on random ontologies
//! drawn from the full supported fragment, counting thresholds,
//! functionality and role hierarchies included, over random instances
//! with self-loops.

use gomq_core::{Fact, Instance, Vocab};
use gomq_dl::concept::{Concept, Role};
use gomq_dl::translate::to_gf;
use gomq_dl::DlOntology;
use gomq_rewriting::ElementTypeSystem;
use proptest::prelude::*;

/// One random axiom over 3 concept names and 2 roles. The pool spans
/// every kernel code path: plain boolean constraints, ∃/∀ propagation in
/// both orientations, qualified counting (`AtMost`), exact cardinalities
/// (which compile to ∃≥n plus ¬∃≥n+1), functionality (a counting
/// constraint), and role hierarchies (possibly inverted).
#[derive(Clone, Debug)]
enum Ax {
    Sub(u8, u8),
    NegSub(u8, u8),
    Exists(u8, bool, u8),
    Forall(u8, bool, u8),
    AtMost1(u8, bool, u8),
    Exactly2(u8, bool),
    Functional(bool),
    RoleSub(bool, bool),
}

/// `(axioms, edges, labels)`: edges are `(src, dst, role)` over 4
/// elements — `src == dst` self-loops included on purpose — and labels
/// assign concept names to elements.
type Case = (Vec<Ax>, Vec<(usize, usize, bool)>, Vec<(usize, u8)>);

fn strategy() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(
            prop_oneof![
                (0u8..3, 0u8..3).prop_map(|(a, b)| Ax::Sub(a, b)),
                (0u8..3, 0u8..3).prop_map(|(a, b)| Ax::NegSub(a, b)),
                (0u8..3, any::<bool>(), 0u8..3).prop_map(|(a, r, b)| Ax::Exists(a, r, b)),
                (0u8..3, any::<bool>(), 0u8..3).prop_map(|(a, r, b)| Ax::Forall(a, r, b)),
                (0u8..3, any::<bool>(), 0u8..3).prop_map(|(a, r, b)| Ax::AtMost1(a, r, b)),
                (0u8..3, any::<bool>()).prop_map(|(a, r)| Ax::Exactly2(a, r)),
                any::<bool>().prop_map(Ax::Functional),
                (any::<bool>(), any::<bool>()).prop_map(|(f, i)| Ax::RoleSub(f, i)),
            ],
            1..5,
        ),
        prop::collection::vec((0usize..4, 0usize..4, any::<bool>()), 0..7),
        prop::collection::vec((0usize..4, 0u8..3), 0..5),
    )
}

fn realize(
    axioms: &[Ax],
    edges: &[(usize, usize, bool)],
    labels: &[(usize, u8)],
    v: &mut Vocab,
) -> (gomq_logic::GfOntology, Instance, Vec<gomq_core::RelId>) {
    let names: Vec<_> = (0..3).map(|i| v.rel(&format!("P{i}"), 1)).collect();
    let roles = [v.rel("Ra", 2), v.rel("Rb", 2)];
    let role = |fwd: bool| Role::new(roles[usize::from(fwd)]);
    let mut dl = DlOntology::new();
    for ax in axioms {
        match *ax {
            Ax::Sub(a, b) => {
                dl.sub(
                    Concept::Name(names[a as usize]),
                    Concept::Name(names[b as usize]),
                );
            }
            Ax::NegSub(a, b) => {
                dl.sub(
                    Concept::Name(names[a as usize]),
                    Concept::Name(names[b as usize]).neg(),
                );
            }
            Ax::Exists(a, r, b) => {
                dl.sub(
                    Concept::Name(names[a as usize]),
                    Concept::Exists(role(r), Box::new(Concept::Name(names[b as usize]))),
                );
            }
            Ax::Forall(a, r, b) => {
                dl.sub(
                    Concept::Name(names[a as usize]),
                    Concept::Forall(role(r), Box::new(Concept::Name(names[b as usize]))),
                );
            }
            Ax::AtMost1(a, r, b) => {
                dl.sub(
                    Concept::Name(names[a as usize]),
                    Concept::AtMost(1, role(r), Box::new(Concept::Name(names[b as usize]))),
                );
            }
            Ax::Exactly2(a, r) => {
                dl.sub(
                    Concept::Name(names[a as usize]),
                    Concept::exactly(2, role(r), Concept::Top),
                );
            }
            Ax::Functional(r) => {
                dl.functional(role(r));
            }
            Ax::RoleSub(sub_fwd, inverted) => {
                let sup = if inverted {
                    Role::inv(roles[usize::from(!sub_fwd)])
                } else {
                    Role::new(roles[usize::from(!sub_fwd)])
                };
                dl.role_sub(role(sub_fwd), sup);
            }
        }
    }
    let consts: Vec<_> = (0..4).map(|i| v.constant(&format!("e{i}"))).collect();
    let mut d = Instance::new();
    for &(a, b, r) in edges {
        d.insert(Fact::consts(roles[usize::from(r)], &[consts[a], consts[b]]));
    }
    for &(a, n) in labels {
        d.insert(Fact::consts(names[n as usize], &[consts[a]]));
    }
    (to_gf(&dl), d, names)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitset_kernel_matches_reference((axioms, edges, labels) in strategy()) {
        let mut v = Vocab::new();
        let (o, d, names) = realize(&axioms, &edges, &labels, &mut v);
        let Ok(sys) = ElementTypeSystem::build(&o, &v) else {
            // Outside the fragment (shouldn't happen for this pool).
            return Ok(());
        };
        let fast = sys.instance_types(d.store());
        let slow = sys.instance_types_reference(d.store());
        prop_assert_eq!(fast.inconsistent, slow.inconsistent, "inconsistency verdict");
        prop_assert_eq!(&fast.surviving, &slow.surviving, "surviving type sets");
        for &rel in &names {
            prop_assert_eq!(
                sys.certain_unary(d.store(), rel),
                sys.certain_unary_reference(d.store(), rel),
                "certain answers for {:?}", rel
            );
        }
    }
}
