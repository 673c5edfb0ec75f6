//! Shared fixtures for the benchmark harness and the table-regeneration
//! binaries.

#![warn(missing_docs)]

use gomq_core::{Fact, Instance, RelId, Vocab};
use gomq_dl::concept::{Concept, Role};
use gomq_dl::translate::to_gf;
use gomq_dl::DlOntology;
use gomq_logic::GfOntology;

/// The hand–finger ontologies `(O₁, O₂, O₁ ∪ O₂)` with `n` fingers.
pub fn hand_ontologies(
    n: u32,
    vocab: &mut Vocab,
) -> (GfOntology, GfOntology, GfOntology, RelId, RelId, RelId) {
    let hand = vocab.rel("Hand", 1);
    let thumb = vocab.rel("Thumb", 1);
    let hf_rel = vocab.rel("hasFinger", 2);
    let hf = Role::new(hf_rel);
    let mut dl1 = DlOntology::new();
    dl1.sub(Concept::Name(hand), Concept::exactly(n, hf, Concept::Top));
    let mut dl2 = DlOntology::new();
    dl2.sub(
        Concept::Name(hand),
        Concept::Exists(hf, Box::new(Concept::Name(thumb))),
    );
    let o1 = to_gf(&dl1);
    let o2 = to_gf(&dl2);
    let union = o1.union(&o2);
    (o1, o2, union, hand, thumb, hf_rel)
}

/// The hand instance with `n` explicit fingers.
pub fn hand_instance(n: usize, hand: RelId, hf: RelId, vocab: &mut Vocab) -> Instance {
    let h = vocab.constant("bench_hand");
    let mut d = Instance::new();
    d.insert(Fact::consts(hand, &[h]));
    for i in 0..n {
        let f = vocab.constant(&format!("bench_f{i}"));
        d.insert(Fact::consts(hf, &[h, f]));
    }
    d
}

/// A Horn subsumption-chain ontology `C₀ ⊑ C₁ ⊑ … ⊑ C_k` plus one
/// existential, for rewriting benchmarks.
pub fn horn_chain_ontology(k: usize, vocab: &mut Vocab) -> (GfOntology, Vec<RelId>, RelId) {
    let names: Vec<RelId> = (0..=k).map(|i| vocab.rel(&format!("HC{i}"), 1)).collect();
    let r = vocab.rel("HCr", 2);
    let mut dl = DlOntology::new();
    for w in names.windows(2) {
        dl.sub(Concept::Name(w[0]), Concept::Name(w[1]));
    }
    dl.sub(Concept::Name(names[k]), Concept::some(Role::new(r)));
    (to_gf(&dl), names, r)
}

/// An `R`-path instance with `C₀` at the start and propagation edges.
pub fn propagation_instance(len: usize, start: RelId, r: RelId, vocab: &mut Vocab) -> Instance {
    let mut d = Instance::new();
    let c0 = vocab.constant("bp0");
    d.insert(Fact::consts(start, &[c0]));
    for i in 0..len {
        let a = vocab.constant(&format!("bp{i}"));
        let b = vocab.constant(&format!("bp{}", i + 1));
        d.insert(Fact::consts(r, &[a, b]));
    }
    d
}

/// An ontology with a controllably wide type closure: a three-label
/// propagation cycle `TL0 ⊑ ∀R.TL1`, `TL1 ⊑ ∃R.TL2`, `TL2 ⊑ ∀R⁻.TL0`
/// plus `free` tautologically-axiomatised labels that enter the closure
/// without constraining it — each roughly doubles the number of
/// globally realizable types. Returns `(ontology, labels, role)` where
/// `labels` lists the three cycle labels followed by the free ones.
pub fn type_closure_ontology(free: usize, vocab: &mut Vocab) -> (GfOntology, Vec<RelId>, RelId) {
    let mut labels: Vec<RelId> = (0..3).map(|i| vocab.rel(&format!("TL{i}"), 1)).collect();
    let r = vocab.rel("TR", 2);
    let mut dl = DlOntology::new();
    dl.sub(
        Concept::Name(labels[0]),
        Concept::Forall(Role::new(r), Box::new(Concept::Name(labels[1]))),
    );
    dl.sub(
        Concept::Name(labels[1]),
        Concept::Exists(Role::new(r), Box::new(Concept::Name(labels[2]))),
    );
    dl.sub(
        Concept::Name(labels[2]),
        Concept::Forall(Role::inv(r), Box::new(Concept::Name(labels[0]))),
    );
    for i in 0..free {
        let f = vocab.rel(&format!("TF{i}"), 1);
        // Tautology: puts the label into the signature (hence the type
        // closure) without eliminating any type.
        dl.sub(Concept::Name(f), Concept::Name(f));
        labels.push(f);
    }
    (to_gf(&dl), labels, r)
}

/// A deterministic dense instance for type-propagation benchmarks: a
/// cycle `i → i+1` plus long-range chords `i → 7i+3 (mod n)`, with
/// label `j` asserted at every element divisible by `j + 2`.
pub fn type_bench_instance(n: usize, labels: &[RelId], r: RelId, vocab: &mut Vocab) -> Instance {
    let consts: Vec<_> = (0..n).map(|i| vocab.constant(&format!("tb{i}"))).collect();
    let mut d = Instance::new();
    for i in 0..n {
        d.insert(Fact::consts(r, &[consts[i], consts[(i + 1) % n]]));
        d.insert(Fact::consts(r, &[consts[i], consts[(i * 7 + 3) % n]]));
        for (j, &l) in labels.iter().enumerate() {
            if i % (j + 2) == 0 {
                d.insert(Fact::consts(l, &[consts[i]]));
            }
        }
    }
    d
}

/// A directed cycle over a binary relation.
pub fn cycle_instance(rel: RelId, n: usize, tag: &str, vocab: &mut Vocab) -> Instance {
    let mut d = Instance::new();
    for i in 0..n {
        let a = vocab.constant(&format!("{tag}{i}"));
        let b = vocab.constant(&format!("{tag}{}", (i + 1) % n));
        d.insert(Fact::consts(rel, &[a, b]));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let mut v = Vocab::new();
        let (o1, o2, u, hand, _, hf) = hand_ontologies(3, &mut v);
        assert!(o1.ugf_sentences.len() + o2.ugf_sentences.len() == u.ugf_sentences.len());
        let d = hand_instance(3, hand, hf, &mut v);
        assert_eq!(d.len(), 4);
        let (hc, names, r) = horn_chain_ontology(4, &mut v);
        assert_eq!(hc.ugf_sentences.len(), 5);
        let p = propagation_instance(10, names[0], r, &mut v);
        assert_eq!(p.len(), 11);
    }

    #[test]
    fn type_closure_fixture_is_wide() {
        let mut v = Vocab::new();
        let (o, labels, r) = type_closure_ontology(4, &mut v);
        assert_eq!(labels.len(), 7);
        let sys = gomq_rewriting::ElementTypeSystem::build(&o, &v).unwrap();
        // The acceptance bar for E13: at least 64 globally realizable types.
        assert!(sys.num_types() >= 64, "only {} types", sys.num_types());
        let d = type_bench_instance(20, &labels, r, &mut v);
        assert!(d.len() >= 40);
        let it = sys.instance_types(d.store());
        assert!(!it.inconsistent);
    }
}
