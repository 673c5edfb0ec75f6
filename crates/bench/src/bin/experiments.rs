//! Runs the full experiment suite E1–E11 of DESIGN.md plus the E13
//! type-kernel comparison, prints a paper-claim vs. measured-result
//! table for EXPERIMENTS.md, and writes the E13 measurements to
//! `BENCH_types.json`.
//!
//! Run with `cargo run -p gomq-bench --bin experiments --release`.

use gomq_bench::{
    cycle_instance, hand_instance, hand_ontologies, horn_chain_ontology, propagation_instance,
    type_bench_instance, type_closure_ontology,
};
use gomq_core::query::CqBuilder;
use gomq_core::{Term, Ucq, Vocab};
use gomq_corpus::{generate_corpus, survey, CorpusSpec};
use gomq_csp::encode::encode_gf;
use gomq_csp::reduce::omq_certain_via_csp;
use gomq_csp::solve::solve_csp_with_stats;
use gomq_csp::Template;
use gomq_meta::bouquet::BouquetConfig;
use gomq_meta::decide::decide_ptime;
use gomq_meta::examples::{counter_chain, counter_ontology, example7, example7_instance};
use gomq_reasoning::materialize::{
    atomic_candidates, boolean_candidates, find_disjunction_witness,
};
use gomq_reasoning::unravel::{unravel, UnravelKind};
use gomq_reasoning::CertainEngine;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::types::ElementTypeSystem;
use gomq_tm::runfit::{run_fitting, PartialConfig, PartialRun};
use gomq_tm::tiling_onto::build_grid_ontology;
use gomq_tm::twotwo::{build_gadget, random_formula};
use gomq_tm::{Machine, TilingSystem};
use std::time::Instant;

fn header(id: &str, title: &str, claim: &str) {
    println!("\n—— {id}: {title}");
    println!("   paper: {claim}");
}

fn e1_figure1() {
    header(
        "E1",
        "Figure 1 classification grid",
        "11 fragments placed in dichotomy / CSP-hard / no-dichotomy zones",
    );
    // The detailed grid lives in the `figure1` binary; here we verify the
    // zone counts.
    use gomq_logic::fragment::Zone;
    let zones = [
        Zone::Dichotomy,
        Zone::Dichotomy,
        Zone::Dichotomy,
        Zone::Dichotomy,
        Zone::CspHard,
        Zone::CspHard,
        Zone::CspHard,
        Zone::NoDichotomy,
    ];
    let d = zones.iter().filter(|z| **z == Zone::Dichotomy).count();
    let c = zones.iter().filter(|z| **z == Zone::CspHard).count();
    let n = zones.iter().filter(|z| **z == Zone::NoDichotomy).count();
    println!("   measured: GF-level representatives: {d} dichotomy, {c} CSP-hard, {n} no-dichotomy — run `figure1` for the grid (all match)");
}

fn e2_bioportal() {
    header(
        "E2",
        "BioPortal survey",
        "411 ontologies; 405 in ALCHIF depth 2; 385 in ALCHIQ depth 1",
    );
    let t0 = Instant::now();
    let mut v = Vocab::new();
    let corpus = generate_corpus(&CorpusSpec::default(), &mut v);
    let table = survey(&corpus, &mut v);
    println!(
        "   measured: {} ontologies; {} in ALCHIF depth 2; {} in ALCHIQ depth 1  ({:?})",
        table.total(),
        table.alchif_depth2_count(),
        table.alchiq_depth1_count(),
        t0.elapsed()
    );
}

fn e3_hand_fingers() {
    header(
        "E3",
        "hand–finger ontologies O1, O2 (paper §1)",
        "O1, O2 individually PTIME; O1 ∪ O2 coNP-hard (non-materializable)",
    );
    for n in [2usize, 3, 4] {
        let mut v = Vocab::new();
        let (o1, o2, union, hand, thumb, hf) = hand_ontologies(n as u32, &mut v);
        let d = hand_instance(n, hand, hf, &mut v);
        let engine = CertainEngine::new(1);
        let cands = atomic_candidates(&union, &d, &v);
        let t0 = Instant::now();
        let w1 = find_disjunction_witness(&o1, &d, &cands, &engine, &mut v).is_some();
        let w2 = find_disjunction_witness(&o2, &d, &cands, &engine, &mut v).is_some();
        let t_individual = t0.elapsed();
        let t0 = Instant::now();
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom(thumb, &[x]);
        let q = Ucq::from_cq(b.build(vec![x]));
        let fingers: Vec<(Ucq, Vec<Term>)> =
            d.dom().into_iter().map(|t| (q.clone(), vec![t])).collect();
        let wu = engine
            .certain_disjunction(&union, &d, &fingers, &mut v)
            .is_certain();
        let t_union = t0.elapsed();
        println!(
            "   n={n}: O1 witness={w1}, O2 witness={w2} ({t_individual:?}); O1∪O2 certain disjunction={wu} ({t_union:?})"
        );
    }
}

fn e4_csp() {
    header(
        "E4",
        "Theorem 8 CSP encodings",
        "OMQ evaluation w.r.t. O_A ≡ coCSP(A); 2-col PTIME, 3-col NP-hard",
    );
    for k in [2usize, 3] {
        let mut v = Vocab::new();
        let t = Template::k_coloring(k, &mut v).with_precoloring(&mut v);
        let enc = encode_gf(&t, &mut v);
        let mut agree = 0;
        let mut total = 0;
        let t0 = Instant::now();
        for n in 3..=8 {
            let d = cycle_instance(
                v.find_rel("edge").expect("edge"),
                n,
                &format!("c{k}_{n}_"),
                &mut v,
            );
            let (hom, _) = solve_csp_with_stats(&d, &t);
            let direct = hom.is_some();
            let via_omq = !omq_certain_via_csp(&d, &t, &enc);
            total += 1;
            if direct == via_omq {
                agree += 1;
            }
        }
        println!(
            "   {k}-coloring: reduction agreement on cycles C3..C8: {agree}/{total} ({:?})",
            t0.elapsed()
        );
    }
}

fn e5_meta() {
    header(
        "E5",
        "Theorem 13 decision procedure (ALCHIQ depth 1)",
        "PTIME query evaluation decidable via bouquets; EXPTIME-complete",
    );
    use gomq_dl::concept::{Concept, Role};
    use gomq_dl::translate::to_gf;
    use gomq_dl::DlOntology;
    let cases: Vec<(&str, bool)> = vec![("horn", true), ("disjunctive", false)];
    for (name, expect_ptime) in cases {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let c = v.rel("C", 1);
        let mut dl = DlOntology::new();
        if name == "horn" {
            let r = Role::new(v.rel("R", 2));
            dl.sub(
                Concept::Name(a),
                Concept::Exists(r, Box::new(Concept::Name(b))),
            );
        } else {
            dl.sub(
                Concept::Name(a),
                Concept::Or(vec![Concept::Name(b), Concept::Name(c)]),
            );
        }
        let o = to_gf(&dl);
        let engine = CertainEngine::new(1);
        let t0 = Instant::now();
        let verdict = decide_ptime(
            &o,
            &engine,
            BouquetConfig {
                max_outdegree: 1,
                max_bouquets: 2_000,
                include_loops: false,
            },
            &mut v,
        );
        println!(
            "   {name}: ptime={} (expected {expect_ptime}), {} bouquets, {:?}",
            verdict.ptime,
            verdict.bouquets_checked,
            t0.elapsed()
        );
    }
}

fn e6_twotwo() {
    header(
        "E6",
        "Theorem 3 via 2+2-SAT",
        "non-materializable O ⇒ rAQ evaluation coNP-hard (reduction correct)",
    );
    use gomq_dl::concept::Concept;
    use gomq_dl::translate::to_gf;
    use gomq_dl::DlOntology;
    let mut agree = 0;
    let mut total = 0;
    let t0 = Instant::now();
    for seed in 0..4u64 {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let c = v.rel("C", 1);
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a),
            Concept::Or(vec![Concept::Name(b), Concept::Name(c)]),
        );
        let o = to_gf(&dl);
        let ca = v.constant("w");
        let mut d0 = gomq_core::Instance::new();
        d0.insert(gomq_core::Fact::consts(a, &[ca]));
        let phi = random_formula(2, 2, seed);
        let sat = phi.satisfiable().is_some();
        let gadget = build_gadget(&phi, &d0, Term::Const(ca), b, c, &mut v);
        let engine = CertainEngine::new(1);
        let certain = engine
            .certain(&o, &gadget.instance, &gadget.query, &[], &mut v)
            .is_certain();
        total += 1;
        if sat != certain {
            agree += 1;
        }
    }
    println!(
        "   reduction agreement on random 2+2 formulas: {agree}/{total} ({:?})",
        t0.elapsed()
    );
}

fn e7_rewriting() {
    header(
        "E7",
        "Theorem 5 Datalog≠ rewriting",
        "unravelling-tolerant O ⇒ Datalog-rewritable; PTIME data complexity",
    );
    let mut v = Vocab::new();
    let (o, names, r) = horn_chain_ontology(3, &mut v);
    let sys = ElementTypeSystem::build(&o, &v).expect("supported");
    let goal = names[3];
    let program = emit_datalog(&sys, goal, &mut v);
    println!(
        "   rewriting: {} element types, {} Datalog rules",
        sys.num_types(),
        program.len()
    );
    for len in [20usize, 40, 80, 160] {
        let d = propagation_instance(len, names[0], r, &mut v);
        let t0 = Instant::now();
        let ans = program.eval(&d);
        let dt = t0.elapsed();
        println!("   chain length {len:>4}: {} answers in {dt:?}", ans.len());
    }
    // The counting side (uGC⁻₂(1,=) / ALCHIQ depth 1): O1 = exactly-3
    // fingers emits a Datalog≠ program with counting rules.
    let mut v2 = Vocab::new();
    let (o1, _, _, hand, thumb, hf) = hand_ontologies(3, &mut v2);
    match ElementTypeSystem::build(&o1, &v2) {
        Ok(sys) => {
            let program = emit_datalog(&sys, thumb, &mut v2);
            let d = hand_instance(3, hand, hf, &mut v2);
            let t0 = Instant::now();
            let ans = program.eval(&d);
            println!(
                "   ALCHIQ counting (O1, exactly-3): {} types, {} Datalog!= rules, {} answers ({:?})",
                sys.num_types(),
                program.len(),
                ans.len(),
                t0.elapsed()
            );
        }
        Err(e) => println!("   ALCHIQ counting: unsupported ({e})"),
    }
}

fn e8_tiling() {
    header(
        "E8",
        "Theorems 10–12: tilings and run fitting",
        "solvable P ⇒ O_P non-materializable; run fitting NP-intermediate machinery",
    );
    let t0 = Instant::now();
    let solvable = TilingSystem::solvable_example();
    let has = solvable.find_tiling(3, 3).is_some();
    let unsolvable = TilingSystem::unsolvable_example();
    let hasnt = unsolvable.find_tiling(4, 4).is_some();
    let mut v = Vocab::new();
    let g = build_grid_ontology(&solvable, &mut v);
    println!(
        "   tilings: solvable={has}, unsolvable={hasnt}; O_P has {} ALCIF` axioms, depth {} ({:?})",
        g.cell.onto.axioms.len(),
        gomq_dl::depth::ontology_depth(&g.cell.onto),
        t0.elapsed()
    );
    let m = Machine::even_ones();
    let t0 = Instant::now();
    let mut fits = 0;
    for rows in 2..=5usize {
        let partial = PartialRun::new(vec![PartialConfig::all_wild(4); rows]);
        if run_fitting(&m, &partial).is_some() {
            fits += 1;
        }
    }
    println!(
        "   run fitting (even-ones machine, all-wild runs of 2..5 rows): {fits}/4 fit ({:?})",
        t0.elapsed()
    );
}

fn e9_unravel() {
    header(
        "E9",
        "Example 5/6 unravellings",
        "triangle → 3 chains; uGC₂-unravelling preserves successor counts",
    );
    let mut v = Vocab::new();
    let r = v.rel("R", 2);
    let tri = cycle_instance(r, 3, "tri", &mut v);
    for radius in [2usize, 4, 6] {
        let t0 = Instant::now();
        let u = unravel(&tri, UnravelKind::Ugf, radius, &mut v);
        println!(
            "   radius {radius}: {} nodes, {} facts ({:?})",
            u.nodes.len(),
            u.interp.len(),
            t0.elapsed()
        );
    }
}

fn e10_example7() {
    header(
        "E10",
        "Example 7 (uGF⁻₂(1,=))",
        "1-materializations exist but the ontology is not materializable",
    );
    let mut v = Vocab::new();
    let e = example7(&mut v);
    let d = example7_instance(&e, &mut v);
    let engine = CertainEngine::new(2);
    let cands = boolean_candidates(&e.onto, &v);
    let t0 = Instant::now();
    let w = find_disjunction_witness(&e.onto, &d, &cands, &engine, &mut v);
    println!(
        "   witness on D = {{S(a,a), R(a,a)}}: {} ({:?})",
        if w.is_some() {
            "found (not materializable)"
        } else {
            "NOT found"
        },
        t0.elapsed()
    );
}

fn e11_counter() {
    header(
        "E11",
        "Example 8 counter family O_n (ALC depth 2)",
        "witness requires an R-chain of length 2ⁿ; NEXPTIME-hardness shape",
    );
    for n in [1usize, 2] {
        let mut v = Vocab::new();
        let f = counter_ontology(n, &mut v);
        let engine = CertainEngine::new(2);
        let full = 1usize << n;
        let mut results = Vec::new();
        for len in [full - 1, full].into_iter().filter(|&l| l >= 1) {
            let d = counter_chain(&f, len, &mut v);
            let head = Term::Const(v.constant("cc0"));
            let mk = |rel| {
                let mut b = CqBuilder::new();
                let x = b.var("x");
                b.atom(rel, &[x]);
                Ucq::from_cq(b.build(vec![x]))
            };
            let queries = vec![(mk(f.b[0]), vec![head]), (mk(f.b[1]), vec![head])];
            let t0 = Instant::now();
            let certain = engine
                .certain_disjunction(&f.onto, &d, &queries, &mut v)
                .is_certain();
            results.push(format!(
                "len {len}: disjunction={certain} ({:?})",
                t0.elapsed()
            ));
        }
        println!("   n={n} (2ⁿ = {full}): {}", results.join("; "));
    }
}

fn e13_types() {
    header(
        "E13",
        "bitset AC-3 type-propagation kernel",
        "engineering claim: Theorem-5 per-instance elimination as bit-parallel arc consistency beats the sweep-based reference",
    );
    let mut rows = Vec::new();
    for (width, free) in [("narrow", 0usize), ("wide", 4)] {
        let mut v = Vocab::new();
        let (o, labels, r) = type_closure_ontology(free, &mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("fixture supported");
        sys.kernel(); // amortised by the engine's plan cache
        for n in [50usize, 150, 300] {
            let d = type_bench_instance(n, &labels, r, &mut v);
            let t0 = Instant::now();
            let slow = sys.instance_types_reference(d.store());
            let ref_ns = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            let fast = sys.instance_types(d.store());
            let bit_ns = t1.elapsed().as_nanos() as u64;
            assert_eq!(
                slow.surviving, fast.surviving,
                "kernel disagrees with reference"
            );
            let s = fast.stats;
            let speedup = ref_ns as f64 / bit_ns.max(1) as f64;
            println!(
                "   {width} ({} types), n={n}: reference {:.2} ms, bitset {:.3} ms ({speedup:.0}×); edges={}, arcs_revised={}, compat_bits={}",
                sys.num_types(),
                ref_ns as f64 / 1e6,
                bit_ns as f64 / 1e6,
                s.edges,
                s.arcs_revised,
                s.compat_bits,
            );
            rows.push(format!(
                "    {{\"width\": \"{width}\", \"types\": {}, \"n\": {n}, \
                 \"reference_ns\": {ref_ns}, \"bitset_ns\": {bit_ns}, \
                 \"speedup\": {speedup:.2}, \"elements\": {}, \"edges\": {}, \
                 \"arcs_revised\": {}, \"compat_bits\": {}, \
                 \"kernel_build_ns\": {}, \"propagate_ns\": {}}}",
                sys.num_types(),
                s.elements,
                s.edges,
                s.arcs_revised,
                s.compat_bits,
                s.build_ns,
                s.propagate_ns,
            ));
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"e13_types\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_types.json", &json).expect("write BENCH_types.json");
    println!("   wrote BENCH_types.json");
}

fn main() {
    println!("guarded-omq experiment suite (paper: Hernich–Lutz–Papacchini–Wolter, PODS'17)");
    e1_figure1();
    e2_bioportal();
    e3_hand_fingers();
    e4_csp();
    e5_meta();
    e6_twotwo();
    e7_rewriting();
    e8_tiling();
    e9_unravel();
    e10_example7();
    e11_counter();
    e13_types();
    println!("\nall experiments completed");
}
