//! Served ≡ SQL cross-check: every generated non-recursive OMQ answers
//! identically on the native backend (the plan's bitset type kernel)
//! and on the emitted-SQL backend, and every recursive one is refused
//! with the typed `non-rewritable-to-sql` status — never answered
//! wrongly.
//!
//! The two pipelines share nothing past the element-type system: the
//! native path propagates surviving-type bitset rows over interned
//! terms, the SQL path renders the Datalog≠ rewriting as text and runs
//! it on the `gomq-sqlexec` nested-loop executor over string tables.
//! Agreement is therefore strong evidence that both implement the same
//! certain-answer semantics.

use gomq_core::{IndexedInstance, Vocab};
use gomq_datalog::Budget;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{Engine, Limits, OmqPlan, ServeConfig, ServeSession};
use proptest::prelude::*;
use std::sync::Mutex;

/// Renders a random pure concept hierarchy — always acyclic, so every
/// draw must compile to SQL.
fn hierarchy_text(axioms: &[(u8, u8)]) -> String {
    let mut text = String::new();
    for &(i, j) in axioms {
        text.push_str(&format!("A{} sub A{}\n", i % 5, j % 5));
    }
    text
}

/// Renders a random Horn ontology that may include existential role
/// axioms — those typically make the rewriting recursive.
fn role_text(axioms: &[(u8, u8, u8)]) -> String {
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
fn abox_text(facts: &[(u8, u8, u8)], roles: bool) -> String {
    let mut text = String::new();
    for &(r, c1, c2) in facts {
        match r % 6 {
            5 if roles => text.push_str(&format!("R(c{},c{})\n", c1 % 6, c2 % 6)),
            a => text.push_str(&format!("A{}(c{})\n", a % 5, c1 % 6)),
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure hierarchies always emit SQL, and the SQL answers equal the
    /// native answers on every random ABox.
    #[test]
    fn hierarchy_omqs_agree_across_backends(
        axioms in proptest::collection::vec((0u8..5, 0u8..5), 1..8),
        facts in proptest::collection::vec(
            (proptest::arbitrary::any::<u8>(), 0u8..6, 0u8..6),
            0..20,
        ),
        query_choice in 0u8..5,
    ) {
        let mut v = Vocab::new();
        let dl = parse_ontology(&hierarchy_text(&axioms), &mut v)
            .expect("generated ontology must parse");
        let o = to_gf(&dl);
        let query = match v.find_rel(&format!("A{}", query_choice % 5)) {
            Some(r) => r,
            None => return Ok(()), // queried concept absent in this draw
        };
        let plan = OmqPlan::compile(&o, query, &mut v)
            .expect("hierarchies are Horn, hence rewritable");
        prop_assert!(
            plan.sql.is_ok(),
            "a pure hierarchy must emit SQL, got {:?}",
            plan.sql.as_ref().err()
        );
        let abox = gomq_core::parse::parse_instance(&abox_text(&facts, false), &mut v)
            .expect("generated abox must parse");
        let indexed = IndexedInstance::from_interpretation(&abox);
        let engine = Engine::with_threads(2);
        let (native, _) = engine.answer_indexed(&plan, &indexed);
        let vocab = Mutex::new(v);
        let (sql, _) = engine
            .answer_indexed_sql(&plan, &indexed, &Budget::UNLIMITED, &vocab)
            .expect("non-recursive plan must run on the SQL backend");
        prop_assert_eq!(&sql, &native);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Role-bearing OMQs through the full serve path with
    /// `"backend": "sql"`: when the plan emits SQL the answers equal
    /// the native backend's, and when it does not the response is the
    /// typed refusal — a wrong answer set is never produced.
    #[test]
    fn served_sql_requests_agree_or_refuse(
        axioms in proptest::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..6),
        facts in proptest::collection::vec(
            (proptest::arbitrary::any::<u8>(), 0u8..6, 0u8..6),
            0..15,
        ),
        query_choice in 0u8..4,
    ) {
        let onto = role_text(&axioms);
        let query = format!("A{}", query_choice % 4);
        if !onto.contains(&query) {
            return Ok(()); // queried concept absent in this draw
        }
        let abox = abox_text(&facts, true);
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 2,
            limits: Limits::default(),
            ..ServeConfig::default()
        });
        let line = |backend: &str| {
            format!(
                r#"{{"ontology": {}, "query": {}, "abox": {}, "backend": "{backend}"}}"#,
                json_str(&onto),
                json_str(&query),
                json_str(&abox),
            )
        };
        let native = s.handle_line(&line("native"));
        let sql = s.handle_line(&line("sql"));
        if native.contains("\"status\": \"error\"") {
            // The OMQ itself is not rewritable (outside the element-type
            // class); the SQL backend must agree it is unanswerable.
            prop_assert!(!sql.contains("\"status\": \"ok\""), "sql answered: {sql}");
            return Ok(());
        }
        prop_assert!(native.contains("\"status\": \"ok\""), "native failed: {native}");
        if sql.contains("\"status\": \"non-rewritable-to-sql\"") {
            prop_assert!(sql.contains("recursive"), "untyped refusal: {sql}");
        } else {
            prop_assert!(sql.contains("\"status\": \"ok\""), "sql failed: {sql}");
            prop_assert_eq!(answers_of(&native), answers_of(&sql));
        }
        // Whatever happened, the session stays healthy.
        let again = s.handle_line(&line("native"));
        prop_assert!(again.contains("\"status\": \"ok\"") || again.contains("\"status\": \"error\""));
    }
}

/// JSON-encodes a string (the serve protocol takes ontology/ABox text
/// inline).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts the `"answers": [...]` slice of a response for comparison.
fn answers_of(response: &str) -> String {
    let from = response
        .find("\"answers\": ")
        .unwrap_or_else(|| panic!("no answers in {response}"));
    let to = response[from..]
        .find(", \"stats\"")
        .map(|i| from + i)
        .unwrap_or(response.len());
    response[from..to].to_string()
}

/// The paper's example families from `examples/data`, deterministically:
/// the role-free org chart runs on both backends with equal answers;
/// the role-bearing company ontology is SQL-refused but natively
/// answered; the transitive anatomy ontology is not rewritable at all.
#[test]
fn example_families_cross_check() {
    let read = |name: &str| {
        std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../examples/data")
                .join(name),
        )
        .unwrap()
    };
    let mut s = ServeSession::with_threads(2);
    let line = |onto: &str, query: &str, abox: &str, backend: &str| {
        format!(
            r#"{{"ontology": {}, "query": {}, "abox": {}, "backend": "{backend}"}}"#,
            json_str(onto),
            json_str(query),
            json_str(abox),
        )
    };

    let org = read("org.dl");
    let org_facts = read("org.facts");
    let native = s.handle_line(&line(&org, "Person", &org_facts, "native"));
    let sql = s.handle_line(&line(&org, "Person", &org_facts, "sql"));
    assert!(native.contains("\"status\": \"ok\""), "native: {native}");
    assert!(sql.contains("\"status\": \"ok\""), "sql: {sql}");
    assert_eq!(answers_of(&native), answers_of(&sql));
    for name in ["ada", "grace", "alan"] {
        assert!(
            sql.contains(&format!("[\"{name}\"]")),
            "missing {name}: {sql}"
        );
    }

    let company = read("company.dl");
    let company_facts = read("company.facts");
    let native = s.handle_line(&line(&company, "Employee", &company_facts, "native"));
    let refused = s.handle_line(&line(&company, "Employee", &company_facts, "sql"));
    assert!(native.contains("\"status\": \"ok\""), "native: {native}");
    assert!(
        refused.contains("\"status\": \"non-rewritable-to-sql\""),
        "expected typed refusal: {refused}"
    );

    let anatomy = read("anatomy.dl");
    let anatomy_facts = read("anatomy.facts");
    let err = s.handle_line(&line(&anatomy, "Organ", &anatomy_facts, "sql"));
    assert!(err.contains("\"status\": \"error\""), "anatomy: {err}");
}
