//! Stress tests for the hardened serving path: single-flight plan
//! compilation under thread contention, LRU capacity bounds, budget
//! exhaustion, panic isolation, and the E16 adversarial request stream
//! (see EXPERIMENTS.md) — all through the public `ServeSession` JSONL
//! surface.

use gomq_engine::cache::PlanCache;
use gomq_engine::{Engine, Limits, ServeConfig, ServeSession, ServeShared};
use std::sync::Arc;
use std::thread;

fn request(id: &str, ontology: &str, query: &str, abox: &str) -> String {
    format!(
        r#"{{"id": "{id}", "ontology": "{}", "query": "{query}", "abox": "{}"}}"#,
        ontology.replace('\n', "\\n"),
        abox.replace('\n', "\\n"),
    )
}

/// N threads hammer one shared engine with the same small set of OMQs:
/// every distinct OMQ compiles exactly once (single flight), everything
/// else is a verified cache hit, and every response is correct.
#[test]
fn concurrent_sessions_compile_each_omq_once() {
    const THREADS: usize = 8;
    const ITERS: usize = 5;
    const OMQS: usize = 4;
    let shared = Arc::new(ServeShared::with_config(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                let mut session = ServeSession::with_shared(shared);
                for iter in 0..ITERS {
                    for omq in 0..OMQS {
                        let ontology = format!("K{omq}A sub K{omq}B\nK{omq}B sub K{omq}C");
                        let abox = format!("K{omq}A(t{t}i{iter})");
                        let resp = session.handle_line(&request(
                            &format!("t{t}-{iter}-{omq}"),
                            &ontology,
                            &format!("K{omq}C"),
                            &abox,
                        ));
                        assert!(
                            resp.contains("\"status\": \"ok\""),
                            "thread {t} iter {iter} omq {omq}: {resp}"
                        );
                        assert!(
                            resp.contains(&format!(r#"[["t{t}i{iter}"]]"#)),
                            "wrong answers: {resp}"
                        );
                    }
                }
            });
        }
    });
    let stats = shared.engine().stats();
    let lookups = (THREADS * ITERS * OMQS) as u64;
    assert_eq!(stats.cache_misses, OMQS as u64, "one compile per OMQ");
    assert_eq!(stats.cache_hits, lookups - OMQS as u64);
    assert_eq!(stats.cache_size, OMQS as u64);
    assert_eq!(stats.requests, lookups);
    assert_eq!(stats.overloaded, 0);
    assert_eq!(stats.panics, 0);
}

/// A capacity-2 cache serving four OMQs never grows past its cap and
/// keeps answering correctly through evictions and recompiles.
#[test]
fn lru_cache_stays_bounded_across_requests() {
    let mut session = ServeSession::with_config(ServeConfig {
        threads: 1,
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    for round in 0..3 {
        for omq in 0..4 {
            let ontology = format!("L{omq}A sub L{omq}B");
            let resp = session.handle_line(&request(
                &format!("r{round}-{omq}"),
                &ontology,
                &format!("L{omq}B"),
                &format!("L{omq}A(c{round})"),
            ));
            assert!(resp.contains("\"status\": \"ok\""), "{resp}");
            assert!(resp.contains(&format!(r#"[["c{round}"]]"#)), "{resp}");
            assert!(session.engine().cache().len() <= 2, "cache over capacity");
        }
    }
    let stats = session.engine().stats();
    assert!(stats.cache_size <= 2);
    assert!(stats.evictions >= 2, "stats: {stats:?}");
    // Cycling through 4 OMQs with room for 2 forces recompiles.
    assert!(stats.cache_misses > 4, "stats: {stats:?}");
}

/// A budget-exhausted request answers "overloaded" and leaves the
/// session fully serviceable — including for the very same OMQ.
#[test]
fn exhausted_budgets_leave_the_session_healthy() {
    let mut session = ServeSession::with_threads(2);
    let chain = (0..10)
        .map(|i| format!("C{i} sub C{}\n", i + 1))
        .collect::<String>();
    let big_abox = (0..100).map(|i| format!("C0(x{i})\n")).collect::<String>();
    let mut blow = request("blow", &chain, "C10", &big_abox);
    blow.truncate(blow.len() - 1);
    blow.push_str(r#", "limits": {"max_derived": 5}}"#);
    let resp = session.handle_line(&blow);
    assert!(resp.contains("\"status\": \"overloaded\""), "{resp}");
    assert!(resp.contains("\"limit\": \"derived\""), "{resp}");

    let mut timed = request("timed", &chain, "C10", "C0(y)");
    timed.truncate(timed.len() - 1);
    timed.push_str(r#", "limits": {"timeout_ms": 0}}"#);
    let resp = session.handle_line(&timed);
    assert!(resp.contains("\"status\": \"overloaded\""), "{resp}");
    assert!(resp.contains("\"limit\": \"deadline\""), "{resp}");

    // Unlimited retry of the same OMQ (already cached) succeeds.
    let resp = session.handle_line(&request("ok", &chain, "C10", "C0(z)"));
    assert!(resp.contains("\"status\": \"ok\""), "{resp}");
    assert!(resp.contains(r#"[["z"]]"#), "{resp}");
    let stats = session.engine().stats();
    assert_eq!(stats.overloaded, 2);
    assert_eq!(stats.cache_misses, 1, "one compile covers all three");
}

/// The E16 adversarial stream: a forced-collision cache (every OMQ
/// hashes to the same bucket), a non-rewritable OMQ, a budget-blowing
/// ABox, and a panicking input — interleaved with good requests. Every
/// line gets a structured response, later answers stay correct, and the
/// cache never exceeds its cap.
#[test]
fn adversarial_stream_is_fully_survivable() {
    fn colliding(_: &str) -> u64 {
        0x42
    }
    let engine = Engine::with_cache(2, PlanCache::with_capacity_and_hasher(2, colliding));
    let shared = Arc::new(ServeShared::with_engine(engine, Limits::default()));
    let mut session = ServeSession::with_shared(Arc::clone(&shared));

    // A 21-concept cycle: its closure needs more than 20 bits, which the
    // element-type construction rejects — a protocol-reachable
    // non-rewritable OMQ.
    let big_cycle = (0..21)
        .map(|i| format!("A{i} sub A{}\n", (i + 1) % 21))
        .collect::<String>();
    let chain = (0..10)
        .map(|i| format!("C{i} sub C{}\n", i + 1))
        .collect::<String>();
    let big_abox = (0..100).map(|i| format!("C0(x{i})\n")).collect::<String>();
    let mut blow = request("blow", &chain, "C10", &big_abox);
    blow.truncate(blow.len() - 1);
    blow.push_str(r#", "limits": {"max_derived": 5}}"#);

    let stream: Vec<(String, &str)> = vec![
        // Two different OMQs that collide in the hash: the full-text
        // check must keep their plans apart.
        (request("c1", "P sub Q", "Q", "P(p)"), r#"[["p"]]"#),
        (request("c2", "X sub Y", "Y", "X(x)"), r#"[["x"]]"#),
        // Non-rewritable: structured error, negatively cached.
        (
            request("nr", &big_cycle, "A0", "A0(a)"),
            "not element-type rewritable",
        ),
        // Budget blowup.
        (blow, "\"status\": \"overloaded\""),
        // Panicking input (arity clash on R inside the DL parser).
        (
            request("boom", "A sub ex R.A\nR sub B", "B", ""),
            "panic isolated",
        ),
        // The same colliding OMQs again: still correct, now cache hits
        // (or clean recompiles after eviction, never wrong answers).
        (request("c1b", "P sub Q", "Q", "P(pp)"), r#"[["pp"]]"#),
        (request("c2b", "X sub Y", "Y", "X(xx)"), r#"[["xx"]]"#),
        // The non-rewritable OMQ again: the cached failure replays.
        (
            request("nrb", &big_cycle, "A0", "A0(a)"),
            "not element-type rewritable",
        ),
        // And a fresh good request to close the stream.
        (request("end", "M sub N", "N", "M(m)"), r#"[["m"]]"#),
    ];
    for (line, expect) in &stream {
        let resp = session.handle_line(line);
        assert!(resp.contains(expect), "expected {expect:?} in {resp}");
        assert!(
            resp.contains("\"status\": "),
            "unstructured response: {resp}"
        );
        assert!(
            session.engine().cache().len() <= 2,
            "cache exceeded its cap mid-stream"
        );
    }
    let stats = shared.engine().stats();
    assert!(stats.panics >= 1, "stats: {stats:?}");
    assert!(stats.overloaded >= 1, "stats: {stats:?}");
    assert!(stats.cache_size <= 2, "stats: {stats:?}");
}
