//! Kill-and-restart equivalence for the `gomq-serve` binary.
//!
//! A scripted session (asserts, marks, rollbacks, session queries) is
//! driven request-by-request, waiting for each acknowledgement. The
//! server is then SIGKILLed at several distinct points mid-stream — in
//! one case with a torn half-frame appended to the WAL to model a crash
//! mid-`write(2)` — restarted over the same `--data-dir`, and fed the
//! remaining requests. Every query must answer byte-identically to an
//! uninterrupted run of the same script.

mod common;

use common::{answers_of, tmpdir, Serve};
use gomq_engine::json::Json;

/// The scripted session: interleaved mutations and session queries.
/// Returns the request lines; queries carry ids `q<n>`.
fn script() -> Vec<String> {
    let ontology = r#"Manager sub Employee\nEmployee sub Staff"#;
    let query = |id: usize| {
        format!(r#"{{"id": "q{id}", "ontology": "{ontology}", "query": "Staff", "session": true}}"#)
    };
    let assert = |facts: &str| format!(r#"{{"op": "assert", "abox": "{facts}"}}"#);
    let mut lines = Vec::new();
    let mut q = 0;
    for block in 0..6 {
        lines.push(assert(&format!("Manager(m{block})")));
        lines.push(assert(&format!("Employee(e{block})\\nStaff(s{block})")));
        if block == 2 {
            lines.push(r#"{"op": "mark"}"#.to_owned());
        }
        if block == 4 {
            // Drop blocks 3–4, then keep building on the restored state.
            lines.push(r#"{"op": "rollback", "mark": 0}"#.to_owned());
        }
        lines.push(query(q));
        q += 1;
    }
    lines.push(assert("Manager(closing)"));
    lines.push(query(q));
    lines
}

/// Runs the whole script uninterrupted and returns every query's
/// answers by id.
fn uninterrupted(extra: &[&str]) -> Vec<(String, Json)> {
    let dir = tmpdir("base");
    let mut serve = Serve::spawn(&dir, extra);
    let mut answers = Vec::new();
    for line in script() {
        let response = serve.request(&line);
        answers.extend(answers_of(&response));
    }
    serve.finish();
    answers
}

/// Kills the server after `kill_after` acknowledged requests (optionally
/// tearing the WAL tail), restarts it over the same directory, replays
/// the rest of the script, and returns every query's answers by id.
fn interrupted(kill_after: usize, tear_tail: bool, extra: &[&str]) -> Vec<(String, Json)> {
    let dir = tmpdir(&format!("kill{kill_after}"));
    let lines = script();
    assert!(kill_after < lines.len(), "kill point inside the script");
    let mut answers = Vec::new();

    let mut serve = Serve::spawn(&dir, extra);
    for line in &lines[..kill_after] {
        let response = serve.request(line);
        answers.extend(answers_of(&response));
    }
    serve.kill();
    if tear_tail {
        // A crash mid-write leaves a torn frame: half a header and
        // garbage where the checksum should be. Recovery must truncate
        // it, not refuse the log.
        use std::io::Write as _;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .expect("wal exists at the kill point");
        wal.write_all(&[0x2a, 0x00, 0x00, 0x00, 0xde, 0xad])
            .unwrap();
    }

    let mut serve = Serve::spawn(&dir, extra);
    for line in &lines[kill_after..] {
        let response = serve.request(line);
        answers.extend(answers_of(&response));
    }
    serve.finish();
    answers
}

#[test]
fn sigkill_and_restart_preserve_query_answers() {
    let extra = ["--threads", "1", "--snapshot-every", "4"];
    let base = uninterrupted(&extra);
    assert_eq!(base.len(), 7, "the script poses seven queries");
    // Three distinct injection points: before the mark, between mark and
    // rollback (with a torn WAL tail), and after the rollback.
    for (kill_after, tear) in [(3, false), (9, true), (16, false)] {
        let got = interrupted(kill_after, tear, &extra);
        assert_eq!(
            got, base,
            "answers diverged after SIGKILL at request {kill_after} (tear={tear})"
        );
    }
}

#[test]
fn fsync_mode_recovers_identically() {
    let extra = ["--threads", "1", "--snapshot-every", "3", "--fsync"];
    let base = uninterrupted(&extra);
    let got = interrupted(7, true, &extra);
    assert_eq!(got, base, "fsync run diverged after SIGKILL");
}
