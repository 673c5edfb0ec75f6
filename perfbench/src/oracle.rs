//! The correctness oracle, run after the timed region.
//!
//! Every `ok` answer set is compared with the reference semi-naive
//! evaluator [`gomq_datalog::Program::eval`] run on the plan compiled
//! here, in the benchmark's own vocabulary; every certificate is
//! re-checked with the standalone verifier [`gomq_cert::verify_value`].
//!
//! Session reads are checked against a model of the session store that
//! replays connection 0's writes in order:
//! * connection 0's own reads exactly at their point in that sequence;
//! * connection 1's reads against some prefix the read could have seen:
//!   at least every write acknowledged before it was sent, at most every
//!   write sent before its reply arrived;
//! * the final queries against the complete sequence.

use crate::gen::{Omq, Op, Req, Streams};
use crate::load::ConnLog;
use gomq_cert::json::{self as cjson, Value};
use gomq_core::{parse::parse_instance, Vocab};
use gomq_datalog::Program;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::OmqPlan;
use gomq_rewriting::fnv1a;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// A sorted answer set, by constant name.
pub type Answers = Vec<Vec<String>>;

/// What the client saw for one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// When the request was actually written to the socket.
    pub sent: Instant,
    /// When its reply line arrived (`None` = lost).
    pub recv: Option<Instant>,
    pub reply: Option<String>,
}

/// Reference plans and evaluation, in the benchmark's own vocabulary.
#[derive(Default)]
pub struct Reference {
    vocab: Vocab,
    programs: HashMap<usize, Program>,
}

impl Reference {
    /// The compiled rewriting of OMQ `i` (compiled once).
    pub fn program(&mut self, omqs: &[Omq], i: usize) -> &Program {
        let vocab = &mut self.vocab;
        self.programs.entry(i).or_insert_with(|| {
            let omq = &omqs[i];
            let dl = parse_ontology(&omq.ontology, vocab).expect("generated ontologies parse");
            let o = to_gf(&dl);
            let q = vocab
                .find_rel(&omq.query)
                .expect("the query relation occurs in its ontology");
            OmqPlan::compile(&o, q, vocab)
                .expect("generated OMQs are rewritable")
                .program
        })
    }

    /// Reference answers of OMQ `i` over `facts`.
    pub fn answers<'a>(
        &mut self,
        omqs: &[Omq],
        i: usize,
        facts: impl Iterator<Item = &'a str>,
    ) -> Answers {
        self.program(omqs, i);
        let text: String = facts.flat_map(|f| [f, "\n"]).collect();
        let d = parse_instance(&text, &mut self.vocab).expect("generated facts parse");
        let program = &self.programs[&i];
        let mut out: Answers = program
            .eval(&d)
            .into_iter()
            .map(|t| {
                t.iter()
                    .map(|x| x.display(&self.vocab).to_string())
                    .collect()
            })
            .collect();
        out.sort();
        out
    }
}

/// The parsed parts of a reply the oracle looks at.
pub struct Reply {
    pub status: String,
    pub doc: Value,
}

impl Reply {
    pub fn parse(line: &str) -> Option<Reply> {
        let doc = cjson::parse(line).ok()?;
        let status = doc.as_obj()?.get("status")?.as_str()?.to_owned();
        Some(Reply { status, doc })
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.doc.as_obj()?.get(key)
    }

    pub fn num(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// The `"answers"` array, sorted.
    pub fn answers(&self) -> Option<Answers> {
        let mut out = Vec::new();
        for tuple in self.get("answers")?.as_arr()? {
            let mut row = Vec::new();
            for t in tuple.as_arr()? {
                row.push(t.as_str()?.to_owned());
            }
            out.push(row);
        }
        out.sort();
        Some(out)
    }

    /// Verifies the attached certificate; its answers must be `answers`.
    pub fn certificate_ok(&self, answers: &Answers) -> bool {
        let Some(cert) = self.get("certificate") else {
            return false;
        };
        match gomq_cert::verify_value(cert) {
            Ok(v) => {
                let mut certified = v.answers;
                certified.sort();
                certified == *answers
            }
            Err(_) => false,
        }
    }
}

/// The oracle's verdict on one run.
#[derive(Default, Debug)]
pub struct Verdict {
    /// Requests that failed: lost, malformed, non-`ok`, or wrong.
    pub failed: HashSet<Key>,
    /// A few human-readable failure descriptions.
    pub notes: Vec<String>,
    /// Facts in the session store after the last write.
    pub store_facts: usize,
}

impl Verdict {
    fn fail(&mut self, key: Key, why: String) {
        if self.failed.insert(key) && self.notes.len() < 5 {
            self.notes.push(why);
        }
    }
}

/// A request's position: (phase, connection, index); the phase after
/// the last holds the final queries on connection 0.
pub type Key = (usize, usize, usize);

fn fact_rel(fact: &str) -> &str {
    &fact[..fact.find('(').unwrap_or(fact.len())]
}

/// Relation names an OMQ's ontology mentions.
fn signature(omq: &Omq) -> HashSet<String> {
    omq.ontology
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.ends_with(omq.sfx.as_str()) && !w.is_empty())
        .map(str::to_owned)
        .collect()
}

/// The session store model: facts in insertion order (deduplicated,
/// as the server's store is) and marks.
struct Model {
    facts: Vec<String>,
    seen: HashSet<String>,
    marks: BTreeMap<u64, usize>,
}

impl Model {
    fn new(prepopulate: &[String]) -> Model {
        let mut m = Model {
            facts: Vec::new(),
            seen: HashSet::new(),
            marks: BTreeMap::new(),
        };
        m.assert(prepopulate);
        m
    }

    /// Applies an assert; returns the relations of newly added facts.
    fn assert(&mut self, facts: &[String]) -> HashSet<String> {
        let mut touched = HashSet::new();
        for f in facts {
            if self.seen.insert(f.clone()) {
                touched.insert(fact_rel(f).to_owned());
                self.facts.push(f.clone());
            }
        }
        touched
    }

    /// Applies a rollback; returns the relations of removed facts.
    fn rollback(&mut self, id: u64) -> HashSet<String> {
        let keep = self.marks[&id];
        let removed = self.facts.split_off(keep);
        let touched = removed.iter().map(|f| fact_rel(f).to_owned()).collect();
        for f in &removed {
            self.seen.remove(f);
        }
        self.marks.retain(|_, len| *len <= keep);
        touched
    }
}

/// One session read waiting for its reference.
#[derive(Clone)]
struct Pending<'a> {
    key: Key,
    lo: usize,
    hi: usize,
    omq: usize,
    reply: &'a str,
    done: bool,
}

/// One one-shot query to check against the reference.
struct OneShot<'a> {
    key: Key,
    omq: usize,
    abox: &'a [String],
    cert: bool,
    reply: &'a str,
}

/// Parses a reply and requires `"status": "ok"` and an answer set.
fn ok_answers(key: Key, line: &str) -> Result<(Reply, Answers), (Key, String)> {
    let reply = Reply::parse(line).ok_or_else(|| (key, format!("{key:?}: malformed reply")))?;
    if reply.status != "ok" {
        return Err((key, format!("{key:?}: status {}", reply.status)));
    }
    let answers = reply
        .answers()
        .ok_or_else(|| (key, format!("{key:?}: no answers")))?;
    Ok((reply, answers))
}

/// FNV-1a over a sorted answer set: reads are matched by digest, so the
/// oracle never holds thousands of answer sets at once.
fn digest(answers: &Answers) -> u64 {
    let mut bytes = Vec::new();
    for tuple in answers {
        for t in tuple {
            bytes.extend_from_slice(t.as_bytes());
            bytes.push(0xff);
        }
        bytes.push(0xfe);
    }
    fnv1a(&bytes)
}

/// Checks one-shot queries with a reference of its own; returns the
/// failures as (key, why).
fn check_one_shot(omqs: &[Omq], jobs: &[OneShot]) -> Vec<(Key, String)> {
    let mut reference = Reference::default();
    let mut failed = Vec::new();
    for j in jobs {
        let (reply, got) = match ok_answers(j.key, j.reply) {
            Ok(ok) => ok,
            Err(f) => {
                failed.push(f);
                continue;
            }
        };
        let want = reference.answers(omqs, j.omq, j.abox.iter().map(String::as_str));
        if got != want {
            failed.push((
                j.key,
                format!("{:?}: answers differ from the reference", j.key),
            ));
        } else if j.cert && !reply.certificate_ok(&want) {
            failed.push((j.key, format!("{:?}: certificate does not verify", j.key)));
        }
    }
    failed
}

/// Checks every reply of a run. `log[phase][conn].outcomes[i]` is the
/// outcome of `streams.phases[phase].reqs[conn][i]`; `finals` are the
/// final queries'.
pub fn check(streams: &Streams, log: &[[ConnLog; 2]], finals: &[Outcome]) -> Verdict {
    let mut v = Verdict::default();
    let omqs = &streams.omqs;

    // Connection 0's writes in order, with their timing.
    let mut writes: Vec<(&Req, &Outcome)> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut one_shot: Vec<OneShot> = Vec::new();
    let mut expected = Model::new(&streams.prepopulate);
    for conn in 0..2 {
        for (phase, (p, outs)) in streams.phases.iter().zip(log).enumerate() {
            for (i, (req, out)) in p.reqs[conn]
                .iter()
                .zip(outs[conn].outcomes.iter())
                .enumerate()
            {
                let key = (phase, conn, i);
                let Some(reply) = out.reply.as_deref() else {
                    v.fail(key, format!("{key:?}: no reply"));
                    continue;
                };
                match &req.op {
                    Op::Query { omq, abox, cert } => {
                        one_shot.push(OneShot {
                            key,
                            omq: *omq,
                            abox,
                            cert: *cert,
                            reply,
                        });
                    }
                    Op::SessionQuery { omq } => {
                        let (lo, hi) = if conn == 0 {
                            (writes.len(), writes.len())
                        } else {
                            // Connection 0 is checked first, so `writes`
                            // is complete; its send and reply times are
                            // both in order (one connection, in-order
                            // replies).
                            let recv = out.recv.expect("a reply has a receive time");
                            let lo = writes
                                .partition_point(|(_, w)| w.recv.is_some_and(|t| t < out.sent));
                            let hi = writes.partition_point(|(_, w)| w.sent < recv);
                            (lo, hi)
                        };
                        pending.push(Pending {
                            key,
                            lo,
                            hi,
                            omq: *omq,
                            reply,
                            done: false,
                        });
                    }
                    op => {
                        // Writes are exact: the store size (and mark id)
                        // the server reports must match the model.
                        let reply = match Reply::parse(reply) {
                            Some(r) if r.status == "ok" => r,
                            other => {
                                let why = other.map_or("malformed reply".to_owned(), |r| {
                                    format!("status {}", r.status)
                                });
                                v.fail(key, format!("{key:?}: {why}"));
                                continue;
                            }
                        };
                        let ok = match op {
                            Op::Assert { facts } => {
                                expected.assert(facts);
                                reply.num("facts") == Some(expected.facts.len() as u64)
                            }
                            Op::Mark { id } => {
                                expected.marks.insert(*id, expected.facts.len());
                                reply.num("mark") == Some(*id)
                            }
                            Op::Rollback { id } => {
                                expected.rollback(*id);
                                reply.num("facts") == Some(expected.facts.len() as u64)
                            }
                            _ => unreachable!("reads are matched above"),
                        };
                        if !ok {
                            v.fail(
                                key,
                                format!("{key:?}: write reply disagrees with the model"),
                            );
                        }
                        writes.push((req, out));
                    }
                }
            }
        }
    }
    v.store_facts = expected.facts.len();
    for (i, (req, out)) in streams.final_queries.iter().zip(finals).enumerate() {
        let key = (streams.phases.len(), 0, i);
        let Some(reply) = out.reply.as_deref() else {
            v.fail(key, format!("{key:?}: no reply"));
            continue;
        };
        let Op::SessionQuery { omq } = req.op else {
            unreachable!("final queries are session queries")
        };
        pending.push(Pending {
            key,
            lo: writes.len(),
            hi: writes.len(),
            omq,
            reply,
            done: false,
        });
    }

    // The server is stopped, so both cores are free: one-shot queries
    // are checked in two halves and each session OMQ's reads by a sweep
    // of its own, all in parallel.
    let half = one_shot.len() / 2;
    let (first, second) = one_shot.split_at(half);
    let failures = std::thread::scope(|scope| {
        let a = scope.spawn(|| check_one_shot(omqs, first));
        let b = scope.spawn(|| check_one_shot(omqs, second));
        let sweeps: Vec<_> = streams
            .session_omqs
            .iter()
            .map(|&omq| {
                let mine: Vec<Pending> = pending.iter().filter(|p| p.omq == omq).cloned().collect();
                let writes = &writes;
                scope.spawn(move || sweep_session(streams, writes, omq, mine))
            })
            .collect();
        let mut f = a.join().expect("oracle thread");
        f.extend(b.join().expect("oracle thread"));
        for h in sweeps {
            f.extend(h.join().expect("oracle thread"));
        }
        f
    });
    for (key, why) in failures {
        v.fail(key, why);
    }
    v
}

/// Sweeps the write sequence once for the reads of OMQ `omq`; a read is
/// satisfied by the first state in its window whose reference matches.
/// Returns the failed reads.
fn sweep_session(
    streams: &Streams,
    writes: &[(&Req, &Outcome)],
    omq: usize,
    pending: Vec<Pending>,
) -> Vec<(Key, String)> {
    let omqs = &streams.omqs;
    let mut reference = Reference::default();
    let mut failed = Vec::new();
    let mut pending: Vec<(Pending, u64)> = pending
        .into_iter()
        .filter_map(|p| match ok_answers(p.key, p.reply) {
            Ok((_, answers)) => Some((p, digest(&answers))),
            Err(f) => {
                failed.push(f);
                None
            }
        })
        .collect();
    // A state of `omq`'s relations is named by a version number; a
    // rollback returns to exactly the state its mark saw, so it restores
    // that version and its memoized reference.
    let sig = signature(&omqs[omq]);
    let mut version = 0u64;
    let mut next_version = 1u64;
    let mut at_mark: HashMap<u64, u64> = HashMap::new();
    let mut memo: HashMap<u64, u64> = HashMap::new();
    let mut model = Model::new(&streams.prepopulate);
    pending.sort_by_key(|p| p.0.lo);
    let mut first_open = 0;
    for k in 0..=writes.len() {
        if k > 0 {
            match &writes[k - 1].0.op {
                Op::Assert { facts } => {
                    if model.assert(facts).iter().any(|r| sig.contains(r)) {
                        version = next_version;
                        next_version += 1;
                    }
                }
                Op::Mark { id } => {
                    model.marks.insert(*id, model.facts.len());
                    at_mark.insert(*id, version);
                }
                Op::Rollback { id } => {
                    model.rollback(*id);
                    version = at_mark[id];
                }
                _ => unreachable!("only writes are sequenced"),
            }
        }
        while first_open < pending.len()
            && (pending[first_open].0.done || pending[first_open].0.hi < k)
        {
            first_open += 1;
        }
        for (p, got) in pending[first_open..].iter_mut() {
            if p.lo > k {
                break;
            }
            if p.done || p.hi < k {
                continue;
            }
            let want = *memo.entry(version).or_insert_with(|| {
                let facts = model
                    .facts
                    .iter()
                    .filter(|f| sig.contains(fact_rel(f)))
                    .map(String::as_str);
                digest(&reference.answers(omqs, omq, facts))
            });
            p.done = want == *got;
        }
    }
    for (p, _) in pending.iter().filter(|(p, _)| !p.done) {
        failed.push((
            p.key,
            format!(
                "{:?}: session answers match no state in [{}, {}]",
                p.key, p.lo, p.hi
            ),
        ));
    }
    failed
}
