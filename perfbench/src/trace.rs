//! The traced run: the workload's stream replayed in process, twice per
//! request — once through `ServeSession::handle_line` untraced, once
//! through the same stages as `serve.rs`, in its order, by calling each
//! layer's public functions with a span around each call. The staged
//! answers must equal `handle_line`'s, so both measure the same work;
//! whatever `handle_line` spends outside the staged calls (rendering,
//! glue, locks) is reported as unattributed.
//!
//! Probes that are not part of serving (the compile breakdown on a
//! plan-cache miss, certified-minus-plain evaluation on the same input)
//! run beside the staged path in `probe.*` spans and are kept out of its
//! accounting.

use crate::gen::Streams;
use crate::oracle::{Answers, Reply};
use gomq_core::{parse::parse_instance, Fact, IndexedInstance, Term, Vocab};
use gomq_datalog::{Budget, Materialization};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::json::{self, Json};
use gomq_engine::{
    DurableSession, Engine, OmqPlan, PersistOptions, ServeConfig, ServeSession, ServeShared,
    DEFAULT_MAX_VIEWS,
};
use gomq_reasoning::CertainEngine;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::{classify_ontology, emit_sql, ElementTypeSystem};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One span: a named interval inside one request, with its parent.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        self.stack.pop();
        end - span.start_ns
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Writes the spans as JSON lines, then one summary line.
    pub fn write(&self, path: &Path, summary: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{summary}")?;
        out.flush()
    }

    /// What recording one span costs, ns: enter + exit timed over a
    /// throwaway tracer. The traced run's overhead is this times its spans.
    pub fn span_cost_ns() -> f64 {
        let mut probe = Tracer::new();
        const N: u32 = 20_000;
        let t = Instant::now();
        for _ in 0..N {
            let id = probe.enter("calibrate");
            probe.exit(id);
        }
        t.elapsed().as_nanos() as f64 / N as f64
    }

    /// Self time per span name (duration minus direct children), and
    /// call counts.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child[i]);
            e.1 += 1;
        }
        out
    }
}

/// Running sums for a mean.
#[derive(Default, Clone, Copy)]
pub struct Mean {
    pub sum: f64,
    pub n: u64,
}

impl Mean {
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Everything the traced replay measured.
#[derive(Default)]
pub struct Layers {
    pub requests: u64,
    pub mismatches: u64,
    /// Untraced `handle_line` latency per replayed request, µs, in
    /// replay order.
    pub handle_us: Vec<f64>,
    pub unattributed_us: Mean,
    pub decode_us: Mean,
    pub parse_gf_us: Mean,
    pub lookup_hit_us: Mean,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub compile_us: Mean,
    pub classify_us: Mean,
    pub types_build_us: Mean,
    pub emit_datalog_us: Mean,
    pub emit_sql_us: Mean,
    pub kernel_us: Mean,
    pub types: Mean,
    pub vocab_rels: u64,
    pub intern_us: Mean,
    pub facts: Mean,
    pub fixpoint_us: Mean,
    pub rounds: Mean,
    pub derived: Mean,
    pub cert_overhead_us: Mean,
    pub cert_bytes: Mean,
    pub assert_us: Mean,
    pub rollback_us: Mean,
    pub snapshot_us: Mean,
    pub snapshots: u64,
    pub store_bytes: u64,
    pub session_facts: u64,
    pub ivm_build_us: Mean,
    pub ivm_sync_us: Mean,
    pub ivm_rollback_us: Mean,
    pub session_queries: u64,
    pub maintained: u64,
    pub ivm_deleted: u64,
    pub ivm_rederived: u64,
    /// Indices (into the candidate lines) that were replayed.
    pub replayed: Vec<usize>,
}

/// The staged context: the same state `ServeShared` keeps, owned here.
struct Staged {
    engine: Engine,
    vocab: Mutex<Vocab>,
    session: DurableSession,
}

fn lock(vocab: &Mutex<Vocab>) -> std::sync::MutexGuard<'_, Vocab> {
    vocab
        .lock()
        .expect("the staged vocabulary is never poisoned")
}

fn names(vocab: &Mutex<Vocab>, answers: &BTreeSet<Vec<Term>>) -> Answers {
    let v = lock(vocab);
    let mut out: Answers = answers
        .iter()
        .map(|t| t.iter().map(|x| x.display(&v).to_string()).collect())
        .collect();
    out.sort();
    out
}

/// Replays candidate lines through both paths, in order: one-shot
/// queries (`lane == false`) until `oneshot_until`, session-lane ops
/// until `until`. `handle_dir` and
/// `staged_dir` must hold identical stores.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    streams: &Streams,
    lines: &[(&str, bool)],
    oneshot_until: Instant,
    until: Instant,
    handle_dir: &Path,
    staged_dir: &Path,
    tr: &mut Tracer,
) -> Result<Layers, String> {
    let config = ServeConfig {
        threads: 1,
        data_dir: Some(handle_dir.to_owned()),
        snapshot_every: 0,
        ..ServeConfig::default()
    };
    let (shared, _) = ServeShared::try_with_config(config).map_err(|e| e.to_string())?;
    let mut handle = ServeSession::with_shared(Arc::new(shared));
    let mut vocab = Vocab::new();
    let opts = PersistOptions {
        fsync: false,
        snapshot_every: 0,
    };
    let (mut session, _) =
        DurableSession::open(staged_dir, opts, &mut vocab).map_err(|e| e.to_string())?;
    session.set_view_capacity(DEFAULT_MAX_VIEWS);
    let mut st = Staged {
        engine: Engine::with_threads(1),
        vocab: Mutex::new(vocab),
        session,
    };
    // Warm-up compiles count towards the compile breakdown only.
    let mut warm = Layers::default();
    for line in &streams.warmup {
        handle.handle_line(line);
        staged(&mut st, line, tr, &mut warm)?;
    }
    let mut m = Layers {
        compile_us: warm.compile_us,
        classify_us: warm.classify_us,
        types_build_us: warm.types_build_us,
        emit_datalog_us: warm.emit_datalog_us,
        emit_sql_us: warm.emit_sql_us,
        kernel_us: warm.kernel_us,
        types: warm.types,
        ivm_build_us: warm.ivm_build_us,
        ..Layers::default()
    };
    for (i, &(line, lane)) in lines.iter().enumerate() {
        let now = Instant::now();
        if now >= until {
            break;
        }
        if !lane && now >= oneshot_until {
            continue;
        }
        m.replayed.push(i);
        tr.req = m.replayed.len() as u32;
        let t = Instant::now();
        let reply = handle.handle_line(line);
        let handle_us = t.elapsed().as_secs_f64() * 1e6;
        let answers = staged(&mut st, line, tr, &mut m)?;
        let expected = Reply::parse(&reply).and_then(|r| (r.status == "ok").then(|| r.answers()));
        match (expected, answers) {
            (Some(a), b) if a == b => {}
            (exp, got) => {
                m.mismatches += 1;
                if m.mismatches <= 3 {
                    eprintln!("perfbench: staged/handle_line mismatch on {line}: {exp:?} vs {got:?} ({reply})");
                }
            }
        }
        m.requests += 1;
        m.handle_us.push(handle_us);
    }
    // Unattributed = handle_line minus the staged stages' total (the
    // root's children, probes excluded).
    let stage_ns: u64 = tr
        .spans
        .iter()
        .filter(|s| s.req > 0 && !s.name.starts_with("probe."))
        .filter(|s| {
            s.parent
                .is_some_and(|p| tr.spans[p as usize].parent.is_none())
        })
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let handle_total: f64 = m.handle_us.iter().sum();
    m.unattributed_us.sum = handle_total - stage_ns as f64 / 1e3;
    m.unattributed_us.n = m.requests;
    // One snapshot of the final store: periodic snapshots are off, as in
    // the TCP runs.
    let (r, ns) = tr.span("wal.snapshot", || st.session.snapshot_now(&lock(&st.vocab)));
    r.map_err(|e| bad(&e.to_string()))?;
    m.snapshot_us.add(us(ns));
    m.snapshots += 1;
    m.evictions = st.engine.cache().evictions();
    m.vocab_rels = lock(&st.vocab).rel_count() as u64;
    m.session_facts = st.session.len() as u64;
    m.store_bytes = crate::load::store_bytes(staged_dir);
    Ok(m)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn bad(msg: &str) -> String {
    format!("staged path: {msg}")
}

/// One request through the staged path. Returns the answers of a query
/// (`None` for writes).
fn staged(
    st: &mut Staged,
    line: &str,
    tr: &mut Tracer,
    m: &mut Layers,
) -> Result<Option<Answers>, String> {
    let root = tr.enter("staged");
    let mut floor = lock(&st.vocab).const_mark();
    let budget = Budget::UNLIMITED;
    let (parsed, ns) = tr.span("json.decode", || json::parse(line));
    m.decode_us.add(us(ns));
    let Ok(Json::Obj(obj)) = parsed else {
        return Err(bad("unparsable request"));
    };
    let str_field = |k: &str| obj.get(k).and_then(Json::as_str);
    let out = match str_field("op") {
        None | Some("query") => {
            let ontology = str_field("ontology").ok_or_else(|| bad("no ontology"))?;
            let query = str_field("query").ok_or_else(|| bad("no query"))?;
            let (oq, ns) = tr.span("dl.parse_gf", || {
                let mut v = lock(&st.vocab);
                let dl = parse_ontology(ontology, &mut v).ok()?;
                let o = to_gf(&dl);
                Some((o, v.find_rel(query)?))
            });
            m.parse_gf_us.add(us(ns));
            let (o, q) = oq.ok_or_else(|| bad("ontology or query rejected"))?;
            let ((plan, hit, _), lookup_ns) =
                tr.span("cache.plan", || st.engine.plan_shared(&o, q, &st.vocab));
            let plan = plan.map_err(|e| bad(&e.to_string()))?;
            if hit {
                m.hits += 1;
                m.lookup_hit_us.add(us(lookup_ns));
            } else {
                m.misses += 1;
                tr.span("probe.compile", || compile_probe(ontology, query, m));
            }
            let want_cert = matches!(obj.get("certificate"), Some(Json::Bool(true)));
            let answers = if matches!(obj.get("session"), Some(Json::Bool(true))) {
                session_query(st, &plan, tr, m)?
            } else {
                let text = str_field("abox").ok_or_else(|| bad("no abox"))?;
                let (abox, ns) = tr.span("core.intern", || {
                    let d = parse_instance(text, &mut lock(&st.vocab)).ok()?;
                    Some(IndexedInstance::from_instance(d))
                });
                m.intern_us.add(us(ns));
                let abox = abox.ok_or_else(|| bad("abox rejected"))?;
                let n = abox.len() as f64;
                m.facts.add(n);
                let (answers, stats, ns) = if want_cert {
                    let (r, ns) = tr.span("certify.answer", || {
                        st.engine
                            .answer_indexed_certified(&plan, &abox, &budget, &st.vocab, None)
                    });
                    let (answers, cert, stats) = r.map_err(|e| bad(&e.to_string()))?;
                    m.cert_bytes.add(cert.len() as f64);
                    // Probe: plain evaluation of the same ABox.
                    let (plain, plain_ns) = tr.span("probe.plain", || {
                        st.engine.answer_indexed_budgeted(&plan, &abox, &budget)
                    });
                    std::hint::black_box(plain.map_err(|e| bad(&e.to_string()))?);
                    m.cert_overhead_us.add(us(ns) - us(plain_ns));
                    (answers, stats, plain_ns)
                } else {
                    let (r, ns) = tr.span("native.fixpoint", || {
                        st.engine.answer_indexed_budgeted(&plan, &abox, &budget)
                    });
                    let (answers, stats) = r.map_err(|e| bad(&e.to_string()))?;
                    if m.fixpoint_us.n.is_multiple_of(20) {
                        tr.span("probe.certify", || {
                            cert_probe(st, &plan, &abox, None, ns, m)
                        })
                        .0?;
                    }
                    (answers, stats, ns)
                };
                m.fixpoint_us.add(us(ns));
                m.rounds.add(stats.rounds as f64);
                m.derived.add(stats.derived as f64);
                answers
            };
            Some(names(&st.vocab, &answers))
        }
        Some("assert") => {
            let text = str_field("abox").ok_or_else(|| bad("no abox"))?;
            let (parsed, ns) = tr.span("core.intern", || {
                let mut v = lock(&st.vocab);
                let d = parse_instance(text, &mut v).ok()?;
                let facts: Vec<Fact> = d.iter().map(|f| f.to_fact()).collect();
                let syms: Vec<_> = facts
                    .iter()
                    .map(|f| gomq_engine::session::sym_fact(&v, f.rel, &f.args))
                    .collect();
                Some((facts, syms, v.const_mark()))
            });
            m.intern_us.add(us(ns));
            let (facts, syms, const_floor) = parsed.ok_or_else(|| bad("assert rejected"))?;
            floor = floor.max(const_floor);
            let (r, ns) = tr.span("session.assert", || st.session.assert(syms, &facts));
            r.map_err(|e| bad(&e.to_string()))?;
            m.assert_us.add(us(ns));
            snapshot_if_due(st, tr, m)?;
            None
        }
        Some("mark") => {
            let (r, _) = tr.span("session.mark", || st.session.mark());
            r.map_err(|e| bad(&e.to_string()))?;
            snapshot_if_due(st, tr, m)?;
            None
        }
        Some("rollback") => {
            let Some(Json::Num(mark)) = obj.get("mark") else {
                return Err(bad("no mark"));
            };
            let (r, ns) = tr.span("session.rollback", || st.session.rollback(*mark as u64));
            let info = r.map_err(|e| bad(&e.to_string()))?;
            m.rollback_us.add(us(ns));
            let (maint, ns) = tr.span("ivm.rollback", || {
                st.session
                    .maintain_views_rollback(info.facts as usize, &budget)
            });
            m.ivm_rollback_us.add(us(ns));
            m.ivm_deleted += maint.deleted;
            m.ivm_rederived += maint.rederived;
            snapshot_if_due(st, tr, m)?;
            None
        }
        Some(other) => return Err(bad(&format!("unexpected op {other}"))),
    };
    {
        let mut v = lock(&st.vocab);
        v.truncate_consts(floor);
    }
    tr.exit(root);
    Ok(out)
}

fn snapshot_if_due(st: &mut Staged, tr: &mut Tracer, m: &mut Layers) -> Result<(), String> {
    if st.session.snapshot_due() {
        let (r, ns) = tr.span("wal.snapshot", || st.session.snapshot_now(&lock(&st.vocab)));
        r.map_err(|e| bad(&e.to_string()))?;
        m.snapshot_us.add(us(ns));
        m.snapshots += 1;
    }
    Ok(())
}

/// A `"session": true` query, as `run_session_query` answers it: check
/// the plan's view out, sync it (or build it on a miss), put it back.
fn session_query(
    st: &mut Staged,
    plan: &Arc<OmqPlan>,
    tr: &mut Tracer,
    m: &mut Layers,
) -> Result<BTreeSet<Vec<Term>>, String> {
    let budget = Budget::UNLIMITED;
    m.session_queries += 1;
    let (store, view, epoch, position) = {
        let store = st.session.share_store();
        let epoch = st.session.views().epoch();
        let position = st.session.position();
        (
            store,
            st.session.views_mut().take(plan.key),
            epoch,
            position,
        )
    };
    let view = match view {
        Some(mut view) => {
            m.maintained += 1;
            let (r, ns) = tr.span("ivm.sync", || view.sync(&store, &budget));
            let es = r.map_err(|e| bad(&e.to_string()))?;
            m.ivm_sync_us.add(us(ns));
            m.ivm_deleted += es.ivm_deleted as u64;
            m.ivm_rederived += es.ivm_rederived as u64;
            view
        }
        None => {
            let (r, ns) = tr.span("ivm.build", || {
                Materialization::build(&plan.program.rules, plan.program.goal, &store, &budget)
            });
            m.ivm_build_us.add(us(ns));
            r.map_err(|e| bad(&e.to_string()))?.0
        }
    };
    let answers = view.answers();
    st.session.views_mut().put(plan.key, view, epoch);
    if m.session_queries.is_multiple_of(20) {
        // Probe: what a full plain and certified evaluation of
        // this snapshot cost (the plain one counts as a native fixpoint).
        let (plain, plain_ns) = tr.span("probe.plain", || {
            st.engine.answer_indexed_budgeted(plan, &store, &budget)
        });
        let (_, stats) = plain.map_err(|e| bad(&e.to_string()))?;
        m.fixpoint_us.add(us(plain_ns));
        m.rounds.add(stats.rounds as f64);
        m.derived.add(stats.derived as f64);
        tr.span("probe.certify", || {
            cert_probe(st, plan, &store, Some(position), plain_ns, m)
        })
        .0?;
    }
    Ok(answers)
}

/// Certified evaluation of an input already evaluated plainly in
/// `plain_ns`: records the certification overhead and size.
fn cert_probe(
    st: &Staged,
    plan: &OmqPlan,
    input: &IndexedInstance,
    position: Option<(u64, u64)>,
    plain_ns: u64,
    m: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let r =
        st.engine
            .answer_indexed_certified(plan, input, &Budget::UNLIMITED, &st.vocab, position);
    let cert_ns = t.elapsed().as_nanos() as u64;
    let (_, cert, _) = r.map_err(|e| bad(&e.to_string()))?;
    m.cert_bytes.add(cert.len() as f64);
    m.cert_overhead_us.add(us(cert_ns) - us(plain_ns));
    Ok(())
}

/// On a plan-cache miss: `OmqPlan::compile` timed whole, then its
/// stages timed one by one, each in a fresh vocabulary (so the probe
/// leaves the serving vocabulary untouched).
fn compile_probe(ontology: &str, query: &str, m: &mut Layers) {
    let setup = |v: &mut Vocab| {
        let dl = parse_ontology(ontology, v).expect("the staged path parsed it");
        let o = to_gf(&dl);
        let q = v.find_rel(query).expect("the staged path found it");
        (o, q)
    };
    let mut v = Vocab::new();
    let (o, q) = setup(&mut v);
    let t = Instant::now();
    let plan = OmqPlan::compile(&o, q, &mut v);
    m.compile_us.add(t.elapsed().as_secs_f64() * 1e6);
    std::hint::black_box(plan.ok());

    let mut v = Vocab::new();
    let (o, q) = setup(&mut v);
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let mut report = None;
    m.classify_us.add(time(&mut || {
        report = Some(classify_ontology(&o, &[], &CertainEngine::new(1), &mut v))
    }));
    std::hint::black_box(report);
    let mut sys = None;
    m.types_build_us
        .add(time(&mut || sys = ElementTypeSystem::build(&o, &v).ok()));
    let Some(sys) = sys else { return };
    m.types.add(sys.num_types() as f64);
    let mut program = None;
    m.emit_datalog_us.add(time(&mut || {
        program = Some(emit_datalog(&sys, q, &mut v).optimize())
    }));
    let program = program.expect("set above");
    let mut sql = None;
    m.emit_sql_us.add(time(&mut || {
        let ir = gomq_engine::Strata::of(&program);
        sql = Some(emit_sql(&ir, &v));
    }));
    std::hint::black_box(sql);
    m.kernel_us.add(time(&mut || {
        std::hint::black_box(sys.kernel());
    }));
}

/// The PTIME check as numbers: for each example family (company, org,
/// Example 6's odd cycle), one plan evaluated over ABoxes of 300 to
/// 1,500 facts, log-spaced. Returns (plan key, |ABox|, fixpoint µs,
/// plan-lookup µs) per evaluation, for a log-log fit within each OMQ.
pub fn scaling_probe(seed: u64, tr: &mut Tracer) -> Vec<(u64, f64, f64, f64)> {
    use crate::gen::{Omq, Rng, Shape};
    let engine = Engine::with_threads(1);
    let vocab = Mutex::new(Vocab::new());
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (shape, q) in [
        (Shape::Company, "Employee"),
        (Shape::Org, "Person"),
        (Shape::OddCycle, "E"),
    ] {
        let omq = Omq::new(shape, "_p", q);
        let (o, query) = {
            let mut v = lock(&vocab);
            let dl = parse_ontology(&omq.ontology, &mut v).expect("the example families parse");
            (
                to_gf(&dl),
                v.find_rel(&omq.query).expect("the query relation occurs"),
            )
        };
        // Compile first, so every timed lookup is a cache hit.
        let (compiled, _, _) = engine.plan_shared(&o, query, &vocab);
        compiled.expect("the example families are rewritable");
        for i in 0..8 {
            let n = (300.0 * 5f64.powf(i as f64 / 7.0)).round() as usize;
            let text = omq.abox(n, n / 4, &mut rng).join("\n");
            let abox = IndexedInstance::from_instance(
                parse_instance(&text, &mut lock(&vocab)).expect("generated facts parse"),
            );
            let ((plan, _, _), lookup_ns) =
                tr.span("probe.scaling", || engine.plan_shared(&o, query, &vocab));
            let plan = plan.expect("the example families are rewritable");
            let (r, ns) = tr.span("probe.scaling", || {
                engine.answer_indexed_budgeted(&plan, &abox, &Budget::UNLIMITED)
            });
            std::hint::black_box(r.expect("an unlimited budget holds"));
            out.push((plan.key, abox.len() as f64, us(ns), us(lookup_ns)));
        }
    }
    out
}
