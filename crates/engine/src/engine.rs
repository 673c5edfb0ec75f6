//! The engine facade: cache + executor + statistics.

use crate::backend::native::{eval_batch, eval_kernel};
use crate::cache::{lock_recover, PlanCache, PlanOutcome};
use crate::plan::{EngineError, OmqPlan};
use crate::stats::{EngineStats, Metrics, RequestStats};
use gomq_core::{FactId, FactStore, IndexedInstance, Instance, RelId, Term, Vocab};
use gomq_datalog::Budget;
use gomq_logic::GfOntology;
use gomq_rewriting::TypeStats;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-plan circuit-breaker state: consecutive evaluation failures and
/// whether the breaker has latched open.
#[derive(Clone, Copy, Debug, Default)]
struct Breaker {
    failures: u32,
    open: bool,
}

/// Per-ABox answer sets (input order) plus one aggregate
/// [`RequestStats`] — the result of a batch evaluation.
pub type BatchAnswers = (Vec<BTreeSet<Vec<Term>>>, RequestStats);

/// A caching OMQ serving engine.
///
/// One `Engine` owns a [`PlanCache`] and a thread budget (the workers
/// of an `"aboxes"` batch); it is shared
/// per serving process, together with a single [`Vocab`] (plans hold
/// interned relation ids, so a plan compiled under one vocabulary must
/// not be evaluated under another). For concurrent use, share the vocab
/// behind a [`Mutex`] and plan through [`Engine::plan_shared`] — the
/// cache deduplicates concurrent compilations of the same OMQ.
pub struct Engine {
    cache: PlanCache,
    threads: usize,
    metrics: Metrics,
    /// Plan key → breaker state. A plan whose evaluation fails
    /// (panics or blows its budget) `quarantine_after` times is refused
    /// further evaluation ([`EngineError::Quarantined`]); the breaker is
    /// sticky for the engine's lifetime.
    breakers: Mutex<HashMap<u64, Breaker>>,
    /// Failures before a plan's breaker opens; 0 disables quarantine.
    quarantine_after: AtomicU32,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine sized to the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_threads(threads)
    }

    /// An engine with an explicit batch worker budget (1 = sequential).
    pub fn with_threads(threads: usize) -> Self {
        Self::with_cache(threads, PlanCache::new())
    }

    /// An engine with an explicit worker budget and plan cache (used to
    /// configure the cache capacity, and by tests to inject a colliding
    /// hash function).
    pub fn with_cache(threads: usize, cache: PlanCache) -> Self {
        Engine {
            cache,
            threads: threads.max(1),
            metrics: Metrics::default(),
            breakers: Mutex::new(HashMap::new()),
            quarantine_after: AtomicU32::new(0),
        }
    }

    /// Sets how many evaluation failures open a plan's circuit breaker
    /// (0 disables quarantine — the default for directly constructed
    /// engines; the serving layer enables it).
    pub fn set_quarantine_after(&self, n: u32) {
        self.quarantine_after.store(n, Ordering::Relaxed);
    }

    /// Checks the plan's circuit breaker before evaluation. Returns the
    /// failure count if the breaker is open (the request must be refused
    /// with [`EngineError::Quarantined`]); counts the refusal.
    pub fn quarantine_reject(&self, key: u64) -> Option<u32> {
        let b = *lock_recover(&self.breakers).get(&key)?;
        if !b.open {
            return None;
        }
        self.metrics.quarantined.add(1);
        Some(b.failures)
    }

    /// Attributes one evaluation failure (panic or blown budget) to a
    /// plan. Returns `true` if this failure tripped the breaker open.
    pub fn record_eval_failure(&self, key: u64) -> bool {
        let threshold = self.quarantine_after.load(Ordering::Relaxed);
        if threshold == 0 {
            return false;
        }
        let mut breakers = lock_recover(&self.breakers);
        let b = breakers.entry(key).or_default();
        b.failures = b.failures.saturating_add(1);
        if !b.open && b.failures >= threshold {
            b.open = true;
            self.metrics.breaker_trips.add(1);
            return true;
        }
        false
    }

    /// Records a successful evaluation: resets the plan's failure count
    /// unless its breaker already latched open (quarantine is sticky).
    pub fn record_eval_success(&self, key: u64) {
        let mut breakers = lock_recover(&self.breakers);
        if let Some(b) = breakers.get_mut(&key) {
            if !b.open {
                b.failures = 0;
            }
        }
    }

    /// The engine's plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Fetches or compiles the plan for `(o, query)`. The boolean is
    /// `true` on a cache hit; compile wall time is accounted either way.
    ///
    /// Convenience wrapper over [`Engine::plan_shared`] for exclusive
    /// (single-threaded) vocabulary access.
    pub fn plan(
        &self,
        o: &GfOntology,
        query: RelId,
        vocab: &mut Vocab,
    ) -> (PlanOutcome, bool, std::time::Duration) {
        let shared = Mutex::new(std::mem::take(vocab));
        let result = self.plan_shared(o, query, &shared);
        *vocab = shared.into_inner().unwrap_or_else(|e| e.into_inner());
        result
    }

    /// Fetches or compiles the plan for `(o, query)` against a shared
    /// vocabulary. Concurrent requests for the same new OMQ compile it
    /// exactly once (single flight); the vocab lock is held only while
    /// hashing and compiling, never while waiting.
    pub fn plan_shared(
        &self,
        o: &GfOntology,
        query: RelId,
        vocab: &Mutex<Vocab>,
    ) -> (PlanOutcome, bool, std::time::Duration) {
        let t0 = Instant::now();
        let (outcome, hit) = self.cache.get_or_compile(o, query, vocab);
        (outcome, hit, t0.elapsed())
    }

    /// Answers one plan against one plain ABox.
    pub fn answer(&self, plan: &OmqPlan, abox: &Instance) -> (BTreeSet<Vec<Term>>, RequestStats) {
        self.answer_store(plan, abox.store(), &Budget::UNLIMITED)
            .expect("the unlimited budget cannot be exceeded")
    }

    /// Answers one plan against one pre-indexed ABox.
    pub fn answer_indexed(
        &self,
        plan: &OmqPlan,
        abox: &IndexedInstance,
    ) -> (BTreeSet<Vec<Term>>, RequestStats) {
        self.answer_indexed_budgeted(plan, abox, &Budget::UNLIMITED)
            .expect("the unlimited budget cannot be exceeded")
    }

    /// Answers one plan against one pre-indexed ABox under a cooperative
    /// resource [`Budget`]; a blown budget returns
    /// [`EngineError::Overloaded`] and counts in
    /// [`EngineStats::overloaded`], leaving the engine fully serviceable.
    ///
    /// The plan's bitset type kernel answers ([`crate::backend::native`]):
    /// the stats' `rounds` are its propagation passes and `derived` its
    /// (element, type) eliminations.
    pub fn answer_indexed_budgeted(
        &self,
        plan: &OmqPlan,
        abox: &IndexedInstance,
        budget: &Budget,
    ) -> Result<(BTreeSet<Vec<Term>>, RequestStats), EngineError> {
        self.answer_store(plan, abox.store(), budget)
    }

    fn answer_store(
        &self,
        plan: &OmqPlan,
        d: &FactStore,
        budget: &Budget,
    ) -> Result<(BTreeSet<Vec<Term>>, RequestStats), EngineError> {
        let t0 = Instant::now();
        match eval_kernel(plan, d, budget) {
            Ok((answers, type_stats)) => {
                let stats = kernel_stats(t0.elapsed(), answers.len(), type_stats);
                self.metrics.absorb(&stats);
                Ok((answers, stats))
            }
            Err(e) => {
                self.metrics.overloaded.add(1);
                Err(EngineError::Overloaded(e))
            }
        }
    }

    /// Answers one plan against one pre-indexed ABox through the SQL
    /// backend: the plan's eagerly emitted SQL text runs on the
    /// in-process `gomq-sqlexec` executor. A recursive plan (no SQL
    /// text) is refused with [`EngineError::NotSqlRewritable`] and
    /// counted in [`EngineStats::sql_refusals`] — the native backend
    /// remains available for the same plan. The vocabulary is locked
    /// only while rendering the ABox to strings and mapping answer rows
    /// back, never across a compile.
    pub fn answer_indexed_sql(
        &self,
        plan: &OmqPlan,
        abox: &IndexedInstance,
        budget: &Budget,
        vocab: &Mutex<Vocab>,
    ) -> Result<(BTreeSet<Vec<Term>>, RequestStats), EngineError> {
        let sql = match &plan.sql {
            Ok(sql) => sql,
            Err(e) => {
                self.metrics.sql_refusals.add(1);
                return Err(EngineError::NotSqlRewritable(e.clone()));
            }
        };
        let t0 = Instant::now();
        let answers = {
            let vocab = lock_recover(vocab);
            crate::backend::sql::eval_sql_budgeted(sql, abox, &vocab, budget)
        };
        match answers {
            Ok(answers) => {
                let stats = RequestStats {
                    eval: t0.elapsed(),
                    answers: answers.len(),
                    ..RequestStats::default()
                };
                self.metrics.absorb(&stats);
                self.metrics.sql_compiles.add(1);
                Ok((answers, stats))
            }
            Err(e) => {
                if matches!(e, EngineError::Overloaded(_)) {
                    self.metrics.overloaded.add(1);
                }
                Err(e)
            }
        }
    }

    /// Answers one plan against one pre-indexed ABox with a derivation
    /// certificate attached. Evaluation runs the Datalog≠ rewriting's
    /// *traced* flat fixpoint (answer-equivalent to the kernel, which
    /// derives no facts to cite) recording one witness per derived
    /// fact; the certificate is then assembled by walking the witnesses
    /// backwards from the goal facts. `snapshot` is the session position
    /// to bind the certificate to, or `None` when the ABox came with the
    /// request. The vocabulary is locked only during certificate
    /// rendering, never across evaluation.
    pub fn answer_indexed_certified(
        &self,
        plan: &OmqPlan,
        abox: &IndexedInstance,
        budget: &Budget,
        vocab: &Mutex<Vocab>,
        snapshot: Option<(u64, u64)>,
    ) -> Result<(BTreeSet<Vec<Term>>, String, RequestStats), EngineError> {
        let t0 = Instant::now();
        let base_len = abox.len() as u32;
        let (total, derivs, eval_stats) =
            gomq_datalog::fixpoint_traced(&plan.program.rules, abox, budget).map_err(|e| {
                self.metrics.overloaded.add(1);
                EngineError::Overloaded(e)
            })?;
        let goal = plan.program.goal;
        let answer_ids: Vec<u32> = (0..total.len() as u32)
            .filter(|&i| total.store().rel(FactId(i)) == goal)
            .collect();
        let answers: BTreeSet<Vec<Term>> = answer_ids
            .iter()
            .map(|&i| total.store().args(FactId(i)).to_vec())
            .collect();
        let source = crate::certify::CertSource {
            instance: &total,
            rules: &plan.program.rules,
            goal,
            answer_ids: &answer_ids,
            snapshot,
        };
        let cert = {
            let vocab = lock_recover(vocab);
            crate::certify::emit_certificate(
                &vocab,
                &source,
                |id| id < base_len,
                |id| derivs[id as usize].as_ref(),
            )
            .map_err(|e| EngineError::Internal(format!("certificate assembly: {e}")))?
        };
        let stats = RequestStats {
            eval: t0.elapsed(),
            rounds: eval_stats.rounds,
            derived: eval_stats.derived,
            answers: answers.len(),
            store: eval_stats.store,
            cert_bytes: cert.len(),
            ..RequestStats::default()
        };
        self.metrics.absorb(&stats);
        Ok((answers, cert, stats))
    }

    /// Answers one plan against a batch of ABoxes concurrently (up to
    /// the engine's thread budget of kernel runs). Returns per-ABox
    /// answer sets in input order plus one aggregate [`RequestStats`].
    pub fn answer_batch(&self, plan: &OmqPlan, aboxes: &[IndexedInstance]) -> BatchAnswers {
        self.answer_batch_budgeted(plan, aboxes, &Budget::UNLIMITED)
            .expect("the unlimited budget cannot be exceeded")
    }

    /// Answers one plan against a batch of ABoxes under a per-ABox
    /// resource [`Budget`] (the deadline is shared across the batch); the
    /// first blown budget fails the whole batch with
    /// [`EngineError::Overloaded`].
    pub fn answer_batch_budgeted(
        &self,
        plan: &OmqPlan,
        aboxes: &[IndexedInstance],
        budget: &Budget,
    ) -> Result<BatchAnswers, EngineError> {
        let t0 = Instant::now();
        match eval_batch(plan, aboxes, self.threads, budget) {
            Ok(results) => {
                let mut type_stats = TypeStats::default();
                let mut answers = Vec::with_capacity(results.len());
                for (ans, ts) in results {
                    type_stats.absorb(&ts);
                    answers.push(ans);
                }
                let total = answers.iter().map(BTreeSet::len).sum();
                let stats = kernel_stats(t0.elapsed(), total, type_stats);
                self.metrics.absorb(&stats);
                Ok((answers, stats))
            }
            Err(e) => {
                self.metrics.overloaded.add(1);
                Err(EngineError::Overloaded(e))
            }
        }
    }

    /// The live metrics table. Call sites bump fields directly, e.g.
    /// `engine.metrics().panics.add(1)`.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A snapshot of the cumulative statistics. The plan cache's own
    /// counters and the fault layer's injection count are sampled into
    /// their gauges first.
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        m.cache_hits.set(self.cache.hits());
        m.cache_misses.set(self.cache.misses());
        m.evictions.set(self.cache.evictions());
        m.inflight_waits.set(self.cache.inflight_waits());
        m.cache_size.set(self.cache.len() as u64);
        m.faults_injected.set(gomq_core::faults::injected());
        m.snapshot()
    }
}

/// The statistics of a kernel-served request: `rounds` are the
/// kernel's propagation passes and `derived` its eliminations.
fn kernel_stats(eval: Duration, answers: usize, type_stats: TypeStats) -> RequestStats {
    RequestStats {
        eval,
        rounds: type_stats.rounds,
        derived: type_stats.eliminated,
        answers,
        typed: true,
        type_stats,
        ..RequestStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::parse::parse_instance;
    use gomq_dl::parser::parse_ontology;
    use gomq_dl::translate::to_gf;
    use std::sync::Arc;

    #[test]
    fn end_to_end_answer_with_cache_reuse() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(2);
        let dl = parse_ontology("Manager sub Employee\nEmployee sub Staff\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let staff = v.find_rel("Staff").unwrap();
        let (plan, hit, d1) = engine.plan(&o, staff, &mut v);
        let plan = plan.unwrap();
        engine.metrics().compile_ns.add_nanos(d1);
        assert!(!hit);
        let abox = parse_instance("Manager(ada)\nEmployee(grace)\n", &mut v).unwrap();
        let (answers, rs) = engine.answer(&plan, &abox);
        let ada = Term::Const(v.constant("ada"));
        let grace = Term::Const(v.constant("grace"));
        assert_eq!(
            answers,
            [vec![ada], vec![grace]]
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
        assert_eq!(rs.answers, 2);
        assert!(rs.rounds > 0);
        // Second request for the same OMQ: cache hit, same plan.
        let (plan2, hit2, _) = engine.plan(&o, staff, &mut v);
        assert!(hit2);
        assert!(Arc::ptr_eq(&plan, &plan2.unwrap()));
        let snap = engine.stats();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert!(snap.eval_ns > 0);
    }

    #[test]
    fn typed_answers_match_datalog_path() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(2);
        let dl = parse_ontology(
            "Manager sub Employee\nEmployee sub Staff\nManager sub ex ReportsTo.Employee\n",
            &mut v,
        )
        .unwrap();
        let o = to_gf(&dl);
        let staff = v.find_rel("Staff").unwrap();
        let (plan, _, _) = engine.plan(&o, staff, &mut v);
        let plan = plan.unwrap();
        let abox = parse_instance(
            "Manager(ada)\nEmployee(grace)\nReportsTo(grace,ada)\n",
            &mut v,
        )
        .unwrap();
        let datalog_answers = plan.program.eval(&abox);
        let (typed_answers, rs) = engine.answer(&plan, &abox);
        assert_eq!(typed_answers, datalog_answers);
        assert!(rs.typed);
        assert_eq!(rs.type_stats.elements, 2);
        assert!(rs.type_stats.edges >= 1);
        // The kernel's passes and eliminations are the request's rounds
        // and derived count; it interns no facts.
        assert_eq!(rs.rounds, rs.type_stats.rounds);
        assert_eq!(rs.derived, rs.type_stats.eliminated);
        assert!(rs.rounds >= 1 && rs.derived >= 1);
        assert_eq!(rs.store.facts, 0);
        let snap = engine.stats();
        assert_eq!(snap.typed_requests, 1);
        assert_eq!(snap.type_elements, 2);
    }

    #[test]
    fn breaker_trips_after_threshold_and_is_sticky() {
        let engine = Engine::with_threads(1);
        engine.set_quarantine_after(3);
        let key = 0xfeed;
        assert_eq!(engine.quarantine_reject(key), None);
        assert!(!engine.record_eval_failure(key));
        assert!(!engine.record_eval_failure(key));
        // A success between failures resets the count.
        engine.record_eval_success(key);
        assert!(!engine.record_eval_failure(key));
        assert!(!engine.record_eval_failure(key));
        assert!(engine.record_eval_failure(key));
        assert_eq!(engine.quarantine_reject(key), Some(3));
        // Sticky: success after the trip does not close the breaker.
        engine.record_eval_success(key);
        assert!(engine.quarantine_reject(key).is_some());
        let snap = engine.stats();
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.quarantined, 2);
        // Other plans are unaffected.
        assert_eq!(engine.quarantine_reject(0xbeef), None);
    }

    #[test]
    fn quarantine_disabled_by_default() {
        let engine = Engine::with_threads(1);
        for _ in 0..100 {
            assert!(!engine.record_eval_failure(7));
        }
        assert_eq!(engine.quarantine_reject(7), None);
    }

    #[test]
    fn sql_backend_matches_native_and_counts_compiles() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(2);
        let dl = parse_ontology("Manager sub Employee\nEmployee sub Staff\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let staff = v.find_rel("Staff").unwrap();
        let (plan, _, _) = engine.plan(&o, staff, &mut v);
        let plan = plan.unwrap();
        let abox = parse_instance("Manager(ada)\nEmployee(grace)\n", &mut v).unwrap();
        let indexed = IndexedInstance::from_interpretation(&abox);
        let (native, _) = engine.answer_indexed(&plan, &indexed);
        let vocab = Mutex::new(v);
        let (sql, rs) = engine
            .answer_indexed_sql(&plan, &indexed, &Budget::UNLIMITED, &vocab)
            .unwrap();
        assert_eq!(sql, native);
        assert_eq!(rs.answers, 2);
        let snap = engine.stats();
        assert_eq!(snap.sql_compiles, 1);
        assert_eq!(snap.sql_refusals, 0);
    }

    #[test]
    fn recursive_plan_gets_typed_sql_refusal() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(1);
        // An existential role restriction makes emit_datalog's elim
        // propagation recursive, so the plan compiles natively but
        // carries no SQL text.
        let dl = parse_ontology("A sub ex R.B\nB sub C\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let c = v.find_rel("C").unwrap();
        let (plan, _, _) = engine.plan(&o, c, &mut v);
        let plan = plan.unwrap();
        assert!(plan.sql.is_err(), "role-bearing plan should be recursive");
        let abox = parse_instance("A(x)\n", &mut v).unwrap();
        let indexed = IndexedInstance::from_interpretation(&abox);
        let vocab = Mutex::new(v);
        let err = engine
            .answer_indexed_sql(&plan, &indexed, &Budget::UNLIMITED, &vocab)
            .unwrap_err();
        assert!(matches!(err, EngineError::NotSqlRewritable(_)));
        assert!(format!("{err}").contains("not rewritable to SQL"));
        let snap = engine.stats();
        assert_eq!(snap.sql_refusals, 1);
        assert_eq!(snap.sql_compiles, 0);
    }

    #[test]
    fn batch_answers_match_singles() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(4);
        let dl = parse_ontology("A sub B\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let b = v.find_rel("B").unwrap();
        let (plan, _, _) = engine.plan(&o, b, &mut v);
        let plan = plan.unwrap();
        let texts = ["A(x1)\n", "A(y1)\nA(y2)\n", "B(z1)\n", ""];
        let aboxes: Vec<IndexedInstance> = texts
            .iter()
            .map(|t| IndexedInstance::from_interpretation(&parse_instance(t, &mut v).unwrap()))
            .collect();
        let (batch, rs) = engine.answer_batch(&plan, &aboxes);
        assert_eq!(batch.len(), 4);
        assert_eq!(rs.answers, 1 + 2 + 1);
        for (i, d) in aboxes.iter().enumerate() {
            let (single, _) = engine.answer_indexed(&plan, d);
            assert_eq!(batch[i], single, "abox {i}");
        }
    }
}
