//! The JSONL serving protocol: one request object per line in, one
//! response object per line out.
//!
//! Request shape (`abox` and `aboxes` are mutually exclusive; `limits`
//! is optional and clamped by the session's own limits):
//!
//! ```json
//! {"id": "r1",
//!  "ontology": "Manager sub Employee\nEmployee sub Staff",
//!  "query": "Staff",
//!  "abox": "Manager(ada)\nEmployee(grace)",
//!  "limits": {"max_rounds": 1000, "max_derived": 100000, "timeout_ms": 250}}
//! ```
//!
//! Successful response — `"stats"` is strictly request-scoped:
//!
//! ```json
//! {"id": "r1", "status": "ok", "cached": false, "zone": "Dichotomy (Datalog!= = PTIME)",
//!  "fragment": "uGF", "backend": "native",
//!  "answers": [["ada"], ["grace"]],
//!  "stats": {"compile_us": 412, "eval_us": 14, "rounds": 1, "derived": 5,
//!            "cache_hit": false, "maintained": false, "cert_bytes": 0}}
//! ```
//!
//! `"rounds"` and `"derived"` count the evaluation's work. On a reply
//! served by the type kernel (plain queries, batches, session reads with
//! views off) they are its propagation passes and its (element, type)
//! eliminations; on certified and maintained-view replies, Datalog
//! fixpoint rounds and derived facts. The `"limits"` `max_rounds` and
//! `max_derived` bound the same counts.
//!
//! The cumulative engine totals are pulled, not pushed: `{"op": "stats"}`
//! answers with every metric of [`crate::stats`]' table, keys in table
//! order (a read, so followers and fenced nodes answer it too):
//!
//! ```json
//! {"id": "s", "status": "ok", "op": "stats",
//!  "engine": {"requests": 1, "cache_hits": 0, "cache_misses": 1, "cache_size": 1,
//!             "evictions": 0, "inflight_waits": 0, "overloaded": 0, "panics": 0, ...}}
//! ```
//!
//! With `"aboxes": ["...", "..."]` the response carries `"batches"` (one
//! answer array per ABox, evaluated concurrently) instead of
//! `"answers"`. Errors come back as
//! `{"id": ..., "status": "error", "error": "..."}`; a blown resource
//! budget comes back as `{"id": ..., "status": "overloaded", "error":
//! ..., "limit": "rounds" | "derived" | "deadline"}`. The session never
//! dies on a bad line: panics inside compilation or evaluation are
//! caught, reported as structured errors, and counted in the engine
//! totals.
//!
//! ## Backends
//!
//! A query may carry `"backend": "native"` or `"backend": "sql"` (the
//! session default is [`ServeConfig::default_backend`], settable with
//! `gomq-serve --backend`). The native backend answers from the plan's
//! bitset type kernel ([`crate::backend::native`]): arc consistency
//! over the ABox's element types, the same type elimination the
//! Theorem-5 Datalog≠ rewriting spells out, without materializing a
//! fact. Certified queries run the rewriting's traced fixpoint instead,
//! and `"session": true` reads come from its maintained views when view
//! maintenance is on. The SQL backend executes the plan's eagerly
//! emitted portable SQL on the in-process `gomq-sqlexec` executor —
//! answer sets are identical (`tests/sql_crosscheck.rs` proves it on
//! random OMQs). A plan whose rewriting is recursive has no SQL form
//! and is refused with `"status": "non-rewritable-to-sql"`; the native
//! backend still answers it. The SQL path serves exactly one
//! request-supplied ABox: certificates, `"aboxes"` batches and
//! `"session": true` are native-only.
//!
//! ABox constants interned while serving a request are rolled back once
//! no request is in flight, so a long-lived session's [`Vocab`] does not
//! grow with the ABoxes it has seen (plans keep only relation ids, which
//! are never rolled back). Constants asserted into the durable session
//! raise the rollback floor instead — session facts must keep their
//! names.
//!
//! ## Session mutations
//!
//! Besides (the default) `"op": "query"`, a request can mutate the
//! session-resident ABox: `{"op": "assert", "abox": "..."}` adds facts,
//! `{"op": "mark"}` takes a rollback point, `{"op": "rollback", "mark":
//! n}` truncates back to one. Queries evaluate against the session store
//! with `"session": true` in place of `"abox"`. When the session was
//! opened with a data directory ([`ServeConfig::data_dir`]), every
//! mutation is journaled to a write-ahead log *before* it is applied
//! ([`crate::session::DurableSession`]) and periodically folded into a
//! snapshot, so a crash at any instant loses at most the un-acked
//! record.
//!
//! ## Failure containment
//!
//! A plan whose *evaluation* keeps failing (panics or blown budgets,
//! [`ServeConfig::quarantine_after`] times) has its circuit breaker
//! latched open and answers `"status": "quarantined"` from then on. A
//! request whose deadline is already expired at admission is refused as
//! `"overloaded"` without entering the executor. Input lines beyond
//! [`ServeConfig::max_line_bytes`] are refused as `"status":
//! "malformed"` without being buffered in full ([`read_line_capped`]).

use crate::backend::Backend;
use crate::cache::{lock_recover, panic_message, PlanCache};
use crate::engine::Engine;
use crate::json::{self, Json};
use crate::plan::{EngineError, OmqPlan};
use crate::session::{
    DurableSession, MutationInfo, PersistOptions, RecoveryInfo, SessionError, DEFAULT_MAX_VIEWS,
};
use crate::stats::{EngineStats, RequestStats};
use crate::wal::SymFact;
use gomq_core::{Fact, IndexedInstance, Term, Vocab};
use gomq_datalog::{Budget, BudgetExceeded, LimitKind, Materialization};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-request resource limits. `None` means unlimited; a request's own
/// `"limits"` object is clamped pointwise against the session's.
#[derive(Clone, Copy, Debug, Default)]
pub struct Limits {
    /// Maximum rounds per evaluation: fixpoint rounds, or kernel passes.
    pub max_rounds: Option<usize>,
    /// Maximum work per evaluation (per ABox in a batch): IDB facts
    /// derived, or kernel (element, type) eliminations.
    pub max_derived: Option<usize>,
    /// Wall-clock timeout per request (shared across a batch).
    pub timeout: Option<Duration>,
}

impl Limits {
    /// The pointwise minimum of two limit sets (`None` = unlimited).
    pub fn clamp(&self, other: &Limits) -> Limits {
        fn min_opt<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        Limits {
            max_rounds: min_opt(self.max_rounds, other.max_rounds),
            max_derived: min_opt(self.max_derived, other.max_derived),
            timeout: min_opt(self.timeout, other.timeout),
        }
    }

    /// Converts the limits into a [`Budget`] whose deadline starts now.
    pub fn budget_from_now(&self) -> Budget {
        Budget {
            max_rounds: self.max_rounds,
            max_derived: self.max_derived,
            deadline: self.timeout.map(|t| Instant::now() + t),
        }
    }
}

/// Configuration for a serving session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads for an `"aboxes"` batch (1 = sequential).
    pub threads: usize,
    /// Plan-cache capacity (plans beyond this are LRU-evicted).
    pub cache_capacity: usize,
    /// Session-wide default limits (requests can only tighten them).
    pub limits: Limits,
    /// Data directory for crash-consistent session persistence (WAL +
    /// snapshots). `None` keeps the session in memory.
    pub data_dir: Option<PathBuf>,
    /// Snapshot after this many journaled mutations (0 = never).
    pub snapshot_every: u64,
    /// fsync the WAL after every journaled record.
    pub fsync: bool,
    /// Evaluation failures (panics or blown budgets) before a plan's
    /// circuit breaker opens and it answers `"quarantined"`; 0 disables.
    pub quarantine_after: u32,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// refused as `"malformed"` without being buffered in full.
    pub max_line_bytes: usize,
    /// Maintained session materializations kept per session (LRU-
    /// evicted beyond this); 0 disables incremental view maintenance
    /// and session queries fall back to from-scratch evaluation (the
    /// type kernel; the traced fixpoint when certified).
    pub max_views: usize,
    /// The backend answering queries that carry no per-request
    /// `"backend"` field ([`Backend::Native`] unless `gomq-serve
    /// --backend sql` says otherwise).
    pub default_backend: Backend,
    /// Follower staleness bound: replica session queries whose lsn lag
    /// behind the primary exceeds this are refused with `"status":
    /// "stale"`. `None` serves at any lag (the lag is still reported in
    /// the per-request `"staleness"` field).
    pub max_staleness_lsn: Option<u64>,
}

/// Default request-line cap: 16 MiB.
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 << 20;

/// Resolves the `--views on|off` / `--max-views N` flag pair into a
/// view capacity, independent of the order the flags appeared in.
///
/// The two flags overlap — a capacity of 0 *is* "off" — which
/// historically made `--views on --max-views 0` and `--max-views 0
/// --views on` mean different things depending on order. The resolution
/// is now by type-checked combination, not by parse order:
///
/// - `--max-views 0` is a usage error (say `--views off`); 0 as a
///   capacity is never accepted, so the ambiguity cannot arise.
/// - `--views off` with `--max-views N` is a contradiction and also a
///   usage error.
/// - `--views off` alone disables maintenance (capacity 0).
/// - `--max-views N` (with or without `--views on`) sets capacity N.
/// - Neither flag, or `--views on` alone, means
///   [`DEFAULT_MAX_VIEWS`].
pub fn resolve_view_flags(views_on: Option<bool>, max_views: Option<u64>) -> Result<usize, String> {
    if max_views == Some(0) {
        return Err(
            "--max-views 0 is ambiguous: use --views off to disable view maintenance".into(),
        );
    }
    match (views_on, max_views) {
        (Some(false), Some(_)) => {
            Err("--views off contradicts --max-views (drop one of the two)".into())
        }
        (Some(false), None) => Ok(0),
        (_, Some(n)) => Ok(n as usize),
        (_, None) => Ok(DEFAULT_MAX_VIEWS),
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_capacity: crate::cache::DEFAULT_CAPACITY,
            limits: Limits::default(),
            data_dir: None,
            snapshot_every: 64,
            fsync: false,
            quarantine_after: 3,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_views: DEFAULT_MAX_VIEWS,
            default_backend: Backend::default(),
            max_staleness_lsn: None,
        }
    }
}

/// Bookkeeping for rolling back ABox-constant interning: constants are
/// truncated to the burst's floor once no request is in flight.
#[derive(Debug, Default)]
struct ConstScope {
    active: usize,
    floor: usize,
}

/// State shared by every session on one serving process: the engine
/// (plan cache included), the vocabulary, and the constant-scoping
/// bookkeeping. Clone the [`Arc`] and build per-thread sessions with
/// [`ServeSession::with_shared`] to serve concurrently.
pub struct ServeShared {
    engine: Engine,
    vocab: Mutex<Vocab>,
    scope: Mutex<ConstScope>,
    session: Mutex<DurableSession>,
    limits: Limits,
    max_line_bytes: usize,
    default_backend: Backend,
    repl: crate::repl::ReplContext,
}

impl ServeShared {
    /// Shared state per `config`. Panics if recovery from
    /// [`ServeConfig::data_dir`] fails; use
    /// [`ServeShared::try_with_config`] to handle corruption.
    pub fn with_config(config: ServeConfig) -> Self {
        Self::try_with_config(config)
            .expect("session recovery failed")
            .0
    }

    /// Shared state per `config`, recovering the durable session from
    /// the data directory when one is configured. Returns what recovery
    /// rebuilt (`None` when the session is in-memory).
    pub fn try_with_config(
        config: ServeConfig,
    ) -> Result<(Self, Option<RecoveryInfo>), SessionError> {
        let engine = Engine::with_cache(
            config.threads,
            PlanCache::with_capacity(config.cache_capacity),
        );
        engine.set_quarantine_after(config.quarantine_after);
        let mut vocab = Vocab::new();
        let (mut session, recovery) = match &config.data_dir {
            Some(dir) => {
                let opts = PersistOptions {
                    fsync: config.fsync,
                    snapshot_every: config.snapshot_every,
                };
                let (s, info) = DurableSession::open(dir, opts, &mut vocab)?;
                let m = engine.metrics();
                m.recovered_records.add(info.replayed_records);
                m.recovered_facts
                    .add(info.snapshot_facts.saturating_add(info.replayed_facts));
                (s, Some(info))
            }
            None => (DurableSession::in_memory(), None),
        };
        session.set_view_capacity(config.max_views);
        let repl = crate::repl::ReplContext::default();
        if let Some(bound) = config.max_staleness_lsn {
            repl.set_max_staleness(bound);
        }
        repl.observe_epoch(session.repl_epoch());
        Ok((
            ServeShared {
                engine,
                vocab: Mutex::new(vocab),
                scope: Mutex::new(ConstScope::default()),
                session: Mutex::new(session),
                limits: config.limits,
                max_line_bytes: config.max_line_bytes,
                default_backend: config.default_backend,
                repl,
            },
            recovery,
        ))
    }

    /// Shared state around an existing engine (used by tests to inject a
    /// cache with a colliding hash function).
    pub fn with_engine(engine: Engine, limits: Limits) -> Self {
        ServeShared {
            engine,
            vocab: Mutex::new(Vocab::new()),
            scope: Mutex::new(ConstScope::default()),
            session: Mutex::new(DurableSession::in_memory()),
            limits,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            default_backend: Backend::default(),
            repl: crate::repl::ReplContext::default(),
        }
    }

    /// The underlying engine (for statistics inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A snapshot of the engine's metrics with the session store's size
    /// sampled in — what `{"op": "stats"}` renders.
    pub fn stats(&self) -> EngineStats {
        let facts = lock_recover(&self.session).len() as u64;
        self.engine.metrics().session_facts.set(facts);
        self.engine.stats()
    }

    /// Samples the view registry's gauges (called with the session lock
    /// held, right after the registry changed).
    fn sample_views(&self, session: &DurableSession) {
        let m = self.engine.metrics();
        m.views_active.set(session.views().len() as u64);
        m.views_evicted.set(session.views().evicted());
    }

    /// Replication state: role, observed epoch, staleness bound.
    pub fn repl(&self) -> &crate::repl::ReplContext {
        &self.repl
    }

    /// The session mutex, poison-recovered (replication internals; the
    /// `session → vocab` nesting order applies here too).
    pub(crate) fn session_lock(&self) -> std::sync::MutexGuard<'_, DurableSession> {
        lock_recover(&self.session)
    }

    /// The vocabulary mutex, poison-recovered (replication internals).
    pub(crate) fn vocab_lock(&self) -> std::sync::MutexGuard<'_, Vocab> {
        lock_recover(&self.vocab)
    }

    /// Marks a request (or a replicated apply) as in flight; the first
    /// of a burst records the constant floor to roll back to.
    fn scope_enter(&self) {
        let mut scope = lock_recover(&self.scope);
        if scope.active == 0 {
            scope.floor = lock_recover(&self.vocab).const_mark();
        }
        scope.active += 1;
    }

    /// Marks a request as done; the last request of a burst rolls back
    /// every ABox constant the burst interned. (Rollback must wait for
    /// quiescence: constants are shared across concurrent requests.)
    fn scope_exit(&self) {
        let mut scope = lock_recover(&self.scope);
        scope.active -= 1;
        if scope.active == 0 {
            let floor = scope.floor;
            lock_recover(&self.vocab).truncate_consts(floor);
        }
    }

    /// Raises the burst's rollback floor to `mark`, keeping every
    /// constant interned below it.
    fn pin_consts(&self, mark: usize) {
        let mut scope = lock_recover(&self.scope);
        scope.floor = scope.floor.max(mark);
    }

    /// Runs a replicated mutation (session → vocab locks held) as an
    /// in-flight request and then pins the constants it interned:
    /// shipped facts are session data, so a read finishing meanwhile
    /// must not truncate their names.
    pub(crate) fn replicate<T>(&self, f: impl FnOnce(&mut DurableSession, &mut Vocab) -> T) -> T {
        self.scope_enter();
        let (out, mark) = {
            let mut session = lock_recover(&self.session);
            let mut vocab = lock_recover(&self.vocab);
            let out = f(&mut session, &mut vocab);
            (out, vocab.const_mark())
        };
        self.pin_consts(mark);
        self.scope_exit();
        out
    }

    /// The configured request-line byte cap.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// Flushes the durable session for an orderly shutdown: fsync the
    /// WAL, then cut a final snapshot, so a deploy-time restart recovers
    /// from the snapshot alone instead of replaying the whole log.
    /// Returns `Ok(false)` for in-memory sessions. Counts the drain (and
    /// the snapshot, when one was cut) in the engine totals.
    pub fn drain_persist(&self) -> Result<bool, SessionError> {
        self.engine.metrics().drains.add(1);
        // Primary drain flushes to replicas first: every journaled frame
        // must be acknowledged by every connected replica (bounded wait)
        // before the process lets go, so a drain-then-promote loses
        // nothing. Only then is the hub closed — closing earlier would
        // stop the senders (and drop publishes) with acknowledged
        // frames still unshipped.
        if let Some(hub) = self.repl.hub() {
            if !hub.wait_replicated(std::time::Duration::from_secs(5)) {
                eprintln!("gomq-serve: repl: drain proceeding with unacknowledged replica frames");
            }
            hub.close();
        }
        let result = {
            let mut session = lock_recover(&self.session);
            if !session.is_durable() {
                return Ok(false);
            }
            // session → vocab is the one permitted lock nesting order.
            let vocab = lock_recover(&self.vocab);
            session.drain(&vocab)
        };
        if result.is_ok() {
            self.engine.metrics().snapshots.add(1);
        }
        result.map(|()| true)
    }
}

/// A serving session: a view onto [`ServeShared`] state plus the
/// session's default limits. Single-threaded callers just construct one
/// with [`ServeSession::new`] / [`ServeSession::with_threads`];
/// concurrent servers build one session per thread over a shared
/// [`Arc<ServeShared>`].
pub struct ServeSession {
    shared: Arc<ServeShared>,
    limits: Limits,
}

impl Default for ServeSession {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeSession {
    /// A session sized to the machine.
    pub fn new() -> Self {
        Self::with_config(ServeConfig::default())
    }

    /// A session with an explicit worker budget.
    pub fn with_threads(threads: usize) -> Self {
        Self::with_config(ServeConfig {
            threads,
            ..ServeConfig::default()
        })
    }

    /// A session per `config` (cache capacity and default limits).
    pub fn with_config(config: ServeConfig) -> Self {
        Self::with_shared(Arc::new(ServeShared::with_config(config)))
    }

    /// A session over existing shared state (one per serving thread).
    pub fn with_shared(shared: Arc<ServeShared>) -> Self {
        let limits = shared.limits;
        ServeSession { shared, limits }
    }

    /// The shared state (clone it to build sibling sessions).
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.shared
    }

    /// The underlying engine (for statistics inspection).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Handles one request line, returning one response line (no
    /// trailing newline). Never panics and never poisons shared state,
    /// whatever the input: malformed requests, resource blowups and
    /// panicking corner cases all come back as structured responses.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.shared.scope_enter();
        let dispatched = catch_unwind(AssertUnwindSafe(|| self.dispatch(line)));
        let (id, outcome) = match dispatched {
            Ok(r) => r,
            Err(payload) => {
                self.shared.engine.metrics().panics.add(1);
                // The id is re-parsed: the panicking dispatch cannot
                // hand it back.
                let id = match json::parse(line) {
                    Ok(Json::Obj(o)) => o.get("id").and_then(Json::as_str).map(str::to_owned),
                    _ => None,
                };
                (id, Err(EngineError::Internal(panic_message(payload))))
            }
        };
        let out = match outcome {
            Ok(body) => body,
            Err(e) => {
                let mut out = String::from("{");
                if let Some(id) = &id {
                    out.push_str("\"id\": ");
                    json::write_str(&mut out, id);
                    out.push_str(", ");
                }
                match &e {
                    EngineError::Overloaded(be) => {
                        out.push_str("\"status\": \"overloaded\", \"error\": ");
                        json::write_str(&mut out, &format!("{e}"));
                        let _ = write!(out, ", \"limit\": \"{}\"", be.limit.name());
                    }
                    EngineError::Quarantined(n) => {
                        out.push_str("\"status\": \"quarantined\", \"error\": ");
                        json::write_str(&mut out, &format!("{e}"));
                        let _ = write!(out, ", \"failures\": {n}");
                    }
                    EngineError::Malformed(_) => {
                        out.push_str("\"status\": \"malformed\", \"error\": ");
                        json::write_str(&mut out, &format!("{e}"));
                    }
                    EngineError::NotSqlRewritable(_) => {
                        out.push_str("\"status\": \"non-rewritable-to-sql\", \"error\": ");
                        json::write_str(&mut out, &format!("{e}"));
                    }
                    _ => {
                        out.push_str("\"status\": \"error\", \"error\": ");
                        json::write_str(&mut out, &format!("{e}"));
                    }
                }
                out.push('}');
                out
            }
        };
        self.shared.scope_exit();
        out
    }

    fn dispatch(&mut self, line: &str) -> (Option<String>, Result<String, EngineError>) {
        let parsed =
            json::parse(line).map_err(|e| EngineError::BadRequest(format!("invalid JSON: {e}")));
        let obj = match parsed {
            Ok(Json::Obj(o)) => o,
            Ok(_) => {
                return (
                    None,
                    Err(EngineError::BadRequest(
                        "request must be a JSON object".into(),
                    )),
                )
            }
            Err(e) => return (None, Err(e)),
        };
        let id = obj.get("id").and_then(Json::as_str).map(str::to_owned);
        (id.clone(), self.run(&obj, id.as_deref()))
    }

    /// Parses the request's optional `"limits"` object.
    fn request_limits(
        &self,
        obj: &std::collections::BTreeMap<String, Json>,
    ) -> Result<Limits, EngineError> {
        let Some(limits) = obj.get("limits") else {
            return Ok(Limits::default());
        };
        let Json::Obj(l) = limits else {
            return Err(EngineError::BadRequest(
                "\"limits\" must be an object".into(),
            ));
        };
        let num = |name: &str| -> Result<Option<u64>, EngineError> {
            match l.get(name) {
                None => Ok(None),
                Some(Json::Num(n)) if *n >= 0.0 && n.is_finite() => Ok(Some(*n as u64)),
                Some(_) => Err(EngineError::BadRequest(format!(
                    "\"limits.{name}\" must be a non-negative number"
                ))),
            }
        };
        for key in l.keys() {
            if !matches!(key.as_str(), "max_rounds" | "max_derived" | "timeout_ms") {
                return Err(EngineError::BadRequest(format!(
                    "unknown limit \"{key}\" (expected max_rounds, max_derived, timeout_ms)"
                )));
            }
        }
        Ok(Limits {
            max_rounds: num("max_rounds")?.map(|n| n as usize),
            max_derived: num("max_derived")?.map(|n| n as usize),
            timeout: num("timeout_ms")?.map(Duration::from_millis),
        })
    }

    fn run(
        &mut self,
        obj: &std::collections::BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        match obj.get("op") {
            None => self.run_query(obj, id),
            Some(op) => match op.as_str() {
                Some("query") => self.run_query(obj, id),
                Some("assert") => self.run_assert(obj, id),
                Some("mark") => self.run_mark(id),
                Some("rollback") => self.run_rollback(obj, id),
                Some("promote") => self.run_promote(id),
                Some("stats") => Ok(self.run_stats(id)),
                Some(other) => Err(EngineError::BadRequest(format!(
                    "unknown op \"{other}\" (expected query, assert, mark, rollback, promote, stats)"
                ))),
                None => Err(EngineError::BadRequest("\"op\" must be a string".into())),
            },
        }
    }

    fn run_query(
        &mut self,
        obj: &std::collections::BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        let field = |name: &str| -> Result<&str, EngineError> {
            obj.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| EngineError::BadRequest(format!("missing string field \"{name}\"")))
        };
        let ontology_text = field("ontology")?;
        let query_name = field("query")?;
        let want_cert = match obj.get("certificate") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => {
                return Err(EngineError::BadRequest(
                    "\"certificate\" must be a boolean".into(),
                ))
            }
        };
        if want_cert && obj.contains_key("aboxes") {
            return Err(EngineError::BadRequest(
                "\"certificate\": true cannot be combined with \"aboxes\" \
                 (certify one ABox per request)"
                    .into(),
            ));
        }
        let backend = match obj.get("backend") {
            None => self.shared.default_backend,
            Some(Json::Str(name)) => Backend::from_name(name).map_err(EngineError::BadRequest)?,
            Some(_) => {
                return Err(EngineError::BadRequest(
                    "\"backend\" must be \"native\" or \"sql\"".into(),
                ))
            }
        };
        if backend == Backend::Sql {
            if want_cert {
                return Err(EngineError::BadRequest(
                    "\"backend\": \"sql\" cannot attach certificates \
                     (the SQL executor records no derivations)"
                        .into(),
                ));
            }
            if obj.contains_key("aboxes") {
                return Err(EngineError::BadRequest(
                    "\"backend\": \"sql\" cannot be combined with \"aboxes\" \
                     (batch one ABox per request)"
                        .into(),
                ));
            }
            if matches!(obj.get("session"), Some(Json::Bool(true))) {
                return Err(EngineError::BadRequest(
                    "\"backend\": \"sql\" cannot be combined with \"session\": true \
                     (the session store is served natively)"
                        .into(),
                ));
            }
        }
        let budget = self
            .limits
            .clamp(&self.request_limits(obj)?)
            .budget_from_now();
        // Admission control: a request whose deadline has already passed
        // must not enter the executor at all — it would only burn a
        // worker to discover the same verdict.
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            self.shared.engine.metrics().overloaded.add(1);
            return Err(EngineError::Overloaded(BudgetExceeded {
                limit: LimitKind::Deadline,
                rounds: 0,
                derived: 0,
            }));
        }
        let (o, query) = {
            let mut vocab = lock_recover(&self.shared.vocab);
            let dl = parse_ontology(ontology_text, &mut vocab)
                .map_err(|e| EngineError::BadRequest(format!("ontology: {e}")))?;
            let o = to_gf(&dl);
            let query = vocab.find_rel(query_name).ok_or_else(|| {
                EngineError::BadRequest(format!(
                    "query relation \"{query_name}\" does not occur in the ontology"
                ))
            })?;
            (o, query)
        };
        // The vocab lock is released before planning: the cache takes it
        // itself, and single-flight waiters must not hold it.
        let engine = &self.shared.engine;
        let (plan, cached, compile_elapsed) = engine.plan_shared(&o, query, &self.shared.vocab);
        engine.metrics().compile_ns.add_nanos(compile_elapsed);
        let plan = plan?;

        // The session-resident store is answered on its own path: a
        // shared `Arc` snapshot (no column copy) plus, when enabled,
        // the plan's maintained materialization.
        if matches!(obj.get("session"), Some(Json::Bool(true))) {
            if obj.contains_key("abox") || obj.contains_key("aboxes") {
                return Err(EngineError::BadRequest(
                    "\"session\": true cannot be combined with \"abox\"/\"aboxes\"".into(),
                ));
            }
            return self.run_session_query(id, &plan, cached, compile_elapsed, &budget, want_cert);
        }
        // One ABox or a batch of ABoxes.
        let parse_abox = |text: &str| -> Result<IndexedInstance, EngineError> {
            let mut vocab = lock_recover(&self.shared.vocab);
            let d = gomq_core::parse::parse_instance(text, &mut vocab)
                .map_err(|e| EngineError::BadRequest(format!("abox: {e}")))?;
            // Move the parsed store into the index — the serve path never
            // copies the fact columns.
            Ok(IndexedInstance::from_instance(d))
        };
        enum Input {
            One(Box<IndexedInstance>),
            Batch(Vec<IndexedInstance>),
        }
        let input = if let Some(texts) = obj.get("aboxes") {
            let texts = texts.as_arr().ok_or_else(|| {
                EngineError::BadRequest("\"aboxes\" must be an array of strings".into())
            })?;
            let mut aboxes = Vec::with_capacity(texts.len());
            for t in texts {
                aboxes.push(parse_abox(t.as_str().ok_or_else(|| {
                    EngineError::BadRequest("\"aboxes\" must be an array of strings".into())
                })?)?);
            }
            Input::Batch(aboxes)
        } else {
            Input::One(Box::new(parse_abox(field("abox")?)?))
        };

        // The SQL backend's rewritability verdict is a compile-time
        // property of the plan: refuse recursive plans before the
        // breaker or the executor ever see the request.
        if backend == Backend::Sql {
            if let Err(e) = &plan.sql {
                engine.metrics().sql_refusals.add(1);
                return Err(EngineError::NotSqlRewritable(e.clone()));
            }
        }
        // Circuit breaker: a plan that keeps failing evaluation is
        // refused before it can burn another budget.
        if let Some(n) = engine.quarantine_reject(plan.key) {
            return Err(EngineError::Quarantined(n));
        }
        // Evaluate with failures (blown budgets and panics, not bad
        // requests) attributed to this plan's breaker.
        let evaluated = catch_unwind(AssertUnwindSafe(|| match &input {
            Input::One(abox) if want_cert => {
                // Certified path: the traced fixpoint *is* the
                // evaluation — answers and certificate come from one
                // run, never a second evaluation. The ABox came with
                // the request, so there is no session position to bind
                // to (the certificate's base facts are self-contained).
                engine
                    .answer_indexed_certified(&plan, abox, &budget, &self.shared.vocab, None)
                    .map(|(answers, cert, stats)| {
                        let mut payload = String::from("\"answers\": ");
                        self.write_answers(&mut payload, &answers);
                        payload.push_str(", \"certificate\": ");
                        payload.push_str(&cert);
                        (payload, stats)
                    })
            }
            Input::One(abox) => match backend {
                Backend::Native => engine.answer_indexed_budgeted(&plan, abox, &budget),
                Backend::Sql => engine.answer_indexed_sql(&plan, abox, &budget, &self.shared.vocab),
            }
            .map(|(answers, stats)| {
                let mut payload = String::from("\"answers\": ");
                self.write_answers(&mut payload, &answers);
                (payload, stats)
            }),
            Input::Batch(aboxes) => {
                engine
                    .answer_batch_budgeted(&plan, aboxes, &budget)
                    .map(|(batches, stats)| {
                        let mut payload = String::from("\"batches\": [");
                        for (i, answers) in batches.iter().enumerate() {
                            if i > 0 {
                                payload.push_str(", ");
                            }
                            self.write_answers(&mut payload, answers);
                        }
                        payload.push(']');
                        (payload, stats)
                    })
            }
        }));
        let (payload, stats) = match evaluated {
            Ok(Ok(ok)) => {
                engine.record_eval_success(plan.key);
                ok
            }
            Ok(Err(e)) => {
                if matches!(e, EngineError::Overloaded(_)) {
                    engine.record_eval_failure(plan.key);
                }
                return Err(e);
            }
            Err(panic) => {
                engine.record_eval_failure(plan.key);
                std::panic::resume_unwind(panic)
            }
        };

        Ok(self.query_response(
            id,
            &plan,
            cached,
            compile_elapsed,
            backend,
            &payload,
            &stats,
        ))
    }

    /// Answers a `"session": true` query over the session-resident
    /// store. The store is snapshotted by an `Arc` refcount bump — the
    /// read path never deep-copies the fact columns — and, when view
    /// maintenance is enabled, the answer comes from the plan's
    /// maintained materialization: a registry hit pays one incremental
    /// sync over the facts asserted since the view last looked instead
    /// of a from-scratch fixpoint; a miss pays the one full fixpoint a
    /// view ever costs and registers it. With maintenance disabled
    /// (`max_views` 0) the plan's type kernel answers over the shared
    /// snapshot (the traced fixpoint when a certificate is asked for).
    fn run_session_query(
        &mut self,
        id: Option<&str>,
        plan: &Arc<OmqPlan>,
        cached: bool,
        compile_elapsed: Duration,
        budget: &Budget,
        want_cert: bool,
    ) -> Result<String, EngineError> {
        let engine = &self.shared.engine;
        if let Some(n) = engine.quarantine_reject(plan.key) {
            return Err(EngineError::Quarantined(n));
        }
        // Replica reads carry their lsn lag behind the primary's head
        // (`"staleness"`), and lag past the `--max-staleness-lsn` bound
        // is refused with a typed `"stale"` status before any view is
        // checked out.
        let staleness = match self.shared.repl().role() {
            crate::repl::Role::Follower => Some(
                self.shared
                    .repl()
                    .primary_lsn()
                    .saturating_sub(lock_recover(&self.shared.session).position().0),
            ),
            _ => None,
        };
        if let Some(lag) = staleness {
            let bound = self.shared.repl().max_staleness();
            if lag > bound {
                engine.metrics().repl_stale_refusals.add(1);
                let mut out = String::from("{");
                if let Some(id) = id {
                    out.push_str("\"id\": ");
                    json::write_str(&mut out, id);
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"status\": \"stale\", \"staleness\": {lag}, \"max_staleness\": {bound}, "
                );
                out.push_str("\"error\": ");
                json::write_str(
                    &mut out,
                    "replica lag exceeds --max-staleness-lsn; retry on the primary or relax the bound",
                );
                out.push('}');
                return Ok(out);
            }
        }
        // Check the view out (and snapshot the store) under one lock
        // hold; evaluation runs lock-free on the snapshot. The epoch is
        // remembered so a rollback racing this request invalidates the
        // re-registration, never the other way round. The session
        // position is captured under the *same* hold, so the
        // certificate's snapshot binding names exactly the store state
        // the answer is computed over.
        let (store, view, epoch, views_on, position) = {
            let mut session = lock_recover(&self.shared.session);
            let store = session.share_store();
            let epoch = session.views().epoch();
            let views_on = session.views().enabled();
            let position = session.position();
            let mut view = session.views_mut().take(plan.key);
            // A certificate needs recorded witnesses. A view built
            // before any certificate was requested has none — discard
            // it (a counted drop) and rebuild with recording on; from
            // then on the session pays the recording overhead only
            // because it asked for certificates.
            if want_cert && view.as_ref().is_some_and(|v| !v.is_recording()) {
                view = None;
                session.views_mut().note_dropped(1);
                self.shared.sample_views(&session);
            }
            (store, view, epoch, views_on, position)
        };
        let had_view = view.is_some();
        let t0 = Instant::now();
        let evaluated = catch_unwind(AssertUnwindSafe(
            || -> Result<(String, RequestStats), EngineError> {
                let overloaded = |e: BudgetExceeded| {
                    engine.metrics().overloaded.add(1);
                    EngineError::Overloaded(e)
                };
                let (answers, cert, stats) = match view {
                    Some(mut view) => {
                        // Maintained hit. A failed sync consumes the
                        // view — the registry never holds a half-
                        // maintained materialization.
                        let es = view.sync(&store, budget).map_err(overloaded)?;
                        let answers = view.answers();
                        let cert = want_cert
                            .then(|| self.view_certificate(&view, position))
                            .transpose()?;
                        let stats = RequestStats {
                            eval: t0.elapsed(),
                            rounds: es.rounds,
                            derived: es.derived,
                            answers: answers.len(),
                            store: es.store,
                            maintained: true,
                            ivm_deleted: es.ivm_deleted,
                            ivm_rederived: es.ivm_rederived,
                            cert_bytes: cert.as_ref().map_or(0, String::len),
                            ..RequestStats::default()
                        };
                        engine.metrics().absorb(&stats);
                        self.put_view(plan.key, view, epoch);
                        (answers, cert, stats)
                    }
                    None if views_on => {
                        // Miss: the one full fixpoint this view ever
                        // costs; register it for the next query.
                        // Certificate-requesting sessions build the
                        // recording variant, whose sync/rollback
                        // maintenance keeps witnesses alongside facts.
                        let (view, es) = if want_cert {
                            Materialization::build_recording(
                                &plan.program.rules,
                                plan.program.goal,
                                &store,
                                budget,
                            )
                        } else {
                            Materialization::build(
                                &plan.program.rules,
                                plan.program.goal,
                                &store,
                                budget,
                            )
                        }
                        .map_err(overloaded)?;
                        let answers = view.answers();
                        let cert = want_cert
                            .then(|| self.view_certificate(&view, position))
                            .transpose()?;
                        let stats = RequestStats {
                            eval: t0.elapsed(),
                            rounds: es.rounds,
                            derived: es.derived,
                            answers: answers.len(),
                            store: es.store,
                            cert_bytes: cert.as_ref().map_or(0, String::len),
                            ..RequestStats::default()
                        };
                        engine.metrics().absorb(&stats);
                        self.put_view(plan.key, view, epoch);
                        (answers, cert, stats)
                    }
                    // Maintenance disabled: a from-scratch evaluation
                    // of the shared snapshot, the traced fixpoint when
                    // certified and the type kernel otherwise (each
                    // absorbs its own stats).
                    None if want_cert => {
                        let (answers, cert, stats) = engine.answer_indexed_certified(
                            plan,
                            &store,
                            budget,
                            &self.shared.vocab,
                            Some(position),
                        )?;
                        (answers, Some(cert), stats)
                    }
                    None => {
                        let (answers, stats) =
                            engine.answer_indexed_budgeted(plan, &store, budget)?;
                        (answers, None, stats)
                    }
                };
                let mut payload = String::from("\"answers\": ");
                self.write_answers(&mut payload, &answers);
                if let Some(cert) = cert {
                    payload.push_str(", \"certificate\": ");
                    payload.push_str(&cert);
                }
                Ok((payload, stats))
            },
        ));
        let (payload, stats) = match evaluated {
            Ok(Ok(ok)) => {
                engine.record_eval_success(plan.key);
                ok
            }
            Ok(Err(e)) => {
                if matches!(e, EngineError::Overloaded(_)) {
                    engine.record_eval_failure(plan.key);
                }
                if had_view {
                    // The checked-out view died inside the failed
                    // closure (its sync blew the budget, or certificate
                    // assembly failed before re-registration): count
                    // the drop and resample the gauges so the totals
                    // never claim a view that no longer exists.
                    self.note_view_dropped();
                }
                return Err(e);
            }
            Err(panic) => {
                engine.record_eval_failure(plan.key);
                if had_view {
                    self.note_view_dropped();
                }
                std::panic::resume_unwind(panic)
            }
        };
        let mut payload = payload;
        if let Some(lag) = staleness {
            let _ = write!(payload, ", \"staleness\": {lag}");
        }
        Ok(self.query_response(
            id,
            plan,
            cached,
            compile_elapsed,
            Backend::Native,
            &payload,
            &stats,
        ))
    }

    /// Assembles the certificate for a synced recording view, bound to
    /// the session position its store snapshot was taken at.
    fn view_certificate(
        &self,
        view: &Materialization,
        position: (u64, u64),
    ) -> Result<String, EngineError> {
        let answer_ids = view.answer_ids();
        let base: std::collections::HashSet<u32> = view.base_fact_ids().iter().copied().collect();
        let source = crate::certify::CertSource {
            instance: view.instance(),
            rules: view.rules(),
            goal: view.goal(),
            answer_ids: &answer_ids,
            snapshot: Some(position),
        };
        let vocab = lock_recover(&self.shared.vocab);
        crate::certify::emit_certificate(
            &vocab,
            &source,
            |fact| base.contains(&fact),
            |fact| view.derivation(fact),
        )
        .map_err(|e| EngineError::Internal(format!("certificate assembly: {e}")))
    }

    /// Accounts a view that died outside the registry (a failed sync or
    /// certificate-assembly error consumed it): bumps the drop counter
    /// and resamples the gauges into the engine totals.
    fn note_view_dropped(&self) {
        let mut session = lock_recover(&self.shared.session);
        session.views_mut().note_dropped(1);
        self.shared.sample_views(&session);
    }

    /// Re-registers a checked-out (or freshly built) view and samples
    /// the registry gauges into the engine totals. A stale epoch (a
    /// rollback raced this request) drops the view instead — the next
    /// query rebuilds from the rolled-back store.
    fn put_view(&self, key: u64, view: Materialization, epoch: u64) {
        let mut session = lock_recover(&self.shared.session);
        session.views_mut().put(key, view, epoch);
        self.shared.sample_views(&session);
    }

    /// The common `{"id": ..., "status": "ok", ..., "stats": ...}`
    /// response of both query paths.
    #[allow(clippy::too_many_arguments)]
    fn query_response(
        &self,
        id: Option<&str>,
        plan: &OmqPlan,
        cached: bool,
        compile_elapsed: Duration,
        backend: Backend,
        payload: &str,
        stats: &RequestStats,
    ) -> String {
        let mut out = String::from("{");
        if let Some(id) = id {
            out.push_str("\"id\": ");
            json::write_str(&mut out, id);
            out.push_str(", ");
        }
        out.push_str("\"status\": \"ok\", ");
        let _ = write!(out, "\"cached\": {cached}, ");
        out.push_str("\"zone\": ");
        json::write_str(&mut out, &format!("{}", plan.report.zone));
        out.push_str(", \"fragment\": ");
        // The tightest containing Figure-1 fragment, or null when the
        // classifier placed the ontology in no listed fragment.
        match plan.report.fragments.first() {
            Some(fr) => json::write_str(&mut out, &format!("{fr}")),
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"backend\": \"{}\"", backend.name());
        out.push_str(", ");
        out.push_str(payload);
        let _ = write!(
            out,
            ", \"stats\": {{\"compile_us\": {}, \"eval_us\": {}, \"rounds\": {}, \
             \"derived\": {}, \"cache_hit\": {}, \"maintained\": {}, \"cert_bytes\": {}}}",
            compile_elapsed.as_micros(),
            stats.eval.as_micros(),
            stats.rounds,
            stats.derived,
            cached,
            stats.maintained,
            stats.cert_bytes,
        );
        out.push('}');
        out
    }

    /// Refuses a write on a node that is not writable: followers answer
    /// a typed `"read-only"` status, fenced ex-primaries a typed
    /// `"fenced"` status carrying the superseding epoch. Returns `None`
    /// when writes are allowed (single-node or primary role).
    fn refuse_write(&self, id: Option<&str>, op: &str) -> Option<String> {
        use crate::repl::Role;
        let ctx = self.shared.repl();
        let role = ctx.role();
        let (status, detail) = match role {
            Role::Single | Role::Primary => return None,
            Role::Follower => (
                "read-only",
                "this node is a read replica; send writes to the primary".to_owned(),
            ),
            Role::Fenced => (
                "fenced",
                format!(
                    "this node was superseded at epoch {}; it no longer accepts writes",
                    ctx.epoch()
                ),
            ),
        };
        self.shared.engine.metrics().repl_write_refusals.add(1);
        let mut out = String::from("{");
        if let Some(id) = id {
            out.push_str("\"id\": ");
            json::write_str(&mut out, id);
            out.push_str(", ");
        }
        let _ = write!(out, "\"status\": \"{status}\", \"op\": \"{op}\", ");
        if role == Role::Fenced {
            let _ = write!(out, "\"epoch\": {}, ", ctx.epoch());
        }
        out.push_str("\"error\": ");
        json::write_str(&mut out, &detail);
        out.push('}');
        Some(out)
    }

    /// Handles `{"op": "promote"}`: a follower stamps the next epoch
    /// into its own WAL, becomes the primary, and keeps fencing its old
    /// primary's replication address from here on.
    fn run_promote(&mut self, id: Option<&str>) -> Result<String, EngineError> {
        use crate::repl::Role;
        match self.shared.repl().role() {
            Role::Follower => {}
            r => {
                return Err(EngineError::BadRequest(format!(
                    "\"promote\" requires a follower (this node is {})",
                    r.name()
                )))
            }
        }
        let (epoch, lsn) = crate::repl::promote(&self.shared, "operator promote op")
            .map_err(|e| EngineError::Internal(format!("promotion: {e}")))?;
        let mut out = self.mutation_head(id, "promote");
        let _ = write!(out, "\"epoch\": {epoch}, \"lsn\": {lsn}");
        out.push('}');
        Ok(out)
    }

    /// Handles `{"op": "stats"}`: the engine's cumulative metrics under
    /// `"engine"`, keys in table order.
    fn run_stats(&self, id: Option<&str>) -> String {
        let mut out = self.mutation_head(id, "stats");
        out.push_str("\"engine\": ");
        self.shared.stats().write_json(&mut out);
        out.push('}');
        out
    }

    /// Handles `{"op": "assert", "abox": "..."}`: journal the batch to
    /// the WAL (when durable), apply it to the session store, and
    /// snapshot if the policy says so.
    fn run_assert(
        &mut self,
        obj: &std::collections::BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        if let Some(refusal) = self.refuse_write(id, "assert") {
            return Ok(refusal);
        }
        let text = obj
            .get("abox")
            .and_then(Json::as_str)
            .ok_or_else(|| EngineError::BadRequest("missing string field \"abox\"".into()))?;
        // Parse and symbolize under the vocab lock; the symbolic copy is
        // what the WAL journals (names survive constant-table shifts).
        let (facts, syms, const_floor) = {
            let mut vocab = lock_recover(&self.shared.vocab);
            let d = gomq_core::parse::parse_instance(text, &mut vocab)
                .map_err(|e| EngineError::BadRequest(format!("abox: {e}")))?;
            let facts: Vec<Fact> = d.iter().map(|f| f.to_fact()).collect();
            let syms: Vec<SymFact> = facts
                .iter()
                .map(|f| crate::session::sym_fact(&vocab, f.rel, &f.args))
                .collect();
            (facts, syms, vocab.const_mark())
        };
        // Session constants are durable: scope_exit must never truncate
        // names the session store still references.
        self.shared.pin_consts(const_floor);
        let (info, snapshotted) = {
            let mut session = lock_recover(&self.shared.session);
            let info = session.assert(syms, &facts)?;
            let snapshotted = self.finish_mutation(&mut session, &info);
            (info, snapshotted)
        };
        let mut out = self.mutation_head(id, "assert");
        let _ = write!(
            out,
            "\"added\": {}, \"facts\": {}, \"lsn\": {}, \"snapshotted\": {snapshotted}",
            info.added, info.facts, info.lsn
        );
        out.push('}');
        Ok(out)
    }

    /// Handles `{"op": "mark"}`.
    fn run_mark(&mut self, id: Option<&str>) -> Result<String, EngineError> {
        if let Some(refusal) = self.refuse_write(id, "mark") {
            return Ok(refusal);
        }
        let (mark, info, snapshotted) = {
            let mut session = lock_recover(&self.shared.session);
            let (mark, info) = session.mark()?;
            let snapshotted = self.finish_mutation(&mut session, &info);
            (mark, info, snapshotted)
        };
        let mut out = self.mutation_head(id, "mark");
        let _ = write!(
            out,
            "\"mark\": {mark}, \"facts\": {}, \"lsn\": {}, \"snapshotted\": {snapshotted}",
            info.facts, info.lsn
        );
        out.push('}');
        Ok(out)
    }

    /// Handles `{"op": "rollback", "mark": n}`.
    fn run_rollback(
        &mut self,
        obj: &std::collections::BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        if let Some(refusal) = self.refuse_write(id, "rollback") {
            return Ok(refusal);
        }
        let mark = match obj.get("mark") {
            Some(Json::Num(n)) if *n >= 0.0 && n.is_finite() => *n as u64,
            _ => {
                return Err(EngineError::BadRequest(
                    "\"mark\" must be a non-negative number".into(),
                ))
            }
        };
        let (info, snapshotted, maint) = {
            let mut session = lock_recover(&self.shared.session);
            let info = session.rollback(mark)?;
            // Maintain registered views eagerly, inside the lock: lazy
            // maintenance would misread the store's positional base
            // prefix once new asserts land on the truncated store. A
            // view whose maintenance fails (budget or panic) is
            // dropped; the next query rebuilds it.
            let budget = self.limits.budget_from_now();
            let maint = session.maintain_views_rollback(info.facts as usize, &budget);
            self.shared.sample_views(&session);
            let snapshotted = self.finish_mutation(&mut session, &info);
            (info, snapshotted, maint)
        };
        let m = self.shared.engine.metrics();
        m.ivm_deleted.add(maint.deleted);
        m.ivm_rederived.add(maint.rederived);
        m.panics.add(maint.panicked);
        let mut out = self.mutation_head(id, "rollback");
        let _ = write!(
            out,
            "\"mark\": {mark}, \"facts\": {}, \"lsn\": {}, \"snapshotted\": {snapshotted}",
            info.facts, info.lsn
        );
        out.push('}');
        Ok(out)
    }

    /// Accounts a journaled mutation and snapshots when due (called with
    /// the session lock held; takes the vocab lock — session → vocab is
    /// the one permitted nesting order). A failed snapshot is not an
    /// error: the records are safe in the WAL and the policy retries on
    /// the next mutation.
    fn finish_mutation(&self, session: &mut DurableSession, info: &MutationInfo) -> bool {
        if !session.is_durable() {
            return false;
        }
        let m = self.shared.engine.metrics();
        m.wal_records.add(1);
        m.wal_bytes.add(info.wal_bytes);
        if !session.snapshot_due() {
            return false;
        }
        let snapshotted = {
            let vocab = lock_recover(&self.shared.vocab);
            session.snapshot_now(&vocab).is_ok()
        };
        if snapshotted {
            m.snapshots.add(1);
        }
        snapshotted
    }

    /// The common `{"id": ..., "status": "ok", "op": ..., ` response
    /// prefix of the non-query ops.
    fn mutation_head(&self, id: Option<&str>, op: &str) -> String {
        let mut out = String::from("{");
        if let Some(id) = id {
            out.push_str("\"id\": ");
            json::write_str(&mut out, id);
            out.push_str(", ");
        }
        let _ = write!(out, "\"status\": \"ok\", \"op\": \"{op}\", ");
        out
    }

    /// The structured refusal for an over-long input line (the caller
    /// never got a parseable request, so there is no id to echo).
    pub fn refuse_oversized_line(&self, limit: usize) -> String {
        refuse_oversized_line(limit)
    }

    fn write_answers(&self, out: &mut String, answers: &BTreeSet<Vec<Term>>) {
        let vocab = lock_recover(&self.shared.vocab);
        out.push('[');
        for (i, tuple) in answers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (j, t) in tuple.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::write_str(out, &format!("{}", t.display(&vocab)));
            }
            out.push(']');
        }
        out.push(']');
    }
}

/// One framed read from the request stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line within the byte cap (newline stripped).
    Line(String),
    /// The line exceeded the cap. Its bytes were *discarded as they
    /// streamed* — an adversarial line can cost at most one buffer of
    /// memory — and the reader is positioned after its newline, in sync
    /// for the next request.
    TooLong {
        /// The configured cap the line exceeded.
        limit: usize,
    },
    /// End of the stream.
    Eof,
}

/// Stateful capped line framing over any [`BufRead`].
///
/// Unlike the one-shot [`read_line_capped`], the partial-line buffer
/// lives *in the struct*, so a read timeout mid-line (a socket with
/// `SO_RCVTIMEO`, used by the TCP front end to poll its drain flag)
/// loses nothing: [`CappedLineReader::poll_line`] returns `Ok(None)` and
/// the next poll resumes exactly where the stream paused.
pub struct CappedLineReader<R> {
    inner: R,
    max_bytes: usize,
    buf: Vec<u8>,
    overflow: bool,
}

impl<R: BufRead> CappedLineReader<R> {
    /// A framer over `inner` refusing lines longer than `max_bytes`.
    pub fn new(inner: R, max_bytes: usize) -> Self {
        CappedLineReader {
            inner,
            max_bytes,
            buf: Vec::new(),
            overflow: false,
        }
    }

    /// Advances the framing by whatever bytes are available.
    ///
    /// Returns `Ok(Some(..))` for a framing event (a complete line, an
    /// over-cap refusal, end of stream), `Ok(None)` when the underlying
    /// read would block or timed out (`WouldBlock`, `TimedOut`,
    /// `Interrupted`) — partial input is retained for the next poll —
    /// and `Err` only for real I/O failures.
    pub fn poll_line(&mut self) -> std::io::Result<Option<LineRead>> {
        use std::io::ErrorKind;
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(c) => c,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF: deliver what we have (a final unterminated line).
                return Ok(Some(if std::mem::take(&mut self.overflow) {
                    LineRead::TooLong {
                        limit: self.max_bytes,
                    }
                } else if self.buf.is_empty() {
                    LineRead::Eof
                } else {
                    finish_line(std::mem::take(&mut self.buf))
                }));
            }
            if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                if !self.overflow {
                    self.buf.extend_from_slice(&chunk[..pos]);
                }
                self.inner.consume(pos + 1);
                let overflowed = std::mem::take(&mut self.overflow);
                let buf = std::mem::take(&mut self.buf);
                return Ok(Some(if overflowed || buf.len() > self.max_bytes {
                    LineRead::TooLong {
                        limit: self.max_bytes,
                    }
                } else {
                    finish_line(buf)
                }));
            }
            let n = chunk.len();
            if !self.overflow {
                self.buf.extend_from_slice(chunk);
                if self.buf.len() > self.max_bytes {
                    self.overflow = true;
                    self.buf = Vec::new(); // drop, don't keep growing
                }
            }
            self.inner.consume(n);
        }
    }
}

/// Reads one `\n`-terminated line from `reader`, refusing (not
/// buffering) lines longer than `max_bytes`. This is the serve binary's
/// framing primitive: unlike [`BufRead::read_line`], a hostile
/// gigabyte-long line cannot balloon resident memory — it is drained
/// chunk by chunk and answered with [`LineRead::TooLong`].
///
/// One-shot wrapper over [`CappedLineReader`] for blocking streams
/// (stdin, pipes): a would-block pause simply retries.
pub fn read_line_capped<R: BufRead>(reader: &mut R, max_bytes: usize) -> std::io::Result<LineRead> {
    let mut framer = CappedLineReader::new(reader, max_bytes);
    loop {
        if let Some(event) = framer.poll_line()? {
            return Ok(event);
        }
    }
}

/// Per-connection knobs for [`handle_connection`]: how the request loop
/// notices a server-wide drain and when it hangs up on an idle peer.
#[derive(Clone, Debug, Default)]
pub struct ConnControl {
    /// Server-wide drain token. Once tripped, requests the peer already
    /// sent are still answered, and the loop closes with
    /// [`ConnClose::Drained`] at the first read tick that finds no
    /// request pending. Only effective on streams whose reads time out;
    /// the blocking stdin transport drains at EOF instead.
    pub draining: Option<crate::drain::DrainToken>,
    /// Hang up after this long without a complete request. Only
    /// effective on streams whose reads time out (sockets with a read
    /// timeout); a blocking stdin pipe never produces idle ticks.
    pub idle_timeout: Option<Duration>,
}

impl ConnControl {
    fn is_draining(&self) -> bool {
        self.draining.as_ref().is_some_and(|t| t.is_draining())
    }
}

/// Why a connection's request loop ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnClose {
    /// The peer closed its write half (stdin EOF, socket shutdown).
    Eof,
    /// The server is draining: the loop stopped accepting new requests.
    Drained,
    /// The idle timeout elapsed without a complete request.
    Idle,
    /// Reading the request stream failed.
    Read(String),
    /// Writing a response failed (the peer hung up mid-response).
    Write(String),
}

/// Outcome of one connection's request loop.
#[derive(Clone, Debug)]
pub struct ConnOutcome {
    /// Requests answered (refusals for oversized lines included).
    pub requests: u64,
    /// Why the loop ended.
    pub close: ConnClose,
}

/// The transport-agnostic request loop: reads capped JSONL requests from
/// `reader`, obtains one response line per request from `exec`, and
/// writes it (newline-terminated, flushed) to `writer`.
///
/// Both serving transports are instances of this one function: stdin
/// mode passes `stdin.lock()` / `stdout.lock()` and an `exec` that calls
/// [`ServeSession::handle_line`] inline; the TCP front end
/// ([`crate::net`]) passes a socket with a short read timeout and an
/// `exec` that submits to the bounded worker pool. Oversized lines are
/// refused in-loop with [`refuse_oversized_line`] without consulting
/// `exec`.
pub fn handle_connection<R, W, F>(
    reader: R,
    mut writer: W,
    max_line_bytes: usize,
    control: &ConnControl,
    mut exec: F,
) -> ConnOutcome
where
    R: BufRead,
    W: std::io::Write,
    F: FnMut(&str) -> String,
{
    let mut framer = CappedLineReader::new(reader, max_line_bytes);
    let mut requests = 0u64;
    let mut last_activity = Instant::now();
    let close = loop {
        let response = match framer.poll_line() {
            Ok(Some(LineRead::Eof)) => break ConnClose::Eof,
            Ok(Some(LineRead::Line(line))) => {
                last_activity = Instant::now();
                if line.trim().is_empty() {
                    continue;
                }
                exec(&line)
            }
            Ok(Some(LineRead::TooLong { limit })) => {
                last_activity = Instant::now();
                refuse_oversized_line(limit)
            }
            Ok(None) => {
                // Read timeout tick: no complete request pending. The
                // drain check lives here, not before every read, so
                // requests the peer already pipelined are still
                // answered — a drain cuts the connection once it goes
                // quiet for one tick (a peer streaming through a drain
                // is bounded by the server's drain timeout instead).
                if control.is_draining() {
                    break ConnClose::Drained;
                }
                if control
                    .idle_timeout
                    .is_some_and(|t| last_activity.elapsed() >= t)
                {
                    break ConnClose::Idle;
                }
                continue;
            }
            Err(e) => break ConnClose::Read(e.to_string()),
        };
        requests += 1;
        if let Err(e) = writeln!(writer, "{response}").and_then(|()| writer.flush()) {
            break ConnClose::Write(e.to_string());
        }
    };
    ConnOutcome { requests, close }
}

/// The structured refusal for an input line past the configured byte
/// cap (the line was never buffered, let alone parsed, so there is no
/// request id to echo).
pub fn refuse_oversized_line(limit: usize) -> String {
    let mut out = String::from("{\"status\": \"malformed\", \"error\": ");
    json::write_str(
        &mut out,
        &format!("request line exceeds the {limit}-byte cap"),
    );
    out.push('}');
    out
}

fn finish_line(mut buf: Vec<u8>) -> LineRead {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    // Invalid UTF-8 still yields a line; JSON parsing rejects it with a
    // proper per-request error rather than killing the stream.
    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_field<'a>(response: &'a str, needle: &str) -> &'a str {
        assert!(
            response.contains(needle),
            "expected {needle:?} in {response}"
        );
        response
    }

    fn stats_reply(s: &mut ServeSession) -> String {
        s.handle_line(r#"{"op": "stats"}"#)
    }

    #[test]
    fn single_abox_roundtrip() {
        let mut s = ServeSession::with_threads(2);
        let resp = s.handle_line(
            r#"{"id": "r1", "ontology": "Manager sub Employee\nEmployee sub Staff", "query": "Staff", "abox": "Manager(ada)\nEmployee(grace)"}"#,
        );
        ok_field(&resp, "\"status\": \"ok\"");
        ok_field(&resp, "\"id\": \"r1\"");
        ok_field(&resp, "\"cached\": false");
        ok_field(&resp, r#"["ada"]"#);
        ok_field(&resp, r#"["grace"]"#);
        // Request-scoped stats say "miss"; the pulled totals count it.
        ok_field(&resp, "\"cache_hit\": false");
        assert!(!resp.contains("\"engine\""), "totals are pulled: {resp}");
        let totals = stats_reply(&mut s);
        ok_field(
            &totals,
            r#""engine": {"requests": 1, "cache_hits": 0, "cache_misses": 1"#,
        );
        // Same OMQ again: served from the cache.
        let resp2 = s.handle_line(
            r#"{"ontology": "Employee sub Staff\nManager sub Employee", "query": "Staff", "abox": "Manager(bob)"}"#,
        );
        ok_field(&resp2, "\"cached\": true");
        ok_field(&resp2, r#"["bob"]"#);
        ok_field(&resp2, "\"cache_hit\": true");
        ok_field(
            &stats_reply(&mut s),
            r#""cache_hits": 1, "cache_misses": 1"#,
        );
        // Responses are valid JSON.
        assert!(crate::json::parse(&resp).is_ok());
        assert!(crate::json::parse(&resp2).is_ok());
    }

    #[test]
    fn batched_aboxes() {
        let mut s = ServeSession::with_threads(4);
        let resp = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "aboxes": ["A(x)", "B(y)\nA(z)", ""]}"#,
        );
        ok_field(&resp, "\"batches\": ");
        ok_field(&resp, r#"[["x"]], [["y"], ["z"]], []"#);
        assert!(crate::json::parse(&resp).is_ok());
    }

    #[test]
    fn stats_count_kernel_served_queries() {
        let mut s = ServeSession::with_threads(2);
        let one = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&one, r#""answers": [["x"]]"#);
        let batch = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "aboxes": ["A(x)", "A(y)\nA(z)"]}"#,
        );
        ok_field(&batch, r#""batches": [[["x"]], [["y"], ["z"]]]"#);
        let certified = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)", "certificate": true}"#,
        );
        ok_field(&certified, "\"certificate\": ");
        // One-shot and batch queries are kernel-served (a batch counts
        // once, over its three elements); the certified query runs the
        // traced fixpoint and interns the facts it derives.
        let totals = stats_reply(&mut s);
        ok_field(&totals, r#""requests": 3"#);
        ok_field(&totals, r#""typed_requests": 2, "type_elements": 4"#);
        let interned = s.engine().stats().facts_interned;
        assert!(
            interned > 0,
            "the certified run materializes facts: {totals}"
        );
        s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        assert_eq!(
            s.engine().stats().facts_interned,
            interned,
            "the kernel interns none"
        );
    }

    #[test]
    fn inconsistent_abox_answers_the_signature_domain() {
        // `Foo` is outside the ontology's signature, so `z` is no answer
        // although the ABox is inconsistent — as in the Datalog
        // rewriting, whose `_dom` covers the signature only.
        let mut s = ServeSession::with_threads(1);
        let resp = s.handle_line(
            r#"{"ontology": "A sub not B", "query": "A", "abox": "A(x)\nB(x)\nFoo(z)"}"#,
        );
        ok_field(&resp, r#""answers": [["x"]]"#);
        let certified = s.handle_line(
            r#"{"ontology": "A sub not B", "query": "A", "abox": "A(x)\nB(x)\nFoo(z)", "certificate": true}"#,
        );
        ok_field(&certified, r#""answers": [["x"]]"#);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = ServeSession::with_threads(1);
        let bad_json = s.handle_line("{nope");
        ok_field(&bad_json, "\"status\": \"error\"");
        let bad_query = s.handle_line(r#"{"ontology": "A sub B", "query": "Zzz", "abox": ""}"#);
        ok_field(&bad_query, "does not occur in the ontology");
        let bad_abox = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x"}"#);
        ok_field(&bad_abox, "\"status\": \"error\"");
        // The session still works afterwards.
        let good = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&good, "\"status\": \"ok\"");
    }

    #[test]
    fn blown_budgets_report_overloaded_and_recover() {
        let mut s = ServeSession::with_threads(2);
        let chain = "C0 sub C1\nC1 sub C2\nC2 sub C3\nC3 sub C4\nC4 sub C5";
        let abox = (0..50).map(|i| format!("C0(x{i})\n")).collect::<String>();
        let req = format!(
            r#"{{"id": "hot", "ontology": "{chain}", "query": "C5", "abox": "{}", "limits": {{"max_derived": 5}}}}"#,
            abox.replace('\n', "\\n"),
        );
        let resp = s.handle_line(&req);
        ok_field(&resp, "\"status\": \"overloaded\"");
        ok_field(&resp, "\"limit\": \"derived\"");
        ok_field(&resp, "\"id\": \"hot\"");
        assert!(crate::json::parse(&resp).is_ok());
        // An expired deadline reports the deadline limit.
        let timed = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)", "limits": {"timeout_ms": 0}}"#,
        );
        ok_field(&timed, "\"status\": \"overloaded\"");
        ok_field(&timed, "\"limit\": \"deadline\"");
        // The session stays healthy and the same OMQ still answers.
        let good = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&good, "\"status\": \"ok\"");
        assert_eq!(s.engine().stats().overloaded, 2);
    }

    #[test]
    fn session_limits_clamp_request_limits() {
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            limits: Limits {
                max_derived: Some(3),
                ..Limits::default()
            },
            ..ServeConfig::default()
        });
        // The request asks for a *looser* limit; the session's wins.
        let resp = s.handle_line(
            r#"{"ontology": "C0 sub C1\nC1 sub C2", "query": "C2", "abox": "C0(a)\nC0(b)\nC0(c)", "limits": {"max_derived": 1000000}}"#,
        );
        ok_field(&resp, "\"status\": \"overloaded\"");
        ok_field(&resp, "\"limit\": \"derived\"");
    }

    #[test]
    fn malformed_limits_are_bad_requests() {
        let mut s = ServeSession::with_threads(1);
        let bad_type =
            s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "", "limits": 7}"#);
        ok_field(&bad_type, "must be an object");
        let bad_key = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "", "limits": {"fuel": 9}}"#,
        );
        ok_field(&bad_key, "unknown limit");
        let bad_value = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "", "limits": {"max_rounds": -1}}"#,
        );
        ok_field(&bad_value, "must be a non-negative number");
    }

    #[test]
    fn panics_are_isolated_and_counted() {
        let mut s = ServeSession::with_threads(1);
        // "R" is first interned as a role (arity 2) by "ex R.A sub B",
        // then used as a concept (arity 1) by "R sub B": the DL parser
        // trips the vocabulary's arity assertion. The fence must turn
        // that panic into a structured error.
        let resp = s.handle_line(
            r#"{"id": "boom", "ontology": "A sub ex R.A\nR sub B", "query": "B", "abox": ""}"#,
        );
        ok_field(&resp, "\"status\": \"error\"");
        ok_field(&resp, "\"id\": \"boom\"");
        ok_field(&resp, "internal error (panic isolated)");
        assert!(crate::json::parse(&resp).is_ok());
        assert_eq!(s.engine().stats().panics, 1);
        // The session still works afterwards.
        let good = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&good, "\"status\": \"ok\"");
    }

    #[test]
    fn session_ops_roundtrip() {
        let mut s = ServeSession::with_threads(1);
        let a1 = s.handle_line(r#"{"id": "a1", "op": "assert", "abox": "Manager(ada)"}"#);
        ok_field(&a1, "\"status\": \"ok\"");
        ok_field(&a1, "\"op\": \"assert\"");
        ok_field(&a1, "\"added\": 1, \"facts\": 1");
        let q1 = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q1, r#"[["ada"]]"#);
        let m = s.handle_line(r#"{"op": "mark"}"#);
        ok_field(&m, "\"op\": \"mark\"");
        ok_field(&m, "\"mark\": 0");
        s.handle_line(r#"{"op": "assert", "abox": "Manager(bob)"}"#);
        let q2 = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q2, r#"[["ada"], ["bob"]]"#);
        let rb = s.handle_line(r#"{"op": "rollback", "mark": 0}"#);
        ok_field(&rb, "\"op\": \"rollback\"");
        ok_field(&rb, "\"facts\": 1");
        let q3 = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q3, r#"[["ada"]]"#);
        // Bad mutations are structured errors, not session killers.
        let bad = s.handle_line(r#"{"op": "rollback", "mark": 99}"#);
        ok_field(&bad, "unknown mark 99");
        let unknown = s.handle_line(r#"{"op": "defragment"}"#);
        ok_field(&unknown, "unknown op");
        let mixed = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "session": true, "abox": "A(x)"}"#,
        );
        ok_field(&mixed, "cannot be combined");
        for resp in [&a1, &q1, &m, &q2, &rb, &q3, &bad, &unknown, &mixed] {
            assert!(crate::json::parse(resp).is_ok(), "not JSON: {resp}");
        }
    }

    #[test]
    fn session_queries_hit_maintained_views() {
        let mut s = ServeSession::with_threads(1);
        s.handle_line(r#"{"op": "assert", "abox": "A(ada)"}"#);
        let q = r#"{"ontology": "A sub B", "query": "B", "session": true}"#;
        // First session query builds and registers the view.
        let q1 = s.handle_line(q);
        ok_field(&q1, r#"[["ada"]]"#);
        ok_field(&q1, "\"maintained\": false");
        let totals = stats_reply(&mut s);
        ok_field(&totals, "\"views_active\": 1");
        ok_field(&totals, "\"ivm_maintained_hits\": 0");
        // Repeat: answered from the maintained view (incremental sync
        // over the one new fact, not a from-scratch fixpoint).
        s.handle_line(r#"{"op": "assert", "abox": "A(bob)"}"#);
        let q2 = s.handle_line(q);
        ok_field(&q2, r#"[["ada"], ["bob"]]"#);
        ok_field(&q2, "\"maintained\": true");
        ok_field(&stats_reply(&mut s), "\"ivm_maintained_hits\": 1");
        assert_eq!(s.engine().stats().ivm_maintained_hits, 1);
        // A rollback maintains the view (DRed), so the next query is
        // still a hit and still agrees with the rolled-back store.
        let m = s.handle_line(r#"{"op": "mark"}"#);
        ok_field(&m, "\"mark\": 0");
        s.handle_line(r#"{"op": "assert", "abox": "A(eve)\nA(pat)"}"#);
        let q3 = s.handle_line(q);
        ok_field(&q3, r#"[["ada"], ["bob"], ["eve"], ["pat"]]"#);
        s.handle_line(r#"{"op": "rollback", "mark": 0}"#);
        let q4 = s.handle_line(q);
        ok_field(&q4, r#"[["ada"], ["bob"]]"#);
        ok_field(&q4, "\"maintained\": true");
        assert!(s.engine().stats().ivm_deleted > 0, "rollback must DRed");
        for resp in [&q1, &q2, &q3, &q4] {
            assert!(crate::json::parse(resp).is_ok(), "not JSON: {resp}");
        }
    }

    #[test]
    fn disabled_views_fall_back_to_recompute() {
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            max_views: 0,
            ..ServeConfig::default()
        });
        s.handle_line(r#"{"op": "assert", "abox": "A(ada)"}"#);
        let q = r#"{"ontology": "A sub B", "query": "B", "session": true}"#;
        for _ in 0..2 {
            let resp = s.handle_line(q);
            ok_field(&resp, r#"[["ada"]]"#);
            ok_field(&resp, "\"maintained\": false");
            ok_field(&stats_reply(&mut s), "\"views_active\": 0");
        }
        assert_eq!(s.engine().stats().ivm_maintained_hits, 0);
    }

    #[test]
    fn session_constants_survive_scope_rollback() {
        let mut s = ServeSession::with_threads(1);
        s.handle_line(r#"{"op": "assert", "abox": "Manager(ada)"}"#);
        // Plain per-request ABoxes still roll their constants back...
        for i in 0..50 {
            s.handle_line(&format!(
                r#"{{"ontology": "A sub B", "query": "B", "abox": "A(tmp{i})"}}"#
            ));
        }
        // ...but the session fact still renders its constant by name.
        let q = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q, r#"[["ada"]]"#);
    }

    #[test]
    fn durable_session_recovers_across_restart() {
        let dir = std::env::temp_dir().join(format!("gomq-serve-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServeConfig {
            threads: 1,
            data_dir: Some(dir.clone()),
            snapshot_every: 2,
            ..ServeConfig::default()
        };
        let q = r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#;
        let alive = {
            let mut s = ServeSession::with_config(config());
            s.handle_line(r#"{"op": "assert", "abox": "Manager(ada)"}"#);
            s.handle_line(r#"{"op": "assert", "abox": "Manager(bob)\nEmployee(eve)"}"#);
            s.handle_line(r#"{"op": "assert", "abox": "Manager(pat)"}"#);
            s.handle_line(q)
        };
        ok_field(&alive, r#"[["ada"], ["bob"], ["eve"], ["pat"]]"#);
        // "Restart": fresh shared state over the same data directory.
        let (shared, recovery) = ServeShared::try_with_config(config()).unwrap();
        let info = recovery.expect("a data dir was configured");
        assert_eq!(
            info.snapshot_facts + info.replayed_facts,
            4,
            "recovery must rebuild all four facts: {info:?}"
        );
        let mut s2 = ServeSession::with_shared(Arc::new(shared));
        let revived = s2.handle_line(q);
        ok_field(&revived, r#"[["ada"], ["bob"], ["eve"], ["pat"]]"#);
        ok_field(&stats_reply(&mut s2), "\"session_facts\": 4");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failing_plan_is_quarantined_but_others_serve() {
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            quarantine_after: 3,
            ..ServeConfig::default()
        });
        let chain = "C0 sub C1\nC1 sub C2\nC2 sub C3";
        let hot = format!(
            r#"{{"ontology": "{chain}", "query": "C3", "abox": "C0(a)\nC0(b)\nC0(c)", "limits": {{"max_derived": 2}}}}"#
        );
        for _ in 0..3 {
            let resp = s.handle_line(&hot);
            ok_field(&resp, "\"status\": \"overloaded\"");
        }
        // The breaker is open now: even a request with no limits at all
        // is refused before evaluation.
        let blocked = s.handle_line(&format!(
            r#"{{"id": "q", "ontology": "{chain}", "query": "C3", "abox": "C0(a)"}}"#
        ));
        ok_field(&blocked, "\"status\": \"quarantined\"");
        ok_field(&blocked, "\"id\": \"q\"");
        ok_field(&blocked, "quarantined after 3 evaluation failures");
        assert!(crate::json::parse(&blocked).is_ok());
        // A different OMQ is unaffected.
        let other = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&other, "\"status\": \"ok\"");
        let stats = s.engine().stats();
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn expired_deadline_is_refused_at_admission() {
        let mut s = ServeSession::with_threads(1);
        // Warm the plan so the rounds counter below isolates evaluation.
        s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        let rounds_before = s.engine().stats().rounds;
        // Far more expired requests than the quarantine threshold: none
        // may enter the executor or count against the plan's breaker.
        for _ in 0..10 {
            let resp = s.handle_line(
                r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)", "limits": {"timeout_ms": 0}}"#,
            );
            ok_field(&resp, "\"status\": \"overloaded\"");
            ok_field(&resp, "\"limit\": \"deadline\"");
        }
        assert_eq!(s.engine().stats().rounds, rounds_before);
        assert_eq!(s.engine().stats().overloaded, 10);
        let fine = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&fine, "\"status\": \"ok\"");
    }

    #[test]
    fn capped_reader_frames_and_refuses() {
        use std::io::Cursor;
        let mut r = Cursor::new(b"short\r\nanother line\n".to_vec());
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("short".into())
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("another line".into())
        );
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Eof);
        // An oversized line is refused and the stream resyncs at its
        // newline; the following request is intact.
        let huge = "x".repeat(1 << 16);
        let mut r = Cursor::new(format!("{huge}\nnext\n").into_bytes());
        assert_eq!(
            read_line_capped(&mut r, 1024).unwrap(),
            LineRead::TooLong { limit: 1024 }
        );
        assert_eq!(
            read_line_capped(&mut r, 1024).unwrap(),
            LineRead::Line("next".into())
        );
        // Exactly at the cap passes; one byte past it does not.
        let mut r = Cursor::new(b"abcd\nabcde\n".to_vec());
        assert_eq!(
            read_line_capped(&mut r, 4).unwrap(),
            LineRead::Line("abcd".into())
        );
        assert_eq!(
            read_line_capped(&mut r, 4).unwrap(),
            LineRead::TooLong { limit: 4 }
        );
        // Unterminated oversized tail at EOF is still refused.
        let mut r = Cursor::new(huge.into_bytes());
        assert_eq!(
            read_line_capped(&mut r, 1024).unwrap(),
            LineRead::TooLong { limit: 1024 }
        );
        assert_eq!(read_line_capped(&mut r, 1024).unwrap(), LineRead::Eof);
        // The refusal the serve loop emits for such a line is valid JSON.
        let s = ServeSession::with_threads(1);
        let refusal = s.refuse_oversized_line(1024);
        assert!(refusal.contains("\"status\": \"malformed\""));
        assert!(crate::json::parse(&refusal).is_ok());
    }

    /// A [`BufRead`] replaying a script of chunks and injected errors,
    /// for driving [`CappedLineReader`] through timeout ticks at exact
    /// chunk boundaries.
    struct ScriptedReader {
        script: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
        current: Vec<u8>,
        pos: usize,
    }

    impl ScriptedReader {
        fn new(script: Vec<std::io::Result<Vec<u8>>>) -> Self {
            ScriptedReader {
                script: script.into_iter().collect(),
                current: Vec::new(),
                pos: 0,
            }
        }
    }

    impl std::io::Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl std::io::BufRead for ScriptedReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pos >= self.current.len() {
                match self.script.pop_front() {
                    Some(Ok(bytes)) => {
                        self.current = bytes;
                        self.pos = 0;
                    }
                    Some(Err(e)) => return Err(e),
                    None => return Ok(&[]),
                }
            }
            Ok(&self.current[self.pos..])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn capped_reader_discard_state_survives_timeout_tick_at_chunk_boundary() {
        use std::io::{Error, ErrorKind};
        // An oversized line arrives in two chunks with a read-timeout
        // tick landing exactly on the boundary between them — i.e.
        // after the discarding reader consumed the first chunk in full,
        // with nothing buffered. The partial-discard state must survive
        // the tick: the line's tail must still be refused as TooLong,
        // never surfaced as a truncated Line.
        let cap = 8;
        let mut framer = CappedLineReader::new(
            ScriptedReader::new(vec![
                Ok(b"0123456789abcdef".to_vec()), // > cap, no newline yet
                Err(Error::new(ErrorKind::TimedOut, "tick")),
                Ok(b"tail\nnext\n".to_vec()),
            ]),
            cap,
        );
        assert_eq!(framer.poll_line().unwrap(), None, "tick yields no frame");
        assert_eq!(
            framer.poll_line().unwrap(),
            Some(LineRead::TooLong { limit: cap }),
            "discard state was lost across the timeout tick"
        );
        assert_eq!(
            framer.poll_line().unwrap(),
            Some(LineRead::Line("next".into())),
            "stream must resync after the refused line"
        );
        assert_eq!(framer.poll_line().unwrap(), Some(LineRead::Eof));

        // Same boundary condition at EOF: a tick, then the stream ends
        // mid-discard — still a refusal, not a phantom empty line.
        let mut framer = CappedLineReader::new(
            ScriptedReader::new(vec![
                Ok(b"0123456789abcdef".to_vec()),
                Err(Error::new(ErrorKind::TimedOut, "tick")),
            ]),
            cap,
        );
        assert_eq!(framer.poll_line().unwrap(), None);
        assert_eq!(
            framer.poll_line().unwrap(),
            Some(LineRead::TooLong { limit: cap })
        );
        assert_eq!(framer.poll_line().unwrap(), Some(LineRead::Eof));
    }

    #[test]
    fn view_flags_resolve_order_independently() {
        // Neither flag, or --views on alone: the default capacity.
        assert_eq!(resolve_view_flags(None, None), Ok(DEFAULT_MAX_VIEWS));
        assert_eq!(resolve_view_flags(Some(true), None), Ok(DEFAULT_MAX_VIEWS));
        // --views off alone disables maintenance.
        assert_eq!(resolve_view_flags(Some(false), None), Ok(0));
        // --max-views N sets the capacity, with or without --views on —
        // there is no order for the pure resolution to depend on.
        assert_eq!(resolve_view_flags(None, Some(4)), Ok(4));
        assert_eq!(resolve_view_flags(Some(true), Some(4)), Ok(4));
        // --max-views 0 is the historically ambiguous spelling: a typed
        // usage error pointing at --views off, in every combination.
        for views in [None, Some(true), Some(false)] {
            let err = resolve_view_flags(views, Some(0)).unwrap_err();
            assert!(err.contains("--views off"), "unhelpful error: {err}");
        }
        // --views off with an explicit positive capacity contradicts
        // itself and is refused rather than silently picking a winner.
        let err = resolve_view_flags(Some(false), Some(8)).unwrap_err();
        assert!(err.contains("contradicts"), "unhelpful error: {err}");
    }

    #[test]
    fn backend_names_resolve_like_flags() {
        assert_eq!(Backend::from_name("native"), Ok(Backend::Native));
        assert_eq!(Backend::from_name("sql"), Ok(Backend::Sql));
        let err = Backend::from_name("postgres").unwrap_err();
        assert!(
            err.contains("unknown backend") && err.contains("\"native\" or \"sql\""),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn sql_backend_answers_match_native() {
        let mut s = ServeSession::with_threads(2);
        let req = |backend: &str| {
            format!(
                r#"{{"ontology": "Manager sub Employee\nEmployee sub Staff", "query": "Staff", "abox": "Manager(ada)\nEmployee(grace)"{backend}}}"#
            )
        };
        let native = s.handle_line(&req(""));
        ok_field(&native, "\"status\": \"ok\"");
        ok_field(&native, "\"backend\": \"native\"");
        let sql = s.handle_line(&req(r#", "backend": "sql""#));
        ok_field(&sql, "\"status\": \"ok\"");
        ok_field(&sql, "\"backend\": \"sql\"");
        ok_field(&sql, r#"["ada"]"#);
        ok_field(&sql, r#"["grace"]"#);
        // Identical answer arrays on both backends.
        let answers = |r: &str| {
            let from = r.find("\"answers\": ").unwrap();
            r[from..r.find(", \"stats\"").unwrap()].to_string()
        };
        assert_eq!(answers(&native), answers(&sql));
        let totals = s.engine().stats();
        assert_eq!(totals.sql_compiles, 1);
        assert_eq!(totals.sql_refusals, 0);
        ok_field(
            &stats_reply(&mut s),
            r#""sql_compiles": 1, "sql_refusals": 0"#,
        );
        assert!(crate::json::parse(&sql).is_ok());
    }

    #[test]
    fn recursive_plan_gets_typed_sql_refusal() {
        let mut s = ServeSession::with_threads(1);
        // The existential role makes the emitted rewriting recursive:
        // SQL refuses, native still answers.
        let req = |backend: &str| {
            format!(
                r#"{{"id": "r", "ontology": "A sub ex R.B\nB sub C", "query": "C", "abox": "B(x)", "backend": "{backend}"}}"#
            )
        };
        let refused = s.handle_line(&req("sql"));
        ok_field(&refused, "\"status\": \"non-rewritable-to-sql\"");
        ok_field(&refused, "\"id\": \"r\"");
        ok_field(&refused, "recursive");
        assert!(crate::json::parse(&refused).is_ok());
        let native = s.handle_line(&req("native"));
        ok_field(&native, "\"status\": \"ok\"");
        ok_field(&native, r#"["x"]"#);
        let totals = s.engine().stats();
        assert_eq!(totals.sql_refusals, 1);
        assert_eq!(totals.sql_compiles, 0);
    }

    #[test]
    fn sql_backend_default_comes_from_config() {
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            default_backend: Backend::Sql,
            ..ServeConfig::default()
        });
        let resp = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&resp, "\"backend\": \"sql\"");
        ok_field(&resp, r#"["x"]"#);
        // A per-request field overrides the session default.
        let resp = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)", "backend": "native"}"#,
        );
        ok_field(&resp, "\"backend\": \"native\"");
    }

    #[test]
    fn bad_backend_requests_are_typed_errors() {
        let mut s = ServeSession::with_threads(1);
        let base = r#""ontology": "A sub B", "query": "B", "abox": "A(x)""#;
        let unknown = s.handle_line(&format!(r#"{{{base}, "backend": "postgres"}}"#));
        ok_field(&unknown, "\"status\": \"error\"");
        ok_field(&unknown, "unknown backend");
        let wrong_type = s.handle_line(&format!(r#"{{{base}, "backend": 7}}"#));
        ok_field(&wrong_type, "must be \\\"native\\\" or \\\"sql\\\"");
        let with_cert = s.handle_line(&format!(
            r#"{{{base}, "backend": "sql", "certificate": true}}"#
        ));
        ok_field(&with_cert, "cannot attach certificates");
        let with_batch = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "aboxes": ["A(x)"], "backend": "sql"}"#,
        );
        ok_field(&with_batch, "cannot be combined with \\\"aboxes\\\"");
        let with_session = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "session": true, "backend": "sql"}"#,
        );
        ok_field(&with_session, "cannot be combined with \\\"session\\\"");
        // The session still answers afterwards.
        let good = s.handle_line(&format!(r#"{{{base}, "backend": "sql"}}"#));
        ok_field(&good, "\"status\": \"ok\"");
    }

    #[test]
    fn fragment_field_surfaces_classification() {
        let mut s = ServeSession::with_threads(1);
        let resp = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&resp, "\"fragment\": ");
        ok_field(&resp, "\"zone\": ");
        assert!(crate::json::parse(&resp).is_ok());
    }

    #[test]
    fn abox_constants_are_rolled_back_between_requests() {
        let mut s = ServeSession::with_threads(1);
        let baseline = {
            // Warm up the OMQ so only ABox constants vary below.
            s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(seed)"}"#);
            lock_recover(&s.shared.vocab).const_mark()
        };
        for i in 0..100 {
            let resp = s.handle_line(&format!(
                r#"{{"ontology": "A sub B", "query": "B", "abox": "A(fresh{i})"}}"#
            ));
            ok_field(&resp, &format!(r#"[["fresh{i}"]]"#));
        }
        assert_eq!(lock_recover(&s.shared.vocab).const_mark(), baseline);
    }

    #[test]
    fn stats_op_renders_the_metrics_table_in_order() {
        let table: Vec<&str> = EngineStats::default()
            .entries()
            .iter()
            .map(|e| e.0)
            .collect();
        let unique: BTreeSet<&str> = table.iter().copied().collect();
        assert_eq!(unique.len(), table.len(), "metric names must be unique");
        // The 45 keys of the block every response used to carry, in
        // their old order, stay the prefix of the table.
        let old_block: Vec<&str> = "requests cache_hits cache_misses cache_size evictions \
            inflight_waits overloaded panics facts_interned arena_bytes dedup_hits wal_records \
            wal_bytes snapshots recovered_records recovered_facts session_facts quarantined \
            breaker_trips faults_injected conns_accepted conns_refused conns_active queue_depth \
            queue_rejects drains ivm_maintained_hits ivm_deleted ivm_rederived views_active \
            views_evicted certs_emitted cert_bytes sql_compiles sql_refusals \
            repl_frames_shipped repl_bytes_shipped repl_snapshots_shipped repl_records_applied \
            repl_bytes_applied repl_reconnects repl_promotions repl_write_refusals \
            repl_stale_refusals repl_lag_lsn"
            .split_whitespace()
            .collect();
        assert_eq!(old_block.len(), 45);
        assert_eq!(&table[..45], &old_block[..]);
        // The reply is JSON whose "engine" object is exactly the table's
        // `"name": value` pairs, in table order.
        let mut s = ServeSession::with_threads(1);
        let reply = stats_reply(&mut s);
        assert!(json::parse(&reply).is_ok(), "not JSON: {reply}");
        let body = &reply[reply.find("\"engine\": {").unwrap() + 11..reply.len() - 2];
        let keys: Vec<&str> = body
            .split(", ")
            .map(|kv| kv.split('"').nth(1).unwrap())
            .collect();
        assert_eq!(keys, table);
        // A read: followers and fenced nodes answer it instead of
        // refusing it as a write.
        for role in [crate::repl::Role::Follower, crate::repl::Role::Fenced] {
            s.shared().repl().set_role(role);
            ok_field(&stats_reply(&mut s), r#""status": "ok", "op": "stats""#);
        }
    }

    #[test]
    fn replicated_constants_survive_a_concurrent_read() {
        let dir =
            std::env::temp_dir().join(format!("gomq-serve-repl-consts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            data_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        // A read is in flight while the follower applies a shipped
        // assert that interns a new constant; the read's scope exit
        // must not truncate the name the session store now references.
        s.shared.scope_enter();
        let record = crate::wal::WalRecord::Assert(vec![SymFact {
            rel: "Manager".into(),
            args: vec![crate::wal::SymTerm::Const("ada".into())],
        }]);
        let applied = s
            .shared
            .replicate(|session, vocab| session.apply_replicated(1, &record, vocab));
        assert!(applied.unwrap());
        s.shared.scope_exit();
        let q = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q, r#"[["ada"]]"#);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
