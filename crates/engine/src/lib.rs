//! # gomq-engine
//!
//! A caching OMQ serving engine on top of the dichotomy machinery.
//!
//! The research crates answer one OMQ against one instance from
//! scratch: classify the ontology, run type elimination, emit the
//! Datalog≠ rewriting (Theorem 5), evaluate. A serving workload poses
//! the *same* few OMQs against a *stream* of ABoxes, which makes that
//! pipeline mostly redundant work. This crate restructures it:
//!
//! * [`plan`] — an [`OmqPlan`] bundles the classification verdict, the
//!   element-type system with its bitset kernel, the optimized
//!   rewriting and its SQL text; compiled once.
//! * [`cache`] — a [`PlanCache`] keyed by the canonical OMQ hash
//!   (`gomq_rewriting::canonical_omq_hash`) but *verified* against the
//!   full canonical text (hash collisions can never serve the wrong
//!   plan), with negative caching of non-rewritable OMQs, single-flight
//!   deduplication of concurrent compilations, and a capacity bound
//!   enforced by LRU eviction.
//! * [`backend`] — the executors: [`backend::native`], the plan's
//!   bitset type kernel run over an ABox's fact store (scoped-thread
//!   parallelism across the ABoxes of a batch, governed by a
//!   cooperative [`gomq_datalog::Budget`]), and [`backend::sql`], which
//!   runs the plan's emitted portable SQL via the dependency-free
//!   `gomq-sqlexec` executor (recursive plans are refused with a typed
//!   status). Certified answers run the rewriting's traced Datalog
//!   fixpoint, and maintained session views its incremental
//!   maintenance.
//! * [`engine`] — the [`Engine`] facade tying cache, executors and the
//!   [`Metrics`] table together.
//! * [`stats`] — per-request [`RequestStats`] and the engine's metrics,
//!   declared once in one table and pulled with `{"op": "stats"}`.
//! * [`serve`] + the `gomq-serve` binary — a JSONL stdin/stdout
//!   protocol: one `{ontology, query, abox}` request per line (optional
//!   per-request `"limits"`), one answer+stats response per line.
//!   Blown budgets answer `"status": "overloaded"`; panics in
//!   compilation or evaluation are caught and isolated, and poisoned
//!   locks are recovered, so a hostile line can never take the session
//!   down or wedge its siblings.
//! * [`net`] + [`drain`] — the TCP front end (`gomq-serve --listen`):
//!   a multi-connection accept loop speaking the same JSONL protocol,
//!   a bounded worker pool with a backpressure queue (full ⇒ typed
//!   `"overloaded"` refusals), connection caps, idle timeouts, and
//!   graceful drain on SIGTERM ([`DrainToken`]): in-flight requests
//!   finish, the WAL is fsynced and a final snapshot cut.
//! * [`repl`] — primary/replica replication (`gomq-serve
//!   --replicate-to` / `--follow`): the primary ships checksummed WAL
//!   frames (snapshot bootstrap for replicas behind the retained log),
//!   replicas serve session reads with a per-request `"staleness"` lsn
//!   lag bounded by `--max-staleness-lsn`, and failover promotes a
//!   replica via a `promote` op or `--promote-on-disconnect`, stamping
//!   an epoch into the WAL that fences the old primary.
//!
//! Served answers are answer-equivalent to the reference
//! [`gomq_datalog::Program::eval`] of the plan's rewriting;
//! `tests/engine_props.rs` checks this property on random OMQs and
//! ABoxes, including across cache-hit re-evaluation.

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod certify;
pub mod drain;
pub mod engine;
pub mod faults;
pub mod json;
pub mod net;
pub mod plan;
pub mod repl;
pub mod serve;
pub mod session;
pub mod stats;
pub mod wal;

/// The engine's historical name for the backend-agnostic
/// [`gomq_datalog::PlanIr`]: a rewriting's rules partitioned into SCC
/// strata, bodies first.
pub type Strata = gomq_datalog::PlanIr;
pub use backend::Backend;
pub use cache::{PlanCache, PlanOutcome};
pub use certify::{emit_certificate, CertSource, CertifyError};
pub use drain::DrainToken;
pub use engine::Engine;
pub use gomq_datalog::{Budget, BudgetExceeded, LimitKind};
pub use net::{NetConfig, NetReport, NetServer};
pub use plan::{EngineError, OmqPlan};
pub use repl::{FollowConfig, ReplContext, ReplHub, ReplServer, Role};
pub use serve::{
    handle_connection, read_line_capped, resolve_view_flags, CappedLineReader, ConnClose,
    ConnControl, ConnOutcome, Limits, LineRead, ServeConfig, ServeSession, ServeShared,
};
pub use session::{
    DurableSession, MutationInfo, PersistOptions, RecoveryInfo, SessionError, ViewMaintenance,
    ViewRegistry, DEFAULT_MAX_VIEWS,
};
pub use stats::{EngineStats, Metrics, RequestStats};
pub use wal::{SymFact, SymTerm, Wal, WalRecord};
