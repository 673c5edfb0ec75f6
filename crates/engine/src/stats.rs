//! Engine and per-request statistics.
//!
//! Every cumulative engine metric is declared exactly once, as one row
//! of the `metrics!` table below: its name, its kind and a one-line
//! doc. The table generates the live [`Metrics`]
//! (one relaxed atomic per row, held by [`crate::Engine`]), the
//! [`EngineStats`] snapshot with one `u64` field per row, and the JSON
//! rendering served by `{"op": "stats"}`. Table order is protocol order:
//! new rows only ever append.

use gomq_core::StoreStats;
use gomq_rewriting::TypeStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Statistics of one served request (one OMQ evaluated against one
/// ABox, or one batch of ABoxes).
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestStats {
    /// Wall time spent evaluating.
    pub eval: Duration,
    /// Evaluation rounds (summed over a batch): the type kernel's
    /// propagation passes when `typed`, fixpoint rounds otherwise.
    pub rounds: usize,
    /// Evaluation work (summed over a batch): the type kernel's
    /// (element, type) eliminations when `typed`, IDB facts derived
    /// beyond the ABox otherwise.
    pub derived: usize,
    /// Number of answer tuples (summed over a batch).
    pub answers: usize,
    /// Whether the request was served by the bitset type kernel (every
    /// plain query, batch and views-off session read) rather than a
    /// Datalog fixpoint (certified queries, maintained views).
    pub typed: bool,
    /// Propagation-kernel counters (zero unless `typed`).
    pub type_stats: TypeStats,
    /// Storage pressure of the request's fact store(s): facts interned,
    /// arena terms, dedup hits. Only the paths that materialize facts —
    /// the traced fixpoint and maintained views — report it; zero on
    /// kernel- and SQL-served requests.
    pub store: StoreStats,
    /// Whether a session query was answered from a maintained
    /// materialization that existed before the request (incremental
    /// sync instead of a from-scratch fixpoint).
    pub maintained: bool,
    /// Facts overcount-deleted by incremental view maintenance.
    pub ivm_deleted: usize,
    /// Facts rederived (revived) by incremental view maintenance.
    pub ivm_rederived: usize,
    /// Size in bytes of the derivation certificate attached to the
    /// response (0 when the request did not ask for one).
    pub cert_bytes: usize,
}

/// Applies `f` atomically. Metrics publish no other data, so relaxed
/// ordering suffices.
fn update(a: &AtomicU64, f: impl Fn(u64) -> u64) {
    let _ = a.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(f(v)));
}

/// A cumulative metric: adds saturate at `u64::MAX` instead of wrapping,
/// so a pathological workload (or a fault plan lying about sizes) skews
/// the telemetry but never panics a debug build mid-request.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`, saturating.
    pub fn add(&self, n: u64) {
        update(&self.0, |v| v.saturating_add(n));
    }

    /// Adds a duration in nanoseconds, saturating.
    pub fn add_nanos(&self, d: Duration) {
        self.add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sampled metric: the last value stored (or a level moved up and
/// down, saturating at both ends).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Stores a new sample.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level by `n`, saturating.
    pub fn add(&self, n: u64) {
        update(&self.0, |v| v.saturating_add(n));
    }

    /// Lowers the level by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        update(&self.0, |v| v.saturating_sub(n));
    }

    /// The current sample.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water metric: keeps the largest value ever offered.
#[derive(Debug, Default)]
pub struct Max(AtomicU64);

impl Max {
    /// Raises the mark to `v` if `v` is larger.
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current mark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Generates [`Metrics`], [`EngineStats`] and the table-order rendering
/// from one `name Kind "doc";` row per metric.
macro_rules! metrics {
    ($($name:ident $kind:ident $doc:literal;)*) => {
        /// The engine's live metrics, one relaxed atomic per table row.
        /// Call sites bump fields directly, e.g.
        /// `engine.metrics().panics.add(1)`.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(#[doc = $doc] pub $name: $kind,)*
        }

        /// A snapshot of [`Metrics`] ([`crate::Engine::stats`]), one
        /// field per table row.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct EngineStats {
            $(#[doc = $doc] pub $name: u64,)*
        }

        impl Metrics {
            /// Reads every metric into an [`EngineStats`].
            pub fn snapshot(&self) -> EngineStats {
                EngineStats {
                    $($name: self.$name.get(),)*
                }
            }
        }

        impl EngineStats {
            /// `(name, value)` for every metric, in table order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

metrics! {
    requests               Counter "Requests served (each answer or batch call counts once).";
    cache_hits             Gauge   "Plan-cache hits (sampled from the plan cache at snapshot).";
    cache_misses           Gauge   "Plan-cache misses, i.e. compilations attempted (sampled).";
    cache_size             Gauge   "Plans currently resident in the cache (sampled).";
    evictions              Gauge   "Plans evicted by the cache's LRU capacity bound (sampled).";
    inflight_waits         Gauge   "Lookups that waited on another thread's compilation (sampled).";
    overloaded             Counter "Requests refused or aborted because their budget ran out.";
    panics                 Counter "Panics caught and isolated by the serving layer.";
    facts_interned         Counter "Facts interned by fact-materializing evaluations (certified, views).";
    arena_bytes            Counter "Fact-argument arena bytes of fact-materializing evaluations.";
    dedup_hits             Counter "Candidate derivations answered by an existing fact.";
    wal_records            Counter "Session mutations journaled to the write-ahead log.";
    wal_bytes              Counter "Frame bytes appended to the write-ahead log.";
    snapshots              Counter "Snapshots written (each truncates the WAL).";
    recovered_records      Counter "WAL records replayed during recovery at startup.";
    recovered_facts        Counter "Facts rebuilt from the snapshot plus WAL replay at startup.";
    session_facts          Gauge   "Facts in the session store (sampled when stats are rendered).";
    quarantined            Counter "Requests refused because their plan's circuit breaker was open.";
    breaker_trips          Counter "Circuit breakers tripped (plans newly quarantined).";
    faults_injected        Gauge   "Faults injected by the chaos layer (sampled; 0 without chaos).";
    conns_accepted         Counter "TCP connections accepted by the network front end.";
    conns_refused          Counter "TCP connections refused at accept time (connection caps).";
    conns_active           Gauge   "TCP connections currently open.";
    queue_depth            Gauge   "Worker-pool jobs queued or executing at the last enqueue/dequeue.";
    queue_rejects          Counter "Requests refused with \"limit\": \"queue\" (worker queue full).";
    drains                 Counter "Graceful drains initiated (signal, shutdown token or stdin EOF).";
    ivm_maintained_hits    Counter "Session queries answered from a pre-existing maintained view.";
    ivm_deleted            Counter "Facts overcount-deleted by view maintenance (DRed delete).";
    ivm_rederived          Counter "Facts rederived by view maintenance (DRed rederive, revivals).";
    views_active           Gauge   "Maintained views registered at the last view operation.";
    views_evicted          Gauge   "Views dropped for any reason (the registry's own running total).";
    certs_emitted          Counter "Responses that carried a derivation certificate.";
    cert_bytes             Counter "Total certificate bytes emitted.";
    sql_compiles           Counter "Requests answered by executing the plan's emitted SQL.";
    sql_refusals           Counter "SQL-backend requests refused because the rewriting is recursive.";
    repl_frames_shipped    Counter "WAL record frames shipped to replicas (primary side).";
    repl_bytes_shipped     Counter "Bytes shipped to replicas (record frames plus snapshots).";
    repl_snapshots_shipped Counter "Bootstrap snapshots shipped to replicas.";
    repl_records_applied   Counter "Replicated WAL records applied locally (follower side).";
    repl_bytes_applied     Counter "Record-frame bytes received and applied (follower side).";
    repl_reconnects        Counter "Follower reconnect attempts after a dropped primary connection.";
    repl_promotions        Counter "Promotions to primary (promote op or --promote-on-disconnect).";
    repl_write_refusals    Counter "Writes refused as \"read-only\" (follower) or \"fenced\".";
    repl_stale_refusals    Counter "Replica reads refused for lagging past --max-staleness-lsn.";
    repl_lag_lsn           Gauge   "Follower lsn lag behind the primary (0 on a primary).";
    rounds                 Counter "Fixpoint rounds plus type-kernel passes across all evaluations.";
    derived                Counter "IDB facts derived plus type-kernel eliminations, all evaluations.";
    answers                Counter "Answer tuples produced across all evaluations.";
    compile_ns             Counter "Wall time in plan lookup and compilation, in nanoseconds.";
    eval_ns                Counter "Wall time in evaluation, in nanoseconds.";
    typed_requests         Counter "Plain queries, batches and views-off session reads (type kernel).";
    type_elements          Counter "Signature-domain elements propagated by the type kernel.";
    type_edges             Counter "Binary facts visited by the type kernel.";
    type_arcs_revised      Counter "AC-3 arc revisions performed by the type kernel.";
    type_compat_bits       Max     "Largest kernel compatibility-matrix size seen, in set bits.";
    type_build_ns          Max     "Longest type-kernel build seen, in nanoseconds.";
    type_propagate_ns      Counter "Wall time in type-kernel propagation, in nanoseconds.";
}

impl Metrics {
    /// Folds one request's statistics into the totals.
    pub fn absorb(&self, r: &RequestStats) {
        self.requests.add(1);
        self.rounds.add(r.rounds as u64);
        self.derived.add(r.derived as u64);
        self.answers.add(r.answers as u64);
        self.eval_ns.add_nanos(r.eval);
        if r.typed {
            let t = &r.type_stats;
            self.typed_requests.add(1);
            self.type_elements.add(t.elements as u64);
            self.type_edges.add(t.edges as u64);
            self.type_arcs_revised.add(t.arcs_revised as u64);
            self.type_compat_bits.raise(t.compat_bits as u64);
            self.type_build_ns.raise(t.build_ns);
            self.type_propagate_ns.add(t.propagate_ns);
        }
        self.facts_interned.add(r.store.facts);
        self.arena_bytes.add(r.store.arena_bytes());
        self.dedup_hits.add(r.store.dedup_hits);
        if r.maintained {
            self.ivm_maintained_hits.add(1);
        }
        self.ivm_deleted.add(r.ivm_deleted as u64);
        self.ivm_rederived.add(r.ivm_rederived as u64);
        if r.cert_bytes > 0 {
            self.certs_emitted.add(1);
            self.cert_bytes.add(r.cert_bytes as u64);
        }
    }
}

impl EngineStats {
    /// Appends the snapshot as one JSON object, keys in table order.
    pub fn write_json(&self, out: &mut String) {
        let pairs: Vec<String> = self
            .entries()
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push('{');
        out.push_str(&pairs.join(", "));
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_saturates_instead_of_overflowing() {
        let m = Metrics::default();
        for c in [
            &m.requests,
            &m.derived,
            &m.answers,
            &m.facts_interned,
            &m.arena_bytes,
            &m.dedup_hits,
            &m.ivm_maintained_hits,
            &m.ivm_deleted,
            &m.ivm_rederived,
            &m.certs_emitted,
            &m.cert_bytes,
        ] {
            c.add(u64::MAX);
        }
        m.rounds.add(u64::MAX - 1);
        let r = RequestStats {
            rounds: 7,
            derived: 7,
            answers: 7,
            store: StoreStats {
                facts: 7,
                arena_terms: 7,
                dedup_hits: 7,
            },
            maintained: true,
            ivm_deleted: 7,
            ivm_rederived: 7,
            cert_bytes: 7,
            ..RequestStats::default()
        };
        m.absorb(&r); // must not panic in debug builds
        let s = m.snapshot();
        assert_eq!(s.requests, u64::MAX);
        assert_eq!(s.rounds, u64::MAX);
        assert_eq!(s.derived, u64::MAX);
        assert_eq!(s.dedup_hits, u64::MAX);
        assert_eq!(s.ivm_maintained_hits, u64::MAX);
        assert_eq!(s.ivm_deleted, u64::MAX);
        assert_eq!(s.ivm_rederived, u64::MAX);
        assert_eq!(s.certs_emitted, u64::MAX);
        assert_eq!(s.cert_bytes, u64::MAX);
    }

    #[test]
    fn gauge_levels_floor_at_zero_and_maxima_keep_the_largest() {
        let m = Metrics::default();
        m.conns_active.add(2);
        m.conns_active.sub(5);
        for ns in [5, 9, 2] {
            m.type_build_ns.raise(ns);
        }
        assert_eq!((m.conns_active.get(), m.type_build_ns.get()), (0, 9));
    }
}
