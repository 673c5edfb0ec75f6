//! `perfbench`: the repository's benchmark for `gomq-serve`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH --work DIR
//! ```
//!
//! `--trace 0` measures end to end, in twenty rounds. Each round sets up
//! a fresh release `gomq-serve --listen 127.0.0.1:0` on the store the
//! previous round left (spawn, recovery, warm-up; `setup_s` is the
//! median), then drives it in a closed loop over two connections from
//! one thread, one request in flight. Server and client share one CPU.
//! `--trace 1` runs a shorter untraced TCP run whose rounds each add an
//! open loop at the workload's fixed rate (load-generator and server
//! self-report numbers), then replays the stream in process with spans
//! around each layer's public calls (`trace.rs`), then replays the same
//! requests over one TCP connection to price the network layer. Both
//! modes check every answer after the timed region (`oracle.rs`) and
//! print, as the last stdout line, one JSON object: `{"correct",
//! "attempted", "failed", "metrics"}`.

mod gen;
mod load;
mod oracle;
mod stats;
mod trace;

use gen::{Kind, Streams, Workload};
use load::{Conn, ConnLog, Server};
use oracle::{Outcome, Verdict};
use stats::{median, Samples, MISS_US};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --server PATH --work DIR",
        gen::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    gen::WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        server: server.unwrap_or_else(|| usage("--server is required")),
        work: work.unwrap_or_else(|| usage("--work is required")),
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    // The untraced run of `--trace 1` is shorter: it only supplies the
    // load-generator and server self-report numbers.
    let seconds = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let streams = gen::generate(w, args.seed, seconds, args.trace);
    // Self-test: a second generation from the same seed must be
    // byte-identical.
    let digest = streams.digest();
    let same = gen::generate(w, args.seed, seconds, args.trace).digest() == digest;
    println!(
        "perfbench: workload {} seed {} stream {:016x} ({} requests){}",
        w.name,
        args.seed,
        digest,
        streams.requests(),
        if same { "" } else { " NOT REPRODUCIBLE" }
    );
    let work = args
        .work
        .join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, &streams, &work);
    // Data dirs are throwaway (the span file of a traced run is written
    // beside them, in `args.work`).
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, attempted, failed) = result?;
    let correct = same && failed == 0;
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        println!("{:<28} {:>14.3} {:<6} {}", m.name, m.value, m.unit, m.note);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    Ok(json)
}

type Measured = (Vec<Metric>, usize, usize);

fn measure(args: &Args, s: &Streams, work: &Path) -> Result<Measured, String> {
    let w = args.workload;
    let template = work.join("template");
    prepopulate(&template, &s.prepopulate)?;
    // The timed parts run on one CPU, the server included: the closed
    // loop keeps one request in flight, so one CPU is all it can use, and
    // on a virtual machine every wakeup that crosses CPUs costs an
    // interrupt whose price swings with the host's load. The oracle
    // gets every CPU back.
    load::pin(true);
    let u = untraced(&args.server, w, s, work, &template);
    load::pin(false);
    let u = u?;
    let verdict = oracle::check(s, &u.phases, &u.finals);
    for note in &verdict.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    let attempted = s.requests() + s.final_queries.len();
    if !args.trace {
        return Ok((
            end_to_end(w, s, &u, &verdict, attempted),
            attempted,
            verdict.failed.len(),
        ));
    }
    load::pin(true);
    let layers = per_layer(args, s, &u, &verdict, work, &template);
    load::pin(false);
    let (metrics, replayed, mismatches) = layers?;
    Ok((
        metrics,
        attempted + replayed,
        verdict.failed.len() + mismatches,
    ))
}

/// Writes the pre-populated session store every set-up recovers: half
/// the facts folded into a snapshot, the rest left in the WAL, so set-up
/// pays both recovery paths.
fn prepopulate(dir: &Path, facts: &[String]) -> Result<(), String> {
    use gomq_engine::{DurableSession, PersistOptions};
    let mut vocab = gomq_core::Vocab::new();
    let opts = PersistOptions {
        fsync: false,
        snapshot_every: 0,
    };
    let (mut session, _) =
        DurableSession::open(dir, opts, &mut vocab).map_err(|e| e.to_string())?;
    let chunks: Vec<&[String]> = facts.chunks(100).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        let d = gomq_core::parse::parse_instance(&chunk.join("\n"), &mut vocab)
            .map_err(|e| e.to_string())?;
        let facts: Vec<gomq_core::Fact> = d.iter().map(|f| f.to_fact()).collect();
        let syms = facts
            .iter()
            .map(|f| gomq_engine::session::sym_fact(&vocab, f.rel, &f.args))
            .collect();
        session.assert(syms, &facts).map_err(|e| e.to_string())?;
        if i + 1 == chunks.len() / 2 {
            session.snapshot_now(&vocab).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// A fresh data dir holding a copy of the template store.
fn fresh_dir(dir: &Path, template: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    load::copy_dir(template, dir).map_err(|e| format!("copy store: {e}"))
}

/// What the untraced TCP run saw.
struct Untraced {
    setup_s: Vec<f64>,
    /// Per phase of the streams, per connection.
    phases: Vec<[ConnLog; 2]>,
    finals: Vec<Outcome>,
    /// Peak RSS of each round's server, KiB.
    rss_kib: Vec<u64>,
    store_bytes: u64,
    cpu_frac: f64,
}

/// One set-up on `dir`: spawn, recovery of the store there, two
/// connections, warm-up. Returns the live server and its seconds.
fn set_up(bin: &Path, s: &Streams, dir: &Path) -> Result<(Server, [Conn; 2], f64), String> {
    let t = Instant::now();
    let server = Server::start(bin, dir)?;
    let mut conns = [server.connect()?, server.connect()?];
    load::warm_up(&mut conns[0], s)?;
    Ok((server, conns, t.elapsed().as_secs_f64()))
}

/// Drives the streams through the server. Every closed phase starts on
/// a freshly set-up server that recovers the store the previous one
/// left (the first recovers the template), so each round starts from
/// the same process state, and the `setup_s` samples are spread over
/// the whole run.
fn untraced(
    bin: &Path,
    w: &Workload,
    s: &Streams,
    work: &Path,
    template: &Path,
) -> Result<Untraced, String> {
    let dir = work.join("data");
    fresh_dir(&dir, template)?;
    let mut setup_s = Vec::new();
    let mut rss = Vec::new();
    let mut live: Option<(Server, [Conn; 2])> = None;
    let (mut cpu, mut busy) = (Duration::ZERO, Duration::ZERO);
    let mut phases = Vec::new();
    for phase in &s.phases {
        if !phase.open {
            if let Some((server, conns)) = live.take() {
                rss.push(server.peak_rss_kib().unwrap_or(0));
                drop(conns);
                server.stop()?;
            }
            let (server, conns, secs) = set_up(bin, s, &dir)?;
            setup_s.push(secs);
            live = Some((server, conns));
        }
        let (_, conns) = live.as_mut().expect("the first phase is closed");
        let (cpu0, t) = (load::cpu_time(), Instant::now());
        phases.push(if phase.open {
            let len = phase.reqs[1].len() as f64 * 2.0 / w.open_rps;
            let deadline = Instant::now() + Duration::from_secs_f64(len + 30.0);
            load::open_loop(conns, &phase.reqs, Duration::from_secs_f64(len), deadline)
        } else {
            load::closed_loop(conns, &phase.reqs, Instant::now() + Duration::from_secs(30))
        });
        cpu += load::cpu_time() - cpu0;
        busy += t.elapsed();
    }
    let cpu_frac = cpu.as_secs_f64() / busy.as_secs_f64();
    let (server, mut conns) = live.expect("at least one phase");
    let finals = s
        .final_queries
        .iter()
        .map(|r| {
            let sent = Instant::now();
            let reply = conns[0].call(&r.line);
            Outcome {
                sent,
                recv: reply.as_ref().map(|_| Instant::now()),
                reply,
            }
        })
        .collect();
    rss.push(server.peak_rss_kib().unwrap_or(0));
    drop(conns);
    server.stop()?;
    // Measured after the drain, which folds the WAL into a final
    // snapshot: the size then depends on the store's content only, not
    // on where the last periodic snapshot happened to fall.
    let store_bytes = load::store_bytes(&dir);
    Ok(Untraced {
        setup_s,
        phases,
        finals,
        rss_kib: rss,
        store_bytes,
        cpu_frac,
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latencies pooled over the closed phases (queries, writes; from the
/// send) and the open phases (all ops; from the due instant), and the
/// closed loop's ok replies and busy seconds. Failures count as misses.
struct Pooled {
    query: Samples,
    write: Samples,
    open: Samples,
    done: usize,
    busy: f64,
}

fn pooled(s: &Streams, u: &Untraced, v: &Verdict) -> Pooled {
    let mut out = Pooled {
        query: Samples::default(),
        write: Samples::default(),
        open: Samples::default(),
        done: 0,
        busy: 0.0,
    };
    for (p, (phase, logs)) in s.phases.iter().zip(&u.phases).enumerate() {
        let ok = |c: usize, i: usize| !v.failed.contains(&(p, c, i));
        for (c, log) in logs.iter().enumerate() {
            for (i, (req, o)) in phase.reqs[c].iter().zip(&log.outcomes).enumerate() {
                let from = if phase.open { log.due[i] } else { o.sent };
                let lat = match o.recv {
                    Some(r) if ok(c, i) => us(r.saturating_duration_since(from)),
                    _ => MISS_US,
                };
                if phase.open {
                    out.open.push(lat);
                } else if req.op.kind() == Kind::Write {
                    out.write.push(lat);
                } else {
                    out.query.push(lat);
                }
                if !phase.open && lat < MISS_US {
                    out.done += 1;
                }
            }
        }
        if !phase.open {
            // One request is in flight at a time: the phase is busy from
            // its first send to its last reply.
            let all = || logs.iter().flat_map(|l| &l.outcomes);
            let start = all().map(|o| o.sent).min();
            let end = all().filter_map(|o| o.recv).max();
            if let (Some(start), Some(end)) = (start, end) {
                out.busy += end.saturating_duration_since(start).as_secs_f64();
            }
        }
    }
    out
}

/// The median; the note adds the tail, which is printed but not
/// bounded (see `tail`).
fn p50(name: &'static str, lat: &Samples) -> Metric {
    let mut m = metric(name, lat.quantile(0.5), "us");
    let q = stats::tail_q(lat.len());
    m.note = format!(
        "n={}, p{:.0} {:.1} us",
        lat.len(),
        q * 100.0,
        lat.quantile(q)
    );
    m
}

/// The tail: the highest percentile leaving ten samples above it. Tails
/// are per-layer metrics of the traced run: over ten runs on a shared
/// two-core host they spread wider than any bound the benchmark may set.
fn tail(name: &'static str, lat: &Samples) -> Metric {
    let q = stats::tail_q(lat.len());
    let mut m = metric(name, lat.quantile(q), "us");
    m.note = format!("p{:.0}, n={}", q * 100.0, lat.len());
    m
}

fn end_to_end(
    w: &Workload,
    s: &Streams,
    u: &Untraced,
    v: &Verdict,
    attempted: usize,
) -> Vec<Metric> {
    let lat = pooled(s, u, v);
    let replies: Vec<&String> = u
        .phases
        .iter()
        .flatten()
        .flat_map(|l| &l.outcomes)
        .filter_map(|o| o.reply.as_ref())
        .collect();
    let resp_bytes =
        replies.iter().map(|r| r.len() + 1).sum::<usize>() as f64 / replies.len().max(1) as f64;
    let mut out = vec![metric("setup_s", median(&u.setup_s), "s")];
    out[0].note = format!("median of {} set-ups, one per round", u.setup_s.len());
    let mut tput = metric("throughput_rps", lat.done as f64 / lat.busy, "1/s");
    tput.note = format!("{} ok replies over {:.2} s", lat.done, lat.busy);
    out.push(tput);
    out.push(p50("query_p50_us", &lat.query));
    out.push(p50("write_p50_us", &lat.write));
    let mut okf = metric(
        "ok_frac",
        1.0 - v.failed.len() as f64 / attempted as f64,
        "frac",
    );
    okf.note = format!("fail_frac = {} of {attempted}", v.failed.len());
    out.push(okf);
    out.push(metric("resp_bytes", resp_bytes, "bytes"));
    let rss: Vec<f64> = u.rss_kib.iter().map(|&k| k as f64 / 1024.0).collect();
    let mut rss_mb = metric("rss_mb", median(&rss), "MiB");
    rss_mb.note = format!("median over {} rounds' servers", rss.len());
    out.push(rss_mb);
    let mut store = metric(
        "store_bytes_per_fact",
        u.store_bytes as f64 / v.store_facts.max(1) as f64,
        "bytes",
    );
    store.note = format!(
        "{} bytes after drain / {} facts",
        u.store_bytes, v.store_facts
    );
    out.push(store);
    flag_loadgen(w, u);
    out
}

/// The load generator's honesty numbers: worst send lateness (ms) and
/// its own CPU use (cores).
fn loadgen(u: &Untraced) -> (f64, f64) {
    let late = u
        .phases
        .iter()
        .flatten()
        .map(|l| l.late_max)
        .max()
        .unwrap_or_default();
    (late.as_secs_f64() * 1e3, u.cpu_frac)
}

fn flag_loadgen(w: &Workload, u: &Untraced) {
    let (late_ms, cpu) = loadgen(u);
    // Late by more than five inter-arrival gaps (and 10 ms), or a client
    // using half a core, means the offered load was not what the
    // schedule says.
    if late_ms > (5e3 / w.open_rps).max(10.0) {
        eprintln!("perfbench: FLAG open loop fell behind schedule by {late_ms:.1} ms");
    }
    if cpu > 0.5 {
        eprintln!("perfbench: FLAG load generator used {cpu:.2} cores; it may be the bottleneck");
    }
}

fn per_layer(
    args: &Args,
    s: &Streams,
    u: &Untraced,
    v: &Verdict,
    work: &Path,
    template: &Path,
) -> Result<(Vec<Metric>, usize, usize), String> {
    let w = args.workload;
    flag_loadgen(w, u);
    // Server self-report, from the untraced run's replies.
    let (mut eval_us, mut compile_us, mut block) = (
        trace::Mean::default(),
        trace::Mean::default(),
        trace::Mean::default(),
    );
    let mut queue_refusals = 0u64;
    for reply in u
        .phases
        .iter()
        .flatten()
        .flat_map(|l| &l.outcomes)
        .filter_map(|o| o.reply.as_ref())
    {
        if reply.contains("\"limit\": \"queue\"") {
            queue_refusals += 1;
        }
        if let Some(r) = oracle::Reply::parse(reply) {
            if let Some(stats) = r
                .doc
                .as_obj()
                .and_then(|o| o.get("stats"))
                .and_then(|x| x.as_obj())
            {
                eval_us.add(stats.get("eval_us").and_then(|x| x.as_u64()).unwrap_or(0) as f64);
                compile_us.add(
                    stats
                        .get("compile_us")
                        .and_then(|x| x.as_u64())
                        .unwrap_or(0) as f64,
                );
            }
        }
        if let Some(at) = reply.find(", \"engine\": {") {
            block.add((reply.len() - at - 1) as f64);
        }
    }

    // The traced replay: connection 0 and 1 requests interleaved as one
    // serial order, closed phase then open phase.
    let mut lines: Vec<(&str, bool)> = Vec::new();
    for phase in &s.phases {
        let n = phase.reqs[0].len().max(phase.reqs[1].len());
        for i in 0..n {
            for conn in &phase.reqs {
                if let Some(r) = conn.get(i) {
                    lines.push((&r.line, r.op.kind() != Kind::Query));
                }
            }
        }
    }
    lines.extend(s.final_queries.iter().map(|r| (r.line.as_str(), true)));
    let (hdir, sdir, ndir) = (work.join("handle"), work.join("staged"), work.join("net"));
    for d in [&hdir, &sdir, &ndir] {
        fresh_dir(d, template)?;
    }
    let mut tr = trace::Tracer::new();
    let t = Instant::now();
    // One-shot queries are replayed for 80% of the budget, lane ops for
    // all of it.
    let budget = Duration::from_secs_f64(args.seconds * 0.5);
    let m = trace::replay(
        s,
        &lines,
        t + budget.mul_f64(0.8),
        t + budget,
        &hdir,
        &sdir,
        &mut tr,
    )?;
    let replay_s = t.elapsed().as_secs_f64();

    // The same requests over one TCP connection, serially.
    let server = Server::start(&args.server, &ndir)?;
    let mut conn: Conn = server.connect()?;
    load::warm_up(&mut conn, s)?;
    let mut tcp = Samples::default();
    for &i in &m.replayed {
        let t = Instant::now();
        conn.call(lines[i].0)
            .ok_or("single-connection replay lost a reply")?;
        tcp.push(us(t.elapsed()));
    }
    drop(conn);
    server.stop()?;
    let handle = Samples(m.handle_us.clone());

    let handle_total: f64 = m.handle_us.iter().sum();
    let measured_spans = tr.spans.iter().filter(|sp| sp.req > 0).count() as f64;
    let trace_overhead = measured_spans * trace::Tracer::span_cost_ns() / 1e3 / handle_total;
    let scaling = trace::scaling_probe(args.seed, &mut tr);
    let native_exp = stats::loglog_slope(scaling.iter().map(|p| (p.0, p.1, p.2)));
    let compile_exp = stats::loglog_slope(scaling.iter().map(|p| (p.0, p.1, p.3)));
    let (late_ms, cpu) = loadgen(u);
    let lat = pooled(s, u, v);
    let mean_facts = m.facts.get();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = vec![
        metric("loadgen.late_ms_max", late_ms, "ms"),
        metric("loadgen.cpu_frac", cpu, "cores"),
        tail("loadgen.query_tail_us", &lat.query),
        tail("loadgen.write_tail_us", &lat.write),
        p50("loadgen.open_p50_us", &lat.open),
        tail("loadgen.open_tail_us", &lat.open),
        metric(
            "net.overhead_us",
            tcp.quantile(0.5) - handle.quantile(0.5),
            "us",
        ),
        metric("net.queue_refusals", queue_refusals as f64, "count"),
        metric(
            "serve.handle_us",
            m.handle_us.iter().sum::<f64>() / m.requests.max(1) as f64,
            "us",
        ),
        metric("serve.unattributed_us", m.unattributed_us.get(), "us"),
        metric(
            "serve.unattributed_frac",
            ratio(m.unattributed_us.sum, handle_total),
            "frac",
        ),
        metric("json.decode_us", m.decode_us.get(), "us"),
        metric("dl.parse_gf_us", m.parse_gf_us.get(), "us"),
        metric("cache.lookup_us", m.lookup_hit_us.get(), "us"),
        metric(
            "cache.hit_ratio",
            ratio(m.hits as f64, (m.hits + m.misses) as f64),
            "frac",
        ),
        metric("cache.evictions", m.evictions as f64, "count"),
        metric("plan.compile_us", m.compile_us.get(), "us"),
        metric("meta.classify_us", m.classify_us.get(), "us"),
        metric("rewriting.types_build_us", m.types_build_us.get(), "us"),
        metric("rewriting.emit_datalog_us", m.emit_datalog_us.get(), "us"),
        metric("rewriting.emit_sql_us", m.emit_sql_us.get(), "us"),
        metric("rewriting.kernel_us", m.kernel_us.get(), "us"),
        metric("rewriting.types", m.types.get(), "count"),
        metric("vocab.rels", m.vocab_rels as f64, "count"),
        metric("core.intern_us", m.intern_us.get(), "us"),
        metric("native.fixpoint_us", m.fixpoint_us.get(), "us"),
        metric("native.rounds", m.rounds.get(), "count"),
        metric("native.derived", m.derived.get(), "count"),
        metric("native.scaling_exp", native_exp, "slope"),
        metric("plan.compile_scaling_exp", compile_exp, "slope"),
        metric("certify.overhead_us", m.cert_overhead_us.get(), "us"),
        metric("certify.cert_bytes", m.cert_bytes.get(), "bytes"),
        metric("session.assert_us", m.assert_us.get(), "us"),
        metric("session.rollback_us", m.rollback_us.get(), "us"),
        metric("session.snapshot_us", m.snapshot_us.get(), "us"),
        metric(
            "wal.bytes_per_fact",
            ratio(m.store_bytes as f64, m.session_facts as f64),
            "bytes",
        ),
        metric("wal.snapshots", m.snapshots as f64, "count"),
        metric("ivm.build_us", m.ivm_build_us.get(), "us"),
        metric("ivm.sync_us", m.ivm_sync_us.get(), "us"),
        metric(
            "ivm.maintained_ratio",
            ratio(m.maintained as f64, m.session_queries as f64),
            "frac",
        ),
        metric("ivm.deleted", m.ivm_deleted as f64, "count"),
        metric("ivm.rederived", m.ivm_rederived as f64, "count"),
        metric(
            "ivm.rederive_ratio",
            ratio(m.ivm_rederived as f64, m.ivm_deleted as f64),
            "frac",
        ),
        metric("server.eval_us", eval_us.get(), "us"),
        metric("server.compile_us", compile_us.get(), "us"),
        metric("resp.engine_block_bytes", block.get(), "bytes"),
        metric("trace.overhead_frac", trace_overhead, "frac"),
    ];
    for m in &mut out {
        match m.name {
            "native.scaling_exp" => {
                m.note = format!(
                    "log-log slope per OMQ, {} probe fixpoints over 300-1500 facts; Thms 5/7: polynomial in |ABox| (the stream's queries average {mean_facts:.0} facts)",
                    scaling.len()
                )
            }
            "plan.compile_scaling_exp" => m.note = "Thms 5/7: compile is independent of |ABox|, so ~0".into(),
            "net.overhead_us" => m.note = format!("TCP p50 {:.1} - in-process p50 {:.1}, n={}", tcp.quantile(0.5), handle.quantile(0.5), tcp.len()),
            _ => {}
        }
    }

    // Spans and per-layer self time, written beside the run.
    let mut summary = format!(
        "{{\"summary\": true, \"workload\": \"{}\", \"seed\": {}, \"requests\": {}, \"replay_s\": {replay_s}, \"trace_overhead_frac\": {}, \"self_us\": {{",
        w.name,
        args.seed,
        m.requests,
        trace_overhead
    );
    for (i, (name, (ns, calls))) in tr.self_times().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            summary,
            "{sep}\"{name}\": {{\"total\": {}, \"calls\": {calls}}}",
            *ns as f64 / 1e3
        );
        println!(
            "self time {:<20} {:>12.1} us over {calls} calls",
            name,
            *ns as f64 / 1e3
        );
    }
    summary.push_str("}}");
    let path = args
        .work
        .join(format!("trace-{}-{}.jsonl", w.name, args.seed));
    tr.write(&path, &summary)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("perfbench: spans written to {}", path.display());
    Ok((out, m.requests as usize, m.mismatches as usize))
}
