//! Seeded request streams. Everything the server sees is produced here
//! from `(workload, seed, seconds)`; the same arguments give
//! byte-identical streams ([`Streams::digest`]).
//!
//! Inputs follow the repository's example families: `examples/data`'s
//! company and org ontologies and the paper's Example 6 odd cycle. Each
//! family is instantiated with a name suffix, so the session lane can
//! use a signature disjoint from the one-shot traffic.

use gomq_engine::json;
use gomq_rewriting::fnv1a;

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The three ontology families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `examples/data/company.dl`: roles, Horn, recursive rewriting.
    Company,
    /// `examples/data/org.dl`: a pure concept hierarchy.
    Org,
    /// Example 6: the odd-cycle ontology (non-Horn, 2-colouring).
    OddCycle,
}

/// One ontology-mediated query: ontology text, query relation, and the
/// shape and name suffix its ABoxes are generated from.
#[derive(Clone, Debug)]
pub struct Omq {
    pub shape: Shape,
    pub sfx: String,
    pub ontology: String,
    pub query: String,
}

impl Omq {
    /// The full axiom set of a family with every name suffixed.
    fn axioms(shape: Shape, s: &str) -> Vec<String> {
        match shape {
            Shape::Company => vec![
                format!("Employee{s} sub ex worksOn{s}.Project{s}"),
                format!("Manager{s} sub Employee{s}"),
                format!("Project{s} sub all worksOn{s}-.Employee{s}"),
                format!("role manages{s} sub worksOn{s}"),
            ],
            Shape::Org => vec![
                format!("Intern{s} sub Engineer{s}"),
                format!("Engineer{s} sub Employee{s}"),
                format!("Manager{s} sub Employee{s}"),
                format!("Employee{s} sub Person{s}"),
            ],
            Shape::OddCycle => vec![
                format!("A{s} and ex R{s}.A{s} sub E{s}"),
                format!("not A{s} and ex R{s}.not A{s} sub E{s}"),
                format!("E{s} sub all R{s}.E{s}"),
                format!("E{s} sub all R{s}-.E{s}"),
            ],
        }
    }

    pub fn new(shape: Shape, sfx: &str, query: &str) -> Omq {
        Omq {
            shape,
            sfx: sfx.to_owned(),
            ontology: Self::axioms(shape, sfx).join("\n"),
            query: format!("{query}{sfx}"),
        }
    }

    /// `n` random facts over this OMQ's signature, `consts` distinct
    /// constants per sort (so small `consts` means dense joins).
    pub fn abox(&self, n: usize, consts: usize, rng: &mut Rng) -> Vec<String> {
        let s = &self.sfx;
        let c = consts.max(2);
        (0..n)
            .map(|_| match self.shape {
                Shape::Company => {
                    let p = rng.below(c);
                    let j = rng.below(c / 4 + 1);
                    match rng.below(20) {
                        0..=2 => format!("Manager{s}(p{p})"),
                        3..=4 => format!("Employee{s}(p{p})"),
                        5..=11 => format!("worksOn{s}(p{p}, j{j})"),
                        12..=14 => format!("manages{s}(p{p}, j{j})"),
                        _ => format!("Project{s}(j{j})"),
                    }
                }
                Shape::Org => {
                    let x = rng.below(c);
                    let concept =
                        ["Intern", "Engineer", "Manager", "Employee", "Person"][rng.below(5)];
                    format!("{concept}{s}(x{x})")
                }
                Shape::OddCycle => {
                    let u = rng.below(c);
                    if rng.chance(0.2) {
                        format!("A{s}(v{u})")
                    } else {
                        format!("R{s}(v{u}, v{})", rng.below(c))
                    }
                }
            })
            .collect()
    }
}

/// The request classes latency is reported for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One-shot query over a request-supplied ABox.
    Query,
    /// `"session": true` query over the session store.
    SessionQuery,
    /// `assert` / `mark` / `rollback`.
    Write,
}

/// What the oracle needs to check a reply.
#[derive(Clone, Debug)]
pub enum Op {
    /// One-shot query: OMQ index into [`Streams::omqs`], the ABox facts.
    Query {
        omq: usize,
        abox: Vec<String>,
        cert: bool,
    },
    /// Session query over OMQ `omq` (index into [`Streams::omqs`]).
    SessionQuery {
        omq: usize,
    },
    Assert {
        facts: Vec<String>,
    },
    Mark {
        id: u64,
    },
    Rollback {
        id: u64,
    },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Query { .. } => Kind::Query,
            Op::SessionQuery { .. } => Kind::SessionQuery,
            _ => Kind::Write,
        }
    }
}

/// One request: its wire line and its meaning.
#[derive(Clone, Debug)]
pub struct Req {
    pub line: String,
    pub op: Op,
}

/// A workload's fixed parameters.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Closed-loop queries per measured second (both connections; for
    /// session_rw, session ops), sized so the closed loop lasts about
    /// 60% of `--seconds` on the seed commit (2 vCPUs), leaving room for
    /// a slower host.
    pub closed_per_s: f64,
    /// Open-loop arrival rate of those queries, per second, in the
    /// untraced part of a traced run: 15-25% of the seed's closed-loop
    /// rate on two cores.
    pub open_rps: f64,
    /// Session-lane ops connection 0 sends after each of its closed-loop
    /// queries. They are cheap, and give every workload enough writes to
    /// measure. session_rw is all lane.
    pub lane_per_query: f64,
    /// Share of lane ops that are writes.
    pub lane_write_frac: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hot_small",
        closed_per_s: 650.0,
        open_rps: 500.0,
        lane_per_query: 0.24,
        lane_write_frac: 1.0,
    },
    Workload {
        name: "session_rw",
        closed_per_s: 2000.0,
        open_rps: 500.0,
        lane_per_query: 0.0,
        lane_write_frac: 0.06,
    },
];

/// Facts in the pre-populated session store.
pub const PREPOPULATED_FACTS: usize = 1000;

/// Constants per sort in session facts: the lane's asserts keep joining
/// with earlier facts, so maintenance has real work.
const SESSION_CONSTS: usize = 200;

/// A run has this many closed phases (alternating with as many open
/// phases when the stream has any). Latencies are pooled over them.
pub const ROUNDS: usize = 20;

/// One stretch of a run: its requests per connection, closed or open
/// loop.
pub struct Phase {
    pub open: bool,
    pub reqs: [Vec<Req>; 2],
}

/// Everything one run sends, per connection and phase.
pub struct Streams {
    pub omqs: Vec<Omq>,
    /// The session lane's OMQs (indices into `omqs`).
    pub session_omqs: Vec<usize>,
    /// Facts in the store every set-up recovers.
    pub prepopulate: Vec<String>,
    /// Warm-up requests sent during set-up (not checked, not timed).
    pub warmup: Vec<String>,
    /// [`ROUNDS`] closed phases, each followed by an open one when the
    /// stream has open phases.
    pub phases: Vec<Phase>,
    /// After the run: one session query per session OMQ.
    pub final_queries: Vec<Req>,
}

impl Streams {
    /// FNV-1a over every line in send order: equal digests mean
    /// byte-identical streams.
    pub fn digest(&self) -> u64 {
        let requests = self.phases.iter().flat_map(|p| p.reqs.iter().flatten());
        let lines = (self.prepopulate.iter().chain(&self.warmup))
            .chain(requests.chain(&self.final_queries).map(|r| &r.line));
        let mut bytes = Vec::new();
        for line in lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        fnv1a(&bytes)
    }

    pub fn requests(&self) -> usize {
        self.phases.iter().flat_map(|p| &p.reqs).map(Vec::len).sum()
    }
}

fn query_line(id: &str, omq: &Omq, tail: &str) -> String {
    let mut out = String::from("{\"id\": ");
    json::write_str(&mut out, id);
    out.push_str(", \"ontology\": ");
    json::write_str(&mut out, &omq.ontology);
    out.push_str(", \"query\": ");
    json::write_str(&mut out, &omq.query);
    out.push_str(tail);
    out.push('}');
    out
}

fn abox_field(facts: &[String]) -> String {
    let mut out = String::from(", \"abox\": ");
    json::write_str(&mut out, &facts.join("\n"));
    out
}

/// Generates the session lane: session queries and writes. Most
/// asserts sit inside mark/rollback cycles, so DRed deletion runs often
/// and the store stays near its starting size; mark ids are numbered as
/// the server assigns them (the store starts with no marks). Like the
/// query mix, the lane's shape is fixed (which ops, which OMQ, how many
/// facts) and only the facts come from the seed.
struct Lane {
    rng: Rng,
    write_frac: f64,
    /// Accumulators: a write (or a plain assert) is due when one
    /// crosses 1.
    write_due: f64,
    plain_due: f64,
    next_mark: u64,
    /// The open mark and how many asserts remain before rolling back.
    cycle: Option<(u64, usize)>,
    seq: usize,
    asserts: usize,
    reads: usize,
}

impl Lane {
    fn new(rng: Rng, write_frac: f64) -> Lane {
        // The first write is a plain assert, so the store is never
        // empty at the end of a run.
        Lane {
            rng,
            write_frac,
            write_due: 0.0,
            plain_due: 1.0,
            next_mark: 0,
            cycle: None,
            seq: 0,
            asserts: 0,
            reads: 0,
        }
    }

    fn next(&mut self, s: &Streams, reads_only: bool, tag: &str) -> Req {
        self.seq += 1;
        let id = format!("{tag}{}", self.seq);
        if !reads_only {
            self.write_due += self.write_frac;
        }
        if !reads_only && self.write_due >= 1.0 {
            self.write_due -= 1.0;
            match self.cycle {
                Some((mark, 0)) => {
                    self.cycle = None;
                    let line =
                        format!("{{\"id\": \"{id}\", \"op\": \"rollback\", \"mark\": {mark}}}");
                    return Req {
                        line,
                        op: Op::Rollback { id: mark },
                    };
                }
                Some((mark, left)) => self.cycle = Some((mark, left - 1)),
                None => {
                    // Three plain asserts in ten; the rest open a cycle
                    // of 2, 3 or 4 asserts.
                    self.plain_due += 0.3;
                    if self.plain_due < 1.0 {
                        let mark = self.next_mark;
                        self.next_mark += 1;
                        self.cycle = Some((mark, 2 + (mark % 3) as usize));
                        let line = format!("{{\"id\": \"{id}\", \"op\": \"mark\"}}");
                        return Req {
                            line,
                            op: Op::Mark { id: mark },
                        };
                    }
                    self.plain_due -= 1.0;
                }
            }
            self.asserts += 1;
            // Two asserts in three, like two reads in three, go to the
            // first session OMQ (see the reads below).
            let omq = &s.omqs[s.session_omqs[usize::from(self.asserts.is_multiple_of(3))]];
            let n =
                5 + (15.0 * (self.asserts as f64 * 0.618_033_988_749_895).fract()).round() as usize;
            let facts = omq.abox(n, SESSION_CONSTS, &mut self.rng);
            let line = format!(
                "{{\"id\": \"{id}\", \"op\": \"assert\"{}}}",
                abox_field(&facts)
            );
            return Req {
                line,
                op: Op::Assert { facts },
            };
        }
        self.reads += 1;
        // Two reads in three go to the first session OMQ: with an even
        // split the median would fall in the gap between the two OMQs'
        // latencies and jump between them from run to run.
        let omq = s.session_omqs[usize::from(self.reads.is_multiple_of(3))];
        let line = query_line(&id, &s.omqs[omq], ", \"session\": true");
        Req {
            line,
            op: Op::SessionQuery { omq },
        }
    }
}

/// Builds the complete request streams of one run; `with_open` adds an
/// open phase after each closed one, and the two then share `seconds`.
pub fn generate(w: &Workload, seed: u64, seconds: f64, with_open: bool) -> Streams {
    let mut rng = Rng::new(seed ^ fnv1a(w.name.as_bytes()));
    let mut s = Streams {
        omqs: Vec::new(),
        session_omqs: Vec::new(),
        prepopulate: Vec::new(),
        warmup: Vec::new(),
        phases: Vec::new(),
        final_queries: Vec::new(),
    };
    // The one-shot pool (hot_small): the examples/data families and
    // Example 6.
    let pool: Vec<usize> = if w.name == "session_rw" {
        Vec::new()
    } else {
        s.omqs.push(Omq::new(Shape::Company, "", "Employee"));
        s.omqs.push(Omq::new(Shape::Org, "", "Person"));
        s.omqs.push(Omq::new(Shape::OddCycle, "", "E"));
        vec![0, 1, 2]
    };
    // The session lane: company and org, each over its own signature.
    // (The odd cycle stays out: its reference fixpoint over a session
    // store costs the oracle far more than the run itself.)
    for (shape, sfx, q) in [
        (Shape::Company, "_sc", "Employee"),
        (Shape::Org, "_so", "Person"),
    ] {
        s.session_omqs.push(s.omqs.len());
        s.omqs.push(Omq::new(shape, sfx, q));
    }
    let per = PREPOPULATED_FACTS / s.session_omqs.len();
    for &i in &s.session_omqs.clone() {
        let facts = s.omqs[i].abox(per, SESSION_CONSTS, &mut rng);
        s.prepopulate.extend(facts);
    }
    // Warm-up fills the plan cache and the session views.
    for (n, &i) in pool.iter().enumerate() {
        let facts = s.omqs[i].abox(4, 4, &mut rng);
        s.warmup.push(query_line(
            &format!("w{n}"),
            &s.omqs[i],
            &abox_field(&facts),
        ));
    }
    for &i in &s.session_omqs {
        s.warmup.push(query_line(
            &format!("ws{i}"),
            &s.omqs[i],
            ", \"session\": true",
        ));
    }

    let mut lane = Lane::new(Rng::new(rng.next()), w.lane_write_frac);
    // Query composition is stratified rather than drawn independently:
    // the pool is visited round-robin and ABox sizes follow a golden-
    // ratio sequence, so every run (and every stretch of a run) carries
    // the same mix of OMQs and sizes and only the facts differ between
    // seeds.
    let mut seq = 0usize;
    let (rot, u0) = (rng.below(pool.len().max(1)), rng.unit());
    let mut one_shot = |s: &Streams, rng: &mut Rng| -> Req {
        seq += 1;
        let u = (u0 + seq as f64 * 0.618_033_988_749_895).fract();
        // Queries alternate between the connections, so each walks the
        // pool on its own (offset by half of it).
        let turn = pool.len().max(1);
        let next = (rot + seq / 2 + (seq % 2) * (turn / 2)) % turn;
        let (omq, n) = (pool[next], 20 + (60.0 * u).round() as usize);
        let cert = seq.is_multiple_of(20);
        let abox = s.omqs[omq].abox(n, n / 2, rng);
        let mut tail = abox_field(&abox);
        if cert {
            tail.push_str(", \"certificate\": true");
        }
        let line = query_line(&format!("q{seq}"), &s.omqs[omq], &tail);
        Req {
            line,
            op: Op::Query { omq, abox, cert },
        }
    };
    let closed_share = if with_open { 0.5 } else { 1.0 };
    let closed_n = (w.closed_per_s * seconds * closed_share / ROUNDS as f64)
        .round()
        .max(2.0) as usize;
    let open_n = (w.open_rps * seconds * 0.5 / ROUNDS as f64)
        .round()
        .max(2.0) as usize;
    let mut lane_due = 0.0;
    let phases = if with_open { 2 * ROUNDS } else { ROUNDS };
    for phase in 0..phases {
        let open = with_open && phase % 2 == 1;
        let mut reqs: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
        for i in 0..if open { open_n } else { closed_n } {
            if w.name == "session_rw" {
                // Connection 0 writes and reads, connection 1 only
                // reads. Its reads are about twice as fast as connection
                // 0's mix, so in the closed loop it gets two requests in
                // three and both connections finish together.
                let conn = if open { i % 2 } else { usize::from(i % 3 != 0) };
                reqs[conn].push(lane.next(&s, conn == 1, if conn == 0 { "a" } else { "b" }));
                continue;
            }
            reqs[i % 2].push(one_shot(&s, &mut rng));
            if !open && i % 2 == 0 {
                lane_due += w.lane_per_query;
                while lane_due >= 1.0 {
                    lane_due -= 1.0;
                    reqs[0].push(lane.next(&s, false, "a"));
                }
            }
        }
        s.phases.push(Phase { open, reqs });
    }
    for &i in &s.session_omqs {
        let line = query_line(&format!("f{i}"), &s.omqs[i], ", \"session\": true");
        s.final_queries.push(Req {
            line,
            op: Op::SessionQuery { omq: i },
        });
    }
    s
}
