//! The load generator: one `gomq-serve --listen` child process driven
//! over two TCP connections: one thread in the closed loop, one per
//! connection in the open loop.

use crate::gen::{Req, Streams};
use crate::oracle::Outcome;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single reply may take before the connection is given
/// up and its remaining requests count as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// Socket read timeouts (SO_RCVTIMEO) round up to the kernel tick, which
// would make the open loop send late by milliseconds; `ppoll` waits with
// high-resolution timers.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}
const SIGTERM: i32 = 15;
const POLLIN: i16 = 1;

/// A CPU affinity mask (`cpu_set_t`, 1024 CPUs).
#[derive(Clone)]
struct CpuMask([u64; 16]);

/// The CPUs the process may use, read once before any pinning.
fn all_cpus() -> &'static Option<CpuMask> {
    static ALL: std::sync::OnceLock<Option<CpuMask>> = std::sync::OnceLock::new();
    ALL.get_or_init(CpuMask::current)
}

/// Pins the calling thread, and the threads and processes it starts
/// afterwards, to the last CPU the process may use (CPU 0 usually takes
/// the most interrupts); `false` gives every CPU back.
pub fn pin(on: bool) {
    if let Some(all) = all_cpus() {
        if on { all.last_cpu() } else { all.clone() }.apply();
    }
}

/// Moves the calling thread off the CPU [`pin`] uses, when there is
/// another: the open loop's sender threads, so that they never take the
/// server's CPU.
fn unpin_from_server() {
    if let Some(all) = all_cpus() {
        let last = all.last_cpu();
        let rest = CpuMask(std::array::from_fn(|w| all.0[w] & !last.0[w]));
        if rest.0.iter().any(|&w| w != 0) {
            rest
        } else {
            all.clone()
        }
        .apply();
    }
}

impl CpuMask {
    /// The calling thread's mask, if it can be read.
    fn current() -> Option<CpuMask> {
        let mut m = CpuMask([0; 16]);
        // SAFETY: the buffer is exactly the `size` bytes passed; pid 0
        // is the calling thread.
        let r = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m.0), m.0.as_mut_ptr()) };
        (r == 0).then_some(m)
    }

    /// Only the highest-numbered CPU of this mask.
    fn last_cpu(&self) -> CpuMask {
        let mut m = CpuMask([0; 16]);
        if let Some(w) = (0..16).rev().find(|&w| self.0[w] != 0) {
            m.0[w] = 1 << (63 - self.0[w].leading_zeros());
        }
        m
    }

    /// Applies the mask to the calling thread; threads and processes it
    /// starts afterwards inherit it.
    fn apply(&self) {
        // SAFETY: as in `current`, with a mask that is only read.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr());
        }
    }
}

/// The fixed server flags (the data dir is appended). No `--fsync` and
/// no periodic snapshots: both flush to disk, a flush's latency is the
/// host disk's, not the program's, and with periodic snapshots on,
/// session_rw's throughput spread 14% between runs. A graceful stop
/// still cuts a final snapshot, which the next round recovers.
const SERVER_FLAGS: &[&str] = &[
    "--listen",
    "127.0.0.1:0",
    "--threads",
    "1",
    "--workers",
    "2",
    "--snapshot-every",
    "0",
];

/// A running `gomq-serve` child.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: String,
}

impl Server {
    /// Spawns the server and waits until it reports its address (after
    /// recovering the data dir).
    pub fn start(bin: &Path, data_dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(SERVER_FLAGS)
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.wait();
                return Err("gomq-serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("gomq-serve: listening on ") {
                let addr = addr.to_owned();
                return Ok(Server {
                    child,
                    stderr,
                    addr,
                });
            }
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            start: 0,
        })
    }

    /// Peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// SIGTERM (graceful drain) and wait for exit.
    pub fn stop(mut self) -> Result<(), String> {
        // SAFETY: `kill` has no memory-safety preconditions; the pid is
        // our own child's, which has not been waited for yet, so it
        // cannot have been reused.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("gomq-serve exited with {status}: {rest}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server still owned here was not stopped cleanly (an error
        // path): make sure no process outlives the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One JSONL connection with its own line buffer, so reads can time
/// out without losing a partial line.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// The next reply line, or `Ok(None)` if none completes within
    /// `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> std::io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let end = self.start + pos;
                let line = String::from_utf8_lossy(&self.buf[self.start..end]).into_owned();
                self.start = end + 1;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(Some(line));
            }
            if !self.readable(timeout)? {
                return Ok(None);
            }
            let mut chunk = [0u8; 65536];
            match self.stream.read(&mut chunk)? {
                0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// Waits until the socket has data (or hung up), at most `timeout`.
    fn readable(&self, timeout: Duration) -> std::io::Result<bool> {
        use std::os::fd::AsRawFd;
        let mut fd = PollFd {
            fd: self.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as i64,
        };
        // SAFETY: `fd` and `ts` are live, properly laid out (`repr(C)`)
        // locals for the duration of the call, `nfds` is 1, and a null
        // signal mask is allowed (no mask change).
        let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if r < 0 {
            let e = std::io::Error::last_os_error();
            return if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            };
        }
        Ok(r > 0)
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, line: &str) -> Option<String> {
        self.send(line).ok()?;
        self.recv(REPLY_TIMEOUT).ok().flatten()
    }
}

/// What one connection saw in one phase: outcomes and, in an open
/// phase, each request's due instant and the worst send lateness.
#[derive(Clone, Default)]
pub struct ConnLog {
    pub outcomes: Vec<Outcome>,
    pub due: Vec<Instant>,
    pub late_max: Duration,
}

/// Closed loop, one request in flight: a single thread sends the next
/// request only after the previous reply, alternating between the two
/// connections in proportion to their request counts. On a two-core
/// machine two callers in flight would keep both cores busy with the
/// server's own work, and neighbours' load would then decide the
/// numbers. Stops a connection at `deadline` (the rest is lost).
pub fn closed_loop(conns: &mut [Conn; 2], reqs: &[Vec<Req>; 2], deadline: Instant) -> [ConnLog; 2] {
    let mut logs = [ConnLog::default(), ConnLog::default()];
    let mut alive = [true, true];
    let n = [reqs[0].len(), reqs[1].len()];
    let mut next = [0, 0];
    while next[0] < n[0] || next[1] < n[1] {
        // The connection further behind its share goes next.
        let c = if next[1] >= n[1] || (next[0] < n[0] && next[0] * n[1] <= next[1] * n[0]) {
            0
        } else {
            1
        };
        let req = &reqs[c][next[c]];
        next[c] += 1;
        let sent = Instant::now();
        let reply = if alive[c] && sent < deadline {
            conns[c].call(&req.line)
        } else {
            None
        };
        alive[c] &= reply.is_some();
        let recv = reply.as_ref().map(|_| Instant::now());
        logs[c].outcomes.push(Outcome { sent, recv, reply });
    }
    logs
}

/// Open loop over `duration`: each connection's requests are due at
/// evenly spaced instants across it (connection 1's offset by half a
/// gap) and are sent then, whatever the replies are doing. Replies are
/// read between sends (they arrive in order per connection). The two
/// sender threads run off the server's CPU (see [`pin`]).
pub fn open_loop(
    conns: &mut [Conn; 2],
    reqs: &[Vec<Req>; 2],
    duration: Duration,
    deadline: Instant,
) -> [ConnLog; 2] {
    let t0 = Instant::now() + Duration::from_millis(5);
    let [c0, c1] = conns;
    std::thread::scope(|scope| {
        let h0 = scope.spawn(|| open_conn(c0, &reqs[0], 0.0, t0, duration, deadline));
        let h1 = scope.spawn(|| open_conn(c1, &reqs[1], 0.5, t0, duration, deadline));
        [
            h0.join().expect("open-loop thread"),
            h1.join().expect("open-loop thread"),
        ]
    })
}

fn open_conn(
    conn: &mut Conn,
    reqs: &[Req],
    offset: f64,
    t0: Instant,
    duration: Duration,
    deadline: Instant,
) -> ConnLog {
    unpin_from_server();
    let n = reqs.len();
    let gap = duration.as_secs_f64() / n.max(1) as f64;
    let due: Vec<Instant> = (0..n)
        .map(|j| t0 + Duration::from_secs_f64((j as f64 + offset) * gap))
        .collect();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(n);
    let mut next_recv = 0;
    let mut late_max = Duration::ZERO;
    let mut broken = false;
    while next_recv < n && !broken {
        let now = Instant::now();
        let next_send = outcomes.len();
        if next_send < n && now >= due[next_send] {
            late_max = late_max.max(now - due[next_send]);
            broken = now >= deadline || conn.send(&reqs[next_send].line).is_err();
            outcomes.push(Outcome {
                sent: now,
                recv: None,
                reply: None,
            });
            continue;
        }
        let wait = if next_send < n {
            due[next_send] - now
        } else {
            REPLY_TIMEOUT
        };
        match conn.recv(wait) {
            Ok(Some(line)) if next_recv < next_send => {
                outcomes[next_recv].recv = Some(Instant::now());
                outcomes[next_recv].reply = Some(line);
                next_recv += 1;
            }
            Ok(None) if next_send == n => broken = true,
            Ok(_) => {}
            Err(_) => broken = true,
        }
    }
    while outcomes.len() < n {
        outcomes.push(Outcome {
            sent: Instant::now(),
            recv: None,
            reply: None,
        });
    }
    ConnLog {
        outcomes,
        due,
        late_max,
    }
}

/// This process's CPU time (user + system), from `/proc/self/stat`.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (100 per second).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Bytes a restart recovers from: the snapshot plus the live WAL (the
/// sealed-aside `wal.old` generation is not needed for recovery).
pub fn store_bytes(dir: &Path) -> u64 {
    ["snapshot.bin", "wal.log"]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// Copies a data dir (the pre-populated store template) to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// The streams' warm-up, sent serially on one connection; every reply
/// must be `ok`.
pub fn warm_up(conn: &mut Conn, streams: &Streams) -> Result<(), String> {
    for line in &streams.warmup {
        match conn.call(line) {
            Some(reply) if reply.contains("\"status\": \"ok\"") => {}
            other => return Err(format!("warm-up request failed: {line} -> {other:?}")),
        }
    }
    Ok(())
}
