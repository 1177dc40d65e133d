//! Spawning `cq-serve` daemons, the client's deadline, and reading the
//! daemons' resource use from `/proc`, so that no end-to-end metric
//! includes the load generator.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(30);

/// How a daemon is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `cq-serve` with no flags: one connection on stdin/stdout.
    Stdio,
    /// `cq-serve --tcp 127.0.0.1:0`, as `cq-cluster` workers run.
    Tcp,
}

/// A `cq-serve --threads 1` child. Killed and reaped on [`Server::stop`]
/// or drop. (`cq_cluster::ServeChild` spawns TCP workers too, but keeps
/// the pid that `/proc` sampling needs private.)
pub struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the daemon; over TCP, waits for its `listening on
    /// HOST:PORT` announcement on stderr. One worker thread per daemon:
    /// the load is one request at a time, and a single thread makes the
    /// cache traffic of a batch independent of scheduling.
    pub fn spawn(serve_bin: &Path, transport: Transport) -> io::Result<Server> {
        let mut command = Command::new(serve_bin);
        command
            .args(["--threads", "1"])
            .env_remove("CQ_TRACE")
            .env_remove("CQ_HYBRID_TRACE")
            .env_remove("CQ_LP_ENGINE");
        if transport == Transport::Stdio {
            let child = command
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()?;
            return Ok(Server {
                child,
                addr: String::new(),
                drain: None,
            });
        }
        let mut child = command
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                if let Some(at) = line.find("listening on ") {
                    let _ = tx.send(line[at + "listening on ".len()..].trim().to_owned());
                    // Keep draining so the daemon never blocks on stderr.
                    let _ = io::copy(&mut reader, &mut io::sink());
                    return;
                }
                line.clear();
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(ANNOUNCE_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err(io::Error::other(
                "cq-serve did not announce a listening address",
            )),
        }
    }

    /// The TCP address (empty on stdio).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The stdio connection, taken once.
    pub fn connect_stdio(&mut self) -> Option<Conn> {
        Some(Conn {
            stdin: self.child.stdin.take()?,
            stdout: BufReader::new(self.child.stdout.take()?),
        })
    }

    /// Kills the daemon, reaps it and joins the stderr drain.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A daemon's stdin/stdout connection.
pub struct Conn {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Conn {
    /// Sends one request line and reads one response line; `None` when
    /// the daemon is gone (or was killed by the [`Watchdog`]).
    pub fn round_trip(&mut self, line: &str) -> Option<String> {
        self.stdin.write_all(line.as_bytes()).ok()?;
        self.stdin.flush().ok()?;
        let mut response = String::new();
        match self.stdout.read_line(&mut response) {
            Ok(n) if n > 0 => Some(response),
            _ => None,
        }
    }
}

#[derive(Default)]
struct WatchState {
    armed_at: Option<Instant>,
    fired: bool,
    done: bool,
}

/// The client's per-request deadline. A request still unanswered when
/// it passes gets its daemons killed, so the blocked read returns and
/// the request counts as failed; the run then ends.
pub struct Watchdog {
    state: Arc<(Mutex<WatchState>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start(pids: Vec<u32>, deadline: Duration) -> Watchdog {
        let state = Arc::new((Mutex::new(WatchState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            let (lock, wake) = &*shared;
            let mut s = lock.lock().expect("watchdog state");
            while !s.done {
                if let Some(at) = s.armed_at {
                    if at.elapsed() > deadline && !s.fired {
                        s.fired = true;
                        for pid in &pids {
                            let _ = Command::new("kill")
                                .args(["-KILL", &pid.to_string()])
                                .stderr(Stdio::null())
                                .status();
                        }
                    }
                }
                s = wake
                    .wait_timeout(s, Duration::from_millis(50))
                    .expect("watchdog state")
                    .0;
            }
        });
        Watchdog {
            state,
            thread: Some(thread),
        }
    }

    pub fn arm(&self) {
        self.state.0.lock().expect("watchdog state").armed_at = Some(Instant::now());
    }

    pub fn disarm(&self) {
        self.state.0.lock().expect("watchdog state").armed_at = None;
    }

    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, wake) = &*self.state;
        if let Ok(mut s) = lock.lock() {
            s.done = true;
        }
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// User plus system CPU of a process, all threads, in clock ticks.
pub fn cpu_ticks(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let after = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok(field(11)? + field(12)?)
}

/// Peak resident set size (`VmHWM`) of a process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Clock ticks per second for [`cpu_ticks`].
pub fn ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer selector and has no memory
    // preconditions; an unknown selector returns -1, handled below.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Pins the calling thread, and so every thread and daemon started after
/// it, to the highest-numbered CPU it may run on; returns that CPU.
///
/// With one request in flight the client and the daemons take turns, so
/// one CPU serves them all; what pinning removes is the cross-CPU wake-up
/// on every request, whose cost on a virtual machine depends on the
/// host's load and spread sub-millisecond latencies by 30-40% between
/// runs.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, mask.as_ptr()) } == 0).then_some(cpu)
}
