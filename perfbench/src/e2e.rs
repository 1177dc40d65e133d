//! The untraced end-to-end run: release `cq-serve` daemons driven by a
//! closed loop (one request in flight, one connection per daemon), timed
//! from the client's send to the last byte of the response.
//!
//! The single-daemon workloads use `cq-serve`'s default stdin/stdout
//! transport. cluster-cold reaches its two workers over TCP through
//! `ClusterClient`, as `cq-cluster` does.

use crate::calib::Calibrator;
use crate::check::{check_report, check_response};
use crate::server::{cpu_ticks, ticks_per_second, vm_hwm_kib, Conn, Server, Transport, Watchdog};
use crate::workload::{Request, Stream, Workload};
use crate::{median, quantile, Metric, Outcome};
use cq_cluster::{ClusterClient, WorkerAddr};
use cq_engine::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. All but the last are
/// torn down again; the last serves the timed phase.
const SETUPS: usize = 5;

/// Every run times at least this many requests (batches on
/// cluster-cold), so p90 has at least ten samples beyond it.
const MIN_REQUESTS: usize = 100;

/// How often the host-speed gauge samples during the timed phase.
const CALIBRATE_EVERY: Duration = Duration::from_millis(100);

/// The `analyze` request line for input `id`.
pub fn request_line(id: usize, req: &Request) -> String {
    let mut fields = vec![
        ("id".to_owned(), Json::int(id)),
        ("cmd".to_owned(), Json::str("analyze")),
        ("name".to_owned(), Json::str(&req.name)),
        ("query".to_owned(), Json::str(&req.text)),
    ];
    if let Some(m) = req.witness {
        fields.push(("witness".to_owned(), Json::int(m)));
    }
    let mut line = Json::Obj(fields).render();
    line.push('\n');
    line
}

/// The serving side of one set-up: the daemons, the deadline that
/// guards them, and the client's connection (stdio) or cluster client.
struct Deployment {
    servers: Vec<Server>,
    watchdog: Watchdog,
    conn: Option<Conn>,
    cluster: Option<ClusterClient>,
}

impl Deployment {
    fn stop(self) {
        self.watchdog.stop();
        drop(self.conn);
        for server in self.servers {
            server.stop();
        }
    }
}

fn set_up(
    workload: Workload,
    serve_bin: &Path,
    warmup: &[Request],
    deadline: Duration,
) -> Result<Deployment, String> {
    let (workers, transport) = if workload == Workload::ClusterCold {
        (2, Transport::Tcp)
    } else {
        (1, Transport::Stdio)
    };
    let mut servers = (0..workers)
        .map(|_| Server::spawn(serve_bin, transport).map_err(|e| format!("spawn cq-serve: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let watchdog = Watchdog::start(servers.iter().map(Server::pid).collect(), deadline);
    if workload == Workload::ClusterCold {
        let addrs = servers
            .iter()
            .map(|s| WorkerAddr::Tcp(s.addr().to_owned()))
            .collect();
        let client = ClusterClient::new(addrs);
        watchdog.arm();
        let run = client.run(&inputs(warmup));
        watchdog.disarm();
        let run = run.map_err(|e| format!("warm-up batch: {e}"))?;
        for (report, req) in run.reports.iter().zip(warmup) {
            check_report(report, req).map_err(|e| format!("warm-up: {e}"))?;
        }
        return Ok(Deployment {
            servers,
            watchdog,
            conn: None,
            cluster: Some(client),
        });
    }
    let mut conn = servers[0].connect_stdio().expect("fresh stdio daemon");
    for (id, req) in warmup.iter().enumerate() {
        watchdog.arm();
        let response = conn.round_trip(&request_line(id, req));
        watchdog.disarm();
        let response = response.ok_or("warm-up request failed")?;
        check_response(&response, id, req).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Deployment {
        servers,
        watchdog,
        conn: Some(conn),
        cluster: None,
    })
}

fn inputs(batch: &[Request]) -> Vec<(String, String)> {
    batch
        .iter()
        .map(|r| (r.name.clone(), r.text.clone()))
        .collect()
}

/// What one timed request produced.
enum Answer {
    Line(String),
    Reports(Vec<Json>),
    Failed,
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    serve_bin: &Path,
) -> Result<Outcome, String> {
    let deadline = Duration::from_secs(workload.deadline_secs());
    let warmup = Stream::warmup(workload, seed);
    let mut stream = Stream::new(workload, seed);

    let mut calib = Calibrator::new();
    let mut setup_samples = Vec::with_capacity(SETUPS);
    let mut deployment = None;
    // Wall-clock metrics are divided by the host's speed only where the
    // daemons' CPU, not waiting, fills the wall clock.
    let setup_speed = |calib: &Calibrator| {
        if workload.wall_is_cpu_bound() {
            calib.speed()
        } else {
            1.0
        }
    };
    for i in 0..SETUPS {
        calib.sample();
        let start = Instant::now();
        let d = set_up(workload, serve_bin, &warmup, deadline)?;
        setup_samples.push(start.elapsed().as_secs_f64() / setup_speed(&calib));
        if i + 1 < SETUPS {
            d.stop();
        } else {
            deployment = Some(d);
        }
    }
    let mut d = deployment.expect("at least one set-up");
    let pids: Vec<u32> = d.servers.iter().map(Server::pid).collect();
    let cpu = |pids: &[u32]| -> Result<u64, String> {
        pids.iter()
            .map(|&pid| cpu_ticks(pid).map_err(|e| format!("cpu of {pid}: {e}")))
            .sum()
    };

    // A unit is one timed request: one query, or one batch on
    // cluster-cold.
    let mut units: Vec<(Vec<Request>, Answer)> = Vec::new();
    // Per answered request: latency, and the host's speed when it was sent.
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    let mut pending: std::vec::IntoIter<Vec<Request>> = Vec::new().into_iter();
    // Time the client spends on its own work (input generation, the
    // speed gauge), subtracted from the timed wall clock.
    let mut client_time = Duration::ZERO;

    let cpu_before = cpu(&pids)?;
    let start = Instant::now();
    loop {
        // Runs end on a round boundary, so every run issues whole rounds
        // and its template mix is the same for every seed.
        if pending.len() == 0 {
            if start.elapsed().as_secs() >= seconds && units.len() >= MIN_REQUESTS {
                break;
            }
            let g = Instant::now();
            let round = stream.next_round();
            pending = if workload == Workload::ClusterCold {
                vec![round]
            } else {
                round.into_iter().map(|r| vec![r]).collect()
            }
            .into_iter();
            client_time += g.elapsed();
        }
        client_time += calib.sample_every(CALIBRATE_EVERY);
        let unit = pending.next().expect("round is not empty");
        let line = d.conn.as_ref().map(|_| request_line(units.len(), &unit[0]));
        let batch = d.cluster.as_ref().map(|_| inputs(&unit));
        d.watchdog.arm();
        let sent = Instant::now();
        let answer = match (&mut d.conn, &d.cluster) {
            (Some(conn), _) => conn
                .round_trip(line.as_deref().expect("line built"))
                .map_or(Answer::Failed, Answer::Line),
            (None, Some(client)) => client
                .run(batch.as_deref().expect("batch built"))
                .map_or(Answer::Failed, |run| Answer::Reports(run.reports)),
            (None, None) => unreachable!("every deployment has a client"),
        };
        let latency = sent.elapsed();
        d.watchdog.disarm();
        let failed = matches!(answer, Answer::Failed);
        if !failed {
            latencies_ms.push(latency.as_secs_f64() * 1e3);
            speeds.push(calib.speed());
        }
        units.push((unit, answer));
        if failed {
            break;
        }
    }
    let wall = start.elapsed().saturating_sub(client_time).as_secs_f64();
    let aborted = matches!(units.last(), Some((_, Answer::Failed)));
    let cpu_after = if aborted { cpu_before } else { cpu(&pids)? };
    let hwm_kib = if aborted {
        0
    } else {
        pids.iter()
            .map(|&pid| vm_hwm_kib(pid).map_err(|e| format!("VmHWM of {pid}: {e}")))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .max()
            .unwrap_or(0)
    };
    d.stop();

    let mut attempted = 0usize;
    let mut answered = 0usize;
    let mut ok = 0usize;
    let mut mismatches: Vec<String> = Vec::new();
    for (id, (unit, answer)) in units.iter().enumerate() {
        attempted += unit.len();
        let verdicts: Vec<Result<(), String>> = match answer {
            Answer::Line(line) => vec![check_response(line, id, &unit[0])],
            Answer::Reports(reports) => unit
                .iter()
                .zip(reports)
                .map(|(req, report)| check_report(report, req))
                .collect(),
            Answer::Failed => continue,
        };
        answered += unit.len();
        for verdict in verdicts {
            match verdict {
                Ok(()) => ok += 1,
                Err(e) => mismatches.push(e),
            }
        }
    }
    for e in mismatches.iter().take(5) {
        eprintln!("perfbench: mismatch: {e}");
    }

    // The host's speed over the timed phase, weighted by where the time
    // went: CPU time always scales with it, wall clock where it is CPU.
    // A request ran between the reading before it and the one before the
    // next request (the gauge reads before every request of 100 ms or more).
    let during: Vec<f64> = (0..speeds.len())
        .map(|i| (speeds[i] + speeds.get(i + 1).unwrap_or(&speeds[i])) / 2.0)
        .collect();
    let busy_ms: f64 = latencies_ms.iter().sum();
    let normalized_ms: f64 = latencies_ms.iter().zip(&during).map(|(l, s)| l / s).sum();
    let speed = if normalized_ms > 0.0 {
        busy_ms / normalized_ms
    } else {
        1.0
    };
    eprintln!("perfbench: host speed {speed:.4} x reference");
    let (wall_speed, lat_ms): (f64, Vec<f64>) = if workload.wall_is_cpu_bound() {
        (
            speed,
            latencies_ms
                .iter()
                .zip(&during)
                .map(|(l, s)| l / s)
                .collect(),
        )
    } else {
        (1.0, latencies_ms)
    };
    let cpu_ms = (cpu_after - cpu_before) as f64 / ticks_per_second() * 1e3;
    let metrics = vec![
        Metric::new("setup_s", median(&setup_samples), "s"),
        Metric::new("ok_ratio", ok as f64 / attempted.max(1) as f64, "ratio"),
        Metric::new("lat_p50_ms", quantile(&lat_ms, 0.5), "ms"),
        Metric::new("lat_p90_ms", quantile(&lat_ms, 0.9), "ms"),
        Metric::new("throughput_qps", answered as f64 / wall * wall_speed, "1/s"),
        Metric::new(
            "cpu_ms_per_query",
            cpu_ms / answered.max(1) as f64 / speed,
            "ms",
        ),
        Metric::new("rss_peak_mb", hwm_kib as f64 / 1024.0, "MB"),
    ];
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted,
        failed: attempted - ok,
        metrics,
    })
}
