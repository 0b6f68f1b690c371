//! `serve-mixed`: an in-process `rasa-serve` daemon with journaling at
//! `fsync always`, 16 tenants of 12-service problems, and two closed-loop
//! clients sending half reads (`GET /placement`) and half writes (mostly
//! `POST /delta`, a few `POST /snapshot`).
//!
//! The traced run replays the same request stream below the HTTP line,
//! straight into `AllocationSession` and `TenantJournal`, so the part of
//! a request's latency the layers do not explain — HTTP, accept and queue
//! wait — shows as the residual.

use crate::inputs::{next_request, remeasure, tenant_topology, RequestKind, Rng};
use crate::pipeline::write_spans;
use crate::report::{solver_counts, Class, Counters, Op, Run};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::Args;
use rasa_core::{
    apply_delta_to_problem, certify_placement, AllocationSession, Deadline, SolveStatus,
};
use rasa_model::{Placement, Problem};
use rasa_serve::wal::CheckpointState;
use rasa_serve::{
    JournaledPlacement, ServeConfig, Server, ServerHandle, TenantJournal, WalConfig, WalRecord,
};
use serde::Deserialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Phases of a run, each against a freshly bound daemon (the set-up) and
/// measured for an equal share of the run; `setup_s` is the median set-up.
const PHASES: usize = 5;
/// Tenants held by the daemon.
const TENANTS: usize = 16;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Completed requests per throughput block (`rps` is the median block).
const BLOCK: usize = 50;
/// The daemon's default per-round deadline, which the replay uses too.
const ROUND_DEADLINE: Duration = Duration::from_secs(2);

fn tenant_name(t: usize) -> String {
    format!("t{t:02}")
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("socket: {e}"))?;
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response: {raw:.80}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// The fields of a `GET /placement` answer the client checks.
#[derive(Deserialize)]
struct Served {
    stale: bool,
    objective: f64,
    normalized: f64,
    placement: Placement,
}

/// The fields of a `POST /delta` or `POST /snapshot` answer the client
/// checks.
#[derive(Deserialize)]
struct Written {
    certified: bool,
    stale: bool,
    degraded: bool,
    cache: CacheUse,
}

/// Subproblems a write replayed from the solve cache and solved afresh.
#[derive(Deserialize)]
struct CacheUse {
    hits: u64,
    misses: u64,
}

/// Parse a write's answer and require it certified and fresh.
fn written(body: &str) -> Result<Written, String> {
    let w: Written = serde_json::from_str(body).map_err(|e| format!("write answer: {e}"))?;
    if !w.certified || w.stale {
        return Err(format!("write not certified fresh: {body:.120}"));
    }
    Ok(w)
}

/// Re-certify a placement the daemon served against the client's own
/// model of the tenant's problem; returns its normalized objective. The
/// daemon prints objectives with six decimals, so a mismatch within that
/// rounding is accepted.
fn recertify(problem: &Problem, body: &str) -> Result<f64, String> {
    let served: Served =
        serde_json::from_str(body).map_err(|e| format!("placement answer: {e}"))?;
    if served.stale {
        return Err("placement served stale".into());
    }
    match certify_placement(
        problem,
        &served.placement,
        served.objective,
        false,
        "perfbench",
    ) {
        Ok(_) => {}
        Err(f)
            if f.violations.is_empty()
                && f.structural.is_none()
                && (f.claimed_objective - f.recomputed_objective).abs() <= 5e-6 => {}
        Err(f) => return Err(format!("failed outside certification: {f}")),
    }
    Ok(served.normalized)
}

/// A running daemon and where it journals.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<rasa_serve::DrainReport>,
    wal: PathBuf,
}

impl Daemon {
    fn start(wal: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&wal);
        let server = Server::bind(ServeConfig {
            wal: Some(WalConfig::new(&wal)),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread,
            wal,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        let joined = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string());
        let _ = std::fs::remove_dir_all(&self.wal);
        joined.map(|_| ())
    }
}

/// One request as a client sent it, for the replay.
struct Sent {
    tenant: usize,
    kind: RequestKind,
    ms: f64,
    done: f64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    sent: Vec<Sent>,
    ops: Vec<Op>,
    violations: Vec<String>,
    rejected_429: u64,
    /// Per-request cache hits and misses the daemon reported.
    work: Vec<String>,
}

/// One closed-loop client owning tenants `c, c + CLIENTS, …`, so it knows
/// each tenant's exact problem and can re-certify every placement served.
fn client(
    addr: SocketAddr,
    c: usize,
    mut rng: Rng,
    mut models: Vec<(usize, Problem)>,
    started: Instant,
    seconds: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut bases: Vec<Problem> = models.iter().map(|(_, p)| p.clone()).collect();
    while started.elapsed() < seconds {
        let k = rng.below(models.len());
        let tenant = models[k].0;
        let kind = next_request(&bases[k], &mut rng);
        let name = tenant_name(tenant);
        let t = Instant::now();
        let (class, result) = match &kind {
            RequestKind::Read => (
                Class::Read,
                http(addr, "GET", &format!("/placement?tenant={name}"), ""),
            ),
            RequestKind::Delta(delta) => (
                Class::Write,
                serde_json::to_string(delta)
                    .map_err(|e| e.to_string())
                    .and_then(|b| http(addr, "POST", &format!("/delta?tenant={name}"), &b)),
            ),
            RequestKind::Snapshot(problem) => (
                Class::Write,
                serde_json::to_string(problem.as_ref())
                    .map_err(|e| e.to_string())
                    .and_then(|b| http(addr, "POST", &format!("/snapshot?tenant={name}"), &b)),
            ),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut degraded = false;
        let mut work = "read".to_string();
        let checked = result.and_then(|(status, body)| {
            if status == 429 {
                log.rejected_429 += 1;
            }
            if status != 200 {
                return Err(format!("HTTP {status}: {body:.120}"));
            }
            if let RequestKind::Read = kind {
                return recertify(&models[k].1, &body).map(|_| ());
            }
            let w = written(&body)?;
            degraded = w.degraded;
            work = format!("{},{}", w.cache.hits, w.cache.misses);
            match &kind {
                RequestKind::Read => {}
                RequestKind::Delta(delta) => {
                    models[k].1 =
                        apply_delta_to_problem(&models[k].1, delta).map_err(|e| e.to_string())?;
                }
                RequestKind::Snapshot(problem) => {
                    models[k].1 = (**problem).clone();
                    bases[k] = (**problem).clone();
                }
            }
            Ok(())
        });
        log.work.push(format!("{name} {work}"));
        if let Err(e) = &checked {
            log.violations
                .push(format!("client {c} tenant {name}: {e}"));
        }
        log.ops.push(Op {
            class,
            ms,
            ok: checked.is_ok(),
            degraded,
            round: true,
            host: 0,
        });
        log.sent.push(Sent {
            tenant,
            kind,
            ms,
            done: started.elapsed().as_secs_f64(),
        });
    }
    log
}

/// Bind a journaling daemon and snapshot every tenant; returns the daemon
/// and each tenant's snapshot time in seconds.
fn start_fleet(
    work: &Path,
    run_no: usize,
    problems: &[Problem],
) -> Result<(Daemon, Vec<f64>), String> {
    let daemon = Daemon::start(work.join(format!("wal-{run_no}")))?;
    let mut times = Vec::with_capacity(problems.len());
    for (i, p) in problems.iter().enumerate() {
        let body = serde_json::to_string(p).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (status, resp) = http(
            daemon.addr,
            "POST",
            &format!("/snapshot?tenant={}", tenant_name(i)),
            &body,
        )?;
        times.push(t.elapsed().as_secs_f64());
        if status != 200 {
            return Err(format!(
                "initial snapshot of {} answered {status}: {resp:.120}",
                tenant_name(i)
            ));
        }
        written(&resp).map_err(|e| format!("initial snapshot of {}: {e}", tenant_name(i)))?;
    }
    Ok((daemon, times))
}

/// `(count, sum in seconds)` of the daemon's `serve.request_seconds`.
fn daemon_requests() -> (u64, f64) {
    let h = rasa_obs::global().histogram("serve.request_seconds");
    (h.count(), h.sum())
}

/// Run the serve-mixed workload in [`PHASES`] phases, each against a fresh
/// daemon: bind, snapshot every tenant (the set-up), then two clients for
/// an equal share of the run, a final outside check of every tenant, and
/// drain.
pub fn serve_mixed(args: &Args) -> Run {
    let mut run = Run::default();
    let mut rng = Rng::new(args.seed, 4);
    let problems: Vec<Problem> = (0..TENANTS)
        .map(|t| remeasure(&tenant_topology(t), &mut rng))
        .collect();
    let mut snapshot_s: Vec<Vec<f64>> = vec![Vec::new(); TENANTS];
    let mut phases: Vec<Vec<Sent>> = Vec::new();
    let (mut requests, mut request_s) = (0, 0.0);
    let mut rounds = 0;
    let mut rejected_429 = 0;
    for phase in 0..PHASES {
        let t = Instant::now();
        let daemon = match start_fleet(&args.work_dir, phase, &problems) {
            Ok((daemon, times)) => {
                run.setup_s.push((t.elapsed().as_secs_f64(), 0));
                for (tenant, s) in snapshot_s.iter_mut().zip(times) {
                    tenant.push(s);
                }
                daemon
            }
            Err(e) => {
                run.violation(e);
                continue;
            }
        };

        let (count0, sum0) = daemon_requests();
        let rounds0 = Counters::read();
        let started = Instant::now();
        let seconds = args.seconds / PHASES as u32;
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let models: Vec<(usize, Problem)> = (c..TENANTS)
                        .step_by(CLIENTS)
                        .map(|t| (t, problems[t].clone()))
                        .collect();
                    let addr = daemon.addr;
                    let rng = Rng::new(args.seed, 1000 + (phase * CLIENTS + c) as u64);
                    scope.spawn(move || client(addr, c, rng, models, started, seconds))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let (count1, sum1) = daemon_requests();
        requests += count1 - count0;
        request_s += sum1 - sum0;
        rounds += Counters::read().since(&rounds0, "serve.rounds");

        let mut sent: Vec<Sent> = Vec::new();
        for (c, log) in logs.into_iter().enumerate() {
            for w in log.work {
                run.work(format_args!("phase {phase} client {c}"), w);
            }
            run.ops.extend(log.ops);
            run.violations.extend(log.violations);
            sent.extend(log.sent);
            rejected_429 += log.rejected_429;
        }
        sent.sort_by(|a, b| a.done.total_cmp(&b.done));
        let mut last = 0.0;
        for block in sent.chunks(BLOCK).filter(|b| b.len() == BLOCK) {
            let end = block[BLOCK - 1].done;
            run.cycles.push((BLOCK, end - last, 0));
            last = end;
        }

        // final state of every tenant, re-certified from outside
        let mut models: Vec<Problem> = problems.clone();
        for s in &sent {
            match &s.kind {
                RequestKind::Read => {}
                RequestKind::Delta(d) => {
                    if let Ok(p) = apply_delta_to_problem(&models[s.tenant], d) {
                        models[s.tenant] = p;
                    }
                }
                RequestKind::Snapshot(p) => models[s.tenant] = (**p).clone(),
            }
        }
        for (t, model) in models.iter().enumerate() {
            let result = http(
                daemon.addr,
                "GET",
                &format!("/placement?tenant={}", tenant_name(t)),
                "",
            )
            .and_then(|(status, body)| {
                if status != 200 {
                    return Err(format!("HTTP {status}"));
                }
                recertify(model, &body)
            });
            match result {
                Ok(normalized) => run.affinity.push(normalized),
                Err(e) => run.violation(format!("final placement of {}: {e}", tenant_name(t))),
            }
        }
        if let Err(e) = daemon.stop() {
            run.violation(e);
        }
        phases.push(sent);
    }
    // time to place the tenant set: each tenant's median snapshot time
    // over the set-ups, summed, so one slow fsync does not set the figure
    run.plan_s
        .push((snapshot_s.iter().map(|t| median(t)).sum(), 0));

    if args.trace {
        let client_ms = mean(&run.ops.iter().map(|o| o.ms).collect::<Vec<_>>());
        let daemon_ms = if requests > 0 {
            request_s / requests as f64 * 1e3
        } else {
            0.0
        };
        let l = &mut run.layers;
        l.insert("serve.client_ms", client_ms);
        l.insert("serve.daemon_ms", daemon_ms);
        l.insert("serve.unseen_ms", client_ms - daemon_ms);
        l.insert("serve.rounds", rounds as f64);
        l.insert("serve.rejected_429", rejected_429 as f64);
        replay_layers(args, &problems, &phases, &mut run);
    }
    run
}

/// One tenant below the HTTP line: its session and journal.
struct Tenant {
    session: AllocationSession,
    journal: TenantJournal,
}

fn open_tenants(root: &Path, problems: &[Problem]) -> Result<Vec<Tenant>, String> {
    let _ = std::fs::remove_dir_all(root);
    let config = WalConfig::new(root);
    problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut tenant = Tenant {
                session: AllocationSession::new(ServeConfig::default().rasa),
                journal: TenantJournal::open(&config, &tenant_name(i))
                    .map_err(|e| e.to_string())?,
            };
            let none = Tracer::default();
            write_round(
                &mut tenant,
                &RequestKind::Snapshot(Box::new(p.clone())),
                &none,
                None,
                0,
            )?;
            Ok(tenant)
        })
        .collect()
}

/// What the daemon does for one write: mutate, journal the mutation,
/// re-solve, journal the certified placement, compact when due. Spans go
/// to `tracer` under `root` when one is given. Returns the round's fresh
/// subproblem solves and how many of them ended `Ok`.
fn write_round(
    tenant: &mut Tenant,
    kind: &RequestKind,
    tracer: &Tracer,
    root: Option<usize>,
    op: u64,
) -> Result<(usize, usize), String> {
    let traced = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| match root {
        Some(_) => tracer.time(name, root, op, f),
        None => f(),
    };
    let s = &mut tenant.session;
    let record = match kind {
        RequestKind::Read => return Ok((0, 0)),
        RequestKind::Delta(delta) => {
            traced("apply_delta", &mut || {
                s.apply_delta(delta).map(|_| ()).map_err(|e| e.to_string())
            })?;
            // the daemon partitions once more to count dirty subproblems
            traced("delta_plan", &mut || {
                s.delta_plan().map(|_| ()).map_err(|e| e.to_string())
            })?;
            WalRecord::delta(s.generation(), delta.clone())
        }
        RequestKind::Snapshot(problem) => {
            traced("apply_snapshot", &mut || {
                s.apply_snapshot(problem);
                Ok(())
            })?;
            WalRecord::snapshot(
                s.generation(),
                s.problem().expect("snapshot applied").clone(),
            )
        }
    };
    let j = &mut tenant.journal;
    traced("wal.append", &mut || {
        j.append(&record).map_err(|e| e.to_string())
    })?;
    let mut published = None;
    let mut solves = (0, 0);
    traced("resolve", &mut || {
        let round = s
            .resolve(Deadline::after(ROUND_DEADLINE))
            .map_err(|e| e.to_string())?;
        for sub in round.run.subproblems.iter().filter(|r| !r.cache_hit) {
            solves.0 += 1;
            solves.1 += usize::from(sub.status == SolveStatus::Ok);
        }
        published = Some(JournaledPlacement {
            round: round.round,
            generation: s.generation(),
            claimed_objective: round.objective,
            normalized: round.normalized,
            placement: round.run.outcome.placement,
        });
        Ok(())
    })?;
    let placement = published.expect("resolve published");
    traced("wal.append", &mut || {
        j.append(&WalRecord::placement(placement.clone()))
            .map_err(|e| e.to_string())
    })?;
    if j.needs_checkpoint() {
        traced("wal.checkpoint", &mut || {
            let state = CheckpointState {
                problem: s.problem().expect("snapshot applied"),
                published: Some(placement.clone()),
                rounds: s.rounds(),
                generation: s.generation(),
            };
            j.checkpoint(&state).map_err(|e| e.to_string())
        })?;
    }
    Ok(solves)
}

/// Replay `sent` below the HTTP line twice — untraced, then traced — and
/// report the session and journal layers, the residual per request and
/// the tracing overhead.
fn replay_layers(args: &Args, problems: &[Problem], phases: &[Vec<Sent>], run: &mut Run) {
    // counter readings bracket each phase's requests, leaving out the
    // initial snapshots that rebuild the tenants
    type Readings = Vec<(Counters, Counters)>;
    let replay = |traced: bool, run: &mut Run| -> Option<(f64, Tracer, Readings, [usize; 2])> {
        let root_dir = args
            .work_dir
            .join(if traced { "replay-traced" } else { "replay" });
        let tracer = Tracer::default();
        let mut readings = Vec::with_capacity(phases.len());
        let mut total_ms = 0.0;
        let mut op = 0u64;
        let mut solves = [0, 0];
        for sent in phases {
            let mut tenants = match open_tenants(&root_dir, problems) {
                Ok(t) => t,
                Err(e) => {
                    run.violation(format!("replay set-up: {e}"));
                    return None;
                }
            };
            let before = Counters::read();
            let t = Instant::now();
            for s in sent {
                op += 1;
                let root = traced.then(|| tracer.open("request", None, op));
                match write_round(&mut tenants[s.tenant], &s.kind, &tracer, root, op) {
                    Ok((fresh, ok)) => {
                        solves[0] += fresh;
                        solves[1] += ok;
                    }
                    Err(e) => run.violation(format!("replay request {op}: {e}")),
                }
                if let Some(r) = root {
                    tracer.close(r);
                }
            }
            total_ms += t.elapsed().as_secs_f64() * 1e3;
            readings.push((before, Counters::read()));
        }
        let _ = std::fs::remove_dir_all(&root_dir);
        Some((total_ms, tracer, readings, solves))
    };
    let Some((untraced_ms, ..)) = replay(false, run) else {
        return;
    };
    let Some((traced_ms, tracer, readings, solves)) = replay(true, run) else {
        return;
    };

    let sent: Vec<&Sent> = phases.iter().flatten().collect();
    let writes = sent
        .iter()
        .filter(|s| !matches!(s.kind, RequestKind::Read))
        .count()
        .max(1) as f64;
    let totals = tracer.totals();
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.total as f64 / 1e6);
    let calls = |name: &str| totals.get(name).map_or(0.0, |t| t.calls as f64);
    let appends = calls("wal.append").max(1.0);
    let layer_ms = busy("apply_delta")
        + busy("delta_plan")
        + busy("apply_snapshot")
        + busy("resolve")
        + busy("wal.append")
        + busy("wal.checkpoint");
    let client_total: f64 = sent.iter().map(|s| s.ms).sum();
    let n = sent.len().max(1) as f64;
    let count = |name: &str| {
        readings
            .iter()
            .map(|(before, after)| after.since(before, name) as f64)
            .sum::<f64>()
    };
    let l = &mut run.layers;
    l.insert(
        "admit.busy_ms",
        (busy("apply_delta") + busy("apply_snapshot")) / writes,
    );
    l.insert("partition.busy_ms", busy("delta_plan") / writes);
    let applies = calls("apply_delta") + calls("apply_snapshot");
    l.insert(
        "admit.calls",
        (applies + count("admission.audits")) / writes,
    );
    l.insert(
        "partition.subproblems",
        count("partition.subproblems") / writes,
    );
    l.insert("session.resolve_ms", busy("resolve") / writes);
    l.insert("solver.ok_frac", solves[1] as f64 / solves[0].max(1) as f64);
    l.insert(
        "cache.hit_frac",
        count("cache.sub_hits") / (count("cache.sub_hits") + count("cache.sub_misses")).max(1.0),
    );
    l.insert("cache.invalidations", count("cache.invalidations") / writes);
    l.insert("certify.calls", count("certify.checks") / writes);
    solver_counts(l, count, writes);
    l.insert("select.cg", count("pipeline.alg.cg") / writes);
    l.insert("select.mip", count("pipeline.alg.mip") / writes);
    l.insert("wal.append_us", busy("wal.append") * 1e3 / appends);
    l.insert("wal.fsyncs_per_write", count("wal.fsyncs") / writes);
    l.insert("wal.bytes_per_write", count("wal.bytes_written") / writes);
    l.insert("serve.residual_ms", (client_total - layer_ms) / n);
    l.insert(
        "trace.overhead_frac",
        traced_ms / untraced_ms.max(1e-9) - 1.0,
    );
    run.notes.push(format!(
        "replay: {} requests, traced {traced_ms:.1} ms vs untraced {untraced_ms:.1} ms; layers explain {layer_ms:.1} of {client_total:.1} client ms",
        sent.len()
    ));
    write_spans(&tracer, args, run);
}
