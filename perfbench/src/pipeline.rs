//! The two pipeline workloads: `plan-cold` (cold planning of a cluster
//! set) and `replan-churn` (one long-lived allocation session fed a seeded
//! sequence of re-plan rounds, with a migration plan per round).

use crate::inputs::{churn_delta, churn_topology, plan_topologies, remeasure, Rng};
use crate::layers::{traced_round, TracedRound};
use crate::report::{solver_counts, Class, Counters, Op, Run, WORK_COUNTERS};
use crate::trace::Tracer;
use crate::Args;
use rasa_core::{
    apply_delta_to_problem, certify_placement, plan_migration, AllocationSession, Deadline,
    MigrateConfig, RasaConfig, RasaPipeline, SnapshotDelta, SolveCache, SolveStatus,
};
use rasa_model::{ContainerAssignment, Placement, Problem, ProblemValidator};
use rasa_select::PoolAlgorithm;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Outside re-certification passes over each plan-cold cycle's published
/// plans; each pass is one read. A single pass takes about 20 µs right
/// after the solves, too short a sample to time steadily on its own.
const CERTIFY_PASSES: usize = 20;
/// Cycles (of four rounds) in one replan-churn phase. A run is a sequence
/// of phases, each set up afresh (a cold solve of about 0.13 s) and fed
/// the same number of rounds, so the mix of early and late rounds in a
/// session does not depend on how fast the host runs, and `setup_s` and
/// `plan_s`, medians over the phases' set-ups, sample the whole run.
const PHASE_CYCLES: u64 = 16;
/// Deadline of one cold plan. Measured cold plans of the cluster set take
/// well under a second, so the deadline bounds a pathological solve
/// without shaping the timing.
const PLAN_DEADLINE: Duration = Duration::from_secs(30);
/// Deadline of one churn round; no measured round comes near it.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);
/// Relative tolerance for the traced-vs-untraced objective check.
const OBJECTIVE_TOL: f64 = 1e-6;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn same_objective(a: f64, b: f64) -> bool {
    (a - b).abs() <= OBJECTIVE_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Per-layer tallies of a traced run.
#[derive(Default)]
struct Layers {
    tracer: Tracer,
    rounds: u64,
    counters: BTreeMap<&'static str, u64>,
    solver_ms: [f64; 3],
    solves: u64,
    solves_ok: u64,
    loss_frac: f64,
    subproblems: u64,
    routed: [u64; 2],
    hits: u64,
    misses: u64,
    invalidations: u64,
    moves: u64,
    resolve_ms: f64,
    traced_ms: f64,
    untraced_ms: f64,
}

impl Layers {
    fn add_counters(&mut self, before: &Counters, after: &Counters) {
        for name in WORK_COUNTERS {
            *self.counters.entry(name).or_default() += after.since(before, name);
        }
    }

    fn add_round(&mut self, round: &TracedRound) {
        self.rounds += 1;
        self.loss_frac += round.loss_frac;
        self.subproblems += round.subproblems as u64;
        self.routed[0] += round.routed_cg as u64;
        self.routed[1] += round.routed_mip as u64;
        self.hits += round.hits as u64;
        self.misses += round.misses as u64;
        self.invalidations += round.invalidations as u64;
        for (alg, status, took) in &round.solves {
            self.solves += 1;
            let slot = match (status, alg) {
                (SolveStatus::Ok, PoolAlgorithm::Cg) => 0,
                (SolveStatus::Ok, _) => 1,
                _ => 2,
            };
            if *status == SolveStatus::Ok {
                self.solves_ok += 1;
            }
            self.solver_ms[slot] += ms(*took);
        }
    }

    /// Turn the tallies into per-layer metrics on `run`.
    fn report(&self, run: &mut Run) {
        let totals = self.tracer.totals();
        let rounds = self.rounds.max(1) as f64;
        let per_round_ms =
            |name: &str| totals.get(name).map_or(0.0, |t| t.total as f64 / 1e6) / rounds;
        let calls = |name: &str| totals.get(name).map_or(0.0, |t| t.calls as f64) / rounds;
        let count = |name: &str| self.counters.get(name).copied().unwrap_or(0) as f64;
        let residual = ["round", "solve"]
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_time as f64 / 1e6)
            .sum::<f64>()
            / rounds;
        let solver_s = self.solver_ms.iter().sum::<f64>() / 1e3;
        let l = &mut run.layers;
        l.insert("admit.busy_ms", per_round_ms("admit"));
        l.insert("admit.calls", calls("admit"));
        l.insert("partition.busy_ms", per_round_ms("partition"));
        l.insert("partition.subproblems", self.subproblems as f64 / rounds);
        l.insert("partition.loss_frac", self.loss_frac / rounds);
        l.insert("select.busy_us", per_round_ms("select") * 1e3);
        l.insert("select.cg", self.routed[0] as f64 / rounds);
        l.insert("select.mip", self.routed[1] as f64 / rounds);
        l.insert("solver.cg.busy_ms", self.solver_ms[0] / rounds);
        l.insert("solver.mip.busy_ms", self.solver_ms[1] / rounds);
        l.insert("solver.fallback.busy_ms", self.solver_ms[2] / rounds);
        l.insert(
            "solver.ok_frac",
            self.solves_ok as f64 / self.solves.max(1) as f64,
        );
        l.insert("complete.busy_ms", per_round_ms("complete"));
        solver_counts(l, count, rounds);
        l.insert(
            "bnb.nodes_per_s",
            if solver_s > 0.0 {
                count("bnb.nodes") / solver_s
            } else {
                0.0
            },
        );
        l.insert(
            "cache.hit_frac",
            self.hits as f64 / (self.hits + self.misses).max(1) as f64,
        );
        l.insert("cache.invalidations", self.invalidations as f64 / rounds);
        l.insert("certify.busy_ms", per_round_ms("certify"));
        l.insert("certify.calls", calls("certify"));
        l.insert("session.resolve_ms", self.resolve_ms / rounds);
        l.insert("core.residual_ms", residual);
        l.insert("migrate.busy_ms", per_round_ms("migrate"));
        l.insert("migrate.moves", self.moves as f64 / rounds);
        l.insert(
            "trace.overhead_frac",
            self.traced_ms / self.untraced_ms.max(1e-9) - 1.0,
        );
        run.notes.push(format!(
            "trace: {} rounds, traced {:.1} ms vs untraced {:.1} ms",
            self.rounds, self.traced_ms, self.untraced_ms
        ));
    }
}

/// `plan-cold`: each cycle generates the three-cluster set, draws its
/// traffic (the cycle's set-up, about 0.1 ms) and plans every cluster from
/// scratch with a fresh `SolveCache` and the default `RasaConfig`. Writes
/// are the plans; reads re-certify the cycle's published plans from
/// outside, [`CERTIFY_PASSES`] times.
pub fn plan_cold(args: &Args) -> Run {
    let mut run = Run::default();
    let config = RasaConfig::default();
    let pipeline = RasaPipeline::new(config.clone());
    let mut layers = Layers::default();
    let mut rng = Rng::new(args.seed, 1);
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed() < args.seconds {
        run.host.maybe_sample();
        // the cycle's set-up: generate the cluster set and draw its traffic
        let t = Instant::now();
        let inputs: Vec<Problem> = plan_topologies()
            .iter()
            .map(|p| remeasure(p, &mut rng))
            .collect();
        run.setup_s
            .push((t.elapsed().as_secs_f64(), run.host.mark()));
        let mut plan_s = 0.0;
        let mut cycle_ms = 0.0;
        let mut published = Vec::with_capacity(inputs.len());
        for problem in &inputs {
            run.host.maybe_sample();
            op += 1;
            let before = Counters::read();
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                pipeline.optimize_with_cache(
                    problem,
                    None,
                    Deadline::after(PLAN_DEADLINE),
                    Some(&SolveCache::new()),
                )
            }));
            let write_ms = ms(t.elapsed());
            let after = Counters::read();
            let Ok(result) = result else {
                run.violation(format!("cold plan {op} panicked"));
                run.ops.push(Op {
                    class: Class::Write,
                    ms: write_ms,
                    ok: false,
                    degraded: false,
                    round: true,
                    host: run.host.mark(),
                });
                continue;
            };
            run.work("plans", after.signature(&before));
            let clean = result.admission.as_ref().is_some_and(|a| a.is_clean());
            if !clean {
                run.violation(format!(
                    "cold plan {op}: admission repaired a generated input"
                ));
            }
            published.push((run.ops.len(), op, problem, result.outcome.clone()));
            run.ops.push(Op {
                class: Class::Write,
                ms: write_ms,
                ok: clean,
                degraded: result.is_degraded(),
                round: true,
                host: run.host.mark(),
            });
            run.affinity.push(result.outcome.normalized_gained_affinity);
            plan_s += write_ms / 1e3;
            cycle_ms += write_ms;

            if args.trace {
                let root = layers.tracer.open("round", None, op);
                let before = Counters::read();
                let traced = traced_round(
                    &config,
                    problem,
                    Some(&SolveCache::new()),
                    Deadline::after(PLAN_DEADLINE),
                    &layers.tracer,
                    op,
                    root,
                );
                let after = Counters::read();
                layers.tracer.close(root);
                layers.add_counters(&before, &after);
                layers.untraced_ms += write_ms;
                layers.traced_ms += layers.tracer.nanos(root) as f64 / 1e6;
                match traced {
                    Ok(traced) => {
                        check_decomposition(
                            &mut run,
                            op,
                            &traced,
                            result.subproblems.len(),
                            result.outcome.gained_affinity,
                        );
                        layers.add_round(&traced);
                    }
                    Err(e) => run.violation(format!("cold plan {op}: {e}")),
                }
            }
        }
        // the reads: outside checks of the cycle's published plans
        for _ in 0..CERTIFY_PASSES {
            let t = Instant::now();
            let verdicts: Vec<_> = published
                .iter()
                .map(|(_, _, problem, plan)| {
                    certify_placement(
                        problem,
                        &plan.placement,
                        plan.gained_affinity,
                        false,
                        "perfbench",
                    )
                })
                .collect();
            let read_ms = ms(t.elapsed());
            cycle_ms += read_ms;
            let mut all_certified = true;
            for ((index, op, _, _), verdict) in published.iter().zip(verdicts) {
                if let Err(e) = verdict {
                    run.violation(format!("cold plan {op} failed outside certification: {e}"));
                    run.ops[*index].ok = false;
                    all_certified = false;
                }
            }
            run.ops.push(Op {
                class: Class::Read,
                ms: read_ms,
                ok: all_certified,
                degraded: false,
                round: false,
                host: run.host.mark(),
            });
        }
        let mark = run.host.mark();
        run.plan_s.push((plan_s, mark));
        run.cycles
            .push((inputs.len() + CERTIFY_PASSES, cycle_ms / 1e3, mark));
    }
    if args.trace {
        layers.report(&mut run);
        write_spans(&layers.tracer, args, &mut run);
    }
    run
}

fn check_decomposition(
    run: &mut Run,
    op: u64,
    traced: &TracedRound,
    subproblems: usize,
    objective: f64,
) {
    if traced.subproblems != subproblems {
        run.violation(format!(
            "round {op}: traced decomposition found {} subproblems, the pipeline {subproblems}",
            traced.subproblems
        ));
    }
    if !same_objective(traced.objective, objective) {
        run.violation(format!(
            "round {op}: traced objective {} differs from the pipeline's {objective}",
            traced.objective
        ));
    }
}

/// Write a traced run's spans under the scratch directory.
pub fn write_spans(tracer: &Tracer, args: &Args, run: &mut Run) {
    let path = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => run
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => run
            .notes
            .push(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Bring the running placement's per-service counts to the target's, as
/// the orchestrator does when a replica change lands before migration:
/// surplus replicas leave the fullest machine, new ones start where the
/// target wants them.
fn scaled_to(current: &Placement, target: &Placement, problem: &Problem) -> Placement {
    let mut from = current.clone();
    for svc in &problem.services {
        let s = svc.id;
        while from.placed_count(s) > target.placed_count(s) {
            let Some((m, _)) = from.machines_of(s).max_by_key(|&(_, c)| c) else {
                break;
            };
            from.remove(s, m, 1);
        }
        while from.placed_count(s) < target.placed_count(s) {
            let Some((m, _)) = target.machines_of(s).find(|&(m, c)| c > from.count(s, m)) else {
                break;
            };
            from.add(s, m, 1);
        }
    }
    from
}

/// Plan the migration from `current` to `target`; returns the moves.
fn migrate(problem: &Problem, current: &Placement, target: &Placement) -> Result<usize, String> {
    let from = ContainerAssignment::materialize(problem, &scaled_to(current, target, problem));
    plan_migration(problem, &from, target, &MigrateConfig::default())
        .map(|plan| plan.total_moves())
        .map_err(|e| e.to_string())
}

/// The traced twin of an allocation session: the same state, advanced
/// through the layers' public calls.
struct Twin {
    problem: Problem,
    cache: SolveCache,
    placement: Placement,
}

impl Twin {
    /// A twin of a session that has just solved `problem` cold.
    fn cold(config: &RasaConfig, problem: &Problem) -> Result<Twin, String> {
        let cache = SolveCache::new();
        let scratch = Tracer::default();
        let root = scratch.open("round", None, 0);
        let round = traced_round(
            config,
            problem,
            Some(&cache),
            Deadline::after(ROUND_DEADLINE),
            &scratch,
            0,
            root,
        )?;
        Ok(Twin {
            problem: problem.clone(),
            cache,
            placement: round.placement,
        })
    }
}

/// `replan-churn`: one `AllocationSession` on the churn cluster, fed a
/// seeded round sequence. Three of every four rounds are ticks that change
/// nothing (reads); every fourth applies a small delta (a write). Each
/// round is `apply_delta` + `resolve` + `plan_migration` against the
/// previous placement.
pub fn replan_churn(args: &Args) -> Run {
    let mut run = Run::default();
    let config = RasaConfig::default();
    let mut layers = Layers::default();
    let mut round_no = 0u64;
    let run_started = Instant::now();
    for phase in 0u64.. {
        if run_started.elapsed() >= args.seconds {
            break;
        }
        // each phase draws its own delta stream, so its sequence does not
        // depend on how many rounds earlier phases fitted
        let mut rng = Rng::new(args.seed, 100 + phase);
        run.host.maybe_sample();
        let t = Instant::now();
        let base = churn_topology();
        let mut session = AllocationSession::new(config.clone());
        session.apply_snapshot(&base);
        let plan = Instant::now();
        let initial = session.resolve(Deadline::after(ROUND_DEADLINE));
        let plan_s = plan.elapsed().as_secs_f64();
        run.setup_s
            .push((t.elapsed().as_secs_f64(), run.host.mark()));
        let mut current = match initial {
            Ok(round) => {
                run.plan_s.push((plan_s, run.host.mark()));
                run.affinity.push(round.normalized);
                round.run.outcome.placement
            }
            Err(e) => {
                run.violation(format!("initial cold solve failed: {e}"));
                continue;
            }
        };
        let mut twin = args
            .trace
            .then(|| Twin::cold(&config, session.problem().expect("snapshot applied")))
            .transpose()
            .unwrap_or_else(|e| {
                run.violation(format!("traced initial solve: {e}"));
                None
            });

        let mut last_change = SnapshotDelta::default();
        let mut cycle_ms = 0.0;
        let mut in_phase = 0u64;
        while in_phase < 4 * PHASE_CYCLES {
            run.host.maybe_sample();
            let delta = churn_delta(&base, in_phase, &mut rng, &mut last_change);
            in_phase += 1;
            round_no += 1;
            let class = if delta.is_empty() {
                Class::Read
            } else {
                Class::Write
            };
            let before = Counters::read();
            let t = Instant::now();
            let mut resolve_ms = 0.0;
            let result = catch_unwind(AssertUnwindSafe(|| {
                session.apply_delta(&delta).map_err(|e| e.to_string())?;
                let r = Instant::now();
                let round = session
                    .resolve(Deadline::after(ROUND_DEADLINE))
                    .map_err(|e| e.to_string())?;
                resolve_ms = ms(r.elapsed());
                let problem = session.problem().expect("snapshot applied");
                migrate(problem, &current, &round.run.outcome.placement)?;
                Ok::<_, String>(round)
            }));
            let round_ms = ms(t.elapsed());
            let after = Counters::read();
            cycle_ms += round_ms;
            let round = match result {
                Ok(Ok(r)) => r,
                failed => {
                    let why = match failed {
                        Ok(Err(e)) => e,
                        _ => "panicked".to_string(),
                    };
                    run.violation(format!("round {round_no} failed: {why}"));
                    run.ops.push(Op {
                        class,
                        ms: round_ms,
                        ok: false,
                        degraded: false,
                        round: true,
                        host: run.host.mark(),
                    });
                    continue;
                }
            };
            run.work(format_args!("phase {phase}"), after.signature(&before));
            let problem = session.problem().expect("snapshot applied");
            let placement = &round.run.outcome.placement;
            let certified =
                certify_placement(problem, placement, round.objective, false, "perfbench");
            if let Err(e) = &certified {
                run.violation(format!(
                    "round {round_no} failed outside certification: {e}"
                ));
            }
            run.ops.push(Op {
                class,
                ms: round_ms,
                ok: certified.is_ok(),
                degraded: round.degraded,
                round: true,
                host: run.host.mark(),
            });
            run.affinity.push(round.normalized);

            if let Some(tw) = twin.as_mut() {
                layers.untraced_ms += round_ms;
                layers.resolve_ms += resolve_ms;
                let root = layers.tracer.open("round", None, round_no);
                let before = Counters::read();
                let traced =
                    traced_churn_round(&config, tw, &delta, &layers.tracer, round_no, root);
                let after = Counters::read();
                layers.tracer.close(root);
                layers.add_counters(&before, &after);
                layers.traced_ms += layers.tracer.nanos(root) as f64 / 1e6;
                match traced {
                    Ok((traced, moves)) => {
                        check_decomposition(
                            &mut run,
                            round_no,
                            &traced,
                            round.run.subproblems.len(),
                            round.objective,
                        );
                        layers.moves += moves as u64;
                        layers.add_round(&traced);
                    }
                    Err(e) => run.violation(format!("round {round_no}: {e}")),
                }
            }
            current = round.run.outcome.placement;
            if in_phase.is_multiple_of(4) {
                run.cycles.push((4, cycle_ms / 1e3, run.host.mark()));
                cycle_ms = 0.0;
            }
        }
    }
    if args.trace {
        layers.report(&mut run);
        write_spans(&layers.tracer, args, &mut run);
    }
    run
}

/// One churn round through the layers' public calls: delta + admission,
/// the traced pipeline round, then the migration plan.
fn traced_churn_round(
    config: &RasaConfig,
    twin: &mut Twin,
    delta: &SnapshotDelta,
    tracer: &Tracer,
    op: u64,
    root: usize,
) -> Result<(TracedRound, usize), String> {
    let next = apply_delta_to_problem(&twin.problem, delta).map_err(|e| e.to_string())?;
    let (repaired, _) = tracer.time("admit", Some(root), op, || {
        ProblemValidator::new().admit(&next)
    });
    twin.problem = repaired.unwrap_or(next);
    let round = traced_round(
        config,
        &twin.problem,
        Some(&twin.cache),
        Deadline::after(ROUND_DEADLINE),
        tracer,
        op,
        root,
    )?;
    let moves = tracer.time("migrate", Some(root), op, || {
        migrate(&twin.problem, &twin.placement, &round.placement)
    })?;
    twin.placement = round.placement.clone();
    Ok((round, moves))
}
