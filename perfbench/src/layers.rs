//! One pipeline round rebuilt from the layers' public calls, each wrapped
//! in a span: admission, partitioning, selection, cache replay (with its
//! certification), the guarded per-subproblem solve, completion and the
//! publish certification. It follows `RasaPipeline::optimize_with_cache`
//! step by step, so a traced round must reproduce the untraced round's
//! subproblem count and objective; the benchmark checks that it does.

use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasa_core::{
    certify_placement, guarded_schedule, CachedSubSolve, Deadline, GuardedOutcome, RasaConfig,
    SolveCache, SolveStatus,
};
use rasa_model::{Placement, Problem, ProblemValidator};
use rasa_partition::{partition_with_strategy, Subproblem};
use rasa_select::{portfolio_features, PoolAlgorithm, SelectionSample};
use rasa_solver::{
    complete_placement, CgWarmStart, ColumnGeneration, GreedyScheduler, MipBased, PopStrategy,
    ScheduleOutcome, Scheduler,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a traced round produced.
pub struct TracedRound {
    /// Merged, completed and certified placement.
    pub placement: Placement,
    /// Certified gained affinity.
    pub objective: f64,
    /// Crucial subproblems.
    pub subproblems: usize,
    /// Subproblems the selector routed to column generation.
    pub routed_cg: usize,
    /// Subproblems the selector routed to the MIP.
    pub routed_mip: usize,
    /// Affinity lost to the partition, as a share of total affinity.
    pub loss_frac: f64,
    /// Subproblems replayed from the cache.
    pub hits: usize,
    /// Subproblems solved this round.
    pub misses: usize,
    /// Cache entries evicted at the end of the round.
    pub invalidations: usize,
    /// Fresh solves by primary algorithm and status.
    pub solves: Vec<(PoolAlgorithm, SolveStatus, Duration)>,
}

/// Run admission, partition, select, replay, solve, complete and certify
/// for `problem` under `root`.
pub fn traced_round(
    config: &RasaConfig,
    problem: &Problem,
    cache: Option<&SolveCache>,
    deadline: Deadline,
    tracer: &Tracer,
    op: u64,
    root: SpanId,
) -> Result<TracedRound, String> {
    let start = Instant::now();
    let parent = Some(root);
    let (repaired, _) = tracer.time("admit", parent, op, || {
        ProblemValidator::new().admit(problem)
    });
    let problem = repaired.as_ref().unwrap_or(problem);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let partition = tracer.time("partition", parent, op, || {
        partition_with_strategy(problem, None, config.strategy, &config.partition, &mut rng)
    });
    let subs = &partition.subproblems;
    let choices: Vec<PoolAlgorithm> = tracer.time("select", parent, op, || {
        subs.iter()
            .map(|s| config.selector.select(&s.problem))
            .collect()
    });

    // replay cache hits (each re-certified before it is trusted)
    let fingerprints: Vec<u64> = subs.iter().map(Subproblem::fingerprint).collect();
    let mut replayed: Vec<Option<ScheduleOutcome>> = vec![None; subs.len()];
    if let Some(c) = cache {
        for (i, sub) in subs.iter().enumerate() {
            let Some(hit) = tracer.time("cache", parent, op, || c.lookup(fingerprints[i])) else {
                continue;
            };
            let ok = tracer.time("certify", parent, op, || {
                certify_placement(
                    &sub.problem,
                    &hit.placement,
                    hit.gained_affinity,
                    false,
                    "solve_cache",
                )
            });
            if ok.is_ok() {
                replayed[i] = Some(ScheduleOutcome::evaluate(
                    &sub.problem,
                    hit.placement,
                    Duration::ZERO,
                    hit.completed,
                ));
            }
        }
    }
    let jobs: Vec<usize> = (0..subs.len()).filter(|&i| replayed[i].is_none()).collect();
    let solved = solve_jobs(
        config, subs, &choices, &jobs, cache, deadline, tracer, op, root,
    );

    let mut invalidations = 0;
    if let Some(c) = cache {
        invalidations = tracer.time("cache", parent, op, || {
            for (&i, (guarded, _)) in jobs.iter().zip(&solved) {
                if guarded.status == SolveStatus::Ok {
                    c.store(
                        fingerprints[i],
                        CachedSubSolve {
                            placement: guarded.outcome.placement.clone(),
                            algorithm: choices[i],
                            completed: guarded.outcome.completed,
                            gained_affinity: guarded.outcome.gained_affinity,
                        },
                    );
                }
            }
            let live_subs: HashSet<u64> = fingerprints.iter().copied().collect();
            let live_columns: HashSet<u64> = subs
                .iter()
                .map(Subproblem::service_set_fingerprint)
                .collect();
            c.retain(&live_subs, &live_columns)
        });
    }

    // merge hits and fresh solves, feeding the online sample stream as the
    // pipeline does
    let mut placement = Placement::empty_for(problem);
    let mut fresh = solved.iter();
    let mut solves = Vec::with_capacity(jobs.len());
    let mut completed = true;
    for (i, sub) in subs.iter().enumerate() {
        let outcome = match &replayed[i] {
            Some(hit) => hit,
            None => {
                let (guarded, took) = fresh.next().expect("one solve per pending job");
                config.sample_log.record(SelectionSample {
                    features: portfolio_features(&sub.problem),
                    choice: choices[i],
                    quality: guarded.outcome.normalized_gained_affinity,
                    latency_secs: guarded.outcome.elapsed.as_secs_f64(),
                    degraded: guarded.status.is_degraded(),
                });
                solves.push((choices[i], guarded.status, *took));
                &guarded.outcome
            }
        };
        completed &= outcome.completed;
        placement.merge_subplacement(
            &outcome.placement,
            &sub.mapping.service_to_parent,
            &sub.mapping.machine_to_parent,
        );
    }
    if config.complete {
        tracer.time("complete", parent, op, || {
            complete_placement(problem, &mut placement)
        });
    }
    let outcome = ScheduleOutcome::evaluate(problem, placement, start.elapsed(), completed);
    let objective = tracer
        .time("certify", parent, op, || {
            certify_placement(
                problem,
                &outcome.placement,
                outcome.gained_affinity,
                false,
                "service.publish",
            )
        })
        .map_err(|e| format!("traced round failed certification: {e}"))?;
    let total = problem.total_affinity();
    Ok(TracedRound {
        placement: outcome.placement,
        objective,
        subproblems: subs.len(),
        routed_cg: choices.iter().filter(|&&a| a == PoolAlgorithm::Cg).count(),
        routed_mip: choices.iter().filter(|&&a| a == PoolAlgorithm::Mip).count(),
        loss_frac: if total > 0.0 {
            partition.affinity_loss / total
        } else {
            0.0
        },
        hits: subs.len() - jobs.len(),
        misses: jobs.len(),
        invalidations,
        solves,
    })
}

/// Solve the pending subproblems behind the fault-isolation guard, on as
/// many workers as the pipeline uses, slicing the deadline the same way.
#[allow(clippy::too_many_arguments)]
fn solve_jobs(
    config: &RasaConfig,
    subs: &[Subproblem],
    choices: &[PoolAlgorithm],
    jobs: &[usize],
    cache: Option<&SolveCache>,
    deadline: Deadline,
    tracer: &Tracer,
    op: u64,
    root: SpanId,
) -> Vec<(GuardedOutcome, Duration)> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let phase = tracer.open("solve", Some(root), op);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len());
    let solve = |pos: usize, slice: Deadline| {
        let i = jobs[pos];
        let name = match choices[i] {
            PoolAlgorithm::Cg => "solve.cg",
            PoolAlgorithm::Mip => "solve.mip",
            PoolAlgorithm::Pop => "solve.pop",
            PoolAlgorithm::Greedy => "solve.greedy",
        };
        let span = tracer.open(name, Some(phase), op);
        let started = Instant::now();
        let out = solve_one(config, i, &subs[i], choices[i], cache, slice);
        let took = started.elapsed();
        tracer.close(span);
        (out, took)
    };
    let out = if threads <= 1 {
        (0..jobs.len())
            .map(|pos| solve(pos, slice(deadline, jobs.len() - pos)))
            .collect()
    } else {
        let slots: Vec<Mutex<Option<(GuardedOutcome, Duration)>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= jobs.len() {
                        break;
                    }
                    let waves = (jobs.len() - pos).div_ceil(threads).max(1);
                    let result = solve(pos, slice(deadline, waves));
                    *slots[pos].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("every queued job is solved")
            })
            .collect()
    };
    tracer.close(phase);
    out
}

/// The live remaining budget split over `parts`.
fn slice(deadline: Deadline, parts: usize) -> Deadline {
    match deadline.remaining() {
        Some(rem) => deadline.min_with(rem / parts.max(1) as u32),
        None => Deadline::none(),
    }
}

/// The pipeline's ladder: the selector's choice first, the other exact
/// solver as the rescue rung, greedy completion as the floor.
fn solve_one(
    config: &RasaConfig,
    index: usize,
    sub: &Subproblem,
    alg: PoolAlgorithm,
    cache: Option<&SolveCache>,
    deadline: Deadline,
) -> GuardedOutcome {
    let mip = MipBased {
        options: config.mip.clone(),
    };
    let cg = ColumnGeneration {
        options: config.cg.clone(),
        warm: cache.map(|c| CgWarmStart {
            cache: c.columns(),
            key: sub.service_set_fingerprint(),
        }),
    };
    let pop = PopStrategy {
        options: config.pop.clone(),
    };
    let greedy = GreedyScheduler;
    let arm = |a: PoolAlgorithm| -> &dyn Scheduler {
        match a {
            PoolAlgorithm::Mip => &mip,
            PoolAlgorithm::Cg => &cg,
            PoolAlgorithm::Pop => &pop,
            PoolAlgorithm::Greedy => &greedy,
        }
    };
    let rescue: &[PoolAlgorithm] = match alg {
        PoolAlgorithm::Mip => &[PoolAlgorithm::Cg],
        PoolAlgorithm::Cg => &[PoolAlgorithm::Mip],
        PoolAlgorithm::Pop => &[PoolAlgorithm::Mip, PoolAlgorithm::Cg],
        PoolAlgorithm::Greedy => &[],
    };
    let fallbacks: Vec<(PoolAlgorithm, &dyn Scheduler)> =
        rescue.iter().map(|&a| (a, arm(a))).collect();
    guarded_schedule(index, (alg, arm(alg)), &fallbacks, &sub.problem, deadline)
}
