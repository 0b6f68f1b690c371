//! Seeded inputs. The program under test only ever sees what these
//! functions generate; the same `--seed` gives the same inputs.
//!
//! Cluster *topologies* (services, replicas, machines, rules) are fixed per
//! workload. The seed draws the affinity traffic the telemetry loop
//! measures on them, the churn deltas and the daemon's request stream.
//! Fixing the topologies keeps the exact solvers' work comparable from seed
//! to seed: across freshly generated topologies of one size, a cold solve
//! ranges from 0.1 s to past a two-minute deadline.

use rasa_core::{EdgeUpdate, ReplicaUpdate, SnapshotDelta};
use rasa_model::Problem;
use rasa_trace::{generate, specs::tiny_cluster, ClusterSpec};

/// SplitMix64: a small, fast, fully reproducible generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An index drawn with probability proportional to `weights[i]`.
    pub fn weighted(&mut self, weights: impl Iterator<Item = f64> + Clone) -> usize {
        let total: f64 = weights.clone().sum();
        let mut x = self.unit() * total;
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            last = i;
            if x < w {
                return i;
            }
            x -= w;
        }
        last
    }
}

/// Relative amplitude of the per-edge measurement noise: each edge weight
/// is re-measured as `w × U(1 − NOISE, 1 + NOISE)`.
pub const NOISE: f64 = 0.01;

fn spec(name: &str, services: usize, containers: u64, machines: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        name: name.into(),
        services,
        target_containers: containers,
        machines,
        machine_types: 2,
        seed,
        ..tiny_cluster(seed)
    }
}

/// The plan-cold cluster set: one cluster the selector routes to column
/// generation (many replicas per machine group), one it routes to the MIP
/// (few replicas over many machines) and a small mixed one.
pub fn plan_topologies() -> Vec<Problem> {
    vec![
        generate(&spec("cg-60", 60, 360, 12, 1010)),
        generate(&spec("mip-60", 60, 150, 24, 1005)),
        generate(&spec("mixed-40", 40, 160, 10, 1000)),
    ]
}

/// The replan-churn cluster: the CG-routed plan-cold cluster, whose warm
/// re-solve after a delta is cheap enough for a run to hold a few hundred
/// delta rounds.
pub fn churn_topology() -> Problem {
    plan_topologies().swap_remove(0)
}

/// The topology of serve-mixed tenant `tenant`: a 12-service problem on
/// four machines, the size at which HTTP, queueing and the journal
/// dominate a request rather than the solver.
pub fn tenant_topology(tenant: usize) -> Problem {
    let mut s = tiny_cluster(2000 + tenant as u64);
    s.services = 12;
    s.target_containers = 48;
    s.machines = 4;
    generate(&s)
}

/// A fresh telemetry measurement of `base`: every affinity weight scaled
/// by `U(1 − NOISE, 1 + NOISE)`.
pub fn remeasure(base: &Problem, rng: &mut Rng) -> Problem {
    let mut p = base.clone();
    for e in &mut p.affinity_edges {
        e.weight *= rng.range(1.0 - NOISE, 1.0 + NOISE);
    }
    p
}

/// Round `i` of the churn sequence against the cluster as first measured,
/// `base`: three of every four rounds change nothing (a CronJob tick);
/// every fourth re-measures two edges, drawn in proportion to their
/// traffic, at `U(0.8, 1.25)` times their base traffic and sets one
/// service's replica count one away from its base. The previous delta's
/// changes revert to `base` in the same delta (`last` carries them), so
/// every delta round starts from base plus one small change and the
/// cluster does not drift with the seed.
pub fn churn_delta(
    base: &Problem,
    round: u64,
    rng: &mut Rng,
    last: &mut SnapshotDelta,
) -> SnapshotDelta {
    if round % 4 != 3 || base.affinity_edges.is_empty() {
        return SnapshotDelta::default();
    }
    let edges = &base.affinity_edges;
    let change = SnapshotDelta {
        edge_updates: (0..2)
            .map(|_| {
                let e = edges[rng.weighted(edges.iter().map(|e| e.weight))];
                EdgeUpdate {
                    a: e.a.0,
                    b: e.b.0,
                    weight: e.weight * rng.range(0.8, 1.25),
                }
            })
            .collect(),
        replica_updates: {
            let s = rng.below(base.num_services());
            let replicas = base.services[s].replicas;
            let replicas = if replicas <= 1 || rng.unit() < 0.5 {
                replicas + 1
            } else {
                replicas - 1
            };
            vec![ReplicaUpdate {
                service: s as u32,
                replicas,
            }]
        },
    };
    let revert = SnapshotDelta {
        edge_updates: last
            .edge_updates
            .iter()
            .map(|u| {
                let e = edges
                    .iter()
                    .find(|e| (e.a.0, e.b.0) == (u.a, u.b))
                    .expect("delta edges come from base");
                EdgeUpdate {
                    weight: e.weight,
                    ..*u
                }
            })
            .collect(),
        replica_updates: last
            .replica_updates
            .iter()
            .map(|u| ReplicaUpdate {
                replicas: base.services[u.service as usize].replicas,
                ..*u
            })
            .collect(),
    };
    let delta = SnapshotDelta {
        edge_updates: [revert.edge_updates, change.edge_updates.clone()].concat(),
        replica_updates: [revert.replica_updates, change.replica_updates.clone()].concat(),
    };
    *last = change;
    delta
}

/// What one serve-mixed request does.
#[derive(Clone, Debug)]
pub enum RequestKind {
    /// `GET /placement`.
    Read,
    /// `POST /delta` with one edge re-weight.
    Delta(SnapshotDelta),
    /// `POST /snapshot` with a fresh measurement of the tenant's cluster.
    Snapshot(Box<Problem>),
}

/// Share of requests that are reads; the rest are writes.
pub const READ_SHARE: f64 = 0.5;
/// Share of writes that are full snapshots; the rest are deltas.
pub const SNAPSHOT_SHARE: f64 = 0.005;

/// The next request of one closed-loop client against `tenant`, whose
/// cluster as last measured is `base`.
pub fn next_request(base: &Problem, rng: &mut Rng) -> RequestKind {
    if rng.unit() < READ_SHARE || base.affinity_edges.is_empty() {
        return RequestKind::Read;
    }
    if rng.unit() < SNAPSHOT_SHARE {
        return RequestKind::Snapshot(Box::new(remeasure(base, rng)));
    }
    let e = base.affinity_edges[rng.below(base.affinity_edges.len())];
    RequestKind::Delta(SnapshotDelta {
        edge_updates: vec![EdgeUpdate {
            a: e.a.0,
            b: e.b.0,
            weight: e.weight * rng.range(0.8, 1.25),
        }],
        replica_updates: Vec::new(),
    })
}
