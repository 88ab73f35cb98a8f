//! The exploration engine: exhaustive grid pass plus seeded hill-climbs,
//! evaluated in parallel, bit-reproducible at any `ENW_THREADS`.
//!
//! Determinism contract: every parallel fan-out goes through
//! `enw_parallel::map_chunks` (chunk-ordered results) and every fold over
//! those results is serial and index-ordered. Randomness comes only from
//! per-restart `Rng64` streams seeded from [`SearchConfig::seed`], and
//! time only from the *virtual clock* — a counter advanced by each
//! evaluation's modeled latency — so trajectories and stamps are
//! identical across reruns and worker counts.

use crate::objective::{pareto_front, Candidate, Objectives};
use enw_core::numerics::rng::Rng64;
use enw_core::tunable::{ParamSpace, Point};
use enw_parallel::map_chunks;

/// Clock charge for an infeasible evaluation (the probe still "ran").
const INFEASIBLE_NS: u64 = 1;

/// Scalarization weight profiles `(latency, energy, quality)` cycled
/// across restarts so different climbs pull toward different corners of
/// the front.
const WEIGHT_PROFILES: &[(f64, f64, f64)] =
    &[(1.0, 1.0, 1.0), (3.0, 1.0, 1.0), (1.0, 3.0, 1.0), (1.0, 1.0, 3.0)];

/// Attempts to draw a feasible restart seed before giving up.
const SAMPLE_TRIES: usize = 32;

/// Knobs of one [`explore`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Levels per axis in the exhaustive grid pass.
    pub grid_levels: usize,
    /// Independent hill-climbs after the grid.
    pub restarts: usize,
    /// Maximum accepted moves per climb.
    pub hill_steps: usize,
    /// Root seed for the restart streams.
    pub seed: u64,
    /// Points per parallel evaluation chunk.
    pub eval_chunk: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { grid_levels: 3, restarts: 4, hill_steps: 8, seed: 20, eval_chunk: 8 }
    }
}

impl SearchConfig {
    /// The quick configuration `--smoke` runs use.
    pub fn smoke() -> Self {
        SearchConfig { grid_levels: 3, restarts: 2, hill_steps: 4, seed: 20, eval_chunk: 8 }
    }
}

/// What one [`explore`] run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Mutually non-dominated candidates, sorted by point key.
    pub front: Vec<Candidate>,
    /// Total evaluations (feasible + infeasible).
    pub evaluated: usize,
    /// Feasible evaluations.
    pub feasible: usize,
    /// Virtual clock after the last evaluation, ns.
    pub clock_ns: u64,
    /// Keys of the points each climb accepted, in order — the
    /// trajectory the determinism tests fingerprint.
    pub trajectory: Vec<String>,
}

/// Explores `space` against `eval`: one grid pass, then
/// [`SearchConfig::restarts`] seeded hill-climbs, pooling every feasible
/// evaluation into a Pareto front. `eval` returns `None` for infeasible
/// points; it must be pure — the engine may re-evaluate a point and
/// assumes equal results.
pub fn explore<E>(space: &ParamSpace, eval: &E, cfg: &SearchConfig) -> SearchResult
where
    E: Fn(&Point) -> Option<Objectives> + Sync,
{
    let mut pool: Vec<Candidate> = Vec::new();
    let mut clock_ns: u64 = 0;
    let mut evaluated = 0usize;
    let mut trajectory = Vec::new();

    // Phase 1: exhaustive grid.
    let grid = space.grid(cfg.grid_levels);
    let grid_objs = eval_batch(&grid, eval, cfg.eval_chunk);
    evaluated += grid.len();
    stamp_into(&mut pool, &mut clock_ns, &grid, &grid_objs);

    // Phase 2: hill-climbs. Each restart owns an independent RNG stream
    // and a scalarization profile; moves are strict improvements of the
    // scalarized score, ties broken by neighbor index.
    for r in 0..cfg.restarts {
        let mut rng = Rng64::new(cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r as u64 + 1)));
        let Some((mut here, start_obj)) = feasible_sample(space, eval, &mut rng) else {
            continue;
        };
        clock_ns += start_obj.latency_ns.max(0.0) as u64;
        evaluated += 1;
        pool.push(Candidate { point: here.clone(), objectives: start_obj, stamp_ns: clock_ns });
        trajectory.push(here.key());

        let reference = start_obj;
        let weights = WEIGHT_PROFILES[r % WEIGHT_PROFILES.len()];
        let mut here_score = scalarize(&start_obj, &reference, weights);
        for _ in 0..cfg.hill_steps {
            let neighbors = space.neighbors(&here);
            if neighbors.is_empty() {
                break;
            }
            let objs = eval_batch(&neighbors, eval, cfg.eval_chunk);
            evaluated += neighbors.len();
            stamp_into(&mut pool, &mut clock_ns, &neighbors, &objs);
            let best = objs
                .iter()
                .enumerate()
                .filter_map(|(i, o)| o.map(|o| (i, scalarize(&o, &reference, weights))))
                .fold(None, |acc: Option<(usize, f64)>, (i, s)| match acc {
                    Some((_, sb)) if sb <= s => acc,
                    _ => Some((i, s)),
                });
            match best {
                Some((i, score)) if score < here_score - 1e-12 => {
                    here = neighbors[i].clone();
                    here_score = score;
                    trajectory.push(here.key());
                }
                _ => break,
            }
        }
    }

    let feasible = pool.len();
    SearchResult { front: pareto_front(&pool), evaluated, feasible, clock_ns, trajectory }
}

/// Evaluates `points` in parallel, preserving point order.
fn eval_batch<E>(points: &[Point], eval: &E, chunk: usize) -> Vec<Option<Objectives>>
where
    E: Fn(&Point) -> Option<Objectives> + Sync,
{
    map_chunks(points.len(), chunk.max(1), |range| {
        range.map(|i| eval(&points[i])).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Serial, index-ordered clock advance + candidate stamping — the one
/// place evaluation results meet the virtual clock.
fn stamp_into(
    pool: &mut Vec<Candidate>,
    clock_ns: &mut u64,
    points: &[Point],
    objs: &[Option<Objectives>],
) {
    for (point, obj) in points.iter().zip(objs) {
        match obj {
            Some(o) => {
                *clock_ns += o.latency_ns.max(0.0) as u64;
                pool.push(Candidate { point: point.clone(), objectives: *o, stamp_ns: *clock_ns });
            }
            None => *clock_ns += INFEASIBLE_NS,
        }
    }
}

/// Draws sample points until one is feasible (bounded tries).
fn feasible_sample<E>(space: &ParamSpace, eval: &E, rng: &mut Rng64) -> Option<(Point, Objectives)>
where
    E: Fn(&Point) -> Option<Objectives> + Sync,
{
    for _ in 0..SAMPLE_TRIES {
        let p = space.sample(rng);
        if let Some(o) = eval(&p) {
            return Some((p, o));
        }
    }
    None
}

/// Scalarized score (lower is better): objectives normalized by the
/// restart's reference point, weighted by the restart profile.
fn scalarize(o: &Objectives, reference: &Objectives, w: (f64, f64, f64)) -> f64 {
    let norm = |v: f64, r: f64| if r.abs() > f64::EPSILON { v / r } else { v };
    w.0 * norm(o.latency_ns, reference.latency_ns) + w.1 * norm(o.energy_pj, reference.energy_pj)
        - w.2 * norm(o.quality_per_area, reference.quality_per_area)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enw_core::tunable::{AxisDomain, AxisSpec};
    use enw_parallel::with_threads;

    fn space2() -> ParamSpace {
        ParamSpace::new(vec![
            AxisSpec { name: "x", domain: AxisDomain::Int { min: 0, max: 16, step: 1 } },
            AxisSpec { name: "y", domain: AxisDomain::Int { min: 0, max: 16, step: 1 } },
        ])
    }

    /// A synthetic landscape with a clean latency/energy trade along x
    /// and a quality optimum at y = 11 (off the 3-level grid, so only
    /// the climbs find it).
    fn eval(p: &Point) -> Option<Objectives> {
        let x = p.int("x").ok()?;
        let y = p.int("y").ok()?;
        if x == 3 {
            return None; // an infeasible stripe
        }
        Some(Objectives {
            latency_ns: 10.0 + x as f64,
            energy_pj: 100.0 - 4.0 * x as f64,
            quality_per_area: 1.0 / (1.0 + (y - 11).unsigned_abs() as f64),
        })
    }

    #[test]
    fn explore_finds_the_off_grid_optimum() {
        let r = explore(&space2(), &eval, &SearchConfig::default());
        assert!(r.front.iter().any(|c| c.point.int("y") == Ok(11)), "front misses y=11");
        assert!(r.feasible > 0 && r.evaluated >= r.feasible);
    }

    #[test]
    fn front_members_are_mutually_non_dominated() {
        let r = explore(&space2(), &eval, &SearchConfig::smoke());
        assert!(r.front.len() >= 3);
        for a in &r.front {
            for b in &r.front {
                assert!(!a.objectives.dominates(&b.objectives) || a.point == b.point);
            }
        }
    }

    #[test]
    fn trajectories_and_stamps_are_thread_invariant() {
        let run =
            |n: usize| with_threads(n, || explore(&space2(), &eval, &SearchConfig::default()));
        let r1 = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(r1, run(threads), "{threads} threads");
        }
        assert_eq!(r1, run(1), "rerun at the same thread count drifted");
        assert!(r1.clock_ns > 0);
    }

    #[test]
    fn infeasible_stripe_never_reaches_the_front() {
        let r = explore(&space2(), &eval, &SearchConfig::default());
        assert!(r.front.iter().all(|c| c.point.int("x") != Ok(3)));
    }
}
