//! Sequential CPU reference engine.
//!
//! Not a performance baseline (those live in `nextdoor-baselines`) but the
//! correctness oracle: it computes the exact samples every GPU engine must
//! reproduce.

use std::time::Instant;

use crate::api::{EdgeCost, SamplingApp, SamplingType, NULL_VERTEX};
use crate::engine::{
    build_combined, finish_step, plan_step, run_next_collective, run_next_individual, step_budget,
    unique, EngineStats, RunResult, SampleKeys,
};
use crate::error::{validate_run, NextDoorError};
use crate::store::SampleStore;
use nextdoor_graph::{Csr, VertexId};

/// Runs `app` to completion on the host, single-threaded.
///
/// # Errors
///
/// Returns [`NextDoorError`] if `init` is empty, its samples have unequal
/// lengths, a root vertex is out of range, or `app` declares zero steps.
pub fn run_cpu(
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    seed: u64,
) -> Result<RunResult, NextDoorError> {
    run_cpu_keyed(graph, app, init, &SampleKeys::uniform(seed))
}

/// [`run_cpu`] with an explicit per-sample RNG keying, the host-side oracle
/// for fused session batches (see [`SampleKeys`]).
///
/// # Errors
///
/// Same conditions as [`run_cpu`].
pub fn run_cpu_keyed(
    graph: &Csr,
    app: &dyn SamplingApp,
    init: &[Vec<VertexId>],
    keys: &SampleKeys,
) -> Result<RunResult, NextDoorError> {
    validate_run(graph, app, init)?;
    let mut store = SampleStore::new(init.to_vec());
    let t0 = Instant::now();
    let mut steps_run = 0;
    for step in 0..step_budget(app) {
        let plan = plan_step(app, &store, step, keys);
        if plan.live == 0 {
            break;
        }
        let ns = store.num_samples();
        let mut values = vec![NULL_VERTEX; ns * plan.slots];
        let mut edges = vec![Vec::new(); ns];
        match app.sampling_type() {
            SamplingType::Individual => {
                for s in 0..ns {
                    for t in 0..plan.tps {
                        if plan.transits[s * plan.tps + t] == NULL_VERTEX {
                            continue;
                        }
                        for j in 0..plan.m {
                            let (v, es) = run_next_individual(
                                app,
                                graph,
                                &store,
                                &plan,
                                s,
                                t,
                                j,
                                keys,
                                EdgeCost::Global,
                                0,
                                0,
                                None,
                            );
                            values[s * plan.slots + t * plan.m + j] = v;
                            edges[s].extend(es);
                        }
                    }
                }
            }
            SamplingType::Collective => {
                for s in 0..ns {
                    let sample_transits: Vec<VertexId> =
                        plan.transits[s * plan.tps..(s + 1) * plan.tps].to_vec();
                    if sample_transits.iter().all(|&t| t == NULL_VERTEX) {
                        continue;
                    }
                    let combined = build_combined(graph, &sample_transits);
                    for j in 0..plan.m {
                        let (v, es) = run_next_collective(
                            app,
                            graph,
                            &store,
                            &plan,
                            s,
                            j,
                            &combined,
                            0,
                            &sample_transits,
                            keys,
                            None,
                        );
                        values[s * plan.slots + j] = v;
                        edges[s].extend(es);
                    }
                }
            }
        }
        if app.unique(step) {
            unique::dedup_values(&mut values, plan.slots, ns);
        }
        finish_step(app, &mut store, &plan, values, edges);
        steps_run += 1;
    }
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(RunResult {
        store,
        stats: EngineStats {
            total_ms,
            sampling_ms: total_ms,
            scheduling_ms: 0.0,
            counters: Default::default(),
            steps_run,
            profile: Default::default(),
        },
        report: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{NextCtx, Steps};
    use nextdoor_graph::gen::ring_lattice;

    struct Walk(usize);
    impl SamplingApp for Walk {
        fn name(&self) -> &'static str {
            "walk"
        }
        fn steps(&self) -> Steps {
            Steps::Fixed(self.0)
        }
        fn sample_size(&self, _: usize) -> usize {
            1
        }
        fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
            let d = ctx.num_edges();
            if d == 0 {
                return None;
            }
            let i = ctx.rand_range(d);
            Some(ctx.src_edge(i))
        }
    }

    #[test]
    fn walk_produces_valid_paths() {
        let g = ring_lattice(32, 2, 0);
        let res = run_cpu(&g, &Walk(10), &[vec![0], vec![7], vec![13]], 42).unwrap();
        assert_eq!(res.stats.steps_run, 10);
        let samples = res.store.final_samples();
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert_eq!(s.len(), 11, "root + 10 steps");
            for w in s.windows(2) {
                assert!(
                    g.has_edge(w[0], w[1]),
                    "walk takes a non-edge {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = ring_lattice(64, 3, 0);
        let a = run_cpu(&g, &Walk(5), &[vec![1], vec![2]], 9).unwrap();
        let b = run_cpu(&g, &Walk(5), &[vec![1], vec![2]], 9).unwrap();
        assert_eq!(a.store.final_samples(), b.store.final_samples());
        let c = run_cpu(&g, &Walk(5), &[vec![1], vec![2]], 10).unwrap();
        assert_ne!(a.store.final_samples(), c.store.final_samples());
    }

    struct TwoHop;
    impl SamplingApp for TwoHop {
        fn name(&self) -> &'static str {
            "2hop"
        }
        fn steps(&self) -> Steps {
            Steps::Fixed(2)
        }
        fn sample_size(&self, step: usize) -> usize {
            if step == 0 {
                3
            } else {
                2
            }
        }
        fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId> {
            let d = ctx.num_edges();
            if d == 0 {
                return None;
            }
            let i = ctx.rand_range(d);
            Some(ctx.src_edge(i))
        }
    }

    #[test]
    fn khop_fanout_shapes() {
        let g = ring_lattice(32, 2, 0);
        let res = run_cpu(&g, &TwoHop, &[vec![0]], 1).unwrap();
        assert_eq!(res.store.step_values(0).slots, 3);
        assert_eq!(res.store.step_values(1).slots, 6);
        assert_eq!(res.store.final_samples()[0].len(), 1 + 3 + 6);
    }

    #[test]
    fn unequal_initial_sizes_rejected() {
        let g = ring_lattice(8, 1, 0);
        let res = run_cpu(&g, &Walk(1), &[vec![0], vec![1, 2]], 0);
        assert!(matches!(
            res.err(),
            Some(NextDoorError::UnequalInitSizes { sample: 1, .. })
        ));
    }
}
