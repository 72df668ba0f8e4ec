//! Sampling engines.
//!
//! Four engines execute the same [`SamplingApp`]:
//!
//! * [`nextdoor`] — the paper's contribution: transit-parallel execution
//!   with a GPU-built scheduling index, three load-balanced kernel classes
//!   and per-class caching (§6).
//! * [`sp`] — the optimised sample-parallel baseline of §5.1/§8.2 ("SP").
//! * [`tp`] — the vanilla transit-parallel baseline of §5.2 ("TP"): map
//!   inversion plus one thread block per transit, no load balancing.
//! * [`cpu`] — a sequential host reference used as the correctness oracle.
//!
//! All four produce **bit-identical samples** for the same `(graph, app,
//! initial samples, seed)` because every random draw is keyed by its logical
//! coordinate `(sample, step, slot)`, never by thread or execution order.

pub(crate) mod collective;
pub mod cpu;
pub(crate) mod driver;
pub(crate) mod kernels;
pub mod nextdoor;
pub mod profile;
pub mod scheduling;
pub mod sp;
pub mod tp;
pub mod unique;

use crate::api::{
    EdgeCost, EdgeSource, NextCtx, RngStream, SamplingApp, SamplingType, Steps, NULL_VERTEX,
};
use crate::store::SampleStore;
use nextdoor_gpu::lane::LaneTrace;
use nextdoor_gpu::Counters;
use nextdoor_graph::{Csr, VertexId};

/// Salt mixed into the seed for `stepTransits` draws so that they never
/// collide with `next` draws.
pub(crate) const TRANSIT_SEED_SALT: u64 = 0x7452_414E_5349_5453; // "TRANSITS"

/// Per-sample RNG keying of a (possibly fused) run.
///
/// Every random draw in the runtime is keyed by the logical coordinate
/// `(seed, sample, step, slot)`. A standalone run keys sample `s` simply as
/// `(seed, s)` — that is [`SampleKeys::uniform`], and it is what every
/// `run_*` entry point uses. When a [`SamplerSession`](crate::session)
/// fuses several queries into one batch, the fused store's *global* sample
/// index differs from the index the same sample holds when its query runs
/// alone; [`SampleKeys::fused`] maps each global index back to the
/// `(seed, local id)` pair its standalone run would use, which is what
/// makes fused execution bit-identical to per-query execution.
#[derive(Debug, Clone)]
pub struct SampleKeys {
    seed: u64,
    /// Per-sample `(seed, local id)` overrides; `None` keys sample `s` as
    /// `(self.seed, s)`.
    map: Option<Vec<(u64, u64)>>,
}

impl SampleKeys {
    /// Keys every sample `s` as `(seed, s)` — the standalone-run layout.
    pub fn uniform(seed: u64) -> Self {
        SampleKeys { seed, map: None }
    }

    /// Keys sample `s` of a fused batch as `map[s]`, the `(seed, local id)`
    /// pair the sample holds in its own query.
    pub fn fused(map: Vec<(u64, u64)>) -> Self {
        SampleKeys {
            seed: 0,
            map: Some(map),
        }
    }

    /// The `(seed, local sample id)` keying RNG streams of sample `sample`.
    ///
    /// # Panics
    ///
    /// Panics if a fused table is shorter than the store it keys (an
    /// internal invariant: the session builds the table from the same
    /// initial samples it runs).
    #[inline]
    pub fn key(&self, sample: usize) -> (u64, u64) {
        match &self.map {
            Some(m) => m[sample],
            None => (self.seed, sample as u64),
        }
    }
}

/// Result of running a sampling application on an engine.
pub struct RunResult {
    /// All sample contents (both output formats are available on the store).
    pub store: SampleStore,
    /// Timing and counter statistics.
    pub stats: EngineStats,
    /// Faults the run observed and survived (see
    /// [`FaultReport`](crate::error::FaultReport)); clean for an
    /// undisturbed run.
    pub report: crate::error::FaultReport,
}

/// Timing breakdown and simulator counters for one run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// End-to-end time in milliseconds (simulated for GPU engines,
    /// wall-clock for the CPU reference).
    pub total_ms: f64,
    /// Time spent executing sampling kernels.
    pub sampling_ms: f64,
    /// Time spent building the scheduling index (map inversion, sort, scan;
    /// Figure 6's second component). Zero for SP and CPU.
    pub scheduling_ms: f64,
    /// Simulator counter deltas for the run (empty for the CPU reference).
    pub counters: Counters,
    /// Steps actually executed.
    pub steps_run: usize,
    /// Per-kernel breakdown of the run (empty for the CPU reference).
    pub profile: profile::RunProfile,
}

/// The per-step execution plan shared by every engine.
pub(crate) struct StepPlan {
    /// Step index.
    pub step: usize,
    /// `sampleSize(step)` — the paper's `mᵢ`.
    pub m: usize,
    /// Transits per sample at this step.
    pub tps: usize,
    /// Output slots per sample: `tps * m` (individual) or `m` (collective).
    pub slots: usize,
    /// Transit of each `(sample, transit_idx)`, `NULL_VERTEX` when the
    /// sample has terminated; length `num_samples * tps`.
    pub transits: Vec<VertexId>,
    /// Number of live (non-NULL) transit entries.
    pub live: usize,
}

/// Computes the step plan: sizes plus the `stepTransits` values.
pub(crate) fn plan_step(
    app: &dyn SamplingApp,
    store: &SampleStore,
    step: usize,
    keys: &SampleKeys,
) -> StepPlan {
    let init_len = store.initial(0).len();
    // `tps` sizes the transit array for *every* sample, so this derivation
    // is only sound when all samples carry the same number of initial
    // vertices — `validate_run` rejects ragged inputs at every `run_*`
    // entry point before any engine reaches this function.
    debug_assert!(
        (0..store.num_samples()).all(|s| store.initial(s).len() == init_len),
        "plan_step requires uniform initial-vertex counts (enforced by validate_run)"
    );
    let tps = app.num_transits(step, init_len);
    let m = app.sample_size(step);
    let slots = match app.sampling_type() {
        SamplingType::Individual => tps * m,
        SamplingType::Collective => m,
    };
    let ns = store.num_samples();
    let mut transits = vec![NULL_VERTEX; ns * tps];
    let mut live = 0;
    for s in 0..ns {
        let view = store.view(s, step);
        let (seed, local) = keys.key(s);
        for t in 0..tps {
            let mut rng = RngStream::new(seed ^ TRANSIT_SEED_SALT, local as usize, step, t);
            let v = app.step_transit(step, &view, t, &mut rng);
            if v != NULL_VERTEX {
                live += 1;
            }
            transits[s * tps + t] = v;
        }
    }
    StepPlan {
        step,
        m,
        tps,
        slots,
        transits,
        live,
    }
}

/// Number of steps to attempt.
pub(crate) fn step_budget(app: &dyn SamplingApp) -> usize {
    match app.steps() {
        Steps::Fixed(k) => k,
        Steps::Infinite => app.max_steps_cap(),
    }
}

/// Runs `next` for one individual-transit slot, returning the sampled
/// vertex (or `NULL_VERTEX`) and any application edges it recorded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_next_individual(
    app: &dyn SamplingApp,
    graph: &Csr,
    store: &SampleStore,
    plan: &StepPlan,
    sample: usize,
    tidx: usize,
    j: usize,
    keys: &SampleKeys,
    cost: EdgeCost,
    cached_len: usize,
    cols_base: u64,
    trace: Option<&mut LaneTrace>,
) -> (VertexId, Vec<(VertexId, VertexId)>) {
    let transit = plan.transits[sample * plan.tps + tidx];
    debug_assert_ne!(transit, NULL_VERTEX);
    let slot = tidx * plan.m + j;
    let view = store.view(sample, plan.step);
    let transit_slice = [transit];
    let (seed, local) = keys.key(sample);
    let mut ctx = NextCtx {
        step: plan.step,
        sample_id: local as usize,
        slot,
        graph,
        source: EdgeSource::Transit { transit },
        transits: &transit_slice,
        view: &view,
        rng: RngStream::new(seed, local as usize, plan.step, slot),
        cost,
        cached_len,
        trace,
        graph_cols_base: cols_base,
        new_edges: Vec::new(),
    };
    let v = app.next(&mut ctx).unwrap_or(NULL_VERTEX);
    let edges = ctx.take_new_edges();
    (v, edges)
}

/// Runs `next` for one collective-transit slot over a prebuilt combined
/// neighbourhood.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_next_collective(
    app: &dyn SamplingApp,
    graph: &Csr,
    store: &SampleStore,
    plan: &StepPlan,
    sample: usize,
    j: usize,
    combined: &[VertexId],
    combined_base: u64,
    transits: &[VertexId],
    keys: &SampleKeys,
    trace: Option<&mut LaneTrace>,
) -> (VertexId, Vec<(VertexId, VertexId)>) {
    let view = store.view(sample, plan.step);
    let (seed, local) = keys.key(sample);
    let mut ctx = NextCtx {
        step: plan.step,
        sample_id: local as usize,
        slot: j,
        graph,
        source: EdgeSource::Combined {
            vertices: combined,
            base_addr: combined_base,
        },
        transits,
        view: &view,
        rng: RngStream::new(seed, local as usize, plan.step, j),
        cost: EdgeCost::Global,
        cached_len: 0,
        trace,
        graph_cols_base: 0x2000,
        new_edges: Vec::new(),
    };
    let v = app.next(&mut ctx).unwrap_or(NULL_VERTEX);
    let edges = ctx.take_new_edges();
    (v, edges)
}

/// Builds the combined neighbourhood of a sample: the concatenated
/// adjacency lists of its live transits, in transit order. All engines use
/// this same functional definition.
pub(crate) fn build_combined(graph: &Csr, transits: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    for &t in transits {
        if t != NULL_VERTEX {
            out.extend_from_slice(graph.neighbors(t));
        }
    }
    out
}

/// Applies post-step bookkeeping common to every engine: root updates and
/// application-edge recording, then appends the step to the store.
pub(crate) fn finish_step(
    app: &dyn SamplingApp,
    store: &mut SampleStore,
    plan: &StepPlan,
    values: Vec<VertexId>,
    edges: Vec<Vec<(VertexId, VertexId)>>,
) {
    let ns = store.num_samples();
    for (s, es) in edges.into_iter().enumerate() {
        store.add_edges(s, es);
    }
    // Root updates (multi-dimensional random walks replace the chosen root).
    for s in 0..ns {
        for t in 0..plan.tps {
            let transit = plan.transits[s * plan.tps + t];
            if transit == NULL_VERTEX {
                continue;
            }
            for j in 0..plan.m {
                let idx = match app.sampling_type() {
                    SamplingType::Individual => s * plan.slots + t * plan.m + j,
                    SamplingType::Collective => s * plan.slots + j,
                };
                let v = values[idx];
                if v != NULL_VERTEX {
                    let mut roots = std::mem::take(store.roots_of_mut(s));
                    app.update_roots(&mut roots, plan.step, transit, v);
                    *store.roots_of_mut(s) = roots;
                }
            }
            if matches!(app.sampling_type(), SamplingType::Collective) {
                break;
            }
        }
    }
    store.record_step(plan.slots, values);
}

/// Picks `num_samples` initial samples of one random vertex each, the
/// default initial-sample policy mentioned in §4.1.
///
/// # Errors
///
/// Returns [`NextDoorError::EmptyGraph`](crate::error::NextDoorError) when
/// the graph has no vertices to draw from.
pub fn initial_samples_random(
    graph: &Csr,
    num_samples: usize,
    vertices_per_sample: usize,
    seed: u64,
) -> Result<Vec<Vec<VertexId>>, crate::error::NextDoorError> {
    let n = graph.num_vertices() as u32;
    if n == 0 {
        return Err(crate::error::NextDoorError::EmptyGraph);
    }
    Ok((0..num_samples)
        .map(|s| {
            (0..vertices_per_sample)
                .map(|i| nextdoor_gpu::rng::rand_range(seed, s as u64, i as u64, n))
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Steps;
    use nextdoor_graph::gen::ring_lattice;

    struct UniformWalk;
    impl SamplingApp for UniformWalk {
        fn name(&self) -> &'static str {
            "uniform-walk"
        }
        fn steps(&self) -> Steps {
            Steps::Fixed(3)
        }
        fn sample_size(&self, _s: usize) -> usize {
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
    fn plan_step_counts_live_transits() {
        let g = ring_lattice(16, 2, 0);
        let store = SampleStore::new(vec![vec![0], vec![5]]);
        let plan = plan_step(&UniformWalk, &store, 0, &SampleKeys::uniform(42));
        assert_eq!(plan.tps, 1);
        assert_eq!(plan.m, 1);
        assert_eq!(plan.slots, 1);
        assert_eq!(plan.live, 2);
        assert_eq!(plan.transits, vec![0, 5]);
        let _ = g;
    }

    #[test]
    fn run_next_is_deterministic_across_cost_classes() {
        let g = ring_lattice(16, 2, 0);
        let store = SampleStore::new(vec![vec![0]]);
        let plan = plan_step(&UniformWalk, &store, 0, &SampleKeys::uniform(42));
        let keys = SampleKeys::uniform(7);
        let (v1, _) = run_next_individual(
            &UniformWalk,
            &g,
            &store,
            &plan,
            0,
            0,
            0,
            &keys,
            EdgeCost::Global,
            0,
            0,
            None,
        );
        let (v2, _) = run_next_individual(
            &UniformWalk,
            &g,
            &store,
            &plan,
            0,
            0,
            0,
            &keys,
            EdgeCost::Shared,
            999,
            0,
            None,
        );
        assert_eq!(v1, v2, "cost class must not affect the sampled value");
        assert!(g.neighbors(0).contains(&v1));
    }

    #[test]
    fn fused_keys_reproduce_standalone_draws() {
        // A fused store whose second sample belongs to another query (seed
        // 99, local id 0) must draw exactly what that query's standalone
        // run draws for its sample 0.
        let g = ring_lattice(16, 2, 0);
        let fused_store = SampleStore::new(vec![vec![0], vec![5]]);
        let fused_keys = SampleKeys::fused(vec![(7, 0), (99, 0)]);
        let fused_plan = plan_step(&UniformWalk, &fused_store, 0, &fused_keys);
        let (fused_v, _) = run_next_individual(
            &UniformWalk,
            &g,
            &fused_store,
            &fused_plan,
            1,
            0,
            0,
            &fused_keys,
            EdgeCost::Global,
            0,
            0,
            None,
        );
        let solo_store = SampleStore::new(vec![vec![5]]);
        let solo_keys = SampleKeys::uniform(99);
        let solo_plan = plan_step(&UniformWalk, &solo_store, 0, &solo_keys);
        let (solo_v, _) = run_next_individual(
            &UniformWalk,
            &g,
            &solo_store,
            &solo_plan,
            0,
            0,
            0,
            &solo_keys,
            EdgeCost::Global,
            0,
            0,
            None,
        );
        assert_eq!(fused_v, solo_v);
    }

    #[test]
    fn build_combined_concatenates_live_transits() {
        let g = ring_lattice(8, 1, 0);
        let c = build_combined(&g, &[0, NULL_VERTEX, 2]);
        let mut expect = g.neighbors(0).to_vec();
        expect.extend_from_slice(g.neighbors(2));
        assert_eq!(c, expect);
    }

    #[test]
    fn initial_samples_shape_and_determinism() {
        let g = ring_lattice(32, 2, 0);
        let a = initial_samples_random(&g, 5, 3, 9).unwrap();
        let b = initial_samples_random(&g, 5, 3, 9).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|s| s.len() == 3));
        assert!(a.iter().flatten().all(|&v| (v as usize) < g.num_vertices()));
    }

    #[test]
    fn initial_samples_on_empty_graph_is_typed_error() {
        let g = Csr::empty(0);
        assert!(matches!(
            initial_samples_random(&g, 4, 1, 0),
            Err(crate::error::NextDoorError::EmptyGraph)
        ));
    }
}
