//! The graph-sampling abstraction (paper §3) and its programming API
//! (paper §4, Figure 3).
//!
//! A sampling application is described by a handful of user-defined
//! functions on the [`SamplingApp`] trait: `next` (how to sample one new
//! vertex), `step_transit` (which vertices act as transits), `sample_size`
//! (how many `next` invocations per transit or per sample at each step),
//! `steps`, `unique`, and `sampling_type`. The same application object runs
//! unmodified on every engine — NextDoor transit-parallel, sample-parallel,
//! vanilla transit-parallel, and the sequential CPU reference — which is
//! what makes the cross-engine equivalence tests possible.

use nextdoor_gpu::lane::{LaneOp, LaneTrace};
use nextdoor_gpu::rng;
use nextdoor_graph::{Csr, VertexId};

/// Sentinel for "no vertex" — the paper's `NULL` return from `next`.
pub const NULL_VERTEX: VertexId = VertexId::MAX;

/// Granularity at which new vertices are sampled (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingType {
    /// `next` runs per transit, seeing that transit's neighbourhood.
    Individual,
    /// `next` runs per sample, seeing the combined neighbourhood of all the
    /// sample's transit vertices.
    Collective,
}

/// Number of computational steps of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steps {
    /// Run exactly this many steps.
    Fixed(usize),
    /// The paper's `INF`: run until no sample has live transit vertices.
    Infinite,
}

/// Read-only view of a sample's history, available to `next` and
/// `step_transit`.
pub trait SampleView {
    /// The vertex added at position `pos` of the `back`-th previous step
    /// (`back = 1` is the immediately preceding step). `back` reaching past
    /// the first step returns the initial vertices; past those,
    /// [`NULL_VERTEX`].
    fn prev_vertex(&self, back: usize, pos: usize) -> VertexId;

    /// Number of vertices added at the `back`-th previous step.
    fn prev_len(&self, back: usize) -> usize;

    /// Total vertices currently in the sample (initial + all steps, NULLs
    /// excluded).
    fn len(&self) -> usize;

    /// Whether the sample is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sample's current root set (multi-dimensional random walks).
    fn roots(&self) -> &[VertexId];
}

/// Where a transit's adjacency list is being served from, which determines
/// what each [`NextCtx::src_edge`] access costs (paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeCost {
    /// Cached in shared memory (thread-block and grid kernels).
    Shared,
    /// Held in registers, read via warp shuffles (sub-warp kernel).
    Registers,
    /// Read directly from global memory (sample-parallel engines, or cache
    /// overflow).
    Global,
}

/// A deterministic per-invocation RNG stream.
///
/// Keyed by `(seed, sample, step, slot)` so that draws are identical across
/// engines regardless of thread assignment.
#[derive(Debug, Clone)]
pub struct RngStream {
    seed: u64,
    key: u64,
    counter: u64,
}

impl RngStream {
    /// Creates the stream for a logical sampling slot.
    pub fn new(seed: u64, sample: usize, step: usize, slot: usize) -> Self {
        RngStream {
            seed,
            key: rng::sample_key(sample as u64, step as u64, slot as u64),
            counter: 0,
        }
    }

    /// One uniform 32-bit draw.
    pub fn next_u32(&mut self) -> u32 {
        let v = rng::rand_u32(self.seed, self.key, self.counter);
        self.counter += 1;
        v
    }

    /// One uniform draw in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        let v = rng::rand_f32(self.seed, self.key, self.counter);
        self.counter += 1;
        v
    }

    /// One uniform draw in `[0, n)` (0 when `n == 0`).
    pub fn next_range(&mut self, n: u32) -> u32 {
        let v = rng::rand_range(self.seed, self.key, self.counter, n);
        self.counter += 1;
        v
    }
}

/// The neighbourhood `next` samples from: either one transit's edges or a
/// sample's combined neighbourhood (paper's `srcEdges`).
pub(crate) enum EdgeSource<'a> {
    /// Individual transit sampling: the transit's adjacency slice.
    Transit {
        /// The transit vertex.
        transit: VertexId,
    },
    /// Collective transit sampling: an explicit combined neighbourhood.
    Combined {
        /// Flattened combined neighbourhood of the sample.
        vertices: &'a [VertexId],
        /// Virtual device base address of the combined buffer (for cost
        /// accounting), if running on a GPU engine.
        base_addr: u64,
    },
}

/// Execution context handed to [`SamplingApp::next`].
///
/// All graph and sample accesses go through this context so that, on the
/// GPU engines, every access is recorded in the lane's trace and charged
/// with the cost class the engine chose (shared memory, registers, or
/// global memory).
pub struct NextCtx<'a> {
    /// Current step.
    pub step: usize,
    /// Sample being grown.
    pub sample_id: usize,
    /// Which of the step's `next` invocations this is (0-based within the
    /// sample, globally across its transits).
    pub slot: usize,
    pub(crate) graph: &'a Csr,
    pub(crate) source: EdgeSource<'a>,
    pub(crate) transits: &'a [VertexId],
    pub(crate) view: &'a dyn SampleView,
    pub(crate) rng: RngStream,
    pub(crate) cost: EdgeCost,
    /// Number of leading neighbours served from the cache; accesses past
    /// this index cost a global load even under `Shared`/`Registers`.
    pub(crate) cached_len: usize,
    pub(crate) trace: Option<&'a mut LaneTrace>,
    pub(crate) graph_cols_base: u64,
    pub(crate) new_edges: Vec<(VertexId, VertexId)>,
}

impl<'a> NextCtx<'a> {
    #[inline]
    fn record(&mut self, op: LaneOp) {
        if let Some(t) = self.trace.as_mut() {
            t.push(op);
        }
    }

    fn record_edge_access(&mut self, idx: usize, addr: u64) {
        let op = if idx < self.cached_len {
            match self.cost {
                EdgeCost::Shared => LaneOp::SharedLoad,
                EdgeCost::Registers => LaneOp::Shfl,
                EdgeCost::Global => LaneOp::GlobalLoad { addr, bytes: 4 },
            }
        } else {
            LaneOp::GlobalLoad { addr, bytes: 4 }
        };
        self.record(op);
    }

    /// Number of edges in the source edge set (`srcEdges.size()`).
    ///
    /// Under transit-parallel execution the engine already holds the
    /// transit's degree in a register; under sample-parallel execution each
    /// lane must load the row offsets from global memory.
    pub fn num_edges(&mut self) -> usize {
        match &self.source {
            EdgeSource::Transit { transit } => {
                let t = *transit;
                match self.cost {
                    EdgeCost::Global => self.record(LaneOp::GlobalLoad {
                        addr: 16 * t as u64 + 1, // degree table page
                        bytes: 4,
                    }),
                    _ => self.record(LaneOp::Compute(1)),
                }
                self.graph.degree(t)
            }
            EdgeSource::Combined { vertices, .. } => {
                let len = vertices.len();
                self.record(LaneOp::Compute(1));
                len
            }
        }
    }

    /// The `i`-th edge of the source edge set (`srcEdges[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn src_edge(&mut self, i: usize) -> VertexId {
        match &self.source {
            EdgeSource::Transit { transit } => {
                let t = *transit;
                let (start, end) = self.graph.adjacency_range(t);
                assert!(i < end - start, "edge index out of bounds");
                let addr = self.graph_cols_base + ((start + i) as u64) * 4;
                self.record_edge_access(i, addr);
                self.graph.neighbor(t, i)
            }
            EdgeSource::Combined {
                vertices,
                base_addr,
            } => {
                let v = vertices[i];
                let addr = *base_addr + (i as u64) * 4;
                // Combined neighbourhoods live in global memory (§6.2).
                self.record(LaneOp::GlobalLoad { addr, bytes: 4 });
                v
            }
        }
    }

    /// Weight of the `i`-th source edge (1.0 on unweighted graphs).
    pub fn edge_weight(&mut self, i: usize) -> f32 {
        match &self.source {
            EdgeSource::Transit { transit } => {
                let t = *transit;
                let (start, _) = self.graph.adjacency_range(t);
                let addr = self.graph_cols_base + ((start + i) as u64) * 4;
                self.record_edge_access(i, addr);
                self.graph.edge_weight(t, i)
            }
            EdgeSource::Combined { .. } => 1.0,
        }
    }

    /// The transit vertices forming the source edge set (paper's
    /// `transits`; a single vertex for individual transit sampling).
    pub fn transits(&self) -> &[VertexId] {
        self.transits
    }

    /// Maximum edge weight of `v` (the `Vertex::maxEdgeWeight` utility).
    ///
    /// Served from a precomputed per-vertex table: a global load under
    /// sample-parallel execution, but staged alongside the cached adjacency
    /// under transit-parallel execution (the engine loads it with the
    /// transit's metadata). The host reads the same table, built with the
    /// graph ([`Csr::max_edge_weight`]), in O(1).
    pub fn max_edge_weight(&mut self, v: VertexId) -> f32 {
        match self.cost {
            EdgeCost::Global => self.record(LaneOp::GlobalLoad {
                addr: 8 * v as u64, // per-vertex table, distinct virtual page
                bytes: 4,
            }),
            EdgeCost::Shared => self.record(LaneOp::SharedLoad),
            EdgeCost::Registers => self.record(LaneOp::Shfl),
        }
        self.graph.max_edge_weight(v)
    }

    /// Whether the directed edge `(u, w)` exists: a binary search over `u`'s
    /// adjacency, charging one global load per probe (this is node2vec's
    /// divergence source).
    pub fn has_edge(&mut self, u: VertexId, w: VertexId) -> bool {
        if u == NULL_VERTEX {
            return false;
        }
        let (start, end) = self.graph.adjacency_range(u);
        let (mut lo, mut hi) = (start, end);
        let mut found = false;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let addr = self.graph_cols_base + (mid as u64) * 4;
            self.record(LaneOp::GlobalLoad { addr, bytes: 4 });
            self.record(LaneOp::Compute(1));
            let v = self.graph.col_indices()[mid];
            match v.cmp(&w) {
                std::cmp::Ordering::Equal => {
                    found = true;
                    break;
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        found
    }

    /// Degree of an arbitrary vertex (one global load of the offsets).
    pub fn degree_of(&mut self, v: VertexId) -> usize {
        self.record(LaneOp::GlobalLoad {
            addr: 16 * v as u64 + 1, // degree table page
            bytes: 4,
        });
        self.graph.degree(v)
    }

    /// Number of vertices in the graph.
    pub fn num_vertices(&mut self) -> usize {
        self.record(LaneOp::Compute(1));
        self.graph.num_vertices()
    }

    /// The sample's history (`s.prevVertex` etc.). Reads through the view
    /// are charged as global loads of the sample buffers.
    pub fn prev_vertex(&mut self, back: usize, pos: usize) -> VertexId {
        self.record(LaneOp::GlobalLoad {
            addr: 0x4000_0000 + (self.sample_id as u64) * 64 + pos as u64 * 4,
            bytes: 4,
        });
        self.view.prev_vertex(back, pos)
    }

    /// Current size of the sample (initial vertices plus all sampled
    /// vertices so far).
    pub fn sample_len(&mut self) -> usize {
        self.record(LaneOp::Compute(1));
        self.view.len()
    }

    /// The sample's root set (multi-dimensional random walks).
    pub fn roots(&mut self) -> &[VertexId] {
        self.record(LaneOp::GlobalLoad {
            addr: 0x5000_0000 + (self.sample_id as u64) * 64,
            bytes: 4,
        });
        self.view.roots()
    }

    /// Records an application edge into the sample (importance and cluster
    /// sampling build per-sample adjacency matrices).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.record(LaneOp::GlobalStore {
            addr: 0x6000_0000 + (self.sample_id as u64) * 1024 + self.new_edges.len() as u64 * 8,
            bytes: 8,
        });
        self.new_edges.push((u, v));
    }

    /// One uniform draw in `[0, 1)`.
    pub fn rand_f32(&mut self) -> f32 {
        self.record(LaneOp::Rand);
        self.rng.next_f32()
    }

    /// One uniform draw in `[0, n)` (0 when `n == 0`).
    pub fn rand_range(&mut self, n: usize) -> usize {
        self.record(LaneOp::Rand);
        self.rng.next_range(n as u32) as usize
    }

    /// One uniform 32-bit draw.
    pub fn rand_u32(&mut self) -> u32 {
        self.record(LaneOp::Rand);
        self.rng.next_u32()
    }

    /// Charges `n` ALU instructions of application arithmetic.
    pub fn charge_compute(&mut self, n: u16) {
        self.record(LaneOp::Compute(n));
    }

    pub(crate) fn take_new_edges(&mut self) -> Vec<(VertexId, VertexId)> {
        std::mem::take(&mut self.new_edges)
    }
}

/// A graph sampling application (paper's Figure 3).
///
/// An implementation describes *what* to sample — how many steps, how many
/// vertices per transit, and how one new vertex is chosen ([`Self::next`]).
/// *How* it runs is entirely the engines' business: the CPU oracle, the
/// SP/TP baselines, the transit-parallel GPU engine, and the serving layer
/// ([`crate::session::SamplerSession`]) all run the same application
/// unchanged and produce bit-identical samples.
///
/// # Example: k-hop neighbourhood sampling
///
/// Layer-by-layer neighbourhood expansion (GraphSAGE-style): every vertex
/// reached at step `i` draws `fanouts[i]` of its neighbours.
///
/// ```
/// use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
/// use nextdoor_core::{initial_samples_random, run_cpu};
/// use nextdoor_graph::gen::{rmat, RmatParams};
///
/// struct KHop { fanouts: Vec<usize> }
/// impl SamplingApp for KHop {
///     fn name(&self) -> &'static str { "khop" }
///     fn steps(&self) -> Steps { Steps::Fixed(self.fanouts.len()) }
///     fn sample_size(&self, step: usize) -> usize { self.fanouts[step] }
///     fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
///         let d = ctx.num_edges();
///         if d == 0 { return None; } // dead end: the paper's NULL
///         let i = ctx.rand_range(d);
///         Some(ctx.src_edge(i))
///     }
/// }
///
/// let graph = rmat(8, 1000, RmatParams::SKEWED, 1);
/// let init = initial_samples_random(&graph, 16, 1, 3).expect("non-empty graph");
/// let app = KHop { fanouts: vec![2, 2] };
/// let res = run_cpu(&graph, &app, &init, 42).expect("valid inputs");
/// // Each sample grows to at most 1 + 2 + 2*2 vertices (dead ends shrink it).
/// assert!(res.store.final_samples().iter().all(|s| s.len() <= 7));
/// ```
///
/// # Example: DeepWalk random walks
///
/// A fixed-length uniform random walk: one transit per sample, each step
/// moves it to a uniformly drawn neighbour. The same application run on the
/// CPU oracle and on the simulated GPU yields bit-identical walks — the
/// determinism invariant every engine upholds.
///
/// ```
/// use nextdoor_core::api::{NextCtx, SamplingApp, Steps};
/// use nextdoor_core::{initial_samples_random, run_cpu, run_nextdoor};
/// use nextdoor_gpu::{Gpu, GpuSpec};
/// use nextdoor_graph::gen::{rmat, RmatParams};
///
/// struct DeepWalk { len: usize }
/// impl SamplingApp for DeepWalk {
///     fn name(&self) -> &'static str { "deepwalk" }
///     fn steps(&self) -> Steps { Steps::Fixed(self.len) }
///     fn sample_size(&self, _step: usize) -> usize { 1 }
///     fn next(&self, ctx: &mut NextCtx<'_>) -> Option<u32> {
///         let d = ctx.num_edges();
///         if d == 0 { return None; } // stuck walker stops walking
///         let i = ctx.rand_range(d);
///         Some(ctx.src_edge(i))
///     }
/// }
///
/// let graph = rmat(8, 1000, RmatParams::SKEWED, 1);
/// let init = initial_samples_random(&graph, 32, 1, 7).expect("non-empty graph");
/// let app = DeepWalk { len: 5 };
/// let cpu = run_cpu(&graph, &app, &init, 7).expect("valid inputs");
/// let mut gpu = Gpu::new(GpuSpec::small());
/// let gpu_res = run_nextdoor(&mut gpu, &graph, &app, &init, 7)
///     .expect("inputs are valid and the graph fits");
/// assert_eq!(cpu.store.final_samples(), gpu_res.store.final_samples());
/// ```
pub trait SamplingApp: Sync {
    /// Human-readable name used in logs and benchmark tables.
    fn name(&self) -> &'static str;

    /// Number of computational steps (`steps()`).
    fn steps(&self) -> Steps;

    /// How many times `next` runs per transit (individual) or per sample
    /// (collective) at `step` (`sampleSize(step)`, the paper's `m_i`).
    fn sample_size(&self, step: usize) -> usize;

    /// Individual or collective transit sampling (`samplingType()`).
    fn sampling_type(&self) -> SamplingType {
        SamplingType::Individual
    }

    /// Whether the vertices sampled at `step` must be unique within each
    /// sample (`unique(step)`).
    fn unique(&self, _step: usize) -> bool {
        false
    }

    /// Samples one vertex (`next`), or `None` for the paper's `NULL`.
    fn next(&self, ctx: &mut NextCtx<'_>) -> Option<VertexId>;

    /// The number of transit vertices of each sample at step 0 (defaults to
    /// the number of initial vertices per sample).
    fn initial_transits(&self, initial_len: usize) -> usize {
        initial_len
    }

    /// The number of transit vertices of each sample at `step`.
    ///
    /// Default: the vertices added in the previous step all become
    /// transits — `Π mᵢ` for individual transit sampling and `mᵢ₋₁` for
    /// collective transit sampling, as §4.1 of the paper defines.
    /// Applications like multi-dimensional random walks override this to a
    /// constant.
    fn num_transits(&self, step: usize, initial_len: usize) -> usize {
        if step == 0 {
            self.initial_transits(initial_len)
        } else {
            match self.sampling_type() {
                SamplingType::Individual => {
                    self.num_transits(step - 1, initial_len) * self.sample_size(step - 1)
                }
                SamplingType::Collective => self.sample_size(step - 1),
            }
        }
    }

    /// Returns the `transit_idx`-th transit vertex of sample `s` at `step`
    /// (`stepTransits`).
    ///
    /// Default: the vertex added at position `transit_idx` of the previous
    /// step (or the initial vertices at step 0).
    fn step_transit(
        &self,
        step: usize,
        view: &dyn SampleView,
        transit_idx: usize,
        _rng: &mut RngStream,
    ) -> VertexId {
        let _ = step;
        view.prev_vertex(1, transit_idx)
    }

    /// Post-step hook for applications that mutate per-sample state (the
    /// multi-dimensional random walk replaces the chosen root with the new
    /// vertex). Called once per `(sample, transit)` after the step.
    fn update_roots(
        &self,
        _roots: &mut Vec<VertexId>,
        _step: usize,
        _transit: VertexId,
        _new_vertex: VertexId,
    ) {
    }

    /// Safety cap on steps for [`Steps::Infinite`] applications.
    fn max_steps_cap(&self) -> usize {
        512
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_graph::GraphBuilder;

    struct DummyView {
        prev: Vec<VertexId>,
        roots: Vec<VertexId>,
    }

    impl SampleView for DummyView {
        fn prev_vertex(&self, _back: usize, pos: usize) -> VertexId {
            self.prev.get(pos).copied().unwrap_or(NULL_VERTEX)
        }
        fn prev_len(&self, _back: usize) -> usize {
            self.prev.len()
        }
        fn len(&self) -> usize {
            self.prev.len()
        }
        fn roots(&self) -> &[VertexId] {
            &self.roots
        }
    }

    fn ctx_for<'a>(
        g: &'a Csr,
        view: &'a DummyView,
        transit: &'a [VertexId],
        trace: Option<&'a mut LaneTrace>,
    ) -> NextCtx<'a> {
        NextCtx {
            step: 0,
            sample_id: 0,
            slot: 0,
            graph: g,
            source: EdgeSource::Transit {
                transit: transit[0],
            },
            transits: transit,
            view,
            rng: RngStream::new(1, 0, 0, 0),
            cost: EdgeCost::Shared,
            cached_len: usize::MAX,
            trace,
            graph_cols_base: 0x1000,
            new_edges: Vec::new(),
        }
    }

    fn small_graph() -> Csr {
        GraphBuilder::new(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(1, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn ctx_edge_access_and_trace() {
        let g = small_graph();
        let view = DummyView {
            prev: vec![0],
            roots: vec![],
        };
        let mut trace = LaneTrace::new();
        let transits = [0u32];
        let mut ctx = ctx_for(&g, &view, &transits, Some(&mut trace));
        assert_eq!(ctx.num_edges(), 3);
        assert_eq!(ctx.src_edge(0), 1);
        assert_eq!(ctx.src_edge(2), 3);
        assert!(ctx.has_edge(0, 2));
        assert!(!ctx.has_edge(1, 3));
        drop(ctx);
        assert!(trace.len() >= 5, "accesses recorded: {}", trace.len());
        assert!(trace.ops().iter().any(|o| matches!(o, LaneOp::SharedLoad)));
    }

    #[test]
    fn ctx_cache_overflow_costs_global() {
        let g = small_graph();
        let view = DummyView {
            prev: vec![0],
            roots: vec![],
        };
        let mut trace = LaneTrace::new();
        let transits = [0u32];
        let mut ctx = ctx_for(&g, &view, &transits, Some(&mut trace));
        ctx.cached_len = 1;
        let _ = ctx.src_edge(0); // cached -> shared
        let _ = ctx.src_edge(2); // beyond cache -> global
        drop(ctx);
        let ops = trace.ops();
        assert!(matches!(ops[0], LaneOp::SharedLoad));
        assert!(matches!(ops[1], LaneOp::GlobalLoad { .. }));
    }

    #[test]
    fn rng_stream_deterministic_and_slot_keyed() {
        let mut a = RngStream::new(7, 3, 2, 1);
        let mut b = RngStream::new(7, 3, 2, 1);
        assert_eq!(a.next_u32(), b.next_u32());
        assert_eq!(a.next_f32(), b.next_f32());
        let mut c = RngStream::new(7, 3, 2, 2);
        let mut a2 = RngStream::new(7, 3, 2, 1);
        assert_ne!(a2.next_u32(), c.next_u32());
    }

    #[test]
    fn default_num_transits_is_product_of_sizes() {
        struct App;
        impl SamplingApp for App {
            fn name(&self) -> &'static str {
                "t"
            }
            fn steps(&self) -> Steps {
                Steps::Fixed(2)
            }
            fn sample_size(&self, step: usize) -> usize {
                if step == 0 {
                    25
                } else {
                    10
                }
            }
            fn next(&self, _: &mut NextCtx<'_>) -> Option<VertexId> {
                None
            }
        }
        let app = App;
        assert_eq!(app.num_transits(0, 1), 1);
        assert_eq!(app.num_transits(1, 1), 25);
        assert_eq!(app.num_transits(2, 1), 250);
    }

    #[test]
    fn null_vertex_is_max() {
        assert_eq!(NULL_VERTEX, u32::MAX);
    }

    #[test]
    fn add_edge_accumulates() {
        let g = small_graph();
        let view = DummyView {
            prev: vec![0],
            roots: vec![],
        };
        let transits = [0u32];
        let mut ctx = ctx_for(&g, &view, &transits, None);
        ctx.add_edge(0, 1);
        ctx.add_edge(0, 2);
        assert_eq!(ctx.take_new_edges(), vec![(0, 1), (0, 2)]);
        assert!(ctx.take_new_edges().is_empty());
    }
}
