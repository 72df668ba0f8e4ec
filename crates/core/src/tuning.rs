//! Profile-guided autotuning and cross-query hot-transit caching.
//!
//! The paper fixes its load-balancing parameters once for all workloads:
//! transits become sub-warp work up to 32 threads, thread-block work up to
//! 1024, grid work above (Table 2); the block kernels always launch 1024
//! threads; and the scheduling index always radix-sorts with a key range of
//! `num_vertices`. The key range is a cost lever the per-kernel profiler can
//! judge, so a session that answers repeated queries over one graph can do
//! better: an [`AutoTuner`] consumes the [`RunProfile`]s of a session's first
//! queries and derives a per-workload [`TuningPlan`], which the engine's
//! scheduling step honors on subsequent queries. A [`HotTransitCache`]
//! additionally keeps the adjacency slices and scheduling indices of
//! frequently-hit transits resident across queries, so the warm path skips
//! the preload traffic and index rebuilds it would otherwise repeat every
//! query.
//!
//! # Determinism
//!
//! Tuning never changes samples. Every sampled value is produced by
//! [`run_next_individual`](crate::engine)'s counter-keyed RNG, addressed by
//! `(seed, sample, step, slot)` — radix passes and cache hits only change
//! *at what cost* a lane runs, never which draws it makes. The plan itself
//! is derived only at query boundaries from completed profiles, so no
//! mid-query state ever feeds back into the run that produced it.
//! `tests/tuning.rs` proptests bit-identity against both plans and
//! `tests/determinism.rs` golden-pins a tuned session at every host thread
//! count. See `TUNING.md` for the knob and the signal that moves it.
//!
//! ```
//! use nextdoor_core::tuning::{AutoTuner, TunerConfig, TuningPlan};
//!
//! // Before any profile is observed the tuner proposes the paper's
//! // baseline: the full key range.
//! let tuner = AutoTuner::new(TunerConfig::default());
//! assert!(!tuner.ready());
//! assert_eq!(tuner.plan(), TuningPlan::default());
//! ```

use crate::engine::profile::{KernelPhase, RunProfile};
use crate::engine::scheduling::{KernelClasses, SchedulingIndex};
use crate::gpu_graph::GpuGraph;
use nextdoor_gpu::{DeviceBuffer, Gpu, LaunchConfig};
use nextdoor_graph::{Csr, VertexId};
use std::collections::BTreeMap;

/// The knob the [`AutoTuner`] moves, with the paper's fixed choice as the
/// default. A default plan reproduces the untuned engine
/// *byte-identically* — same launches, same counters, same samples — so
/// enabling tuning with a baseline plan is a no-op. The engine's
/// load-balancing parameters stay at the paper's values: a transit needing
/// at most 32 threads is sub-warp work and at most 1024 thread-block work
/// (Table 2), the block and grid kernels launch 1024-thread blocks, and the
/// sub-warp kernel's register preload expects four accesses per thread.
///
/// The knob is a **cost lever**: it sheds radix passes, but the sampled
/// values are a function of the RNG keying alone (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuningPlan {
    /// Bound the scheduling index's radix-sort key range by the **maximum
    /// live transit id** of the step instead of `num_vertices - 1`. A
    /// tighter bound can only shed whole radix passes (the sort is stable
    /// and its output is identical), so this knob is never worse.
    pub tight_key_range: bool,
}

/// When the [`AutoTuner`] starts acting on its observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// Queries to observe before the derived plan leaves the baseline
    /// ([`AutoTuner::ready`]).
    pub warmup_queries: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig { warmup_queries: 2 }
    }
}

/// Minimum scheduling share of total time before the tight key-range knob
/// engages (it is never worse, but below this share it cannot matter
/// either).
const MIN_SCHEDULING_SHARE: f64 = 0.02;

/// Derives a [`TuningPlan`] from observed [`RunProfile`]s.
///
/// The tuner accumulates the simulated milliseconds of every observed
/// kernel and of the scheduling-index kernels among them, and engages the
/// tight key range once scheduling is a visible share of the total. The
/// signal→knob mapping is documented in `TUNING.md`.
#[derive(Debug, Clone, Default)]
pub struct AutoTuner {
    cfg: TunerConfig,
    observed: u64,
    total_ms: f64,
    scheduling_ms: f64,
}

impl AutoTuner {
    /// A tuner with the given warm-up and nothing observed yet.
    pub fn new(cfg: TunerConfig) -> Self {
        AutoTuner {
            cfg,
            ..AutoTuner::default()
        }
    }

    /// Folds one completed query's profile into the evidence. Call only at
    /// query boundaries — [`AutoTuner::plan`] never sees a partial run.
    pub fn observe(&mut self, profile: &RunProfile) {
        for k in &profile.kernels {
            self.total_ms += k.ms;
            if k.phase == KernelPhase::Scheduling {
                self.scheduling_ms += k.ms;
            }
        }
        self.observed += 1;
    }

    /// Queries observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Whether enough queries were observed for the plan to leave the
    /// baseline.
    pub fn ready(&self) -> bool {
        self.observed >= self.cfg.warmup_queries
    }

    /// Derives the plan the evidence supports. Before
    /// [`AutoTuner::ready`], this is the baseline plan.
    pub fn plan(&self) -> TuningPlan {
        // Tight key range: sheds whole radix passes with identical output,
        // so engage whenever scheduling time is visible at all.
        TuningPlan {
            tight_key_range: self.ready()
                && self.total_ms > 0.0
                && self.scheduling_ms / self.total_ms >= MIN_SCHEDULING_SHARE,
        }
    }
}

/// Promotion policy of the [`HotTransitCache`]. Its sizes are fixed:
/// the adjacency arena holds at most 65,536 device words and 512
/// transits, and the scheduling-index memo at most 65,536 live pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Minimum observed touches before a transit is promoted.
    pub min_hits: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { min_hits: 3 }
    }
}

/// Device words (`u32` column entries) the adjacency arena may hold.
const ARENA_MAX_WORDS: usize = 1 << 16;

/// Maximum arena-resident transits, regardless of their sizes.
const ARENA_MAX_ENTRIES: usize = 512;

/// Total live pairs the scheduling-index memo may retain across all of its
/// entries; once the budget is spent, further steps are rebuilt every
/// query (first-stored entries are kept — in serving traffic those are the
/// recurring ones).
const MEMO_MAX_PAIRS: usize = 1 << 16;

/// Deterministic counters of the cache's behaviour. `hits`/`misses` count
/// transit segments served per step; everything else counts maintenance
/// events at query boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Transit segments whose adjacency was arena-resident when a sampling
    /// kernel ran (the kernel skipped its preload loads).
    pub hits: u64,
    /// Transit segments served without residency.
    pub misses: u64,
    /// Transits promoted into the arena.
    pub installs: u64,
    /// Transits demoted out of the arena.
    pub evictions: u64,
    /// Maintenance passes that found no device memory for the arena and
    /// fell back to the uncached path (samples are unaffected).
    pub pressure_fallbacks: u64,
    /// Steps whose scheduling index was reused from the memo (the sort /
    /// scan / compact / partition launches were skipped entirely).
    pub sched_reuses: u64,
    /// Steps whose scheduling index was built on the device.
    pub sched_builds: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 before any segment was served.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// One memoised scheduling index: valid only for an identical live-pair
/// set and sample size. Keyed by content hash, so a
/// request stream that replays earlier queries (every epoch of a training
/// loop resubmits the same mini-batches) reuses its indices no matter how
/// the repeats interleave.
#[derive(Debug, Clone)]
struct SchedMemo {
    pairs: Vec<(VertexId, u32)>,
    m: usize,
    index: SchedulingIndex,
    classes: KernelClasses,
}

/// FNV-1a over the memo identity; collisions are disambiguated by the
/// exact-match check in [`HotTransitCache::lookup_sched`].
fn memo_key(pairs: &[(VertexId, u32)], m: usize) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    for v in [m as u64, pairs.len() as u64] {
        h = (h ^ v).wrapping_mul(PRIME);
    }
    for &(t, s) in pairs {
        h = (h ^ ((u64::from(t) << 32) | u64::from(s))).wrapping_mul(PRIME);
    }
    h
}

/// Cross-query residency for frequently-hit transits.
///
/// The engine's §6 caches (registers, shared memory) live and die with one
/// kernel launch; a session answering repeated traffic re-loads the same
/// hub adjacencies every query. This cache keeps the hottest transits'
/// adjacency slices in a device arena across queries — kernels that find
/// their transit resident skip the global preload loads — and memoises
/// per-step scheduling indices so a query whose live pairs repeat an
/// earlier query's (every epoch of a training loop replays its root set)
/// skips the sort/scan/compact/partition launches outright.
///
/// Promotion and eviction happen **only at query boundaries**, from
/// deterministically-accumulated frequency counts, so cache state is a
/// pure function of the query history — bit-identical at any host thread
/// count. When the arena allocation fails under memory pressure the cache
/// falls back to the uncached path and counts a
/// [`pressure_fallback`](CacheStats::pressure_fallbacks); samples are
/// never affected.
#[derive(Debug, Default)]
pub struct HotTransitCache {
    cfg: CacheConfig,
    resident: Vec<VertexId>,
    resident_words: usize,
    arena: Option<DeviceBuffer<u32>>,
    freq: BTreeMap<VertexId, u64>,
    memo: BTreeMap<u64, SchedMemo>,
    memo_pairs: usize,
    stats: CacheStats,
}

impl HotTransitCache {
    /// An empty cache with the given policy.
    pub fn new(cfg: CacheConfig) -> Self {
        HotTransitCache {
            cfg,
            ..HotTransitCache::default()
        }
    }

    /// The cache's behaviour counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The policy this cache runs under.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Transits currently arena-resident, ascending.
    pub fn resident(&self) -> &[VertexId] {
        &self.resident
    }

    /// Device words the arena currently holds.
    pub fn resident_words(&self) -> usize {
        self.resident_words
    }

    /// Records one step's transit→samples map: bumps each transit's
    /// frequency by its pair count and counts residency hits/misses.
    pub(crate) fn note_index(&mut self, index: &SchedulingIndex) {
        for seg in &index.segments {
            *self.freq.entry(seg.transit).or_insert(0) += seg.count as u64;
            if self.resident.binary_search(&seg.transit).is_ok() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
        }
    }

    /// Returns the memoised scheduling index for this live-pair set and
    /// sample size, if one is retained.
    pub(crate) fn lookup_sched(
        &mut self,
        pairs: &[(VertexId, u32)],
        m: usize,
    ) -> Option<(SchedulingIndex, KernelClasses)> {
        let e = self.memo.get(&memo_key(pairs, m))?;
        if e.m == m && e.pairs == pairs {
            self.stats.sched_reuses += 1;
            Some((e.index.clone(), e.classes.clone()))
        } else {
            None
        }
    }

    /// Memoises a freshly-built scheduling index, if the pair budget
    /// allows.
    pub(crate) fn store_sched(
        &mut self,
        pairs: &[(VertexId, u32)],
        m: usize,
        index: &SchedulingIndex,
        classes: &KernelClasses,
    ) {
        self.stats.sched_builds += 1;
        let key = memo_key(pairs, m);
        let replaced = self.memo.get(&key).map_or(0, |e| e.pairs.len());
        if self.memo_pairs - replaced + pairs.len() > MEMO_MAX_PAIRS {
            return;
        }
        self.memo_pairs = self.memo_pairs - replaced + pairs.len();
        self.memo.insert(
            key,
            SchedMemo {
                pairs: pairs.to_vec(),
                m,
                index: index.clone(),
                classes: classes.clone(),
            },
        );
    }

    /// Query-boundary maintenance: promotes the hottest transits into the
    /// arena, evicts the rest, charges the install transfer as a kernel,
    /// and ages the frequency counts. Runs on the session thread with no
    /// query in flight, so the next query sees a fixed cache state.
    pub(crate) fn maintain(&mut self, gpu: &mut Gpu, graph: &Csr, gg: &GpuGraph) {
        // Hottest first; ties broken by vertex id so the order is total.
        let mut cands: Vec<(u64, VertexId)> = self
            .freq
            .iter()
            .filter(|&(&t, &c)| c >= self.cfg.min_hits && graph.degree(t) > 0)
            .map(|(&t, &c)| (c, t))
            .collect();
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut new_set: Vec<VertexId> = Vec::new();
        let mut words = 0usize;
        for (_, t) in cands {
            let deg = graph.degree(t);
            if new_set.len() >= ARENA_MAX_ENTRIES {
                break;
            }
            if words + deg > ARENA_MAX_WORDS {
                continue;
            }
            words += deg;
            new_set.push(t);
        }
        new_set.sort_unstable();
        if new_set != self.resident {
            self.reinstall(gpu, graph, gg, new_set, words);
        }
        // Age the frequencies so the cache tracks shifting traffic.
        self.freq.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }

    /// Rebuilds the arena around `new_set`, charging one coalesced install
    /// pass for the transits that were not already resident.
    fn reinstall(
        &mut self,
        gpu: &mut Gpu,
        graph: &Csr,
        gg: &GpuGraph,
        new_set: Vec<VertexId>,
        words: usize,
    ) {
        let added: Vec<VertexId> = new_set
            .iter()
            .copied()
            .filter(|t| self.resident.binary_search(t).is_err())
            .collect();
        let evicted = self
            .resident
            .iter()
            .filter(|t| new_set.binary_search(t).is_err())
            .count() as u64;
        // Free the old arena before sizing the new one.
        self.arena = None;
        let arena = match gpu.try_alloc::<u32>(words.max(1)) {
            Ok(buf) => buf,
            Err(_) => {
                // Injected allocation faults must not leak into the next
                // query's step loop (it would discard a clean step).
                let _ = gpu.take_faults();
                self.stats.pressure_fallbacks += 1;
                self.resident.clear();
                self.resident_words = 0;
                return;
            }
        };
        // Arena offsets of every resident transit, in ascending-id order.
        let mut offsets = BTreeMap::new();
        let mut off = 0usize;
        for &t in &new_set {
            offsets.insert(t, off);
            off += graph.degree(t);
        }
        // One coalesced pass copies the *new* transits' slices in.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for &t in &added {
            let (start, _) = graph.adjacency_range(t);
            let base = offsets[&t];
            for i in 0..graph.degree(t) {
                src.push(start + i);
                dst.push(base + i);
            }
        }
        if !src.is_empty() {
            let n = src.len();
            gpu.launch("cache_install", LaunchConfig::grid1d(n, 256), |blk| {
                blk.for_each_warp(|w| {
                    let gid = w.global_thread_ids();
                    let m = w.mask_where(|l| gid[l] < n);
                    if m == 0 {
                        return;
                    }
                    let sidx = gid.map(|g| src[g.min(n - 1)]);
                    let v = w.ld_global(&gg.cols, &sidx, m);
                    let didx = gid.map(|g| dst[g.min(n - 1)]);
                    w.st_global(&arena, &didx, v, m);
                });
            });
        }
        self.stats.installs += added.len() as u64;
        self.stats.evictions += evicted;
        self.resident = new_set;
        self.resident_words = words;
        self.arena = Some(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::profile::KernelBreakdown;
    use nextdoor_gpu::GpuSpec;

    /// A one-query profile of `sched_ms` in the scheduling-index sort and
    /// `other_ms` in a sampling kernel.
    fn profile(sched_ms: f64, other_ms: f64) -> RunProfile {
        let kernel = |name: &str, phase, ms| KernelBreakdown {
            name: name.to_string(),
            phase,
            ms,
            ..KernelBreakdown::default()
        };
        RunProfile {
            kernels: vec![
                kernel("radix_histogram", KernelPhase::Scheduling, sched_ms),
                kernel("nextdoor_grid", KernelPhase::Grid, other_ms),
            ],
            ..RunProfile::default()
        }
    }

    #[test]
    fn tuner_stays_baseline_until_warm() {
        let mut t = AutoTuner::new(TunerConfig { warmup_queries: 2 });
        assert_eq!(t.plan(), TuningPlan::default());
        // Half the time is scheduling, but one query is not warm yet.
        t.observe(&profile(5.0, 5.0));
        assert!(!t.ready());
        assert_eq!(t.plan(), TuningPlan::default());
        t.observe(&profile(5.0, 5.0));
        assert!(t.ready());
        assert_eq!(t.observed(), 2);
        assert!(t.plan().tight_key_range);
    }

    #[test]
    fn tight_key_range_engages_at_the_scheduling_share_threshold() {
        let warm = |sched_ms, other_ms| {
            let mut t = AutoTuner::new(TunerConfig { warmup_queries: 1 });
            t.observe(&profile(sched_ms, other_ms));
            t.plan().tight_key_range
        };
        // 1 of 50 ms is exactly MIN_SCHEDULING_SHARE.
        assert_eq!(1.0 / 50.0, MIN_SCHEDULING_SHARE);
        assert!(warm(1.0, 49.0), "on at exactly the threshold");
        assert!(!warm(1.0, 49.001), "off just below it");
        assert!(!warm(0.0, 0.0), "an empty profile has no share");
    }

    #[test]
    fn maintain_promotes_and_evicts_deterministically() {
        use nextdoor_graph::gen::{rmat, RmatParams};
        // Far fewer than ARENA_MAX_WORDS column entries in total, so only
        // the entry cap can bind.
        let g = rmat(10, 8000, RmatParams::SKEWED, 3);
        let mut gpu = Gpu::new(GpuSpec::small());
        let gg = GpuGraph::upload(&mut gpu, &g).expect("graph fits");
        let mut cache = HotTransitCache::new(CacheConfig::default());
        let connected: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| g.degree(v) > 0)
            .take(ARENA_MAX_ENTRIES + 1)
            .collect();
        assert_eq!(
            connected.len(),
            ARENA_MAX_ENTRIES + 1,
            "rmat graph has enough connected vertices"
        );
        assert!(g.num_edges() <= ARENA_MAX_WORDS);
        let (last, hot) = connected.split_last().unwrap();
        for &v in hot {
            cache.freq.insert(v, 10);
        }
        cache.freq.insert(*last, 5);
        cache.maintain(&mut gpu, &g, &gg);
        assert_eq!(cache.resident(), hot, "the 512 hottest, ascending");
        assert_eq!(cache.stats().installs, ARENA_MAX_ENTRIES as u64);
        // A new hub overtakes: maintenance must evict to make room. Aging
        // left every resident transit at 5, so the highest id goes.
        cache.freq.insert(*last, 50);
        cache.maintain(&mut gpu, &g, &gg);
        let want: Vec<VertexId> = hot[..hot.len() - 1]
            .iter()
            .chain(std::iter::once(last))
            .copied()
            .collect();
        assert_eq!(cache.resident(), &want[..]);
        assert_eq!(cache.stats().installs, ARENA_MAX_ENTRIES as u64 + 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn maintenance_falls_back_under_memory_pressure() {
        use nextdoor_graph::gen::{rmat, RmatParams};
        let g = rmat(6, 400, RmatParams::SKEWED, 3);
        let mut gpu = Gpu::new(GpuSpec::small());
        let gg = GpuGraph::upload(&mut gpu, &g).expect("graph fits");
        let mut cache = HotTransitCache::new(CacheConfig { min_hits: 1 });
        for v in 0..g.num_vertices() as VertexId {
            cache.freq.insert(v, 10);
        }
        // Exhaust device memory in shrinking chunks so the arena's own
        // allocation cannot succeed.
        let mut hold = Vec::new();
        for sz in [1usize << 18, 1 << 12, 1 << 6, 1] {
            while let Ok(b) = gpu.try_alloc::<u32>(sz) {
                hold.push(b);
            }
        }
        let _ = gpu.take_faults();
        cache.maintain(&mut gpu, &g, &gg);
        assert!(
            cache.stats().pressure_fallbacks >= 1,
            "fallback is typed and counted"
        );
        assert!(
            cache.resident().is_empty(),
            "no partial residency after a failed install"
        );
        assert!(
            gpu.take_faults().is_empty(),
            "the failed install does not leak fault records into the next query"
        );
        // With memory back, the next maintenance pass succeeds.
        drop(hold);
        cache.maintain(&mut gpu, &g, &gg);
        assert!(!cache.resident().is_empty());
    }

    #[test]
    fn sched_memo_is_content_keyed_and_budgeted() {
        let mut cache = HotTransitCache::default();
        let index = SchedulingIndex::default();
        let classes = KernelClasses::default();
        // Two sets of half the budget each fill it exactly.
        let half = MEMO_MAX_PAIRS as u32 / 2;
        let a: Vec<(VertexId, u32)> = (0..half).map(|i| (i, i)).collect();
        let b: Vec<(VertexId, u32)> = (0..half).map(|i| (half + i, i)).collect();
        cache.store_sched(&a, 2, &index, &classes);
        cache.store_sched(&b, 2, &index, &classes);
        assert!(cache.lookup_sched(&a, 2).is_some());
        assert!(cache.lookup_sched(&b, 2).is_some());
        assert!(
            cache.lookup_sched(&a, 3).is_none(),
            "the sample size is part of the identity"
        );
        // Budget spent: a third distinct entry is not retained.
        let c = vec![(5u32, 0u32)];
        cache.store_sched(&c, 1, &index, &classes);
        assert!(cache.lookup_sched(&c, 1).is_none());
        assert_eq!(cache.stats().sched_builds, 3);
        assert_eq!(cache.stats().sched_reuses, 2);
    }

    #[test]
    fn cache_stats_hit_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
