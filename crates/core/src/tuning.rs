//! Profile-guided autotuning and cross-query hot-transit caching.
//!
//! The paper fixes its load-balancing parameters once for all workloads:
//! transits become sub-warp work up to 32 threads, thread-block work up to
//! 1024, grid work above (Table 2); the block kernels always launch 1024
//! threads; and the scheduling index always radix-sorts with a key range of
//! `num_vertices`. The block size and the key range are cost levers the
//! per-kernel profiler can judge, so a session that answers repeated queries
//! over one graph can do better: an [`AutoTuner`] consumes the
//! [`RunProfile`]s of a session's first queries and derives a per-workload
//! [`TuningPlan`], which the engine's planner and launch path honor on
//! subsequent queries. A [`HotTransitCache`] additionally keeps the
//! adjacency slices and scheduling indices of frequently-hit transits
//! resident across queries, so the warm path skips the preload traffic and
//! index rebuilds it would otherwise repeat every query.
//!
//! # Determinism
//!
//! Tuning never changes samples. Every sampled value is produced by
//! [`run_next_individual`](crate::engine)'s counter-keyed RNG, addressed by
//! `(seed, sample, step, slot)` — launch geometry, kernel-class assignment,
//! radix passes and cache hits only change *where* and *at what cost* a
//! lane runs, never which draws it makes. The plan itself is derived only
//! at query boundaries from completed profiles, so no mid-query state ever
//! feeds back into the run that produced it. `tests/tuning.rs` proptests
//! bit-identity against arbitrary valid plans and `tests/determinism.rs`
//! golden-pins a tuned session at every host thread count. See `TUNING.md`
//! for the full knob inventory and the signal→knob mapping.
//!
//! ```
//! use nextdoor_core::tuning::{AutoTuner, TunerConfig, TuningPlan};
//! use nextdoor_gpu::GpuSpec;
//!
//! // Before any profile is observed the tuner proposes the paper's
//! // baseline: Table 2 thresholds, 1024-thread blocks, full key range.
//! let tuner = AutoTuner::new(TunerConfig::default());
//! assert!(!tuner.ready());
//! assert_eq!(tuner.plan(&GpuSpec::small()), TuningPlan::default());
//! ```

use crate::engine::profile::{KernelPhase, RunProfile};
use crate::engine::scheduling::{KernelClasses, SchedulingIndex};
use crate::gpu_graph::GpuGraph;
use nextdoor_gpu::{DeviceBuffer, Gpu, GpuSpec, LaunchConfig, WARP_SIZE};
use nextdoor_graph::{Csr, VertexId};
use std::collections::BTreeMap;

/// The two knobs the [`AutoTuner`] moves, with the paper's fixed choices
/// as defaults. A default plan reproduces the untuned engine
/// *byte-identically* — same launches, same counters, same samples — so
/// enabling tuning with a baseline plan is a no-op. The engine's other
/// load-balancing parameters stay at the paper's values: a transit needing
/// at most [`WARP_SIZE`] threads is sub-warp work (Table 2), and the
/// sub-warp kernel's register preload expects four accesses per thread.
///
/// Both knobs are **cost levers**: they move work between kernel classes,
/// resize launches or shed radix passes, but the sampled values are a
/// function of the RNG keying alone (see the [module docs](self)). A plan
/// from an untrusted source should be passed through
/// [`TuningPlan::normalized`], which clamps every field into its valid
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningPlan {
    /// Threads per block of the thread-block and grid kernels, and the
    /// block-class cutoff: a transit needing at most this many threads
    /// (`count × m`) is thread-block work, above it the transit is split
    /// across the grid — the block kernel covers exactly one block of lanes
    /// per transit. The paper fixes it at 1024 (Table 2); smaller blocks
    /// spread a few huge transits over more SMs at the price of refilling
    /// the shared-memory cache per block.
    pub block_dim: usize,
    /// Bound the scheduling index's radix-sort key range by the **maximum
    /// live transit id** of the step instead of `num_vertices - 1`. A
    /// tighter bound can only shed whole radix passes (the sort is stable
    /// and its output is identical), so this knob is never worse.
    pub tight_key_range: bool,
}

impl Default for TuningPlan {
    fn default() -> Self {
        TuningPlan {
            block_dim: 1024,
            tight_key_range: false,
        }
    }
}

impl TuningPlan {
    /// Clamps `block_dim` to a warp multiple in `WARP_SIZE..=1024`, so the
    /// block cutoff never falls below the sub-warp one.
    ///
    /// ```
    /// use nextdoor_core::tuning::TuningPlan;
    /// let wild = TuningPlan {
    ///     block_dim: 100,
    ///     tight_key_range: true,
    /// };
    /// let p = wild.normalized();
    /// assert_eq!(p.block_dim, 96);
    /// assert_eq!(p.block_dim % 32, 0);
    /// ```
    #[must_use]
    pub fn normalized(mut self) -> Self {
        self.block_dim = (self.block_dim.clamp(WARP_SIZE, 1024) / WARP_SIZE) * WARP_SIZE;
        self
    }

    /// Whether this plan reproduces the untuned engine exactly.
    pub fn is_baseline(&self) -> bool {
        *self == TuningPlan::default()
    }
}

/// The profile signals the tuner accumulates across observed queries:
/// simulated milliseconds per kernel phase plus the SM-utilisation and
/// occupancy of the block/grid sampling kernels. Built from in-process
/// [`RunProfile`]s via [`ProfileSummary::observe`] or from an exported
/// `results/profile_*.json` via [`ProfileSummary::from_kernel_report_json`]
/// (the worked example in `TUNING.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileSummary {
    /// Total kernel milliseconds observed.
    pub total_ms: f64,
    /// Milliseconds spent building scheduling indices (sort, scan,
    /// compact, partition).
    pub scheduling_ms: f64,
    /// Milliseconds in the sub-warp sampling kernel.
    pub subwarp_ms: f64,
    /// Milliseconds in the thread-block sampling kernels.
    pub block_ms: f64,
    /// Milliseconds in the grid sampling kernel.
    pub grid_ms: f64,
    /// ms-weighted SM busy fraction (0..=1) of the block/grid kernels.
    pub bg_sm_utilization: f64,
    /// ms-weighted achieved occupancy (0..=1) of the block/grid kernels.
    pub bg_occupancy: f64,
    /// Profiles folded into this summary.
    pub runs: u64,
}

impl ProfileSummary {
    /// Folds one run's per-kernel breakdown into the summary.
    pub fn observe(&mut self, profile: &RunProfile) {
        let mut bg_ms = 0.0f64;
        let mut bg_util = 0.0f64;
        let mut bg_occ = 0.0f64;
        for k in &profile.kernels {
            self.total_ms += k.ms;
            match k.phase {
                KernelPhase::Scheduling => self.scheduling_ms += k.ms,
                KernelPhase::SubWarp => self.subwarp_ms += k.ms,
                KernelPhase::Block => self.block_ms += k.ms,
                KernelPhase::Grid => self.grid_ms += k.ms,
                _ => {}
            }
            if matches!(k.phase, KernelPhase::Block | KernelPhase::Grid) {
                let util = if k.counters.sm_total_cycles > 0.0 {
                    k.counters.sm_busy_cycles / k.counters.sm_total_cycles
                } else {
                    1.0
                };
                bg_ms += k.ms;
                bg_util += util * k.ms;
                bg_occ += k.avg_occupancy * k.ms;
            }
        }
        if bg_ms > 0.0 {
            // Fold the new ms-weighted averages into the running ones.
            let prev_ms = self.prev_bg_ms(bg_ms);
            self.bg_sm_utilization =
                (self.bg_sm_utilization * prev_ms + bg_util) / (prev_ms + bg_ms);
            self.bg_occupancy = (self.bg_occupancy * prev_ms + bg_occ) / (prev_ms + bg_ms);
        }
        self.runs += 1;
    }

    /// Block+grid milliseconds accumulated *before* the current
    /// observation (the running averages' weight).
    fn prev_bg_ms(&self, new_bg_ms: f64) -> f64 {
        (self.block_ms + self.grid_ms - new_bg_ms).max(0.0)
    }

    /// Fraction of observed time spent building scheduling indices.
    pub fn scheduling_share(&self) -> f64 {
        if self.total_ms > 0.0 {
            self.scheduling_ms / self.total_ms
        } else {
            0.0
        }
    }

    /// Fraction of observed time in the block/grid sampling kernels.
    pub fn block_grid_share(&self) -> f64 {
        if self.total_ms > 0.0 {
            (self.block_ms + self.grid_ms) / self.total_ms
        } else {
            0.0
        }
    }

    /// Parses a `results/profile_<label>.json` file written by
    /// [`nextdoor_gpu::write_kernel_report`] into a summary, using the same
    /// kernel-name → phase mapping as the in-process profiler. The parser
    /// accepts exactly the report writer's output shape (an object with a
    /// `"kernels"` array); it is not a general JSON parser.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found — no
    /// `"kernels"` array, a kernel entry without `name`/`ms`, or an `ms`
    /// that is negative or not finite.
    pub fn from_kernel_report_json(json: &str) -> Result<ProfileSummary, String> {
        let kernels_at = json
            .find("\"kernels\"")
            .ok_or_else(|| "no \"kernels\" array in report".to_string())?;
        let rest = &json[kernels_at..];
        let open = rest
            .find('[')
            .ok_or_else(|| "\"kernels\" is not an array".to_string())?;
        let body = &rest[open + 1..];
        let close = body
            .find(']')
            .ok_or_else(|| "unterminated \"kernels\" array".to_string())?;
        let body = &body[..close];
        let mut s = ProfileSummary::default();
        let mut bg_ms = 0.0f64;
        let mut bg_util = 0.0f64;
        let mut bg_occ = 0.0f64;
        for entry in body.split("{\"name\"").skip(1) {
            let name = json_str_field(&format!("{{\"name\"{entry}"), "name")
                .ok_or_else(|| "kernel entry without a name".to_string())?;
            let ms = json_num_field(entry, "ms")
                .ok_or_else(|| format!("kernel {name:?} has no \"ms\" field"))?;
            if !(ms.is_finite() && ms >= 0.0) {
                return Err(format!("kernel {name:?} has an invalid \"ms\" of {ms}"));
            }
            s.total_ms += ms;
            let phase = crate::engine::profile::classify_kernel(&name);
            match phase {
                KernelPhase::Scheduling => s.scheduling_ms += ms,
                KernelPhase::SubWarp => s.subwarp_ms += ms,
                KernelPhase::Block => s.block_ms += ms,
                KernelPhase::Grid => s.grid_ms += ms,
                _ => {}
            }
            if matches!(phase, KernelPhase::Block | KernelPhase::Grid) {
                // `multiprocessor_activity` is a percentage in the report.
                let util = json_num_field(entry, "multiprocessor_activity")
                    .map_or(1.0, |p| (p / 100.0).clamp(0.0, 1.0));
                let occ = json_num_field(entry, "avg_occupancy").unwrap_or(1.0);
                bg_ms += ms;
                bg_util += util * ms;
                bg_occ += occ * ms;
            }
        }
        if bg_ms > 0.0 {
            s.bg_sm_utilization = bg_util / bg_ms;
            s.bg_occupancy = bg_occ / bg_ms;
        }
        s.runs = 1;
        Ok(s)
    }
}

/// Extracts `"field":"value"` from a JSON fragment.
fn json_str_field(fragment: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\":\"");
    let at = fragment.find(&key)? + key.len();
    let end = fragment[at..].find('"')?;
    Some(fragment[at..at + end].to_string())
}

/// Extracts `"field":<number>` from a JSON fragment.
fn json_num_field(fragment: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = fragment.find(&key)? + key.len();
    let tail = &fragment[at..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
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

/// SM busy fraction of the block/grid kernels below which the tuner
/// considers them imbalanced (a few huge transits hogging few SMs).
const LOW_SM_UTILIZATION: f64 = 0.5;

/// Block/grid share of total time below which the tuner leaves the block
/// geometry alone regardless of utilisation.
const MIN_BLOCK_GRID_SHARE: f64 = 0.25;

/// Derives a [`TuningPlan`] from observed [`RunProfile`]s.
///
/// The tuner is deliberately conservative: it only moves a knob off the
/// baseline when the profile shows the knob's cost is material *and* the
/// move is predicted (or guaranteed) not to regress — the `tune_bench`
/// gate holds autotuned throughput to ≥ default across the whole
/// benchmark suite. The signal→knob mapping is documented in `TUNING.md`.
#[derive(Debug, Clone, Default)]
pub struct AutoTuner {
    cfg: TunerConfig,
    summary: ProfileSummary,
    observed: u64,
}

impl AutoTuner {
    /// A tuner with the given warm-up and nothing observed yet.
    pub fn new(cfg: TunerConfig) -> Self {
        AutoTuner {
            cfg,
            summary: ProfileSummary::default(),
            observed: 0,
        }
    }

    /// Folds one completed query's profile into the evidence. Call only at
    /// query boundaries — [`AutoTuner::plan`] never sees a partial run.
    pub fn observe(&mut self, profile: &RunProfile) {
        self.summary.observe(profile);
        self.observed += 1;
    }

    /// Folds an externally-parsed summary (e.g. from
    /// [`ProfileSummary::from_kernel_report_json`]) into the evidence.
    pub fn observe_summary(&mut self, summary: &ProfileSummary) {
        let mut s = *summary;
        // Merge by simple accumulation; the averages re-weight by ms.
        let bg_ms = s.block_ms + s.grid_ms;
        let prev_bg = self.summary.block_ms + self.summary.grid_ms;
        if prev_bg + bg_ms > 0.0 {
            s.bg_sm_utilization = (self.summary.bg_sm_utilization * prev_bg
                + s.bg_sm_utilization * bg_ms)
                / (prev_bg + bg_ms);
            s.bg_occupancy =
                (self.summary.bg_occupancy * prev_bg + s.bg_occupancy * bg_ms) / (prev_bg + bg_ms);
        }
        self.summary = ProfileSummary {
            total_ms: self.summary.total_ms + s.total_ms,
            scheduling_ms: self.summary.scheduling_ms + s.scheduling_ms,
            subwarp_ms: self.summary.subwarp_ms + s.subwarp_ms,
            block_ms: self.summary.block_ms + s.block_ms,
            grid_ms: self.summary.grid_ms + s.grid_ms,
            bg_sm_utilization: s.bg_sm_utilization,
            bg_occupancy: s.bg_occupancy,
            runs: self.summary.runs + s.runs,
        };
        self.observed += s.runs;
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

    /// The accumulated evidence.
    pub fn summary(&self) -> &ProfileSummary {
        &self.summary
    }

    /// Derives the plan the evidence supports. Before
    /// [`AutoTuner::ready`], this is the baseline plan.
    pub fn plan(&self, spec: &GpuSpec) -> TuningPlan {
        let mut plan = TuningPlan::default();
        if !self.ready() {
            return plan;
        }
        let s = &self.summary;
        // Tight key range: sheds whole radix passes with identical output,
        // so engage whenever scheduling time is visible at all.
        if s.scheduling_share() >= MIN_SCHEDULING_SHARE {
            plan.tight_key_range = true;
        }
        // Block geometry: when the block/grid kernels are a material share
        // of the run but leave most SMs idle, a few huge transits are each
        // pinned to one block — halving the block splits them across twice
        // as many SMs. Only do it when the spec says the smaller block
        // does not lose occupancy.
        if s.block_grid_share() >= MIN_BLOCK_GRID_SHARE
            && s.bg_sm_utilization < LOW_SM_UTILIZATION
            && spec.occupancy(512, 0) >= spec.occupancy(1024, 0)
        {
            plan.block_dim = 512;
        }
        plan
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
/// set under an identical block size. Keyed by content hash, so a
/// request stream that replays earlier queries (every epoch of a training
/// loop resubmits the same mini-batches) reuses its indices no matter how
/// the repeats interleave.
#[derive(Debug, Clone)]
struct SchedMemo {
    pairs: Vec<(VertexId, u32)>,
    m: usize,
    block_dim: usize,
    index: SchedulingIndex,
    classes: KernelClasses,
}

/// FNV-1a over the memo identity; collisions are disambiguated by the
/// exact-match check in [`HotTransitCache::lookup_sched`].
fn memo_key(pairs: &[(VertexId, u32)], m: usize, block_dim: usize) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    for v in [m as u64, block_dim as u64, pairs.len() as u64] {
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
    /// this block size, if one is retained.
    pub(crate) fn lookup_sched(
        &mut self,
        pairs: &[(VertexId, u32)],
        m: usize,
        block_dim: usize,
    ) -> Option<(SchedulingIndex, KernelClasses)> {
        let e = self.memo.get(&memo_key(pairs, m, block_dim))?;
        if e.m == m && e.block_dim == block_dim && e.pairs == pairs {
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
        block_dim: usize,
        index: &SchedulingIndex,
        classes: &KernelClasses,
    ) {
        self.stats.sched_builds += 1;
        let key = memo_key(pairs, m, block_dim);
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
                block_dim,
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

    #[test]
    fn default_plan_is_baseline() {
        let p = TuningPlan::default();
        assert!(p.is_baseline());
        assert_eq!(p, p.normalized());
    }

    #[test]
    fn normalized_restores_invariants() {
        let p = TuningPlan {
            block_dim: 33,
            tight_key_range: false,
        }
        .normalized();
        assert_eq!(p.block_dim, 32);
        let p = TuningPlan {
            block_dim: 9999,
            tight_key_range: true,
        }
        .normalized();
        assert_eq!(p.block_dim, 1024);
    }

    #[test]
    fn tuner_stays_baseline_until_warm() {
        let spec = GpuSpec::small();
        let mut t = AutoTuner::new(TunerConfig::default());
        assert!(t.plan(&spec).is_baseline());
        let s = ProfileSummary {
            total_ms: 10.0,
            scheduling_ms: 5.0,
            runs: 1,
            ..ProfileSummary::default()
        };
        t.observe_summary(&s);
        assert!(!t.ready());
        assert!(t.plan(&spec).is_baseline());
        t.observe_summary(&s);
        assert!(t.ready());
        let p = t.plan(&spec);
        assert!(p.tight_key_range, "half the time is scheduling");
        assert_eq!(p.block_dim, 1024, "no block/grid evidence");
    }

    #[test]
    fn tuner_halves_blocks_on_low_sm_utilization() {
        let spec = GpuSpec::small();
        let mut t = AutoTuner::new(TunerConfig { warmup_queries: 1 });
        let s = ProfileSummary {
            total_ms: 10.0,
            grid_ms: 8.0,
            bg_sm_utilization: 0.2,
            bg_occupancy: 0.9,
            runs: 1,
            ..ProfileSummary::default()
        };
        t.observe_summary(&s);
        let p = t.plan(&spec);
        assert_eq!(p.block_dim, 512);
    }

    #[test]
    fn kernel_report_parser_reads_the_writer_shape() {
        let json = r#"{
  "device": {"num_sms": 8, "clock_ghz": 1.38},
  "kernels": [
    {"name":"radix_histogram","launches":6,"cycles":1000.000,"ms":0.100000,"avg_occupancy":1.0000,"max_shared_mem_bytes":0,"counters":{"gld_requests":1,"multiprocessor_activity":80.00}},
    {"name":"nextdoor_grid","launches":2,"cycles":9000.000,"ms":0.900000,"avg_occupancy":0.5000,"max_shared_mem_bytes":4096,"counters":{"gld_requests":9,"multiprocessor_activity":25.00}}
  ],
  "transfers": {"count":0,"htod_bytes":0,"dtoh_bytes":0,"cycles":0.000}
}"#;
        let s = ProfileSummary::from_kernel_report_json(json).expect("parses");
        assert!((s.total_ms - 1.0).abs() < 1e-9);
        assert!((s.scheduling_ms - 0.1).abs() < 1e-9);
        assert!((s.grid_ms - 0.9).abs() < 1e-9);
        assert!((s.bg_sm_utilization - 0.25).abs() < 1e-9);
        assert!((s.bg_occupancy - 0.5).abs() < 1e-9);
        assert!(ProfileSummary::from_kernel_report_json("{}").is_err());
        // Malformed or hostile reports are errors, never panics.
        for bad in [
            r#"{"kernels"]["#,
            r#"{"kernels": ] , "x": ["#,
            r#"{"kernels":[{"name":"nextdoor_grid","ms":1e400}]}"#,
            r#"{"kernels":[{"name":"nextdoor_grid","ms":-5}]}"#,
        ] {
            assert!(
                ProfileSummary::from_kernel_report_json(bad).is_err(),
                "{bad} must be rejected"
            );
        }
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
        cache.store_sched(&a, 2, 1024, &index, &classes);
        cache.store_sched(&b, 2, 1024, &index, &classes);
        assert!(cache.lookup_sched(&a, 2, 1024).is_some());
        assert!(cache.lookup_sched(&b, 2, 1024).is_some());
        assert!(
            cache.lookup_sched(&a, 2, 512).is_none(),
            "the block size is part of the identity"
        );
        // Budget spent: a third distinct entry is not retained.
        let c = vec![(5u32, 0u32)];
        cache.store_sched(&c, 1, 1024, &index, &classes);
        assert!(cache.lookup_sched(&c, 1, 1024).is_none());
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
