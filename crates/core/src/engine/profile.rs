//! Engine-level cost attribution built from the device profile.
//!
//! The device records a raw
//! [`KernelRecord`](nextdoor_gpu::profile::KernelRecord) per launch (see
//! [`nextdoor_gpu::profile`]); this module lifts that stream to the
//! engine's vocabulary: every kernel name is classified into a
//! [`KernelPhase`] (scheduling-index construction, the three Table 2
//! sampling classes, the SP baseline, transit computation, collective
//! builds, post-processing), and a [`RunProfile`] aggregates the run's
//! records per kernel. The per-kernel counter deltas sum exactly to the
//! run's global [`Counters`] — tests assert this conservation property
//! for every engine.

use nextdoor_gpu::{summarize_kernels, Counters, Gpu};

/// Which stage of the sampling pipeline a kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPhase {
    /// Scheduling-index construction: radix sort, run-length pass, scans
    /// and the class partition (Figure 6's second component).
    Scheduling,
    /// The `stepTransits` kernel reading the previous step's vertices.
    Transit,
    /// The sub-warp sampling kernel (Table 2, row 3).
    SubWarp,
    /// Thread-block sampling kernels (Table 2, row 2; also vanilla TP).
    Block,
    /// The grid sampling kernel (Table 2, row 1).
    Grid,
    /// The fine-grained sample-parallel baseline kernel (§5.1).
    SampleParallel,
    /// Collective-neighbourhood builds and the collective `next` kernel.
    Collective,
    /// Post-processing (unique-neighbour deduplication).
    PostProcess,
    /// Any kernel the engines do not launch themselves.
    #[default]
    Other,
}

impl KernelPhase {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        match self {
            KernelPhase::Scheduling => "scheduling",
            KernelPhase::Transit => "transit",
            KernelPhase::SubWarp => "sub-warp",
            KernelPhase::Block => "block",
            KernelPhase::Grid => "grid",
            KernelPhase::SampleParallel => "sample-parallel",
            KernelPhase::Collective => "collective",
            KernelPhase::PostProcess => "post-process",
            KernelPhase::Other => "other",
        }
    }

    /// Whether the phase runs user `next` code (as opposed to scheduling
    /// or bookkeeping).
    pub fn is_sampling(self) -> bool {
        matches!(
            self,
            KernelPhase::SubWarp
                | KernelPhase::Block
                | KernelPhase::Grid
                | KernelPhase::SampleParallel
                | KernelPhase::Collective
        )
    }
}

/// Classifies a kernel launch name into its pipeline phase.
pub fn classify_kernel(name: &str) -> KernelPhase {
    match name {
        "radix_single_tile" | "radix_histogram" | "radix_scan_bins" | "radix_scatter"
        | "scan_init" | "scan_tiles" | "rle_init" | "rle_sweep" | "histogram"
        | "partition_transits" => KernelPhase::Scheduling,
        "step_transits" => KernelPhase::Transit,
        "nextdoor_subwarp" => KernelPhase::SubWarp,
        "nextdoor_block" | "tp_block" => KernelPhase::Block,
        "nextdoor_grid" => KernelPhase::Grid,
        "sp_sample" => KernelPhase::SampleParallel,
        "collective_next" | "nd_combined_build" | "sp_combined_build" => KernelPhase::Collective,
        "unique_dedup" | "cache_install" => KernelPhase::PostProcess,
        _ => KernelPhase::Other,
    }
}

/// Aggregate of one kernel name within a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelBreakdown {
    /// Kernel name as launched.
    pub name: String,
    /// Pipeline phase of the kernel.
    pub phase: KernelPhase,
    /// Number of launches.
    pub launches: u64,
    /// Total simulated cycles.
    pub cycles: f64,
    /// Total simulated milliseconds.
    pub ms: f64,
    /// Summed counter deltas of the launches.
    pub counters: Counters,
    /// Launch-averaged achieved occupancy, in `[0, 1]`.
    pub avg_occupancy: f64,
}

/// The per-kernel breakdown of one engine run.
///
/// Empty for the CPU reference engine. When the device's bounded profile
/// ring evicted some of this run's records
/// ([`in_run_evicted`](Self::in_run_evicted) is non-zero) the breakdown
/// covers only the surviving records; the evicted cost is still present
/// in the run's global counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Whole-run per-kernel aggregates, ordered by cycles (descending).
    pub kernels: Vec<KernelBreakdown>,
    /// This run's kernel records the profile ring had already evicted when
    /// the breakdown was built (0 exactly when the breakdown is complete).
    pub in_run_evicted: u64,
}

impl RunProfile {
    /// Total simulated milliseconds attributed to `phase`.
    pub fn phase_ms(&self, phase: KernelPhase) -> f64 {
        self.kernels
            .iter()
            .filter(|k| k.phase == phase)
            .map(|k| k.ms)
            .sum()
    }

    /// Total kernel launches in the breakdown.
    pub fn total_launches(&self) -> u64 {
        self.kernels.iter().map(|k| k.launches).sum()
    }

    /// Summed counter deltas of every kernel in the breakdown.
    pub fn total_counters(&self) -> Counters {
        let mut c = Counters::default();
        for k in &self.kernels {
            c.merge(&k.counters);
        }
        c
    }

    /// Builds the breakdown from the device profile: the records of the
    /// launches issued since `launch0` ([`Gpu::launches_issued`] sampled
    /// when the run started), aggregated by [`summarize_kernels`] and
    /// labelled with their phase and simulated milliseconds.
    pub(crate) fn from_device(gpu: &Gpu, launch0: u64) -> Self {
        let (records, in_run_evicted) = gpu.profile().kernels_in(launch0..gpu.launches_issued());
        let spec = gpu.spec();
        let kernels = summarize_kernels(records)
            .into_iter()
            .map(|s| KernelBreakdown {
                phase: classify_kernel(&s.name),
                ms: spec.cycles_to_ms(s.cycles),
                name: s.name,
                launches: s.launches,
                cycles: s.cycles,
                counters: s.counters,
                avg_occupancy: s.avg_occupancy,
            })
            .collect();
        RunProfile {
            kernels,
            in_run_evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_engine_kernels() {
        for name in [
            "radix_single_tile",
            "radix_scan_bins",
            "scan_tiles",
            "rle_sweep",
        ] {
            assert_eq!(classify_kernel(name), KernelPhase::Scheduling, "{name}");
        }
        assert_eq!(classify_kernel("segment_flags"), KernelPhase::Other);
        assert_eq!(classify_kernel("step_transits"), KernelPhase::Transit);
        assert_eq!(classify_kernel("nextdoor_subwarp"), KernelPhase::SubWarp);
        assert_eq!(classify_kernel("nextdoor_block"), KernelPhase::Block);
        assert_eq!(classify_kernel("tp_block"), KernelPhase::Block);
        assert_eq!(classify_kernel("nextdoor_grid"), KernelPhase::Grid);
        assert_eq!(classify_kernel("sp_sample"), KernelPhase::SampleParallel);
        assert_eq!(classify_kernel("collective_next"), KernelPhase::Collective);
        assert_eq!(classify_kernel("unique_dedup"), KernelPhase::PostProcess);
        assert_eq!(classify_kernel("mystery"), KernelPhase::Other);
        assert!(KernelPhase::SubWarp.is_sampling());
        assert!(!KernelPhase::Scheduling.is_sampling());
        assert_eq!(KernelPhase::SampleParallel.label(), "sample-parallel");
    }
}
