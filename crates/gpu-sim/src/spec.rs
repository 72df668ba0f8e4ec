//! Hardware specification and cost model of the simulated GPU.

/// Static description of a simulated GPU.
///
/// Defaults approximate the NVIDIA Tesla V100 used in the paper. For
/// laptop-scale experiments the workload is scaled down (see
/// `nextdoor_graph::Dataset::generate`), so benches typically pair a scaled
/// workload with [`GpuSpec::scaled`] to keep the workload-to-machine ratio —
/// and therefore occupancy behaviour — similar to the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum threads per block (CUDA limit: 1024).
    pub max_threads_per_block: usize,
    /// Maximum resident warps per SM (V100: 64).
    pub max_warps_per_sm: usize,
    /// Maximum resident blocks per SM (V100: 32).
    pub max_blocks_per_sm: usize,
    /// Shared memory per block in bytes (V100: 96 KiB max opt-in).
    pub shared_mem_per_block: usize,
    /// Device (global) memory capacity in bytes (paper's V100: 16 GiB).
    pub device_memory: usize,
    /// Core clock in GHz (V100: 1.38).
    pub clock_ghz: f64,
    /// Host-to-device interconnect bandwidth in GB/s (PCIe 3.0 x16: ~12).
    pub pcie_gbps: f64,
    /// Host worker threads used to execute the blocks of each launch
    /// concurrently. `0` resolves at device construction: the
    /// `NEXTDOOR_SIM_THREADS` environment variable if set, else the
    /// machine's available parallelism. `1` is the fully sequential path.
    /// Purely a host-side execution knob — counters, profiles and samples
    /// are bit-identical at every value (see `crate::launch`).
    pub host_threads: usize,
    /// Cost model constants.
    pub cost: CostModel,
}

impl GpuSpec {
    /// A V100-like configuration (the paper's testbed GPU).
    pub fn v100() -> Self {
        GpuSpec {
            num_sms: 80,
            max_threads_per_block: 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            shared_mem_per_block: 96 * 1024,
            device_memory: 16 * (1 << 30),
            clock_ghz: 1.38,
            pcie_gbps: 12.0,
            host_threads: 0,
            cost: CostModel::default(),
        }
    }

    /// A V100 scaled down by `factor`, keeping per-SM characteristics.
    ///
    /// Pairing `Dataset::generate(s, ..)` with `GpuSpec::scaled(s * k)`
    /// keeps the workload-to-machine ratio near the paper's, so occupancy
    /// phenomena (e.g. the PPI rows of Table 4) reproduce at laptop scale.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn scaled(factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        let mut s = Self::v100();
        s.num_sms = ((s.num_sms as f64 * factor).round() as usize).max(1);
        s.device_memory = ((s.device_memory as f64 * factor) as usize).max(1 << 20);
        s
    }

    /// A small 8-SM configuration for unit tests: fast to simulate and still
    /// exhibits every modelled effect.
    pub fn small() -> Self {
        let mut s = Self::v100();
        s.num_sms = 8;
        s.device_memory = 1 << 28;
        s
    }

    /// Number of blocks of `block_dim` threads and `shared_bytes` of shared
    /// memory that one SM can host concurrently — the minimum of the warp,
    /// block-slot and shared-memory limiters, at least 1. This is the
    /// occupancy arithmetic the launch path charges.
    pub fn resident_blocks(&self, block_dim: usize, shared_bytes: usize) -> usize {
        let warps_per_block = block_dim.div_ceil(crate::warp::WARP_SIZE).max(1);
        let by_warps = self.max_warps_per_sm / warps_per_block;
        let by_blocks = self.max_blocks_per_sm;
        let by_shared = self
            .shared_mem_per_block
            .checked_div(shared_bytes)
            .unwrap_or(usize::MAX);
        by_warps.min(by_blocks).min(by_shared).max(1)
    }

    /// Converts simulated cycles to milliseconds at this spec's clock.
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e6)
    }

    /// Cycles needed to move `bytes` over the host interconnect.
    pub fn pcie_cycles(&self, bytes: usize) -> f64 {
        let seconds = bytes as f64 / (self.pcie_gbps * 1e9);
        seconds * self.clock_ghz * 1e9
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::v100()
    }
}

/// Cycle costs of the simulated operations.
///
/// `global_tx_cycles` is derived from V100 HBM2 bandwidth: ~900 GB/s over
/// 80 SMs at 1.38 GHz is ~3.9 cycles per 32-byte sector per SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles per warp-level compute instruction.
    pub compute_cycles: f64,
    /// Cycles per 32-byte global-memory sector at full bandwidth.
    pub global_tx_cycles: f64,
    /// Raw global-memory latency in cycles (exposed at low occupancy).
    pub global_latency: f64,
    /// Cycles per warp-level shared-memory access.
    pub shared_cycles: f64,
    /// Cycles per warp shuffle.
    pub shfl_cycles: f64,
    /// Cycles per warp-level atomic operation (beyond its transaction).
    pub atomic_cycles: f64,
    /// Cycles charged for one counter-based RNG draw (a short hash chain).
    pub rand_cycles: f64,
    /// Fixed per-block scheduling overhead in cycles.
    pub block_overhead: f64,
    /// Fixed per-kernel-launch overhead in cycles (driver + dispatch).
    pub launch_overhead: f64,
    /// Cycles for a block-wide barrier (`__syncthreads`).
    pub syncthreads_cycles: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            compute_cycles: 1.0,
            global_tx_cycles: 4.0,
            global_latency: 400.0,
            shared_cycles: 2.0,
            shfl_cycles: 1.0,
            atomic_cycles: 4.0,
            rand_cycles: 8.0,
            block_overhead: 50.0,
            launch_overhead: 3000.0,
            syncthreads_cycles: 20.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_shape() {
        let s = GpuSpec::v100();
        assert_eq!(s.num_sms, 80);
        assert_eq!(s.max_warps_per_sm * crate::warp::WARP_SIZE, 2048);
    }

    #[test]
    fn scaled_reduces_sms() {
        let s = GpuSpec::scaled(0.1);
        assert_eq!(s.num_sms, 8);
        assert!(s.device_memory < GpuSpec::v100().device_memory);
    }

    #[test]
    fn scaled_never_reaches_zero() {
        let s = GpuSpec::scaled(0.001);
        assert!(s.num_sms >= 1);
    }

    #[test]
    #[should_panic(expected = "factor must be in (0, 1]")]
    fn scaled_rejects_out_of_range() {
        let _ = GpuSpec::scaled(1.5);
    }

    #[test]
    fn cycles_to_ms_uses_clock() {
        let s = GpuSpec::v100();
        let ms = s.cycles_to_ms(1.38e9);
        assert!((ms - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn pcie_cycles_positive_and_monotone() {
        let s = GpuSpec::v100();
        assert!(s.pcie_cycles(1 << 20) > 0.0);
        assert!(s.pcie_cycles(2 << 20) > s.pcie_cycles(1 << 20));
    }
}
