//! Graph residency on the simulated device.

use nextdoor_gpu::{DeviceBuffer, Gpu, OutOfMemory};
use nextdoor_graph::{Csr, VertexId};

/// A CSR graph uploaded to simulated device memory.
///
/// Holds the device-resident arrays whose virtual addresses the engines use
/// to account for memory traffic, plus the per-vertex utility tables the
/// paper's `Vertex` class exposes (degree, max edge weight).
pub struct GpuGraph {
    /// Row offsets (`num_vertices + 1` entries).
    pub row_offsets: DeviceBuffer<u32>,
    /// Column indices (`num_edges` entries).
    pub cols: DeviceBuffer<u32>,
    /// Edge weights, when the graph is weighted.
    pub weights: Option<DeviceBuffer<f32>>,
    /// Per-vertex out-degree.
    pub degrees: DeviceBuffer<u32>,
    /// Per-vertex maximum edge weight (rejection sampling's `maxEdgeWeight`).
    pub max_weights: DeviceBuffer<f32>,
}

/// The host arrays both placements copy besides the column indices: row
/// offsets, degrees, maximum weights and a weighted graph's flattened
/// weights.
struct HostArrays {
    offsets: Vec<u32>,
    degrees: Vec<u32>,
    max_weights: Vec<f32>,
    weights: Option<Vec<f32>>,
}

impl HostArrays {
    fn of(g: &Csr) -> Self {
        let vertices = 0..g.num_vertices() as VertexId;
        HostArrays {
            offsets: g.row_offsets().iter().map(|&o| o as u32).collect(),
            degrees: vertices.clone().map(|v| g.degree(v) as u32).collect(),
            max_weights: vertices.clone().map(|v| g.max_edge_weight(v)).collect(),
            weights: g.is_weighted().then(|| {
                let mut all = Vec::with_capacity(g.num_edges());
                for v in vertices {
                    all.extend_from_slice(g.edge_weights(v).unwrap_or_default());
                }
                all
            }),
        }
    }
}

impl GpuGraph {
    /// Uploads `g`, charging the host-to-device transfer when the GPU has
    /// transfer charging enabled.
    pub fn upload(gpu: &mut Gpu, g: &Csr) -> Result<Self, OutOfMemory> {
        let h = HostArrays::of(g);
        Ok(GpuGraph {
            row_offsets: gpu.try_to_device(&h.offsets)?,
            cols: gpu.try_to_device(g.col_indices())?,
            weights: h.weights.map(|w| gpu.try_to_device(&w)).transpose()?,
            degrees: gpu.try_to_device(&h.degrees)?,
            max_weights: gpu.try_to_device(&h.max_weights)?,
        })
    }

    /// Stages `g` in host (pinned) memory instead of device memory: the
    /// buffers stay kernel-addressable for traffic accounting but are
    /// neither counted against device capacity nor subject to fault
    /// injection. The out-of-core engine uses this and models residency
    /// through explicit per-step sub-graph transfer charges.
    pub fn upload_staged(gpu: &mut Gpu, g: &Csr) -> Self {
        let h = HostArrays::of(g);
        GpuGraph {
            row_offsets: gpu.host_stage(&h.offsets),
            cols: gpu.host_stage(g.col_indices()),
            weights: h.weights.map(|w| gpu.host_stage(&w)),
            degrees: gpu.host_stage(&h.degrees),
            max_weights: gpu.host_stage(&h.max_weights),
        }
    }

    /// Virtual base address of the column-index array.
    pub fn cols_base(&self) -> u64 {
        self.cols.addr_of(0)
    }

    /// Device bytes occupied by the graph.
    pub fn size_bytes(&self) -> usize {
        self.row_offsets.size_bytes()
            + self.cols.size_bytes()
            + self.weights.as_ref().map_or(0, DeviceBuffer::size_bytes)
            + self.degrees.size_bytes()
            + self.max_weights.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nextdoor_gpu::GpuSpec;
    use nextdoor_graph::GraphBuilder;

    #[test]
    fn upload_round_trips_structure() {
        let g = GraphBuilder::new(3)
            .edge(0, 1)
            .edge(0, 2)
            .edge(2, 1)
            .build()
            .unwrap();
        let mut gpu = Gpu::new(GpuSpec::small());
        let gg = GpuGraph::upload(&mut gpu, &g).unwrap();
        assert_eq!(gg.row_offsets.as_slice(), &[0, 2, 2, 3]);
        assert_eq!(gg.cols.as_slice(), &[1, 2, 1]);
        assert_eq!(gg.degrees.as_slice(), &[2, 0, 1]);
        assert!(gg.weights.is_none());
        assert!(gg.size_bytes() > 0);
        assert!(gg.cols_base() > 0);
    }

    #[test]
    fn weighted_upload_carries_weights() {
        let g = GraphBuilder::new(2)
            .weighted_edge(0, 1, 2.5)
            .build()
            .unwrap();
        let mut gpu = Gpu::new(GpuSpec::small());
        let gg = GpuGraph::upload(&mut gpu, &g).unwrap();
        assert_eq!(gg.weights.as_ref().unwrap().as_slice(), &[2.5]);
        assert_eq!(gg.max_weights.as_slice(), &[2.5, 1.0]);
    }

    #[test]
    fn upload_respects_device_capacity() {
        let mut spec = GpuSpec::small();
        spec.device_memory = 64; // absurdly small
        let mut gpu = Gpu::new(spec);
        let g = GraphBuilder::new(100)
            .edges((0..99).map(|i| (i, i + 1)))
            .build()
            .unwrap();
        assert!(GpuGraph::upload(&mut gpu, &g).is_err());
    }

    #[test]
    fn staged_upload_bypasses_device_capacity() {
        let mut spec = GpuSpec::small();
        spec.device_memory = 64; // far too small for a real upload
        let mut gpu = Gpu::new(spec);
        let g = GraphBuilder::new(100)
            .edges((0..99).map(|i| (i, i + 1)))
            .build()
            .unwrap();
        let gg = GpuGraph::upload_staged(&mut gpu, &g);
        assert_eq!(gpu.mem_used(), 0, "staged buffers are host memory");
        assert_eq!(gg.row_offsets.as_slice().len(), 101);
        assert_eq!(gg.cols.as_slice().len(), 99);
    }
}
