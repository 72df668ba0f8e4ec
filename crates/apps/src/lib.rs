//! The graph sampling applications of the paper (§4.2, §8 "Benchmarks").
//!
//! Each application is a [`nextdoor_core::SamplingApp`] implementation, a
//! handful of lines of `next`/`stepTransits`/`sampleSize` logic — exactly
//! the programming model Figure 4 of the paper demonstrates. The same
//! objects run on every engine (NextDoor, SP, TP, CPU reference) and on the
//! CPU baselines' own executors.
//!
//! | Application | Paper source | Type |
//! |---|---|---|
//! | [`DeepWalk`] | Perozzi et al., KDD '14 | individual, static biased walk |
//! | [`Ppr`] | personalised PageRank | individual, variable-length walk |
//! | [`Node2Vec`] | Grover & Leskovec, KDD '16 | individual, 2nd-order walk |
//! | [`MultiRw`] | Ribeiro & Towsley, IMC '10 (GraphSAINT) | individual |
//! | [`KHop`] | GraphSAGE, NIPS '17 | individual, k-hop neighbourhood |
//! | [`Mvs`] | Cong et al., KDD '20 | individual, 1-hop of a batch |
//! | [`Layer`] | Gao et al., KDD '18 | collective layer sampling |
//! | [`FastGcn`] | Chen et al., ICLR '18 | collective importance sampling |
//! | [`Ladies`] | Zou et al., NeurIPS '19 | collective importance sampling |
//! | [`ClusterGcn`] | Chiang et al., KDD '19 | collective cluster sampling |

pub mod cluster;
pub mod importance;
pub mod khop;
pub mod layer;
pub mod multirw;
pub mod walks;

pub use cluster::{cluster_gcn_samples, ClusterGcn};
pub use importance::{FastGcn, Ladies};
pub use khop::{KHop, Mvs};
pub use layer::Layer;
pub use multirw::MultiRw;
pub use walks::{DeepWalk, Node2Vec, Ppr};
