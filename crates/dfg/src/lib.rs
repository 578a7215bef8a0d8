//! Data-flow-graph (DFG) substrate for the `moveframe-hls` workspace.
//!
//! A behavioural description enters high-level synthesis as a data-flow
//! graph: nodes are operations, edges are value dependencies carried by
//! named *signals*. This crate provides
//!
//! * the graph representation ([`Dfg`], [`Node`], [`Signal`]) including
//!   branch (mutual-exclusion) paths, collapsed loop bodies and
//!   structural-pipeline stage nodes,
//! * a fluent [`DfgBuilder`],
//! * a small textual format ([`parse_dfg`]) and DOT export
//!   ([`Dfg::to_dot`]),
//! * graph analyses (topological order, critical path, operator mix,
//!   mutual exclusivity), and
//! * the paper's preprocessing transformations (§5 of Nourani &
//!   Papachristou, DAC 1992): branch-duplicate pruning, structural
//!   pipeline stage expansion, instance duplication for functional
//!   pipelining, and loop folding.
//!
//! ```
//! use hls_celllib::OpKind;
//! use hls_dfg::DfgBuilder;
//!
//! # fn main() -> Result<(), hls_dfg::DfgError> {
//! let mut b = DfgBuilder::new("tiny");
//! let x = b.input("x");
//! let y = b.input("y");
//! let p = b.op("p", OpKind::Mul, &[x, y])?;
//! let _q = b.op("q", OpKind::Add, &[p, x])?;
//! let dfg = b.finish()?;
//! assert_eq!(dfg.node_count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod builder;
mod dot;
mod error;
mod graph;
mod memory;
mod name;
mod node;
mod parse;
mod signal;
pub mod transform;
mod write;

pub use analysis::{CriticalPath, OpMix};
pub use builder::DfgBuilder;
pub use error::DfgError;
pub use graph::{Dfg, LoopRegion};
pub use memory::{ArrayDecl, ArrayId, BankDecl, BankId, MemoryDecls};
pub use node::{FuClass, LoopId, Node, NodeId, NodeKind};
pub use parse::parse_dfg;
pub use signal::{BranchArm, BranchId, BranchPath, Signal, SignalId, SignalSource};
