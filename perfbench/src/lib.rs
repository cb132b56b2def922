//! Wall-clock benchmark of the sublayered (`sub`) and monolithic (`mono`)
//! TCP stacks, end to end and per layer. See `README.md` beside this
//! crate for the workloads, the metrics and how to read a traced run.

pub mod alloc;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod rpc;
pub mod run;
pub mod stacks;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod wire;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
