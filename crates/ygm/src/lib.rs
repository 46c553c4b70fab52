//! # ygm — a YGM-style SPMD runtime with a packed shuffle
//!
//! This crate is a single-node stand-in for [YGM](https://github.com/LLNL/ygm),
//! the MPI-based asynchronous communication library the paper's pipeline was
//! built on. It preserves YGM's programming model:
//!
//! * a fixed set of *ranks*, each running the same SPMD function
//!   ([`World::run`]);
//! * *asynchronous active messages*: a rank sends a closure to another rank,
//!   which executes it on its local state ([`RankCtx::async_exec`]);
//! * *owner-computes* shuffles: items are routed to the rank owning their key
//!   hash ([`owner_of`]), packed into per-destination byte buffers
//!   ([`PackedAggregator`], YGM's send-side aggregation) and absorbed on the
//!   owner into sorted run stacks that spill past a memory budget
//!   ([`DistRuns`]);
//! * *barriers with termination detection*: [`RankCtx::barrier`] returns only
//!   once every rank has arrived **and** every message sent anywhere — including
//!   messages generated while processing other messages — has been processed.
//!
//! The only difference from real YGM is the transport: ranks are OS threads and
//! messages are boxed closures over shared memory instead of serialized MPI
//! buffers. Every algorithm in the workspace is written against this API the way
//! it would be written against YGM proper, so the communication structure of the
//! paper's distributed implementation is preserved.
//!
//! ## Barrier semantics and quiescent reads
//!
//! There are exactly three quiescence regimes:
//!
//! 1. **Inside the SPMD region, between barriers** — only sends and the
//!    calling rank's own shard are safe to touch. A shipped batch is applied
//!    on its owner no later than the next [`RankCtx::barrier`] (which also
//!    drains message *chains*: handlers that send further messages are run
//!    to completion before any rank is released).
//! 2. **Inside the SPMD region, immediately after a barrier** — the world is
//!    quiescent until the next send, so each rank may take its finished
//!    shard ([`DistRuns::local_take`]). Collectives (`all_gather`,
//!    `all_reduce*`, …) must be issued by **every** rank in the same order.
//! 3. **After [`World::run`] returns** — all ranks have joined and an
//!    implicit final barrier has drained every in-flight message.
//!
//! Collective calls after `World::run` has returned are a bug: there are no
//! rank threads left to meet the barrier, so they would deadlock.
//!
//! ## Example
//!
//! ```
//! use ygm::{owner_of, DistRuns, PackedAggregator, PackedBatch, World};
//!
//! // Every rank ships the keys 0..1000 to their owners; each owner reads
//! // what it received back as one sorted run.
//! let runs: DistRuns<u64> = DistRuns::new(4, "example", None);
//! let per_rank = World::run(4, |ctx| {
//!     let sink = runs.clone();
//!     let mut agg = PackedAggregator::new(ctx, "example", move |inner, batch: PackedBatch<u64>| {
//!         sink.local_absorb(inner, batch.iter());
//!     });
//!     for k in 0..1000u64 {
//!         agg.push_keyed(ctx, &k, k);
//!     }
//!     agg.flush_all(ctx);
//!     ctx.barrier();
//!     runs.local_take(ctx).into_sorted_vec()
//! });
//! assert_eq!(per_rank.iter().map(Vec::len).sum::<usize>(), 4 * 1000);
//! for (rank, keys) in per_rank.iter().enumerate() {
//!     assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//!     assert!(keys.iter().all(|k| owner_of(k, 4) == rank));
//! }
//! ```

pub mod comm;
pub mod exchange;
pub mod partition;
pub mod reduce;
pub mod runs;
pub mod stats;

pub use comm::{RankCtx, World};
pub use exchange::{adaptive_batch_bytes, BufferPool, Packable, PackedAggregator, PackedBatch};
pub use partition::{block_range, owner_of};
pub use runs::{radix_sort_run, sort_run, DistRuns, MergeCursor, RunKey, RunSet, RunStack};
