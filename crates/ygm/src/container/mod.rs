//! Hash-partitioned distributed containers in the style of `ygm::container`.
//!
//! Every container is a cheaply-clonable handle over per-rank *shards*. A key's
//! shard is chosen by [`crate::partition::owner_of`]; mutating operations are
//! routed to the owner rank as active messages (`async_*` methods), and take
//! effect by the next [`crate::RankCtx::barrier`]. Local iteration
//! (`local_for_each`) visits only the calling rank's shard, which is how YGM
//! programs express distributed loops: every rank iterates its shard inside the
//! same SPMD region.
//!
//! Handles are created *outside* the SPMD region (so every rank closes over the
//! same shards) and the `async_*`/`local_*` methods take the caller's
//! [`crate::RankCtx`].
//!
//! Read-side methods prefixed `global_` peek directly at owner shards through
//! shared memory. They are cheap here but would be a round-trip on a real
//! cluster; call them only after a barrier, when the world is quiescent.

mod array;
mod bag;
mod counting_set;
mod multimap;
mod set;
mod topk;

pub use array::DistArray;
pub use bag::DistBag;
pub use counting_set::{DistCountingSet, FrozenCounts};
pub use multimap::DistMultimap;
pub use set::DistSet;
pub use topk::DistTopK;

use parking_lot::Mutex;
use std::sync::Arc;

/// Cache-line-aligned shard wrapper: adjacent shards never false-share.
#[repr(align(64))]
pub(crate) struct Shard<T>(pub(crate) Mutex<T>);

pub(crate) type Shards<T> = Arc<Vec<Shard<T>>>;

pub(crate) fn new_shards<T: Default>(nranks: usize) -> Shards<T> {
    assert!(nranks > 0, "containers need at least one rank");
    Arc::new(
        (0..nranks)
            .map(|_| Shard(Mutex::new(T::default())))
            .collect(),
    )
}
