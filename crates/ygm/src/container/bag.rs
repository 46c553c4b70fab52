//! `DistBag`: an unordered distributed collection (`ygm::container::bag`).
//!
//! Bags are the ingestion container: records are appended locally (no
//! communication), then consumed by per-rank iteration. They also serve as the
//! output container for triangle listings.

use std::sync::Arc;

use crate::comm::RankCtx;

use super::{new_shards, Shards};

/// A distributed bag of items with no ordering or ownership semantics.
pub struct DistBag<T> {
    shards: Shards<Vec<T>>,
    nranks: usize,
}

impl<T> Clone for DistBag<T> {
    fn clone(&self) -> Self {
        DistBag {
            shards: Arc::clone(&self.shards),
            nranks: self.nranks,
        }
    }
}

impl<T> DistBag<T>
where
    T: Send + 'static,
{
    /// Create a bag partitioned over `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        DistBag {
            shards: new_shards(nranks),
            nranks,
        }
    }

    #[inline]
    fn check(&self, ctx: &RankCtx) {
        debug_assert_eq!(self.nranks, ctx.nranks(), "container/world size mismatch");
    }

    /// Append `item` to the calling rank's shard — immediate, no messaging.
    pub fn local_insert(&self, ctx: &RankCtx, item: T) {
        self.check(ctx);
        self.shards[ctx.rank()].0.lock().push(item);
    }

    /// Bulk-append `items` to the calling rank's shard under one lock
    /// acquisition — the batch-granular receiver for
    /// [`crate::exchange::PackedAggregator`] applies.
    pub fn local_extend<I>(&self, ctx: &RankCtx, items: I)
    where
        I: IntoIterator<Item = T>,
    {
        self.check(ctx);
        self.shards[ctx.rank()].0.lock().extend(items);
    }

    /// Send `item` to `dest`'s shard.
    pub fn async_insert_to(&self, ctx: &RankCtx, dest: usize, item: T) {
        self.check(ctx);
        let shards = Arc::clone(&self.shards);
        ctx.async_exec(dest, move |inner| {
            shards[inner.rank()].0.lock().push(item);
        });
    }

    /// Send `item` to a rank chosen round-robin from a caller-supplied cursor,
    /// spreading load when one rank produces most of the data.
    pub fn async_insert_spread(&self, ctx: &RankCtx, cursor: &mut usize, item: T) {
        let dest = *cursor % self.nranks;
        *cursor = cursor.wrapping_add(1);
        self.async_insert_to(ctx, dest, item);
    }

    /// Iterate this rank's items.
    pub fn local_for_each<F>(&self, ctx: &RankCtx, mut f: F)
    where
        F: FnMut(&T),
    {
        self.check(ctx);
        for item in self.shards[ctx.rank()].0.lock().iter() {
            f(item);
        }
    }

    /// Take (move out) this rank's items, leaving the shard empty.
    pub fn local_take(&self, ctx: &RankCtx) -> Vec<T> {
        self.check(ctx);
        std::mem::take(&mut *self.shards[ctx.rank()].0.lock())
    }

    /// Items on this rank.
    pub fn local_len(&self, ctx: &RankCtx) -> usize {
        self.check(ctx);
        self.shards[ctx.rank()].0.lock().len()
    }

    /// Collective: total items across ranks.
    pub fn global_len(&self, ctx: &RankCtx) -> u64 {
        self.check(ctx);
        ctx.all_reduce_sum(self.local_len(ctx) as u64)
    }

    /// Move every item into one local `Vec` (shard order, then insertion
    /// order). Quiescent-state only.
    pub fn drain_into_local(&self) -> Vec<T> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.append(&mut shard.0.lock());
        }
        out
    }

    /// Clone every item into one local `Vec`. Quiescent-state only.
    pub fn gather(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.0.lock().iter().cloned());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn local_inserts_stay_local() {
        let bag = DistBag::<usize>::new(3);
        let lens = {
            let bag = bag.clone();
            World::run(3, move |ctx| {
                for _ in 0..=ctx.rank() {
                    bag.local_insert(ctx, ctx.rank());
                }
                ctx.barrier();
                bag.local_len(ctx)
            })
        };
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn async_insert_to_routes_items() {
        let bag = DistBag::<usize>::new(4);
        let lens = {
            let bag = bag.clone();
            World::run(4, move |ctx| {
                bag.async_insert_to(ctx, 0, ctx.rank());
                ctx.barrier();
                bag.local_len(ctx)
            })
        };
        assert_eq!(lens, vec![4, 0, 0, 0]);
        let mut all = bag.drain_into_local();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn spread_insert_balances() {
        let bag = DistBag::<u32>::new(4);
        let lens = {
            let bag = bag.clone();
            World::run(4, move |ctx| {
                if ctx.rank() == 0 {
                    let mut cursor = 0usize;
                    for i in 0..400u32 {
                        bag.async_insert_spread(ctx, &mut cursor, i);
                    }
                }
                ctx.barrier();
                bag.local_len(ctx)
            })
        };
        assert_eq!(lens, vec![100, 100, 100, 100]);
    }

    #[test]
    fn take_empties_only_this_rank() {
        let bag = DistBag::<usize>::new(2);
        let taken = {
            let bag = bag.clone();
            World::run(2, move |ctx| {
                bag.local_insert(ctx, ctx.rank());
                ctx.barrier();
                if ctx.rank() == 0 {
                    bag.local_take(ctx)
                } else {
                    Vec::new()
                }
            })
        };
        assert_eq!(taken[0], vec![0]);
        assert_eq!(bag.gather(), vec![1]);
    }

    #[test]
    fn global_len_counts_everything() {
        let bag = DistBag::<u8>::new(3);
        let out = {
            let bag = bag.clone();
            World::run(3, move |ctx| {
                bag.local_insert(ctx, 1);
                bag.async_insert_to(ctx, (ctx.rank() + 1) % 3, 2);
                ctx.barrier();
                bag.global_len(ctx)
            })
        };
        assert_eq!(out, vec![6, 6, 6]);
    }
}
