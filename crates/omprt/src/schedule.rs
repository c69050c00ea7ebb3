//! Loop worksharing schedules.
//!
//! The compiler translation of a worksharing loop calls into the runtime
//! to compute each thread's iteration bounds — `__ompc_static_init_4` in
//! the paper's Fig. 2. This module implements that computation for the
//! OpenMP 2.5 schedule kinds as pure functions over inclusive bounds, so
//! the partitioning invariants (every iteration assigned exactly once) can
//! be property-tested in isolation from threading.

use std::sync::atomic::{AtomicI64, Ordering};

/// A loop schedule kind (the `schedule(...)` clause).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One contiguous block per thread, sizes as even as possible
    /// (`OMP_STATIC_EVEN` in the paper's translation).
    #[default]
    StaticEven,
    /// Fixed-size chunks dealt round-robin to threads.
    StaticChunk(usize),
    /// Chunks claimed dynamically from a shared counter.
    Dynamic(usize),
    /// Exponentially shrinking chunks claimed dynamically, never smaller
    /// than the given minimum.
    Guided(usize),
}

/// A contiguous run of iterations `[lo, hi]` (inclusive), stepping by the
/// loop stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration value.
    pub lo: i64,
    /// Last iteration value (inclusive).
    pub hi: i64,
}

impl Chunk {
    /// Iterate the chunk's iteration values with `stride`.
    pub fn values(self, stride: i64) -> impl Iterator<Item = i64> {
        debug_assert!(stride > 0);
        (self.lo..=self.hi).step_by(stride as usize)
    }

    /// Number of iterations in the chunk for `stride`.
    pub fn len(self, stride: i64) -> u64 {
        if self.hi < self.lo {
            0
        } else {
            ((self.hi - self.lo) / stride + 1) as u64
        }
    }
}

/// Total iteration count of the loop `lo..=hi` by `stride`.
pub fn trip_count(lo: i64, hi: i64, stride: i64) -> u64 {
    assert!(stride > 0, "only positive strides are supported");
    if hi < lo {
        0
    } else {
        ((hi - lo) / stride + 1) as u64
    }
}

/// `__ompc_static_init` for the even schedule: the single contiguous block
/// of `lo..=hi` (stride `stride`) owned by `tid` of `nthreads`. `None` if
/// the thread gets no iterations.
pub fn static_even(lo: i64, hi: i64, stride: i64, tid: usize, nthreads: usize) -> Option<Chunk> {
    assert!(nthreads > 0 && tid < nthreads);
    let n = trip_count(lo, hi, stride);
    if n == 0 {
        return None;
    }
    let per = n / nthreads as u64;
    let extra = n % nthreads as u64;
    // The first `extra` threads get one extra iteration.
    let (start, count) = if (tid as u64) < extra {
        (tid as u64 * (per + 1), per + 1)
    } else {
        (extra * (per + 1) + (tid as u64 - extra) * per, per)
    };
    if count == 0 {
        return None;
    }
    let chunk_lo = lo + start as i64 * stride;
    let chunk_hi = chunk_lo + (count as i64 - 1) * stride;
    Some(Chunk {
        lo: chunk_lo,
        hi: chunk_hi,
    })
}

/// The round-robin chunks of a `schedule(static, chunk)` loop owned by
/// `tid`.
pub fn static_chunks(
    lo: i64,
    hi: i64,
    stride: i64,
    chunk: usize,
    tid: usize,
    nthreads: usize,
) -> Vec<Chunk> {
    assert!(nthreads > 0 && tid < nthreads);
    let chunk = chunk.max(1) as u64;
    let n = trip_count(lo, hi, stride);
    let mut out = Vec::new();
    let mut chunk_index = 0u64;
    let mut start = 0u64;
    while start < n {
        let count = chunk.min(n - start);
        if chunk_index % nthreads as u64 == tid as u64 {
            let chunk_lo = lo + start as i64 * stride;
            out.push(Chunk {
                lo: chunk_lo,
                hi: chunk_lo + (count as i64 - 1) * stride,
            });
        }
        start += count;
        chunk_index += 1;
    }
    out
}

/// Shared claim counter for dynamic and guided schedules: one per loop
/// instance, owned by the team.
#[derive(Debug)]
pub struct DynamicLoop {
    lo: i64,
    hi: i64,
    stride: i64,
    /// Next unclaimed iteration index (0-based logical index).
    next: AtomicI64,
    total: i64,
    schedule: Schedule,
    nthreads: usize,
}

impl DynamicLoop {
    /// A claimable loop over `lo..=hi` by `stride`, for `nthreads` threads.
    pub fn new(lo: i64, hi: i64, stride: i64, schedule: Schedule, nthreads: usize) -> Self {
        DynamicLoop {
            lo,
            hi,
            stride,
            next: AtomicI64::new(0),
            total: trip_count(lo, hi, stride) as i64,
            schedule,
            nthreads: nthreads.max(1),
        }
    }

    /// Claim the next single chunk, or `None` when the loop is exhausted:
    /// one shared claim per chunk. The runtime claims through a
    /// [`Claimer`], which passes guided schedules through to this and is
    /// tested against it for dynamic ones.
    pub fn claim(&self) -> Option<Chunk> {
        match self.schedule {
            Schedule::Dynamic(chunk) => self
                .claim_span(chunk.max(1) as i64)
                .map(|(start, count)| self.chunk_at(start, count)),
            Schedule::Guided(min_chunk) => self
                .claim_guided(min_chunk.max(1) as i64)
                .map(|(start, count)| self.chunk_at(start, count)),
            // Static schedules never claim dynamically.
            Schedule::StaticEven | Schedule::StaticChunk(_) => {
                unreachable!("static schedules do not use DynamicLoop")
            }
        }
    }

    /// A per-thread batched claimer for this loop. Each participating
    /// thread should create its own and pull chunks from it; see
    /// [`Claimer`].
    pub fn claimer(&self) -> Claimer<'_> {
        Claimer {
            shared: self,
            cache_lo: 0,
            cache_hi: 0,
        }
    }

    /// Dynamic-schedule claim: one `fetch_add` per span of `want` logical
    /// iterations. `next` may transiently run past `total` here (by at
    /// most one span per thread, at the very tail); nothing reads `next`
    /// as a remaining-work estimate on this path.
    fn claim_span(&self, want: i64) -> Option<(i64, i64)> {
        let start = self.next.fetch_add(want, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some((start, want.min(self.total - start)))
    }

    /// Guided-schedule claim: a bounded CAS loop. The claimed span is
    /// computed against the *observed* `next` and never extends past
    /// `total`, so `next` is always an exact high-water mark — the
    /// `remaining` computation of every later claim (and of any
    /// diagnostics) stays truthful, unlike a blind `fetch_add` which
    /// lets concurrent losers push `next` arbitrarily past the end.
    fn claim_guided(&self, min_chunk: i64) -> Option<(i64, i64)> {
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            let remaining = self.total - cur;
            if remaining <= 0 {
                return None;
            }
            // Classic guided: half the per-thread share of what's left,
            // clamped to [min_chunk, remaining].
            let want = (remaining / (2 * self.nthreads as i64))
                .max(min_chunk)
                .min(remaining);
            match self.next.compare_exchange_weak(
                cur,
                cur + want,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((cur, want)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// The chunk covering `count` logical iterations starting at `start`.
    fn chunk_at(&self, start: i64, count: i64) -> Chunk {
        let chunk_lo = self.lo + start * self.stride;
        Chunk {
            lo: chunk_lo,
            hi: chunk_lo + (count - 1) * self.stride,
        }
    }

    /// Raw claim cursor (logical iteration index). For guided schedules
    /// this never exceeds the trip count; for dynamic schedules it may
    /// transiently overshoot at the loop tail.
    pub fn next_index(&self) -> i64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Trip count of the loop (logical iterations).
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Inclusive upper bound of the underlying loop (diagnostics).
    pub fn hi(&self) -> i64 {
        self.hi
    }
}

/// Maximum number of chunks a [`Claimer`] grabs per shared `fetch_add`.
const BATCH_MAX: i64 = 8;

/// A thread-local view of a [`DynamicLoop`] that amortizes claim traffic.
///
/// Under a dynamic schedule every chunk claim is a `fetch_add` on one
/// shared counter — at high thread counts that cache line becomes the
/// loop's real scheduler bottleneck. A `Claimer` grabs up to [`BATCH_MAX`]
/// chunks per `fetch_add` (scaled by team size) and serves them from a
/// thread-local cache, so the shared line is touched once per *batch*
/// instead of once per chunk. Batching is contention-aware: it only kicks
/// in while the loop has at least a full batch per thread left, and falls
/// back to single-chunk claims near the tail so load balance at the end of
/// the loop is exactly that of the unbatched schedule. Guided schedules
/// pass through unbatched (their chunks already shrink adaptively).
#[derive(Debug)]
pub struct Claimer<'a> {
    shared: &'a DynamicLoop,
    /// Locally cached logical span `[cache_lo, cache_hi)`.
    cache_lo: i64,
    cache_hi: i64,
}

impl Claimer<'_> {
    /// Claim the next chunk (from the local cache when possible), or
    /// `None` when the loop is exhausted.
    pub fn next_chunk(&mut self) -> Option<Chunk> {
        let l = self.shared;
        match l.schedule {
            Schedule::Dynamic(chunk) => {
                let chunk = chunk.max(1) as i64;
                if self.cache_lo >= self.cache_hi {
                    let batch = self.batch_factor(chunk);
                    let (start, count) = l.claim_span(batch * chunk)?;
                    self.cache_lo = start;
                    self.cache_hi = start + count;
                }
                let start = self.cache_lo;
                let count = chunk.min(self.cache_hi - start);
                self.cache_lo += count;
                Some(l.chunk_at(start, count))
            }
            Schedule::Guided(_) => l.claim(),
            Schedule::StaticEven | Schedule::StaticChunk(_) => {
                unreachable!("static schedules do not use DynamicLoop")
            }
        }
    }

    /// Chunks to grab in the next shared claim: scaled to the team size
    /// (more threads → more contention → bigger batches), but only while
    /// every thread could still get a full batch — near the tail this
    /// collapses to 1 so stragglers are not starved.
    fn batch_factor(&self, chunk: i64) -> i64 {
        let l = self.shared;
        let batch = (l.nthreads as i64).clamp(1, BATCH_MAX);
        if batch == 1 {
            return 1;
        }
        let remaining = (l.total - l.next.load(Ordering::Relaxed)).max(0);
        if remaining >= batch * chunk * l.nthreads as i64 {
            batch
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_static_even(lo: i64, hi: i64, stride: i64, nt: usize) -> Vec<i64> {
        let mut all = Vec::new();
        for tid in 0..nt {
            if let Some(c) = static_even(lo, hi, stride, tid, nt) {
                all.extend(c.values(stride));
            }
        }
        all
    }

    #[test]
    fn static_even_partitions_exactly() {
        let all = collect_static_even(0, 9, 1, 4);
        assert_eq!(all.len(), 10);
        let expected: Vec<i64> = (0..=9).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected);
        // First threads get the extra iterations: 3,3,2,2.
        assert_eq!(static_even(0, 9, 1, 0, 4).unwrap(), Chunk { lo: 0, hi: 2 });
        assert_eq!(static_even(0, 9, 1, 2, 4).unwrap(), Chunk { lo: 6, hi: 7 });
    }

    #[test]
    fn static_even_with_stride() {
        // Iterations 0,3,6,9,12 over 2 threads → 3 + 2.
        assert_eq!(static_even(0, 12, 3, 0, 2).unwrap(), Chunk { lo: 0, hi: 6 });
        assert_eq!(
            static_even(0, 12, 3, 1, 2).unwrap(),
            Chunk { lo: 9, hi: 12 }
        );
    }

    #[test]
    fn static_even_more_threads_than_iterations() {
        let mut owners = 0;
        for tid in 0..8 {
            if static_even(0, 2, 1, tid, 8).is_some() {
                owners += 1;
            }
        }
        assert_eq!(owners, 3);
        assert_eq!(static_even(0, 2, 1, 7, 8), None);
    }

    #[test]
    fn empty_loop_yields_no_chunks() {
        assert_eq!(static_even(5, 4, 1, 0, 2), None);
        assert!(static_chunks(5, 4, 1, 2, 0, 2).is_empty());
        assert_eq!(trip_count(5, 4, 1), 0);
    }

    #[test]
    fn static_chunks_deal_round_robin() {
        // 10 iterations, chunk 2, 2 threads: t0 gets [0,1],[4,5],[8,9].
        let t0 = static_chunks(0, 9, 1, 2, 0, 2);
        assert_eq!(
            t0,
            vec![
                Chunk { lo: 0, hi: 1 },
                Chunk { lo: 4, hi: 5 },
                Chunk { lo: 8, hi: 9 }
            ]
        );
        let t1 = static_chunks(0, 9, 1, 2, 1, 2);
        assert_eq!(t1, vec![Chunk { lo: 2, hi: 3 }, Chunk { lo: 6, hi: 7 }]);
    }

    #[test]
    fn dynamic_claims_cover_everything_once() {
        let l = DynamicLoop::new(0, 99, 1, Schedule::Dynamic(7), 4);
        let mut seen = Vec::new();
        while let Some(c) = l.claim() {
            seen.extend(c.values(1));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..=99).collect::<Vec<_>>());
    }

    #[test]
    fn batched_claimer_partitions_exactly() {
        let l = DynamicLoop::new(0, 999, 1, Schedule::Dynamic(7), 4);
        let mut claimer = l.claimer();
        let mut seen = Vec::new();
        while let Some(c) = claimer.next_chunk() {
            assert!(
                c.len(1) <= 7,
                "served chunks must not exceed the chunk size"
            );
            seen.extend(c.values(1));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..=999).collect::<Vec<_>>());
    }

    #[test]
    fn batched_and_plain_claims_interoperate() {
        // A claimer's cached span and direct claim() calls must still
        // cover the space exactly (the cache is just a pre-claimed span).
        let l = DynamicLoop::new(0, 499, 1, Schedule::Dynamic(5), 4);
        let mut claimer = l.claimer();
        let mut seen = Vec::new();
        while let Some(c) = claimer.next_chunk() {
            seen.extend(c.values(1));
            if let Some(c) = l.claim() {
                seen.extend(c.values(1));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..=499).collect::<Vec<_>>());
    }

    #[test]
    fn guided_cursor_never_overshoots_total() {
        let l = DynamicLoop::new(0, 999, 1, Schedule::Guided(4), 4);
        while let Some(_c) = l.claim() {
            assert!(
                l.next_index() <= l.total(),
                "guided cursor {} ran past total {}",
                l.next_index(),
                l.total()
            );
        }
        assert_eq!(l.next_index(), l.total());
    }

    #[test]
    fn guided_chunks_shrink() {
        let l = DynamicLoop::new(0, 999, 1, Schedule::Guided(4), 4);
        let mut sizes = Vec::new();
        while let Some(c) = l.claim() {
            sizes.push(c.len(1));
        }
        assert!(sizes.first().unwrap() > sizes.last().unwrap());
        assert!(*sizes.last().unwrap() >= 1);
        assert_eq!(sizes.iter().sum::<u64>(), 1000);
        // Monotone non-increasing when claimed serially.
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        // Never below the minimum chunk except possibly the tail.
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s >= 4));
    }

    #[test]
    fn concurrent_dynamic_claims_are_disjoint_and_complete() {
        use std::sync::Arc;
        let l = Arc::new(DynamicLoop::new(0, 9999, 1, Schedule::Dynamic(13), 8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(c) = l.claim() {
                        mine.extend(c.values(1));
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..=9999).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod seeded_props {
    //! Property-style tests over seeded-random loop shapes; deterministic
    //! and offline (no proptest).
    use super::*;
    use ora_core::testutil::XorShift64;

    /// lo, hi, stride, nthreads — hi derived so the space has `n` points.
    fn loop_params(rng: &mut XorShift64) -> (i64, i64, i64, usize) {
        let lo = rng.range_i64(-1000, 1000);
        let n = rng.range_i64(0, 500);
        let stride = rng.range_i64(1, 7);
        let nt = rng.range_usize(1, 17);
        let hi = if n == 0 {
            lo - 1
        } else {
            lo + (n - 1) * stride
        };
        (lo, hi, stride, nt)
    }

    fn expected_space(lo: i64, hi: i64, stride: i64) -> Vec<i64> {
        (0..trip_count(lo, hi, stride))
            .map(|i| lo + i as i64 * stride)
            .collect()
    }

    /// Static-even chunks from all threads partition the iteration
    /// space exactly: full coverage, no duplicates, and contiguous
    /// per-thread blocks in thread order.
    #[test]
    fn static_even_is_an_exact_partition() {
        let mut rng = XorShift64::new(0x5c4e_d001);
        for _ in 0..256 {
            let (lo, hi, stride, nt) = loop_params(&mut rng);
            let mut all = Vec::new();
            let mut last_hi: Option<i64> = None;
            for tid in 0..nt {
                if let Some(c) = static_even(lo, hi, stride, tid, nt) {
                    assert!(c.lo <= c.hi);
                    if let Some(prev) = last_hi {
                        assert!(c.lo > prev, "blocks must be ordered by tid");
                    }
                    last_hi = Some(c.hi);
                    all.extend(c.values(stride));
                }
            }
            all.sort_unstable();
            assert_eq!(all, expected_space(lo, hi, stride));
        }
    }

    /// Static-even block sizes differ by at most one iteration.
    #[test]
    fn static_even_is_balanced() {
        let mut rng = XorShift64::new(0x5c4e_d002);
        for _ in 0..256 {
            let (lo, hi, stride, nt) = loop_params(&mut rng);
            let sizes: Vec<u64> = (0..nt)
                .map(|tid| static_even(lo, hi, stride, tid, nt).map_or(0, |c| c.len(stride)))
                .collect();
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 1, "sizes {sizes:?}");
        }
    }

    /// Static chunked scheduling also partitions exactly, for any
    /// chunk size.
    #[test]
    fn static_chunked_is_an_exact_partition() {
        let mut rng = XorShift64::new(0x5c4e_d003);
        for _ in 0..256 {
            let (lo, hi, stride, nt) = loop_params(&mut rng);
            let chunk = rng.range_usize(1, 20);
            let mut all = Vec::new();
            for tid in 0..nt {
                for c in static_chunks(lo, hi, stride, chunk, tid, nt) {
                    assert!(c.len(stride) <= chunk as u64);
                    all.extend(c.values(stride));
                }
            }
            all.sort_unstable();
            assert_eq!(all, expected_space(lo, hi, stride));
        }
    }

    /// Serial draining of a dynamic loop yields an exact partition.
    #[test]
    fn dynamic_claims_partition() {
        let mut rng = XorShift64::new(0x5c4e_d004);
        for _ in 0..256 {
            let (lo, hi, stride, nt) = loop_params(&mut rng);
            let chunk = rng.range_usize(1, 20);
            let l = DynamicLoop::new(lo, hi, stride, Schedule::Dynamic(chunk), nt);
            let mut all = Vec::new();
            while let Some(c) = l.claim() {
                all.extend(c.values(stride));
            }
            all.sort_unstable();
            assert_eq!(all, expected_space(lo, hi, stride));
        }
    }

    /// Guided claims partition exactly and respect the minimum chunk.
    #[test]
    fn guided_claims_partition() {
        let mut rng = XorShift64::new(0x5c4e_d005);
        for _ in 0..256 {
            let (lo, hi, stride, nt) = loop_params(&mut rng);
            let min_chunk = rng.range_usize(1, 10);
            let l = DynamicLoop::new(lo, hi, stride, Schedule::Guided(min_chunk), nt);
            let mut all = Vec::new();
            while let Some(c) = l.claim() {
                all.extend(c.values(stride));
            }
            all.sort_unstable();
            assert_eq!(all, expected_space(lo, hi, stride));
        }
    }

    /// *Concurrent* guided draining (the serial test above cannot catch
    /// CAS races): claims from racing threads are disjoint, cover the
    /// space exactly, and the shared cursor never overshoots the trip
    /// count — the bug the bounded CAS loop exists to prevent.
    #[test]
    fn concurrent_guided_claims_partition_without_overshoot() {
        let mut rng = XorShift64::new(0x5c4e_d006);
        for _ in 0..48 {
            let (lo, hi, stride, _) = loop_params(&mut rng);
            let nt = rng.range_usize(2, 9);
            let min_chunk = rng.range_usize(1, 10);
            let l = std::sync::Arc::new(DynamicLoop::new(
                lo,
                hi,
                stride,
                Schedule::Guided(min_chunk),
                nt,
            ));
            let handles: Vec<_> = (0..nt)
                .map(|_| {
                    let l = l.clone();
                    std::thread::spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(c) = l.claim() {
                            assert!(
                                l.next_index() <= l.total(),
                                "guided cursor overshot under contention"
                            );
                            mine.extend(c.values(l.stride));
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<i64> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, expected_space(lo, hi, stride));
            assert_eq!(
                l.next_index(),
                l.total(),
                "cursor must land exactly on total"
            );
        }
    }

    /// Concurrent draining through per-thread batched claimers is still
    /// an exact partition, and every served chunk respects the chunk
    /// size even across batch refills.
    #[test]
    fn concurrent_batched_claims_partition() {
        let mut rng = XorShift64::new(0x5c4e_d007);
        for _ in 0..48 {
            let (lo, hi, stride, _) = loop_params(&mut rng);
            let nt = rng.range_usize(2, 9);
            let chunk = rng.range_usize(1, 20);
            let l = std::sync::Arc::new(DynamicLoop::new(
                lo,
                hi,
                stride,
                Schedule::Dynamic(chunk),
                nt,
            ));
            let handles: Vec<_> = (0..nt)
                .map(|_| {
                    let l = l.clone();
                    std::thread::spawn(move || {
                        let mut claimer = l.claimer();
                        let mut mine = Vec::new();
                        while let Some(c) = claimer.next_chunk() {
                            assert!(c.len(l.stride) <= chunk as u64);
                            mine.extend(c.values(l.stride));
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<i64> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, expected_space(lo, hi, stride));
        }
    }
}
