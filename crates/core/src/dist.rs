//! Distribution templates and ownership math.
//!
//! A distributed sequence's elements are split over the address spaces of
//! an SPMD object's computing threads according to a *distribution
//! template* (`DistTempl` in the paper's C++ mapping). PARDIS defaults to
//! **uniform blockwise** everywhere a template is left unspecified; the
//! alternative is a [`Proportions`] template ("distributed over the
//! address spaces of threads 0, 1, 2 and 3 in proportions 2:4:2:4",
//! §2.2).
//!
//! The key computation of the multi-port method lives here too:
//! [`DistTempl::transfers_to`] computes the exact set of
//! (destination thread, element range) pairs each source thread must
//! send so that data laid out by one template lands laid out by another —
//! "the client's threads first calculate to which of the server's
//! threads they should send data" (§3.3).

use crate::error::{PardisError, PardisResult};
use pardis_net::DistSpec;
use std::ops::Range;

/// A proportional-ownership description, mirroring
/// `PARDIS::Proportions`. Construct from weights; materializes into a
/// [`DistTempl`] once a length is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proportions(pub Vec<u32>);

impl Proportions {
    /// Build from weights; panics if empty or all-zero (no owner for any
    /// element).
    pub fn new(weights: impl Into<Vec<u32>>) -> Proportions {
        let w = weights.into();
        assert!(!w.is_empty(), "Proportions needs at least one weight");
        assert!(
            w.iter().any(|&x| x > 0),
            "Proportions needs a nonzero weight"
        );
        Proportions(w)
    }

    /// Number of threads the proportions describe.
    pub fn nthreads(&self) -> usize {
        self.0.len()
    }
}

/// A materialized distribution: exactly how many elements each computing
/// thread owns. Ownership is always *contiguous in rank order* (thread 0
/// owns the first `counts[0]` elements, and so on) — the paper's
/// sequences are one-dimensional block/proportional layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistTempl {
    counts: Vec<usize>,
    /// Prefix sums: `offsets[t]` is the global index of thread t's first
    /// element; `offsets[n]` is the total length.
    offsets: Vec<usize>,
}

impl DistTempl {
    /// Build from explicit per-thread counts.
    pub fn from_counts(counts: Vec<usize>) -> DistTempl {
        assert!(!counts.is_empty(), "template needs at least one thread");
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        DistTempl { counts, offsets }
    }

    /// Uniform blockwise distribution of `len` elements over `nthreads`
    /// threads: the first `len % nthreads` threads own one extra element.
    pub fn block(len: usize, nthreads: usize) -> DistTempl {
        assert!(nthreads > 0, "template needs at least one thread");
        let base = len / nthreads;
        let rem = len % nthreads;
        DistTempl::from_counts((0..nthreads).map(|t| base + usize::from(t < rem)).collect())
    }

    /// Proportional distribution of `len` elements. Element counts are
    /// the largest-remainder apportionment of `len` by the weights, so
    /// the counts always sum to exactly `len`.
    pub fn proportional(len: usize, props: &Proportions) -> DistTempl {
        let total_w: u64 = props.0.iter().map(|&w| w as u64).sum();
        let n = props.0.len();
        // Floor shares plus remainders.
        let mut counts = vec![0usize; n];
        let mut rems: Vec<(u64, usize)> = Vec::with_capacity(n);
        let mut assigned = 0usize;
        for (t, &w) in props.0.iter().enumerate() {
            let exact = (len as u64) * (w as u64);
            counts[t] = (exact / total_w) as usize;
            rems.push((exact % total_w, t));
            assigned += counts[t];
        }
        // Distribute the leftover elements to the largest remainders
        // (ties broken by thread order for determinism).
        rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, t) in rems.iter().take(len - assigned) {
            counts[t] += 1;
        }
        DistTempl::from_counts(counts)
    }

    /// Materialize a wire-level [`DistSpec`] for a concrete length and
    /// thread count. Errors if a proportions spec names a different
    /// thread count than the object has.
    pub fn from_spec(spec: &DistSpec, len: usize, nthreads: usize) -> PardisResult<DistTempl> {
        match spec {
            DistSpec::Block => Ok(DistTempl::block(len, nthreads)),
            DistSpec::Proportions(w) => {
                if w.len() != nthreads {
                    return Err(PardisError::BadDistArg(format!(
                        "proportions template names {} threads, object has {}",
                        w.len(),
                        nthreads
                    )));
                }
                Ok(DistTempl::proportional(len, &Proportions::new(w.clone())))
            }
        }
    }

    /// Per-thread counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of elements described.
    pub fn len(&self) -> usize {
        // `offsets` always has `counts.len() + 1` entries by
        // construction; an empty template still holds the single 0.
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Whether the template describes zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of threads.
    pub fn nthreads(&self) -> usize {
        self.counts.len()
    }

    /// Elements owned by thread `t`.
    pub fn count(&self, t: usize) -> usize {
        self.counts[t]
    }

    /// Global index of thread `t`'s first element.
    pub fn offset(&self, t: usize) -> usize {
        self.offsets[t]
    }

    /// Global index range owned by thread `t`.
    pub fn range(&self, t: usize) -> Range<usize> {
        self.offsets[t]..self.offsets[t + 1]
    }

    /// Owner of global index `idx` and the index's position within the
    /// owner's local part. Errors past the end of the sequence — "it is
    /// currently an error to access element beyond the value of the
    /// length" (§2.2).
    pub fn owner_of(&self, idx: usize) -> PardisResult<(usize, usize)> {
        if idx >= self.len() {
            return Err(PardisError::BadDistArg(format!(
                "index {idx} beyond sequence length {}",
                self.len()
            )));
        }
        // offsets is sorted; partition_point finds the owning thread.
        let t = self.offsets.partition_point(|&o| o <= idx) - 1;
        Ok((t, idx - self.offsets[t]))
    }

    /// The last thread owning at least one element, or thread
    /// `nthreads-1` for an empty sequence. Growth appends here: "new
    /// elements will be added to the ownership of the computing thread
    /// which owned the last elements of the old sequence" (§2.2).
    pub fn last_owner(&self) -> usize {
        for t in (0..self.nthreads()).rev() {
            if self.counts[t] > 0 {
                return t;
            }
        }
        self.nthreads() - 1
    }

    /// Resize the template: shrinking truncates ownership from the top;
    /// growing extends the last owner.
    pub fn resized(&self, new_len: usize) -> DistTempl {
        let old_len = self.len();
        if new_len == old_len {
            return self.clone();
        }
        let mut counts = self.counts.clone();
        if new_len > old_len {
            counts[self.last_owner()] += new_len - old_len;
        } else {
            let mut to_drop = old_len - new_len;
            for t in (0..counts.len()).rev() {
                let d = to_drop.min(counts[t]);
                counts[t] -= d;
                to_drop -= d;
                if to_drop == 0 {
                    break;
                }
            }
        }
        DistTempl::from_counts(counts)
    }

    /// Redistribute this template's total length over `survivors` only:
    /// dead threads own zero elements, the survivors split the length
    /// blockwise in ascending rank order. Arity is preserved (the
    /// template still names every thread of the machine), and because
    /// ownership stays contiguous in rank order, concatenating the
    /// survivors' local parts still yields the global sequence — which
    /// is what the gather-based reply path depends on.
    ///
    /// Errors when `survivors` is empty or names a thread the template
    /// does not have.
    pub fn remap_onto(&self, survivors: &[usize]) -> PardisResult<DistTempl> {
        if survivors.is_empty() {
            return Err(PardisError::BadDistArg(
                "cannot remap a distribution onto zero survivors".into(),
            ));
        }
        if let Some(&bad) = survivors.iter().find(|&&s| s >= self.nthreads()) {
            return Err(PardisError::BadDistArg(format!(
                "survivor rank {bad} out of range for a {}-thread template",
                self.nthreads()
            )));
        }
        let mut sorted: Vec<usize> = survivors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let len = self.len();
        let base = len / sorted.len();
        let rem = len % sorted.len();
        let mut counts = vec![0usize; self.nthreads()];
        for (i, &s) in sorted.iter().enumerate() {
            counts[s] = base + usize::from(i < rem);
        }
        Ok(DistTempl::from_counts(counts))
    }

    /// Transfers thread `src` must make so data currently laid out by
    /// `self` becomes laid out by `dst_templ`: the list of
    /// `(dst_thread, global_range)` intersections of `src`'s range with
    /// every destination thread's range. Empty intersections are
    /// omitted; ranges are in ascending global order.
    ///
    /// Both templates must describe the same total length.
    pub fn transfers_to(&self, src: usize, dst_templ: &DistTempl) -> Vec<(usize, Range<usize>)> {
        debug_assert_eq!(
            self.len(),
            dst_templ.len(),
            "templates must agree on length"
        );
        let my = self.range(src);
        if my.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Find the first destination thread whose range may intersect.
        let first = dst_templ.offsets.partition_point(|&o| o <= my.start) - 1;
        for d in first..dst_templ.nthreads() {
            let dr = dst_templ.range(d);
            if dr.start >= my.end {
                break;
            }
            let start = my.start.max(dr.start);
            let end = my.end.min(dr.end);
            if start < end {
                out.push((d, start..end));
            }
        }
        out
    }

    /// Number of fragments thread `dst` will *receive* when data moves
    /// from `src_templ` layout into `self` layout.
    pub fn incoming_count(&self, dst: usize, src_templ: &DistTempl) -> usize {
        src_templ.transfers_to_inverse(self, dst)
    }

    fn transfers_to_inverse(&self, dst_templ: &DistTempl, dst: usize) -> usize {
        // Fragments arriving at dst = sources whose range intersects
        // dst's range under `self` (the source layout). A source that
        // owns nothing sends nothing, even when its empty range lies
        // inside dst's.
        let dr = dst_templ.range(dst);
        if dr.is_empty() {
            return 0;
        }
        let mut n = 0;
        for s in 0..self.nthreads() {
            let sr = self.range(s);
            if !sr.is_empty() && sr.start < dr.end && dr.start < sr.end {
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_divides_evenly() {
        let t = DistTempl::block(1024, 4);
        assert_eq!(t.counts(), &[256, 256, 256, 256]);
        assert_eq!(t.len(), 1024);
        assert_eq!(t.range(2), 512..768);
    }

    #[test]
    fn block_remainder_goes_first() {
        let t = DistTempl::block(10, 4);
        assert_eq!(t.counts(), &[3, 3, 2, 2]);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn block_more_threads_than_elements() {
        let t = DistTempl::block(2, 5);
        assert_eq!(t.counts(), &[1, 1, 0, 0, 0]);
        assert_eq!(t.last_owner(), 1);
    }

    #[test]
    fn proportions_paper_example() {
        // Proportions(2,4,2,4) over 12 elements -> 2:4:2:4.
        let t = DistTempl::proportional(12, &Proportions::new(vec![2, 4, 2, 4]));
        assert_eq!(t.counts(), &[2, 4, 2, 4]);
    }

    #[test]
    fn proportions_sum_is_exact() {
        for len in [0usize, 1, 7, 100, 1023] {
            let t = DistTempl::proportional(len, &Proportions::new(vec![3, 1, 5]));
            assert_eq!(t.len(), len, "len {len}");
        }
    }

    #[test]
    fn owner_lookup() {
        let t = DistTempl::from_counts(vec![3, 0, 2]);
        assert_eq!(t.owner_of(0).unwrap(), (0, 0));
        assert_eq!(t.owner_of(2).unwrap(), (0, 2));
        assert_eq!(t.owner_of(3).unwrap(), (2, 0));
        assert_eq!(t.owner_of(4).unwrap(), (2, 1));
        assert!(t.owner_of(5).is_err());
    }

    #[test]
    fn resize_grow_extends_last_owner() {
        let t = DistTempl::from_counts(vec![4, 4]);
        let g = t.resized(12);
        assert_eq!(g.counts(), &[4, 8]);
    }

    #[test]
    fn resize_shrink_discards_from_top() {
        let t = DistTempl::from_counts(vec![4, 4, 4]);
        assert_eq!(t.resized(9).counts(), &[4, 4, 1]);
        assert_eq!(t.resized(3).counts(), &[3, 0, 0]);
        assert_eq!(t.resized(0).counts(), &[0, 0, 0]);
    }

    #[test]
    fn resize_grow_skips_empty_trailing_threads() {
        let t = DistTempl::from_counts(vec![2, 3, 0]);
        // Last owner is thread 1, so growth lands there.
        assert_eq!(t.resized(8).counts(), &[2, 6, 0]);
    }

    #[test]
    fn remap_onto_survivors_preserves_length_and_order() {
        let t = DistTempl::proportional(13, &Proportions::new(vec![2, 4, 2, 4]));
        let r = t.remap_onto(&[0, 1, 3]).unwrap();
        assert_eq!(r.nthreads(), 4, "arity preserved");
        assert_eq!(r.len(), 13, "length preserved");
        assert_eq!(r.count(2), 0, "dead rank owns nothing");
        // Blockwise over survivors ascending: 13 over 3 = 5,4,4.
        assert_eq!(r.counts(), &[5, 4, 0, 4]);
        // Contiguity: ranges concatenate back to the global order.
        assert_eq!(r.range(0), 0..5);
        assert_eq!(r.range(1), 5..9);
        assert_eq!(r.range(3), 9..13);
    }

    #[test]
    fn remap_onto_rejects_bad_survivor_sets() {
        let t = DistTempl::block(8, 4);
        assert!(t.remap_onto(&[]).is_err());
        assert!(t.remap_onto(&[0, 4]).is_err());
        // Full survivor set is legal (blockwise re-spread).
        assert_eq!(t.remap_onto(&[0, 1, 2, 3]).unwrap().counts(), &[2, 2, 2, 2]);
    }

    #[test]
    fn transfers_identity_layout() {
        let t = DistTempl::block(100, 4);
        for s in 0..4 {
            let x = t.transfers_to(s, &t);
            assert_eq!(x, vec![(s, t.range(s))]);
        }
    }

    #[test]
    fn transfers_2_to_3() {
        let src = DistTempl::block(12, 2); // [0..6), [6..12)
        let dst = DistTempl::block(12, 3); // [0..4), [4..8), [8..12)
        assert_eq!(src.transfers_to(0, &dst), vec![(0, 0..4), (1, 4..6)]);
        assert_eq!(src.transfers_to(1, &dst), vec![(1, 6..8), (2, 8..12)]);
    }

    #[test]
    fn transfers_cover_everything_once() {
        let src = DistTempl::proportional(97, &Proportions::new(vec![1, 3, 2]));
        let dst = DistTempl::block(97, 5);
        let mut covered = [0u8; 97];
        for s in 0..src.nthreads() {
            for (_, r) in src.transfers_to(s, &dst) {
                for i in r {
                    covered[i] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "each element exactly once");
    }

    #[test]
    fn incoming_counts_match_transfers() {
        let src = DistTempl::block(50, 4);
        let dst = DistTempl::proportional(50, &Proportions::new(vec![5, 1, 1, 5]));
        for d in 0..dst.nthreads() {
            let expected = (0..src.nthreads())
                .map(|s| {
                    src.transfers_to(s, &dst)
                        .iter()
                        .filter(|(t, _)| *t == d)
                        .count()
                })
                .sum::<usize>();
            assert_eq!(dst.incoming_count(d, &src), expected, "dst {d}");
        }
    }

    #[test]
    fn incoming_counts_skip_sources_that_own_nothing() {
        // Source thread 1 owns nothing; its empty range [17, 17) lies
        // inside destination thread 0's range.
        let src = DistTempl::from_counts(vec![17, 0, 15]);
        let dst = DistTempl::from_counts(vec![32]);
        assert_eq!(src.transfers_to(1, &dst), vec![]);
        assert_eq!(dst.incoming_count(0, &src), 2);
    }

    #[test]
    fn from_spec_block_and_props() {
        let t = DistTempl::from_spec(&DistSpec::Block, 10, 2).unwrap();
        assert_eq!(t.counts(), &[5, 5]);
        let t = DistTempl::from_spec(&DistSpec::Proportions(vec![1, 3]), 8, 2).unwrap();
        assert_eq!(t.counts(), &[2, 6]);
        assert!(DistTempl::from_spec(&DistSpec::Proportions(vec![1, 3]), 8, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_proportions_panics() {
        let _ = Proportions::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "nonzero weight")]
    fn zero_proportions_panics() {
        let _ = Proportions::new(vec![0, 0]);
    }

    #[test]
    fn zero_weight_thread_owns_nothing() {
        let t = DistTempl::proportional(10, &Proportions::new(vec![0, 1, 1]));
        assert_eq!(t.count(0), 0);
        assert_eq!(t.len(), 10);
        // transfers from an empty owner are empty
        assert!(t.transfers_to(0, &DistTempl::block(10, 3)).is_empty());
    }
}
