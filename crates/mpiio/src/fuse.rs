//! Many-task request fusion: merge thousands of tiny per-task requests
//! into one deduplicated collective access pattern.
//!
//! The loosely-coupled many-task regime (thousands of small independent
//! analysis tasks) thrashes the OSTs when each task issues its own reads:
//! every extent is a separate positioning operation, and overlapping or
//! duplicate regions are fetched once *per task*. Fusion flips that
//! around: the union of all task extents is computed once
//! ([`fuse_extents`]), served by a single collective sweep, and each
//! task's bytes are projected back out of the fused buffer
//! ([`project_task`]) — every byte read from storage at most once.
//!
//! The projection is exact by construction: a fused list holds maximal
//! disjoint non-adjacent runs, so any single task extent (contiguous and
//! fully contained in the union) lands inside exactly one fused run.
//! [`project_task`] enforces that single-piece guarantee with a
//! diagnostic panic — if it ever split, a consumer folding the piece
//! bytes could see different run boundaries than a solo execution.

use crate::extent::{Extent, OffsetList, Piece};

/// What fusion saved: the raw task-request volume next to the fused
/// (deduplicated) access pattern that actually goes to storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Tasks folded into the fused pattern.
    pub(crate) tasks: u64,
    /// Extents across all task requests (what independent I/O would issue).
    pub task_extents: u64,
    /// Bytes across all task requests, duplicates counted per task.
    pub task_bytes: u64,
    /// Extents in the fused pattern after merge/dedup/coalesce.
    pub fused_extents: u64,
    /// Unique bytes in the fused pattern.
    pub fused_bytes: u64,
}

impl FuseStats {}

/// Merges many per-task requests into one deduplicated [`OffsetList`]:
/// the union of all task extents, overlaps and exact duplicates collapsed,
/// adjacent runs coalesced. The returned list covers every byte of every
/// task request exactly once.
pub fn fuse_extents<'a, I>(requests: I) -> (OffsetList, FuseStats)
where
    I: IntoIterator<Item = &'a OffsetList>,
{
    let mut stats = FuseStats::default();
    let mut raw: Vec<Extent> = Vec::new();
    for req in requests {
        stats.tasks += 1;
        stats.task_extents += req.extents().len() as u64;
        stats.task_bytes += req.total_bytes();
        raw.extend_from_slice(req.extents());
    }
    // Union-merge: `OffsetList::new` rejects overlaps (a *request* never
    // asks for a byte twice), so collapse them here first — fusion is
    // exactly the place where the same byte is wanted many times.
    raw.retain(|e| e.len > 0);
    raw.sort_unstable_by_key(|e| e.offset);
    let mut merged: Vec<Extent> = Vec::with_capacity(raw.len());
    for e in raw {
        match merged.last_mut() {
            Some(last) if e.offset <= last.end() => {
                last.len = last.len.max(e.end() - last.offset);
            }
            _ => merged.push(e),
        }
    }
    let fused = OffsetList::new(merged);
    stats.fused_extents = fused.extents().len() as u64;
    stats.fused_bytes = fused.total_bytes();
    (fused, stats)
}

/// Projects one task extent out of a fused request: returns the piece of
/// the fused buffer holding exactly that extent's bytes.
///
/// # Panics
/// Panics (diagnostically, with the task context) if the fused list does
/// not cover the extent in one contiguous piece — impossible for a list
/// built by [`fuse_extents`] over a set containing this extent, so a trip
/// means the caller projected against the wrong bin's pattern.
pub fn project_extent(task_id: u64, extent: Extent, fused: &OffsetList) -> Piece {
    let mut pieces = fused.locate(extent.offset, extent.end());
    let first = pieces.next();
    let (count, covered) = first
        .into_iter()
        .chain(pieces)
        .fold((0usize, 0u64), |(n, bytes), p| {
            (n + 1, bytes + p.extent.len)
        });
    match first {
        Some(piece) if count == 1 && covered == extent.len => piece,
        _ => panic!(
            "task {task_id}: extent [{}, {}) maps to {count} fused piece(s) covering {covered} \
             of {} bytes — task projected against a fused pattern that does not contain it",
            extent.offset,
            extent.end(),
            extent.len,
        ),
    }
}

/// Projects a whole task request out of the fused buffer: one
/// [`Piece`] per task extent, in task-buffer order. Slicing the fused
/// buffer at each piece's `buf_offset` reproduces the bytes an
/// independent read of `task` would have returned, byte for byte.
///
/// # Panics
/// See [`project_extent`].
pub fn project_task(task_id: u64, task: &OffsetList, fused: &OffsetList) -> Vec<Piece> {
    task.extents()
        .iter()
        .map(|&e| project_extent(task_id, e, fused))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl FuseStats {
        /// Requested-to-unique byte ratio (1.0 = no overlap anywhere, ≥ 1.0
        /// always; 0.0 for an empty batch).
        fn dedup_factor(&self) -> f64 {
            if self.fused_bytes == 0 {
                0.0
            } else {
                self.task_bytes as f64 / self.fused_bytes as f64
            }
        }

        /// Task-extent-to-fused-extent ratio: how many independent requests
        /// each fused run replaces (0.0 for an empty batch).
        fn extent_factor(&self) -> f64 {
            if self.fused_extents == 0 {
                0.0
            } else {
                self.task_extents as f64 / self.fused_extents as f64
            }
        }
    }

    fn ext(offset: u64, len: u64) -> Extent {
        Extent { offset, len }
    }

    fn list(pairs: &[(u64, u64)]) -> OffsetList {
        OffsetList::new(pairs.iter().map(|&(o, l)| ext(o, l)).collect())
    }

    #[test]
    fn fuse_merges_overlaps_duplicates_and_adjacency() {
        let a = list(&[(0, 10), (20, 5)]);
        let b = list(&[(5, 10), (25, 5)]); // overlaps a's first, extends a's second
        let c = list(&[(0, 10)]); // exact duplicate of a's first
        let (fused, stats) = fuse_extents([&a, &b, &c]);
        assert_eq!(fused.extents(), &[ext(0, 15), ext(20, 10)]);
        assert_eq!(stats.tasks, 3);
        assert_eq!(stats.task_extents, 5);
        assert_eq!(stats.task_bytes, 40);
        assert_eq!(stats.fused_extents, 2);
        assert_eq!(stats.fused_bytes, 25);
        assert!((stats.dedup_factor() - 1.6).abs() < 1e-12);
        assert!((stats.extent_factor() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fuse_contained_extent_is_absorbed() {
        let a = list(&[(0, 100)]);
        let b = list(&[(10, 5)]); // strictly inside a
        let (fused, stats) = fuse_extents([&a, &b]);
        assert_eq!(fused.extents(), &[ext(0, 100)]);
        assert_eq!(stats.fused_bytes, 100);
    }

    #[test]
    fn fuse_empty_batch_is_empty() {
        let (fused, stats) = fuse_extents(std::iter::empty::<&OffsetList>());
        assert!(fused.is_empty());
        assert_eq!(stats, FuseStats::default());
        assert_eq!(stats.dedup_factor(), 0.0);
        assert_eq!(stats.extent_factor(), 0.0);
    }

    #[test]
    fn project_returns_single_exact_pieces() {
        let a = list(&[(0, 10), (30, 10)]);
        let b = list(&[(5, 10)]); // bridges past a's first run
        let (fused, _) = fuse_extents([&a, &b]);
        assert_eq!(fused.extents(), &[ext(0, 15), ext(30, 10)]);
        let pa = project_task(0, &a, &fused);
        assert_eq!(pa.len(), 2);
        assert_eq!(
            pa[0],
            Piece {
                extent: ext(0, 10),
                buf_offset: 0
            }
        );
        assert_eq!(
            pa[1],
            Piece {
                extent: ext(30, 10),
                buf_offset: 15
            }
        );
        let pb = project_task(1, &b, &fused);
        assert_eq!(
            pb,
            vec![Piece {
                extent: ext(5, 10),
                buf_offset: 5
            }]
        );
    }

    #[test]
    #[should_panic(expected = "does not contain it")]
    fn project_outside_fused_pattern_panics_with_context() {
        let (fused, _) = fuse_extents([&list(&[(0, 10)])]);
        let _ = project_extent(42, ext(100, 4), &fused);
    }

    /// Random task mixes (overlapping, disjoint, duplicated): the fused
    /// union covers every task byte exactly once, and every task extent
    /// projects to one exact piece.
    fn arb_tasks() -> impl Strategy<Value = Vec<OffsetList>> {
        proptest::collection::vec(
            proptest::collection::vec((0u64..300, 1u64..40), 1..6),
            1..12,
        )
        .prop_map(|tasks| {
            tasks
                .into_iter()
                .map(|pairs| {
                    // Per-task extents must not self-overlap (a request never
                    // asks for a byte twice): lay them out cumulatively.
                    let mut pos = 0;
                    let mut extents = Vec::new();
                    for (gap, len) in pairs {
                        pos += gap % 50 + 1;
                        extents.push(ext(pos, len));
                        pos += len;
                    }
                    OffsetList::new(extents)
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn prop_fusion_never_drops_a_byte(tasks in arb_tasks()) {
            let (fused, stats) = fuse_extents(tasks.iter());
            // Oracle union, byte by byte.
            let hi = tasks
                .iter()
                .filter_map(|t| t.max_end())
                .max()
                .unwrap_or(0);
            let mut wanted = vec![false; hi as usize];
            for t in &tasks {
                for e in t.extents() {
                    for o in e.offset..e.end() {
                        wanted[o as usize] = true;
                    }
                }
            }
            let unique = wanted.iter().filter(|&&w| w).count() as u64;
            prop_assert_eq!(stats.fused_bytes, unique, "fused bytes != union size");
            for (o, &w) in wanted.iter().enumerate() {
                let covered = fused.bytes_in(o as u64, o as u64 + 1) > 0;
                prop_assert_eq!(covered, w, "byte {} miscovered", o);
            }
            // Every task extent projects to exactly one piece of the
            // fused buffer, holding exactly its bytes.
            for (id, t) in tasks.iter().enumerate() {
                let pieces = project_task(id as u64, t, &fused);
                prop_assert_eq!(pieces.len(), t.extents().len());
                for (p, e) in pieces.iter().zip(t.extents()) {
                    prop_assert_eq!(p.extent, *e);
                }
            }
        }
    }
}
