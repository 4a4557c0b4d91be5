//! A packed, Hilbert-sorted rectangle index over cell-group bounds.
//!
//! [`QueryEngine`](crate::QueryEngine) used to answer window and
//! knn queries with a linear scan over every group. This index replaces
//! those scans: group ids are sorted by the Hilbert key of their
//! rectangle centers (so spatially close groups sit in the same leaf —
//! the classic packed/STR construction), then grouped into fixed-fanout
//! runs with one bounding box per run, repeated level by level until a
//! single root run remains.
//!
//! Two boxes are kept per node because the two queries prune in
//! different spaces: window queries intersect in *cell* coordinates
//! (group rectangles), knn queries measure Euclidean distance in *geo*
//! coordinates (group centroids). The centroid box is the box of member
//! centroids, which makes `mindist(query, box)` a lower bound on the
//! distance to any member centroid — the admissibility condition the
//! best-first search needs to return exactly the same neighbors, in the
//! same `(distance, group id)` order, as the full sort it replaces.
//!
//! The index is a pure function of the partition, so engines built from
//! the same snapshot carry identical indexes at any thread count.
//!
//! Storage is three flat arrays — `entries`, `nodes` (all levels
//! concatenated, leaves first), `level_offsets` — so the sr-snap v2
//! encoder can serialize the index verbatim and the engine can serve it
//! *borrowed*: the query algorithms live on [`RectIndexView`], over
//! slices cast straight out of a validated snapshot section.

use sr_core::GroupRect;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Entries per node. Small enough that a leaf scan stays in cache, big
/// enough that the tree is shallow (36k groups → 3 levels).
pub(crate) const FANOUT: usize = 16;

/// One packed node: the closed cell-space box of its member rectangles,
/// the closed geo-space box of its member centroids, and the run of
/// curve-ordered entries it covers.
///
/// `#[repr(C)]` with the four `f64` boxes first: 32 bytes of `f64`
/// followed by 24 bytes of `u32` — 56 bytes, align 8, no padding — so a
/// `&[Node]` can be reinterpreted as the bytes of a v2 snapshot section
/// and back.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct Node {
    pub(crate) lat_min: f64,
    pub(crate) lat_max: f64,
    pub(crate) lon_min: f64,
    pub(crate) lon_max: f64,
    pub(crate) r0: u32,
    pub(crate) r1: u32,
    pub(crate) c0: u32,
    pub(crate) c1: u32,
    /// Covered run: entry indices at level 0, child-node indices above
    /// (both relative to the start of the child level).
    pub(crate) start: u32,
    pub(crate) end: u32,
}

// The v2 section cast in `v2.rs` relies on this exact layout.
const _: () = assert!(std::mem::size_of::<Node>() == 56);
const _: () = assert!(std::mem::align_of::<Node>() == 8);

impl Node {
    fn intersects_cells(&self, r_lo: u32, r_hi: u32, c_lo: u32, c_hi: u32) -> bool {
        self.r0 <= r_hi && r_lo <= self.r1 && self.c0 <= c_hi && c_lo <= self.c1
    }

    /// Squared Euclidean distance from `(lat, lon)` to the centroid box;
    /// `0` inside. NaN coordinates yield `0` (the node is always
    /// expanded), which reproduces the full-scan behavior for NaN
    /// queries deterministically.
    fn mindist2(&self, lat: f64, lon: f64) -> f64 {
        let axis = |q: f64, lo: f64, hi: f64| {
            if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            }
        };
        let dy = axis(lat, self.lat_min, self.lat_max);
        let dx = axis(lon, self.lon_min, self.lon_max);
        dy * dy + dx * dx
    }
}

/// The packed index in flat storage: group ids in Hilbert order, every
/// level's nodes concatenated leaves-first, and the per-level offsets
/// into that node array. See the module docs for the construction.
#[derive(Debug, Clone)]
pub(crate) struct RectIndex {
    /// Group ids sorted by (Hilbert key of rectangle center, id).
    pub(crate) entries: Vec<u32>,
    /// All levels concatenated: level `k` occupies
    /// `nodes[level_offsets[k] .. level_offsets[k + 1]]`. Level 0 covers
    /// runs of `entries`; level `k + 1` covers runs of level `k`. The
    /// last level always has a single root node.
    pub(crate) nodes: Vec<Node>,
    /// `num_levels + 1` offsets into `nodes`; `level_offsets[0] == 0`.
    pub(crate) level_offsets: Vec<u32>,
}

/// Borrowed form of [`RectIndex`], as the engine casts it out of a
/// validated v2 snapshot section: the query algorithms live here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RectIndexView<'a> {
    pub(crate) entries: &'a [u32],
    pub(crate) nodes: &'a [Node],
    pub(crate) level_offsets: &'a [u32],
}

/// Best-first queue item: a node (`group == None`) or a leaf group.
/// Ordered ascending by `(d2, node-before-group, level, index)` — a total
/// order, so the traversal is deterministic even among exact ties.
struct QueueItem {
    d2: f64,
    /// `Some(gid)` for a group entry; `None` for a node.
    group: Option<u32>,
    level: usize,
    index: u32,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the smallest
        // distance on top.
        other
            .d2
            .total_cmp(&self.d2)
            .then_with(|| other.group.is_some().cmp(&self.group.is_some()))
            .then_with(|| other.level.cmp(&self.level))
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// Bounded best-k set ordered by `(d2, gid)`: a max-heap that keeps the
/// `k` smallest pairs, so the current kth distance is `peek()`.
struct KBest {
    k: usize,
    heap: BinaryHeap<DistGroup>,
}

struct DistGroup(f64, u32);

impl PartialEq for DistGroup {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for DistGroup {}
impl PartialOrd for DistGroup {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DistGroup {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then_with(|| self.1.cmp(&other.1))
    }
}

impl KBest {
    /// A set keeping the `k` best of at most `candidates` pushes: the
    /// heap is sized by the smaller of the two, so a `k` past the
    /// candidate count allocates nothing extra.
    fn new(k: usize, candidates: usize) -> Self {
        KBest { k, heap: BinaryHeap::with_capacity(k.min(candidates) + 1) }
    }

    fn push(&mut self, d2: f64, gid: u32) {
        self.heap.push(DistGroup(d2, gid));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// `true` when a candidate with this `(d2, gid)` would enter the set.
    fn admits(&self, d2: f64, gid: u32) -> bool {
        if self.heap.len() < self.k {
            return true;
        }
        match self.heap.peek() {
            Some(worst) => DistGroup(d2, gid).cmp(worst) == Ordering::Less,
            None => true,
        }
    }

    fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Strict upper bound for pruning once the set is full: an item whose
    /// lower-bound distance exceeds this cannot enter. Only meaningful
    /// when [`KBest::is_full`] — `total_cmp` orders NaN above infinity,
    /// so an unconditional check would wrongly prune NaN distances while
    /// the set still has room.
    fn prune_d2(&self) -> f64 {
        self.heap.peek().map_or(f64::INFINITY, |w| w.0)
    }

    fn into_sorted(self) -> Vec<(f64, u32)> {
        let mut v: Vec<(f64, u32)> = self.heap.into_iter().map(|DistGroup(d, g)| (d, g)).collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        v
    }
}

/// The Hilbert key of a rectangle's center — the primary key of the
/// entry order (ties broken by ascending group id).
pub(crate) fn entry_sort_key(rect: &GroupRect, rows: usize, cols: usize) -> u64 {
    let center_r = (rect.r0 + rect.r1 + 1) as f64 / 2.0;
    let center_c = (rect.c0 + rect.c1 + 1) as f64 / 2.0;
    sr_grid::hilbert_key_scaled(center_r, center_c, rows, cols)
}

/// Boxes `entries` (already in curve order) into the packed level
/// structure. Split out from [`RectIndex::build`] so a v2 snapshot
/// loader can recompute the expected nodes for a stored entry order and
/// compare them bit-for-bit without re-sorting.
pub(crate) fn pack_levels(
    entries: &[u32],
    rects: &[GroupRect],
    centroids: &[[f64; 2]],
) -> (Vec<Node>, Vec<u32>) {
    let mut nodes: Vec<Node> = Vec::new();
    let mut level_offsets: Vec<u32> = vec![0];
    // Level 0: box up runs of FANOUT entries.
    let mut level: Vec<Node> = entries
        .chunks(FANOUT)
        .enumerate()
        .map(|(i, run)| {
            let mut node = empty_node((i * FANOUT) as u32, (i * FANOUT + run.len()) as u32);
            for &g in run {
                let rect = &rects[g as usize];
                let [clat, clon] = centroids[g as usize];
                node.r0 = node.r0.min(rect.r0);
                node.r1 = node.r1.max(rect.r1);
                node.c0 = node.c0.min(rect.c0);
                node.c1 = node.c1.max(rect.c1);
                node.lat_min = node.lat_min.min(clat);
                node.lat_max = node.lat_max.max(clat);
                node.lon_min = node.lon_min.min(clon);
                node.lon_max = node.lon_max.max(clon);
            }
            node
        })
        .collect();
    // Upper levels: box up runs of FANOUT child nodes until one root
    // run remains.
    while level.len() > 1 {
        let parent: Vec<Node> = level
            .chunks(FANOUT)
            .enumerate()
            .map(|(i, run)| {
                let mut node = empty_node((i * FANOUT) as u32, (i * FANOUT + run.len()) as u32);
                for child in run {
                    node.r0 = node.r0.min(child.r0);
                    node.r1 = node.r1.max(child.r1);
                    node.c0 = node.c0.min(child.c0);
                    node.c1 = node.c1.max(child.c1);
                    node.lat_min = node.lat_min.min(child.lat_min);
                    node.lat_max = node.lat_max.max(child.lat_max);
                    node.lon_min = node.lon_min.min(child.lon_min);
                    node.lon_max = node.lon_max.max(child.lon_max);
                }
                node
            })
            .collect();
        nodes.extend_from_slice(&level);
        level_offsets.push(nodes.len() as u32);
        level = parent;
    }
    nodes.extend_from_slice(&level);
    level_offsets.push(nodes.len() as u32);
    (nodes, level_offsets)
}

impl RectIndex {
    /// Packs an index over `rects` (one per group, tiling a
    /// `rows × cols` grid) with `centroids` as each group's geo-space
    /// point.
    pub(crate) fn build(
        rects: &[GroupRect],
        centroids: &[[f64; 2]],
        rows: usize,
        cols: usize,
    ) -> RectIndex {
        // One key per group, packed as `key << 32 | gid`: the Hilbert
        // key fits 32 bits (`2 * HILBERT_ORDER`) and group ids are u32,
        // so sorting the packed words is exactly the `(key, id)`
        // lexicographic order — one flat u64 sort instead of comparator
        // calls over cached tuples.
        let mut packed: Vec<u64> = rects
            .iter()
            .enumerate()
            .map(|(g, rect)| {
                let key = entry_sort_key(rect, rows, cols);
                debug_assert!(key >> 32 == 0, "Hilbert key exceeds 32 bits");
                key << 32 | g as u64
            })
            .collect();
        packed.sort_unstable();
        let entries: Vec<u32> = packed.iter().map(|&w| w as u32).collect();
        let (nodes, level_offsets) = pack_levels(&entries, rects, centroids);
        RectIndex { entries, nodes, level_offsets }
    }
}

impl<'a> RectIndexView<'a> {
    fn num_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    fn level(&self, lvl: usize) -> &'a [Node] {
        &self.nodes[self.level_offsets[lvl] as usize..self.level_offsets[lvl + 1] as usize]
    }

    /// Group ids whose rectangles intersect the closed cell range AND
    /// whose curve positions fall in `[pos_lo, pos_hi)` of the Hilbert
    /// entry order, pushed onto `out` in ascending id order. Pass
    /// `[0, num_groups)` for an unrestricted scan. Because the entry
    /// order is the same pure function of the partition as a shard
    /// split's group order, a sharded router can hand each shard exactly
    /// its own contiguous position range and the per-shard scans sum to
    /// one unsharded scan instead of duplicating it K times.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn intersecting_in_range(
        &self,
        rects: &[GroupRect],
        r_lo: u32,
        r_hi: u32,
        c_lo: u32,
        c_hi: u32,
        pos_lo: usize,
        pos_hi: usize,
        out: &mut Vec<u32>,
    ) {
        let mark = out.len();
        let top = self.num_levels() - 1;
        // Depth-first walk with an explicit stack of (level, node index).
        // A node at level L is packed, so node i covers exactly the entry
        // positions [i * FANOUT^(L+1), (i+1) * FANOUT^(L+1)) ∩ [0, n).
        let mut stack: Vec<(usize, u32)> =
            (0..self.level(top).len() as u32).map(|i| (top, i)).collect();
        while let Some((lvl, i)) = stack.pop() {
            let span = FANOUT.pow(lvl as u32 + 1);
            let node_lo = i as usize * span;
            if node_lo >= pos_hi || node_lo + span <= pos_lo {
                continue;
            }
            let node = &self.level(lvl)[i as usize];
            if !node.intersects_cells(r_lo, r_hi, c_lo, c_hi) {
                continue;
            }
            if lvl == 0 {
                let lo = (node.start as usize).max(pos_lo);
                let hi = (node.end as usize).min(pos_hi);
                for &g in &self.entries[lo..hi] {
                    let rect = &rects[g as usize];
                    if rect.r0 <= r_hi && r_lo <= rect.r1 && rect.c0 <= c_hi && c_lo <= rect.c1 {
                        out.push(g);
                    }
                }
            } else {
                for child in node.start..node.end {
                    stack.push((lvl - 1, child));
                }
            }
        }
        out[mark..].sort_unstable();
    }

    /// The `k` groups passing `featured` whose centroids are nearest to
    /// `(lat, lon)` and whose curve positions fall in `[pos_lo, pos_hi)`
    /// of the Hilbert entry order, as ascending `(squared distance,
    /// group id)` — exactly the order (ties included) a full `(d2, gid)`
    /// sort over that position slice would produce. Pass
    /// `[0, num_groups)` for an unrestricted search. Nodes whose packed
    /// position span falls entirely outside the range are never
    /// expanded, so a sharded engine searching only its own contiguous
    /// slice pays for a tree of its own size rather than the whole
    /// deployment's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn nearest_in_range(
        &self,
        centroids: &[[f64; 2]],
        lat: f64,
        lon: f64,
        k: usize,
        pos_lo: usize,
        pos_hi: usize,
        featured: impl Fn(u32) -> bool,
    ) -> Vec<(f64, u32)> {
        if k == 0 || pos_lo >= pos_hi {
            return Vec::new();
        }
        // A node at level L is packed: node i covers exactly the entry
        // positions [i * FANOUT^(L+1), (i+1) * FANOUT^(L+1)) ∩ [0, n).
        let in_range = |lvl: usize, i: u32| {
            let span = FANOUT.pow(lvl as u32 + 1);
            let node_lo = i as usize * span;
            node_lo < pos_hi && node_lo + span > pos_lo
        };
        let mut best = KBest::new(k, (pos_hi - pos_lo).min(self.entries.len()));
        let mut queue: BinaryHeap<QueueItem> = BinaryHeap::new();
        let top = self.num_levels() - 1;
        for (i, node) in self.level(top).iter().enumerate() {
            if !in_range(top, i as u32) {
                continue;
            }
            queue.push(QueueItem {
                d2: node.mindist2(lat, lon),
                group: None,
                level: top,
                index: i as u32,
            });
        }
        while let Some(item) = queue.pop() {
            // Everything still queued has d2 >= item.d2: once the set is
            // full and the kth (d2, gid) beats it strictly, no later item
            // can enter.
            if best.is_full() && item.d2.total_cmp(&best.prune_d2()) == Ordering::Greater {
                break;
            }
            match item.group {
                Some(g) => {
                    if best.admits(item.d2, g) {
                        best.push(item.d2, g);
                    }
                }
                None => {
                    let node = &self.level(item.level)[item.index as usize];
                    if item.level == 0 {
                        let lo = (node.start as usize).max(pos_lo);
                        let hi = (node.end as usize).min(pos_hi);
                        for &g in &self.entries[lo..hi] {
                            if !featured(g) {
                                continue;
                            }
                            let [clat, clon] = centroids[g as usize];
                            let d2 = (clat - lat) * (clat - lat) + (clon - lon) * (clon - lon);
                            queue.push(QueueItem { d2, group: Some(g), level: 0, index: g });
                        }
                    } else {
                        for child in node.start..node.end {
                            if !in_range(item.level - 1, child) {
                                continue;
                            }
                            let child_node = &self.level(item.level - 1)[child as usize];
                            queue.push(QueueItem {
                                d2: child_node.mindist2(lat, lon),
                                group: None,
                                level: item.level - 1,
                                index: child,
                            });
                        }
                    }
                }
            }
        }
        best.into_sorted()
    }
}

fn empty_node(start: u32, end: u32) -> Node {
    Node {
        lat_min: f64::INFINITY,
        lat_max: f64::NEG_INFINITY,
        lon_min: f64::INFINITY,
        lon_max: f64::NEG_INFINITY,
        r0: u32::MAX,
        r1: 0,
        c0: u32::MAX,
        c1: 0,
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RectIndex {
        /// Borrowed view over the owned arrays, so the query algorithms
        /// can be tested without an encoded snapshot.
        fn view(&self) -> RectIndexView<'_> {
            RectIndexView {
                entries: &self.entries,
                nodes: &self.nodes,
                level_offsets: &self.level_offsets,
            }
        }
    }

    /// A synthetic partition: `side × side` unit rects, centroid = cell
    /// center in a unit geo square.
    fn unit_grid(side: usize) -> (Vec<GroupRect>, Vec<[f64; 2]>) {
        let mut rects = Vec::new();
        let mut centroids = Vec::new();
        for r in 0..side {
            for c in 0..side {
                rects.push(GroupRect { r0: r as u32, r1: r as u32, c0: c as u32, c1: c as u32 });
                centroids.push([(r as f64 + 0.5) / side as f64, (c as f64 + 0.5) / side as f64]);
            }
        }
        (rects, centroids)
    }

    #[test]
    fn intersecting_matches_linear_scan() {
        let (rects, centroids) = unit_grid(20);
        let index = RectIndex::build(&rects, &centroids, 20, 20);
        for (r_lo, r_hi, c_lo, c_hi) in
            [(0, 19, 0, 19), (3, 7, 5, 11), (19, 19, 0, 0), (8, 8, 8, 8)]
        {
            let mut got = Vec::new();
            index.view().intersecting_in_range(
                &rects,
                r_lo,
                r_hi,
                c_lo,
                c_hi,
                0,
                rects.len(),
                &mut got,
            );
            let want: Vec<u32> = (0..rects.len() as u32)
                .filter(|&g| {
                    let rect = &rects[g as usize];
                    rect.r0 <= r_hi && r_lo <= rect.r1 && rect.c0 <= c_hi && c_lo <= rect.c1
                })
                .collect();
            assert_eq!(got, want, "range ({r_lo},{r_hi},{c_lo},{c_hi})");
        }
    }

    #[test]
    fn range_restricted_intersection_matches_position_slice() {
        let (rects, centroids) = unit_grid(20);
        let index = RectIndex::build(&rects, &centroids, 20, 20);
        let n = rects.len();
        for (r_lo, r_hi, c_lo, c_hi) in [(0u32, 19u32, 0u32, 19u32), (3, 7, 5, 11), (8, 8, 8, 8)] {
            for (lo, hi) in [(0usize, n), (0, 100), (100, 257), (n - 1, n), (13, 14), (5, 5)] {
                let mut got = Vec::new();
                index
                    .view()
                    .intersecting_in_range(&rects, r_lo, r_hi, c_lo, c_hi, lo, hi, &mut got);
                let mut want: Vec<u32> = index.entries[lo..hi]
                    .iter()
                    .copied()
                    .filter(|&g| {
                        let rect = &rects[g as usize];
                        rect.r0 <= r_hi && r_lo <= rect.r1 && rect.c0 <= c_hi && c_lo <= rect.c1
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "range ({r_lo},{r_hi},{c_lo},{c_hi}) pos [{lo},{hi})");
            }
        }
    }

    #[test]
    fn range_restricted_nearest_matches_position_slice() {
        let (rects, centroids) = unit_grid(20);
        let index = RectIndex::build(&rects, &centroids, 20, 20);
        let n = rects.len();
        for (lat, lon) in [(0.5, 0.5), (0.0, 0.0), (2.0, -1.0), (f64::NAN, 0.5)] {
            for (lo, hi) in [(0usize, n), (0, 100), (100, 257), (n - 1, n), (13, 14), (5, 5)] {
                for k in [1usize, 7, 500] {
                    let got = index
                        .view()
                        .nearest_in_range(&centroids, lat, lon, k, lo, hi, |g| g % 2 == 0);
                    let mut want: Vec<(f64, u32)> = index.entries[lo..hi]
                        .iter()
                        .copied()
                        .filter(|&g| g % 2 == 0)
                        .map(|g| {
                            let [clat, clon] = centroids[g as usize];
                            ((clat - lat) * (clat - lat) + (clon - lon) * (clon - lon), g)
                        })
                        .collect();
                    want.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                    want.truncate(k);
                    assert_eq!(got.len(), want.len(), "k={k} at ({lat},{lon}) pos [{lo},{hi})");
                    for (a, b) in got.iter().zip(&want) {
                        assert_eq!(a.1, b.1, "k={k} at ({lat},{lon}) pos [{lo},{hi})");
                        assert_eq!(a.0.to_bits(), b.0.to_bits(), "k={k} at ({lat},{lon})");
                    }
                }
            }
        }
    }

    #[test]
    fn nearest_matches_full_sort_with_ties() {
        let (rects, centroids) = unit_grid(17);
        let index = RectIndex::build(&rects, &centroids, 17, 17);
        // Query points chosen to generate distance ties (grid symmetry).
        for (lat, lon) in [(0.5, 0.5), (0.0, 0.0), (0.25, 0.75), (2.0, -1.0), (f64::NAN, 0.5)] {
            for k in [1usize, 5, 13, 400] {
                // Only even group ids are "featured".
                let got =
                    index
                        .view()
                        .nearest_in_range(&centroids, lat, lon, k, 0, rects.len(), |g| g % 2 == 0);
                let mut want: Vec<(f64, u32)> = (0..rects.len() as u32)
                    .filter(|g| g % 2 == 0)
                    .map(|g| {
                        let [clat, clon] = centroids[g as usize];
                        ((clat - lat) * (clat - lat) + (clon - lon) * (clon - lon), g)
                    })
                    .collect();
                want.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                want.truncate(k);
                assert_eq!(got.len(), want.len(), "k={k} at ({lat},{lon})");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.1, b.1, "k={k} at ({lat},{lon})");
                    assert_eq!(a.0.to_bits(), b.0.to_bits(), "k={k} at ({lat},{lon})");
                }
            }
        }
    }

    #[test]
    fn flat_levels_are_leaves_first_and_root_is_single() {
        let (rects, centroids) = unit_grid(20);
        let index = RectIndex::build(&rects, &centroids, 20, 20);
        let view = index.view();
        // 400 entries → 25 leaves → 2 mid → ... wait, 25 leaves / 16 →
        // 2 nodes → 1 root: three levels.
        assert_eq!(view.num_levels(), 3);
        assert_eq!(view.level(0).len(), 25);
        assert_eq!(view.level(1).len(), 2);
        assert_eq!(view.level(2).len(), 1);
        assert_eq!(index.level_offsets, vec![0, 25, 27, 28]);
        assert_eq!(index.nodes.len(), 28);
    }
}
