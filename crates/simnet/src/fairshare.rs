//! Max-min fair rate allocation (progressive filling).
//!
//! Progressive filling repeatedly finds the most contended link (the
//! smallest remaining capacity per unfrozen flow), freezes every unfrozen
//! flow crossing it at that fair share, subtracts the share from the
//! capacity of every link those flows cross, and continues until every
//! flow is frozen.
//!
//! **Cost.** [`MaxMinSolver`] keeps its buffers across solves, so a solve
//! allocates nothing once they have grown to the largest flow set seen. A
//! solve with `I` flow-link incidences, `U` used links and `B` bottleneck
//! steps costs `O(I + U)` to number the links and index the flows per
//! link, `O(I)` in total to freeze every flow once and re-key the shares
//! of the links it crosses, and `O(B·U)` to pick the bottlenecks: one
//! packed-`min` pass per step over a dense `share` array. The scan it
//! replaced cost `O(B·(U + I))` per solve, plus a clone of every path.
//! On the `simnet-dc48` datacenter (about 52 active flows, 77 used links
//! and 28 steps per solve) a solve takes about 7 µs on a 2-vCPU VM, about
//! a third in indexing and the rest split between picking and freezing.
//!
//! **Bit identity.** The solver returns the same rates, bit for bit, as
//! the plain scan it replaced (kept as the oracle in this module's tests),
//! which recomputed every live link's share and searched every flow's
//! path on every step:
//!
//! * The shares are the same expression, `cap / cnt as f64`, of the same
//!   `cap` and `cnt`, recomputed whenever either changes.
//! * The bottleneck is the first live link, in first-appearance order,
//!   that no later link beats by strict `<`, exactly as the scan picks
//!   it. Dead links hold +∞, which never beats anything, and the pass
//!   starts at the first live link, so ties, +∞ shares (infinite
//!   capacities) and NaN shares (∞ − ∞ once such a link is frozen) all
//!   resolve to the scan's choice.
//! * Within one step every subtraction from a link's `cap` is the same
//!   `share`, followed by the same clamp at 0, so the order in which the
//!   step's flows are frozen cannot change a bit.
//!
//! A differential property test in this module holds the solver to the
//! scan on random trees with tied capacities, repeated endpoint pairs,
//! arbitrary link sequences, infinite capacities and one solver reused
//! across solves of different sizes.

use crate::topology::{LinkId, Topology};

/// `MaxMinSolver::slot` of a link no flow of the current solve crosses.
const NO_SLOT: usize = usize::MAX;

/// A reusable max-min solver: per-link state and index buffers survive
/// across solves, so a steady-state solve allocates nothing.
///
/// A link's *position* is its index in first-appearance order (flows in
/// input order, each path in order). All per-solve state is indexed by
/// position, so the hot loops touch only the links that carry flows.
#[derive(Debug, Default)]
pub(crate) struct MaxMinSolver {
    /// Position of each link id, or `NO_SLOT`. The links of a solve are
    /// reset at its end, so this is all `NO_SLOT` between solves and is
    /// never cleared.
    slot: Vec<usize>,
    /// Links carrying flows, by position.
    used: Vec<LinkId>,
    /// Remaining capacity per position.
    cap: Vec<f64>,
    /// Unfrozen flow-link incidences per position; a link is live while
    /// this is non-zero.
    cnt: Vec<usize>,
    /// Fair share `cap / cnt` per position, +∞ once the link is dead.
    share: Vec<f64>,
    /// Flows crossing position `p`, ascending:
    /// `link_flows[link_start[p]..link_start[p + 1]]`.
    link_start: Vec<usize>,
    link_flows: Vec<usize>,
    /// Positions of flow `f`'s path: `path_pos[path_start[f]..path_start[f + 1]]`.
    path_start: Vec<usize>,
    path_pos: Vec<usize>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

impl MaxMinSolver {
    /// An empty solver; buffers grow on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Max-min fair rates of the flows whose directed link paths
    /// (each non-empty) `paths` yields, in the same order.
    pub(crate) fn solve<'p, I>(&mut self, topo: &Topology, paths: I) -> &[f64]
    where
        I: IntoIterator<Item = &'p [LinkId]>,
    {
        if self.slot.len() < topo.link_count() {
            self.slot.resize(topo.link_count(), NO_SLOT);
        }

        // Give each link a position on first appearance, count its
        // incidences and record every path by position.
        self.used.clear();
        self.cap.clear();
        self.cnt.clear();
        self.path_pos.clear();
        self.path_start.clear();
        self.path_start.push(0);
        for path in paths {
            debug_assert!(!path.is_empty(), "flows must traverse at least one link");
            for &l in path {
                let mut p = self.slot[l];
                if p == NO_SLOT {
                    p = self.used.len();
                    self.slot[l] = p;
                    self.used.push(l);
                    self.cap.push(topo.link(l).capacity);
                    self.cnt.push(0);
                }
                self.cnt[p] += 1;
                self.path_pos.push(p);
            }
            self.path_start.push(self.path_pos.len());
        }
        let nf = self.path_start.len() - 1;
        let nu = self.used.len();
        self.rates.clear();
        self.rates.resize(nf, 0.0);

        // Initial shares, and the per-link flow lists (CSR). Filling from
        // the last flow backwards leaves each list ascending and each
        // `link_start[p]` at its list's start.
        self.share.clear();
        self.link_start.clear();
        let mut end = 0;
        for (&c, &n) in self.cap.iter().zip(&self.cnt) {
            self.share.push(c / n as f64);
            end += n;
            self.link_start.push(end);
        }
        self.link_start.push(end);
        self.link_flows.clear();
        self.link_flows.resize(end, 0);
        for f in (0..nf).rev() {
            for &p in &self.path_pos[self.path_start[f]..self.path_start[f + 1]] {
                self.link_start[p] -= 1;
                self.link_flows[self.link_start[p]] = f;
            }
        }

        self.frozen.clear();
        self.frozen.resize(nf, false);
        let mut remaining = nf;
        // Links die in place and never revive, so the first live position
        // only moves forward.
        let mut first_live = 0;
        while remaining > 0 {
            while first_live < nu && self.cnt[first_live] == 0 {
                first_live += 1;
            }
            assert!(first_live < nu, "live link must exist while flows remain");
            // The most contended live link, and its share.
            let b = first_live + first_min(&self.share[first_live..]);
            let share = self.share[b];
            // A dead pick would freeze nothing and never finish.
            assert!(self.cnt[b] > 0, "bottleneck {b} carries no unfrozen flow");

            // Freeze every unfrozen flow crossing the bottleneck and
            // re-key the links it crosses.
            for &f in &self.link_flows[self.link_start[b]..self.link_start[b + 1]] {
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                remaining -= 1;
                self.rates[f] = share;
                for &p in &self.path_pos[self.path_start[f]..self.path_start[f + 1]] {
                    self.cap[p] -= share;
                    self.cnt[p] -= 1;
                    if self.cap[p] < 0.0 {
                        self.cap[p] = 0.0; // numerical guard
                    }
                    self.share[p] = if self.cnt[p] == 0 {
                        f64::INFINITY
                    } else {
                        self.cap[p] / self.cnt[p] as f64
                    };
                }
            }
        }
        for &l in &self.used {
            self.slot[l] = NO_SLOT;
        }
        &self.rates
    }
}

/// Index of the first minimum of `xs` by strict `<`: what a running
/// `if x < best { best = x }` scan that starts at `xs[0]` picks.
///
/// That scan never leaves a NaN head and never moves to a later NaN, so
/// its pick is the first element equal to the least non-NaN value (or the
/// head when it is NaN). This finds that value first, over eight
/// independent lanes that compile to packed `min`, then its first
/// occurrence.
fn first_min(xs: &[f64]) -> usize {
    let head = xs[0];
    if head.is_nan() {
        return 0;
    }
    let mut lanes = [head; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in &mut chunks {
        for k in 0..8 {
            lanes[k] = if c[k] < lanes[k] { c[k] } else { lanes[k] };
        }
    }
    for &x in chunks.remainder() {
        if x < lanes[0] {
            lanes[0] = x;
        }
    }
    let mut min = lanes[0];
    for &x in &lanes[1..] {
        if x < min {
            min = x;
        }
    }
    let mut i = 0;
    while i + 4 <= xs.len() {
        if (xs[i] == min) | (xs[i + 1] == min) | (xs[i + 2] == min) | (xs[i + 3] == min) {
            break;
        }
        i += 4;
    }
    i + xs[i..]
        .iter()
        .position(|&x| x == min)
        .expect("the least value occurs in the slice")
}

/// Compute max-min fair rates for a set of flows.
///
/// `paths[f]` is flow `f`'s directed link path (non-empty). Runs a
/// one-shot [`MaxMinSolver`]; the simulator keeps one across solves.
pub fn max_min_rates(topo: &Topology, paths: &[Vec<LinkId>]) -> Vec<f64> {
    MaxMinSolver::new()
        .solve(topo, paths.iter().map(Vec::as_slice))
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use proptest::collection;
    use proptest::prelude::*;

    /// The reference oracle: the plain progressive-filling scan the solver
    /// replaced. Every step recomputes every live link's share, takes the
    /// first strict minimum in first-appearance order, and searches every
    /// unfrozen flow's path for the bottleneck.
    fn reference_rates(topo: &Topology, paths: &[Vec<LinkId>]) -> Vec<f64> {
        let nf = paths.len();
        let mut rates = vec![0.0f64; nf];
        if nf == 0 {
            return rates;
        }
        let mut cap = vec![0.0f64; topo.link_count()];
        let mut cnt = vec![0usize; topo.link_count()];
        let mut used: Vec<LinkId> = Vec::new();
        for path in paths {
            for &l in path {
                if cnt[l] == 0 {
                    cap[l] = topo.link(l).capacity;
                    used.push(l);
                }
                cnt[l] += 1;
            }
        }
        let mut frozen = vec![false; nf];
        let mut remaining = nf;
        while remaining > 0 {
            let mut best: Option<(f64, LinkId)> = None;
            for &l in &used {
                if cnt[l] == 0 {
                    continue;
                }
                let share = cap[l] / cnt[l] as f64;
                match best {
                    None => best = Some((share, l)),
                    Some((bs, _)) if share < bs => best = Some((share, l)),
                    _ => {}
                }
            }
            let (share, bottleneck) = best.expect("live link must exist while flows remain");
            for f in 0..nf {
                if frozen[f] || !paths[f].contains(&bottleneck) {
                    continue;
                }
                frozen[f] = true;
                remaining -= 1;
                rates[f] = share;
                for &l in &paths[f] {
                    cap[l] -= share;
                    cnt[l] -= 1;
                    if cap[l] < 0.0 {
                        cap[l] = 0.0;
                    }
                }
            }
        }
        rates
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Link capacities: mostly a few shared values, so equal shares tie
    /// across links, plus +∞ and arbitrary values.
    fn capacity() -> impl Strategy<Value = f64> {
        const CAPS: [f64; 6] = [1.0, 2.0, 3.0, 10.0, 125.0, f64::INFINITY];
        (0usize..8, 0.5f64..500.0).prop_map(|(k, x)| if k < CAPS.len() { CAPS[k] } else { x })
    }

    fn random_tree() -> impl Strategy<Value = Topology> {
        (1usize..6, 1usize..9, capacity(), capacity()).prop_map(|(racks, per_rack, host, core)| {
            // At least two hosts, so every flow has distinct endpoints.
            let per_rack = if racks == 1 {
                per_rack.max(2)
            } else {
                per_rack
            };
            Topology::tree(
                racks,
                per_rack,
                LinkSpec {
                    capacity: host,
                    latency: 0.0,
                },
                LinkSpec {
                    capacity: core,
                    latency: 0.0,
                },
            )
        })
    }

    /// 1–300 flows on a random tree. Mode 0 routes random host pairs, mode
    /// 1 draws them from three hosts (so most src→dst pairs repeat), mode 2
    /// takes arbitrary link sequences of 1–6 links, repeats allowed.
    fn random_flows() -> impl Strategy<Value = (Topology, Vec<Vec<LinkId>>)> {
        random_tree().prop_flat_map(|t| {
            let (hosts, links) = (t.hosts(), t.link_count());
            (
                0usize..3,
                collection::vec(
                    (0..hosts, 0..hosts, collection::vec(0..links, 1..7)),
                    1..301,
                ),
            )
                .prop_map(move |(mode, draws)| {
                    let paths = draws
                        .into_iter()
                        .map(|(a, b, seq)| {
                            let (a, b) = if mode == 1 {
                                (a % 3 % hosts, b % 3 % hosts)
                            } else {
                                (a, b)
                            };
                            match mode {
                                2 => seq,
                                _ if a == b => t.path(a, (a + 1) % hosts),
                                _ => t.path(a, b),
                            }
                        })
                        .collect();
                    (t.clone(), paths)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn solver_matches_reference_bit_for_bit((topo, paths) in random_flows()) {
            let want = bits(&reference_rates(&topo, &paths));
            prop_assert_eq!(bits(&max_min_rates(&topo, &paths)), want);
        }

        #[test]
        fn reused_solver_matches_reference_bit_for_bit(
            solves in collection::vec(random_flows(), 2..7)
        ) {
            // One solver across solves of different sizes and topologies:
            // buffers left from a larger solve must not leak into the next.
            let mut solver = MaxMinSolver::new();
            for (topo, paths) in &solves {
                let got = bits(solver.solve(topo, paths.iter().map(Vec::as_slice)));
                prop_assert_eq!(got, bits(&reference_rates(topo, paths)));
            }
        }
    }

    #[test]
    fn infinite_capacities_match_reference() {
        // ∞ shares tie everywhere, and freezing at ∞ leaves ∞ − ∞ = NaN
        // capacities behind: the pick must follow the scan through both.
        let inf = LinkSpec {
            capacity: f64::INFINITY,
            latency: 0.0,
        };
        let t = Topology::tree(3, 3, inf, inf);
        let paths = vec![
            t.path(0, 4),
            t.path(1, 4),
            t.path(0, 8),
            t.path(5, 2),
            t.path(0, 1),
        ];
        let got = max_min_rates(&t, &paths);
        assert_eq!(bits(&got), bits(&reference_rates(&t, &paths)));
        assert!(got.iter().any(|r| r.is_nan()), "no ∞ − ∞ residue: {got:?}");
    }

    fn topo() -> Topology {
        Topology::tree(
            2,
            4,
            LinkSpec {
                capacity: 100.0,
                latency: 0.0,
            },
            LinkSpec {
                capacity: 250.0,
                latency: 0.0,
            },
        )
    }

    #[test]
    fn single_flow_gets_bottleneck() {
        let t = topo();
        let rates = max_min_rates(&t, &[t.path(0, 1)]);
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn two_flows_share_a_link() {
        let t = topo();
        // Both flows leave host 0: share its 100-capacity up link.
        let rates = max_min_rates(&t, &[t.path(0, 1), t.path(0, 2)]);
        assert_eq!(rates, vec![50.0, 50.0]);
    }

    #[test]
    fn disjoint_flows_independent() {
        let t = topo();
        let rates = max_min_rates(&t, &[t.path(0, 1), t.path(2, 3)]);
        assert_eq!(rates, vec![100.0, 100.0]);
    }

    #[test]
    fn core_link_oversubscription() {
        let t = topo();
        // Four cross-rack flows from distinct hosts all cross rack 0's up
        // link (capacity 250): fair share 62.5 each, below the 100 host
        // limit.
        let paths: Vec<_> = (0..4).map(|h| t.path(h, 4 + h)).collect();
        let rates = max_min_rates(&t, &paths);
        for r in rates {
            assert!((r - 62.5).abs() < 1e-9, "rate {r}");
        }
    }

    #[test]
    fn max_min_not_just_equal_split() {
        let t = topo();
        // Flow A: 0→1 (intra, host links only). Flows B, C: 0→4 and 2→4
        // both end at host 4's down link (100).
        // Host 0 up carries A and B → A and B get ≤ 50. C shares 4-down
        // with B: B frozen at 50 leaves C 50? Let's check max-min:
        // bottleneck search: host0-up: 100/2 = 50; host4-down: 100/2 = 50;
        // first freeze at 50 — all flows end up at 50 except… A also
        // crosses host1-down alone. A=50, B=50, C=50.
        let paths = vec![t.path(0, 1), t.path(0, 4), t.path(2, 4)];
        let rates = max_min_rates(&t, &paths);
        assert_eq!(rates, vec![50.0, 50.0, 50.0]);
    }

    #[test]
    fn unequal_shares_when_bottlenecks_differ() {
        let t = topo();
        // B and C share host 4 down; A shares host-0-up with B only.
        // Freeze order: host0-up (A,B) at 50 each; then host4-down has C
        // unfrozen with 100 − 50 = 50 left → C = 50.
        // Now instead: three flows into host 4: fair share 33.3; a fourth
        // flow 1→2 rides free at 100.
        let paths = vec![
            t.path(0, 4),
            t.path(1, 4),
            t.path(2, 4),
            t.path(5, 6),
        ];
        let rates = max_min_rates(&t, &paths);
        for r in &rates[..3] {
            assert!((r - 100.0 / 3.0).abs() < 1e-9);
        }
        assert!((rates[3] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let t = topo();
        assert!(max_min_rates(&t, &[]).is_empty());
    }

    #[test]
    fn rates_saturate_some_link() {
        // Property: in a max-min allocation every flow crosses at least one
        // saturated link.
        let t = topo();
        let paths = vec![t.path(0, 5), t.path(1, 5), t.path(0, 2), t.path(3, 7)];
        let rates = max_min_rates(&t, &paths);
        let mut load = vec![0.0; t.link_count()];
        for (f, p) in paths.iter().enumerate() {
            for &l in p {
                load[l] += rates[f];
            }
        }
        for (f, p) in paths.iter().enumerate() {
            let saturated = p
                .iter()
                .any(|&l| (load[l] - t.link(l).capacity).abs() < 1e-6);
            assert!(saturated, "flow {f} crosses no saturated link");
        }
    }
}
