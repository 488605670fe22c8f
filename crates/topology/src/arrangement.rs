//! Global-link arrangements.
//!
//! When `g < a·h + 1`, each group has more global ports than peer groups and
//! several *parallel* global links connect each pair of groups.  How the
//! `a·h` ports of a group map onto the `g−1` peers is the *arrangement*
//! (Hastings et al., *Comparing global link arrangements for Dragonfly
//! networks*, CLUSTER'15).  The paper uses "a minor variation of [the]
//! absolute arrangement" that forms bidirectional topologies for any valid
//! `g`; that variation is implemented here as [`AbsoluteArrangement`] and is
//! the default.  [`RelativeArrangement`] and [`CirculantArrangement`] are
//! provided because the paper notes its techniques are arrangement-agnostic,
//! which our test-suite and ablation benches exercise.
//!
//! All arrangements share port bookkeeping: group `gi` owns global ports
//! `0 .. a·h`, port `k` belongs to switch `gi·a + k/h` (each switch owns `h`
//! consecutive ports).  Writing `L = a·h / (g−1)` for the links per group
//! pair, port `k` is split as `k = r·(g−1) + o` into a *round* `r ∈ 0..L`
//! and an *offset* `o ∈ 0..g−1` that selects the peer group.

use crate::ids::SwitchId;
use crate::params::DragonflyParams;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Maps each group's global ports onto peer groups.
///
/// Implementations return every undirected global cable exactly once.  The
/// [`crate::Dragonfly`] constructor validates the returned wiring (port
/// budgets, symmetry, even spread across group pairs).
pub trait GlobalArrangement {
    /// Human-readable arrangement name (used in reports).
    fn name(&self) -> &'static str;

    /// Stable identity for digests and cache keys.  Defaults to
    /// [`GlobalArrangement::name`]; seeded arrangements append their seed
    /// so distinct wirings never share an identity.
    fn id(&self) -> String {
        self.name().to_string()
    }

    /// All undirected global links, each reported once as
    /// `(lower switch, higher switch)` in unspecified order.
    fn links(&self, params: &DragonflyParams) -> Vec<(SwitchId, SwitchId)>;
}

/// Switch owning global port `k` of group `gi`.
fn port_switch(params: &DragonflyParams, gi: u32, k: u32) -> SwitchId {
    debug_assert!(k < params.a * params.h);
    SwitchId(gi * params.a + k / params.h)
}

/// The paper's default: a variation of the *absolute* arrangement.
///
/// Port `k = r·(g−1) + o` of group `gi` targets group `o` if `o < gi` and
/// `o + 1` otherwise (the group-index space with `gi` removed).  The peer
/// group reaches back with the mirrored offset in the same round, which makes
/// the wiring bidirectionally consistent for every `g` with
/// `(g−1) | a·h` — including non-maximal topologies, which is exactly the
/// "minor variation" the paper needs.  For the maximal topology
/// (`g = a·h + 1`, `L = 1`) this degenerates to the textbook absolute
/// arrangement.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbsoluteArrangement;

impl GlobalArrangement for AbsoluteArrangement {
    fn name(&self) -> &'static str {
        "absolute"
    }

    fn links(&self, params: &DragonflyParams) -> Vec<(SwitchId, SwitchId)> {
        let (a, h, g) = (params.a, params.h, params.g);
        let rounds = (a * h) / (g - 1);
        let mut links = Vec::with_capacity((g * (g - 1) / 2 * rounds) as usize);
        for gi in 0..g {
            for k in 0..a * h {
                let r = k / (g - 1);
                let o = k % (g - 1);
                let gj = if o < gi { o } else { o + 1 };
                if gj < gi {
                    // Emitted once, from the lower-indexed peer.
                    continue;
                }
                debug_assert!(r < rounds);
                // Offset with which gj looks back at gi.
                let o_back = if gi < gj { gi } else { gi - 1 };
                let k_back = r * (g - 1) + o_back;
                links.push((port_switch(params, gi, k), port_switch(params, gj, k_back)));
            }
        }
        links
    }
}

/// The *relative* arrangement: port offset `o` of group `gi` targets group
/// `(gi + o + 1) mod g`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelativeArrangement;

impl GlobalArrangement for RelativeArrangement {
    fn name(&self) -> &'static str {
        "relative"
    }

    fn links(&self, params: &DragonflyParams) -> Vec<(SwitchId, SwitchId)> {
        let (a, h, g) = (params.a, params.h, params.g);
        let mut links = Vec::new();
        for gi in 0..g {
            for k in 0..a * h {
                let r = k / (g - 1);
                let o = k % (g - 1);
                let gj = (gi + o + 1) % g;
                // Emit each undirected cable once.  The peer reaches back
                // with offset o' = g - o - 2; break the tie by offset (or by
                // group index when the offsets coincide).
                let o_back = g - o - 2;
                if o > o_back || (o == o_back && gi > gj) {
                    continue;
                }
                let k_back = r * (g - 1) + o_back;
                links.push((port_switch(params, gi, k), port_switch(params, gj, k_back)));
            }
        }
        links
    }
}

/// The *circulant-based* arrangement: offsets alternate `+1, −1, +2, −2, …`
/// around the ring of groups.
#[derive(Debug, Clone, Copy, Default)]
pub struct CirculantArrangement;

impl GlobalArrangement for CirculantArrangement {
    fn name(&self) -> &'static str {
        "circulant"
    }

    fn links(&self, params: &DragonflyParams) -> Vec<(SwitchId, SwitchId)> {
        let (a, h, g) = (params.a, params.h, params.g);
        let mut links = Vec::new();
        for gi in 0..g {
            for k in 0..a * h {
                let r = k / (g - 1);
                let o = k % (g - 1);
                let d = o / 2 + 1;
                let half = g % 2 == 0 && d == g / 2 && o % 2 == 0;
                let (gj, o_back) = if half {
                    // +g/2 is its own inverse: pair equal offsets.
                    (((gi + d) % g), o)
                } else if o % 2 == 0 {
                    (((gi + d) % g), o + 1)
                } else {
                    (((gi + g - d) % g), o - 1)
                };
                if o > o_back || (o == o_back && gi > gj) {
                    continue;
                }
                let k_back = r * (g - 1) + o_back;
                links.push((port_switch(params, gi, k), port_switch(params, gj, k_back)));
            }
        }
        links
    }
}

/// The *palmtree* arrangement (the caminos-lib default): port
/// `k = r·(g−1) + o` of group `gi` targets group `(gi − o − 1) mod g`, so
/// each switch's consecutive ports walk consecutively *descending* peer
/// groups.  The peer reaches back with offset `g − 2 − o` in the same
/// round, making the wiring bidirectionally consistent for every valid
/// `g`.  Palmtree is group-relabeling-isomorphic to the relative
/// arrangement (reflect the group indices — pinned by the differential
/// test in `tests/properties.rs`) but wires different switch pairs than
/// the absolute arrangement, which is what earns it a zoo slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct PalmtreeArrangement;

impl GlobalArrangement for PalmtreeArrangement {
    fn name(&self) -> &'static str {
        "palmtree"
    }

    fn links(&self, params: &DragonflyParams) -> Vec<(SwitchId, SwitchId)> {
        let (a, h, g) = (params.a, params.h, params.g);
        let mut links = Vec::new();
        for gi in 0..g {
            for k in 0..a * h {
                let r = k / (g - 1);
                let o = k % (g - 1);
                let gj = (gi + g - o - 1) % g;
                // The peer reaches back with o' = g - 2 - o (same round);
                // emit each undirected cable once, tie-broken as in the
                // relative arrangement.
                let o_back = g - 2 - o;
                if o > o_back || (o == o_back && gi > gj) {
                    continue;
                }
                let k_back = r * (g - 1) + o_back;
                links.push((port_switch(params, gi, k), port_switch(params, gj, k_back)));
            }
        }
        links
    }
}

/// A seeded *random* arrangement: an independent random permutation of
/// each group's `a·h` global ports, applied on top of the absolute base
/// pairing.  The group-level cable structure is untouched — every pair of
/// groups keeps exactly `a·h/(g−1)` cables, so gateway counts and even
/// spread hold like for the named arrangements — while the switch-level
/// endpoints are shuffled deterministically in `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomArrangement {
    /// Seed of the per-group port permutations; equal seeds give equal
    /// wirings.
    pub seed: u64,
}

impl GlobalArrangement for RandomArrangement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn id(&self) -> String {
        format!("random:{:#x}", self.seed)
    }

    fn links(&self, params: &DragonflyParams) -> Vec<(SwitchId, SwitchId)> {
        let (a, h, g) = (params.a, params.h, params.g);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let perms: Vec<Vec<u32>> = (0..g)
            .map(|_| {
                let mut p: Vec<u32> = (0..a * h).collect();
                p.shuffle(&mut rng);
                p
            })
            .collect();
        let mut links = Vec::new();
        for gi in 0..g {
            for k in 0..a * h {
                let r = k / (g - 1);
                let o = k % (g - 1);
                let gj = if o < gi { o } else { o + 1 };
                if gj < gi {
                    continue;
                }
                let o_back = if gi < gj { gi } else { gi - 1 };
                let k_back = r * (g - 1) + o_back;
                links.push((
                    port_switch(params, gi, perms[gi as usize][k as usize]),
                    port_switch(params, gj, perms[gj as usize][k_back as usize]),
                ));
            }
        }
        links
    }
}

/// A named, copyable description of a global-link arrangement — the form
/// configs and CLI grids carry, round-tripping through the identity
/// strings of [`GlobalArrangement::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrangementSpec {
    /// [`AbsoluteArrangement`] (the default).
    Absolute,
    /// [`RelativeArrangement`].
    Relative,
    /// [`CirculantArrangement`].
    Circulant,
    /// [`PalmtreeArrangement`].
    Palmtree,
    /// [`RandomArrangement`] with the given seed.
    Random(u64),
}

impl ArrangementSpec {
    /// The whole zoo: every fixed-name arrangement plus a random one under
    /// `seed` — the grid benches and property suites iterate.
    pub fn zoo(seed: u64) -> [ArrangementSpec; 5] {
        [
            ArrangementSpec::Absolute,
            ArrangementSpec::Relative,
            ArrangementSpec::Circulant,
            ArrangementSpec::Palmtree,
            ArrangementSpec::Random(seed),
        ]
    }

    /// Builds the arrangement this spec names.
    pub fn build(&self) -> Box<dyn GlobalArrangement> {
        match *self {
            ArrangementSpec::Absolute => Box::new(AbsoluteArrangement),
            ArrangementSpec::Relative => Box::new(RelativeArrangement),
            ArrangementSpec::Circulant => Box::new(CirculantArrangement),
            ArrangementSpec::Palmtree => Box::new(PalmtreeArrangement),
            ArrangementSpec::Random(seed) => Box::new(RandomArrangement { seed }),
        }
    }

    /// Parses the identity format produced by [`GlobalArrangement::id`]:
    /// a plain arrangement name, or `random:<seed>` with a decimal or
    /// `0x`-hex seed (`random` alone means seed 0).
    pub fn parse(s: &str) -> Option<ArrangementSpec> {
        match s {
            "absolute" => Some(ArrangementSpec::Absolute),
            "relative" => Some(ArrangementSpec::Relative),
            "circulant" => Some(ArrangementSpec::Circulant),
            "palmtree" => Some(ArrangementSpec::Palmtree),
            "random" => Some(ArrangementSpec::Random(0)),
            other => {
                let seed = other.strip_prefix("random:")?;
                let seed = if let Some(hex) = seed.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).ok()?
                } else {
                    seed.parse().ok()?
                };
                Some(ArrangementSpec::Random(seed))
            }
        }
    }
}

impl fmt::Display for ArrangementSpec {
    /// Renders the same identity string [`GlobalArrangement::id`] reports
    /// (so `parse(spec.to_string())` round-trips).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.build().id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_wiring(arr: &dyn GlobalArrangement, params: DragonflyParams) {
        let links = arr.links(&params);
        let expected = (params.g * params.a * params.h / 2) as usize;
        assert_eq!(links.len(), expected, "{} link count", arr.name());

        // Per-switch global-port budget.
        let mut degree = vec![0u32; params.num_switches()];
        for &(u, v) in &links {
            assert_ne!(u, v);
            degree[u.index()] += 1;
            degree[v.index()] += 1;
            // Never intra-group.
            assert_ne!(u.0 / params.a, v.0 / params.a, "{} intra-group", arr.name());
        }
        for (s, d) in degree.iter().enumerate() {
            assert_eq!(*d, params.h, "{} switch {s} port budget", arr.name());
        }

        // Even spread across group pairs.
        let mut per_pair = std::collections::HashMap::<(u32, u32), u32>::with_capacity(links.len());
        for &(u, v) in &links {
            let (ga, gb) = (u.0 / params.a, v.0 / params.a);
            let key = (ga.min(gb), ga.max(gb));
            *per_pair.entry(key).or_default() += 1;
        }
        let l = params.links_per_group_pair();
        assert_eq!(
            per_pair.len() as u32,
            params.g * (params.g - 1) / 2,
            "{} pair coverage",
            arr.name()
        );
        for (&pair, &n) in &per_pair {
            assert_eq!(n, l, "{} links between pair {pair:?}", arr.name());
        }
    }

    #[test]
    fn absolute_wiring_paper_topologies() {
        for params in DragonflyParams::paper_topologies() {
            check_wiring(&AbsoluteArrangement, params);
        }
    }

    #[test]
    fn absolute_wiring_small() {
        check_wiring(&AbsoluteArrangement, DragonflyParams::new(2, 4, 2, 9));
        check_wiring(&AbsoluteArrangement, DragonflyParams::new(2, 4, 2, 3));
        check_wiring(&AbsoluteArrangement, DragonflyParams::new(2, 4, 2, 5));
        check_wiring(&AbsoluteArrangement, DragonflyParams::new(1, 2, 1, 3));
    }

    #[test]
    fn relative_wiring() {
        check_wiring(&RelativeArrangement, DragonflyParams::new(2, 4, 2, 9));
        check_wiring(&RelativeArrangement, DragonflyParams::new(2, 4, 2, 5));
        check_wiring(&RelativeArrangement, DragonflyParams::new(4, 8, 4, 17));
        check_wiring(&RelativeArrangement, DragonflyParams::new(4, 8, 4, 9));
    }

    #[test]
    fn circulant_wiring() {
        check_wiring(&CirculantArrangement, DragonflyParams::new(2, 4, 2, 9));
        check_wiring(&CirculantArrangement, DragonflyParams::new(2, 4, 2, 5));
        check_wiring(&CirculantArrangement, DragonflyParams::new(4, 8, 4, 17));
        // Even g exercises the self-inverse half-offset case.
        check_wiring(&CirculantArrangement, DragonflyParams::new(2, 4, 2, 2));
        check_wiring(&CirculantArrangement, DragonflyParams::new(4, 8, 4, 5));
    }

    #[test]
    fn maximal_absolute_has_one_link_per_pair() {
        let params = DragonflyParams::new(2, 4, 2, 9);
        let links = AbsoluteArrangement.links(&params);
        assert_eq!(links.len(), 36); // C(9,2)
    }

    #[test]
    fn palmtree_wiring() {
        check_wiring(&PalmtreeArrangement, DragonflyParams::new(2, 4, 2, 9));
        check_wiring(&PalmtreeArrangement, DragonflyParams::new(2, 4, 2, 5));
        check_wiring(&PalmtreeArrangement, DragonflyParams::new(2, 4, 2, 2));
        check_wiring(&PalmtreeArrangement, DragonflyParams::new(4, 8, 4, 17));
        check_wiring(&PalmtreeArrangement, DragonflyParams::new(4, 8, 4, 9));
    }

    #[test]
    fn palmtree_ports_walk_descending_groups() {
        // Maximal topology, L = 1: port k of group gi reaches gi - k - 1.
        let params = DragonflyParams::new(2, 4, 2, 9);
        let links = PalmtreeArrangement.links(&params);
        let g = params.g;
        for gi in 0..g {
            for k in 0..params.a * params.h {
                let u = port_switch(&params, gi, k);
                let expect = (gi + g - k - 1) % g;
                assert!(
                    links
                        .iter()
                        .any(|&(x, y)| (x == u && y.0 / params.a == expect)
                            || (y == u && x.0 / params.a == expect)),
                    "group {gi} port {k}: no cable toward group {expect}"
                );
            }
        }
    }

    #[test]
    fn random_wiring_is_valid_and_seed_deterministic() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let arr = RandomArrangement { seed };
            check_wiring(&arr, DragonflyParams::new(2, 4, 2, 9));
            check_wiring(&arr, DragonflyParams::new(2, 4, 2, 5));
            check_wiring(&arr, DragonflyParams::new(4, 8, 4, 9));
        }
        let params = DragonflyParams::new(2, 4, 2, 5);
        let a = RandomArrangement { seed: 7 }.links(&params);
        let b = RandomArrangement { seed: 7 }.links(&params);
        assert_eq!(a, b, "equal seeds must give equal wirings");
        let c = RandomArrangement { seed: 8 }.links(&params);
        assert_ne!(a, c, "different seeds should shuffle differently here");
    }

    #[test]
    fn spec_round_trips_through_identity_strings() {
        for spec in ArrangementSpec::zoo(0x2007) {
            let id = spec.build().id();
            assert_eq!(ArrangementSpec::parse(&id), Some(spec), "{id}");
            assert_eq!(spec.to_string(), id);
        }
        assert_eq!(
            ArrangementSpec::parse("random:12"),
            Some(ArrangementSpec::Random(12))
        );
        assert_eq!(
            ArrangementSpec::parse("random"),
            Some(ArrangementSpec::Random(0))
        );
        assert_eq!(ArrangementSpec::parse("banyan"), None);
        assert_eq!(ArrangementSpec::parse("random:xyz"), None);
        assert_eq!(AbsoluteArrangement.id(), "absolute");
    }
}
