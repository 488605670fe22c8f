//! Path providers: where a router's UGAL decision gets its candidates.
//!
//! UGAL considers one randomly chosen MIN candidate and one randomly chosen
//! VLB candidate per packet (§4.1.2 of the paper).  The provider abstracts
//! *which set* the candidates are drawn from: all VLB paths (conventional
//! UGAL), an explicit T-VLB table, or a rule-described subset sampled on the
//! fly for networks too large to tabulate.

use crate::enumerate::gateway_path;
use crate::path::Path;
use crate::rule::VlbRule;
use crate::table::PathTable;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use tugal_topology::{Dragonfly, GroupId, SwitchId};

/// Source of candidate paths for routing decisions.
///
/// Implementations must be cheap: `sample_*` runs once per packet in the
/// simulator's hot loop, and returns the drawn candidate by value (a
/// [`Path`] is an 18-byte inline copy), which the engine stores in the
/// packet's route slot.
pub trait PathProvider: Send + Sync {
    /// The topology the paths live in.
    fn topo(&self) -> &Dragonfly;

    /// Draws one MIN candidate for the ordered pair `(s, d)`.
    fn sample_min(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path;

    /// Draws one VLB candidate for the ordered pair `(s, d)`.
    ///
    /// For `s == d`, or when the pair has no VLB candidates, falls back to a
    /// MIN candidate (the decision then degenerates to MIN, which is what
    /// UGAL does for intra-switch traffic).
    fn sample_vlb(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path;

    /// Average number of VLB hops (used in reports; an estimate is fine).
    fn mean_vlb_hops(&self) -> f64;
}

/// Provider backed by an explicit [`PathTable`].
///
/// The provider owns the table as built: each pair's candidates stay
/// packed codes, and a draw picks one with a single
/// `gen_range(0..len)` over the pair's MIN or VLB list and decodes only
/// that one.  The draw contract: `sample_min` and `sample_vlb` return the
/// candidate at that index of [`PathTable::min`] or [`PathTable::vlb`]
/// and consume the RNG exactly as that one `gen_range` call does, so a
/// simulation is bit-for-bit the same whatever the table's storage.
pub struct TableProvider {
    topo: Arc<Dragonfly>,
    table: PathTable,
}

impl TableProvider {
    /// Wraps a prebuilt table (a move: nothing is copied or decoded).
    ///
    /// # Panics
    /// If the table was built for another topology.
    pub fn new(topo: Arc<Dragonfly>, table: PathTable) -> Self {
        let t = table.topo();
        assert!(
            t.params() == topo.params() && t.shape_suffix() == topo.shape_suffix(),
            "table built for {}{}, provider topology is {}{}",
            t.params(),
            t.shape_suffix(),
            topo.params(),
            topo.shape_suffix()
        );
        Self { topo, table }
    }

    /// Conventional UGAL: all MIN and all VLB paths.
    pub fn all_paths(topo: Arc<Dragonfly>) -> Self {
        let table = PathTable::build_all(&topo);
        Self::new(topo, table)
    }

    /// The table the candidates are drawn from.
    pub fn table(&self) -> &PathTable {
        &self.table
    }

    /// Draws one of `codes` (one `gen_range` call).
    #[inline]
    fn draw(codes: &[u32], rng: &mut SmallRng) -> u32 {
        codes[rng.gen_range(0..codes.len())]
    }
}

impl PathProvider for TableProvider {
    fn topo(&self) -> &Dragonfly {
        &self.topo
    }

    fn sample_min(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path {
        if s == d {
            return Path::single(s);
        }
        let (pp, codec) = (self.table.codes(s, d), self.table.codec());
        // A degraded table can lose every MIN candidate of a pair; fall
        // back to VLB, or to the zero-hop unreachable sentinel (dst != d,
        // which the engine drops) when the pair has no candidates at all.
        // Pristine tables never hit these branches, so the RNG draw
        // sequence of fault-free runs is unchanged.
        if pp.min.is_empty() {
            if pp.vlb.is_empty() {
                return Path::single(s);
            }
            return codec.decode_vlb(s, d, Self::draw(&pp.vlb, rng));
        }
        codec.decode_min(s, d, Self::draw(&pp.min, rng))
    }

    fn sample_vlb(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path {
        if s == d {
            return Path::single(s);
        }
        let (pp, codec) = (self.table.codes(s, d), self.table.codec());
        if pp.vlb.is_empty() {
            if pp.min.is_empty() {
                // Unreachable pair of a degraded table (see `sample_min`).
                return Path::single(s);
            }
            return codec.decode_min(s, d, Self::draw(&pp.min, rng));
        }
        codec.decode_vlb(s, d, Self::draw(&pp.vlb, rng))
    }

    fn mean_vlb_hops(&self) -> f64 {
        self.table.mean_vlb_hops()
    }
}

/// O(1)-memory provider that samples paths directly from the topology and
/// accepts them against a [`VlbRule`] (rejection sampling).
///
/// The base sampler draws a uniform intermediate switch outside the endpoint
/// groups and a uniform global link for each MIN segment — the same process
/// BookSim's UGAL uses, so for `VlbRule::All` this *is* conventional UGAL.
/// For restricted rules the sample is accepted iff the rule admits the
/// composed path (fractional classes are admitted with the configured
/// probability, which matches the expectation over the random subsets an
/// explicit table would fix).  After `max_tries` rejections the shortest
/// sampled path is returned so the provider cannot live-lock on pairs where
/// admissible paths are rare.
pub struct RuleProvider {
    topo: Arc<Dragonfly>,
    rule: VlbRule,
    max_tries: u32,
}

impl RuleProvider {
    /// Creates a provider with the default retry budget.
    pub fn new(topo: Arc<Dragonfly>, rule: VlbRule) -> Self {
        Self {
            topo,
            rule,
            max_tries: 256,
        }
    }

    /// The rule being sampled.
    pub fn rule(&self) -> VlbRule {
        self.rule
    }

    /// Composes one uniformly sampled VLB walk; returns the path and the
    /// first-segment hop count.
    fn sample_raw(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> (Path, usize) {
        let t = &self.topo;
        let g = t.num_groups() as u32;
        let (gs, gd) = (t.group_of(s), t.group_of(d));
        // Uniform group outside {gs, gd} (they are distinct from each other
        // or not; handle both).
        let gi = loop {
            let c = GroupId(rng.gen_range(0..g));
            if c != gs && c != gd {
                break c;
            }
        };
        let i = t.switch_in_group(gi, rng.gen_range(0..t.params().a));
        let seg1 = sample_min_path(t, s, i, rng);
        let seg2 = sample_min_path(t, i, d, rng);
        let first = seg1.hops();
        (seg1.concat(&seg2), first)
    }

    fn accept(&self, path: &Path, first_seg: usize, rng: &mut SmallRng) -> bool {
        match self.rule {
            VlbRule::All => true,
            VlbRule::ClassLimit {
                max_hops,
                frac_next,
            } => {
                let h = path.hops();
                h <= max_hops as usize
                    || (h == max_hops as usize + 1 && rng.gen_bool(frac_next.clamp(0.0, 1.0)))
            }
            VlbRule::Strategic { first_seg: want } => {
                path.hops() <= 4 || (path.hops() == 5 && first_seg == want as usize)
            }
        }
    }
}

/// Draws one MIN path for `(s, d)` uniformly over the global links between
/// the endpoint groups, without materializing the candidate list.
pub fn sample_min_path(t: &Dragonfly, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path {
    if s == d {
        return Path::single(s);
    }
    let (gs, gd) = (t.group_of(s), t.group_of(d));
    if gs == gd {
        return Path::from_switches(&[s, d]);
    }
    let gws = t.gateways(gs, gd);
    let (u, v, _) = gws[rng.gen_range(0..gws.len())];
    gateway_path(s, u, v, d)
}

impl PathProvider for RuleProvider {
    fn topo(&self) -> &Dragonfly {
        &self.topo
    }

    fn sample_min(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path {
        sample_min_path(&self.topo, s, d, rng)
    }

    fn sample_vlb(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path {
        if s == d || self.topo.num_groups() <= 2 {
            // No valid intermediate group exists for 2-group networks when
            // the endpoints are in different groups; degrade to MIN.
            if s == d || self.topo.group_of(s) != self.topo.group_of(d) {
                return self.sample_min(s, d, rng);
            }
        }
        let mut best: Option<Path> = None;
        for _ in 0..self.max_tries {
            let (p, first) = self.sample_raw(s, d, rng);
            if self.accept(&p, first, rng) {
                return p;
            }
            if best.is_none_or(|b| p.hops() < b.hops()) {
                best = Some(p);
            }
        }
        best.expect("max_tries > 0")
    }

    fn mean_vlb_hops(&self) -> f64 {
        // Cheap deterministic estimate by sampling.
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0xEE57);
        let n = self.topo.num_switches() as u32;
        let mut sum = 0.0;
        let samples = 2000;
        for _ in 0..samples {
            let s = SwitchId(rng.gen_range(0..n));
            let d = loop {
                let d = SwitchId(rng.gen_range(0..n));
                if d != s {
                    break d;
                }
            };
            sum += self.sample_vlb(s, d, &mut rng).hops() as f64;
        }
        sum / samples as f64
    }
}
