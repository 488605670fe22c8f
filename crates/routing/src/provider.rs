//! Path providers: where a router's UGAL decision gets its candidates.
//!
//! UGAL considers one randomly chosen MIN candidate and one randomly chosen
//! VLB candidate per packet (§4.1.2 of the paper).  The provider abstracts
//! *which set* the candidates are drawn from: all VLB paths (conventional
//! UGAL), an explicit T-VLB table, or a rule-described subset sampled on the
//! fly for networks too large to tabulate.

use crate::path::Path;
use crate::rule::VlbRule;
use crate::store::{PathId, PathRef, PathStore};
use crate::table::PathTable;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use tugal_topology::{Dragonfly, GroupId, SwitchId};

/// Source of candidate paths for routing decisions.
///
/// Implementations must be cheap: `sample_*` runs once per packet in the
/// simulator's hot loop.
///
/// ## Borrowed sampling
///
/// The `sample_*_ref` methods are the allocation-free form of the same
/// draws: a provider backed by an interned [`PathStore`] returns
/// [`PathRef::Interned`] borrows of its arena, so comparing candidates
/// copies nothing; the engine copies only the chosen one into the packet.
/// The contract is strict: for any RNG state, `sample_min(s, d, rng)` and
/// `*sample_min_ref(s, d, rng).path()` must return the same path *and*
/// leave the RNG in the same state (likewise for VLB), so a simulation is
/// bit-for-bit identical whichever form the engine calls.  The default
/// implementations delegate to the owned samplers, which satisfies the
/// contract for free; table-backed providers override them (and the owned
/// forms delegate the other way around).
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

    /// Borrowed form of [`PathProvider::sample_min`] (same draw, same RNG
    /// consumption; see the trait docs for the contract).
    fn sample_min_ref(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> PathRef<'_> {
        PathRef::Owned(self.sample_min(s, d, rng))
    }

    /// Borrowed form of [`PathProvider::sample_vlb`].
    fn sample_vlb_ref(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> PathRef<'_> {
        PathRef::Owned(self.sample_vlb(s, d, rng))
    }

    /// The interned arena behind this provider's [`PathRef::Interned`]
    /// candidates, if it has one.  Providers that return only
    /// [`PathRef::Owned`] (the default sampling) report `None`.
    fn path_store(&self) -> Option<&PathStore> {
        None
    }

    /// Resolves an id previously issued by this provider's borrowed
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics when the provider has no [`PathStore`] — only ids obtained
    /// from this provider's own `sample_*_ref` draws are resolvable.
    #[inline]
    fn resolve(&self, id: PathId) -> &Path {
        self.path_store()
            .expect("resolve() on a provider without a PathStore")
            .get(id)
    }

    /// Average number of VLB hops (used in reports; an estimate is fine).
    fn mean_vlb_hops(&self) -> f64;
}

/// Provider backed by an explicit [`PathTable`].
///
/// Construction compiles the table into an interned [`PathStore`]: every
/// pair's candidates become one contiguous arena range (MIN paths first,
/// then VLB), so borrowed sampling is an index draw plus an arena borrow —
/// no per-draw copies, no pointer chasing through per-pair `Vec`s.  The
/// table itself is consumed; [`Self::pair`] views a pair's candidates in
/// the arena.
pub struct TableProvider {
    topo: Arc<Dragonfly>,
    /// Switch count (pair `(s, d)` is index `s * n + d`).
    n: usize,
    /// [`PathTable::mean_vlb_hops`] of the consumed table.
    mean_vlb_hops: f64,
    store: PathStore,
    /// Arena start of pair `i`'s candidates (`n² + 1` entries); pair `i`
    /// owns `base[i]..base[i+1]`.
    base: Vec<u32>,
    /// Arena start of pair `i`'s VLB candidates within its range: MIN is
    /// `base[i]..vlb_base[i]`, VLB is `vlb_base[i]..base[i+1]`.
    vlb_base: Vec<u32>,
}

impl TableProvider {
    /// Compiles a prebuilt table into the interned arena, freeing each
    /// pair's candidate `Vec`s as they are copied in.
    pub fn new(topo: Arc<Dragonfly>, mut table: PathTable) -> Self {
        assert_eq!(table.num_switches(), topo.num_switches());
        let n = table.num_switches();
        let mean_vlb_hops = table.mean_vlb_hops();
        let mut store = PathStore::new();
        let mut base = Vec::with_capacity(n * n + 1);
        let mut vlb_base = Vec::with_capacity(n * n);
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let pp = std::mem::take(table.pair_mut(SwitchId(s), SwitchId(d)));
                base.push(store.len() as u32);
                for p in pp.min {
                    store.push(p);
                }
                vlb_base.push(store.len() as u32);
                for p in pp.vlb {
                    store.push(p);
                }
            }
        }
        base.push(store.len() as u32);
        Self {
            topo,
            n,
            mean_vlb_hops,
            store,
            base,
            vlb_base,
        }
    }

    /// Conventional UGAL: all MIN and all VLB paths.
    pub fn all_paths(topo: Arc<Dragonfly>) -> Self {
        let table = PathTable::build_all(&topo);
        Self::new(topo, table)
    }

    /// The `(MIN, VLB)` candidates of pair `(s, d)`, in table order.
    pub fn pair(&self, s: SwitchId, d: SwitchId) -> (&[Path], &[Path]) {
        let i = s.index() * self.n + d.index();
        let paths = self.store.as_slice();
        (
            &paths[self.base[i] as usize..self.vlb_base[i] as usize],
            &paths[self.vlb_base[i] as usize..self.base[i + 1] as usize],
        )
    }
}

impl TableProvider {
    /// Draws an id from the arena range `lo..hi` (one `gen_range` call —
    /// the same RNG consumption as indexing the uncompiled `Vec<Path>`).
    #[inline]
    fn draw(&self, lo: u32, hi: u32, rng: &mut SmallRng) -> PathRef<'_> {
        let id = PathId(lo + rng.gen_range(0..hi - lo));
        PathRef::Interned(id, self.store.get(id))
    }
}

impl PathProvider for TableProvider {
    fn topo(&self) -> &Dragonfly {
        &self.topo
    }

    fn sample_min(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path {
        *self.sample_min_ref(s, d, rng).path()
    }

    fn sample_vlb(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> Path {
        *self.sample_vlb_ref(s, d, rng).path()
    }

    fn sample_min_ref(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> PathRef<'_> {
        if s == d {
            return PathRef::Owned(Path::single(s));
        }
        let i = s.index() * self.n + d.index();
        let (lo, mid, hi) = (self.base[i], self.vlb_base[i], self.base[i + 1]);
        // A degraded table can lose every MIN candidate of a pair; fall
        // back to VLB, or to the zero-hop unreachable sentinel (dst != d,
        // which the engine drops) when the pair has no candidates at all.
        // Pristine tables never hit these branches, so the RNG draw
        // sequence of fault-free runs is unchanged.
        if lo == mid {
            if mid == hi {
                return PathRef::Owned(Path::single(s));
            }
            return self.draw(mid, hi, rng);
        }
        self.draw(lo, mid, rng)
    }

    fn sample_vlb_ref(&self, s: SwitchId, d: SwitchId, rng: &mut SmallRng) -> PathRef<'_> {
        if s == d {
            return PathRef::Owned(Path::single(s));
        }
        let i = s.index() * self.n + d.index();
        let (lo, mid, hi) = (self.base[i], self.vlb_base[i], self.base[i + 1]);
        if mid == hi {
            if lo == mid {
                // Unreachable pair of a degraded table (see `sample_min_ref`).
                return PathRef::Owned(Path::single(s));
            }
            return self.draw(lo, mid, rng);
        }
        self.draw(mid, hi, rng)
    }

    fn path_store(&self) -> Option<&PathStore> {
        Some(&self.store)
    }

    fn mean_vlb_hops(&self) -> f64 {
        self.mean_vlb_hops
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
    let mut p = Path::single(s);
    if u != s {
        p.push(u);
    }
    p.push(v);
    if v != d {
        p.push(d);
    }
    p
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
