//! Fault injection: failed links and switches, and the degraded view of a
//! [`Dragonfly`] they induce.
//!
//! A [`FaultSet`] names the failed components — whole switches, local
//! links, global links — either explicitly or through deterministic seeded
//! sampling.  Link failures are *cable-level*: both directed channels of a
//! cable die together (a cut fibre takes out both directions).  A switch
//! failure kills every channel incident to the switch, including the
//! terminal channels of its attached nodes.
//!
//! [`Dragonfly::degrade`] resolves a fault set into a [`Degraded`] view:
//! per-channel and per-switch death masks plus gateway lists with the dead
//! entries filtered out, in the *same deterministic order* as the pristine
//! lists — degrading by an empty fault set yields data byte-identical to
//! the pristine topology, which the differential tests pin.

use crate::channels::{ChannelId, ChannelKind, Endpoint};
use crate::dragonfly::Dragonfly;
use crate::ids::{GroupId, SwitchId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::fmt;

/// A set of failed components of a dragonfly.
///
/// Links are stored as unordered switch pairs (both directions of the
/// cable fail together).  A *pair-level* global fault kills every
/// parallel cable between its switches (a cut conduit); a *sibling*
/// fault ([`FaultSet::fail_global_sibling`]) kills exactly one of the
/// `global_lag × L` parallel cables.  The set is purely descriptive;
/// resolution against a concrete topology happens in
/// [`Dragonfly::degrade`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    global_links: Vec<(SwitchId, SwitchId)>,
    local_links: Vec<(SwitchId, SwitchId)>,
    switches: Vec<SwitchId>,
    /// `(u, v, k)`: the `k`-th parallel global cable between `u` and `v`,
    /// counted in channel-id order from the lower switch.
    global_siblings: Vec<(SwitchId, SwitchId, u32)>,
}

// Hand-written to render exactly like the old three-field derive when no
// sibling faults are present: journal digests and golden strings format
// fault sets through `Debug`, and pre-zoo runs must keep their identity.
impl fmt::Debug for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FaultSet");
        d.field("global_links", &self.global_links)
            .field("local_links", &self.local_links)
            .field("switches", &self.switches);
        if !self.global_siblings.is_empty() {
            d.field("global_siblings", &self.global_siblings);
        }
        d.finish()
    }
}

fn normalize(u: SwitchId, v: SwitchId) -> (SwitchId, SwitchId) {
    if u.0 <= v.0 {
        (u, v)
    } else {
        (v, u)
    }
}

impl FaultSet {
    /// The empty fault set (a pristine network).
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when nothing is marked failed.
    pub fn is_empty(&self) -> bool {
        self.global_links.is_empty()
            && self.local_links.is_empty()
            && self.switches.is_empty()
            && self.global_siblings.is_empty()
    }

    /// Marks the global cable between `u` and `v` (both directions) failed.
    pub fn fail_global_link(&mut self, u: SwitchId, v: SwitchId) -> &mut Self {
        let pair = normalize(u, v);
        if !self.global_links.contains(&pair) {
            self.global_links.push(pair);
        }
        self
    }

    /// Marks the local cable between `u` and `v` (both directions) failed.
    pub fn fail_local_link(&mut self, u: SwitchId, v: SwitchId) -> &mut Self {
        let pair = normalize(u, v);
        if !self.local_links.contains(&pair) {
            self.local_links.push(pair);
        }
        self
    }

    /// Marks a whole switch failed (all incident channels, terminals
    /// included).
    pub fn fail_switch(&mut self, s: SwitchId) -> &mut Self {
        if !self.switches.contains(&s) {
            self.switches.push(s);
        }
        self
    }

    /// Marks only the `k`-th parallel global cable between `u` and `v`
    /// failed (both directions), leaving its siblings alive — the
    /// per-sibling alternative to the pair-level
    /// [`FaultSet::fail_global_link`], which kills all parallel cables
    /// together.  Cables are counted in channel-id order from the
    /// lower-indexed switch, so `k` is stable across reruns.
    pub fn fail_global_sibling(&mut self, u: SwitchId, v: SwitchId, k: u32) -> &mut Self {
        let (lo, hi) = normalize(u, v);
        if !self.global_siblings.contains(&(lo, hi, k)) {
            self.global_siblings.push((lo, hi, k));
        }
        self
    }

    /// Failed global cables, as normalized `(low, high)` switch pairs.
    pub fn global_links(&self) -> &[(SwitchId, SwitchId)] {
        &self.global_links
    }

    /// Failed local cables, as normalized `(low, high)` switch pairs.
    pub fn local_links(&self) -> &[(SwitchId, SwitchId)] {
        &self.local_links
    }

    /// Failed switches.
    pub fn switches(&self) -> &[SwitchId] {
        &self.switches
    }

    /// Failed single parallel cables, as normalized `(low, high, k)`
    /// triples.
    pub fn global_siblings(&self) -> &[(SwitchId, SwitchId, u32)] {
        &self.global_siblings
    }

    /// Samples `fraction` of the global cables of `topo` (rounded to the
    /// nearest count) uniformly without replacement, deterministically in
    /// `seed`.  The selected cables are stored sorted, so equal seeds give
    /// equal fault sets regardless of topology iteration details.
    pub fn sample_global_links(topo: &Dragonfly, fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of [0,1]");
        // Each cable appears as two directed channels; canonicalize on the
        // low-to-high direction to enumerate cables once, in channel order.
        let cables: Vec<(SwitchId, SwitchId)> = topo
            .channels()
            .iter()
            .filter(|c| c.kind == ChannelKind::Global)
            .filter_map(|c| match (c.src, c.dst) {
                (Endpoint::Switch(u), Endpoint::Switch(v)) if u.0 < v.0 => Some((u, v)),
                _ => None,
            })
            .collect();
        let take = ((cables.len() as f64) * fraction).round() as usize;
        let mut order: Vec<usize> = (0..cables.len()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let mut chosen: Vec<(SwitchId, SwitchId)> = order[..take.min(cables.len())]
            .iter()
            .map(|&i| cables[i])
            .collect();
        chosen.sort_unstable();
        // Topologies with parallel cables (h > g−1 per peer) can sample the
        // same switch pair twice; failures are pair-level, so dedup.
        chosen.dedup();
        FaultSet {
            global_links: chosen,
            ..FaultSet::default()
        }
    }

    /// Samples `count` distinct switches uniformly, deterministically in
    /// `seed`, stored sorted.
    pub fn sample_switches(topo: &Dragonfly, count: usize, seed: u64) -> Self {
        let mut order: Vec<u32> = (0..topo.num_switches() as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let mut chosen: Vec<SwitchId> = order[..count.min(order.len())]
            .iter()
            .map(|&s| SwitchId(s))
            .collect();
        chosen.sort_unstable();
        FaultSet {
            switches: chosen,
            ..FaultSet::default()
        }
    }
}

/// The degraded view of one topology under one [`FaultSet`]: death masks
/// over the dense channel/switch id spaces plus pre-filtered gateway
/// lists, so fault-aware path enumeration runs at pristine-enumeration
/// speed.
///
/// The view is an owned snapshot (it does not borrow the topology), and
/// the surviving gateway entries keep the pristine sorted order —
/// degrading by [`FaultSet::empty`] reproduces the pristine lists exactly.
#[derive(Debug, Clone)]
pub struct Degraded {
    g: u32,
    dead_channel: Vec<bool>,
    dead_switch: Vec<bool>,
    n_dead_channels: usize,
    /// Gateway lists per ordered group pair, dead entries removed.
    gateways: Vec<Vec<(SwitchId, SwitchId, ChannelId)>>,
}

impl Degraded {
    /// True when nothing died (the view is equivalent to the pristine
    /// topology).
    pub fn is_pristine(&self) -> bool {
        self.n_dead_channels == 0
    }

    /// True when the directed channel is dead.
    #[inline]
    pub fn channel_dead(&self, c: ChannelId) -> bool {
        self.dead_channel[c.index()]
    }

    /// True when the switch is dead.
    #[inline]
    pub fn switch_dead(&self, s: SwitchId) -> bool {
        self.dead_switch[s.index()]
    }

    /// Death mask over the dense directed-channel id space.
    pub fn dead_channel_mask(&self) -> &[bool] {
        &self.dead_channel
    }

    /// Death mask over the switch id space.
    pub fn dead_switch_mask(&self) -> &[bool] {
        &self.dead_switch
    }

    /// Number of dead directed channels (terminal channels included).
    pub fn num_dead_channels(&self) -> usize {
        self.n_dead_channels
    }

    /// Number of dead switches.
    pub fn num_dead_switches(&self) -> usize {
        self.dead_switch.iter().filter(|&&d| d).count()
    }

    /// The *alive* global links from group `from` toward group `to`, in
    /// the pristine sorted order minus the dead entries.
    #[inline]
    pub fn gateways(&self, from: GroupId, to: GroupId) -> &[(SwitchId, SwitchId, ChannelId)] {
        &self.gateways[(from.0 * self.g + to.0) as usize]
    }
}

impl Dragonfly {
    /// Resolves a fault set against this topology into a [`Degraded`]
    /// view.
    ///
    /// Semantics: a failed link kills both directed channels of its cable;
    /// a failed switch kills every incident channel (local, global, and
    /// the injection/ejection channels of its nodes).
    ///
    /// # Panics
    /// If the fault set names a switch outside the topology or a link with
    /// no cable between its endpoints (faults must describe real
    /// hardware).
    pub fn degrade(&self, faults: &FaultSet) -> Degraded {
        let g = self.params().g;
        let mut dead_switch = vec![false; self.num_switches()];
        for &s in faults.switches() {
            assert!(s.index() < dead_switch.len(), "fault names unknown {s}");
            dead_switch[s.index()] = true;
        }
        let check_link = |u: SwitchId, v: SwitchId, global: bool| {
            let ok = u != v
                && u.index() < self.num_switches()
                && v.index() < self.num_switches()
                && (self.group_of(u) != self.group_of(v)) == global
                && (!global || self.global_channel(u, v).is_some());
            assert!(
                ok,
                "fault names a non-existent {} link {u}-{v}",
                if global { "global" } else { "local" }
            );
        };
        let mut dead_global: HashSet<(u32, u32)> = HashSet::new();
        for &(u, v) in faults.global_links() {
            check_link(u, v, true);
            dead_global.insert((u.0.min(v.0), u.0.max(v.0)));
        }
        let mut dead_local: HashSet<(u32, u32)> = HashSet::new();
        for &(u, v) in faults.local_links() {
            check_link(u, v, false);
            dead_local.insert((u.0.min(v.0), u.0.max(v.0)));
        }
        // Sibling faults resolve to exactly one physical cable: the k-th
        // directed channel u→v in channel-id order plus its reverse
        // direction (the cable partner).
        let mut dead_sibling: HashSet<u32> = HashSet::new();
        for &(u, v, k) in faults.global_siblings() {
            check_link(u, v, true);
            let c = self
                .global_out(u)
                .iter()
                .filter(|&&(_, t)| t == v)
                .nth(k as usize)
                .map(|&(c, _)| c)
                .unwrap_or_else(|| {
                    panic!("fault names non-existent parallel cable {k} between {u}-{v}")
                });
            dead_sibling.insert(c.0);
            dead_sibling.insert(self.cable_partner(c).0);
        }

        let mut dead_channel = vec![false; self.num_channels()];
        let mut n_dead = 0usize;
        for ch in self.channels() {
            let dead = match (ch.src, ch.dst) {
                (Endpoint::Switch(u), Endpoint::Switch(v)) => {
                    let pair = (u.0.min(v.0), u.0.max(v.0));
                    dead_switch[u.index()]
                        || dead_switch[v.index()]
                        || match ch.kind {
                            ChannelKind::Global => {
                                dead_global.contains(&pair) || dead_sibling.contains(&ch.id.0)
                            }
                            _ => dead_local.contains(&pair),
                        }
                }
                (Endpoint::Node(_), Endpoint::Switch(s))
                | (Endpoint::Switch(s), Endpoint::Node(_)) => dead_switch[s.index()],
                _ => false,
            };
            if dead {
                dead_channel[ch.id.index()] = true;
                n_dead += 1;
            }
        }

        let mut gateways = Vec::with_capacity((g * g) as usize);
        for from in 0..g {
            for to in 0..g {
                let pristine = self.gateways(GroupId(from), GroupId(to));
                gateways.push(
                    pristine
                        .iter()
                        .filter(|&&(_, _, c)| !dead_channel[c.index()])
                        .copied()
                        .collect(),
                );
            }
        }

        Degraded {
            g,
            dead_channel,
            dead_switch,
            n_dead_channels: n_dead,
            gateways,
        }
    }
}
