//! The [`Dragonfly`] network object: switches, nodes, channels and the
//! index structures hot loops need.

use crate::arrangement::{AbsoluteArrangement, GlobalArrangement};
use crate::channels::{Channel, ChannelId, ChannelKind, Endpoint};
use crate::ids::{GroupId, NodeId, SwitchId};
use crate::params::{DragonflyParams, TopologyError};

/// A fully built `dfly(p, a, h, g)` network.
///
/// Construction wires the intra-group all-to-all, the global links (absolute
/// arrangement by default) and the terminal links, and precomputes:
///
/// * a dense, stable [`ChannelId`] space (local, global, injection, ejection
///   channels in that order),
/// * per-switch outgoing global channel lists,
/// * per-ordered-group-pair *gateway* lists — the `(src switch, dst switch,
///   channel)` triples of the global links from one group to another, which
///   is the inner loop of MIN/VLB path enumeration.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    params: DragonflyParams,
    arrangement_name: &'static str,
    /// Parallel copies of each global cable (`1` = the plain arrangement).
    global_lag: u32,
    /// Precomputed digest/cache-key suffix: empty for the default shape.
    shape_suffix: String,
    channels: Vec<Channel>,
    /// Outgoing global channels per switch: `(channel, remote switch)`.
    global_out: Vec<Vec<(ChannelId, SwitchId)>>,
    /// For each ordered group pair `(from · g) + to`, the global links
    /// leaving `from` toward `to`.
    gateways: Vec<Vec<(SwitchId, SwitchId, ChannelId)>>,
    /// Group of each switch (`s / a`, precomputed: `group_of` sits on the
    /// per-hop hot path of the simulation engine, and `a` is a runtime
    /// value, so the division is real).
    switch_group: Vec<u32>,
    /// Directed channel between each ordered switch pair (`u32::MAX` for
    /// none): one load instead of a division plus a scan of the global
    /// adjacency.  `num_switches()²` entries — 2 MB at the paper's largest
    /// evaluated topology (702 switches).
    pair_chan: Vec<u32>,
    base_injection: usize,
    base_ejection: usize,
}

impl Dragonfly {
    /// Builds the topology with the paper's default (absolute) global-link
    /// arrangement.
    pub fn new(params: DragonflyParams) -> Result<Self, TopologyError> {
        Self::with_arrangement(params, &AbsoluteArrangement)
    }

    /// Builds the topology with an explicit global-link arrangement (and
    /// `global_lag = 1`).
    pub fn with_arrangement(
        params: DragonflyParams,
        arrangement: &dyn GlobalArrangement,
    ) -> Result<Self, TopologyError> {
        Self::with_shape(params, arrangement, 1)
    }

    /// Builds the topology with an explicit arrangement and `global_lag`
    /// parallel copies of every global cable (caminos-lib's `global_lag`):
    /// each switch then has `h · global_lag` physical global ports and
    /// every pair of groups is joined by `lag × a·h/(g−1)` cables.
    ///
    /// `with_shape(params, &AbsoluteArrangement, 1)` is byte-identical to
    /// [`Dragonfly::new`] — the default shape is not a special case, it is
    /// the lag-1 point of this constructor.
    pub fn with_shape(
        params: DragonflyParams,
        arrangement: &dyn GlobalArrangement,
        global_lag: u32,
    ) -> Result<Self, TopologyError> {
        params.validate()?;
        if global_lag == 0 {
            return Err(TopologyError::ZeroGlobalLag);
        }
        let (a, g, p, h) = (params.a, params.g, params.p, params.h);
        let s_count = params.num_switches();
        let n_count = params.num_nodes();

        let n_local = s_count * (a as usize - 1);
        let undirected = arrangement.links(&params);
        let n_global = undirected.len() * 2 * global_lag as usize;
        debug_assert_eq!(n_global, s_count * (h * global_lag) as usize);
        let mut channels = Vec::with_capacity(n_local + n_global + 2 * n_count);

        // 1. Local channels: for each switch, one to every other switch of
        //    its group, ordered by the peer's local index.
        for s in 0..s_count as u32 {
            let group = s / a;
            for lt in 0..a {
                let t = group * a + lt;
                if t == s {
                    continue;
                }
                channels.push(Channel {
                    id: ChannelId::from_index(channels.len()),
                    src: Endpoint::Switch(SwitchId(s)),
                    dst: Endpoint::Switch(SwitchId(t)),
                    kind: ChannelKind::Local,
                });
            }
        }
        // 2. Global channels: both directions of every cable, `global_lag`
        //    sibling cables consecutively per arrangement cable — so the
        //    cable-partner relation stays "flip the low id bit" and the
        //    lag-1 layout is bit-identical to the historical one.
        let mut global_out: Vec<Vec<(ChannelId, SwitchId)>> =
            vec![Vec::with_capacity((h * global_lag) as usize); s_count];
        for &(u, v) in &undirected {
            for _ in 0..global_lag {
                for (x, y) in [(u, v), (v, u)] {
                    let id = ChannelId::from_index(channels.len());
                    channels.push(Channel {
                        id,
                        src: Endpoint::Switch(x),
                        dst: Endpoint::Switch(y),
                        kind: ChannelKind::Global,
                    });
                    global_out[x.index()].push((id, y));
                }
            }
        }
        let base_injection = channels.len();

        // 3. Terminal channels.
        for n in 0..n_count as u32 {
            channels.push(Channel {
                id: ChannelId::from_index(channels.len()),
                src: Endpoint::Node(NodeId(n)),
                dst: Endpoint::Switch(SwitchId(n / p)),
                kind: ChannelKind::Injection,
            });
        }
        let base_ejection = channels.len();
        for n in 0..n_count as u32 {
            channels.push(Channel {
                id: ChannelId::from_index(channels.len()),
                src: Endpoint::Switch(SwitchId(n / p)),
                dst: Endpoint::Node(NodeId(n)),
                kind: ChannelKind::Ejection,
            });
        }

        // Gateway lists per ordered group pair.
        let mut gateways = vec![Vec::new(); (g * g) as usize];
        for (s, outs) in global_out.iter().enumerate() {
            let from = s as u32 / a;
            for &(c, t) in outs {
                let to = t.0 / a;
                gateways[(from * g + to) as usize].push((SwitchId(s as u32), t, c));
            }
        }
        // Deterministic order regardless of arrangement iteration order.
        for gw in &mut gateways {
            gw.sort_unstable_by_key(|&(u, v, _)| (u, v));
        }

        let switch_group: Vec<u32> = (0..s_count as u32).map(|s| s / a).collect();
        // Scanning channels in id order keeps `pair_chan` on the first
        // (lowest-id) channel per pair, matching the documented
        // "local first, then any parallel global" resolution.
        let mut pair_chan = vec![u32::MAX; s_count * s_count];
        for ch in &channels[..base_injection] {
            if let (Endpoint::Switch(u), Endpoint::Switch(v)) = (ch.src, ch.dst) {
                let slot = &mut pair_chan[u.index() * s_count + v.index()];
                if *slot == u32::MAX {
                    *slot = ch.id.0;
                }
            }
        }

        let arrangement_id = arrangement.id();
        // Empty for the default shape, so every digest/cache key that
        // appends it stays byte-identical to pre-zoo runs.
        let shape_suffix = if arrangement_id == "absolute" && global_lag == 1 {
            String::new()
        } else {
            format!("|{arrangement_id}|lag{global_lag}")
        };
        Ok(Self {
            params,
            arrangement_name: arrangement.name(),
            global_lag,
            shape_suffix,
            channels,
            global_out,
            gateways,
            switch_group,
            pair_chan,
            base_injection,
            base_ejection,
        })
    }

    /// The defining parameters.
    #[inline]
    pub fn params(&self) -> DragonflyParams {
        self.params
    }

    /// Name of the global-link arrangement used.
    pub fn arrangement_name(&self) -> &'static str {
        self.arrangement_name
    }

    /// Parallel copies of each global cable (`1` unless built through
    /// [`Dragonfly::with_shape`] with a larger lag).
    #[inline]
    pub fn global_lag(&self) -> u32 {
        self.global_lag
    }

    /// Shape-identity suffix for digests and cache keys: the empty string
    /// for the default shape (absolute arrangement, `global_lag = 1`) —
    /// keeping historical keys byte-identical — otherwise
    /// `"|<arrangement id>|lag<l>"`.
    pub fn shape_suffix(&self) -> &str {
        &self.shape_suffix
    }

    /// Number of switches, `g · a`.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.params.num_switches()
    }

    /// Number of compute nodes, `g · a · p`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.params.num_nodes()
    }

    /// Number of groups, `g`.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.params.g as usize
    }

    /// Parallel global links between each pair of groups,
    /// `global_lag × a·h/(g−1)`.
    #[inline]
    pub fn links_per_group_pair(&self) -> u32 {
        self.params.links_per_group_pair() * self.global_lag
    }

    /// All directed channels, densely indexed by [`ChannelId`].
    #[inline]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Channel metadata by id.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Total number of directed channels (local + global + terminal).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of switch-to-switch directed channels (local + global); these
    /// occupy the low end of the [`ChannelId`] space.
    #[inline]
    pub fn num_network_channels(&self) -> usize {
        self.base_injection
    }

    /// Group of a switch.
    #[inline]
    pub fn group_of(&self, s: SwitchId) -> GroupId {
        GroupId(self.switch_group[s.index()])
    }

    /// Local index of a switch within its group.
    #[inline]
    pub fn local_index(&self, s: SwitchId) -> u32 {
        s.0 % self.params.a
    }

    /// Switch with a given local index in a group.
    #[inline]
    pub fn switch_in_group(&self, g: GroupId, local: u32) -> SwitchId {
        debug_assert!(local < self.params.a);
        SwitchId(g.0 * self.params.a + local)
    }

    /// Switches of a group, in local-index order.
    pub fn switches_in_group(&self, g: GroupId) -> impl Iterator<Item = SwitchId> {
        let base = g.0 * self.params.a;
        (base..base + self.params.a).map(SwitchId)
    }

    /// The switch a node attaches to.
    #[inline]
    pub fn switch_of_node(&self, n: NodeId) -> SwitchId {
        SwitchId(n.0 / self.params.p)
    }

    /// Group of a node.
    #[inline]
    pub fn group_of_node(&self, n: NodeId) -> GroupId {
        self.group_of(self.switch_of_node(n))
    }

    /// Nodes attached to a switch, in terminal order.
    pub fn nodes_of_switch(&self, s: SwitchId) -> impl Iterator<Item = NodeId> {
        let base = s.0 * self.params.p;
        (base..base + self.params.p).map(NodeId)
    }

    /// Node `(g_i, s_j, n_k)` in the paper's coordinate notation.
    #[inline]
    pub fn node_at(&self, g: GroupId, s_local: u32, n_local: u32) -> NodeId {
        debug_assert!(s_local < self.params.a && n_local < self.params.p);
        NodeId((g.0 * self.params.a + s_local) * self.params.p + n_local)
    }

    /// Decomposes a node into the paper's `(g_i, s_j, n_k)` coordinates.
    #[inline]
    pub fn node_coords(&self, n: NodeId) -> (GroupId, u32, u32) {
        let s = n.0 / self.params.p;
        (
            GroupId(s / self.params.a),
            s % self.params.a,
            n.0 % self.params.p,
        )
    }

    /// The directed local channel between two distinct switches of the same
    /// group (O(1), arithmetic on the dense channel layout).
    #[inline]
    pub fn local_channel(&self, s: SwitchId, t: SwitchId) -> ChannelId {
        debug_assert_eq!(self.group_of(s), self.group_of(t));
        debug_assert_ne!(s, t);
        let a = self.params.a;
        let (ls, lt) = (s.0 % a, t.0 % a);
        let rank = if lt < ls { lt } else { lt - 1 };
        ChannelId(s.0 * (a - 1) + rank)
    }

    /// Outgoing global channels of a switch: `(channel, remote switch)`.
    #[inline]
    pub fn global_out(&self, s: SwitchId) -> &[(ChannelId, SwitchId)] {
        &self.global_out[s.index()]
    }

    /// First directed global channel from switch `u` to switch `v`, if any.
    pub fn global_channel(&self, u: SwitchId, v: SwitchId) -> Option<ChannelId> {
        self.global_out[u.index()]
            .iter()
            .find(|&&(_, t)| t == v)
            .map(|&(c, _)| c)
    }

    /// The opposite direction of a global cable: global channels are laid
    /// out as consecutive `(forward, reverse)` pairs per physical cable,
    /// so the partner is one id away.
    ///
    /// # Panics
    /// (Debug builds) if `c` is not a global channel.
    #[inline]
    pub fn cable_partner(&self, c: ChannelId) -> ChannelId {
        let base = self.num_switches() * (self.params.a as usize - 1);
        debug_assert!(
            c.index() >= base && c.index() < self.base_injection,
            "{c:?} is not a global channel"
        );
        ChannelId::from_index(base + ((c.index() - base) ^ 1))
    }

    /// The global links from group `from` toward group `to`:
    /// `(source switch, destination switch, channel)` triples, sorted.
    #[inline]
    pub fn gateways(&self, from: GroupId, to: GroupId) -> &[(SwitchId, SwitchId, ChannelId)] {
        &self.gateways[(from.0 * self.params.g + to.0) as usize]
    }

    /// Injection channel of a node (node → switch).
    #[inline]
    pub fn injection_channel(&self, n: NodeId) -> ChannelId {
        ChannelId::from_index(self.base_injection + n.index())
    }

    /// Ejection channel toward a node (switch → node).
    #[inline]
    pub fn ejection_channel(&self, n: NodeId) -> ChannelId {
        ChannelId::from_index(self.base_ejection + n.index())
    }

    /// The directed channel between two switches regardless of kind
    /// (local first, then any parallel global link).  One table load — this
    /// is the engine's per-hop path-to-channel resolution.
    #[inline]
    pub fn channel_between(&self, u: SwitchId, v: SwitchId) -> Option<ChannelId> {
        match self.pair_chan[u.index() * self.num_switches() + v.index()] {
            u32::MAX => None,
            c => Some(ChannelId(c)),
        }
    }
}
