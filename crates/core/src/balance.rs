//! Step 2a: load-balance analysis and adjustment of a T-VLB path table.
//!
//! A subset of VLB paths can use links unevenly (§3.3.3), at two levels:
//!
//! * **locally** — within one switch pair's candidate set, some link is
//!   much more likely to carry that pair's traffic than the others;
//! * **globally** — over all pairs (each path equally likely), some link
//!   is much more likely to carry traffic than its peers of the same kind.
//!
//! The paper's adjustment is deliberately simple: *remove* paths that
//! cause the imbalance (replacement strategies were unnecessary in their
//! experiments, and UGAL tolerates residual imbalance).  This module
//! mirrors that: iterative removal of paths crossing over-used links,
//! never shrinking a pair below a configured diversity floor.

use std::cmp::Reverse;
use tugal_routing::PathTable;
use tugal_topology::{ChannelKind, Dragonfly, SwitchId};

/// Thresholds for imbalance detection and the diversity floor.
#[derive(Debug, Clone)]
pub struct BalanceOptions {
    /// A link is locally over-used when its usage probability exceeds this
    /// multiple of the pair's mean link usage probability.
    pub local_ratio: f64,
    /// Same, for the global all-pairs distribution (compared per channel
    /// kind, since local and global links have different base loads).
    pub global_ratio: f64,
    /// Never reduce a pair below this many VLB candidates.
    pub min_paths_per_pair: usize,
    /// Each pass may remove at most this fraction of a pair's candidates —
    /// the adjustment trims outliers, it must not reshape the set.
    pub max_removed_frac: f64,
    /// Iteration cap for the remove-and-recheck loops.
    pub max_rounds: usize,
}

impl Default for BalanceOptions {
    fn default() -> Self {
        BalanceOptions {
            local_ratio: 2.5,
            global_ratio: 2.0,
            min_paths_per_pair: 4,
            max_removed_frac: 0.25,
            max_rounds: 4,
        }
    }
}

impl BalanceOptions {
    /// Per-pair floor given the candidate count a pass starts from.
    fn floor(&self, starting_len: usize) -> usize {
        let by_frac = ((starting_len as f64) * (1.0 - self.max_removed_frac)).ceil() as usize;
        self.min_paths_per_pair.max(by_frac).min(starting_len)
    }
}

/// What the adjustment did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BalanceReport {
    /// Paths removed by the per-pair (local) pass.
    pub removed_local: usize,
    /// Paths removed by the all-pairs (global) pass.
    pub removed_global: usize,
    /// Worst global over-use ratio before adjustment (1.0 = perfectly
    /// even).
    pub worst_ratio_before: f64,
    /// Worst global over-use ratio after adjustment.
    pub worst_ratio_after: f64,
}

/// Detects and removes local imbalance: for each pair, the candidate set's
/// usage of *global* channels is compared per hop position (first global
/// hop, second global hop) — every VLB path has exactly one of each, so
/// positions are comparable — and channels exceeding
/// `local_ratio × (position mean)` lose their paths, subject to the
/// diversity floor.
///
/// Comparing within a position matters: channels near the source
/// inherently carry more of a pair's traffic than distant ones (even under
/// the full VLB set), so a flat per-pair comparison would flag structure,
/// not path-set skew.
pub fn adjust_local(table: &mut PathTable, topo: &Dragonfly, opts: &BalanceOptions) -> usize {
    let n = table.num_switches();
    let mut removed = 0;
    // usage[position][channel] over one pair's candidates, and the
    // channels each position touched (for the mean and the reset).
    let n_chan = topo.num_network_channels();
    let mut usage = [vec![0u32; n_chan], vec![0u32; n_chan]];
    let mut seen: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    // The pair's candidates, decoded once; the rounds trim this copy and
    // the table keeps what survives.
    let mut paths = Vec::new();
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s == d {
                continue;
            }
            let (s, d) = (SwitchId(s), SwitchId(d));
            paths.clear();
            paths.extend(table.vlb(s, d));
            let floor = opts.floor(paths.len());
            let mut pair_removed = 0;
            for _ in 0..opts.max_rounds {
                let before = paths.len();
                if before <= floor {
                    break;
                }
                for p in &paths {
                    let mut gpos = 0;
                    for i in 0..p.hops() {
                        if p.hop_kind(topo, i) == ChannelKind::Global {
                            if gpos < 2 {
                                let ch = p.channel_at(topo, i).0;
                                if usage[gpos][ch as usize] == 0 {
                                    seen[gpos].push(ch);
                                }
                                usage[gpos][ch as usize] += 1;
                            }
                            gpos += 1;
                        }
                    }
                }
                // Hottest offending (position, channel).  Equal ratios
                // go to the lower position, then the lower channel id, so
                // the choice is the same in every process.
                let mut hot: Option<(usize, u32, f64)> = None;
                for (pos, (u, chans)) in usage.iter_mut().zip(&mut seen).enumerate() {
                    if chans.len() >= 2 {
                        let total: u32 = chans.iter().map(|&c| u[c as usize]).sum();
                        let mean = total as f64 / chans.len() as f64;
                        let (cnt, Reverse(ch)) = chans
                            .iter()
                            .map(|&c| (u[c as usize], Reverse(c)))
                            .max()
                            .expect("at least two channels");
                        let ratio = cnt as f64 / mean;
                        if ratio > opts.local_ratio && hot.is_none_or(|(_, _, r)| ratio > r) {
                            hot = Some((pos, ch, ratio));
                        }
                    }
                    for &c in chans.iter() {
                        u[c as usize] = 0;
                    }
                    chans.clear();
                }
                let Some((pos, hot_ch, _)) = hot else { break };
                let mut dropped = 0;
                paths.retain(|p| {
                    let mut gpos = 0;
                    let mut uses_hot = false;
                    for i in 0..p.hops() {
                        if p.hop_kind(topo, i) == ChannelKind::Global {
                            if gpos == pos && p.channel_at(topo, i).0 == hot_ch {
                                uses_hot = true;
                            }
                            gpos += 1;
                        }
                    }
                    let drop = uses_hot && before - dropped > floor;
                    dropped += usize::from(drop);
                    !drop
                });
                pair_removed += dropped;
                if dropped == 0 {
                    break;
                }
            }
            if pair_removed > 0 {
                // `paths` is an in-order subsequence of the pair's
                // candidates, which are distinct.
                let mut kept = paths.iter().peekable();
                table.retain_vlb(s, d, |p| kept.next_if_eq(&p).is_some());
                removed += pair_removed;
            }
        }
    }
    removed
}

/// Global usage probability per channel: every pair equally likely, every
/// candidate of a pair equally likely.
fn global_usage(table: &PathTable, topo: &Dragonfly) -> Vec<f64> {
    let n = table.num_switches();
    let mut usage = vec![0.0f64; topo.num_network_channels()];
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s == d {
                continue;
            }
            let vlb = table.vlb(SwitchId(s), SwitchId(d));
            if vlb.len() == 0 {
                continue;
            }
            let w = 1.0 / vlb.len() as f64;
            for p in vlb {
                for c in p.channels(topo) {
                    usage[c.index()] += w;
                }
            }
        }
    }
    usage
}

/// Worst over-use ratio (max/mean) per channel kind.
fn worst_ratio(usage: &[f64], topo: &Dragonfly) -> f64 {
    let mut worst = 0.0f64;
    for kind in [ChannelKind::Local, ChannelKind::Global] {
        let values: Vec<f64> = topo
            .channels()
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| usage[c.id.index()])
            .collect();
        if values.is_empty() {
            continue;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        if mean > 0.0 {
            let max = values.iter().copied().fold(0.0, f64::max);
            worst = worst.max(max / mean);
        }
    }
    worst
}

/// Detects and removes global imbalance: channels whose all-pairs usage
/// probability exceeds `global_ratio × (mean of their kind)` lose paths,
/// one pass per round, subject to the per-pair floor.
pub fn adjust_global(table: &mut PathTable, topo: &Dragonfly, opts: &BalanceOptions) -> usize {
    let n = table.num_switches();
    let mut removed = 0;
    for _ in 0..opts.max_rounds {
        let usage = global_usage(table, topo);
        // Hot channels per kind.
        let mut hot = vec![false; usage.len()];
        let mut any_hot = false;
        for kind in [ChannelKind::Local, ChannelKind::Global] {
            let idx: Vec<usize> = topo
                .channels()
                .iter()
                .filter(|c| c.kind == kind)
                .map(|c| c.id.index())
                .collect();
            if idx.is_empty() {
                continue;
            }
            let mean = idx.iter().map(|&i| usage[i]).sum::<f64>() / idx.len() as f64;
            for &i in &idx {
                if usage[i] > opts.global_ratio * mean && mean > 0.0 {
                    hot[i] = true;
                    any_hot = true;
                }
            }
        }
        if !any_hot {
            break;
        }
        let mut this_round = 0;
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s == d {
                    continue;
                }
                let (s, d) = (SwitchId(s), SwitchId(d));
                let mut len = table.vlb(s, d).len();
                let min_keep = opts.floor(len);
                if len <= min_keep {
                    continue;
                }
                let before = len;
                table.retain_vlb(s, d, |p| {
                    if len <= min_keep {
                        return true;
                    }
                    let uses_hot = p.channels(topo).any(|c| hot[c.index()]);
                    if uses_hot {
                        len -= 1;
                        false
                    } else {
                        true
                    }
                });
                this_round += before - table.vlb(s, d).len();
            }
        }
        removed += this_round;
        if this_round == 0 {
            break;
        }
    }
    removed
}

/// Runs both passes and reports what changed.
pub fn adjust(table: &mut PathTable, topo: &Dragonfly, opts: &BalanceOptions) -> BalanceReport {
    let before = worst_ratio(&global_usage(table, topo), topo);
    let removed_local = adjust_local(table, topo, opts);
    let removed_global = adjust_global(table, topo, opts);
    let after = worst_ratio(&global_usage(table, topo), topo);
    BalanceReport {
        removed_local,
        removed_global,
        worst_ratio_before: before,
        worst_ratio_after: after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tugal_routing::VlbRule;
    use tugal_topology::DragonflyParams;

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::new(2, 4, 2, 5)).unwrap()
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The bytes of adjusted tables are pinned: a T-VLB table under the
    /// default options, and a full table (whose pairs share their lists)
    /// under thresholds tight enough to trim it.
    #[test]
    fn adjusted_tables_match_their_pinned_digests() {
        let t = Dragonfly::new(DragonflyParams::new(3, 6, 3, 7)).unwrap();
        let rule = VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.6,
        };
        let tight = BalanceOptions {
            local_ratio: 1.01,
            global_ratio: 1.01,
            min_paths_per_pair: 2,
            max_removed_frac: 0.5,
            max_rounds: 2,
        };
        for (what, mut table, opts, want) in [
            (
                "ClassLimit",
                PathTable::build_with_rule(&t, rule, 0x7065),
                BalanceOptions::default(),
                0x4c3b_0984_d623_84adu64,
            ),
            (
                "All",
                PathTable::build_all(&t),
                tight,
                0x8ab2_0664_1ba7_5406,
            ),
        ] {
            let report = adjust(&mut table, &t, &opts);
            assert!(
                report.removed_local + report.removed_global > 0,
                "{what}: {report:?}"
            );
            let got = fnv1a(&table.to_bytes());
            assert_eq!(got, want, "{what}: {got:#018x}");
        }
    }

    #[test]
    fn full_table_is_roughly_balanced() {
        let t = topo();
        let table = PathTable::build_all(&t);
        let ratio = worst_ratio(&global_usage(&table, &t), &t);
        // The symmetric all-VLB set should not be wildly imbalanced.
        assert!(ratio < 3.0, "{ratio}");
    }

    #[test]
    fn adjustment_never_breaks_diversity_floor() {
        let t = topo();
        let mut table = PathTable::build_with_rule(
            &t,
            VlbRule::ClassLimit {
                max_hops: 4,
                frac_next: 0.3,
            },
            3,
        );
        let opts = BalanceOptions {
            local_ratio: 1.2,
            global_ratio: 1.2,
            min_paths_per_pair: 3,
            max_removed_frac: 1.0,
            max_rounds: 4,
        };
        adjust(&mut table, &t, &opts);
        for s in 0..t.num_switches() as u32 {
            for d in 0..t.num_switches() as u32 {
                if s == d {
                    continue;
                }
                let vlb = table.vlb(SwitchId(s), SwitchId(d));
                assert!(
                    vlb.len() >= 3.min(vlb.len().max(1)),
                    "pair ({s},{d}) has {} paths",
                    vlb.len()
                );
                assert!(vlb.len() != 0, "pair ({s},{d}) emptied");
            }
        }
    }

    #[test]
    fn adjustment_keeps_worst_ratio_sane() {
        // Removal can shuffle which channel is hottest (the report exists
        // to surface that), but it must not blow the distribution up.
        let t = topo();
        let mut table = PathTable::build_with_rule(
            &t,
            VlbRule::ClassLimit {
                max_hops: 4,
                frac_next: 0.2,
            },
            99,
        );
        let report = adjust(&mut table, &t, &BalanceOptions::default());
        assert!(report.worst_ratio_before >= 1.0);
        assert!(
            report.worst_ratio_after <= report.worst_ratio_before * 1.5 + 0.5,
            "{report:?}"
        );
    }

    #[test]
    fn aggressive_thresholds_remove_paths() {
        let t = topo();
        let mut table = PathTable::build_with_rule(
            &t,
            VlbRule::ClassLimit {
                max_hops: 4,
                frac_next: 0.2,
            },
            5,
        );
        let opts = BalanceOptions {
            local_ratio: 1.01,
            global_ratio: 1.01,
            min_paths_per_pair: 2,
            max_removed_frac: 1.0,
            max_rounds: 3,
        };
        let report = adjust(&mut table, &t, &opts);
        assert!(
            report.removed_local + report.removed_global > 0,
            "{report:?}"
        );
    }

    #[test]
    fn adjustment_is_deterministic() {
        // Equal usage ratios are common (many channels carry the same
        // count), so the hottest-channel tie-break decides which paths go.
        let t = topo();
        let table = PathTable::build_with_rule(
            &t,
            VlbRule::ClassLimit {
                max_hops: 5,
                frac_next: 0.5,
            },
            11,
        );
        let opts = BalanceOptions {
            local_ratio: 1.05,
            global_ratio: 1.05,
            min_paths_per_pair: 2,
            max_removed_frac: 1.0,
            max_rounds: 4,
        };
        let (mut a, mut b) = (table.clone(), table);
        let (ra, rb) = (adjust(&mut a, &t, &opts), adjust(&mut b, &t, &opts));
        assert!(ra.removed_local > 0, "{ra:?}");
        assert_eq!(ra, rb);
        for s in 0..t.num_switches() as u32 {
            for d in 0..t.num_switches() as u32 {
                let (s, d) = (SwitchId(s), SwitchId(d));
                assert!(a.vlb(s, d).eq(b.vlb(s, d)), "pair ({s:?},{d:?})");
            }
        }
    }

    #[test]
    fn lenient_thresholds_remove_nothing() {
        let t = topo();
        let mut table = PathTable::build_all(&t);
        let opts = BalanceOptions {
            local_ratio: 100.0,
            global_ratio: 100.0,
            ..Default::default()
        };
        let report = adjust(&mut table, &t, &opts);
        assert_eq!(report.removed_local + report.removed_global, 0);
    }
}
