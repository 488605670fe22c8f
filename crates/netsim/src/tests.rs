//! Simulator behaviour tests: conservation, latency physics, adaptivity.

use crate::*;
use std::sync::Arc;
use tugal_routing::{PathProvider, RuleProvider, TableProvider, VlbRule};
use tugal_topology::{Dragonfly, DragonflyParams};
use tugal_traffic::{Shift, TrafficPattern, Uniform};

fn topo(p: u32, a: u32, h: u32, g: u32) -> Arc<Dragonfly> {
    Arc::new(Dragonfly::new(DragonflyParams::new(p, a, h, g)).unwrap())
}

fn quick(routing: RoutingAlgorithm) -> Config {
    Config::quick().for_routing(routing)
}

fn sim(
    t: &Arc<Dragonfly>,
    provider: Arc<dyn PathProvider>,
    pattern: Arc<dyn TrafficPattern>,
    routing: RoutingAlgorithm,
    rate: f64,
) -> SimResult {
    Simulator::new(t.clone(), provider, pattern, routing, quick(routing)).run(rate)
}

fn all_paths(t: &Arc<Dragonfly>) -> Arc<dyn PathProvider> {
    Arc::new(TableProvider::all_paths(t.clone()))
}

#[test]
fn uniform_low_load_delivers_everything() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let r = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Min, 0.05);
    assert!(!r.saturated, "{r:?}");
    assert!(r.delivered > 0);
    // Accepted ~ offered at low load.
    assert!(
        (r.throughput - 0.05).abs() < 0.01,
        "throughput {} vs offered 0.05",
        r.throughput
    );
}

#[test]
fn zero_load_latency_matches_link_latencies() {
    // At near-zero load a MIN-routed packet crosses: injection (1) +
    // up to l(10) + g(15) + l(10) + ejection (1) = 37 cycles plus queueing
    // and allocation slack; the average over path shapes must sit between
    // the terminal-only (2) and the max (~40).
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let r = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Min, 0.01);
    assert!(
        r.avg_latency > 15.0 && r.avg_latency < 60.0,
        "avg latency {}",
        r.avg_latency
    );
}

#[test]
fn min_routing_hop_counts_are_minimal() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let r = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Min, 0.05);
    // MIN paths are at most 3 hops.
    assert!(r.avg_hops <= 3.0 + 1e-9, "{}", r.avg_hops);
    assert_eq!(r.vlb_fraction, 0.0);
}

#[test]
fn vlb_routing_uses_longer_paths() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let min = sim(
        &t,
        all_paths(&t),
        pattern.clone(),
        RoutingAlgorithm::Min,
        0.05,
    );
    let vlb = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Vlb, 0.05);
    assert!(
        vlb.avg_hops > min.avg_hops + 0.5,
        "{} vs {}",
        vlb.avg_hops,
        min.avg_hops
    );
}

#[test]
fn min_saturates_on_adversarial_while_vlb_does_not() {
    // shift(1,0) on the maximal dfly(2,4,2,9): MIN squeezes 8 nodes through
    // 1 global link (cap 0.125/node); VLB spreads over 7 groups.
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let min = sim(
        &t,
        all_paths(&t),
        pattern.clone(),
        RoutingAlgorithm::Min,
        0.3,
    );
    assert!(
        min.saturated,
        "MIN should saturate at 0.3 on adversarial: {min:?}"
    );
    let vlb = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Vlb, 0.3);
    assert!(!vlb.saturated, "VLB should survive 0.3: {vlb:?}");
}

#[test]
fn ugal_adapts_uniform_to_min_and_adversarial_to_vlb() {
    let t = topo(2, 4, 2, 9);
    let ur: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let on_ur = sim(&t, all_paths(&t), ur, RoutingAlgorithm::UgalL, 0.2);
    let on_adv = sim(&t, all_paths(&t), adv, RoutingAlgorithm::UgalL, 0.2);
    assert!(
        on_ur.vlb_fraction < 0.35,
        "uniform traffic should mostly ride MIN: {}",
        on_ur.vlb_fraction
    );
    // On adversarial traffic at 0.2 (above MIN's 0.125 capacity) a large
    // share must divert to VLB, well above the uniform-traffic share.
    assert!(
        on_adv.vlb_fraction > 0.35,
        "adversarial traffic should ride VLB substantially: {}",
        on_adv.vlb_fraction
    );
    assert!(
        on_adv.vlb_fraction > on_ur.vlb_fraction + 0.1,
        "adaptivity: {} vs {}",
        on_adv.vlb_fraction,
        on_ur.vlb_fraction
    );
    assert!(!on_adv.saturated, "{on_adv:?}");
}

#[test]
fn ugal_g_also_adapts() {
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = sim(&t, all_paths(&t), adv, RoutingAlgorithm::UgalG, 0.2);
    assert!(r.vlb_fraction > 0.5, "{}", r.vlb_fraction);
    assert!(!r.saturated);
}

#[test]
fn par_functions_and_reroutes() {
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = sim(&t, all_paths(&t), adv, RoutingAlgorithm::Par, 0.2);
    assert!(!r.saturated, "{r:?}");
    assert!(r.vlb_fraction > 0.3, "{}", r.vlb_fraction);
}

#[test]
fn rule_provider_works_in_simulation() {
    let t = topo(2, 4, 2, 3);
    let provider: Arc<dyn PathProvider> = Arc::new(RuleProvider::new(
        t.clone(),
        VlbRule::ClassLimit {
            max_hops: 4,
            frac_next: 0.5,
        },
    ));
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = sim(&t, provider, adv, RoutingAlgorithm::UgalL, 0.2);
    assert!(r.delivered > 0);
    assert!(!r.saturated, "{r:?}");
}

#[test]
fn conservation_no_packet_lost_below_saturation() {
    // At a stable load, deliveries during the window track injections
    // (within the in-flight population, which is bounded).
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let r = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::UgalL, 0.1);
    let inflight_bound = 4 * t.num_nodes() as u64;
    assert!(
        r.delivered + inflight_bound >= r.injected && r.delivered <= r.injected + inflight_bound,
        "delivered {} vs injected {}",
        r.delivered,
        r.injected
    );
}

#[test]
fn deterministic_given_seed() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let provider = all_paths(&t);
    let cfg = quick(RoutingAlgorithm::UgalL);
    let a = Simulator::new(
        t.clone(),
        provider.clone(),
        pattern.clone(),
        RoutingAlgorithm::UgalL,
        cfg.clone(),
    )
    .run(0.1);
    let b = Simulator::new(t.clone(), provider, pattern, RoutingAlgorithm::UgalL, cfg).run(0.1);
    assert_eq!(a, b);
}

#[test]
fn higher_load_means_higher_latency_under_min() {
    // MIN routing has no adaptive path choice, so queueing delay makes
    // latency monotone in load.  (UGAL-L is deliberately *not* monotone at
    // low load — see `ugal_l_misroutes_at_low_load`.)
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let lo = sim(
        &t,
        all_paths(&t),
        pattern.clone(),
        RoutingAlgorithm::Min,
        0.05,
    );
    let hi = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Min, 0.6);
    assert!(
        hi.avg_latency > lo.avg_latency,
        "{} vs {}",
        hi.avg_latency,
        lo.avg_latency
    );
}

#[test]
fn ugal_l_misroutes_at_low_load() {
    // The documented UGAL-L artifact the paper's T-UGAL exploits: with
    // near-empty queues, a single buffered flit flips the
    // `q_min·len_min <= q_vlb·len_vlb` comparison, sending a noticeable
    // share of packets over (long) VLB paths, which raises low-load
    // latency.  T-UGAL shortens exactly those paths (Figure 6).
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let lo = sim(
        &t,
        all_paths(&t),
        pattern.clone(),
        RoutingAlgorithm::UgalL,
        0.05,
    );
    let mid = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::UgalL, 0.4);
    assert!(
        lo.vlb_fraction > mid.vlb_fraction,
        "low-load noise should cause more VLB misroutes: {} vs {}",
        lo.vlb_fraction,
        mid.vlb_fraction
    );
    assert!(lo.vlb_fraction > 0.1, "{}", lo.vlb_fraction);
}

#[test]
fn no_deadlock_under_heavy_adversarial_load() {
    // Push far past saturation; the network must keep delivering (deadlock
    // would freeze deliveries entirely).
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    for routing in [
        RoutingAlgorithm::UgalL,
        RoutingAlgorithm::UgalG,
        RoutingAlgorithm::Par,
        RoutingAlgorithm::Vlb,
    ] {
        let r = sim(&t, all_paths(&t), adv.clone(), routing, 0.9);
        assert!(
            r.delivered > 0,
            "{}: no packets delivered under overload (deadlock?)",
            routing.name()
        );
        assert!(
            !r.deadlock_suspected,
            "{}: watchdog tripped under overload",
            routing.name()
        );
    }
}

#[test]
fn perhop_vc_scheme_runs() {
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let mut cfg = Config::quick();
    cfg.vc_scheme = tugal_routing::VcScheme::PerHop;
    cfg.num_vcs = 6;
    let r = Simulator::new(t.clone(), all_paths(&t), adv, RoutingAlgorithm::UgalG, cfg).run(0.2);
    assert!(r.delivered > 0);
    assert!(!r.saturated, "{r:?}");
}

#[test]
#[should_panic(expected = "needs 5 VCs")]
fn par_rejects_insufficient_vcs() {
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let cfg = Config::quick(); // 4 VCs
    let _ = Simulator::new(t.clone(), all_paths(&t), adv, RoutingAlgorithm::Par, cfg);
}

/// A one-series runner: `routing` under `cfg` over every path of `t`.
fn runner(
    t: &Arc<Dragonfly>,
    pattern: &Arc<dyn TrafficPattern>,
    routing: RoutingAlgorithm,
    cfg: Config,
) -> runner::ExperimentRunner {
    runner::ExperimentRunner::new(t.clone()).series(runner::SeriesSpec {
        label: routing.name().to_string(),
        provider: all_paths(t),
        pattern: pattern.clone(),
        routing,
        cfg,
        faults: None,
    })
}

#[test]
fn runner_curve_is_monotonic_until_saturation() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let cfg = quick(RoutingAlgorithm::UgalL);
    let (curves, _, _) = runner(&t, &pattern, RoutingAlgorithm::Min, cfg)
        .run_recorded(&[0.05, 0.2, 0.4], &[7], |_| NoopObserver)
        .unwrap();
    let latency = |i: usize| curves[0].points[i].point.result.avg_latency;
    assert_eq!(curves[0].points.len(), 3);
    assert!(latency(0) <= latency(1));
    assert!(latency(1) <= latency(2));
}

#[test]
fn saturation_orders_min_below_vlb_on_adversarial() {
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let sat = |routing| runner(&t, &adv, routing, quick(routing)).saturation(&[5], 0.02);
    let min_sat = sat(RoutingAlgorithm::Min).unwrap().0[0];
    let ugal_sat = sat(RoutingAlgorithm::UgalL).unwrap().0[0];
    assert!(
        min_sat < ugal_sat,
        "MIN {min_sat} should saturate below UGAL-L {ugal_sat} on adversarial traffic"
    );
    // MIN's analytic cap on this pattern is 1/8 per node.
    assert!(min_sat <= 0.2, "{min_sat}");
}

#[test]
fn saturation_ignores_windows_that_inject_nothing() {
    // The first probe runs at the resolution itself.  At 1e-4 a packet
    // arrives only every ~1 700 cycles, so each meets an idle network
    // long after the last delivery, which the deadlock watchdog must not
    // take for a stall.  At 1e-18 the window injects nothing at all and
    // has no latency to compare.  Neither may count as saturated and end
    // the search at 0.
    let t = topo(1, 2, 1, 3);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let cfg = quick(RoutingAlgorithm::Min);
    let at = |resolution| {
        let r = runner(&t, &adv, RoutingAlgorithm::Min, cfg.clone());
        r.saturation(&[1], resolution).unwrap().0[0]
    };
    let coarse = at(1e-3);
    assert!((coarse - 0.477).abs() < 0.01, "{coarse}");
    for resolution in [1e-4, 1e-18] {
        let fine = at(resolution);
        assert!(
            (fine - coarse).abs() <= 0.02,
            "{fine} at {resolution} vs {coarse}"
        );
    }
}

/// A pattern sending every node's traffic to a single hot node — exercises
/// the ejection bottleneck (one ejection channel drains 1 flit/cycle).
struct HotSpot {
    target: tugal_topology::NodeId,
}

impl TrafficPattern for HotSpot {
    fn dest(
        &self,
        src: tugal_topology::NodeId,
        _rng: &mut rand::rngs::SmallRng,
    ) -> Option<tugal_topology::NodeId> {
        (src != self.target).then_some(self.target)
    }
    fn name(&self) -> String {
        "hotspot".into()
    }
}

#[test]
fn ejection_bottleneck_saturates_hotspot_traffic() {
    let t = topo(2, 4, 2, 9); // 72 nodes
    let pattern: Arc<dyn TrafficPattern> = Arc::new(HotSpot {
        target: tugal_topology::NodeId(0),
    });
    // 71 senders share one ejection channel: per-node capacity ~ 1/71.
    let r = sim(
        &t,
        all_paths(&t),
        pattern.clone(),
        RoutingAlgorithm::Min,
        0.1,
    );
    assert!(r.saturated, "hotspot at 0.1/node must saturate: {r:?}");
    let r = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Min, 0.01);
    assert!(!r.saturated, "hotspot at 0.01/node fits: {r:?}");
}

#[test]
fn smaller_buffers_saturate_earlier() {
    // The mechanism behind Figure 16.
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let provider = all_paths(&t);
    let run = |buf: u16, rate: f64| {
        let mut cfg = quick(RoutingAlgorithm::UgalL);
        cfg.buf_size = buf;
        Simulator::new(
            t.clone(),
            provider.clone(),
            adv.clone(),
            RoutingAlgorithm::UgalL,
            cfg,
        )
        .run(rate)
    };
    // At a moderate load, tiny buffers must show strictly higher latency.
    let small = run(2, 0.2);
    let big = run(32, 0.2);
    assert!(
        small.saturated || small.avg_latency > big.avg_latency,
        "buf=2 {small:?} vs buf=32 {big:?}"
    );
}

#[test]
fn higher_link_latency_raises_zero_load_latency() {
    // The mechanism behind Figure 15.
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let provider = all_paths(&t);
    let run = |ll: u32, gl: u32| {
        let mut cfg = quick(RoutingAlgorithm::UgalG);
        cfg.local_latency = ll;
        cfg.global_latency = gl;
        Simulator::new(
            t.clone(),
            provider.clone(),
            pattern.clone(),
            RoutingAlgorithm::UgalG,
            cfg,
        )
        .run(0.05)
    };
    let fast = run(10, 15);
    let slow = run(40, 60);
    assert!(
        slow.avg_latency > fast.avg_latency + 20.0,
        "{} vs {}",
        slow.avg_latency,
        fast.avg_latency
    );
}

#[test]
fn speedup_two_dominates_speedup_one() {
    // The mechanism behind Figure 17: less head-of-line blocking.
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let provider = all_paths(&t);
    let run = |speedup: u32| {
        let mut cfg = quick(RoutingAlgorithm::Par);
        cfg.speedup = speedup;
        Simulator::new(
            t.clone(),
            provider.clone(),
            adv.clone(),
            RoutingAlgorithm::Par,
            cfg,
        )
        .run(0.25)
    };
    let s1 = run(1);
    let s2 = run(2);
    let score = |r: &SimResult| {
        if r.saturated {
            f64::INFINITY
        } else {
            r.avg_latency
        }
    };
    assert!(
        score(&s2) <= score(&s1) + 10.0,
        "speedup 2 {s2:?} should not lose to speedup 1 {s1:?}"
    );
}

#[test]
fn more_vcs_do_not_hurt_throughput() {
    // The mechanism behind Figure 18: routing(6) has more buffering.
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let provider = all_paths(&t);
    let run = |scheme: tugal_routing::VcScheme, vcs: u8, rate: f64| {
        let mut cfg = quick(RoutingAlgorithm::UgalG);
        cfg.vc_scheme = scheme;
        cfg.num_vcs = vcs;
        Simulator::new(
            t.clone(),
            provider.clone(),
            adv.clone(),
            RoutingAlgorithm::UgalG,
            cfg,
        )
        .run(rate)
    };
    let compact = run(tugal_routing::VcScheme::Compact, 4, 0.3);
    let perhop = run(tugal_routing::VcScheme::PerHop, 6, 0.3);
    assert!(perhop.delivered > 0 && compact.delivered > 0);
    // routing(6) must not saturate where routing(4) survives.
    if !compact.saturated {
        assert!(
            !perhop.saturated || perhop.avg_latency < 2.0 * compact.avg_latency,
            "routing(6) {perhop:?} vs routing(4) {compact:?}"
        );
    }
}

#[test]
fn pure_vlb_marks_all_cross_group_packets() {
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = sim(&t, all_paths(&t), adv, RoutingAlgorithm::Vlb, 0.1);
    assert!(r.vlb_fraction > 0.99, "{}", r.vlb_fraction);
}

#[test]
fn throughput_never_exceeds_offered_load() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    for rate in [0.05, 0.3, 0.6] {
        let r = sim(
            &t,
            all_paths(&t),
            pattern.clone(),
            RoutingAlgorithm::UgalL,
            rate,
        );
        assert!(
            r.throughput <= rate * 1.05 + 0.01,
            "accepted {} offered {rate}",
            r.throughput
        );
    }
}

#[test]
fn more_vlb_candidates_help_adversarial_traffic() {
    // Extension knob: UGAL choosing the better of k VLB draws should not
    // be worse than the paper's single draw.
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let provider = all_paths(&t);
    let run = |k: u8| {
        let mut cfg = quick(RoutingAlgorithm::UgalG);
        cfg.vlb_candidates = k;
        Simulator::new(
            t.clone(),
            provider.clone(),
            adv.clone(),
            RoutingAlgorithm::UgalG,
            cfg,
        )
        .run(0.25)
    };
    let one = run(1);
    let four = run(4);
    let score = |r: &SimResult| {
        if r.saturated {
            f64::INFINITY
        } else {
            r.avg_latency
        }
    };
    assert!(
        score(&four) <= score(&one) * 1.1 + 5.0,
        "4 candidates {four:?} should not lose to 1 {one:?}"
    );
}

#[test]
fn ugal_threshold_biases_toward_min() {
    // Large positive T forces MIN even when queues disagree.
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let provider = all_paths(&t);
    let run = |threshold: i64| {
        let mut cfg = quick(RoutingAlgorithm::UgalL);
        cfg.ugal_threshold = threshold;
        Simulator::new(
            t.clone(),
            provider.clone(),
            adv.clone(),
            RoutingAlgorithm::UgalL,
            cfg,
        )
        .run(0.1)
    };
    let unbiased = run(0);
    let biased = run(1_000_000);
    assert!(
        biased.vlb_fraction < 0.01,
        "huge T must pin routing to MIN: {}",
        biased.vlb_fraction
    );
    assert!(unbiased.vlb_fraction > biased.vlb_fraction);
}

#[test]
fn percentiles_bracket_the_mean() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let r = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Min, 0.2);
    assert!(r.latency_p50 > 0.0);
    assert!(r.latency_p99 >= r.latency_p50);
    // Histogram buckets are powers of two, so allow wide but sane bounds.
    assert!(r.latency_p50 < r.avg_latency * 4.0, "{r:?}");
    assert!(r.latency_p99 < 1_000.0, "{r:?}");
}

#[test]
fn channel_utilization_tracks_offered_load() {
    let t = topo(2, 4, 2, 9);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let lo = sim(
        &t,
        all_paths(&t),
        pattern.clone(),
        RoutingAlgorithm::Min,
        0.05,
    );
    let hi = sim(&t, all_paths(&t), pattern, RoutingAlgorithm::Min, 0.4);
    assert!(
        hi.mean_global_util > lo.mean_global_util * 3.0,
        "{} vs {}",
        hi.mean_global_util,
        lo.mean_global_util
    );
    assert!(hi.max_channel_util <= 1.0 + 1e-9, "{}", hi.max_channel_util);
    assert!(lo.mean_local_util > 0.0);
}

#[test]
fn adversarial_min_saturates_the_direct_link() {
    // Under shift(1,0) with MIN routing, the bottleneck global channel
    // must be pinned at ~full utilization once offered load exceeds its
    // capacity share.
    let t = topo(2, 4, 2, 9);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = sim(&t, all_paths(&t), adv, RoutingAlgorithm::Min, 0.3);
    assert!(r.max_channel_util > 0.9, "{}", r.max_channel_util);
}

/// The runner's saturation throughput of MIN on shift(1,0) over
/// dfly(1,2,1,3).
fn saturation_with(seeds: Vec<u64>, resolution: f64, cfg: Config) -> Result<f64, ConfigError> {
    let t = topo(1, 2, 1, 3);
    let adv: Arc<dyn TrafficPattern> = Arc::new(Shift::new(&t, 1, 0));
    let r = runner(&t, &adv, RoutingAlgorithm::Min, cfg);
    r.saturation(&seeds, resolution)
        .map(|(values, _, _)| values[0])
}

fn saturation_at(resolution: f64) -> Result<f64, ConfigError> {
    saturation_with(vec![1], resolution, quick(RoutingAlgorithm::Min))
}

#[test]
fn saturation_rejects_zero_resolution() {
    assert_eq!(saturation_at(0.0), Err(ConfigError::BadResolution(0.0)));
}

#[test]
fn saturation_rejects_negative_resolution() {
    assert_eq!(saturation_at(-0.02), Err(ConfigError::BadResolution(-0.02)));
}

#[test]
fn saturation_rejects_unit_resolution() {
    assert_eq!(saturation_at(1.0), Err(ConfigError::BadResolution(1.0)));
}

#[test]
fn saturation_rejects_nan_resolution() {
    assert!(matches!(
        saturation_at(f64::NAN),
        Err(ConfigError::BadResolution(r)) if r.is_nan()
    ));
}

#[test]
fn saturation_rejects_infinite_resolution() {
    assert_eq!(
        saturation_at(f64::INFINITY),
        Err(ConfigError::BadResolution(f64::INFINITY))
    );
}

#[test]
fn saturation_rejects_no_seeds() {
    let cfg = quick(RoutingAlgorithm::Min);
    assert_eq!(
        saturation_with(vec![], 0.02, cfg),
        Err(ConfigError::EmptySeeds)
    );
}

#[test]
fn saturation_rejects_duplicate_seeds() {
    let cfg = quick(RoutingAlgorithm::Min);
    assert_eq!(
        saturation_with(vec![4, 4], 0.02, cfg),
        Err(ConfigError::DuplicateSeed(4))
    );
}

#[test]
fn saturation_rejects_an_invalid_config() {
    let mut cfg = quick(RoutingAlgorithm::Min);
    cfg.window = 0;
    assert_eq!(
        saturation_with(vec![1], 0.02, cfg),
        Err(ConfigError::ZeroWindow)
    );
}

/// The runner's latency curve of MIN under uniform traffic over
/// dfly(1,2,1,3), or its rejection.
fn curve_with(rates: &[f64], seeds: Vec<u64>, cfg: Config) -> Result<(), ConfigError> {
    let t = topo(1, 2, 1, 3);
    let pattern: Arc<dyn TrafficPattern> = Arc::new(Uniform::new(&t));
    let r = runner(&t, &pattern, RoutingAlgorithm::Min, cfg);
    r.run_recorded(rates, &seeds, |_| NoopObserver).map(drop)
}

#[test]
fn latency_curve_rejects_no_seeds() {
    let cfg = quick(RoutingAlgorithm::Min);
    assert_eq!(
        curve_with(&[0.1], vec![], cfg),
        Err(ConfigError::EmptySeeds)
    );
}

#[test]
fn latency_curve_rejects_no_rates() {
    let cfg = quick(RoutingAlgorithm::Min);
    assert_eq!(curve_with(&[], vec![1], cfg), Err(ConfigError::EmptyRates));
}

#[test]
fn latency_curve_rejects_a_rate_above_one() {
    let cfg = quick(RoutingAlgorithm::Min);
    assert_eq!(
        curve_with(&[0.1, 1.5], vec![1], cfg),
        Err(ConfigError::BadRate(1.5))
    );
}

#[test]
fn latency_curve_rejects_an_invalid_config() {
    let mut cfg = quick(RoutingAlgorithm::Min);
    cfg.buf_size = 0;
    assert_eq!(
        curve_with(&[0.1], vec![1], cfg),
        Err(ConfigError::NoBufferSpace)
    );
}
