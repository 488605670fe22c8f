//! Criterion micro-benchmarks of the substrates: topology construction,
//! path enumeration, path-table builds, pair statistics and LP solves.
//!
//! These guard the performance assumptions the experiment harnesses rely
//! on (e.g. "a Step-1 LP solves in well under a second").

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use tugal_lp::{LinearProgram, Relation};
use tugal_model::{modeled_throughput, ModelVariant, PairStats};
use tugal_routing::{all_vlb_paths, min_paths, PathProvider, PathTable, TableProvider, VlbRule};
use tugal_topology::{Dragonfly, DragonflyParams, SwitchId};
use tugal_traffic::{Shift, TrafficPattern};

fn topology_construction(c: &mut Criterion) {
    c.bench_function("topology/build dfly(4,8,4,9)", |b| {
        b.iter(|| Dragonfly::new(black_box(DragonflyParams::new(4, 8, 4, 9))).unwrap())
    });
    c.bench_function("topology/build dfly(13,26,13,27)", |b| {
        b.iter(|| Dragonfly::new(black_box(DragonflyParams::new(13, 26, 13, 27))).unwrap())
    });
}

fn path_enumeration(c: &mut Criterion) {
    let t9 = Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap();
    let t33 = Dragonfly::new(DragonflyParams::new(4, 8, 4, 33)).unwrap();
    c.bench_function("paths/min dfly(4,8,4,9)", |b| {
        b.iter(|| min_paths(&t9, black_box(SwitchId(0)), black_box(SwitchId(9))))
    });
    c.bench_function("paths/all_vlb dfly(4,8,4,9)", |b| {
        b.iter(|| all_vlb_paths(&t9, black_box(SwitchId(0)), black_box(SwitchId(9))))
    });
    c.bench_function("paths/all_vlb dfly(4,8,4,33)", |b| {
        b.iter(|| all_vlb_paths(&t33, black_box(SwitchId(0)), black_box(SwitchId(9))))
    });
}

fn table_builds(c: &mut Criterion) {
    let t = Dragonfly::new(DragonflyParams::new(2, 4, 2, 9)).unwrap();
    c.bench_function("table/build_all dfly(2,4,2,9)", |b| {
        b.iter(|| PathTable::build_all(black_box(&t)))
    });
    let t9 = Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap();
    c.bench_function("table/build_all dfly(4,8,4,9)", |b| {
        b.iter(|| PathTable::build_all(black_box(&t9)))
    });
    c.bench_function(
        "table/build_with_rule ClassLimit{4,0.6} dfly(4,8,4,9)",
        |b| {
            b.iter(|| {
                PathTable::build_with_rule(
                    black_box(&t9),
                    VlbRule::ClassLimit {
                        max_hops: 4,
                        frac_next: 0.6,
                    },
                    7,
                )
            })
        },
    );
    let full = PathTable::build_all(&t);
    c.bench_function("table/apply_rule 50% 5-hop", |b| {
        b.iter_batched(
            || full.clone(),
            |mut table| {
                table.apply_rule(
                    VlbRule::ClassLimit {
                        max_hops: 4,
                        frac_next: 0.5,
                    },
                    7,
                );
                table
            },
            BatchSize::LargeInput,
        )
    });
}

/// One million VLB draws from the all-paths table of dfly(4,8,4,9), each
/// for a random pair of distinct switches: the per-packet cost of a
/// table-backed UGAL decision's VLB candidate.  The pairs are independent,
/// so the CPU overlaps one draw's cache misses with the next; the chained
/// benches below measure the latency a routing decision pays.
fn provider_draws(c: &mut Criterion) {
    let t9 = Arc::new(Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap());
    let n = t9.num_switches() as u32;
    let all = TableProvider::all_paths(t9.clone());
    c.bench_function("provider/sample_vlb dfly(4,8,4,9)", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(0x5A3F);
            let mut hops = 0usize;
            for _ in 0..1_000_000 {
                let s = rng.gen_range(0..n);
                let d = (s + 1 + rng.gen_range(0..n - 1)) % n;
                hops += all.sample_vlb(SwitchId(s), SwitchId(d), &mut rng).hops();
            }
            black_box(hops)
        })
    });
    let rule = VlbRule::ClassLimit {
        max_hops: 4,
        frac_next: 0.6,
    };
    let limited = TableProvider::new(t9.clone(), PathTable::build_with_rule(&t9, rule, 7));
    for (name, provider) in [("all", &all), ("ClassLimit{4,0.6}", &limited)] {
        c.bench_function(
            format!("provider/chained min+vlb {name} dfly(4,8,4,9)"),
            |b| b.iter(|| black_box(chained_draws(provider, n))),
        );
    }
}

/// One million MIN+VLB draw pairs, each for a pair of distinct switches
/// derived from the previous pair's candidates: no draw can start before
/// the one it depends on has loaded its code.
fn chained_draws(provider: &TableProvider, n: u32) -> u32 {
    let mut rng = SmallRng::seed_from_u64(0x5A3F);
    let mut link = 0u32;
    for _ in 0..1_000_000 {
        let s = (link + rng.gen_range(0..n)) % n;
        let d = (s + 1 + rng.gen_range(0..n - 1)) % n;
        let (s, d) = (SwitchId(s), SwitchId(d));
        let min = provider.sample_min(s, d, &mut rng);
        let vlb = provider.sample_vlb(s, d, &mut rng);
        link = min.switches().chain(vlb.switches()).map(|sw| sw.0).sum();
    }
    link
}

fn pair_stats(c: &mut Criterion) {
    let t9 = Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap();
    let t27 = Dragonfly::new(DragonflyParams::new(13, 26, 13, 27)).unwrap();
    c.bench_function("model/pair_stats dfly(4,8,4,9)", |b| {
        b.iter(|| PairStats::compute(&t9, black_box(SwitchId(0)), black_box(SwitchId(9))))
    });
    c.bench_function("model/pair_stats dfly(13,26,13,27)", |b| {
        b.iter(|| PairStats::compute(&t27, black_box(SwitchId(0)), black_box(SwitchId(40))))
    });
}

fn lp_solves(c: &mut Criterion) {
    c.bench_function("lp/simplex 30x60 dense", |b| {
        b.iter(|| {
            let mut lp = LinearProgram::new();
            let mut state = 0x9E3779B97F4A7C15u64;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64) / (u32::MAX as f64)
            };
            let vars: Vec<_> = (0..30).map(|_| lp.add_var(next())).collect();
            for _ in 0..60 {
                let terms: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
                lp.add_constraint(&terms, Relation::Le, 1.0 + next());
            }
            lp.solve().unwrap()
        })
    });
    let t = Dragonfly::new(DragonflyParams::new(4, 8, 4, 9)).unwrap();
    let demands = Shift::new(&t, 2, 0).demands().unwrap();
    c.bench_function("model/throughput shift(2,0) dfly(4,8,4,9) all-VLB", |b| {
        b.iter(|| {
            modeled_throughput(
                &t,
                black_box(&demands),
                VlbRule::All,
                ModelVariant::DrawProportional,
            )
            .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = topology_construction, path_enumeration, table_builds, provider_draws, pair_stats, lp_solves
}
criterion_main!(benches);
