//! `tugal-cli` — command-line front end of the T-UGAL reproduction suite.
//!
//! ```text
//! tugal-cli info     -t 4,8,4,9
//! tugal-cli paths    -t 4,8,4,9 --from 0 --to 9
//! tugal-cli model    -t 4,8,4,9 --pattern shift:2,0 [--rule 4+60%]
//! tugal-cli tvlb     -t 2,4,2,3 [--out tvlb.bin]
//! tugal-cli simulate -t 4,8,4,9 --pattern shift:2,0 --routing ugal-l \
//!                [--rate 0.1] [--rule all|4+60%|tvlb.bin] [--full]
//! ```
//!
//! Subcommands mirror the library layers: `info` (topology), `paths`
//! (MIN/VLB enumeration), `model` (LP throughput + bottlenecks), `tvlb`
//! (Algorithm 1, optionally persisting the table), `simulate`
//! (cycle-accurate run).

use std::process::ExitCode;
use std::sync::Arc;
use tugal_suite::cli::{parse_pattern, parse_routing, parse_rule, parse_topology};
use tugal_suite::model::{modeled_bottlenecks, modeled_throughput, ModelVariant};
use tugal_suite::netsim::{Config, Simulator};
use tugal_suite::routing::{
    all_vlb_paths, min_paths, PathProvider, PathTable, RuleProvider, TableProvider,
};
use tugal_suite::topology::{ChannelKind, Dragonfly, DragonflyParams, SwitchId};
use tugal_suite::tugal::{compute_tvlb, TUgalConfig};

fn usage() -> &'static str {
    "usage: tugal-cli <info|paths|model|tvlb|simulate> -t p,a,h,g [options]\n\
     options:\n\
       -t, --topology p,a,h,g     Dragonfly parameters (required)\n\
       --pattern NAME             uniform | shift:DG,DS | tornado | perm:SEED\n\
                                  | type2:SEED | mixed:UR%,DG | tmixed:UR%,DG\n\
       --routing NAME             min | vlb | ugal-l | ugal-g | par\n\
       --rule RULE                all | H (hop limit) | H+P% | strategic:2|3\n\
       --rate R                   offered load, packets/cycle/node (default 0.1)\n\
       --from S --to D            switch ids for `paths`\n\
       --out FILE                 write the computed T-VLB table (tvlb)\n\
       --seed N                   RNG seed (default 1)\n\
       --full                     paper-scale windows instead of quick mode"
}

struct Args {
    topo: Option<DragonflyParams>,
    pattern: String,
    routing: String,
    rule: String,
    rate: f64,
    from: u32,
    to: u32,
    out: Option<String>,
    seed: u64,
    full: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), String> {
    let cmd = argv.next().ok_or_else(|| usage().to_string())?;
    let mut args = Args {
        topo: None,
        pattern: "uniform".into(),
        routing: "ugal-l".into(),
        rule: "all".into(),
        rate: 0.1,
        from: 0,
        to: 1,
        out: None,
        seed: 1,
        full: false,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "-t" | "--topology" => {
                args.topo = Some(parse_topology(&value(&flag)?)?);
            }
            "--pattern" => args.pattern = value(&flag)?,
            "--routing" => args.routing = value(&flag)?,
            "--rule" => args.rule = value(&flag)?,
            "--rate" => {
                args.rate = value(&flag)?
                    .parse()
                    .map_err(|e| format!("bad rate: {e}"))?
            }
            "--from" => {
                args.from = value(&flag)?
                    .parse()
                    .map_err(|e| format!("bad --from: {e}"))?
            }
            "--to" => {
                args.to = value(&flag)?
                    .parse()
                    .map_err(|e| format!("bad --to: {e}"))?
            }
            "--out" => args.out = Some(value(&flag)?),
            "--seed" => {
                args.seed = value(&flag)?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--full" => args.full = true,
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok((cmd, args))
}

/// Provider from `--rule`: a rule string, or a file written by `tvlb --out`.
fn provider_from_rule(rule: &str, topo: &Arc<Dragonfly>) -> Result<Arc<dyn PathProvider>, String> {
    if std::path::Path::new(rule).exists() {
        let bytes = std::fs::read(rule).map_err(|e| format!("reading {rule}: {e}"))?;
        let table = PathTable::from_bytes(topo, &bytes)
            .ok_or_else(|| format!("{rule}: not a T-VLB table for {}", topo.params()))?;
        return Ok(Arc::new(TableProvider::new(topo.clone(), table)));
    }
    let rule = parse_rule(rule)?;
    Ok(Arc::new(RuleProvider::new(topo.clone(), rule)))
}

fn run(cmd: &str, args: Args) -> Result<(), String> {
    let params = args.topo.ok_or("missing -t p,a,h,g")?;
    params.validate().map_err(|e| e.to_string())?;
    let topo = Arc::new(Dragonfly::new(params).map_err(|e| e.to_string())?);
    match cmd {
        "info" => {
            println!("{params}");
            println!("  switches            {}", topo.num_switches());
            println!("  compute nodes       {}", topo.num_nodes());
            println!("  groups              {}", topo.num_groups());
            println!("  switch radix        {}", params.switch_radix());
            println!("  links/group pair    {}", topo.links_per_group_pair());
            println!("  balanced (a=2p=2h)  {}", params.is_balanced());
            let locals = topo
                .channels()
                .iter()
                .filter(|c| c.kind == ChannelKind::Local)
                .count();
            let globals = topo
                .channels()
                .iter()
                .filter(|c| c.kind == ChannelKind::Global)
                .count();
            println!("  directed channels   {locals} local + {globals} global");
            Ok(())
        }
        "paths" => {
            let (s, d) = (SwitchId(args.from), SwitchId(args.to));
            if args.from as usize >= topo.num_switches() || args.to as usize >= topo.num_switches()
            {
                return Err("switch id out of range".into());
            }
            let min = min_paths(&topo, s, d);
            println!("MIN paths {s} -> {d} ({}):", min.len());
            for p in &min {
                println!("  {p:?}");
            }
            let vlb = all_vlb_paths(&topo, s, d);
            let mut by_len = [0usize; 8];
            for p in &vlb {
                by_len[p.hops()] += 1;
            }
            println!("VLB paths: {} total", vlb.len());
            for (h, n) in by_len.iter().enumerate() {
                if *n > 0 {
                    println!("  {h}-hop: {n}");
                }
            }
            Ok(())
        }
        "model" => {
            let pattern = parse_pattern(&args.pattern, &topo)?;
            let demands = pattern
                .demands()
                .ok_or("pattern is randomized; the model needs a deterministic pattern")?;
            let rule = parse_rule(&args.rule)?;
            let theta = modeled_throughput(&topo, &demands, rule, ModelVariant::DrawProportional)
                .map_err(|e| e.to_string())?;
            println!(
                "modeled throughput of {} under {rule}: {theta:.4} packets/cycle/node",
                pattern.name()
            );
            let (_, hot) = modeled_bottlenecks(&topo, &demands, rule).map_err(|e| e.to_string())?;
            println!("binding links: {}", hot.len());
            for (c, price) in hot.iter().take(5) {
                let ch = topo.channel(*c);
                println!("  {:?} -> {:?}  dθ/dcap = {price:.4}", ch.src, ch.dst);
            }
            Ok(())
        }
        "tvlb" => {
            let cfg = if args.full {
                TUgalConfig::default()
            } else {
                TUgalConfig::quick()
            };
            let result = compute_tvlb(topo.clone(), &cfg);
            println!("chosen: {}", result.chosen);
            println!(
                "mean VLB hops: {:.3} (all paths: {:.3})",
                result.report.mean_hops_tvlb, result.report.mean_hops_all
            );
            for s in &result.report.scores {
                println!(
                    "  candidate {:>18}: saturation {:.3}, mean VLB hops {:.2}",
                    s.rule.to_string(),
                    s.throughput,
                    s.mean_vlb_hops
                );
            }
            if let Some(out) = args.out {
                // Re-materialize the chosen rule as an explicit table for
                // shipping (Algorithm 1's provider may be rule-based on
                // huge networks, where no table fits).
                if topo.num_switches() > 300 {
                    return Err("table export supported for <=300 switches".into());
                }
                let mut table = PathTable::build_with_rule(&topo, result.chosen, cfg.seed);
                if !result.chosen.is_all() {
                    tugal_suite::tugal::balance::adjust(&mut table, &topo, &cfg.balance);
                }
                std::fs::write(&out, table.to_bytes())
                    .map_err(|e| format!("writing {out}: {e}"))?;
                println!("T-VLB table written to {out}");
            }
            Ok(())
        }
        "simulate" => {
            let pattern = parse_pattern(&args.pattern, &topo)?;
            let routing = parse_routing(&args.routing)?;
            let provider = provider_from_rule(&args.rule, &topo)?;
            let mut cfg = if args.full {
                Config::paper_default()
            } else {
                Config::quick()
            }
            .for_routing(routing);
            cfg.seed = args.seed;
            let r = Simulator::new(topo, provider, pattern, routing, cfg).run(args.rate);
            println!("offered load      {:.3} packets/cycle/node", args.rate);
            println!("accepted          {:.3} packets/cycle/node", r.throughput);
            println!("avg latency       {:.1} cycles", r.avg_latency);
            println!(
                "p50 / p99 latency {:.0} / {:.0} cycles",
                r.latency_p50, r.latency_p99
            );
            println!("avg hops          {:.2}", r.avg_hops);
            println!("VLB fraction      {:.1}%", r.vlb_fraction * 100.0);
            println!(
                "link utilization  max {:.2}, mean global {:.2}, mean local {:.2}",
                r.max_channel_util, r.mean_global_util, r.mean_local_util
            );
            println!("saturated         {}", r.saturated);
            Ok(())
        }
        _ => Err(usage().to_string()),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok((cmd, args)) => match run(&cmd, args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
