//! `paper-figures`: every table, figure, ablation and crossover function
//! of `ringmesh::figures` and `ringmesh::ablations` at `Scale::quick()`,
//! on the default sweep pool — what a researcher reruns.
//!
//! The figure definitions fix their own seeds, so this workload takes
//! none: its output is checked against a golden digest.

use std::time::Instant;

use ringmesh::figures::{self, FigureData};
use ringmesh::{ablations, set_sweep_threads, NetworkSpec, Scale, System, SystemConfig};
use ringmesh_net::CacheLineSize;
use ringmesh_snap::Fingerprint;
use ringmesh_stats::{Series, Table};
use ringmesh_workload::WorkloadParams;

use crate::ledger::Ledger;
use crate::report::{
    median, metric, proc_status_mb, required_percentile, Checks, Metric, Outcome, Pacer,
};

/// Digest of one full pass at `Scale::quick()`, recorded from a run of
/// this code and checked on every pass.
const GOLDEN: &str = include_str!("../golden/paper-figures.txt");

/// One returned artifact of a figure function.
enum Artifact {
    Figure(FigureData),
    Table(Table),
    Series(Vec<Series>),
}

type Call = fn(Scale) -> Vec<Artifact>;

/// Every figure function: name, whether it simulates, and the call.
const CALLS: &[(&str, bool, Call)] = &[
    ("table1", false, |_| {
        vec![Artifact::Table(figures::table1())]
    }),
    ("table2", false, |_| {
        vec![Artifact::Table(figures::table2_overview())]
    }),
    ("fig06", true, |s| vec![Artifact::Figure(figures::fig06(s))]),
    ("fig07_08", true, |s| pair(figures::fig07_08(s))),
    ("fig09_10", true, |s| pair(figures::fig09_10(s))),
    ("fig11", true, |s| vec![Artifact::Figure(figures::fig11(s))]),
    ("fig12_13", true, |s| pair(figures::fig12_13(s))),
    ("fig14", true, |s| vec![Artifact::Figure(figures::fig14(s))]),
    ("fig15", true, |s| vec![Artifact::Figure(figures::fig15(s))]),
    ("fig16", true, |s| vec![Artifact::Figure(figures::fig16(s))]),
    ("fig17", true, |s| vec![Artifact::Figure(figures::fig17(s))]),
    ("fig18", true, |s| vec![Artifact::Figure(figures::fig18(s))]),
    ("fig19_20", true, |s| pair(figures::fig19_20(s))),
    ("fig21", true, |s| vec![Artifact::Figure(figures::fig21(s))]),
    ("crossover", true, |s| {
        vec![Artifact::Figure(figures::fig_crossover(s))]
    }),
    ("ablation_iri_queue", true, |s| {
        vec![Artifact::Table(ablations::ablation_iri_queue(s))]
    }),
    ("ablation_memory_latency", true, |s| {
        vec![Artifact::Table(ablations::ablation_memory_latency(s))]
    }),
    ("ablation_miss_process", true, |s| {
        vec![Artifact::Series(ablations::ablation_miss_process(s))]
    }),
    ("ablation_mesh_out_queue", true, |s| {
        vec![Artifact::Table(ablations::ablation_mesh_out_queue(s))]
    }),
];

fn pair((a, b): (FigureData, FigureData)) -> Vec<Artifact> {
    vec![Artifact::Figure(a), Artifact::Figure(b)]
}

fn digest_series(fp: &mut Fingerprint, series: &[Series]) -> u64 {
    let mut points = 0;
    for s in series {
        fp.write_str(&s.label);
        for &(x, y) in &s.points {
            fp.write_f64(x);
            fp.write_f64(y);
            points += 1;
        }
    }
    points
}

/// Folds every label, cell and raw point of `art` into `fp`; returns
/// the number of points and table rows it holds.
fn digest(fp: &mut Fingerprint, art: &Artifact) -> u64 {
    match art {
        Artifact::Figure(groups) => groups
            .iter()
            .map(|(title, series)| {
                fp.write_str(title);
                digest_series(fp, series)
            })
            .sum(),
        Artifact::Table(t) => {
            fp.write_str(&t.to_csv());
            t.rows.len() as u64
        }
        Artifact::Series(series) => digest_series(fp, series),
    }
}

/// The printed forms of `art`: what a researcher reads once the data
/// exists. Returns the text so the work cannot be optimised away.
fn render(art: &Artifact) -> usize {
    let tables: Vec<Table> = match art {
        Artifact::Figure(groups) => groups
            .iter()
            .map(|(title, series)| Table::from_series(title.clone(), "nodes", series))
            .collect(),
        Artifact::Table(t) => vec![t.clone()],
        Artifact::Series(series) => vec![Table::from_series("ablation", "x", series)],
    };
    tables
        .iter()
        .map(|t| t.to_string().len() + t.to_csv().len())
        .sum()
}

/// Hit-batch samples per run. A sample re-renders every artifact of a
/// pass `RENDERS_PER_SAMPLE` times after each pass, so, like the set-up
/// samples, it spans the run rather than one moment of host load.
const HIT_SAMPLES: usize = 110;
const RENDERS_PER_SAMPLE: usize = 4;

fn time_renders(arts: &[Artifact], samples: &mut [f64]) {
    for sample in samples {
        let t = Instant::now();
        for _ in 0..RENDERS_PER_SAMPLE {
            for art in arts {
                std::hint::black_box(render(std::hint::black_box(art)));
            }
        }
        *sample += t.elapsed().as_secs_f64();
    }
}

struct Pass {
    seconds: f64,
    digest: u64,
    points: u64,
    /// Host seconds of each simulating figure call.
    calls: Vec<f64>,
    crossover_s: f64,
    arts: Vec<Artifact>,
}

fn pass(scale: Scale) -> Pass {
    let mut fp = Fingerprint::new();
    let mut out = Pass {
        seconds: 0.0,
        digest: 0,
        points: 0,
        calls: Vec::new(),
        crossover_s: 0.0,
        arts: Vec::new(),
    };
    let start = Instant::now();
    for &(name, simulates, call) in CALLS {
        let t = Instant::now();
        let arts = std::hint::black_box(call(scale));
        let s = t.elapsed().as_secs_f64();
        if simulates {
            out.calls.push(s);
        }
        if name == "crossover" {
            out.crossover_s = s;
        }
        fp.write_str(name);
        for art in &arts {
            out.points += digest(&mut fp, art);
        }
        out.arts.extend(arts);
    }
    out.seconds = start.elapsed().as_secs_f64();
    out.digest = fp.finish();
    out
}

fn golden() -> Result<u64, String> {
    u64::from_str_radix(GOLDEN.trim(), 16).map_err(|e| format!("golden digest: {e}"))
}

/// The seed every figure definition uses.
const FIGURE_SEED: u64 = 0x1997_0201;

/// The crossover study's configurations, built exactly as
/// `figures::fig_crossover` builds them (pinned by a test).
fn crossover_configs(scale: Scale) -> Vec<SystemConfig> {
    let wl = WorkloadParams::paper_baseline()
        .with_region(1.0)
        .with_outstanding(4);
    figures::crossover_specs(scale)
        .into_iter()
        .flat_map(|(_, specs)| specs)
        .map(|(_, spec)| {
            let network: NetworkSpec = spec.parse().expect("registry spec");
            SystemConfig::new(network, CacheLineSize::B64)
                .with_workload(wl)
                .with_sim(scale.sim)
                .with_seed(FIGURE_SEED)
        })
        .collect()
}

/// Set-up before a pass's first sweep point: constructing the systems of
/// the crossover study. Each sample gathers `SETUP_ROUNDS` rounds before
/// every pass, so it spans the run rather than one moment of host load.
const SETUP_SAMPLES: usize = 21;
const SETUP_ROUNDS: usize = 40;

fn time_setup(cfgs: &[SystemConfig], samples: &mut [f64]) {
    for sample in samples {
        let t = Instant::now();
        for _ in 0..SETUP_ROUNDS {
            for cfg in cfgs {
                std::hint::black_box(System::new(cfg.clone()).expect("valid crossover config"));
            }
        }
        *sample += t.elapsed().as_secs_f64();
    }
}

/// Passes per run at least: enough simulating calls for a median with
/// ten samples beyond it.
const MIN_PASSES: usize = 2;

pub fn run(seconds: u64) -> Result<Outcome, String> {
    let mut pacer = Pacer::new(seconds, MIN_PASSES);
    let scale = Scale::quick();
    let golden = golden()?;
    let cfgs = crossover_configs(scale);
    let mut setups = [0.0; SETUP_SAMPLES];
    let mut renders = [0.0; HIT_SAMPLES];
    let mut checks = Checks::default();
    let mut passes = Vec::new();
    while pacer.more() {
        time_setup(&cfgs, &mut setups);
        let mut p = pass(scale);
        time_renders(&p.arts, &mut renders);
        p.arts.clear();
        passes.push(p);
    }
    let setup = median(&setups) / (SETUP_ROUNDS * passes.len()) as f64;
    let renders_ms: Vec<f64> = renders
        .iter()
        .map(|s| 1e3 * s / passes.len() as f64)
        .collect();
    for (i, p) in passes.iter().enumerate() {
        checks.same_fingerprint(&format!("paper-figures pass {i} digest"), golden, p.digest);
    }
    let wall = median(&passes.iter().map(|p| p.seconds).collect::<Vec<_>>());
    let crossover_s = median(&passes.iter().map(|p| p.crossover_s).collect::<Vec<_>>());
    let crossover_cycles: u64 = cfgs.iter().map(|c| c.sim.horizon()).sum();
    let calls: Vec<f64> = passes.iter().flat_map(|p| p.calls.clone()).collect();
    let points = passes[0].points as f64;
    let attempted = (passes.len() * CALLS.len()) as u64;
    let metrics = vec![
        metric("setup_s", setup, "s"),
        metric(
            "peak_rss_mb",
            proc_status_mb(None, "VmHWM").ok_or("no /proc/self/status")?,
            "MB",
        ),
        metric("wall_s", wall, "s"),
        metric("points_per_s", points / wall, "1/s"),
        metric(
            "sim_cycles_per_s",
            crossover_cycles as f64 / crossover_s,
            "1/s",
        ),
        metric(
            "hit_batch_p50_ms",
            required_percentile("hit batches", &renders_ms, 0.5)?,
            "ms",
        ),
        metric(
            "miss_batch_p50_ms",
            1e3 * required_percentile("miss batches", &calls, 0.5)?,
            "ms",
        ),
        metric("jobs_per_s", CALLS.len() as f64 / wall, "1/s"),
    ];
    eprintln!(
        "paper-figures: {} passes, {} figure calls, {HIT_SAMPLES} render batches; seeds are fixed by the figure definitions",
        passes.len(),
        calls.len()
    );
    Ok(Outcome {
        correct: checks.passed(),
        attempted,
        failed: 0,
        metrics,
    })
}

/// The traced run also replays the 4096-PM point seeded by `seed`.
pub fn trace(seed: u64) -> Result<Outcome, String> {
    let scale = Scale::quick();
    let golden = golden()?;
    let mut checks = Checks::default();
    let mut ledger = Ledger::default();
    let mut untraced_s = 0.0;
    let cfgs = crossover_configs(scale);
    for cfg in &cfgs {
        let traced = ledger.replay(cfg).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let plain = System::new(cfg.clone())
            .and_then(System::run)
            .map_err(|e| e.to_string())?;
        untraced_s += t.elapsed().as_secs_f64();
        checks.same_fingerprint(
            &format!("traced {}", cfg.network.label()),
            plain.fingerprint(),
            traced.fingerprint(),
        );
    }

    set_sweep_threads(1);
    let serial = pass(scale);
    set_sweep_threads(0);
    let pooled = pass(scale);
    checks.same_fingerprint("serial pass digest", golden, serial.digest);
    checks.same_fingerprint("pooled pass digest", golden, pooled.digest);

    let mut metrics: Vec<Metric> = ledger.metrics(untraced_s);
    metrics.extend([
        metric("engine.sweep_serial_s", serial.seconds, "s"),
        metric(
            "engine.sweep_speedup",
            serial.seconds / pooled.seconds,
            "ratio",
        ),
    ]);
    metrics.extend(crate::serve::idle_metrics());
    metrics.extend(crate::mesh::trace(seed, &mut checks)?);
    Ok(Outcome {
        correct: checks.passed(),
        attempted: (cfgs.len() + 2 * CALLS.len() + 1) as u64,
        failed: 0,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_one_flipped_bit() {
        let mut s = Series::new("Ring");
        s.push(16.0, 100.0);
        let a = Artifact::Figure(vec![("t".into(), vec![s.clone()])]);
        s.points[0].1 = f64::from_bits(100f64.to_bits() ^ 1);
        let b = Artifact::Figure(vec![("t".into(), vec![s])]);
        let (mut fa, mut fb) = (Fingerprint::new(), Fingerprint::new());
        assert_eq!(digest(&mut fa, &a), 1);
        digest(&mut fb, &b);
        assert_ne!(fa.finish(), fb.finish());
    }

    #[test]
    fn golden_digest_parses() {
        golden().unwrap();
    }

    #[test]
    fn crossover_configs_cover_every_topology() {
        let cfgs = crossover_configs(Scale::quick());
        for kind in ["ring", "slotted", "mesh", "hybrid"] {
            assert!(
                cfgs.iter().any(|c| c.network.to_string().starts_with(kind)),
                "{kind}"
            );
        }
    }

    #[test]
    fn crossover_configs_reproduce_the_figure() {
        let scale = Scale::quick();
        let figure = figures::fig_crossover(scale);
        let from_figure: Vec<u64> = figure[0]
            .1
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, y)| y.to_bits()))
            .collect();
        let replayed: Vec<u64> = crossover_configs(scale)
            .into_iter()
            .map(|c| {
                System::new(c)
                    .unwrap()
                    .run()
                    .unwrap()
                    .mean_latency()
                    .to_bits()
            })
            .collect();
        assert_eq!(from_figure, replayed);
    }

    #[test]
    fn enough_passes_for_the_median() {
        let per_pass = CALLS.iter().filter(|c| c.1).count();
        assert!(MIN_PASSES * per_pass >= 2 * crate::report::MIN_BEYOND);
    }
}
