//! The 4096-PM point: one 64×64 mesh at the CLI's workload defaults
//! (R=1.0, C=0.04, T=4) with 64-byte lines, seeded by the run seed, and
//! kernel threads left at the program default — the only system here
//! where construction (`Mmrp::new`'s O(N²) access regions, the mesh
//! route table) and per-node memory dominate.
//!
//! It is measured only in the traced run of `paper-figures`, as
//! unbounded per-layer metrics. Its tables overflow the core's private
//! caches, so its host time follows the shared L3 cache's load from
//! other tenants: on a 2-core share of a host, ten runs of the same
//! code spread by 27–30% (first to third quartile over the median),
//! past the 25% bound of the benchmark's host-time metrics.

use std::time::Instant;

use ringmesh::analytic::mesh_zero_load_latency;
use ringmesh::{NetworkSpec, RunResult, SimParams, System, SystemConfig};
use ringmesh_net::CacheLineSize;
use ringmesh_workload::WorkloadParams;

use crate::ledger::Ledger;
use crate::report::{metric, Checks, Metric};

const SIDE: u32 = 64;

/// The ledger metrics reported for the 4096-PM point: ledger name,
/// reported name, unit.
const LAYERS: [(&str, &str, &str); 7] = [
    ("workload.build_s", "mesh4k.workload_build_s", "s"),
    (
        "workload.build_rss_mb",
        "mesh4k.workload_build_rss_mb",
        "MB",
    ),
    ("net.build_s", "mesh4k.net_build_s", "s"),
    ("net.build_rss_mb", "mesh4k.net_build_rss_mb", "MB"),
    ("mesh.step_ns", "mesh4k.step_ns", "ns"),
    ("workload.pre_cycle_ns", "mesh4k.pre_cycle_ns", "ns"),
    ("workload.post_cycle_ns", "mesh4k.post_cycle_ns", "ns"),
];

fn config(seed: u64) -> SystemConfig {
    SystemConfig::new(NetworkSpec::mesh(SIDE), CacheLineSize::B64)
        .with_workload(WorkloadParams::paper_baseline())
        .with_sim(SimParams {
            warmup: 500,
            batch_cycles: 500,
            batches: 4,
        })
        .with_seed(seed)
}

/// Checks that hold for any seed: a finished measurement whose mean
/// latency is no lower than the analytic zero-load round trip.
fn check_plausible(checks: &mut Checks, cfg: &SystemConfig, r: &RunResult, floor: f64) {
    checks.expect(r.latency.n == cfg.sim.batches, || {
        format!(
            "4096-PM point: {} of {} batches measured",
            r.latency.n, cfg.sim.batches
        )
    });
    checks.expect(r.mean_latency() >= floor, || {
        format!(
            "4096-PM point: mean latency {} below the zero-load bound {floor}",
            r.mean_latency()
        )
    });
}

fn zero_load(cfg: &SystemConfig) -> f64 {
    mesh_zero_load_latency(SIDE, cfg.cache_line, &cfg.workload, cfg.memory.latency)
}

/// Replays the point through the ledger and once untraced; checks that
/// both give the same result and that it is plausible, and returns the
/// point's per-layer metrics.
///
/// # Errors
///
/// Propagates invalid configurations and watchdog stalls.
pub fn trace(seed: u64, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let cfg = config(seed);
    let mut ledger = Ledger::default();
    let traced = ledger.replay(&cfg).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let plain = System::new(cfg.clone())
        .and_then(System::run)
        .map_err(|e| e.to_string())?;
    let untraced_s = t.elapsed().as_secs_f64();
    checks.same_fingerprint(
        "4096-PM traced loop",
        plain.fingerprint(),
        traced.fingerprint(),
    );
    check_plausible(checks, &cfg, &plain, zero_load(&cfg));
    let measured = ledger.metrics(untraced_s);
    Ok(LAYERS
        .iter()
        .map(|&(from, name, unit)| {
            let m = measured
                .iter()
                .find(|m| m.name == from)
                .expect("the ledger reports every layer");
            metric(name, m.value, unit)
        })
        .collect())
}

/// The point's metrics for a traced run that does not replay it.
pub fn idle_metrics() -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(_, name, unit)| metric(name, 0.0, unit))
        .collect()
}
