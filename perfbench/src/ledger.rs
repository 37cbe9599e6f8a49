//! The traced replay: `System::new` + `System::run_to` rebuilt from the
//! public calls they make, with a host-time stamp around each call.
//!
//! The replay must reproduce `System::run` bit for bit; every workload
//! checks its `RunResult::fingerprint` against an untraced run of the
//! same configuration.

use std::time::Instant;

use ringmesh::{effective_kernel_threads, NetworkSpec, RunError, RunResult, SystemConfig};
use ringmesh_engine::Watchdog;
use ringmesh_net::{NodeId, Packet};
use ringmesh_stats::{BatchMeans, Histogram};
use ringmesh_workload::{Mmrp, PacketSizer};

use crate::report::{metric, rss_mb, Metric};

/// Index of the topology family in [`Ledger::step`].
fn kind_of(spec: &NetworkSpec) -> usize {
    match spec {
        NetworkSpec::Ring { .. } => 0,
        NetworkSpec::SlottedRing { .. } => 1,
        NetworkSpec::Mesh { .. } => 2,
        NetworkSpec::Hybrid { .. } => 3,
    }
}

/// Host time per layer, summed over every replayed system.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    workload_build_s: f64,
    workload_build_rss_mb: f64,
    net_build_s: f64,
    net_build_rss_mb: f64,
    /// `(step seconds, cycles)` per topology family.
    step: [(f64, u64); 4],
    pre_s: f64,
    post_s: f64,
    record_s: f64,
    cycles: u64,
    issued: u64,
    retired: u64,
    delivered: u64,
    kernel_threads: usize,
    /// Host time of whole replays: construction plus the loop.
    pub total_s: f64,
}

impl Ledger {
    /// Builds and runs `cfg` like `System::new(cfg)?.run()`, charging
    /// each public call to its layer.
    ///
    /// # Errors
    ///
    /// Propagates invalid configurations and watchdog stalls.
    pub fn replay(&mut self, cfg: &SystemConfig) -> Result<RunResult, RunError> {
        let start = Instant::now();
        cfg.validate()?;
        let builder = cfg.network.builder();

        let rss = rss_mb();
        let t = Instant::now();
        let mut net = builder.build(cfg.cache_line)?;
        self.net_build_s += t.elapsed().as_secs_f64();
        self.net_build_rss_mb += rss_mb() - rss;

        let sizer = PacketSizer {
            format: builder.format(),
            cache_line: cfg.cache_line,
        };
        let rss = rss_mb();
        let t = Instant::now();
        let mut workload = Mmrp::new(
            builder.placement(),
            cfg.workload,
            cfg.memory,
            sizer,
            cfg.seed,
        );
        self.workload_build_s += t.elapsed().as_secs_f64();
        self.workload_build_rss_mb += rss_mb() - rss;
        net.set_kernel_threads(effective_kernel_threads());
        self.kernel_threads = self.kernel_threads.max(net.kernel_threads());

        let sim = cfg.sim;
        let mut latency = BatchMeans::new(sim.warmup, sim.batch_cycles, sim.batches);
        let mut histogram = Histogram::new();
        let mut dog = Watchdog::new((sim.horizon() / 4).max(2_000));
        let mut prev_activity = 0u64;
        let mut delivered: Vec<(NodeId, Packet)> = Vec::new();
        let mut samples: Vec<(u64, f64)> = Vec::new();
        let kind = kind_of(&cfg.network);
        let net = net.as_mut();
        while !latency.is_complete(net.cycle()) {
            let now = net.cycle();
            if now == sim.warmup {
                net.reset_counters();
            }
            samples.clear();
            let t0 = Instant::now();
            workload.pre_cycle(net, now, &mut samples);
            delivered.clear();
            let t1 = Instant::now();
            net.step(&mut delivered)?;
            let t2 = Instant::now();
            workload.post_cycle(net, &delivered, now, &mut samples);
            let t3 = Instant::now();
            if !samples.is_empty() {
                for &(t, v) in &samples {
                    latency.record(t, v);
                    if t >= sim.warmup {
                        histogram.record(v);
                    }
                }
                self.record_s += t3.elapsed().as_secs_f64();
            }
            self.pre_s += (t1 - t0).as_secs_f64();
            self.step[kind].0 += (t2 - t1).as_secs_f64();
            self.post_s += (t3 - t2).as_secs_f64();
            self.step[kind].1 += 1;
            self.cycles += 1;
            self.delivered += delivered.len() as u64;

            let r = workload.retry_stats();
            let activity = r.timeouts + r.retries + r.gave_up;
            let progress = samples.len() as u64 + (activity - prev_activity);
            prev_activity = activity;
            dog.observe(now, progress, workload.outstanding());
            dog.check(now)?;
        }
        let result = RunResult {
            latency: latency.summary(),
            percentiles: histogram.p50_p95_p99(),
            throughput: latency.rate_per_cycle(),
            utilization: net.utilization(),
            workload: workload.stats(),
            pms: cfg.network.num_pms(),
        };
        self.issued += result.workload.issued;
        self.retired += result.workload.retired;
        self.total_s += start.elapsed().as_secs_f64();
        Ok(result)
    }

    /// The per-layer metrics. `untraced_s` is the host time the same
    /// systems took through `System::new` + `System::run`.
    pub fn metrics(&self, untraced_s: f64) -> Vec<Metric> {
        let per_cycle_ns = |s: f64, cycles: u64| {
            if cycles == 0 {
                0.0
            } else {
                s * 1e9 / cycles as f64
            }
        };
        let step_names = [
            "ring.step_ns",
            "slotted.step_ns",
            "mesh.step_ns",
            "hybrid.step_ns",
        ];
        let mut out = vec![
            metric("workload.build_s", self.workload_build_s, "s"),
            metric("workload.build_rss_mb", self.workload_build_rss_mb, "MB"),
            metric("net.build_s", self.net_build_s, "s"),
            metric("net.build_rss_mb", self.net_build_rss_mb, "MB"),
        ];
        for (name, &(s, cycles)) in step_names.iter().zip(&self.step) {
            out.push(metric(name, per_cycle_ns(s, cycles), "ns"));
        }
        out.extend([
            metric(
                "workload.pre_cycle_ns",
                per_cycle_ns(self.pre_s, self.cycles),
                "ns",
            ),
            metric(
                "workload.post_cycle_ns",
                per_cycle_ns(self.post_s, self.cycles),
                "ns",
            ),
            metric(
                "stats.record_ns",
                per_cycle_ns(self.record_s, self.cycles),
                "ns",
            ),
            metric("workload.issued", self.issued as f64, "count"),
            metric("workload.retired", self.retired as f64, "count"),
            metric(
                "workload.retire_ratio",
                self.retired as f64 / self.issued.max(1) as f64,
                "ratio",
            ),
            metric("net.delivered_packets", self.delivered as f64, "count"),
            metric("engine.kernel_threads", self.kernel_threads as f64, "count"),
            metric(
                "trace.overhead_frac",
                self.total_s / untraced_s - 1.0,
                "ratio",
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh::{SimParams, System};
    use ringmesh_net::CacheLineSize;

    use crate::report::Checks;

    fn small(spec: &str) -> SystemConfig {
        SystemConfig::new(spec.parse().unwrap(), CacheLineSize::B64)
            .with_sim(SimParams {
                warmup: 300,
                batch_cycles: 300,
                batches: 3,
            })
            .with_seed(11)
    }

    #[test]
    fn replay_matches_system_run_on_every_topology() {
        let mut ledger = Ledger::default();
        for spec in ["ring:2:4", "slotted:2:4", "mesh:3", "hybrid:2x2:4"] {
            let cfg = small(spec);
            let traced = ledger.replay(&cfg).unwrap();
            let plain = System::new(cfg).unwrap().run().unwrap();
            assert_eq!(traced.fingerprint(), plain.fingerprint(), "{spec}");
        }
        assert_eq!(ledger.cycles, 4 * 1_200);
        assert!(ledger.step.iter().all(|&(s, c)| s > 0.0 && c == 1_200));
        let m = ledger.metrics(ledger.total_s);
        assert!(m.iter().any(|m| m.name == "mesh.step_ns" && m.value > 0.0));
    }

    #[test]
    fn fingerprint_check_rejects_a_perturbed_result() {
        let cfg = small("mesh:3");
        let good = Ledger::default().replay(&cfg).unwrap();
        let mut bad = good.clone();
        bad.latency.mean = f64::from_bits(bad.latency.mean.to_bits() + 1);
        let mut checks = Checks::default();
        checks.same_fingerprint("unchanged", good.fingerprint(), good.clone().fingerprint());
        assert!(checks.passed());
        checks.same_fingerprint("one ulp", good.fingerprint(), bad.fingerprint());
        assert!(!checks.passed());
    }
}
