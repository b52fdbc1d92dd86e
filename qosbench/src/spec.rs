//! The four benchmark workloads.

use flitnet::VcPartition;
use mediaworm::RouterConfig;
use topo::Topology;
use traffic::{PolicingMode, StreamClass, Workload, WorkloadBuilder, WorkloadSpec};

/// Simulated cycles between snapshot → `Network::new` → restore round
/// trips on the verified workload.
pub const ROUNDTRIP_CYCLES: u64 = 500_000;

/// Simulated seconds the parallel-stepping probe steps from the warm-up
/// image, at one and at two threads: half the mesh's measured window.
const PAR_SECS: f64 = 0.0015;

/// One benchmark workload: fabric, traffic mix, windows and run mode.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// `Some((w, h))` for a `w`×`h` mesh; `None` for the 8-port switch.
    pub mesh: Option<(u32, u32)>,
    pub vcs: u32,
    pub load: f64,
    pub class: StreamClass,
    pub policing: PolicingMode,
    pub warm_secs: f64,
    pub measure_secs: f64,
    /// Stepping threads (1 = `run_until`, else `run_until_parallel`).
    pub threads: usize,
    /// Workload instances one run averages over: instance 0 is built from
    /// the run's seed, the others from seeds derived from it.
    pub instances: u64,
    /// Audit, watchdog-as-CI, delay-bound oracle and periodic
    /// snapshot/restore round trips, as `--audit --bounds --resume` runs.
    pub verified: bool,
}

const ALL: [Spec; 4] = [
    Spec {
        name: "switch-sat",
        mesh: None,
        vcs: 16,
        load: 0.96,
        class: StreamClass::Vbr,
        policing: PolicingMode::Off,
        warm_secs: 0.02,
        measure_secs: 0.06,
        threads: 1,
        instances: 4,
        verified: false,
    },
    Spec {
        name: "switch-light",
        mesh: None,
        vcs: 16,
        load: 0.3,
        class: StreamClass::Vbr,
        policing: PolicingMode::Shape,
        warm_secs: 0.05,
        measure_secs: 0.15,
        threads: 1,
        instances: 1,
        verified: false,
    },
    Spec {
        name: "mesh16-par2",
        mesh: Some((16, 16)),
        vcs: 4,
        load: 0.4,
        class: StreamClass::Vbr,
        policing: PolicingMode::Off,
        warm_secs: 0.002,
        measure_secs: 0.003,
        threads: 2,
        instances: 1,
        verified: false,
    },
    Spec {
        name: "switch-cbr-verified",
        mesh: None,
        vcs: 16,
        load: 0.8,
        class: StreamClass::Cbr,
        policing: PolicingMode::Off,
        warm_secs: 0.05,
        measure_secs: 0.15,
        threads: 1,
        instances: 2,
        verified: true,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        ALL.iter().copied().find(|s| s.name == name)
    }

    /// The same workload with windows a hundredth as long (self-test).
    pub fn tiny(self) -> Spec {
        Spec {
            warm_secs: self.warm_secs / 100.0,
            measure_secs: self.measure_secs / 100.0,
            ..self
        }
    }

    /// The parallel probe's window: [`PAR_SECS`], and at most half the
    /// measured window, so the self-test's tiny windows shrink it too.
    pub fn par_secs(&self) -> f64 {
        PAR_SECS.min(self.measure_secs / 2.0)
    }

    /// The workload seed of instance `i` of a run seeded with `seed`.
    pub fn instance_seed(seed: u64, i: usize) -> u64 {
        if i == 0 {
            return seed;
        }
        // SplitMix64 finaliser over (seed, i).
        let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Simulated cycles of `secs` on the paper's 400 Mbps, 32-bit links.
    pub fn cycles(secs: f64) -> u64 {
        WorkloadSpec::paper_default()
            .timebase()
            .cycles_from_secs(secs)
            .get()
    }

    pub fn topology(&self) -> Topology {
        match self.mesh {
            Some((w, h)) => Topology::mesh(w, h, 1),
            None => Topology::single_switch(8),
        }
    }

    /// Table 1 router with this workload's VC count.
    pub fn router(&self) -> RouterConfig {
        RouterConfig::new(self.vcs)
    }

    /// 80:20 real-time : best-effort mix at this workload's load.
    pub fn workload(&self, nodes: usize, seed: u64) -> Workload {
        WorkloadBuilder::new(nodes, VcPartition::from_mix(self.vcs, 80.0, 20.0))
            .load(self.load)
            .mix(80.0, 20.0)
            .real_time_class(self.class)
            .policing(self.policing)
            .seed(seed)
            .build()
    }
}
