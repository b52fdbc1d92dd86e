//! One simulation run of a workload (an "operation"), driven only through
//! the simulator's public API, with its fingerprint and correctness checks.

use flitnet::{PortId, RouterId, VcId};
use mediaworm::{
    AuditConfig, BoundsOracle, BoundsReport, NetCounters, Network, SkipStats, WatchdogConfig,
};
use metrics::JitterSummary;
use netsim::Cycles;

use crate::spec::{Spec, ROUNDTRIP_CYCLES};
use crate::trace::Tracer;

/// The simulated outcome of a run, bit for bit. Two runs of the same
/// workload and seed must agree on it whatever the driver, thread count,
/// chunking, auditing or snapshot round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    now: u64,
    injected: u64,
    delivered_msgs: u64,
    delivered_flits: u64,
    counters: NetCounters,
    intervals: u64,
    sigma_bits: u64,
    mean_interval_bits: u64,
    be_msgs: u64,
    be_mean_bits: u64,
}

impl Fingerprint {
    pub fn of(net: &Network) -> Fingerprint {
        let j = net.delivery().summary();
        let be = net.latency();
        Fingerprint {
            now: net.now().get(),
            injected: net.injected_msgs(),
            delivered_msgs: net.delivered_msgs(),
            delivered_flits: net.delivered_flits(),
            counters: net.counters(),
            intervals: j.intervals,
            sigma_bits: j.std_ms.to_bits(),
            mean_interval_bits: j.mean_ms.to_bits(),
            be_msgs: be.count(),
            be_mean_bits: be.mean_us().to_bits(),
        }
    }

    /// FNV-1a over the fields, for printing.
    pub fn hash(&self) -> u64 {
        let c = &self.counters;
        [
            self.now,
            self.injected,
            self.delivered_msgs,
            self.delivered_flits,
            c.rt_flits,
            c.be_flits,
            c.mux_conflicts,
            c.credit_stall_cycles,
            c.occupancy_samples,
            c.occupancy_flits,
            self.intervals,
            self.sigma_bits,
            self.mean_interval_bits,
            self.be_msgs,
            self.be_mean_bits,
        ]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }
}

/// How a run is driven.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Run as CI does: audit sweep every 1024 cycles, the delay-bound
    /// oracle, and a snapshot → fresh `Network::new` → restore round trip
    /// every [`ROUNDTRIP_CYCLES`].
    pub verified: bool,
    /// Step warm-up and measured window in `run_until` calls that end at
    /// multiples of this many cycles (0: one call per window), one span
    /// and one [`Chunk`] record each.
    pub chunk_cycles: u64,
    /// Keep a snapshot of the network at the end of warm-up.
    pub keep_image: bool,
    /// Mint a spurious credit right after set-up (self-test of the
    /// audit check).
    pub credit_fault: bool,
}

/// Wall time of a set-up and of its parts.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub secs: f64,
    pub topo_s: f64,
    pub traffic_s: f64,
    pub oracle_s: f64,
    pub new_s: f64,
}

/// A freshly set-up network.
pub struct Built {
    pub net: Network,
    pub oracle: Option<BoundsOracle>,
    pub times: SetupTimes,
}

/// Builds topology, workload, (oracle) and network — the timed set-up.
pub fn setup(spec: &Spec, seed: u64, mode: Mode, tr: &mut Tracer) -> Built {
    let open = tr.enter("setup");
    let (topology, topo_s) = tr.time("topo.build", || spec.topology());
    let (workload, traffic_s) = tr.time("traffic.build", || {
        spec.workload(topology.node_count(), seed)
    });
    let cfg = spec.router();
    let (oracle, oracle_s) = if mode.verified {
        let (o, s) = tr.time("bounds.oracle_build", || {
            BoundsOracle::new(&topology, &workload, &cfg)
                .expect("the verified workload is feedforward, so it has delay bounds")
        });
        (Some(o), s)
    } else {
        (None, 0.0)
    };
    let (mut net, new_s) = tr.time("net.new", || Network::new(&topology, workload, &cfg));
    net.enable_watchdog(WatchdogConfig::default());
    if mode.verified {
        net.enable_audit(AuditConfig::default());
    }
    net.set_warmup_end(warm_end(spec, &net));
    let secs = tr.exit(open);
    Built {
        net,
        oracle,
        times: SetupTimes {
            secs,
            topo_s,
            traffic_s,
            oracle_s,
            new_s,
        },
    }
}

/// A network built from the same inputs, at cycle zero, as the target of
/// `Network::restore`.
pub fn restore_target(spec: &Spec, seed: u64, tr: &mut Tracer) -> Network {
    let (topology, _) = tr.time("topo.build", || spec.topology());
    let (workload, _) = tr.time("traffic.build", || {
        spec.workload(topology.node_count(), seed)
    });
    tr.time("net.new", || {
        Network::new(&topology, workload, &spec.router())
    })
    .0
}

fn warm_end(spec: &Spec, net: &Network) -> Cycles {
    net.timebase().cycles_from_secs(spec.warm_secs)
}

fn run_end(spec: &Spec, net: &Network) -> Cycles {
    net.timebase()
        .cycles_from_secs(spec.warm_secs + spec.measure_secs)
}

/// Steps `net` to `to` with the workload's driver.
pub fn step(net: &mut Network, to: Cycles, threads: usize) {
    if threads > 1 {
        net.run_until_parallel(to, threads);
    } else {
        net.run_until(to);
    }
}

/// One snapshot round trip's cost.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrip {
    pub bytes: usize,
    pub save_s: f64,
    pub restore_s: f64,
    /// Save, fresh set-up and restore together.
    pub total_s: f64,
}

/// One fixed-size `run_until` call.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub secs: f64,
    /// Whether the chunk lies in the measured window.
    pub measured: bool,
}

/// Everything a run measured and checked.
pub struct Outcome {
    pub fp: Fingerprint,
    pub warm_s: f64,
    pub measure_s: f64,
    pub end_cycles: u64,
    pub measure_cycles: u64,
    pub measure_flits: u64,
    pub skip: SkipStats,
    pub counters: NetCounters,
    pub injected: u64,
    pub delivered: u64,
    pub in_flight: u64,
    pub audit_violations: u64,
    pub bounds: Option<BoundsReport>,
    pub bounds_report_s: f64,
    pub jitter: JitterSummary,
    pub be_mean_us: f64,
    pub be_msgs: u64,
    pub roundtrips: Vec<RoundTrip>,
    pub chunks: Vec<Chunk>,
    pub image: Option<Vec<u8>>,
    pub net: Network,
    pub failures: Vec<String>,
}

/// A run in progress: the network plus the round-trip bookkeeping.
struct Runner<'a> {
    spec: Spec,
    seed: u64,
    mode: Mode,
    tr: &'a mut Tracer,
    net: Network,
    skip: SkipStats,
    roundtrips: Vec<RoundTrip>,
    chunks: Vec<Chunk>,
}

impl Runner<'_> {
    /// Steps to `to` in chunks, round-tripping through a snapshot at
    /// every multiple of [`ROUNDTRIP_CYCLES`] on the way.
    fn advance(&mut self, to: Cycles, measured: bool) {
        while self.net.now() < to && self.net.stall_report().is_none() {
            let now = self.net.now().get();
            let roundtrip = if self.mode.verified {
                ROUNDTRIP_CYCLES
            } else {
                0
            };
            let mut stop = to;
            for every in [self.mode.chunk_cycles, roundtrip] {
                if let Some(k) = now.checked_div(every) {
                    stop = stop.min(Cycles((k + 1) * every));
                }
            }
            let open = self.tr.enter("net.chunk");
            step(&mut self.net, stop, self.spec.threads);
            let secs = self.tr.exit(open);
            let at = self.net.now();
            self.chunks.push(Chunk { secs, measured });
            if self.mode.verified && at < to && at.get().is_multiple_of(ROUNDTRIP_CYCLES) {
                self.roundtrip();
            }
        }
    }

    fn roundtrip(&mut self) {
        let open = self.tr.enter("snap.roundtrip");
        add_skip(&mut self.skip, self.net.skip_stats());
        let (bytes, save_s) = self.tr.time("snap.save", || self.net.snapshot());
        let mut fresh = restore_target(&self.spec, self.seed, self.tr);
        let (restored, restore_s) = self.tr.time("snap.restore", || fresh.restore(&bytes));
        restored.expect("a snapshot restores into a network built from the same inputs");
        self.net = fresh;
        let total_s = self.tr.exit(open);
        self.roundtrips.push(RoundTrip {
            bytes: bytes.len(),
            save_s,
            restore_s,
            total_s,
        });
    }
}

fn add_skip(acc: &mut SkipStats, s: SkipStats) {
    acc.cycles_stepped += s.cycles_stepped;
    acc.cycles_skipped += s.cycles_skipped;
    acc.horizon_jumps += s.horizon_jumps;
}

/// Runs the workload once: set-up, warm-up, measured window, checks.
pub fn run(spec: &Spec, seed: u64, mode: Mode, tr: &mut Tracer) -> Outcome {
    let built = setup(spec, seed, mode, tr);
    let mut net = built.net;
    if mode.credit_fault {
        net.inject_credit_fault(RouterId(0), PortId(0), VcId(0));
    }
    let warm = warm_end(spec, &net);
    let end = run_end(spec, &net);
    let mut r = Runner {
        spec: *spec,
        seed,
        mode,
        tr,
        net,
        skip: SkipStats::default(),
        roundtrips: Vec::new(),
        chunks: Vec::new(),
    };

    let open = r.tr.enter("net.warmup");
    r.advance(warm, false);
    let warm_s = r.tr.exit(open);
    let image = mode
        .keep_image
        .then(|| r.tr.time("par.image", || r.net.snapshot()).0);
    let flits_at_warm = r.net.delivered_flits();

    let open = r.tr.enter("net.measure");
    r.advance(end, true);
    let measure_s = r.tr.exit(open);

    let Runner {
        tr,
        mut net,
        mut skip,
        roundtrips,
        chunks,
        ..
    } = r;
    add_skip(&mut skip, net.skip_stats());
    let (bounds, bounds_report_s) = match &built.oracle {
        Some(o) => {
            let (rep, s) = tr.time("bounds.report", || o.report(&net, end));
            (Some(rep), s)
        }
        None => (None, 0.0),
    };
    let in_flight = net.note_truncated_messages();
    let ((jitter, be_mean_us, be_msgs), _) = tr.time("metrics.summary", || {
        (
            net.delivery().summary(),
            net.latency().mean_us(),
            net.latency().count(),
        )
    });
    let (counters, _) = tr.time("net.counters", || net.counters());
    let fp = Fingerprint::of(&net);

    let mut failures = Vec::new();
    if let Some(s) = net.stall_report() {
        failures.push(format!(
            "watchdog: {} stall at cycle {}",
            s.kind.label(),
            net.now().get()
        ));
    }
    if net.now() != end {
        failures.push(format!(
            "run stopped at cycle {} before its end {}",
            net.now().get(),
            end.get()
        ));
    }
    let (injected, delivered) = (net.injected_msgs(), net.delivered_msgs());
    if injected != delivered + in_flight {
        failures.push(format!(
            "conservation: injected {injected} != delivered {delivered} + in flight {in_flight}"
        ));
    }
    if (in_flight == 0) != (net.flits_in_flight() == 0) {
        failures.push(format!(
            "conservation: {in_flight} messages but {} flits in flight",
            net.flits_in_flight()
        ));
    }
    let audit_violations = net.audit_log().map_or(0, |l| l.total());
    if audit_violations > 0 {
        failures.push(format!("audit: {audit_violations} invariant violations"));
    }
    if let Some(b) = &bounds {
        let n = b.guaranteed_violations().count();
        let worst = b
            .guaranteed_violations()
            .max_by(|x, y| x.observed_cycles.total_cmp(&y.observed_cycles));
        if let Some(v) = worst {
            failures.push(format!(
                "bounds: {n} guaranteed delay-bound violations; worst: stream {} at {} cycles \
                 against a bound of {:.0}",
                v.stream, v.observed_cycles, v.bound_cycles
            ));
        }
    }
    let measure_flits = net.delivered_flits() - flits_at_warm;
    if measure_flits == 0 {
        failures.push("no flit delivered in the measured window".into());
    }

    Outcome {
        fp,
        warm_s,
        measure_s,
        end_cycles: end.get(),
        measure_cycles: end.get() - warm.get(),
        measure_flits,
        skip,
        counters,
        injected,
        delivered,
        in_flight,
        audit_violations,
        bounds,
        bounds_report_s,
        jitter,
        be_mean_us,
        be_msgs,
        roundtrips,
        chunks,
        image,
        net,
        failures,
    }
}
