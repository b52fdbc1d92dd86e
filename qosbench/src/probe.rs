//! Per-layer probes of the traced run: each times one layer's public
//! calls on the traced run's state and checks what they return.

use mediaworm::{BoundsOracle, BoundsReport, Network};
use netsim::Cycles;

use crate::run::{restore_target, step, Fingerprint, RoundTrip};
use crate::spec::Spec;
use crate::trace::{median, Tracer};

/// Most `audit_now` sweeps the audit probe makes, and its time budget.
const AUDIT_SWEEPS: usize = 1000;
const AUDIT_BUDGET_S: f64 = 0.5;
/// `delivery().summary()` calls the metrics probe times.
const SUMMARY_CALLS: usize = 101;
/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on every
/// Linux ABI).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads
/// included, from fields 14 and 15 of `/proc/self/stat`; resolution one
/// clock tick.
fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the command name, which is in parentheses and
            // may hold spaces; utime and stime are fields 14 and 15.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / CLOCK_TICKS_PER_S)
        })
        .unwrap_or(f64::NAN)
}

pub struct Parallel {
    pub t1_s: f64,
    pub t2_s: f64,
    pub cpu_over_wall: f64,
    pub failures: Vec<String>,
}

/// Steps the workload's parallel-probe window from the warm-up image
/// once with `run_until` and once with `run_until_parallel(_, 2)`; both
/// must reach the same fingerprint.
pub fn parallel(spec: &Spec, seed: u64, image: Vec<u8>, tr: &mut Tracer) -> Parallel {
    let open = tr.enter("par.probe");
    let mut restored = || {
        let mut net = restore_target(spec, seed, tr);
        tr.time("snap.restore", || net.restore(&image))
            .0
            .expect("the warm-up image restores into its own workload");
        net
    };
    let (mut n1, mut n2) = (restored(), restored());
    drop(image);
    let end = n1.now() + n1.timebase().cycles_from_secs(spec.par_secs());
    let ((), t1_s) = tr.time("par.t1", || step(&mut n1, end, 1));
    let cpu0 = cpu_s();
    let ((), t2_s) = tr.time("par.t2", || step(&mut n2, end, 2));
    let cpu_over_wall = (cpu_s() - cpu0) / t2_s;
    let mut failures = Vec::new();
    let (f1, f2) = (Fingerprint::of(&n1), Fingerprint::of(&n2));
    if f1 != f2 {
        failures.push(format!(
            "threads 1 fingerprint {:016x} != threads 2 {:016x}",
            f1.hash(),
            f2.hash()
        ));
    }
    drop((n1, n2));
    tr.exit(open);
    Parallel {
        t1_s,
        t2_s,
        cpu_over_wall,
        failures,
    }
}

pub struct Snapshot {
    pub trip: RoundTrip,
    pub failures: Vec<String>,
}

/// Round-trips the final state through a snapshot; the restored network
/// must carry the same fingerprint.
pub fn snapshot(spec: &Spec, seed: u64, net: &Network, tr: &mut Tracer) -> Snapshot {
    let open = tr.enter("snap.probe");
    let (bytes, save_s) = tr.time("snap.save", || net.snapshot());
    let mut fresh = restore_target(spec, seed, tr);
    let (restored, restore_s) = tr.time("snap.restore", || fresh.restore(&bytes));
    let mut failures = Vec::new();
    match restored {
        Err(e) => failures.push(format!("restore failed: {e}")),
        Ok(()) => {
            let (want, got) = (Fingerprint::of(net), Fingerprint::of(&fresh));
            if want != got {
                failures.push(format!(
                    "restored fingerprint {:016x} != original {:016x}",
                    got.hash(),
                    want.hash()
                ));
            }
        }
    }
    let bytes = bytes.len();
    drop(fresh);
    let total_s = tr.exit(open);
    Snapshot {
        trip: RoundTrip {
            bytes,
            save_s,
            restore_s,
            total_s,
        },
        failures,
    }
}

pub struct Audit {
    pub sweep_us: Vec<f64>,
    pub found: u64,
    pub failures: Vec<String>,
}

/// Times `audit_now` sweeps of the final state; none may find a
/// violation.
pub fn audit(net: &mut Network, tr: &mut Tracer) -> Audit {
    let open = tr.enter("audit.probe");
    let mut sweep_us = Vec::new();
    let mut found = 0;
    let mut spent = 0.0;
    while sweep_us.len() < AUDIT_SWEEPS && spent < AUDIT_BUDGET_S {
        let (n, s) = tr.time("audit.sweep", || net.audit_now());
        found += n;
        spent += s;
        sweep_us.push(s * 1e6);
    }
    tr.exit(open);
    let failures = if found > 0 {
        vec![format!("audit_now found {found} violations")]
    } else {
        Vec::new()
    };
    Audit {
        sweep_us,
        found,
        failures,
    }
}

pub struct Bounds {
    pub build_s: f64,
    pub report_s: f64,
    pub streams: usize,
    pub guaranteed: usize,
    pub modelled: usize,
    pub tightness_max: f64,
}

impl Bounds {
    pub fn of(r: &BoundsReport, build_s: f64, report_s: f64) -> Bounds {
        let guaranteed = r.guaranteed_violations().count();
        Bounds {
            build_s,
            report_s,
            streams: r.streams.len(),
            guaranteed,
            modelled: r.violations.len() - guaranteed,
            tightness_max: r
                .streams
                .iter()
                .filter_map(|s| s.tightness())
                .fold(0.0, f64::max),
        }
    }
}

/// Builds the delay-bound oracle for a workload that runs without one
/// and audits the traced run's final state against it.
pub fn bounds(spec: &Spec, seed: u64, net: &Network, tr: &mut Tracer) -> Bounds {
    let open = tr.enter("bounds.probe");
    let (topology, _) = tr.time("topo.build", || spec.topology());
    let (workload, _) = tr.time("traffic.build", || {
        spec.workload(topology.node_count(), seed)
    });
    let (oracle, build_s) = tr.time("bounds.oracle_build", || {
        BoundsOracle::new(&topology, &workload, &spec.router())
    });
    let oracle = oracle.expect("every benchmark fabric is feedforward, so it has delay bounds");
    let (report, report_s) = tr.time("bounds.report", || oracle.report(net, net.now()));
    let out = Bounds::of(&report, build_s, report_s);
    drop((topology, workload, oracle, report));
    tr.exit(open);
    out
}

/// Median wall time of one `delivery().summary()` + `latency()` read, µs.
pub fn summary(net: &Network, tr: &mut Tracer) -> f64 {
    let open = tr.enter("metrics.probe");
    let us: Vec<f64> = (0..SUMMARY_CALLS)
        .map(|_| {
            let (out, s) = tr.time("metrics.summary", || {
                (net.delivery().summary(), net.latency().mean_us())
            });
            std::hint::black_box(out);
            s * 1e6
        })
        .collect();
    tr.exit(open);
    median(&us)
}

pub struct Traffic {
    pub msgs: u64,
    pub ns_per_msg: f64,
}

/// Drains a twin of the workload: every source's messages up to cycle
/// `end`, as `Network` would pull them over the run.
pub fn traffic(spec: &Spec, seed: u64, end: u64, tr: &mut Tracer) -> Traffic {
    let open = tr.enter("traffic.probe");
    let nodes = spec.topology().node_count();
    let (mut workload, _) = tr.time("traffic.build", || spec.workload(nodes, seed));
    let (msgs, secs) = tr.time("traffic.drain", || {
        let mut msgs = 0u64;
        for idx in 0..workload.source_count() {
            loop {
                let m = workload.next_message(idx);
                msgs += 1;
                if m.at >= Cycles(end) {
                    break;
                }
            }
        }
        msgs
    });
    drop(workload);
    tr.exit(open);
    Traffic {
        msgs,
        ns_per_msg: secs * 1e9 / msgs as f64,
    }
}
