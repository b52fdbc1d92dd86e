//! Benchmark of the MediaWorm simulator: one workload per invocation.
//!
//! `qosbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0` it times stand-alone set-ups, then repeats the
//! workload (set-up, warm-up, measured window) for about `S` seconds and
//! reports the end-to-end metrics over the fixed-size chunks all
//! repetitions are stepped in, taken per chunk position. With `--trace 1`
//! it runs the workload once untraced and once with a span around every
//! call into the simulator, then probes each layer, and reports the
//! per-layer metrics.
//! Every run is checked; a run that fails any check is a failed
//! operation. The last line of standard output is one JSON object; see
//! `run.py` for the wrapper that turns it into the benchmark's result.

mod probe;
mod run;
mod spec;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Json;

use crate::run::{setup, Fingerprint, Mode, Outcome, SetupTimes};
use crate::spec::Spec;
use crate::trace::{median, quantile, Tracer};

/// Stand-alone set-ups are timed in batches of at least `SETUP_BATCH_S`
/// of set-up time (whole rounds over the workload's instances), at least
/// `SETUP_MIN_BATCHES` of them and more until `SETUP_BUDGET_S` of wall
/// time is spent; `setup_s` is the median batch mean.
const SETUP_BATCH_S: f64 = 0.02;
const SETUP_MIN_BATCHES: usize = 5;
const SETUP_BUDGET_S: f64 = 0.5;
/// Chunks a run's warm-up plus measured window is stepped in.
const RUN_CHUNKS: u64 = 200;
/// Chunks the traced run's measured window is stepped in, and the fewest
/// cycles one chunk covers.
const TRACE_CHUNKS: u64 = 1000;
const MIN_CHUNK_CYCLES: u64 = 32;
/// Most repetitions one untraced invocation makes.
const MAX_REPS: usize = 100;
/// Largest share of the traced run's wall time its top-level spans may
/// leave uncovered.
const UNATTRIBUTED_TOLERANCE: f64 = 0.02;
/// Largest factor allowed between the traced and the untraced measured
/// window, either way. Wide, because on a shared VM the speed drifts by
/// up to ±30 % between two windows a few seconds apart.
const OVERHEAD_FACTOR: f64 = 2.0;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    credit_fault: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut credit_fault = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            "--credit-fault" => credit_fault = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        spec: if tiny { spec.tiny() } else { spec },
        seed,
        seconds,
        trace,
        credit_fault,
        trace_out,
    })
}

/// What one invocation reports.
#[derive(Default)]
struct Report {
    /// One entry per operation: its name and the checks it failed.
    ops: Vec<(String, Vec<String>)>,
    values: Vec<(&'static str, f64)>,
    info: Vec<(&'static str, Json)>,
}

impl Report {
    fn op(&mut self, name: impl Into<String>, failures: Vec<String>) {
        self.ops.push((name.into(), failures));
    }

    fn value(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }

    fn info(&mut self, name: &'static str, v: Json) {
        self.info.push((name, v));
    }

    fn to_json(&self) -> Json {
        let failed: Vec<Json> = self
            .ops
            .iter()
            .flat_map(|(op, f)| f.iter().map(move |m| Json::str(format!("{op}: {m}"))))
            .collect();
        Json::obj([
            ("attempted", Json::Uint(self.ops.len() as u64)),
            (
                "failed",
                Json::Uint(self.ops.iter().filter(|(_, f)| !f.is_empty()).count() as u64),
            ),
            ("failures", Json::arr(failed)),
            (
                "values",
                Json::obj(self.values.iter().map(|&(k, v)| (k, Json::num(v)))),
            ),
            ("info", Json::obj(self.info.iter().cloned())),
        ])
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `fp` must equal `want`, the fingerprint of the run named `what`.
fn same_fp(failures: &mut Vec<String>, fp: Fingerprint, want: Fingerprint, what: &str) {
    if fp != want {
        failures.push(format!(
            "fingerprint {:016x} differs from {what} {:016x}",
            fp.hash(),
            want.hash()
        ));
    }
}

/// Wall time of the warm-up plus measured window, less the snapshot
/// round trips taken inside it.
fn stepping_s(o: &Outcome) -> f64 {
    o.warm_s + o.measure_s - o.roundtrips.iter().map(|r| r.total_s).sum::<f64>()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qosbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args, started)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// The run mode of the workload's timed repetitions.
fn workload_mode(args: &Args) -> Mode {
    let s = &args.spec;
    Mode {
        verified: s.verified,
        credit_fault: args.credit_fault,
        chunk_cycles: (Spec::cycles(s.warm_secs + s.measure_secs) / RUN_CHUNKS).max(1),
        ..Mode::default()
    }
}

/// The verified workload's reference: no audit, no oracle, no round
/// trips. Its fingerprint is what an uninterrupted run reaches.
fn reference_mode(args: &Args) -> Mode {
    Mode {
        verified: false,
        ..workload_mode(args)
    }
}

/// Times stand-alone set-ups of the workload, in batches. A batch sets up
/// every instance of the workload in turn, as many rounds as fill it, so
/// its mean is over the instances a run steps.
fn setup_batches(args: &Args, tr: &mut Tracer) -> Vec<Vec<SetupTimes>> {
    let mut batches = Vec::new();
    let mut spent = 0.0;
    while batches.len() < SETUP_MIN_BATCHES || spent < SETUP_BUDGET_S {
        let open = tr.enter("setup.batch");
        let mut batch: Vec<SetupTimes> = Vec::new();
        while batch.iter().map(|t| t.secs).sum::<f64>() < SETUP_BATCH_S {
            for i in 0..args.spec.instances as usize {
                let seed = Spec::instance_seed(args.seed, i);
                batch.push(setup(&args.spec, seed, workload_mode(args), tr).times);
            }
        }
        spent += tr.exit(open);
        batches.push(batch);
    }
    batches
}

/// What one untraced repetition contributes to the end-to-end metrics.
#[derive(Default)]
struct Sample {
    ok: bool,
    /// Wall time of each chunk, the repetition's snapshot round trips
    /// spread evenly over them.
    chunk_s: Vec<f64>,
    measure_flits: u64,
    /// (accepted flits per cycle per node, best-effort latency), from the
    /// first run of each instance.
    modelled: Option<(f64, f64)>,
}

/// Per chunk position, the median of the kept repetitions' chunk times.
/// Chunk `k` covers the same simulated cycles in every repetition, so the
/// sum over positions keeps every part of the window in the host metrics,
/// while the median drops the repetitions a burst of host contention hit
/// at that point (a shared 2-core VM's speed changes by up to 2.3× for
/// seconds to minutes).
fn per_position(kept: &[&Sample]) -> Vec<f64> {
    let positions = kept.iter().map(|s| s.chunk_s.len()).min().unwrap_or(0);
    (0..positions)
        .map(|k| {
            let at: Vec<f64> = kept.iter().map(|s| s.chunk_s[k]).collect();
            median(&at)
        })
        .collect()
}

/// `--trace 0`: repetitions for about `args.seconds`, end-to-end metrics.
fn untraced(args: &Args, started: Instant) -> Report {
    let spec = &args.spec;
    let mut tr = Tracer::new(false);
    let mut report = Report::default();
    let setup_s: Vec<f64> = setup_batches(args, &mut tr)
        .iter()
        .map(|b| b.iter().map(|t| t.secs).sum::<f64>() / b.len() as f64)
        .collect();

    let instances = spec.instances as usize;
    let mut first: Vec<Fingerprint> = Vec::new();
    let (mut samples, mut run_rates, mut sigma_d) = (Vec::new(), Vec::new(), Vec::new());
    // Which chunk positions lie in the measured window, and the cycles a
    // repetition steps; both are the same for every repetition.
    let (mut measured, mut cycles) = (Vec::new(), 0);
    let nodes = spec.topology().node_count() as f64;
    for rep in 0..MAX_REPS {
        let instance = rep % instances;
        let t = Instant::now();
        let seed = Spec::instance_seed(args.seed, instance);
        let mut o = run::run(spec, seed, workload_mode(args), &mut tr);
        let rep_s = t.elapsed().as_secs_f64();
        let mut sample = Sample::default();
        match first.get(instance) {
            None => {
                first.push(o.fp);
                let accepted = o.measure_flits as f64 / o.measure_cycles as f64 / nodes;
                sample.modelled = Some((accepted, o.be_mean_us));
                sigma_d.push(Json::opt_num(o.jitter.std_ms_opt()));
            }
            Some(&fp) => same_fp(&mut o.failures, o.fp, fp, "the instance's first run"),
        }
        run_rates.push(o.end_cycles as f64 / (o.warm_s + o.measure_s));
        if rep == 0 {
            measured = o.chunks.iter().map(|c| c.measured).collect();
            cycles = o.end_cycles;
        }
        // Snapshot round trips run between chunks: spread their cost over
        // the repetition's chunks so the host metrics carry it.
        let extra = o.roundtrips.iter().map(|r| r.total_s).sum::<f64>() / o.chunks.len() as f64;
        sample.chunk_s = o.chunks.iter().map(|c| c.secs + extra).collect();
        sample.measure_flits = o.measure_flits;
        sample.ok = o.failures.is_empty();
        samples.push(sample);
        report.op(
            format!("repetition {} (instance {instance})", rep + 1),
            o.failures,
        );
        // Another repetition runs when at least half of it fits, so a run
        // lasts `--seconds` on average.
        let out_of_time = started.elapsed().as_secs_f64() + rep_s / 2.0 > args.seconds;
        if first.len() == instances && out_of_time {
            break;
        }
    }
    // A failed repetition's output is wrong, so it is counted as failed
    // and left out of the metrics — unless every repetition failed.
    let all = !samples.iter().any(|s| s.ok);
    let kept: Vec<&Sample> = samples.iter().filter(|s| s.ok || all).collect();
    let chunk_s = per_position(&kept);
    let in_measure = |xs: &[f64]| -> f64 {
        xs.iter()
            .zip(&measured)
            .filter(|&(_, &m)| m)
            .map(|(s, _)| s)
            .sum()
    };
    let flits = kept.iter().map(|s| s.measure_flits as f64).sum::<f64>() / kept.len() as f64;
    let all_s: f64 = kept.iter().flat_map(|s| s.chunk_s.iter()).sum();
    let modelled: Vec<(f64, f64)> = kept.iter().filter_map(|s| s.modelled).collect();
    let mean =
        |f: fn(&(f64, f64)) -> f64| modelled.iter().map(f).sum::<f64>() / modelled.len() as f64;

    report.value("setup_s", median(&setup_s));
    report.value(
        "sim_cycles_per_s",
        cycles as f64 / chunk_s.iter().sum::<f64>(),
    );
    report.value("host_ns_per_flit", in_measure(&chunk_s) * 1e9 / flits);
    report.value("accepted_flits_per_cycle", mean(|m| m.0));
    report.value("be_latency_mean_us", mean(|m| m.1));
    let hashes = first
        .iter()
        .map(|fp| Json::str(format!("{:016x}", fp.hash())));
    report.info("fingerprints", Json::arr(hashes));
    report.info("repetitions", Json::Uint(run_rates.len() as u64));
    report.info("repetitions_measured", Json::Uint(kept.len() as u64));
    report.info("chunk_positions", Json::Uint(chunk_s.len() as u64));
    report.info("setup_batches", Json::Uint(setup_s.len() as u64));
    report.info(
        "sim_cycles_per_s_total",
        Json::num((cycles * kept.len() as u64) as f64 / all_s),
    );
    report.info(
        "sim_cycles_per_s_per_repetition",
        Json::arr(run_rates.iter().map(|&r| Json::num(r))),
    );
    report.info("rt_sigma_d_ms", Json::arr(sigma_d));
    report.info("peak_rss_mb", Json::num(peak_rss_mb()));
    report
}

/// `--trace 1`: one untraced and one traced run, then per-layer probes.
fn traced(args: &Args) -> Report {
    let spec = &args.spec;
    let mut tr = Tracer::new(true);
    let mut report = Report::default();
    let root = tr.enter("run");
    let root_id = root.id().expect("the tracer is on");

    let setups: Vec<SetupTimes> = setup_batches(args, &mut tr).concat();
    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let (topo_s, traffic_s, oracle_s, new_s) = (
        pick(|b| b.topo_s),
        pick(|b| b.traffic_s),
        pick(|b| b.oracle_s),
        pick(|b| b.new_s),
    );
    drop(setups);

    // The verified workload's uninterrupted, unaudited reference.
    let reference = spec.verified.then(|| {
        let open = tr.enter("reference.run");
        let was = tr.set_on(false);
        let o = run::run(spec, args.seed, reference_mode(args), &mut tr);
        let out = (o.fp, stepping_s(&o));
        report.op("reference", o.failures);
        tr.set_on(was);
        tr.exit(open);
        out
    });

    let open = tr.enter("untraced.run");
    let was = tr.set_on(false);
    let mode = Mode {
        keep_image: true,
        ..workload_mode(args)
    };
    let mut plain = run::run(spec, args.seed, mode, &mut tr);
    tr.set_on(was);
    tr.exit(open);
    let rss_mb = peak_rss_mb();
    if let Some((fp, _)) = reference {
        same_fp(
            &mut plain.failures,
            plain.fp,
            fp,
            "the uninterrupted reference",
        );
    }

    let open = tr.enter("traced.run");
    let mode = Mode {
        chunk_cycles: (plain.measure_cycles / TRACE_CHUNKS).max(MIN_CHUNK_CYCLES),
        ..workload_mode(args)
    };
    let mut traced = run::run(spec, args.seed, mode, &mut tr);
    tr.exit(open);
    same_fp(
        &mut traced.failures,
        traced.fp,
        plain.fp,
        "the untraced run",
    );

    // Layer probes on the traced run's final network.
    let image = plain
        .image
        .take()
        .expect("the untraced run keeps its image");
    let par = probe::parallel(spec, args.seed, image, &mut tr);
    let snap = probe::snapshot(spec, args.seed, &traced.net, &mut tr);
    let audit = probe::audit(&mut traced.net, &mut tr);
    let bounds = match &traced.bounds {
        Some(b) => probe::Bounds::of(b, oracle_s, traced.bounds_report_s),
        None => probe::bounds(spec, args.seed, &traced.net, &mut tr),
    };
    let summary_us = probe::summary(&traced.net, &mut tr);
    let drain = probe::traffic(spec, args.seed, traced.end_cycles, &mut tr);
    let whole = tr.exit(root);

    let o = &plain;
    report.value("topo.build_s", topo_s);
    report.value("traffic.build_s", traffic_s);
    report.value("traffic.next_message_ns", drain.ns_per_msg);
    report.value("traffic.msgs", drain.msgs as f64);
    report.value("net.new_s", new_s);
    report.value("net.warmup_s", traced.warm_s);
    report.value("net.measure_s", traced.measure_s);
    let chunk_us: Vec<f64> = traced
        .chunks
        .iter()
        .filter(|c| c.measured)
        .map(|c| c.secs * 1e6)
        .collect();
    report.value("net.chunk_us_p50", median(&chunk_us));
    report.value("net.chunk_us_p99", quantile(&chunk_us, 0.99));
    report.value("net.chunk_samples", chunk_us.len() as f64);
    report.value("net.cycles_stepped", o.skip.cycles_stepped as f64);
    report.value("net.cycles_skipped", o.skip.cycles_skipped as f64);
    report.value("net.horizon_jumps", o.skip.horizon_jumps as f64);
    report.value("net.injected_msgs", o.injected as f64);
    report.value("net.delivered_msgs", o.delivered as f64);
    report.value("net.in_flight_at_end", o.in_flight as f64);

    let c = &o.counters;
    let flits = (c.rt_flits + c.be_flits) as f64;
    report.value("router.rt_flits", c.rt_flits as f64);
    report.value("router.be_flits", c.be_flits as f64);
    report.value("router.mux_conflicts", c.mux_conflicts as f64);
    report.value(
        "router.mux_conflicts_per_flit",
        c.mux_conflicts as f64 / flits,
    );
    report.value("router.credit_stall_cycles", c.credit_stall_cycles as f64);
    report.value(
        "router.mean_occupancy_flits",
        c.mean_occupancy().unwrap_or(0.0),
    );

    report.value("par.measure_s_t1", par.t1_s);
    report.value("par.measure_s_t2", par.t2_s);
    report.value("par.speedup", par.t1_s / par.t2_s);
    report.value("par.cpu_over_wall", par.cpu_over_wall);

    let audit_share = match reference {
        Some((_, ref_s)) => 1.0 - ref_s / stepping_s(o),
        None => 0.0,
    };
    report.value("audit.sweep_us_p50", median(&audit.sweep_us));
    report.value("audit.sweep_us_p99", quantile(&audit.sweep_us, 0.99));
    report.value("audit.sweeps", audit.sweep_us.len() as f64);
    report.value(
        "audit.violations",
        (o.audit_violations + traced.audit_violations + audit.found) as f64,
    );
    report.value("audit.share", audit_share);

    report.value("bounds.oracle_build_s", bounds.build_s);
    report.value("bounds.report_s", bounds.report_s);
    report.value("bounds.streams", bounds.streams as f64);
    report.value("bounds.violations_guaranteed", bounds.guaranteed as f64);
    report.value("bounds.violations_modelled", bounds.modelled as f64);
    report.value("bounds.tightness_max", bounds.tightness_max);

    let trips: Vec<_> = traced.roundtrips.iter().chain([&snap.trip]).collect();
    let ms = |f: fn(&run::RoundTrip) -> f64| {
        median(&trips.iter().map(|r| f(r) * 1e3).collect::<Vec<_>>())
    };
    report.value("snap.bytes", snap.trip.bytes as f64);
    report.value("snap.save_ms", ms(|r| r.save_s));
    report.value("snap.restore_ms", ms(|r| r.restore_s));
    report.value("snap.roundtrips", trips.len() as f64);

    report.value("metrics.summary_us", summary_us);
    report.value("metrics.rt_intervals", o.jitter.intervals as f64);
    report.value("metrics.be_msgs", o.be_msgs as f64);

    let unattributed = tr.unattributed(root_id);
    let overhead = traced.measure_s / o.measure_s;
    report.value("trace.unattributed_s", unattributed);
    report.value("trace.overhead", overhead);
    report.value("proc.peak_rss_mb", rss_mb);

    // Reconciliation: the top-level spans must cover the traced run's
    // wall time, and tracing must not distort the measured window grossly.
    let mut trace_failures = Vec::new();
    if unattributed > UNATTRIBUTED_TOLERANCE * whole {
        trace_failures.push(format!(
            "spans leave {unattributed:.4} s of {whole:.4} s unattributed (tolerance {:.0}%)",
            UNATTRIBUTED_TOLERANCE * 100.0
        ));
    }
    if !(1.0 / OVERHEAD_FACTOR..=OVERHEAD_FACTOR).contains(&overhead) {
        trace_failures.push(format!(
            "traced window {:.4} s vs untraced {:.4} s (tolerance a factor of {OVERHEAD_FACTOR})",
            traced.measure_s, o.measure_s,
        ));
    }
    traced.failures.extend(trace_failures);
    traced.failures.extend(audit.failures);
    if traced.bounds.is_none() && bounds.guaranteed > 0 {
        traced.failures.push(format!(
            "bounds probe: {} guaranteed delay-bound violations",
            bounds.guaranteed
        ));
    }
    report.op("untraced run", plain.failures.clone());
    report.op("traced run", traced.failures);
    report.op("parallel probe", par.failures);
    report.op("snapshot probe", snap.failures);

    report.info("fingerprint", Json::str(format!("{:016x}", o.fp.hash())));
    report.info("rt_sigma_d_ms", Json::opt_num(o.jitter.std_ms_opt()));
    let self_times = tr.self_times().into_iter().map(|(name, n, wall, own)| {
        Json::obj([
            ("span", Json::str(name)),
            ("count", Json::Uint(n)),
            ("wall_s", Json::num(wall)),
            ("self_s", Json::num(own)),
        ])
    });
    report.info("self_times", Json::arr(self_times));
    if let Some(path) = &args.trace_out {
        write_spans(path, &tr);
    }
    report
}

/// Writes every span as one JSON document (once, at the end).
fn write_spans(path: &PathBuf, tr: &Tracer) {
    let doc = Json::arr(tr.spans().iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("id", Json::Uint(id as u64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Uint(s.start_ns)),
            ("end_ns", Json::Uint(s.end_ns)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Uint(p as u64)),
            ),
        ])
    }));
    if let Err(e) = std::fs::write(path, doc.to_string()) {
        eprintln!("qosbench: cannot write {}: {e}", path.display());
    }
}
