//! Service benchmark of the HPCA'19 FV stack at `FvParams::hpca19_batching()`.
//!
//! ```text
//! perfbench --workload <mul|slotsum|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process starts a single-node deployment (see `deploy`), sends the
//! workload's requests over loopback TCP for `--seconds`, and checks every
//! reply against the result computed in the clear (see `work`). With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
//! the same window and then times each layer's public functions (see
//! `layers`). The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod deploy;
mod layers;
mod work;

use deploy::{Deployment, PARAMS_NAME};
use hefv_core::encrypt::decrypt;
use hefv_core::eval::{mul, Backend};
use perfbench::{highest_supported_percentile, median, Percentiles};
use std::process::ExitCode;
use work::{build_pool, run_window, Kind, Workload};

/// Deployments built per run, at least; `setup_s` is the median of their
/// set-up times.
const SETUP_REPS: usize = 9;
/// Set-up time spent per run, at least: cheap set-ups (one tenant without
/// Galois keys takes about 10 ms) repeat until the median is steady.
const SETUP_MIN_S: f64 = 1.0;
/// `Mul` requests per run re-evaluated on the exact-CRT datapath.
const ORACLE_SAMPLES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} must be in (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t} must be 0 or 1")),
        },
    })
}

/// Metrics in the order they are recorded, printed one per line and then
/// as the closing JSON object.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("{name} {value} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// CPU features the kernels can use, as detected on this host.
fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        macro_rules! probe {
            ($($name:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($name) {
                    f.push($name);
                }
            )*};
        }
        probe!(
            "sse4.2",
            "avx",
            "avx2",
            "bmi2",
            "fma",
            "avx512f",
            "avx512ifma"
        );
        f.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("none-detected")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (mul, slotsum, mixed)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "setting: workload={} params={PARAMS_NAME} lane={} nproc={nproc} cpu_features={} seed={} seconds={} trace={}",
        w.name,
        hefv_math::dispatch::backend_name(),
        cpu_features(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut dep: Option<Deployment> = None;
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        if let Some(old) = dep.take() {
            old.shutdown();
        }
        let (d, setup_s) = Deployment::start(args.seed, &w.tenants);
        setups.push(setup_s);
        dep = Some(d);
    }
    let dep = dep.expect("at least one deployment");
    let pool = build_pool(&dep, &w, args.seed);
    let win = run_window(&dep, &w, &pool, args.seconds, args.seed, args.trace);
    let mut correct = win.wrong == 0 && win.correct > 0;

    // HPS-fixed against the exact-CRT oracle on a seeded sample of Mul inputs.
    if let Some(k) = w.kinds.iter().position(|k| k.0 == Kind::Mul) {
        for &i in pool.by_kind[k].iter().take(ORACLE_SAMPLES) {
            let item = &pool.items[i];
            let tenant = &dep.tenants[item.tenant];
            let (a, b) = (&item.req.inputs[0], &item.req.inputs[1]);
            let hps = mul(&dep.ctx, a, b, &tenant.rlk, Backend::default());
            let exact = mul(&dep.ctx, a, b, &tenant.rlk, Backend::Traditional);
            let hps_pt = decrypt(&dep.ctx, &tenant.sk, &hps);
            correct &=
                hps_pt == decrypt(&dep.ctx, &tenant.sk, &exact) && hps_pt.coeffs() == item.expected;
        }
    }

    let lat = Percentiles::of(&win.latencies.iter().map(|l| l.1).collect::<Vec<_>>());
    for &(kind, _, _) in &w.kinds {
        let of_kind: Vec<f64> = win
            .latencies
            .iter()
            .filter(|l| l.0 == kind)
            .map(|l| l.1)
            .collect();
        let p = Percentiles::of(&of_kind);
        println!(
            "latency {}: n={} p50={:.3} ms p99={:.3} ms",
            kind.name(),
            p.count,
            p.p50,
            p.p99
        );
    }
    let refused = win.refused_total();
    println!(
        "requests: attempted={} correct={} wrong={} failed={} refused={} failed_frac={} \
         result_bytes_mismatched={}",
        win.attempted,
        win.correct,
        win.wrong,
        win.failed,
        refused,
        win.failed_frac(),
        win.mismatched
    );
    if !win.late_ms.is_empty() {
        let late = Percentiles::of(&win.late_ms);
        println!(
            "generator: sends late by p50={:.3} ms p99={:.3} ms (n={})",
            late.p50, late.p99, late.count
        );
    }
    for (code, n) in &win.refused {
        println!("refused: wire error code {code}: {n}");
    }
    println!(
        "latency: n={} p99={:.3} ms with {} beyond; highest_supported_percentile={} limit_ms={}",
        lat.count,
        lat.p99,
        lat.beyond_p99,
        highest_supported_percentile(lat.count, &[50.0, 90.0, 99.0, 99.9])
            .map_or("none".to_string(), |p| format!("p{p}")),
        w.limit_ms
    );
    // Printed, but not a JSON metric of the untraced run: on a shared
    // 2-vCPU VM, host stalls moved `mixed`'s p99 by more than 25 % between
    // runs of the same code (`within_limit_frac` carries its tail). The
    // traced run records it as `net.client_p99_ms`.
    println!("latency_p99_ms {} ms", lat.p99);
    let mut report = Report::default();
    let e2e = if args.trace {
        &mut Report::default()
    } else {
        &mut report
    };
    e2e.put("setup_s", median(&setups), "s");
    e2e.put("jobs_per_s", win.correct as f64 / win.elapsed_s, "1/s");
    e2e.put("latency_p50_ms", lat.p50, "ms");
    e2e.put(
        "within_limit_frac",
        win.within_limit as f64 / win.attempted.max(1) as f64,
        "ratio",
    );
    e2e.put("peak_rss_mb", peak_rss_mb(), "MiB");
    if args.trace {
        correct &= layers::measure(&dep, &pool, &win, args.seed, &mut report);
    }
    dep.shutdown();
    println!(
        "{}",
        report.json(correct, win.attempted, win.failed + refused + win.wrong)
    );
    ExitCode::SUCCESS
}
