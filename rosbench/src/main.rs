//! `rosbench`: end-to-end and per-layer benchmark of the RoS reader.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path rosbench/Cargo.toml -- \
//!     --workload <corridor|replay|full_pipeline|fast_sweep> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <record.json>]
//! ```
//!
//! With `--trace 0` the run sets the workload up, times a closed loop
//! of reads for `--seconds`, checks every read, reads the peak heap from
//! a child process of its own (`--heap-probe`), and prints the
//! end-to-end metrics. With `--trace 1` it prints the per-layer ledger
//! of every workload instead (see `ledger.rs`). Stdout carries two
//! JSON lines: the stamped record, then the result object. A failed
//! correctness check exits with code 1; bad arguments with code 2.

mod e2e;
mod heap;
mod ledger;
mod procfs;
mod scenario;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: heap::PeakAlloc = heap::PeakAlloc;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Corridor,
    Replay,
    FullPipeline,
    FastSweep,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Corridor,
        Workload::Replay,
        Workload::FullPipeline,
        Workload::FastSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Corridor => "corridor",
            Workload::Replay => "replay",
            Workload::FullPipeline => "full_pipeline",
            Workload::FastSweep => "fast_sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    heap_probe: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut heap_probe = false;
    while let Some(flag) = it.next() {
        if flag == "--heap-probe" {
            heap_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value:?}")),
                })
            }
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        heap_probe,
    })
}

/// A reported metric: name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// Wrong or failed reads over reads attempted.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted as f64
}

/// Whether each distinct read of a run's scenario was wrong, counted
/// once however often the run repeats it. Every repetition must
/// reproduce its first read exactly (a divergence otherwise), so being
/// wrong is a property of the scenario; counting each read once makes
/// `attempted` and `failed` repeat exactly for a seed, whatever the
/// run length or the host's speed.
#[derive(Default)]
pub struct Verdicts(BTreeMap<(&'static str, usize), bool>);

impl Verdicts {
    /// Records read `index` of `section`; a repeated read keeps its
    /// first verdict.
    pub fn record(&mut self, section: &'static str, index: usize, wrong: bool) {
        self.0.entry((section, index)).or_insert(wrong);
    }

    /// Distinct reads made.
    pub fn attempted(&self) -> u64 {
        self.0.len() as u64
    }

    /// Distinct reads that were wrong.
    pub fn failed(&self) -> u64 {
        self.0.values().filter(|&&wrong| wrong).count() as u64
    }
}

/// The commit of the checkout, when it is a git work tree of its own.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs this program's heap probe for the same workload and seed in a
/// child process, waits for it, and returns its peak heap in MiB and
/// what the figure covers.
fn probe_heap(args: &Args) -> std::io::Result<(f64, String)> {
    let err = std::io::Error::other::<String>;
    let out = std::process::Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", "1", "--trace", "0", "--heap-probe"])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(err(format!("heap probe exited with {}", out.status)));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (mb, of) = text
        .trim()
        .split_once(' ')
        .ok_or_else(|| err(format!("heap probe printed {text:?}")))?;
    let mb = mb
        .parse()
        .map_err(|_| err(format!("heap probe printed {text:?}")))?;
    Ok((mb, of.to_string()))
}

/// The end-to-end metrics of an untraced run, with the record fields
/// that say how many samples they rest on.
fn end_to_end(
    m: &e2e::Measurement,
    (peak_heap_mb, heap_of): (f64, String),
) -> std::io::Result<(Vec<Metric>, String)> {
    let n = m.latencies_ms.len();
    let pct = |p| stats::percentile(&m.latencies_ms, p).unwrap_or(f64::NAN);
    let metrics = vec![
        (
            "setup_s",
            stats::median(&m.setup_s).unwrap_or(f64::NAN),
            "s",
        ),
        ("reads_per_s", m.reads as f64 / m.timed_s, "1/s"),
        ("read_p50_ms", pct(50.0), "ms"),
        ("read_p90_ms", pct(90.0), "ms"),
        ("cpu_ms_per_read", m.cpu_s * 1e3 / m.reads as f64, "ms"),
        ("peak_heap_mb", peak_heap_mb, "MB"),
        (
            "read_ok_rate",
            1.0 - error_rate(m.verdicts.failed(), m.verdicts.attempted()),
            "ratio",
        ),
    ];
    let setups: Vec<String> = m.setup_s.iter().map(|s| s.to_string()).collect();
    let fields = format!(
        "\"exec_threads\": {}, \"corridor_workers\": {}, \"setup_samples_s\": [{}], \
         \"timed_s\": {}, \"timed_reads\": {}, \"cpu_s\": {}, \"latency_samples\": {n}, \
         \"latency_of\": {}, \"p90_samples_beyond\": {}, \"p90_resolved\": {}, \
         \"read_error_rate\": {}, \"peak_heap_of\": {}, \"vm_hwm_mb\": {}",
        m.exec_threads,
        m.corridor_workers.map_or("null".into(), |w| w.to_string()),
        setups.join(", "),
        m.timed_s,
        m.reads,
        m.cpu_s,
        json_str(m.latency_of),
        stats::samples_beyond(n, 90.0),
        stats::tail_is_resolved(n, 90.0),
        error_rate(m.verdicts.failed(), m.verdicts.attempted()),
        json_str(&heap_of),
        procfs::peak_rss_mb()?,
    );
    Ok((metrics, fields))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rosbench: {e}");
            eprintln!(
                "usage: rosbench --workload <corridor|replay|full_pipeline|fast_sweep> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <path>] [--heap-probe]"
            );
            return ExitCode::from(2);
        }
    };
    if args.heap_probe {
        heap::enable();
        let (mb, of) = e2e::heap_probe(args.workload, args.seed);
        println!("{mb} {of}");
        return ExitCode::SUCCESS;
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "[rosbench] workload {} seed {} seconds {} trace {} on {nproc} cores",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let (metrics, attempted, failed, divergences, fields) = if args.trace {
        let l = ledger::run(args.workload, args.seed, args.seconds);
        let overheads: Vec<String> = l
            .overheads
            .iter()
            .map(|(w, o)| format!("{}: {o}", json_str(w.name())))
            .collect();
        let fields = format!(
            "\"exec_threads\": {}, \"speedup_threads\": {}, \"corridor_workers\": {}, \
             \"trace_overheads\": {{{}}}",
            e2e::DRIVE_THREADS,
            ledger::speedup_threads(),
            scenario::CORRIDOR_WORKERS,
            overheads.join(", ")
        );
        let (attempted, failed) = (l.verdicts.attempted(), l.verdicts.failed());
        (l.metrics, attempted, failed, l.divergences, fields)
    } else {
        let measured = match args.workload {
            Workload::Corridor => e2e::corridor(args.seed, args.seconds),
            Workload::Replay => e2e::replay(args.seed, args.seconds),
            Workload::FullPipeline => e2e::full_pipeline(args.seed, args.seconds),
            Workload::FastSweep => e2e::fast_sweep(args.seed, args.seconds),
        };
        let m = match measured {
            Ok(m) => m,
            Err(e) => {
                eprintln!("rosbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (metrics, fields) = match probe_heap(&args).and_then(|heap| end_to_end(&m, heap)) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("rosbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (attempted, failed) = (m.verdicts.attempted(), m.verdicts.failed());
        (metrics, attempted, failed, m.divergences, fields)
    };

    if attempted == 0 {
        eprintln!("rosbench: no read completed");
        return ExitCode::FAILURE;
    }
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("rosbench: metric {name} is {value}");
        return ExitCode::FAILURE;
    }
    for (name, value, unit) in &metrics {
        eprintln!("[rosbench] {name:<36} {value:>14.6} {unit}");
    }
    for d in &divergences {
        eprintln!("[rosbench] DIVERGENCE {d}");
    }
    let correct = divergences.is_empty();
    let record = format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"run_seconds\": {}, \
         \"commit\": {}, \"nproc\": {nproc}, \"attempted\": {attempted}, \"failed\": {failed}, \
         {fields}, \"metrics\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        args.seconds,
        json_str(&commit()),
        metrics_json(&metrics),
    );
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{record}\n")) {
            eprintln!("rosbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a = args("--workload replay --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Replay);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload corridor --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload corridor --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload corridor --seconds 5 --trace 0").is_err());
        assert!(args("--workload corridor --seed 1 --seconds").is_err());
        let a = args("--workload corridor --seed 1 --seconds 1 --trace 0 --heap-probe");
        assert!(a.expect("valid").heap_probe);
    }

    #[test]
    fn error_rate_counts_against_reads_attempted() {
        assert_eq!(error_rate(0, 200), 0.0);
        assert_eq!(error_rate(3, 1200), 0.0025);
    }

    #[test]
    fn verdicts_count_each_distinct_read_once() {
        let mut v = Verdicts::default();
        for _ in 0..3 {
            for i in 0..4 {
                v.record("corridor", i, i == 2);
            }
        }
        v.record("replay", 2, false);
        assert_eq!((v.attempted(), v.failed()), (5, 1));
        // A repeat keeps the read's first verdict.
        v.record("corridor", 2, false);
        assert_eq!(v.failed(), 1);
        assert_eq!(error_rate(v.failed(), v.attempted()), 0.2);
    }

    #[test]
    fn result_json_escapes_and_keeps_every_digit() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        let m = metrics_json(&[("setup_s", 0.812_734_1, "s"), ("reads_per_s", 70.0, "1/s")]);
        assert_eq!(
            m,
            "{\"setup_s\": {\"value\": 0.8127341, \"unit\": \"s\"}, \
             \"reads_per_s\": {\"value\": 70, \"unit\": \"1/s\"}}"
        );
    }
}
