//! Untraced runs: repeated set-up, then a closed loop of timed reads
//! (the next call starts when the previous one returns).

use crate::heap;
use crate::procfs;
use crate::scenario::{
    corridor_config, fast_sweep_drives, full_pipeline_drives, paper_tags, Drive, ReadKey,
    CORRIDOR_WORKERS, SOLO_PASS,
};
use crate::{Verdicts, Workload};
use ros_cache::GeomCache;
use ros_core::reader::ReaderConfig;
use ros_core::stream::{DriveBySource, FrameSource, SignRead, StreamEvent, StreamingReader};
use ros_exec::ThreadGuard;
use ros_serve::{run_corridor_with, CorridorConfig};
use std::io;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Passes re-read through the equivalent batch or streaming path
/// after the timed phase.
const SAMPLE_CHECKS: usize = 4;

/// What one untraced run measured.
pub struct Measurement {
    /// Wall time of each set-up \[s\].
    pub setup_s: Vec<f64>,
    /// Reads completed in the timed phase.
    pub reads: u64,
    /// Each distinct read's verdict (wrong or not), counted once.
    pub verdicts: Verdicts,
    /// One latency per timed public call \[ms\]: per read, except on
    /// the corridor, whose call returns all its reads together.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed phase \[s\].
    pub timed_s: f64,
    /// Process CPU time (all threads) over the timed phase \[s\].
    pub cpu_s: f64,
    /// Correctness checks that failed.
    pub divergences: Vec<String>,
    /// Pinned `ros_exec` worker threads.
    pub exec_threads: usize,
    /// Corridor shards, where the workload runs the corridor.
    pub corridor_workers: Option<usize>,
    /// What one latency sample times.
    pub latency_of: &'static str,
}

/// Exec threads of the drive-by workloads. One: on a small shared
/// host, two threads of `DriveBy::run`'s frame-level par_map time the
/// scheduler as much as the reader.
pub const DRIVE_THREADS: usize = 1;

/// Runs `f` [`SETUP_REPS`] times and keeps the last result. Earlier
/// results are dropped before the next set-up starts, so memory holds
/// one set-up at a time.
fn set_up<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up"))
}

/// Per-read bookkeeping of the timed phase.
#[derive(Default)]
struct Tally {
    reads: u64,
    latencies_ms: Vec<f64>,
    verdicts: Verdicts,
    divergences: Vec<String>,
}

impl Tally {
    /// Counts a timed read: read `index` of the workload's scenario.
    fn read(&mut self, workload: Workload, index: usize, wrong: bool) {
        self.reads += 1;
        self.verdicts.record(workload.name(), index, wrong);
    }

    fn measurement(
        self,
        setup_s: Vec<f64>,
        (timed_s, cpu_s): (f64, f64),
        exec_threads: usize,
        corridor_workers: Option<usize>,
        latency_of: &'static str,
    ) -> Measurement {
        Measurement {
            setup_s,
            reads: self.reads,
            latencies_ms: self.latencies_ms,
            verdicts: self.verdicts,
            timed_s,
            cpu_s,
            divergences: self.divergences,
            exec_threads,
            corridor_workers,
            latency_of,
        }
    }

    fn diverge(&mut self, what: String) {
        // The first few messages are enough to act on; later ones repeat them.
        if self.divergences.len() < 8 {
            self.divergences.push(what);
        }
    }
}

/// Repeats `rep` until `seconds` of wall time have passed and it has
/// run at least `min_reps` times (so that every distinct read of the
/// scenario is made); returns the timed wall and CPU seconds.
fn timed(seconds: f64, min_reps: usize, mut rep: impl FnMut()) -> io::Result<(f64, f64)> {
    let cpu0 = procfs::process_cpu_s()?;
    let t0 = Instant::now();
    for done in 1.. {
        rep();
        if done >= min_reps && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    Ok((wall, procfs::process_cpu_s()? - cpu0))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn sample_indices(n: usize) -> impl Iterator<Item = usize> {
    (0..SAMPLE_CHECKS)
        .map(move |k| k * n / SAMPLE_CHECKS)
        .filter(move |&i| i < n)
}

fn check_read(tally: &mut Tally, label: &str, got: &ReadKey, want: &ReadKey) {
    if got != want {
        tally.diverge(format!("{label}: got {got:?}, expected {want:?}"));
    }
}

/// Every pass of the corridor as one event stream, recorded serially
/// one encounter after another (so each pass's events are contiguous).
/// The buffer is sized exactly up front: a doubling buffer would make
/// the peak resident memory depend on where the allocator moved it.
pub fn record_events(cfg: &CorridorConfig, cache: &GeomCache) -> Vec<StreamEvent> {
    let mut sources: Vec<_> = cfg
        .encounters()
        .iter()
        .map(|e| cfg.source_for_with(e, cache))
        .collect();
    // PassStart and PassEnd frame each pass's frames.
    let mut events = Vec::with_capacity(sources.iter().map(|s| s.n_frames() + 2).sum());
    for src in &mut sources {
        while src.next_events(cfg.chunk_frames, &mut events) {}
    }
    events
}

/// Feeds `events` through `reader` and returns the reads in order.
pub fn replay_once(reader: &mut StreamingReader, events: &[StreamEvent]) -> Vec<SignRead> {
    events.iter().filter_map(|ev| reader.ingest(*ev)).collect()
}

/// One drive-by streamed through a fresh reader: the streaming
/// equivalent of `DriveBy::run` with the fast reader.
pub fn stream_once(drive: &Drive, cfg: &ReaderConfig) -> Option<SignRead> {
    let mut src = DriveBySource::new(drive.scenario.clone(), cfg, SOLO_PASS);
    let mut reader = StreamingReader::new(cfg.decoder);
    let mut events = Vec::new();
    let mut read = None;
    loop {
        events.clear();
        let more = src.next_events(128, &mut events);
        for ev in events.drain(..) {
            read = read.or(reader.ingest(ev));
        }
        if !more {
            break;
        }
    }
    read
}

/// corridor: `run_corridor_with` at one worker with a warm cache. Every
/// read of a call returns when the call does, so the latency sample is
/// the call's wall time, one per call.
pub fn corridor(seed: u64, seconds: f64) -> io::Result<Measurement> {
    // The one-shard corridor calls no par_map; the pin keeps it so.
    let _pin = ThreadGuard::pin(Some(1));
    let (setup_s, (cfg, cache, warm)) = set_up(|| {
        let cfg = corridor_config(seed);
        let cache = GeomCache::new();
        let warm = run_corridor_with(&cfg, CORRIDOR_WORKERS, &cache);
        (cfg, cache, warm)
    });
    let encounters = cfg.encounters();
    let expected: Vec<ReadKey> = warm.reads.iter().map(ReadKey::of_read).collect();
    let mut tally = Tally::default();
    if expected.len() != encounters.len() {
        tally.diverge(format!(
            "{} reads for {} passes",
            expected.len(),
            encounters.len()
        ));
    }
    let timed = timed(seconds, 1, || {
        let t = Instant::now();
        let report = run_corridor_with(&cfg, CORRIDOR_WORKERS, &cache);
        tally.latencies_ms.push(ms_since(t));
        if report.reads.len() != encounters.len() {
            tally.diverge(format!(
                "{} reads for {} passes",
                report.reads.len(),
                encounters.len()
            ));
        }
        for (i, ((read, e), want)) in report
            .reads
            .iter()
            .zip(&encounters)
            .zip(&expected)
            .enumerate()
        {
            let got = ReadKey::of_read(read);
            tally.read(
                Workload::Corridor,
                i,
                read.pass != e.pass || got.is_wrong(&e.word),
            );
            check_read(&mut tally, &read.pass.label(), &got, want);
        }
    })?;
    // Streaming ≡ batch: the batch fast reader on the same encounter
    // must reproduce the corridor's read exactly.
    for i in sample_indices(encounters.len().min(expected.len())) {
        let batch = cfg.drive_for_with(&encounters[i], &cache).run(&cfg.reader);
        let label = format!("batch {}", encounters[i].pass.label());
        check_read(
            &mut tally,
            &label,
            &ReadKey::of_outcome(&batch),
            &expected[i],
        );
    }
    Ok(tally.measurement(
        setup_s,
        timed,
        1,
        Some(CORRIDOR_WORKERS),
        "run_corridor_with call (one sample per call of 200 reads)",
    ))
}

/// replay: the corridor's recorded events through one
/// `StreamingReader` on one thread. A read's latency is its pass's
/// ingest calls, from `PassStart` to the `PassEnd` that returns it.
pub fn replay(seed: u64, seconds: f64) -> io::Result<Measurement> {
    let _pin = ThreadGuard::pin(Some(1));
    let (setup_s, (cfg, cache, events, mut reader, expected)) = set_up(|| {
        let cfg = corridor_config(seed);
        let cache = GeomCache::new();
        let events = record_events(&cfg, &cache);
        let mut reader = StreamingReader::new(cfg.reader.decoder);
        let expected: Vec<ReadKey> = replay_once(&mut reader, &events)
            .iter()
            .map(ReadKey::of_read)
            .collect();
        (cfg, cache, events, reader, expected)
    });
    let encounters = cfg.encounters();
    let mut tally = Tally::default();
    if expected.len() != encounters.len() {
        tally.diverge(format!(
            "{} reads for {} passes",
            expected.len(),
            encounters.len()
        ));
    }
    let timed = timed(seconds, 1, || {
        let mut k = 0;
        let mut t = Instant::now();
        for ev in &events {
            if matches!(ev, StreamEvent::PassStart { .. }) {
                t = Instant::now();
            }
            if let Some(read) = reader.ingest(*ev) {
                tally.latencies_ms.push(ms_since(t));
                match (encounters.get(k), expected.get(k)) {
                    (Some(e), Some(want)) => {
                        let got = ReadKey::of_read(&read);
                        tally.read(
                            Workload::Replay,
                            k,
                            read.pass != e.pass || got.is_wrong(&e.word),
                        );
                        check_read(&mut tally, &read.pass.label(), &got, want);
                    }
                    _ => tally.diverge(format!("unexpected read {}", read.pass.label())),
                }
                k += 1;
            }
        }
    })?;
    // The corridor service must produce the replay's read log. The
    // events go first, so the check's buffers cannot raise the peak.
    drop((events, reader));
    let report = run_corridor_with(&cfg, CORRIDOR_WORKERS, &cache);
    let corridor: Vec<ReadKey> = report.reads.iter().map(ReadKey::of_read).collect();
    if corridor != expected {
        tally.diverge("replay read log differs from the corridor's".to_string());
    }
    Ok(tally.measurement(
        setup_s,
        timed,
        1,
        None,
        "one pass's StreamingReader::ingest calls",
    ))
}

/// The drive-by workloads: `DriveBy::run` over a fixed list of
/// scenarios, cycled in order. Each read is one call; the timed phase
/// makes every drive at least once.
fn drive_loop(
    workload: Workload,
    seconds: f64,
    cfg: &ReaderConfig,
    build: impl Fn(&[ros_core::tag::Tag]) -> Vec<Drive>,
    stream_check: bool,
) -> io::Result<Measurement> {
    let _pin = ThreadGuard::pin(Some(DRIVE_THREADS));
    let (setup_s, (drives, mut first)) = set_up(|| {
        let cache = GeomCache::new();
        let drives = build(&paper_tags(&cache));
        let mut first: Vec<Option<ReadKey>> = vec![None; drives.len()];
        first[0] = Some(ReadKey::of_outcome(&drives[0].scenario.run(cfg)));
        (drives, first)
    });
    let mut tally = Tally::default();
    let mut k = 0;
    let timed = timed(seconds, drives.len(), || {
        let drive = &drives[k];
        let t = Instant::now();
        let outcome = drive.scenario.run(cfg);
        tally.latencies_ms.push(ms_since(t));
        let got = ReadKey::of_outcome(&outcome);
        tally.read(workload, k, got.is_wrong(&drive.word));
        match &first[k] {
            Some(want) => check_read(&mut tally, &format!("drive {k}"), &got, want),
            None => first[k] = Some(got),
        }
        k = (k + 1) % drives.len();
    })?;
    if stream_check {
        // Streaming ≡ batch on a sample of the sweep's passes.
        for i in sample_indices(drives.len()) {
            let want = first[i]
                .clone()
                .unwrap_or_else(|| ReadKey::of_outcome(&drives[i].scenario.run(cfg)));
            match stream_once(&drives[i], cfg) {
                Some(read) => check_read(
                    &mut tally,
                    &format!("stream drive {i}"),
                    &ReadKey::of_read(&read),
                    &want,
                ),
                None => tally.diverge(format!("stream drive {i}: no read")),
            }
        }
    }
    Ok(tally.measurement(setup_s, timed, DRIVE_THREADS, None, "DriveBy::run call"))
}

/// full_pipeline: `DriveBy::run` with `ReaderConfig::full`.
pub fn full_pipeline(seed: u64, seconds: f64) -> io::Result<Measurement> {
    drive_loop(
        Workload::FullPipeline,
        seconds,
        &ReaderConfig::full(),
        |tags| full_pipeline_drives(seed, tags),
        false,
    )
}

/// fast_sweep: `DriveBy::run` with `ReaderConfig::fast`.
pub fn fast_sweep(seed: u64, seconds: f64) -> io::Result<Measurement> {
    drive_loop(
        Workload::FastSweep,
        seconds,
        &ReaderConfig::fast(),
        |tags| fast_sweep_drives(seed, tags),
        true,
    )
}

/// The heap probe: one set-up and one cycle of `workload`'s reads,
/// untimed, in a process that counts heap (see `heap.rs`). Returns the
/// peak live heap in MiB and what it covers.
///
/// Replay's recorded events are the benchmark's input, not memory the
/// reader holds, so its figure is the peak above the heap live once
/// they are recorded: the reader's own.
pub fn heap_probe(workload: Workload, seed: u64) -> (f64, &'static str) {
    match workload {
        Workload::Corridor => {
            let _pin = ThreadGuard::pin(Some(1));
            let cfg = corridor_config(seed);
            let cache = GeomCache::new();
            for _ in 0..2 {
                run_corridor_with(&cfg, CORRIDOR_WORKERS, &cache);
            }
            (heap::peak_mb(), "process: cold and warm run_corridor_with")
        }
        Workload::Replay => {
            let _pin = ThreadGuard::pin(Some(1));
            let cfg = corridor_config(seed);
            let cache = GeomCache::new();
            let events = record_events(&cfg, &cache);
            heap::reset_peak();
            let base = heap::live_mb();
            let mut reader = StreamingReader::new(cfg.reader.decoder);
            for _ in 0..2 {
                replay_once(&mut reader, &events);
            }
            (
                heap::peak_mb() - base,
                "reader: peak above the heap live after recording",
            )
        }
        Workload::FullPipeline => drive_probe(&ReaderConfig::full(), |tags| {
            full_pipeline_drives(seed, tags)
        }),
        Workload::FastSweep => {
            drive_probe(&ReaderConfig::fast(), |tags| fast_sweep_drives(seed, tags))
        }
    }
}

fn drive_probe(
    cfg: &ReaderConfig,
    build: impl Fn(&[ros_core::tag::Tag]) -> Vec<Drive>,
) -> (f64, &'static str) {
    let _pin = ThreadGuard::pin(Some(DRIVE_THREADS));
    let cache = GeomCache::new();
    for drive in build(&paper_tags(&cache)) {
        drive.scenario.run(cfg);
    }
    (
        heap::peak_mb(),
        "process: tag set-up and every DriveBy::run once",
    )
}
