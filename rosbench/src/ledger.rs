//! The traced run: a per-layer ledger of every workload.
//!
//! Layer times come from timers the benchmark puts around calls into
//! each crate's public functions. `DriveBy::run` with the full reader
//! has no public entry point per stage, so its stages are read from the
//! program's own `ros-obs` spans, switched on (with the monotonic
//! clock) only for the traced half of the full_pipeline section.
//!
//! Each section alternates untraced and traced repetitions of the same
//! work, so the traced share of time (`trace.overhead`) and the
//! unattributed remainder (`<workload>.unattributed_share`) are
//! measured on the same inputs.

use crate::e2e::{replay_once, stream_once, DRIVE_THREADS};
use crate::scenario::{
    corridor_config, fast_sweep_drives, full_pipeline_drives, paper_tags, Drive, ReadKey,
    CORRIDOR_WORKERS, SOLO_PASS,
};
use crate::stats::median;
use crate::{Metric, Verdicts, Workload};
use ros_cache::GeomCache;
use ros_core::reader::ReaderConfig;
use ros_core::stream::{DriveBySource, FrameSource, StreamEvent, StreamingReader};
use ros_exec::ThreadGuard;
use ros_radar::echo::{Echo, Pose};
use ros_radar::radar::{CaptureScratch, RadarMode};
use ros_scene::reflector::{EchoContext, Reflector};
use ros_serve::{run_corridor_with, CorridorConfig};
use std::time::{Duration, Instant};

/// Everything a traced run reports.
#[derive(Default)]
pub struct Ledger {
    /// Per-layer metrics in print order: name, value, unit.
    pub metrics: Vec<Metric>,
    /// Each workload's `trace.overhead`.
    pub overheads: Vec<(Workload, f64)>,
    /// Each distinct read made while tracing, and whether it was wrong.
    pub verdicts: Verdicts,
    pub divergences: Vec<String>,
}

impl Ledger {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn read(&mut self, workload: Workload, index: usize, key: &ReadKey, word: &[bool; 4]) {
        self.verdicts
            .record(workload.name(), index, key.is_wrong(word));
    }

    fn check(&mut self, label: &str, got: &ReadKey, want: &ReadKey) {
        if got != want && self.divergences.len() < 8 {
            self.divergences
                .push(format!("{label}: got {got:?}, expected {want:?}"));
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// The median of `f` over `items`.
fn med_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    med(&items.iter().map(f).collect::<Vec<_>>())
}

/// `1 − part ÷ whole`: the share of `whole` that `part` leaves
/// unexplained.
fn unexplained(part: f64, whole: f64) -> f64 {
    1.0 - part / whole
}

/// Prints one workload's layer table to stderr: each layer's time per
/// read and its share of the end-to-end time per read.
fn print_table(workload: &str, e2e_per_read_s: f64, layers: &[(&str, f64)]) {
    eprintln!(
        "[ledger] {workload}: end to end {:.3} ms per read",
        e2e_per_read_s * 1e3
    );
    for (name, s) in layers {
        eprintln!(
            "[ledger]   {name:<28} {:>10.4} ms/read {:>6.1}%",
            s * 1e3,
            100.0 * s / e2e_per_read_s
        );
    }
    let sum: f64 = layers.iter().map(|(_, s)| s).sum();
    eprintln!(
        "[ledger]   {:<28} {:>10.4} ms/read {:>6.1}%",
        "unattributed",
        (e2e_per_read_s - sum) * 1e3,
        100.0 * unexplained(sum, e2e_per_read_s)
    );
}

/// Runs every section; `selected` names the workload whose overhead is
/// reported as `trace.overhead`. Each section gets a quarter of
/// `seconds` and always completes at least one traced repetition.
pub fn run(selected: Workload, seed: u64, seconds: f64) -> Ledger {
    let budget = Duration::from_secs_f64(seconds / 4.0);
    let mut ledger = Ledger::default();
    corridor_and_replay(seed, budget, &mut ledger);
    full_pipeline(seed, budget, &mut ledger);
    fast_sweep(seed, budget, &mut ledger);
    let overhead = ledger
        .overheads
        .iter()
        .find(|(w, _)| *w == selected)
        .map_or(f64::NAN, |(_, o)| *o);
    ledger.put("trace.overhead", overhead, "ratio");
    ledger
}

/// Producer layers of one serial pass over the corridor's encounters.
struct ProducerTrace {
    source_new_s: f64,
    produce_s: f64,
    frames: usize,
    passes: usize,
    /// Wall time of the traced and of the untraced production.
    traced_s: f64,
    plain_s: f64,
}

/// `e2e::record_events` with a timer around each `source_for_with` and
/// each `next_events` call. Each encounter is also produced once
/// untimed, right before its traced production, so that host drift
/// falls on both sides of the tracing overhead alike.
fn record_events_traced(
    cfg: &CorridorConfig,
    cache: &GeomCache,
) -> (Vec<StreamEvent>, ProducerTrace) {
    let mut events = Vec::new();
    let mut scratch = Vec::new();
    let (mut source_new, mut produce) = (Duration::ZERO, Duration::ZERO);
    let (mut traced, mut plain) = (Duration::ZERO, Duration::ZERO);
    let encounters = cfg.encounters();
    for e in &encounters {
        let t = Instant::now();
        let mut src = cfg.source_for_with(e, cache);
        scratch.clear();
        while src.next_events(cfg.chunk_frames, &mut scratch) {}
        plain += t.elapsed();

        let t0 = Instant::now();
        let t = Instant::now();
        let mut src = cfg.source_for_with(e, cache);
        source_new += t.elapsed();
        loop {
            let t = Instant::now();
            let more = src.next_events(cfg.chunk_frames, &mut events);
            produce += t.elapsed();
            if !more {
                break;
            }
        }
        traced += t0.elapsed();
    }
    let frames = events
        .iter()
        .filter(|ev| matches!(ev, StreamEvent::Frame { .. }))
        .count();
    let trace = ProducerTrace {
        source_new_s: secs(source_new),
        produce_s: secs(produce),
        frames,
        passes: encounters.len(),
        traced_s: secs(traced),
        plain_s: secs(plain),
    };
    (events, trace)
}

/// Reader layers of one replay: frame ingest (with `PassStart`) and the
/// `PassEnd` ingest that decodes. Timers sit at pass boundaries only,
/// because one frame's ingest is shorter than a timer read.
struct ReaderTrace {
    ingest_s: f64,
    decode_s: f64,
    frames: usize,
    passes: usize,
    wall_s: f64,
    reads: Vec<ReadKey>,
}

fn replay_traced(reader: &mut StreamingReader, events: &[StreamEvent]) -> ReaderTrace {
    let t0 = Instant::now();
    let (mut ingest, mut decode) = (Duration::ZERO, Duration::ZERO);
    let mut reads = Vec::new();
    let mut frames = 0;
    let mut t = Instant::now();
    for ev in events {
        match ev {
            StreamEvent::PassEnd { .. } => {
                let t_end = Instant::now();
                ingest += t_end - t;
                let read = reader.ingest(*ev);
                decode += t_end.elapsed();
                reads.extend(read.as_ref().map(ReadKey::of_read));
                t = Instant::now();
            }
            _ => {
                frames += usize::from(matches!(ev, StreamEvent::Frame { .. }));
                reader.ingest(*ev);
            }
        }
    }
    ReaderTrace {
        ingest_s: secs(ingest),
        decode_s: secs(decode),
        frames,
        passes: reads.len(),
        wall_s: secs(t0.elapsed()),
        reads,
    }
}

/// corridor and replay share one scenario: the serial producer pass
/// that splits the corridor's time also records the replay's events.
fn corridor_and_replay(seed: u64, budget: Duration, ledger: &mut Ledger) {
    let _pin = ThreadGuard::pin(Some(1));
    let cfg = corridor_config(seed);
    let encounters = cfg.encounters();
    let cache = GeomCache::new();
    let cold = run_corridor_with(&cfg, CORRIDOR_WORKERS, &cache);
    let expected: Vec<ReadKey> = cold.reads.iter().map(ReadKey::of_read).collect();

    let (mut wall, mut hits, mut stalls, mut occupancy) = (vec![], vec![], vec![], vec![]);
    let mut producers = vec![];
    let (mut reader_plain, mut readers) = (vec![], vec![]);
    let start = Instant::now();
    // Warm corridor calls before and after each serial producer pass,
    // so that host drift falls on both sides of the overhead share.
    let mut warm_call = |ledger: &mut Ledger| {
        let t = Instant::now();
        let warm = run_corridor_with(&cfg, CORRIDOR_WORKERS, &cache);
        wall.push(secs(t.elapsed()) / warm.reads.len().max(1) as f64);
        hits.push(warm.cache_hits as f64 / warm.frames_produced.max(1) as f64);
        stalls.push(warm.stalls as f64);
        occupancy.push(warm.max_occupancy as f64);
        let got: Vec<ReadKey> = warm.reads.iter().map(ReadKey::of_read).collect();
        if got != expected {
            ledger
                .divergences
                .push("warm corridor log differs from the cold one".into());
        }
    };
    loop {
        warm_call(ledger);
        let (events, trace) = record_events_traced(&cfg, &cache);
        producers.push(trace);
        warm_call(ledger);

        let mut reader = StreamingReader::new(cfg.reader.decoder);
        drop(replay_once(&mut reader, &events));
        for _ in 0..5 {
            let t = Instant::now();
            drop(replay_once(&mut reader, &events));
            reader_plain.push(secs(t.elapsed()));
            let trace = replay_traced(&mut reader, &events);
            for (i, key) in trace.reads.iter().enumerate() {
                match (expected.get(i), encounters.get(i)) {
                    (Some(want), Some(e)) => {
                        ledger.check(&format!("replay {}", e.pass.label()), key, want);
                        ledger.read(Workload::Replay, i, key, &e.word);
                    }
                    _ => ledger.divergences.push("replay made extra reads".into()),
                }
            }
            readers.push(trace);
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    let passes = producers[0].passes as f64;
    let source_new = med_by(&producers, |p| p.source_new_s / passes);
    let produce = med_by(&producers, |p| p.produce_s / passes);
    let frames_per_pass = producers[0].frames as f64 / passes;
    let ingest = med_by(&readers, |r| r.ingest_s / r.passes as f64);
    let decode = med_by(&readers, |r| r.decode_s / r.passes as f64);
    let frames_per_read = readers[0].frames as f64 / readers[0].passes as f64;
    let wall = med(&wall);
    let producer = source_new + produce;
    let reader_side = ingest + decode;

    ledger.put("core.stream.source_new_us", source_new * 1e6, "us");
    ledger.put(
        "core.stream.produce_us_per_frame",
        produce / frames_per_pass * 1e6,
        "us",
    );
    ledger.put(
        "core.stream.ingest_ns_per_frame",
        ingest / frames_per_read * 1e9,
        "ns",
    );
    ledger.put("core.decode.pass_us", decode * 1e6, "us");
    ledger.put("ros_cache.hits_per_frame", med(&hits), "hits/frame");
    ledger.put("ros_cache.misses", cold.cache_misses as f64, "count");
    ledger.put("ros_serve.stalls", med(&stalls), "count");
    ledger.put("ros_serve.max_occupancy", med(&occupancy), "count");
    ledger.put(
        "ros_serve.overhead_share",
        unexplained(producer, wall),
        "ratio",
    );
    ledger.put(
        "ros_serve.decode_share",
        reader_side / (producer + reader_side),
        "ratio",
    );
    ledger.put(
        "corridor.unattributed_share",
        unexplained(producer + reader_side, wall),
        "ratio",
    );

    let replay_wall = med(&reader_plain) / passes;
    ledger.put(
        "replay.unattributed_share",
        unexplained(reader_side, replay_wall),
        "ratio",
    );

    let producer_plain = med_by(&producers, |p| p.plain_s);
    let producer_traced = med_by(&producers, |p| p.traced_s);
    let reader_traced = med_by(&readers, |r| r.wall_s);
    ledger.overheads.push((
        Workload::Corridor,
        unexplained(producer_plain, producer_traced),
    ));
    ledger.overheads.push((
        Workload::Replay,
        unexplained(med(&reader_plain), reader_traced),
    ));

    print_table(
        "corridor (1 worker: producer and decode threads overlap)",
        wall,
        &[
            ("core.stream source_new", source_new),
            ("core.stream produce", produce),
            ("core.stream ingest (decode thread)", ingest),
            ("core.decode pass (decode thread)", decode),
        ],
    );
    eprintln!(
        "[ledger]   producer vs decode split: producer {:.1}% / decode {:.1}% of layer time",
        100.0 * producer / (producer + reader_side),
        100.0 * reader_side / (producer + reader_side)
    );
    print_table(
        "replay",
        replay_wall,
        &[("core.stream ingest", ingest), ("core.decode pass", decode)],
    );
}

/// Sums and counts of the program's spans and counters over one traced
/// full-pipeline drive-by.
struct SpanTotals {
    echoes_s: f64,
    capture_s: f64,
    detect_s: f64,
    dbscan_s: f64,
    score_s: f64,
    spotlight_s: f64,
    decode_s: f64,
    frames: f64,
    detect_calls: f64,
    points: f64,
}

/// The `field` of metric `name` in a `ros_obs` metrics JSON array, or 0
/// when the metric was not touched.
fn metric_field(json: &str, name: &str, field: &str) -> f64 {
    let Some(at) = json.find(&format!("\"name\":\"{name}\"")) else {
        return 0.0;
    };
    let object = &json[at..json[at..].find('}').map_or(json.len(), |end| at + end)];
    let key = format!("\"{field}\":");
    object
        .find(&key)
        .map(|i| &object[i + key.len()..])
        .and_then(|v| v.split(',').next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

impl SpanTotals {
    fn from_metrics(json: &str) -> Self {
        let ns = |stage: &str| metric_field(json, &format!("time.{stage}"), "sum") * 1e-9;
        SpanTotals {
            echoes_s: ns("reader.gather_echoes"),
            capture_s: ns("radar.capture_batch"),
            detect_s: ns("reader.detect"),
            dbscan_s: ns("dsp.dbscan"),
            score_s: ns("detector.score"),
            spotlight_s: ns("reader.spotlight"),
            decode_s: ns("decode"),
            frames: metric_field(json, "radar.frames_synthesized", "value"),
            detect_calls: metric_field(json, "radar.points_per_frame", "count"),
            points: metric_field(json, "reader.cloud_points", "value"),
        }
    }
}

/// The switched-mode capture jobs of one pass, built from public scene
/// and radar types the way the full reader builds them.
fn capture_jobs(drive: &Drive, cfg: &ReaderConfig) -> Vec<(Pose, Vec<Echo>)> {
    let d = &drive.scenario;
    let ctx = EchoContext {
        budget: d.radar.budget,
        fog: d.fog,
        ground_coeff: d.ground_coeff,
    };
    let (tx, rx) = RadarMode::PolarizationSwitched.polarizations(d.radar.array.native_pol);
    let mut reflectors: Vec<&dyn Reflector> = vec![&d.tag];
    reflectors.extend(d.clutter.iter().map(|c| c as &dyn Reflector));
    let (_, truth, _) = d.track(cfg);
    truth
        .iter()
        .map(|&pos| {
            let echoes = reflectors
                .iter()
                .flat_map(|r| r.echoes(pos, tx, rx, &ctx))
                .map(|e| Echo::new(e.pos, e.amp))
                .collect();
            (Pose::side_looking(pos), echoes)
        })
        .collect()
}

/// The parallel side of `ros_exec.capture_speedup`: two threads, or
/// fewer on a smaller host, never the automatic count.
pub fn speedup_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Median wall time of `capture_batch_with` over `jobs` at `threads`.
fn capture_time(drive: &Drive, jobs: &[(Pose, Vec<Echo>)], threads: usize) -> f64 {
    use rand::SeedableRng;
    let _pin = ThreadGuard::pin(Some(threads));
    let mut scratch = CaptureScratch::default();
    let mut frames = Vec::new();
    let times: Vec<f64> = (0..4)
        .map(|_| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(drive.scenario.seed);
            frames.clear();
            let t = Instant::now();
            drive
                .scenario
                .radar
                .capture_batch_with(jobs, &mut rng, &mut scratch, &mut frames);
            secs(t.elapsed())
        })
        .collect();
    // The first call sizes the scratch arena; time only the warm ones.
    med(&times[1..])
}

fn full_pipeline(seed: u64, budget: Duration, ledger: &mut Ledger) {
    let threads = DRIVE_THREADS;
    let _pin = ThreadGuard::pin(Some(threads));
    let cfg = ReaderConfig::full();
    let cache = GeomCache::new();
    let before = cache.snapshot();
    let t = Instant::now();
    let tags = paper_tags(&cache);
    let fill_s = secs(t.elapsed());
    let fill_misses = cache.snapshot().misses() - before.misses();
    let drives = full_pipeline_drives(seed, &tags);
    drop(drives[0].scenario.run(&cfg));

    ros_obs::install_monotonic_clock();
    let (mut plain, mut traced, mut spans, mut clusters) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    for (k, drive) in drives.iter().enumerate().cycle() {
        let t = Instant::now();
        let outcome = drive.scenario.run(&cfg);
        plain.push(secs(t.elapsed()));
        let ((traced_outcome, dt), report) =
            ros_obs::capture_scope(ros_obs::Level::Summary, || {
                let t = Instant::now();
                let o = drive.scenario.run(&cfg);
                (o, secs(t.elapsed()))
            });
        traced.push(dt);
        spans.push(SpanTotals::from_metrics(&report.metrics));
        clusters.push(traced_outcome.clusters.len() as f64);
        let key = ReadKey::of_outcome(&outcome);
        ledger.check(
            &format!("traced drive {k}"),
            &ReadKey::of_outcome(&traced_outcome),
            &key,
        );
        ledger.read(Workload::FullPipeline, k, &key, &drive.word);
        // Every drive once, so the section's reads do not depend on
        // the host's speed.
        if plain.len() >= drives.len() && start.elapsed() >= budget {
            break;
        }
    }
    ros_obs::install_null_clock();

    let per = |f: fn(&SpanTotals) -> f64| med_by(&spans, f);
    let echoes = per(|s| s.echoes_s);
    let capture = per(|s| s.capture_s);
    let detect = per(|s| s.detect_s);
    let dbscan = per(|s| s.dbscan_s);
    let score_self = per(|s| s.score_s - s.dbscan_s);
    let spotlight = per(|s| s.spotlight_s);
    let decode = per(|s| s.decode_s);
    let frames = per(|s| s.frames);
    let detect_calls = per(|s| s.detect_calls);
    let wall = med(&plain);

    let jobs = capture_jobs(&drives[0], &cfg);
    let parallel = speedup_threads();
    let speedup = capture_time(&drives[0], &jobs, 1) / capture_time(&drives[0], &jobs, parallel);

    ledger.put("ros_cache.fill_s", fill_s, "s");
    ledger.put("ros_exec.capture_speedup", speedup, "ratio");
    ledger.put("ros_scene.echoes_us_per_frame", echoes / frames * 1e6, "us");
    ledger.put(
        "ros_radar.capture_us_per_frame",
        capture / frames * 1e6,
        "us",
    );
    ledger.put(
        "ros_radar.detect_us_per_frame",
        detect / detect_calls * 1e6,
        "us",
    );
    ledger.put("ros_radar.spotlight_us", spotlight * 1e6, "us");
    ledger.put("ros_dsp.dbscan_ms_per_pass", dbscan * 1e3, "ms");
    ledger.put("core.detector.score_ms_per_pass", score_self * 1e3, "ms");
    ledger.put("core.decode.full_pass_us", decode * 1e6, "us");
    ledger.put("ros_radar.points_per_pass", per(|s| s.points), "count");
    ledger.put("core.detector.clusters_per_pass", med(&clusters), "count");
    let layers = [
        ("ros_scene echoes", echoes),
        ("ros_radar capture", capture),
        ("ros_radar detect", detect),
        ("ros_dsp dbscan", dbscan),
        ("core.detector score (self)", score_self),
        ("ros_radar spotlight", spotlight),
        ("core.decode", decode),
    ];
    let sum: f64 = layers.iter().map(|(_, s)| s).sum();
    ledger.put(
        "full_pipeline.unattributed_share",
        unexplained(sum, wall),
        "ratio",
    );
    ledger
        .overheads
        .push((Workload::FullPipeline, unexplained(wall, med(&traced))));
    print_table(
        &format!("full_pipeline (exec threads: {threads})"),
        wall,
        &layers,
    );
    eprintln!(
        "[ledger]   cold fill of 16 tag designs: {fill_s:.3} s, {fill_misses} cache misses; \
         capture_batch_with on {} frames: {speedup:.2}x at {parallel} threads vs 1",
        jobs.len()
    );
}

/// Layers of one drive-by streamed through `DriveBySource` and
/// `StreamingReader`: the streaming twin of the fast reader.
#[derive(Default)]
struct StreamTrace {
    source_new_s: f64,
    produce_s: f64,
    ingest_s: f64,
    decode_s: f64,
}

fn stream_traced(drive: &Drive, cfg: &ReaderConfig) -> (Option<ReadKey>, StreamTrace) {
    let scenario = drive.scenario.clone();
    let mut trace = StreamTrace::default();
    let t = Instant::now();
    let mut src = DriveBySource::new(scenario, cfg, SOLO_PASS);
    trace.source_new_s = secs(t.elapsed());
    let mut reader = StreamingReader::new(cfg.decoder);
    let mut events = Vec::new();
    let mut read = None;
    loop {
        events.clear();
        let t = Instant::now();
        let more = src.next_events(128, &mut events);
        trace.produce_s += secs(t.elapsed());
        let t = Instant::now();
        let mut decode_s = 0.0;
        for ev in events.drain(..) {
            if matches!(ev, StreamEvent::PassEnd { .. }) {
                let t_end = Instant::now();
                read = reader.ingest(ev).as_ref().map(ReadKey::of_read);
                decode_s += secs(t_end.elapsed());
            } else {
                reader.ingest(ev);
            }
        }
        trace.ingest_s += secs(t.elapsed()) - decode_s;
        trace.decode_s += decode_s;
        if !more {
            break;
        }
    }
    (read, trace)
}

/// fast_sweep's layers, against `DriveBy::run` at one exec thread so
/// that serial layer times and end-to-end time are comparable.
fn fast_sweep(seed: u64, budget: Duration, ledger: &mut Ledger) {
    let _pin = ThreadGuard::pin(Some(1));
    let cfg = ReaderConfig::fast();
    let cache = GeomCache::new();
    let drives = fast_sweep_drives(seed, &paper_tags(&cache));
    let (mut batch, mut plain, mut traced, mut layers) = (0.0, 0.0, 0.0, StreamTrace::default());
    let mut n = 0usize;
    let start = Instant::now();
    for (k, drive) in drives.iter().enumerate().cycle() {
        let t = Instant::now();
        let outcome = drive.scenario.run(&cfg);
        batch += secs(t.elapsed());
        let t = Instant::now();
        let plain_read = stream_once(drive, &cfg);
        plain += secs(t.elapsed());
        let t = Instant::now();
        let (read, trace) = stream_traced(drive, &cfg);
        traced += secs(t.elapsed());
        layers.source_new_s += trace.source_new_s;
        layers.produce_s += trace.produce_s;
        layers.ingest_s += trace.ingest_s;
        layers.decode_s += trace.decode_s;
        n += 1;

        let want = ReadKey::of_outcome(&outcome);
        let plain_key = plain_read.as_ref().map(ReadKey::of_read);
        for (label, got) in [("stream", plain_key), ("traced stream", read)] {
            match got {
                Some(got) => ledger.check(&format!("{label} drive {k}"), &got, &want),
                None => ledger
                    .divergences
                    .push(format!("{label} drive {k}: no read")),
            }
        }
        ledger.read(Workload::FastSweep, k, &want, &drive.word);
        if n >= drives.len() && start.elapsed() >= budget {
            break;
        }
    }
    let n = n as f64;
    let wall = batch / n;
    let table = [
        ("core.stream source_new", layers.source_new_s / n),
        ("core.stream produce", layers.produce_s / n),
        ("core.stream ingest", layers.ingest_s / n),
        ("core.decode pass", layers.decode_s / n),
    ];
    let sum: f64 = table.iter().map(|(_, s)| s).sum();
    ledger.put(
        "fast_sweep.unattributed_share",
        unexplained(sum, wall),
        "ratio",
    );
    ledger
        .overheads
        .push((Workload::FastSweep, unexplained(plain, traced)));
    print_table(
        "fast_sweep (DriveBy::run at 1 exec thread; layers from the streaming twin)",
        wall,
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_fields_are_read_from_the_named_object_only() {
        let json = r#"[{"name":"time.decode","kind":"histogram","count":3,"sum":1500,"min":400,"max":600},{"name":"reader.cloud_points","kind":"gauge","value":812.5},{"name":"time.decode_extra","kind":"histogram","count":1,"sum":9}]"#;
        assert_eq!(metric_field(json, "time.decode", "sum"), 1500.0);
        assert_eq!(metric_field(json, "time.decode", "count"), 3.0);
        assert_eq!(metric_field(json, "reader.cloud_points", "value"), 812.5);
        assert_eq!(metric_field(json, "reader.cloud_points", "sum"), 0.0);
        assert_eq!(metric_field(json, "time.dsp.dbscan", "sum"), 0.0);
        assert_eq!(metric_field("[]", "time.decode", "sum"), 0.0);
    }

    #[test]
    fn unattributed_share_is_the_remainder_of_the_end_to_end_time() {
        assert!((unexplained(0.75, 1.0) - 0.25).abs() < 1e-12);
        assert_eq!(unexplained(2.0, 2.0), 0.0);
        // Layers that overlap on two threads can sum past the wall time.
        assert!(unexplained(1.2, 1.0) < 0.0);
        let layers = [0.5, 0.2, 0.1];
        let sum: f64 = layers.iter().sum();
        assert!((unexplained(sum, 1.0) - 0.2).abs() < 1e-12);
    }
}
