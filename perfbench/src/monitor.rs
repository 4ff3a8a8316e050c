//! The monitor workloads.
//!
//! * `monitor-paced` — open loop: a generator thread sends pre-encoded
//!   ADP1 frames on a fixed schedule to the monitor thread, which runs a
//!   two-shard `ShardedMonitor` in the README's service configuration
//!   (`ScoringMode::Incremental`, registry defaults, tiers disarmed,
//!   scoring pool of 1): `ingest_frames` and `flush_all` per frame,
//!   `finish` at the end.
//! * `monitor-overload` — closed loop: the same traffic decoded,
//!   screened and ingested as fast as a `MonitorRuntime` on the sparse
//!   kernel admits it, under the README's overload tuning
//!   (`budget = capacity / 2`, `ShedPolicy::Backpressure`).

use crate::reference::{verdict, RefWindow, Reference};
use crate::spans::Spans;
use crate::traffic::{self, CaApp, Traffic};
use crate::{layer_metrics, median, nproc, peak_rss_mb, quantile, trace_path, Args, Outcome};
use adprom_core::Flag;
use adprom_core::{
    FrameDecoder, IngestStatus, KernelConfig, MonitorRuntime, OverloadConfig, Profile,
    ProfileRegistry, RuntimeConfig, ScoringMode, SessionReport, ShardedMonitor, ShedPolicy,
};
use adprom_hmm::SparseConfig;
use adprom_obs::{AuditLog, AuditRecord, AuditSink, Registry};
use adprom_trace::{TaggedCall, TraceValidator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions; the median is reported.
const SETUP_REPEATS: usize = 3;
/// Offered rate of the paced generator.
const PACED_RATE: usize = 25_000;
/// Paced schedule tick: one frame per tick.
const TICK_US: u64 = 20_000;
/// Events per paced frame.
const PER_FRAME: usize = PACED_RATE * TICK_US as usize / 1_000_000;
/// Shards of the paced service.
const SHARDS: usize = 2;
/// Scoring threads of both monitors. On the 2-core reference box the
/// overloaded runtime replays 1.3–1.9× faster on one thread than on a
/// pool of two, whose fork-join per 64-event flush costs more than it
/// saves.
const SCORING_THREADS: usize = 1;
/// Hard ingest bound of the overloaded runtime; its budget is half.
const OVERLOAD_CAPACITY: usize = 64;
/// Threshold distance within which a reference window is excused.
const EXCUSE: f64 = 1e-6;

/// The CA apps, their profiles and the registry serving them.
struct Setup {
    apps: Vec<CaApp>,
    profiles: Vec<Profile>,
    registry: Arc<ProfileRegistry>,
    setup_s: f64,
    train_s: f64,
    register_s: f64,
}

/// Trains the three CA profiles, registers them and builds the monitor,
/// [`SETUP_REPEATS`] times; reports the medians.
fn set_up(kernel: Option<KernelConfig>, build: &dyn Fn(&Arc<ProfileRegistry>)) -> Setup {
    let mut totals = Vec::new();
    let mut trains = Vec::new();
    let mut registers = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let apps = traffic::ca_apps();
        let profiles = traffic::train_profiles(&apps, &traffic::ca_config());
        let t1 = Instant::now();
        let registry = match kernel {
            Some(k) => ProfileRegistry::new().with_kernel(k),
            None => ProfileRegistry::new(),
        };
        for (app, profile) in apps.iter().zip(&profiles) {
            registry
                .register(app.name, profile.clone())
                .expect("trained CA profiles validate");
        }
        let registry = Arc::new(registry);
        build(&registry);
        let t2 = Instant::now();
        totals.push((t2 - t0).as_secs_f64());
        trains.push((t1 - t0).as_secs_f64());
        registers.push((t2 - t1).as_secs_f64());
        last = Some((apps, profiles, registry));
    }
    let (apps, profiles, registry) = last.expect("set-up ran");
    Setup {
        apps,
        profiles,
        registry,
        setup_s: median(&totals),
        train_s: median(&trains),
        register_s: median(&registers),
    }
}

/// The seeded traffic and its reference verdicts.
struct Prepared {
    traffic: Traffic,
    frames: Vec<Vec<u8>>,
    frame_events: Vec<usize>,
    stream: Vec<TaggedCall>,
    /// Reference windows per session, keyed by `(app, session)`.
    expected: HashMap<(String, String), Vec<RefWindow>>,
}

fn prepare(setup: &Setup, seed: u64) -> Prepared {
    let traffic = traffic::generate(&setup.apps, seed);
    let stream = traffic::interleave(&traffic.sessions, seed);
    let frames = traffic::frames(&stream, PER_FRAME);
    let frame_events = stream.chunks(PER_FRAME).map(<[TaggedCall]>::len).collect();
    let references: HashMap<&str, Reference> = setup
        .apps
        .iter()
        .zip(&setup.profiles)
        .map(|(app, profile)| (app.name, Reference::new(profile)))
        .collect();
    let expected = traffic
        .sessions
        .iter()
        .map(|s| {
            let windows = references[s.app.as_str()].session(&s.events);
            ((s.app.clone(), s.id.clone()), windows)
        })
        .collect();
    eprintln!(
        "traffic: {} sessions ({} attacks), {} events, {} frames of {PER_FRAME}; families {}",
        traffic.sessions.len(),
        traffic.attacks(),
        traffic.events(),
        frames.len(),
        traffic
            .families
            .iter()
            .map(|f| format!("{}={}/{}", f.family, f.executed, f.dropped))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Prepared {
        traffic,
        frames,
        frame_events,
        stream,
        expected,
    }
}

fn excused(w: &RefWindow, threshold: f64) -> bool {
    (w.ll - threshold).abs() <= EXCUSE * threshold.abs().max(1.0)
}

/// Per-window flag identity with the reference (windows within
/// [`EXCUSE`] of the threshold excused), for every session.
fn verdicts_match(prepared: &Prepared, reports: &[SessionReport], setup: &Setup) -> bool {
    let thresholds: HashMap<&str, f64> = setup
        .apps
        .iter()
        .zip(&setup.profiles)
        .map(|(a, p)| (a.name, p.threshold))
        .collect();
    if reports.len() != prepared.expected.len() {
        eprintln!(
            "check failed: {} reports for {} sessions",
            reports.len(),
            prepared.expected.len()
        );
        return false;
    }
    for r in reports {
        let Some(windows) = prepared.expected.get(&(r.app.clone(), r.session.clone())) else {
            eprintln!("check failed: unknown session {}/{}", r.app, r.session);
            return false;
        };
        let threshold = thresholds[r.app.as_str()];
        let same = windows.len() == r.alerts.len()
            && windows
                .iter()
                .zip(&r.alerts)
                .all(|(w, a)| w.flag == a.flag || excused(w, threshold));
        if !same {
            eprintln!(
                "check failed: {}/{} verdict {:?} vs reference {:?} ({} windows vs {})",
                r.app,
                r.session,
                r.verdict,
                verdict(windows),
                r.alerts.len(),
                windows.len()
            );
            for (i, (w, a)) in windows.iter().zip(&r.alerts).enumerate() {
                if w.flag != a.flag {
                    eprintln!(
                        "  window {i}: monitor {:?} {} vs reference {:?} {} (threshold {threshold}) {:?}",
                        a.flag, a.log_likelihood, w.flag, w.ll, a.window
                    );
                }
            }
            return false;
        }
    }
    true
}

/// Session precision and recall against the executed attacks.
fn session_quality(traffic: &Traffic, reports: &[SessionReport]) -> (f64, f64) {
    let attack: HashMap<(&str, &str), bool> = traffic
        .sessions
        .iter()
        .map(|s| ((s.app.as_str(), s.id.as_str()), s.family.is_some()))
        .collect();
    let (mut tp, mut fp) = (0usize, 0usize);
    for r in reports.iter().filter(|r| r.verdict != Flag::Normal) {
        if attack[&(r.app.as_str(), r.session.as_str())] {
            tp += 1;
        } else {
            fp += 1;
        }
    }
    let attacks = traffic.attacks();
    (
        tp as f64 / (tp + fp).max(1) as f64,
        tp as f64 / attacks.max(1) as f64,
    )
}

/// The benchmark's own audit sink: counts records, and those raised at
/// the beam tier, and times its appends. It keeps nothing, so the time
/// is the program's hand-off cost alone.
#[derive(Default)]
struct TimedSink {
    records: AtomicU64,
    beam: AtomicU64,
    nanos: AtomicU64,
}

impl AuditSink for TimedSink {
    fn append(&self, record: &AuditRecord) {
        let t0 = Instant::now();
        self.records.fetch_add(1, Ordering::Relaxed);
        if record.tier.as_deref() == Some("beam") {
            self.beam.fetch_add(1, Ordering::Relaxed);
        }
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
    }
}

impl TimedSink {
    fn count(&self) -> f64 {
        self.records.load(Ordering::Relaxed) as f64
    }

    fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Audits a finished run's alarms through `log` (the paced service has
/// no audit hook of its own).
fn audit_reports(log: &AuditLog, reports: &[SessionReport]) {
    for r in reports {
        for a in r.alarms() {
            log.record(AuditRecord {
                seq: 0,
                app: r.app.clone(),
                session: r.session.clone(),
                epoch: r.epoch,
                flag: a.flag.to_string(),
                window: a.window.clone(),
                log_likelihood: a.log_likelihood,
                threshold: a.threshold,
                detail: a.detail.clone(),
                kernel: r.kernel.effective.clone(),
                label: None,
                bid: None,
                forensics: None,
                tier: None,
                escalation: None,
                gap_bound_micronats: None,
            });
        }
    }
}

/// Windows per second of `WindowScorer::score_windows_batch` alone, on
/// every full-length window of the traffic, batched 32 at a time.
fn kernel_rate(setup: &Setup, traffic: &Traffic) -> f64 {
    let mut windows = 0usize;
    let mut secs = 0.0;
    for app in &setup.apps {
        let scorer = setup.registry.scorer(app.name).expect("registered app");
        let n = scorer.profile().window;
        let all: Vec<Vec<String>> = traffic
            .sessions
            .iter()
            .filter(|s| s.app == app.name)
            .flat_map(|s| {
                s.events
                    .windows(n)
                    .map(|w| w.iter().map(|e| e.name.to_string()).collect())
                    .collect::<Vec<_>>()
            })
            .collect();
        let t0 = Instant::now();
        for batch in all.chunks(32) {
            std::hint::black_box(scorer.score_windows_batch(std::hint::black_box(batch)));
        }
        secs += t0.elapsed().as_secs_f64();
        windows += all.len();
    }
    windows as f64 / secs
}

fn service_config() -> RuntimeConfig {
    RuntimeConfig {
        mode: ScoringMode::Incremental,
        ..RuntimeConfig::default()
    }
}

/// One paced round's measurements.
struct PacedRound {
    wall_s: f64,
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    finish_s: f64,
    admitted_ok: bool,
    reports: Vec<SessionReport>,
}

fn paced_round(
    setup: &Setup,
    prepared: &Prepared,
    spans: &mut Spans,
    registry: Option<&Registry>,
) -> PacedRound {
    let mut service = ShardedMonitor::new(Arc::clone(&setup.registry), SHARDS)
        .with_config(service_config())
        .with_threads(SCORING_THREADS);
    if let Some(r) = registry {
        service = service.with_registry(r);
    }
    let frames = &prepared.frames;
    let tick = Duration::from_micros(TICK_US);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant)>();
    let start = Instant::now() + Duration::from_millis(2);
    let mut latency_ms = Vec::with_capacity(prepared.stream.len());
    let mut flush_ms = Vec::with_capacity(frames.len());
    let mut admitted_ok = true;
    let lateness_ms = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut lateness = Vec::with_capacity(frames.len());
            for k in 0..frames.len() {
                let due = start + tick * u32::try_from(k).expect("frame count fits u32");
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lateness.push(due.elapsed().as_secs_f64() * 1e3);
                if tx.send((k, due)).is_err() {
                    break;
                }
            }
            lateness
        });
        for (k, due) in rx {
            let ingest = spans.time("monitor.ingest", || service.ingest_frames(&frames[k]));
            admitted_ok &= ingest.frames == 1
                && ingest.frame_defects.is_empty()
                && ingest.quarantined.is_empty()
                && ingest.admitted == prepared.frame_events[k];
            let t0 = Instant::now();
            spans.time("monitor.flush", || service.flush_all());
            let done = Instant::now();
            flush_ms.push((done - t0).as_secs_f64() * 1e3);
            let ms = (done - due).as_secs_f64() * 1e3;
            latency_ms.extend(std::iter::repeat_n(ms, prepared.frame_events[k]));
        }
        generator.join().expect("generator thread")
    });
    let t0 = Instant::now();
    let reports = spans.time("monitor.finish", || service.finish());
    let done = Instant::now();
    PacedRound {
        wall_s: (done - start).as_secs_f64(),
        latency_ms,
        lateness_ms,
        flush_ms,
        finish_s: (done - t0).as_secs_f64(),
        admitted_ok,
        reports,
    }
}

/// Times decoding and screening every frame on their own, outside the
/// monitor (the service does both inside `ingest_frames`).
fn wire_layers(prepared: &Prepared, spans: &mut Spans) {
    let validator = TraceValidator::new();
    for frame in &prepared.frames {
        let batch: Vec<TaggedCall> = spans.time("wire.decode", || {
            FrameDecoder::new(frame)
                .flat_map(|f| f.expect("clean frames decode"))
                .map(|r| r.to_tagged())
                .collect()
        });
        let sessions: Vec<String> = batch.iter().map(|t| t.session.clone()).collect();
        let traces: Vec<Vec<_>> = batch.iter().map(|t| vec![t.event.clone()]).collect();
        spans.time("validate.screen", || validator.screen(&sessions, &traces));
    }
}

/// Registry figures shared by both monitor workloads' traced runs.
fn registry_layers(registry: &Registry) -> Vec<(&'static str, f64)> {
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    vec![
        (
            "monitor.queue_high_water",
            snap.gauge("monitor.queue.depth").unwrap_or(0) as f64,
        ),
        ("scorer.windows_scored", counter("detect.windows_scored")),
        ("tier.full_assigned", counter("monitor.tier.full.assigned")),
        ("tier.beam_assigned", counter("monitor.tier.beam.assigned")),
        ("tier.spot_assigned", counter("monitor.tier.spot.assigned")),
        ("tier.escalations", counter("monitor.tier.escalations")),
    ]
}

/// Runs `monitor-paced`.
pub fn paced(args: &Args) -> Outcome {
    let setup = set_up(None, &|registry| {
        std::hint::black_box(
            ShardedMonitor::new(Arc::clone(registry), SHARDS)
                .with_config(service_config())
                .with_threads(SCORING_THREADS),
        );
    });
    let prepared = prepare(&setup, args.seed);
    let events = prepared.stream.len();

    if args.trace {
        let plain = paced_round(&setup, &prepared, &mut Spans::new(false), None);
        let registry = Registry::new();
        let mut spans = Spans::new(true);
        let round = paced_round(&setup, &prepared, &mut spans, Some(&registry));
        let correct = round.admitted_ok && verdicts_match(&prepared, &round.reports, &setup);
        wire_layers(&prepared, &mut spans);
        let sink = Arc::new(TimedSink::default());
        audit_reports(&AuditLog::new(sink.clone()), &round.reports);
        let mut measured = vec![
            ("wire.decode_s", spans.seconds("wire.decode")),
            ("wire.frames", prepared.frames.len() as f64),
            (
                "wire.bytes",
                prepared.frames.iter().map(Vec::len).sum::<usize>() as f64,
            ),
            ("validate.screen_s", spans.seconds("validate.screen")),
            ("monitor.ingest_s", spans.seconds("monitor.ingest")),
            ("monitor.flush_s", spans.seconds("monitor.flush")),
            ("monitor.flush_p99_ms", quantile(&round.flush_ms, 0.99)),
            ("monitor.flushes", round.flush_ms.len() as f64),
            ("monitor.finish_s", round.finish_s),
            (
                "monitor.backpressure_flushes",
                registry
                    .snapshot()
                    .counter("monitor.backpressure.flushes")
                    .unwrap_or(0) as f64,
            ),
            (
                "scorer.kernel_windows_per_s",
                kernel_rate(&setup, &prepared.traffic),
            ),
            ("audit.records", sink.count()),
            ("audit.append_s", sink.seconds()),
            ("setup.train_s", setup.train_s),
            ("setup.register_s", setup.register_s),
            ("gen.lateness_p99_ms", quantile(&round.lateness_ms, 0.99)),
            (
                "e2e.verdict_latency_p99_ms",
                quantile(&round.latency_ms, 0.99),
            ),
        ];
        measured.extend(registry_layers(&registry));
        write_trace(args, &spans, round.wall_s, plain.wall_s);
        return Outcome {
            correct,
            attempted: events as u64,
            failed: 0,
            metrics: layer_metrics(&measured),
        };
    }

    // Each round is summarized and dropped before the next, so the memory
    // held does not grow with the number of rounds.
    let started = Instant::now();
    let mut summary = Rounds::default();
    let mut lateness_p99 = Vec::new();
    let mut correct = true;
    let mut untraced = Spans::new(false);
    let mut quality = None;
    while summary.walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let round = paced_round(&setup, &prepared, &mut untraced, None);
        correct &= round.admitted_ok && verdicts_match(&prepared, &round.reports, &setup);
        quality.get_or_insert_with(|| session_quality(&prepared.traffic, &round.reports));
        summary.add(round.wall_s, &round.latency_ms);
        lateness_p99.push(quantile(&round.lateness_ms, 0.99));
    }
    let (precision, recall) = quality.expect("at least one round");
    eprintln!(
        "monitor-paced: {} round(s) at {PACED_RATE} events/s offered, {} latency samples, \
         verdict latency p99 {:.4} ms, generator lateness p99 {:.3} ms, nproc {}",
        summary.walls.len(),
        summary.samples,
        median(&summary.p99s),
        median(&lateness_p99),
        nproc()
    );
    Outcome {
        correct,
        attempted: (events * summary.walls.len()) as u64,
        failed: 0,
        metrics: end_to_end(&setup, &summary, events, precision, recall),
    }
}

/// What the untraced monitor runs keep of each round.
#[derive(Default)]
struct Rounds {
    walls: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: usize,
}

impl Rounds {
    fn add(&mut self, wall_s: f64, latency_ms: &[f64]) {
        self.walls.push(wall_s);
        self.p50s.push(quantile(latency_ms, 0.5));
        self.p99s.push(quantile(latency_ms, 0.99));
        self.samples += latency_ms.len();
    }
}

fn end_to_end(
    setup: &Setup,
    rounds: &Rounds,
    events: usize,
    precision: f64,
    recall: f64,
) -> Vec<crate::Metric> {
    let rates: Vec<f64> = rounds.walls.iter().map(|w| events as f64 / w).collect();
    vec![
        ("setup_s", setup.setup_s, "s"),
        ("pipeline_s", median(&rounds.walls), "s"),
        ("verdict_latency_p50_ms", median(&rounds.p50s), "ms"),
        ("events_per_s", median(&rates), "events/s"),
        ("precision", precision, "ratio"),
        ("recall", recall, "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn write_trace(args: &Args, spans: &Spans, traced_s: f64, untraced_s: f64) {
    let extra = [
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("round_s_traced", traced_s.to_string()),
        ("round_s_untraced", untraced_s.to_string()),
        ("tracing_overhead_s", (traced_s - untraced_s).to_string()),
        ("nproc", nproc().to_string()),
    ];
    if let Err(e) = spans.write(&trace_path(args), &extra) {
        eprintln!("perfbench: cannot write the trace file: {e}");
    }
}

fn overload_config() -> RuntimeConfig {
    RuntimeConfig {
        mode: ScoringMode::Incremental,
        overload: OverloadConfig {
            capacity: OVERLOAD_CAPACITY,
            budget: OVERLOAD_CAPACITY / 2,
            shed_policy: ShedPolicy::Backpressure,
            ..OverloadConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

fn sparse() -> KernelConfig {
    KernelConfig::Sparse {
        sparse: SparseConfig::default(),
    }
}

/// One saturated replay's measurements.
struct OverloadRound {
    wall_s: f64,
    latency_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    finish_s: f64,
    admitted: usize,
    reports: Vec<SessionReport>,
}

fn overload_round(
    setup: &Setup,
    prepared: &Prepared,
    spans: &mut Spans,
    registry: Option<&Registry>,
    audit: &Arc<AuditLog>,
) -> OverloadRound {
    let mut runtime = MonitorRuntime::new(Arc::clone(&setup.registry))
        .with_threads(SCORING_THREADS)
        .with_config(overload_config())
        .with_audit(Arc::clone(audit));
    if let Some(r) = registry {
        runtime = runtime.with_registry(r);
    }
    let validator = TraceValidator::new();
    let mut latency_ms = Vec::with_capacity(prepared.stream.len());
    let mut flush_ms = Vec::new();
    let mut waiting: Vec<Instant> = Vec::with_capacity(OVERLOAD_CAPACITY + 1);
    let mut admitted = 0usize;
    let start = Instant::now();
    for frame in &prepared.frames {
        let batch: Vec<TaggedCall> = FrameDecoder::new(frame)
            .flat_map(|f| f.expect("clean frames decode"))
            .map(|r| r.to_tagged())
            .collect();
        let sessions: Vec<String> = batch.iter().map(|t| t.session.clone()).collect();
        let traces: Vec<Vec<_>> = batch.iter().map(|t| vec![t.event.clone()]).collect();
        let screened = validator.screen(&sessions, &traces);
        let open = spans.begin("monitor.ingest");
        for &i in &screened.kept_indices {
            let t0 = Instant::now();
            let status = runtime.ingest(&batch[i]);
            let done = Instant::now();
            match status {
                IngestStatus::Admitted => {}
                IngestStatus::Backpressured => {
                    // The events buffered so far were scored by the
                    // flush this call ran before admitting its own.
                    flush_ms.push((done - t0).as_secs_f64() * 1e3);
                    latency_ms.extend(waiting.drain(..).map(|w| (done - w).as_secs_f64() * 1e3));
                }
                other => panic!("backpressure admits every event, got {other:?}"),
            }
            admitted += 1;
            waiting.push(t0);
        }
        spans.end(open);
    }
    let t0 = Instant::now();
    let reports = spans.time("monitor.finish", || runtime.finish());
    let done = Instant::now();
    latency_ms.extend(waiting.drain(..).map(|w| (done - w).as_secs_f64() * 1e3));
    OverloadRound {
        wall_s: (done - start).as_secs_f64(),
        latency_ms,
        flush_ms,
        finish_s: (done - t0).as_secs_f64(),
        admitted,
        reports,
    }
}

/// The starvation floor: every session the reference alarms (outside
/// the excuse band) is alarmed.
fn floor_holds(prepared: &Prepared, reports: &[SessionReport], setup: &Setup) -> bool {
    let thresholds: HashMap<&str, f64> = setup
        .apps
        .iter()
        .zip(&setup.profiles)
        .map(|(a, p)| (a.name, p.threshold))
        .collect();
    let alarmed: HashMap<(&str, &str), bool> = reports
        .iter()
        .map(|r| {
            (
                (r.app.as_str(), r.session.as_str()),
                r.verdict != Flag::Normal,
            )
        })
        .collect();
    let mut ok = reports.len() == prepared.expected.len();
    for ((app, session), windows) in &prepared.expected {
        let threshold = thresholds[app.as_str()];
        let must = windows
            .iter()
            .any(|w| w.flag != Flag::Normal && !excused(w, threshold));
        if must
            && !alarmed
                .get(&(app.as_str(), session.as_str()))
                .copied()
                .unwrap_or(false)
        {
            eprintln!("check failed: {app}/{session} alarmed by the reference, not by the monitor");
            ok = false;
        }
    }
    ok
}

/// Runs `monitor-overload`.
pub fn overload(args: &Args) -> Outcome {
    let setup = set_up(Some(sparse()), &|registry| {
        std::hint::black_box(
            MonitorRuntime::new(Arc::clone(registry))
                .with_threads(SCORING_THREADS)
                .with_config(overload_config()),
        );
    });
    let prepared = prepare(&setup, args.seed);
    let events = prepared.stream.len();
    let sessions_checked = |round: &OverloadRound| {
        round.admitted == events && floor_holds(&prepared, &round.reports, &setup)
    };

    if args.trace {
        let plain_log = Arc::new(AuditLog::new(Arc::new(TimedSink::default())));
        let plain = overload_round(&setup, &prepared, &mut Spans::new(false), None, &plain_log);
        let registry = Registry::new();
        let sink = Arc::new(TimedSink::default());
        let log = Arc::new(AuditLog::new(sink.clone()));
        let mut spans = Spans::new(true);
        let round = overload_round(&setup, &prepared, &mut spans, Some(&registry), &log);
        let correct = sessions_checked(&round);
        wire_layers(&prepared, &mut spans);
        let beam_alarms = sink.beam.load(Ordering::Relaxed);
        let mut measured = vec![
            ("wire.decode_s", spans.seconds("wire.decode")),
            ("wire.frames", prepared.frames.len() as f64),
            (
                "wire.bytes",
                prepared.frames.iter().map(Vec::len).sum::<usize>() as f64,
            ),
            ("validate.screen_s", spans.seconds("validate.screen")),
            ("monitor.ingest_s", spans.seconds("monitor.ingest")),
            ("monitor.flush_s", round.flush_ms.iter().sum::<f64>() / 1e3),
            ("monitor.flush_p99_ms", quantile(&round.flush_ms, 0.99)),
            ("monitor.flushes", round.flush_ms.len() as f64 + 1.0),
            ("monitor.finish_s", round.finish_s),
            ("monitor.backpressure_flushes", round.flush_ms.len() as f64),
            (
                "scorer.kernel_windows_per_s",
                kernel_rate(&setup, &prepared.traffic),
            ),
            ("audit.records", sink.count()),
            ("audit.append_s", sink.seconds()),
            ("setup.train_s", setup.train_s),
            ("setup.register_s", setup.register_s),
            ("tier.beam_alarms", beam_alarms as f64),
            (
                "e2e.verdict_latency_p99_ms",
                quantile(&round.latency_ms, 0.99),
            ),
        ];
        measured.extend(registry_layers(&registry));
        write_trace(args, &spans, round.wall_s, plain.wall_s);
        return Outcome {
            correct,
            attempted: events as u64,
            failed: 0,
            metrics: layer_metrics(&measured),
        };
    }

    let started = Instant::now();
    let mut summary = Rounds::default();
    let mut correct = true;
    let mut untraced = Spans::new(false);
    let mut quality = None;
    while summary.walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let log = Arc::new(AuditLog::new(Arc::new(TimedSink::default())));
        let round = overload_round(&setup, &prepared, &mut untraced, None, &log);
        correct &= sessions_checked(&round);
        quality.get_or_insert_with(|| session_quality(&prepared.traffic, &round.reports));
        summary.add(round.wall_s, &round.latency_ms);
    }
    let (precision, recall) = quality.expect("at least one round");
    eprintln!(
        "monitor-overload: {} round(s), {} latency samples, verdict latency p99 {:.4} ms, nproc {}",
        summary.walls.len(),
        summary.samples,
        median(&summary.p99s),
        nproc()
    );
    Outcome {
        correct,
        attempted: (events * summary.walls.len()) as u64,
        failed: 0,
        metrics: end_to_end(&setup, &summary, events, precision, recall),
    }
}
