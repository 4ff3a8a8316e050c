//! `train-app3`: the whole paper pipeline on SIR App3 at Table VII's
//! settings — analyze, collect traces, `build_profile` (4000-window
//! training cap, 10 Baum–Welch iterations, E-step on the default pool),
//! then the held-out A-S2/A-S3 evaluation through `DetectionEngine`.

use crate::reference::{close, forward_ll, Reference};
use crate::spans::Spans;
use crate::traffic::mix;
use crate::{layer_metrics, median, peak_rss_mb, quantile, trace_path, Args, Outcome};
use adprom_analysis::{analyze, Analysis};
use adprom_attacks::{a_s2, a_s3};
use adprom_bench::cap_traces;
use adprom_core::{
    build_profile, init_from_pctm, select_threshold, trace_windows, Alphabet, BuildReport,
    Confusion, ConstructorConfig, DetectionEngine, Flag, Profile,
};
use adprom_obs::Registry;
use adprom_trace::{sliding_windows, CallEvent};
use adprom_workloads::{sir, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Training windows kept (Table VII harness: `cap_traces(…, 15, 4000)`).
const TRAIN_WINDOW_CAP: usize = 4000;
/// One evaluation window in this many receives an A-S2/A-S3 mutation.
const ANOMALY_EVERY: usize = 29;
/// Extra scoring passes over the held-out set after each pipeline; the
/// detection metrics pool them with the pipeline's own pass.
const DETECT_PASSES: usize = 6;
/// Set-ups repeat until they span this many seconds; the median set-up is
/// reported. One set-up takes about 10 ms, and the host's speed drifts over
/// seconds, so a sample spanning less would carry that drift.
const SETUP_SPAN_S: f64 = 4.0;

/// The constructor settings of `exp_table7_confusion`.
fn table7_config() -> ConstructorConfig {
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 10;
    config
}

/// The held-out evaluation set: windows and whether each is an anomaly.
struct EvalSet {
    windows: Vec<(Vec<String>, bool)>,
}

/// The set-up: the App3 program and test suite, and the held-out
/// evaluation set (the last quarter of the traces, one window in
/// [`ANOMALY_EVERY`] mutated at a seeded offset).
fn set_up(seed: u64, window: usize) -> (Workload, EvalSet) {
    let workload = sir::workload(&sir::app3_spec());
    let analysis = analyze(&workload.program);
    let mut traces = workload.collect_traces(&analysis.site_labels);
    let eval_traces = traces.split_off(traces.len() * 3 / 4);
    let offset = (mix(seed, 0xE7A1) % ANOMALY_EVERY as u64) as usize;
    let windows = eval_traces
        .iter()
        .flat_map(|t| {
            let names: Vec<String> = t.iter().map(|e| e.name.to_string()).collect();
            sliding_windows(&names, window)
        })
        .enumerate()
        .map(|(i, w)| {
            if i % ANOMALY_EVERY == offset {
                let s = mix(seed, i as u64);
                if (i / ANOMALY_EVERY).is_multiple_of(2) {
                    (a_s2(&w, 2, s), true)
                } else {
                    (a_s3(&w, 8, s), true)
                }
            } else {
                (w, false)
            }
        })
        .collect();
    (workload, EvalSet { windows })
}

/// Everything one pipeline round produced.
struct Round {
    wall_s: f64,
    analysis: Analysis,
    train_traces: Vec<Vec<CallEvent>>,
    profile: Profile,
    report: BuildReport,
    pass: Pass,
    trace_events: usize,
}

/// One pipeline round, with spans around each layer call when traced.
fn pipeline(
    workload: &Workload,
    eval: &EvalSet,
    config: &ConstructorConfig,
    spans: &mut Spans,
) -> Round {
    let start = Instant::now();
    let analysis = spans.time("analysis.analyze", || analyze(&workload.program));
    let mut traces = spans.time("trace.collect", || {
        workload.collect_traces(&analysis.site_labels)
    });
    let trace_events = traces.iter().map(Vec::len).sum();
    traces.truncate(traces.len() * 3 / 4);
    let train_traces = cap_traces(traces, config.window, TRAIN_WINDOW_CAP);
    let (profile, report) = spans.time("build_profile", || {
        build_profile("App3", &analysis, &train_traces, config)
    });

    let open = spans.begin("detect.eval");
    let pass = evaluate(&profile, eval);
    spans.end(open);
    Round {
        wall_s: start.elapsed().as_secs_f64(),
        analysis,
        train_traces,
        profile,
        report,
        pass,
        trace_events,
    }
}

/// One scoring pass over the held-out set through `DetectionEngine`.
struct Pass {
    scores: Vec<f64>,
    confusion: Confusion,
    latency_ms: Vec<f64>,
    secs: f64,
}

fn evaluate(profile: &Profile, eval: &EvalSet) -> Pass {
    let start = Instant::now();
    let engine = DetectionEngine::new(profile);
    let mut confusion = Confusion::default();
    let mut scores = Vec::with_capacity(eval.windows.len());
    let mut latency_ms = Vec::with_capacity(eval.windows.len());
    for (seq, anomalous) in &eval.windows {
        let t0 = Instant::now();
        let ll = engine.score(seq);
        let leak = seq.iter().any(|n| n.contains("_Q"));
        let flag = Flag::classify(ll, profile.threshold, leak, false);
        latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        confusion.record(*anomalous, flag != Flag::Normal);
        scores.push(ll);
    }
    Pass {
        scores,
        confusion,
        latency_ms,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// The windows `build_profile` encodes, shuffled and split the way it
/// splits them: `(csds, train)`.
fn partition(
    round: &Round,
    config: &ConstructorConfig,
) -> (Alphabet, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut labels = round.analysis.observation_labels();
    for t in &round.train_traces {
        for e in t {
            if !labels.iter().any(|l| l.as_str() == &*e.name) {
                labels.push(e.name.to_string());
            }
        }
    }
    let alphabet = Alphabet::new(labels);
    let mut windows: Vec<Vec<usize>> = trace_windows(&round.train_traces, config.window)
        .iter()
        .map(|w| alphabet.encode_seq(w))
        .collect();
    windows.shuffle(&mut StdRng::seed_from_u64(config.seed));
    let csds_len = ((windows.len() as f64) * config.csds_fraction).round() as usize;
    let train = windows.split_off(csds_len.min(windows.len()));
    (alphabet, windows, train)
}

fn stochastic(row: &[f64]) -> bool {
    row.iter().all(|&v| v >= 0.0 && v.is_finite()) && (row.iter().sum::<f64>() - 1.0).abs() <= 1e-9
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The checks made apart from the program's own output. Returns whether
/// all hold; fills the `init.*` and `threshold.*` spans when traced.
fn check(round: &Round, eval: &EvalSet, config: &ConstructorConfig, spans: &mut Spans) -> bool {
    let reference = Reference::new(&round.profile);
    let mut ok = true;
    let mut fail = |what: String| {
        eprintln!("check failed: {what}");
        ok = false;
    };

    // Engine scores against the reference forward, and the confusion
    // counts recomputed from reference scores.
    let mut confusion = Confusion::default();
    for ((seq, anomalous), &ll) in eval.windows.iter().zip(&round.pass.scores) {
        let r = reference.score(seq);
        if !close(ll, r, 1e-9) {
            fail(format!("engine score {ll} vs reference {r}"));
            break;
        }
        confusion.record(*anomalous, r < reference.threshold());
    }
    let c = &round.pass.confusion;
    if (confusion.tp, confusion.tn, confusion.fp, confusion.fn_) != (c.tp, c.tn, c.fp, c.fn_) {
        fail(format!("confusion {confusion:?} vs engine {c:?}"));
    }

    // Trained model rows are distributions.
    let hmm = &round.profile.hmm;
    if !(hmm.a_rows().all(stochastic) && hmm.b_rows().all(stochastic) && stochastic(&hmm.pi)) {
        fail("trained A/B/π rows are not stochastic within 1e-9".into());
    }

    // Training did not lower the held-out (CSDS) likelihood.
    let (alphabet, csds, train) = partition(round, config);
    if alphabet.symbols() != round.profile.alphabet.symbols() {
        fail("rebuilt alphabet differs from the profile's".into());
    }
    let init = spans.time("init.init", || {
        init_from_pctm(&round.analysis.pctm, &alphabet, &config.init)
    });
    let initial: Vec<f64> = csds.iter().map(|w| forward_ll(&init.hmm, w)).collect();
    let trained: Vec<f64> = csds.iter().map(|w| forward_ll(hmm, w)).collect();
    if mean(&trained) < mean(&initial) {
        fail(format!(
            "trained CSDS mean ll {} below initial {}",
            mean(&trained),
            mean(&initial)
        ));
    }

    // The threshold leaves at most the configured quantile of training
    // windows below it.
    let below = train
        .iter()
        .filter(|w| forward_ll(hmm, w) < round.profile.threshold)
        .count();
    if below as f64 > config.threshold_quantile * train.len() as f64 {
        fail(format!(
            "{below} of {} training windows below the threshold",
            train.len()
        ));
    }
    if spans.enabled() {
        spans.time("threshold.select", || {
            select_threshold(
                hmm,
                &train,
                config.folds,
                config.threshold_quantile,
                config.threshold_margin,
            )
        });
    }
    ok
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut config = table7_config();
    let window = config.window;

    let mut setups = Vec::new();
    let mut built = None;
    while setups.iter().sum::<f64>() < SETUP_SPAN_S {
        let t0 = Instant::now();
        let out = set_up(args.seed, window);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(out);
    }
    let (workload, eval) = built.expect("set-up ran");

    let mut untraced = Spans::new(false);
    if args.trace {
        // The traced run also times an untraced round: the difference is
        // the tracing overhead.
        let plain = pipeline(&workload, &eval, &config, &mut untraced);
        let registry = Registry::new();
        config.registry = registry.clone();
        let mut spans = Spans::new(true);
        let round = pipeline(&workload, &eval, &config, &mut spans);
        let correct = check(&round, &eval, &config, &mut spans);
        let snap = registry.snapshot();
        let baumwelch_s = snap
            .histograms
            .get("train.baumwelch_ns")
            .map_or(0.0, |h| h.sum as f64 * 1e-9);
        let iterations = snap.counter("train.iterations").unwrap_or(0) as f64;
        let layers_sum = spans.seconds("trace.collect")
            + spans.seconds("analysis.analyze")
            + spans.seconds("init.init")
            + baumwelch_s
            + spans.seconds("threshold.select")
            + spans.seconds("detect.eval");
        let measured = [
            ("trace.collect_s", spans.seconds("trace.collect")),
            ("trace.events", round.trace_events as f64),
            ("analysis.analyze_s", spans.seconds("analysis.analyze")),
            ("init.init_s", spans.seconds("init.init")),
            ("init.states", round.report.states_after as f64),
            ("train.baumwelch_s", baumwelch_s),
            ("train.iterations", iterations),
            ("train.iteration_s", baumwelch_s / iterations.max(1.0)),
            (
                "train.windows",
                (round.report.total_windows - round.report.csds_windows) as f64,
            ),
            ("threshold.select_s", spans.seconds("threshold.select")),
            ("detect.eval_s", spans.seconds("detect.eval")),
            ("detect.eval_windows", eval.windows.len() as f64),
            (
                "e2e.verdict_latency_p99_ms",
                quantile(&round.pass.latency_ms, 0.99),
            ),
        ];
        let share = layers_sum / round.wall_s;
        eprintln!(
            "train-app3 traced: pipeline {:.3} s, layers sum {:.3} s ({:.1}%), untraced {:.3} s",
            round.wall_s,
            layers_sum,
            share * 100.0,
            plain.wall_s
        );
        let extra = [
            ("workload", "\"train-app3\"".to_string()),
            ("seed", args.seed.to_string()),
            ("pipeline_s_traced", round.wall_s.to_string()),
            ("pipeline_s_untraced", plain.wall_s.to_string()),
            (
                "tracing_overhead_s",
                (round.wall_s - plain.wall_s).to_string(),
            ),
            ("layers_sum_s", layers_sum.to_string()),
            ("layers_share_of_pipeline", share.to_string()),
            ("nproc", crate::nproc().to_string()),
        ];
        if let Err(e) = spans.write(&trace_path(args), &extra) {
            eprintln!("perfbench: cannot write the trace file: {e}");
        }
        return Outcome {
            correct,
            attempted: eval.windows.len() as u64,
            failed: 0,
            metrics: layer_metrics(&measured),
        };
    }

    // Whole rounds until the run length is spent. After each pipeline,
    // the held-out set is scored again DETECT_PASSES times, so the
    // detection figures span seconds rather than one 0.6 s pass. Only the
    // first round is kept whole, for the checks.
    let started = Instant::now();
    let mut first: Option<Round> = None;
    let mut pipeline_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    while first.is_none() || started.elapsed().as_secs_f64() < args.seconds {
        let round = pipeline(&workload, &eval, &config, &mut untraced);
        pipeline_s.push(round.wall_s);
        for _ in 0..DETECT_PASSES {
            passes.push(evaluate(&round.profile, &eval));
        }
        if first.is_none() {
            first = Some(round);
        } else {
            passes.push(round.pass);
        }
    }
    let first = first.expect("at least one round");
    let correct = check(&first, &eval, &config, &mut untraced)
        && passes.iter().all(|p| p.scores == first.pass.scores);
    passes.push(first.pass);
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect();
    let events_per_s: Vec<f64> = passes
        .iter()
        .map(|p| eval.windows.len() as f64 / p.secs)
        .collect();
    let c = &passes[passes.len() - 1].confusion;
    eprintln!(
        "train-app3: {} round(s), {} eval windows (tp {} fp {} tn {} fn {}), {} latency samples, \
         verdict latency p99 {:.5} ms",
        pipeline_s.len(),
        eval.windows.len(),
        c.tp,
        c.fp,
        c.tn,
        c.fn_,
        latencies.len(),
        quantile(&latencies, 0.99)
    );
    Outcome {
        correct,
        attempted: (eval.windows.len() * passes.len()) as u64,
        failed: 0,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("pipeline_s", median(&pipeline_s), "s"),
            ("verdict_latency_p50_ms", quantile(&latencies, 0.5), "ms"),
            ("events_per_s", median(&events_per_s), "events/s"),
            ("precision", c.precision(), "ratio"),
            ("recall", c.recall(), "ratio"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}
