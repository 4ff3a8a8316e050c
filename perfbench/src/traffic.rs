//! Traffic for the monitor workloads, all of it derived from the seed
//! argument: held-out benign sessions of the three CA-dataset apps,
//! executed §V-C attack sessions (ground truth by differential
//! execution), an O(events) seeded interleaver, and per-tick ADP1
//! frames.

use adprom_analysis::{analyze, Analysis};
use adprom_attacks::{
    attack1_insert_similar_print, attack2_new_call_in_function, attack3_reuse_print,
    attack4_binary_patch,
};
use adprom_client::ClientSession;
use adprom_core::{build_profile, encode_frame, ConstructorConfig, Profile};
use adprom_lang::Program;
use adprom_trace::{execute_program, CallEvent, ExecConfig, TaggedCall, TraceCollector};
use adprom_workloads::{banking, hospital, supermarket, TestCase, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Held-out benign sessions per app.
pub const BENIGN_PER_APP: usize = 300;
/// Executed sessions kept per program-mutation attack family.
pub const ATTACKS_PER_FAMILY: usize = 6;
/// Candidate inputs tried per family before it is reported short.
const CANDIDATES_PER_FAMILY: usize = 240;
/// Sessions open at once on the interleaved stream.
const CONCURRENT_SESSIONS: usize = 64;
/// Baum–Welch iteration cap of the CA profiles trained at set-up.
const CA_TRAIN_ITERATIONS: usize = 10;

type MakeWorkload = fn(usize, u64) -> Workload;

/// The CA-dataset apps at the paper's Table III test-case counts, with the
/// fixed training seeds; held-out traffic never uses these seeds.
const CA_APPS: [(&str, MakeWorkload, usize, u64); 3] = [
    ("hospital", hospital::workload, 63, 0xCA01),
    ("banking", banking::workload, 73, 0xCA02),
    ("supermarket", supermarket::workload, 36, 0xCA03),
];

/// One CA app: its workload (training suite) and static analysis.
pub struct CaApp {
    /// App id on the wire and in the profile registry.
    pub name: &'static str,
    make: MakeWorkload,
    /// The app with its training test cases.
    pub workload: Workload,
    /// Static analysis of the unmutated program.
    pub analysis: Analysis,
}

/// Builds the three CA apps with their training suites.
pub fn ca_apps() -> Vec<CaApp> {
    CA_APPS
        .iter()
        .map(|&(name, make, cases, train_seed)| {
            let workload = make(cases, train_seed);
            let analysis = analyze(&workload.program);
            CaApp {
                name,
                make,
                workload,
                analysis,
            }
        })
        .collect()
}

/// The constructor settings of the CA profiles: a fixed iteration cap,
/// and a flattened floor so the sparse kernel decomposes exactly.
pub fn ca_config() -> ConstructorConfig {
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = CA_TRAIN_ITERATIONS;
    config.flatten_epsilon = 1e-4;
    config
}

/// Collects training traces and trains one profile per app.
pub fn train_profiles(apps: &[CaApp], config: &ConstructorConfig) -> Vec<Profile> {
    apps.iter()
        .map(|app| {
            let traces = app.workload.collect_traces(&app.analysis.site_labels);
            build_profile(&format!("App_{}", app.name), &app.analysis, &traces, config).0
        })
        .collect()
}

/// One monitored session and its ground truth.
#[derive(Debug, Clone)]
pub struct Session {
    /// App id.
    pub app: String,
    /// Session id, unique within the app.
    pub id: String,
    /// The session's calls.
    pub events: Vec<CallEvent>,
    /// Attack family (`<app>/attack<k>`) for an executed attack.
    pub family: Option<String>,
}

/// Executed and dropped sessions of one attack family.
#[derive(Debug, Clone)]
pub struct FamilyCount {
    /// `<app>/attack<k>`.
    pub family: String,
    /// Sessions whose trace differs from the unmutated program's.
    pub executed: usize,
    /// Candidate inputs whose trace matched the unmutated program's.
    pub dropped: usize,
}

/// The seeded traffic of one run.
pub struct Traffic {
    /// Benign sessions followed by attack sessions.
    pub sessions: Vec<Session>,
    /// Per-family ground-truth counts.
    pub families: Vec<FamilyCount>,
}

impl Traffic {
    /// Number of attack sessions.
    pub fn attacks(&self) -> usize {
        self.sessions.iter().filter(|s| s.family.is_some()).count()
    }

    /// Total events.
    pub fn events(&self) -> usize {
        self.sessions.iter().map(|s| s.events.len()).sum()
    }
}

/// SplitMix64 finalizer: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A test-case seed for held-out traffic, never one of the training seeds.
fn held_out_seed(seed: u64, salt: u64) -> u64 {
    let mut s = mix(seed, salt);
    while CA_APPS.iter().any(|&(_, _, _, train)| train == s) {
        s = s.wrapping_add(1);
    }
    s
}

/// Runs one input; `None` when the program stops with a runtime error.
fn run(
    program: &Program,
    analysis: &Analysis,
    app: &CaApp,
    case: &TestCase,
) -> Option<Vec<CallEvent>> {
    let mut collector = TraceCollector::new();
    let mut session = ClientSession::connect((app.workload.make_db)());
    execute_program(
        program,
        &mut session,
        &case.inputs,
        &analysis.site_labels,
        &mut collector,
        &ExecConfig::default(),
    )
    .ok()?;
    Some(collector.into_events())
}

/// True when two traces differ in what the monitor sees of them.
fn differs(a: &[CallEvent], b: &[CallEvent]) -> bool {
    a.len() != b.len()
        || a.iter()
            .zip(b)
            .any(|(x, y)| x.name != y.name || x.caller != y.caller)
}

/// Builds the run's sessions from `seed`.
pub fn generate(apps: &[CaApp], seed: u64) -> Traffic {
    let mut sessions = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let suite = (app.make)(BENIGN_PER_APP, held_out_seed(seed, 0x100 + i as u64));
        for (k, case) in suite.test_cases.iter().enumerate() {
            let events = run(&app.workload.program, &app.analysis, app, case)
                .expect("unmutated CA programs run every generated input");
            sessions.push(Session {
                app: app.name.to_string(),
                id: format!("{}-h{k}", app.name),
                events,
                family: None,
            });
        }
    }

    let mut families = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let table = match app.name {
            "hospital" => "patients",
            "banking" => "clients",
            _ => "items",
        };
        let query = format!("SELECT * FROM {table}");
        let program = &app.workload.program;
        let mutants = [
            ("attack1", attack1_insert_similar_print(program)),
            ("attack2", attack2_new_call_in_function(program, &query)),
            ("attack3", attack3_reuse_print(program)),
            ("attack4", attack4_binary_patch(program, &query)),
        ];
        for (j, (attack, outcome)) in mutants.into_iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let family = format!("{}/{attack}", app.name);
            // Detection-time instrumentation re-analyzes the mutant.
            let mutant_analysis = analyze(&outcome.program);
            let candidates = (app.make)(
                CANDIDATES_PER_FAMILY,
                held_out_seed(seed, 0x200 + (i * 8 + j) as u64),
            );
            let mut count = FamilyCount {
                family: family.clone(),
                executed: 0,
                dropped: 0,
            };
            for case in &candidates.test_cases {
                if count.executed == ATTACKS_PER_FAMILY {
                    break;
                }
                let original = run(program, &app.analysis, app, case);
                let attacked = run(&outcome.program, &mutant_analysis, app, case);
                match (original, attacked) {
                    (Some(o), Some(a)) if differs(&o, &a) => {
                        sessions.push(Session {
                            app: app.name.to_string(),
                            id: format!("{family}#{}", count.executed),
                            events: a,
                            family: Some(family.clone()),
                        });
                        count.executed += 1;
                    }
                    _ => count.dropped += 1,
                }
            }
            families.push(count);
        }
    }

    // Attack 5: the SQL-injection input on the unmutated banking binary,
    // against the same input with a plain account id in place of the
    // payload.
    if let Some(app) = apps.iter().find(|a| a.name == "banking") {
        let attack = banking::injection_case();
        let mut plain = attack.clone();
        for input in &mut plain.inputs {
            if input == banking::INJECTION_PAYLOAD {
                *input = "1".to_string();
            }
        }
        let mut count = FamilyCount {
            family: "banking/attack5".into(),
            executed: 0,
            dropped: 0,
        };
        let original = run(&app.workload.program, &app.analysis, app, &plain);
        let attacked = run(&app.workload.program, &app.analysis, app, &attack);
        match (original, attacked) {
            (Some(o), Some(a)) if differs(&o, &a) => {
                sessions.push(Session {
                    app: app.name.to_string(),
                    id: "banking/attack5#0".into(),
                    events: a,
                    family: Some(count.family.clone()),
                });
                count.executed = 1;
            }
            _ => count.dropped = 1,
        }
        families.push(count);
    }
    Traffic { sessions, families }
}

/// Interleaves sessions into one tagged stream in O(events): sessions
/// open in a seeded order with at most [`CONCURRENT_SESSIONS`] open at
/// once, and each next event comes from a uniformly drawn open session.
pub fn interleave(sessions: &[Session], seed: u64) -> Vec<TaggedCall> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x1E4F));
    let mut order: Vec<usize> = (0..sessions.len())
        .filter(|&i| !sessions[i].events.is_empty())
        .collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut waiting = order.into_iter();
    let mut open: Vec<(usize, usize)> = waiting
        .by_ref()
        .take(CONCURRENT_SESSIONS)
        .map(|s| (s, 0))
        .collect();
    let mut stream = Vec::with_capacity(sessions.iter().map(|s| s.events.len()).sum());
    while !open.is_empty() {
        let k = rng.gen_range(0..open.len());
        let (s, cursor) = open[k];
        let session = &sessions[s];
        stream.push(TaggedCall {
            app: session.app.clone(),
            session: session.id.clone(),
            event: session.events[cursor].clone(),
        });
        if cursor + 1 == session.events.len() {
            match waiting.next() {
                Some(next) => open[k] = (next, 0),
                None => {
                    open.swap_remove(k);
                }
            }
        } else {
            open[k].1 = cursor + 1;
        }
    }
    stream
}

/// Encodes the stream as one ADP1 frame per tick of `per_frame` events.
pub fn frames(stream: &[TaggedCall], per_frame: usize) -> Vec<Vec<u8>> {
    stream.chunks(per_frame).map(encode_frame).collect()
}
