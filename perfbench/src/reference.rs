//! The reference scorer every correctness check compares against. It
//! shares no scoring code with the program: a plain dense scaled forward
//! pass (Rabiner §V, f64) over the profile's A, B and π, and the §IV-D
//! flag rule written out again.

use adprom_core::{Flag, Profile};
use adprom_hmm::Hmm;
use adprom_trace::CallEvent;
use std::collections::HashMap;

/// `log P(obs | λ)` by the scaled forward recursion; `-inf` for an
/// impossible sequence, `0` for an empty one.
pub fn forward_ll(hmm: &Hmm, obs: &[usize]) -> f64 {
    let n = hmm.n_states();
    let Some((&first, rest)) = obs.split_first() else {
        return 0.0;
    };
    let mut alpha: Vec<f64> = (0..n).map(|i| hmm.pi[i] * hmm.b(i, first)).collect();
    let mut ll = 0.0;
    let mut next = vec![0.0; n];
    let mut norm = |alpha: &mut [f64]| -> bool {
        let sum: f64 = alpha.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            return false;
        }
        ll += sum.ln();
        alpha.iter_mut().for_each(|v| *v /= sum);
        true
    };
    if !norm(&mut alpha) {
        return f64::NEG_INFINITY;
    }
    for &o in rest {
        for (j, slot) in next.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, a) in alpha.iter().enumerate() {
                s += a * hmm.a(i, j);
            }
            *slot = s * hmm.b(j, o);
        }
        std::mem::swap(&mut alpha, &mut next);
        if !norm(&mut alpha) {
            return f64::NEG_INFINITY;
        }
    }
    ll
}

/// Per-event log contributions `ln c_t` of one scaled forward chain over
/// a whole session, anchored at π on its first event. An event the chain
/// cannot produce restarts it from π there, contributing `-inf` only if it
/// is impossible even as a start.
pub fn chain_contributions(hmm: &Hmm, obs: &[usize]) -> Vec<f64> {
    let n = hmm.n_states();
    let mut out = Vec::with_capacity(obs.len());
    let mut alpha: Option<Vec<f64>> = None;
    let mut next = vec![0.0; n];
    for &o in obs {
        match &alpha {
            Some(prev) => {
                for (j, slot) in next.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for (i, a) in prev.iter().enumerate() {
                        s += a * hmm.a(i, j);
                    }
                    *slot = s * hmm.b(j, o);
                }
            }
            None => next
                .iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = hmm.pi[i] * hmm.b(i, o)),
        }
        let mut sum: f64 = next.iter().sum();
        if sum <= 0.0 && alpha.is_some() {
            next.iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = hmm.pi[i] * hmm.b(i, o));
            sum = next.iter().sum();
        }
        if sum > 0.0 {
            next.iter_mut().for_each(|v| *v /= sum);
            out.push(sum.ln());
            alpha = Some(next.clone());
        } else {
            out.push(f64::NEG_INFINITY);
            alpha = None;
        }
    }
    out
}

/// The reference verdict of one window.
#[derive(Debug, Clone, Copy)]
pub struct RefWindow {
    /// Reference log-likelihood.
    pub ll: f64,
    /// Reference flag.
    pub flag: Flag,
}

/// A profile prepared for reference scoring: its own symbol index, so
/// encoding does not go through the program's alphabet either.
pub struct Reference<'a> {
    profile: &'a Profile,
    index: HashMap<&'a str, usize>,
    unknown: usize,
}

impl<'a> Reference<'a> {
    /// Indexes the profile's alphabet.
    pub fn new(profile: &'a Profile) -> Reference<'a> {
        let symbols = profile.alphabet.symbols();
        let index: HashMap<&str, usize> = symbols
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        let unknown = *index
            .get(adprom_core::UNKNOWN)
            .expect("every alphabet carries the unknown symbol");
        Reference {
            profile,
            index,
            unknown,
        }
    }

    /// Reference log-likelihood of a window of call names.
    pub fn score<S: AsRef<str>>(&self, names: &[S]) -> f64 {
        let obs: Vec<usize> = names
            .iter()
            .map(|n| *self.index.get(n.as_ref()).unwrap_or(&self.unknown))
            .collect();
        forward_ll(&self.profile.hmm, &obs)
    }

    /// §IV-D flag rule: OutOfContext when a call's caller is missing from
    /// the caller set the profile holds for it; otherwise a score below
    /// the threshold is DataLeak when the window holds a `_Q` label and
    /// Anomalous when it does not.
    pub fn flag(&self, events: &[CallEvent], ll: f64) -> Flag {
        let ooc = events.iter().any(|e| {
            self.profile
                .call_callers
                .get(&*e.name)
                .is_some_and(|callers| !callers.contains(&*e.caller))
        });
        if ooc {
            Flag::OutOfContext
        } else if ll < self.profile.threshold {
            if events.iter().any(|e| e.name.contains("_Q")) {
                Flag::DataLeak
            } else {
                Flag::Anomalous
            }
        } else {
            Flag::Normal
        }
    }

    fn encode(&self, events: &[CallEvent]) -> Vec<usize> {
        events
            .iter()
            .map(|e| *self.index.get(&*e.name).unwrap_or(&self.unknown))
            .collect()
    }

    /// Every window of a session as the incremental monitor scores it:
    /// one window per `n` consecutive events (the whole trace when it is
    /// shorter), each scored as the sum of its events' `ln c_t` from one
    /// chain over the session — the window's events conditioned on the
    /// session's history, which for the first window is its π-anchored
    /// likelihood.
    pub fn session(&self, events: &[CallEvent]) -> Vec<RefWindow> {
        let n = self.profile.window;
        if events.is_empty() {
            return Vec::new();
        }
        let chain = chain_contributions(&self.profile.hmm, &self.encode(events));
        let len = events.len().min(n);
        (0..=events.len() - len)
            .map(|s| {
                let ll = chain[s..s + len].iter().sum();
                RefWindow {
                    ll,
                    flag: self.flag(&events[s..s + len], ll),
                }
            })
            .collect()
    }

    /// The profile's threshold.
    pub fn threshold(&self) -> f64 {
        self.profile.threshold
    }
}

/// Highest-severity flag of a list of windows.
pub fn verdict(windows: &[RefWindow]) -> Flag {
    windows.iter().map(|w| w.flag).max().unwrap_or(Flag::Normal)
}

/// Relative closeness of two log-likelihoods (equal infinities match).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    if a == b {
        return true;
    }
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}
