//! Schedule recording and exact replay.
//!
//! When an adversarial run exhibits something interesting (a step-count
//! spike, a near-violation), you want to re-execute *that exact
//! schedule* under a debugger or after a code tweak. [`RecordingAdversary`]
//! wraps any strategy and captures its decision tape;
//! [`ReplayAdversary`] feeds a tape back verbatim. Together with the
//! seed-stable process RNG this makes whole executions reproducible
//! artifacts you can store and bisect.

use crate::adversary::{Adversary, Decision, RunView};
use crate::ids::Pid;

/// A recorded schedule: the exact decision sequence of one execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tape {
    decisions: Vec<Decision>,
}

impl Tape {
    /// A tape from an explicit decision sequence — how the schedule
    /// explorer ([`crate::explore`]) and the shrinker materialize the
    /// branches they synthesize.
    pub fn from_decisions(decisions: Vec<Decision>) -> Self {
        Self { decisions }
    }

    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The recorded decisions.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Serializes to a compact text form (`g12` = grant pid 12,
    /// `c3` = crash pid 3), one token per decision.
    pub fn to_text(&self) -> String {
        self.decisions
            .iter()
            .map(|d| match d {
                Decision::Grant(p) => format!("g{p}"),
                Decision::Crash(p) => format!("c{p}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses the text form produced by [`Tape::to_text`].
    ///
    /// # Errors
    /// Returns the offending token on malformed input.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut decisions = Vec::new();
        for tok in text.split_whitespace() {
            let mut chars = tok.chars();
            let kind = chars.next();
            let pid: usize = chars.as_str().parse().map_err(|_| tok.to_string())?;
            decisions.push(match kind {
                Some('g') => Decision::Grant(Pid::new(pid)),
                Some('c') => Decision::Crash(Pid::new(pid)),
                _ => return Err(tok.to_string()),
            });
        }
        Ok(Self { decisions })
    }
}

/// Wraps an adversary and records every decision it makes.
#[derive(Debug)]
pub struct RecordingAdversary<A> {
    inner: A,
    tape: Tape,
}

impl<A: Adversary> RecordingAdversary<A> {
    /// Starts recording over `inner`.
    pub fn new(inner: A) -> Self {
        Self { inner, tape: Tape::default() }
    }

    /// The tape recorded so far.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Consumes the recorder, returning the tape.
    pub fn into_tape(self) -> Tape {
        self.tape
    }
}

impl<A: Adversary> Adversary for RecordingAdversary<A> {
    fn decide(&mut self, view: &RunView<'_>) -> Decision {
        let d = self.inner.decide(view);
        self.tape.decisions.push(d);
        d
    }

    fn decide_batch(&mut self, view: &RunView<'_>, out: &mut Vec<Decision>, max: usize) {
        // Forward the inner strategy's batching (recording must not
        // change the schedule) and capture whatever it appended.
        let start = out.len();
        self.inner.decide_batch(view, out, max);
        self.tape.decisions.extend_from_slice(&out[start..]);
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

/// Replays a tape verbatim.
///
/// # Panics
/// `decide` panics if the tape runs out — a replay against different
/// code or seeds that diverges is a bug worth failing loudly on.
#[derive(Debug)]
pub struct ReplayAdversary {
    tape: Tape,
    at: usize,
}

impl ReplayAdversary {
    /// Replays `tape` from the start.
    pub fn new(tape: Tape) -> Self {
        Self { tape, at: 0 }
    }

    /// Decisions consumed so far.
    pub fn position(&self) -> usize {
        self.at
    }
}

impl Adversary for ReplayAdversary {
    fn decide(&mut self, _view: &RunView<'_>) -> Decision {
        let d = self
            .tape
            .decisions
            .get(self.at)
            .copied()
            .unwrap_or_else(|| panic!("replay tape exhausted at decision {}", self.at));
        self.at += 1;
        d
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FairAdversary, RandomAdversary};
    use crate::process::testutil::ScanProcess;
    use crate::shard::Arena;
    use rr_shmem::tas::AtomicTasArray;
    use std::sync::Arc;

    fn scan_procs(n: usize) -> Vec<ScanProcess<AtomicTasArray>> {
        let mem = Arc::new(AtomicTasArray::new(n));
        (0..n).map(|pid| ScanProcess { pid, mem: Arc::clone(&mem), cursor: 0 }).collect()
    }

    #[test]
    fn record_then_replay_reproduces_everything() {
        let mut rec = RecordingAdversary::new(RandomAdversary::new(77));
        let out1 = Arena::new().run(&mut scan_procs(16), &mut rec, 10_000).unwrap();
        let tape = rec.into_tape();
        assert_eq!(tape.len() as u64, out1.decisions);

        let mut replay = ReplayAdversary::new(tape);
        let out2 = Arena::new().run(&mut scan_procs(16), &mut replay, 10_000).unwrap();
        assert_eq!(out1.names, out2.names);
        assert_eq!(out1.steps, out2.steps);
        assert_eq!(replay.position() as u64, out2.decisions);
    }

    #[test]
    fn text_roundtrip() {
        let mut rec = RecordingAdversary::new(FairAdversary::default());
        let _ = Arena::new().run(&mut scan_procs(6), &mut rec, 10_000).unwrap();
        let tape = rec.into_tape();
        let text = tape.to_text();
        let parsed = Tape::from_text(&text).unwrap();
        assert_eq!(parsed, tape);
        assert!(text.starts_with('g'));
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Tape::from_text("g1 x2").is_err());
        assert!(Tape::from_text("gg").is_err());
        assert_eq!(Tape::from_text("").unwrap().len(), 0);
        assert!(Tape::from_text("").unwrap().is_empty());
    }

    #[test]
    fn from_text_names_the_bad_token() {
        // A token opening with a multi-byte character is an error, not a
        // split inside that character.
        for bad in ["é3", "→", "g", "x3"] {
            assert_eq!(Tape::from_text(&format!("g0 {bad} c1")), Err(bad.to_string()));
        }
        let tape = Tape::from_text("g0 c12 g3").unwrap();
        assert_eq!(Tape::from_text(&tape.to_text()), Ok(tape));
    }

    #[test]
    #[should_panic(expected = "tape exhausted")]
    fn exhausted_tape_panics() {
        let tape = Tape::from_text("g0").unwrap();
        let mut replay = ReplayAdversary::new(tape);
        // Two processes need more than one decision.
        let _ = Arena::new().run(&mut scan_procs(2), &mut replay, 10_000);
    }

    #[test]
    fn tape_accessors() {
        let tape = Tape::from_text("g3 c1 g0").unwrap();
        assert_eq!(tape.len(), 3);
        assert_eq!(
            tape.decisions(),
            &[
                Decision::Grant(Pid::new(3)),
                Decision::Crash(Pid::new(1)),
                Decision::Grant(Pid::new(0))
            ]
        );
    }
}
