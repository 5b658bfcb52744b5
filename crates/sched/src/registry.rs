//! String-keyed adversary registry.
//!
//! Every experiment used to re-match an ad-hoc schedule enum by hand;
//! the registry names each adversary strategy **once** and lets any
//! driver build it from a string key alone — `"fair"`, `"random"`,
//! `"collisions"`, `"stall"`, or `"crash:p=20,cap=10"` (crash
//! probability in permille at winning announces, crash budget as a
//! percentage of `n`). The zoo strategies — `"lookahead:k=K"`,
//! `"bursty:len=L,gap=G"`, `"diurnal:period=P"`, `"victim:pid=V"` —
//! stress schedulers with foresight, duty cycles and starvation bias.
//! Keys follow the shared [`ParsedKey`] grammar
//! `name[:k=v[,k=v…]]` also used by the algorithm registry.
//!
//! Adding a strategy is a one-registration change: implement
//! [`Adversary`], then [`AdversaryRegistry::register`] a factory that
//! validates the key's parameters and returns a per-run builder.

use crate::adversary::{
    Adversary, BurstyAdversary, CollisionMaximizer, CrashAdversary, DiurnalAdversary,
    FairAdversary, LookaheadAdversary, RandomAdversary, StallWinners, VictimAdversary,
};
use rr_shmem::Access;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A key of the form `name[:k=v[,k=v…]]`, e.g. `crash:p=200,cap=25`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedKey {
    /// The entry name (everything before the first `:`).
    pub name: String,
    params: Vec<(String, String)>,
}

impl ParsedKey {
    /// Parses `name[:k=v[,k=v…]]`.
    ///
    /// The full grammar, executable:
    ///
    /// ```
    /// use rr_sched::registry::ParsedKey;
    ///
    /// // name alone, or name + comma-separated k=v parameters:
    /// assert_eq!(ParsedKey::parse("fair").unwrap().name, "fair");
    /// let key = ParsedKey::parse("crash:p=200,cap=25").unwrap();
    /// assert_eq!(key.name, "crash");
    /// assert_eq!(key.get::<u32>("p", 20).unwrap(), 200);
    /// assert_eq!(key.get::<u32>("missing", 7).unwrap(), 7); // default
    ///
    /// // factories reject typo'd parameters instead of defaulting:
    /// key.check_known(&["p", "cap"]).unwrap();
    /// assert!(key.check_known(&["p"]).is_err());
    ///
    /// // malformed keys are loud errors, not guesses:
    /// assert!(ParsedKey::parse("").is_err());        // empty key
    /// assert!(ParsedKey::parse(":p=1").is_err());    // empty name
    /// assert!(ParsedKey::parse("crash:p").is_err()); // not k=v
    /// assert!(ParsedKey::parse("crash:p=x").unwrap().get::<u32>("p", 0).is_err());
    /// ```
    ///
    /// # Errors
    /// Returns a human-readable message on an empty key or a parameter
    /// that is not of the form `k=v`.
    pub fn parse(key: &str) -> Result<Self, String> {
        let key = key.trim();
        if key.is_empty() {
            return Err("empty key".into());
        }
        let (name, rest) = match key.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (key, None),
        };
        if name.is_empty() {
            return Err(format!("key `{key}` has an empty name"));
        }
        let mut params = Vec::new();
        if let Some(rest) = rest {
            for part in rest.split(',') {
                let (k, v) = part
                    .split_once('=')
                    .ok_or_else(|| format!("malformed parameter `{part}` in `{key}` (want k=v)"))?;
                params.push((k.trim().to_string(), v.trim().to_string()));
            }
        }
        Ok(Self { name: name.to_string(), params })
    }

    /// The value of parameter `name` parsed as `T`, or `default` when the
    /// key does not mention it.
    ///
    /// # Errors
    /// Returns a message when the value fails to parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.params.iter().find(|(k, _)| k == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("parameter `{name}={v}` of `{}` is invalid", self.name)),
        }
    }

    /// Rejects parameters outside `allowed` — factories call this so a
    /// typo (`crash:P=20`) fails loudly instead of silently defaulting.
    ///
    /// # Errors
    /// Returns a message naming the unknown parameter.
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.params {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown parameter `{k}` for `{}` (allowed: {})",
                    self.name,
                    if allowed.is_empty() { "none".to_string() } else { allowed.join(", ") }
                ));
            }
        }
        Ok(())
    }
}

/// Builds one fresh adversary for a run at size `n` with `seed`.
pub type AdversaryBuilder = Box<dyn Fn(usize, u64) -> Box<dyn Adversary> + Send + Sync>;

type Factory = Arc<dyn Fn(&ParsedKey) -> Result<AdversaryBuilder, String> + Send + Sync>;

struct Entry {
    factory: Factory,
    summary: &'static str,
    example: &'static str,
}

/// Maps adversary names to factories; see the module docs for the key
/// grammar and [`AdversaryRegistry::with_standard`] for the stock set.
#[derive(Default)]
pub struct AdversaryRegistry {
    entries: BTreeMap<String, Entry>,
}

impl AdversaryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard strategies: `fair`, `random`, `collisions`, `stall`,
    /// `crash` (params `p` = crash probability in permille at
    /// winning-kind announces, default 20; `cap` = crash budget as a
    /// percentage of `n`, default 10), the load-shape zoo `lookahead`
    /// (param `k` ≥ 1 = committed window length, default 4), `bursty`
    /// (params `len` ≥ 1 = fair grants per burst, default 8; `gap` =
    /// front-hammer grants between bursts, default 4), `diurnal` (param
    /// `period` ≥ 2 = duty-cycle length in decisions, default 64) and
    /// `victim` (param `pid` = the starved process, default 0). Each
    /// builder call returns a fresh adversary that depends only on its
    /// `(n, seed)`; the schedule-space searchers of [`crate::explore`]
    /// are driven directly, not through the registry.
    ///
    /// ```
    /// use rr_sched::adversary::Adversary;
    /// use rr_sched::registry::AdversaryRegistry;
    ///
    /// let reg = AdversaryRegistry::with_standard();
    /// assert_eq!(reg.keys().len(), 9);
    /// let adversary = reg.build("bursty:len=2,gap=7", 16, 3).unwrap();
    /// assert!(!adversary.name().is_empty());
    ///
    /// // Parameters are validated at build time:
    /// assert!(reg.build("crash:p=2000", 4, 0).is_err());
    /// assert!(reg.build("lookahead:k=0", 4, 0).is_err());
    /// ```
    pub fn with_standard() -> Self {
        let mut reg = Self::new();
        reg.register("fair", "round-robin over active processes", "fair", |key| {
            key.check_known(&[])?;
            Ok(Box::new(|_, _| Box::new(FairAdversary::default())))
        });
        reg.register("random", "uniformly random seeded schedule", "random", |key| {
            key.check_known(&[])?;
            Ok(Box::new(|_, seed| Box::new(RandomAdversary::new(seed))))
        });
        reg.register(
            "collisions",
            "schedules the largest same-target group back to back",
            "collisions",
            |key| {
                key.check_known(&[])?;
                Ok(Box::new(|_, _| Box::new(CollisionMaximizer::default())))
            },
        );
        reg.register(
            "stall",
            "defers winning-kind announces (TAS / tau-request) behind everyone else",
            "stall",
            |key| {
                key.check_known(&[])?;
                Ok(Box::new(|_, _| {
                    Box::new(StallWinners::new(Box::new(|a: &Access| a.is_winning_kind())))
                }))
            },
        );
        reg.register(
            "crash",
            "fair schedule + crashes at winning announces (p permille, cap % of n)",
            "crash:p=20,cap=10",
            |key| {
                key.check_known(&["p", "cap"])?;
                let p: u32 = key.get("p", 20)?;
                let cap: u32 = key.get("cap", 10)?;
                if p > 1000 {
                    return Err(format!("crash probability p={p} exceeds 1000 permille"));
                }
                Ok(Box::new(move |n, seed| {
                    Box::new(CrashAdversary::new(
                        FairAdversary::default(),
                        p as f64 / 1000.0,
                        n * cap as usize / 100,
                        seed,
                    ))
                }))
            },
        );
        reg.register(
            "lookahead",
            "oblivious k-step lookahead: commits to the next k runnable pids from one view",
            "lookahead:k=4",
            |key| {
                key.check_known(&["k"])?;
                let k: usize = key.get("k", 4)?;
                if k == 0 {
                    return Err("lookahead needs k >= 1, got 0".to_string());
                }
                Ok(Box::new(move |_, _| Box::new(LookaheadAdversary::new(k))))
            },
        );
        reg.register(
            "bursty",
            "bursts of len fair grants separated by gap grants of the lowest runnable pid",
            "bursty:len=8,gap=4",
            |key| {
                key.check_known(&["len", "gap"])?;
                let len: usize = key.get("len", 8)?;
                let gap: usize = key.get("gap", 4)?;
                if len == 0 {
                    return Err("bursty needs len >= 1, got 0".to_string());
                }
                Ok(Box::new(move |_, _| Box::new(BurstyAdversary::new(len, gap))))
            },
        );
        reg.register(
            "diurnal",
            "sinusoidal duty cycle: the eligible prefix of runnable pids swells with period P",
            "diurnal:period=64",
            |key| {
                key.check_known(&["period"])?;
                let period: u64 = key.get("period", 64)?;
                if period < 2 {
                    return Err(format!("diurnal needs period >= 2, got {period}"));
                }
                Ok(Box::new(move |_, _| Box::new(DiurnalAdversary::new(period))))
            },
        );
        reg.register(
            "victim",
            "fair schedule that starves pid V, granting it only when it runs alone",
            "victim:pid=0",
            |key| {
                key.check_known(&["pid"])?;
                let pid: usize = key.get("pid", 0)?;
                Ok(Box::new(move |_, _| Box::new(VictimAdversary::new(pid))))
            },
        );
        reg
    }

    /// Registers `name` with a one-line `summary`, an `example` key, and
    /// a factory that validates a parsed key and returns a per-run
    /// builder. Re-registering a name replaces the entry.
    pub fn register(
        &mut self,
        name: &str,
        summary: &'static str,
        example: &'static str,
        factory: impl Fn(&ParsedKey) -> Result<AdversaryBuilder, String> + Send + Sync + 'static,
    ) {
        self.entries
            .insert(name.to_string(), Entry { factory: Arc::new(factory), summary, example });
    }

    /// Validates `key` and returns its per-run builder.
    ///
    /// # Errors
    /// Returns a message on an unknown name or bad parameters.
    pub fn prepare(&self, key: &str) -> Result<AdversaryBuilder, String> {
        let parsed = ParsedKey::parse(key)?;
        let entry = self.entries.get(&parsed.name).ok_or_else(|| {
            format!("unknown adversary `{}` (registered: {})", parsed.name, self.keys().join(", "))
        })?;
        (entry.factory)(&parsed)
    }

    /// Builds one adversary for a run at size `n` with `seed`.
    ///
    /// # Errors
    /// Same conditions as [`AdversaryRegistry::prepare`].
    pub fn build(&self, key: &str, n: usize, seed: u64) -> Result<Box<dyn Adversary>, String> {
        Ok(self.prepare(key)?(n, seed))
    }

    /// Registered names, sorted.
    pub fn keys(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// `(name, summary, example)` rows for `--list`-style output.
    pub fn entries(&self) -> Vec<(&str, &'static str, &'static str)> {
        self.entries.iter().map(|(k, e)| (k.as_str(), e.summary, e.example)).collect()
    }
}

/// The process-wide standard registry (built once, immutable).
pub fn standard() -> &'static AdversaryRegistry {
    static STANDARD: OnceLock<AdversaryRegistry> = OnceLock::new();
    STANDARD.get_or_init(AdversaryRegistry::with_standard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Decision, ViewFixture};
    use crate::ids::Pid;

    #[test]
    fn parse_key_grammar() {
        let k = ParsedKey::parse("crash:p=200,cap=25").unwrap();
        assert_eq!(k.name, "crash");
        assert_eq!(k.get::<u32>("p", 0).unwrap(), 200);
        assert_eq!(k.get::<u32>("cap", 0).unwrap(), 25);
        assert_eq!(k.get::<u32>("missing", 7).unwrap(), 7);
        assert_eq!(ParsedKey::parse("fair").unwrap().name, "fair");
        assert!(ParsedKey::parse("").is_err());
        assert!(ParsedKey::parse(":p=1").is_err());
        assert!(ParsedKey::parse("crash:p").is_err());
        assert!(ParsedKey::parse("crash:p=x").unwrap().get::<u32>("p", 0).is_err());
    }

    #[test]
    fn check_known_rejects_typos() {
        let k = ParsedKey::parse("crash:P=20").unwrap();
        assert!(k.check_known(&["p", "cap"]).is_err());
        assert!(k.check_known(&["P"]).is_ok());
    }

    #[test]
    fn standard_names_build() {
        for key in [
            "fair",
            "random",
            "collisions",
            "stall",
            "crash",
            "crash:p=200,cap=25",
            "lookahead",
            "lookahead:k=3",
            "bursty",
            "bursty:len=2,gap=7",
            "diurnal",
            "diurnal:period=16",
            "victim",
            "victim:pid=5",
        ] {
            let adv = standard().build(key, 16, 3).unwrap();
            assert!(!adv.name().is_empty(), "{key}");
        }
    }

    #[test]
    fn unknown_name_and_params_error() {
        assert!(standard().build("livelock", 8, 0).is_err());
        assert!(standard().build("fair:x=1", 8, 0).is_err());
        assert!(standard().build("crash:q=1", 8, 0).is_err());
        assert!(standard().build("crash:p=2000", 8, 0).is_err());
        assert_eq!(
            standard().build("lookahead:k=0", 8, 0).err().unwrap(),
            "lookahead needs k >= 1, got 0"
        );
        assert_eq!(
            standard().build("bursty:len=0", 8, 0).err().unwrap(),
            "bursty needs len >= 1, got 0"
        );
        assert_eq!(
            standard().build("diurnal:period=1", 8, 0).err().unwrap(),
            "diurnal needs period >= 2, got 1"
        );
        assert!(standard().build("victim:p=0", 8, 0).is_err());
        assert!(standard().build("lookahead:k=x", 8, 0).is_err());
    }

    #[test]
    fn registered_entries_listed() {
        let keys = standard().keys();
        assert_eq!(
            keys,
            vec![
                "bursty",
                "collisions",
                "crash",
                "diurnal",
                "fair",
                "lookahead",
                "random",
                "stall",
                "victim",
            ]
        );
        assert_eq!(standard().entries().len(), 9);
    }

    #[test]
    fn crash_key_matches_manual_construction() {
        // The registry and a hand-built CrashAdversary must make the same
        // decisions given the same seed — single source of truth.
        let fx = ViewFixture::new(crate::entity_vec![Some(Access::Tas { array: 0, index: 0 }); 8]);
        let mut from_key = standard().build("crash:p=500,cap=50", 8, 9).unwrap();
        let mut manual = CrashAdversary::new(FairAdversary::default(), 0.5, 4, 9);
        for _ in 0..32 {
            let a = from_key.decide(&fx.view());
            let b = manual.decide(&fx.view());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stall_prefers_non_winning_kinds() {
        let fx = ViewFixture::new(crate::entity_vec![
            Some(Access::Tas { array: 0, index: 0 }),
            Some(Access::Read { array: 0, index: 0 }),
        ]);
        let mut adv = standard().build("stall", 2, 0).unwrap();
        assert_eq!(adv.decide(&fx.view()), Decision::Grant(Pid::new(1)));
    }
}
