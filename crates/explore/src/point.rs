//! Design points: one fully specified scheduling query on a DFG, the
//! knob table every front end parses them with, and their lowering to
//! scheduler configs.

use std::collections::{BTreeMap, BTreeSet};

use hls_celllib::{ClockPeriod, Library, OpKind, TimingSpec};
use hls_dfg::FuClass;
use moveframe::mfs::MfsConfig;
use moveframe::mfsa::{DesignStyle, MfsaConfig, Weights};
use moveframe::CancelToken;

use crate::fingerprint::Fnv1a;

/// The scheduling algorithm a point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algorithm {
    /// Move Frame Scheduling (paper §3).
    Mfs,
    /// Mixed scheduling-allocation (paper §4), producing a data path.
    Mfsa,
    /// Resource-constrained list scheduling (baseline).
    List,
    /// Force-directed scheduling after HAL (baseline).
    Fds,
    /// Simulated annealing with the fixed default seed (baseline).
    Anneal,
}

impl Algorithm {
    /// The canonical lowercase name, as used in grid files and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Mfs => "mfs",
            Algorithm::Mfsa => "mfsa",
            Algorithm::List => "list",
            Algorithm::Fds => "fds",
            Algorithm::Anneal => "anneal",
        }
    }

    /// Parses a canonical algorithm name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == s)
    }

    /// All algorithms, in canonical order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Mfs,
        Algorithm::Mfsa,
        Algorithm::List,
        Algorithm::Fds,
        Algorithm::Anneal,
    ];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One constraint point of an exploration grid.
///
/// The fields mirror the knobs of the underlying schedulers: time
/// constraint, per-class FU bounds (MFS and list scheduling),
/// chaining clock, functional-pipelining latency, structurally
/// pipelined operators (MFS only), and the MFSA design style /
/// Liapunov weights. [`DesignPoint::fingerprint`] canonically hashes
/// every result-affecting field — the label is display-only and
/// excluded, so equal queries with different labels share one cache
/// entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignPoint {
    /// Display label (autogenerated when empty; never affects results).
    pub label: String,
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// The time constraint in control steps.
    pub cs: u32,
    /// Per-class FU bounds (MFS `with_fu_limit`, list-scheduling limits;
    /// ignored by FDS/anneal/MFSA).
    pub fu_limits: BTreeMap<FuClass, u32>,
    /// Chaining clock period in ns, when chaining is on.
    pub clock: Option<u32>,
    /// Functional-pipelining latency (initiation interval).
    pub latency: Option<u32>,
    /// Structurally pipelined operators (MFS only; stage-expands the
    /// graph before scheduling).
    pub pipeline_ops: BTreeSet<OpKind>,
    /// MFSA design style: 1 = unrestricted, 2 = no ALU self-loop.
    pub style: u8,
    /// MFSA Liapunov weights `(time, alu, mux, reg)`; `None` = balanced.
    pub weights: Option<(u32, u32, u32, u32)>,
}

impl DesignPoint {
    /// A point running `algorithm` at time constraint `cs`, everything
    /// else at defaults (no FU bounds, no chaining, no pipelining,
    /// style 1, balanced weights).
    pub fn new(algorithm: Algorithm, cs: u32) -> DesignPoint {
        DesignPoint {
            label: String::new(),
            algorithm,
            cs,
            fu_limits: BTreeMap::new(),
            clock: None,
            latency: None,
            pipeline_ops: BTreeSet::new(),
            style: 1,
            weights: None,
        }
    }

    /// The display label: the explicit one, else a canonical
    /// `algorithm@T<cs>` form with the non-default knobs appended.
    pub fn display_label(&self) -> String {
        if !self.label.is_empty() {
            return self.label.clone();
        }
        let mut s = format!("{}@T{}", self.algorithm, self.cs);
        for (class, limit) in &self.fu_limits {
            s.push_str(&format!(" {class}≤{limit}"));
        }
        if let Some(clock) = self.clock {
            s.push_str(&format!(" clock={clock}"));
        }
        if let Some(l) = self.latency {
            s.push_str(&format!(" latency={l}"));
        }
        if !self.pipeline_ops.is_empty() {
            s.push_str(" pipelined");
        }
        if self.algorithm == Algorithm::Mfsa && self.style != 1 {
            s.push_str(&format!(" style{}", self.style));
        }
        s
    }

    /// Canonical fingerprint of every result-affecting field.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u32(self.algorithm as u32);
        h.write_u32(self.cs);
        h.write_u64(self.fu_limits.len() as u64);
        for (class, limit) in &self.fu_limits {
            h.write_str(&class.to_string());
            h.write_u32(*limit);
        }
        h.write_u32(self.clock.map_or(u32::MAX, |c| c));
        h.write_u32(self.latency.map_or(u32::MAX, |l| l));
        h.write_u64(self.pipeline_ops.len() as u64);
        for op in &self.pipeline_ops {
            h.write_str(op.symbol());
        }
        h.write_u32(self.style as u32);
        let (wt, wa, wm, wr) = self.weights.unwrap_or((1, 1, 1, 1));
        h.write_u32(wt);
        h.write_u32(wa);
        h.write_u32(wm);
        h.write_u32(wr);
        h.finish()
    }
}

/// A knob name or value [`DesignPoint::set`] rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobError {
    /// No knob has this name.
    Unknown(String),
    /// The value is malformed or outside the range the schedulers take.
    Invalid {
        /// The knob, by the name it was set with.
        knob: &'static str,
        /// The rejected value.
        value: String,
        /// Why it is rejected.
        reason: &'static str,
    },
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KnobError::Unknown(key) => write!(f, "unknown knob `{key}`"),
            KnobError::Invalid {
                knob,
                value,
                reason,
            } => {
                write!(f, "invalid `{knob}` value `{value}`: {reason}")
            }
        }
    }
}

impl std::error::Error for KnobError {}

/// How a knob's value is typed where values carry types (grid-file
/// TOML, JSON jobs). [`DesignPoint::set`] itself always takes text; a
/// list is comma-separated text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// One non-negative integer.
    Int,
    /// One string.
    Text,
    /// A list of integers.
    IntList,
    /// A list of strings.
    TextList,
}

/// One row of the knob table [`KNOBS`].
#[derive(Debug)]
pub struct Knob {
    /// The canonical name first, then the aliases front ends use.
    pub names: &'static [&'static str],
    /// How typed front ends spell the value.
    pub kind: KnobKind,
    /// The value syntax, for help text.
    pub syntax: &'static str,
    /// One help line.
    pub help: &'static str,
    /// Parses and range-checks a value into the point; `Err` says why
    /// the value is rejected.
    parse: fn(&mut DesignPoint, &str) -> Result<(), &'static str>,
}

impl Knob {
    /// The canonical name.
    pub fn name(&self) -> &'static str {
        self.names[0]
    }

    /// The row a canonical name or alias names.
    pub fn lookup(key: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|k| k.names.contains(&key))
    }
}

const POSITIVE: &str = "must be a positive integer";
const OP_COUNT: &str = "must be OP=N or OP:N entries (op symbol or name, N >= 1)";

fn positive(value: &str) -> Result<u32, &'static str> {
    value.parse().ok().filter(|&n| n >= 1).ok_or(POSITIVE)
}

/// The non-empty entries of a comma-separated list.
fn entries(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|e| !e.is_empty())
}

/// Every design-point knob: the one place a knob value is parsed and
/// validated. `mfhls` flags, grid-file keys and served job keys each
/// accept a subset of these names; all of them go through
/// [`DesignPoint::set`].
pub static KNOBS: [Knob; 9] = [
    Knob {
        names: &["alg", "algorithm"],
        kind: KnobKind::Text,
        syntax: "A",
        help: "algorithm: mfs|mfsa|list|fds|anneal",
        parse: |p, v| {
            p.algorithm =
                Algorithm::parse(v).ok_or("unknown algorithm (mfs|mfsa|list|fds|anneal)")?;
            Ok(())
        },
    },
    Knob {
        names: &["cs"],
        kind: KnobKind::Int,
        syntax: "N",
        help: "time constraint in control steps",
        parse: |p, v| {
            p.cs = positive(v)?;
            Ok(())
        },
    },
    Knob {
        names: &["limit", "limits"],
        kind: KnobKind::TextList,
        syntax: "OP=N",
        help: "cap the unit count of one operator class",
        parse: |p, v| {
            for entry in entries(v) {
                let (op, n) = entry
                    .rsplit_once(':')
                    .or_else(|| entry.rsplit_once('='))
                    .ok_or(OP_COUNT)?;
                let op: OpKind = op.trim().parse().map_err(|_| OP_COUNT)?;
                let n = positive(n.trim()).map_err(|_| OP_COUNT)?;
                p.fu_limits.insert(FuClass::Op(op), n);
            }
            Ok(())
        },
    },
    Knob {
        names: &["chain", "clock"],
        kind: KnobKind::Int,
        syntax: "CLOCK",
        help: "enable operator chaining under this clock period (ns)",
        parse: |p, v| {
            p.clock = Some(positive(v)?);
            Ok(())
        },
    },
    Knob {
        names: &["latency"],
        kind: KnobKind::Int,
        syntax: "L",
        help: "loop pipelining initiation interval",
        parse: |p, v| {
            p.latency = Some(positive(v)?);
            Ok(())
        },
    },
    Knob {
        names: &["pipeline"],
        kind: KnobKind::TextList,
        syntax: "OP[,OP...]",
        help: "structurally pipelined operators (MFS)",
        parse: |p, v| {
            for entry in entries(v) {
                p.pipeline_ops
                    .insert(entry.parse().map_err(|_| "must be op symbols or names")?);
            }
            Ok(())
        },
    },
    Knob {
        names: &["style"],
        kind: KnobKind::Int,
        syntax: "1|2",
        help: "MFSA design style (2 = no ALU self-loop)",
        parse: |p, v| {
            p.style = v
                .parse()
                .ok()
                .filter(|s| (1..=2).contains(s))
                .ok_or("must be 1 or 2")?;
            Ok(())
        },
    },
    Knob {
        names: &["weights"],
        kind: KnobKind::IntList,
        syntax: "T,A,M,R",
        help: "Liapunov weight vector",
        parse: |p, v| {
            const FOUR: &str = "must be four values T,A,M,R (non-negative integers)";
            let w: Vec<u32> = v
                .split(',')
                .map(|x| x.trim().parse().map_err(|_| FOUR))
                .collect::<Result<_, _>>()?;
            let [t, a, m, r] = w[..] else {
                return Err(FOUR);
            };
            p.weights = Some((t, a, m, r));
            Ok(())
        },
    },
    Knob {
        names: &["label"],
        kind: KnobKind::Text,
        syntax: "TEXT",
        help: "display label (never affects results)",
        parse: |p, v| {
            v.clone_into(&mut p.label);
            Ok(())
        },
    },
];

/// The timing model of a run: operator delays when chaining, else the
/// 2-cycle-multiply or the single-cycle profile.
pub fn timing_spec(chained: bool, two_cycle_mul: bool) -> TimingSpec {
    if chained {
        TimingSpec::with_delays()
    } else if two_cycle_mul {
        TimingSpec::two_cycle_multiply()
    } else {
        TimingSpec::uniform_single_cycle()
    }
}

impl DesignPoint {
    /// Sets the knob `key` (a canonical name or alias from [`KNOBS`])
    /// from its text form. List knobs (`limit`, `pipeline`) add to what
    /// is already set; the others replace it.
    ///
    /// # Errors
    ///
    /// [`KnobError::Unknown`] for a name outside the table,
    /// [`KnobError::Invalid`] for a value the schedulers would reject or
    /// panic on: a zero `cs`/`chain`/`latency`/limit count, a `style`
    /// other than 1 or 2, weights that are not four integers, an unknown
    /// algorithm or operator.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), KnobError> {
        let knob = Knob::lookup(key).ok_or_else(|| KnobError::Unknown(key.to_string()))?;
        (knob.parse)(self, value).map_err(|reason| KnobError::Invalid {
            knob: knob
                .names
                .iter()
                .find(|&&n| n == key)
                .unwrap_or(&knob.names[0]),
            value: value.to_string(),
            reason,
        })
    }

    /// The chaining clock period, when chaining is on.
    pub fn clock_period(&self) -> Option<ClockPeriod> {
        self.clock.map(ClockPeriod::new)
    }

    /// The timing model this point runs under (see [`timing_spec`]).
    pub fn timing_spec(&self, two_cycle_mul: bool) -> TimingSpec {
        timing_spec(self.clock.is_some(), two_cycle_mul)
    }

    /// The time-constrained MFS config: `cs`, the FU bounds, the
    /// chaining clock and the pipelining latency.
    pub fn mfs_config(&self, cancel: &CancelToken) -> MfsConfig {
        self.with_mfs_knobs(MfsConfig::time_constrained(self.cs).with_cancel(cancel.clone()))
    }

    /// [`DesignPoint::mfs_config`] in resource-constrained mode: `cs`
    /// bounds the schedule length instead of fixing it.
    pub fn mfs_resource_config(&self) -> MfsConfig {
        self.with_mfs_knobs(MfsConfig::resource_constrained(self.cs))
    }

    fn with_mfs_knobs(&self, mut config: MfsConfig) -> MfsConfig {
        for (&class, &limit) in &self.fu_limits {
            config = config.with_fu_limit(class, limit);
        }
        if let Some(clock) = self.clock_period() {
            config = config.with_chaining(clock);
        }
        if let Some(l) = self.latency {
            config = config.with_latency(l);
        }
        config
    }

    /// The MFSA config: `cs` against `library`, the design style, the
    /// Liapunov weights, the chaining clock and the pipelining latency.
    pub fn mfsa_config(&self, library: Library, cancel: &CancelToken) -> MfsaConfig {
        let mut config = MfsaConfig::new(self.cs, library)
            .with_cancel(cancel.clone())
            .with_style(if self.style == 2 {
                DesignStyle::NoSelfLoop
            } else {
                DesignStyle::Unrestricted
            });
        if let Some((time, alu, mux, reg)) = self.weights {
            config = config.with_weights(Weights {
                time,
                alu,
                mux,
                reg,
            });
        }
        if let Some(clock) = self.clock_period() {
            config = config.with_chaining(clock);
        }
        if let Some(l) = self.latency {
            config = config.with_latency(l);
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_do_not_affect_the_fingerprint() {
        let mut a = DesignPoint::new(Algorithm::Mfs, 4);
        let mut b = a.clone();
        a.label = "one".into();
        b.label = "two".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.display_label(), "one");
        assert_eq!(
            DesignPoint::new(Algorithm::Mfs, 4).display_label(),
            "mfs@T4"
        );
    }

    #[test]
    fn every_knob_changes_the_fingerprint() {
        let base = DesignPoint::new(Algorithm::Mfs, 4);
        let fp = base.fingerprint();
        let mut cs = base.clone();
        cs.cs = 5;
        let mut alg = base.clone();
        alg.algorithm = Algorithm::List;
        let mut lim = base.clone();
        lim.fu_limits.insert(FuClass::Op(OpKind::Mul), 2);
        let mut clk = base.clone();
        clk.clock = Some(100);
        let mut lat = base.clone();
        lat.latency = Some(2);
        let mut pipe = base.clone();
        pipe.pipeline_ops.insert(OpKind::Mul);
        let mut style = base.clone();
        style.style = 2;
        let mut w = base.clone();
        w.weights = Some((0, 1, 1, 1));
        for other in [&cs, &alg, &lim, &clk, &lat, &pipe, &style, &w] {
            assert_ne!(fp, other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn knobs_parse_through_the_table() {
        let mut p = DesignPoint::new(Algorithm::Mfs, 1);
        for (key, value) in [
            ("algorithm", "mfsa"),
            ("cs", "7"),
            ("limit", "mul:2,+=1"),
            ("limits", "==3"),
            ("clock", "100"),
            ("latency", "2"),
            ("pipeline", "*,add"),
            ("style", "2"),
            ("weights", "1, 2,3,4"),
            ("label", "x"),
        ] {
            p.set(key, value)
                .unwrap_or_else(|e| panic!("{key}={value}: {e}"));
        }
        assert_eq!(
            (p.algorithm, p.cs, p.clock, p.latency),
            (Algorithm::Mfsa, 7, Some(100), Some(2))
        );
        assert_eq!(p.fu_limits.len(), 3, "limit entries accumulate");
        assert_eq!(p.fu_limits[&FuClass::Op(OpKind::Eq)], 3);
        assert_eq!(p.pipeline_ops.len(), 2);
        assert_eq!(
            (p.style, p.weights, p.label.as_str()),
            (2, Some((1, 2, 3, 4)), "x")
        );
        for knob in &KNOBS {
            for name in knob.names {
                assert!(std::ptr::eq(Knob::lookup(name).unwrap(), knob));
            }
        }
    }

    #[test]
    fn zero_and_out_of_range_values_are_typed_errors() {
        let mut p = DesignPoint::new(Algorithm::Mfs, 4);
        for (key, value) in [
            ("cs", "0"),
            ("chain", "0"),
            ("latency", "0"),
            ("limit", "*=0"),
            ("limit", "mul"),
            ("limit", "bogus=2"),
            ("pipeline", "bogus"),
            ("style", "3"),
            ("weights", "1,2"),
            ("weights", "1,2,3,4,5"),
            ("alg", "nope"),
        ] {
            let e = p.set(key, value).unwrap_err();
            assert!(
                matches!(e, KnobError::Invalid { .. }),
                "{key}={value}: {e:?}"
            );
            assert!(e.to_string().contains(value), "{e}");
        }
        assert_eq!(
            p,
            DesignPoint::new(Algorithm::Mfs, 4),
            "rejected values leave no trace"
        );
        assert_eq!(p.set("wat", "1"), Err(KnobError::Unknown("wat".into())));
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(alg.name()), Some(alg));
        }
        assert_eq!(Algorithm::parse("nope"), None);
    }
}
