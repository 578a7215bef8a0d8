//! Operation timing: cycle counts and propagation delays.

use std::collections::BTreeMap;
use std::fmt;

use crate::OpKind;

/// A propagation delay in abstract time units (nominally nanoseconds).
///
/// Chaining (paper §5.4) schedules several data-dependent operations into
/// one control step when their accumulated delay fits within the clock
/// period; both quantities use this unit.
///
/// ```
/// use hls_celllib::Delay;
///
/// let d = Delay::new(35) + Delay::new(13);
/// assert_eq!(d, Delay::new(48));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Delay(u32);

impl Delay {
    /// The zero delay.
    pub const ZERO: Delay = Delay(0);

    /// Creates a delay of `ns` time units.
    pub const fn new(ns: u32) -> Self {
        Delay(ns)
    }

    /// The raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl std::ops::Add for Delay {
    type Output = Delay;

    fn add(self, rhs: Delay) -> Delay {
        Delay(self.0 + rhs.0)
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

/// The control-step clock period, in the same unit as [`Delay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockPeriod(u32);

impl ClockPeriod {
    /// Creates a clock period of `ns` time units.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is zero.
    pub const fn new(ns: u32) -> Self {
        assert!(ns > 0, "clock period must be positive");
        ClockPeriod(ns)
    }

    /// The raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Whether an operation of delay `d` starting at offset `start`
    /// within a control step still finishes inside the step.
    pub fn fits(self, start: Delay, d: Delay) -> bool {
        start.as_u32() + d.as_u32() <= self.0
    }
}

/// The control steps an operation really occupies: its `declared`
/// cycles, or — under a chaining `clock` — `max(declared, ⌈delay/T⌉)`,
/// since an operation slower than the period is multicycled by the
/// clock (paper §5.4). Every scheduler, the frame analysis and the
/// verifier count spans with this one rule.
///
/// ```
/// use hls_celllib::{effective_cycles, ClockPeriod, Delay};
///
/// let clock = Some(ClockPeriod::new(100));
/// assert_eq!(effective_cycles(1, Delay::new(163), clock), 2);
/// assert_eq!(effective_cycles(1, Delay::new(48), clock), 1);
/// assert_eq!(effective_cycles(2, Delay::ZERO, clock), 2);
/// assert_eq!(effective_cycles(1, Delay::new(163), None), 1);
/// ```
pub fn effective_cycles(declared: u8, delay: Delay, clock: Option<ClockPeriod>) -> u8 {
    match clock {
        None => declared,
        Some(t) => declared.max(delay.as_u32().div_ceil(t.as_u32()).max(1) as u8),
    }
}

impl fmt::Display for ClockPeriod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

/// Timing of a single operation kind: how many control steps it occupies
/// and its combinational delay (for chaining).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpTiming {
    /// Number of control steps (≥ 1). Multi-cycle operations (paper §5.3)
    /// occupy `cycles` *consecutive* control steps.
    pub cycles: u8,
    /// Combinational propagation delay of the operation.
    pub delay: Delay,
}

impl OpTiming {
    /// Single-cycle timing with the given delay.
    pub const fn single_cycle(delay: Delay) -> Self {
        OpTiming { cycles: 1, delay }
    }

    /// Multi-cycle timing.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub const fn multi_cycle(cycles: u8, delay: Delay) -> Self {
        assert!(cycles >= 1, "an operation takes at least one cycle");
        OpTiming { cycles, delay }
    }
}

impl Default for OpTiming {
    fn default() -> Self {
        OpTiming::single_cycle(Delay::ZERO)
    }
}

/// Per-operation-kind timing specification for one synthesis run.
///
/// The paper's experiments use two profiles: "1" — all operations take
/// one cycle — and "2" — only multiplication takes two cycles
/// (Table 1, column "special feature"). Both are provided as
/// constructors; arbitrary profiles can be built with [`TimingSpec::set`].
///
/// ```
/// use hls_celllib::{OpKind, TimingSpec};
///
/// let spec = TimingSpec::two_cycle_multiply();
/// assert_eq!(spec.cycles(OpKind::Mul), 2);
/// assert_eq!(spec.cycles(OpKind::Add), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimingSpec {
    overrides: BTreeMap<OpKind, OpTiming>,
}

impl TimingSpec {
    /// All operations single-cycle with zero delay (profile "1").
    pub fn uniform_single_cycle() -> Self {
        TimingSpec::default()
    }

    /// Profile "2" of the paper: multiplication takes two cycles,
    /// everything else one.
    pub fn two_cycle_multiply() -> Self {
        let mut spec = TimingSpec::default();
        spec.set(OpKind::Mul, OpTiming::multi_cycle(2, Delay::ZERO));
        spec
    }

    /// A chaining-oriented profile with representative combinational
    /// delays (adder ≈ 48, subtracter ≈ 48, multiplier ≈ 163,
    /// comparator ≈ 30, logic ≈ 12 time units).
    pub fn with_delays() -> Self {
        let mut spec = TimingSpec::default();
        let table = [
            (OpKind::Add, 48),
            (OpKind::Sub, 48),
            (OpKind::Mul, 163),
            (OpKind::Div, 196),
            (OpKind::And, 12),
            (OpKind::Or, 12),
            (OpKind::Xor, 14),
            (OpKind::Not, 6),
            (OpKind::Eq, 30),
            (OpKind::Ne, 30),
            (OpKind::Lt, 36),
            (OpKind::Gt, 36),
            (OpKind::Shl, 22),
            (OpKind::Shr, 22),
            (OpKind::Inc, 33),
            (OpKind::Dec, 33),
            (OpKind::Neg, 35),
        ];
        for (kind, ns) in table {
            spec.set(kind, OpTiming::single_cycle(Delay::new(ns)));
        }
        spec
    }

    /// Overrides the timing of `kind`.
    pub fn set(&mut self, kind: OpKind, timing: OpTiming) -> &mut Self {
        self.overrides.insert(kind, timing);
        self
    }

    /// Timing of `kind` (default: single cycle, zero delay).
    pub fn timing(&self, kind: OpKind) -> OpTiming {
        self.overrides.get(&kind).copied().unwrap_or_default()
    }

    /// Cycle count of `kind`.
    pub fn cycles(&self, kind: OpKind) -> u8 {
        self.timing(kind).cycles
    }

    /// Combinational delay of `kind`.
    pub fn delay(&self, kind: OpKind) -> Delay {
        self.timing(kind).delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_cycle_zero_delay() {
        let spec = TimingSpec::uniform_single_cycle();
        for kind in OpKind::ALL {
            assert_eq!(spec.cycles(kind), 1);
            assert_eq!(spec.delay(kind), Delay::ZERO);
        }
    }

    #[test]
    fn two_cycle_multiply_profile() {
        let spec = TimingSpec::two_cycle_multiply();
        assert_eq!(spec.cycles(OpKind::Mul), 2);
        assert_eq!(spec.cycles(OpKind::Add), 1);
    }

    #[test]
    fn set_overrides_timing() {
        let mut spec = TimingSpec::default();
        spec.set(OpKind::Add, OpTiming::multi_cycle(3, Delay::new(7)));
        assert_eq!(spec.cycles(OpKind::Add), 3);
        assert_eq!(spec.delay(OpKind::Add), Delay::new(7));
    }

    #[test]
    fn clock_period_fits() {
        let t = ClockPeriod::new(100);
        assert!(t.fits(Delay::new(40), Delay::new(60)));
        assert!(!t.fits(Delay::new(41), Delay::new(60)));
    }

    #[test]
    fn delay_profile_has_slow_multiplier() {
        let spec = TimingSpec::with_delays();
        assert!(spec.delay(OpKind::Mul) > spec.delay(OpKind::Add));
        assert!(spec.delay(OpKind::Add) > spec.delay(OpKind::And));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_period_panics() {
        let _ = ClockPeriod::new(0);
    }
}
