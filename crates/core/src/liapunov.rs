//! The static Liapunov (energy) functions used by MFS (paper §3.1).

use std::fmt;

use hls_schedule::FreeStarts;

use crate::frame::Position;

/// Which constraint drives the schedule, selecting the Liapunov function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MfsObjective {
    /// Fixed number of control steps; minimise concurrency (FU count).
    /// `V(x, y) = x + n·y` with `n = max_j{max_j}`: control step `t` is
    /// always preferred over `t + 1` (position `(max_j, t)` has lower
    /// energy than `(1, t+1)`), and within a step the leftmost unit wins.
    #[default]
    TimeConstrained,
    /// Fixed unit counts; minimise control steps. `V(x, y) = cs·x + y`
    /// with `cs` an upper bound on control steps: "selects a position in
    /// control step t+1 performed by an existing FU instead of adding a
    /// new FU in control step t".
    ResourceConstrained,
}

impl fmt::Display for MfsObjective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MfsObjective::TimeConstrained => f.write_str("time-constrained"),
            MfsObjective::ResourceConstrained => f.write_str("resource-constrained"),
        }
    }
}

/// A static Liapunov function over grid positions `(x = FU index,
/// y = control step)`.
///
/// Property (2) of Liapunov's theorem (strict decrease towards the
/// equilibrium `X_e = 0⃗`) is realised by each operation making a single
/// move into the minimum-energy position of its move frame; properties
/// (1), (3), (4) hold trivially for these positive linear forms.
///
/// ```
/// use moveframe::{MfsObjective, StaticLiapunov};
///
/// // Time-constrained with at most 4 units of any type:
/// let v = StaticLiapunov::new(MfsObjective::TimeConstrained, 4, 10);
/// // Filling the last unit of step 2 beats opening step 3:
/// assert!(v.value(4, 2) < v.value(1, 3));
/// // Within a step, lower unit indices win:
/// assert!(v.value(1, 2) < v.value(2, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticLiapunov {
    objective: MfsObjective,
    /// `n = max over types of max_j` (time-constrained weight).
    n: u64,
    /// Upper bound on control steps (resource-constrained weight).
    cs: u64,
}

impl StaticLiapunov {
    /// Creates the function for `objective`, where `max_fu_bound` is
    /// `max_j{max_j}` over all types and `cs_bound` the control-step
    /// upper bound.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(objective: MfsObjective, max_fu_bound: u32, cs_bound: u32) -> Self {
        assert!(
            max_fu_bound >= 1 && cs_bound >= 1,
            "bounds must be positive"
        );
        StaticLiapunov {
            objective,
            n: max_fu_bound as u64,
            cs: cs_bound as u64,
        }
    }

    /// The energy of position `(fu, step)` (both 1-based).
    pub fn value(&self, fu: u32, step: u32) -> u64 {
        let (x, y) = (fu as u64, step as u64);
        match self.objective {
            MfsObjective::TimeConstrained => x + self.n * y,
            MfsObjective::ResourceConstrained => self.cs * x + y,
        }
    }

    /// The objective this function encodes.
    pub fn objective(&self) -> MfsObjective {
        self.objective
    }

    /// Whether this form orders the cells of `starts` strictly
    /// lexicographically — step first in time mode, unit first in
    /// resource mode — so [`StaticLiapunov::min_position`] can read the
    /// argmin straight off the masks.
    ///
    /// Time mode needs `n` to cover the visible columns (`x + n·y` then
    /// never lets a column outweigh a step); resource mode needs the
    /// window to span at most `cs` steps. Inside MFS both hold: `n`
    /// exceeds every column budget and no start step exceeds `cs`.
    pub(crate) fn is_lexicographic(&self, starts: &FreeStarts) -> bool {
        match self.objective {
            MfsObjective::TimeConstrained => u64::from(starts.columns()) <= self.n,
            MfsObjective::ResourceConstrained => u64::from(starts.steps()) <= self.cs,
        }
    }

    /// The minimum-energy free cell of a move frame, ties broken by
    /// `(step, fu)` — the same cell as `min_by_key((V, step, fu))` over
    /// every free cell.
    ///
    /// When the form is lexicographic on `starts` the answer is the
    /// earliest free cell (time mode) or the leftmost one (resource
    /// mode), found without listing cells; otherwise every free cell is
    /// priced.
    pub fn min_position(&self, starts: &FreeStarts) -> Option<Position> {
        let best = if !self.is_lexicographic(starts) {
            starts
                .positions()
                .min_by_key(|&(step, fu)| self.value(fu.get(), step.get()))
        } else if self.objective == MfsObjective::TimeConstrained {
            starts.earliest()
        } else {
            starts.leftmost()
        };
        best.map(|(step, fu)| Position { step, fu })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constrained_prefers_earlier_steps_across_all_columns() {
        let v = StaticLiapunov::new(MfsObjective::TimeConstrained, 7, 100);
        for t in 1..20 {
            // Worst column of step t still beats best column of t+1.
            assert!(v.value(7, t) < v.value(1, t + 1));
        }
    }

    #[test]
    fn resource_constrained_prefers_existing_units_across_all_steps() {
        let v = StaticLiapunov::new(MfsObjective::ResourceConstrained, 7, 12);
        for x in 1..7 {
            // Last step on unit x still beats first step on unit x+1.
            assert!(v.value(x, 12) < v.value(x + 1, 1));
        }
    }

    #[test]
    fn ties_are_impossible_within_a_grid() {
        // Distinct positions have distinct energies inside the bounds.
        let v = StaticLiapunov::new(MfsObjective::TimeConstrained, 5, 9);
        let mut seen = std::collections::BTreeSet::new();
        for x in 1..=5u32 {
            for y in 1..=9u32 {
                assert!(seen.insert(v.value(x, y)), "duplicate energy at ({x},{y})");
            }
        }
    }

    #[test]
    fn strictly_increasing_in_both_coordinates() {
        for objective in [
            MfsObjective::TimeConstrained,
            MfsObjective::ResourceConstrained,
        ] {
            let v = StaticLiapunov::new(objective, 4, 8);
            assert!(v.value(2, 3) > v.value(1, 3));
            assert!(v.value(2, 3) > v.value(2, 2));
            assert!(v.value(1, 1) > 0, "property (1): positive off equilibrium");
        }
    }

    #[test]
    fn objective_accessor_and_display() {
        let v = StaticLiapunov::new(MfsObjective::ResourceConstrained, 2, 2);
        assert_eq!(v.objective(), MfsObjective::ResourceConstrained);
        assert_eq!(v.objective().to_string(), "resource-constrained");
        assert_eq!(MfsObjective::default(), MfsObjective::TimeConstrained);
    }
}
