//! Figure 1 and Figure 2 regeneration: ASCII renderings of the
//! placement table and of one operation's frames.

use std::fmt::Write as _;

use hls_benchmarks::classic;
use hls_celllib::TimingSpec;
use hls_dfg::Dfg;
use hls_schedule::render_grid;
use moveframe::mfs::{self, MfsConfig};
use moveframe::FrameSnapshot;

/// Regenerates Figure 1: the populated placement (grid) table of one FU
/// type after scheduling the HAL differential equation, with the last
/// multiply's present position and the move that placed it.
pub fn figure1() -> String {
    let dfg = classic::diffeq();
    let spec = TimingSpec::uniform_single_cycle();
    let config = MfsConfig::time_constrained(6).with_frame_recording();
    let outcome = mfs::schedule(&dfg, &spec, &config).expect("diffeq fits 6 steps");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: placement tables (control steps x FU index) after MFS on `{}`",
        dfg.name()
    );
    let _ = writeln!(
        out,
        "one 2-D table per FU type; `name/name` = mutually exclusive sharing\n"
    );
    for (&class, grid) in &outcome.grids {
        if grid.placed_count() == 0 {
            continue;
        }
        out.push_str(&render_grid(class, grid, &dfg));
        out.push('\n');
    }
    // Narrate the move of the last-placed multiply, mirroring the
    // figure's O_i^p → O_i^n annotation.
    if let Some(snap) = outcome
        .snapshots
        .iter()
        .rev()
        .find(|s| matches!(s.class, hls_dfg::FuClass::Op(hls_celllib::OpKind::Mul)))
    {
        let node = dfg.node(snap.node);
        let chosen = outcome.schedule.slot(snap.node).expect("scheduled");
        let _ = writeln!(
            out,
            "move of `{}`: present position O^p = (x={}, y={}) [ALFAP corner of its frame],",
            node.name(),
            snap.current_fu,
            snap.primary.1.get(),
        );
        let _ = writeln!(
            out,
            "              next position    O^n = {} at step {} (minimum-Liapunov cell of MF)",
            chosen.unit, chosen.step
        );
    }
    out
}

/// Renders one frame snapshot as the paper's Figure-2 diagram: `F` =
/// forbidden frame, `R` = redundant frame, `o` = move frame, `X` =
/// in-frame but occupied, `.` = outside the primary frame.
pub fn render_frames(dfg: &Dfg, snap: &FrameSnapshot, cs: u32) -> String {
    let mut out = String::new();
    let node = dfg.node(snap.node);
    let _ = writeln!(
        out,
        "frames of `{}` ({}), class {}: PF steps [{}..{}], current_j = {}, max_j = {}",
        node.name(),
        node.kind(),
        snap.class,
        snap.primary.0.get(),
        snap.primary.1.get(),
        snap.current_fu,
        snap.max_fu
    );
    let _ = write!(out, "      ");
    for fu in 1..=snap.max_fu {
        let _ = write!(out, " u{fu} ");
    }
    out.push('\n');
    for step in 1..=cs {
        let _ = write!(out, "  t{step:<3}");
        for fu in 1..=snap.max_fu {
            let in_primary = step >= snap.primary.0.get() && step <= snap.primary.1.get();
            let symbol = if !in_primary {
                '.'
            } else if fu > snap.current_fu {
                'R'
            } else if step < snap.earliest_feasible.get() || step > snap.latest_feasible.get() {
                'F'
            } else if snap
                .movable
                .iter()
                .any(|p| p.step.get() == step && p.fu.get() == fu)
            {
                'o'
            } else {
                'X'
            };
            let _ = write!(out, "  {symbol} ");
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "legend: o = move frame MF, R = redundant frame, F = forbidden frame,"
    );
    let _ = writeln!(
        out,
        "        X = occupied in-frame cell, . = outside the primary frame"
    );
    out
}

/// Regenerates Figure 2: the PF/RF/FF/MF frames of an operation with two
/// already-scheduled predecessors (the paper's operation `r` with K1 and
/// K2), taken mid-run from the HAL differential equation.
pub fn figure2() -> String {
    let dfg = classic::diffeq();
    let spec = TimingSpec::uniform_single_cycle();
    let config = MfsConfig::time_constrained(6).with_frame_recording();
    let outcome = mfs::schedule(&dfg, &spec, &config).expect("diffeq fits 6 steps");
    // Pick the most illustrative recorded snapshot with two
    // predecessors: prefer one whose forbidden frame actually bites
    // (earliest feasible step above ASAP) and whose frame contains
    // occupied cells — the paper's operation `r` shows both.
    let snap = outcome
        .snapshots
        .iter()
        .filter(|s| !dfg.preds(s.node).is_empty())
        .max_by_key(|s| {
            let ff_bites = u32::from(s.earliest_feasible > s.primary.0);
            let frame_cells =
                (s.latest_feasible.get() + 1 - s.earliest_feasible.get()) * s.current_fu;
            let occupied = frame_cells.saturating_sub(s.movable.len() as u32);
            (ff_bites, occupied.min(1), dfg.preds(s.node).len())
        })
        .expect("diffeq has operations with predecessors");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: move-frame construction (MF = PF - (RF + FF))\n"
    );
    let preds: Vec<String> = dfg
        .preds(snap.node)
        .iter()
        .map(|&p| {
            let step = outcome
                .schedule
                .start(p)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "unscheduled".into());
            format!("{} @ {}", dfg.node(p).name(), step)
        })
        .collect();
    let _ = writeln!(
        out,
        "operation `{}` with predecessors K1/K2 = {}",
        dfg.node(snap.node).name(),
        preds.join(", ")
    );
    out.push_str(&render_frames(&dfg, snap, outcome.schedule.control_steps()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shows_grids_and_the_move() {
        let text = figure1();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("class *"));
        assert!(text.contains("O^p"));
        assert!(text.contains("O^n"));
    }

    #[test]
    fn figure2_marks_all_frame_kinds() {
        let text = figure2();
        assert!(text.contains("Figure 2"));
        assert!(text.contains('o'), "move frame cells missing");
        assert!(text.contains("legend"));
        assert!(text.contains("K1/K2"));
    }
}
