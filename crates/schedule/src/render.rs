//! ASCII rendering of placement tables and schedules (the harnesses'
//! Figure 1/Figure 2 output builds on these).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hls_celllib::TimingSpec;
use hls_dfg::{Dfg, FuClass};

use crate::{CStep, FuIndex, Grid, Schedule, UnitId};

/// Renders the grid of FU class `class` as an ASCII table: rows are
/// control steps, columns are FU indices; cells show the occupying
/// operation names (several when mutually exclusive operations share).
pub fn render_grid(class: FuClass, grid: &Grid, dfg: &Dfg) -> String {
    let mut cell_text: BTreeMap<(u32, u32), String> = BTreeMap::new();
    for step in 1..=grid.control_steps() {
        for fu in 1..=grid.max_fu() {
            let occ = grid.occupants(CStep::new(step), FuIndex::new(fu));
            if !occ.is_empty() {
                let names: Vec<&str> = occ.iter().map(|&n| dfg.node(n).name()).collect();
                cell_text.insert((step, fu), names.join("/"));
            }
        }
    }
    let width = cell_text
        .values()
        .map(String::len)
        .max()
        .unwrap_or(1)
        .max(3);
    let mut out = String::new();
    let _ = writeln!(out, "class {}  (steps x units)", class);
    let _ = write!(out, "      ");
    for fu in 1..=grid.max_fu() {
        let _ = write!(out, " {:^width$}", format!("u{fu}"));
    }
    out.push('\n');
    for step in 1..=grid.control_steps() {
        let _ = write!(out, "  t{step:<3}");
        for fu in 1..=grid.max_fu() {
            let text = cell_text
                .get(&(step, fu))
                .map(String::as_str)
                .unwrap_or(".");
            let _ = write!(out, " {text:^width$}");
        }
        out.push('\n');
    }
    out
}

/// Renders a complete schedule step by step: each row lists the
/// operations starting in that step with their bound units.
pub fn render_schedule(dfg: &Dfg, schedule: &Schedule, spec: &TimingSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "schedule of `{}` in {} control steps",
        dfg.name(),
        schedule.control_steps()
    );
    for step in 1..=schedule.control_steps() {
        let mut entries: Vec<String> = Vec::new();
        for (node, slot) in schedule.iter() {
            if slot.step.get() != step {
                continue;
            }
            let n = dfg.node(node);
            let cycles = n.kind().cycles(spec);
            let span = if cycles > 1 {
                format!(" (..t{})", slot.step.finish(cycles).get())
            } else {
                String::new()
            };
            let unit = match slot.unit {
                UnitId::Fu { class, index } => format!("{class}[{}]", index.get()),
                UnitId::Alu { instance } => format!("ALU{instance}"),
            };
            entries.push(format!("{}:{} @{unit}{span}", n.name(), n.kind()));
        }
        entries.sort();
        let _ = writeln!(out, "  t{step:<3} {}", entries.join("  "));
    }
    // Per-class FU counts footer, paper Table-1 style.
    let counts = schedule.fu_counts();
    if !counts.is_empty() {
        let mix: Vec<String> = counts
            .iter()
            .map(|(class, count)| format!("{count}x{class}"))
            .collect();
        let _ = writeln!(out, "  FUs: {}", mix.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Slot;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    #[test]
    fn grid_rendering_shows_occupants() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("alpha", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let a = g.node_by_name("alpha").unwrap();
        let mut grid = Grid::new(2, 2);
        grid.occupy(&g, a, CStep::new(2), FuIndex::new(1), 1);
        let text = render_grid(FuClass::Op(OpKind::Add), &grid, &g);
        assert!(text.contains("alpha"));
        assert!(text.contains("t2"));
        assert!(text.contains("u1"));
        assert!(text.contains('.'));
    }

    #[test]
    fn schedule_rendering_lists_steps_and_units() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let m = b.op("m", OpKind::Mul, &[x, x]).unwrap();
        b.op("a", OpKind::Add, &[m, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let mut s = Schedule::new(&g, 3);
        s.assign(
            g.node_by_name("m").unwrap(),
            Slot {
                step: CStep::new(1),
                unit: UnitId::Fu {
                    class: FuClass::Op(OpKind::Mul),
                    index: FuIndex::new(1),
                },
            },
        );
        s.assign(
            g.node_by_name("a").unwrap(),
            Slot {
                step: CStep::new(3),
                unit: UnitId::Alu { instance: 0 },
            },
        );
        let text = render_schedule(&g, &s, &spec);
        assert!(text.contains("m:* @*[1] (..t2)"));
        assert!(text.contains("a:+ @ALU0"));
        assert!(text.contains("FUs: 1x*"));
    }
}
