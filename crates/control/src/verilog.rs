//! Verilog-2001 emission of the synthesised design (data path +
//! controller) — the hand-off artefact a downstream logic-synthesis
//! flow would consume.
//!
//! The emitted module is plain synthesisable RTL: a state counter, one
//! register per allocated [`hls_rtl::RegId`], per-ALU operand muxes
//! driven by the control FSM, and write-enables latching results at the
//! producer's finish step. No Verilog simulator is assumed in this
//! environment, so the testsuite checks the emitter structurally
//! (declarations, balanced blocks, complete state coverage); the
//! *behaviour* of the same control structure is verified cycle-by-cycle
//! by `hls-sim`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use hls_celllib::{OpKind, TimingSpec};
use hls_dfg::{Dfg, NodeKind, SignalSource};
use hls_rtl::{Datapath, NetSource};
use hls_schedule::Schedule;

use crate::word::{AluActivity, MemAccess, WriteSource};
use crate::{ControlError, Controller};

/// A behavioural name sanitised into a Verilog identifier, written
/// straight into the output: every character outside `[A-Za-z0-9_]`
/// becomes `_`, and a leading digit (or an empty name) gets a `_`
/// prefix.
#[derive(Clone, Copy)]
struct Ident<'a>(&'a str);

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.chars().next().is_none_or(|c| c.is_ascii_digit()) {
            f.write_char('_')?;
        }
        let mut rest = self.0;
        while let Some(i) = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            f.write_str(&rest[..i])?;
            f.write_char('_')?;
            let c = rest[i..].chars().next().expect("found at i");
            rest = &rest[i + c.len_utf8()..];
        }
        f.write_str(rest)
    }
}

/// The Verilog expression of a net source.
struct Net<'a>(&'a Dfg, NetSource);

impl fmt::Display for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            NetSource::External(sid) => {
                let sig = self.0.signal(sid);
                match sig.source() {
                    SignalSource::Constant(_) => write!(f, "const_{}", Ident(sig.name())),
                    _ => write!(f, "in_{}", Ident(sig.name())),
                }
            }
            NetSource::Register(r) => write!(f, "{r}"),
            NetSource::Alu(a) => write!(f, "alu{}_y", a.0),
        }
    }
}

/// Operand `port` (`a` or `b`) of ALU `alu`: `alu{alu}_{port}`.
#[derive(Clone, Copy)]
struct Operand(u32, char);

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alu{}_{}", self.0, self.1)
    }
}

/// ALU `alu`'s result expression for `kind` over its two operands.
struct OpExpr(OpKind, u32);

impl fmt::Display for OpExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Semantics match the `hls-sim` reference at WIDTH = 64: two's
        // complement wrap-around, signed comparison/division, arithmetic
        // right shift, shift counts masked to 6 bits, division by zero = 0.
        let (a, b) = (Operand(self.1, 'a'), Operand(self.1, 'b'));
        match self.0 {
            OpKind::Add => write!(f, "{a} + {b}"),
            OpKind::Sub => write!(f, "{a} - {b}"),
            OpKind::Mul => write!(f, "{a} * {b}"),
            OpKind::Div => {
                write!(
                    f,
                    "({b} == 0) ? {{WIDTH{{1'b0}}}} : $signed({a}) / $signed({b})"
                )
            }
            OpKind::And => write!(f, "{a} & {b}"),
            OpKind::Or => write!(f, "{a} | {b}"),
            OpKind::Xor => write!(f, "{a} ^ {b}"),
            OpKind::Not => write!(f, "~{a}"),
            OpKind::Eq => write!(f, "{{{{(WIDTH-1){{1'b0}}}}, {a} == {b}}}"),
            OpKind::Ne => write!(f, "{{{{(WIDTH-1){{1'b0}}}}, {a} != {b}}}"),
            OpKind::Lt => write!(f, "{{{{(WIDTH-1){{1'b0}}}}, $signed({a}) < $signed({b})}}"),
            OpKind::Gt => write!(f, "{{{{(WIDTH-1){{1'b0}}}}, $signed({a}) > $signed({b})}}"),
            OpKind::Shl => write!(f, "{a} << {b}[5:0]"),
            OpKind::Shr => write!(f, "$signed({a}) >>> {b}[5:0]"),
            OpKind::Inc => write!(f, "{a} + 1"),
            OpKind::Dec => write!(f, "{a} - 1"),
            OpKind::Neg => write!(f, "-{a}"),
        }
    }
}

/// Emits the complete design as one Verilog module.
///
/// Interface: `clk`, `rst` (synchronous, restarts the FSM), one
/// `WIDTH`-bit input port per primary input, one output port per design
/// output (a signal without consumers) plus a `done` strobe after the
/// last control step.
///
/// Linear in the design: the controller's activities are bucketed per
/// ALU and its accesses per bank port once, and every identifier and
/// expression is written straight into the output.
///
/// # Errors
///
/// Propagates [`Controller::generate`]-style inconsistencies via
/// [`ControlError`] when the triple does not line up.
pub fn emit_verilog(
    dfg: &Dfg,
    schedule: &Schedule,
    datapath: &Datapath,
    controller: &Controller,
    spec: &TimingSpec,
) -> Result<String, ControlError> {
    let cs = schedule.control_steps();
    let mut out = String::new();

    // Ports.
    let inputs: Vec<_> = dfg
        .signals()
        .filter(|(sid, s)| {
            matches!(s.source(), SignalSource::PrimaryInput) && !dfg.consumers(*sid).is_empty()
        })
        .collect();
    let outputs: Vec<_> = dfg
        .signals()
        .filter(|(sid, s)| {
            matches!(s.source(), SignalSource::Node(_)) && dfg.consumers(*sid).is_empty()
        })
        .collect();

    let _ = writeln!(out, "// generated by moveframe-hls from `{}`", dfg.name());
    let _ = writeln!(out, "module {} #(", Ident(dfg.name()));
    let _ = writeln!(out, "  parameter WIDTH = 16");
    let _ = writeln!(out, ") (");
    let _ = writeln!(out, "  input wire clk,");
    let _ = writeln!(out, "  input wire rst,");
    for (_, sig) in &inputs {
        let _ = writeln!(out, "  input wire [WIDTH-1:0] in_{},", Ident(sig.name()));
    }
    for (_, sig) in &outputs {
        let _ = writeln!(out, "  output wire [WIDTH-1:0] out_{},", Ident(sig.name()));
    }
    let _ = writeln!(out, "  output wire done");
    let _ = writeln!(out, ");");

    // State counter.
    let state_bits = 32 - (cs + 1).leading_zeros();
    let _ = writeln!(out, "\n  reg [{}:0] state;", state_bits.max(1) - 1);
    let _ = writeln!(out, "  assign done = (state == {cs});");

    // Registers.
    for r in 0..datapath.register_count() {
        let _ = writeln!(out, "  reg [WIDTH-1:0] R{r};");
    }

    // Memory banks: one word array per bank holding its arrays back to
    // back, plus per-port address/write-data/write-enable nets driven by
    // the control FSM. Array `a` at base `B` occupies words
    // `B .. B + |a|`; indices wrap modulo the array size (Euclidean, to
    // match the `hls-sim` reference on negative indices).
    let memory = dfg.memory();
    let mut array_base = vec![0u32; memory.arrays().len()];
    let mut bank_depth = Vec::with_capacity(memory.banks().len());
    for bank in memory.banks() {
        let mut base = 0u32;
        for arr in memory.arrays_in_bank(bank.id()) {
            array_base[arr.id().index()] = base;
            base += arr.size();
        }
        bank_depth.push((bank.id(), base));
        if base == 0 {
            continue;
        }
        let _ = write!(out, "  // bank {} `{}`: ", bank.id(), bank.name());
        for (i, arr) in memory.arrays_in_bank(bank.id()).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let at = array_base[arr.id().index()];
            let _ = write!(out, "{sep}{}[{}] @ {at}", arr.name(), arr.size());
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "  reg [WIDTH-1:0] mem_{} [0:{}];", bank.id(), base - 1);
    }
    for p in datapath.mem_ports() {
        let _ = writeln!(
            out,
            "  reg [WIDTH-1:0] {0}_p{1}_addr, {0}_p{1}_wdata;",
            p.bank, p.port
        );
        let _ = writeln!(out, "  reg {}_p{}_we;", p.bank, p.port);
    }
    if bank_depth.iter().any(|&(_, d)| d > 0) {
        let _ = writeln!(out, "  integer mi;");
        let _ = writeln!(out, "  initial begin");
        for (bank, depth) in &bank_depth {
            if *depth > 0 {
                let _ = writeln!(
                    out,
                    "    for (mi = 0; mi < {depth}; mi = mi + 1) mem_{bank}[mi] = {{WIDTH{{1'b0}}}};"
                );
            }
        }
        let _ = writeln!(out, "  end");
    }

    // Constant nets.
    for (sid, sig) in dfg.signals() {
        if let SignalSource::Constant(v) = sig.source() {
            if !dfg.consumers(sid).is_empty() {
                let _ = writeln!(out, "  wire [WIDTH-1:0] const_{} = {v};", Ident(sig.name()));
            }
        }
    }

    // The controller's activities per ALU (indexed by `AluId`) and
    // accesses per bank port (by position in `mem_ports`), in step
    // order; entries for units the data path lacks are dropped.
    let alu_ids = datapath.alus().last().map_or(0, |a| a.id.0 as usize + 1);
    let mut activities: Vec<Vec<(usize, &AluActivity)>> = vec![Vec::new(); alu_ids];
    let mut accesses: Vec<Vec<(usize, &MemAccess)>> = vec![Vec::new(); datapath.mem_ports().len()];
    for (step, word) in (1usize..).zip(controller.words()) {
        for act in &word.activities {
            if let Some(bucket) = activities.get_mut(act.alu.0 as usize) {
                bucket.push((step, act));
            }
        }
        for m in &word.mem {
            let port = datapath
                .mem_ports()
                .binary_search_by_key(&(m.bank, m.port), |p| (p.bank, p.port));
            if let Ok(port) = port {
                accesses[port].push((step, m));
            }
        }
    }

    // Per-ALU operand muxes + function, as state-indexed cases.
    for alu in datapath.alus() {
        let a = alu.id.0;
        let _ = writeln!(out, "\n  // {} {}", alu.id, alu.kind);
        let _ = writeln!(out, "  reg [WIDTH-1:0] alu{a}_a, alu{a}_b, alu{a}_y;");
        let _ = writeln!(out, "  always @* begin");
        let _ = writeln!(out, "    alu{a}_a = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    alu{a}_b = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    alu{a}_y = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    case (state)");
        for &(step, act) in &activities[a as usize] {
            let (p1, p2) = datapath
                .operand_sources(act.node)
                .ok_or(ControlError::UnboundNode(act.node))?;
            let _ = writeln!(out, "      {step}: begin");
            let _ = writeln!(out, "        alu{a}_a = {};", Net(dfg, p1));
            if let Some(p2) = p2 {
                let _ = writeln!(out, "        alu{a}_b = {};", Net(dfg, p2));
            }
            let _ = writeln!(
                out,
                "        alu{a}_y = {}; // {}",
                OpExpr(act.function, a),
                dfg.node(act.node).name()
            );
            let _ = writeln!(out, "      end");
        }
        let _ = writeln!(out, "      default: ;");
        let _ = writeln!(out, "    endcase");
        let _ = writeln!(out, "  end");
    }

    // Bank-port address/data muxes, state-indexed like the ALU muxes.
    for (p, port_accesses) in datapath.mem_ports().iter().zip(&accesses) {
        let pn = format!("{}_p{}", p.bank, p.port);
        let _ = writeln!(out, "\n  // {} port {}", p.bank, p.port);
        let _ = writeln!(out, "  always @* begin");
        let _ = writeln!(out, "    {pn}_addr = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    {pn}_wdata = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    {pn}_we = 1'b0;");
        let _ = writeln!(out, "    case (state)");
        for &(step, m) in port_accesses {
            let node = dfg.node(m.node);
            let arr = node.kind().array().expect("mem access has an array");
            let decl = memory.array(arr).ok_or(ControlError::UnboundNode(m.node))?;
            let base = array_base[arr.index()];
            let size = decl.size();
            let (addr, data) = datapath
                .operand_sources(m.node)
                .ok_or(ControlError::UnboundNode(m.node))?;
            let _ = writeln!(out, "      {step}: begin // {}", node.name());
            let _ = writeln!(
                out,
                "        {pn}_addr = {base} + ((($signed({}) % {size}) + {size}) % {size});",
                Net(dfg, addr)
            );
            if let Some(data) = data {
                let _ = writeln!(out, "        {pn}_wdata = {};", Net(dfg, data));
                let _ = writeln!(out, "        {pn}_we = 1'b1;");
            }
            let _ = writeln!(out, "      end");
        }
        let _ = writeln!(out, "      default: ;");
        let _ = writeln!(out, "    endcase");
        let _ = writeln!(out, "  end");
    }

    // Sequential part: state advance, input loads, register writes.
    let _ = writeln!(out, "\n  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) begin");
    let _ = writeln!(out, "      state <= 1;");
    for load in controller.input_loads() {
        let _ = writeln!(
            out,
            "      {} <= in_{};",
            load.register,
            Ident(dfg.signal(load.signal).name())
        );
    }
    let _ = writeln!(out, "    end else if (state <= {cs}) begin");
    let _ = writeln!(out, "      state <= state + 1;");
    let _ = writeln!(out, "      case (state)");
    for (step, word) in (1usize..).zip(controller.words()) {
        if word.writes.is_empty() {
            continue;
        }
        let _ = writeln!(out, "        {step}: begin");
        for w in &word.writes {
            // An ALU write latches the combinational result; a memory
            // write latches the port's read data (loads) or forwarded
            // write data (store outputs).
            let _ = write!(out, "          {} <= ", w.register);
            let _ = match w.source {
                WriteSource::Alu(a) => write!(out, "alu{}_y", a.0),
                WriteSource::Mem { bank, port } => {
                    let is_load = match dfg.signal(w.signal).source() {
                        SignalSource::Node(producer) => {
                            matches!(dfg.node(producer).kind(), NodeKind::Load { .. })
                        }
                        _ => false,
                    };
                    if is_load {
                        write!(out, "mem_{bank}[{bank}_p{port}_addr]")
                    } else {
                        write!(out, "{bank}_p{port}_wdata")
                    }
                }
            };
            let _ = writeln!(out, "; // {}", dfg.signal(w.signal).name());
        }
        let _ = writeln!(out, "        end");
    }
    let _ = writeln!(out, "        default: ;");
    let _ = writeln!(out, "      endcase");
    for p in datapath.mem_ports() {
        let pn = format!("{}_p{}", p.bank, p.port);
        let _ = writeln!(
            out,
            "      if ({pn}_we) mem_{}[{pn}_addr] <= {pn}_wdata;",
            p.bank
        );
    }
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  end");

    // Output ports read the registers latching the output signals.
    for (sid, sig) in &outputs {
        let reg = datapath
            .register_allocation()
            .register_of(*sid)
            .ok_or(ControlError::Unstored(*sid))?;
        let _ = writeln!(out, "  assign out_{} = {reg};", Ident(sig.name()));
    }
    let _ = writeln!(out, "endmodule");
    let _ = spec;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::{Library, TimingSpec};
    use hls_dfg::DfgBuilder;
    use hls_rtl::AluAllocation;
    use hls_schedule::{CStep, Slot, UnitId};

    fn design() -> (Dfg, Schedule, Datapath, Controller, TimingSpec) {
        let mut b = DfgBuilder::new("toy design");
        let x = b.input("x");
        let y = b.input("y");
        let k = b.constant("three", 3);
        let p = b.op("p", OpKind::Mul, &[x, k]).unwrap();
        let q = b.op("q", OpKind::Add, &[p, y]).unwrap();
        b.op("r", OpKind::Lt, &[q, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&dfg, 3);
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("mul").unwrap().clone());
        alloc.push(lib.alu_by_name("add").unwrap().clone());
        alloc.push(lib.alu_by_name("lt").unwrap().clone());
        for (name, step, inst) in [("p", 1, 0), ("q", 2, 1), ("r", 3, 2)] {
            s.assign(
                dfg.node_by_name(name).unwrap(),
                Slot {
                    step: CStep::new(step),
                    unit: UnitId::Alu { instance: inst },
                },
            );
        }
        let dp = Datapath::build(&dfg, &s, &alloc, &spec).unwrap();
        let c = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        (dfg, s, dp, c, spec)
    }

    #[test]
    fn module_structure_is_complete() {
        let (dfg, s, dp, c, spec) = design();
        let v = emit_verilog(&dfg, &s, &dp, &c, &spec).unwrap();
        assert!(v.starts_with("// generated"));
        assert!(v.contains("module toy_design #("));
        assert!(v.contains("input wire [WIDTH-1:0] in_x"));
        assert!(v.contains("output wire [WIDTH-1:0] out_r"));
        assert!(v.contains("assign done = (state == 3);"));
        assert!(v.contains("alu0_y = alu0_a * alu0_b; // p"));
        assert!(v.ends_with("endmodule\n"));
        // Balanced begin/end and case/endcase.
        let begins = v.matches("begin").count();
        let ends = v.matches("end").count()
            - v.matches("endcase").count()
            - v.matches("endmodule").count();
        assert_eq!(begins, ends);
        assert_eq!(
            v.matches("case (state)").count(),
            v.matches("endcase").count()
        );
    }

    #[test]
    fn constants_become_wires() {
        let (dfg, s, dp, c, spec) = design();
        let v = emit_verilog(&dfg, &s, &dp, &c, &spec).unwrap();
        assert!(v.contains("wire [WIDTH-1:0] const_three = 3;"));
        assert!(v.contains("alu0_a = ") && v.contains("const_three"));
    }

    #[test]
    fn register_writes_land_in_the_right_states() {
        let (dfg, s, dp, c, spec) = design();
        let v = emit_verilog(&dfg, &s, &dp, &c, &spec).unwrap();
        // p is written at the end of state 1 from ALU0, q at state 2.
        assert!(v.contains("<= alu0_y; // p"));
        assert!(v.contains("<= alu1_y; // q"));
    }

    #[test]
    fn identifiers_are_sanitised() {
        assert_eq!(Ident("toy design").to_string(), "toy_design");
        assert_eq!(Ident("3bad").to_string(), "_3bad");
        assert_eq!(Ident("ok_name").to_string(), "ok_name");
        assert_eq!(Ident("").to_string(), "_");
        assert_eq!(Ident("a.b→c").to_string(), "a_b_c");
    }
}

/// Emits a self-checking Verilog testbench for the module produced by
/// [`emit_verilog`]: applies the given input vector at `WIDTH = 64`
/// (where the module's semantics coincide with the `hls-sim` reference),
/// waits for `done`, compares every output port against `expected`, and
/// prints `PASS`/`FAIL` lines.
///
/// `inputs` maps primary-input signals to values and `expected` maps
/// design-output signals to the behavioural values (obtain both from
/// `hls-sim`'s `interpret`).
///
/// # Errors
///
/// [`ControlError::Unstored`] when an expected output is not a design
/// output of `dfg`.
pub fn emit_testbench(
    dfg: &Dfg,
    inputs: &BTreeMap<hls_dfg::SignalId, i64>,
    expected: &BTreeMap<hls_dfg::SignalId, i64>,
) -> Result<String, ControlError> {
    let module = Ident(dfg.name());
    let mut out = String::new();
    let _ = writeln!(out, "// self-checking testbench for `{module}`");
    let _ = writeln!(out, "`timescale 1ns/1ns");
    let _ = writeln!(out, "module {module}_tb;");
    let _ = writeln!(out, "  reg clk = 0, rst = 1;");
    let _ = writeln!(out, "  always #5 clk = ~clk;");
    for &sid in inputs.keys() {
        let sig = dfg.signal(sid);
        let _ = writeln!(out, "  reg [63:0] in_{};", Ident(sig.name()));
    }
    for &sid in expected.keys() {
        if !dfg.consumers(sid).is_empty() {
            return Err(ControlError::Unstored(sid));
        }
        let sig = dfg.signal(sid);
        let _ = writeln!(out, "  wire [63:0] out_{};", Ident(sig.name()));
    }
    let _ = writeln!(out, "  wire done;");
    let _ = writeln!(out, "  {module} #(.WIDTH(64)) dut (");
    let _ = writeln!(out, "    .clk(clk), .rst(rst), .done(done),");
    let mut ports = Vec::new();
    for &sid in inputs.keys() {
        let n = Ident(dfg.signal(sid).name());
        ports.push(format!("    .in_{n}(in_{n})"));
    }
    for &sid in expected.keys() {
        let n = Ident(dfg.signal(sid).name());
        ports.push(format!("    .out_{n}(out_{n})"));
    }
    let _ = writeln!(out, "{}", ports.join(",\n"));
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "  initial begin");
    for (&sid, &v) in inputs {
        let n = Ident(dfg.signal(sid).name());
        let _ = writeln!(out, "    in_{n} = 64'h{:016x};", v as u64);
    }
    let _ = writeln!(out, "    @(posedge clk); #1 rst = 0;");
    let _ = writeln!(out, "    wait (done); @(posedge clk); #1;");
    for (&sid, &v) in expected {
        let n = Ident(dfg.signal(sid).name());
        let _ = writeln!(
            out,
            "    if (out_{n} !== 64'h{:016x}) $display(\"FAIL {n}: got %h\", out_{n});",
            v as u64
        );
        let _ = writeln!(out, "    else $display(\"PASS {n}\");");
    }
    let _ = writeln!(out, "    $finish;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    Ok(out)
}

#[cfg(test)]
mod testbench_tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    #[test]
    fn testbench_wires_ports_and_expectations() {
        let mut b = DfgBuilder::new("toy");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        b.op("q", OpKind::Mul, &[p, y]).unwrap();
        let dfg = b.finish().unwrap();
        let q_sig = dfg.signal_by_name("q").unwrap();
        let inputs = [(x, 6i64), (y, 7)].into_iter().collect();
        let expected = [(q_sig, 91i64)].into_iter().collect();
        let tb = emit_testbench(&dfg, &inputs, &expected).unwrap();
        assert!(tb.contains("module toy_tb;"));
        assert!(tb.contains("toy #(.WIDTH(64)) dut ("));
        assert!(tb.contains("in_x = 64'h0000000000000006;"));
        assert!(tb.contains("if (out_q !== 64'h000000000000005b)"));
        assert!(tb.contains("$finish;"));
    }

    #[test]
    fn non_output_expectation_is_rejected() {
        let mut b = DfgBuilder::new("toy");
        let x = b.input("x");
        let p = b.op("p", OpKind::Inc, &[x]).unwrap();
        b.op("q", OpKind::Dec, &[p]).unwrap();
        let dfg = b.finish().unwrap();
        let p_sig = dfg.signal_by_name("p").unwrap();
        let expected = [(p_sig, 1i64)].into_iter().collect();
        assert!(matches!(
            emit_testbench(&dfg, &BTreeMap::new(), &expected),
            Err(ControlError::Unstored(_))
        ));
    }
}
