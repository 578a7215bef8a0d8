//! The behavioural reference interpreter.

use std::collections::BTreeMap;

use hls_dfg::{ArrayId, Dfg, NodeKind, SignalId, SignalSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{eval_op, SimError};

/// Final contents of every declared array, keyed by array id.
pub type MemoryState = BTreeMap<ArrayId, Vec<i64>>;

/// Euclidean index wrap: arrays behave as circular buffers, matching the
/// emitted Verilog's `((i % n) + n) % n` addressing on negative indices.
pub(crate) fn wrap_index(index: i64, size: usize) -> usize {
    index.rem_euclid(size as i64) as usize
}

/// Evaluates the graph on the given primary-input values, returning the
/// value of **every** signal (inputs, constants and operation results).
///
/// Structural-pipeline stage chains compute their base operation at
/// stage 1 and forward the value through later stages, so an expanded
/// graph evaluates to the same values as its source.
///
/// # Errors
///
/// [`SimError::MissingInput`] if a consumed primary input has no value;
/// [`SimError::Unsupported`] for folded loop bodies.
pub fn interpret(
    dfg: &Dfg,
    inputs: &BTreeMap<SignalId, i64>,
) -> Result<BTreeMap<SignalId, i64>, SimError> {
    interpret_with_memory(dfg, inputs).map(|(values, _)| values)
}

/// Like [`interpret`], but also returns the final contents of every
/// declared array (all elements start at zero). This is the behavioural
/// reference the RTL simulation's final memory state is compared
/// against.
///
/// Loads and stores execute in topological order; the graph's ordering
/// tokens (read-after-write, write-after-write, write-after-read) make
/// every order the sort can pick observationally equivalent.
///
/// # Errors
///
/// As [`interpret`].
pub fn interpret_with_memory(
    dfg: &Dfg,
    inputs: &BTreeMap<SignalId, i64>,
) -> Result<(BTreeMap<SignalId, i64>, MemoryState), SimError> {
    let Evaluation { values, memory } = evaluate(dfg, inputs)?;
    let values = dfg
        .signals()
        .filter_map(|(sid, _)| Some((sid, values[sid.index()]?)))
        .collect();
    Ok((values, memory_state(dfg, &memory)))
}

/// Zero-initialised backing storage for every declared array, by array
/// position.
pub(crate) fn initial_memory(dfg: &Dfg) -> Vec<Vec<i64>> {
    dfg.memory()
        .arrays()
        .iter()
        .map(|a| vec![0; a.size() as usize])
        .collect()
}

/// Array contents by position, keyed by array id.
pub(crate) fn memory_state(dfg: &Dfg, memory: &[Vec<i64>]) -> MemoryState {
    dfg.memory()
        .arrays()
        .iter()
        .zip(memory)
        .map(|(a, m)| (a.id(), m.clone()))
        .collect()
}

/// What the interpreter computes: every signal's value (`None` for
/// primary inputs missing from the input map), `SignalId`-indexed, and
/// every array's final contents, by array position.
pub(crate) struct Evaluation {
    pub(crate) values: Vec<Option<i64>>,
    pub(crate) memory: Vec<Vec<i64>>,
}

/// The interpreter proper. It reads only the graph, never a schedule,
/// data path or controller, so it stays the oracle the RTL simulation
/// is checked against.
pub(crate) fn evaluate(
    dfg: &Dfg,
    inputs: &BTreeMap<SignalId, i64>,
) -> Result<Evaluation, SimError> {
    let mut memory = initial_memory(dfg);
    let mut values: Vec<Option<i64>> = dfg
        .signals()
        .map(|(sid, sig)| match sig.source() {
            SignalSource::Constant(v) => Some(v),
            SignalSource::PrimaryInput => inputs.get(&sid).copied(),
            SignalSource::Node(_) => None,
        })
        .collect();
    for &id in dfg.topo_order() {
        let node = dfg.node(id);
        let operand = |i: usize| -> Result<i64, SimError> {
            let sig = node.inputs()[i];
            values[sig.index()].ok_or(SimError::MissingInput(sig))
        };
        let value = match node.kind() {
            NodeKind::Op(k) => {
                let a = operand(0)?;
                let b = if k.arity() == 2 { operand(1)? } else { 0 };
                eval_op(k, a, b)
            }
            NodeKind::Stage { base, index, .. } => {
                if index == 0 {
                    let a = operand(0)?;
                    let b = if base.arity() == 2 { operand(1)? } else { 0 };
                    eval_op(base, a, b)
                } else {
                    // Later stages forward the pipeline value.
                    operand(0)?
                }
            }
            NodeKind::Load { array, .. } => {
                let storage = memory.get(array.index()).ok_or(SimError::Unsupported(id))?;
                storage[wrap_index(operand(0)?, storage.len())]
            }
            NodeKind::Store { array, .. } => {
                let index = operand(0)?;
                let value = operand(1)?;
                let storage = memory
                    .get_mut(array.index())
                    .ok_or(SimError::Unsupported(id))?;
                let at = wrap_index(index, storage.len());
                storage[at] = value;
                // The store's output *is* the stored value (the ordering
                // token consumed by later accesses).
                value
            }
            NodeKind::LoopBody { .. } => return Err(SimError::Unsupported(id)),
        };
        values[node.output().index()] = Some(value);
    }
    Ok(Evaluation { values, memory })
}

/// Generates a deterministic pseudo-random input vector for `dfg`
/// (small magnitudes, so products stay meaningful).
pub fn random_inputs(dfg: &Dfg, seed: u64) -> BTreeMap<SignalId, i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    dfg.signals()
        .filter(|(_, s)| matches!(s.source(), SignalSource::PrimaryInput))
        .map(|(id, _)| (id, rng.gen_range(-1000..=1000)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::{OpKind, TimingSpec};
    use hls_dfg::DfgBuilder;

    #[test]
    fn evaluates_a_small_program() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let k = b.constant("k", 10);
        let p = b.op("p", OpKind::Mul, &[x, y]).unwrap();
        let q = b.op("q", OpKind::Add, &[p, k]).unwrap();
        b.op("r", OpKind::Gt, &[q, x]).unwrap();
        let g = b.finish().unwrap();
        let inputs = [(x, 6), (y, 7)].into_iter().collect();
        let values = interpret(&g, &inputs).unwrap();
        assert_eq!(values[&g.signal_by_name("p").unwrap()], 42);
        assert_eq!(values[&g.signal_by_name("q").unwrap()], 52);
        assert_eq!(values[&g.signal_by_name("r").unwrap()], 1);
    }

    #[test]
    fn missing_input_is_reported() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("p", OpKind::Inc, &[x]).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(
            interpret(&g, &BTreeMap::new()),
            Err(SimError::MissingInput(x))
        );
    }

    #[test]
    fn stage_expansion_preserves_values() {
        use hls_dfg::transform::expand_structural_stages;
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.op("m", OpKind::Mul, &[x, y]).unwrap();
        b.op("a", OpKind::Add, &[m, y]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        let (expanded, _) =
            expand_structural_stages(&g, &spec, &[OpKind::Mul].into_iter().collect()).unwrap();
        let inputs_g = [(x, 11), (y, 5)].into_iter().collect();
        let base = interpret(&g, &inputs_g).unwrap();
        // Map inputs by name onto the expanded graph.
        let inputs_e = [
            (expanded.signal_by_name("x").unwrap(), 11),
            (expanded.signal_by_name("y").unwrap(), 5),
        ]
        .into_iter()
        .collect();
        let exp = interpret(&expanded, &inputs_e).unwrap();
        assert_eq!(
            base[&g.signal_by_name("a").unwrap()],
            exp[&expanded.signal_by_name("a").unwrap()]
        );
        assert_eq!(exp[&expanded.signal_by_name("m.s2").unwrap()], 55);
    }

    #[test]
    fn random_inputs_cover_all_primary_inputs_deterministically() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        b.op("p", OpKind::Add, &[x, y]).unwrap();
        let g = b.finish().unwrap();
        let a = random_inputs(&g, 3);
        let c = random_inputs(&g, 3);
        assert_eq!(a.len(), 2);
        assert_eq!(a, c);
        assert_ne!(a, random_inputs(&g, 4));
    }
}
