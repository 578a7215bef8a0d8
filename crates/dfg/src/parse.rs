//! A small textual format for data-flow graphs.
//!
//! The grammar, one statement per line (`#` starts a comment):
//!
//! ```text
//! dfg NAME                     # optional header; defaults to "dfg"
//! input  a, b, c
//! const  three = 3
//! op     t1 = mul(a, b)                # op NAME = KIND(ARGS)
//! op     t2 = add(t1, c) @branch(0.1)  # optional branch annotation
//! bank   ram(ports=2)                  # a memory bank with 2 ports
//! array  a[16] @ ram                   # 16 elements living in `ram`
//! array  c[8] @ bank0(ports=1)         # array + implicit bank decl
//! load   v = a[i]                      # index: signal or literal
//! store  a[i] = v                      # auto-named store
//! store  s0 = a[3], v                  # named store, literal index
//! ```
//!
//! Operation kinds accept both short names (`mul`) and symbols (`*`).
//! Branch annotations give the full nested path as dot pairs separated by
//! slashes: `@branch(0.0/1.2)` means arm 0 of branch 0, then arm 2 of
//! branch 1. Loops are not expressible in the text format; use
//! [`crate::DfgBuilder`] for hierarchical graphs.
//!
//! Loads and stores execute in statement order per array: the parser
//! (via [`crate::DfgBuilder`]) threads ordering tokens so RAW/WAW/WAR
//! hazards become data dependencies, while independent accesses stay
//! free to share a multi-port bank's control step.

use std::collections::BTreeMap;

use hls_celllib::OpKind;

use crate::memory::ArrayId;
use crate::signal::{BranchArm, BranchId, BranchPath};
use crate::{Dfg, DfgBuilder, DfgError, SignalId};

fn err(line: usize, message: impl Into<String>) -> DfgError {
    DfgError::Parse {
        line,
        message: message.into(),
    }
}

/// Parses the textual DFG format described in the module docs.
///
/// ```
/// let text = "
///     dfg demo
///     input x, dx
///     const three = 3
///     op t1 = mul(x, dx)
///     op t2 = add(t1, three)
/// ";
/// let dfg = hls_dfg::parse_dfg(text)?;
/// assert_eq!(dfg.name(), "demo");
/// assert_eq!(dfg.node_count(), 2);
/// # Ok::<(), hls_dfg::DfgError>(())
/// ```
///
/// # Errors
///
/// Returns [`DfgError::Parse`] with the offending 1-based line for any
/// syntax problem, and the usual structural errors ([`DfgError::UnknownSignal`],
/// [`DfgError::DuplicateName`], …) for semantic ones.
pub fn parse_dfg(text: &str) -> Result<Dfg, DfgError> {
    let mut name = String::from("dfg");
    let mut signals: BTreeMap<String, SignalId> = BTreeMap::new();
    // The builder tracks the branch stack itself, but the text format
    // gives absolute paths per op; collect ops first, then build.
    struct PendingOp {
        line: usize,
        name: String,
        kind: OpKind,
        args: Vec<String>,
        branch: BranchPath,
    }
    /// An array index: a literal (range-checked against the declaration)
    /// or a signal reference.
    enum IndexExpr {
        Literal(i64),
        Signal(String),
    }
    /// One executable statement, kept in textual order so memory-access
    /// ordering tokens thread correctly.
    enum Stmt {
        Op(PendingOp),
        Load {
            name: String,
            array: String,
            index: IndexExpr,
        },
        Store {
            /// `None` for the auto-named `store a[i] = v` form.
            name: Option<String>,
            array: String,
            index: IndexExpr,
            value: String,
        },
    }
    /// Parses `ARRAY[IDX]`.
    fn parse_access(lineno: usize, s: &str) -> Result<(String, IndexExpr), DfgError> {
        let open = s
            .find('[')
            .ok_or_else(|| err(lineno, "expected `ARRAY[INDEX]`"))?;
        let close = s.rfind(']').ok_or_else(|| err(lineno, "missing `]`"))?;
        if close < open {
            return Err(err(lineno, "mismatched brackets"));
        }
        let array = s[..open].trim().to_string();
        if array.is_empty() {
            return Err(err(lineno, "expected an array name before `[`"));
        }
        let idx = s[open + 1..close].trim();
        if idx.is_empty() {
            return Err(err(lineno, "expected an index inside `[]`"));
        }
        let index = match idx.parse::<i64>() {
            Ok(v) => IndexExpr::Literal(v),
            Err(_) => IndexExpr::Signal(idx.to_string()),
        };
        Ok((array, index))
    }
    /// Parses `BANK` or `BANK(ports=N)`.
    fn parse_bank_ref(lineno: usize, s: &str) -> Result<(String, Option<u32>), DfgError> {
        let s = s.trim();
        match s.find('(') {
            None => {
                if s.is_empty() {
                    return Err(err(lineno, "expected a bank name"));
                }
                Ok((s.to_string(), None))
            }
            Some(open) => {
                let close = s
                    .rfind(')')
                    .ok_or_else(|| err(lineno, "missing `)` after the port count"))?;
                if close < open {
                    return Err(err(lineno, "mismatched parentheses"));
                }
                let bank = s[..open].trim().to_string();
                let inner = s[open + 1..close].trim();
                let ports_str = inner
                    .strip_prefix("ports")
                    .map(str::trim_start)
                    .and_then(|r| r.strip_prefix('='))
                    .ok_or_else(|| err(lineno, "expected `(ports=N)`"))?;
                let ports: u32 = ports_str.trim().parse().map_err(|_| {
                    err(lineno, format!("invalid port count `{}`", ports_str.trim()))
                })?;
                Ok((bank, Some(ports)))
            }
        }
    }
    let mut inputs: Vec<String> = Vec::new();
    let mut constants: Vec<(String, i64)> = Vec::new();
    let mut stmts: Vec<Stmt> = Vec::new();
    // Bank declarations (name → ports) in first-declaration order, and
    // array declarations in textual order.
    let mut banks: Vec<(String, u32)> = Vec::new();
    let mut arrays: Vec<(usize, String, u32, String, Option<u32>)> = Vec::new();
    // Every declared name, for early duplicate detection across the
    // signal / array / bank namespaces.
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (head, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match head {
            "dfg" => {
                if rest.is_empty() {
                    return Err(err(lineno, "expected a name after `dfg`"));
                }
                name = rest.to_string();
            }
            "input" => {
                for n in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    if !seen.insert(n.to_string()) {
                        return Err(DfgError::DuplicateName(n.to_string()));
                    }
                    inputs.push(n.to_string());
                }
            }
            "const" => {
                let (n, v) = rest
                    .split_once('=')
                    .ok_or_else(|| err(lineno, "expected `const NAME = VALUE`"))?;
                let value: i64 = v
                    .trim()
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid constant value `{}`", v.trim())))?;
                if !seen.insert(n.trim().to_string()) {
                    return Err(DfgError::DuplicateName(n.trim().to_string()));
                }
                constants.push((n.trim().to_string(), value));
            }
            "bank" => {
                let (bank, ports) = parse_bank_ref(lineno, rest)?;
                let ports = ports.unwrap_or(1);
                if ports == 0 {
                    return Err(DfgError::BadPortCount(bank));
                }
                if !seen.insert(bank.clone()) {
                    return Err(DfgError::DuplicateName(bank));
                }
                banks.push((bank, ports));
            }
            "array" => {
                let (decl, bank_ref) = rest
                    .split_once('@')
                    .ok_or_else(|| err(lineno, "expected `array NAME[SIZE] @ BANK`"))?;
                let (array, size) = parse_access(lineno, decl.trim())?;
                let size = match size {
                    IndexExpr::Literal(v) if v >= 1 && v <= u32::MAX as i64 => v as u32,
                    IndexExpr::Literal(v) => {
                        return Err(err(lineno, format!("invalid array size `{v}`")))
                    }
                    IndexExpr::Signal(s) => {
                        return Err(err(
                            lineno,
                            format!("array size must be a literal, got `{s}`"),
                        ))
                    }
                };
                let (bank, ports) = parse_bank_ref(lineno, bank_ref)?;
                if ports == Some(0) {
                    return Err(DfgError::BadPortCount(bank));
                }
                if !seen.insert(array.clone()) {
                    return Err(DfgError::DuplicateName(array));
                }
                arrays.push((lineno, array, size, bank, ports));
            }
            "load" => {
                let (load_name, access) = rest
                    .split_once('=')
                    .ok_or_else(|| err(lineno, "expected `load NAME = ARRAY[INDEX]`"))?;
                let load_name = load_name.trim().to_string();
                if load_name.is_empty() || load_name.contains('[') {
                    return Err(err(lineno, "expected `load NAME = ARRAY[INDEX]`"));
                }
                let (array, index) = parse_access(lineno, access.trim())?;
                if !seen.insert(load_name.clone()) {
                    return Err(DfgError::DuplicateName(load_name));
                }
                stmts.push(Stmt::Load {
                    name: load_name,
                    array,
                    index,
                });
            }
            "store" => {
                let (lhs, rhs) = rest
                    .split_once('=')
                    .ok_or_else(|| err(lineno, "expected `store ARRAY[INDEX] = VALUE`"))?;
                let (lhs, rhs) = (lhs.trim(), rhs.trim());
                let (store_name, array, index, value) = if lhs.contains('[') {
                    // `store a[i] = v` — auto-named once the graph is
                    // built up to it.
                    let (array, index) = parse_access(lineno, lhs)?;
                    let value = rhs.to_string();
                    if value.is_empty() || value.contains(',') {
                        return Err(err(lineno, "expected a single value after `=`"));
                    }
                    (None, array, index, value)
                } else {
                    // `store NAME = a[i], v` — the named (writer) form.
                    let close = rhs
                        .rfind(']')
                        .ok_or_else(|| err(lineno, "expected `ARRAY[INDEX], VALUE`"))?;
                    let tail = rhs[close + 1..].trim_start();
                    let value = tail
                        .strip_prefix(',')
                        .map(str::trim)
                        .ok_or_else(|| err(lineno, "expected `, VALUE` after the index"))?;
                    if value.is_empty() {
                        return Err(err(lineno, "expected a value after `,`"));
                    }
                    let (array, index) = parse_access(lineno, &rhs[..=close])?;
                    if !seen.insert(lhs.to_string()) {
                        return Err(DfgError::DuplicateName(lhs.to_string()));
                    }
                    (Some(lhs.to_string()), array, index, value.to_string())
                };
                stmts.push(Stmt::Store {
                    name: store_name,
                    array,
                    index,
                    value,
                });
            }
            "op" => {
                let (op_name, call) = rest
                    .split_once('=')
                    .ok_or_else(|| err(lineno, "expected `op NAME = KIND(ARGS)`"))?;
                let call = call.trim();
                let (call_part, branch) = match call.split_once('@') {
                    None => (call, BranchPath::top_level()),
                    Some((c, ann)) => {
                        let ann = ann.trim();
                        let inner = ann
                            .strip_prefix("branch(")
                            .and_then(|s| s.strip_suffix(')'))
                            .ok_or_else(|| err(lineno, "expected `@branch(B.A/…)`"))?;
                        let mut arms = Vec::new();
                        for pair in inner.split('/') {
                            let (b, a) = pair
                                .split_once('.')
                                .ok_or_else(|| err(lineno, "branch arm must be `B.A`"))?;
                            let branch: u32 = b
                                .trim()
                                .parse()
                                .map_err(|_| err(lineno, "branch id must be an integer"))?;
                            let arm: u32 = a
                                .trim()
                                .parse()
                                .map_err(|_| err(lineno, "arm id must be an integer"))?;
                            arms.push(BranchArm {
                                branch: BranchId::new(branch),
                                arm,
                            });
                        }
                        (c.trim(), BranchPath::from_arms(arms))
                    }
                };
                let open = call_part
                    .find('(')
                    .ok_or_else(|| err(lineno, "expected `KIND(ARGS)`"))?;
                let close = call_part
                    .rfind(')')
                    .ok_or_else(|| err(lineno, "missing `)`"))?;
                if close < open {
                    return Err(err(lineno, "mismatched parentheses"));
                }
                let kind: OpKind = call_part[..open]
                    .trim()
                    .parse()
                    .map_err(|e| err(lineno, format!("{e}")))?;
                let args: Vec<String> = call_part[open + 1..close]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                stmts.push(Stmt::Op(PendingOp {
                    line: lineno,
                    name: op_name.trim().to_string(),
                    kind,
                    args,
                    branch,
                }));
            }
            other => {
                return Err(err(
                    lineno,
                    format!(
                        "unknown statement `{other}` \
                         (expected dfg/input/const/bank/array/op/load/store)"
                    ),
                ));
            }
        }
    }

    let mut b = DfgBuilder::new(name);
    for n in &inputs {
        let id = b.input(n);
        signals.insert(n.clone(), id);
    }
    for (n, v) in &constants {
        let id = b.constant(n, *v);
        signals.insert(n.clone(), id);
    }
    // Banks: explicit declarations first, then implicit ones from array
    // statements carrying a port count, in textual order.
    let mut bank_ids: BTreeMap<String, crate::BankId> = BTreeMap::new();
    let mut bank_ports: BTreeMap<String, u32> = BTreeMap::new();
    for (bname, ports) in &banks {
        let id = b.declare_bank(bname, *ports);
        bank_ids.insert(bname.clone(), id);
        bank_ports.insert(bname.clone(), *ports);
    }
    for (line, _, _, bname, ports) in &arrays {
        let Some(&ports) = ports.as_ref() else {
            continue;
        };
        match bank_ports.get(bname) {
            Some(&existing) if existing != ports => {
                return Err(err(
                    *line,
                    format!("bank `{bname}` already declared with ports={existing}"),
                ));
            }
            Some(_) => {}
            None => {
                if seen.contains(bname) {
                    return Err(DfgError::DuplicateName(bname.clone()));
                }
                seen.insert(bname.clone());
                let id = b.declare_bank(bname, ports);
                bank_ids.insert(bname.clone(), id);
                bank_ports.insert(bname.clone(), ports);
            }
        }
    }
    // Arrays, in textual order.
    let mut array_ids: BTreeMap<String, (ArrayId, u32)> = BTreeMap::new();
    for (_, aname, size, bname, _) in &arrays {
        let bank = *bank_ids
            .get(bname)
            .ok_or_else(|| DfgError::UnknownBank(bname.clone()))?;
        let id = b.declare_array(aname, *size, bank);
        array_ids.insert(aname.clone(), (id, *size));
    }
    // A generated name (`NODE.idxK`, `ARRAY.storeN`): the first candidate
    // that no declaration in the text and nothing built so far uses.
    let fresh = |b: &DfgBuilder, candidate: &dyn Fn(u32) -> String, from: u32| -> (String, u32) {
        (from..)
            .map(|k| (candidate(k), k))
            .find(|(name, _)| !seen.contains(name) && !b.has_name(name))
            .expect("some suffix is free")
    };
    // An array index: a named signal, or a literal turned into a fresh
    // range-checked constant next to the access.
    let resolve_index = |b: &mut DfgBuilder,
                         signals: &BTreeMap<String, SignalId>,
                         node: &str,
                         aname: &str,
                         size: u32,
                         index: &IndexExpr|
     -> Result<SignalId, DfgError> {
        match index {
            IndexExpr::Signal(s) => signals
                .get(s)
                .copied()
                .ok_or_else(|| DfgError::UnknownSignal(s.clone())),
            IndexExpr::Literal(v) => {
                if *v < 0 || *v >= size as i64 {
                    return Err(DfgError::IndexOutOfRange {
                        array: aname.to_string(),
                        index: *v,
                        size,
                    });
                }
                let candidate = |k: u32| match k {
                    0 => format!("{node}.idx"),
                    k => format!("{node}.idx{k}"),
                };
                let (cname, _) = fresh(b, &candidate, 0);
                Ok(b.constant(&cname, *v))
            }
        }
    };
    let mut store_counter: BTreeMap<&str, u32> = BTreeMap::new();
    for stmt in &stmts {
        match stmt {
            Stmt::Op(op) => {
                let mut arg_ids = Vec::with_capacity(op.args.len());
                for a in &op.args {
                    let id = signals
                        .get(a)
                        .copied()
                        .ok_or_else(|| DfgError::UnknownSignal(a.clone()))?;
                    arg_ids.push(id);
                }
                if arg_ids.len() != op.kind.arity() {
                    return Err(err(
                        op.line,
                        format!(
                            "`{}` expects {} argument(s), got {}",
                            op.kind,
                            op.kind.arity(),
                            arg_ids.len()
                        ),
                    ));
                }
                // Reproduce the builder's branch bookkeeping with an
                // absolute path: temporarily push the arms around the op.
                for arm in op.branch.arms() {
                    b.enter_arm(arm.branch, arm.arm);
                }
                let out = b.op(&op.name, op.kind, &arg_ids)?;
                for _ in op.branch.arms() {
                    b.exit_arm();
                }
                signals.insert(op.name.clone(), out);
            }
            Stmt::Load { name, array, index } => {
                let &(aid, size) = array_ids
                    .get(array)
                    .ok_or_else(|| DfgError::UnknownArray(array.clone()))?;
                let idx = resolve_index(&mut b, &signals, name, array, size, index)?;
                let out = b.load(name, aid, idx)?;
                signals.insert(name.clone(), out);
            }
            Stmt::Store {
                name,
                array,
                index,
                value,
            } => {
                let &(aid, size) = array_ids
                    .get(array)
                    .ok_or_else(|| DfgError::UnknownArray(array.clone()))?;
                let name = match name {
                    Some(name) => name.clone(),
                    None => {
                        let next = store_counter.entry(array).or_insert(0);
                        let (name, n) = fresh(&b, &|n| format!("{array}.store{n}"), *next);
                        *next = n + 1;
                        name
                    }
                };
                let name = &name;
                let idx = resolve_index(&mut b, &signals, name, array, size, index)?;
                let val = signals
                    .get(value)
                    .copied()
                    .ok_or_else(|| DfgError::UnknownSignal(value.clone()))?;
                let out = b.store(name, aid, idx, val)?;
                signals.insert(name.clone(), out);
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_small_graph() {
        let g = parse_dfg(
            "dfg demo\n\
             input a, b\n\
             const k = 7\n\
             op p = *(a, b)\n\
             op q = add(p, k)  # trailing comment\n",
        )
        .unwrap();
        assert_eq!(g.name(), "demo");
        assert_eq!(g.node_count(), 2);
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        assert_eq!(g.preds(q), &[p]);
    }

    #[test]
    fn branch_annotations_create_exclusive_ops() {
        let g = parse_dfg(
            "input a, b\n\
             op t = add(a, b) @branch(0.0)\n\
             op e = sub(a, b) @branch(0.1)\n",
        )
        .unwrap();
        let t = g.node_by_name("t").unwrap();
        let e = g.node_by_name("e").unwrap();
        assert!(g.mutually_exclusive(t, e));
    }

    #[test]
    fn nested_branch_paths() {
        let g = parse_dfg(
            "input a\n\
             op t = inc(a) @branch(0.0/1.0)\n\
             op u = dec(a) @branch(0.0/1.1)\n",
        )
        .unwrap();
        let t = g.node_by_name("t").unwrap();
        assert_eq!(g.node(t).branch().arms().len(), 2);
        let u = g.node_by_name("u").unwrap();
        assert!(g.mutually_exclusive(t, u));
    }

    #[test]
    fn unknown_signal_is_reported() {
        let e = parse_dfg("input a\nop t = add(a, missing)\n").unwrap_err();
        assert_eq!(e, DfgError::UnknownSignal("missing".into()));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = parse_dfg("input a\nop t = add a\n").unwrap_err();
        assert!(matches!(e, DfgError::Parse { line: 2, .. }));
        let e = parse_dfg("bogus statement\n").unwrap_err();
        assert!(matches!(e, DfgError::Parse { line: 1, .. }));
        let e = parse_dfg("const k = x\n").unwrap_err();
        assert!(matches!(e, DfgError::Parse { line: 1, .. }));
    }

    #[test]
    fn arity_errors_are_caught_at_parse_time() {
        let e = parse_dfg("input a\nop t = add(a)\n").unwrap_err();
        assert!(matches!(e, DfgError::Parse { line: 2, .. }));
    }

    #[test]
    fn unknown_op_kind_is_reported() {
        let e = parse_dfg("input a, b\nop t = frobnicate(a, b)\n").unwrap_err();
        assert!(matches!(e, DfgError::Parse { line: 2, .. }));
    }

    #[test]
    fn parses_memory_declarations_and_accesses() {
        let g = parse_dfg(
            "dfg mem\n\
             input i, v\n\
             bank ram(ports=2)\n\
             array a[16] @ ram\n\
             load x = a[i]\n\
             store a[i] = v\n\
             load y = a[3]\n",
        )
        .unwrap();
        assert!(g.has_memory());
        let ram = g.memory().bank_by_name("ram").unwrap();
        assert_eq!(ram.ports(), 2);
        assert_eq!(g.bank_ports(ram.id()), 2);
        let a = g.memory().array_by_name("a").unwrap();
        assert_eq!(a.size(), 16);
        let x = g.node_by_name("x").unwrap();
        let st = g.node_by_name("a.store0").unwrap();
        let y = g.node_by_name("y").unwrap();
        assert!(matches!(g.node(x).kind(), crate::NodeKind::Load { .. }));
        assert!(matches!(g.node(st).kind(), crate::NodeKind::Store { .. }));
        // RAW: the load after the store is ordered behind it; the load
        // before it is not ordered against anything.
        assert!(g.preds(y).contains(&st));
        assert!(g.preds(x).is_empty());
        // WAR: the store waits for the earlier load of the same array.
        assert!(g.preds(st).contains(&x));
    }

    #[test]
    fn implicit_bank_declaration_via_array() {
        let g = parse_dfg("input i\narray c[8] @ bank0(ports=4)\nload v = c[i]\n").unwrap();
        let b = g.memory().bank_by_name("bank0").unwrap();
        assert_eq!(b.ports(), 4);
    }

    #[test]
    fn loads_between_stores_stay_independent() {
        let g = parse_dfg(
            "input i, j, v\n\
             array a[8] @ m(ports=2)\n\
             store a[i] = v\n\
             load x = a[i]\n\
             load y = a[j]\n",
        )
        .unwrap();
        let x = g.node_by_name("x").unwrap();
        let y = g.node_by_name("y").unwrap();
        // Both loads depend on the store (RAW) but not on each other, so
        // a two-port bank can serve them in the same control step.
        assert!(!g.preds(y).contains(&x));
        assert!(!g.preds(x).contains(&y));
    }

    #[test]
    fn literal_index_out_of_range_is_reported() {
        let e = parse_dfg("input v\narray a[4] @ m(ports=1)\nstore a[4] = v\n").unwrap_err();
        assert_eq!(
            e,
            DfgError::IndexOutOfRange {
                array: "a".into(),
                index: 4,
                size: 4
            }
        );
    }

    #[test]
    fn unknown_array_is_reported() {
        let e = parse_dfg("input i\narray a[4] @ m(ports=1)\nload v = b[i]\n").unwrap_err();
        assert_eq!(e, DfgError::UnknownArray("b".into()));
    }

    #[test]
    fn array_on_undeclared_bank_is_reported() {
        // `@ ghost` never declares ports, explicitly or implicitly.
        let e = parse_dfg("input i, v\narray a[4] @ ghost\nstore a[i] = v\n").unwrap_err();
        assert_eq!(e, DfgError::UnknownBank("ghost".into()));
    }

    #[test]
    fn zero_ports_is_reported() {
        let e = parse_dfg("bank ram(ports=0)\n").unwrap_err();
        assert_eq!(e, DfgError::BadPortCount("ram".into()));
        let e = parse_dfg("array a[4] @ m(ports=0)\n").unwrap_err();
        assert_eq!(e, DfgError::BadPortCount("m".into()));
    }

    #[test]
    fn conflicting_implicit_port_counts_are_reported() {
        let e = parse_dfg("array a[4] @ m(ports=2)\narray b[4] @ m(ports=1)\n").unwrap_err();
        assert!(matches!(e, DfgError::Parse { line: 2, .. }));
    }

    #[test]
    fn generated_names_skip_op_names() {
        // A literal index's constant would be `v.idx`, which an op took.
        let g = parse_dfg("input i\narray a[4] @ m(ports=1)\nop v.idx = inc(i)\nload v = a[3]\n")
            .unwrap();
        let idx = g.signal_by_name("v.idx1").unwrap();
        assert_eq!(g.signal(idx).source(), crate::SignalSource::Constant(3));
        // An auto-named store would be `a.store0`, which an op took.
        let g = parse_dfg(
            "input i, v\narray a[4] @ m(ports=1)\nop a.store0 = inc(i)\nstore a[i] = v\n",
        )
        .unwrap();
        assert!(g.node_by_name("a.store1").is_some());
    }

    #[test]
    fn named_store_form_parses() {
        let g = parse_dfg(
            "input v\n\
             array a[8] @ m(ports=1)\n\
             store s0 = a[3], v\n",
        )
        .unwrap();
        let s0 = g.node_by_name("s0").unwrap();
        assert!(matches!(g.node(s0).kind(), crate::NodeKind::Store { .. }));
    }

    #[test]
    fn ops_can_feed_later_ops_by_name() {
        let g = parse_dfg(
            "input a\n\
             op t = inc(a)\n\
             op u = inc(t)\n\
             op v = add(t, u)\n",
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        let v = g.node_by_name("v").unwrap();
        assert_eq!(g.preds(v).len(), 2);
    }
}
