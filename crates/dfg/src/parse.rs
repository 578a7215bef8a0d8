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

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use hls_celllib::OpKind;

use crate::builder::Declared;
use crate::signal::{BranchArm, BranchId};
use crate::{Dfg, DfgBuilder, DfgError, SignalId};

fn err(line: usize, message: impl Into<String>) -> DfgError {
    DfgError::Parse {
        line,
        message: message.into(),
    }
}

/// The offset of the first byte `b` in `s`. Every delimiter of the
/// format is ASCII, which never occurs inside a multi-byte character,
/// so a plain byte scan finds what `str::find` would, without the
/// searcher set-up that dominates on the short slices a line splits
/// into.
fn find_byte(s: &str, b: u8) -> Option<usize> {
    s.bytes().position(|c| c == b)
}

/// The offset of the last byte `b` in `s` (see [`find_byte`]).
fn rfind_byte(s: &str, b: u8) -> Option<usize> {
    s.bytes().rposition(|c| c == b)
}

/// `s` split around its first byte `b`, like `str::split_once`.
fn split_byte(s: &str, b: u8) -> Option<(&str, &str)> {
    find_byte(s, b).map(|i| (&s[..i], &s[i + 1..]))
}

/// An array index: a literal (range-checked against the declaration)
/// or a signal reference.
enum Index<'a> {
    Literal(i64),
    Signal(&'a str),
}

/// One executable statement, borrowed from the text and kept in textual
/// order so memory-access ordering tokens thread correctly.
enum Stmt<'a> {
    Op {
        line: usize,
        name: &'a str,
        kind: OpKind,
        /// Operand names, a range of the shared argument buffer.
        args: Range<usize>,
        /// The absolute branch path, a range of the shared arm buffer.
        arms: Range<usize>,
    },
    Load {
        name: &'a str,
        array: &'a str,
        index: Index<'a>,
    },
    Store {
        /// `None` for the auto-named `store a[i] = v` form.
        name: Option<&'a str>,
        array: &'a str,
        index: Index<'a>,
        value: &'a str,
    },
}

/// An `array NAME[SIZE] @ BANK[(ports=N)]` declaration.
struct ArrayStmt<'a> {
    line: usize,
    name: &'a str,
    size: u32,
    bank: &'a str,
    ports: Option<u32>,
}

/// Parses `ARRAY[IDX]`.
fn parse_access(lineno: usize, s: &str) -> Result<(&str, Index<'_>), DfgError> {
    let open = find_byte(s, b'[').ok_or_else(|| err(lineno, "expected `ARRAY[INDEX]`"))?;
    let close = rfind_byte(s, b']').ok_or_else(|| err(lineno, "missing `]`"))?;
    if close < open {
        return Err(err(lineno, "mismatched brackets"));
    }
    let array = s[..open].trim();
    if array.is_empty() {
        return Err(err(lineno, "expected an array name before `[`"));
    }
    let idx = s[open + 1..close].trim();
    if idx.is_empty() {
        return Err(err(lineno, "expected an index inside `[]`"));
    }
    let index = match idx.parse::<i64>() {
        Ok(v) => Index::Literal(v),
        Err(_) => Index::Signal(idx),
    };
    Ok((array, index))
}

/// Parses `BANK` or `BANK(ports=N)`.
fn parse_bank_ref(lineno: usize, s: &str) -> Result<(&str, Option<u32>), DfgError> {
    let s = s.trim();
    let Some(open) = find_byte(s, b'(') else {
        if s.is_empty() {
            return Err(err(lineno, "expected a bank name"));
        }
        return Ok((s, None));
    };
    let close =
        rfind_byte(s, b')').ok_or_else(|| err(lineno, "missing `)` after the port count"))?;
    if close < open {
        return Err(err(lineno, "mismatched parentheses"));
    }
    let bank = s[..open].trim();
    let inner = s[open + 1..close].trim();
    let ports_str = inner
        .strip_prefix("ports")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| err(lineno, "expected `(ports=N)`"))?;
    let ports: u32 = ports_str
        .trim()
        .parse()
        .map_err(|_| err(lineno, format!("invalid port count `{}`", ports_str.trim())))?;
    Ok((bank, Some(ports)))
}

/// Parses `@branch(B.A/…)` into `arms`.
fn parse_branch(lineno: usize, ann: &str, arms: &mut Vec<BranchArm>) -> Result<(), DfgError> {
    let inner = ann
        .trim()
        .strip_prefix("branch(")
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| err(lineno, "expected `@branch(B.A/…)`"))?;
    for pair in inner.split('/') {
        let (b, a) =
            split_byte(pair, b'.').ok_or_else(|| err(lineno, "branch arm must be `B.A`"))?;
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
    Ok(())
}

/// The text's names as the build pass sees them.
struct Names<'a> {
    /// Every name a declaration statement claims (inputs, constants,
    /// banks, arrays, loads, named stores), checked for duplicates as
    /// the text is read.
    declared: HashSet<&'a str>,
    /// Every op name, collected only when the text generates names:
    /// ops claim their names only when built, but a generated name must
    /// not take one that a later op will claim.
    ops: HashSet<&'a str>,
    /// The constants generated for literal indices: built, but not
    /// visible to the text.
    index_consts: HashSet<SignalId>,
}

impl<'a> Names<'a> {
    /// Claims a declared name.
    fn declare(&mut self, name: &'a str) -> Result<(), DfgError> {
        if !self.declared.insert(name) {
            return Err(DfgError::DuplicateName(name.to_string()));
        }
        Ok(())
    }

    /// A generated name (`NODE.idxK`, `ARRAY.storeN`): the first
    /// candidate from `from` on that no name in the text and nothing
    /// built so far uses.
    fn fresh(&self, b: &DfgBuilder, candidate: impl Fn(u32) -> String, from: u32) -> (String, u32) {
        (from..)
            .map(|k| (candidate(k), k))
            .find(|(name, _)| {
                !self.declared.contains(name.as_str())
                    && !self.ops.contains(name.as_str())
                    && !b.has_name(name)
            })
            .expect("some suffix is free")
    }

    /// The signal a text reference names, if it has been built.
    fn signal(&self, b: &DfgBuilder, name: &str) -> Result<SignalId, DfgError> {
        match b.lookup(name) {
            Some(Declared::Signal(id)) if !self.index_consts.contains(&id) => Ok(id),
            _ => Err(DfgError::UnknownSignal(name.to_string())),
        }
    }

    /// An array index: a named signal, or a literal turned into a fresh
    /// range-checked constant next to the access.
    fn index(
        &mut self,
        b: &mut DfgBuilder,
        node: &str,
        array: &str,
        size: u32,
        index: &Index<'_>,
    ) -> Result<SignalId, DfgError> {
        match *index {
            Index::Signal(s) => self.signal(b, s),
            Index::Literal(v) => {
                if v < 0 || v >= size as i64 {
                    return Err(DfgError::IndexOutOfRange {
                        array: array.to_string(),
                        index: v,
                        size,
                    });
                }
                let candidate = |k: u32| match k {
                    0 => format!("{node}.idx"),
                    k => format!("{node}.idx{k}"),
                };
                let (name, _) = self.fresh(b, candidate, 0);
                let id = b.constant(&name, v);
                self.index_consts.insert(id);
                Ok(id)
            }
        }
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
/// Two passes over borrowed tokens: the first reads every line,
/// reporting syntax errors and duplicate declarations; the second
/// builds the graph — inputs, constants, banks and arrays first, then
/// the statements in textual order — and reports the semantic errors.
///
/// # Errors
///
/// Returns [`DfgError::Parse`] with the offending 1-based line for any
/// syntax problem, and the usual structural errors ([`DfgError::UnknownSignal`],
/// [`DfgError::DuplicateName`], …) for semantic ones.
pub fn parse_dfg(text: &str) -> Result<Dfg, DfgError> {
    let mut name = "dfg";
    let mut names = Names {
        declared: HashSet::new(),
        ops: HashSet::new(),
        index_consts: HashSet::new(),
    };
    let mut inputs: Vec<&str> = Vec::new();
    let mut constants: Vec<(&str, i64)> = Vec::new();
    let mut banks: Vec<(&str, u32)> = Vec::new();
    let mut arrays: Vec<ArrayStmt<'_>> = Vec::new();
    let mut stmts: Vec<Stmt<'_>> = Vec::new();
    let mut args: Vec<&str> = Vec::new();
    let mut arms: Vec<BranchArm> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = match find_byte(raw_line, b'#') {
            Some(hash) => &raw_line[..hash],
            None => raw_line,
        }
        .trim();
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
                name = rest;
            }
            "input" => {
                for n in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    names.declare(n)?;
                    inputs.push(n);
                }
            }
            "const" => {
                let (n, v) = split_byte(rest, b'=')
                    .ok_or_else(|| err(lineno, "expected `const NAME = VALUE`"))?;
                let value: i64 = v
                    .trim()
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid constant value `{}`", v.trim())))?;
                names.declare(n.trim())?;
                constants.push((n.trim(), value));
            }
            "bank" => {
                let (bank, ports) = parse_bank_ref(lineno, rest)?;
                let ports = ports.unwrap_or(1);
                if ports == 0 {
                    return Err(DfgError::BadPortCount(bank.to_string()));
                }
                names.declare(bank)?;
                banks.push((bank, ports));
            }
            "array" => {
                let (decl, bank_ref) = split_byte(rest, b'@')
                    .ok_or_else(|| err(lineno, "expected `array NAME[SIZE] @ BANK`"))?;
                let (array, size) = parse_access(lineno, decl.trim())?;
                let size = match size {
                    Index::Literal(v) if v >= 1 && v <= u32::MAX as i64 => v as u32,
                    Index::Literal(v) => {
                        return Err(err(lineno, format!("invalid array size `{v}`")))
                    }
                    Index::Signal(s) => {
                        return Err(err(
                            lineno,
                            format!("array size must be a literal, got `{s}`"),
                        ))
                    }
                };
                let (bank, ports) = parse_bank_ref(lineno, bank_ref)?;
                if ports == Some(0) {
                    return Err(DfgError::BadPortCount(bank.to_string()));
                }
                names.declare(array)?;
                arrays.push(ArrayStmt {
                    line: lineno,
                    name: array,
                    size,
                    bank,
                    ports,
                });
            }
            "load" => {
                let (load_name, access) = split_byte(rest, b'=')
                    .ok_or_else(|| err(lineno, "expected `load NAME = ARRAY[INDEX]`"))?;
                let load_name = load_name.trim();
                if load_name.is_empty() || load_name.contains('[') {
                    return Err(err(lineno, "expected `load NAME = ARRAY[INDEX]`"));
                }
                let (array, index) = parse_access(lineno, access.trim())?;
                names.declare(load_name)?;
                stmts.push(Stmt::Load {
                    name: load_name,
                    array,
                    index,
                });
            }
            "store" => {
                let (lhs, rhs) = split_byte(rest, b'=')
                    .ok_or_else(|| err(lineno, "expected `store ARRAY[INDEX] = VALUE`"))?;
                let (lhs, rhs) = (lhs.trim(), rhs.trim());
                let (store_name, array, index, value) = if lhs.contains('[') {
                    // `store a[i] = v` — auto-named once the graph is
                    // built up to it.
                    let (array, index) = parse_access(lineno, lhs)?;
                    if rhs.is_empty() || rhs.contains(',') {
                        return Err(err(lineno, "expected a single value after `=`"));
                    }
                    (None, array, index, rhs)
                } else {
                    // `store NAME = a[i], v` — the named (writer) form.
                    let close = rfind_byte(rhs, b']')
                        .ok_or_else(|| err(lineno, "expected `ARRAY[INDEX], VALUE`"))?;
                    let value = rhs[close + 1..]
                        .trim_start()
                        .strip_prefix(',')
                        .map(str::trim)
                        .ok_or_else(|| err(lineno, "expected `, VALUE` after the index"))?;
                    if value.is_empty() {
                        return Err(err(lineno, "expected a value after `,`"));
                    }
                    let (array, index) = parse_access(lineno, &rhs[..=close])?;
                    names.declare(lhs)?;
                    (Some(lhs), array, index, value)
                };
                stmts.push(Stmt::Store {
                    name: store_name,
                    array,
                    index,
                    value,
                });
            }
            "op" => {
                let (op_name, call) = split_byte(rest, b'=')
                    .ok_or_else(|| err(lineno, "expected `op NAME = KIND(ARGS)`"))?;
                let call = call.trim();
                let arm_start = arms.len();
                let call_part = match split_byte(call, b'@') {
                    None => call,
                    Some((c, ann)) => {
                        parse_branch(lineno, ann, &mut arms)?;
                        c.trim()
                    }
                };
                let open = find_byte(call_part, b'(')
                    .ok_or_else(|| err(lineno, "expected `KIND(ARGS)`"))?;
                let close =
                    rfind_byte(call_part, b')').ok_or_else(|| err(lineno, "missing `)`"))?;
                if close < open {
                    return Err(err(lineno, "mismatched parentheses"));
                }
                let kind: OpKind = call_part[..open]
                    .trim()
                    .parse()
                    .map_err(|e| err(lineno, format!("{e}")))?;
                let arg_start = args.len();
                args.extend(
                    call_part[open + 1..close]
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty()),
                );
                stmts.push(Stmt::Op {
                    line: lineno,
                    name: op_name.trim(),
                    kind,
                    args: arg_start..args.len(),
                    arms: arm_start..arms.len(),
                });
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

    // Literal indices and auto-named stores generate names, which must
    // skip every op name in the text, built yet or not.
    let generates_names = stmts.iter().any(|s| {
        matches!(
            s,
            Stmt::Load {
                index: Index::Literal(_),
                ..
            } | Stmt::Store { name: None, .. }
                | Stmt::Store {
                    index: Index::Literal(_),
                    ..
                }
        )
    });
    if generates_names {
        names.ops = stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Op { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
    }
    let mut b = DfgBuilder::new(name);
    b.reserve(
        stmts.len(),
        inputs.len() + constants.len() + banks.len() + 2 * arrays.len() + stmts.len(),
    );
    for n in &inputs {
        b.input(n);
    }
    for &(n, v) in &constants {
        b.constant(n, v);
    }
    // Banks: explicit declarations first, then implicit ones from array
    // statements carrying a port count, in textual order.
    for &(bank, ports) in &banks {
        b.declare_bank(bank, ports);
    }
    for a in &arrays {
        let Some(ports) = a.ports else {
            continue;
        };
        match b.lookup(a.bank) {
            Some(Declared::Bank(id)) => {
                let existing = b.bank_ports(id);
                if existing != ports {
                    return Err(err(
                        a.line,
                        format!("bank `{}` already declared with ports={existing}", a.bank),
                    ));
                }
            }
            _ => {
                names.declare(a.bank)?;
                b.declare_bank(a.bank, ports);
            }
        }
    }
    // Arrays, in textual order.
    for a in &arrays {
        let Some(Declared::Bank(bank)) = b.lookup(a.bank) else {
            return Err(DfgError::UnknownBank(a.bank.to_string()));
        };
        b.declare_array(a.name, a.size, bank);
    }
    let array = |b: &DfgBuilder, name: &str| match b.lookup(name) {
        Some(Declared::Array(id)) => Ok((id, b.array_size(id))),
        _ => Err(DfgError::UnknownArray(name.to_string())),
    };
    let mut store_counter: HashMap<&str, u32> = HashMap::new();
    let mut arg_ids: Vec<SignalId> = Vec::new();
    for stmt in &stmts {
        match stmt {
            Stmt::Op {
                line,
                name,
                kind,
                args: op_args,
                arms: op_arms,
            } => {
                arg_ids.clear();
                for a in &args[op_args.clone()] {
                    arg_ids.push(names.signal(&b, a)?);
                }
                if arg_ids.len() != kind.arity() {
                    return Err(err(
                        *line,
                        format!(
                            "`{kind}` expects {} argument(s), got {}",
                            kind.arity(),
                            arg_ids.len()
                        ),
                    ));
                }
                // Reproduce the builder's branch bookkeeping with an
                // absolute path: temporarily push the arms around the op.
                for arm in &arms[op_arms.clone()] {
                    b.enter_arm(arm.branch, arm.arm);
                }
                b.op(name, *kind, &arg_ids)?;
                for _ in op_arms.clone() {
                    b.exit_arm();
                }
            }
            Stmt::Load {
                name,
                array: aname,
                index,
            } => {
                let (aid, size) = array(&b, aname)?;
                let idx = names.index(&mut b, name, aname, size, index)?;
                b.load(name, aid, idx)?;
            }
            Stmt::Store {
                name,
                array: aname,
                index,
                value,
            } => {
                let (aid, size) = array(&b, aname)?;
                let generated;
                let name = match name {
                    Some(name) => name,
                    None => {
                        let next = store_counter.entry(aname).or_insert(0);
                        let (name, n) = names.fresh(&b, |n| format!("{aname}.store{n}"), *next);
                        *next = n + 1;
                        generated = name;
                        generated.as_str()
                    }
                };
                let idx = names.index(&mut b, name, aname, size, index)?;
                let val = names.signal(&b, value)?;
                b.store(name, aid, idx, val)?;
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
    fn generated_names_skip_later_op_names() {
        // The op that takes `v.idx` comes after the load that would
        // generate it.
        let g = parse_dfg("input i\narray a[4] @ m(ports=1)\nload v = a[3]\nop v.idx = inc(i)\n")
            .unwrap();
        let idx = g.signal_by_name("v.idx1").unwrap();
        assert_eq!(g.signal(idx).source(), crate::SignalSource::Constant(3));
        assert!(g.node_by_name("v.idx").is_some());
        // The op that takes `a.store0` comes after the auto-named store.
        let g = parse_dfg(
            "input i, v\narray a[4] @ m(ports=1)\nstore a[i] = v\nop a.store0 = inc(i)\n",
        )
        .unwrap();
        assert!(g.node_by_name("a.store1").is_some());
        assert!(g.node_by_name("a.store0").is_some());
        // Generated names stay invisible to the text: an op cannot read
        // the constant a literal index produced.
        let e = parse_dfg("input i\narray a[4] @ m(ports=1)\nload v = a[3]\nop t = inc(v.idx)\n")
            .unwrap_err();
        assert_eq!(e, DfgError::UnknownSignal("v.idx".into()));
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
