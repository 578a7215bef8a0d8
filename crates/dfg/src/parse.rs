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

use std::ops::Range;

use hls_celllib::OpKind;

use crate::builder::Declared;
use crate::name::{Binding, NameTable};
use crate::signal::{BranchArm, BranchId, SignalSource};
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

/// A byte range of the text, as an op statement holds it.
#[derive(Clone, Copy)]
struct Tok {
    start: u32,
    end: u32,
}

impl Tok {
    /// `text[start..end]` with surrounding whitespace trimmed, as
    /// `str::trim` trims it.
    fn trimmed(text: &str, mut start: usize, mut end: usize) -> Tok {
        let bytes = text.as_bytes();
        while start < end && ascii_space(bytes[start]) {
            start += 1;
        }
        while end > start && ascii_space(bytes[end - 1]) {
            end -= 1;
        }
        if start < end && !(bytes[start].is_ascii() && bytes[end - 1].is_ascii()) {
            // A non-ASCII character at either end may be whitespace.
            let s = &text[start..end];
            start += s.len() - s.trim_start().len();
            end = start + s.trim().len();
        }
        Tok {
            start: start as u32,
            end: end as u32,
        }
    }

    fn is_empty(self) -> bool {
        self.start == self.end
    }

    fn of(self, text: &str) -> &str {
        &text[self.start as usize..self.end as usize]
    }
}

/// Whether `c` is one of the ASCII whitespace bytes `char::is_whitespace`
/// accepts.
fn ascii_space(c: u8) -> bool {
    matches!(c, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' ')
}

/// The length of the whitespace character at `text[i..]`, or 0 when
/// the character there is not whitespace.
fn space_at(text: &str, i: usize) -> usize {
    let c = text.as_bytes()[i];
    if c.is_ascii() {
        return usize::from(ascii_space(c));
    }
    match text[i..].chars().next() {
        Some(ch) if ch.is_whitespace() => ch.len_utf8(),
        _ => 0,
    }
}

/// The offset past the whitespace at `i`, stopping at a line break.
fn skip_space(text: &str, mut i: usize) -> usize {
    while i < text.len() && text.as_bytes()[i] != b'\n' {
        match space_at(text, i) {
            0 => break,
            n => i += n,
        }
    }
    i
}

/// The offset of the end of the word at `i`: the next whitespace, `#`
/// or end of text.
fn word_end(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    while let Some(&c) = bytes.get(i) {
        if c.is_ascii() {
            if c == b'#' || ascii_space(c) {
                break;
            }
            i += 1;
        } else {
            match text[i..].chars().next() {
                Some(ch) if !ch.is_whitespace() => i += ch.len_utf8(),
                _ => break,
            }
        }
    }
    i
}

/// A byte class for [`scan`]: the bytes in `stops`.
const fn stops(stops: &[u8]) -> [bool; 256] {
    let mut table = [false; 256];
    let mut i = 0;
    while i < stops.len() {
        table[stops[i] as usize] = true;
        i += 1;
    }
    table
}

/// The bytes that end an op's name; that matter in its call before
/// and after the first `(`; and that end a line. Every class holds a
/// comment's `#` and the line break.
static NAME_END: [bool; 256] = stops(b"#\n=");
static CALL_END: [bool; 256] = stops(b"#\n@()");
static ARGS_END: [bool; 256] = stops(b"#\n@)");
static LINE_END: [bool; 256] = stops(b"#\n");

/// The offset of the first byte at or after `i` in class `stop`, or
/// the end of the text.
fn scan(bytes: &[u8], mut i: usize, stop: &[bool; 256]) -> usize {
    while i < bytes.len() && !stop[bytes[i] as usize] {
        i += 1;
    }
    i
}

/// An array index: a literal (range-checked against the declaration)
/// or a signal reference.
enum Index<'a> {
    Literal(i64),
    Signal(&'a str),
}

/// An operand of an op: its name-table entry, when the name was in the
/// table as the op was read, or else its name in the text.
#[derive(Clone, Copy)]
enum Arg {
    Entry(u32),
    Text(Tok),
}

/// One `op NAME = KIND(ARGS)` statement, in offsets of the text.
struct OpStmt {
    line: u32,
    /// The op's entry in the name table.
    name: u32,
    kind: OpKind,
    /// Operands, a range of the shared argument buffer.
    args: Range<u32>,
    /// The absolute branch path, a range of the shared arm buffer.
    arms: Range<u32>,
}

/// One memory access.
enum Access<'a> {
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

/// One executable statement, in textual order so memory-access ordering
/// tokens thread correctly. Ops, nearly every statement of a large
/// text, are kept compact; the rarer accesses live in a side buffer.
enum Stmt {
    Op(OpStmt),
    Access(u32),
}

/// An `array NAME[SIZE] @ BANK[(ports=N)]` declaration.
struct ArrayStmt<'a> {
    line: usize,
    name: &'a str,
    size: u32,
    bank: &'a str,
    ports: Option<u32>,
}

/// An input (no value) or a constant, by its name-table entry.
struct External {
    entry: u32,
    value: Option<i64>,
}

/// Everything the first pass reads from the text.
#[derive(Default)]
struct Lexed<'a> {
    name: Option<&'a str>,
    externals: Vec<External>,
    banks: Vec<(&'a str, u32)>,
    arrays: Vec<ArrayStmt<'a>>,
    stmts: Vec<Stmt>,
    accesses: Vec<Access<'a>>,
    args: Vec<Arg>,
    arms: Vec<BranchArm>,
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

impl<'a> Lexed<'a> {
    /// Reads the `op` statement whose text starts at `from`, in one scan
    /// of its bytes, and hashes its names: the op's own, entered in
    /// `names`, and each operand's, resolved to an entry if it is there
    /// already. Returns where the statement ends.
    fn op(
        &mut self,
        names: &mut NameTable,
        text: &'a str,
        lineno: usize,
        from: usize,
    ) -> Result<usize, DfgError> {
        let bytes = text.as_bytes();
        // The first `=` ends the name. In the call after it, the first
        // `@` starts the annotation, and before that the first `(` and
        // the last `)` enclose the arguments.
        let eq = scan(bytes, from, &NAME_END);
        if bytes.get(eq) != Some(&b'=') {
            return Err(err(lineno, "expected `op NAME = KIND(ARGS)`"));
        }
        let (mut open, mut close) = (None, None);
        let mut end = scan(bytes, eq + 1, &CALL_END);
        loop {
            match bytes.get(end) {
                Some(b'(') => open = Some(end),
                Some(b')') => close = Some(end),
                _ => break,
            }
            let call = if open.is_some() { &ARGS_END } else { &CALL_END };
            end = scan(bytes, end + 1, call);
        }
        let arm_start = self.arms.len();
        if bytes.get(end) == Some(&b'@') {
            let at = end;
            end = scan(bytes, at, &LINE_END);
            parse_branch(lineno, &text[at + 1..end], &mut self.arms)?;
        }
        let open = open.ok_or_else(|| err(lineno, "expected `KIND(ARGS)`"))?;
        let close = close.ok_or_else(|| err(lineno, "missing `)`"))?;
        if close < open {
            return Err(err(lineno, "mismatched parentheses"));
        }
        let kind: OpKind = Tok::trimmed(text, eq + 1, open)
            .of(text)
            .parse()
            .map_err(|e| err(lineno, format!("{e}")))?;
        let arg_start = self.args.len();
        let mut start = open + 1;
        while start <= close {
            let comma = start
                + bytes[start..close]
                    .iter()
                    .position(|&c| c == b',')
                    .unwrap_or(close - start);
            let name = Tok::trimmed(text, start, comma);
            if !name.is_empty() {
                self.args.push(match names.get(name.of(text)) {
                    Some(entry) => Arg::Entry(entry),
                    None => Arg::Text(name),
                });
            }
            start = comma + 1;
        }
        let (name, _) = names.intern(Tok::trimmed(text, from, eq).of(text), Binding::TextOp);
        self.stmts.push(Stmt::Op(OpStmt {
            line: lineno as u32,
            name,
            kind,
            args: arg_start as u32..self.args.len() as u32,
            arms: arm_start as u32..self.arms.len() as u32,
        }));
        Ok(end)
    }

    /// Reads a statement other than `op` from its keyword `head` and the
    /// trimmed `rest` of its line, claiming declared names in `names`.
    fn statement(
        &mut self,
        names: &mut NameTable,
        lineno: usize,
        head: &str,
        rest: &'a str,
    ) -> Result<(), DfgError> {
        match head {
            "dfg" => {
                if rest.is_empty() {
                    return Err(err(lineno, "expected a name after `dfg`"));
                }
                self.name = Some(rest);
            }
            "input" => {
                for n in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let entry = names.declare(n)?;
                    self.externals.push(External { entry, value: None });
                }
            }
            "const" => {
                let (n, v) = split_byte(rest, b'=')
                    .ok_or_else(|| err(lineno, "expected `const NAME = VALUE`"))?;
                let value: i64 = v
                    .trim()
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid constant value `{}`", v.trim())))?;
                let entry = names.declare(n.trim())?;
                self.externals.push(External {
                    entry,
                    value: Some(value),
                });
            }
            "bank" => {
                let (bank, ports) = parse_bank_ref(lineno, rest)?;
                let ports = ports.unwrap_or(1);
                if ports == 0 {
                    return Err(DfgError::BadPortCount(bank.to_string()));
                }
                names.declare(bank)?;
                self.banks.push((bank, ports));
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
                self.arrays.push(ArrayStmt {
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
                self.access(Access::Load {
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
                self.access(Access::Store {
                    name: store_name,
                    array,
                    index,
                    value,
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
        Ok(())
    }

    fn access(&mut self, access: Access<'a>) {
        self.stmts.push(Stmt::Access(self.accesses.len() as u32));
        self.accesses.push(access);
    }
}

/// The signal a text reference names, if it has been built.
fn signal(b: &DfgBuilder, name: &str) -> Result<SignalId, DfgError> {
    match b.lookup(name) {
        Some(Declared::Signal(id)) => Ok(id),
        _ => Err(DfgError::UnknownSignal(name.to_string())),
    }
}

/// A generated name (`NODE.idxK`, `ARRAY.storeN`): the first candidate
/// from `from` on that is not taken — by anything built so far, nor by
/// any name the text declares or gives an op, which the first pass
/// entered in the table.
fn fresh(b: &DfgBuilder, candidate: impl Fn(u32) -> String, from: u32) -> (String, u32) {
    (from..)
        .map(|k| (candidate(k), k))
        .find(|(name, _)| !b.has_name(name))
        .expect("some suffix is free")
}

/// An array index: a named signal, or a literal turned into a fresh
/// range-checked constant next to the access, hidden from the text.
fn index(
    b: &mut DfgBuilder,
    node: &str,
    array: &str,
    size: u32,
    index: &Index<'_>,
) -> Result<SignalId, DfgError> {
    match *index {
        Index::Signal(s) => signal(b, s),
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
            let (name, _) = fresh(b, candidate, 0);
            b.hidden_constant(&name, v)
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
/// Two passes. The first scans each line once into compact statement
/// records, reporting syntax errors and duplicate declarations in line
/// order, and enters every declared and op name in the graph's one
/// keyed name table — the future name arena — resolving each operand
/// already there. The second builds the graph — inputs, constants,
/// banks and arrays first, then the statements in textual order — and
/// reports the semantic errors. An op's name and operands are hashed
/// once each.
///
/// # Errors
///
/// Returns [`DfgError::Parse`] with the offending 1-based line for any
/// syntax problem, and the usual structural errors ([`DfgError::UnknownSignal`],
/// [`DfgError::DuplicateName`], …) for semantic ones. A text of 4 GiB
/// or more is a parse error at line 1.
pub fn parse_dfg(text: &str) -> Result<Dfg, DfgError> {
    if u32::try_from(text.len()).is_err() {
        return Err(err(1, "the text exceeds 4 GiB"));
    }
    let bytes = text.as_bytes();
    // Room for what a text of this length typically holds — a statement
    // line runs to a few dozen bytes, a name to a few — so that reading
    // it seldom regrows a buffer.
    let statements = text.len() / 24 + 1;
    let mut lx = Lexed {
        externals: Vec::with_capacity(16),
        stmts: Vec::with_capacity(statements),
        args: Vec::with_capacity(2 * statements),
        ..Lexed::default()
    };
    let mut names = NameTable::with_capacity(text.len() / 32 + 1, text.len() / 4);
    let mut lineno = 0;
    let mut pos = 0;
    while pos < bytes.len() {
        lineno += 1;
        let start = skip_space(text, pos);
        let head_end = word_end(text, start);
        let end = match &text[start..head_end] {
            "" => start,
            "op" => lx.op(&mut names, text, lineno, head_end)?,
            head => {
                let end = scan(bytes, head_end, &LINE_END);
                lx.statement(&mut names, lineno, head, text[head_end..end].trim())?;
                end
            }
        };
        pos = match text[end..].find('\n') {
            Some(n) => end + n + 1,
            None => bytes.len(),
        };
    }

    let name = lx.name.unwrap_or("dfg").to_string();
    let mut b = DfgBuilder::with_names(name, names);
    b.reserve(
        lx.stmts.len(),
        lx.externals.len() + lx.stmts.len() + lx.accesses.len(),
    );
    // Inputs, then constants.
    for e in lx.externals.iter().filter(|e| e.value.is_none()) {
        b.external_at(e.entry, SignalSource::PrimaryInput)?;
    }
    for e in &lx.externals {
        if let Some(v) = e.value {
            b.external_at(e.entry, SignalSource::Constant(v))?;
        }
    }
    // Banks: explicit declarations first, then implicit ones from array
    // statements carrying a port count, in textual order.
    for &(bank, ports) in &lx.banks {
        b.declare_bank(bank, ports);
    }
    for a in &lx.arrays {
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
                b.declare(a.bank)?;
                b.declare_bank(a.bank, ports);
            }
        }
    }
    // Arrays, in textual order.
    for a in &lx.arrays {
        let Some(Declared::Bank(bank)) = b.lookup(a.bank) else {
            return Err(DfgError::UnknownBank(a.bank.to_string()));
        };
        b.declare_array(a.name, a.size, bank);
    }
    let array = |b: &DfgBuilder, name: &str| match b.lookup(name) {
        Some(Declared::Array(id)) => Ok((id, b.array_size(id))),
        _ => Err(DfgError::UnknownArray(name.to_string())),
    };
    // The next auto-named store's number, per array.
    let mut next_store = vec![0u32; lx.arrays.len()];
    for stmt in &lx.stmts {
        match stmt {
            Stmt::Op(op) => {
                // Every operand must resolve before the count is checked;
                // a valid op has at most two.
                let args = &lx.args[op.args.start as usize..op.args.end as usize];
                let mut ids = [SignalId(0); 2];
                for (i, a) in args.iter().enumerate() {
                    let id = match *a {
                        Arg::Entry(entry) => b
                            .signal_at(entry)
                            .ok_or_else(|| DfgError::UnknownSignal(b.name_at(entry).into())),
                        Arg::Text(name) => signal(&b, name.of(text)),
                    }?;
                    if let Some(slot) = ids.get_mut(i) {
                        *slot = id;
                    }
                }
                if args.len() != op.kind.arity() {
                    return Err(err(
                        op.line as usize,
                        format!(
                            "`{}` expects {} argument(s), got {}",
                            op.kind,
                            op.kind.arity(),
                            args.len()
                        ),
                    ));
                }
                // Reproduce the builder's branch bookkeeping with an
                // absolute path: temporarily push the arms around the op.
                let arms = &lx.arms[op.arms.start as usize..op.arms.end as usize];
                for arm in arms {
                    b.enter_arm(arm.branch, arm.arm);
                }
                b.op_at(op.name, op.kind, &ids[..args.len()])?;
                for _ in arms {
                    b.exit_arm();
                }
            }
            &Stmt::Access(i) => match &lx.accesses[i as usize] {
                Access::Load {
                    name,
                    array: aname,
                    index: idx,
                } => {
                    let (aid, size) = array(&b, aname)?;
                    let idx = index(&mut b, name, aname, size, idx)?;
                    b.load(name, aid, idx)?;
                }
                Access::Store {
                    name,
                    array: aname,
                    index: idx,
                    value,
                } => {
                    let (aid, size) = array(&b, aname)?;
                    let generated;
                    let name = match name {
                        Some(name) => name,
                        None => {
                            let next = &mut next_store[aid.index()];
                            let (name, n) = fresh(&b, |n| format!("{aname}.store{n}"), *next);
                            *next = n + 1;
                            generated = name;
                            generated.as_str()
                        }
                    };
                    let idx = index(&mut b, name, aname, size, idx)?;
                    let val = signal(&b, value)?;
                    b.store(name, aid, idx, val)?;
                }
            },
        }
    }
    // The statements' memory is free for the graph's indexes.
    drop(lx);
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
