//! Operation kinds understood by the synthesis flow.

use std::fmt;
use std::str::FromStr;

/// The behavioural operation performed by a data-flow-graph node.
///
/// These are the operator classes that appear in the DAC-1992 paper's six
/// design examples: arithmetic (`*`, `+`, `-`, `++`-style increments),
/// logic (`&`, `|`), comparison (`=`, `<`, `>`, `!`) and shifts.
///
/// Each kind has a canonical single-token symbol used by the `.dfg` text
/// format and the table printers:
///
/// ```
/// use hls_celllib::OpKind;
///
/// assert_eq!(OpKind::Mul.symbol(), "*");
/// assert_eq!("&".parse::<OpKind>(), Ok(OpKind::And));
/// assert!(OpKind::Add.is_commutative());
/// assert!(!OpKind::Sub.is_commutative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Addition (`+`).
    Add,
    /// Subtraction (`-`).
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Division (`/`).
    Div,
    /// Bitwise and (`&`).
    And,
    /// Bitwise or (`|`).
    Or,
    /// Bitwise exclusive-or (`^`).
    Xor,
    /// Bitwise complement (`~`), one input.
    Not,
    /// Equality comparison (`=`).
    Eq,
    /// Inequality comparison (`!`).
    Ne,
    /// Less-than comparison (`<`).
    Lt,
    /// Greater-than comparison (`>`).
    Gt,
    /// Left shift (`<<`).
    Shl,
    /// Right shift (`>>`).
    Shr,
    /// Increment (`++`), one input.
    Inc,
    /// Decrement (`--`), one input.
    Dec,
    /// Arithmetic negation (`neg`), one input.
    Neg,
}

impl OpKind {
    /// All operation kinds, in a fixed canonical order.
    pub const ALL: [OpKind; 17] = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Div,
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::Not,
        OpKind::Eq,
        OpKind::Ne,
        OpKind::Lt,
        OpKind::Gt,
        OpKind::Shl,
        OpKind::Shr,
        OpKind::Inc,
        OpKind::Dec,
        OpKind::Neg,
    ];

    /// Canonical single-token symbol, as used in the paper's tables
    /// (`*`, `+`, `-`, `=`, `&`, `|`, `>`, `!`, …).
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Div => "/",
            OpKind::And => "&",
            OpKind::Or => "|",
            OpKind::Xor => "^",
            OpKind::Not => "~",
            OpKind::Eq => "=",
            OpKind::Ne => "!",
            OpKind::Lt => "<",
            OpKind::Gt => ">",
            OpKind::Shl => "<<",
            OpKind::Shr => ">>",
            OpKind::Inc => "++",
            OpKind::Dec => "--",
            OpKind::Neg => "neg",
        }
    }

    /// Whether the two inputs of the operation may be swapped freely.
    ///
    /// MFSA's multiplexer optimiser (paper §5.6) tries both operand orders
    /// for commutative operations when packing input signals onto the two
    /// ALU input multiplexers.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            OpKind::Add
                | OpKind::Mul
                | OpKind::And
                | OpKind::Or
                | OpKind::Xor
                | OpKind::Eq
                | OpKind::Ne
        )
    }

    /// Number of data inputs (1 or 2).
    pub fn arity(self) -> usize {
        match self {
            OpKind::Not | OpKind::Inc | OpKind::Dec | OpKind::Neg => 1,
            _ => 2,
        }
    }

    /// A short lowercase name suitable for identifiers (`add`, `mul`, …).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Not => "not",
            OpKind::Eq => "eq",
            OpKind::Ne => "ne",
            OpKind::Lt => "lt",
            OpKind::Gt => "gt",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
            OpKind::Inc => "inc",
            OpKind::Dec => "dec",
            OpKind::Neg => "neg",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Error returned when parsing an [`OpKind`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpKindError {
    token: String,
}

impl ParseOpKindError {
    /// The token that failed to parse.
    pub fn token(&self) -> &str {
        &self.token
    }
}

impl fmt::Display for ParseOpKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operation kind `{}`", self.token)
    }
}

impl std::error::Error for ParseOpKindError {}

impl FromStr for OpKind {
    type Err = ParseOpKindError;

    /// Parses either the canonical symbol (`"*"`) or the short name
    /// (`"mul"`), case-insensitively for names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Every symbol and name has at most three bytes: match the
        // symbols exactly and the names folded to lower case.
        let lower = u8::to_ascii_lowercase;
        let kind = match *s.as_bytes() {
            [c] => match c {
                b'+' => Some(OpKind::Add),
                b'-' => Some(OpKind::Sub),
                b'*' => Some(OpKind::Mul),
                b'/' => Some(OpKind::Div),
                b'&' => Some(OpKind::And),
                b'|' => Some(OpKind::Or),
                b'^' => Some(OpKind::Xor),
                b'~' => Some(OpKind::Not),
                b'=' => Some(OpKind::Eq),
                b'!' => Some(OpKind::Ne),
                b'<' => Some(OpKind::Lt),
                b'>' => Some(OpKind::Gt),
                _ => None,
            },
            [a, b] => match [a, b] {
                [b'<', b'<'] => Some(OpKind::Shl),
                [b'>', b'>'] => Some(OpKind::Shr),
                [b'+', b'+'] => Some(OpKind::Inc),
                [b'-', b'-'] => Some(OpKind::Dec),
                _ => match [lower(&a), lower(&b)] {
                    [b'o', b'r'] => Some(OpKind::Or),
                    [b'e', b'q'] => Some(OpKind::Eq),
                    [b'n', b'e'] => Some(OpKind::Ne),
                    [b'l', b't'] => Some(OpKind::Lt),
                    [b'g', b't'] => Some(OpKind::Gt),
                    _ => None,
                },
            },
            [a, b, c] => match [lower(&a), lower(&b), lower(&c)] {
                [b'a', b'd', b'd'] => Some(OpKind::Add),
                [b's', b'u', b'b'] => Some(OpKind::Sub),
                [b'm', b'u', b'l'] => Some(OpKind::Mul),
                [b'd', b'i', b'v'] => Some(OpKind::Div),
                [b'a', b'n', b'd'] => Some(OpKind::And),
                [b'x', b'o', b'r'] => Some(OpKind::Xor),
                [b'n', b'o', b't'] => Some(OpKind::Not),
                [b's', b'h', b'l'] => Some(OpKind::Shl),
                [b's', b'h', b'r'] => Some(OpKind::Shr),
                [b'i', b'n', b'c'] => Some(OpKind::Inc),
                [b'd', b'e', b'c'] => Some(OpKind::Dec),
                [b'n', b'e', b'g'] => Some(OpKind::Neg),
                _ => None,
            },
            _ => None,
        };
        kind.ok_or_else(|| ParseOpKindError {
            token: s.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_round_trip() {
        for kind in OpKind::ALL {
            assert_eq!(kind.symbol().parse::<OpKind>(), Ok(kind));
            assert_eq!(kind.name().parse::<OpKind>(), Ok(kind));
        }
    }

    #[test]
    fn names_round_trip_case_insensitively() {
        assert_eq!("MUL".parse::<OpKind>(), Ok(OpKind::Mul));
        assert_eq!("Add".parse::<OpKind>(), Ok(OpKind::Add));
    }

    #[test]
    fn parsing_matches_a_scan_over_every_spelling() {
        // The reference: the first kind whose symbol matches exactly or
        // whose name matches up to ASCII case.
        let scan = |s: &str| {
            OpKind::ALL
                .into_iter()
                .find(|k| k.symbol() == s || k.name().eq_ignore_ascii_case(s))
        };
        let mut tokens: Vec<String> = OpKind::ALL
            .iter()
            .flat_map(|k| [k.symbol().to_string(), k.name().to_uppercase()])
            .collect();
        tokens.extend(
            [
                "", "a", "Ad", "ADD ", " add", "adds", "NeG", "<<<", "+-", "ǅ", "é", "ad\u{0}",
            ]
            .map(String::from),
        );
        for a in [b'+', b'-', b'<', b'>', b'n', b'E', b'g', b'q', 0xc3] {
            for b in [b'+', b'-', b'<', b'>', b'e', b'G', b'q', 0xa9] {
                tokens.extend(String::from_utf8(vec![a, b]).ok());
            }
        }
        for t in &tokens {
            let got = t.parse::<OpKind>();
            assert_eq!(got.as_ref().ok().copied(), scan(t), "{t:?}");
            if let Err(e) = got {
                assert_eq!(e.token(), t);
            }
        }
    }

    #[test]
    fn unknown_token_is_an_error() {
        let err = "%%".parse::<OpKind>().unwrap_err();
        assert_eq!(err.token(), "%%");
        assert!(err.to_string().contains("%%"));
    }

    #[test]
    fn display_matches_symbol() {
        assert_eq!(OpKind::And.to_string(), "&");
        assert_eq!(OpKind::Inc.to_string(), "++");
    }

    #[test]
    fn arity_is_one_for_unary_ops() {
        assert_eq!(OpKind::Inc.arity(), 1);
        assert_eq!(OpKind::Not.arity(), 1);
        assert_eq!(OpKind::Add.arity(), 2);
    }

    #[test]
    fn commutativity_classification() {
        for kind in [
            OpKind::Add,
            OpKind::Mul,
            OpKind::And,
            OpKind::Or,
            OpKind::Eq,
        ] {
            assert!(kind.is_commutative(), "{kind:?} should be commutative");
        }
        for kind in [OpKind::Sub, OpKind::Div, OpKind::Lt, OpKind::Shl] {
            assert!(!kind.is_commutative(), "{kind:?} should not be commutative");
        }
    }

    #[test]
    fn all_contains_each_kind_once() {
        let mut sorted = OpKind::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), OpKind::ALL.len());
    }
}
