//! Malformed-input battery: every broken `.dfg` text must surface as a
//! typed [`DfgError`] from the parser and as an HTTP 400 from a live
//! `hls-serve` daemon — never as a panic, a hang, or a 5xx.
//!
//! `tests/golden/parse_errors.txt` pins the parser's full `Result` —
//! variant, line number and message of every error, and a digest of
//! every accepted graph — on the battery below plus a seeded corpus of
//! mutated texts (dropped, duplicated and swapped lines, swapped tokens,
//! truncation, broken branch and bank syntax). Any change to the parser
//! must reproduce every byte.

mod common;

use moveframe_hls::benchmarks::classic;
use moveframe_hls::benchmarks::generate::{
    clustered_workload, generate, generate_clustered, scaling_workload, GeneratorConfig,
};
use moveframe_hls::benchmarks::memory;
use moveframe_hls::dfg::DfgError;
use moveframe_hls::prelude::*;

/// Rough shape of the expected parser error, so the battery pins the
/// *category* of each failure without over-fitting message text.
enum Expect {
    Parse,
    UnknownSignal,
    Duplicate,
    Empty,
    UnknownArray,
    UnknownBank,
    IndexOutOfRange,
    BadPortCount,
    /// Any error is fine; the case exists for the 400 side.
    AnyError,
}

fn cases() -> Vec<(&'static str, &'static str, Expect)> {
    vec![
        (
            "undeclared operand",
            "input a\nop q = add(a, missing)\n",
            Expect::UnknownSignal,
        ),
        (
            "forward reference",
            "input a\nop p = add(q, a)\nop q = add(p, a)\n",
            Expect::UnknownSignal,
        ),
        ("wrong arity", "input a\nop q = add(a)\n", Expect::Parse),
        (
            "unknown op kind",
            "input a, b\nop q = frobnicate(a, b)\n",
            Expect::Parse,
        ),
        (
            "missing close paren",
            "input a, b\nop q = add(a, b\n",
            Expect::Parse,
        ),
        (
            "missing op name",
            "input a, b\nop add(a, b)\n",
            Expect::Parse,
        ),
        (
            "duplicate input",
            "input a\ninput a\nop q = inc(a)\n",
            Expect::Duplicate,
        ),
        (
            "duplicate op name",
            "input a, b\nop q = add(a, b)\nop q = mul(a, b)\n",
            Expect::AnyError,
        ),
        ("no operations", "input a, b\n", Expect::Empty),
        ("empty text", "", Expect::Empty),
        ("free-form garbage", "garbage !!\n", Expect::Parse),
        (
            "bad constant value",
            "input a\nconst k = many\nop q = add(a, k)\n",
            Expect::Parse,
        ),
        (
            "bad branch annotation",
            "input a, b\nop q = add(a, b) @branch(zero)\n",
            Expect::Parse,
        ),
        (
            "load index past the array bound",
            "input v\nbank ram(ports=1)\narray a[4] @ ram\nstore a[0] = v\nload x = a[9]\n",
            Expect::IndexOutOfRange,
        ),
        (
            "negative store index",
            "input v\narray a[4] @ m(ports=1)\nstore a[-1] = v\n",
            Expect::IndexOutOfRange,
        ),
        (
            "load from an undeclared array",
            "input i\narray a[4] @ m(ports=1)\nload v = nope[i]\n",
            Expect::UnknownArray,
        ),
        (
            "store to an undeclared array",
            "input i, v\nstore ghost[i] = v\n",
            Expect::UnknownArray,
        ),
        (
            "array bound to an undeclared bank",
            "input i, v\narray a[4] @ missing\nstore a[i] = v\n",
            Expect::UnknownBank,
        ),
        (
            "bank with zero ports",
            "input i\nbank ram(ports=0)\narray a[4] @ ram\nload v = a[i]\n",
            Expect::BadPortCount,
        ),
        (
            "implicit bank with zero ports",
            "input i\narray a[4] @ m(ports=0)\nload v = a[i]\n",
            Expect::BadPortCount,
        ),
        (
            "load index signal never declared",
            "input v\narray a[4] @ m(ports=1)\nload x = a[j]\n",
            Expect::UnknownSignal,
        ),
        (
            "conflicting implicit port counts",
            "input i\narray a[4] @ m(ports=2)\narray b[4] @ m(ports=1)\nload v = a[i]\n",
            Expect::Parse,
        ),
    ]
}

#[test]
fn parser_reports_typed_errors_without_panicking() {
    for (name, text, expect) in cases() {
        let err = parse_dfg(text).unwrap_err();
        let ok = match expect {
            Expect::Parse => matches!(err, DfgError::Parse { .. }),
            Expect::UnknownSignal => matches!(err, DfgError::UnknownSignal(_)),
            Expect::Duplicate => matches!(err, DfgError::DuplicateName(_)),
            Expect::Empty => matches!(err, DfgError::Empty),
            Expect::UnknownArray => matches!(err, DfgError::UnknownArray(_)),
            Expect::UnknownBank => matches!(err, DfgError::UnknownBank(_)),
            Expect::IndexOutOfRange => matches!(err, DfgError::IndexOutOfRange { .. }),
            Expect::BadPortCount => matches!(err, DfgError::BadPortCount(_)),
            Expect::AnyError => true,
        };
        assert!(ok, "{name}: unexpected error {err:?}");
        assert!(!err.to_string().is_empty(), "{name}: blank message");
    }
}

#[test]
fn server_answers_400_for_every_malformed_input() {
    let server = common::start(common::ephemeral_config());
    let addr = server.local_addr();
    for (name, text, _) in cases() {
        let (status, body) = common::post(addr, "/schedule?cs=4", text.as_bytes());
        assert_eq!(status, 400, "{name}: {body}");
        assert!(body.starts_with("{\"error\":\""), "{name}: {body}");
    }
    // Malformed inputs must not degrade the daemon: a valid request
    // straight after the battery still schedules.
    let (status, body) = common::post(addr, "/schedule", br#"{"benchmark":"diffeq","cs":4}"#);
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn malformed_json_jobs_are_400_too() {
    let server = common::start(common::ephemeral_config());
    let addr = server.local_addr();
    for (name, body) in [
        ("broken JSON", "{broken"),
        ("nested value", r#"{"benchmark":"diffeq","cs":{"n":4}}"#),
        ("unknown benchmark", r#"{"benchmark":"nope","cs":4}"#),
        (
            "dfg and benchmark",
            r#"{"dfg":"input a","benchmark":"diffeq","cs":4}"#,
        ),
        ("neither dfg nor benchmark", r#"{"cs":4}"#),
        ("missing cs", r#"{"benchmark":"diffeq"}"#),
        (
            "bad deadline",
            r#"{"benchmark":"diffeq","cs":4,"deadline_ms":"soon"}"#,
        ),
    ] {
        let (status, reply) = common::post(addr, "/schedule", body.as_bytes());
        assert_eq!(status, 400, "{name}: {reply}");
    }
    server.shutdown();
    server.join();
}

/// A representation-independent rendering of one parse result: errors
/// by their `Debug` text, graphs by their size, name and an FNV-1a
/// digest of every signal, node and memory declaration in id order.
fn render(result: &Result<Dfg, DfgError>) -> String {
    match result {
        Err(e) => format!("Err({e:?})"),
        Ok(g) => {
            let signals: Vec<_> = g.signals().map(|(_, s)| s).collect();
            let nodes: Vec<_> = g.nodes().map(|(_, n)| n).collect();
            let text = format!("{signals:?}{nodes:?}{:?}", g.memory());
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in text.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            format!(
                "Ok({} signals={} nodes={} digest={h:016x})",
                g.name(),
                g.signal_count(),
                g.node_count()
            )
        }
    }
}

/// Texts the mutation corpus starts from: the paper's diffeq, a branchy
/// generated graph, a memory kernel and a hand-written text using every
/// statement form (comments, implicit banks, literal and signal
/// indices, auto-named and named stores, nested branch paths).
fn corpus_bases() -> Vec<(&'static str, String)> {
    let branchy = generate(&GeneratorConfig {
        seed: 5,
        layers: 3,
        width: 4,
        branch_pct: 70,
        ..GeneratorConfig::default()
    });
    vec![
        ("diffeq", classic::diffeq().to_text().unwrap()),
        ("branchy", branchy.to_text().unwrap()),
        ("array_fir", memory::array_fir(3, 2).to_text().unwrap()),
        (
            "handwritten",
            "dfg hand  # a header\n\
             input i, j, v\n\
             const k = 2\n\
             bank ram(ports=2)\n\
             array a[8] @ ram\n\
             array c[4] @ rom(ports=1)\n\
             load x = a[i]\n\
             store a[3] = x\n\
             store s = c[k], v\n\
             load y = c[1]\n\
             op t = add(x, y) @branch(0.0)\n\
             op e = sub(x, j) @branch(0.1/1.0)\n\
             op f = mul(e, k) @branch(0.1/1.1)\n\
             op m = or(t, f)\n"
                .to_string(),
        ),
    ]
}

/// SplitMix64: a self-contained seeded stream, so the corpus never
/// moves with a dependency's RNG.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Broken spellings of a branch annotation and of a port count.
const BAD_BRANCHES: [&str; 8] = [
    "@branch(0)",
    "@branch(x.1)",
    "@branch(0.y)",
    "@branch(0.0/)",
    "@branch(.1)",
    "@branh(0.0)",
    "@branch(0.0",
    "@ branch(1.1)/2.0",
];
const BAD_PORTS: [&str; 7] = [
    "(ports=)",
    "(ports=x)",
    "(port=2)",
    "ports=2)",
    "(ports=2",
    "(ports=0)",
    "(ports=-1)",
];

/// One seeded mutation of `text`, with a short description of it.
fn mutate(text: &str, rng: &mut Mix) -> (String, String) {
    let lines: Vec<&str> = text.lines().collect();
    let n = lines.len();
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let desc = match rng.below(8) {
        0 => {
            let i = rng.below(n);
            out.remove(i);
            format!("drop line {}", i + 1)
        }
        1 => {
            let i = rng.below(n);
            out.insert(i, lines[i].to_string());
            format!("duplicate line {}", i + 1)
        }
        2 => {
            let (i, j) = (rng.below(n), rng.below(n));
            out.swap(i, j);
            format!("swap lines {} and {}", i + 1, j + 1)
        }
        3 => {
            let i = rng.below(n);
            let mut tokens: Vec<&str> = lines[i].split_whitespace().collect();
            let (a, b) = (rng.below(tokens.len()), rng.below(tokens.len()));
            tokens.swap(a, b);
            out[i] = tokens.join(" ");
            format!("swap tokens {a} and {b} of line {}", i + 1)
        }
        4 => {
            let cut = rng.below(text.len());
            return (text[..cut].to_string(), format!("truncate at byte {cut}"));
        }
        5 => {
            let i = rng.below(n);
            let bad = BAD_BRANCHES[rng.below(BAD_BRANCHES.len())];
            out[i] = match lines[i].find('@') {
                Some(at) if lines[i].starts_with("op") => format!("{}{bad}", &lines[i][..at]),
                _ => format!("{} {bad}", lines[i]),
            };
            format!("branch `{bad}` on line {}", i + 1)
        }
        6 => {
            let decls: Vec<usize> = (0..n)
                .filter(|&i| lines[i].starts_with("bank") || lines[i].starts_with("array"))
                .collect();
            let i = if decls.is_empty() {
                rng.below(n)
            } else {
                decls[rng.below(decls.len())]
            };
            let bad = BAD_PORTS[rng.below(BAD_PORTS.len())];
            out[i] = match lines[i].find('(') {
                Some(open) => format!("{}{bad}", &lines[i][..open]),
                None => format!("{}{bad}", lines[i]),
            };
            format!("ports `{bad}` on line {}", i + 1)
        }
        _ => {
            let pos = rng.below(text.len());
            let ch = ['(', ')', ',', '=', '@', '[', ']', '#', '.', '/'][rng.below(10)];
            let mut t = text.to_string();
            t.insert(pos, ch);
            return (t, format!("insert `{ch}` at byte {pos}"));
        }
    };
    (out.join("\n") + "\n", desc)
}

fn render_corpus() -> String {
    let mut lines = Vec::new();
    for (name, text, _) in cases() {
        lines.push(format!("{name}: {}", render(&parse_dfg(text))));
    }
    for (base, text) in corpus_bases() {
        lines.push(format!("{base}: {}", render(&parse_dfg(&text))));
        let mut rng = Mix(0x5eed ^ base.len() as u64);
        for k in 0..40 {
            let (mutant, desc) = mutate(&text, &mut rng);
            lines.push(format!(
                "{base}#{k} {desc}: {}",
                render(&parse_dfg(&mutant))
            ));
        }
    }
    lines.join("\n") + "\n"
}

/// Texts whose whitespace, comments and token spellings a byte-level
/// scanner could read differently from `str::trim` and friends: line
/// endings, ASCII control spaces, Unicode spaces (which `trim` strips
/// and a name may contain), a byte-order mark, non-ASCII names,
/// comments holding delimiters, spaced-out annotations and every
/// operator spelling.
fn whitespace_cases() -> Vec<(&'static str, String)> {
    let mut cases: Vec<(&'static str, String)> = vec![
        ("crlf", "dfg w\r\ninput a, b\r\nop p = mul(a, b)\r\nop q = add(p, a)\r\n".into()),
        ("crlf no final newline", "input a\r\nop p = inc(a)\r".into()),
        ("lone cr mid-line", "input a\rop p = inc(a)\nop q = inc(a)\n".into()),
        ("crlf blank lines", "\r\n\r\ninput a\r\n \r\n\top p = inc(a)\r\n\r\n".into()),
        ("tabs", "dfg\tw\ninput\ta,\tb\nop\tp\t=\tmul(\ta\t,\tb\t)\n".into()),
        ("vertical tab and form feed", "input\x0ba,\x0cb\nop\x0cp\x0b=\x0badd(a,\x0bb)\x0c\n".into()),
        ("nbsp after keyword", "input\u{a0}a\nop\u{a0}p = inc(a)\n".into()),
        ("nbsp around tokens", "input \u{a0}a\u{a0}, b\nop p\u{a0}=\u{a0}add(\u{a0}a\u{a0},b)\u{a0}\n".into()),
        ("em space inside a name", "input a\u{2003}b\nop p = inc(a\u{2003}b)\n".into()),
        ("em space inside a name, trimmed reference", "input a\u{2003}b\nop p = inc(a b)\n".into()),
        ("ideographic space around tokens", "input\u{3000}a\u{3000}\nop p = inc(\u{3000}a\u{3000})\u{3000}\n".into()),
        ("ideographic space inside a kind", "input a, b\nop p = mu\u{3000}l(a, b)\n".into()),
        ("ideographic space before the paren", "input a, b\nop p = mul\u{3000}(a, b)\n".into()),
        ("next line and line separator", "input\u{85}a\nop\u{2028}p = inc(a)\u{2029}\n".into()),
        ("zero-width space is no space", "input\u{200b}a\nop p = inc(a)\n".into()),
        ("zero-width space inside a name", "input a\u{200b}\nop p = inc(a\u{200b})\n".into()),
        ("leading bom", "\u{feff}dfg w\ninput a\nop p = inc(a)\n".into()),
        ("bom on a later line", "input a\n\u{feff}op p = inc(a)\n".into()),
        ("non-ascii names", "dfg 图\ninput α, β\nconst κ = 3\nop γ = add(α, β)\nop δ = mul(γ, κ)\n".into()),
        ("non-ascii graph name with spaces", "dfg\u{3000} mein Graph \u{a0}\ninput a\nop p = inc(a)\n".into()),
        ("comments with delimiters", "input a, b # = ( @ [ ] , .\nconst k = 2 # k = (3)\nop p = add(a, b) # @branch(0.1)\nop q = mul(p, k)#=(@\n# op r = add(a, b)\n".into()),
        ("comment right after a keyword", "input# a\ninput a\nop p = inc(a)\n".into()),
        ("comment inside a call", "input a, b\nop p = add(a, # b)\n".into()),
        ("spaced branch annotation", "input a, b\nop p = add(a, b) @branch( 0.1 / 1.0 )\nop q = sub(a, b) @branch( 0.1 / 1.1 )\n".into()),
        ("space after the at sign", "input a, b\nop p = add(a, b) @ branch(0.0)\nop q = sub(a, b) @\tbranch(0.1)\t\n".into()),
        ("space before the branch paren", "input a, b\nop p = add(a, b) @branch (0.0)\n".into()),
        ("unicode space in a branch arm", "input a, b\nop p = add(a, b) @branch(0\u{a0}.\u{3000}1)\n".into()),
        ("annotation glued to the call", "input a, b\nop p = add(a, b)@branch(0.0)\n".into()),
        ("every op symbol", "input a, b\nop o1 = +(a, b)\nop o2 = -(a, b)\nop o3 = *(a, b)\nop o4 = /(a, b)\nop o5 = &(a, b)\nop o6 = |(a, b)\nop o7 = ^(a, b)\nop o8 = ~(a)\nop o9 = =(a, b)\nop o10 = !(a, b)\nop o11 = <(a, b)\nop o12 = >(a, b)\nop o13 = <<(a, b)\nop o14 = >>(a, b)\nop o15 = ++(a)\nop o16 = --(a)\nop o17 = neg(a)\n".into()),
        ("every op name in upper case", "input a, b\nop o1 = ADD(a, b)\nop o2 = SUB(a, b)\nop o3 = MUL(a, b)\nop o4 = DIV(a, b)\nop o5 = AND(a, b)\nop o6 = OR(a, b)\nop o7 = XOR(a, b)\nop o8 = NOT(a)\nop o9 = EQ(a, b)\nop o10 = NE(a, b)\nop o11 = LT(a, b)\nop o12 = GT(a, b)\nop o13 = SHL(a, b)\nop o14 = SHR(a, b)\nop o15 = INC(a)\nop o16 = DEC(a)\nop o17 = NEG(a)\n".into()),
        ("mixed-case and spaced kinds", "input a, b\nop p = Mul (a, b)\nop q = nEg\t(p)\nop r = << ( p , q )\n".into()),
        ("symbols are case-exact", "input a\nop p = NEG(a)\nop q = Neg(p)\n".into()),
        ("unknown upper-case symbol", "input a, b\nop p = MUL2(a, b)\n".into()),
        ("non-ascii kind", "input a, b\nop p = mül(a, b)\n".into()),
        ("upper-case keyword", "INPUT a\nop p = inc(a)\n".into()),
        ("no spaces at all", "input a,b\nop p=add(a,b)\nop q=inc(p)@branch(1.2)\n".into()),
        ("empty operands", "input a,, b,\nop p = add(a,, b)\nop q = inc(p,)\n".into()),
        ("spaced memory statements", "input i , v\nbank  ram ( ports = 2 )\narray\ta [ 8 ]\t@\tram\nload x = a [ i ]\nstore a[\ti\t] = v\nstore s0 = a[ 3 ] ,\u{3000}x\nload y = a[\u{a0}2\u{a0}]\n".into()),
        ("implicit bank with unicode spaces", "input i\narray c[4]\u{a0}@\u{3000}rom(\u{a0}ports\u{a0}=\u{a0}1\u{a0})\nload v = c[i]\n".into()),
        ("signed literals", "input a\nconst k = +3\nconst m = -4\narray x[4] @ r(ports=+1)\nload v = x[+2]\nop p = add(k, m)\nop q = add(p, v)\n".into()),
        ("constant with unicode space", "input a\nconst k = \u{a0}7\u{3000}\nop p = add(a, k)\n".into()),
        ("fullwidth digit", "input a\nconst k = ３\nop p = add(a, k)\n".into()),
        ("names with dots and at signs", "input a.b\nop p.q = inc(a.b)\nop r = add(p.q, a.b) @branch(0.1)\n".into()),
        ("store named with unicode", "input i, v\narray x[4] @ r(ports=1)\nstore σ = x[i], v\nstore x[1] = σ\n".into()),
        ("header only spaces", "dfg \t\u{a0}\ninput a\nop p = inc(a)\n".into()),
    ];
    // Seeded insertions of whitespace-like and delimiter characters into
    // a text that uses every statement form.
    let base = "dfg ws  # header\r\n\
                input i, j, v\r\n\
                const k = 2\n\
                bank ram(ports=2)\n\
                array a[8] @ ram\n\
                array c[4] @ rom(ports=1)\n\
                load x = a[i]\n\
                store a[3] = x\n\
                store s = c[k], v\n\
                load y = c[1]\n\
                op t = add(x, y) @branch(0.0)\n\
                op e = -(x, j) @branch(0.1/1.0)\n\
                op f = MUL(e, k) @branch(0.1/1.1)\n\
                op m = or(t, f)\n";
    const INSERTS: [&str; 24] = [
        " ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
        "\u{feff}", "\u{200b}", "é", "#", "=", "(", ")", ",", "@", "[", "]", ".", "/", "+",
    ];
    let mut rng = Mix(0x0077_6873);
    for _ in 0..200 {
        let mut text = base.to_string();
        for _ in 0..1 + rng.below(3) {
            let mut at = rng.below(text.len() + 1);
            while !text.is_char_boundary(at) {
                at += 1;
            }
            text.insert_str(at, INSERTS[rng.below(INSERTS.len())]);
        }
        cases.push(("inserted", text));
    }
    cases
}

fn render_whitespace() -> String {
    let mut lines = Vec::new();
    for (k, (name, text)) in whitespace_cases().into_iter().enumerate() {
        lines.push(format!("{k} {name}: {}", render(&parse_dfg(&text))));
    }
    lines.join("\n") + "\n"
}

fn assert_matches_golden(got: &str, file: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{file} line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
fn parse_results_match_the_recorded_golden() {
    assert_matches_golden(&render_corpus(), "parse_errors.txt");
}

#[test]
fn whitespace_results_match_the_recorded_golden() {
    assert_matches_golden(&render_whitespace(), "parse_whitespace.txt");
}

#[test]
fn text_round_trips_to_an_equal_graph() {
    let branchy = generate(&GeneratorConfig {
        branch_pct: 60,
        ..scaling_workload(2_000)
    });
    // `true` for graphs built in the text format's declaration order.
    // The clustered and memory builders declare inputs and constants
    // between operations; the format hoists every such declaration, so
    // their first round trip renumbers the signals, and from then on
    // the text is a fixed point.
    let graphs = [
        (generate(&scaling_workload(3_000)), true),
        (branchy, true),
        (generate_clustered(&clustered_workload(4_000)), false),
        (memory::array_fir(8, 2), false),
        (memory::matvec(4, 2), false),
    ];
    for (g, in_text_order) in graphs {
        let once = parse_dfg(&g.to_text().unwrap()).unwrap();
        assert!(
            !in_text_order || once == g,
            "{} does not round-trip",
            g.name()
        );
        assert_eq!(once.to_text(), g.to_text());
        let twice = parse_dfg(&once.to_text().unwrap()).unwrap();
        assert!(twice == once, "{} is no fixed point", g.name());
    }
}
