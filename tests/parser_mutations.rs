//! Seeded byte mutations of valid inputs for every text and wire
//! parser: `.dfg` graphs, grid files, cell-library text, flat JSON job
//! bodies and HTTP requests. Whatever the bytes, each parser must
//! return a value or its typed error — never panic.

use moveframe_hls::celllib::{parse_library, Library};
use moveframe_hls::dfg::parse_dfg;
use moveframe_hls::explore::parse_grid;
use moveframe_hls::serve::{parse_flat_array, parse_flat_object, parse_request};
use proptest::prelude::*;

/// A `.dfg` with every statement of the grammar: inputs and constants,
/// a bank, arrays (one declaring its bank inline), loads and stores by
/// signal and literal index, and ops in nested branch arms. The text
/// format has no loops; those exist only in built graphs.
const DFG: &str = "# every statement kind
dfg mutated
input a, b, i
const three = 3
bank ram(ports=2)
array x[8] @ ram
array c[4] @ rom(ports=1)
store x[i] = a
store s0 = c[3], b
load v = x[i]
load w = c[0]
op p = mul(v, three)
op q = add(a, b) @branch(0.0)
op r = sub(a, w) @branch(0.1)
op t = * (q, b) @branch(0.0/1.0)
op u = lt(p, three) @branch(0.0/1.1)
op y = add(p, v)
";

/// The grid-file example from the `gridfile` module docs.
const GRID: &str = r#"# comments and blank lines are ignored
[defaults]            # applies to every point below
algorithm = ["mfs", "list"]   # array -> cross product
cs = [4, 5, 6]                # array -> cross product
clock = 100                   # chaining clock in ns
latency = 2                   # functional-pipelining latency
limits = ["*=2", "+=1"]       # per-op FU bounds (op = count)
pipeline = ["*"]              # structurally pipelined ops (MFS)
style = 2                     # MFSA design style (1 or 2)
weights = [1, 1, 1, 1]        # MFSA Liapunov weights (t, a, m, r)

[[point]]             # one explicit point (inherits the defaults)
label = "tight"
algorithm = "mfsa"
cs = 4
"#;

/// A `/batch` body: three flat jobs, one with an escaped `.dfg` text.
const BATCH: &str = r#"[{"benchmark":"diffeq","cs":4},{"alg":"mfsa","cs":6,"style":2,"weights":"1,2,1,1","two_cycle_mul":true},{"dfg":"input a, b\nop p = mul(a, b)\t# \"x\"\n","cs":-1.5e2,"label":null}]"#;

/// A keep-alive POST with its body.
const POST: &[u8] = b"POST /schedule?cs=4&alg=mfsa HTTP/1.1\r\nHost: 127.0.0.1:7433\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: 29\r\n\r\n{\"benchmark\":\"diffeq\",\"cs\":4}";

/// Bytes the parsers give meaning to, so that mutations reach past the
/// first syntax check.
const STRUCTURAL: &[u8] = b"{}[]\"':,=#\\/?&% \r\n\t-+.019aeE\xc3";

/// Up to eight edits `(position, byte, op)`: ops 0 and 1 overwrite or
/// insert a random byte, 2 and 3 a structural one, 4 deletes, 5
/// duplicates a run and 6 truncates.
fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    proptest::collection::vec((0usize..1 << 16, 0u8..=255, 0u8..7), 1..9)
}

fn mutate(seed: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for &(pos, byte, op) in edits {
        let at = pos % (bytes.len() + 1);
        let b = match op {
            0 | 1 => byte,
            _ => STRUCTURAL[byte as usize % STRUCTURAL.len()],
        };
        match op {
            0 | 2 if at < bytes.len() => bytes[at] = b,
            0..=3 => bytes.insert(at, b),
            4 if at < bytes.len() => {
                bytes.remove(at);
            }
            5 => {
                let run = bytes[at..].iter().take(byte as usize % 32).copied();
                let run: Vec<u8> = run.collect();
                bytes.splice(at..at, run);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

fn mutate_text(seed: &str, edits: &[(usize, u8, u8)]) -> String {
    String::from_utf8_lossy(&mutate(seed.as_bytes(), edits)).into_owned()
}

#[test]
fn the_seeds_parse() {
    let dfg = parse_dfg(DFG).unwrap();
    let text = dfg.to_text().unwrap();
    assert_eq!(parse_dfg(&text).unwrap().to_text().unwrap(), text);
    assert_eq!(parse_grid(GRID).unwrap().len(), 1);
    let text = Library::ncr_like().to_text();
    assert_eq!(parse_library(&text).unwrap().to_text(), text);
    assert_eq!(parse_flat_array(BATCH).unwrap().len(), 3);
    let body = &POST[POST.len() - 29..];
    assert!(parse_flat_object(std::str::from_utf8(body).unwrap()).is_ok());
    assert!(matches!(
        parse_request(POST, 1 << 20),
        Ok(moveframe_hls::serve::Parsed::Complete {
            keep_alive: true,
            ..
        })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// A graph that parses round-trips through `to_text` byte-stably
    /// from the second trip on.
    #[test]
    fn dfg_text_parses_or_fails_typed(e in edits()) {
        if let Ok(dfg) = parse_dfg(&mutate_text(DFG, &e)) {
            let text = dfg.to_text().expect("a parsed graph has no loops");
            let again = parse_dfg(&text).expect("emitted text parses");
            prop_assert_eq!(again.to_text(), Some(text));
        }
    }

    #[test]
    fn grid_files_parse_or_fail_typed(e in edits()) {
        let _ = parse_grid(&mutate_text(GRID, &e));
    }

    #[test]
    fn library_text_parses_or_fails_typed(e in edits()) {
        let _ = parse_library(&mutate_text(&Library::ncr_like().to_text(), &e));
    }

    #[test]
    fn flat_json_parses_or_fails_typed(e in edits()) {
        let text = mutate_text(BATCH, &e);
        let _ = parse_flat_array(&text);
        // Each element's text on its own, as a `/schedule` body.
        for part in text.split("},") {
            let _ = parse_flat_object(&format!("{}}}", part.trim_start_matches('[')));
        }
    }

    #[test]
    fn http_requests_parse_or_fail_typed(e in edits()) {
        let bytes = mutate(POST, &e);
        let _ = parse_request(&bytes, 1 << 20);
        let _ = parse_request(&bytes, 16);
    }
}
