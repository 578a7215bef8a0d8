//! Grid files: a TOML subset describing an exploration grid.
//!
//! The format (documented for users in `EXPERIMENTS.md`):
//!
//! ```toml
//! # comments and blank lines are ignored
//! [defaults]            # applies to every point below
//! algorithm = ["mfs", "list"]   # array -> cross product
//! cs = [4, 5, 6]                # array -> cross product
//! clock = 100                   # chaining clock in ns
//! latency = 2                   # functional-pipelining latency
//! limits = ["*=2", "+=1"]       # per-op FU bounds (op = count)
//! pipeline = ["*"]              # structurally pipelined ops (MFS)
//! style = 2                     # MFSA design style (1 or 2)
//! weights = [1, 1, 1, 1]        # MFSA Liapunov weights (t, a, m, r)
//!
//! [[point]]             # one explicit point (inherits the defaults)
//! label = "tight"
//! algorithm = "mfsa"
//! cs = 4
//! ```
//!
//! `algorithm` and `cs` may be arrays; a `[[point]]` (or the defaults
//! section when no `[[point]]` exists) expands to the cross product in
//! file order — algorithms outer, time constraints inner. Every other
//! key is scalar, except the list knobs (`limits`, `pipeline`,
//! `weights`). Values are parsed and validated by the design-point knob
//! table ([`crate::KNOBS`]), the same one `mfhls` and `mfhls serve`
//! use; unknown keys and malformed values are hard errors: a silently
//! ignored constraint would corrupt a sweep.

use std::collections::BTreeMap;

use crate::point::{Algorithm, DesignPoint, Knob, KnobKind};

/// A grid-file parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    /// 1-based line of the offending entry (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "grid: {}", self.message)
        } else {
            write!(f, "grid line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for GridError {}

fn err(line: usize, message: impl Into<String>) -> GridError {
    GridError {
        line,
        message: message.into(),
    }
}

/// One scalar value of the subset: integer or string.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Scalar {
    Int(u32),
    Str(String),
}

impl Scalar {
    fn parse(raw: &str, line: usize) -> Result<Scalar, GridError> {
        let raw = raw.trim();
        if let Some(stripped) = raw.strip_prefix('"') {
            let Some(inner) = stripped.strip_suffix('"') else {
                return Err(err(line, format!("unterminated string: {raw}")));
            };
            return Ok(Scalar::Str(inner.to_string()));
        }
        raw.parse::<u32>().map(Scalar::Int).map_err(|_| {
            err(
                line,
                format!("expected an integer or \"string\", got {raw}"),
            )
        })
    }
}

/// A parsed `key = value` with the value as scalar or array.
#[derive(Debug, Clone)]
enum Value {
    One(Scalar),
    Many(Vec<Scalar>),
}

fn parse_value(raw: &str, line: usize) -> Result<Value, GridError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('[') {
        let Some(inner) = stripped.strip_suffix(']') else {
            return Err(err(line, format!("unterminated array: {raw}")));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::Many(Vec::new()));
        }
        let items = inner
            .split(',')
            .map(|item| Scalar::parse(item, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Value::Many(items));
    }
    Ok(Value::One(Scalar::parse(raw, line)?))
}

/// The design-point knobs a grid file may set, by their grid names.
const GRID_KEYS: [&str; 9] = [
    "label",
    "algorithm",
    "cs",
    "clock",
    "latency",
    "limits",
    "pipeline",
    "style",
    "weights",
];

/// The accumulated settings of one section (defaults or a point).
#[derive(Debug, Clone, Default)]
struct Section {
    /// The `algorithm` cross-product axis.
    algorithms: Option<Vec<Algorithm>>,
    /// The `cs` cross-product axis.
    cs: Option<Vec<u32>>,
    /// Every other knob by canonical name: its value as
    /// [`DesignPoint::set`] text, and its line.
    knobs: BTreeMap<&'static str, (String, usize)>,
}

impl Section {
    fn apply(&mut self, key: &str, value: Value, line: usize) -> Result<(), GridError> {
        let knob = Knob::lookup(key)
            .filter(|_| GRID_KEYS.contains(&key))
            .ok_or_else(|| err(line, format!("unknown key {key}")))?;
        let axis = matches!(key, "algorithm" | "cs");
        let items = match value {
            Value::One(s) => vec![s],
            Value::Many(list)
                if axis || matches!(knob.kind, KnobKind::IntList | KnobKind::TextList) =>
            {
                list
            }
            Value::Many(_) => return Err(err(line, format!("{key} must be a single value"))),
        };
        let wants_int = matches!(knob.kind, KnobKind::Int | KnobKind::IntList);
        let texts = items
            .into_iter()
            .map(|item| match item {
                Scalar::Int(v) if wants_int => Ok(v.to_string()),
                Scalar::Str(s) if !wants_int => Ok(s),
                Scalar::Str(s) => Err(err(line, format!("{key} wants an integer, got \"{s}\""))),
                Scalar::Int(v) => Err(err(line, format!("{key} wants a string, got {v}"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Each value is checked against the knob table here, so a bad
        // one is reported at its own line even if no point inherits it.
        let mut probe = DesignPoint::new(Algorithm::Mfs, 1);
        if !axis {
            let text = texts.join(",");
            probe
                .set(key, &text)
                .map_err(|e| err(line, e.to_string()))?;
            self.knobs.insert(knob.name(), (text, line));
            return Ok(());
        }
        if texts.is_empty() {
            return Err(err(line, format!("{key} array is empty")));
        }
        let mut axis_points = Vec::with_capacity(texts.len());
        for text in &texts {
            probe.set(key, text).map_err(|e| err(line, e.to_string()))?;
            axis_points.push((probe.algorithm, probe.cs));
        }
        if key == "cs" {
            self.cs = Some(axis_points.iter().map(|p| p.1).collect());
        } else {
            self.algorithms = Some(axis_points.iter().map(|p| p.0).collect());
        }
        Ok(())
    }

    fn inherit(&self, defaults: &Section) -> Section {
        // A label names one section's points; it is never inherited.
        let mut knobs = defaults.knobs.clone();
        knobs.remove("label");
        knobs.extend(self.knobs.clone());
        Section {
            algorithms: self
                .algorithms
                .clone()
                .or_else(|| defaults.algorithms.clone()),
            cs: self.cs.clone().or_else(|| defaults.cs.clone()),
            knobs,
        }
    }

    fn expand(&self, out: &mut Vec<DesignPoint>, line: usize) -> Result<(), GridError> {
        let algorithms = self
            .algorithms
            .as_ref()
            .ok_or_else(|| err(line, "no algorithm given (here or in [defaults])"))?;
        let cs_list = self
            .cs
            .as_ref()
            .ok_or_else(|| err(line, "no cs given (here or in [defaults])"))?;
        let multi = algorithms.len() * cs_list.len() > 1;
        for &alg in algorithms {
            for &cs in cs_list {
                let mut p = DesignPoint::new(alg, cs);
                for (key, (text, at)) in &self.knobs {
                    p.set(key, text).map_err(|e| err(*at, e.to_string()))?;
                }
                if multi && self.knobs.contains_key("label") {
                    // Cross-product points get a disambiguating suffix.
                    p.label = format!("{} {alg}@T{cs}", p.label);
                }
                out.push(p);
            }
        }
        Ok(())
    }
}

/// Parses a grid file into its design points, in file order.
///
/// # Errors
///
/// [`GridError`] (with a line number) on any unknown key, malformed
/// value, unknown algorithm/op name, or a file that yields no points.
pub fn parse_grid(text: &str) -> Result<Vec<DesignPoint>, GridError> {
    let mut defaults = Section::default();
    let mut current = Section::default();
    // The open section: `(is a [[point]], header line)`; `None` before
    // the first header.
    let mut open: Option<(bool, usize)> = None;
    let mut points = Vec::new();
    // A trailing `None` marks the end of the file, which closes the
    // last section like a header would.
    for (i, raw) in text.lines().map(Some).chain([None]).enumerate() {
        let line_no = i + 1;
        let line = raw.map_or("", |r| r.split('#').next().unwrap_or_default().trim());
        let next = match line {
            _ if raw.is_none() => None,
            "" => continue,
            "[defaults]" => Some((false, line_no)),
            "[[point]]" => Some((true, line_no)),
            _ if line.starts_with('[') => {
                return Err(err(line_no, format!("unknown section {line}")));
            }
            _ => {
                let Some((key, value)) = line.split_once('=') else {
                    return Err(err(line_no, format!("expected key = value, got {line}")));
                };
                current.apply(key.trim(), parse_value(value, line_no)?, line_no)?;
                continue;
            }
        };
        let closed = std::mem::take(&mut current);
        match open {
            Some((true, at)) => closed.inherit(&defaults).expand(&mut points, at)?,
            Some((false, _)) => defaults = closed,
            None => {}
        }
        open = next;
    }

    // A file with only [defaults] is itself a grid: expand the defaults.
    if points.is_empty() && (defaults.algorithms.is_some() || defaults.cs.is_some()) {
        defaults.expand(&mut points, 0)?;
    }
    if points.is_empty() {
        return Err(err(0, "the grid file defines no points"));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::FuClass;

    #[test]
    fn defaults_cross_product() {
        let points = parse_grid(
            r#"
            # a sweep
            [defaults]
            algorithm = ["mfs", "list"]
            cs = [4, 5]
            "#,
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].algorithm, Algorithm::Mfs);
        assert_eq!(points[0].cs, 4);
        assert_eq!(points[3].algorithm, Algorithm::List);
        assert_eq!(points[3].cs, 5);
    }

    #[test]
    fn points_inherit_and_override_defaults() {
        let points = parse_grid(
            r#"
            [defaults]
            algorithm = "mfs"
            cs = 8
            clock = 100

            [[point]]
            label = "tight"
            cs = 4

            [[point]]
            algorithm = "mfsa"
            style = 2
            "#,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "tight");
        assert_eq!(points[0].cs, 4);
        assert_eq!(points[0].clock, Some(100));
        assert_eq!(points[1].algorithm, Algorithm::Mfsa);
        assert_eq!(points[1].cs, 8);
        assert_eq!(points[1].style, 2);
    }

    #[test]
    fn limits_pipeline_and_weights_parse() {
        let points = parse_grid(
            r#"
            [[point]]
            algorithm = "mfs"
            cs = 9
            limits = ["*=2", "+=1"]
            pipeline = ["*"]
            weights = [1, 2, 3, 4]
            "#,
        )
        .unwrap();
        let p = &points[0];
        assert_eq!(p.fu_limits[&FuClass::Op(OpKind::Mul)], 2);
        assert_eq!(p.fu_limits[&FuClass::Op(OpKind::Add)], 1);
        assert!(p.pipeline_ops.contains(&OpKind::Mul));
        assert_eq!(p.weights, Some((1, 2, 3, 4)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_grid("[defaults]\nalgorithm = \"nope\"\ncs = 4").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown algorithm"));
        let e = parse_grid("[defaults]\nwat = 3\n").unwrap_err();
        assert!(e.to_string().contains("unknown key"));
        assert!(parse_grid("").is_err());
        let e = parse_grid("[[point]]\nalgorithm = \"mfs\"\n").unwrap_err();
        assert!(e.to_string().contains("no cs"));
    }
}
