//! The cell library: every cost the synthesis flow may query.

use std::collections::BTreeMap;

use crate::alu::alu_merged_area;
use crate::{AluKind, Area, LibraryError, MuxCost, OpKind};

/// A complete cell library: single-function unit areas (for MFS-style
/// scheduling and as merge ingredients), multifunction ALU kinds (for
/// MFSA), the multiplexer cost curve and the register area.
///
/// The paper's MFSA reads "the cell library (which may be restricted to
/// some specific types)" from the user (§6); [`Library::ncr_like`] is the
/// synthetic stand-in for the NCR 1989 ASIC data book, and
/// [`LibraryBuilder`] constructs restricted or custom libraries.
///
/// ```
/// use hls_celllib::{Library, OpKind};
///
/// # fn main() -> Result<(), hls_celllib::LibraryError> {
/// let lib = Library::ncr_like();
/// // Every ALU kind returned supports the requested op:
/// for alu in lib.alus_supporting(OpKind::Sub) {
///     assert!(alu.supports(OpKind::Sub));
/// }
/// // f_ALU^max of the Liapunov function is the largest ALU area:
/// assert!(lib.max_alu_area() >= lib.fu_area(OpKind::Mul)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    name: String,
    fu_areas: BTreeMap<OpKind, Area>,
    alus: Vec<AluKind>,
    mux: MuxCost,
    register_area: Area,
}

impl Library {
    /// The synthetic NCR-1989-like default library (see `DESIGN.md` for
    /// the substitution rationale). 16-bit datapath flavour: multiplier
    /// 19 800 µm², adder/subtracter 2 330, comparators ≈ 1 500, logic
    /// ≈ 900, register 1 230; a curated set of multifunction ALUs whose
    /// areas follow the max + 15 % merge rule.
    pub fn ncr_like() -> Self {
        let mut b = LibraryBuilder::new("ncr-like");
        let areas = [
            (OpKind::Add, 2330),
            (OpKind::Sub, 2330),
            (OpKind::Mul, 19800),
            (OpKind::Div, 26400),
            (OpKind::And, 910),
            (OpKind::Or, 910),
            (OpKind::Xor, 940),
            (OpKind::Not, 480),
            (OpKind::Eq, 1450),
            (OpKind::Ne, 1450),
            (OpKind::Lt, 1560),
            (OpKind::Gt, 1560),
            (OpKind::Shl, 2980),
            (OpKind::Shr, 2980),
            (OpKind::Inc, 1190),
            (OpKind::Dec, 1190),
            (OpKind::Neg, 1250),
        ];
        for (kind, um2) in areas {
            b.fu(kind, Area::new(um2));
        }
        // Single-function ALUs for every operator.
        for (kind, _) in areas {
            b.single_alu(kind);
        }
        // Curated multifunction combinations (areas via the merge rule).
        let combos: &[&[OpKind]] = &[
            &[OpKind::Add, OpKind::Sub],
            &[OpKind::Add, OpKind::Gt],
            &[OpKind::Add, OpKind::Sub, OpKind::Gt],
            &[OpKind::Add, OpKind::Sub, OpKind::Lt],
            &[OpKind::Add, OpKind::Sub, OpKind::Mul],
            &[OpKind::Add, OpKind::Mul],
            &[OpKind::Add, OpKind::Sub, OpKind::And, OpKind::Or],
            &[OpKind::And, OpKind::Or],
            &[OpKind::And, OpKind::Or, OpKind::Xor, OpKind::Not],
            &[OpKind::Eq, OpKind::Ne],
            &[OpKind::Lt, OpKind::Gt],
            &[OpKind::Add, OpKind::Eq],
            &[OpKind::Add, OpKind::Sub, OpKind::Gt, OpKind::Ne],
            &[OpKind::Add, OpKind::Sub, OpKind::Eq, OpKind::Gt],
            &[OpKind::Mul, OpKind::Add, OpKind::Or],
            &[OpKind::Mul, OpKind::Or],
            &[OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Gt],
            &[OpKind::Inc, OpKind::Dec],
            &[OpKind::Add, OpKind::Inc],
            &[OpKind::Add, OpKind::Sub, OpKind::Inc, OpKind::Dec],
        ];
        for ops in combos {
            b.merged_alu(ops.iter().copied());
        }
        b.register(Area::new(1230));
        b.mux(MuxCost::ncr_like());
        b.build().expect("the built-in library is consistent")
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn set_name(&mut self, name: String) {
        self.name = name;
    }

    /// Area of the single-function unit for `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::UnsupportedOp`] when the library has no
    /// single-function unit for `kind`.
    pub fn fu_area(&self, kind: OpKind) -> Result<Area, LibraryError> {
        self.fu_areas
            .get(&kind)
            .copied()
            .ok_or(LibraryError::UnsupportedOp(kind))
    }

    /// All ALU kinds in the library, in declaration order.
    pub fn alus(&self) -> &[AluKind] {
        &self.alus
    }

    /// The ALU kinds able to perform `op` — MFSA's step-4 candidate set
    /// ("determine all ALU's … capable of performing operation Oi").
    pub fn alus_supporting(&self, op: OpKind) -> impl Iterator<Item = &AluKind> {
        self.alus.iter().filter(move |a| a.supports(op))
    }

    /// Looks up an ALU kind by name.
    pub fn alu_by_name(&self, name: &str) -> Option<&AluKind> {
        self.alus.iter().find(|a| a.name() == name)
    }

    /// The largest ALU area — `f_ALU^max` in the Liapunov constant
    /// derivation (paper §4.1).
    pub fn max_alu_area(&self) -> Area {
        self.alus
            .iter()
            .map(AluKind::area)
            .max()
            .unwrap_or(Area::ZERO)
    }

    /// The multiplexer cost curve.
    pub fn mux(&self) -> &MuxCost {
        &self.mux
    }

    /// Area of one register — `Cost(REG)` in `f_REG`.
    pub fn register_area(&self) -> Area {
        self.register_area
    }

    /// `f_REG^max = 2·Cost(REG)` (paper §4.1: at most two new registers
    /// per operation since operations have at most two inputs).
    pub fn max_reg_term(&self) -> Area {
        self.register_area * 2
    }

    /// `f_MUX^max = 2·max_r{Cost(MUX_{r+1}) − Cost(MUX_r)}` (paper §4.1).
    pub fn max_mux_term(&self) -> Area {
        self.mux.max_marginal() * 2
    }

    /// Restricts the library to the ALU kinds accepted by `keep`,
    /// mirroring the paper's "cell library (which may be restricted to
    /// some specific types)".
    pub fn restricted<F>(&self, keep: F) -> Library
    where
        F: Fn(&AluKind) -> bool,
    {
        Library {
            name: format!("{}-restricted", self.name),
            fu_areas: self.fu_areas.clone(),
            alus: self.alus.iter().filter(|a| keep(a)).cloned().collect(),
            mux: self.mux.clone(),
            register_area: self.register_area,
        }
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::ncr_like()
    }
}

/// Incremental builder for [`Library`] values.
///
/// ```
/// use hls_celllib::{Area, LibraryBuilder, MuxCost, OpKind};
///
/// # fn main() -> Result<(), hls_celllib::LibraryError> {
/// let mut b = LibraryBuilder::new("tiny");
/// b.fu(OpKind::Add, Area::new(1000))
///     .fu(OpKind::Mul, Area::new(8000))
///     .single_alu(OpKind::Add)
///     .single_alu(OpKind::Mul)
///     .register(Area::new(500))
///     .mux(MuxCost::ncr_like());
/// let lib = b.build()?;
/// assert_eq!(lib.alus().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LibraryBuilder {
    name: String,
    fu_areas: BTreeMap<OpKind, Area>,
    alus: Vec<AluKind>,
    mux: MuxCost,
    register_area: Area,
}

impl LibraryBuilder {
    /// Starts an empty library named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        LibraryBuilder {
            name: name.into(),
            fu_areas: BTreeMap::new(),
            alus: Vec::new(),
            mux: MuxCost::ncr_like(),
            register_area: Area::new(1230),
        }
    }

    /// Sets the single-function-unit area for `kind`.
    pub fn fu(&mut self, kind: OpKind, area: Area) -> &mut Self {
        self.fu_areas.insert(kind, area);
        self
    }

    /// Adds an explicit ALU kind.
    pub fn alu(&mut self, alu: AluKind) -> &mut Self {
        self.alus.push(alu);
        self
    }

    /// Adds a single-function ALU for `kind`, using its FU area.
    ///
    /// # Panics
    ///
    /// Panics if no FU area was registered for `kind`.
    pub fn single_alu(&mut self, kind: OpKind) -> &mut Self {
        let area = *self
            .fu_areas
            .get(&kind)
            .unwrap_or_else(|| panic!("no FU area registered for {kind:?}"));
        self.alus.push(AluKind::new(kind.name(), [kind], area));
        self
    }

    /// Adds a multifunction ALU over `ops` whose area follows the
    /// max + 15 % merge rule over the registered FU areas.
    ///
    /// # Panics
    ///
    /// Panics if any member op has no registered FU area.
    pub fn merged_alu<I>(&mut self, ops: I) -> &mut Self
    where
        I: IntoIterator<Item = OpKind>,
    {
        let ops: Vec<OpKind> = ops.into_iter().collect();
        let areas: Vec<Area> = ops
            .iter()
            .map(|k| {
                *self
                    .fu_areas
                    .get(k)
                    .unwrap_or_else(|| panic!("no FU area registered for {k:?}"))
            })
            .collect();
        let name: String = ops.iter().map(|k| k.name()).collect::<Vec<_>>().join("_");
        let area = alu_merged_area(areas);
        self.alus.push(AluKind::new(name, ops, area));
        self
    }

    /// Sets the register area.
    pub fn register(&mut self, area: Area) -> &mut Self {
        self.register_area = area;
        self
    }

    /// Sets the multiplexer cost curve.
    pub fn mux(&mut self, mux: MuxCost) -> &mut Self {
        self.mux = mux;
        self
    }

    /// Finalises the library.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::DuplicateAluName`] if two ALU kinds share a
    /// name, since MFSA reports allocations by kind name.
    pub fn build(&self) -> Result<Library, LibraryError> {
        let mut seen = std::collections::BTreeSet::new();
        for alu in &self.alus {
            if !seen.insert(alu.name().to_string()) {
                return Err(LibraryError::DuplicateAluName(alu.name().to_string()));
            }
        }
        Ok(Library {
            name: self.name.clone(),
            fu_areas: self.fu_areas.clone(),
            alus: self.alus.clone(),
            mux: self.mux.clone(),
            register_area: self.register_area,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncr_like_covers_all_ops() {
        let lib = Library::ncr_like();
        for kind in OpKind::ALL {
            assert!(lib.fu_area(kind).is_ok(), "{kind:?} missing");
            assert!(
                lib.alus_supporting(kind).count() >= 1,
                "{kind:?} has no ALU"
            );
        }
    }

    #[test]
    fn multiplier_dominates() {
        let lib = Library::ncr_like();
        let mul = lib.fu_area(OpKind::Mul).unwrap();
        for kind in [OpKind::Add, OpKind::And, OpKind::Eq, OpKind::Shl] {
            assert!(mul > lib.fu_area(kind).unwrap());
        }
    }

    #[test]
    fn merged_alus_are_cheaper_than_parts() {
        let lib = Library::ncr_like();
        let addsub = lib.alu_by_name("add_sub").expect("add_sub exists");
        let parts = lib.fu_area(OpKind::Add).unwrap() + lib.fu_area(OpKind::Sub).unwrap();
        assert!(addsub.area() < parts);
        assert!(addsub.area() > lib.fu_area(OpKind::Add).unwrap());
    }

    #[test]
    fn missing_fu_is_an_error() {
        let lib = LibraryBuilder::new("empty").build().unwrap();
        assert_eq!(
            lib.fu_area(OpKind::Add),
            Err(LibraryError::UnsupportedOp(OpKind::Add))
        );
    }

    #[test]
    fn duplicate_alu_names_rejected() {
        let mut b = LibraryBuilder::new("dup");
        b.fu(OpKind::Add, Area::new(10));
        b.single_alu(OpKind::Add);
        b.single_alu(OpKind::Add);
        assert!(matches!(b.build(), Err(LibraryError::DuplicateAluName(_))));
    }

    #[test]
    fn restricted_filters_alus() {
        let lib = Library::ncr_like();
        let singles = lib.restricted(|a| a.function_count() == 1);
        assert!(singles.alus().iter().all(|a| a.function_count() == 1));
        assert!(singles.alus().len() < lib.alus().len());
        assert!(singles.name().contains("restricted"));
    }

    #[test]
    fn alu_by_name_finds_singles() {
        let lib = Library::ncr_like();
        let add = lib.alu_by_name("add").unwrap();
        assert_eq!(add.area(), lib.fu_area(OpKind::Add).unwrap());
    }

    #[test]
    fn default_is_ncr_like() {
        assert_eq!(Library::default().name(), "ncr-like");
    }
}
