//! Signals (values) and branch paths.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::name::Name;
use crate::NodeId;

/// Identifier of a [`Signal`] within one [`crate::Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Where a signal's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalSource {
    /// A primary input of the behaviour (available at step 0 and stable).
    PrimaryInput,
    /// A compile-time constant.
    Constant(i64),
    /// The output of an operation node.
    Node(NodeId),
}

impl SignalSource {
    /// The producing node, when the signal is an operation output.
    pub fn node(self) -> Option<NodeId> {
        match self {
            SignalSource::Node(n) => Some(n),
            _ => None,
        }
    }
}

/// A named value flowing along data-dependency edges.
///
/// MFSA annotates "the input signals (input variables) of each operation,
/// together with its name in the DFG" (paper §4.1) because signal identity
/// drives multiplexer sharing and register life spans; signals are
/// therefore first-class here rather than anonymous edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    pub(crate) name: Name,
    pub(crate) source: SignalSource,
}

impl Signal {
    /// The signal's name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Where the value comes from.
    pub fn source(&self) -> SignalSource {
        self.source
    }

    /// Whether the value is live from step 0 (input or constant) rather
    /// than produced by an operation.
    pub fn is_external(&self) -> bool {
        !matches!(self.source, SignalSource::Node(_))
    }
}

/// Identifier of one conditional construct (an `if`/`case`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId(pub(crate) u32);

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One arm of a conditional: `(branch, arm index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchArm {
    /// The conditional this arm belongs to.
    pub branch: BranchId,
    /// The arm index within the conditional (0 = then, 1 = else, or a
    /// case label position).
    pub arm: u32,
}

impl fmt::Display for BranchArm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.branch, self.arm)
    }
}

/// The (possibly nested) conditional context of a node: the list of arms
/// enclosing it, outermost first.
///
/// Two nodes are *mutually exclusive* — they "can be executed on the same
/// type of FU and scheduled into the same control step without increasing
/// the required number of FU's" (paper §5.1) — exactly when their paths
/// contain different arms of the same branch:
///
/// ```
/// use hls_dfg::{BranchArm, BranchId, BranchPath};
///
/// let b = BranchId::new(0);
/// let then_arm = BranchPath::from_arms([BranchArm { branch: b, arm: 0 }]);
/// let else_arm = BranchPath::from_arms([BranchArm { branch: b, arm: 1 }]);
/// assert!(then_arm.excludes(&else_arm));
/// assert!(!then_arm.excludes(&then_arm));
/// assert!(!then_arm.excludes(&BranchPath::top_level()));
/// ```
///
/// Paths of up to two arms, the depth nearly every graph stays within,
/// are held inline; deeper ones on the heap. Either way a path reads,
/// compares, hashes and prints like its arm list.
#[derive(Clone, Default)]
pub struct BranchPath {
    arms: Arms,
}

#[derive(Clone)]
enum Arms {
    Inline(u8, [BranchArm; 2]),
    Heap(Box<[BranchArm]>),
}

/// Filler for the unused inline places.
const NO_ARM: BranchArm = BranchArm {
    branch: BranchId(0),
    arm: 0,
};

impl Default for Arms {
    fn default() -> Self {
        Arms::Inline(0, [NO_ARM; 2])
    }
}

impl BranchId {
    /// Creates a branch id (used when constructing paths by hand; the
    /// builder allocates ids automatically).
    pub fn new(raw: u32) -> Self {
        BranchId(raw)
    }

    /// The raw id (used by the text-format writer).
    pub fn get(self) -> u32 {
        self.0
    }
}

impl BranchPath {
    /// The unconditional (top-level) path.
    pub fn top_level() -> Self {
        BranchPath::default()
    }

    /// Builds a path from arms, outermost first.
    pub fn from_arms<I>(arms: I) -> Self
    where
        I: IntoIterator<Item = BranchArm>,
    {
        let mut arms = arms.into_iter();
        let mut inline = [NO_ARM; 2];
        let mut n = 0;
        while let Some(arm) = arms.next() {
            if n == inline.len() {
                let heap = inline.into_iter().chain([arm]).chain(arms).collect();
                return BranchPath {
                    arms: Arms::Heap(heap),
                };
            }
            inline[n] = arm;
            n += 1;
        }
        BranchPath {
            arms: Arms::Inline(n as u8, inline),
        }
    }

    /// The enclosing arms, outermost first.
    pub fn arms(&self) -> &[BranchArm] {
        match &self.arms {
            Arms::Inline(n, arms) => &arms[..*n as usize],
            Arms::Heap(arms) => arms,
        }
    }

    /// Whether the node is unconditional.
    pub fn is_top_level(&self) -> bool {
        self.arms().is_empty()
    }

    /// Returns a child path extended by one more arm.
    pub fn child(&self, arm: BranchArm) -> BranchPath {
        BranchPath::from_arms(self.arms().iter().copied().chain([arm]))
    }

    /// Whether two paths are mutually exclusive: they take *different*
    /// arms of *some common* branch.
    pub fn excludes(&self, other: &BranchPath) -> bool {
        self.arms().iter().any(|a| {
            other
                .arms()
                .iter()
                .any(|b| a.branch == b.branch && a.arm != b.arm)
        })
    }
}

impl PartialEq for BranchPath {
    fn eq(&self, other: &BranchPath) -> bool {
        self.arms() == other.arms()
    }
}

impl Eq for BranchPath {}

impl Hash for BranchPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.arms().hash(state);
    }
}

impl fmt::Debug for BranchPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BranchPath")
            .field("arms", &self.arms())
            .finish()
    }
}

impl fmt::Display for BranchPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top_level() {
            return f.write_str("top");
        }
        for (i, arm) in self.arms().iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{arm}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(branch: u32, arm: u32) -> BranchArm {
        BranchArm {
            branch: BranchId(branch),
            arm,
        }
    }

    #[test]
    fn sibling_arms_exclude() {
        let a = BranchPath::from_arms([arm(0, 0)]);
        let b = BranchPath::from_arms([arm(0, 1)]);
        assert!(a.excludes(&b));
        assert!(b.excludes(&a));
    }

    #[test]
    fn same_arm_does_not_exclude() {
        let a = BranchPath::from_arms([arm(0, 0)]);
        assert!(!a.excludes(&a.clone()));
    }

    #[test]
    fn different_branches_do_not_exclude() {
        let a = BranchPath::from_arms([arm(0, 0)]);
        let b = BranchPath::from_arms([arm(1, 1)]);
        assert!(!a.excludes(&b));
    }

    #[test]
    fn nested_paths_exclude_via_outer_branch() {
        let a = BranchPath::from_arms([arm(0, 0), arm(1, 0)]);
        let b = BranchPath::from_arms([arm(0, 1), arm(2, 0)]);
        assert!(a.excludes(&b));
    }

    #[test]
    fn nested_same_outer_different_inner() {
        let a = BranchPath::from_arms([arm(0, 0), arm(1, 0)]);
        let b = BranchPath::from_arms([arm(0, 0), arm(1, 1)]);
        assert!(a.excludes(&b));
    }

    #[test]
    fn top_level_never_excludes() {
        let top = BranchPath::top_level();
        let a = BranchPath::from_arms([arm(0, 0)]);
        assert!(!top.excludes(&a));
        assert!(!a.excludes(&top));
        assert!(top.is_top_level());
    }

    #[test]
    fn child_extends_path() {
        let a = BranchPath::top_level().child(arm(3, 1));
        assert_eq!(a.arms(), &[arm(3, 1)]);
        assert_eq!(a.to_string(), "b3.1");
    }

    #[test]
    fn paths_of_any_depth_read_hash_and_print_like_their_arms() {
        use std::collections::hash_map::DefaultHasher;
        /// The derived shape the inline storage must keep printing as.
        #[derive(Debug, Hash)]
        struct BranchPath {
            arms: Vec<BranchArm>,
        }
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        for depth in 0..5 {
            let arms: Vec<BranchArm> = (0..depth).map(|i| arm(i, i % 2)).collect();
            let path = super::BranchPath::from_arms(arms.iter().copied());
            let derived = BranchPath { arms: arms.clone() };
            assert_eq!(path.arms(), arms.as_slice());
            assert_eq!(format!("{path:?}"), format!("{derived:?}"));
            assert_eq!(format!("{path:#?}"), format!("{derived:#?}"));
            assert_eq!(hash(&|s| path.hash(s)), hash(&|s| derived.hash(s)));
            let child = path.child(arm(9, 1));
            assert_eq!(child.arms().len(), depth as usize + 1);
            assert_eq!(&child.arms()[..depth as usize], arms.as_slice());
        }
    }

    #[test]
    fn display_of_top_level() {
        assert_eq!(BranchPath::top_level().to_string(), "top");
    }
}
