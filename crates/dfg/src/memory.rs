//! Arrays, memory banks and their declarations.
//!
//! Memory-aware synthesis (after Corre et al.'s memory-aware HLS work)
//! models each array as data living in a *bank* with a fixed number of
//! access *ports*. Loads and stores become schedulable operations whose
//! functional-unit class is the bank ([`crate::FuClass::Mem`]); the
//! scheduler then treats the port count as a hard per-step concurrency
//! limit, exactly like a user resource constraint on an operator class.

use std::fmt;

use crate::name::Name;

/// Identifier of an array declared in one [`crate::Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub(crate) u32);

impl ArrayId {
    /// Creates an array id (harness use; builders allocate ids).
    pub fn new(raw: u32) -> Self {
        ArrayId(raw)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifier of a memory bank declared in one [`crate::Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub(crate) u32);

impl BankId {
    /// Creates a bank id (harness use; builders allocate ids).
    pub fn new(raw: u32) -> Self {
        BankId(raw)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A declared memory bank: a physical memory with `ports` concurrent
/// access ports. The port count is the hard per-control-step limit on
/// loads plus stores touching the bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankDecl {
    pub(crate) id: BankId,
    pub(crate) name: Name,
    pub(crate) ports: u32,
}

impl BankDecl {
    /// The bank id.
    pub fn id(&self) -> BankId {
        self.id
    }

    /// The bank's name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Number of concurrent access ports (≥ 1).
    pub fn ports(&self) -> u32 {
        self.ports
    }
}

/// A declared array: `size` words bound to one bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    pub(crate) id: ArrayId,
    pub(crate) name: Name,
    pub(crate) size: u32,
    pub(crate) bank: BankId,
}

impl ArrayDecl {
    /// The array id.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Number of elements (≥ 1).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The bank holding this array.
    pub fn bank(&self) -> BankId {
        self.bank
    }
}

/// All memory declarations of a graph: banks and the arrays bound to
/// them. Empty for pure operator DFGs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryDecls {
    pub(crate) banks: Vec<BankDecl>,
    pub(crate) arrays: Vec<ArrayDecl>,
}

impl MemoryDecls {
    /// Whether any array is declared.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty() && self.banks.is_empty()
    }

    /// Declared banks, in id order.
    pub fn banks(&self) -> &[BankDecl] {
        &self.banks
    }

    /// Declared arrays, in id order.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// The bank with the given id, if declared.
    pub fn bank(&self, id: BankId) -> Option<&BankDecl> {
        self.banks.get(id.index())
    }

    /// The array with the given id, if declared.
    pub fn array(&self, id: ArrayId) -> Option<&ArrayDecl> {
        self.arrays.get(id.index())
    }

    /// Looks up a bank by name.
    pub fn bank_by_name(&self, name: &str) -> Option<&BankDecl> {
        self.banks.iter().find(|b| b.name() == name)
    }

    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name() == name)
    }

    /// Arrays bound to `bank`, in id order.
    pub fn arrays_in_bank(&self, bank: BankId) -> impl Iterator<Item = &ArrayDecl> {
        self.arrays.iter().filter(move |a| a.bank == bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_and_id() {
        let decls = MemoryDecls {
            banks: vec![BankDecl {
                id: BankId(0),
                name: "bank0".into(),
                ports: 2,
            }],
            arrays: vec![ArrayDecl {
                id: ArrayId(0),
                name: "a".into(),
                size: 16,
                bank: BankId(0),
            }],
        };
        assert!(!decls.is_empty());
        assert_eq!(decls.bank_by_name("bank0").unwrap().ports(), 2);
        assert_eq!(decls.array_by_name("a").unwrap().size(), 16);
        assert_eq!(decls.array(ArrayId(0)).unwrap().bank(), BankId(0));
        assert_eq!(decls.arrays_in_bank(BankId(0)).count(), 1);
        assert!(decls.bank_by_name("nope").is_none());
        assert_eq!(ArrayId(3).to_string(), "a3");
        assert_eq!(BankId(1).to_string(), "b1");
    }

    #[test]
    fn default_is_empty() {
        assert!(MemoryDecls::default().is_empty());
    }
}
