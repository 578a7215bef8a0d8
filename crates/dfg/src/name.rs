//! Names: one arena per graph, one keyed table per build.
//!
//! A graph's node, signal, bank and array names live back to back in
//! one shared string, the graph's *arena*; each holder keeps a span of
//! it. Building or dropping a graph therefore costs one name
//! allocation, however many names it has.
//!
//! While a graph is built, its names are spans of a [`NameTable`]'s
//! text, which also answers every lookup by name. `Dfg::from_parts`
//! freezes that text into the arena and binds every span to it.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use crate::builder::Declared;
use crate::DfgError;

/// A byte range of a name arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Appends `name` to an arena under construction; returns its span.
///
/// # Panics
///
/// Panics past 4 GiB of names, which no graph comes near.
pub(crate) fn push_name(arena: &mut String, name: &str) -> Span {
    let span = |at: usize| u32::try_from(at).expect("a graph's names fit in 4 GiB");
    let start = span(arena.len());
    arena.push_str(name);
    Span {
        start,
        end: span(arena.len()),
    }
}

/// A name held by a node, signal, bank or array: a span of its graph's
/// arena. It is *unbound* (a span of an arena still being filled) from
/// the builder until `Dfg::from_parts` binds it; a name outside the
/// crate is always bound.
#[derive(Clone)]
pub(crate) struct Name {
    arena: Option<Arc<str>>,
    span: Span,
}

impl Name {
    /// A name at `span` of the arena being filled.
    pub(crate) fn unbound(span: Span) -> Name {
        Name { arena: None, span }
    }

    /// Binds the name to its finished arena.
    pub(crate) fn bind(&mut self, arena: &Arc<str>) {
        debug_assert!(self.arena.is_none(), "a name is bound once");
        self.arena = Some(Arc::clone(arena));
    }

    /// The name's text.
    ///
    /// # Panics
    ///
    /// Panics on an unbound name, which only the crate's own builders
    /// hold.
    pub(crate) fn as_str(&self) -> &str {
        let arena = self
            .arena
            .as_ref()
            .expect("names are bound with their graph");
        &arena[self.span.range()]
    }
}

#[cfg(test)]
impl From<&str> for Name {
    /// A name with an arena of its own.
    fn from(name: &str) -> Name {
        let mut arena = String::new();
        let span = push_name(&mut arena, name);
        Name {
            arena: Some(Arc::from(arena)),
            span,
        }
    }
}

/// Reads and compares like the name's text.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.arena {
            Some(_) => fmt::Debug::fmt(self.as_str(), f),
            None => write!(f, "<unbound {:?}>", self.span.range()),
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

/// What a name in a [`NameTable`] stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Binding {
    /// Named by an `op` statement of the text being parsed, not built
    /// yet: taken for generated names, free for the op itself.
    TextOp,
    /// Claimed by a declaration of the text being parsed, not built yet.
    TextDecl,
    /// Built, and visible to lookups.
    Built(Declared),
    /// Built, but invisible to lookups: a constant the parser generated
    /// for a literal array index.
    Hidden,
}

/// One name of a [`NameTable`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    span: Span,
    binding: Binding,
}

/// Every name of a graph under construction: the arena text and an
/// index over it, hashed with a per-table [`RandomState`] key so that
/// crafted names cannot force collisions. Each lookup hashes the name
/// once, and finds a name of up to eight bytes in its index slot alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    /// The names, back to back, each once: the future arena.
    text: String,
    /// The names in insertion order.
    entries: Vec<Entry>,
    /// Open addressing with linear probing, never more than half full.
    slots: Vec<Slot>,
    hasher: RandomState,
}

/// One index slot: free, or a name's key and entry.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The key's tag in the high 32 bits, the entry's index plus one in
    /// the low 32; 0 for a free slot.
    meta: u64,
    /// The key's head.
    head: u64,
}

/// What a slot keeps of a name: a tag — 24 bits of its hash and its
/// length up to 255 — and its head, the first eight bytes zero-padded.
/// Equal keys of a name of at most eight bytes mean equal names.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    tag: u64,
    head: u64,
}

impl Key {
    fn new(name: &str, hash: u64) -> Key {
        let bytes = name.as_bytes();
        let head = match bytes.first_chunk::<8>() {
            Some(&head) => u64::from_le_bytes(head),
            None => bytes.iter().rev().fold(0, |h, &b| h << 8 | u64::from(b)),
        };
        Key {
            tag: hash & 0xffff_ff00_0000_0000 | (bytes.len().min(255) as u64) << 32,
            head,
        }
    }
}

const LOW: u64 = u32::MAX as u64;

/// The fewest slots a table allocates: small graphs never rehash.
const MIN_SLOTS: usize = 64;

impl NameTable {
    /// An empty table with an index for `names` names and room for
    /// twice as many, of `bytes` bytes in all: the index is touched at
    /// random, so it is sized tight; the rest fills in order.
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        let mut table = NameTable {
            text: String::with_capacity(bytes),
            entries: Vec::with_capacity(2 * names),
            ..NameTable::default()
        };
        table.reserve(names);
        table
    }

    /// Makes room for `more` further names.
    pub(crate) fn reserve(&mut self, more: usize) {
        self.entries.reserve(more);
        let want = (self.entries.len() + more)
            .saturating_mul(2)
            .next_power_of_two()
            .max(MIN_SLOTS);
        if want > self.slots.len() {
            self.rehash(want);
        }
    }

    /// Rebuilds the index with `size` slots, hashing every name again.
    fn rehash(&mut self, size: usize) {
        let mut slots = vec![Slot::default(); size];
        let mask = size - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let name = &self.text[e.span.range()];
            let hash = self.hash(name);
            let key = Key::new(name, hash);
            let mut at = hash as usize & mask;
            while slots[at].meta != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = Slot {
                meta: key.tag | (i as u64 + 1),
                head: key.head,
            };
        }
        self.slots = slots;
    }

    /// The keyed hash of `name`.
    fn hash(&self, name: &str) -> u64 {
        let mut hasher = self.hasher.build_hasher();
        hasher.write(name.as_bytes());
        hasher.finish()
    }

    /// The entry of `name`, or the free slot it would take.
    fn probe(&self, name: &str, hash: u64, key: Key) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.meta == 0 {
                return Err(at);
            }
            let e = (slot.meta & LOW) as u32 - 1;
            if slot.meta & !LOW == key.tag
                && slot.head == key.head
                && (name.len() <= 8 || self.name(e) == name)
            {
                return Ok(e);
            }
            at = (at + 1) & mask;
        }
    }

    /// The entry of `name`, if it is in the table.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let hash = self.hash(name);
        self.probe(name, hash, Key::new(name, hash)).ok()
    }

    /// The entry of `name`, added with `binding` if it is new, and
    /// whether it is.
    pub(crate) fn intern(&mut self, name: &str, binding: Binding) -> (u32, bool) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(MIN_SLOTS));
        }
        let hash = self.hash(name);
        let key = Key::new(name, hash);
        match self.probe(name, hash, key) {
            Ok(e) => (e, false),
            Err(at) => {
                let e = self.entries.len() as u32;
                self.entries.push(Entry {
                    span: push_name(&mut self.text, name),
                    binding,
                });
                self.slots[at] = Slot {
                    meta: key.tag | (u64::from(e) + 1),
                    head: key.head,
                };
                (e, true)
            }
        }
    }

    /// Claims a declaration of the text being parsed; returns its entry.
    ///
    /// # Errors
    ///
    /// [`DfgError::DuplicateName`] if the text already declares `name`.
    pub(crate) fn declare(&mut self, name: &str) -> Result<u32, DfgError> {
        let (e, new) = self.intern(name, Binding::TextDecl);
        match self.binding(e) {
            _ if new => Ok(e),
            Binding::TextOp => {
                self.set(e, Binding::TextDecl);
                Ok(e)
            }
            _ => Err(DfgError::DuplicateName(name.to_string())),
        }
    }

    /// Claims `name` for something being built; returns its span.
    ///
    /// # Errors
    ///
    /// [`DfgError::DuplicateName`] if something is built under `name`.
    pub(crate) fn claim(&mut self, name: &str, binding: Binding) -> Result<Span, DfgError> {
        match self.intern(name, binding) {
            (e, true) => Ok(self.entries[e as usize].span),
            (e, false) => self.claim_at(e, binding),
        }
    }

    /// Claims entry `e` for something being built; returns its span.
    ///
    /// # Errors
    ///
    /// [`DfgError::DuplicateName`] if something is built under its name.
    pub(crate) fn claim_at(&mut self, e: u32, binding: Binding) -> Result<Span, DfgError> {
        match self.binding(e) {
            Binding::Built(_) | Binding::Hidden => {
                Err(DfgError::DuplicateName(self.name(e).to_string()))
            }
            Binding::TextOp | Binding::TextDecl => {
                self.set(e, binding);
                Ok(self.entries[e as usize].span)
            }
        }
    }

    /// What entry `e` stands for.
    pub(crate) fn binding(&self, e: u32) -> Binding {
        self.entries[e as usize].binding
    }

    fn set(&mut self, e: u32, binding: Binding) {
        self.entries[e as usize].binding = binding;
    }

    /// The name of entry `e`.
    pub(crate) fn name(&self, e: u32) -> &str {
        &self.text[self.entries[e as usize].span.range()]
    }

    /// The arena text the table's spans point into.
    pub(crate) fn into_text(self) -> String {
        self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalId;

    #[test]
    fn interning_finds_each_name_once_across_growth() {
        let mut t = NameTable::default();
        for i in 0..1_000 {
            assert_eq!(t.intern(&format!("n{i}"), Binding::TextOp), (i, true));
        }
        for i in 0..1_000 {
            assert_eq!(t.get(&format!("n{i}")), Some(i));
            assert_eq!(t.intern(&format!("n{i}"), Binding::TextDecl), (i, false));
        }
        assert_eq!(t.get("n1000"), None);
        assert_eq!(t.get(""), None);
        let text = t.into_text();
        assert_eq!(text.len(), (0..1_000).map(|i| format!("n{i}").len()).sum());
    }

    #[test]
    fn claims_and_declarations_follow_the_bindings() {
        let built = Binding::Built(Declared::Signal(SignalId(0)));
        let mut t = NameTable::default();
        t.intern("op", Binding::TextOp);
        assert_eq!(t.declare("op"), Ok(0));
        assert_eq!(t.declare("op"), Err(DfgError::DuplicateName("op".into())));
        assert!(t.claim("op", built).is_ok());
        assert_eq!(
            t.claim("op", built).unwrap_err(),
            DfgError::DuplicateName("op".into())
        );
        assert!(t.claim("idx", Binding::Hidden).is_ok());
        assert_eq!(
            t.claim("idx", built).unwrap_err(),
            DfgError::DuplicateName("idx".into())
        );
    }

    #[test]
    fn names_read_compare_and_print_like_their_text() {
        let mut arena = String::from("xyz");
        let span = push_name(&mut arena, "nämé");
        let mut name = Name::unbound(span);
        assert!(format!("{name:?}").starts_with("<unbound"));
        name.bind(&Arc::from(arena));
        assert_eq!(name.as_str(), "nämé");
        assert_eq!(name, Name::from("nämé"));
        assert_eq!(format!("{name:?}"), format!("{:?}", "nämé"));
    }
}
