//! Interned element labels.
//!
//! Labels are the only atoms of the model: the paper "models atomic
//! values as the labels on trees having no children" (§3, footnote 3).
//! Like provenance variables, labels are interned process-globally so a
//! [`Label`] is a `Copy` 4-byte id with O(1) equality; ordering is by
//! *name* so all printed forests and map iterations are deterministic
//! regardless of interning order (tests run concurrently and share the
//! pool). Resolving a name takes no lock (see
//! [`axml_semiring::intern::NameTable`]), so name-ordered compares and
//! document-order sorts do not contend across threads.

use std::cmp::Ordering;
use std::fmt;

/// An interned element label (tag name or atomic value).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

axml_semiring::define_intern_pool!();

impl Label {
    /// Intern a label by name.
    pub fn new(name: &str) -> Label {
        Label(intern_name(name))
    }

    /// The label's text.
    pub fn name(self) -> &'static str {
        interned_name(self.0)
    }

    /// The raw interned id (stable within a process; for debugging).
    pub fn id(self) -> u32 {
        self.0
    }

    /// How many distinct labels the process has interned. Interned
    /// names are never freed, so this only grows — every fresh label
    /// an edit mints adds one.
    pub fn interned_count() -> usize {
        interned_count()
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        // Both lookups are lock-free.
        self.name().cmp(other.name())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let a = Label::new("item");
        let b = Label::new("item");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.name(), "item");
    }

    #[test]
    fn order_is_by_name() {
        let z = Label::new("zlabel_ord");
        let a = Label::new("alabel_ord");
        assert!(a < z);
        assert_eq!(a.cmp(&Label::new("alabel_ord")), Ordering::Equal);
    }

    #[test]
    fn display_and_from() {
        let l: Label = "B".into();
        assert_eq!(l.to_string(), "B");
        assert_eq!(format!("{l:?}"), "B");
    }
}
