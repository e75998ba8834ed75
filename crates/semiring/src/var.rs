//! Interned provenance variables ("provenance tokens", §3).
//!
//! Provenance polynomials ℕ\[X\] are polynomials over a set X of
//! indeterminates. Variables are interned into a process-global pool so
//! that a [`Var`] is a `Copy` 4-byte id: polynomial arithmetic compares
//! and hashes ids instead of strings (a large constant-factor win, per
//! the perf-book guidance on hashing and allocation).
//!
//! Interning is append-only; ids are stable for the life of the process.
//! [`Var`]'s `Ord` sorts by *name* (not id) so every printed polynomial
//! and every `BTreeMap` iteration order is deterministic regardless of
//! interning order — figure regeneration must be byte-stable. Resolving
//! a name is lock-free (see [`crate::intern::NameTable`]), so ordering
//! by name costs two acquire loads per side, even with many readers.

use std::cmp::Ordering;
use std::fmt;

/// A provenance variable (indeterminate) such as `x1`, `y2`, `w1`.
///
/// Create with [`Var::new`]; two `Var`s with the same name are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(u32);

crate::define_intern_pool!();

impl Var {
    /// Intern a variable by name.
    pub fn new(name: &str) -> Var {
        Var(intern_name(name))
    }

    /// The variable's name.
    pub fn name(self) -> &'static str {
        interned_name(self.0)
    }

    /// The raw interned id (stable within a process; for debugging).
    pub fn id(self) -> u32 {
        self.0
    }

    /// How many distinct variable names the process has interned.
    /// Interned names are never freed, so this only grows.
    pub fn interned_count() -> usize {
        interned_count()
    }
}

impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Var {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        // Order by name for deterministic, human-meaningful output;
        // both lookups are lock-free.
        self.name().cmp(other.name())
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// Convenience: intern several variables at once.
///
/// ```
/// use axml_semiring::var::vars;
/// let [x, y, z] = vars(["x", "y", "z"]);
/// assert_eq!(x.name(), "x");
/// assert!(x < y && y < z);
/// ```
pub fn vars<const N: usize>(names: [&str; N]) -> [Var; N] {
    names.map(Var::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let a = Var::new("x1");
        let b = Var::new("x1");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.name(), "x1");
    }

    #[test]
    fn distinct_names_distinct_vars() {
        let a = Var::new("alpha");
        let b = Var::new("beta");
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_is_by_name() {
        // Intern in reverse order to show Ord ignores interning order.
        let z = Var::new("zzz_order");
        let a = Var::new("aaa_order");
        assert!(a < z);
        let same = Var::new("aaa_order");
        assert_eq!(a.cmp(&same), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_and_from() {
        let v: Var = "w1".into();
        assert_eq!(v.to_string(), "w1");
        assert_eq!(format!("{v:?}"), "w1");
    }

    #[test]
    fn concurrent_interning_resolves_every_id() {
        // Four threads mint fresh names and resolve their own and each
        // other's ids while the pool grows past several name-table
        // chunk boundaries (ids 63/64, 191/192, 447/448, 959/960).
        let minted: Vec<Vec<(String, Var)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    s.spawn(move || {
                        let mut own: Vec<(String, Var)> = Vec::new();
                        for i in 0..300 {
                            let name = format!("conc_intern_{t}_{i}");
                            let v = Var::new(&name);
                            assert_eq!(v.name(), name);
                            // Re-resolve everything minted so far.
                            if i % 50 == 49 {
                                for (n, w) in &own {
                                    assert_eq!(w.name(), n.as_str());
                                }
                            }
                            own.push((name, v));
                        }
                        own
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (name, v) in minted.iter().flatten() {
            assert_eq!(v.name(), name.as_str());
            assert_eq!(Var::new(name), *v);
        }
        let count = Var::interned_count();
        assert!(count >= 1200, "{count}");
        // Every id the pool ever handed out resolves and round-trips,
        // boundary ids included.
        for id in 0..count as u32 {
            let v = Var(id);
            assert_eq!(Var::new(v.name()), v, "id {id}");
        }
    }

    #[test]
    fn vars_helper() {
        let [x, y] = vars(["vh_x", "vh_y"]);
        assert_eq!(x.name(), "vh_x");
        assert_eq!(y.name(), "vh_y");
    }
}
