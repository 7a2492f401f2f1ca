//! Interned-style symbols.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A cheaply clonable immutable string used for predicate names, constant
/// names and variable names.
///
/// `Sym` wraps an `Arc<str>`, so cloning is a reference-count bump. Equality
/// and hashing are by string content (not pointer), so symbols created
/// independently from equal text compare equal — there is no global interner
/// and therefore no global lock.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(Arc<str>);

impl Sym {
    /// Creates a symbol from a string slice.
    pub fn new(s: &str) -> Self {
        Sym(Arc::from(s))
    }

    /// Returns the symbol's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if both symbols share one allocation.
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &Sym) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym(Arc::from(s))
    }
}

impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_is_by_content() {
        let a = Sym::new("student");
        let b = Sym::from("student".to_string());
        assert_eq!(a, b);
        assert_eq!(a, "student");
        assert_ne!(a, Sym::new("professor"));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Sym::new("prereq");
        let b = a.clone();
        assert_eq!(a, b);
        // Clones share the allocation.
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn usable_as_hash_key_via_str_borrow() {
        let mut set = HashSet::new();
        set.insert(Sym::new("honor"));
        assert!(set.contains("honor"));
        assert!(!set.contains("prior"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Sym::new("c"), Sym::new("a"), Sym::new("b")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
