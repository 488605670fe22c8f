//! Interned path storage: the arena behind borrowed path sampling.
//!
//! A [`PathStore`] owns every enumerated path of a provider in one flat
//! arena and hands out dense [`PathId`]s.  Providers that tabulate their
//! candidates (the [`crate::TableProvider`]) compile each pair's MIN and
//! VLB sets into contiguous id ranges, so a routing decision samples an
//! index and borrows `&Path` straight from the arena — no per-draw copy of
//! the candidate, no per-packet clone of the provider.  The arena serves
//! the draws only: the simulator copies the chosen candidate into the
//! packet, because a per-hop dereference of an id into a multi-megabyte
//! arena misses cache.
//!
//! Providers that compose paths on the fly (the [`crate::RuleProvider`])
//! have nothing to intern; they return owned paths through the same
//! [`PathRef`] seam.

use crate::path::Path;

/// Dense handle into a [`PathStore`] arena.
///
/// Ids are only meaningful to the store (and provider) that issued them.
/// A store holds at most `2^32` paths, vastly above any tabulated
/// topology (the largest tabulated paper network holds ~10^7 paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(pub u32);

/// Flat arena of interned paths.
#[derive(Debug, Clone, Default)]
pub struct PathStore {
    paths: Vec<Path>,
}

impl PathStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `n` paths.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            paths: Vec::with_capacity(n),
        }
    }

    /// Appends a path, returning its id.  Appending does not deduplicate:
    /// tabulated candidate sets are already duplicate-free per pair, and
    /// contiguous per-pair ranges are what make sampling an id O(1).
    pub fn push(&mut self, p: Path) -> PathId {
        let id = u32::try_from(self.paths.len()).expect("PathStore overflow (2^32 paths)");
        self.paths.push(p);
        PathId(id)
    }

    /// The interned path behind `id`.
    #[inline]
    pub fn get(&self, id: PathId) -> &Path {
        &self.paths[id.0 as usize]
    }

    /// Every interned path, in id order.
    #[inline]
    pub fn as_slice(&self) -> &[Path] {
        &self.paths
    }

    /// Number of interned paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// A sampled candidate path: either a borrow of a provider's interned
/// arena (tabulated providers — the allocation-free hot path) or an owned
/// path composed on the fly (rule-based providers, degraded-table
/// sentinels).
///
/// The two variants are behaviourally identical: [`PathRef::path`] is the
/// sampled path either way, and the engine's RNG draw sequence does not
/// depend on which variant a provider returns (pinned by the differential
/// tests).
#[derive(Debug, Clone, Copy)]
pub enum PathRef<'a> {
    /// A path interned in the issuing provider's [`PathStore`].
    Interned(PathId, &'a Path),
    /// A path composed per draw; the caller copies it if it must outlive
    /// the decision.
    Owned(Path),
}

impl PathRef<'_> {
    /// The sampled path.
    #[inline]
    pub fn path(&self) -> &Path {
        match self {
            PathRef::Interned(_, p) => p,
            PathRef::Owned(p) => p,
        }
    }

    /// The arena id, for interned candidates.
    #[inline]
    pub fn id(&self) -> Option<PathId> {
        match self {
            PathRef::Interned(id, _) => Some(*id),
            PathRef::Owned(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tugal_topology::SwitchId;

    #[test]
    fn store_roundtrip() {
        let mut store = PathStore::new();
        assert!(store.is_empty());
        let a = store.push(Path::single(SwitchId(3)));
        let b = store.push(Path::from_switches(&[SwitchId(0), SwitchId(1)]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(a).src(), SwitchId(3));
        assert_eq!(store.get(b).hops(), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn pathref_variants_agree() {
        let p = Path::from_switches(&[SwitchId(0), SwitchId(1), SwitchId(2)]);
        let mut store = PathStore::new();
        let id = store.push(p);
        let interned = PathRef::Interned(id, store.get(id));
        let owned = PathRef::Owned(p);
        assert_eq!(interned.path(), owned.path());
        assert_eq!(interned.id(), Some(id));
        assert_eq!(owned.id(), None);
    }
}
