//! Server-side caches: the design store and the [`FlowContext`] LRU.
//!
//! Both are plain `Vec`-backed LRU lists guarded by the server's
//! mutexes. Capacities are small (designs are ~100 KiB, contexts a few
//! MiB), so linear scans beat hashing — and [`FlowConfig`] contains
//! `f64` fields, which rules out deriving `Hash`/`Eq` for a map key
//! anyway.
//!
//! The context cache is keyed by *(design name, config)*, not by design
//! hash: an edited design keeps its name, and landing on the base
//! design's entry is exactly what routes the request through
//! [`FlowContext::rebuild_owned`] instead of a cold build. The entry records
//! the hash of the design it currently reflects, so the engine can tell
//! "same design — replay" from "edited design — rebuild".
//!
//! Entries are *checked out* (removed) while a request uses them and
//! checked back in afterwards, so two concurrent requests for the same
//! key never share a context; the loser of the race simply builds cold
//! and the newer entry wins the slot on check-in.

use crate::protocol::DesignKey;
use pilfill_core::flow::{FlowConfig, FlowContext, TileCounts};
use pilfill_layout::Design;
use std::sync::Arc;

/// LRU store of parsed designs, keyed by [`crate::protocol::design_hash`].
#[derive(Debug)]
pub(crate) struct DesignStore {
    cap: usize,
    /// Most-recently-used first.
    entries: Vec<(DesignKey, Arc<Design>)>,
}

impl DesignStore {
    pub(crate) fn new(cap: usize) -> Self {
        DesignStore {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks a design up and marks it most-recently-used.
    pub(crate) fn get(&mut self, hash: DesignKey) -> Option<Arc<Design>> {
        let i = self.entries.iter().position(|(h, _)| *h == hash)?;
        let entry = self.entries.remove(i);
        let design = Arc::clone(&entry.1);
        self.entries.insert(0, entry);
        Some(design)
    }

    /// Inserts (or refreshes) a design, evicting the least-recently-used
    /// entry beyond capacity.
    pub(crate) fn put(&mut self, hash: DesignKey, design: Arc<Design>) {
        self.entries.retain(|(h, _)| *h != hash);
        self.entries.insert(0, (hash, design));
        self.entries.truncate(self.cap);
    }
}

/// One cached context: the design hash it reflects, the prepared
/// [`FlowContext`], and optionally the last method's per-tile results.
#[derive(Debug)]
pub(crate) struct CtxEntry {
    /// Cache key: design name (stable across edits) + flow config.
    pub(crate) name: String,
    /// Flow config the context was built for.
    pub(crate) config: FlowConfig,
    /// [`crate::protocol::design_hash`] of the design the context
    /// currently reflects.
    pub(crate) design_hash: DesignKey,
    /// The prepared (detached) context.
    pub(crate) ctx: FlowContext<'static>,
    /// The method index ([`crate::protocol::METHOD_NAMES`]) last solved
    /// against the context, and its per-tile results: assembling them is
    /// bit-identical to re-solving (the per-tile RNG seeds depend only on
    /// the tile cell), so a request solves only the unsolved tiles.
    pub(crate) solved: Option<(u8, TileCounts)>,
}

/// LRU cache of detached [`FlowContext`]s, checked out by key.
#[derive(Debug)]
pub(crate) struct CtxCache {
    cap: usize,
    /// Most-recently-used first.
    entries: Vec<CtxEntry>,
}

impl CtxCache {
    pub(crate) fn new(cap: usize) -> Self {
        CtxCache {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Removes and returns the entry for `(name, config)`, if cached.
    /// The caller owns it until [`CtxCache::checkin`].
    pub(crate) fn checkout(&mut self, name: &str, config: &FlowConfig) -> Option<CtxEntry> {
        let i = self
            .entries
            .iter()
            .position(|e| e.name == name && e.config == *config)?;
        Some(self.entries.remove(i))
    }

    /// Returns an entry to the cache as most-recently-used. If a
    /// concurrent request checked in the same key first, the newer entry
    /// replaces it; beyond capacity the least-recently-used entry is
    /// dropped.
    pub(crate) fn checkin(&mut self, entry: CtxEntry) {
        self.entries
            .retain(|e| !(e.name == entry.name && e.config == entry.config));
        self.entries.insert(0, entry);
        self.entries.truncate(self.cap);
    }

    /// Number of cached contexts (for tests/introspection).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_layout::synth::{synthesize, SynthConfig};

    /// Shorthand key for cache tests.
    fn key(b: u8) -> DesignKey {
        DesignKey([b; 32])
    }

    fn ctx_entry(name: &str, seed: u64, hash: DesignKey) -> CtxEntry {
        let design = synthesize(&SynthConfig::small_test(7));
        let mut config = FlowConfig::new(8_000, 2).expect("valid window");
        config.seed = seed;
        let ctx = FlowContext::build(&design, &config)
            .expect("build")
            .into_owned();
        CtxEntry {
            name: name.to_string(),
            config,
            design_hash: hash,
            ctx,
            solved: None,
        }
    }

    #[test]
    fn design_store_is_lru() {
        let d = Arc::new(synthesize(&SynthConfig::small_test(7)));
        let mut store = DesignStore::new(2);
        store.put(key(1), Arc::clone(&d));
        store.put(key(2), Arc::clone(&d));
        assert!(store.get(key(1)).is_some()); // 1 now MRU
        store.put(key(3), Arc::clone(&d)); // evicts 2
        assert!(store.get(key(2)).is_none());
        assert!(store.get(key(1)).is_some());
        assert!(store.get(key(3)).is_some());
    }

    #[test]
    fn ctx_cache_checkout_removes_and_checkin_restores() {
        let mut cache = CtxCache::new(2);
        let entry = ctx_entry("a", 1, key(10));
        let config = entry.config.clone();
        cache.checkin(entry);
        assert_eq!(cache.len(), 1);
        let out = cache.checkout("a", &config).expect("cached");
        assert_eq!(cache.len(), 0);
        assert!(cache.checkout("a", &config).is_none());
        cache.checkin(out);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn ctx_cache_distinguishes_configs_and_evicts_lru() {
        let mut cache = CtxCache::new(2);
        let a1 = ctx_entry("a", 1, key(10));
        let a2 = ctx_entry("a", 2, key(10)); // same name, different config.seed
        let config1 = a1.config.clone();
        let config2 = a2.config.clone();
        cache.checkin(a1);
        cache.checkin(a2);
        assert_eq!(cache.len(), 2);
        // `b` evicts the LRU entry (a1).
        cache.checkin(ctx_entry("b", 1, key(11)));
        assert!(cache.checkout("a", &config1).is_none());
        assert!(cache.checkout("a", &config2).is_some());
    }

    #[test]
    fn ctx_cache_capacity_one_keeps_newest() {
        let mut cache = CtxCache::new(1);
        let a = ctx_entry("a", 1, key(10));
        let b = ctx_entry("b", 1, key(11));
        let config = a.config.clone();
        cache.checkin(a);
        cache.checkin(b);
        assert_eq!(cache.len(), 1);
        assert!(cache.checkout("a", &config).is_none());
        assert!(cache.checkout("b", &config).is_some());
    }
}
