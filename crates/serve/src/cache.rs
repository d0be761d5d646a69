//! The compiled-program cache: an LRU over [`Compiled`] specs keyed by
//! their *canonical pretty-printed form*.
//!
//! Compilation is the expensive, repeated part of a verification
//! service — clients hammer the same spec with different methods and
//! budgets. The cache key is [`SpecAst::to_text`](moccml_lang::SpecAst::to_text)
//! (the canonical printer of the frontend), not the raw source, so two
//! requests that differ only in formatting — whitespace, comments,
//! item order the printer normalizes — share one compiled entry. The
//! compiled [`Program`](moccml_engine::Program) sits behind an `Arc`
//! inside [`Compiled`], so handing out clones is cheap and jobs keep
//! their program alive even across an eviction.
//!
//! Eviction is least-recently-*used* (hits refresh recency) with a
//! monotonic stamp per entry; capacity 0 disables caching entirely but
//! still compiles.

use moccml_lang::{parse_spec, Compiled, LangError};
use std::collections::{HashMap, HashSet};

/// Aggregate cache counters, surfaced by the `status` method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum entries kept.
    pub capacity: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

struct Entry {
    compiled: Compiled,
    last_used: u64,
}

/// What a [`SpecCache::lookup`] found.
#[derive(Debug)]
pub enum Lookup {
    /// Cached (counted as a hit).
    Hit(Compiled),
    /// Absent; the caller now compiles it.
    Miss,
    /// Absent, and another caller is compiling it.
    Compiling,
}

/// An LRU cache of compiled specifications, keyed by canonical form.
pub struct SpecCache {
    capacity: usize,
    entries: HashMap<String, Entry>,
    /// Keys some caller is compiling right now.
    compiling: HashSet<String>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SpecCache {
    /// A cache holding at most `capacity` compiled specs.
    #[must_use]
    pub fn new(capacity: usize) -> SpecCache {
        SpecCache {
            capacity,
            entries: HashMap::new(),
            compiling: HashSet::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Parses `source`, canonicalizes it, and returns the cached
    /// compilation or compiles and caches it. The boolean is `true` on
    /// a cache hit.
    ///
    /// This is [`canonical_key`](SpecCache::canonical_key) +
    /// [`lookup`](SpecCache::lookup) + [`compile`](SpecCache::compile) +
    /// [`insert`](SpecCache::insert) in one call. A service sharing the
    /// cache between threads calls the pieces itself, so it can parse
    /// and compile without holding the cache lock.
    ///
    /// # Errors
    ///
    /// Returns the frontend's [`LangError`] when the source does not
    /// parse or compile; failures are never cached.
    pub fn get_or_compile(&mut self, source: &str) -> Result<(Compiled, bool), LangError> {
        let key = Self::canonical_key(source)?;
        match self.lookup(&key) {
            Lookup::Hit(compiled) => Ok((compiled, true)),
            Lookup::Miss | Lookup::Compiling => match Self::compile(&key) {
                Ok(compiled) => Ok((self.insert(key, compiled), false)),
                Err(e) => {
                    self.abandon(&key);
                    Err(e)
                }
            },
        }
    }

    /// The cache key of `source`: its canonical pretty-printed form.
    ///
    /// # Errors
    ///
    /// Returns the parse error when `source` is not valid `.mcc`.
    pub fn canonical_key(source: &str) -> Result<String, LangError> {
        Ok(parse_spec(source)?.to_text())
    }

    /// Compiles a canonical key. Compiling from the canonical text keeps
    /// diagnostics and the cached program independent of the original
    /// formatting.
    ///
    /// # Errors
    ///
    /// Returns the frontend's [`LangError`] when the spec does not
    /// compile.
    pub fn compile(key: &str) -> Result<Compiled, LangError> {
        moccml_lang::compile_str(key)
    }

    /// Looks `key` up. A hit is counted and made most recently used. On
    /// a [`Lookup::Miss`] the caller takes over compiling `key` and must
    /// end with [`insert`](SpecCache::insert) or
    /// [`abandon`](SpecCache::abandon); until then other callers see
    /// [`Lookup::Compiling`] and should wait and look up again, so one
    /// spec compiles once however many jobs ask for it at the same time.
    pub fn lookup(&mut self, key: &str) -> Lookup {
        if let Some(entry) = self.entries.get_mut(key) {
            self.clock += 1;
            entry.last_used = self.clock;
            self.hits += 1;
            return Lookup::Hit(entry.compiled.clone());
        }
        if self.compiling.insert(key.to_owned()) {
            Lookup::Miss
        } else {
            Lookup::Compiling
        }
    }

    /// Caches the compilation of `key` after a [`Lookup::Miss`],
    /// counting the miss, and returns it.
    pub fn insert(&mut self, key: String, compiled: Compiled) -> Compiled {
        self.compiling.remove(&key);
        self.clock += 1;
        self.misses += 1;
        if self.capacity == 0 {
            return compiled;
        }
        if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.entries.insert(
            key,
            Entry {
                compiled: compiled.clone(),
                last_used: self.clock,
            },
        );
        compiled
    }

    /// Gives up compiling `key` after a [`Lookup::Miss`] (the spec did
    /// not compile); nothing is cached or counted.
    pub fn abandon(&mut self, key: &str) {
        self.compiling.remove(key);
    }

    /// Evicts the least-recently-used entry (linear scan: capacities
    /// are small and eviction is off the hot path).
    fn evict_lru(&mut self) {
        let lru = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(key) = lru {
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }

    /// Whether `source` is currently cached, *without* touching
    /// recency or the hit/miss counters (for tests and introspection).
    ///
    /// # Errors
    ///
    /// Returns the parse error when `source` is not valid `.mcc`.
    pub fn peek(&self, source: &str) -> Result<bool, LangError> {
        let key = Self::canonical_key(source)?;
        Ok(self.entries.contains_key(&key))
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> String {
        format!("spec {name} {{\n  events a, b;\n  constraint c = alternates(a, b);\n}}\n")
    }

    #[test]
    fn hits_share_the_compiled_program() {
        let mut cache = SpecCache::new(4);
        let (first, hit) = cache.get_or_compile(&spec("s")).expect("compiles");
        assert!(!hit);
        let (second, hit) = cache.get_or_compile(&spec("s")).expect("compiles");
        assert!(hit);
        // the Arc'd program is literally shared, not recompiled
        assert!(std::sync::Arc::ptr_eq(&first.program, &second.program));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn formatting_variants_hit_the_same_entry() {
        let mut cache = SpecCache::new(4);
        let canonical = spec("s");
        let noisy = "spec s{events a,b;\n\n  // a comment\n  constraint c=alternates( a , b );}";
        let (_, hit) = cache.get_or_compile(&canonical).expect("compiles");
        assert!(!hit);
        let (_, hit) = cache.get_or_compile(noisy).expect("compiles");
        assert!(hit, "reformatted spec shares the canonical key");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = SpecCache::new(2);
        cache.get_or_compile(&spec("s1")).expect("compiles");
        cache.get_or_compile(&spec("s2")).expect("compiles");
        // refresh s1 so s2 is the LRU victim
        cache.get_or_compile(&spec("s1")).expect("compiles");
        cache.get_or_compile(&spec("s3")).expect("compiles");
        assert!(cache.peek(&spec("s1")).expect("parses"));
        assert!(!cache.peek(&spec("s2")).expect("parses"));
        assert!(cache.peek(&spec("s3")).expect("parses"));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
    }

    #[test]
    fn zero_capacity_compiles_without_caching() {
        let mut cache = SpecCache::new(0);
        let (_, hit) = cache.get_or_compile(&spec("s")).expect("compiles");
        assert!(!hit);
        let (_, hit) = cache.get_or_compile(&spec("s")).expect("compiles");
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses, stats.evictions), (0, 2, 0));
    }

    #[test]
    fn a_key_compiles_once_while_others_wait() {
        let mut cache = SpecCache::new(4);
        let key = SpecCache::canonical_key(&spec("s")).expect("parses");
        assert!(matches!(cache.lookup(&key), Lookup::Miss));
        // a second job asking meanwhile is told to wait, uncounted
        assert!(matches!(cache.lookup(&key), Lookup::Compiling));
        let compiled = SpecCache::compile(&key).expect("compiles");
        let kept = cache.insert(key.clone(), compiled);
        let Lookup::Hit(shared) = cache.lookup(&key) else {
            panic!("cached after insert");
        };
        assert!(std::sync::Arc::ptr_eq(&kept.program, &shared.program));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn abandoned_compiles_let_the_next_caller_retry() {
        let mut cache = SpecCache::new(4);
        let key = SpecCache::canonical_key(&spec("s")).expect("parses");
        assert!(matches!(cache.lookup(&key), Lookup::Miss));
        cache.abandon(&key);
        assert!(matches!(cache.lookup(&key), Lookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0));
    }

    #[test]
    fn parse_failures_do_not_pollute_the_cache() {
        let mut cache = SpecCache::new(4);
        assert!(cache.get_or_compile("spec broken {").is_err());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0));
    }
}
