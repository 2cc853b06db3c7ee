//! The planning engine: a [`Planner`] with file-backed persistence.
//!
//! [`Engine`] owns the *planning* half of the pipeline: it plans through
//! the shared [`PlanCache`], optionally hydrates that cache from a JSON
//! file at startup and writes it back on [`Engine::save`]. Repeated
//! sweeps over the same shapes become O(1) lookups; [`Engine::stats`]
//! reports the hit/miss/entry counts so a sweep can prove its cache
//! behaved.
//!
//! *Execution* lives one layer up: a [`Session`](crate::session::Session)
//! wraps an engine and turns plans into prepared, reusable layer handles
//! ([`PreparedLayer`](crate::session::PreparedLayer)). The engine itself
//! no longer executes anything — estimate-only consumers (the figure
//! bins, analysis tooling) use it directly; everything that runs numerics
//! goes through the session API.

use crate::plan::{Plan, PlanCache, Planner};
use gpu_sim::device::DeviceConfig;
use nm_core::error::Result;
use nm_core::pattern::NmConfig;
use std::path::{Path, PathBuf};

/// Cache-effectiveness counters for one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans currently memoized.
    pub entries: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a full strategy + autotune run.
    pub misses: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} plans cached, {} hits / {} misses",
            self.entries, self.hits, self.misses
        )
    }
}

/// Planner + persistence for one device (execution lives in
/// [`Session`](crate::session::Session)).
#[derive(Debug, Clone)]
pub struct Engine {
    planner: Planner,
    cache_path: Option<PathBuf>,
}

impl Engine {
    /// Engine with an empty in-memory cache and no backing file.
    pub fn new(dev: DeviceConfig) -> Self {
        Self {
            planner: Planner::new(dev),
            cache_path: None,
        }
    }

    /// Engine backed by a JSON cache file: hydrated from `path` when the
    /// file exists (a malformed file or a newer format version is an
    /// error, not silently ignored; an older format version loads empty,
    /// so its problems re-plan), and written back by [`Engine::save`].
    pub fn with_cache_file(dev: DeviceConfig, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let cache = if path.exists() {
            PlanCache::load(&path)?
        } else {
            PlanCache::new()
        };
        Ok(Self {
            planner: Planner::with_cache(dev, cache),
            cache_path: Some(path),
        })
    }

    /// The device this engine plans for.
    pub fn device(&self) -> &DeviceConfig {
        self.planner.device()
    }

    /// Plan a problem (cached).
    pub fn plan(&mut self, m: usize, n: usize, k: usize, cfg: NmConfig) -> Result<Plan> {
        self.planner.plan(m, n, k, cfg)
    }

    /// Plan under an explicit shape class (cached) — see
    /// [`Planner::plan_as`].
    pub fn plan_as(
        &mut self,
        class: crate::plan::ShapeClass,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<Plan> {
        self.planner.plan_as(class, m, n, k, cfg)
    }

    /// Plan under an explicit shape class **and** storage-format lane
    /// (cached) — see [`Planner::plan_stored`].
    pub fn plan_stored(
        &mut self,
        class: crate::plan::ShapeClass,
        storage: nm_core::sliced::StorageFormat,
        m: usize,
        n: usize,
        k: usize,
        cfg: NmConfig,
    ) -> Result<Plan> {
        self.planner.plan_stored(class, storage, m, n, k, cfg)
    }

    /// Counted lookup under an arbitrary key — the session layer's path to
    /// measured (host-scoped) entries. Bumps the hit or miss counter.
    pub fn lookup(&mut self, key: &crate::plan::PlanKey) -> Option<Plan> {
        self.planner.lookup(key)
    }

    /// Store an externally resolved plan (e.g. measured evidence) in the
    /// cache under its own key. Persist with [`Engine::save`].
    pub fn insert(&mut self, plan: Plan) {
        self.planner.insert(plan);
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        let c = self.planner.cache();
        CacheStats {
            entries: c.len(),
            hits: c.hits(),
            misses: c.misses(),
        }
    }

    /// Read access to the underlying cache.
    pub fn cache(&self) -> &PlanCache {
        self.planner.cache()
    }

    /// Write the cache back to its backing file. Returns `false` (and
    /// writes nothing) when the engine has no backing file.
    pub fn save(&self) -> Result<bool> {
        match &self.cache_path {
            Some(path) => {
                self.planner.cache().save(path)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::device::a100_80g;
    use nm_core::json::JsonValue;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nm-spmm-engine-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn engine_plans_and_counts() {
        let mut eng = Engine::new(a100_80g());
        let cfg = NmConfig::new(4, 16, 32).unwrap();
        eng.plan(1024, 1024, 1024, cfg).unwrap();
        eng.plan(1024, 1024, 1024, cfg).unwrap();
        let s = eng.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 1, 1));
        assert!(s.to_string().contains("1 hits"));
    }

    #[test]
    fn repeated_plans_across_levels_count_hits_per_shape_class() {
        let mut eng = Engine::new(a100_80g());
        for cfg in [
            NmConfig::new(8, 16, 32).unwrap(),
            NmConfig::new(2, 16, 32).unwrap(),
            NmConfig::new(8, 16, 32).unwrap(), // repeat: planned from cache
        ] {
            let plan = eng.plan(96, 256, 128, cfg).unwrap();
            assert_eq!(plan.key.cfg().unwrap(), cfg);
        }
        let s = eng.stats();
        assert_eq!((s.entries, s.hits, s.misses), (2, 1, 2));
    }

    #[test]
    fn save_and_reload_through_backing_file() {
        let path = tmp_path("roundtrip.json");
        let _ = std::fs::remove_file(&path);
        let cfg = NmConfig::new(2, 16, 32).unwrap();

        let mut eng = Engine::with_cache_file(a100_80g(), &path).unwrap();
        let plan = eng.plan(512, 512, 512, cfg).unwrap();
        assert_eq!(eng.stats().misses, 1);
        assert!(eng.save().unwrap());

        let mut warm = Engine::with_cache_file(a100_80g(), &path).unwrap();
        let replay = warm.plan(512, 512, 512, cfg).unwrap();
        let s = warm.stats();
        assert_eq!(
            (s.hits, s.misses),
            (1, 0),
            "reloaded engine must serve the plan from disk"
        );
        assert_eq!(plan, replay);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unbacked_engine_save_is_a_noop() {
        let eng = Engine::new(a100_80g());
        assert!(!eng.save().unwrap());
    }

    #[test]
    fn stale_backing_file_replans_and_saves_the_current_version() {
        let path = tmp_path("stale.json");
        let _ = std::fs::remove_file(&path);
        let cfg = NmConfig::new(2, 16, 32).unwrap();
        let mut eng = Engine::with_cache_file(a100_80g(), &path).unwrap();
        eng.plan(512, 512, 512, cfg).unwrap();
        let current = eng.planner.cache().to_json().unwrap();
        let version = |text: &str| {
            JsonValue::parse(text)
                .unwrap()
                .usize_field("version")
                .unwrap()
        };
        let stale = current.replace(
            &format!("\"version\":{}", version(&current)),
            "\"version\":4",
        );
        std::fs::write(&path, stale).unwrap();

        let mut reload = Engine::with_cache_file(a100_80g(), &path).unwrap();
        reload.plan(512, 512, 512, cfg).unwrap();
        let s = reload.stats();
        assert_eq!((s.hits, s.misses), (0, 1), "a stale file must re-plan");
        assert!(reload.save().unwrap());
        let saved = std::fs::read_to_string(&path).unwrap();
        assert_eq!(version(&saved), version(&current));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_backing_file_is_an_error() {
        let path = tmp_path("malformed.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(Engine::with_cache_file(a100_80g(), &path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
