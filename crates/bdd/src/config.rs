//! Construction-time tuning of a BDD manager.
//!
//! Earlier kernel generations exposed the lifecycle knobs as ad-hoc
//! setters on the shared handle (`set_auto_gc`, `set_gc_threshold`,
//! `set_auto_reorder`) and read the `BREL_BDD_*` environment variables
//! deep inside the manager constructor. Both paths are collapsed here:
//! a [`BddConfig`] is built once — programmatically or from the
//! environment — and consumed at session construction. The environment
//! variables remain supported as *documented overrides* parsed in exactly
//! one place ([`BddConfig::from_env`]):
//!
//! * `BREL_BDD_GC_MIN_NODES` — live-node floor of the automatic-GC
//!   growth trigger (a plain integer; default 64 Ki): a collection is
//!   flagged once the live count reaches `max(2 × survivors, floor)`.
//! * `BREL_BDD_AUTO_REORDER` — `1` or `true` (case-insensitive) enables
//!   automatic sifting when the live node count doubles.
//!
//! The CI smoke runs use them to force a tiny GC threshold and dynamic
//! reordering through every solver path without touching call sites.

use std::sync::OnceLock;

use crate::gc::GcState;

/// Builder for a manager's lifecycle configuration, consumed at session
/// construction ([`crate::BddSession::with_config`]).
///
/// The default configuration: automatic GC on with a 64 Ki live-node
/// floor, automatic reordering off.
///
/// ```
/// use brel_bdd::{BddConfig, BddSession};
///
/// let session = BddSession::with_config(
///     4,
///     1024,
///     BddConfig::new().gc_min_nodes(256).auto_reorder(true),
/// );
/// assert_eq!(session.num_vars(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddConfig {
    pub(crate) auto_gc: bool,
    pub(crate) gc_min_nodes: usize,
    pub(crate) auto_reorder: bool,
}

impl Default for BddConfig {
    fn default() -> Self {
        BddConfig {
            auto_gc: true,
            gc_min_nodes: GcState::DEFAULT_MIN_NODES,
            auto_reorder: false,
        }
    }
}

impl BddConfig {
    /// The default configuration: automatic GC on with the standard
    /// live-node floor, automatic reordering off, environment ignored.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default configuration with the `BREL_BDD_GC_MIN_NODES` /
    /// `BREL_BDD_AUTO_REORDER` environment overrides applied. This is the
    /// configuration the convenience constructors
    /// ([`crate::BddSession::new`], [`crate::BddSession::with_capacity`])
    /// use, so an operator can re-tune a whole binary without a rebuild.
    ///
    /// The environment is read once per process and cached.
    pub fn from_env() -> Self {
        let tuning = env_tuning();
        let mut config = Self::default();
        if let Some(min_nodes) = tuning.gc_min_nodes {
            config.gc_min_nodes = min_nodes;
        }
        config.auto_reorder = tuning.auto_reorder;
        config
    }

    /// Enables or disables automatic collection (explicit
    /// [`crate::BddSession::collect_garbage`] always works). Disable to
    /// pin an append-only arena for measurements.
    pub fn auto_gc(mut self, enabled: bool) -> Self {
        self.auto_gc = enabled;
        self
    }

    /// Sets the live-node floor of the automatic-GC growth trigger; the
    /// auto-reorder trigger scales with it. Clamped to at least 2.
    pub fn gc_min_nodes(mut self, min_nodes: usize) -> Self {
        self.gc_min_nodes = min_nodes.max(2);
        self
    }

    /// Enables or disables automatic sifting when the live node count
    /// doubles (runs at GC safe points only).
    pub fn auto_reorder(mut self, enabled: bool) -> Self {
        self.auto_reorder = enabled;
        self
    }
}

/// Process-wide lifecycle overrides read from the environment once.
struct EnvTuning {
    gc_min_nodes: Option<usize>,
    auto_reorder: bool,
}

fn env_tuning() -> &'static EnvTuning {
    static TUNING: OnceLock<EnvTuning> = OnceLock::new();
    TUNING.get_or_init(|| EnvTuning {
        gc_min_nodes: std::env::var("BREL_BDD_GC_MIN_NODES")
            .ok()
            .and_then(|v| v.parse().ok()),
        auto_reorder: std::env::var("BREL_BDD_AUTO_REORDER")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_defaults() {
        let c = BddConfig::new()
            .auto_gc(false)
            .gc_min_nodes(100)
            .auto_reorder(true);
        assert!(!c.auto_gc);
        assert_eq!(c.gc_min_nodes, 100);
        assert!(c.auto_reorder);
    }

    #[test]
    fn gc_floor_is_clamped() {
        assert_eq!(BddConfig::new().gc_min_nodes(0).gc_min_nodes, 2);
    }

    #[test]
    fn default_matches_historical_setters() {
        let c = BddConfig::default();
        assert!(c.auto_gc);
        assert_eq!(c.gc_min_nodes, GcState::DEFAULT_MIN_NODES);
        assert!(!c.auto_reorder);
    }
}
