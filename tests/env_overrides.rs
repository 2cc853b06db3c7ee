//! The `NM_SPMM_*` override precedence contract, pinned end to end:
//!
//! 1. **Explicit beats environment** — a builder call always wins over
//!    the corresponding environment variable.
//! 2. **Environment beats default** — with the builder silent, a set
//!    variable decides; unset (or empty) falls back to the built-in
//!    default.
//! 3. **Strict validation** — an unrecognized value is a structured
//!    build error, never a silent fallback to the default.
//!
//! Environment variables are process-global, so every claim lives in
//! ONE `#[test]` — the test binary is its own process, and a single
//! function cannot race itself.

use nm_spmm::core::sliced::STORAGE_ENV;
use nm_spmm::kernels::measure::{AutotuneMode, AUTOTUNE_ENV};
use nm_spmm::kernels::{Session, SessionBuilder};
use nm_spmm::prelude::*;
use nm_spmm::sim::device::a100_80g;

/// Set a variable for one scope; restore "unset" on drop even when an
/// assertion inside the scope panics.
struct EnvGuard(&'static str);

impl EnvGuard {
    fn set(name: &'static str, value: &str) -> Self {
        std::env::set_var(name, value);
        EnvGuard(name)
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        std::env::remove_var(self.0);
    }
}

fn build() -> Session {
    SessionBuilder::new(a100_80g()).build().expect("session")
}

#[test]
fn explicit_builder_calls_beat_env_vars_beat_defaults_and_typos_fail_loudly() {
    for var in [STORAGE_ENV, AUTOTUNE_ENV] {
        assert!(
            std::env::var(var).is_err(),
            "{var} must be unset when this test starts"
        );
    }

    // --- Defaults: nothing set, builder silent. ---
    let session = build();
    assert_eq!(session.storage(), None, "storage stays planned by default");
    assert_eq!(session.autotune(), AutotuneMode::Off);

    // --- NM_SPMM_STORAGE ---
    let layout = SlicedLayout::new(4, 16).expect("layout");
    {
        let _g = EnvGuard::set(STORAGE_ENV, "sliced:4:16");
        assert_eq!(build().storage(), Some(StorageFormat::Sliced(layout)));
        let explicit = SessionBuilder::new(a100_80g())
            .storage(StorageFormat::RowMajor)
            .build()
            .expect("explicit storage builds with the env var set");
        assert_eq!(explicit.storage(), Some(StorageFormat::RowMajor));
    }
    {
        let _g = EnvGuard::set(STORAGE_ENV, "diagonal");
        let err = SessionBuilder::new(a100_80g()).build().unwrap_err();
        assert!(
            matches!(err, NmError::Unsupported { .. }),
            "a typo'd storage format must be a structured error, got: {err}"
        );
    }

    // --- NM_SPMM_AUTOTUNE ---
    {
        let _g = EnvGuard::set(AUTOTUNE_ENV, "quick");
        assert_eq!(build().autotune(), AutotuneMode::Quick);
        let explicit = SessionBuilder::new(a100_80g())
            .autotune(AutotuneMode::Off)
            .build()
            .expect("explicit autotune builds with the env var set");
        assert_eq!(explicit.autotune(), AutotuneMode::Off);
    }
    {
        let _g = EnvGuard::set(AUTOTUNE_ENV, "overnight");
        let err = SessionBuilder::new(a100_80g()).build().unwrap_err();
        assert!(
            matches!(err, NmError::Unsupported { .. }),
            "a typo'd autotune mode must be a structured error, got: {err}"
        );
    }

    // --- Every guard dropped: the defaults are back. ---
    let session = build();
    assert_eq!(session.storage(), None);
    assert_eq!(session.autotune(), AutotuneMode::Off);
}
